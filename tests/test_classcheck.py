"""Haar sampling, biseparable models, invariance checks, certificates."""

import math

import numpy as np
import pytest

from spinboost import (
    BoostScenario,
    ClassCertificate,
    SpinEnsemble,
    check_condition1,
    compose,
    composite_spin_ensemble,
    ghz_state,
    haar_state,
    is_density_matrix,
    random_local_unitary,
    sample_biseparable,
    verify_certificate,
    w_state,
)
from spinboost.boost import boost_pure
from spinboost.classcheck import (
    SPIN_BIPARTITIONS,
    _all_partitions,
    _haar_unitary_2x2,
    _haar_unitary_qr,
)
from spinboost.constants import COMPOSITE_DIMS
from spinboost.linalg import partial_trace, projector, purity_unchecked
from spinboost.states import particle_partition


def test_haar_state_normalized_and_uniform_mean():
    rng = np.random.default_rng(20)
    samples = np.stack([haar_state(4, rng) for _ in range(2000)])
    np.testing.assert_allclose(
        np.linalg.norm(samples, axis=1), 1.0, atol=1e-12
    )
    # E |v_i|^2 = 1/dim for every component
    mean_pops = (np.abs(samples) ** 2).mean(axis=0)
    np.testing.assert_allclose(mean_pops, 0.25, atol=0.03)


def test_haar_unitary_2x2_moments():
    rng = np.random.default_rng(21)
    us = [_haar_unitary_2x2(rng) for _ in range(3000)]
    for u in us[:50]:
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-13)
    # second moment of any fixed entry is 1/2 under the invariant measure
    m = np.mean([abs(u[0, 0]) ** 2 for u in us])
    assert abs(m - 0.5) < 0.02
    # first moment vanishes
    m1 = np.mean([u[0, 0] for u in us])
    assert abs(m1) < 0.05


def test_haar_unitary_qr_moments():
    rng = np.random.default_rng(22)
    dim = 3
    us = [_haar_unitary_qr(dim, rng) for _ in range(2000)]
    for u in us[:50]:
        np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)
    m = np.mean([abs(u[1, 2]) ** 2 for u in us])
    assert abs(m - 1.0 / dim) < 0.02


def test_random_local_unitary_structure():
    lu = random_local_unitary((3, 2, 2), seed=99)
    assert [f.shape for f in lu.factors] == [(3, 3), (2, 2), (2, 2)]
    m = lu.matrix()
    expected = np.kron(np.kron(lu.factors[0], lu.factors[1]), lu.factors[2])
    np.testing.assert_allclose(m, expected, atol=1e-14)
    np.testing.assert_allclose(m @ m.conj().T, np.eye(12), atol=1e-12)

    rng = np.random.default_rng(23)
    v = haar_state(12, rng)
    np.testing.assert_allclose(lu.apply(v), m @ v, atol=1e-13)

    again = random_local_unitary((3, 2, 2), seed=99)
    np.testing.assert_allclose(again.matrix(), m, atol=0)  # deterministic


def test_spin_bipartitions_catalog():
    assert len(SPIN_BIPARTITIONS) == 3
    firsts = sorted(spec.parts[0] for spec in SPIN_BIPARTITIONS)
    assert firsts == [(0,), (1,), (2,)]


def test_all_partitions_of_three():
    parts = _all_partitions(3)
    # 1|2|3 plus the three one-vs-pair splits
    assert len(parts) == 4
    sizes = sorted(p.num_parts for p in parts)
    assert sizes == [2, 2, 2, 3]


def test_sample_biseparable_is_valid_density():
    rng = np.random.default_rng(24)
    for i in range(10):
        spec = SPIN_BIPARTITIONS[i % 3] if i % 2 else None
        rho = sample_biseparable(spec, n_terms=int(rng.integers(1, 4)), seed=i)
        rep = is_density_matrix(rho)
        assert rep, rep


def test_sample_biseparable_single_term_is_pure_product():
    spec = SPIN_BIPARTITIONS[0]
    first = spec.parts[0]
    rho = sample_biseparable(spec, n_terms=1, seed=5)
    assert abs(purity_unchecked(rho) - 1.0) < 1e-12
    # product across the declared cut: rho = rho_first (x) rho_rest
    ra = partial_trace(rho, (2, 2, 2), first)
    rb = partial_trace(rho, (2, 2, 2), tuple(spec.parts[1]))
    if first == (0,):
        np.testing.assert_allclose(rho, np.kron(ra, rb), atol=1e-12)


def test_sample_biseparable_deterministic():
    a = sample_biseparable(None, n_terms=3, seed=77)
    b = sample_biseparable(None, n_terms=3, seed=77)
    np.testing.assert_allclose(a, b, atol=0)


def test_condition1_passes_for_known_states():
    for state in (ghz_state(), w_state()):
        rep = check_condition1(state, (2, 2, 2), trials=10, seed=1)
        assert rep.passed and bool(rep)
        assert rep.trials == 10
        assert rep.max_tangle_deviation < 1e-10
        assert rep.max_concurrence_deviation < 1e-10
        assert rep.failing_seeds == ()


def test_condition1_reports_failures_at_impossible_tolerance():
    rng = np.random.default_rng(25)
    state = haar_state(8, rng)
    rep = check_condition1(state, (2, 2, 2), trials=6, seed=2, atol=1e-18)
    assert not rep.passed
    assert len(rep.failing_seeds) > 0
    assert all(2 <= s < 2 + 6 for s in rep.failing_seeds)


def test_condition1_composite_factors():
    rng = np.random.default_rng(26)
    state = compose(haar_state(27, rng), haar_state(8, rng))
    rep = check_condition1(
        state.vector,
        COMPOSITE_DIMS,
        trials=3,
        seed=3,
        partitions=[particle_partition()],
    )
    assert rep.passed
    assert rep.max_tangle_deviation == 0.0  # tangle only defined for qubits


def test_certificate_verifies_boosted_reduction():
    rng = np.random.default_rng(27)
    spin = haar_state(8, rng)
    state = compose(haar_state(27, rng), spin)
    sc = BoostScenario.from_angle(0.9)
    cert = ClassCertificate(spin, composite_spin_ensemble(state, sc))
    rho = boost_pure(state, sc).spin_density()
    rep = verify_certificate(cert, rho)
    assert rep.passed and bool(rep)
    assert rep.reconstruction_error < 1e-12
    assert rep.max_spectrum_deviation < 1e-12
    assert rep.max_tangle_deviation < 1e-12


def test_certificate_detects_wrong_density():
    rng = np.random.default_rng(28)
    spin = haar_state(8, rng)
    state = compose(haar_state(27, rng), spin)
    sc = BoostScenario.from_angle(0.4)
    cert = ClassCertificate(spin, composite_spin_ensemble(state, sc))
    rep = verify_certificate(cert, np.eye(8) / 8.0)
    assert not rep.passed
    assert rep.reconstruction_error > 0.1


def test_certificate_detects_foreign_base_state():
    rng = np.random.default_rng(29)
    spin = haar_state(8, rng)
    state = compose(haar_state(27, rng), spin)
    sc = BoostScenario.from_angle(0.4)
    rho = boost_pure(state, sc).spin_density()
    wrong = ClassCertificate(haar_state(8, rng), composite_spin_ensemble(state, sc))
    rep = verify_certificate(wrong, rho)
    assert not rep.passed
    assert max(rep.max_spectrum_deviation, rep.max_tangle_deviation) > 1e-3


def test_forged_certificate_fails():
    # The forgery claims rho = |other><other| with base_vectors = base and
    # U = I.  A certificate that carried its own projectors next to the
    # base vectors could rebuild rho from the projectors and pass, which
    # would certify other as LU-equivalent to base.  rho is rebuilt from
    # the base vectors alone, so the claim must fail reconstruction.
    rng = np.random.default_rng(30)
    base, other = haar_state(8, rng), haar_state(8, rng)
    eye = np.eye(8, dtype=np.complex128)[None]
    with pytest.raises(TypeError):
        SpinEnsemble(np.array([1.0]), eye, bases=projector(other)[None],
                     base_vectors=base[None])
    forged = ClassCertificate(base, SpinEnsemble(np.array([1.0]), eye, base[None]))
    rep = verify_certificate(forged, projector(other))
    assert not rep.passed
    assert rep.reconstruction_error > 0.1
