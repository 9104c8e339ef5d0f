"""Haar sampling, biseparable models, invariance checks, certificates."""

import math

import numpy as np
import pytest

from spinboost import (
    BoostScenario,
    ClassCertificate,
    InputError,
    SpinEnsemble,
    ValidationError,
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
    _haar_unitary_qr,
    single_qubit_spectra,
)
from spinboost.constants import COMPOSITE_DIMS, ID2, PAULI_X
from spinboost.linalg import hermitian_eigen, partial_trace, projector, purity_unchecked
from spinboost.measures import m_concurrence_pure, three_tangle
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


@pytest.mark.parametrize("dim", [2, 3])
def test_haar_unitary_qr_moments(dim):
    rng = np.random.default_rng(22)
    n = 4000
    shape = (n, dim, dim)
    us = _haar_unitary_qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    gram = us[:50] @ us[:50].conj().transpose(0, 2, 1)
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(dim), gram.shape),
                               atol=1e-12)
    # first moment of any fixed entry vanishes, second is 1/dim
    assert abs(np.mean(us[:, 1, dim - 1])) < 0.05
    assert abs(np.mean(np.abs(us[:, 1, dim - 1]) ** 2) - 1.0 / dim) < 0.02
    # fourth moment E|u_ij|^4 = 2/(d(d+1)) for every entry, within 4
    # standard errors; randomly phased permutation matrices match the
    # first two moments but fail this one
    fourth = np.abs(us) ** 4
    se = fourth.std(axis=0) / math.sqrt(n)
    assert np.all(np.abs(fourth.mean(axis=0) - 2.0 / (dim * (dim + 1))) < 4.0 * se)


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
    with pytest.raises(InputError):
        random_local_unitary((2, 1), seed=99)


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


def _condition1_per_trial(vec, dims, trials, seed, specs, atol):
    # One kron matrix and one evaluation of every invariant per trial.
    base_conc = [m_concurrence_pure(vec, spec, dims) for spec in specs]
    base_tangle = three_tangle(vec) if dims == (2, 2, 2) else None
    failing, max_conc, max_tangle = [], 0.0, 0.0
    for t in range(trials):
        rotated = random_local_unitary(dims, seed + t).apply(vec)
        devs = [
            abs(m_concurrence_pure(rotated, spec, dims) - ref)
            for spec, ref in zip(specs, base_conc)
        ]
        max_conc = max([max_conc] + devs)
        if base_tangle is not None:
            dev = abs(three_tangle(rotated) - base_tangle)
            max_tangle = max(max_tangle, dev)
            devs.append(dev)
        if max(devs) > atol:
            failing.append(seed + t)
    return tuple(failing), max_conc, max_tangle


@pytest.mark.parametrize("atol", [1e-18, 1e-9])
def test_condition1_matches_per_trial_loop(atol):
    rng = np.random.default_rng(31)
    cases = [
        (ghz_state(), (2, 2, 2), _all_partitions(3)),
        (haar_state(8, rng), (2, 2, 2), _all_partitions(3)),
        (compose(haar_state(27, rng), haar_state(8, rng)).vector, COMPOSITE_DIMS,
         [particle_partition()]),
    ]
    for vec, dims, specs in cases:
        rep = check_condition1(vec, dims, trials=6, seed=40, partitions=specs,
                               atol=atol)
        failing, max_conc, max_tangle = _condition1_per_trial(
            vec, dims, 6, 40, specs, atol
        )
        assert rep.failing_seeds == failing
        assert rep.max_concurrence_deviation == max_conc
        assert rep.max_tangle_deviation == max_tangle


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
    assert rep.max_unitarity_error < 1e-13
    assert rep.max_locality_defect < 1e-13
    assert rep.max_base_deviation < 1e-13


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


def test_nan_base_state_certificate_fails():
    # NaN compares false against every tolerance, so a NaN base state
    # must be caught by the normalization check, not pass verification
    rng = np.random.default_rng(31)
    spin = haar_state(8, rng)
    state = compose(haar_state(27, rng), spin)
    sc = BoostScenario.from_angle(0.8)
    rho = boost_pure(state, sc).spin_density()
    honest = composite_spin_ensemble(state, sc)
    assert verify_certificate(ClassCertificate(spin, honest), rho).passed
    with pytest.raises(ValidationError):
        verify_certificate(ClassCertificate(np.full(8, np.nan), honest), rho)
    nan_term = SpinEnsemble(
        honest.weights, honest.unitaries, np.full_like(honest.base_vectors, np.nan)
    )
    with pytest.raises(ValidationError):  # rotated terms are not normalized
        verify_certificate(ClassCertificate(spin, nan_term), rho)


def test_single_qubit_spectra_match_eigensolver():
    rng = np.random.default_rng(32)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    states = [haar_state(8, rng) for _ in range(20)] + [
        ghz_state(),
        w_state(),
        np.eye(8)[0],  # |000>: every reduction pure
        np.kron(np.kron(haar_state(2, rng), haar_state(2, rng)), haar_state(2, rng)),
        np.kron(bell, plus),  # qubits 1, 2 maximally mixed: r = 0
        np.kron(plus, bell),
    ]
    got = single_qubit_spectra(np.array(states))
    assert got.shape == (len(states), 3, 2)
    for psi, spectra in zip(states, got):
        for q in range(3):
            w, _ = hermitian_eigen(partial_trace(projector(psi), (2, 2, 2), (q,)))
            np.testing.assert_allclose(spectra[q], w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(single_qubit_spectra(ghz_state()), 0.5, atol=1e-15)


def _single_term_certificate(base, unitary, base_vector):
    ens = SpinEnsemble(np.array([1.0]), unitary[None], base_vector[None])
    return ClassCertificate(base, ens), ens.mix()


def test_certificate_rejects_nonlocal_unitary():
    # CNOT (x) I leaves |000> unchanged, so reconstruction and every
    # invariant match; only the locality check can catch it.
    cnot = np.eye(4)[[0, 1, 3, 2]]
    base = np.eye(8, dtype=np.complex128)[0]
    cert, rho = _single_term_certificate(base, np.kron(cnot, np.eye(2)), base)
    rep = verify_certificate(cert, rho)
    assert not rep.passed
    assert rep.failing_terms == (0,)
    assert rep.max_locality_defect > 0.1
    assert max(rep.max_spectrum_deviation, rep.max_tangle_deviation) < 1e-15


def test_certificate_rejects_nonunitary_factor():
    # diag(1, 1/2) on qubit 1 is local and fixes |000>, but is not unitary
    base = np.eye(8, dtype=np.complex128)[0]
    u = np.kron(np.diag([1.0, 0.5]), np.eye(4))
    cert, rho = _single_term_certificate(base, u, base)
    rep = verify_certificate(cert, rho)
    assert not rep.passed
    assert rep.max_unitarity_error > 0.1
    assert rep.max_locality_defect < 1e-15


def test_certificate_rejects_lu_equivalent_base_vector():
    # base_vectors[0] = (X (x) I (x) I) base shares every LU invariant with
    # base but is a different state, so the certificate proves nothing.
    rng = np.random.default_rng(33)
    base = haar_state(8, rng)
    flipped = np.kron(np.kron(PAULI_X, ID2), ID2) @ base
    cert, rho = _single_term_certificate(base, np.eye(8, dtype=np.complex128), flipped)
    rep = verify_certificate(cert, rho)
    assert not rep.passed
    assert rep.max_base_deviation > 0.1
    assert max(rep.max_spectrum_deviation, rep.max_tangle_deviation) < 1e-12
    # ... while a global phase on the base vector is fine
    cert, rho = _single_term_certificate(
        base, np.eye(8, dtype=np.complex128), np.exp(0.3j) * base
    )
    assert verify_certificate(cert, rho).passed
