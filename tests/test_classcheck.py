"""Haar sampling, biseparable models, invariance checks, certificates."""

import functools
import itertools
import math

import numpy as np
import pytest

from spinboost import (
    BoostScenario,
    ClassCertificate,
    InputError,
    ShapeError,
    SpinEnsemble,
    ValidationError,
    antisymmetric_coeffs,
    check_condition1,
    compose,
    composite_spin_ensemble,
    ghz_state,
    haar_state,
    is_density_matrix,
    sample_biseparable,
    verify_certificate,
    w_state,
)
from spinboost import boost, classcheck
from spinboost.boost import boost_pure
from spinboost.classcheck import (
    CONDITION1_CHUNK,
    CONDITION2_CHUNK,
    SOUNDNESS_CHUNK,
    SPIN_BIPARTITIONS,
    _all_partitions,
    _haar_factors,
    _haar_unitary,
    condition1_suite,
    condition2_suite,
    single_qubit_spectra,
    soundness_suite,
)
from spinboost.constants import COMPOSITE_DIMS, ID2, PAULI_X
from spinboost.kinematics import spin_rotations
from spinboost.linalg import (
    apply_local,
    hermitian_eigen,
    partial_trace,
    projector,
    purity_unchecked,
    row_norms,
)
from spinboost.measures import _qubit_gram, m_concurrence_pure, three_tangle
from spinboost.states import (
    CompositeState,
    basis_momentum,
    bipartition,
    particle_partition,
    permutation_momentum,
)


def test_haar_state_normalized_and_uniform_mean():
    rng = np.random.default_rng(20)
    for samples in (
        np.stack([haar_state(4, rng) for _ in range(2000)]),
        haar_state(4, rng, (40, 50)).reshape(2000, 4),  # one batched draw
    ):
        np.testing.assert_allclose(
            np.linalg.norm(samples, axis=1), 1.0, atol=1e-12
        )
        # E |v_i|^2 = 1/dim for every component
        mean_pops = (np.abs(samples) ** 2).mean(axis=0)
        np.testing.assert_allclose(mean_pops, 0.25, atol=0.03)


def test_haar_state_rejects_empty_dimension():
    for dim in (0, -1):
        with pytest.raises(InputError, match="state dimension"):
            haar_state(dim, np.random.default_rng(0))


@pytest.mark.parametrize("dim", [2, 3])
def test_haar_unitary_moments(dim):
    # dim 2 exercises the closed form, dim 3 the stacked QR
    rng = np.random.default_rng(22)
    n = 4000
    shape = (n, dim, dim)
    us = _haar_unitary(rng.normal(size=shape) + 1j * rng.normal(size=shape))
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


def _qr_oracle(g):
    # the phase-fixed Q of G = QR, straight from LAPACK
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _suite_gaussians(dims, trials=100):
    # the complex Gaussians condition1_suite draws: trial rows of
    # default_rng(7 + 1000 i) for its 12 states, split factor by factor
    g = np.stack([np.random.default_rng(7 + 1000 * i).standard_normal(
        (trials, 2, sum(d * d for d in dims))) for i in range(12)])
    z = g[:, :, 0] + 1j * g[:, :, 1]
    ends = np.cumsum([0] + [d * d for d in dims])
    return [z[..., ends[i]:ends[i + 1]].reshape(z.shape[:2] + (d, d))
            for i, d in enumerate(dims)]


def test_haar_unitary_2x2_closed_form_matches_qr():
    # Both Qs carry roundoff of a few eps * cond(G).  The suite's draws
    # (cond <= 176) agree within 1e-13.  Of 10^4 fresh draws one has cond
    # 912, where LAPACK's Q is 1.4e-13 from the exact Q (the closed form's
    # is 1e-14 in extended precision), so fresh draws may differ by
    # 4 eps cond(G) where that exceeds 1e-13.
    fresh = np.random.default_rng(21).normal(size=(2, 10**4, 2, 2))
    fresh = fresh[0] + 1j * fresh[1]
    suite = _suite_gaussians((2, 2, 2))
    for g in suite + [fresh]:
        q = _haar_unitary(g)
        err = np.abs(q - _qr_oracle(g)).max(axis=(-2, -1))
        bound = 1e-13 if g is not fresh else np.maximum(
            1e-13, 4 * np.finfo(float).eps * np.linalg.cond(g))
        assert np.all(err <= bound)
        defect = q @ np.swapaxes(q.conj(), -1, -2) - np.eye(2)
        assert np.linalg.norm(defect, axis=(-2, -1)).max() <= 1e-14
    # and the drawn factors are exactly these, trial t from row t
    rngs = [np.random.default_rng(7 + 1000 * i) for i in range(12)]
    for f, g in zip(_haar_factors((2, 2, 2), rngs, 100), suite):
        np.testing.assert_array_equal(f, _haar_unitary(g))


def test_haar_factors_3x3_are_the_stacked_qr():
    # each dimension-3 factor is orthonormalized by its own QR call, and
    # equals the one stacked QR of all of them bit for bit: LAPACK factors
    # each matrix of a stack alone
    dims = COMPOSITE_DIMS
    rngs = [np.random.default_rng(7 + 1000 * i) for i in range(12)]
    factors = _haar_factors(dims, rngs, 100)
    gauss = _suite_gaussians(dims)
    threes = _qr_oracle(np.stack([g for g, d in zip(gauss, dims) if d == 3], axis=2))
    for k, f in enumerate(f for f, d in zip(factors, dims) if d == 3):
        np.testing.assert_array_equal(f, threes[:, :, k])
    for f, g, d in zip(factors, gauss, dims):
        if d == 2:
            np.testing.assert_allclose(f, _qr_oracle(g), rtol=0, atol=1e-13)


def test_haar_factors_structure():
    factors = _haar_factors((3, 2, 2), [np.random.default_rng(99)], 1)
    assert [f.shape for f in factors] == [(1, 1, 3, 3), (1, 1, 2, 2), (1, 1, 2, 2)]
    m = np.kron(np.kron(factors[0][0, 0], factors[1][0, 0]), factors[2][0, 0])
    np.testing.assert_allclose(m @ m.conj().T, np.eye(12), atol=1e-12)

    rng = np.random.default_rng(23)
    v = haar_state(12, rng)
    np.testing.assert_allclose(apply_local(factors, v, (3, 2, 2))[0, 0], m @ v,
                               atol=1e-13)

    again = _haar_factors((3, 2, 2), [np.random.default_rng(99)], 1)
    for a, b in zip(again, factors):
        np.testing.assert_array_equal(a, b)  # deterministic
    with pytest.raises(InputError):
        _haar_factors((2, 1), [np.random.default_rng(99)], 1)


def _trial_factors(dims, seed, trials):
    # Reference draw: one (trials, 2, sum d_i^2) block of normals from
    # default_rng(seed); factor i of trial t is its d_i^2 entries at
    # factor i's offset, orthonormalized on its own.
    g = np.random.default_rng(seed).normal(size=(trials, 2, sum(d * d for d in dims)))
    z = g[:, 0] + 1j * g[:, 1]
    ends = np.cumsum([0] + [d * d for d in dims])
    return [[_haar_unitary(z[t, ends[i]:ends[i + 1]].reshape(d, d))
             for i, d in enumerate(dims)] for t in range(trials)]


@pytest.mark.parametrize("dims", [(2, 2, 2), COMPOSITE_DIMS])
def test_haar_factors_match_per_seed_draws(dims):
    # every generator's factors equal the reference draw from its own
    # seed, bit for bit, whichever generators share the call
    seeds = [40 + s for s in range(3)]
    batched = _haar_factors(dims, [np.random.default_rng(s) for s in seeds], 7)
    assert [f.shape for f in batched] == [(3, 7, d, d) for d in dims]
    for k, seed in enumerate(seeds):
        single = _haar_factors(dims, [np.random.default_rng(seed)], 7)
        for t, expected in enumerate(_trial_factors(dims, seed, 7)):
            for i in range(len(dims)):
                np.testing.assert_array_equal(batched[i][k, t], expected[i])
                np.testing.assert_array_equal(single[i][0, t], expected[i])
    with pytest.raises(InputError):  # condition1 still rejects 1-dim factors
        check_condition1(ghz_state(), (1, 8), trials=2, seed=1)


@pytest.mark.parametrize("dims", [(2, 2, 2), COMPOSITE_DIMS])
def test_haar_factors_trial_is_a_prefix_of_the_stream(dims):
    # trial t is the same for trials = t + 1, trials = T and trials past a
    # chunk, and consecutive calls on one generator continue its stream
    big = CONDITION1_CHUNK + 5
    full = _haar_factors(dims, [np.random.default_rng(8)], big)
    rng = np.random.default_rng(8)
    chunks = [_haar_factors(dims, [rng], n) for n in (CONDITION1_CHUNK, 2, 3)]
    for i in range(len(dims)):
        np.testing.assert_array_equal(
            np.concatenate([c[i] for c in chunks], axis=1), full[i])
    for trials in (1, 4, 9):
        short = _haar_factors(dims, [np.random.default_rng(8)], trials)
        for i in range(len(dims)):
            np.testing.assert_array_equal(short[i][0, trials - 1],
                                          full[i][0, trials - 1])
            np.testing.assert_array_equal(short[i], full[i][:, :trials])


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
    # every cut, and a spec that lists the pair first
    for spec, seed in itertools.product(
        SPIN_BIPARTITIONS + (bipartition((0, 1), 3),), range(5)
    ):
        (lone,) = min(spec.parts, key=len)
        rho = sample_biseparable(spec, n_terms=1, seed=seed)
        assert abs(purity_unchecked(rho) - 1.0) < 1e-12
        # a pure product across the cut has a pure reduction on each side
        for keep in ((lone,), tuple(i for i in range(3) if i != lone)):
            reduced = partial_trace(rho, (2, 2, 2), keep)
            assert abs(purity_unchecked(reduced) - 1.0) < 1e-12
        if lone == 0:  # rho = rho_lone (x) rho_pair in natural factor order
            ra = partial_trace(rho, (2, 2, 2), (0,))
            rb = partial_trace(rho, (2, 2, 2), (1, 2))
            np.testing.assert_allclose(rho, np.kron(ra, rb), atol=1e-12)


def test_sample_biseparable_deterministic():
    a = sample_biseparable(None, n_terms=3, seed=77)
    b = sample_biseparable(None, n_terms=3, seed=77)
    np.testing.assert_allclose(a, b, atol=0)


def test_condition1_passes_for_known_states():
    for state in (ghz_state(), w_state()):
        rep = check_condition1(state, (2, 2, 2), trials=10, seed=1)
        assert rep.passed and bool(rep)
        assert rep.max_tangle_deviation < 1e-10
        assert rep.max_concurrence_deviation < 1e-10
        assert rep.failing_trials == ()


# |psi|^2 the unit rule accepts, at and well inside its ATOL_PHYSICS edge
EDGE_NORMS = (1 + 0.9e-9, 1 - 0.9e-9, 1 + 1e-11, 1 - 1e-11)


@pytest.mark.parametrize("norm2", EDGE_NORMS)
def test_condition1_passes_at_edge_norms(norm2):
    rng = np.random.default_rng(42)
    spins = np.stack([ghz_state(), w_state(), np.eye(8)[0], haar_state(8, rng)])
    for rep in check_condition1(math.sqrt(norm2) * spins, (2, 2, 2), 50, 3):
        assert rep.passed
        assert max(rep.max_tangle_deviation, rep.max_concurrence_deviation) < 1e-12


def test_condition1_rejects_fewer_than_one_trial():
    # zero trials would pass vacuously
    for trials in (0, -3):
        with pytest.raises(InputError):
            check_condition1(ghz_state(), (2, 2, 2), trials=trials, seed=1)


def test_condition1_rejects_negative_seed():
    # numpy would raise a bare ValueError for the negative trial seeds
    for seed in (-1, -50):
        with pytest.raises(InputError, match=f"seed must be nonnegative, got {seed}"):
            check_condition1(ghz_state(), (2, 2, 2), trials=2, seed=seed)


def test_condition1_rejects_non_integer_trials_and_seeds():
    for kwargs in ({"seed": 1.5}, {"seed": True}, {"seed": np.array([1.0])},
                   {"seed": "3"}, {"trials": 2.5}, {"trials": True}):
        args = {"trials": 2, "seed": 1, **kwargs}
        with pytest.raises(InputError, match="trials and seed must be integers"):
            check_condition1(ghz_state(), (2, 2, 2), **args)
    states = np.stack([ghz_state(), w_state()])
    for seed in ([1, 2, 3], [[1, 2]], np.arange(4).reshape(2, 2)):
        with pytest.raises(ShapeError, match="seed shape"):
            check_condition1(states, (2, 2, 2), trials=2, seed=seed)
    with pytest.raises(ShapeError, match="does not match dims"):
        check_condition1(ghz_state().reshape(2, 4), (2, 2, 2), trials=2, seed=1)


def test_condition1_accepts_composite_state():
    state = compose(basis_momentum((0, 1, 2)), haar_state(8, 26))
    assert (check_condition1(state, COMPOSITE_DIMS, trials=3, seed=5)
            == check_condition1(state.vector, COMPOSITE_DIMS, trials=3, seed=5))


def test_condition1_reports_failures_at_impossible_tolerance():
    # at atol 1e-18 every roundoff fails a trial; the indices name trials,
    # so a shorter run reports exactly the failures among its trials
    rng = np.random.default_rng(25)
    state = haar_state(8, rng)
    rep = check_condition1(state, (2, 2, 2), trials=6, seed=2, atol=1e-18)
    assert not rep.passed
    assert len(rep.failing_trials) > 0
    assert set(rep.failing_trials) <= set(range(6))
    assert rep.failing_trials == tuple(sorted(rep.failing_trials))
    for trials in range(1, 6):
        short = check_condition1(state, (2, 2, 2), trials=trials, seed=2,
                                 atol=1e-18)
        assert short.failing_trials == tuple(
            t for t in rep.failing_trials if t < trials)


def _condition1_per_trial(vec, dims, trials, seed, specs, atol):
    # One sample applied and one evaluation of every invariant per trial,
    # trial t drawn as the next row of default_rng(seed).
    base_conc = [m_concurrence_pure(vec, spec, dims) for spec in specs]
    base_tangle = three_tangle(vec) if dims == (2, 2, 2) else None
    rng = np.random.default_rng(seed)
    failing, max_conc, max_tangle = [], 0.0, 0.0
    for t in range(trials):
        rotated = apply_local(_haar_factors(dims, [rng], 1), vec, dims)[0, 0]
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
            failing.append(t)
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
        assert rep.failing_trials == failing
        assert rep.max_concurrence_deviation == max_conc
        assert rep.max_tangle_deviation == max_tangle


def test_condition1_chunks_do_not_change_reports(monkeypatch):
    rng = np.random.default_rng(33)
    spins = np.stack([ghz_state()] + [haar_state(8, rng) for _ in range(3)])
    trials = CONDITION1_CHUNK + 7
    chunked = check_condition1(spins, (2, 2, 2), trials, [1, 2, 3, 4], atol=1e-18)
    monkeypatch.setattr(classcheck, "CONDITION1_CHUNK", trials)
    whole = check_condition1(spins, (2, 2, 2), trials, [1, 2, 3, 4], atol=1e-18)
    assert chunked == whole
    assert any(t >= CONDITION1_CHUNK for rep in whole for t in rep.failing_trials)


def test_condition1_suite_checks_ten_single_haar_draws(monkeypatch):
    # the suite draws its ten Haar spins in one call; they must be exactly
    # the states ten haar_state(8, rng) calls would give, after GHZ and W
    seen = []

    def spy(states, *args, **kwargs):
        seen.append(states)
        return check_condition1(states, *args, **kwargs)

    monkeypatch.setattr(classcheck, "check_condition1", spy)
    assert condition1_suite(trials=2, seed=123)[0]
    rng = np.random.default_rng(123)
    expected = np.stack([ghz_state(), w_state()] + [haar_state(8, rng) for _ in range(10)])
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], expected)


def test_condition1_suite_memory_does_not_grow_with_trials(peak_bytes):
    (passed, lines), peak = peak_bytes(condition1_suite, 5000)
    assert passed and len(lines) == 1
    assert peak < 4e6  # all rotated amplitudes at once would be 7.7 MB


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
    assert rep.max_base_deviation < 1e-13


@pytest.mark.parametrize("norm2", EDGE_NORMS)
def test_certificate_passes_at_edge_norms(norm2):
    # the terms are checked against base/|base|, so a base state the unit
    # rule accepted verifies like a unit one
    spin = math.sqrt(norm2) * haar_state(8, np.random.default_rng(40))
    state = compose(permutation_momentum(antisymmetric_coeffs()), spin)
    sc = BoostScenario.from_angle(0.7)
    rho = boost_pure(state, sc).spin_density()
    cert = ClassCertificate(spin, composite_spin_ensemble(state, sc))
    rep = verify_certificate(cert, rho)
    assert rep.passed and rep.failing_terms == ()
    assert rep.max_base_deviation < 1e-13
    assert max(rep.max_spectrum_deviation, rep.max_tangle_deviation) < 1e-12


@pytest.mark.parametrize("norm2", EDGE_NORMS)
def test_forgeries_fail_the_same_terms_at_edge_norms(norm2):
    rng = np.random.default_rng(43)
    base, other = haar_state(8, rng), haar_state(8, rng)
    flipped = np.kron(np.kron(PAULI_X, ID2), ID2) @ base
    forgeries = [  # (claimed base state, factors, row)
        (base, [ID2, ID2, ID2], flipped),  # LU-equivalent row
        (other, [ID2, ID2, ID2], base),  # foreign base state
        (base, [np.diag([1.0, 0.5]), ID2, ID2], base),  # nonunitary factor
    ]
    for claimed, factors, row in forgeries:
        unit = verify_certificate(*_single_term_certificate(claimed, factors, row))
        cert, rho = _single_term_certificate(math.sqrt(norm2) * claimed, factors, row)
        edge = verify_certificate(cert, rho)
        assert not unit.passed and not edge.passed
        assert edge.failing_terms == unit.failing_terms == (0,)


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
    # The forgery claims rho = |other><other| with rows = base and U = I.
    # A certificate that carried its own projectors next to the rows could
    # rebuild rho from the projectors and pass, which would certify other
    # as LU-equivalent to base.  rho is rebuilt from the rows alone, so the
    # claim must fail reconstruction.
    rng = np.random.default_rng(30)
    base, other = haar_state(8, rng), haar_state(8, rng)
    eye = np.broadcast_to(ID2, (1, 3, 2, 2))
    with pytest.raises(TypeError):
        SpinEnsemble(eye, bases=projector(other)[None], rows=base[None])
    forged = ClassCertificate(base, SpinEnsemble(eye, base[None]))
    rep = verify_certificate(forged, projector(other))
    assert not rep.passed
    assert rep.reconstruction_error > 0.1


def _as_batch_of_one(cert):
    ens = cert.ensemble
    return ClassCertificate(cert.base_state[None],
                            SpinEnsemble(ens.rotations[None], ens.rows[None]))


def test_nan_base_state_certificate_fails():
    # NaN compares false against every tolerance, so a NaN base state
    # must be caught by the normalization check, not pass verification;
    # a single certificate is a batch of one, so it fails with the report
    # its batch item gets (repr: NaN fields compare unequal).  NaN rows
    # fail the trace rule, so no such ensemble can be built.
    rng = np.random.default_rng(31)
    spin = haar_state(8, rng)
    state = compose(haar_state(27, rng), spin)
    sc = BoostScenario.from_angle(0.8)
    rho = boost_pure(state, sc).spin_density()
    honest = composite_spin_ensemble(state, sc)
    assert verify_certificate(ClassCertificate(spin, honest), rho).passed
    with pytest.raises(ValidationError):
        SpinEnsemble(honest.rotations, np.full_like(honest.rows, np.nan))
    cert = ClassCertificate(np.full(8, np.nan), honest)
    alone = verify_certificate(cert, rho)
    assert not alone.passed
    assert alone.failing_terms == tuple(range(len(honest.rows)))
    assert repr([alone]) == repr(verify_certificate(_as_batch_of_one(cert),
                                                    rho[None]))


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
    for bad in (np.ones(4), np.ones((2, 16))):  # only 8 amplitudes are a spin state
        with pytest.raises(ShapeError):
            single_qubit_spectra(bad)


# Full-copy formulas the lean kernels must reproduce bit for bit: complex rows
# through two complex temporaries, one np.take of all three cuts, and the
# product terms reordered by take_along_axis.
def _unit_rows_oracle(re, im):
    v = re + 1j * im
    return v / row_norms(v)[..., None]


def _haar_state_oracle(dim, rng, batch):
    shape = tuple(batch) + (dim,)
    return _unit_rows_oracle(rng.normal(size=shape), rng.normal(size=shape))


def _haar_factors_oracle(dims, rngs, trials):
    gauss = np.empty((len(rngs), trials, 2, sum(d * d for d in dims)))
    for rng, rows in zip(rngs, gauss):
        rng.standard_normal(out=rows)
    z = gauss[:, :, 0] + 1j * gauss[:, :, 1]
    blocks = np.split(z, np.cumsum([d * d for d in dims[:-1]]), axis=-1)
    return [_haar_unitary(b.reshape(z.shape[:2] + (d, d))) for b, d in zip(blocks, dims)]


def _spectra_oracle(psi):
    psi = np.asarray(psi, dtype=np.complex128)
    rows = np.take(psi, np.argsort(classcheck._CUT_INDEX).reshape(3, 2, 4), axis=-1)
    a, d, b = _qubit_gram(rows[..., 0, :], rows[..., 1, :])
    r = np.hypot((a - d) / 2.0, np.abs(b))
    mean = (a + d) / 2.0
    return np.stack([mean + r, mean - r], axis=-1)


def _biseparable_oracle(cuts, weights, rng):
    x = np.sqrt(weights)[..., None] * _haar_state_oracle(2, rng, cuts.shape)
    y = _haar_state_oracle(4, rng, cuts.shape)
    prod = (x[..., :, None] * y[..., None, :]).reshape(cuts.shape + (8,))
    return np.take_along_axis(prod, classcheck._CUT_INDEX[cuts], axis=-1)


@pytest.mark.parametrize("batch", [(), (1,), (7,), (3, 4), "strided", "transposed"])
def test_lean_kernels_match_full_copy_formulas(batch):
    # every bit of the kernels equals its full-copy formula, for any batch
    # shape and for views: a strided one, and one whose batch axes are
    # transposed (verify_certificate's psi) or Fortran-ordered
    rng = np.random.default_rng(61)

    def draw(make, *tail):  # make(shape) as an array of shape batch + tail, or a view
        if batch == "strided":
            return make((3, 2 * tail[0]) + tail[1:])[:, ::2]
        if batch == "transposed":
            return np.swapaxes(make((4, 3) + tail), 0, 1)
        return make(batch + tail)

    def normal(shape):
        return rng.normal(size=shape)

    re, im = draw(normal, 8), draw(normal, 8)
    np.testing.assert_array_equal(classcheck._unit_rows(re, im), _unit_rows_oracle(re, im))
    psi = draw(lambda shape: classcheck._unit_rows(normal(shape), normal(shape)), 8)
    for psi in (psi, np.asfortranarray(psi)):
        np.testing.assert_array_equal(single_qubit_spectra(psi), _spectra_oracle(psi))

    cuts = draw(lambda shape: rng.integers(0, 3, size=shape), 4)
    weights = np.abs(draw(normal, 4))
    weights /= weights.sum(axis=-1, keepdims=True)
    np.testing.assert_array_equal(
        classcheck._biseparable_terms(cuts, weights, np.random.default_rng(5)),
        _biseparable_oracle(cuts, weights, np.random.default_rng(5)))


@pytest.mark.parametrize("n_rngs, trials", [(1, 1), (1, 7), (7, 1), (3, 4)])
def test_haar_factors_match_full_copy_formula(n_rngs, trials):
    for dims in ((2, 2, 2), (2, 3), COMPOSITE_DIMS):
        got, want = (f(dims, [np.random.default_rng(s) for s in range(n_rngs)], trials)
                     for f in (_haar_factors, _haar_factors_oracle))
        for f, g in zip(got, want, strict=True):
            np.testing.assert_array_equal(f, g)


@pytest.mark.parametrize("call, bound", [
    (condition1_suite, 1.0e6),  # 1.15 MB with a full copy of the factors alive
    (condition2_suite, 1.8e6),  # 2.62 MB with three cuts' rows taken at once
    (soundness_suite, 1.45e6),  # 1.89 MB with the reordered terms a second copy
    # 1.24 MB for one np.take of all three cuts, 3x the amplitudes
    (functools.partial(single_qubit_spectra,
                       haar_state(8, np.random.default_rng(3), (50, 27))), 0.5e6),
], ids=["condition1", "condition2", "soundness", "spectra"])
def test_check_suites_peak_memory_at_default_trials(call, bound, peak_bytes):
    # no step of a suite builds a copy larger than its input, so the
    # transient peak at default trials stays under its bound
    assert peak_bytes(call)[1] < bound


def _single_term_certificate(base, factors, base_vector):
    ens = SpinEnsemble(np.array(factors)[None], base_vector[None])
    return ClassCertificate(base, ens), ens.mix()


def test_certificate_rejects_nonlocal_unitary():
    # CNOT (x) I leaves |000> unchanged, so reconstruction and every
    # invariant would match; a term stores three 2x2 factors, so a
    # nonlocal U_k cannot enter a certificate at all.
    cnot = np.eye(4)[[0, 1, 3, 2]]
    base = np.eye(8, dtype=np.complex128)[0]
    with pytest.raises(ShapeError):
        _single_term_certificate(base, np.kron(cnot, np.eye(2)), base)


def test_certificate_rejects_nonunitary_factor():
    # diag(1, 1/2) on qubit 1 is local and fixes |000>, but is not unitary
    base = np.eye(8, dtype=np.complex128)[0]
    cert, rho = _single_term_certificate(base, [np.diag([1.0, 0.5]), ID2, ID2], base)
    rep = verify_certificate(cert, rho)
    assert not rep.passed
    assert rep.failing_terms == (0,)
    assert rep.max_unitarity_error > 0.1


def _one_factor_certificates(f):
    # one report per 2x2 factor in f (n, 2, 2): a one-term certificate of
    # |000> rotated by f (x) I (x) I, so its unitarity error is f's alone
    n = len(f)
    rotations = np.tile(ID2.astype(complex), (n, 1, 3, 1, 1))
    rotations[:, 0, 0] = f
    base = np.tile(np.eye(8, dtype=complex)[0], (n, 1))
    ens = SpinEnsemble(rotations, base[:, None])
    return verify_certificate(ClassCertificate(base, ens), ens.mix())


def test_unitarity_error_matches_matmul_norm():
    # the closed-form defect equals ||f f^H - I||_F from a matrix product
    rng = np.random.default_rng(34)
    haar = _haar_factors((2,), [rng], 300)[0][0]
    g = rng.normal(size=(2, 300, 2, 2))
    for f in (haar, g[0] + 1j * g[1], (1 + 1e-6) * haar):
        expected = np.linalg.norm(f @ np.swapaxes(f.conj(), -1, -2) - np.eye(2),
                                  axis=(-2, -1))
        got = np.array([r.max_unitarity_error for r in _one_factor_certificates(f)])
        assert np.all(np.abs(got - expected) <= np.maximum(1e-15, 1e-12 * expected))
    assert 1e-6 < got.min()  # the scaled unitaries are told apart


def test_nan_factor_fails_its_term():
    f = _haar_factors((2,), [np.random.default_rng(35)], 2)[0][0]
    f[1, 0, 1] = np.nan
    good, bad = _one_factor_certificates(f)
    assert good.passed and good.max_unitarity_error < 1e-14
    assert not bad.passed and bad.failing_terms == (0,)
    assert math.isnan(bad.max_unitarity_error)


def test_certificate_rejects_lu_equivalent_base_vector():
    # rows[0] = (X (x) I (x) I) base shares every LU invariant with
    # base but is a different state, so the certificate proves nothing.
    rng = np.random.default_rng(33)
    base = haar_state(8, rng)
    flipped = np.kron(np.kron(PAULI_X, ID2), ID2) @ base
    cert, rho = _single_term_certificate(base, [ID2, ID2, ID2], flipped)
    rep = verify_certificate(cert, rho)
    assert not rep.passed
    assert rep.max_base_deviation > 0.1
    assert max(rep.max_spectrum_deviation, rep.max_tangle_deviation) < 1e-12
    # ... while a global phase on the row is fine
    cert, rho = _single_term_certificate(base, [ID2, ID2, ID2], np.exp(0.3j) * base)
    assert verify_certificate(cert, rho).passed


def test_soundness_suite_memory_does_not_grow_with_trials(peak_bytes):
    (passed, lines), peak = peak_bytes(soundness_suite, 20000)
    assert passed and len(lines) == 1
    assert peak < 5e6


def test_soundness_suite_chunks_keep_global_sample_indices(monkeypatch):
    # sample i keeps its cut pattern (i % 4, i % 3) and its report index
    # across chunks; chunk 0 is the draw of a run with fewer trials, and
    # later chunks draw from their own streams
    seen = []
    real = classcheck._biseparable_terms

    def spy(cuts, weights, rng):
        seen.append(cuts.copy())
        return real(cuts, weights, rng)

    monkeypatch.setattr(classcheck, "_biseparable_terms", spy)
    trials = 2 * SOUNDNESS_CHUNK + 500
    assert soundness_suite(trials=trials, seed=3)[0]
    assert [c.shape[0] for c in seen] == [SOUNDNESS_CHUNK] * 2 + [500]
    cuts, i = np.concatenate(seen), np.arange(trials)
    fixed = i % 4 != 0
    assert np.all(cuts[fixed] == (i % 3)[fixed, None])
    assert not np.array_equal(seen[0][::4], seen[1][::4])
    soundness_suite(trials=SOUNDNESS_CHUNK, seed=3)
    assert np.array_equal(seen[-1], seen[0])

    monkeypatch.setattr(
        classcheck,
        "_biseparable_terms",
        lambda cuts, weights, rng: np.tile(ghz_state(), weights.shape[:-1] + (1, 1)),
    )
    passed, lines = soundness_suite(trials=trials)
    assert not passed and len(lines) == trials + 1
    assert lines[trials - 1].startswith(f"FAIL sample {trials - 1}: witness value")


def test_batched_verification_fails_only_broken_items():
    # one vectorized pass over six certificates: a forgery (rows = base,
    # U = I, claiming |other><other|), a NaN base state, a wrong rho and a
    # NaN factor on a zero padding row each fail their own item; the two
    # honest items pass with their single reports
    rng = np.random.default_rng(41)
    spins = haar_state(8, rng, (4,))
    vectors = np.array([compose(haar_state(27, rng), s).vector for s in spins])
    deltas = rng.uniform(0.0, math.pi / 2, 4)
    rotations = spin_rotations(deltas)
    honest = boost.boosted_spin_terms(vectors, rotations)
    rhos = np.array([
        boost_pure(CompositeState(v), BoostScenario(d)).spin_density()
        for v, d in zip(vectors, deltas)
    ])
    base, other, lone = haar_state(8, rng, (3,))
    eye = np.broadcast_to(ID2, (27, 3, 2, 2))
    nan_pad = eye.copy()
    nan_pad[5, 0, 0, 0] = np.nan
    forged_v = np.zeros((27, 8), dtype=np.complex128)
    forged_v[0] = base
    lone_v = forged_v.copy()
    lone_v[0] = lone
    ens = SpinEnsemble(
        np.concatenate([honest.rotations, [eye, nan_pad]]),
        np.concatenate([honest.rows, [forged_v, lone_v]]),
    )
    bases = np.stack([spins[0], spins[1], np.full(8, np.nan), spins[3], base, lone])
    rho_in = np.concatenate([rhos, [projector(other), projector(lone)]])
    rho_in[3] = np.eye(8) / 8.0  # wrong density for an honest certificate
    reports = verify_certificate(ClassCertificate(bases, ens), rho_in)
    assert [r.passed for r in reports] == [True, True, False, False, False, False]
    for t in (0, 1):
        single = SpinEnsemble(honest.rotations[t], honest.rows[t])
        assert reports[t] == verify_certificate(ClassCertificate(spins[t], single),
                                                rhos[t])
    assert reports[2].failing_terms == tuple(range(27))  # NaN base state
    assert math.isnan(reports[2].max_base_deviation)
    alone = verify_certificate(ClassCertificate(bases[2], SpinEnsemble(
        honest.rotations[2], honest.rows[2])), rhos[2])
    assert not alone.passed  # ... and alone fails with the same report
    assert repr(alone) == repr(reports[2])  # repr: NaN fields compare unequal
    assert reports[3].reconstruction_error > 0.1 and not reports[3].failing_terms
    assert reports[4].reconstruction_error > 0.1 and not reports[4].failing_terms
    assert math.isnan(reports[5].reconstruction_error)  # NaN * 0 in mix()
    assert not reports[5].failing_terms  # padding is not a checked term


def test_swept_certificate_shares_rows_across_angles():
    # one Haar product state under a sweep of G angles: the builder gives
    # one (K, 8) set of rows and (G, K, 3, 2, 2) rotations, and every
    # angle's mixture and report equal its single-angle certificate's
    rng = np.random.default_rng(42)
    spin = haar_state(8, rng)
    state = compose(haar_state(27, rng), spin)
    deltas = rng.uniform(0.0, math.pi / 2, 5)
    swept = boost.boosted_spin_terms(state, spin_rotations(deltas))
    assert swept.rows.shape == (27, 8) and swept.rotations.shape == (5, 27, 3, 2, 2)
    mixes = swept.mix()
    reports = verify_certificate(ClassCertificate(np.tile(spin, (5, 1)), swept), mixes)
    for g, delta in enumerate(deltas):
        single = composite_spin_ensemble(state, BoostScenario(delta))
        rho = single.mix()
        np.testing.assert_array_equal(mixes[g], rho)
        alone = verify_certificate(ClassCertificate(spin, single), rho)
        assert alone.passed and reports[g] == alone


def _condition2_reference(trials, seed):
    # condition2_suite as it read with one certificate per trial: the same
    # draws, each boosted, reduced, certified and verified alone
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(trials):
        momentum, spin = haar_state(27, rng), haar_state(8, rng)
        sc = BoostScenario(rng.uniform(0.0, math.pi / 2.0))
        state = compose(momentum, spin)
        cert = ClassCertificate(spin, composite_spin_ensemble(state, sc))
        reports.append(verify_certificate(cert, boost_pure(state, sc).spin_density()))
    lines = [f"FAIL scenario {i}: {rep}" for i, rep in enumerate(reports) if not rep]
    worst_rec = max(r.reconstruction_error for r in reports)
    worst_inv = max(max(r.max_spectrum_deviation, r.max_tangle_deviation)
                    for r in reports)
    lines.append(
        f"certificates over {trials} boosts: max reconstruction "
        f"{worst_rec:.3e}, max invariant deviation {worst_inv:.3e}"
    )
    return all(reports), lines


@pytest.mark.parametrize(
    "trials, seed", [(50, 7), (CONDITION2_CHUNK + 6, 123), (3, 991)]
)
def test_condition2_suite_matches_single_certificate_loop(trials, seed):
    assert condition2_suite(trials, seed) == _condition2_reference(trials, seed)


def test_condition2_suite_builds_and_verifies_once_per_chunk(monkeypatch):
    calls = {"build": 0, "verify": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(classcheck, "boosted_spin_terms",
                        counted("build", classcheck.boosted_spin_terms))
    monkeypatch.setattr(classcheck, "verify_certificate",
                        counted("verify", classcheck.verify_certificate))
    assert condition2_suite()[0]
    assert calls == {"build": 1, "verify": 1}
    assert condition2_suite(trials=2 * CONDITION2_CHUNK + 1)[0]
    assert calls == {"build": 4, "verify": 4}


def test_condition2_suite_memory_does_not_grow_with_trials(peak_bytes):
    (passed, lines), peak = peak_bytes(condition2_suite, 1000)
    assert passed and len(lines) == 1
    assert peak < 5e6
