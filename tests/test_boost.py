"""Boosting composite states and reducing to the spin sector.

The brute-force path (216x216 unitary, then partial trace) is the oracle
for the two ensemble shortcuts.
"""

import math

import numpy as np
import pytest

from spinboost import (
    BoostScenario,
    CompositeState,
    MixedState,
    ShapeError,
    SpinEnsemble,
    ValidationError,
    antisymmetric_coeffs,
    boost_mixed,
    boost_pure,
    boosted_amplitudes,
    boosted_spin_density_fast,
    build_boost_unitary,
    compose,
    composite_spin_ensemble,
    ghz_state,
    local_unitary,
    permutation_momentum,
    spin_rotations,
    w_state,
)
from spinboost.constants import PERMUTATIONS
from spinboost.linalg import kron, partial_trace, projector


def haar_vec(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_coeffs(rng):
    return haar_vec(6, rng)


def brute_spin_density(momentum, spin, scenario):
    state = compose(momentum, spin)
    u = build_boost_unitary(scenario)
    return u(state).spin_density()


def test_boost_unitary_matrix_properties():
    sc = BoostScenario.from_angle(0.9)
    u = build_boost_unitary(sc)
    assert u.matrix.shape == (216, 216)
    np.testing.assert_allclose(
        u.matrix @ u.matrix.conj().T, np.eye(216), atol=1e-12
    )
    # block structure: no momentum transitions (factor order interleaves
    # momentum and spin, so group the momentum axes first)
    t = u.matrix.reshape(3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2)
    blocks = t.transpose(0, 2, 4, 1, 3, 5, 6, 8, 10, 7, 9, 11).reshape(
        27, 8, 27, 8
    )
    for k in range(27):
        for kp in range(27):
            if k != kp:
                assert np.abs(blocks[k, :, kp, :]).max() < 1e-15
    # one diagonal block: labels (0, 1, 2) act with rotations A, B, C
    k = (0 * 3 + 1) * 3 + 2
    rot = sc.rotations()
    expected = np.kron(np.kron(rot[0], rot[1]), rot[2])
    np.testing.assert_allclose(blocks[k, :, k, :], expected, atol=1e-14)


def test_zero_angle_boost_is_identity():
    rng = np.random.default_rng(0)
    state = CompositeState(haar_vec(216, rng))
    out = boost_pure(state, BoostScenario.from_angle(0.0))
    np.testing.assert_allclose(out.vector, state.vector, atol=1e-15)


def test_boost_preserves_norm_and_momentum_populations():
    rng = np.random.default_rng(1)
    sc = BoostScenario.from_angle(1.1)
    for _ in range(10):
        state = CompositeState(haar_vec(216, rng))
        out = boost_pure(state, sc)
        assert abs(np.linalg.norm(out.vector) - 1.0) < 1e-13
        # the boost never moves momentum populations
        m, m_out = state.momentum_spin_matrix(), out.momentum_spin_matrix()
        np.testing.assert_allclose(
            np.diag(m_out @ m_out.conj().T), np.diag(m @ m.conj().T), atol=1e-13
        )


def test_fast_path_matches_brute_force_on_permutation_momenta():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(25):
        coeffs = random_coeffs(rng)
        spin = haar_vec(8, rng)
        sc = BoostScenario.from_angle(rng.uniform(0, math.pi / 2))
        fast = boosted_spin_density_fast(coeffs, spin, sc)
        brute = brute_spin_density(permutation_momentum(coeffs), spin, sc)
        worst = max(worst, np.abs(fast - brute).max())
    assert worst < 1e-13


def test_permutation_ensemble_structure():
    # a permutation momentum state expands over its six label-assignment
    # kets: term k has the spin row c_k spin, so weight |c_k|^2, and the
    # local unitary of its assignment
    rng = np.random.default_rng(3)
    coeffs = random_coeffs(rng)
    coeffs[4] = 0.0
    coeffs /= np.linalg.norm(coeffs)
    spin = haar_vec(8, rng)
    sc = BoostScenario.from_angle(0.6)
    ens = composite_spin_ensemble(compose(permutation_momentum(coeffs), spin), sc)
    # the ensemble lists momentum kets 9 m1 + 3 m2 + m3 in ascending order
    order = sorted(range(6), key=lambda i: 9 * PERMUTATIONS[i][0]
                   + 3 * PERMUTATIONS[i][1] + PERMUTATIONS[i][2])
    kept = [i for i in order if coeffs[i] != 0.0]
    assert ens.rows.shape == (5, 8)
    weights = np.linalg.norm(ens.rows, axis=-1) ** 2
    np.testing.assert_allclose(weights.sum(), 1.0, atol=1e-13)
    np.testing.assert_allclose(weights, np.abs(coeffs[kept]) ** 2, atol=1e-13)
    for k, i in enumerate(kept):
        u = kron(list(ens.rotations[k]))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-13)
        np.testing.assert_array_equal(u, local_unitary(PERMUTATIONS[i], sc))
        np.testing.assert_allclose(ens.rows[k], coeffs[i] * spin, atol=1e-14)
    np.testing.assert_allclose(
        ens.mix(), boosted_spin_density_fast(coeffs, spin, sc), atol=1e-13
    )


def test_composite_ensemble_matches_brute_force_general_momentum():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(15):
        momentum = haar_vec(27, rng)
        spin = haar_vec(8, rng)
        sc = BoostScenario.from_angle(rng.uniform(0, math.pi / 2))
        state = compose(momentum, spin)
        ens = composite_spin_ensemble(state, sc)
        brute = boost_pure(state, sc).spin_density()
        worst = max(worst, np.abs(ens.mix() - brute).max())
        assert abs(np.linalg.norm(ens.rows) ** 2 - 1.0) < 1e-12
    assert worst < 1e-13


def test_composite_ensemble_base_vectors_restore_input():
    # every certificate row is a multiple of the same unboosted spin state
    rng = np.random.default_rng(5)
    spin = haar_vec(8, rng)
    state = compose(haar_vec(27, rng), spin)
    ens = composite_spin_ensemble(state, BoostScenario.from_angle(0.8))
    for row in ens.rows:
        overlap = abs(np.vdot(row, spin)) / np.linalg.norm(row)
        assert abs(overlap - 1.0) < 1e-12  # equal up to global phase


def test_boost_mixed_linearity():
    rng = np.random.default_rng(6)
    sc = BoostScenario.from_angle(0.5)
    members = tuple(
        compose(haar_vec(27, rng), haar_vec(8, rng)) for _ in range(3)
    )
    weights = (0.2, 0.3, 0.5)
    mixed = MixedState(weights=weights, vectors=[st.vector for st in members])
    boosted = boost_mixed(mixed, sc)
    rho = boosted.spin_density()
    cert = composite_spin_ensemble(mixed, sc)
    expected = sum(
        q * boost_pure(st, sc).spin_density() for q, st in zip(weights, members)
    )
    np.testing.assert_allclose(rho, expected, atol=1e-13)
    np.testing.assert_allclose(cert.mix(), rho, atol=1e-13)
    assert isinstance(boosted, MixedState)
    np.testing.assert_allclose(boosted.weights, weights, atol=0)


def test_spin_ensemble_validation():
    # the rows' trace sum_k |m_k|^2 must pass the unit rule, which NaN and
    # inf fail; K must be nonzero and match between rows and rotations
    eye = np.broadcast_to(np.eye(2, dtype=np.complex128), (1, 3, 2, 2))
    vec = np.zeros((1, 8), dtype=np.complex128)
    vec[0, 0] = 1.0
    SpinEnsemble(eye, vec)
    for bad in (0.5, np.nan, np.inf, 1j * np.inf):
        with pytest.raises(ValidationError):
            SpinEnsemble(eye, np.where(vec != 0, bad, vec))  # trace != 1
    with pytest.raises(ShapeError):  # an 8x8 unitary is not three factors
        SpinEnsemble(np.eye(8, dtype=np.complex128)[None], vec)
    with pytest.raises(ShapeError):  # two terms of rotations, one row
        SpinEnsemble(np.repeat(eye, 2, 0), vec)
    with pytest.raises(ShapeError):  # no terms at all
        SpinEnsemble(eye[:0], vec[:0])
    with pytest.raises(ShapeError):  # a row without its term axis
        SpinEnsemble(eye[0], vec[0])


def test_spin_ensemble_batch_validation():
    # the trace is checked per item: zero rows pad an item, a NaN or
    # mis-normalized row in any one item is rejected; the batch axes of
    # rows and rotations broadcast
    eye = np.broadcast_to(np.eye(2, dtype=np.complex128), (2, 2, 3, 2, 2))
    vec = np.zeros((2, 2, 8), dtype=np.complex128)
    vec[0, 0, 0] = 1.0
    vec[1, :, 0] = math.sqrt(0.5)
    ens = SpinEnsemble(eye, vec)
    assert ens.rows.shape == (2, 2, 8) and ens.mix().shape == (2, 8, 8)
    np.testing.assert_allclose(ens.mix()[0], ens.mix()[1], rtol=0, atol=1e-15)
    for bad in (0.8, np.nan):
        rows = vec.copy()
        rows[1, 1, 0] = bad
        with pytest.raises(ValidationError):
            SpinEnsemble(eye, rows)
    assert SpinEnsemble(eye, vec[1]).mix().shape == (2, 8, 8)  # shared rows
    with pytest.raises(ShapeError):  # three items of rows, two of rotations
        SpinEnsemble(eye, np.concatenate([vec, vec[:1]]))


def test_mix_is_weighted_sum_of_rotated_projectors():
    rng = np.random.default_rng(9)
    state = compose(haar_vec(27, rng), haar_vec(8, rng))
    ens = composite_spin_ensemble(state, BoostScenario.from_angle(1.2))
    expected = sum(projector(kron(list(r)) @ m) for r, m in zip(ens.rotations, ens.rows))
    np.testing.assert_allclose(ens.mix(), expected, atol=1e-14)


def test_einsum_boost_matches_unitary_matrix():
    rng = np.random.default_rng(10)
    worst = 0.0
    for delta in (0.0, 0.3, math.pi / 2, *rng.uniform(0, math.pi / 2, 7)):
        sc = BoostScenario.from_angle(delta)
        v = haar_vec(216, rng)
        worst = max(
            worst,
            np.abs(boost_pure(CompositeState(v), sc).vector
                   - build_boost_unitary(sc).matrix @ v).max(),
        )
    assert worst < 1e-13
    # one call over a (G, 3, 2, 2) sweep matches every angle's matrix
    deltas = np.linspace(0.0, math.pi / 2, 6)
    v = haar_vec(216, rng)
    swept = boosted_amplitudes(v, spin_rotations(deltas))
    assert swept.shape == (6, 216)
    for g, delta in enumerate(deltas):
        expected = build_boost_unitary(BoostScenario.from_angle(delta)).matrix @ v
        np.testing.assert_allclose(swept[g], expected, atol=1e-13)


def test_reduced_spin_purity_drops_for_entangling_boost():
    # GHZ spin with totally antisymmetric momentum: a nonzero angle mixes
    # the spin sector, delta = 0 leaves it pure
    spin = ghz_state()
    coeffs = antisymmetric_coeffs()
    rho0 = boosted_spin_density_fast(coeffs, spin, BoostScenario.from_angle(0.0))
    rho1 = boosted_spin_density_fast(coeffs, spin, BoostScenario.from_angle(1.0))
    pur0 = np.trace(rho0 @ rho0).real
    pur1 = np.trace(rho1 @ rho1).real
    assert abs(pur0 - 1.0) < 1e-12
    assert pur1 < pur0 - 0.05


def test_brute_reduction_consistent_with_partial_trace():
    rng = np.random.default_rng(8)
    state = compose(haar_vec(27, rng), w_state())
    sc = BoostScenario.from_angle(0.3)
    boosted = boost_pure(state, sc)
    rho = partial_trace(
        projector(boosted.vector), (3, 2, 3, 2, 3, 2), (1, 3, 5)
    )
    np.testing.assert_allclose(boosted.spin_density(), rho, atol=1e-13)
