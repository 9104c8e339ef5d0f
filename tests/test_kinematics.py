"""Rapidities, Wigner rotation angles, and boost scenarios."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinboost import (
    ROTATION_AXES,
    BoostScenario,
    InputError,
    ShapeError,
    rapidity,
    rotation_axis,
    spin_rotation,
    wigner_angle,
)
from spinboost.kinematics import default_directions, local_unitary

# Independently computed: atan(8/15) for observer and particle speeds 0.8.
DELTA_08 = 0.4899573262537283


def test_rapidity_known_values():
    assert rapidity(0.0) == 0.0
    assert abs(rapidity(0.8) - math.atanh(0.8)) < 1e-15
    assert abs(math.tanh(rapidity(0.6)) - 0.6) < 1e-15


def test_rapidity_rejects_nonphysical_speeds():
    for bad in (1.0, -1.0, 1.5, float("nan")):
        with pytest.raises(InputError):
            rapidity(bad)
    # wigner_angle rejects negative and non-finite rapidities
    for bad in (-0.1, float("nan"), float("inf"), float("-inf")):
        for pair in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(InputError):
                wigner_angle(*pair)


@given(st.floats(min_value=0.0, max_value=0.999))
@settings(max_examples=60, deadline=None)
def test_rapidity_roundtrip(v):
    assert abs(math.tanh(rapidity(v)) - v) <= 1e-12


def test_wigner_angle_frozen_benchmark():
    eta = rapidity(0.8)
    assert abs(wigner_angle(eta, eta) - DELTA_08) < 1e-15
    # tan(delta) = 8/15 exactly for this speed pair
    assert abs(math.tan(DELTA_08) - 8.0 / 15.0) < 1e-15


def test_wigner_angle_limits():
    assert wigner_angle(0.0, 1.3) == 0.0
    assert wigner_angle(1.3, 0.0) == 0.0
    # ultra-relativistic limit approaches a right angle from below
    gap = math.pi / 2.0 - wigner_angle(20.0, 20.0)
    assert 0.0 < gap < 1e-6
    # rapidities past ~710 overflow sinh/cosh but not the angle, which
    # tends to atan(sinh(xi)) as eta grows
    limit = math.atan(math.sinh(1.0))
    for eta in (711.0, 1e6):
        assert abs(wigner_angle(eta, 1.0) - limit) < 1e-15
        assert abs(wigner_angle(1.0, eta) - limit) < 1e-15


@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_wigner_angle_symmetric_monotone_bounded(eta, xi):
    d = wigner_angle(eta, xi)
    assert 0.0 <= d < math.pi / 2.0
    assert abs(d - wigner_angle(xi, eta)) < 1e-14
    assert wigner_angle(eta + 0.1, xi) >= d - 1e-14


def test_rotation_axis_orthogonal_unit():
    rng = np.random.default_rng(5)
    for _ in range(30):
        b = rng.normal(size=3)
        p = rng.normal(size=3)
        if np.linalg.norm(np.cross(b, p)) < 1e-6:
            continue
        n = rotation_axis(b, p)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12
        assert abs(n @ b) < 1e-12 * np.linalg.norm(b)
        assert abs(n @ p) < 1e-12 * np.linalg.norm(p)


def test_rotation_axis_degenerate_raises():
    z = np.array([0.0, 0.0, 1.0])
    with pytest.raises(InputError):
        rotation_axis(z, z)
    with pytest.raises(InputError):
        rotation_axis(z, -2.0 * z)
    # NaN compares false against the degeneracy threshold; it must not pass
    for p in ([np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(InputError):
            rotation_axis(z, p)
        with pytest.raises(InputError):
            rotation_axis(p, z)


def _rotation_axis_reference(b, p):
    # the formula for one direction: np.linalg.norm and np.cross of vectors
    axis = np.cross(b / np.linalg.norm(b), p / np.linalg.norm(p))
    return axis / np.linalg.norm(axis)


def test_rotation_axis_rows_match_single_vector_formula():
    # a batch of directions equals the one-vector formula row by row, bit
    # for bit, so the sweeps see the same axes as before batching
    rng = np.random.default_rng(11)
    b = rng.normal(size=3)
    p = rng.normal(size=(4, 5, 3)) * rng.uniform(0.01, 100.0, size=(4, 5, 1))
    axes = rotation_axis(b, p)
    assert axes.shape == (4, 5, 3)
    ref = [[_rotation_axis_reference(b, q) for q in row] for row in p]
    np.testing.assert_array_equal(axes, ref)
    z = np.array([0.0, 0.0, 1.0])
    np.testing.assert_array_equal(
        ROTATION_AXES, [_rotation_axis_reference(z, d) for d in default_directions()]
    )
    with pytest.raises(ValueError):  # the module constant is read-only
        ROTATION_AXES[0, 0] = 1.0
    # one degenerate or non-finite row fails the whole batch
    for bad in (-4.0 * b, [np.nan, 0.0, 0.0]):
        q = p.copy()
        q[2, 3] = bad
        with pytest.raises(InputError):
            rotation_axis(b, q)
    with pytest.raises(ShapeError):
        rotation_axis(b, np.ones((3, 2)))


def test_spin_rotation_unitary_su2():
    rng = np.random.default_rng(9)
    for _ in range(20):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        delta = rng.uniform(0, math.pi)
        u = spin_rotation(axis, delta)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
        assert abs(np.linalg.det(u) - 1.0) < 1e-12  # special unitary
        # angle recovery: Tr U = 2 cos(delta/2)
        assert abs(np.trace(u).real - 2.0 * math.cos(delta / 2.0)) < 1e-12


def test_spin_rotation_composition():
    axis = np.array([0.0, 1.0, 0.0])
    u = spin_rotation(axis, 0.3) @ spin_rotation(axis, 0.5)
    np.testing.assert_allclose(u, spin_rotation(axis, 0.8), atol=1e-14)


def test_default_directions_planar_trine():
    dirs = default_directions()
    assert dirs.shape == (3, 3)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-14)
    np.testing.assert_allclose(dirs[:, 2], 0.0, atol=1e-14)  # x-y plane
    for i in range(3):
        j = (i + 1) % 3
        assert abs(dirs[i] @ dirs[j] - math.cos(2 * math.pi / 3)) < 1e-12
    np.testing.assert_allclose(dirs.sum(axis=0), 0.0, atol=1e-12)


def test_rotation_axes_are_planar_trine():
    axes = ROTATION_AXES
    dirs = default_directions()
    assert axes.shape == (3, 3)
    np.testing.assert_allclose(np.linalg.norm(axes, axis=1), 1.0, atol=1e-13)
    # each axis is orthogonal to the +z boost direction and its momentum
    for i in range(3):
        assert abs(axes[i, 2]) < 1e-13
        assert abs(axes[i] @ dirs[i]) < 1e-13
    # pairwise 120 degrees, like the momenta themselves
    for i in range(3):
        j = (i + 1) % 3
        assert abs(axes[i] @ axes[j] - math.cos(2 * math.pi / 3)) < 1e-12


def test_spin_rotation_rejects_nonfinite_input():
    # NaN compares false against the unit-norm tolerance; it must not pass
    with pytest.raises(InputError):
        spin_rotation(np.array([np.nan, 0.0, 0.0]), 0.3)
    for delta in (math.nan, math.inf):
        with pytest.raises(InputError):
            spin_rotation(np.array([1.0, 0.0, 0.0]), delta)


def test_scenario_from_speeds_matches_angle():
    sc = BoostScenario.from_speeds(0.8)  # particle speed defaults to 0.8
    assert abs(sc.delta - DELTA_08) < 1e-15
    assert BoostScenario.from_speeds(0.8, 0.8) == sc
    sc2 = BoostScenario.from_angle(DELTA_08)
    np.testing.assert_allclose(sc.rotations(), sc2.rotations(), atol=1e-15)


def test_scenario_validates_delta_range():
    with pytest.raises(InputError):
        BoostScenario.from_angle(-0.1)
    with pytest.raises(InputError):
        BoostScenario.from_angle(math.pi / 2 + 0.01)
    BoostScenario.from_angle(0.0)
    BoostScenario.from_angle(math.pi / 2)


def test_scenario_rotation_labels():
    sc = BoostScenario.from_angle(0.4)
    rot = sc.rotations()
    for i in range(3):  # label i rotates about axis i by delta
        np.testing.assert_array_equal(rot[i], spin_rotation(ROTATION_AXES[i], sc.delta))
    # labels 'A'-'C' name indices 0-2, and any other label is rejected
    for letters, indices in (("ABC", (0, 1, 2)), ("CAB", (2, 0, 1))):
        np.testing.assert_array_equal(
            local_unitary(letters, sc), local_unitary(indices, sc)
        )
    with pytest.raises(InputError):
        local_unitary("ABD", sc)
    # delta = 0 means every rotation is the identity
    sc0 = BoostScenario.from_angle(0.0)
    np.testing.assert_allclose(
        sc0.rotations(), np.broadcast_to(np.eye(2), (3, 2, 2)), atol=1e-15
    )


def test_local_unitary_factorization():
    sc = BoostScenario.from_angle(0.7)
    u = local_unitary((0, 1, 2), sc)
    rot = sc.rotations()
    expected = np.kron(np.kron(rot[0], rot[1]), rot[2])
    np.testing.assert_allclose(u, expected, atol=1e-14)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-13)
    u_perm = local_unitary((2, 0, 1), sc)
    expected = np.kron(np.kron(rot[2], rot[0]), rot[1])
    np.testing.assert_allclose(u_perm, expected, atol=1e-14)
    # every one of the 27 assignments equals np.kron of its rotations
    for a, b, c in np.indices((3, 3, 3)).reshape(3, 27).T:
        np.testing.assert_array_equal(
            local_unitary((a, b, c), sc), np.kron(np.kron(rot[a], rot[b]), rot[c])
        )
