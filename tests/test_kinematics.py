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
    rapidity,
    spin_rotations,
    wigner_angle,
)
from spinboost.kinematics import local_unitary

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


def _directions():
    # unit momentum directions at azimuths 0, 120, 240 degrees in the x-y plane
    az = np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
    return np.stack([np.cos(az), np.sin(az), np.zeros(3)], axis=1)


def test_rotation_axis_rows_match_single_vector_formula():
    # each row is the one-vector formula normalize(z x p) for its direction,
    # bit for bit.  The closed form (-sin, cos, 0) is not the pin: it flips
    # the sign of label A's zero x-component and moves label B's row by
    # ~1e-16, and every output byte depends on these axes.
    z = np.array([0.0, 0.0, 1.0])
    ref = [np.cross(z, p) / np.linalg.norm(np.cross(z, p)) for p in _directions()]
    assert ROTATION_AXES.tobytes() == np.array(ref).tobytes()
    with pytest.raises(ValueError):  # the module constant is read-only
        ROTATION_AXES[0, 0] = 1.0


def test_spin_rotation_unitary_su2():
    rng = np.random.default_rng(9)
    for delta in rng.uniform(0, math.pi, size=20):
        for u in spin_rotations(delta):  # one per label
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
            assert abs(np.linalg.det(u) - 1.0) < 1e-12  # special unitary
            # angle recovery: Tr U = 2 cos(delta/2)
            assert abs(np.trace(u).real - 2.0 * math.cos(delta / 2.0)) < 1e-12


def test_spin_rotation_composition():
    u = spin_rotations(0.3) @ spin_rotations(0.5)
    np.testing.assert_allclose(u, spin_rotations(0.8), atol=1e-14)


def test_rotation_axes_are_planar_trine():
    axes = ROTATION_AXES
    dirs = _directions()
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
    for bad in (math.nan, math.inf, -math.inf):  # NaN fails every comparison
        with pytest.raises(InputError):
            BoostScenario.from_angle(bad)
    BoostScenario.from_angle(0.0)
    BoostScenario.from_angle(math.pi / 2)


def test_scenario_rotation_labels():
    sc = BoostScenario.from_angle(0.4)
    rot = sc.rotations()
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    c, s = math.cos(sc.delta / 2.0), math.sin(sc.delta / 2.0)
    for i, n in enumerate(ROTATION_AXES):  # label i rotates about axis i by delta
        oracle = c * np.eye(2) - 1j * s * np.tensordot(n, sigma, axes=1)
        np.testing.assert_allclose(rot[i], oracle, rtol=0, atol=1e-15)
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
