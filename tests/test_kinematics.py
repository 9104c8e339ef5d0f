"""Rapidities, Wigner rotation angles, and boost scenarios."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinboost import (
    BoostScenario,
    InputError,
    MomentumGeometry,
    default_geometry,
    rapidity,
    rotation_axis,
    spin_rotation,
    spin_rotations,
    wigner_angle,
)
from spinboost.kinematics import default_directions, local_unitaries, local_unitary

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


def test_default_geometry_axes():
    geo = default_geometry(0.8)
    axes = geo.rotation_axes()
    assert axes.shape == (3, 3)
    np.testing.assert_allclose(np.linalg.norm(axes, axis=1), 1.0, atol=1e-13)
    # each axis is orthogonal to the boost direction and its momentum
    for i in range(3):
        assert abs(axes[i] @ geo.boost_axis) < 1e-13
        assert abs(axes[i] @ geo.directions[i]) < 1e-13
    # pairwise 120 degrees, like the momenta themselves
    for i in range(3):
        j = (i + 1) % 3
        assert abs(axes[i] @ axes[j] - math.cos(2 * math.pi / 3)) < 1e-12


def test_geometry_normalizes_input():
    geo = MomentumGeometry(
        particle_speed=0.5,
        directions=3.0 * default_directions(),
        boost_axis=np.array([0.0, 0.0, 5.0]),
    )
    assert abs(np.linalg.norm(geo.boost_axis) - 1.0) < 1e-14
    np.testing.assert_allclose(np.linalg.norm(geo.directions, axis=1), 1.0, atol=1e-14)
    # NaN compares false against the degeneracy threshold; it must not pass
    with pytest.raises(InputError):
        MomentumGeometry(particle_speed=0.5, boost_axis=np.array([0.0, 0.0, np.nan]))
    with pytest.raises(InputError):
        spin_rotation(np.array([np.nan, 0.0, 0.0]), 0.3)


def test_scenario_from_speeds_matches_angle():
    sc = BoostScenario.from_speeds(0.8, default_geometry(0.8))
    assert abs(sc.delta - DELTA_08) < 1e-15
    sc2 = BoostScenario.from_angle(DELTA_08)
    np.testing.assert_allclose(sc.axes, sc2.axes, atol=1e-15)
    for label in "ABC":
        np.testing.assert_allclose(
            sc.rotation(label), sc2.rotation(label), atol=1e-15
        )


def test_scenario_validates_delta_range():
    with pytest.raises(InputError):
        BoostScenario.from_angle(-0.1)
    with pytest.raises(InputError):
        BoostScenario.from_angle(math.pi / 2 + 0.01)
    BoostScenario.from_angle(0.0)
    BoostScenario.from_angle(math.pi / 2)


def test_scenario_rotation_labels():
    sc = BoostScenario.from_angle(0.4)
    np.testing.assert_allclose(sc.rotation(0), sc.rotation("A"))
    np.testing.assert_allclose(sc.rotation(2), sc.rotation("C"))
    with pytest.raises(InputError):
        sc.rotation("D")
    # delta = 0 means every rotation is the identity
    sc0 = BoostScenario.from_angle(0.0)
    for label in range(3):
        np.testing.assert_allclose(sc0.rotation(label), np.eye(2), atol=1e-15)


def test_local_unitary_factorization():
    sc = BoostScenario.from_angle(0.7)
    u = local_unitary((0, 1, 2), sc)
    expected = np.kron(
        np.kron(sc.rotation(0), sc.rotation(1)), sc.rotation(2)
    )
    np.testing.assert_allclose(u, expected, atol=1e-14)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-13)
    u_perm = local_unitary((2, 0, 1), sc)
    expected = np.kron(
        np.kron(sc.rotation(2), sc.rotation(0)), sc.rotation(1)
    )
    np.testing.assert_allclose(u_perm, expected, atol=1e-14)
    # the batch over all 27 assignments equals kron of the rotations
    labels = np.indices((3, 3, 3)).reshape(3, 27).T
    batch = local_unitaries(labels, sc.rotations())
    assert batch.shape == (27, 8, 8)
    rot = sc.rotations()
    for (a, b, c), u in zip(labels, batch):
        np.testing.assert_array_equal(u, np.kron(np.kron(rot[a], rot[b]), rot[c]))
    # a sweep's (G, 3, 2, 2) rotations give one (G, K, 8, 8) batch
    deltas = np.array([0.0, 0.4, 1.1])
    sweep = local_unitaries(labels[:5], spin_rotations(sc.axes, deltas))
    assert sweep.shape == (3, 5, 8, 8)
    for g, delta in enumerate(deltas):
        single = BoostScenario.from_angle(delta).rotations()
        np.testing.assert_array_equal(sweep[g], local_unitaries(labels[:5], single))
