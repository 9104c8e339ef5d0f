"""Relativistic kinematics: rapidities, Wigner rotation angles, spin rotations.

The physical setup: three particles with equal-magnitude momenta along
fixed directions (default: coplanar at azimuths 0/120/240 degrees), seen
by an observer boosted along an axis perpendicular to that plane
(default +z).  Composing the observer boost with a particle boost is
not a pure boost — the spin of each particle picks up a momentum-
dependent rotation (Wigner rotation) about the axis perpendicular to
both boosts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import ATOL_PHYSICS, MOMENTUM_LABELS
from .errors import InputError, ShapeError
from .linalg import kron_batched

_AXIS_DEGENERATE = 1e-12


def rapidity(speed: float) -> float:
    """atanh(speed) for a speed in [0, 1) (units of c)."""
    speed = float(speed)
    if not 0.0 <= speed < 1.0:
        raise InputError(f"speed must lie in [0, 1), got {speed}")
    return math.atanh(speed)


def wigner_angle(eta: float, xi: float) -> float:
    """Rotation angle from composing perpendicular boosts of rapidity eta, xi.

    tan(angle) = sinh(eta) sinh(xi) / (cosh(eta) + cosh(xi)); the result
    lies in [0, pi/2), vanishes when either rapidity does, is symmetric
    in its arguments and approaches pi/2 in the ultrarelativistic limit.
    """
    eta = float(eta)
    xi = float(xi)
    if not (0.0 <= eta < math.inf and 0.0 <= xi < math.inf):  # NaN fails too
        raise InputError(
            f"rapidities must be finite and nonnegative, got ({eta}, {xi})"
        )
    return math.atan2(math.sinh(eta) * math.sinh(xi), math.cosh(eta) + math.cosh(xi))


def rotation_axis(boost_axis: np.ndarray, momentum_dir: np.ndarray) -> np.ndarray:
    """Unit Wigner-rotation axis: normalize(boost_axis x momentum_dir)."""
    b = np.asarray(boost_axis, dtype=float).reshape(3)
    p = np.asarray(momentum_dir, dtype=float).reshape(3)
    nb, npp = np.linalg.norm(b), np.linalg.norm(p)
    if nb < _AXIS_DEGENERATE or npp < _AXIS_DEGENERATE:
        raise InputError("boost axis and momentum direction must be nonzero")
    axis = np.cross(b / nb, p / npp)
    norm = np.linalg.norm(axis)
    if norm < _AXIS_DEGENERATE:
        raise InputError(
            "rotation axis degenerate: boost axis parallel to momentum direction"
        )
    return axis / norm


def spin_rotation(axis: np.ndarray, delta: float) -> np.ndarray:
    """SU(2) rotation by angle delta about a unit axis.

    U = cos(delta/2) I - i sin(delta/2) (axis . sigma); det U = 1.
    """
    n = np.asarray(axis, dtype=float).reshape(3)
    if not abs(np.linalg.norm(n) - 1.0) <= ATOL_PHYSICS:
        raise InputError("rotation axis must be a unit vector")
    return spin_rotations(n, delta)


def spin_rotations(axes: np.ndarray, deltas) -> np.ndarray:
    """spin_rotation for every angle in `deltas` and unit row of `axes`.

    The result has shape deltas.shape + axes.shape[:-1] + (2, 2); axes of
    shape (3, 3) and G angles give the (G, 3, 2, 2) per-label rotations of
    a whole sweep.  Axes are taken as given (unit rows, unchecked).
    """
    n = np.asarray(axes, dtype=float)
    d = np.asarray(deltas, dtype=float)
    d = d.reshape(d.shape + (1,) * (n.ndim - 1))
    c, s = np.cos(d / 2.0), np.sin(d / 2.0)
    nx, ny, nz = n[..., 0], n[..., 1], n[..., 2]
    u = np.empty(np.broadcast_shapes(d.shape, nx.shape) + (2, 2), dtype=np.complex128)
    u[..., 0, 0] = c - 1j * s * nz
    u[..., 0, 1] = -1j * s * (nx - 1j * ny)
    u[..., 1, 0] = -1j * s * (nx + 1j * ny)
    u[..., 1, 1] = c + 1j * s * nz
    return u


def _unit_rows(arr: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    norms = np.linalg.norm(arr, axis=-1)
    if not np.all(norms >= _AXIS_DEGENERATE):
        raise InputError(f"{what} must be nonzero")
    return arr / norms[..., None]


def default_directions() -> np.ndarray:
    """Unit momentum directions at azimuths 0, 120, 240 degrees in the x-y plane."""
    az = np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
    return np.stack([np.cos(az), np.sin(az), np.zeros(3)], axis=1)


@dataclass(frozen=True)
class MomentumGeometry:
    """Momentum directions (one unit row per label A/B/C), particle speed,
    and the observer's boost axis."""

    particle_speed: float
    directions: np.ndarray = field(default_factory=default_directions)
    boost_axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        if not 0.0 <= self.particle_speed < 1.0:
            raise InputError(
                f"particle speed must lie in [0, 1), got {self.particle_speed}"
            )
        dirs = _unit_rows(self.directions, "momentum directions")
        if dirs.shape != (3, 3):
            raise ShapeError(f"directions must be (3, 3), got {dirs.shape}")
        axis = _unit_rows(self.boost_axis, "boost axis").reshape(3)
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "boost_axis", axis)

    def rotation_axes(self) -> np.ndarray:
        """Per-label Wigner rotation axes, shape (3, 3)."""
        return np.stack(
            [rotation_axis(self.boost_axis, d) for d in self.directions]
        )


def default_geometry(particle_speed: float = 0.8) -> MomentumGeometry:
    """The standard coplanar three-momentum geometry with boost along +z."""
    return MomentumGeometry(particle_speed=particle_speed)


@dataclass(frozen=True)
class BoostScenario:
    """A fixed Wigner angle plus the per-label rotation axes it acts about.

    Build from physical speeds (from_speeds) or directly from the angle
    (from_angle), which is how the sweep commands parameterize boosts.
    """

    delta: float
    axes: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.delta <= math.pi / 2.0:
            raise InputError(f"delta must lie in [0, pi/2], got {self.delta}")
        axes = _unit_rows(self.axes, "rotation axes")
        if axes.shape != (3, 3):
            raise ShapeError(f"axes must be (3, 3), got {axes.shape}")
        object.__setattr__(self, "axes", axes)

    @classmethod
    def from_speeds(
        cls, observer_speed: float, geometry: MomentumGeometry | None = None
    ) -> "BoostScenario":
        if geometry is None:
            geometry = default_geometry()
        delta = wigner_angle(
            rapidity(observer_speed), rapidity(geometry.particle_speed)
        )
        return cls(delta=delta, axes=geometry.rotation_axes())

    @classmethod
    def from_angle(
        cls, delta: float, geometry: MomentumGeometry | None = None
    ) -> "BoostScenario":
        geo = geometry if geometry is not None else default_geometry()
        return cls(delta=float(delta), axes=geo.rotation_axes())

    def rotation(self, label: int | str) -> np.ndarray:
        """2x2 spin rotation for the particle carrying the given momentum label."""
        return spin_rotation(self.axes[momentum_label_index(label)], self.delta)

    def rotations(self) -> np.ndarray:
        """The rotations of all three labels, shape (3, 2, 2)."""
        return spin_rotations(self.axes, self.delta)


def momentum_label_index(label: int | str) -> int:
    """Normalize a momentum label ('A'/'B'/'C' or 0/1/2) to an index."""
    if isinstance(label, str):
        up = label.strip().upper()
        if up not in MOMENTUM_LABELS:
            raise InputError(f"unknown momentum label {label!r}")
        return MOMENTUM_LABELS.index(up)
    idx = int(label)
    if idx not in (0, 1, 2):
        raise InputError(f"momentum label index must be 0, 1 or 2, got {label}")
    return idx


def local_unitaries(assignments, rotations: np.ndarray) -> np.ndarray:
    """8x8 spin rotations for a batch of momentum-label assignments.

    Row k of `assignments` (K, 3) lists, per particle slot 1..3, the label
    index (0, 1 or 2) that particle carries; `rotations` holds per-label
    rotations of shape (..., 3, 2, 2), e.g. scenario.rotations() or
    spin_rotations(axes, deltas) for a sweep.  Unitary k is the tensor
    product of the three single-particle Wigner rotations; the result has
    shape (..., K, 8, 8), all formed at once.
    """
    r = np.asarray(rotations, dtype=np.complex128)
    r = r[..., np.asarray(assignments, dtype=np.intp), :, :]  # (..., K, 3, 2, 2)
    return kron_batched([r[..., 0, :, :], r[..., 1, :, :], r[..., 2, :, :]])


def local_unitary(assignment, scenario: BoostScenario) -> np.ndarray:
    """8x8 spin rotation for particles carrying the given ordered momentum labels.

    `assignment` lists, per particle slot 1..3, which momentum label
    ('A'/'B'/'C' or 0/1/2) that particle carries; the result is the tensor
    product of the three single-particle Wigner rotations (a batch of one
    local_unitaries).
    """
    labels = [momentum_label_index(a) for a in assignment]
    if len(labels) != 3:
        raise InputError(f"assignment must name three labels, got {assignment!r}")
    return local_unitaries([labels], scenario.rotations())[0]
