"""Relativistic kinematics: rapidities, Wigner rotation angles, spin rotations.

The physical setup is fixed: three particles with equal-magnitude momenta
coplanar at azimuths 0/120/240 degrees, seen by an observer boosted along
the normal to that plane (+z), so a boost is fully described by its
Wigner angle delta.  Composing the observer boost with a particle boost
is not a pure boost: the spin of each particle picks up a momentum-
dependent rotation (Wigner rotation) about the axis perpendicular to
both boosts.  ROTATION_AXES holds those axes.  For another geometry,
pass spin_rotations(rotation_axis(b, dirs), deltas) to
boost.boosted_amplitudes or boost.boosted_spin_terms, which take
rotations directly."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import MOMENTUM_LABELS
from .errors import InputError, ShapeError
from .linalg import _is_unit, kron, row_norms

_AXIS_DEGENERATE = 1e-12


def rapidity(speed: float, name: str = "speed") -> float:
    """atanh(speed) for a speed in [0, 1) (units of c); `name` says which
    speed an error is about."""
    speed = float(speed)
    if not 0.0 <= speed < 1.0:  # NaN fails too
        raise InputError(f"{name} must lie in [0, 1), got {speed}")
    return math.atanh(speed)


def wigner_angle(eta: float, xi: float) -> float:
    """Rotation angle from composing perpendicular boosts of rapidity eta, xi.

    tan(angle) = sinh(eta) sinh(xi) / (cosh(eta) + cosh(xi)); the result
    lies in [0, pi/2), vanishes when either rapidity does, is symmetric
    in its arguments and approaches pi/2 in the ultrarelativistic limit.
    It is evaluated as tanh(eta) tanh(xi) / (sech(eta) + sech(xi)) with
    sech(x) = 2 e^-x / (1 + e^-2x), which cannot overflow; as eta grows
    the angle tends to atan(sinh(xi)).
    """
    eta = float(eta)
    xi = float(xi)
    if not (0.0 <= eta < math.inf and 0.0 <= xi < math.inf):  # NaN fails too
        raise InputError(
            f"rapidities must be finite and nonnegative, got ({eta}, {xi})"
        )
    e, x = math.exp(-eta), math.exp(-xi)
    sech_sum = 2.0 * e / (1.0 + e * e) + 2.0 * x / (1.0 + x * x)
    return math.atan2(math.tanh(eta) * math.tanh(xi), sech_sum)


def rotation_axis(boost_axis: np.ndarray, momentum_dir: np.ndarray) -> np.ndarray:
    """Unit Wigner-rotation axes normalize(boost_axis x p), one per momentum-
    direction row p of shape (..., 3); each equals its row's call bit for bit."""
    b = np.asarray(boost_axis, dtype=float).reshape(3)
    p = np.asarray(momentum_dir, dtype=float)
    if p.shape[-1:] != (3,):
        raise ShapeError(f"momentum directions must have shape (..., 3), got {p.shape}")
    nb, npp = np.linalg.norm(b), row_norms(p)[..., None]
    norms = np.append(npp, nb)
    if not np.all((_AXIS_DEGENERATE <= norms) & (norms < math.inf)):  # NaN fails
        raise InputError("boost axis and momentum direction must be nonzero and finite")
    axis = np.cross(b / nb, p / npp)
    norm = row_norms(axis)[..., None]
    if not np.all(norm >= _AXIS_DEGENERATE):
        raise InputError(
            "rotation axis degenerate: boost axis parallel to momentum direction"
        )
    return axis / norm


def spin_rotation(axis: np.ndarray, delta: float) -> np.ndarray:
    """SU(2) rotation by angle delta about a unit axis.

    U = cos(delta/2) I - i sin(delta/2) (axis . sigma); det U = 1.
    """
    n = np.asarray(axis, dtype=float).reshape(3)
    if not _is_unit(n @ n):
        raise InputError("rotation axis must be a unit vector")
    if not math.isfinite(delta):
        raise InputError(f"rotation angle must be finite, got {delta}")
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


def default_directions() -> np.ndarray:
    """Unit momentum directions at azimuths 0, 120, 240 degrees in the x-y plane."""
    az = np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
    return np.stack([np.cos(az), np.sin(az), np.zeros(3)], axis=1)


# The per-label Wigner rotation axes of the fixed geometry, shape (3, 3).
ROTATION_AXES = rotation_axis(np.array([0.0, 0.0, 1.0]), default_directions())
ROTATION_AXES.flags.writeable = False


@dataclass(frozen=True)
class BoostScenario:
    """A Wigner angle delta in [0, pi/2]; every label rotates by delta about
    its row of ROTATION_AXES.

    Build from physical speeds (from_speeds) or directly from the angle
    (from_angle), which is how the sweep commands parameterize boosts.
    """

    delta: float

    def __post_init__(self):
        if not 0.0 <= self.delta <= math.pi / 2.0:
            raise InputError(f"delta must lie in [0, pi/2], got {self.delta}")

    @classmethod
    def from_speeds(
        cls, observer_speed: float, particle_speed: float = 0.8
    ) -> "BoostScenario":
        xi = rapidity(particle_speed, "particle speed")  # checked first
        return cls(wigner_angle(rapidity(observer_speed, "observer speed"), xi))

    @classmethod
    def from_angle(cls, delta: float) -> "BoostScenario":
        return cls(float(delta))

    def rotations(self) -> np.ndarray:
        """The rotations of all three labels, shape (3, 2, 2)."""
        return spin_rotations(ROTATION_AXES, self.delta)


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


def local_unitary(assignment, scenario: BoostScenario) -> np.ndarray:
    """8x8 spin rotation for particles carrying the given ordered momentum labels.

    `assignment` lists, per particle slot 1..3, which momentum label
    ('A'/'B'/'C' or 0/1/2) that particle carries; the result is the tensor
    product of the three single-particle Wigner rotations.
    """
    labels = [momentum_label_index(a) for a in assignment]
    if len(labels) != 3:
        raise InputError(f"assignment must name three labels, got {assignment!r}")
    return kron(list(scenario.rotations()[labels]))
