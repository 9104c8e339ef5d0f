"""Relativistic kinematics: rapidities, Wigner rotation angles, spin rotations.

The physical setup is fixed: three particles with equal-magnitude momenta
coplanar at azimuths 0/120/240 degrees, seen by an observer boosted along
the normal to that plane (+z), so a boost is fully described by its
Wigner angle delta.  Composing the observer boost with a particle boost
is not a pure boost: the spin of each particle picks up a momentum-
dependent rotation (Wigner rotation) about the axis perpendicular to
both boosts.  ROTATION_AXES holds those axes, so the rotations are a
function of delta alone: spin_rotations(deltas).  Another geometry would
need new code here, not an argument."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import MOMENTUM_LABELS
from .errors import InputError
from .linalg import kron, row_norms


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


# The per-label Wigner rotation axes of the fixed geometry, normalize(z x p)
# for each momentum direction p, shape (3, 3).  Not the closed form (-sin, cos, 0), which differs in the
# last bits and in the sign of label A's zero x-component.
_AZIMUTHS = np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
_DIRECTIONS = np.stack([np.cos(_AZIMUTHS), np.sin(_AZIMUTHS), np.zeros(3)], axis=1)
ROTATION_AXES = np.cross([0.0, 0.0, 1.0], _DIRECTIONS)
ROTATION_AXES /= row_norms(ROTATION_AXES)[:, None]
ROTATION_AXES.flags.writeable = False


def spin_rotations(deltas) -> np.ndarray:
    """SU(2) rotations of the three labels by every angle in `deltas`.

    U = cos(delta/2) I - i sin(delta/2) (n . sigma) for each row n of
    ROTATION_AXES; det U = 1.  The result has shape deltas.shape +
    (3, 2, 2): G angles give the (G, 3, 2, 2) per-label rotations of a
    whole sweep.  Angles are taken as given (unchecked).
    """
    d = np.asarray(deltas, dtype=float)[..., None]
    c, s = np.cos(d / 2.0), np.sin(d / 2.0)
    nx, ny, nz = ROTATION_AXES.T
    u = np.empty(d.shape[:-1] + (3, 2, 2), dtype=np.complex128)
    u[..., 0, 0] = c - 1j * s * nz
    u[..., 0, 1] = -1j * s * (nx - 1j * ny)
    u[..., 1, 0] = -1j * s * (nx + 1j * ny)
    u[..., 1, 1] = c + 1j * s * nz
    return u


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
        return spin_rotations(self.delta)


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
