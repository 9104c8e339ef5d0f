"""State construction, partitions, and the JSON state-file format.

Spin basis: index 0 = |up>, 1 = |down>; a three-spin vector is indexed
big-endian, so |s1 s2 s3> sits at 4*s1 + 2*s2 + s3.  Momentum basis:
labels A/B/C = 0/1/2, |m1 m2 m3> at 9*m1 + 3*m2 + m3.  Composite states
interleave the factors as (mom1, spin1, mom2, spin2, mom3, spin3).

State files are JSON.  A pure state is
    {"dims": [3,2,3,2,3,2], "amps": [[re, im], ...]}   (216 amplitudes)
and a mixed state is
    {"ensemble": [{"weight": w, "amps": [...]}, ...]}
with positive weights summing to one.  dims [2,2,2] with 8 amplitudes is
also accepted for bare three-spin states (used by the witness command).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence, Union

import numpy as np

from .constants import (
    ATOL_PHYSICS,
    COMPOSITE_DIM,
    COMPOSITE_DIMS,
    MOMENTUM_DIM,
    PERMUTATIONS,
    PERMUTATION_SIGNS,
    SPIN_DIM,
    SPIN_DIMS,
    SPIN_FACTORS,
)
from .errors import InputError, ShapeError, StateFileError, ValidationError


def _as_state_vector(vec, dim: int, what: str) -> np.ndarray:
    v = np.asarray(vec, dtype=np.complex128).ravel()
    if v.size != dim:
        raise ShapeError(f"{what} must have {dim} amplitudes, got {v.size}")
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= ATOL_PHYSICS:  # NaN fails too
        raise ValidationError(f"{what} is not normalized: |psi| = {norm}")
    return v


def ghz_alpha(alpha: float) -> np.ndarray:
    """cos(alpha)|ddd> + sin(alpha)|uuu>; alpha = pi/4 is the familiar GHZ."""
    if not math.isfinite(alpha):
        raise InputError(f"alpha must be finite, got {alpha}")
    v = np.zeros(SPIN_DIM, dtype=np.complex128)
    v[7] = math.cos(alpha)
    v[0] = math.sin(alpha)
    return v


def ghz_state() -> np.ndarray:
    """(|ddd> + |uuu>)/sqrt(2)."""
    return ghz_alpha(math.pi / 4.0)


def w_state() -> np.ndarray:
    """(|ddu> + |dud> + |udd>)/sqrt(3)."""
    v = np.zeros(SPIN_DIM, dtype=np.complex128)
    v[6] = v[5] = v[3] = 1.0 / math.sqrt(3.0)
    return v


def antisymmetric_coeffs() -> np.ndarray:
    """Coefficients (+-1)/sqrt(6) over the six label assignments, totally
    antisymmetric under exchanging any two particles' momenta."""
    return np.array(PERMUTATION_SIGNS, dtype=np.complex128) / math.sqrt(6.0)


def permutation_momentum(coeffs: Sequence[complex]) -> np.ndarray:
    """Momentum state sum_i c_i |Pi_i(A,B,C)> over the six label assignments.

    The six product kets are mutually orthogonal, so the coefficient
    vector must itself be normalized.
    """
    c = np.asarray(coeffs, dtype=np.complex128).ravel()
    if c.size != 6:
        raise ShapeError(f"expected 6 permutation coefficients, got {c.size}")
    if not abs(np.linalg.norm(c) - 1.0) <= ATOL_PHYSICS:
        raise ValidationError("permutation coefficients are not normalized")
    v = np.zeros(MOMENTUM_DIM, dtype=np.complex128)
    for ci, perm in zip(c, PERMUTATIONS):
        v[9 * perm[0] + 3 * perm[1] + perm[2]] += ci
    return v


def antisymmetric_momentum() -> np.ndarray:
    """The totally antisymmetric momentum state over labels A, B, C."""
    return permutation_momentum(antisymmetric_coeffs())


def basis_momentum(labels) -> np.ndarray:
    """Product momentum basis ket |m1 m2 m3> for the given labels."""
    from .kinematics import momentum_label_index

    idx = [momentum_label_index(l) for l in labels]
    if len(idx) != 3:
        raise ShapeError(f"need three momentum labels, got {labels!r}")
    v = np.zeros(MOMENTUM_DIM, dtype=np.complex128)
    v[9 * idx[0] + 3 * idx[1] + idx[2]] = 1.0
    return v


@dataclass(frozen=True)
class CompositeState:
    """Pure state of three (momentum x spin) particles, 216 amplitudes."""

    vector: np.ndarray

    def __post_init__(self):
        v = _as_state_vector(self.vector, COMPOSITE_DIM, "composite state")
        object.__setattr__(self, "vector", v)

    def tensor(self) -> np.ndarray:
        """View reshaped to the factor grid (3,2,3,2,3,2)."""
        return self.vector.reshape(COMPOSITE_DIMS)

    def momentum_spin_matrix(self) -> np.ndarray:
        """Amplitudes regrouped as a (27, 8) matrix: rows momentum, cols spin."""
        return (
            self.tensor().transpose(0, 2, 4, 1, 3, 5).reshape(MOMENTUM_DIM, SPIN_DIM)
        )

    def spin_density(self) -> np.ndarray:
        """Reduced 8x8 spin density matrix (momenta traced out)."""
        m = self.momentum_spin_matrix()
        return m.T @ m.conj()

    def momentum_density(self) -> np.ndarray:
        """Reduced 27x27 momentum density matrix (spins traced out)."""
        m = self.momentum_spin_matrix()
        return m @ m.conj().T


@dataclass(frozen=True)
class MixedState:
    """Convex mixture of composite pure states."""

    weights: np.ndarray
    states: tuple[CompositeState, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        states = tuple(self.states)
        if w.size != len(states) or w.size == 0:
            raise ShapeError("weights and states must be equal-length and nonempty")
        if not np.all(w > 0.0):
            raise ValidationError("mixture weights must be positive")
        if not abs(w.sum() - 1.0) <= ATOL_PHYSICS:
            raise ValidationError(f"mixture weights sum to {w.sum()}, not 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", states)

    def spin_density(self) -> np.ndarray:
        out = np.zeros((SPIN_DIM, SPIN_DIM), dtype=np.complex128)
        for w, st in zip(self.weights, self.states):
            out += w * st.spin_density()
        return out


def compose(momentum: np.ndarray, spin: np.ndarray) -> CompositeState:
    """Tensor a 27-dim momentum state with an 8-dim spin state, interleaving
    the factors into the composite order."""
    m = _as_state_vector(momentum, MOMENTUM_DIM, "momentum state").reshape(3, 3, 3)
    s = _as_state_vector(spin, SPIN_DIM, "spin state").reshape(2, 2, 2)
    full = np.einsum("abc,xyz->axbycz", m, s).reshape(COMPOSITE_DIM)
    return CompositeState(full)


@dataclass(frozen=True)
class PartitionSpec:
    """Disjoint grouping of tensor factors into m >= 2 parts covering all of
    0..n-1; the unit entanglement is measured *between* the parts."""

    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            parts = tuple(tuple(sorted(int(i) for i in p)) for p in self.parts)
        except TypeError as exc:
            raise ShapeError(f"malformed partition: {self.parts!r}") from exc
        if len(parts) < 2:
            raise ShapeError("a partition needs at least two parts")
        flat = [i for p in parts for i in p]
        if len(flat) != len(set(flat)):
            raise ShapeError(f"partition parts overlap: {parts}")
        if not flat or set(flat) != set(range(max(flat) + 1)):
            raise ShapeError(f"partition must cover factors 0..n-1, got {parts}")
        if any(len(p) == 0 for p in parts):
            raise ShapeError("empty part in partition")
        object.__setattr__(self, "parts", parts)

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    @property
    def num_factors(self) -> int:
        return sum(len(p) for p in self.parts)

    def proper_subsets(self) -> Iterable[tuple[int, ...]]:
        """Factor-index unions of every proper nonempty subset of parts
        (2^m - 2 of them)."""
        m = len(self.parts)
        for r in range(1, m):
            for chosen in combinations(range(m), r):
                yield tuple(
                    sorted(i for c in chosen for i in self.parts[c])
                )

    def __str__(self) -> str:
        return "|".join(",".join(str(i) for i in p) for p in self.parts)


def singletons_partition(n: int) -> PartitionSpec:
    return PartitionSpec(tuple((i,) for i in range(n)))


def bipartition(first: Sequence[int], n: int) -> PartitionSpec:
    rest = tuple(i for i in range(n) if i not in set(first))
    return PartitionSpec((tuple(first), rest))


def particle_partition() -> PartitionSpec:
    """Composite factors grouped per particle: {0,1}|{2,3}|{4,5}."""
    return PartitionSpec(((0, 1), (2, 3), (4, 5)))


def spins_vs_momenta_partition() -> PartitionSpec:
    """All spins against all momenta: {1,3,5}|{0,2,4}."""
    return PartitionSpec((SPIN_FACTORS, (0, 2, 4)))


# --- state files --------------------------------------------------------------

StateLike = Union[CompositeState, MixedState, np.ndarray]


def _amps_to_json(vec: np.ndarray) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in vec]


def _amps_from_json(raw, dim: int, where: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != dim:
        raise StateFileError(f"{where}: expected {dim} amplitude pairs")
    v = np.empty(dim, dtype=np.complex128)
    for i, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            # type(), not isinstance(): JSON true/false load as bool, an int
            or not all(type(x) in (int, float) for x in pair)
        ):
            raise StateFileError(f"{where}: amps[{i}] is not a [re, im] pair")
        v[i] = complex(pair[0], pair[1])
    if not np.all(np.isfinite(v.view(float))):
        raise StateFileError(f"{where}: non-finite amplitude")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > ATOL_PHYSICS:
        raise StateFileError(f"{where}: amplitudes have norm {norm}, expected 1")
    return v


def write_state(state: StateLike, path) -> None:
    """Serialize a composite, mixed, or bare-spin state to a JSON file."""
    if isinstance(state, CompositeState):
        doc = {"dims": list(COMPOSITE_DIMS), "amps": _amps_to_json(state.vector)}
    elif isinstance(state, MixedState):
        doc = {
            "ensemble": [
                {"weight": float(w), "amps": _amps_to_json(st.vector)}
                for w, st in zip(state.weights, state.states)
            ]
        }
    else:
        v = _as_state_vector(state, SPIN_DIM, "spin state")
        doc = {"dims": list(SPIN_DIMS), "amps": _amps_to_json(v)}
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_state(path) -> StateLike:
    """Load a state file; returns CompositeState, MixedState, or a plain
    8-amplitude spin vector depending on the file contents."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFileError(f"{path}: top level must be an object")

    if "ensemble" in doc:
        members = doc["ensemble"]
        if not isinstance(members, list) or not members:
            raise StateFileError(f"{path}: ensemble must be a nonempty list")
        weights = []
        states = []
        for k, member in enumerate(members):
            if not isinstance(member, dict) or "weight" not in member:
                raise StateFileError(f"{path}: ensemble[{k}] needs a weight")
            w = member["weight"]
            if type(w) not in (int, float) or not w > 0.0:  # bool excluded
                raise StateFileError(f"{path}: ensemble[{k}].weight must be > 0")
            weights.append(float(w))
            amps = _amps_from_json(
                member.get("amps"), COMPOSITE_DIM, f"{path}: ensemble[{k}]"
            )
            states.append(CompositeState(amps))
        if abs(sum(weights) - 1.0) > ATOL_PHYSICS:
            raise StateFileError(
                f"{path}: ensemble weights sum to {sum(weights)}, expected 1"
            )
        return MixedState(np.array(weights), tuple(states))

    dims = doc.get("dims")
    if dims == list(COMPOSITE_DIMS):
        return CompositeState(_amps_from_json(doc.get("amps"), COMPOSITE_DIM, path))
    if dims == list(SPIN_DIMS):
        return _amps_from_json(doc.get("amps"), SPIN_DIM, path)
    raise StateFileError(
        f"{path}: dims must be {list(COMPOSITE_DIMS)} or {list(SPIN_DIMS)}, got {dims}"
    )
