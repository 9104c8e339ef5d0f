"""State construction, partitions, and the JSON state-file format.

Spin basis: index 0 = |up>, 1 = |down>; a three-spin vector is indexed
big-endian, so |s1 s2 s3> sits at 4*s1 + 2*s2 + s3.  Momentum basis:
labels A/B/C = 0/1/2, |m1 m2 m3> at 9*m1 + 3*m2 + m3.  Composite states
interleave the factors as (mom1, spin1, mom2, spin2, mom3, spin3).

State files are JSON.  A pure state is
    {"dims": [3,2,3,2,3,2], "amps": [[re, im], ...]}   (216 amplitudes)
and a mixed state is
    {"ensemble": [{"weight": w, "amps": [...]}, ...]}
with positive weights q_i and trace sum_i q_i |psi_i|^2 equal to one.
dims [2,2,2] with 8 amplitudes is also accepted for bare three-spin
states, and dims [2,2,2] with an 8x8 "matrix" of [re, im] pairs for spin
density matrices (as write_state and `boost --spin-out` write them);
both are used by the witness command.
"""

from __future__ import annotations

import errno
import math
import os
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Sequence, Union

import numpy as np

from .constants import (
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
from .linalg import _is_unit, require_density, row_norms


def _state_rows(vec, dim: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes (..., dim) as a complex array and each row's |psi|^2, checked by _is_unit."""
    v = np.asarray(vec, dtype=np.complex128)
    if v.ndim == 0 or v.shape[-1] != dim:
        raise ShapeError(f"{what} must have {dim} amplitudes, got shape {v.shape}")
    sq = row_norms(v) ** 2
    if not np.all(_is_unit(sq)):  # NaN fails too
        worst = sq.flat[np.argmax(np.abs(sq - 1.0))]
        raise ValidationError(f"{what} is not normalized: |psi|^2 = {worst}")
    return v, sq


def _as_state_vector(vec, dim: int, what: str) -> np.ndarray:
    return _state_rows(np.ravel(vec), dim, what)[0]


def _momentum_spin_rows(vec: np.ndarray) -> np.ndarray:
    """Composite amplitudes (..., 216) regrouped as (..., 27, 8): rows are
    momentum basis kets, columns spin basis states."""
    batch = vec.shape[:-1]
    t = np.einsum("...axbycz->...abcxyz", vec.reshape(batch + COMPOSITE_DIMS))
    return t.reshape(batch + (MOMENTUM_DIM, SPIN_DIM))


def _mixture(chi: np.ndarray) -> np.ndarray:
    # The package's one sum_k |chi_k><chi_k|, for unnormalized terms (..., K, 8)
    return np.swapaxes(chi, -1, -2) @ chi.conj()


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
    if not _is_unit(np.vdot(c, c).real):
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

    def momentum_spin_matrix(self) -> np.ndarray:
        """Amplitudes regrouped as a (27, 8) matrix: rows momentum, cols spin."""
        return _momentum_spin_rows(self.vector)

    def spin_density(self) -> np.ndarray:
        """Reduced 8x8 spin density matrix (momenta traced out)."""
        return _mixture(self.momentum_spin_matrix())


@dataclass(frozen=True)
class MixedState:
    """Convex mixture of composite pure states: positive weights q_i (M,),
    normalized member rows (M, 216) and unit trace sum_i q_i |psi_i|^2."""

    weights: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        if not np.all(w > 0.0):  # NaN fails too
            raise ValidationError("mixture weights must be positive")
        v, sq = _state_rows(self.vectors, COMPOSITE_DIM, "mixture member")
        if v.shape != (w.size, COMPOSITE_DIM):
            raise ShapeError(f"{w.size} mixture weights but vectors of shape {v.shape}")
        trace = float(w @ sq)  # the trace of spin_density()
        if not _is_unit(trace):  # and so, with positive weights, nonempty
            raise ValidationError(f"mixture weights q_i|psi_i|^2 sum to {trace}, not 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "vectors", v)

    def spin_density(self) -> np.ndarray:
        """Reduced 8x8 spin density sum_i q_i rho_i over the members."""
        rhos = _mixture(_momentum_spin_rows(self.vectors))  # (M, 8, 8)
        return np.sum(self.weights[:, None, None] * rhos, axis=0)


def _product_rows(momentum: np.ndarray, spin: np.ndarray) -> np.ndarray:
    # Amplitudes (..., 216) of momentum (..., 27) (x) spin (..., 8), the
    # factors interleaved into the composite order, one product per entry.
    m = momentum.reshape(momentum.shape[:-1] + (3, 3, 3))
    s = spin.reshape(spin.shape[:-1] + (2, 2, 2))
    full = np.einsum("...abc,...xyz->...axbycz", m, s)
    return full.reshape(full.shape[:-6] + (COMPOSITE_DIM,))


def compose(momentum: np.ndarray, spin: np.ndarray) -> CompositeState:
    """Tensor a 27-dim momentum state with an 8-dim spin state, interleaving
    the factors into the composite order."""
    return CompositeState(_product_rows(
        _as_state_vector(momentum, MOMENTUM_DIM, "momentum state"),
        _as_state_vector(spin, SPIN_DIM, "spin state"),
    ))


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


def _amps_to_json(vec: np.ndarray) -> list:
    # amplitudes (..., N) as nested [re, im] pairs, one array call
    return np.stack([vec.real, vec.imag], axis=-1).tolist()


def _amps_from_json(raw, dim: int, where: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != dim:
        raise StateFileError(f"{where}: expected {dim} amplitude pairs")
    # The whole list is checked in C first; the per-pair loop only names the
    # first bad pair.  type(), not isinstance(): JSON true/false load as bool.
    if not (
        set(map(type, raw)) == {list}
        and set(map(len, raw)) == {2}
        and set(map(type, chain.from_iterable(raw))) <= {int, float}
    ):
        for i, pair in enumerate(raw):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(type(x) in (int, float) for x in pair)
            ):
                raise StateFileError(f"{where}: amps[{i}] is not a [re, im] pair")
    v = np.array(raw, dtype=float).view(np.complex128).ravel()
    if not np.all(np.isfinite(v.view(float))):
        raise StateFileError(f"{where}: non-finite amplitude")
    return v


def _state_text(state: StateLike) -> str:
    # The JSON text of a composite, mixed, bare-spin or spin-density state file.
    import json  # here and in read_state: only the state-file commands load it

    if isinstance(state, CompositeState):
        doc = {"dims": list(COMPOSITE_DIMS), "amps": _amps_to_json(state.vector)}
    elif isinstance(state, MixedState):
        members = zip(state.weights.tolist(), _amps_to_json(state.vectors))
        doc = {"ensemble": [{"weight": w, "amps": amps} for w, amps in members]}
    elif np.shape(state) == (SPIN_DIM, SPIN_DIM):  # a density; read_state validates it
        doc = {"dims": list(SPIN_DIMS), "matrix": _amps_to_json(np.asarray(state))}
    else:
        v = _as_state_vector(state, SPIN_DIM, "spin state")
        doc = {"dims": list(SPIN_DIMS), "amps": _amps_to_json(v)}
    return json.dumps(doc) + "\n"


def write_state(state: StateLike, path) -> None:
    """Serialize a composite, mixed or bare-spin state or a spin density to JSON."""
    write_output((path, _state_text(state)))


def write_output(*outputs: tuple) -> None:
    """Write (path, text) pairs, the package's only way to write a file.
    Each text is staged in a new file next to its path and renamed onto it
    once all are written, so a failed write leaves no new or changed file
    behind; an unwritable path, or two paths naming one file, raises
    InputError naming it (CLI exit 2)."""
    real = [os.path.realpath(path) for path, _ in outputs]
    twice = [path for (path, _), r in zip(outputs, real) if real.count(r) > 1]
    if twice:  # one rename would replace the other's text
        raise InputError(f"cannot write {' and '.join(twice)}: they name one file")
    staged = []  # (temporary, path) pairs not yet renamed
    try:
        for i, (path, text) in enumerate(outputs):
            if os.path.isdir(path):  # fail here, not midway through the renames
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            with open(f"{path}.{os.getpid()}.{i}.tmp", "x", newline="") as fh:
                staged.append((fh.name, path))
                fh.write(text)
        for tmp, path in staged[:]:
            os.replace(tmp, path)
            staged.remove((tmp, path))
    except OSError as exc:
        for tmp, _ in staged:
            os.remove(tmp)
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def read_state(path) -> StateLike:
    """Load a state file; returns CompositeState, MixedState, a plain
    8-amplitude spin vector or an 8x8 spin density matrix depending on the
    file contents."""
    import json

    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    try:  # bytes: json.loads decodes them whatever the locale's encoding
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:  # not JSON, not text, or nested too deep
        raise StateFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFileError(f"{path}: top level must be an object")

    try:
        if "ensemble" in doc:
            members = doc["ensemble"]
            if not isinstance(members, list) or not members:
                raise StateFileError(f"{path}: ensemble must be a nonempty list")
            weights, vectors = [], []
            for k, member in enumerate(members):
                at = f"{path}: ensemble[{k}]"
                w = member.get("weight") if isinstance(member, dict) else None
                if type(w) not in (int, float):  # missing, or a JSON true/false
                    raise StateFileError(f"{at}.weight must be > 0, got {w!r}")
                weights.append(w)
                vectors.append(_amps_from_json(member.get("amps"), COMPOSITE_DIM, at))
            return MixedState(np.array(weights, dtype=float), np.array(vectors))

        dims = doc.get("dims")
        if dims == list(COMPOSITE_DIMS):
            return CompositeState(_amps_from_json(doc.get("amps"), COMPOSITE_DIM, path))
        if dims == list(SPIN_DIMS) and "matrix" in doc:
            rows = doc["matrix"]
            if not isinstance(rows, list) or len(rows) != SPIN_DIM:
                raise StateFileError(f"{path}: matrix must have {SPIN_DIM} rows")
            rho = np.array([
                _amps_from_json(row, SPIN_DIM, f"{path}: matrix[{j}]")
                for j, row in enumerate(rows)
            ])
            require_density(rho)
            return rho
        if dims == list(SPIN_DIMS):
            amps = _amps_from_json(doc.get("amps"), SPIN_DIM, path)
            return _as_state_vector(amps, SPIN_DIM, "spin state")
    except (ValidationError, OverflowError) as exc:  # e.g. a JSON int of 10**400
        raise StateFileError(f"{path}: {exc}") from exc
    raise StateFileError(
        f"{path}: dims must be {list(COMPOSITE_DIMS)} or {list(SPIN_DIMS)}, got {dims}"
    )
