"""Genuine-multipartite-entanglement witness and entanglement measures.

The witness targets GHZ-type entanglement of three qubits.  Writing
rho07 for the coherence <uuu|rho|ddd> and rho_jj for the sigma_z-basis
populations (index bits: up=0, down=1), biseparable states obey

    |rho07| <= sqrt(rho_11 rho_66) + sqrt(rho_22 rho_55)
               + sqrt(rho_44 rho_33)

so the reported value

    value = 2|rho07| - 2 sqrt(rho_11 rho_66) - 2 sqrt(rho_22 rho_55)
            - 2 sqrt(rho_44 rho_33)

is nonpositive on every biseparable state and reaches 1 on the GHZ
state.  Everything is measurable with nine local settings: the eight
X/Y Pauli strings below determine Re rho07 and Im rho07, and the
computational-basis setting's outcome distribution is the populations,
a density's diagonal on every path.  One kernel maps populations and
the complex 2 rho07 to the value for every route (matrix entries, Pauli
settings, amplitudes), the one place 2|rho07| is formed; _gme_bound is
the one GME rule, max(0, value).

variant="as_printed" replaces the third pairing by sqrt(rho_44 rho_44)
= rho_44.  It is kept for comparison but is NOT sound as a witness: for
(sqrt(.9)|u> + sqrt(.1)|d>) (x) (|uu>+|dd>)/sqrt(2) it evaluates to
+0.2 on a manifestly biseparable state.  The default variant is the
symmetric pairing, and only that variant feeds the GME bound.

Conditioning: the population terms are square roots, so an absolute
error e in a population rho_jj moves the value by about sqrt(e rho_kk)
for its partner k, not by e.  A population that is exactly zero but
computed as an entry of U rho U^H carries roundoff of about 1e-17, which
the square root lifts to about 1e-9 (roundoff eps becomes sqrt(eps)).
Populations taken from amplitudes, sum_k |chi_kj|^2, are
nonnegative by construction and keep an exact zero within eps^2, so the
value stays within a few eps; witness_from_amplitudes evaluates the
witness that way for whole sweeps.  ghz_witness on a density matrix
inherits the conditioning of the matrix it is given.

three_tangle keeps the batch axis last, so a lone state's psi_ijk are arrays,
not numpy scalars: those round complex products differently from a batch.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import (
    COMPOSITE_DIM,
    COMPOSITE_DIMS,
    PAULI_X,
    PAULI_Y,
    RADICAND_NOISE,
    SPIN_DIM,
    SPIN_DIMS,
)
from .errors import InputError, NumericError, ShapeError
from .linalg import kron, require_density
from .states import CompositeState, PartitionSpec, _state_rows

WITNESS_PATHS = ("matrix_elements", "pauli_settings")
WITNESS_VARIANTS = ("symmetric", "as_printed")

# Eight of the nine local measurement settings as one (8, 8, 8) table of
# X/Y Pauli strings, signs folded in: 8 Re rho07 = <XXX> - <XYY> - <YXY>
# - <YYX> (rows 0-3) and 8 Im rho07 = <YYY> - <XXY> - <YXX> - <XYX>
# (rows 4-7).  The ninth, the computational-basis measurement, has the
# outcome distribution rho_jj: the diagonal, read on both paths.
_PAULI = {"X": PAULI_X, "Y": PAULI_Y}
_SETTINGS = np.array(
    [sign * kron([_PAULI[c] for c in word]) for sign, word in zip(
        (1, -1, -1, -1, 1, -1, -1, -1),
        ("XXX", "XYY", "YXY", "YYX", "YYY", "XXY", "YXX", "XYX"))]
)
# Population index pairs in the flat spin basis: (uud, ddu), (udu, dud),
# (duu, udd).  as_printed pairs the third as (duu, duu).
_POP_PAIRS = {
    "symmetric": ((1, 6), (2, 5), (4, 3)),
    "as_printed": ((1, 6), (2, 5), (4, 4)),
}


@dataclass(frozen=True)
class WitnessReport:
    """Witness value = offdiag_term - sum of population_terms (each carrying
    its factor of two); a positive value certifies GME."""

    value: float
    offdiag_term: float
    population_terms: tuple[float, float, float]


def _witness(pops, coherence, variant: str):
    # Populations (..., 8) and the complex 2 rho07 (...) to the value,
    # 2|rho07| and the three population terms.
    if variant not in WITNESS_VARIANTS:
        raise InputError(f"unknown variant {variant!r}, expected one of {WITNESS_VARIANTS}")
    # populations may dip an epsilon below zero on valid densities
    pops = np.maximum(pops, 0.0)
    terms = [2.0 * np.sqrt(pops[..., i] * pops[..., j]) for i, j in _POP_PAIRS[variant]]
    offdiag = np.abs(coherence)
    return offdiag - sum(terms), offdiag, terms


def _gme_bound(values):
    # The GME rule max(0, value), elementwise; NaN and -0.0 map to +0.0.
    return np.fmax(values, 0.0) + 0.0


def ghz_witness(
    rho: np.ndarray,
    path: str = "matrix_elements",
    variant: str = "symmetric",
    validate: bool = True,
) -> WitnessReport:
    """Evaluate the GHZ-type witness on an 8x8 spin density matrix.

    Both paths read the populations from the diagonal, the outcomes of the
    computational-basis setting; path="matrix_elements" reads rho07 straight
    from the matrix, path="pauli_settings" rebuilds it from the eight X/Y
    Pauli settings.  Both values agree to 1e-10 on any valid density matrix.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (SPIN_DIM, SPIN_DIM):
        raise ShapeError(f"witness needs an 8x8 density matrix, got {rho.shape}")
    if path not in WITNESS_PATHS:
        raise InputError(f"unknown path {path!r}, expected one of {WITNESS_PATHS}")
    if validate:
        require_density(rho)
    return _path_values(rho, path, (variant,))[variant]


def _path_values(rho, path, variants=WITNESS_VARIANTS) -> dict[str, WitnessReport]:
    # Populations (the diagonal) and 2 rho07 read once along `path` (one
    # settings product at most), then the WitnessReport of each of `variants`
    pops, coherence = rho.diagonal().real, 2.0 * rho[0, 7]
    if path == "pauli_settings":  # 2 Re rho07 and 2 Im rho07, each summed left to right
        means = np.trace(rho @ _SETTINGS, axis1=-2, axis2=-1).real
        coherence = complex(0.25 * sum(means[:4]), 0.25 * sum(means[4:]))
    reports = {}
    for variant in variants:
        value, offdiag, terms = _witness(pops, coherence, variant)
        terms = tuple(float(t) for t in terms)
        reports[variant] = WitnessReport(float(value), float(offdiag), terms)
    return reports


def witness_from_amplitudes(psi, variant: str = "symmetric") -> np.ndarray:
    """Witness values of the mixtures sum_k |chi_k><chi_k|, batched.

    `psi` holds K >= 1 unnormalized terms chi of shape (..., K, 8), the weights
    folded in (e.g. boost.SpinEnsemble.terms()); the result has shape (...).
    Populations sum_k |chi_kj|^2 and rho07 = sum_k chi_k0 conj(chi_k7)
    come straight from the amplitudes, so no 8x8 matrix is formed and the
    value keeps the conditioning described in the module docstring.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim < 2 or psi.shape[-2] < 1 or psi.shape[-1] != SPIN_DIM:
        raise ShapeError(f"witness terms need shape (..., K >= 1, 8), got {psi.shape}")
    return _witness(*_amplitude_moments(psi), variant)[0]


def _amplitude_moments(psi):
    # Terms (..., K, 8) to the populations (..., 8) and 2 rho07 (...), the
    # inputs of _witness for every variant
    pops = np.sum(psi.real**2 + psi.imag**2, axis=-2)
    return pops, 2.0 * np.sum(psi[..., 0] * psi[..., 7].conj(), axis=-1)


def gme_lower_bound(rho: np.ndarray, validate: bool = True) -> float:
    """max(0, witness value): a lower bound on genuine multipartite
    entanglement, tight (= 1) on the GHZ state.  Uses the sound symmetric
    variant only."""
    report = ghz_witness(rho, variant="symmetric", validate=validate)
    return float(_gme_bound(report.value))


@functools.cache
def _factor0_cuts(spec: PartitionSpec) -> tuple:  # a pure state's cuts, keyed by factor 0's side
    return tuple(keep for keep in spec.proper_subsets() if 0 in keep)


@functools.cache
def _purity_plan(dims: tuple[int, ...], cuts: frozenset) -> tuple:
    # _subset_purities' bookkeeping as tuples: (keep, key) pairs and, per
    # root (the largest, then first, subset of dimension <= sqrt(N) holding
    # a side), (factor order, dimension, steps).  A step ((a, d, c), key) traces d
    # out of its parent, the node of its path less the last factor, shaped
    # (a, d, c) * 2; the root's own step is (None, key).  A side's chain
    # drops its root's other non-unit factors in ascending order.
    n, factors = math.prod(dims), range(len(dims))
    size = {s: math.prod(dims[i] for i in s)
            for k in factors for s in itertools.combinations(factors, k + 1)}
    sides = {keep: keep if size[keep] ** 2 <= n else
             tuple(i for i in factors if i not in keep) for keep in cuts}
    roots = sorted((s for s in size if size[s] ** 2 <= n), key=lambda s: (-size[s], s))
    root_of = {side: next(r for r in roots if set(side) <= set(r))
               for side in set(sides.values())}
    drops = {s: tuple(i for i in root_of[s] if i not in s and dims[i] > 1) for s in root_of}
    plan = []
    for root in sorted(set(root_of.values())):
        steps = [(None, (root, ()))]
        for path in sorted({d[:k] for s, d in drops.items() if root_of[s] == root
                            for k in range(1, len(d) + 1)}):
            a = math.prod(dims[i] for i in root if i < path[-1] and i not in path)
            c = math.prod(dims[i] for i in root if i > path[-1])
            steps.append(((a, dims[path[-1]], c), (root, path)))
        axes = tuple(sorted(factors, key=lambda i: i not in root))
        plan.append((axes, size[root], tuple(steps)))
    return tuple((keep, (root_of[s], drops[s])) for keep, s in sides.items()), tuple(plan)


def _qubit_gram(up, down):
    # (a, d, x) of a qubit reduction [[a, x], [conj x, d]] from rows up, down (..., n)
    a = np.sum(up.real**2 + up.imag**2, axis=-1)
    d = np.sum(down.real**2 + down.imag**2, axis=-1)
    return a, d, np.sum(up * down.conj(), axis=-1)


def _trace_middle(x):  # Tr_j of x (..., i, j, k, l, j, m), see _subset_purities
    out = x[..., 0, :, :, 0, :].copy()
    for j in range(1, x.shape[-5]):
        out += x[..., j, :, :, j, :]
    return out


@functools.cache
def _root_index(dims, axes, dk):  # a root's (dk, N/dk) matrix as flat amplitude indices
    index = np.arange(math.prod(dims)).reshape(dims).transpose(axes).reshape(dk, -1)
    index.flags.writeable = False  # shared by every call
    return index


def _subset_purities(amps: np.ndarray, dims: tuple[int, ...], cuts) -> dict:
    # Purities of each state (b, N)'s reductions onto each cut's smaller side;
    # root and chain depend on the side alone, so each is the same in any call.
    # A root's matrix keeps the columns where some item is nonzero (a dropped
    # one adds exact zeros to a Gram entry; a qubit root's whole-batch sums
    # regroup with their length, so it keeps all), in one buffer per call with
    # its conjugate and Gram (per-root arrays refault).  A one-factor trace adds
    # its parent's d diagonal slices in ascending order, as np.einsum does.
    b, (keys, plan) = len(amps), _purity_plan(dims, frozenset(cuts))
    live = np.any(amps, axis=0) if any(dk > 2 for _, dk, _ in plan) else None
    work, purities = np.empty((3, amps.size), dtype=np.complex128), {}
    for axes, dk, steps in plan:
        index = _root_index(dims, axes, dk)
        index = index[:, live[index].any(axis=0)] if dk > 2 else index
        mat, mat_c = work[:2, :b * index.size].reshape((2, b) + index.shape)
        np.take(amps, index, axis=1, out=mat, mode="wrap")  # "raise" would buffer out
        gram = work[2, :b * dk * dk].reshape(b, dk, dk)
        if dk == 2:  # elementwise: a stacked matmul runs one zgemm per item
            gram[:, 0, 0], gram[:, 1, 1], gram[:, 0, 1] = _qubit_gram(mat[:, 0], mat[:, 1])
            gram[:, 1, 0] = gram[:, 0, 1].conj()
        else:
            np.matmul(mat, np.conjugate(mat, out=mat_c).transpose(0, 2, 1), out=gram)
        chain = [gram]  # the nodes of path's prefixes, root first
        for adc, (root, path) in steps:
            if path:  # steps run depth first, so chain[len(path) - 1] is the parent
                del chain[len(path):]
                chain.append(_trace_middle(chain[-1].reshape((b,) + adc * 2)))
            # Tr rho^2: numpy's real dot per item of (1, n) @ (n, 1), one-state bits
            rho = chain[-1]
            flat = rho.reshape(b, 1, math.prod(rho.shape[1:])).view(np.float64)
            purities[root, path] = (flat @ flat.transpose(0, 2, 1))[:, 0, 0]
    return {keep: purities[key] for keep, key in keys}


def _sqrt_radicand(x, total: int = 0):
    # A radicand `total` - (sum of `total` purities) within 16 eps total of
    # zero is the roundoff of an exact zero and maps to 0, not sqrt(eps).
    if np.any(x < -RADICAND_NOISE):
        raise NumericError(f"negative radicand {np.min(x)} beyond noise threshold")
    return np.sqrt(np.where(x <= 16.0 * np.finfo(float).eps * total, 0.0, x))


def _batch_of_states(state, dims: Sequence[int] | None):
    # Amplitudes (..., N), the factor dims (inferred from N when not given)
    # and each row's |psi|^4, shape (...): the unit rule lets |psi|^2 miss
    # 1, and the degree-4 measures divide by |psi|^4 to measure the ray.
    vec = np.asarray(state.vector if isinstance(state, CompositeState) else state,
                     dtype=np.complex128)
    if vec.ndim == 0:
        raise ShapeError("a state needs at least one amplitude axis")
    if dims is None:
        if vec.shape[-1] == COMPOSITE_DIM:
            dims = COMPOSITE_DIMS
        elif vec.shape[-1] == SPIN_DIM:
            dims = SPIN_DIMS
        else:
            raise ShapeError(f"cannot infer factor dims for a state of size {vec.shape[-1]}")
    dims = tuple(int(d) for d in dims)
    vec, sq = _state_rows(vec, int(np.prod(dims)), "state")
    return vec, dims, sq**2


def _unbatch(values: np.ndarray, batch_shape: tuple[int, ...]):
    # A single state (empty batch shape) gets a float back.
    return float(values[0]) if not batch_shape else values.reshape(batch_shape)


def m_concurrences_pure(
    state,
    partitions: Sequence[PartitionSpec],
    dims: Sequence[int] | None = None,
) -> list:
    """Generalized concurrences of pure states across m-part partitions.

    C = 2^(1-m/2) sqrt((2^m - 2) - sum_g Tr rho_g^2), the sum running
    over the 2^m - 2 reductions onto proper nonempty unions of parts.  A
    pure state's reductions onto complementary unions share their purity,
    so only the 2^(m-1) - 1 unions holding factor 0 are evaluated, twice,
    each once per call whichever partitions share it: one Gram product per
    root union over the amplitude columns where some state is nonzero (for a
    qubit, whole-batch sums over all), then one-factor partial traces in
    ascending order down to each union inside (planned once per process),
    and Tr rho^2 as one real dot per state.  A trace adds its parent's d
    diagonal slices in ascending order, the order np.einsum sums them in, so
    it has einsum's bits.  A batch item equals its one-state call bit for bit
    whenever the batch's states share their nonzero pattern (one sweep, or
    dense states); else a BLAS kernel that does not sum columns in order may
    move its last bits.  Vanishes iff the state is a product across some
    split of the partition; invariant under per-factor unitaries.

    `state` is a CompositeState or amplitudes of shape (..., N), a batch
    of states; every row must pass the unit rule and is measured as the
    ray it spans.  Returns one value per partition: a float for a single
    state, an array of shape (...) for a batch.
    """
    return _m_concurrences_unchecked(*_batch_of_states(state, dims), partitions)


def _m_concurrences_unchecked(vec, dims, norm4, partitions) -> list:  # _batch_of_states' output
    for spec in partitions:
        if spec.num_factors != len(dims):
            raise ShapeError(
                f"partition covers {spec.num_factors} factors, state has {len(dims)}"
            )
    per_spec = [_factor0_cuts(spec) for spec in partitions]
    purities = _subset_purities(vec.reshape(-1, vec.shape[-1]), dims, set().union(*per_spec))
    values = []
    for spec, cuts in zip(partitions, per_spec):
        m = spec.num_parts
        total = 2**m - 2
        acc = 2.0 * sum(purities[keep] for keep in cuts) / norm4.reshape(-1)
        value = 2.0 ** (1.0 - m / 2.0) * _sqrt_radicand(total - acc, total)
        values.append(_unbatch(value, vec.shape[:-1]))
    return values


def m_concurrence_pure(state, partition: PartitionSpec,
                       dims: Sequence[int] | None = None):
    """m_concurrences_pure for one partition: a float for a single state,
    an array of shape (...) for a batch of states (..., N)."""
    return m_concurrences_pure(state, [partition], dims)[0]


def three_tangle(state):
    """Residual three-qubit tangle of pure spin states, 4|Det psi| with
    Cayley's hyperdeterminant in slice form, (det(p_0 + p_1) - d_0 - d_1)^2
    - 4 d_0 d_1 for p_k = psi_{ij k}, d_k = det p_k; 1 on GHZ, 0 on W and on
    any product state, unchanged by local unitaries and qubit permutations.
    Takes amplitudes (..., 8), each row measured as the ray it spans, and
    returns a float for a single state, an array of shape (...) for a batch."""
    vec, _, norm4 = _batch_of_states(state, SPIN_DIMS)
    return _unbatch((_three_tangle_unchecked(vec) / norm4).ravel(), vec.shape[:-1])


def _three_tangle_unchecked(vec: np.ndarray) -> np.ndarray:
    # three_tangle of amplitudes (..., 8) without the normalization check.
    a = np.moveaxis(vec.reshape((-1, 4, 2)), 0, -1)  # a[2i + j, k] = psi_ijk
    d = a[0] * a[3] - a[1] * a[2]  # det p_0, det p_1
    s = a[:, 0] + a[:, 1]  # p_0 + p_1
    b = s[0] * s[3] - s[1] * s[2] - d[0] - d[1]
    return (4.0 * np.abs(b * b - 4.0 * d[0] * d[1])).reshape(vec.shape[:-1])
