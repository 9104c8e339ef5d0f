"""Dense linear algebra on multi-factor Hilbert spaces.

Factor shapes are plain tuples of ints (e.g. (3,2,3,2,3,2)); states and
operators are flat numpy arrays indexed big-endian in the factor order.
apply_local computes kron(factors) @ amps factor by factor, elementwise
for qubits and as stacked matmuls for d >= 3, over whole batches.
Partial traces are single einsum contractions and Hermitian spectra come
from LAPACK (eigh; eigvalsh for the eigenvalues-only density check); the
tests check both against identities rather than against numpy itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import ATOL_PHYSICS, HERMITIAN_ATOL
from .errors import NumericError, ShapeError, ValidationError


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def frob(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def projector(vec: np.ndarray) -> np.ndarray:
    """|v><v| for a 1-d state vector."""
    v = np.asarray(vec, dtype=np.complex128).ravel()
    return np.outer(v, v.conj())


def kron(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor product of a sequence of matrices, left factor slowest.

    Satisfies the mixed-product identity kron([a,b]) @ kron([c,d]) ==
    kron([a@c, b@d]) and is associative by construction.
    """
    mats = [np.asarray(op, dtype=np.complex128) for op in ops]
    if not mats or any(m.ndim != 2 for m in mats):
        raise ShapeError("kron needs one or more matrices")
    return functools.reduce(np.kron, mats)


def apply_local(
    factors: Sequence[np.ndarray], amps: np.ndarray, dims: Sequence[int]
) -> np.ndarray:
    """kron(factors) @ amps without forming the product matrix.

    Factor i, of shape (..., d_i, d_i), acts on tensor axis i of the
    amplitudes, of shape (..., prod dims).  The batch axes of the factors
    and the amplitudes broadcast; the result has shape (batch..., prod
    dims).  Qubit factors are elementwise arithmetic over the batch, not
    one tiny gemm per item; d >= 3 is one stacked matmul.  Either way a
    batch item equals its batch-of-one call bit for bit.  Step i contracts
    the leading tensor axis (axis i) and appends the result as the last
    axis, so after every factor the axes are back in order.
    """
    dims = tuple(int(d) for d in dims)
    fs = [np.asarray(f, dtype=np.complex128) for f in factors]
    a = np.asarray(amps, dtype=np.complex128)
    if len(fs) != len(dims) or any(f.shape[-2:] != (d, d) for f, d in zip(fs, dims)):
        raise ShapeError(f"factors do not match factor dims {dims}")
    if a.shape[-1:] != (int(np.prod(dims)),):
        raise ShapeError(f"amplitude shape {a.shape} does not match factor dims {dims}")
    batch = np.broadcast_shapes(a.shape[:-1], *(f.shape[:-2] for f in fs))
    n = a.shape[-1]
    t = np.broadcast_to(a, batch + (n,))
    for f, d in zip(fs, dims):
        t = t.reshape(batch + (d, n // d))
        if d == 2:  # out_j = f_j0 t_0 + f_j1 t_1 over the whole batch
            t = np.stack([f[..., j, :1] * t[..., 0, :] + f[..., j, 1:] * t[..., 1, :]
                          for j in (0, 1)], axis=-1)
        else:
            t = np.swapaxes(t, -1, -2) @ np.swapaxes(f, -1, -2)
        t = t.reshape(batch + (n,))
    return t


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, shape (...).  Each is the pair
    of dot products np.linalg.norm takes for a single vector, so it equals
    np.linalg.norm of its row bit for bit, batched or not."""
    re, im = v.real[..., None, :], v.imag[..., None, :]
    with np.errstate(over="ignore"):  # a square past the float range is inf
        sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return np.sqrt(sq[..., 0, 0])


def _check_factored(mat: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ShapeError(f"factor dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if mat.shape != (total, total):
        raise ShapeError(
            f"matrix shape {mat.shape} does not match factor dims {dims} "
            f"(expected {(total, total)})"
        )
    return dims


def partial_trace(
    rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]
) -> np.ndarray:
    """Trace out all factors not listed in `keep`.

    Parameters
    ----------
    rho : square matrix on the full tensor space prod(dims).
    dims : per-factor dimensions, big-endian flattening.
    keep : factor indices to retain, any order; the result is ordered by
        ascending factor index.

    Preserves the trace and maps density matrices to density matrices.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    dims = _check_factored(rho, dims)
    keep = sorted({int(k) for k in keep})
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ShapeError(f"keep indices {keep} out of range for {len(dims)} factors")
    # Row factor i is index i; a kept factor's column gets its own index
    # n + i, a traced one reuses i, so einsum sums over it.
    n = len(dims)
    cols = [n + i if i in keep else i for i in range(n)]
    out = np.einsum(
        rho.reshape(dims + dims), list(range(n)) + cols, keep + [n + k for k in keep]
    )
    dk = int(np.prod([dims[k] for k in keep]))
    return out.reshape(dk, dk)


def _is_unit(x) -> np.ndarray:
    """|x - 1| <= ATOL_PHYSICS elementwise, NaN failing: the one unit rule,
    for |psi|^2 of a state row, a density's trace or a weight sum."""
    return np.abs(np.asarray(x) - 1.0) <= ATOL_PHYSICS


def _hermiticity_defect(h: np.ndarray) -> float:
    # ||h - h^H||_F of a square matrix, the one Hermiticity test (each caller
    # sets its threshold); inf - inf is NaN, which fails it without a warning
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {h.shape}")
    with np.errstate(invalid="ignore"):
        return frob(h - dagger(h))


def hermitian_eigen(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (LAPACK via numpy.linalg.eigh).

    Returns (w, v) with eigenvalues w sorted descending and eigenvector
    columns v aligned so that h = v @ diag(w) @ v^H.  Raises
    ValidationError if h is not Hermitian within tolerance and
    NumericError if LAPACK fails to converge.
    """
    h = np.asarray(h, dtype=np.complex128)
    if not _hermiticity_defect(h) <= HERMITIAN_ATOL * max(1.0, frob(h)):
        raise ValidationError("matrix is not Hermitian within tolerance")
    try:
        w, v = np.linalg.eigh((h + dagger(h)) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    return w[::-1].copy(), np.ascontiguousarray(v[:, ::-1])


@dataclass(frozen=True)
class DensityCheck:
    """Outcome of a density-matrix validation, truthy iff it passed."""

    ok: bool
    hermiticity_error: float
    trace_error: float
    min_eigenvalue: float

    def __bool__(self) -> bool:
        return self.ok


def is_density_matrix(rho: np.ndarray) -> DensityCheck:
    """Check Hermiticity, unit trace (_is_unit) and positivity within
    ATOL_PHYSICS.  A non-finite entry fails the check without a warning."""
    rho = np.asarray(rho, dtype=np.complex128)
    herm = _hermiticity_defect(rho)
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal is NaN
        trace = np.trace(rho)
    min_eig = float("nan")
    if herm <= ATOL_PHYSICS:
        try:  # eigenvalues only, ascending: no eigenvectors are formed
            min_eig = float(np.linalg.eigvalsh((rho + dagger(rho)) / 2.0)[0])
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigenvalue solver failed: {exc}") from exc
    ok = herm <= ATOL_PHYSICS and _is_unit(trace) and min_eig >= -ATOL_PHYSICS
    return DensityCheck(bool(ok), herm, float(abs(trace - 1.0)), min_eig)


def require_density(rho: np.ndarray) -> None:
    """Raise ValidationError unless `rho` passes is_density_matrix."""
    check = is_density_matrix(rho)
    if not check:
        raise ValidationError(f"not a density matrix: {check}")


def purity_unchecked(rho: np.ndarray) -> float:
    # Tr(rho^2) = ||rho||_F^2 for Hermitian rho; used on hot paths where
    # the input is a density matrix by construction.
    return float(np.vdot(rho, rho).real)
