"""Dense linear algebra on multi-factor Hilbert spaces.

Factor shapes are plain tuples of ints (e.g. (3,2,3,2,3,2)); states and
operators are flat numpy arrays indexed big-endian in the factor order.
The Hermitian eigensolver is a hand-rolled cyclic Jacobi iteration (see
kernels.py) — numpy.linalg is deliberately not used for spectra so that
tests can hold it up as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .constants import (
    ATOL_PHYSICS,
    HERMITIAN_ATOL,
    JACOBI_OFF_TOL,
    MAX_JACOBI_SWEEPS,
)
from .errors import NumericError, ShapeError, ValidationError
from .kernels import jacobi_sweeps, ptrace_kernel


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
    if len(ops) == 0:
        raise ShapeError("kron needs at least one operator")
    mats = [np.asarray(op, dtype=np.complex128) for op in ops]
    for m in mats:
        if m.ndim != 2:
            raise ShapeError("kron operands must be matrices")
    return reduce(np.kron, mats)


def _axis_offsets(dims: tuple[int, ...], subset: tuple[int, ...]) -> np.ndarray:
    # Flat-index offsets contributed by the given factors; the offsets of a
    # subset and of its complement add up to the full flat index.
    strides = np.ones(len(dims), dtype=np.int64)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    parts = [strides[f] * np.arange(dims[f], dtype=np.int64) for f in subset]
    return reduce(np.add.outer, parts, np.zeros((), dtype=np.int64)).ravel()


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
    rho = np.ascontiguousarray(rho, dtype=np.complex128)
    dims = _check_factored(rho, dims)
    keep = sorted({int(k) for k in keep})
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ShapeError(f"keep indices {keep} out of range for {len(dims)} factors")
    traced = tuple(i for i in range(len(dims)) if i not in keep)
    keep_off = _axis_offsets(dims, tuple(keep))
    tr_off = _axis_offsets(dims, traced)
    out = np.empty((keep_off.size, keep_off.size), dtype=np.complex128)
    ptrace_kernel(rho, keep_off, tr_off, out)
    return out


def hermitian_eigen(
    h: np.ndarray, *, max_sweeps: int = MAX_JACOBI_SWEEPS
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns (w, v) with eigenvalues w sorted descending and eigenvector
    columns v aligned so that h = v @ diag(w) @ v^H.  The iteration stops
    once the off-diagonal Frobenius norm falls below 1e-14 relative to
    the input scale; failure to get there within `max_sweeps` raises
    NumericError.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {h.shape}")
    scale = max(1.0, frob(h))
    if frob(h - dagger(h)) > HERMITIAN_ATOL * scale:
        raise ValidationError("matrix is not Hermitian within tolerance")
    a = np.ascontiguousarray((h + dagger(h)) / 2.0)
    v = np.eye(h.shape[0], dtype=np.complex128)
    sweeps = jacobi_sweeps(a, v, max_sweeps, JACOBI_OFF_TOL * scale)
    if sweeps < 0:
        raise NumericError(
            f"Jacobi iteration did not converge in {max_sweeps} sweeps"
        )
    w = np.diagonal(a).real.copy()
    order = np.argsort(-w, kind="stable")
    return w[order], np.ascontiguousarray(v[:, order])


@dataclass(frozen=True)
class DensityCheck:
    """Outcome of a density-matrix validation, truthy iff it passed."""

    ok: bool
    hermiticity_error: float
    trace_error: float
    min_eigenvalue: float

    def __bool__(self) -> bool:
        return self.ok


def is_density_matrix(rho: np.ndarray, atol: float = ATOL_PHYSICS) -> DensityCheck:
    """Check Hermiticity, unit trace and positivity within `atol`."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {rho.shape}")
    herm = frob(rho - dagger(rho))
    tr_err = abs(np.trace(rho) - 1.0)
    if herm <= atol:
        w, _ = hermitian_eigen((rho + dagger(rho)) / 2.0)
        min_eig = float(w[-1])
    else:
        min_eig = float("nan")
    ok = herm <= atol and tr_err <= atol and min_eig >= -atol
    return DensityCheck(bool(ok), float(herm), float(tr_err), min_eig)


def require_density(rho: np.ndarray, atol: float = ATOL_PHYSICS) -> None:
    """Raise ValidationError unless `rho` passes is_density_matrix."""
    check = is_density_matrix(rho, atol)
    if not check:
        raise ValidationError(f"not a density matrix: {check}")


def purity(rho: np.ndarray, atol: float = ATOL_PHYSICS) -> float:
    """Tr(rho^2) of a validated density matrix; 1/dim <= purity <= 1."""
    rho = np.asarray(rho, dtype=np.complex128)
    require_density(rho, atol)
    return purity_unchecked(rho)


def purity_unchecked(rho: np.ndarray) -> float:
    # Tr(rho^2) = ||rho||_F^2 for Hermitian rho; used on hot paths where
    # the input is a density matrix by construction.
    return float(np.vdot(rho, rho).real)
