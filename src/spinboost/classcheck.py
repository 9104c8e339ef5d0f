"""Executable checks that boosting preserves entanglement structure.

Two properties are checked.  First, LU invariance: the three-tangle and
every m-concurrence are unchanged when each factor is rotated by an
independent random unitary — and a boost of a separable-momentum state
acts exactly like such a rotation on the spins.  Second, ensemble
certificates: the reduced spin state a boost produces decomposes into
weighted terms U_k |phi><phi| U_k^H with *local* U_k, so every term
stays in the local-unitary class of the unboosted spin state; the
certificate is verified by reconstructing the density matrix and
comparing LU invariants term against base, after checking that every
term really is a local unitary applied to the base state.

All sampling is driven by numpy's seeded Generator, so every check is
reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boost import SpinEnsemble
from .constants import ATOL_ALGEBRA, ATOL_PHYSICS, SPIN_DIM
from .errors import InputError, ShapeError
from .linalg import kron, kron_batched, projector
from .measures import m_concurrence_pure, three_tangle
from .states import PartitionSpec, _as_state_vector, bipartition

SPIN_BIPARTITIONS = (
    bipartition((0,), 3),
    bipartition((1,), 3),
    bipartition((2,), 3),
)


def haar_state(dim: int, rng) -> np.ndarray:
    """Haar-random pure state: normalized complex Gaussian vector."""
    rng = np.random.default_rng(rng)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _haar_unitary_qr(g: np.ndarray) -> np.ndarray:
    # Orthonormalize a stack of complex Gaussian matrices (..., d, d);
    # fixing the phases of R's diagonal makes each Q exactly Haar on U(d)
    # (Mezzadri, Notices AMS 54, 592 (2007)).
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


@dataclass(frozen=True)
class LocalUnitarySample:
    """One independently Haar-drawn unitary per tensor factor."""

    factors: tuple[np.ndarray, ...]

    def matrix(self) -> np.ndarray:
        return kron(list(self.factors))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix() @ np.asarray(vec, dtype=np.complex128).ravel()


def random_local_unitary(dims: Sequence[int], seed) -> LocalUnitarySample:
    """Draw a Haar-random unitary for each factor dimension in `dims`.

    All factors of one dimension are drawn as one complex Gaussian stack
    and orthonormalized by one stacked QR; deterministic given seed.
    """
    dims = tuple(int(d) for d in dims)
    if any(d < 2 for d in dims):
        raise InputError(f"factor dimensions must be >= 2, got {dims}")
    rng = np.random.default_rng(seed)
    stacks = {}
    for d in dict.fromkeys(dims):  # distinct dimensions, first-seen order
        shape = (dims.count(d), d, d)
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        stacks[d] = iter(_haar_unitary_qr(g))
    return LocalUnitarySample(factors=tuple(next(stacks[d]) for d in dims))


def _embed_product(x: np.ndarray, y: np.ndarray, part: tuple[int, ...]) -> np.ndarray:
    # Place x on the spin factors listed in `part` and y on the rest,
    # then flatten in natural factor order.
    rest = tuple(i for i in range(3) if i not in part)
    t = np.multiply.outer(
        x.reshape((2,) * len(part)), y.reshape((2,) * len(rest))
    )
    order = list(part) + list(rest)
    inverse = [order.index(i) for i in range(3)]
    return t.transpose(inverse).reshape(SPIN_DIM)


def sample_biseparable(
    bipartition_spec: PartitionSpec | None,
    n_terms: int,
    seed,
) -> np.ndarray:
    """Random biseparable 8x8 spin density matrix.

    Mixes `n_terms` Haar-random product states across the given spin
    bipartition; with bipartition_spec=None each term draws its own
    bipartition, exercising mixtures across different splits.
    """
    if n_terms < 1:
        raise InputError("n_terms must be >= 1")
    rng = np.random.default_rng(seed)
    if bipartition_spec is not None and bipartition_spec.num_parts != 2:
        raise InputError("biseparable sampling needs a two-part partition")
    weights = rng.dirichlet(np.ones(n_terms))
    rho = np.zeros((SPIN_DIM, SPIN_DIM), dtype=np.complex128)
    for w in weights:
        spec = (
            bipartition_spec
            if bipartition_spec is not None
            else SPIN_BIPARTITIONS[rng.integers(0, 3)]
        )
        part = spec.parts[0]
        x = haar_state(2 ** len(part), rng)
        y = haar_state(2 ** (3 - len(part)), rng)
        rho += w * projector(_embed_product(x, y, part))
    return rho


def _all_partitions(n: int) -> list[PartitionSpec]:
    # Every way of grouping n factors into >= 2 blocks.
    def rec(items):
        if not items:
            yield []
            return
        head, *tail = items
        for rest in rec(tail):
            for i in range(len(rest)):
                yield rest[:i] + [[head] + rest[i]] + rest[i + 1 :]
            yield [[head]] + rest

    return [
        PartitionSpec(tuple(tuple(b) for b in blocks))
        for blocks in rec(list(range(n)))
        if len(blocks) >= 2
    ]


@dataclass(frozen=True)
class InvarianceReport:
    """Result of an LU-invariance sweep."""

    passed: bool
    trials: int
    max_tangle_deviation: float
    max_concurrence_deviation: float
    failing_seeds: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.passed


def check_condition1(
    state,
    dims: Sequence[int],
    trials: int,
    seed: int,
    partitions: Sequence[PartitionSpec] | None = None,
    atol: float = ATOL_PHYSICS,
) -> InvarianceReport:
    """Verify that tangle and m-concurrences are unchanged by random local
    unitaries.

    Applies `trials` independent per-factor Haar rotations (trial t uses
    seed `seed + t`, reported on failure) and compares every invariant
    against the unrotated state: the three-tangle (three-qubit states
    only) and the m-concurrence for every partition (default: all
    partitions of the factors).  All trials' product unitaries are
    formed as one (trials, N, N) stack, and the state and its rotated
    copies are evaluated as one batch per invariant.
    """
    vec = np.asarray(state, dtype=np.complex128).ravel()
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != vec.size:
        raise ShapeError(f"state size {vec.size} does not match dims {dims}")
    specs = list(partitions) if partitions is not None else _all_partitions(len(dims))
    samples = [random_local_unitary(dims, seed + t) for t in range(trials)]
    states = vec[None]
    if samples:
        factors = [np.stack(fs) for fs in zip(*(s.factors for s in samples))]
        # contiguous, so each product runs the same BLAS matvec as
        # kron(factors) @ vec would
        stack = np.ascontiguousarray(kron_batched(factors))
        states = np.concatenate([states, stack @ vec])

    def deviations(values: np.ndarray) -> np.ndarray:
        return np.abs(values[1:] - values[0])

    conc = np.array(
        [deviations(m_concurrence_pure(states, spec, dims)) for spec in specs]
    ).reshape(len(specs), trials)
    bad = ~np.all(conc <= atol, axis=0)  # NaN counts as a failure
    max_tangle = 0.0
    if dims == (2, 2, 2):
        tangle = deviations(three_tangle(states))
        bad |= ~(tangle <= atol)
        max_tangle = float(np.max(tangle, initial=0.0))
    failing = tuple(seed + int(t) for t in np.flatnonzero(bad))
    return InvarianceReport(
        passed=not failing,
        trials=trials,
        max_tangle_deviation=max_tangle,
        max_concurrence_deviation=float(np.max(conc, initial=0.0)),
        failing_seeds=failing,
    )


@dataclass(frozen=True)
class ClassCertificate:
    """A SpinEnsemble together with the unboosted spin state it came from;
    valid iff every ensemble base vector equals base_state."""

    base_state: np.ndarray
    ensemble: SpinEnsemble


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of verify_certificate."""

    passed: bool
    reconstruction_error: float
    max_spectrum_deviation: float
    max_tangle_deviation: float
    max_unitarity_error: float
    max_locality_defect: float
    max_base_deviation: float
    failing_terms: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.passed


def single_qubit_spectra(psi) -> np.ndarray:
    """Spectra of the three single-qubit reductions of pure spin states.

    `psi` holds amplitudes of shape (..., 8); the result has shape
    (..., 3, 2), eigenvalues descending.  Each 2x2 reduction [[a, b],
    [conj b, d]] comes straight from the amplitudes, and its eigenvalues
    are (a + d)/2 +- sqrt(((a - d)/2)^2 + |b|^2): no density matrix,
    partial trace or eigensolver.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    batch = psi.shape[:-1]
    t = psi.reshape(batch + (2, 2, 2))
    # rows (qubit q up, qubit q down) against the other two qubits
    rows = np.stack(
        [
            np.moveaxis(t, len(batch) + q, -3).reshape(batch + (2, 4))
            for q in range(3)
        ],
        axis=-3,
    )
    up, down = rows[..., 0, :], rows[..., 1, :]
    a = np.sum(up.real**2 + up.imag**2, axis=-1)
    d = np.sum(down.real**2 + down.imag**2, axis=-1)
    b = np.abs(np.sum(up * down.conj(), axis=-1))
    r = np.hypot((a - d) / 2.0, b)
    mean = (a + d) / 2.0
    return np.stack([mean + r, mean - r], axis=-1)


def _locality_defects(unitaries: np.ndarray) -> np.ndarray:
    # Operator-Schmidt test of 8x8 matrices across each qubit cut: realign
    # U into R (4, 16), rows the cut qubit's (out, in) pair, columns the
    # other two qubits'.  U is a product across the cut iff R has rank 1,
    # iff ||R R^H||_F^2 = (Tr R R^H)^2.  Returns the worst cut's
    # (Tr R R^H)^2 - ||R R^H||_F^2 per matrix, relative to the value 64
    # a unitary has; three product cuts make U a product of three 2x2s.
    t = unitaries.reshape(-1, 2, 2, 2, 2, 2, 2)  # (k, out0..2, in0..2)
    cuts = []
    for q in range(3):
        others = [i for i in range(3) if i != q]
        axes = [0, 1 + q, 4 + q] + [1 + i for i in others] + [4 + i for i in others]
        r = t.transpose(axes).reshape(-1, 4, 16)
        g = r @ r.conj().transpose(0, 2, 1)
        tr = np.trace(g, axis1=1, axis2=2).real
        cuts.append(tr**2 - np.sum(g.real**2 + g.imag**2, axis=(1, 2)))
    return np.max(cuts, axis=0) / SPIN_DIM**2


def verify_certificate(
    cert: ClassCertificate,
    rho: np.ndarray,
    reconstruction_atol: float = 1e-10,
    invariant_atol: float = ATOL_PHYSICS,
) -> CertificateReport:
    """Check a boost certificate against the reduced spin density it claims
    to decompose.

    (a) the weighted terms must reconstruct `rho` within
    `reconstruction_atol` (Frobenius); (b) every term must be a local
    unitary applied to the base state: U_k unitary and a product of three
    single-qubit factors, and base_vectors[k] equal to base_state up to a
    global phase, all within ATOL_ALGEBRA; (c) every term's rotated pure
    state must share the base state's LU invariants: single-qubit
    reduction spectra and three-tangle within `invariant_atol`.  (b) is
    what proves LU equivalence; (c) follows from it and is checked and
    reported as well.
    """
    ens = cert.ensemble
    base = _as_state_vector(cert.base_state, SPIN_DIM, "base state")
    recon = ens.mix()
    rec_err = float(np.linalg.norm(recon - np.asarray(rho, dtype=np.complex128)))

    u = ens.unitaries
    eye = np.eye(SPIN_DIM)
    unitarity = np.linalg.norm(u @ u.conj().transpose(0, 2, 1) - eye, axis=(1, 2))
    locality = _locality_defects(u)
    overlap = ens.base_vectors @ base.conj()
    phase = np.exp(1j * np.angle(overlap))
    base_dev = np.linalg.norm(ens.base_vectors - phase[:, None] * base, axis=1)

    psi = ens.amplitudes()
    spec_dev = np.abs(single_qubit_spectra(psi) - single_qubit_spectra(base))
    spec_dev = spec_dev.max(axis=(1, 2))
    tangle_dev = np.abs(three_tangle(psi) - three_tangle(base))
    good = (
        (spec_dev <= invariant_atol)
        & (tangle_dev <= invariant_atol)
        & (unitarity <= ATOL_ALGEBRA)
        & (locality <= ATOL_ALGEBRA)
        & (base_dev <= ATOL_ALGEBRA)
    )  # NaN anywhere fails the term
    failing = tuple(int(k) for k in np.flatnonzero(~good))
    return CertificateReport(
        passed=rec_err <= reconstruction_atol and not failing,
        reconstruction_error=rec_err,
        max_spectrum_deviation=float(spec_dev.max()),
        max_tangle_deviation=float(tangle_dev.max()),
        max_unitarity_error=float(unitarity.max()),
        max_locality_defect=float(locality.max()),
        max_base_deviation=float(base_dev.max()),
        failing_terms=failing,
    )
