"""Executable checks that boosting preserves entanglement structure.

Two properties are checked.  First, LU invariance: the three-tangle and
every m-concurrence are unchanged when each factor is rotated by an
independent random unitary — and a boost of a separable-momentum state
acts exactly like such a rotation on the spins.  Second, ensemble
certificates: the reduced spin state a boost produces decomposes into
weighted terms U_k |phi><phi| U_k^H with *local* U_k, so every term
stays in the local-unitary class of the unboosted spin state; the
certificate is verified by reconstructing the density matrix and
comparing LU invariants term against base.

All sampling is driven by numpy's seeded Generator, so every check is
reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boost import SpinEnsemble
from .constants import ATOL_PHYSICS, ID2, PAULI_X, PAULI_Y, PAULI_Z, SPIN_DIM
from .errors import InputError, ShapeError
from .linalg import hermitian_eigen, kron, partial_trace, projector
from .measures import m_concurrence_pure, three_tangle
from .states import PartitionSpec, bipartition

SPIN_BIPARTITIONS = (
    bipartition((0,), 3),
    bipartition((1,), 3),
    bipartition((2,), 3),
)


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def haar_state(dim: int, rng) -> np.ndarray:
    """Haar-random pure state: normalized complex Gaussian vector."""
    rng = _as_rng(rng)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _haar_su2_angle(rng: np.random.Generator) -> float:
    # Rotation angle density sin^2(theta/2)/pi on [0, 2pi): rejection
    # sample against the flat proposal (acceptance rate 1/2).
    while True:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        if rng.uniform() <= math.sin(theta / 2.0) ** 2:
            return theta


def _haar_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    # Uniform axis on the sphere, Haar-weighted angle, uniform global phase.
    z = rng.uniform(-1.0, 1.0)
    az = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(max(1.0 - z * z, 0.0))
    axis = np.array([r * math.cos(az), r * math.sin(az), z])
    theta = _haar_su2_angle(rng)
    ns = axis[0] * PAULI_X + axis[1] * PAULI_Y + axis[2] * PAULI_Z
    su2 = math.cos(theta / 2.0) * ID2 - 1j * math.sin(theta / 2.0) * ns
    return np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) * su2


def _haar_unitary_qr(dim: int, rng: np.random.Generator) -> np.ndarray:
    # Orthonormalize a complex Gaussian matrix; fixing the R-diagonal
    # phases makes the distribution exactly Haar.
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@dataclass(frozen=True)
class LocalUnitarySample:
    """One independently Haar-drawn unitary per tensor factor."""

    factors: tuple[np.ndarray, ...]
    seed: object = None

    def matrix(self) -> np.ndarray:
        return kron(list(self.factors))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix() @ np.asarray(vec, dtype=np.complex128).ravel()


def random_local_unitary(dims: Sequence[int], seed) -> LocalUnitarySample:
    """Draw a Haar-random unitary for each factor dimension in `dims`.

    2x2 factors are drawn via random axis/angle/phase, larger ones by
    orthonormalizing a random complex matrix; deterministic given seed.
    """
    rng = _as_rng(seed)
    factors = []
    for d in dims:
        d = int(d)
        if d < 2:
            raise InputError(f"factor dimension must be >= 2, got {d}")
        if d == 2:
            factors.append(_haar_unitary_2x2(rng))
        else:
            factors.append(_haar_unitary_qr(d, rng))
    return LocalUnitarySample(factors=tuple(factors), seed=seed)


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
    rng = _as_rng(seed)
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
    partitions of the factors).
    """
    vec = np.asarray(state, dtype=np.complex128).ravel()
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != vec.size:
        raise ShapeError(f"state size {vec.size} does not match dims {dims}")
    specs = list(partitions) if partitions is not None else _all_partitions(len(dims))
    with_tangle = dims == (2, 2, 2)
    base_tangle = three_tangle(vec) if with_tangle else None
    base_conc = [m_concurrence_pure(vec, spec, dims) for spec in specs]

    max_tangle = 0.0
    max_conc = 0.0
    failing = []
    for t in range(trials):
        sample = random_local_unitary(dims, seed + t)
        rotated = sample.apply(vec)
        bad = False
        if with_tangle:
            dev = abs(three_tangle(rotated) - base_tangle)
            max_tangle = max(max_tangle, dev)
            bad = bad or dev > atol
        for spec, ref in zip(specs, base_conc):
            dev = abs(m_concurrence_pure(rotated, spec, dims) - ref)
            max_conc = max(max_conc, dev)
            bad = bad or dev > atol
        if bad:
            failing.append(seed + t)
    return InvarianceReport(
        passed=not failing,
        trials=trials,
        max_tangle_deviation=max_tangle,
        max_concurrence_deviation=max_conc,
        failing_seeds=tuple(failing),
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
    failing_terms: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.passed


def _single_qubit_spectra(rho: np.ndarray) -> np.ndarray:
    spectra = []
    for qubit in range(3):
        red = partial_trace(rho, (2, 2, 2), (qubit,))
        w, _ = hermitian_eigen(red)
        spectra.append(w)
    return np.concatenate(spectra)


def verify_certificate(
    cert: ClassCertificate,
    rho: np.ndarray,
    reconstruction_atol: float = 1e-10,
    invariant_atol: float = ATOL_PHYSICS,
) -> CertificateReport:
    """Check a boost certificate against the reduced spin density it claims
    to decompose.

    (a) the weighted terms must reconstruct `rho` within
    `reconstruction_atol` (Frobenius); (b) every term's rotated pure
    state must be LU-equivalent to the base state: identical
    single-qubit reduction spectra and three-tangle within
    `invariant_atol`.
    """
    ens = cert.ensemble
    base = np.asarray(cert.base_state, dtype=np.complex128).ravel()
    recon = ens.mix()
    rec_err = float(np.linalg.norm(recon - np.asarray(rho, dtype=np.complex128)))

    base_spectra = _single_qubit_spectra(projector(base))
    base_tangle = three_tangle(base)
    max_spec = 0.0
    max_tangle = 0.0
    failing = []
    for k in range(len(ens)):
        term_vec = ens.unitaries[k] @ ens.base_vectors[k]
        term_rho = projector(term_vec)
        spec_dev = float(
            np.abs(_single_qubit_spectra(term_rho) - base_spectra).max()
        )
        tangle_dev = abs(three_tangle(term_vec) - base_tangle)
        max_spec = max(max_spec, spec_dev)
        max_tangle = max(max_tangle, tangle_dev)
        if spec_dev > invariant_atol or tangle_dev > invariant_atol:
            failing.append(k)
    passed = rec_err <= reconstruction_atol and not failing
    return CertificateReport(
        passed=passed,
        reconstruction_error=rec_err,
        max_spectrum_deviation=max_spec,
        max_tangle_deviation=max_tangle,
        failing_terms=tuple(failing),
    )
