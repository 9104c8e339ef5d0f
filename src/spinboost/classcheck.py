"""Executable checks that boosting preserves entanglement structure.

Three suites return (passed, report lines).  condition1_suite, LU
invariance: the three-tangle and every m-concurrence are unchanged when
each factor is rotated by an independent Haar unitary — and a boost of a
separable-momentum state acts exactly like such a rotation on the spins;
one batched call checks all states, each with its own seeded stream of
trials, and 2x2 Haar factors are closed-form (QR only for d >= 3).
condition2_suite, ensemble certificates: the reduced spin state a boost
produces is the mixture of its boosted spin terms U_k m_k, *local* U_k
(three 2x2 factors) applied to multiples m_k of the unboosted spin state,
so every term stays in its local-unitary class; verification checks
every factor's unitarity (a closed-form defect, no matmul) and every
row against the base state, the reconstructed density and the terms'
LU invariants, for a batch of certificates in one pass.
soundness_suite: the GHZ witness is nonpositive on random biseparable
mixtures.  All sampling is driven by numpy's seeded Generator, so every
check is reproducible from its seed."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boost import SpinEnsemble, _rotate_kets, boosted_amplitudes, boosted_spin_terms
from .constants import ATOL_ALGEBRA, ATOL_PHYSICS, SPIN_DIM, SPIN_DIMS
from .errors import InputError, ShapeError
from .kinematics import spin_rotations
from .linalg import _is_unit, apply_local, row_norms
from .measures import (
    _batch_of_states,
    _m_concurrences_unchecked,
    _qubit_gram,
    _three_tangle_unchecked,
    witness_from_amplitudes,
)
from .states import (
    CompositeState,
    PartitionSpec,
    _mixture,
    _momentum_spin_rows,
    _product_rows,
    bipartition,
    ghz_state,
    w_state,
)

SPIN_BIPARTITIONS = tuple(bipartition((i,), 3) for i in range(3))
# Samples soundness_suite draws and evaluates together: bounds its memory.
SOUNDNESS_CHUNK = 1000
# Trials check_condition1 rotates and evaluates together: bounds its memory.
CONDITION1_CHUNK = 128
# Boosts condition2_suite certifies together: bounds its memory.
CONDITION2_CHUNK = 64


def haar_state(dim: int, rng, batch: tuple[int, ...] = ()) -> np.ndarray:
    """Haar-random pure states, shape batch + (dim,): normalized Gaussians.
    A batched call draws all real parts, then all imaginary parts, so it is
    not the stack of single calls: the suites draw their rows themselves."""
    if dim < 1:
        raise InputError(f"state dimension must be >= 1, got {dim}")
    rng = np.random.default_rng(rng)
    shape = tuple(batch) + (dim,)
    return _unit_rows(rng.normal(size=shape), rng.normal(size=shape))


def _unit_rows(re: np.ndarray, im: np.ndarray) -> np.ndarray:  # (re + i im) / norm
    v = np.empty(np.shape(re), dtype=np.complex128)
    v.real, v.imag = re, im
    return np.divide(v, row_norms(v)[..., None], out=v)


def _haar_unitary(g: np.ndarray) -> np.ndarray:
    # Orthonormalize a stack of complex Gaussian matrices (..., d, d): the Q
    # of G = QR with R's diagonal made positive is exactly Haar on U(d)
    # (Mezzadri, Notices AMS 54, 592 (2007)).  For d = 2 that Q is closed-
    # form: column a/|a| for G's first column a, then (-conj a1, conj a0)/|a|
    # times det G/|det G|, the phase that makes R's second pivot positive.
    if g.shape[-1] != 2:
        q, r = np.linalg.qr(g)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        return q * (d / np.abs(d))[..., None, :]
    # 1-d entry arrays even for one matrix: numpy's complex scalar
    # arithmetic rounds differently from its array loops
    a0, b0, a1, b1 = g.reshape(-1, 4).T
    det = a0 * b1 - a1 * b0
    phase = det / np.abs(det)
    q = np.stack([a0, -a1.conj() * phase, a1, a0.conj() * phase], axis=-1)
    norm = np.sqrt(a0.real**2 + a0.imag**2 + a1.real**2 + a1.imag**2)
    return (q / norm[:, None]).reshape(g.shape)


def _haar_factors(dims: Sequence[int], rngs: Sequence, trials: int) -> list[np.ndarray]:
    # Haar-random factors: entry i has shape (len(rngs), trials, d_i, d_i).
    # Each generator draws one (2, sum d_i^2) row of normals per trial (real
    # then imaginary parts, factor by factor), so trial t is row t of its
    # stream however the trials are split into calls.  Each factor, over all
    # generators and trials, is orthonormalized in one call: closed-form for
    # d = 2, one stacked QR for d >= 3.
    dims = tuple(int(d) for d in dims)
    if any(d < 2 for d in dims):
        raise InputError(f"factor dimensions must be >= 2, got {dims}")
    gauss = np.empty((len(rngs), trials, 2, sum(d * d for d in dims)))
    for rng, rows in zip(rngs, gauss):
        rng.standard_normal(out=rows)
    z = np.empty(gauss[:, :, 0].shape, dtype=np.complex128)
    z.real, z.imag = gauss[:, :, 0], gauss[:, :, 1]
    blocks = np.split(z, np.cumsum([d * d for d in dims[:-1]]), axis=-1)
    return [_haar_unitary(b.reshape(z.shape[:2] + (d, d))) for b, d in zip(blocks, dims)]


# _CUT_INDEX[c, j]: position of natural spin index j = |s0 s1 s2> in x (x) y,
# where x is the qubit c and y the other two in increasing order.
_CUT_INDEX = np.array(
    [[0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 4, 5, 2, 3, 6, 7], [0, 4, 1, 5, 2, 6, 3, 7]]
)


def _biseparable_terms(cuts, weights, rng) -> np.ndarray:
    # Terms sqrt(w) x (x) y, shape (..., n, 8), for cuts and weights (..., n): a Haar
    # qubit x on spin `cut`, a Haar pair y on the others, cuts 1, 2 reordered in place.
    x = haar_state(2, rng, cuts.shape)
    x *= np.sqrt(weights)[..., None]
    y = haar_state(4, rng, cuts.shape)
    out = (x[..., :, None] * y[..., None, :]).reshape(cuts.shape + (SPIN_DIM,))
    for c in (1, 2):
        out[cuts == c] = out[cuts == c][:, _CUT_INDEX[c]]
    return out


def sample_biseparable(
    bipartition_spec: PartitionSpec | None,
    n_terms: int,
    seed,
) -> np.ndarray:
    """Random biseparable 8x8 spin density matrix.

    Mixes `n_terms` Haar-random product states across the given spin
    bipartition with Dirichlet(1, ..., 1) weights; with
    bipartition_spec=None each term draws its own bipartition, exercising
    mixtures across different splits.
    """
    if n_terms < 1:
        raise InputError("n_terms must be >= 1")
    spec = bipartition_spec
    if spec is not None and (spec.num_parts != 2 or spec.num_factors != 3):
        raise InputError("biseparable sampling needs a two-part partition of 3 spins")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_terms))
    cuts = (rng.integers(0, 3, size=n_terms) if spec is None
            else np.full(n_terms, min(spec.parts, key=len)[0]))
    return _mixture(_biseparable_terms(cuts, weights, rng))


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
    """Result of an LU-invariance sweep: worst deviations, failing trials."""

    max_tangle_deviation: float
    max_concurrence_deviation: float
    failing_trials: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return not self.failing_trials

    passed = property(__bool__)


def check_condition1(
    state,
    dims: Sequence[int],
    trials: int,
    seed,
    partitions: Sequence[PartitionSpec] | None = None,
    atol: float = ATOL_PHYSICS,
) -> InvarianceReport | list[InvarianceReport]:
    """Verify that tangle and m-concurrences are unchanged by random local
    unitaries.

    Applies `trials` independent per-factor Haar rotations to each state
    of amplitudes (..., N), or to a CompositeState, and compares every
    invariant against the unrotated state: the three-tangle (three-qubit
    states only) and the m-concurrence for every partition (default: all
    partitions of the factors).  `seed` is a nonnegative int or an int
    array of the batch shape.  Each state draws its trials as consecutive
    rows of its own default_rng(seed), so a trial index in `failing_trials`
    is the same trial for any larger `trials`.  Chunks of CONDITION1_CHUNK
    trials are rotated and evaluated for all states at once, so memory does
    not grow with `trials`.  Returns one report for a single state, a list
    in C order for a batch, each equal bit for bit to the state's single call
    whenever the states share their nonzero pattern (m_concurrences_pure).
    """
    seeds = np.asarray(seed, dtype=object)  # Python ints of any size
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool)
               for x in (trials, *seeds.flat)):
        raise InputError(f"trials and seed must be integers, got {trials!r}, {seed!r}")
    if trials < 1:  # no trial would pass vacuously
        raise InputError(f"trials must be at least 1, got {trials}")
    if any(s < 0 for s in seeds.flat):
        raise InputError(f"seed must be nonnegative, got {seed}")
    vec = np.asarray(state.vector if isinstance(state, CompositeState) else state,
                     dtype=np.complex128)
    dims = tuple(int(d) for d in dims)
    if vec.shape[-1:] != (math.prod(dims),):
        raise ShapeError(f"state shape {vec.shape} does not match dims {dims}")
    if seeds.ndim and seeds.shape != vec.shape[:-1]:
        raise ShapeError(f"seed shape {seeds.shape} does not match states {vec.shape}")
    specs = list(partitions) if partitions is not None else _all_partitions(len(dims))
    rows = vec.reshape(-1, vec.shape[-1])
    rngs = list(map(np.random.default_rng, np.broadcast_to(seeds, vec.shape[:-1]).flat))

    def invariants(states: np.ndarray) -> np.ndarray:  # (invariants, *batch)
        vec, _, norm4 = _batch_of_states(states, dims)  # validated once for all
        values = _m_concurrences_unchecked(vec, dims, norm4, specs)
        values += [_three_tangle_unchecked(vec) / norm4] if dims == (2, 2, 2) else []
        return np.reshape(values, (len(values),) + states.shape[:-1])

    base = invariants(rows)[..., None]
    worst = np.zeros(base.shape[:2])
    bad = np.empty((len(rows), trials), dtype=bool)
    for start in range(0, trials, CONDITION1_CHUNK):
        stop = min(start + CONDITION1_CHUNK, trials)
        rotated = apply_local(_haar_factors(dims, rngs, stop - start), rows[:, None], dims)
        dev = np.abs(invariants(rotated) - base)  # the factors are freed by now
        bad[:, start:stop] = ~np.all(dev <= atol, axis=0)  # NaN counts as a failure
        worst = np.maximum(worst, dev.max(axis=-1))
    conc = worst[: len(specs)].max(axis=0, initial=0.0)
    tangle = worst[-1] if dims == (2, 2, 2) else np.zeros_like(conc)
    reports = [InvarianceReport(t, c, tuple(np.flatnonzero(f).tolist()))
               for f, t, c in zip(bad, tangle.tolist(), conc.tolist())]
    return reports if vec.ndim > 1 else reports[0]


@dataclass(frozen=True)
class ClassCertificate:
    """A SpinEnsemble together with the unboosted spin state it came from;
    valid iff every nonzero row m_k is base_state up to phase and norm."""

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
    max_base_deviation: float
    failing_terms: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.passed


def single_qubit_spectra(psi) -> np.ndarray:
    """Spectra of the three single-qubit reductions of pure spin states.

    `psi` holds amplitudes of shape (..., 8); the result has shape
    (..., 3, 2), eigenvalues descending.  Each 2x2 reduction [[a, b],
    [conj b, d]] comes straight from the amplitudes by m_concurrences_pure's
    qubit-root kernel, and its eigenvalues are (a + d)/2 +- sqrt(((a - d)/2)^2
    + |b|^2): no density matrix, partial trace or eigensolver.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape[-1:] != (SPIN_DIM,):
        raise ShapeError(f"spin amplitudes need shape (..., 8), got {psi.shape}")
    # per cut c, C-ordered up/down rows (one psi-sized copy): unit-stride sums as for one state
    psi3 = psi.reshape(psi.shape[:-1] + (2, 2, 2))
    grams = [_qubit_gram(*np.ascontiguousarray(np.moveaxis(psi3, c - 3, 0))
                         .reshape((2,) + psi.shape[:-1] + (4,))) for c in range(3)]
    a, d, b = (np.stack(entry, axis=-1) for entry in zip(*grams))
    r = np.hypot((a - d) / 2.0, np.abs(b))
    mean = (a + d) / 2.0
    return np.stack([mean + r, mean - r], axis=-1)


def verify_certificate(
    cert: ClassCertificate,
    rho: np.ndarray,
    reconstruction_atol: float = 1e-10,
    invariant_atol: float = ATOL_PHYSICS,
) -> CertificateReport | list[CertificateReport]:
    """Check boost certificates against the reduced spin densities they
    claim to decompose.

    (a) the terms must reconstruct `rho` within `reconstruction_atol`
    (Frobenius); (b) every term chi_k = U_k m_k must be a local unitary
    applied to a multiple of the base state: each of its three 2x2
    factors f unitary (||f f^H - I||_F), and m_k / |m_k| equal to the ray
    base_state / |base_state| up to a global phase, all within
    ATOL_ALGEBRA; (c) every term's rotated pure state U_k m_k / |m_k| must
    share the base state's LU invariants: single-qubit reduction spectra
    and three-tangle within `invariant_atol`.  (b) is what proves LU
    equivalence; (c) follows from it and is checked and reported as well.

    Batches of base_state (..., 8), ensemble and rho (..., 8, 8) are
    checked in one pass and give a list of reports in C order, each equal
    bit for bit to its item's report alone; a single certificate is a
    batch of one; the batch axes of rows and rotations broadcast.  Zero
    padding rows are not checked.  The rows passed the unit rule when the
    ensemble was built, so only a base state can fail it here.
    """
    ens = cert.ensemble
    batch = np.broadcast_shapes(ens.rows.shape[:-2], ens.rotations.shape[:-4])
    base = np.asarray(cert.base_state, dtype=np.complex128)
    rho = np.asarray(rho, dtype=np.complex128)
    if base.shape != batch + (SPIN_DIM,) or rho.shape != batch + (SPIN_DIM,) * 2:
        raise ShapeError(f"base states {base.shape} and densities {rho.shape} "
                         f"do not match an ensemble of batch shape {batch}")
    w = np.einsum("...ki,...ki->...k", ens.rows.conj(), ens.rows).real
    base_vectors = ens.rows / np.sqrt(np.where(w > 0.0, w, 1.0))[..., None]
    # base deviations before psi exists, unitarity last: fewest term-sized arrays alive
    norm = row_norms(base)  # the unit rule accepted |base|: check against the ray
    base_ok = _is_unit(norm**2)
    # C order, so a Fortran-ordered batch reduces each item as the item alone
    base = np.ascontiguousarray(base / np.where(norm > 0.0, norm, 1.0)[..., None])
    # one dot product per term, so no term's value depends on the others
    overlap = (base_vectors[..., None, :] @ base.conj()[..., None, :, None])[..., 0, 0]
    phase = np.exp(1j * np.angle(overlap))
    base_dev = phase[..., None] * base[..., None, :]  # base_vectors - this, in its buffer
    base_dev = np.linalg.norm(np.subtract(base_vectors, base_dev, out=base_dev), axis=-1)

    psi = _rotate_kets(ens.rotations, base_vectors)
    # sum_k w_k |psi_k><psi_k| = ens.mix(), from the terms the invariants are checked on
    diff = _mixture(np.sqrt(w)[..., None] * psi) - rho
    rec_err = row_norms(diff.reshape(batch + (SPIN_DIM * SPIN_DIM,)))
    spec_dev = np.abs(single_qubit_spectra(psi)
                      - single_qubit_spectra(base)[..., None, :, :])
    spec_dev = spec_dev.max(axis=(-2, -1))
    tangle_dev = np.abs(_three_tangle_unchecked(psi)
                        - _three_tangle_unchecked(base)[..., None])

    # ||f f^H - I||_F of each factor [[a, b], [c, d]] from its entries
    a, b, c, d = (ens.rotations[..., i, j] for i in (0, 1) for j in (0, 1))
    e11 = np.abs(a)**2 + np.abs(b)**2 - 1.0
    e22 = np.abs(c)**2 + np.abs(d)**2 - 1.0
    e12 = a * c.conj() + b * d.conj()
    unitarity = np.sqrt(e11**2 + e22**2 + 2.0 * np.abs(e12)**2).max(axis=-1)
    live = w > 0.0
    good = (
        (spec_dev <= invariant_atol)
        & (tangle_dev <= invariant_atol)
        & (unitarity <= ATOL_ALGEBRA)
        & (base_dev <= ATOL_ALGEBRA)
        & base_ok[..., None]
    )  # NaN anywhere fails the term
    # per item, each check's worst live term (deviations are >= 0 or NaN)
    worst = [np.where(live, dev, 0.0).max(axis=-1).ravel().tolist()
             for dev in (spec_dev, tangle_dev, unitarity, base_dev)]
    reports = []
    for rec, bad, *maxima in zip(rec_err.ravel().tolist(),
                                 (live & ~good).reshape(-1, live.shape[-1]), *worst):
        failing = tuple(np.flatnonzero(bad).tolist())
        passed = rec <= reconstruction_atol and not failing
        reports.append(CertificateReport(passed, rec, *maxima, failing))
    return reports if batch else reports[0]


def condition1_suite(trials: int = 100, seed: int = 7) -> tuple[bool, list[str]]:
    """The LU-invariance suite: one check_condition1 call on GHZ, W and ten
    Haar spin states, state i with seed + 1000 i.  Returns (passed, lines)."""
    rng = np.random.default_rng(seed)
    names = ["ghz", "w"] + [f"haar{i}" for i in range(10)]
    g = rng.normal(size=(10, 2, 8))  # the draws of ten haar_state(8, rng) calls
    spins = np.concatenate([np.stack([ghz_state(), w_state()]), _unit_rows(g[:, 0], g[:, 1])])
    seeds = [seed + 1000 * i for i in range(len(names))]
    reports = check_condition1(spins, SPIN_DIMS, trials=trials, seed=seeds)
    lines = [f"FAIL {name} (seed {s}): trials {rep.failing_trials[:5]}"
             for name, s, rep in zip(names, seeds, reports) if not rep]
    worst = max(max(r.max_tangle_deviation, r.max_concurrence_deviation)
                for r in reports)
    lines.append(f"local-unitary invariance over {len(names)} states: "
                 f"max deviation {worst:.3e}")
    return all(reports), lines


def condition2_suite(trials: int = 50, seed: int = 7) -> tuple[bool, list[str]]:
    """The certificate suite: boosts of Haar momentum (x) Haar spin states
    at uniform angles in [0, pi/2], drawn trial by trial from one
    generator.  Each chunk of CONDITION2_CHUNK trials is normalized,
    boosted, reduced, certified and verified as one batch, so only the
    reports grow with `trials`.  Returns (passed, report lines)."""
    rng = np.random.default_rng(seed)
    reports = []
    for start in range(0, trials, CONDITION2_CHUNK):
        draws = [(rng.normal(size=70), rng.uniform(0.0, math.pi / 2.0))
                 for _ in range(min(CONDITION2_CHUNK, trials - start))]
        g, deltas = (np.array(column) for column in zip(*draws))
        # the Gaussians haar_state(27, rng) and then haar_state(8, rng) draw
        momenta, spins = _unit_rows(g[:, :27], g[:, 27:54]), _unit_rows(g[:, 54:62], g[:, 62:])
        vectors = _product_rows(momenta, spins)
        rotations = spin_rotations(deltas)
        rhos = _mixture(_momentum_spin_rows(boosted_amplitudes(vectors, rotations)))
        ensembles = boosted_spin_terms(vectors, rotations)
        reports += verify_certificate(ClassCertificate(spins, ensembles), rhos)
    lines = [f"FAIL scenario {i}: {rep}" for i, rep in enumerate(reports) if not rep]
    worst_rec = max(r.reconstruction_error for r in reports)
    worst_inv = max(max(r.max_spectrum_deviation, r.max_tangle_deviation)
                    for r in reports)
    lines.append(
        f"certificates over {trials} boosts: max reconstruction "
        f"{worst_rec:.3e}, max invariant deviation {worst_inv:.3e}"
    )
    return all(reports), lines


def soundness_suite(trials: int = 1000, seed: int = 7) -> tuple[bool, list[str]]:
    """The witness-soundness suite: sample i mixes 1-4 product terms across
    cut i % 3, or per-term random cuts when i % 4 is 0.  Samples are drawn
    in chunks of SOUNDNESS_CHUNK, chunk k from default_rng(seed) for k = 0
    and default_rng([seed, k]) after, so memory does not grow with
    `trials`; each chunk is one (n, 4, 8) batch of terms, padded with
    weight 0, and one witness call.  Returns (passed, report lines)."""
    lines, maxima = [], []
    for k, start in enumerate(range(0, trials, SOUNDNESS_CHUNK)):
        rng = np.random.default_rng(seed if k == 0 else [seed, k])
        index = np.arange(start, min(start + SOUNDNESS_CHUNK, trials))
        n = index.size
        n_terms = rng.integers(1, 5, size=n)
        weights = rng.exponential(size=(n, 4)) * (np.arange(4) < n_terms[:, None])
        weights /= weights.sum(axis=1, keepdims=True)  # Dirichlet(1, ..., 1)
        cuts = rng.integers(0, 3, size=(n, 4))  # per-term cuts when i % 4 == 0
        fixed = index % 4 != 0
        cuts[fixed] = (index % 3)[fixed, None]
        values = witness_from_amplitudes(_biseparable_terms(cuts, weights, rng))
        bad = np.flatnonzero(~(values <= ATOL_PHYSICS))  # NaN fails too
        lines += [f"FAIL sample {start + j}: witness value {values[j]}" for j in bad]
        maxima.append(np.max(values))
    passed = not lines
    lines.append(f"witness over {trials} biseparable samples: "
                 f"max value {np.max(maxima):.3e}")
    return passed, lines
