"""Independent plain-numpy reference values for the benchmark's checks.

Nothing here imports spinboost.  The Wigner rotations, the 216-dimensional
boost, the momentum trace, the GHZ witness and the m-concurrence are
written out again from their definitions, so a defect in the program
cannot hide in its own reference.  Two choices keep the reference better
conditioned than the program:

* populations and coherences come from boosted amplitudes
  (rho_jj = sum_m |psi_mj|^2 is nonnegative by construction), so a
  population that is exactly zero stays at ~1e-34 instead of ~1e-17;
* each 1 - Tr(rho_g^2) is 2 sum_{i<j} l_i l_j over the Schmidt weights,
  a sum of nonnegative terms with no cancellation.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

# The six label assignments, in the program's documented order
# (ABC, ACB, BCA, BAC, CAB, CBA) with alternating parity.
PERMUTATIONS = ((0, 1, 2), (0, 2, 1), (1, 2, 0), (1, 0, 2), (2, 0, 1), (2, 1, 0))
PERMUTATION_SIGNS = (1, -1, 1, -1, 1, -1)
# Population pairs of the symmetric witness; as_printed pairs 4 with 4.
POP_PAIRS = ((1, 6), (2, 5), (4, 3))

# The fig3 partition catalogue over the factors (m1, s1, m2, s2, m3, s3).
FIG3_PARTITIONS = (
    ("spins_vs_momenta", ((1, 3, 5), (0, 2, 4))),
    ("particles", ((0, 1), (2, 3), (4, 5))),
    ("singletons", tuple((i,) for i in range(6))),
    ("spin1_vs_rest", ((1,), (0, 2, 3, 4, 5))),
    ("spin2_vs_rest", ((3,), (0, 1, 2, 4, 5))),
    ("spin3_vs_rest", ((5,), (0, 1, 2, 3, 4))),
)


def rotation_axes() -> np.ndarray:
    """Wigner axes z x d for momenta at azimuths 0, 120, 240 degrees: (3, 3)."""
    az = np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
    return np.stack([-np.sin(az), np.cos(az), np.zeros(3)], axis=1)


def spin_rotations(deltas) -> np.ndarray:
    """exp(-i delta/2 n.sigma) for every delta and label: (G, 3, 2, 2)."""
    d = np.asarray(deltas, dtype=float).reshape(-1, 1)
    c, s = np.cos(d / 2.0), np.sin(d / 2.0)
    nx, ny, nz = rotation_axes().T
    u = np.empty((d.shape[0], 3, 2, 2), dtype=np.complex128)
    u[..., 0, 0] = c - 1j * s * nz
    u[..., 0, 1] = -1j * s * (nx - 1j * ny)
    u[..., 1, 0] = -1j * s * (nx + 1j * ny)
    u[..., 1, 1] = c + 1j * s * nz
    return u


def ghz_alpha(alpha: float) -> np.ndarray:
    v = np.zeros(8, dtype=np.complex128)
    v[0], v[7] = math.sin(alpha), math.cos(alpha)
    return v


def w_state() -> np.ndarray:
    v = np.zeros(8, dtype=np.complex128)
    v[[3, 5, 6]] = 1.0 / math.sqrt(3.0)
    return v


def momentum_coeffs(kind: str) -> np.ndarray:
    if kind == "antisymmetric":
        return np.array(PERMUTATION_SIGNS, dtype=np.complex128) / math.sqrt(6.0)
    if kind == "product":
        return np.eye(6, dtype=np.complex128)[0]
    raise ValueError(f"unknown momentum kind {kind!r}")


def permutation_momentum(coeffs) -> np.ndarray:
    m = np.zeros((3, 3, 3), dtype=np.complex128)
    for c, (a, b, d) in zip(coeffs, PERMUTATIONS):
        m[a, b, d] += c
    return m.reshape(27)


def compose(momentum, spin) -> np.ndarray:
    """Interleave a 27-dim momentum and an 8-dim spin vector: (216,)."""
    m = np.asarray(momentum).reshape(3, 3, 3)
    s = np.asarray(spin).reshape(2, 2, 2)
    return np.einsum("abc,ijk->aibjck", m, s).reshape(216)


def boost(vectors, deltas) -> np.ndarray:
    """Apply the momentum-controlled rotations to (G, 216) states."""
    u = spin_rotations(deltas)
    t = np.asarray(vectors, dtype=np.complex128).reshape(-1, 3, 2, 3, 2, 3, 2)
    t = np.einsum("gaxi,gaibjck->gaxbjck", u, t)
    t = np.einsum("gbyj,gaibjck->gaibyck", u, t)
    t = np.einsum("gczk,gaibjck->gaibjcz", u, t)
    return t.reshape(-1, 216)


def spin_density(vectors) -> np.ndarray:
    """Trace out the momenta of (G, 216) states: (G, 8, 8)."""
    m = np.asarray(vectors).reshape(-1, 3, 2, 3, 2, 3, 2)
    m = m.transpose(0, 1, 3, 5, 2, 4, 6).reshape(-1, 27, 8)
    return np.einsum("gmx,gmy->gxy", m, m.conj())


def witness(rho, variant: str = "symmetric") -> np.ndarray:
    """2|rho07| - 2 sum sqrt(rho_ii rho_jj) for (G, 8, 8) densities."""
    rho = np.asarray(rho).reshape(-1, 8, 8)
    pops = rho.diagonal(axis1=1, axis2=2).real.clip(min=0.0)
    pairs = POP_PAIRS if variant == "symmetric" else POP_PAIRS[:2] + ((4, 4),)
    terms = sum(np.sqrt(pops[:, i] * pops[:, j]) for i, j in pairs)
    return 2.0 * np.abs(rho[:, 0, 7]) - 2.0 * terms


def fig2_surface(momentum: str, grid: int):
    """(alpha, delta, witness, gme_bound) arrays in the CLI's row order."""
    alphas = np.linspace(0.0, math.pi, grid)
    deltas = np.linspace(0.0, math.pi / 2.0, grid)
    coeffs = momentum_coeffs(momentum)
    mom = permutation_momentum(coeffs)
    values = []
    for alpha in alphas:  # one alpha row at a time keeps memory small
        state = np.broadcast_to(compose(mom, ghz_alpha(alpha)), (grid, 216))
        values.append(witness(spin_density(boost(state, deltas))))
    a, d = np.meshgrid(alphas, deltas, indexing="ij")
    w = np.concatenate(values)
    return a.ravel(), d.ravel(), w, np.maximum(w, 0.0)


def _mixedness(tensor: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    # 1 - Tr rho_keep^2 = 2 sum_{i<j} l_i l_j over the Schmidt weights of
    # the (keep, rest) split, for a batch of pure-state tensors.
    n = tensor.ndim - 1
    rest = tuple(i for i in range(n) if i not in keep)
    axes = (0,) + tuple(1 + i for i in keep) + tuple(1 + i for i in rest)
    t = tensor.transpose(axes)
    dk = int(np.prod([tensor.shape[1 + i] for i in keep]))
    mat = t.reshape(tensor.shape[0], dk, -1)
    lam = np.linalg.svd(mat, compute_uv=False) ** 2  # descending
    tail = np.cumsum(lam[:, ::-1], axis=1)[:, ::-1]  # tail[i] = sum_{j>=i} l_j
    return 2.0 * np.sum(lam[:, :-1] * tail[:, 1:], axis=1)


def m_concurrence(vectors, parts, dims=(3, 2, 3, 2, 3, 2)) -> np.ndarray:
    """Generalized m-concurrence of (G, dim) pure states."""
    tensor = np.asarray(vectors).reshape((-1,) + tuple(dims))
    m = len(parts)
    radicand = np.zeros(tensor.shape[0])
    for r in range(1, m):
        for chosen in combinations(range(m), r):
            keep = tuple(sorted(i for c in chosen for i in parts[c]))
            radicand += _mixedness(tensor, keep)
    return 2.0 ** (1.0 - m / 2.0) * np.sqrt(radicand)


def fig3_sweep(spin: str, grid: int):
    """(deltas, values) with values[g, k] for FIG3_PARTITIONS[k]."""
    deltas = np.linspace(0.0, math.pi / 2.0, grid)
    phi = ghz_alpha(math.pi / 4.0) if spin == "ghz" else w_state()
    state = compose(permutation_momentum(momentum_coeffs("antisymmetric")), phi)
    boosted = boost(np.broadcast_to(state, (grid, 216)), deltas)
    values = np.stack(
        [m_concurrence(boosted, parts) for _, parts in FIG3_PARTITIONS], axis=1
    )
    return deltas, values


def boosted_spin_density(weights, vectors, delta: float) -> np.ndarray:
    """Reduced spin state of a boosted mixture of (K, 216) pure states."""
    rhos = spin_density(boost(vectors, np.full(len(weights), delta)))
    return np.einsum("k,kxy->xy", np.asarray(weights, dtype=float), rhos)
