"""Applying momentum-controlled Wigner rotations to three-particle states.

The boost acts on each particle as sum_p |p><p| (x) U(p, delta): the
momentum label is kept (the observer relabels all momenta coherently,
so amplitudes ride along with their labels) while the spin is rotated
about that label's axis.  Three equivalent routes are provided:

* boosted_amplitudes / boost_pure — the per-particle rotations applied
  to the 216-amplitude tensor, batched over boost angles;
  build_boost_unitary assembles the full 216x216 unitary as the
  brute-force reference it is tested against;
* permutation_spin_amplitudes / permutation_spin_ensemble — the
  six-term mixture the reduced spin state collapses to when the momentum
  part lives on the six label-assignment kets and the spin factorizes,
  batched over any number of boost angles;
* composite_spin_ensemble / boost_mixed — the general route, expanding
  any state over the 27 momentum basis kets.

Every route also yields a SpinEnsemble: the explicit list of
(weight, local rotation, base vector) terms whose mixture is the
reduced spin state.  Because each term applies a *local* unitary to a
pure spin state, the ensemble certifies that boosting cannot move a
state between local-unitary entanglement classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import (
    ATOL_PHYSICS,
    COMPOSITE_DIM,
    MOMENTUM_DIM,
    PERMUTATIONS,
    SPIN_DIM,
)
from .errors import ShapeError, ValidationError
from .kinematics import BoostScenario, local_unitaries
from .linalg import kron
from .states import CompositeState, MixedState, _as_state_vector

_NEGLIGIBLE_WEIGHT = 1e-30
_PERMUTATIONS = np.array(PERMUTATIONS)
# Label assignment (m1, m2, m3) of momentum basis ket k = 9 m1 + 3 m2 + m3.
_MOMENTUM_BASIS_LABELS = np.indices((3, 3, 3)).reshape(3, MOMENTUM_DIM).T


@dataclass(frozen=True)
class BoostUnitary:
    """The full boost operator on the 216-dim composite space."""

    matrix: np.ndarray
    scenario: BoostScenario

    def __call__(self, state: CompositeState) -> CompositeState:
        return CompositeState(self.matrix @ state.vector)


@dataclass(frozen=True)
class SpinEnsemble:
    """Mixture certificate for a reduced spin state.

    Term k contributes weights[k] * |psi_k><psi_k| with psi_k = U_k phi_k,
    where U_k = unitaries[k] is a product of three single-qubit rotations
    and phi_k = base_vectors[k].
    """

    weights: np.ndarray
    unitaries: np.ndarray
    base_vectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        u = np.asarray(self.unitaries, dtype=np.complex128)
        vecs = np.asarray(self.base_vectors, dtype=np.complex128)
        k = w.size
        if u.shape != (k, SPIN_DIM, SPIN_DIM):
            raise ShapeError("ensemble arrays have inconsistent shapes")
        if vecs.shape != (k, SPIN_DIM):
            raise ShapeError("base_vectors shape inconsistent with weights")
        if k == 0:
            raise ShapeError("empty ensemble")
        if np.any(w <= 0.0):
            raise ValidationError("ensemble weights must be positive")
        if abs(w.sum() - 1.0) > ATOL_PHYSICS:
            raise ValidationError(f"ensemble weights sum to {w.sum()}, not 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "unitaries", u)
        object.__setattr__(self, "base_vectors", vecs)

    def __len__(self) -> int:
        return int(self.weights.size)

    def amplitudes(self) -> np.ndarray:
        """The rotated term states psi_k = U_k phi_k, shape (K, 8)."""
        return np.einsum("kij,kj->ki", self.unitaries, self.base_vectors)

    def mix(self) -> np.ndarray:
        """The 8x8 density matrix sum_k w_k U_k |phi_k><phi_k| U_k^H."""
        return _mixture(self.weights, self.amplitudes())


def _mixture(weights: np.ndarray, psi: np.ndarray) -> np.ndarray:
    # sum_k w_k |psi_k><psi_k| for amplitudes psi of shape (K, 8)
    return np.einsum("k,ki,kj->ij", weights, psi, psi.conj())


def build_boost_unitary(scenario: BoostScenario) -> BoostUnitary:
    """Assemble the 216x216 boost: per particle, a block-diagonal 6x6
    momentum-controlled spin rotation, tensored over the three particles.
    The reference boost_pure is checked against."""
    block = np.zeros((6, 6), dtype=np.complex128)
    for p in range(3):
        block[2 * p : 2 * p + 2, 2 * p : 2 * p + 2] = scenario.rotation(p)
    return BoostUnitary(matrix=kron([block, block, block]), scenario=scenario)


def boosted_amplitudes(state: CompositeState, rotations: np.ndarray) -> np.ndarray:
    """Boosted amplitudes of a pure state for a batch of boosts.

    Every particle's spin is rotated by the rotation of the momentum label
    it carries: one einsum over the (3, 2, 3, 2, 3, 2) amplitude tensor,
    no 216x216 matrix.  `rotations` holds per-label rotations of shape
    (..., 3, 2, 2), e.g. spin_rotations(axes, deltas) for a sweep; the
    result has shape (..., 216).
    """
    if not isinstance(state, CompositeState):
        state = CompositeState(np.asarray(state))
    r = np.asarray(rotations, dtype=np.complex128)
    out = np.einsum("...axi,...byj,...czk,aibjck->...axbycz", r, r, r, state.tensor())
    return out.reshape(out.shape[:-6] + (COMPOSITE_DIM,))


def boost_pure(state: CompositeState, scenario: BoostScenario) -> CompositeState:
    """Apply the boost to a pure state (a batch of one boosted_amplitudes)."""
    return CompositeState(boosted_amplitudes(state, scenario.rotations()))


def _permutation_terms(coeffs) -> tuple[np.ndarray, np.ndarray]:
    # Weights |c_i|^2 and label assignments (K, 3) of the nonnegligible
    # permutation coefficients.
    c = np.asarray(coeffs, dtype=np.complex128).ravel()
    if c.size != 6:
        raise ShapeError(f"expected 6 permutation coefficients, got {c.size}")
    if abs(np.linalg.norm(c) - 1.0) > ATOL_PHYSICS:
        raise ValidationError("permutation coefficients are not normalized")
    w = np.abs(c) ** 2
    keep = w > _NEGLIGIBLE_WEIGHT
    return w[keep], _PERMUTATIONS[keep]


def permutation_spin_amplitudes(
    coeffs, spin, rotations: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weights and boosted spin amplitudes of the permutation ensemble.

    For sum_i c_i |Pi_i(A,B,C)> (x) |phi>, the boosted reduced spin state
    is sum_k w_k |psi_k><psi_k| with w_k = |c_k|^2 and psi_k = (u_a (x)
    u_b (x) u_c) phi, (a, b, c) the k-th label assignment.  `rotations`
    holds per-label 2x2 rotations with any leading batch shape, (..., 3,
    2, 2), e.g. spin_rotations(axes, deltas) for a sweep.  Returns
    weights (K,) and amplitudes (..., K, 8); zero weights are dropped.
    """
    w, perms = _permutation_terms(coeffs)
    phi = _as_state_vector(spin, SPIN_DIM, "spin state").reshape(2, 2, 2)
    r = np.asarray(rotations, dtype=np.complex128)[..., perms, :, :]
    psi = np.einsum(
        "...ai,...bj,...ck,ijk->...abc", r[..., 0, :, :], r[..., 1, :, :],
        r[..., 2, :, :], phi,
    )
    return w, psi.reshape(psi.shape[:-3] + (SPIN_DIM,))


def permutation_spin_ensemble(
    coeffs, spin, scenario: BoostScenario
) -> SpinEnsemble:
    """The permutation ensemble as a certificate: term k applies the local
    unitary of the k-th label assignment to the unboosted spin state."""
    w, perms = _permutation_terms(coeffs)
    phi = _as_state_vector(spin, SPIN_DIM, "spin state")
    return SpinEnsemble(
        weights=w,
        unitaries=local_unitaries(perms, scenario),
        base_vectors=np.broadcast_to(phi, (w.size, SPIN_DIM)).copy(),
    )


def boosted_spin_density_fast(coeffs, spin, scenario: BoostScenario) -> np.ndarray:
    """Reduced 8x8 spin density after the boost, from the permutation
    ensemble's amplitudes (a sweep of one boost angle)."""
    w, psi = permutation_spin_amplitudes(coeffs, spin, scenario.rotations())
    return _mixture(w, psi)


def composite_spin_ensemble(
    state: CompositeState, scenario: BoostScenario
) -> SpinEnsemble:
    """General route: expand a pure composite state over the 27 momentum
    basis kets.  Each ket |m1 m2 m3> with amplitude weight a_k^2 carries
    its own spin component phi_k and local rotation U(m1) (x) U(m2) (x)
    U(m3); the reduced boosted spin state is the resulting mixture."""
    if not isinstance(state, CompositeState):
        state = CompositeState(np.asarray(state))
    m = state.momentum_spin_matrix()  # (27, 8), rows are momentum kets
    w = np.einsum("ki,ki->k", m.conj(), m).real
    keep = w > _NEGLIGIBLE_WEIGHT
    return SpinEnsemble(
        weights=w[keep],
        unitaries=local_unitaries(_MOMENTUM_BASIS_LABELS[keep], scenario),
        base_vectors=m[keep] / np.sqrt(w[keep])[:, None],
    )


def boost_mixed(
    mixed: MixedState, scenario: BoostScenario
) -> tuple[MixedState, np.ndarray, SpinEnsemble]:
    """Boost a mixture member by member.

    Returns the boosted mixture, its reduced 8x8 spin density, and the
    combined SpinEnsemble certificate whose terms carry weights
    q_i * |a_k^i|^2 over members i and momentum kets k.
    """
    if isinstance(mixed, CompositeState):
        mixed = MixedState(np.array([1.0]), (mixed,))
    boosted_states = tuple(boost_pure(st, scenario) for st in mixed.states)
    weights, unitaries, vecs = [], [], []
    for q, st in zip(mixed.weights, mixed.states):
        member = composite_spin_ensemble(st, scenario)
        weights.extend(q * member.weights)
        unitaries.extend(member.unitaries)
        vecs.extend(member.base_vectors)
    cert = SpinEnsemble(
        weights=np.array(weights),
        unitaries=np.array(unitaries),
        base_vectors=np.array(vecs),
    )
    boosted = MixedState(mixed.weights, boosted_states)
    return boosted, cert.mix(), cert
