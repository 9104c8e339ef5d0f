"""Applying momentum-controlled Wigner rotations to three-particle states.

The boost acts on each particle as sum_p |p><p| (x) U(p, delta): the
momentum label is kept (the observer relabels all momenta coherently,
so amplitudes ride along with their labels) while the spin is rotated
about that label's axis.  Two equivalent routes are provided:

* boosted_amplitudes / boost_pure / boost_mixed — the per-particle
  rotations applied to the 216-amplitude tensor, batched over boost
  angles and mixture members; build_boost_unitary assembles the full
  216x216 unitary as the brute-force reference it is tested against;
* boosted_spin_terms / composite_spin_ensemble — the mixture the reduced
  spin state collapses to: expand the state over the 27 momentum basis
  kets, each carrying its own spin row and the local rotation of its
  label assignment.  A permutation momentum state is the special case
  whose nonzero kets are the six label assignments; a MixedState
  contributes the kets of every member.

The mixture route also yields a SpinEnsemble: the explicit list of
(weight, local rotation, base vector) terms whose mixture is the
reduced spin state.  Because each term applies a *local* unitary to a
pure spin state, the ensemble certifies that boosting cannot move a
state between local-unitary entanglement classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import COMPOSITE_DIM, COMPOSITE_DIMS, MOMENTUM_DIM, SPIN_DIM
from .errors import ShapeError
from .kinematics import BoostScenario, local_unitaries
from .linalg import kron
from .states import (
    CompositeState,
    MixedState,
    _mixture_weights,
    _momentum_spin_rows,
    _state_rows,
    compose,
    permutation_momentum,
)

_NEGLIGIBLE_WEIGHT = 1e-30
# Label assignment (m1, m2, m3) of momentum basis ket k = 9 m1 + 3 m2 + m3.
_MOMENTUM_BASIS_LABELS = np.indices((3, 3, 3)).reshape(3, MOMENTUM_DIM).T


@dataclass(frozen=True)
class BoostUnitary:
    """The full boost operator on the 216-dim composite space."""

    matrix: np.ndarray

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
        w = _mixture_weights(self.weights, "ensemble")
        u = np.asarray(self.unitaries, dtype=np.complex128)
        vecs = np.asarray(self.base_vectors, dtype=np.complex128)
        k = w.size
        if u.shape != (k, SPIN_DIM, SPIN_DIM) or vecs.shape != (k, SPIN_DIM):
            raise ShapeError("ensemble arrays have inconsistent shapes")
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
        return _mixture(np.sqrt(self.weights)[:, None] * self.amplitudes())


def _mixture(chi: np.ndarray) -> np.ndarray:
    # sum_k |chi_k><chi_k| for unnormalized terms chi of shape (..., K, 8)
    return np.einsum("...ki,...kj->...ij", chi, chi.conj())


def build_boost_unitary(scenario: BoostScenario) -> BoostUnitary:
    """Assemble the 216x216 boost: per particle, a block-diagonal 6x6
    momentum-controlled spin rotation, tensored over the three particles.
    The reference boost_pure is checked against."""
    block = np.zeros((6, 6), dtype=np.complex128)
    for p in range(3):
        block[2 * p : 2 * p + 2, 2 * p : 2 * p + 2] = scenario.rotation(p)
    return BoostUnitary(matrix=kron([block, block, block]))


def boosted_amplitudes(state, rotations: np.ndarray) -> np.ndarray:
    """Boosted amplitudes of pure states for a batch of boosts.

    Every particle's spin is rotated by the rotation of the momentum label
    it carries: one einsum over the (..., 3, 2, 3, 2, 3, 2) amplitude
    tensor, no 216x216 matrix.  `state` is a CompositeState or amplitudes
    of shape (..., 216), e.g. the members of a MixedState; `rotations`
    holds per-label rotations of shape (..., 3, 2, 2), e.g.
    spin_rotations(axes, deltas) for a sweep.  The batch axes of both
    broadcast; the result has shape (..., 216).
    """
    if isinstance(state, CompositeState):
        vec = state.vector
    else:
        vec = _state_rows(state, COMPOSITE_DIM, "composite state")
    t = vec.reshape(vec.shape[:-1] + COMPOSITE_DIMS)
    r = np.asarray(rotations, dtype=np.complex128)
    out = np.einsum("...axi,...byj,...czk,...aibjck->...axbycz", r, r, r, t)
    return out.reshape(out.shape[:-6] + (COMPOSITE_DIM,))


def boost_pure(state: CompositeState, scenario: BoostScenario) -> CompositeState:
    """Apply the boost to a pure state (a batch of one boosted_amplitudes)."""
    return CompositeState(boosted_amplitudes(state, scenario.rotations()))


def boost_mixed(mixed: MixedState, scenario: BoostScenario) -> MixedState:
    """Apply the boost to every member of a mixture in one boosted_amplitudes
    call; the weights are unchanged."""
    return MixedState(
        mixed.weights, boosted_amplitudes(mixed.vectors, scenario.rotations())
    )


def _momentum_kets(state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Label assignments (K, 3), spin rows m_k (K, 8) and weights |m_k|^2
    # of the momentum basis kets that carry amplitude.  Member i of a
    # mixture contributes its 27 rows scaled by sqrt(q_i), so its terms
    # weigh q_i |m_k^i|^2; a pure state is a mixture of one.
    if not isinstance(state, MixedState):
        vec = state.vector if isinstance(state, CompositeState) else state
        state = MixedState(np.ones(1), np.reshape(vec, (1, -1)))
    m = np.sqrt(state.weights)[:, None, None] * _momentum_spin_rows(state.vectors)
    m = m.reshape(-1, SPIN_DIM)  # (M * 27, 8), rows are momentum kets
    w = np.einsum("ki,ki->k", m.conj(), m).real
    keep = w > _NEGLIGIBLE_WEIGHT
    labels = np.tile(_MOMENTUM_BASIS_LABELS, (len(state.weights), 1))
    return labels[keep], m[keep], w[keep]


def boosted_spin_terms(state, rotations: np.ndarray) -> np.ndarray:
    """Unnormalized boosted spin terms chi_k = U(L_k) m_k, shape (..., K, 8).

    m_k is the spin row of the k-th momentum ket carrying amplitude (of
    a CompositeState, or of every member of a MixedState) and U(L_k) the
    product of the Wigner rotations of its label assignment
    L_k.  `rotations` holds per-label rotations of shape (..., 3, 2, 2),
    e.g. spin_rotations(axes, deltas) for a sweep.  The reduced boosted
    spin density is sum_k |chi_k><chi_k|; its populations are
    sum_k |chi_kj|^2, nonnegative by construction.
    """
    labels, rows, _ = _momentum_kets(state)
    return (local_unitaries(labels, rotations) @ rows[..., None])[..., 0]


def boosted_spin_density_fast(coeffs, spin, scenario: BoostScenario) -> np.ndarray:
    """Reduced 8x8 spin density after the boost of the permutation momentum
    state sum_i c_i |Pi_i(A,B,C)> (x) |spin>, from its boosted spin terms."""
    state = compose(permutation_momentum(coeffs), spin)
    return _mixture(boosted_spin_terms(state, scenario.rotations()))


def composite_spin_ensemble(
    state: CompositeState | MixedState, scenario: BoostScenario
) -> SpinEnsemble:
    """The mixture route as a certificate: term k has weight |m_k|^2, base
    vector m_k / |m_k| and the local rotation U(m1) (x) U(m2) (x) U(m3) of
    its momentum ket |m1 m2 m3>.  For a mixture with weights q_i the terms
    of member i weigh q_i |m_k^i|^2."""
    labels, rows, w = _momentum_kets(state)
    return SpinEnsemble(
        weights=w,
        unitaries=local_unitaries(labels, scenario.rotations()),
        base_vectors=rows / np.sqrt(w)[:, None],
    )
