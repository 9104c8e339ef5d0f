"""Applying momentum-controlled Wigner rotations to three-particle states.

The boost acts on each particle as sum_p |p><p| (x) U(p, delta): the
momentum label is kept (the observer relabels all momenta coherently,
so amplitudes ride along with their labels) while the spin is rotated
about that label's axis.  Two equivalent routes are provided:

* boosted_amplitudes / boost_pure / boost_mixed — each particle's
  block-diagonal 6x6 rotation applied to its axis of the 216-amplitude
  tensor (linalg.apply_local), batched over boost angles and mixture
  members; build_boost_unitary assembles the full 216x216 unitary from
  the same blocks as the brute-force reference it is tested against;
* boosted_spin_terms — the one builder of the SpinEnsemble whose
  mixture, summed by states._mixture, is the reduced spin state: expand
  the state over the 27 momentum basis kets, each carrying its own spin
  row m_k and the local rotations of its label assignment.  A
  permutation momentum state's nonzero kets are its six label
  assignments; a MixedState contributes the kets of every member.

Both routes rotate amplitudes factor by factor; no 8x8 product of
rotations is formed.  The ensemble's terms chi_k = U_k m_k are also the
certificate: each applies a *local* unitary to a multiple of one pure
spin state, so boosting cannot move a state between local-unitary
entanglement classes.  Its arrays carry leading batch axes that
broadcast, so a batch of boosts is certified in one call; an item pads
the kets only its neighbours carry with zero rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import COMPOSITE_DIM, MOMENTUM_DIM, SPIN_DIM, SPIN_DIMS
from .errors import ShapeError, ValidationError
from .kinematics import BoostScenario
from .linalg import _is_unit, apply_local, kron
from .states import (
    CompositeState,
    MixedState,
    _mixture,
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
    """Boosted spin terms chi_k = U_k m_k, with batch axes (...).

    U_k is the product of the three single-qubit rotations
    rotations[..., k, :, :, :] and m_k = rows[..., k, :] an unnormalized
    spin row (shapes (..., K, 3, 2, 2) and (..., K, 8), batch axes
    broadcast), so U_k is local by construction.  Each item's trace
    sum_k |m_k|^2 passes the unit rule; a zero row pads an item to the
    batch's K and is left out of verification.
    """

    rotations: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotations, dtype=np.complex128)
        rows = np.asarray(self.rows, dtype=np.complex128)
        if (rows.ndim < 2 or rows.size == 0 or rows.shape[-1] != SPIN_DIM
                or r.shape[-4:] != rows.shape[-2:-1] + (3, 2, 2)):
            raise ShapeError("ensemble arrays are empty or inconsistent")
        try:
            np.broadcast_shapes(rows.shape[:-2], r.shape[:-4])
        except ValueError as exc:
            raise ShapeError(f"ensemble batch axes do not broadcast: {exc}") from exc
        trace = np.einsum("...ki,...ki->...", rows.conj(), rows).real
        if not np.all(_is_unit(trace)):  # NaN and inf fail
            raise ValidationError("ensemble rows must have trace 1 per item")
        object.__setattr__(self, "rotations", r)
        object.__setattr__(self, "rows", rows)

    def terms(self) -> np.ndarray:
        """The boosted spin terms chi_k = U_k m_k, shape (..., K, 8)."""
        return _rotate_kets(self.rotations, self.rows)

    def mix(self) -> np.ndarray:
        """The (..., 8, 8) densities sum_k |chi_k><chi_k|."""
        return _mixture(self.terms())


def _rotate_kets(factors: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # chi_k = (f_k0 (x) f_k1 (x) f_k2) rows_k for per-ket rotations
    # factors (..., K, 3, 2, 2) and spin rows (..., K, 8); shape (..., K, 8)
    return apply_local([factors[..., i, :, :] for i in range(3)], rows, SPIN_DIMS)


def _momentum_blocks(rotations: np.ndarray) -> np.ndarray:
    # Per-particle factor sum_p |p><p| (x) U_p: label rotations
    # (..., 3, 2, 2) on the diagonal of a (..., 6, 6) block matrix
    r = np.asarray(rotations, dtype=np.complex128)
    blocks = np.zeros(r.shape[:-3] + (3, 2, 3, 2), dtype=np.complex128)
    for p in range(3):
        blocks[..., p, :, p, :] = r[..., p, :, :]
    return blocks.reshape(r.shape[:-3] + (6, 6))


def build_boost_unitary(scenario: BoostScenario) -> BoostUnitary:
    """Assemble the 216x216 boost: per particle, a block-diagonal 6x6
    momentum-controlled spin rotation, tensored over the three particles.
    The reference boost_pure is checked against."""
    block = _momentum_blocks(scenario.rotations())
    return BoostUnitary(matrix=kron([block, block, block]))


def boosted_amplitudes(state, rotations: np.ndarray) -> np.ndarray:
    """Boosted amplitudes of pure states for a batch of boosts.

    Every particle's spin is rotated by the rotation of the momentum label
    it carries: its block-diagonal 6x6 factor acts on its axis of the
    (..., 6, 6, 6) amplitude tensor, no 216x216 matrix.  `state` is a
    CompositeState or amplitudes of shape (..., 216), e.g. the members of
    a MixedState; `rotations` holds per-label rotations of shape
    (..., 3, 2, 2), e.g. spin_rotations(deltas) for a sweep.  The
    batch axes of both broadcast; the result has shape (..., 216).
    """
    if isinstance(state, CompositeState):
        vec = state.vector
    else:
        vec = _state_rows(state, COMPOSITE_DIM, "composite state")[0]
    block = _momentum_blocks(rotations)
    return apply_local([block, block, block], vec, (6, 6, 6))


def boost_pure(state: CompositeState, scenario: BoostScenario) -> CompositeState:
    """Apply the boost to a pure state (a batch of one boosted_amplitudes)."""
    return CompositeState(boosted_amplitudes(state, scenario.rotations()))


def boost_mixed(mixed: MixedState, scenario: BoostScenario) -> MixedState:
    """Apply the boost to every member of a mixture in one boosted_amplitudes
    call; the weights are unchanged."""
    return MixedState(
        mixed.weights, boosted_amplitudes(mixed.vectors, scenario.rotations())
    )


def _momentum_kets(state) -> tuple[np.ndarray, np.ndarray]:
    # Label assignments (K, 3) and spin rows m_k (..., K, 8) of the momentum
    # basis kets that carry amplitude in any item of a batch of pure states
    # (..., 216); where a kept ket is negligible, its row is exact zeros.
    # Member i of a mixture contributes its 27 rows scaled by sqrt(q_i), so
    # its terms weigh q_i |m_k^i|^2; a mixture is one item.
    if isinstance(state, MixedState):
        m = np.sqrt(state.weights)[:, None, None] * _momentum_spin_rows(state.vectors)
        m = m.reshape(-1, SPIN_DIM)  # (M * 27, 8), rows are momentum kets
        labels = np.tile(_MOMENTUM_BASIS_LABELS, (len(state.weights), 1))
    else:
        vec = (state.vector if isinstance(state, CompositeState)
               else _state_rows(state, COMPOSITE_DIM, "composite state")[0])
        m, labels = _momentum_spin_rows(vec), _MOMENTUM_BASIS_LABELS
    carries = np.einsum("...ki,...ki->...k", m.conj(), m).real > _NEGLIGIBLE_WEIGHT
    keep = np.any(carries.reshape(-1, carries.shape[-1]), axis=0)
    return labels[keep], np.where(carries[..., keep, None], m[..., keep, :], 0.0)


def boosted_spin_terms(state, rotations: np.ndarray) -> SpinEnsemble:
    """The boosted spin terms chi_k = U(L_k) m_k of a state, as a SpinEnsemble.

    m_k is the spin row of the k-th momentum ket carrying amplitude (of
    a CompositeState, of every member of a MixedState, or of each item of
    amplitudes (..., 216)) and U(L_k) the product of the Wigner rotations
    of its label assignment L_k.  `rotations` holds per-label rotations of
    shape (..., 3, 2, 2), e.g. spin_rotations(deltas) for a sweep;
    its batch axes broadcast against the state's.  The reduced boosted
    spin density is mix() = sum_k |chi_k><chi_k|; its populations are
    sum_k |chi_kj|^2, nonnegative by construction.
    """
    labels, rows = _momentum_kets(state)
    return SpinEnsemble(np.asarray(rotations)[..., labels, :, :], rows)


def boosted_spin_density_fast(coeffs, spin, scenario: BoostScenario) -> np.ndarray:
    """Reduced 8x8 spin density after the boost of the permutation momentum
    state sum_i c_i |Pi_i(A,B,C)> (x) |spin>, from its boosted spin terms."""
    state = compose(permutation_momentum(coeffs), spin)
    return boosted_spin_terms(state, scenario.rotations()).mix()


def composite_spin_ensemble(
    state: CompositeState | MixedState, scenario: BoostScenario
) -> SpinEnsemble:
    """The boosted spin terms of one boost, the certificate of its reduced
    spin state: term k carries the spin row m_k and the rotations
    (U(m1), U(m2), U(m3)) of its momentum ket |m1 m2 m3>.  For a mixture
    with weights q_i the rows of member i are scaled by sqrt(q_i)."""
    return boosted_spin_terms(state, scenario.rotations())
