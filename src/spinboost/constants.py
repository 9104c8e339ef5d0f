"""Shared constants: tolerances, basis conventions, Pauli matrices.

Basis conventions used across the package
-----------------------------------------
Spin:     index 0 = |up> (sigma_z eigenvalue +1), index 1 = |down>.
Momentum: index 0 = p_A, 1 = p_B, 2 = p_C (three magnitude-equal
          momenta, fixed in the x-y plane at azimuths 0, 120 and 240
          degrees, with the observer boosted along +z).
Composite factor order: (mom1, spin1, mom2, spin2, mom3, spin3), shape
(3,2,3,2,3,2), flattened big-endian, so the amplitude of
|m1 s1 m2 s2 m3 s3> sits at ((((m1*2+s1)*3+m2)*2+s2)*3+m3)*2+s3.
"""

from __future__ import annotations

import numpy as np

# --- tolerances (single source of truth) ------------------------------------
ATOL_ALGEBRA = 1e-12   # exact algebraic identities (unitarity, report sums)
ATOL_PHYSICS = 1e-9    # physics-level checks (normalization, positivity, LU)
RADICAND_NOISE = 1e-12  # negative radicands below this are clamped to zero
HERMITIAN_ATOL = 1e-10  # allowed Hermiticity defect for eigensolver inputs

# --- factor layouts ----------------------------------------------------------
COMPOSITE_DIMS = (3, 2, 3, 2, 3, 2)
SPIN_DIMS = (2, 2, 2)
SPIN_FACTORS = (1, 3, 5)      # positions of the spin factors in COMPOSITE_DIMS
COMPOSITE_DIM = 216
SPIN_DIM = 8
MOMENTUM_DIM = 27

MOMENTUM_LABELS = ("A", "B", "C")

# The six assignments of the three momentum labels to the three particles,
# ordered so that even/odd positions carry even/odd permutation parity:
# ABC, ACB, BCA, BAC, CAB, CBA.
PERMUTATIONS = ((0, 1, 2), (0, 2, 1), (1, 2, 0), (1, 0, 2), (2, 0, 1), (2, 1, 0))
PERMUTATION_SIGNS = (1, -1, 1, -1, 1, -1)

# --- single-qubit operators ---------------------------------------------------
ID2 = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
