"""Lorentz boosts of three-particle spin-momentum states and the
entanglement structure they preserve: Wigner rotations, boosted reduced
spin states with ensemble certificates, a GHZ-type witness, and
partition entanglement measures."""

import types

from .boost import (
    BoostUnitary,
    SpinEnsemble,
    boost_mixed,
    boost_pure,
    boosted_amplitudes,
    boosted_spin_density_fast,
    boosted_spin_terms,
    build_boost_unitary,
    composite_spin_ensemble,
)
from .constants import COMPOSITE_DIMS, SPIN_DIMS
from .errors import (
    InputError,
    NumericError,
    ShapeError,
    SpinboostError,
    StateFileError,
    ValidationError,
)
from .kinematics import (
    ROTATION_AXES,
    BoostScenario,
    local_unitary,
    rapidity,
    spin_rotations,
    wigner_angle,
)
from .linalg import (
    DensityCheck,
    hermitian_eigen,
    is_density_matrix,
    kron,
    partial_trace,
)
from .measures import (
    WitnessReport,
    ghz_witness,
    gme_lower_bound,
    m_concurrence_pure,
    m_concurrences_pure,
    three_tangle,
    witness_from_amplitudes,
)
from .states import (
    CompositeState,
    MixedState,
    PartitionSpec,
    antisymmetric_coeffs,
    antisymmetric_momentum,
    basis_momentum,
    bipartition,
    compose,
    ghz_alpha,
    ghz_state,
    particle_partition,
    permutation_momentum,
    read_state,
    singletons_partition,
    spins_vs_momenta_partition,
    w_state,
    write_state,
)

__version__ = "0.1.0"

# classcheck, which only the check suites run, is imported on first use of
# one of these names (PEP 562), so other commands neither load nor compile it.
_CLASSCHECK_NAMES = (
    "CertificateReport",
    "ClassCertificate",
    "InvarianceReport",
    "check_condition1",
    "haar_state",
    "sample_biseparable",
    "verify_certificate",
)

# The public API is every name imported above and the classcheck names.
__all__ = sorted([
    *(name for name, value in globals().items()
      if not name.startswith("_") and not isinstance(value, types.ModuleType)),
    *_CLASSCHECK_NAMES,
])


def __getattr__(name):
    if name not in _CLASSCHECK_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import classcheck

    value = globals()[name] = getattr(classcheck, name)
    return value


def __dir__():
    return sorted({*globals(), *_CLASSCHECK_NAMES})
