"""Per-call timings of the layer calls in ROADMAP's Baseline layer table.

Each row times one call with ``timeit`` on fixed seeded inputs and reports
the median of five repeats in microseconds.  A row whose function no
longer exists reports 0.
"""

from __future__ import annotations

import math
import statistics
import timeit

import numpy as np

REPEATS = 5
REPEAT_SECONDS = 0.02  # target length of one repeat


def _rows(rng) -> dict:
    """Row name -> zero-argument callable on fixed seeded inputs."""
    from spinboost import boost, kinematics, linalg, measures, states

    def haar(dim):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return v / np.linalg.norm(v)

    scenario = kinematics.BoostScenario.from_angle(0.7)
    coeffs = states.antisymmetric_coeffs()
    ghz = states.ghz_state()
    composite = states.compose(haar(27), haar(8))
    boosted = boost.boost_pure(composite, scenario)
    rho8 = sum(w * np.outer(v, v.conj()) for w, v in
               zip(rng.dirichlet(np.ones(4)), (haar(8) for _ in range(4))))
    vec216 = haar(216)
    rho216 = np.outer(vec216, vec216.conj())
    singletons = states.singletons_partition(6)

    def einsum_trace():
        t = rho216.reshape((3, 2) * 6)
        return np.einsum("aibjckaxbycz->ijkxyz", t).reshape(8, 8)

    return {
        "kinematics.BoostScenario.from_angle":
            lambda: kinematics.BoostScenario.from_angle(0.7),
        "kinematics.local_unitary":
            lambda: kinematics.local_unitary((0, 1, 2), scenario),
        "boost.build_boost_unitary": lambda: boost.build_boost_unitary(scenario),
        "boost.boosted_spin_density_fast":
            lambda: boost.boosted_spin_density_fast(coeffs, ghz, scenario),
        "linalg.hermitian_eigen": lambda: linalg.hermitian_eigen(rho8),
        "numpy.linalg.eigh": lambda: np.linalg.eigh(rho8),
        "linalg.is_density_matrix": lambda: linalg.is_density_matrix(rho8),
        "measures.ghz_witness.validated": lambda: measures.ghz_witness(rho8),
        "measures.ghz_witness.unvalidated":
            lambda: measures.ghz_witness(rho8, validate=False),
        "measures.m_concurrence_pure":
            lambda: measures.m_concurrence_pure(boosted, singletons),
        "linalg.partial_trace":
            lambda: linalg.partial_trace(rho216, (3, 2, 3, 2, 3, 2), (1, 3, 5)),
        "numpy.einsum_partial_trace": einsum_trace,
    }


ROW_NAMES = (
    "kinematics.BoostScenario.from_angle",
    "kinematics.local_unitary",
    "boost.build_boost_unitary",
    "boost.boosted_spin_density_fast",
    "linalg.hermitian_eigen",
    "numpy.linalg.eigh",
    "linalg.is_density_matrix",
    "measures.ghz_witness.validated",
    "measures.ghz_witness.unvalidated",
    "measures.m_concurrence_pure",
    "linalg.partial_trace",
    "numpy.einsum_partial_trace",
)


def us_per_call(seed: int) -> dict[str, float]:
    """Median microseconds per call for every row, keyed '<row>.us_per_call'."""
    out = {f"{name}.us_per_call": 0.0 for name in ROW_NAMES}
    try:
        rows = _rows(np.random.default_rng(seed))
    except AttributeError:  # a function the inputs need was renamed or removed
        return out
    for name in ROW_NAMES:
        fn = rows[name]
        try:
            timer = timeit.Timer(fn)
            once = timer.timeit(1)
        except AttributeError:
            continue
        number = max(1, math.ceil(REPEAT_SECONDS / max(once, 1e-7)))
        times = timer.repeat(repeat=REPEATS, number=number)
        out[f"{name}.us_per_call"] = statistics.median(times) / number * 1e6
    return out
