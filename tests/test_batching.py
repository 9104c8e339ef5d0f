"""The batch contract, tested once: each batch item equals its single call bit
for bit, on every layout in LAYOUTS.  ROWS holds one row per batched kernel.

To add a kernel, add a Row.  `build(rng, batch)` returns the call's
arguments, each an array with the batch axes first.  `extract(out, batch)`
returns the result as arrays with the batch axes first.  An `oracle`, a
full-copy reference formula, must equal the kernel on the whole batch.
Kernels that draw a whole batch from one generator are no rows: their
full-copy formulas are tested in test_classcheck.py.
"""

import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

from spinboost import (BoostScenario, ClassCertificate, CompositeState, basis_momentum,
                       bipartition, check_condition1, compose, m_concurrences_pure,
                       permutation_momentum, singletons_partition, spin_rotations,
                       three_tangle, verify_certificate)
from spinboost import boost, classcheck, measures
from spinboost.boost import boost_pure
from spinboost.classcheck import _all_partitions, haar_state, single_qubit_spectra
from spinboost.cli import FIG3_CATALOG
from spinboost.constants import COMPOSITE_DIMS
from spinboost.linalg import apply_local, row_norms

LAYOUTS = {  # name: (batch shape the builder draws, view of each drawn array)
    "()": ((), lambda a: a),
    "(1,)": ((1,), lambda a: a),
    "(7,)": ((7,), lambda a: a),
    "(3, 4)": ((3, 4), lambda a: a),
    "strided": ((3, 4), lambda a: np.repeat(a, 2, axis=-1)[..., ::2]),
    "fortran": ((3, 4), np.asfortranarray),
    "transposed": ((4, 3), lambda a: np.swapaxes(a, 0, 1)),
}


def _parts(out, batch):  # a list is one array per partition (m_concurrences_pure)
    return tuple(out) if isinstance(out, list) else (out,)


def _reports(out, batch):  # a report alone, a list of them in C order for a batch
    assert isinstance(out, list) == bool(batch)
    return (np.array(out, dtype=object).reshape(batch),)


class Row(NamedTuple):
    name: str
    fn: Callable
    build: Callable
    extract: Callable = _parts
    oracle: Callable | None = None


def _normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _row_norms_oracle(v):
    return np.reshape([np.linalg.norm(r) for r in v.reshape(-1, v.shape[-1])], v.shape[:-1])


def _certificates(rng, batch):
    # Boosts whose first seven items alternate a permutation momentum (6 kets)
    # and the product momentum |A A B> (1 ket, not a permutation), so (7,)
    # pads the product items from 1 to 7 kets; Haar momenta (27 kets) follow,
    # so 12 items pad them to 27.
    n = math.prod(batch)
    coeffs = _normal(rng, 6)
    momenta = ([permutation_momentum(coeffs / np.linalg.norm(coeffs)), basis_momentum("AAB")]
               * 4)[:7] + [haar_state(27, rng) for _ in range(n - 7)]
    spins = haar_state(8, rng, (n,))
    vectors = np.array([compose(m, s).vector for m, s in zip(momenta, spins)])
    deltas = rng.uniform(0.0, math.pi / 2, n)
    rhos = np.array([boost_pure(CompositeState(v), BoostScenario(d)).spin_density()
                     for v, d in zip(vectors, deltas)])
    return [a.reshape(batch + a.shape[1:]) for a in (spins, vectors, spin_rotations(deltas), rhos)]


def _certify(spins, vectors, rotations, rhos):  # honest certificates, which pass
    ens = boost.boosted_spin_terms(vectors, rotations)
    reports = verify_certificate(ClassCertificate(spins, ens), rhos)
    assert all(np.ravel(reports))
    return ens.mix(), reports


def _dashed(dims):
    return "-".join(map(str, dims))


SWEPT = compose(permutation_momentum(np.array([0.6, 0, 0, -0.8j, 0, 0])), haar_state(8, 11))
M_CASES = [  # dims and partitions; every root of the last four is a qubit
    (COMPOSITE_DIMS, [spec for _, spec in FIG3_CATALOG]),
    ((2, 2, 2), _all_partitions(3)),
    ((2, 3), _all_partitions(2)),
    ((3, 2), _all_partitions(2)),
    ((1,) * 6 + (2, 2), [singletons_partition(8), bipartition((0, 6), 8)]),
]
ROWS = [
    *(Row(f"row_norms-{n}", row_norms, lambda rng, b, n=n: [_normal(rng, b + (n,))],
          oracle=_row_norms_oracle) for n in (2, 4, 8, 27, 216)),
    Row("unit_rows", classcheck._unit_rows,
        lambda rng, b: [rng.normal(size=b + (8,)), rng.normal(size=b + (8,))]),
    Row("single_qubit_spectra", single_qubit_spectra, lambda rng, b: [haar_state(8, rng, b)]),
    *(Row(f"trace_middle-{_dashed(adc)}", measures._trace_middle,
          lambda rng, b, adc=adc: [_normal(rng, b + adc * 2)],
          oracle=lambda x: np.einsum("...ijkljm->...iklm", x))
      for adc in ((1, 3, 2), (3, 2, 1), (2, 3, 3))),
    *(Row(f"m_concurrences-{_dashed(dims)}",
          lambda psi, dims=dims, specs=specs: m_concurrences_pure(psi, specs, dims),
          lambda rng, b, n=math.prod(dims): [haar_state(n, rng, b)]) for dims, specs in M_CASES),
    Row("three_tangle", three_tangle, lambda rng, b: [haar_state(8, rng, b)]),
    *(Row(f"apply_local-{_dashed(dims)}",
          lambda amps, *fs, dims=dims: apply_local(fs, amps, dims),
          lambda rng, b, dims=dims: [_normal(rng, b + (math.prod(dims),)),
                                     *(_normal(rng, b + (d, d)) for d in dims)])
      for dims in ((3, 2, 4), (2, 2, 2), (2,), (2, 3))),
    Row("apply_local-shared_amplitudes",  # scan fig2: rotations of shared spin rows
        lambda amps, *fs: apply_local(fs, amps, (2, 2, 2)),
        lambda rng, b: [np.broadcast_to(_normal(rng, 8), b + (8,)),
                        *(_normal(rng, b + (2, 2)) for _ in range(3))]),
    Row("apply_local-shared_factors",
        lambda amps, *fs: apply_local(fs, amps, (2, 3)),
        lambda rng, b: [_normal(rng, b + (6,)),
                        *(np.broadcast_to(_normal(rng, (d, d)), b + (d, d)) for d in (2, 3))]),
    Row("spin_rotations", spin_rotations,
        lambda rng, b: [np.asarray(rng.uniform(0.0, math.pi / 2, b))]),
    Row("boosted_spin_terms-sweep", lambda u: boost.boosted_spin_terms(SWEPT, u).terms(),
        lambda rng, b: [spin_rotations(rng.uniform(0.0, math.pi / 2, b))]),
    Row("check_condition1-qubits",  # each item's seed, past 2**32 too
        lambda psi, seeds: check_condition1(psi, (2, 2, 2), 9, seeds, atol=1e-18),
        lambda rng, b: [haar_state(8, rng, b), rng.integers(0, 2**41, b)], _reports),
    Row("check_condition1-composite",  # one int seed for every item
        lambda psi: check_condition1(psi, COMPOSITE_DIMS, 3, 17,
                                     [spec for _, spec in FIG3_CATALOG], atol=1e-18),
        lambda rng, b: [haar_state(216, rng, b)], _reports),
    Row("verify_certificate", _certify, _certificates,
        lambda out, batch: (out[0], *_reports(out[1], batch))),
]


def assert_bits(got, want, where):
    if isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for g, w in zip(got, want):
            assert_bits(g, w, where)
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype, where
    if want.dtype == object:  # reports, compared field by field
        assert got.tolist() == want.tolist(), where
    else:
        assert got.tobytes() == want.tobytes(), where


def _check(row, layout):
    shape, view = LAYOUTS[layout]
    rng = np.random.default_rng([61, list(LAYOUTS).index(layout)])
    args = [view(a) for a in row.build(rng, shape)]
    out = row.fn(*args)
    if row.oracle is not None:
        assert_bits(out, row.oracle(*args), (layout, "oracle"))
    batch = view(np.empty(shape)).shape  # transposed: (4, 3) drawn, (3, 4) seen
    got = [np.asarray(part) for part in row.extract(out, batch)]
    for index in np.ndindex(batch):
        item = [np.array(a[index]) for a in args]
        single = row.extract(row.fn(*item), ())
        assert_bits([g[index] for g in got], single, (layout, index))
    assert [g.shape for g in got] == [batch + np.shape(s) for s in single], layout


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_batch_items_equal_single_calls(row):
    for layout in LAYOUTS:
        _check(row, layout)
