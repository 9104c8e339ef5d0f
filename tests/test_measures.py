"""Entanglement quantifiers: GHZ witness, m-concurrence, three-tangle."""

import itertools
import math

import mpmath
import numpy as np
import pytest

from spinboost import (
    BoostScenario,
    CompositeState,
    InputError,
    MixedState,
    PartitionSpec,
    ShapeError,
    ValidationError,
    antisymmetric_momentum,
    bipartition,
    compose,
    ghz_alpha,
    ghz_state,
    ghz_witness,
    gme_lower_bound,
    m_concurrence_pure,
    m_concurrences_pure,
    antisymmetric_coeffs,
    boosted_amplitudes,
    boosted_spin_density_fast,
    boosted_spin_terms,
    permutation_momentum,
    singletons_partition,
    spin_rotations,
    three_tangle,
    w_state,
    witness_from_amplitudes,
)
from spinboost.classcheck import _all_partitions, _haar_factors, haar_state
from spinboost import boost, classcheck, cli, kinematics, linalg, measures, states
from spinboost.cli import FIG3_CATALOG
from spinboost.constants import COMPOSITE_DIMS
from spinboost.boost import boost_pure, build_boost_unitary
from spinboost.linalg import apply_local, partial_trace, projector
from spinboost.measures import _gme_bound, _sqrt_radicand
from spinboost.errors import NumericError

SQRT_3_2 = math.sqrt(1.5)  # singletons m-concurrence of the GHZ state
SQRT_4_3 = math.sqrt(4.0 / 3.0)  # ... of the W state


def random_density(dim, rng, rank=None):
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def one_vs_pair_product(a, b, c_amps):
    """(a|0> + b|1>) on qubit 1 times a two-qubit state on qubits 2,3."""
    one = np.array([a, b], dtype=np.complex128)
    pair = np.asarray(c_amps, dtype=np.complex128)
    vec = np.kron(one, pair)
    return vec / np.linalg.norm(vec)


def test_witness_ghz_is_one():
    rho = projector(ghz_state())
    for path in ("matrix_elements", "pauli_settings"):
        for variant in ("symmetric", "as_printed"):
            rep = ghz_witness(rho, path=path, variant=variant)
            assert abs(rep.value - 1.0) < 1e-12
            assert rep.value > 0.0
    assert abs(gme_lower_bound(rho) - 1.0) < 1e-12


def test_witness_w_state_is_zero():
    rep = ghz_witness(projector(w_state()))
    assert abs(rep.value) < 1e-14
    assert rep.value <= 0.0
    assert gme_lower_bound(projector(w_state())) == 0.0


def test_witness_alpha_family_sine_law():
    for alpha in np.linspace(0.0, math.pi, 31):
        rho = projector(ghz_alpha(alpha))
        rep = ghz_witness(rho)
        assert abs(rep.value - abs(math.sin(2 * alpha))) < 1e-12


def test_witness_report_terms():
    rho = projector(ghz_state())
    rep = ghz_witness(rho)
    assert abs(rep.offdiag_term - 1.0) < 1e-14  # 2 |rho_07| = 1
    assert np.allclose(rep.population_terms, 0.0, atol=1e-14)


def test_witness_paths_agree_on_random_densities():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(50):
        rho = random_density(8, rng, rank=int(rng.integers(1, 9)))
        for variant in ("symmetric", "as_printed"):
            a = ghz_witness(rho, path="matrix_elements", variant=variant)
            b = ghz_witness(rho, path="pauli_settings", variant=variant)
            assert a.population_terms == b.population_terms  # both the diagonal
            worst = max(worst, abs(a.value - b.value))
    assert worst < 1e-12


def test_witness_complex_coherence_uses_modulus():
    # rotate the GHZ coherence into the imaginary plane; the witness must
    # not change
    phase = np.exp(0.37j)
    vec = ghz_state().astype(complex)
    vec[7] *= phase
    rho = projector(vec)
    assert abs(ghz_witness(rho).value - 1.0) < 1e-12
    assert abs(rho[0, 7].imag) > 0.1  # genuinely complex now


def test_witness_symmetric_sound_where_as_printed_is_not():
    # one-vs-rest product with strongly asymmetric single-flip populations:
    # the symmetric pairing sqrt(rho44 rho33) cancels the coherence exactly,
    # the as-printed pairing sqrt(rho44 rho44) undercounts and goes positive
    a, b = math.sqrt(0.9), math.sqrt(0.1)
    pair = np.array([math.sqrt(0.1), 0.0, 0.0, math.sqrt(0.9)])
    vec = one_vs_pair_product(a, b, pair)
    rho = projector(vec)
    sym = ghz_witness(rho, variant="symmetric").value
    printed = ghz_witness(rho, variant="as_printed").value
    assert sym <= 1e-12
    assert printed > 0.1


def test_witness_validation():
    with pytest.raises(ShapeError):
        ghz_witness(np.eye(4))
    with pytest.raises(ValidationError):
        ghz_witness(np.eye(8))  # trace 8
    ghz_witness(np.eye(8), validate=False)  # skips the density check
    with pytest.raises(InputError):
        ghz_witness(np.eye(8) / 8.0, path="nope")
    with pytest.raises(InputError):
        ghz_witness(np.eye(8) / 8.0, variant="nope")
    with pytest.raises(InputError):
        witness_from_amplitudes(np.eye(8)[None, 0], "nope")


@pytest.mark.parametrize("path", ["matrix_elements", "pauli_settings"])
def test_witness_clamps_negative_population(path):
    # a valid density (eigenvalue -1e-12, within ATOL_PHYSICS) whose
    # population rho_33 is -1e-12: the kernel reads it as 0, so the value
    # is finite, with no sqrt of a negative number (warnings are errors)
    pops = [0.35, 0.05, 0.05, -1e-12, 0.1 + 1e-12, 0.05, 0.05, 0.35]
    rho = np.diag(pops).astype(np.complex128)
    rho[0, 7] = rho[7, 0] = 0.3
    zeroed = rho.copy()
    zeroed[3, 3] = 0.0
    for variant in ("symmetric", "as_printed"):
        value = ghz_witness(rho, path=path, variant=variant).value
        assert math.isfinite(value)
        assert value == ghz_witness(zeroed, path=path, variant=variant).value


def test_gme_lower_bound_clamps_at_zero():
    rng = np.random.default_rng(11)
    rho = random_density(8, rng)  # generic mixed state, witness < 0
    val = ghz_witness(rho).value
    bound = gme_lower_bound(rho)
    assert bound == max(0.0, val)
    for rho in (projector(ghz_state()), projector(w_state()), rho):
        assert gme_lower_bound(rho) == _gme_bound(ghz_witness(rho).value)


def test_gme_bound_edge_cases():
    # the one GME rule: NaN and -0.0 give +0.0, positives pass unchanged
    assert _gme_bound(float("nan")) == 0.0
    zero = _gme_bound(-0.0)
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
    assert _gme_bound(-1e-17) == 0.0
    assert _gme_bound(5e-17) == 5e-17
    assert _gme_bound(1.0) == 1.0
    values = np.array([np.nan, -0.0, -1e-17, 5e-17, 1.0])
    bounds = _gme_bound(values)
    assert isinstance(bounds, np.ndarray) and bounds.shape == values.shape
    assert bounds.tolist() == [0.0, 0.0, 0.0, 5e-17, 1.0]
    assert not np.any(np.signbit(bounds))


def test_m_concurrence_frozen_three_qubit_values():
    singles = singletons_partition(3)
    assert abs(m_concurrence_pure(ghz_state(), singles) - SQRT_3_2) < 1e-12
    assert abs(m_concurrence_pure(w_state(), singles) - SQRT_4_3) < 1e-12
    cut = bipartition((0,), 3)
    assert abs(m_concurrence_pure(ghz_state(), cut) - 1.0) < 1e-12
    assert abs(m_concurrence_pure(w_state(), cut) - math.sqrt(8.0) / 3.0) < 1e-12
    assert all(isinstance(v, float) for v in m_concurrences_pure(w_state(), [singles, cut]))


def test_m_concurrence_vanishes_on_products():
    up = np.zeros(8)
    up[0] = 1.0
    assert m_concurrence_pure(up, singletons_partition(3)) < 1e-7
    # product across one cut only: Bell pair on qubits 2,3
    vec = one_vs_pair_product(1.0, 0.0, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
    assert m_concurrence_pure(vec, bipartition((0,), 3)) < 1e-7
    # ... but not across the others
    assert m_concurrence_pure(vec, bipartition((1,), 3)) > 0.9


# |psi|^2 the unit rule accepts, at and well inside its ATOL_PHYSICS edge
EDGE_NORMS = (1 + 0.9e-9, 1 - 0.9e-9, 1 + 1e-11, 1 - 1e-11)


@pytest.mark.parametrize("norm2", EDGE_NORMS)
def test_m_concurrence_measures_the_ray_at_edge_norms(norm2):
    # Purities scale as |psi|^4; a radicand that assumed |psi| = 1 went
    # negative (NumericError) above 1 and read about 7e-5 on products below.
    rng = np.random.default_rng(41)
    scale = math.sqrt(norm2)
    qubits = rng.normal(size=(20, 3, 2)) + 1j * rng.normal(size=(20, 3, 2))
    qubits /= np.linalg.norm(qubits, axis=-1, keepdims=True)
    spins = np.array([np.kron(np.kron(a, b), c) for a, b, c in qubits])
    spins = np.concatenate([np.eye(8)[:1], spins])  # |uuu> first
    values = m_concurrences_pure(scale * spins, _all_partitions(3))
    assert all(np.all(v == 0.0) for v in values)
    labels = permutation_momentum(np.eye(6)[0])
    composite = np.array([compose(labels, spin).vector for spin in spins[:5]])
    values = m_concurrences_pure(scale * composite, [s for _, s in FIG3_CATALOG])
    assert all(np.all(v == 0.0) for v in values)
    ghz = m_concurrence_pure(scale * ghz_state(), singletons_partition(3))
    assert abs(ghz - SQRT_3_2) < 1e-12
    # the three-tangle is degree 4 too: |psi|^4 off 1 read 1 +- 1.8e-9 on GHZ
    assert abs(three_tangle(scale * ghz_state()) - 1.0) < 1e-12
    assert three_tangle(scale * w_state()) == 0.0
    # products have rank-one slices: the tangle reads eps^2, not eps
    assert np.all(np.abs(three_tangle(scale * spins)) < 1e-28)


def test_m_concurrence_two_qubit_closed_form():
    # across a single cut of two qubits the measure reduces to the
    # standard concurrence 2 |ad - bc|
    rng = np.random.default_rng(12)
    cut = bipartition((0,), 2)
    for _ in range(25):
        v = haar_state(4, rng)
        expected = 2.0 * abs(v[0] * v[3] - v[1] * v[2])
        got = m_concurrence_pure(v, cut, dims=(2, 2))
        assert abs(got - expected) < 1e-10


def test_m_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(13)
    specs = [singletons_partition(3), bipartition((1,), 3)]
    for trial in range(20):
        v = haar_state(8, rng)
        seed = int(rng.integers(0, 2**31))
        factors = _haar_factors((2, 2, 2), [np.random.default_rng(seed)], 1)
        w = apply_local(factors, v, (2, 2, 2))[0, 0]
        for spec in specs:
            a = m_concurrence_pure(v, spec, dims=(2, 2, 2))
            b = m_concurrence_pure(w, spec, dims=(2, 2, 2))
            assert abs(a - b) < 1e-10


def test_m_concurrence_composite_state_and_dim_inference():
    rng = np.random.default_rng(14)
    state = compose(antisymmetric_momentum(), ghz_state())
    spec = PartitionSpec(((1, 3, 5), (0, 2, 4)))
    val = m_concurrence_pure(state, spec)
    assert val < 1e-7  # product across the spin/momentum cut
    # raw 216 vector infers the composite factorization
    val2 = m_concurrence_pure(state.vector, spec)
    assert abs(val - val2) < 1e-13
    # raw 8 vector infers three qubits
    assert abs(
        m_concurrence_pure(ghz_state(), singletons_partition(3)) - SQRT_3_2
    ) < 1e-12


def test_m_concurrence_partition_mismatch_raises():
    with pytest.raises((ShapeError, InputError)):
        m_concurrence_pure(ghz_state(), singletons_partition(4))
    with pytest.raises((ShapeError, InputError)):
        m_concurrence_pure(np.ones(5) / math.sqrt(5.0), singletons_partition(3))


def test_three_tangle_frozen_values():
    assert abs(three_tangle(ghz_state()) - 1.0) < 1e-12
    assert three_tangle(w_state()) < 1e-12
    for alpha in np.linspace(0, math.pi / 2, 11):
        tau = three_tangle(ghz_alpha(alpha))
        assert abs(tau - math.sin(2 * alpha) ** 2) < 1e-12


def test_three_tangle_vanishes_on_biseparable():
    # qubit `cut` unentangled with the other two: for qubits 1 and 2 the
    # slices psi_{ij k} have rank one and read eps^2, but qubit 3 is the
    # slicing qubit and reads roundoff
    rng = np.random.default_rng(15)
    for cut, bound in ((0, 1e-28), (1, 1e-28), (2, 1e-14)):
        for _ in range(10):
            pair = haar_state(4, rng)
            one = haar_state(2, rng)
            vec = np.moveaxis(np.kron(one, pair).reshape(2, 2, 2), 0, cut).ravel()
            assert three_tangle(vec) < bound


def cayley_hyperdeterminant(a):
    # Det psi for a[i, j, k] = psi_ijk as Cayley's 12 quartic products;
    # entries may be arrays (a batch) or mpmath numbers
    d1 = (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
        + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
        + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
    )
    d2 = (
        a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
        + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1]
    )
    d3 = (
        a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
        + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0]
    )
    return d1 - 2 * d2 + 4 * d3


def cayley_tangle(rows):
    # the three-tangle 4|Det psi| / |psi|^4 of rows (B, 8) from the oracle
    det = cayley_hyperdeterminant(np.moveaxis(rows.reshape(-1, 2, 2, 2), 0, -1))
    return 4.0 * np.abs(det) / np.sum(np.abs(rows) ** 2, axis=-1) ** 2


def test_three_tangle_matches_cayley_polynomial():
    rng = np.random.default_rng(24)
    rows = np.array([haar_state(8, rng) for _ in range(200)])
    got, want = three_tangle(rows), cayley_tangle(rows)
    assert np.max(np.abs(got - want)) < 1e-14
    with mpmath.workdps(50):  # exact amplitudes, 50-digit arithmetic
        for row, kernel, oracle in zip(rows[:20], got, want):
            a = np.array([mpmath.mpc(z.real, z.imag) for z in row.tolist()], dtype=object)
            norm2 = sum(abs(z) ** 2 for z in a)
            exact = 4 * abs(cayley_hyperdeterminant(a.reshape(2, 2, 2))) / norm2**2
            assert abs(kernel - exact) < 1e-15 and abs(oracle - exact) < 1e-15
    # single states (batch shape ()) are floats equal to their batch items
    singles = [three_tangle(row) for row in rows[:20]]
    assert all(isinstance(x, float) for x in singles)
    assert np.array_equal(got[:20], singles)


def test_three_tangle_is_qubit_permutation_invariant():
    # the slice form singles out qubit 3, so the symmetry is not in the code
    rng = np.random.default_rng(25)
    states = haar_state(8, rng, (500,)).reshape(500, 2, 2, 2)
    tau = three_tangle(states.reshape(500, 8))
    for perm in itertools.permutations(range(3)):
        permuted = states.transpose((0,) + tuple(1 + q for q in perm)).reshape(500, 8)
        assert np.max(np.abs(three_tangle(permuted) - tau)) < 1e-14


def test_three_tangle_local_unitary_invariant_and_bounded():
    rng = np.random.default_rng(16)
    for trial in range(25):
        v = haar_state(8, rng)
        tau = three_tangle(v)
        assert -1e-12 <= tau <= 1.0 + 1e-12
        factors = _haar_factors((2, 2, 2), [np.random.default_rng(trial)], 1)
        w = apply_local(factors, v, (2, 2, 2))[0, 0]
        assert abs(three_tangle(w) - tau) < 1e-10


def test_batched_measures_reject_one_unnormalized_row():
    rng = np.random.default_rng(18)
    batch = np.array([haar_state(8, rng) for _ in range(5)])
    batch[3] *= 1.01
    with pytest.raises(ValidationError):
        m_concurrence_pure(batch, singletons_partition(3))
    with pytest.raises(ValidationError):
        three_tangle(batch)
    composite = np.array([haar_state(216, rng) for _ in range(3)])
    composite[0] *= 0.99
    with pytest.raises(ValidationError):
        m_concurrence_pure(composite, FIG3_CATALOG[0][1])
    batch[3] = np.nan  # NaN compares false against any tolerance
    with pytest.raises(ValidationError):
        m_concurrence_pure(batch, singletons_partition(3))
    with pytest.raises(ValidationError):
        three_tangle(batch)


def _full_sum_m_concurrence(vec, spec, dims):
    # the defining formula: every one of the 2^m - 2 proper subsets, each
    # purity from an explicit partial trace; a radicand within 16 eps per
    # purity of zero is the roundoff of an exact zero, whose square root
    # would read about 1e-8
    rho = projector(vec)
    acc = 0.0
    for keep in spec.proper_subsets():
        red = partial_trace(rho, dims, keep)
        acc += np.vdot(red, red).real
    m = spec.num_parts
    radicand = 2**m - 2 - acc
    if radicand <= 16.0 * np.finfo(float).eps * (2**m - 2):
        radicand = 0.0
    return 2.0 ** (1.0 - m / 2.0) * math.sqrt(radicand)


def test_m_concurrence_complement_pairs_match_full_sum():
    # complementary reductions of a pure state share their purity, so
    # summing one subset per complementary pair and doubling is exact; so
    # is a side's purity taken from a partial trace of its root's reduction,
    # whether all partitions are asked for at once (the catalog's sides
    # share 13 roots) or one at a time (particle_partition() alone: its
    # sides (0, 1), (2, 3), (4, 5) lie in roots that are no side of the
    # call).  (2, 2, 2, 2) has pairs with dk^2 == N, and every side of
    # (2, 3, 4) is its own root.  The qubit chains' roots hold four or five
    # factors, so their trace chains run three or four deep, and the unit
    # factors of (1,)*6 + (2, 2) sit in roots without being traced.  Each
    # case is evaluated as one batch.
    rng = np.random.default_rng(19)
    boosted = boost_pure(
        compose(antisymmetric_momentum(), ghz_state()), BoostScenario.from_angle(0.9)
    )
    ghz4 = np.zeros(16)
    ghz4[[0, 15]] = math.sqrt(0.5)
    cases = [
        (COMPOSITE_DIMS, [spec for _, spec in FIG3_CATALOG],
         [haar_state(216, rng), haar_state(216, rng), boosted.vector]),
        ((2, 2, 2), _all_partitions(3),
         [haar_state(8, rng), ghz_state(), w_state(), np.eye(8)[0]]),
        ((2, 2, 2, 2), _all_partitions(4), [haar_state(16, rng), ghz4, np.eye(16)[5]]),
        ((2, 3, 4), _all_partitions(3),
         [haar_state(24, rng), haar_state(24, rng), np.eye(24)[7]]),
        ((2,) * 8, [singletons_partition(8), bipartition((0, 7), 8)],
         [haar_state(256, rng) for _ in range(3)]),
        ((2,) * 10, [singletons_partition(10)], [haar_state(1024, rng) for _ in range(2)]),
        ((1,) * 6 + (2, 2), [singletons_partition(8), bipartition((0, 6), 8)],
         [haar_state(4, rng) for _ in range(3)]),
    ]
    for dims, specs, vecs in cases:
        together = m_concurrences_pure(np.array(vecs), specs, dims)
        for spec, got in zip(specs, together):
            for vec, value in zip(vecs, got):
                ref = _full_sum_m_concurrence(vec, spec, dims)
                assert abs(value - ref) < 1e-13, (dims, spec)
                assert abs(m_concurrence_pure(vec, spec, dims) - ref) < 1e-13, (dims, spec)


def test_scan_fig3_matches_full_sum_on_brute_force_boost(capsys):
    # every printed fig3 value against the defining formula (explicit
    # partial traces over all 2^m - 2 subsets) on the 216x216 boost
    specs = dict(FIG3_CATALOG)
    for spin, momentum in itertools.product(("ghz", "w"), ("antisymmetric", "product")):
        assert cli.main(["scan", "fig3", "--grid", "13", "--spin", spin,
                         "--momentum", momentum]) == 0
        rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[2:]]
        assert len(rows) == 13 * len(FIG3_CATALOG)
        state = compose(
            permutation_momentum(cli._momentum_coeffs(momentum)),
            w_state() if spin == "w" else ghz_state(),
        )
        for delta in np.linspace(0.0, math.pi / 2.0, 13):
            boosted = build_boost_unitary(BoostScenario.from_angle(delta))(state)
            for _, name, value in rows[: len(FIG3_CATALOG)]:
                ref = _full_sum_m_concurrence(boosted.vector, specs[name], COMPOSITE_DIMS)
                assert abs(float(value) - ref) < 1e-11, (spin, momentum, delta, name)
            rows = rows[len(FIG3_CATALOG):]


def test_m_concurrences_pure_evaluates_each_distinct_cut_once(monkeypatch):
    # the fig3 catalog needs 38 subset purities but only 31 are distinct,
    # all taken in one _subset_purities call: 13 Gram products (9 roots of
    # dimension 12, 3 of 9, 1 of 8) and, for the 18 other sides, 18 partial
    # traces of one factor each (every intermediate of a chain is itself a
    # side), each a _trace_middle slice sum with no np.einsum.  The values
    # are bit-identical in any partition order, equal the single-partition
    # route and, keep by keep, a call for that keep alone: a side's chain
    # must not depend on what else the call computes
    rng = np.random.default_rng(23)
    batch = np.array([haar_state(216, rng) for _ in range(5)])
    specs = [spec for _, spec in FIG3_CATALOG]

    def logged(real, log):
        def call(*a, **k):
            out = real(*a, **k)
            log.append((a, out))
            return out
        return call

    logs = {"_subset_purities": [], "_trace_middle": [], "matmul": [], "einsum": []}
    for owner, name in ((measures, "_subset_purities"), (measures, "_trace_middle"),
                        (np, "matmul"), (np, "einsum")):
        monkeypatch.setattr(owner, name, logged(getattr(owner, name), logs[name]))
    values = m_concurrences_pure(batch, specs)
    monkeypatch.undo()
    [((amps, dims, cuts), _)] = logs["_subset_purities"]
    assert len(cuts) == 31 and all(0 in keep for keep in cuts)
    assert sorted(a[0].shape[1] for a, _ in logs["matmul"]) == [8] + [9] * 3 + [12] * 9
    assert len(logs["_trace_middle"]) == 18 and not logs["einsum"]
    assert all(a[0].ndim - out.ndim == 2 for a, out in logs["_trace_middle"])
    catalog = measures._subset_purities(amps, dims, cuts)
    for keep in cuts:
        alone = measures._subset_purities(amps, dims, {keep})[keep]
        assert np.array_equal(alone, catalog[keep]), keep
    reordered = m_concurrences_pure(batch, specs[::-1])[::-1]
    for spec, got, again in zip(specs, values, reordered):
        assert np.array_equal(got, again)
        assert np.array_equal(got, m_concurrence_pure(batch, spec))
    # an empty batch gives empty arrays, as three_tangle does, for qubits,
    # for unit factors and for a composite batch of shape (2, 0)
    assert [v.shape for v in m_concurrences_pure(batch[:0], specs)] == [(0,)] * 6
    three = _all_partitions(3)
    empty = m_concurrences_pure(np.empty((0, 8)), three, (2, 2, 2))
    assert [v.shape for v in empty] == [(0,)] * len(three)
    empty = m_concurrences_pure(np.empty((0, 4)), [singletons_partition(8)], (1,) * 6 + (2, 2))
    assert [v.shape for v in empty] == [(0,)]
    assert [v.shape for v in m_concurrences_pure(np.empty((2, 0, 216)), specs)] == [(2, 0)] * 6


def _fig3_sweep(coeffs, grid=121):  # scan fig3's boosted GHZ amplitudes, (grid, 216)
    rotations = spin_rotations(np.linspace(0.0, math.pi / 2.0, grid))
    return boosted_amplitudes(compose(permutation_momentum(coeffs), ghz_state()), rotations)


def test_gram_products_contract_over_live_columns(monkeypatch):
    # a boost keeps every momentum label, so a sweep keeps the unboosted zero
    # pattern (48 of 216 amplitudes nonzero for the antisymmetric momentum, 8
    # for the product one), and each root of dimension 12, 9 and 8 (of 18, 24
    # and 27 columns) contracts only over the columns where some item is
    # nonzero; Haar states keep every column, and so do qubit roots, whose
    # whole-batch sums would regroup without the zero columns of GHZ states
    specs = [spec for _, spec in FIG3_CATALOG]
    calls = []
    real, real_qubit = np.matmul, measures._qubit_gram
    monkeypatch.setattr(np, "matmul",
                        lambda *a, **k: calls.append(a[0].shape[1:]) or real(*a, **k))
    for batch, (c12, c9, c8) in ((_fig3_sweep(antisymmetric_coeffs()), (12, 24, 6)),
                                 (_fig3_sweep(np.eye(6)[0]), (2, 8, 1)),
                                 (haar_state(216, 43, (5,)), (18, 24, 27))):
        calls.clear()
        m_concurrences_pure(batch, specs)
        assert sorted(calls) == [(8, c8)] + [(9, c9)] * 3 + [(12, c12)] * 9
    monkeypatch.setattr(measures, "_qubit_gram",
                        lambda up, down: calls.append(up.shape) or real_qubit(up, down))
    calls.clear()
    m_concurrences_pure(np.array([ghz_state()] * 3), _all_partitions(3))
    assert calls == [(3, 4)] * 3


def test_mixed_pattern_batch_items_match_their_single_calls():
    # a batch contracts over the union of its items' live columns, an item
    # alone over its own: the extra columns add exact zeros, but a BLAS kernel
    # that does not sum columns in order may regroup the rest.  So items whose
    # zero pattern is the batch's (the Haar rows here) are exact, and sweep
    # items and rows with random momentum blocks zeroed are within 1e-15
    rng = np.random.default_rng(53)
    sweep = boosted_amplitudes(compose(antisymmetric_momentum(), ghz_state()),
                               spin_rotations(rng.uniform(0.0, math.pi / 2, 6)))
    keep = rng.random((6, 3, 1, 3, 1, 3, 1)) < 0.5  # each row's kept momentum kets
    zeroed = (haar_state(216, rng, (6,)).reshape((6,) + COMPOSITE_DIMS) * keep).reshape(6, 216)
    zeroed /= np.linalg.norm(zeroed, axis=1, keepdims=True)
    batch = rng.permutation(np.concatenate([sweep, haar_state(216, rng, (4,)), zeroed]))
    specs = [spec for _, spec in FIG3_CATALOG]
    together = np.stack(m_concurrences_pure(batch, specs), axis=1)
    live = np.any(batch, axis=0)
    exact = 0
    for psi, got in zip(batch, together):
        alone = np.array(m_concurrences_pure(psi, specs))
        if np.array_equal(psi != 0, live):
            assert got.tobytes() == alone.tobytes()
            exact += 1
        assert np.max(np.abs(got - alone)) <= 1e-15
    assert exact == 4


# Factor dims whose roots are all qubits, with partitions that reach every
# cut holding factor 0 (for (1,)*6 + (2, 2), sides of unit factors are traced
# from a qubit root down to 1x1)
QUBIT_ROOT_CASES = [
    ((2, 2, 2), _all_partitions(3)),
    ((2, 3), _all_partitions(2)),
    ((3, 2), _all_partitions(2)),
    ((1,) * 6 + (2, 2), [singletons_partition(8), bipartition((0, 6), 8)]),
]


def test_qubit_roots_take_no_matmul(monkeypatch):
    # a qubit root's Gram is whole-batch sums, not one small zgemm per item:
    # a default check condition1 chunk (12 states + 1200 rotations) and the
    # two-factor cases make no np.matmul call at all
    rng = np.random.default_rng(37)
    calls = []
    real = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *a, **k: calls.append(a) or real(*a, **k))
    batch = haar_state(8, rng, (1212,))
    values = m_concurrences_pure(batch, _all_partitions(3), (2, 2, 2))
    assert [v.shape for v in values] == [(1212,)] * len(_all_partitions(3))
    for dims in ((2, 3), (3, 2)):
        m_concurrences_pure(haar_state(6, rng, (4,)), _all_partitions(2), dims)
    assert calls == []


def test_qubit_root_purities_match_partial_trace_oracle():
    # every cut's purity, from a qubit root (and its unit chains), against an
    # explicit partial trace of the projector; the empty batch gives (0,)
    rng = np.random.default_rng(41)
    for dims, specs in QUBIT_ROOT_CASES:
        batch = haar_state(math.prod(dims), rng, (5,))
        cuts = {keep for spec in specs for keep in measures._factor0_cuts(spec)}
        purities = measures._subset_purities(batch, dims, cuts)
        for keep in cuts:
            for vec, got in zip(batch, purities[keep]):
                red = partial_trace(projector(vec), dims, keep)
                assert abs(got - np.vdot(red, red).real) < 1e-15, (dims, keep)
        empty = measures._subset_purities(batch[:0], dims, cuts)
        assert all(empty[keep].shape == (0,) for keep in cuts)


def test_norms_are_taken_once(monkeypatch, capsys):
    # the unit rule's |psi|^2 is reused for |psi|^4 and a mixture's trace;
    # check condition1 validates the states and each chunk's rotated states
    # once for all invariants, after the one normalization of its Haar states
    calls = []
    real = linalg.row_norms
    for module in (linalg, states, measures, boost, classcheck, kinematics):
        if hasattr(module, "row_norms"):
            monkeypatch.setattr(module, "row_norms",
                                lambda v: calls.append(v.shape) or real(v))
    rng = np.random.default_rng(47)
    spins = haar_state(8, rng, (2, 3))
    composite = compose(antisymmetric_momentum(), ghz_state()).vector
    members = np.stack([composite, haar_state(216, rng)])
    calls.clear()
    for call in (lambda: m_concurrences_pure(spins, _all_partitions(3)),
                 lambda: m_concurrences_pure(composite, [singletons_partition(6)]),
                 lambda: three_tangle(spins),
                 lambda: MixedState(np.array([0.25, 0.75]), members)):
        call()
        assert len(calls) == 1
        calls.clear()
    assert cli.main(["check", "condition1"]) == 0
    assert calls == [(10, 8), (12, 8), (12, 100, 8)]


def test_purity_plan_is_cached_and_immutable(capsys):
    # the first scan builds the plan and the second reuses it, with the same
    # bytes; a second catalog call builds nothing, and a cached plan holds
    # only tuples and frozensets, so no caller can change it for the next
    measures._purity_plan.cache_clear()
    measures._factor0_cuts.cache_clear()
    outputs = []
    for _ in range(2):
        assert cli.main(["scan", "fig3", "--spin", "w"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert measures._purity_plan.cache_info().misses == 1
    specs = [spec for _, spec in FIG3_CATALOG]
    batch = np.array([haar_state(216, np.random.default_rng(31))])
    before = [f.cache_info().misses for f in (measures._purity_plan, measures._factor0_cuts)]
    m_concurrences_pure(batch, specs)
    after = [f.cache_info().misses for f in (measures._purity_plan, measures._factor0_cuts)]
    assert after == before

    def containers(value):
        if isinstance(value, (tuple, frozenset)):
            yield type(value)
            for item in value:
                yield from containers(item)
        else:
            assert value is None or isinstance(value, int), value

    cuts = frozenset(keep for spec in specs for keep in measures._factor0_cuts(spec))
    plan = measures._purity_plan(COMPOSITE_DIMS, cuts)
    assert set(containers(plan)) <= {tuple, frozenset}
    assert all(type(measures._factor0_cuts(spec)) is tuple for spec in specs)


def test_m_concurrences_pure_peak_memory_is_bounded(peak_bytes):
    # one buffer of three amplitude-sized rows per call holds a root's
    # amplitudes, their conjugate and its Gram product, and a chain keeps
    # only the reductions on its current path: a catalog call on Haar states
    # and on a sweep, and a call for one side, smaller or larger than its
    # complement, each peak below 3.5 batches of amplitudes
    rng = np.random.default_rng(29)
    batch = np.array([haar_state(216, rng) for _ in range(121)])
    specs = [spec for _, spec in FIG3_CATALOG]
    calls = [lambda psi=psi: m_concurrences_pure(psi, specs)
             for psi in (batch, _fig3_sweep(antisymmetric_coeffs()))] + [
        lambda keep=keep: measures._subset_purities(batch, COMPOSITE_DIMS, {keep})
        for keep in ((0,), (0, 2, 4), (0, 1, 2, 4))
    ]
    for call in calls:
        assert peak_bytes(call)[1] < 3.5 * batch.nbytes


def test_sqrt_radicand_noise_policy():
    assert _sqrt_radicand(4.0) == 2.0
    assert _sqrt_radicand(-1e-13) == 0.0  # numerical noise clamps to zero
    with pytest.raises(NumericError):
        _sqrt_radicand(-1e-6)


def test_witness_from_amplitudes_matches_density_route():
    # the batched fig2 path (rotations for a sweep of deltas, ensemble
    # amplitudes, witness from amplitudes) against one boosted 8x8
    # density per point and the matrix-element witness
    rng = np.random.default_rng(41)
    zero_weight = np.array([0.6, 0.0, 0.0, -0.8j, 0.0, 0.0])
    coeff_sets = (antisymmetric_coeffs(), zero_weight, np.eye(6)[0])
    deltas = np.concatenate(([0.0, math.pi / 2], rng.uniform(0, math.pi / 2, 6)))
    rotations = spin_rotations(deltas)
    worst = 0.0
    for coeffs in coeff_sets:
        for alpha in rng.uniform(0.0, math.pi, 4):
            spin = ghz_alpha(alpha)
            state = compose(permutation_momentum(coeffs), spin)
            chi = boosted_spin_terms(state, rotations).terms()
            for variant in ("symmetric", "as_printed"):
                batched = witness_from_amplitudes(chi, variant)
                assert batched.shape == deltas.shape
                for delta, value in zip(deltas, batched):
                    rho = boosted_spin_density_fast(
                        coeffs, spin, BoostScenario.from_angle(delta)
                    )
                    ref = ghz_witness(rho, variant=variant).value
                    worst = max(worst, abs(value - ref))
    assert worst < 1e-12


def test_witness_from_amplitudes_rejects_misshaped_terms():
    # a 1-D array, a last axis other than 8 and an empty ensemble (K = 0)
    for bad in (np.eye(8)[0], np.ones((2, 4)), np.empty((0, 8))):
        with pytest.raises(ShapeError):
            witness_from_amplitudes(bad)
    assert witness_from_amplitudes(np.empty((0, 3, 8))).shape == (0,)  # empty batch
