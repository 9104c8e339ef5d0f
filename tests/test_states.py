"""State constructors, partitions, and the JSON state-file format."""

import json
import math

import numpy as np
import pytest

from spinboost import (
    CompositeState,
    InputError,
    MixedState,
    PartitionSpec,
    ShapeError,
    StateFileError,
    ValidationError,
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
from spinboost.constants import COMPOSITE_DIMS, PERMUTATIONS, PERMUTATION_SIGNS
from spinboost.states import antisymmetric_coeffs


def haar_vec(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def test_ghz_family():
    g = ghz_state()
    assert g.shape == (8,)
    assert abs(g[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(g[7] - 1 / math.sqrt(2)) < 1e-15
    assert np.count_nonzero(g) == 2

    np.testing.assert_allclose(ghz_alpha(math.pi / 4), g, atol=1e-15)
    up = ghz_alpha(math.pi / 2)  # all spins up
    assert abs(up[0] - 1.0) < 1e-15
    down = ghz_alpha(0.0)  # all spins down
    assert abs(down[7] - 1.0) < 1e-15
    for alpha in np.linspace(0, math.pi, 13):
        assert abs(np.linalg.norm(ghz_alpha(alpha)) - 1.0) < 1e-14


def test_w_state():
    w = w_state()
    assert abs(np.linalg.norm(w) - 1.0) < 1e-15
    # one spin up among two down: binary indices 011, 101, 110
    assert sorted(np.flatnonzero(w)) == [3, 5, 6]
    np.testing.assert_allclose(w[[3, 5, 6]], 1 / math.sqrt(3), atol=1e-15)


def test_antisymmetric_coeffs_signs():
    c = antisymmetric_coeffs()
    assert c.shape == (6,)
    np.testing.assert_allclose(np.abs(c), 1 / math.sqrt(6), atol=1e-15)
    np.testing.assert_allclose(
        np.sign(c.real), PERMUTATION_SIGNS, atol=0
    )


def test_permutation_momentum_layout():
    c = np.zeros(6)
    c[0] = 1.0  # identity assignment: labels (A, B, C)
    m = permutation_momentum(c)
    assert m.shape == (27,)
    idx = (0 * 3 + 1) * 3 + 2  # flat index of |A B C>
    assert abs(m[idx] - 1.0) < 1e-15
    assert np.count_nonzero(m) == 1

    with pytest.raises(ShapeError):
        permutation_momentum(np.ones(5))
    with pytest.raises(ValidationError):
        permutation_momentum(np.ones(6))


def test_antisymmetric_momentum_sign_flips():
    m = antisymmetric_momentum().reshape(3, 3, 3)
    for a, b, c in PERMUTATIONS:
        # swapping any two particle labels flips the sign
        assert abs(m[a, b, c] + m[b, a, c]) < 1e-15
        assert abs(m[a, b, c] + m[a, c, b]) < 1e-15
        assert abs(m[a, b, c] + m[c, b, a]) < 1e-15
    # diagonal entries (repeated labels) vanish
    assert abs(m[0, 0, 1]) < 1e-15
    assert abs(m[2, 2, 2]) < 1e-15


def test_basis_momentum():
    m = basis_momentum((2, 0, 1))
    assert np.flatnonzero(m).tolist() == [(2 * 3 + 0) * 3 + 1]
    m2 = basis_momentum("CAB")
    np.testing.assert_allclose(m, m2)
    with pytest.raises(ShapeError):
        basis_momentum((0, 1))


def test_compose_interleaves_factors():
    rng = np.random.default_rng(2)
    mom = haar_vec(27, rng)
    spin = haar_vec(8, rng)
    state = compose(mom, spin)
    expected = np.einsum(
        "abc,xyz->axbycz", mom.reshape(3, 3, 3), spin.reshape(2, 2, 2)
    )
    np.testing.assert_allclose(
        state.vector.reshape(COMPOSITE_DIMS), expected, atol=1e-15
    )
    assert state.vector.shape == (216,)
    assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-13


def test_composite_reduced_densities():
    rng = np.random.default_rng(3)
    mom = haar_vec(27, rng)
    spin = haar_vec(8, rng)
    state = compose(mom, spin)
    rho_s = state.spin_density()
    m = state.momentum_spin_matrix()
    rho_m = m @ m.conj().T  # spins traced out
    # product states reduce to pure marginals
    np.testing.assert_allclose(rho_s, np.outer(spin, spin.conj()), atol=1e-14)
    np.testing.assert_allclose(rho_m, np.outer(mom, mom.conj()), atol=1e-14)

    # entangled momentum-spin state: marginals still unit trace, Hermitian
    vec = haar_vec(216, rng)
    rho_s = CompositeState(vec).spin_density()
    assert rho_s.shape == (8, 8)
    assert abs(np.trace(rho_s) - 1.0) < 1e-13
    np.testing.assert_allclose(rho_s, rho_s.conj().T, atol=1e-14)
    evals = np.linalg.eigvalsh(rho_s)
    assert evals.min() > -1e-13


def test_momentum_spin_matrix_consistency():
    rng = np.random.default_rng(4)
    vec = haar_vec(216, rng)
    state = CompositeState(vec)
    m = state.momentum_spin_matrix()
    assert m.shape == (27, 8)
    np.testing.assert_allclose(m.T @ m.conj(), state.spin_density(), atol=1e-14)
    # the momentum reduction from m equals an explicit trace over the spins
    t = vec.reshape(COMPOSITE_DIMS)
    rho_m = np.einsum("axbycz,dxeyfz->abcdef", t, t.conj()).reshape(27, 27)
    np.testing.assert_allclose(m @ m.conj().T, rho_m, atol=1e-14)


def test_every_spin_density_is_the_one_mixture_kernel():
    # each site that sums sum_k |chi_k><chi_k| equals states._mixture of its
    # own terms bit for bit, and boost and classcheck keep no mixture of
    # their own
    from spinboost import boost, classcheck, states
    from spinboost.boost import boosted_spin_density_fast, boosted_spin_terms
    from spinboost.kinematics import BoostScenario

    mixture = states._mixture
    for module in (boost, classcheck):
        assert getattr(module, "_mixture", mixture) is mixture, module.__name__
    rng = np.random.default_rng(21)
    comp = CompositeState(haar_vec(216, rng))
    assert np.array_equal(comp.spin_density(), mixture(comp.momentum_spin_matrix()))
    weights = rng.dirichlet(np.ones(3))
    vectors = np.array([haar_vec(216, rng) for _ in range(3)])
    members = [mixture(CompositeState(v).momentum_spin_matrix()) for v in vectors]
    assert np.array_equal(
        MixedState(weights, vectors).spin_density(),
        np.sum(weights[:, None, None] * np.array(members), axis=0),
    )
    coeffs, spin, sc = antisymmetric_coeffs(), haar_vec(8, rng), BoostScenario(0.7)
    terms = boosted_spin_terms(
        compose(permutation_momentum(coeffs), spin), sc.rotations()
    ).terms()
    assert np.array_equal(boosted_spin_density_fast(coeffs, spin, sc), mixture(terms))
    ens = boost.composite_spin_ensemble(comp, sc)
    assert np.array_equal(ens.mix(), mixture(ens.terms()))
    # sample_biseparable's draws, replayed: weights, per-term cuts, terms
    draws = np.random.default_rng(5)
    weights = draws.dirichlet(np.ones(4))
    cuts = draws.integers(0, 3, size=4)
    terms = classcheck._biseparable_terms(cuts, weights, draws)
    assert np.array_equal(classcheck.sample_biseparable(None, 4, 5), mixture(terms))


def test_composite_state_validation():
    with pytest.raises(ShapeError):
        CompositeState(np.ones(8))
    v = np.zeros(216)
    v[0] = 2.0
    with pytest.raises(ValidationError):
        CompositeState(v)
    v[0] = 1e200  # |psi|^2 overflows to inf, which fails without a warning
    with pytest.raises(ValidationError, match="inf"):
        CompositeState(v)


def test_mixed_state_validation_and_density():
    rng = np.random.default_rng(5)
    s1 = CompositeState(haar_vec(216, rng))
    s2 = CompositeState(haar_vec(216, rng))
    vectors = (s1.vector, s2.vector)
    mix = MixedState(weights=(0.3, 0.7), vectors=vectors)
    expected = 0.3 * s1.spin_density() + 0.7 * s2.spin_density()
    np.testing.assert_allclose(mix.spin_density(), expected, atol=1e-14)

    with pytest.raises(ValidationError):
        MixedState(weights=(0.5, 0.6), vectors=vectors)
    with pytest.raises(ValidationError):
        MixedState(weights=(-0.1, 1.1), vectors=vectors)
    with pytest.raises(ShapeError):
        MixedState(weights=(1.0,), vectors=())
    for weights in ((math.nan, 1.0), (0.5, math.nan)):
        with pytest.raises(ValidationError):
            MixedState(weights=weights, vectors=vectors)
    # every member row is checked for normalization, NaN included
    with pytest.raises(ValidationError):
        MixedState([1.0], (np.ones(216),))  # norm sqrt(216)
    for bad in (1.001 * s2.vector, np.where(np.arange(216) == 0, np.nan, s2.vector)):
        with pytest.raises(ValidationError):
            MixedState(weights=(0.3, 0.7), vectors=(s1.vector, bad))
    with pytest.raises(ShapeError):
        MixedState([1.0], np.ones(8) / math.sqrt(8))


def test_nan_amplitudes_fail_normalization():
    # every normalization check must reject NaN, which compares false
    # against any tolerance
    with pytest.raises(ValidationError):
        CompositeState(np.full(216, np.nan))
    with pytest.raises(ValidationError):
        compose(antisymmetric_momentum(), np.full(8, np.nan))
    with pytest.raises(ValidationError):
        permutation_momentum([math.nan, 0, 0, 0, 0, 1])
    with pytest.raises(InputError):
        ghz_alpha(math.nan)
    with pytest.raises(InputError):
        ghz_alpha(math.inf)


def test_partition_spec_basics():
    p = particle_partition()
    assert p.parts == ((0, 1), (2, 3), (4, 5))
    assert str(p) == "0,1|2,3|4,5"
    assert p.num_parts == 3
    assert p.num_factors == 6

    assert spins_vs_momenta_partition().parts == ((1, 3, 5), (0, 2, 4))
    assert singletons_partition(3).parts == ((0,), (1,), (2,))
    assert bipartition((1,), 6).parts == ((1,), (0, 2, 3, 4, 5))


def test_partition_proper_subsets_count():
    for spec, m in [
        (particle_partition(), 3),
        (singletons_partition(6), 6),
        (bipartition((0, 2), 4), 2),
    ]:
        subsets = list(spec.proper_subsets())
        assert len(subsets) == 2**m - 2
        assert len(set(subsets)) == len(subsets)
        flat_all = tuple(sorted(i for part in spec.parts for i in part))
        for s in subsets:
            assert 0 < len(s) < len(flat_all)


def test_partition_validation():
    with pytest.raises(ShapeError):
        PartitionSpec(((0, 1),))  # single part
    with pytest.raises(ShapeError):
        PartitionSpec(((0, 1), (1, 2)))  # overlap
    with pytest.raises(ShapeError):
        PartitionSpec(((0,), (2,)))  # gap
    with pytest.raises(ShapeError):
        PartitionSpec(((0,), ()))  # empty part


def test_state_file_roundtrip_composite(tmp_path):
    rng = np.random.default_rng(6)
    state = compose(haar_vec(27, rng), haar_vec(8, rng))
    path = tmp_path / "state.json"
    write_state(state, path)
    back = read_state(path)
    assert isinstance(back, CompositeState)
    np.testing.assert_allclose(back.vector, state.vector, atol=0)  # exact


def test_state_file_roundtrip_mixed(tmp_path):
    rng = np.random.default_rng(7)
    mix = MixedState(
        weights=(0.25, 0.75),
        vectors=np.array([haar_vec(216, rng), haar_vec(216, rng)]),
    )
    path = tmp_path / "mixed.json"
    write_state(mix, path)
    back = read_state(path)
    assert isinstance(back, MixedState)
    np.testing.assert_allclose(back.weights, mix.weights, atol=0)
    np.testing.assert_allclose(back.vectors, mix.vectors, atol=0)


def test_state_file_roundtrip_spin(tmp_path):
    path = tmp_path / "spin.json"
    write_state(w_state(), path)
    back = read_state(path)
    assert isinstance(back, np.ndarray)
    np.testing.assert_allclose(back, w_state(), atol=0)


def test_state_file_roundtrip_spin_density(tmp_path):
    # write_state renders an 8x8 density as the boost --spin-out document,
    # and read_state returns it bit for bit
    rng = np.random.default_rng(8)
    rho = compose(haar_vec(27, rng), haar_vec(8, rng)).spin_density()
    path = tmp_path / "rho.json"
    write_state(rho, path)
    doc = {"dims": [2, 2, 2],
           "matrix": [[[z.real, z.imag] for z in row] for row in rho.tolist()]}
    assert path.read_text() == json.dumps(doc) + "\n"
    back = read_state(path)
    assert back.dtype == rho.dtype and np.array_equal(back, rho)
    with pytest.raises(ShapeError):  # not 8x8, nor 8 amplitudes
        write_state(np.eye(4) / 4.0, path)


def test_state_file_diagnostics(tmp_path):
    path = tmp_path / "bad.json"

    path.write_text("{not json")
    with pytest.raises(StateFileError, match="valid JSON"):
        read_state(path)

    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(StateFileError, match="object"):
        read_state(path)

    # wrong amplitude count
    path.write_text(json.dumps({"dims": [2, 2, 2], "amps": [[1.0, 0.0]] * 7}))
    with pytest.raises(StateFileError, match="amplitude"):
        read_state(path)

    # malformed amplitude entry
    amps = [[1.0, 0.0]] * 8
    amps[3] = [1.0]
    path.write_text(json.dumps({"dims": [2, 2, 2], "amps": amps}))
    with pytest.raises(StateFileError, match=r"amps\[3\]"):
        read_state(path)

    # JSON booleans are not numbers, although bool subclasses int
    amps = [[0.0, 0.0]] * 8
    amps[0] = [True, False]
    path.write_text(json.dumps({"dims": [2, 2, 2], "amps": amps}))
    with pytest.raises(StateFileError, match=r"amps\[0\]"):
        read_state(path)

    # not normalized
    path.write_text(json.dumps({"dims": [2, 2, 2], "amps": [[1.0, 0.0]] * 8}))
    with pytest.raises(StateFileError, match="norm"):
        read_state(path)

    # a finite amplitude whose square overflows: not normalized, no warning
    amps = [[0.0, 0.0]] * 8
    amps[0] = [1e200, 0]
    path.write_text(json.dumps({"dims": [2, 2, 2], "amps": amps}))
    with pytest.raises(StateFileError, match=r"not normalized: \|psi\|\^2 = inf"):
        read_state(path)

    # a JSON integer beyond float range
    amps = [[0.0, 0.0]] * 8
    amps[0] = [10**400, 0]
    path.write_text(json.dumps({"dims": [2, 2, 2], "amps": amps}))
    with pytest.raises(StateFileError, match="too large") as info:
        read_state(path)
    assert str(path) in str(info.value)

    with pytest.raises(StateFileError, match="cannot read"):
        read_state(tmp_path / "missing.json")


def test_state_file_rejects_bad_ensemble(tmp_path):
    path = tmp_path / "ens.json"
    path.write_text(json.dumps({"ensemble": []}))
    with pytest.raises(StateFileError):
        read_state(path)
    path.write_text(json.dumps({"ensemble": [{"amps": []}]}))
    with pytest.raises(StateFileError, match="weight"):
        read_state(path)
    amps = [[0.0, 0.0]] * 216
    amps[0] = [1.0, 0.0]
    path.write_text(json.dumps({"ensemble": [{"weight": True, "amps": amps}]}))
    with pytest.raises(StateFileError, match="weight must be > 0"):
        read_state(path)
    path.write_text(json.dumps({"ensemble": [{"weight": 10**400, "amps": amps}]}))
    with pytest.raises(StateFileError, match="too large") as info:
        read_state(path)
    assert str(path) in str(info.value)
    # weights and member norms are MixedState's checks, reported with the path
    for weight, scale, message in ((0.9, 1.0, "sum to"), (1.0, 2.0, "normalized")):
        member = {"weight": weight, "amps": [[scale * a, 0.0] for a, _ in amps]}
        path.write_text(json.dumps({"ensemble": [member]}))
        with pytest.raises(StateFileError, match=message) as info:
            read_state(path)
        assert str(path) in str(info.value)


def _composite_amps():
    amps = [[0.0, 0.0] for _ in range(216)]
    amps[0] = [1.0, 0.0]
    return amps


_PAIR_MESSAGE = "amps[5] is not a [re, im] pair"


@pytest.mark.parametrize("bad, message", [
    ("10", _PAIR_MESSAGE),  # a two-character string
    (None, _PAIR_MESSAGE),
    ([1.0, 0.0, 0.0], _PAIR_MESSAGE),
    ({"re": 1.0, "im": 0.0}, _PAIR_MESSAGE),  # an object with two keys
    ([[1.0, 0.0], 0.0], _PAIR_MESSAGE),
    (True, _PAIR_MESSAGE),
    ([0.0, True], _PAIR_MESSAGE),
    ([float("nan"), 0.0], "non-finite amplitude"),
])
@pytest.mark.parametrize("member", [None, 1])
def test_state_file_malformed_pair_messages(bad, message, member, tmp_path):
    # the bad pair sits at index 5 of a composite file's amps, or of the
    # second member of an ensemble; every message names the file and place
    path = tmp_path / "bad.json"
    amps = _composite_amps()
    amps[5] = bad
    if member is None:
        doc, where = {"dims": list(COMPOSITE_DIMS), "amps": amps}, f"{path}"
    else:
        members = [{"weight": 0.5, "amps": _composite_amps()},
                   {"weight": 0.5, "amps": amps}]
        doc, where = {"ensemble": members}, f"{path}: ensemble[{member}]"
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFileError) as info:
        read_state(path)
    assert str(info.value) == f"{where}: {message}"


@pytest.mark.parametrize("member", [None, 1])
def test_state_file_pair_beyond_float_range(member, tmp_path):
    path = tmp_path / "bad.json"
    amps = _composite_amps()
    amps[5] = [10**400, 0]
    if member is None:
        doc = {"dims": list(COMPOSITE_DIMS), "amps": amps}
    else:
        doc = {"ensemble": [{"weight": 0.5, "amps": _composite_amps()},
                            {"weight": 0.5, "amps": amps}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFileError, match="too large") as info:
        read_state(path)
    assert str(info.value).startswith(f"{path}: ")


def _matrix_doc(rho):
    return {"dims": [2, 2, 2], "matrix": np.stack([rho.real, rho.imag], -1).tolist()}


def test_state_file_reads_spin_density_matrix(tmp_path):
    # the form `boost --spin-out` writes; the JSON floats round-trip exactly
    members = (ghz_state(), w_state(), haar_vec(8, np.random.default_rng(3)))
    rho = sum(q * np.outer(v, v.conj()) for q, v in zip((0.5, 0.3, 0.2), members))
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(_matrix_doc(rho)))
    back = read_state(path)
    assert back.shape == (8, 8)
    np.testing.assert_array_equal(back, rho)


def _set(doc, row, col, pair):
    doc["matrix"][row][col] = pair


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["matrix"].pop(), "matrix must have 8 rows"),
    (lambda d: d.update(matrix="rows"), "matrix must have 8 rows"),
    (lambda d: d["matrix"][3].pop(), r"matrix\[3\]: expected 8 amplitude pairs"),
    (lambda d: _set(d, 2, 5, [True, False]), r"matrix\[2\]: amps\[5\] is not a"),
    (lambda d: _set(d, 1, 1, [float("inf"), 0.0]), r"matrix\[1\]: non-finite"),
    (lambda d: _set(d, 0, 7, [0.3, 0.0]), "not a density matrix"),  # not Hermitian
    (lambda d: _set(d, 0, 0, [0.7, 0.0]), "not a density matrix"),  # trace 1.2
    (lambda d: (_set(d, 0, 0, [1.2, 0.0]), _set(d, 1, 1, [-0.2, 0.0])),
     "not a density matrix"),  # an eigenvalue of -0.2
])
def test_state_file_rejects_bad_spin_density_matrix(edit, message, tmp_path):
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 0.5
    rho[7, 7] = 0.5
    doc = _matrix_doc(rho)
    edit(doc)
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFileError, match=message) as info:
        read_state(path)
    assert str(info.value).startswith(f"{path}: ")
