"""Linear-algebra layer: partial trace, Hermitian eigensolver, density checks.

The eigensolver wraps numpy.linalg.eigh, so it is checked against
identities (reconstruction, unitarity, known spectra) rather than against
numpy itself.
"""

import numpy as np
import pytest

from spinboost import (
    NumericError,
    ShapeError,
    ValidationError,
    hermitian_eigen,
    is_density_matrix,
    partial_trace,
)
from spinboost.linalg import (
    dagger,
    frob,
    apply_local,
    kron,
    projector,
    purity_unchecked,
    require_density,
)


def random_state(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(dim, rng, rank=None):
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def ptrace_oracle(rho, dims, keep):
    """Reference partial trace via einsum reshuffling."""
    n = len(dims)
    keep = sorted(keep)
    t = rho.reshape(*dims, *dims)
    for ax in reversed([i for i in range(n) if i not in keep]):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    d = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(d, d)


def test_dagger_frob_projector():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    np.testing.assert_allclose(dagger(a), a.conj().T)
    assert abs(frob(a) - np.linalg.norm(a)) < 1e-13
    v = random_state(4, rng)
    p = projector(v)
    np.testing.assert_allclose(p, np.outer(v, v.conj()), atol=1e-15)
    np.testing.assert_allclose(p @ p, p, atol=1e-14)


def test_kron_matches_numpy():
    rng = np.random.default_rng(1)
    mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in (2, 3, 2)]
    expected = np.kron(np.kron(mats[0], mats[1]), mats[2])
    np.testing.assert_allclose(kron(mats), expected, atol=1e-13)
    with pytest.raises(ShapeError):
        kron([])
    with pytest.raises(ShapeError):
        kron([np.ones(2)])


def _random_matrices(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("dims", [(3, 2, 4), (2, 2, 2), (2,), (2, 3)])
@pytest.mark.parametrize(
    "factor_batch, amp_batch",
    [((5,), ()), ((), (5,)), ((5, 1), (1, 4)), ((4,), (3, 4)), ((61, 6), (6,))],
    ids=["factors", "amplitudes", "outer", "shared", "fig2"],
)
def test_apply_local_matches_kron(dims, factor_batch, amp_batch):
    # factor i acts on tensor axis i, and batch axes of factors and amplitudes
    # broadcast.  Qubit factors take the elementwise step, others the matmul step:
    # (2,) runs the first alone, (2, 3) follows it with the second, and
    # "fig2" is scan fig2's (61, 6) rotations on its 6 spin rows
    rng = np.random.default_rng(sum(dims) + len(factor_batch) + 3 * len(amp_batch))
    factors = [_random_matrices(rng, factor_batch + (d, d)) for d in dims]
    amps = _random_matrices(rng, amp_batch + (int(np.prod(dims)),))
    out = apply_local(factors, amps, dims)
    batch = np.broadcast_shapes(factor_batch, amp_batch)
    assert out.shape == batch + amps.shape[-1:]
    for idx in np.ndindex(*batch):
        fs = [np.broadcast_to(f, batch + f.shape[-2:])[idx] for f in factors]
        a = np.broadcast_to(amps, batch + amps.shape[-1:])[idx]
        np.testing.assert_allclose(out[idx], kron(fs) @ a, atol=1e-13)
    with pytest.raises(ShapeError):
        apply_local(factors[:-1], amps, dims)
    with pytest.raises(ShapeError):
        apply_local(factors, amps[..., :-1], dims)


@pytest.mark.parametrize("keep", [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)])
def test_partial_trace_against_einsum_oracle(keep):
    dims = (3, 2, 4)
    rng = np.random.default_rng(hash(keep) % 2**32)
    rho = random_density(24, rng)
    got = partial_trace(rho, dims, keep)
    np.testing.assert_allclose(got, ptrace_oracle(rho, dims, keep), atol=1e-13)
    assert abs(np.trace(got) - 1.0) < 1e-12


def test_partial_trace_mixed_factor_sizes():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = rng.integers(2, 5)
        dims = tuple(int(d) for d in rng.integers(2, 4, size=n))
        total = int(np.prod(dims))
        rho = random_density(total, rng)
        n_keep = int(rng.integers(1, n + 1))
        keep = tuple(sorted(rng.choice(n, size=n_keep, replace=False)))
        got = partial_trace(rho, dims, keep)
        np.testing.assert_allclose(got, ptrace_oracle(rho, dims, keep), atol=1e-12)


def test_partial_trace_product_state_factorizes():
    rng = np.random.default_rng(11)
    a = random_state(3, rng)
    b = random_state(2, rng)
    rho = projector(np.kron(a, b))
    np.testing.assert_allclose(
        partial_trace(rho, (3, 2), (0,)), projector(a), atol=1e-14
    )
    np.testing.assert_allclose(
        partial_trace(rho, (3, 2), (1,)), projector(b), atol=1e-14
    )
    # Tr_B(rho_A (x) rho_B) = rho_A for mixed factors too
    rho_a, rho_b = random_density(3, rng), random_density(4, rng)
    joint = np.kron(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(joint, (3, 4), (0,)), rho_a, atol=1e-14)
    np.testing.assert_allclose(partial_trace(joint, (3, 4), (1,)), rho_b, atol=1e-14)


def test_partial_trace_keep_order_is_canonical():
    rng = np.random.default_rng(13)
    rho = random_density(12, rng)
    np.testing.assert_allclose(
        partial_trace(rho, (3, 2, 2), (2, 0)),
        partial_trace(rho, (3, 2, 2), (0, 2)),
    )


def test_partial_trace_shape_errors():
    rho = np.eye(6) / 6.0
    with pytest.raises(ShapeError):
        partial_trace(rho, (2, 2), (0,))
    with pytest.raises(ShapeError):
        partial_trace(rho, (3, 2), (5,))


def test_hermitian_eigen_reconstructs_known_spectra():
    rng = np.random.default_rng(21)
    worst = 0.0
    for trial in range(60):
        n = int(rng.integers(2, 17))
        # H = Q diag(lam) Q^H has the spectrum lam by construction
        lam = rng.normal(size=n) * 3.0
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(g)
        h = q @ np.diag(lam) @ q.conj().T
        h = (h + h.conj().T) / 2.0
        w, v = hermitian_eigen(h)
        np.testing.assert_allclose(w, np.sort(lam)[::-1], atol=1e-12 * frob(h))
        worst = max(worst, frob(v.conj().T @ v - np.eye(n)))
        worst = max(worst, frob(v @ np.diag(w) @ v.conj().T - h))
        # a generic Hermitian matrix: descending order and reconstruction
        h = random_hermitian(n, rng)
        w, v = hermitian_eigen(h)
        assert np.all(np.diff(w) <= 0.0)
        worst = max(worst, frob(v @ np.diag(w) @ v.conj().T - h))
    assert worst < 1e-10


def test_hermitian_eigen_degenerate_and_diagonal():
    w, v = hermitian_eigen(np.eye(4))
    np.testing.assert_allclose(w, np.ones(4))
    np.testing.assert_allclose(v @ v.conj().T, np.eye(4), atol=1e-14)
    d = np.diag([3.0, -1.0, 2.0, 2.0])
    w, _ = hermitian_eigen(d)
    np.testing.assert_allclose(w, [3.0, 2.0, 2.0, -1.0])


def test_hermitian_eigen_rejects_bad_input():
    with pytest.raises(ShapeError):
        hermitian_eigen(np.ones((2, 3)))
    bad = [
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.full((4, 4), np.nan),  # NaN must fail the guard, not reach LAPACK
        np.diag([np.inf, 1.0, 1.0, 1.0]),
    ]
    for m in bad:  # the suite turns warnings into errors, so none may be raised
        with pytest.raises(ValidationError):
            hermitian_eigen(m)


def test_hermitian_eigen_nonconvergence_raises(monkeypatch):
    # LAPACK reports nonconvergence as LinAlgError; callers see NumericError
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    rng = np.random.default_rng(3)
    with pytest.raises(NumericError):
        hermitian_eigen(random_hermitian(8, rng))


def test_density_check_nonconvergence_raises(monkeypatch):
    # the density check's eigenvalue solver reports nonconvergence as
    # LinAlgError too; callers see NumericError
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    rng = np.random.default_rng(3)
    with pytest.raises(NumericError):
        is_density_matrix(random_density(8, rng))


def test_density_check_takes_eigenvalues_only(monkeypatch):
    # min_eigenvalue is hermitian_eigen's smallest eigenvalue, from a solver
    # that forms no eigenvectors: numpy.linalg.eigh is never called
    rng = np.random.default_rng(41)
    rhos = [random_density(d, rng, rank) for d in (2, 5, 8) for rank in (1, 2, d)]
    expected = [hermitian_eigen(rho)[0][-1] for rho in rhos]
    monkeypatch.setattr(np.linalg, "eigh", None)
    for rho, w_min in zip(rhos, expected):
        check = is_density_matrix(rho)
        assert check
        assert abs(check.min_eigenvalue - w_min) <= 1e-12


def test_density_checks():
    rng = np.random.default_rng(31)
    rho = random_density(5, rng)
    rep = is_density_matrix(rho)
    assert rep and rep.ok
    assert rep.min_eigenvalue > -1e-12

    assert not is_density_matrix(rho * 2.0)  # trace 2
    assert not is_density_matrix(rho + 0.1j * np.eye(5))  # not Hermitian
    neg = np.diag([1.2, -0.2])
    assert not is_density_matrix(neg)  # negative eigenvalue


def _non_finite_densities():
    # 8x8 matrices, each a valid density but for one inf or NaN entry
    # (inf - inf on a diagonal is NaN; an off-diagonal inf is not)
    for i, j in ((0, 0), (3, 3), (0, 7), (5, 2)):
        for bad in (np.inf, -np.inf, np.nan, complex(np.inf, np.inf)):
            m = np.eye(8, dtype=np.complex128) / 8.0
            m[i, j] = bad
            yield m
    yield np.diag([np.inf, -np.inf, 1, 0, 0, 0, 0, 0]).astype(np.complex128)
    yield np.full((8, 8), np.inf)


def test_density_check_rejects_non_finite_entries():
    # each fails the check, or raises ValidationError, with no warning (the
    # suite turns warnings into errors), whether the witness checks or not
    from spinboost.measures import ghz_witness

    for m in _non_finite_densities():
        check = is_density_matrix(m)
        assert not check and not check.ok
        with pytest.raises(ValidationError, match="not a density matrix"):
            require_density(m)
        with pytest.raises(ValidationError, match="not a density matrix"):
            ghz_witness(m)


def test_purity_range_and_values():
    rng = np.random.default_rng(37)
    v = random_state(6, rng)
    assert abs(purity_unchecked(projector(v)) - 1.0) < 1e-12
    assert abs(purity_unchecked(np.eye(4) / 4.0) - 0.25) < 1e-14
    rho = random_density(6, rng)
    require_density(rho)
    p = purity_unchecked(rho)
    assert 1.0 / 6.0 - 1e-12 <= p <= 1.0 + 1e-12
    assert abs(p - np.trace(rho @ rho).real) < 1e-14
    with pytest.raises(ValidationError):
        require_density(np.eye(3))  # trace 3
