"""Dense linear algebra contracts: factorization, solves, eigenvalues, CG."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from scipy.linalg.blas import dsyrk

from gpsgd import linalg
from gpsgd.kernels import KernelSpec, kernel_matrix
from gpsgd.linalg import (
    CGBreakdownError,
    NotPositiveDefiniteError,
    cg_solve,
    cholesky,
    forward_solve,
    inverse,
    log_det,
    pivoted_cholesky,
    solve,
    sym_eigenvalues,
    two_sided_solve,
    woodbury_preconditioner,
)

RNG = np.random.default_rng(77)


def random_spd(n, rng=RNG):
    B = rng.normal(size=(n, n))
    return B @ B.T + n * np.eye(n)


def test_cholesky_scalar():
    assert np.allclose(cholesky(np.array([[4.0]])).lower, [[2.0]], rtol=1e-14)


def test_cholesky_identity():
    factor = cholesky(np.eye(5))
    assert np.allclose(factor.lower, np.eye(5))


def test_cholesky_reconstruction():
    A = random_spd(8)
    factor = cholesky(A)
    assert np.max(np.abs(factor.lower @ factor.lower.T - A)) < 1e-10 * np.max(np.abs(A))
    assert np.all(np.diag(factor.lower) > 0)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cholesky_rejects_non_finite(bad):
    A = random_spd(6)
    A[4, 1] = A[1, 4] = bad
    with pytest.raises(NotPositiveDefiniteError, match=r"2 non-finite entries, the first at \(1, 4\)"):
        cholesky(A)


def test_cholesky_takes_finite_entries_whose_sum_overflows():
    with np.errstate(all="raise"):
        factor = cholesky(np.diag([1e308, 1e308]))
    assert np.array_equal(factor.lower, np.diag([math.sqrt(1e308)] * 2))


@pytest.mark.parametrize("n", [1, 16, 127, 128, 129, 300, 512])
def test_factor_solves_and_inverse_match_scipy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    X = rng.uniform(-2.0, 2.0, size=(n, 4))
    K = kernel_matrix(KernelSpec.rbf((1.0, 0.7, 1.3, 0.9)), X) + 0.1 * np.eye(n)
    L = scipy.linalg.cholesky(K, lower=True, check_finite=False)
    factor = cholesky(K)
    assert np.array_equal(factor.lower, L)
    for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
        z = scipy.linalg.solve_triangular(L, b, lower=True)
        assert np.array_equal(forward_solve(factor, b), z)
        assert np.array_equal(solve(factor, b),
                              scipy.linalg.solve_triangular(L, z, lower=True, trans="T"))
    inv, info = scipy.linalg.lapack.dpotri(L, lower=1)
    assert info == 0
    lower = np.tril(inv)
    got = inverse(factor)
    assert np.array_equal(got, lower + np.tril(lower, -1).T)
    assert got.flags.c_contiguous


@pytest.mark.parametrize("n", [1, 16, 128, 129, 300])
@pytest.mark.parametrize("upper_only", [False, True])
def test_unclean_factor_reads_as_the_clean_one_bit_for_bit(n, upper_only):
    # dpotrf with clean=0 leaves the strict upper triangle as K held it: for
    # the upper-only K of prediction that is zero, for a full K its mirror.
    # The triangle readers must not see it.
    rng = np.random.default_rng(n)
    X = rng.uniform(-2.0, 2.0, size=(n, 4))
    K = kernel_matrix(KernelSpec.rbf((1.0, 0.7, 1.3, 0.9)), X) + 0.1 * np.eye(n)
    clean = cholesky(K)
    given = np.triu(K) if upper_only else K.copy()
    unclean = cholesky(given, overwrite=True, clean=False)
    assert np.shares_memory(unclean.lower, given)
    assert np.array_equal(np.tril(unclean.lower), clean.lower)
    assert np.array_equal(np.triu(unclean.lower, 1), np.tril(given, -1).T)
    assert log_det(unclean) == log_det(clean)
    D = rng.normal(size=(n, n))
    D += D.T
    assert np.array_equal(two_sided_solve(unclean, D), two_sided_solve(clean, D))
    for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
        assert np.array_equal(forward_solve(unclean, b), forward_solve(clean, b))
        assert np.array_equal(solve(unclean, b), solve(clean, b))


def _layouts(n):
    """A symmetric positive definite matrix in each memory layout the
    factor and the eigensolve take: C order, Fortran order, 1 x 1 and a
    strided view. Each call returns fresh arrays."""
    rng = np.random.default_rng(n)
    X = rng.uniform(-2.0, 2.0, size=(2 * n, 3))
    K = kernel_matrix(KernelSpec.rbf((1.0, 0.7, 1.3)), X) + 0.1 * np.eye(2 * n)
    return {"C": K[:n, :n].copy(), "F": np.asfortranarray(K[:n, :n]),
            "1x1": np.array([[2.5]]), "strided": K[::2, ::2]}


@pytest.mark.parametrize("layout", ["C", "F", "1x1", "strided"])
@pytest.mark.parametrize("n", [16, 300])
def test_factor_and_eigensolve_in_place_match_the_copying_calls_bit_for_bit(layout, n):
    K = _layouts(n)[layout]
    before = K.copy()
    L = cholesky(K).lower
    values = sym_eigenvalues(K)
    assert np.array_equal(K, before)   # the default calls leave K as it was
    assert np.array_equal(L, scipy.linalg.cholesky(before, lower=True, check_finite=False))
    assert np.array_equal(values, np.linalg.eigvalsh(before)[::-1])
    K = _layouts(n)[layout]
    factor = cholesky(K, overwrite=True)
    assert np.array_equal(factor.lower, L)
    if layout in ("C", "F"):   # contiguous: factored in K's own buffer
        assert np.shares_memory(factor.lower, K)
    assert np.array_equal(sym_eigenvalues(_layouts(n)[layout], overwrite=True), values)


@pytest.mark.parametrize("overwrite", [False, True])
def test_cholesky_reads_the_lower_triangle_of_a_fortran_ordered_matrix(overwrite):
    # woodbury_preconditioner's inner matrix comes from dsyrk(lower=1): only
    # its lower triangle is set, so it must reach dpotrf untransposed
    L = np.asfortranarray(np.random.default_rng(5).normal(size=(40, 12)))
    inner = dsyrk(1.0, L, trans=1, lower=1)
    assert inner.flags.f_contiguous and not np.triu(inner, 1).any()
    inner.flat[::inner.shape[0] + 1] += 0.5
    full = np.tril(inner) + np.tril(inner, -1).T
    expected = scipy.linalg.cholesky(full, lower=True, check_finite=False)
    assert np.array_equal(cholesky(inner, overwrite=overwrite).lower, expected)


def test_cholesky_names_the_failed_minor():
    with pytest.raises(NotPositiveDefiniteError, match="2-th leading minor"):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_inverse_of_factor():
    for n in (1, 7, 64):
        A = random_spd(n)
        inv = inverse(cholesky(A))
        assert np.array_equal(inv, inv.T)
        assert np.max(np.abs(A @ inv - np.eye(n))) < 1e-12


def test_solve_identity_and_scalar():
    factor = cholesky(np.eye(3))
    b = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(solve(factor, b), b)
    assert solve(cholesky(np.array([[5.0]])), np.array([10.0])) == pytest.approx([2.0])


def test_solve_residual_vector_and_matrix():
    A = random_spd(16)
    factor = cholesky(A)
    b = RNG.normal(size=16)
    x = solve(factor, b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-8
    B = RNG.normal(size=(16, 4))
    X = solve(factor, B)
    assert np.linalg.norm(A @ X - B) / np.linalg.norm(B) < 1e-8


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        solve(cholesky(np.eye(3)), np.ones(4))


def test_solve_residual_at_larger_sizes():
    for n in (64, 256):
        A = random_spd(n)
        factor = cholesky(A)
        b = RNG.normal(size=n)
        x = solve(factor, b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-8


def test_log_det_identity_and_scalar():
    assert log_det(cholesky(np.eye(4))) == pytest.approx(0.0, abs=1e-14)
    assert log_det(cholesky(np.array([[math.e]]))) == pytest.approx(1.0, rel=1e-12)


def test_log_det_matches_eigenvalue_product():
    A = random_spd(8)
    expected = float(np.sum(np.log(np.linalg.eigvalsh(A))))
    assert log_det(cholesky(A)) == pytest.approx(expected, rel=1e-8)


def test_log_det_eigenvalue_identity_moderate_condition():
    for n in (12, 48):
        A = random_spd(n)
        lam = sym_eigenvalues(A)
        assert lam[0] / lam[-1] < 1e8
        assert log_det(cholesky(A)) == pytest.approx(np.sum(np.log(lam)), rel=1e-6)


def test_sym_eigenvalues_diagonal():
    spectrum = sym_eigenvalues(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(spectrum, [3.0, 2.0, 1.0])


def test_sym_eigenvalues_two_by_two_closed_form():
    rho = 0.37
    spectrum = sym_eigenvalues(np.array([[1.0, rho], [rho, 1.0]]))
    assert spectrum == pytest.approx([1 + rho, 1 - rho], rel=1e-12)


def test_sym_eigenvalues_trace_consistency():
    A = RNG.normal(size=(32, 32))
    A = (A + A.T) / 2
    spectrum = sym_eigenvalues(A)
    assert spectrum.sum() == pytest.approx(np.trace(A), rel=1e-8, abs=1e-8)
    assert np.all(np.diff(spectrum) <= 0)


def test_sym_eigenvalues_match_numpy_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in (1, 2, 16, 57, 128):
        A = rng.normal(size=(n, n))
        for M in ((A + A.T) / 2, A @ A.T):
            assert np.array_equal(sym_eigenvalues(M), np.linalg.eigvalsh(M)[::-1])


def test_sym_eigenvalues_size_cap(monkeypatch):
    monkeypatch.setattr(linalg, "EIG_SIZE_CAP", 8)
    with pytest.raises(ValueError):
        sym_eigenvalues(np.eye(10))


def test_two_sided_solve_trace_identity():
    A = random_spd(10)
    D = random_spd(10)
    factor = cholesky(A)
    expected = np.trace(np.linalg.inv(A) @ D)
    assert np.trace(two_sided_solve(factor, D)) == pytest.approx(expected, rel=1e-10)


def test_cg_identity_single_iteration():
    b = RNG.normal(size=6)
    result = cg_solve(lambda v: v, b, tol=1e-12)
    assert result.converged and result.iterations == 1
    assert np.allclose(result.x, b, atol=1e-12)


def test_cg_matches_direct_solve():
    d = np.arange(1.0, 9.0)
    result = cg_solve(lambda v: d * v, np.ones(8), tol=1e-12)
    assert result.converged
    assert np.allclose(result.x, 1.0 / d, atol=1e-10)


def test_cg_finite_termination():
    A = random_spd(64)
    b = RNG.normal(size=64)
    result = cg_solve(lambda v: A @ v, b, tol=1e-8, max_iter=64 + 5)
    assert result.converged
    assert result.iterations <= 64 + 5


def test_cg_agrees_with_cholesky():
    A = random_spd(32)
    b = RNG.normal(size=32)
    tol = 1e-10
    direct = solve(cholesky(A), b)
    iterative = cg_solve(lambda v: A @ v, b, tol=tol).x
    assert np.linalg.norm(iterative - direct) / np.linalg.norm(direct) < 10 * tol


def test_cg_breakdown_on_indefinite():
    A = np.diag([1.0, -1.0])
    with pytest.raises(CGBreakdownError):
        cg_solve(lambda v: A @ v, np.array([0.0, 1.0]), tol=1e-10)


def test_cg_block_columns_match_vector_solves():
    A = random_spd(48)
    B = RNG.normal(size=(48, 4))
    B[:, 2] = 0.0   # solved by x = 0 without an iteration
    tol = 1e-10
    block = cg_solve(lambda V: A @ V, B, tol=tol)
    assert block.x.shape == B.shape and block.converged.all()
    assert block.iterations.shape == (4,) and block.iterations[2] == 0
    for j in range(4):
        single = cg_solve(lambda v: A @ v, B[:, j], tol=tol)
        assert block.iterations[j] == single.iterations
        assert np.linalg.norm(block.x[:, j] - single.x) <= tol * np.linalg.norm(single.x)


@pytest.mark.parametrize("shape", [(5,), (5, 3)])
def test_preconditioned_cg_zero_right_hand_side(shape):
    result = cg_solve(lambda v: v, np.zeros(shape), precondition=lambda v: 2.0 * v)
    assert np.array_equal(result.x, np.zeros(shape))
    assert np.all(result.converged) and np.all(result.iterations == 0)
    assert np.all(result.residual == 0.0)


def test_pivoted_cholesky_rank_rule_and_woodbury_inverse():
    X = np.linspace(0.0, 3.0, 40)[:, None]
    noise = 0.1
    K = 4.0 * kernel_matrix(KernelSpec.rbf(0.5), X) + noise * np.eye(40)
    L = pivoted_cholesky(K, noise)
    assert L.flags.f_contiguous and 0 < L.shape[1] < 40
    # stopped because the largest remaining signal diagonal fell to the bound
    remaining = np.diag(K) - noise - np.sum(L * L, axis=1)
    assert remaining.max() <= linalg.PRECONDITIONER_STOP * noise
    assert np.array_equal(pivoted_cholesky(K, noise), L)
    V = RNG.normal(size=(40, 3))
    expected = np.linalg.solve(noise * np.eye(40) + L @ L.T, V)
    apply = woodbury_preconditioner(L, noise)
    assert np.allclose(apply(V), expected, rtol=1e-9, atol=1e-9)
    assert np.allclose(apply(V[:, 0]), expected[:, 0], rtol=1e-9, atol=1e-9)


def test_preconditioned_cg_breakdown_on_indefinite_preconditioner():
    with pytest.raises(CGBreakdownError, match="r\\^T z"):
        cg_solve(lambda v: v, np.ones(3), precondition=lambda v: -v)


def test_cg_max_iter_reported():
    A = random_spd(32)
    result = cg_solve(lambda v: A @ v, RNG.normal(size=32), tol=1e-14, max_iter=2)
    assert not result.converged
    assert result.iterations == 2
    assert result.residual > 0



@pytest.mark.skipif(linalg.PINNED_BLAS is None, reason="no scipy OpenBLAS in this process")
def test_one_blas_thread_pins_and_restores_the_count():
    found = linalg._get_threads()
    linalg._set_threads(2)
    try:
        with linalg.one_blas_thread():
            assert linalg._get_threads() == 1
            with linalg.one_blas_thread():
                assert linalg._get_threads() == 1
            assert linalg._get_threads() == 1
        assert linalg._get_threads() == 2
        with linalg.one_blas_thread(False):
            assert linalg._get_threads() == 2
        with pytest.raises(NotPositiveDefiniteError):
            with linalg.one_blas_thread():
                cholesky(-np.eye(2))
        assert linalg._get_threads() == 2
    finally:
        linalg._set_threads(found)


def test_one_blas_thread_without_a_pool_does_nothing(monkeypatch):
    monkeypatch.setattr(linalg, "PINNED_BLAS", None)
    monkeypatch.setattr(linalg, "_set_threads", None)   # a call would raise
    with linalg.one_blas_thread():
        assert np.array_equal(cholesky(np.eye(2)).lower, np.eye(2))
