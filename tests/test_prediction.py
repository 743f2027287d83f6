"""Posterior prediction tests: closed forms, strategies, truncation."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dgemv

from gpsgd import (
    Gaussian,
    HyperParams,
    KernelSpec,
    MultiKernel,
    PredictStrategy,
    build_index,
    eval_kernel,
    predict,
    predict_nn,
    rmse,
    simulate_gp,
    train_test_split,
)
from gpsgd import linalg, prediction
from gpsgd.kernels import CovariancePlan, cross_kernel_matrix, marginal_covariance
from gpsgd.linalg import NotPositiveDefiniteError, cg_solve, cholesky, forward_solve, solve
from gpsgd.prediction import CGConvergenceError
from gpsgd.seeds import component_rng

MK = MultiKernel.single(KernelSpec.rbf(0.5))


def _training_fixture(n=20, seed=3):
    X = np.arange(n, dtype=float)[:, None] * 0.7
    y = component_rng(seed, "pred-fixture").normal(0, 2.0, size=n)
    return X, y


def test_near_noiseless_interpolation():
    X, y = _training_fixture()
    theta = HyperParams((4.0,), 1e-12)
    result = predict(theta, MK, X, y, X)
    assert np.max(np.abs(result.mean - y)) < 1e-4


def test_single_training_point_closed_form():
    theta = HyperParams((4.0,), 1.0)
    X = np.array([[0.0]])
    y = np.array([3.0])
    x_star = np.array([[0.4]])
    k = eval_kernel(KernelSpec.rbf(0.5), [0.0], [0.4])
    result = predict(theta, MK, X, y, x_star)
    assert result.mean[0] == pytest.approx(4.0 * k * 3.0 / 5.0, rel=1e-12)
    assert result.variance[0] == pytest.approx(4.0 - (4.0 * k) ** 2 / 5.0, rel=1e-12)


def test_far_point_recovers_prior_variance():
    X, y = _training_fixture()
    theta = HyperParams((4.0,), 1.0)
    result = predict(theta, MK, X, y, np.array([[1e4]]))
    assert result.variance[0] == pytest.approx(4.0, abs=1e-6)
    assert result.mean[0] == pytest.approx(0.0, abs=1e-6)


def test_posterior_variance_never_exceeds_prior():
    theta = HyperParams((3.0, 1.0), 0.5)
    kernels = MultiKernel((KernelSpec.rbf(0.5), KernelSpec.matern(1.5, 1.0)))
    ds = simulate_gp(kernels, theta, 60, Gaussian(5.0), 1, seed=4)
    X_test = component_rng(5, "pred-test").normal(0, 5.0, size=(40, 1))
    result = predict(theta, kernels, ds.X, ds.y, X_test)
    assert np.all(result.variance >= 0.0)
    assert np.all(result.variance <= 4.0 + 1e-8)


def test_exact_and_cg_agree():
    theta = HyperParams((4.0,), 1.0)
    ds = simulate_gp(MK, theta, 300, Gaussian(5.0), 1, seed=6)
    X_test = component_rng(7, "cg-test").normal(0, 5.0, size=(8, 1))
    tol = 1e-8
    exact = predict(theta, MK, ds.X, ds.y, X_test, strategy=PredictStrategy.EXACT)
    cg = predict(theta, MK, ds.X, ds.y, X_test, strategy=PredictStrategy.CG, cg_tol=tol)
    assert np.max(np.abs(exact.mean - cg.mean)) < 10 * tol * max(1, np.abs(exact.mean).max())
    assert np.max(np.abs(exact.variance - cg.variance)) < 10 * tol * 4.0
    assert cg.cg_iterations is not None and len(cg.cg_iterations) == 9


def test_preconditioned_cg_two_kernel_matches_exact_in_fewer_iterations():
    theta = HyperParams((3.0, 1.0), 0.1)
    kernels = MultiKernel((KernelSpec.rbf(0.5), KernelSpec.matern(1.5, 1.0)))
    ds = simulate_gp(kernels, theta, 500, Gaussian(5.0), 1, seed=15)
    X_test = component_rng(16, "pcg-test").normal(0, 5.0, size=(6, 1))
    tol = 1e-8
    exact = predict(theta, kernels, ds.X, ds.y, X_test, strategy=PredictStrategy.EXACT)
    cg = predict(theta, kernels, ds.X, ds.y, X_test, strategy=PredictStrategy.CG, cg_tol=tol)
    assert np.max(np.abs(exact.mean - cg.mean)) < 10 * tol * max(1, np.abs(exact.mean).max())
    assert np.max(np.abs(exact.variance - cg.variance)) < 10 * tol * 4.0
    assert len(cg.cg_iterations) == 7 and 0 < cg.cg_preconditioner_rank <= 300
    assert cg.cg_residual_max <= tol
    K = marginal_covariance(kernels, theta, ds.X)
    plain = cg_solve(lambda v: K @ v, ds.y, tol=tol)
    assert plain.converged and cg.cg_iterations[0] < plain.iterations


def test_cg_with_a_rank_zero_preconditioner_matches_exact():
    # a signal variance at most PRECONDITIONER_STOP times the noise leaves the
    # pivoted Cholesky factor empty, so CG is preconditioned by the noise alone
    theta = HyperParams((1e-9,), 1.0)
    assert theta.signal_variances[0] <= linalg.PRECONDITIONER_STOP * theta.noise_variance
    ds = simulate_gp(MK, HyperParams((4.0,), 1.0), 120, Gaussian(5.0), 1, seed=19)
    X_test = component_rng(20, "rank-zero").normal(0, 5.0, size=(5, 1))
    tol = 1e-6
    exact = predict(theta, MK, ds.X, ds.y, X_test, strategy=PredictStrategy.EXACT)
    cg = predict(theta, MK, ds.X, ds.y, X_test, strategy=PredictStrategy.CG, cg_tol=tol)
    assert cg.cg_preconditioner_rank == 0
    assert np.max(np.abs(exact.mean - cg.mean)) < 10 * tol * max(1, np.abs(exact.mean).max())
    assert np.max(np.abs(exact.variance - cg.variance)) < 10 * tol


def test_cg_solves_wide_test_sets_in_bounded_blocks(monkeypatch):
    theta = HyperParams((4.0,), 0.5)
    ds = simulate_gp(MK, theta, 200, Gaussian(5.0), 1, seed=17)
    X_test = component_rng(18, "cg-blocks").normal(0, 5.0, size=(8, 1))
    widths = []

    def recording_cg_solve(matvec, b, **kwargs):
        widths.append(b.shape[1])
        return cg_solve(matvec, b, **kwargs)

    monkeypatch.setattr(prediction, "CG_BLOCK_WIDTH", 3)
    monkeypatch.setattr(prediction, "cg_solve", recording_cg_solve)
    tol = 1e-8
    exact = predict(theta, MK, ds.X, ds.y, X_test, strategy=PredictStrategy.EXACT)
    cg = predict(theta, MK, ds.X, ds.y, X_test, strategy=PredictStrategy.CG, cg_tol=tol)
    assert widths == [3, 3, 3]   # [y | k*_0 k*_1], then two blocks of three
    assert len(cg.cg_iterations) == 9 and cg.cg_residual_max <= tol
    assert np.max(np.abs(exact.mean - cg.mean)) < 10 * tol * max(1, np.abs(exact.mean).max())
    assert np.max(np.abs(exact.variance - cg.variance)) < 10 * tol * 4.0


def test_cg_non_convergence_reports_residual():
    theta = HyperParams((4.0,), 1e-8)
    ds = simulate_gp(MK, theta, 200, Gaussian(0.5), 1, seed=8)
    with pytest.raises(CGConvergenceError, match="residual"):
        predict(theta, MK, ds.X, ds.y, ds.X[:2], strategy=PredictStrategy.CG,
                cg_tol=1e-14, cg_max_iter=1)


def test_nearest_failure_names_theta_and_test_point():
    # test point 1's neighbors are three equal inputs: singular under a
    # noise of 1e-300, while test point 0's are well apart
    X = np.array([[-100.0], [-99.0], [-98.0], [0.0], [0.0], [0.0]])
    with pytest.raises(NotPositiveDefiniteError, match=re.escape(
            "nearest prediction at theta [1.0, 1e-300], test point 1: Cholesky failed")):
        predict_nn(HyperParams((1.0,), 1e-300), MK, X, np.zeros(6), np.array([[-100.0], [0.0]]),
                   3, build_index(X))


def test_default_strategy_picks_exact_below_threshold():
    X, y = _training_fixture()
    result = predict(HyperParams((4.0,), 1.0), MK, X, y, X[:2])
    assert result.strategy == PredictStrategy.EXACT


def test_exact_one_pass_matches_two_solve_oracle():
    # The oracle solves K alpha = y and K V = k* with two triangular passes
    # each; predict takes both from the one forward pass L^-1 [y | k*].
    theta = HyperParams((3.0, 1.0), 0.5)
    kernels = MultiKernel((KernelSpec.rbf(0.5), KernelSpec.matern(1.5, 1.0)))
    ds = simulate_gp(kernels, theta, 150, Gaussian(5.0), 1, seed=13)
    X_test = component_rng(14, "one-pass-test").normal(0, 5.0, size=(30, 1))
    result = predict(theta, kernels, ds.X, ds.y, X_test, strategy=PredictStrategy.EXACT)

    def cross(A, B):
        return sum(v * cross_kernel_matrix(spec, A, B)
                   for v, spec in zip(theta.signal_variances, kernels.components))

    k_star = cross(ds.X, X_test)
    factor = cholesky(marginal_covariance(kernels, theta, ds.X))
    mean = k_star.T @ solve(factor, ds.y)
    cov = cross(X_test, X_test) - k_star.T @ solve(factor, k_star)

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    assert rel(result.mean, mean) < 1e-12
    assert rel(result.variance, np.diag(cov)) < 1e-12


def test_exact_predict_holds_one_n_by_n_array():
    # K is factored in its own buffer: with a second n x n array (a copy
    # of K for dpotrf) the peak would be about 2.1 x 8 n^2 bytes
    n = 1500
    rng = np.random.default_rng(31)
    X, y, X_test = rng.normal(0, 5.0, size=(n, 1)), rng.normal(size=n), rng.normal(size=(8, 1))
    tracemalloc.start()
    try:
        predict(HyperParams((4.0,), 1.0), MK, X, y, X_test, strategy=PredictStrategy.EXACT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n


def _reference_moments(theta, kernels, X, y, x_star):
    """Mean and variance from the mirrored K, the clean factor and one
    forward pass."""
    plan = CovariancePlan(kernels, theta, X, x_star)
    v = theta.to_vector()
    K = plan.covariance(v)
    assert np.array_equal(K, K.T)
    factor = cholesky(K)
    W = forward_solve(factor, np.column_stack((y, plan.covariance(v, cols=slice(None)))))
    mean = dgemv(1.0, W[:, 1:], W[:, 0], trans=1)
    quad = np.einsum("ij,ij->j", W[:, 1:], W[:, 1:])
    return mean, np.maximum(sum(theta.signal_variances) - quad, 0.0)


TRIANGLE_KERNELS = MultiKernel((KernelSpec.rbf(0.5), KernelSpec.matern(1.5, 1.0)))
TRIANGLE_THETA = HyperParams((3.0, 1.0), 0.5)


@pytest.mark.parametrize("n", [100, 300, 700])
def test_exact_predict_equals_the_mirrored_clean_reference_bit_for_bit(n):
    ds = simulate_gp(TRIANGLE_KERNELS, TRIANGLE_THETA, n, Gaussian(5.0), 1, seed=n)
    X_test = component_rng(n, "triangle-test").normal(0, 5.0, size=(20, 1))
    got = predict(TRIANGLE_THETA, TRIANGLE_KERNELS, ds.X, ds.y, X_test,
                  strategy=PredictStrategy.EXACT)
    mean, variance = _reference_moments(TRIANGLE_THETA, TRIANGLE_KERNELS, ds.X, ds.y, X_test)
    assert np.array_equal(got.mean, mean)
    assert np.array_equal(got.variance, variance)


@pytest.mark.parametrize("n_neighbors", [100, 150, 256])
def test_predict_nn_equals_the_mirrored_clean_reference_bit_for_bit(n_neighbors):
    ds = simulate_gp(TRIANGLE_KERNELS, TRIANGLE_THETA, 400, Gaussian(5.0), 1, seed=41)
    X_test = component_rng(42, "triangle-nn").normal(0, 5.0, size=(6, 1))
    index = build_index(ds.X)
    got = predict_nn(TRIANGLE_THETA, TRIANGLE_KERNELS, ds.X, ds.y, X_test, n_neighbors, index)
    for t, rows in enumerate(index.query_many(X_test, n_neighbors)):
        mean, variance = _reference_moments(TRIANGLE_THETA, TRIANGLE_KERNELS, ds.X[rows],
                                            ds.y[rows], X_test[t:t + 1])
        assert got.mean[t] == mean[0] and got.variance[t] == variance[0]


@pytest.mark.parametrize("strategy", [PredictStrategy.EXACT, PredictStrategy.CG, None])
@pytest.mark.parametrize("y_shape", [(19,), (21,), (20, 1)])
def test_responses_must_be_one_per_training_row(strategy, y_shape):
    X, _ = _training_fixture()
    y = np.zeros(y_shape)
    message = re.escape(f"y_train has shape {y_shape} for X_train of shape (20, 1)")
    with pytest.raises(ValueError, match=message):
        _predict_with(strategy, HyperParams((2.0,), 0.5), MK, X, y, X[:3])


@pytest.mark.parametrize("strategy", [PredictStrategy.EXACT, PredictStrategy.CG, None])
def test_non_finite_training_responses_are_rejected(strategy):
    X, y = _training_fixture()
    y[4] = np.nan
    X_test = np.array([[1.0], [2.5]])
    theta = HyperParams((2.0,), 0.5)
    if strategy is None:
        with pytest.raises(ValueError, match="y_train"):
            predict_nn(theta, MK, X, y, X_test, 5, build_index(X))
    else:
        with pytest.raises(ValueError, match="y_train"):
            predict(theta, MK, X, y, X_test, strategy=strategy)


def test_predict_nn_rejects_an_index_over_other_points():
    X, y = _training_fixture()
    X_test = np.array([[1.0], [2.5]])
    theta = HyperParams((2.0,), 0.5)
    for other in (X[::-1], X[:-1], X + 1.0):
        with pytest.raises(ValueError, match=f"index covers other points than the {len(X)} of X_train"):
            predict_nn(theta, MK, X, y, X_test, 5, build_index(other))


def test_predict_nn_full_set_equals_exact():
    theta = HyperParams((4.0,), 1.0)
    ds = simulate_gp(MK, theta, 120, Gaussian(5.0), 1, seed=11)
    X_test = component_rng(12, "nn-test").normal(0, 5.0, size=(10, 1))
    exact = predict(theta, MK, ds.X, ds.y, X_test, strategy=PredictStrategy.EXACT)
    nn = predict_nn(theta, MK, ds.X, ds.y, X_test, 120, build_index(ds.X))
    assert np.max(np.abs(nn.mean - exact.mean)) < 1e-10
    assert np.max(np.abs(nn.variance - exact.variance)) < 1e-10


def test_predict_nn_is_exact_predict_on_each_neighbourhood():
    theta = HyperParams((4.0,), 1.0)
    ds = simulate_gp(MK, theta, 300, Gaussian(5.0), 1, seed=23)
    X_test = component_rng(24, "nn-local").normal(0, 5.0, size=(12, 1))
    index = build_index(ds.X)
    nn = predict_nn(theta, MK, ds.X, ds.y, X_test, 40, index)
    for t, rows in enumerate(index.query_many(X_test, 40)):
        local = predict(theta, MK, ds.X[rows], ds.y[rows], X_test[t:t + 1],
                        strategy=PredictStrategy.EXACT)
        assert local.mean[0] == nn.mean[t] and local.variance[0] == nn.variance[t]


def _predict_with(strategy, theta, kernels, X, y, X_test):
    if strategy is None:
        return predict_nn(theta, kernels, X, y, X_test, 5, build_index(X))
    return predict(theta, kernels, X, y, X_test, strategy=strategy)


@pytest.mark.parametrize("strategy", [PredictStrategy.EXACT, PredictStrategy.CG, None])
def test_matern_rejects_test_points_of_another_dimension(strategy):
    # An RBF kernel catches this through its lengthscale count; a Matern
    # kernel has one scale whatever the dimension.
    kernels = MultiKernel.single(KernelSpec.matern(1.5, 1.0))
    X, y = _training_fixture()
    with pytest.raises(ValueError, match="input dimensions differ"):
        _predict_with(strategy, HyperParams((2.0,), 0.5), kernels, X, y, np.zeros((3, 2)))


@pytest.mark.parametrize("strategy", [PredictStrategy.EXACT, PredictStrategy.CG, None])
def test_learned_lengthscales_match_rebuilt_kernel_specs(strategy):
    kernels = MultiKernel((KernelSpec.rbf((1.0, 1.0)), KernelSpec.matern(1.5, 1.0)))
    learned = HyperParams((2.0, 0.7), 0.3, (0.6, 1.4, 0.9))
    rebuilt = MultiKernel((KernelSpec.rbf((0.6, 1.4)), KernelSpec.matern(1.5, 0.9)))
    rng = component_rng(25, "learned-lengthscales")
    X = rng.normal(0, 2.0, size=(150, 2))   # more than one tile of rows
    y = rng.normal(size=150)
    X_test = rng.normal(0, 2.0, size=(40, 2))
    got = _predict_with(strategy, learned, kernels, X, y, X_test)
    want = _predict_with(strategy, HyperParams((2.0, 0.7), 0.3), rebuilt, X, y, X_test)
    assert np.array_equal(got.mean, want.mean)
    assert np.array_equal(got.variance, want.variance)


def test_predict_nn_single_neighbor_closed_form():
    theta = HyperParams((4.0,), 1.0)
    X = np.array([[0.0], [10.0]])
    y = np.array([3.0, -5.0])
    x_star = np.array([[0.4]])
    nn = predict_nn(theta, MK, X, y, x_star, 1, build_index(X))
    k = eval_kernel(KernelSpec.rbf(0.5), [0.0], [0.4])
    assert nn.mean[0] == pytest.approx(4.0 * k * 3.0 / 5.0, rel=1e-12)


def test_predict_nn_converges_monotonically_to_exact():
    theta = HyperParams((4.0,), 1.0)
    ds = simulate_gp(MK, theta, 400, Gaussian(5.0), 1, seed=21)
    X_test = component_rng(22, "nn-mono").normal(0, 5.0, size=(20, 1))
    exact = predict(theta, MK, ds.X, ds.y, X_test, strategy=PredictStrategy.EXACT)
    index = build_index(ds.X)
    previous = np.inf
    for n_neighbors in (25, 50, 100, 200, 400):
        nn = predict_nn(theta, MK, ds.X, ds.y, X_test, n_neighbors, index)
        gap = np.max(np.abs(nn.mean - exact.mean))
        assert gap <= previous + 1e-10
        previous = gap
    assert previous < 1e-10   # the full conditioning set reproduces exact


def test_larger_conditioning_sets_help_on_smooth_data():
    # smooth fixture: long lengthscale, low noise
    kernels = MultiKernel.single(KernelSpec.rbf(2.0))
    theta = HyperParams((4.0,), 0.05)
    r16, r256 = [], []
    for seed in range(5):
        ds = simulate_gp(kernels, theta, 500, Gaussian(5.0), 1, seed=100 + seed)
        train, test = train_test_split(ds, 0.8, seed=seed)
        index = build_index(train.X)
        r16.append(rmse(predict_nn(theta, kernels, train.X, train.y, test.X, 16, index).mean, test.y))
        r256.append(rmse(predict_nn(theta, kernels, train.X, train.y, test.X, 256, index).mean, test.y))
    assert np.mean(r256) <= np.mean(r16)


def test_rmse_examples():
    assert rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
        np.sqrt(12.5), rel=1e-12
    )
    with pytest.raises(ValueError):
        rmse(np.zeros(3), np.zeros(4))


@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=50),
       st.randoms())
@settings(max_examples=50, deadline=None)
def test_rmse_invariant_under_pair_permutation(pairs, rand):
    predicted = np.array([p for p, _ in pairs])
    truth = np.array([t for _, t in pairs])
    order = list(range(len(pairs)))
    rand.shuffle(order)
    assert rmse(predicted, truth) == pytest.approx(
        rmse(predicted[order], truth[order]), rel=1e-12, abs=1e-15
    )
