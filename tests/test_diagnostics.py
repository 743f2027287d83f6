"""Tests for the analysis oracles: expected gradients, curvature, spectra."""

import math

import numpy as np
import pytest

from gpsgd import (
    Gaussian,
    HyperParams,
    KernelSpec,
    MultiKernel,
    ScalingMode,
    ScalingPolicy,
    conditional_expected_gradient,
    curvature_experiment,
    eigendecay_fit,
    expected_gradient_from_eigenvalues,
    gaussian_kernel_beta,
    gaussian_kernel_eigenvalues,
    kernel_matrix,
    monte_carlo_expected_gradient,
    noise_curvature,
    surrogate_curvature,
    sym_eigenvalues,
)
from gpsgd import diagnostics
from gpsgd.diagnostics import DecayFamily
from gpsgd.kernels import marginal_covariance
from gpsgd.linalg import cholesky, solve
from gpsgd.sampling import SamplingScheme, SpatialIndex, build_index, draw_minibatch
from gpsgd.seeds import component_rng

MK = MultiKernel.single(KernelSpec.rbf(0.5))


def _batch_inputs(m=24, sd=5.0, seed=0):
    return component_rng(seed, "diag-batch").normal(0, sd, size=(m, 1))


def test_expected_gradient_vanishes_at_truth():
    theta = HyperParams((4.0,), 1.0)
    g = conditional_expected_gradient(theta, theta, MK, _batch_inputs())
    assert np.max(np.abs(g)) < 1e-12


def test_expected_gradient_scalar_example():
    # m=1, lam=1, theta=(2,2), theta*=(1,1): both slots (1+1)/(2+2)^2 / 2 = 1/16
    g = expected_gradient_from_eigenvalues(
        HyperParams((2.0,), 2.0), HyperParams((1.0,), 1.0), np.array([1.0])
    )
    assert g == pytest.approx([0.0625, 0.0625], rel=1e-14)


def test_expected_gradient_eigenvalue_form_matches_trace_form():
    Xb = _batch_inputs(m=20, seed=1)
    theta = HyperParams((3.0,), 2.0)
    theta_true = HyperParams((4.0,), 1.0)
    scaling = ScalingPolicy(ScalingMode.LOG_SCALED, tau=3.0)
    trace_form = conditional_expected_gradient(theta, theta_true, MK, Xb, scaling)
    lam = sym_eigenvalues(kernel_matrix(KernelSpec.rbf(0.5), Xb))
    eig_form = expected_gradient_from_eigenvalues(theta, theta_true, lam, scaling)
    assert np.max(np.abs(trace_form - eig_form)) < 1e-12


def test_expected_gradient_covers_lengthscale_slots():
    Xb = _batch_inputs(m=12, seed=2)
    theta = HyperParams((3.0,), 2.0, lengthscales=(0.6,))
    theta_true = HyperParams((4.0,), 1.0, lengthscales=(0.5,))
    g = conditional_expected_gradient(theta, theta_true, MK, Xb)
    assert g.shape == (3,)
    at_truth = conditional_expected_gradient(theta_true, theta_true, MK, Xb)
    assert np.max(np.abs(at_truth)) < 1e-12


def test_expected_gradient_matches_monte_carlo():
    Xb = _batch_inputs(m=16, seed=3)
    theta = HyperParams((3.0,), 2.0)
    theta_true = HyperParams((4.0,), 1.0)
    exact = conditional_expected_gradient(theta, theta_true, MK, Xb)
    mc, se = monte_carlo_expected_gradient(
        theta, theta_true, MK, Xb, draws=4000, seed=4
    )
    assert np.all(np.abs(mc - exact) < 6 * se)


def test_monte_carlo_error_band_shrinks_with_draws():
    Xb = _batch_inputs(m=10, seed=5)
    theta = HyperParams((2.0,), 1.5)
    theta_true = HyperParams((4.0,), 1.0)
    _, se_small = monte_carlo_expected_gradient(theta, theta_true, MK, Xb, draws=2000, seed=6)
    _, se_big = monte_carlo_expected_gradient(theta, theta_true, MK, Xb, draws=18000, seed=6)
    # 9x the draws shrinks the standard error about 3x
    assert np.all(se_big < se_small / 2.5)


def test_curvature_scalar_example():
    assert noise_curvature(HyperParams((4.0,), 1.0), np.array([1.0])) == pytest.approx(0.02)


def test_curvature_noise_only_limit():
    theta = HyperParams((4.0,), 0.5)
    assert noise_curvature(theta, np.zeros(7)) == pytest.approx(1.0 / (2 * 0.25), rel=1e-14)


def test_curvature_is_derivative_of_expected_noise_gradient():
    Xb = _batch_inputs(m=18, seed=7)
    lam = sym_eigenvalues(kernel_matrix(KernelSpec.rbf(0.5), Xb))
    theta = HyperParams((4.0,), 1.0)
    gamma = noise_curvature(theta, lam)

    h = 1e-5
    def g2_at(noise):
        shifted = HyperParams((4.0,), noise)
        return conditional_expected_gradient(shifted, theta, MK, Xb)[1]
    fd = (g2_at(1.0 + h) - g2_at(1.0 - h)) / (2 * h)
    assert abs(fd - gamma) / gamma < 1e-4


def test_curvature_equals_inverse_square_trace():
    Xb = _batch_inputs(m=18, seed=8)
    theta = HyperParams((4.0,), 1.0)
    lam = sym_eigenvalues(kernel_matrix(KernelSpec.rbf(0.5), Xb))
    gamma = noise_curvature(theta, lam)
    K = marginal_covariance(MK, theta, Xb)
    Kinv = solve(cholesky(K), np.eye(18))
    assert gamma == pytest.approx(np.trace(Kinv @ Kinv) / 36, rel=1e-8)


def test_surrogate_curvature_examples():
    assert surrogate_curvature(HyperParams((4.0,), 0.5), np.zeros(3), 3) == pytest.approx(4.0)
    assert surrogate_curvature(HyperParams((1.0,), 1.0), np.array([1.0]), 1) == pytest.approx(0.25)


def test_surrogate_curvature_monotone_in_lengthscale():
    theta = HyperParams((4.0,), 1.0)
    m = 2048
    values = [
        surrogate_curvature(theta, gaussian_kernel_eigenvalues(10.0, l, m), m)
        for l in (0.5, 0.75, 1.0, 1.5, 2.0)
    ]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_gaussian_spectrum_closed_form():
    # own evaluation of the closed form at sigma=10, l=0.5
    beta = gaussian_kernel_beta(10.0, 0.5)
    expected = 200.0 / (200.0 + 0.25 + 0.5 * math.sqrt(0.25 + 400.0))
    assert beta == pytest.approx(expected, rel=1e-14)
    assert beta == pytest.approx(0.9512343774406437, rel=1e-12)
    lam = gaussian_kernel_eigenvalues(10.0, 0.5, 1)
    assert lam[0] == pytest.approx(1 - beta, rel=1e-14)


def test_gaussian_spectrum_partial_sums():
    for count in (1, 5, 50):
        lam = gaussian_kernel_eigenvalues(3.0, 1.0, count)
        beta = gaussian_kernel_beta(3.0, 1.0)
        assert lam.sum() == pytest.approx(1 - beta**count, rel=1e-12)


def test_gaussian_beta_decreasing_in_lengthscale():
    grid = np.linspace(0.2, 4.0, 30)
    betas = [gaussian_kernel_beta(10.0, l) for l in grid]
    assert all(a > b for a, b in zip(betas, betas[1:]))


def test_eigendecay_fit_exact_exponential():
    n = 100
    j = np.arange(1, 41)
    lam = n * 0.1 * np.exp(-0.7 * j)
    fit = eigendecay_fit(lam, n, DecayFamily.EXPONENTIAL)
    assert fit.rate == pytest.approx(0.7, rel=1e-10)
    assert fit.scale == pytest.approx(0.1, rel=1e-8)
    assert fit.residual < 1e-10


def test_eigendecay_fit_exact_polynomial():
    n = 50
    j = np.arange(1, 31)
    lam = n * j**-4.0
    fit = eigendecay_fit(lam, n, DecayFamily.POLYNOMIAL)
    assert fit.rate == pytest.approx(2.0, rel=1e-10)   # 2b = 4
    assert fit.scale == pytest.approx(1.0, rel=1e-8)


def test_eigendecay_fit_floor_and_minimum_points():
    n = 10
    lam = n * np.array([1.0, 0.5, 1e-20, 1e-21, 1e-22])
    with pytest.raises(ValueError, match="usable"):
        eigendecay_fit(lam, n, DecayFamily.EXPONENTIAL)


def test_eigendecay_fit_rejects_flat_spectrum():
    lam = 5.0 * np.ones(10)
    with pytest.raises(ValueError, match="decay"):
        eigendecay_fit(lam, 10, DecayFamily.EXPONENTIAL)


def test_eigendecay_polynomial_fit_on_matern_spectrum():
    rng = component_rng(15, "matern-decay")
    n = 512
    X = rng.uniform(-1.0, 1.0, size=(n, 1))
    spectrum = sym_eigenvalues(kernel_matrix(KernelSpec.matern(0.5, 1.0), X))
    fit = eigendecay_fit(spectrum, n, DecayFamily.POLYNOMIAL, index_range=(2, 60))
    assert fit.rate > 0
    assert fit.residual < 1.0


def test_eigendecay_fit_recovers_gaussian_law():
    rng = component_rng(9, "decay-fit")
    n = 2048
    X = rng.normal(0, 10.0, size=(n, 1))
    spectrum = sym_eigenvalues(kernel_matrix(KernelSpec.rbf(0.5), X))
    fit = eigendecay_fit(spectrum, n, DecayFamily.EXPONENTIAL, index_range=(1, 40))
    beta = gaussian_kernel_beta(10.0, 0.5)
    assert abs(fit.rate - (-math.log(beta))) / (-math.log(beta)) < 0.15
    assert abs(fit.scale - (1 - beta)) / (1 - beta) < 0.15


def test_curvature_experiment_contract():
    theta = HyperParams((4.0,), 1.0)
    reports = curvature_experiment(
        pool_size=64, m_grid=[8, 64], replicates=6, theta=theta,
        kernel=KernelSpec.rbf(0.5), input_dist=Gaussian(10.0), seed=11,
    )
    assert len(reports) == 4
    by_key = {(r.m, r.scheme.value): r for r in reports}
    # m = n: both schemes see the whole pool, so the curvature coincides
    full_uniform = by_key[(64, "uniform")]
    full_nearby = by_key[(64, "nearby")]
    assert full_uniform.values == pytest.approx(full_nearby.values, rel=1e-12)
    assert full_uniform.sd == pytest.approx(0.0, abs=1e-15)
    # m < n: distinct replicate draws spread out
    partial = by_key[(8, "uniform")]
    assert partial.sd > 0
    assert np.all(partial.values > 0)
    assert min(partial.values) <= partial.mean <= max(partial.values)


def test_curvature_experiment_nearby_exceeds_uniform():
    theta = HyperParams((4.0,), 1.0)
    reports = curvature_experiment(
        pool_size=256, m_grid=[16, 32], replicates=20, theta=theta,
        kernel=KernelSpec.rbf(0.5), input_dist=Gaussian(10.0), seed=12,
    )
    by_key = {(r.m, r.scheme.value): r for r in reports}
    for m in (16, 32):
        assert by_key[(m, "nearby")].mean > by_key[(m, "uniform")].mean


class _CoarseInputs:
    """Gaussian inputs rounded to whole numbers: many rows coincide."""

    def sample(self, rng, n, dim):
        return np.round(rng.normal(0.0, 2.0, size=(n, dim)))


def _curvature_by_draw_minibatch(pool_size, m_grid, replicates, theta, kernel, input_dist, seed,
                                 input_dim):
    """Reference for curvature_experiment: replicate `rep` of each cell
    draws its batch with `draw_minibatch` from its own stream."""
    X = input_dist.sample(component_rng(seed, "curvature-pool"), pool_size, input_dim)
    index = build_index(X)
    cells = []
    for m in m_grid:
        for scheme in (SamplingScheme.UNIFORM, SamplingScheme.NEARBY):
            values = []
            for rep in range(replicates):
                rng = component_rng(seed, f"curvature-{scheme.value}-m{m}", rep)
                batch = draw_minibatch(scheme, pool_size, m, rng, index)
                lam = sym_eigenvalues(kernel_matrix(kernel, X[batch.indices]))
                values.append(noise_curvature(theta, lam))
            cells.append((m, scheme, np.array(values)))
    return cells


class _CountingTree:
    """Wraps an index's cKDTree and counts the kNN fallback's ball queries."""

    def __init__(self, tree):
        self.tree = tree
        self.ball_queries = 0

    def query(self, *args, **kwargs):
        return self.tree.query(*args, **kwargs)

    def query_ball_point(self, *args, **kwargs):
        self.ball_queries += 1
        return self.tree.query_ball_point(*args, **kwargs)


@pytest.mark.parametrize("input_dim", [1, 2])
def test_curvature_experiment_matches_per_replicate_draws(monkeypatch, input_dim):
    trees = []

    def counting_index(X):
        index = SpatialIndex(X)
        index._tree = _CountingTree(index._tree)
        trees.append(index._tree)
        return index

    monkeypatch.setattr(diagnostics, "SpatialIndex", counting_index)
    args = (60, [1, 5, 16, 60], 7, HyperParams((4.0,), 1.0), KernelSpec.rbf([0.5] * input_dim),
            _CoarseInputs(), 21, input_dim)
    reports = curvature_experiment(*args)
    expected = _curvature_by_draw_minibatch(*args)
    assert [(r.m, r.scheme) for r in reports] == [(m, scheme) for m, scheme, _ in expected]
    for report, (_, _, values) in zip(reports, expected):
        assert np.array_equal(report.values, values)
        assert report.mean == float(values.mean()) and report.sd == float(values.std(ddof=0))
    # the coinciding rows put ties at the k-th distance, which only the
    # fallback ranks right
    assert trees[0].ball_queries > 0


def test_eigen_ratio_sums_log_vs_linear_growth():
    # sum lam/(t1 lam + t2)^2 grows like log n; sum 1/(...)^2 grows like n
    t1, t2 = 4.0, 1.0
    log_sums, flat_sums = {}, {}
    for n in (512, 1024, 2048):
        rng = component_rng(42, "growth", n)
        X = rng.normal(0, 10.0, size=(n, 1))
        lam = np.maximum(sym_eigenvalues(kernel_matrix(KernelSpec.rbf(0.5), X)), 0.0)
        denom = (t1 * lam + t2) ** 2
        log_sums[n] = float(np.sum(lam / denom))
        flat_sums[n] = float(np.sum(1.0 / denom))
    for small, big in [(512, 1024), (1024, 2048)]:
        ratio_log = log_sums[big] / log_sums[small]
        ratio_flat = flat_sums[big] / flat_sums[small]
        assert ratio_log < 1.5          # log-like, far from doubling
        assert 1.8 < ratio_flat < 2.2   # linear within 10%
