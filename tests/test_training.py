"""Loss, gradient, and optimizer-loop tests."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from gpsgd import (
    FitDivergedError,
    Gaussian,
    HyperParams,
    KernelSpec,
    Minibatch,
    MultiKernel,
    SamplingScheme,
    ScalingMode,
    ScalingPolicy,
    SGDConfig,
    adam_fit,
    full_gradient,
    nll_loss,
    sgd_fit,
    simulate_gp,
    stochastic_gradient,
)
from gpsgd import training
from gpsgd.cli import _write_trace
from gpsgd.data import Dataset, Uniform, levy, simulate_function
from gpsgd.kernels import kernel_matrix_grad, marginal_covariance
from gpsgd.linalg import cholesky, solve, two_sided_solve
from gpsgd.sampling import build_index, draw_minibatch
from gpsgd.seeds import iteration_rng
from gpsgd.training import ADAM_EPS, LOG_2PI

MK = MultiKernel.single(KernelSpec.rbf(0.5))
RNG = np.random.default_rng(2024)


def fd_gradient(theta, kernels, X, y):
    """Central finite differences of nll_loss in every parameter slot."""
    vec = theta.to_vector()
    has_ls = theta.lengthscales is not None
    grad = np.empty(vec.shape[0])
    for l in range(vec.shape[0]):
        h = 1e-5 * max(1.0, abs(vec[l]))
        up, down = vec.copy(), vec.copy()
        up[l] += h
        down[l] -= h
        f_up = nll_loss(HyperParams.from_vector(up, theta.n_kernels, has_ls), kernels, X, y)
        f_dn = nll_loss(HyperParams.from_vector(down, theta.n_kernels, has_ls), kernels, X, y)
        grad[l] = (f_up - f_dn) / (2 * h)
    return grad


def test_nll_scalar_closed_forms():
    X = np.array([[0.0]])
    y = np.array([0.0])
    # K = 1: loss = (1/2) log 2pi
    assert nll_loss(HyperParams((0.5,), 0.5), MK, X, y) == pytest.approx(LOG_2PI / 2, rel=1e-14)
    # K = e: loss = (1/2)(1 + log 2pi)
    theta = HyperParams((math.e - 0.5,), 0.5)
    assert nll_loss(theta, MK, X, y) == pytest.approx((1 + LOG_2PI) / 2, rel=1e-14)


def test_nll_matches_explicit_inverse():
    ds = simulate_gp(MK, HyperParams((4.0,), 1.0), 20, Gaussian(5.0), 1, seed=3)
    theta = HyperParams((2.0,), 0.7)
    K = marginal_covariance(MK, theta, ds.X)
    brute = (
        ds.y @ np.linalg.inv(K) @ ds.y + np.log(np.linalg.det(K)) + 20 * LOG_2PI
    ) / 40
    assert nll_loss(theta, MK, ds.X, ds.y) == pytest.approx(brute, rel=1e-10)


def test_full_gradient_scalar_closed_form():
    X = np.array([[0.0]])
    y = np.array([2.0])
    grad = full_gradient(HyperParams((1.0,), 1.0), MK, X, y)
    assert grad == pytest.approx([-0.25, -0.25], rel=1e-12)


def test_full_gradient_positive_at_zero_response():
    ds = simulate_gp(MK, HyperParams((4.0,), 1.0), 15, Gaussian(5.0), 1, seed=4)
    grad = full_gradient(HyperParams((2.0,), 1.5), MK, ds.X, np.zeros(15))
    assert np.all(grad > 0)


def test_full_gradient_matches_finite_differences():
    ds = simulate_gp(MK, HyperParams((4.0,), 1.0), 30, Gaussian(5.0), 1, seed=5)
    theta = HyperParams((3.0,), 0.8)
    grad = full_gradient(theta, MK, ds.X, ds.y)
    fd = fd_gradient(theta, MK, ds.X, ds.y)
    assert np.max(np.abs(grad - fd) / np.abs(fd)) < 1e-5


@pytest.mark.parametrize("n, dim, learn", [(1500, 1, False), (600, 4, True)])
def test_full_gradient_holds_three_n_by_n_arrays(n, dim, learn):
    # at most three n x n arrays at once: potri works in the factor's buffer,
    # which is dropped, and the lengthscale product is formed per tile
    rng = np.random.default_rng(n)
    X = rng.uniform(-3.0, 3.0, size=(n, dim))
    kernels = MultiKernel.single(KernelSpec.rbf((1.0,) * dim))
    theta = HyperParams((1.0,), 0.1, (1.0,) * dim if learn else None)
    tracemalloc.start()
    try:
        full_gradient(theta, kernels, X, rng.standard_normal(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * n * n


def test_gradient_with_lengthscales_matches_finite_differences():
    kernels = MultiKernel((KernelSpec.rbf((0.6, 1.2)), KernelSpec.matern(1.5, 0.9)))
    true_theta = HyperParams((2.0, 1.0), 0.5)
    ds = simulate_gp(kernels, true_theta, 25, Gaussian(2.0), 2, seed=6)
    theta = HyperParams((1.5, 0.8), 0.6, lengthscales=(0.7, 1.0, 1.1))
    grad = full_gradient(theta, kernels, ds.X, ds.y)
    fd = fd_gradient(theta, kernels, ds.X, ds.y)
    assert grad.shape == (6,)
    assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-12)) < 1e-5


ORACLE_CASES = [
    ("rbf-1d", MK, HyperParams((2.5,), 1.2), 1),
    ("rbf-4d-lengthscales", MultiKernel.single(KernelSpec.rbf((0.5, 1.0, 2.0, 0.7))),
     HyperParams((2.0,), 0.5, (0.6, 1.1, 1.8, 0.9)), 4),
    *[(f"matern-{order}-h", MultiKernel.single(KernelSpec.matern(order, 0.8)),
       HyperParams((2.0,), 0.5, (1.3,)), 1) for order in (0.5, 1.5, 2.5)],
    ("two-kernel-sum", MultiKernel((KernelSpec.rbf(0.5), KernelSpec.matern(2.5, 2.0))),
     HyperParams((2.0, 1.0), 0.5), 1),
]


@pytest.mark.parametrize("name,kernels,theta,dim", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
@pytest.mark.parametrize("scaling", ["linear", "log"])
def test_gradients_match_per_slot_oracle(name, kernels, theta, dim, scaling):
    rng = np.random.default_rng(31)
    n, m = 150, 40
    X = rng.normal(0.0, 2.0, size=(n, dim))
    y = rng.normal(size=n)
    idx = np.sort(rng.choice(n, size=m, replace=False))
    batch = Minibatch(idx)
    policy = ScalingPolicy(ScalingMode(scaling))
    divisors = policy.divisors(m, theta)
    sg = stochastic_gradient(theta, kernels, batch, X, y, policy)
    assert np.allclose(sg, oracle_gradient(theta, kernels, X[idx], y[idx], divisors),
                       rtol=1e-10, atol=0.0)
    fg = full_gradient(theta, kernels, X, y)
    assert np.allclose(fg, oracle_gradient(theta, kernels, X, y, np.full(theta.n_params, n)),
                       rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("name,kernels,theta,dim", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_block_gradient_columns_match_stochastic_gradient(name, kernels, theta, dim):
    # the columns of one block share one factorization and one inverse: each
    # matches the one-column gradient to rounding, and a one-column block
    # is that gradient bit for bit
    rng = np.random.default_rng(37)
    m, r = 32, 9
    X = rng.normal(0.0, 2.0, size=(m, dim))
    Y = rng.normal(size=(m, r))
    policy = ScalingPolicy(ScalingMode.LOG_SCALED)
    divisors = policy.divisors(m, theta)
    batch = Minibatch(np.arange(m))
    block = training.GradientPlan(kernels, theta, X, Y)(theta.to_vector(), divisors)
    assert block.shape == (r, theta.n_params)
    for j in range(r):
        one = stochastic_gradient(theta, kernels, batch, X, Y[:, j], policy)
        assert np.allclose(block[j], one, rtol=1e-12, atol=0.0)
        column = training.GradientPlan(kernels, theta, X, Y[:, j:j + 1])(theta.to_vector(), divisors)
        assert np.array_equal(column[0], one)


def test_stochastic_gradient_full_batch_reduces_to_full_gradient():
    ds = simulate_gp(MK, HyperParams((4.0,), 1.0), 60, Gaussian(5.0), 1, seed=7)
    theta = HyperParams((2.5,), 1.2)
    batch = Minibatch(np.arange(60))
    sg = stochastic_gradient(theta, MK, batch, ds.X, ds.y, ScalingPolicy())
    fg = full_gradient(theta, MK, ds.X, ds.y)
    assert np.max(np.abs(sg - fg)) < 1e-12


def test_stochastic_gradient_single_point_closed_form():
    X = np.array([[0.0]])
    y = np.array([2.0])
    batch = Minibatch(np.array([0]))
    sg = stochastic_gradient(HyperParams((1.0,), 1.0), MK, batch, X, y)
    assert sg == pytest.approx([-0.25, -0.25], rel=1e-12)


def test_log_scaling_is_a_constant_rescale_of_linear():
    ds = simulate_gp(MK, HyperParams((4.0,), 1.0), 128, Gaussian(5.0), 1, seed=8)
    theta = HyperParams((2.0,), 1.5)
    batch = Minibatch(np.arange(128))
    linear = stochastic_gradient(theta, MK, batch, ds.X, ds.y, ScalingPolicy())
    logscaled = stochastic_gradient(
        theta, MK, batch, ds.X, ds.y, ScalingPolicy(ScalingMode.LOG_SCALED, tau=3.0)
    )
    # signal slot rescales by m / (tau log m); noise slot unchanged
    assert logscaled[0] == pytest.approx(linear[0] * 128 / (3 * math.log(128)), rel=1e-12)
    assert logscaled[1] == linear[1]


def test_scaling_policy_validation():
    theta = HyperParams((2.0,), 1.0)
    with pytest.raises(ValueError):
        ScalingPolicy(ScalingMode.LOG_SCALED).divisors(2, theta)   # log scaling needs m >= 3
    with pytest.raises(ValueError):
        ScalingPolicy(ScalingMode.LINEAR, tau=-1.0)


def test_scaling_policy_divisors_two_kernels_with_lengthscales():
    theta = HyperParams((2.0, 1.0), 0.5, (0.3, 0.7, 1.1))
    m, tau = 40, 2.5
    log = ScalingPolicy(ScalingMode.LOG_SCALED, tau).divisors(m, theta)
    assert log.tolist() == [tau * math.log(m)] * 2 + [float(m)] * (1 + 3)
    assert ScalingPolicy(tau=tau).divisors(m, theta).tolist() == [float(m)] * 6
    assert ScalingPolicy(tau=tau).divisors(2, theta).tolist() == [2.0] * 6
    with pytest.raises(ValueError, match="m >= 3"):
        ScalingPolicy(ScalingMode.LOG_SCALED, tau).divisors(2, theta)
    for bad_tau in (0.0, -1.0):
        with pytest.raises(ValueError, match="tau must be positive"):
            ScalingPolicy(ScalingMode.LOG_SCALED, bad_tau)


def test_loss_scale_covariance():
    # y -> 2y with theta -> 4*theta shifts the loss by exactly log 2
    ds = simulate_gp(MK, HyperParams((4.0,), 1.0), 25, Gaussian(5.0), 1, seed=9)
    theta = HyperParams((2.0,), 1.0)
    scaled = HyperParams((8.0,), 4.0)
    base = nll_loss(theta, MK, ds.X, ds.y)
    moved = nll_loss(scaled, MK, ds.X, 2.0 * ds.y)
    assert moved - base == pytest.approx(math.log(2.0), abs=1e-10)


def oracle_gradient(theta, kernels, X, y, divisors):
    """The per-slot route: tr[L^-1 dK L^-T] - a^T dK a for each slot's
    derivative matrix, with a = K^-1 y."""
    factor = cholesky(marginal_covariance(kernels, theta, X))
    a = solve(factor, y)
    grad = np.empty(theta.n_params)
    for l in range(theta.n_params):
        D = kernel_matrix_grad(kernels, theta, X, l)
        grad[l] = (np.trace(two_sided_solve(factor, D)) - a @ (D @ a)) / (2.0 * divisors[l])
    return grad


def _dataset(n=96, seed=10):
    return simulate_gp(MK, HyperParams((4.0,), 1.0), n, Gaussian(5.0), 1, seed=seed)


RBF4 = MultiKernel.single(KernelSpec.rbf((1.0,) * 4))
BAD_PLANS = {
    # (kernels, theta, X, y) and the message each must raise
    "theta-length": (MK, HyperParams((1.0, 1.0), 0.5), np.zeros((5, 1)), np.zeros(5),
                     "2 signal variances for 1 kernels"),
    "lengthscale-count": (RBF4, HyperParams((1.0,), 0.5, (1.0, 1.0, 1.0)), np.zeros((5, 4)),
                          np.zeros(5), "3 lengthscales for 4 slots"),
    "input-dimension": (RBF4, HyperParams((1.0,), 0.5), np.zeros((5, 3)), np.zeros(5),
                        "input dimension 3 does not match 4 lengthscales"),
    "second-kernel-dimension": (MultiKernel((KernelSpec.rbf(0.5), KernelSpec.rbf((1.0, 1.0)))),
                                HyperParams((1.0, 1.0), 0.5), np.zeros((5, 1)), np.zeros(5),
                                "input dimension 1 does not match 2 lengthscales"),
    "non-finite-X": (MK, HyperParams((1.0,), 0.5), np.array([[0.0], [np.inf], [1.0]]),
                     np.zeros(3), "non-finite input coordinates"),
    "non-finite-y": (MK, HyperParams((1.0,), 0.5), np.zeros((3, 1)), np.array([0.0, np.nan, 1.0]),
                     "non-finite responses"),
    "y-length": (MK, HyperParams((1.0,), 0.5), np.zeros((3, 1)), np.zeros(4),
                 r"responses of shape \(4, 1\) for 3 inputs"),
}


@pytest.mark.parametrize("case", sorted(BAD_PLANS))
def test_gradient_plan_checks_layout_and_data_when_built(case):
    kernels, theta, X, y, message = BAD_PLANS[case]
    with pytest.raises(ValueError, match=message):
        training.GradientPlan(kernels, theta, X, y)
    with pytest.raises(ValueError, match=message):
        full_gradient(theta, kernels, X, y)
    with pytest.raises(ValueError, match=message):   # the loss checks as the plan does
        nll_loss(theta, kernels, X, y)


def test_nll_loss_takes_one_column_of_responses():
    ds = simulate_gp(MK, HyperParams((4.0,), 1.0), 30, Gaussian(5.0), 1, seed=8)
    theta = HyperParams((2.0,), 0.5)
    assert nll_loss(theta, MK, ds.X, ds.y[:, None]) == nll_loss(theta, MK, ds.X, ds.y)
    with pytest.raises(ValueError, match=r"responses of shape \(30, 2\): nll_loss takes one column"):
        nll_loss(theta, MK, ds.X, np.column_stack((ds.y, ds.y)))


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("case", ["theta-length", "lengthscale-count"])
def test_fits_reject_bad_theta0_before_the_first_iteration(monkeypatch, optimizer, case):
    kernels, theta0, _, _, message = BAD_PLANS[case]
    ds = simulate_function(levy, 40, Uniform(-1.0, 1.0), 4 if kernels is RBF4 else 1,
                           noise_sd=1.0, seed=5)

    def no_iterations(*args):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(training, "iteration_rng", no_iterations)
    config = SGDConfig(m=8, iterations=3, seed=1)
    with pytest.raises(ValueError, match=message):
        if optimizer == "sgd":
            sgd_fit(ds, kernels, config, theta0)
        else:
            adam_fit(ds, kernels, config, theta0, learn_lengthscales=True)


def test_clamp_lower_bound_must_be_positive():
    # a non-positive theta_min would let the fit step theta to zero or below
    for clamp in [(-1.0, 10.0), (0.0, 10.0)]:
        with pytest.raises(ValueError, match=r"0 < theta_min < theta_max"):
            SGDConfig(m=8, iterations=1, clamp=clamp)


def test_sgd_zero_iterations():
    trace = sgd_fit(_dataset(), MK, SGDConfig(m=16, iterations=0, alpha1=1.0, seed=0),
                    HyperParams((2.0,), 2.0))
    assert trace.iterations == 0
    assert len(trace.records) == 1
    assert np.array_equal(trace.records[0].theta, [2.0, 2.0])


def test_sgd_fixed_point_of_zero_gradient():
    # one point with y^2 = theta_1 + theta_2 makes every slot's gradient zero
    theta0 = HyperParams((1.5,), 0.5)
    ds_fixture = simulate_gp(MK, theta0, 1, Gaussian(1.0), 1, seed=0)
    fixed = np.sqrt(1.5 + 0.5)
    X, y = ds_fixture.X, np.array([fixed])
    ds = Dataset(X=X, y=y)
    trace = sgd_fit(ds, MK, SGDConfig(m=1, iterations=5, alpha1=2.0, seed=1), theta0)
    assert np.max(np.abs(trace.theta - [1.5, 0.5])) < 1e-14


def test_sgd_trace_contract():
    config = SGDConfig(m=16, epochs=2, alpha1=1.5, seed=12)
    trace = sgd_fit(_dataset(), MK, config, HyperParams((3.0,), 2.0))
    assert trace.iterations == 2 * math.ceil(96 / 16)
    assert len(trace.records) == trace.iterations + 1
    # exact diminishing step law
    for rec in trace.records[1:]:
        assert rec.step_size * rec.iteration == 1.5
    assert trace.records[0].step_size == 0.0


def test_trace_records_view():
    config = SGDConfig(m=16, iterations=5, alpha1=1.5, seed=12, grad_norm_every=2)
    trace = sgd_fit(_dataset(), MK, config, HyperParams((3.0,), 2.0))
    records = trace.records
    assert len(records) == 6
    assert records[0].gradient is None and records[0].grad_norm_sq == trace.grad_norm_sq[0]
    assert records[1].grad_norm_sq is None
    assert records[3].iteration == 3 and records[3].step_size == 0.5
    assert np.array_equal(records[3].gradient, trace.gradient[3])
    assert records[-1].iteration == 5 and records[-6].iteration == 0
    assert np.array_equal(records[-1].theta, trace.final_theta.to_vector())
    assert [rec.iteration for rec in records[1:5:2]] == [1, 3]
    assert [rec.iteration for rec in records] == list(range(6))
    assert np.array_equal(np.vstack([rec.theta for rec in records]), trace.theta)
    for bad in (6, -7):
        with pytest.raises(IndexError):
            records[bad]
    with pytest.raises(ValueError):
        records[0].theta[0] = 1.0     # the trace is read-only


def test_sgd_deterministic_given_seed():
    config = SGDConfig(m=8, epochs=2, alpha1=1.0, seed=13,
                       scheme=SamplingScheme.NEARBY)
    a = sgd_fit(_dataset(), MK, config, HyperParams((3.0,), 2.0))
    b = sgd_fit(_dataset(), MK, config, HyperParams((3.0,), 2.0))
    assert np.array_equal(a.theta, b.theta)
    c = sgd_fit(_dataset(), MK, SGDConfig(m=8, epochs=2, alpha1=1.0, seed=14,
                                          scheme=SamplingScheme.NEARBY),
                HyperParams((3.0,), 2.0))
    assert not np.array_equal(a.theta, c.theta)


def test_sgd_diverges_without_clamp():
    # a huge step drives a variance negative; the error names the iteration
    # and the stepped iterate
    ds = _dataset(n=32, seed=15)
    config = SGDConfig(m=32, iterations=3, alpha1=1e4, seed=16)
    theta0 = HyperParams((8.0,), 4.0)
    batch = draw_minibatch(config.scheme, 32, 32, iteration_rng(16, 1))
    stepped = theta0.to_vector() - 1e4 * stochastic_gradient(theta0, MK, batch, ds.X, ds.y)
    assert np.any(stepped <= 0)
    with pytest.raises(FitDivergedError, match=re.escape(
            f"left (0, inf) at iteration 1, theta {stepped.tolist()}; enable clamping")):
        sgd_fit(ds, MK, config, theta0)


def test_diverged_fit_trace_holds_rows_so_far():
    # a covariance that overflows to inf at the first batch is reported with
    # its iteration, and the trace holds only the starting row
    ds = _dataset(n=32, seed=15)
    config = SGDConfig(m=8, iterations=3, alpha1=1.0, seed=16)
    with np.errstate(over="ignore"), pytest.raises(
            FitDivergedError,
            match=r"not positive definite at iteration 1, theta \[1e\+308, 1e\+308\]: ") as info:
        sgd_fit(ds, MK, config, HyperParams((1e308,), 1e308))
    trace = info.value.trace
    assert trace.iterations == 0 and len(trace.records) == 1
    assert np.array_equal(trace.theta, [[1e308, 1e308]])


def test_diverged_fit_trace_holds_completed_iterations():
    ds = _dataset(n=32, seed=15)
    config = SGDConfig(m=16, iterations=40, alpha1=100.0, seed=16)
    theta0 = HyperParams((8.0,), 4.0)
    with pytest.raises(FitDivergedError, match="iteration 2, theta ") as info:
        sgd_fit(ds, MK, config, theta0)
    trace = info.value.trace
    # the message's theta is the step from the last recorded iterate
    theta1 = HyperParams.from_vector(trace.theta[1], 1, False)
    batch = draw_minibatch(config.scheme, 32, 16, iteration_rng(16, 2))
    grad = stochastic_gradient(theta1, MK, batch, ds.X, ds.y)
    stepped = trace.theta[1] - (100.0 / 2) * grad
    assert f"theta {stepped.tolist()}; " in str(info.value)
    # iterations 0 and 1 completed; the iterate of iteration 2 left (0, inf)
    assert trace.iterations == 1 and len(trace.records) == 2
    full = sgd_fit(ds, MK, SGDConfig(m=16, iterations=1, alpha1=100.0, seed=16), theta0)
    assert np.array_equal(trace.theta, full.theta)
    assert np.array_equal(trace.gradient, full.gradient, equal_nan=True)


def test_sgd_clamp_counts_events():
    ds = _dataset(n=32, seed=15)
    config = SGDConfig(m=32, iterations=3, alpha1=1e4, seed=16, clamp=(1e-4, 1e4))
    trace = sgd_fit(ds, MK, config, HyperParams((8.0,), 4.0))
    assert trace.clamp_events > 0
    assert np.all(trace.theta >= 1e-4)


def test_sgd_clip_bounds_gradient_norm():
    ds = _dataset(n=32, seed=15)
    clip = 0.05
    config = SGDConfig(m=32, iterations=4, alpha1=1.0, seed=17, clip=clip)
    trace = sgd_fit(ds, MK, config, HyperParams((8.0,), 4.0))
    assert trace.clip_events > 0
    for rec in trace.records[1:]:
        assert np.linalg.norm(rec.gradient) <= clip + 1e-12


def test_sgd_grad_norm_recording():
    config = SGDConfig(m=16, iterations=4, alpha1=1.0, seed=18, grad_norm_every=2)
    trace = sgd_fit(_dataset(), MK, config, HyperParams((3.0,), 2.0))
    recorded = [rec.iteration for rec in trace.records if rec.grad_norm_sq is not None]
    assert recorded == [0, 2, 4]
    # NaN marks exactly the norms not taken
    assert np.isnan(trace.grad_norm_sq).tolist() == [rec.grad_norm_sq is None
                                                     for rec in trace.records]


def test_full_gradient_failure_names_iteration_and_theta():
    # three equal inputs and a noise of 1e-300 make the full covariance
    # singular; the grad_norm_every norm at theta0 fails first
    ds = Dataset(X=np.array([[0.0], [0.0], [0.0], [5.0]]), y=np.array([1.0, 1.1, 0.9, -1.0]))
    config = SGDConfig(m=2, iterations=3, seed=1, grad_norm_every=1)
    with pytest.raises(FitDivergedError, match=re.escape(
            "full-data covariance not positive definite at iteration 0, theta [1.0, 1e-300]: ")) as info:
        sgd_fit(ds, MK, config, HyperParams((1.0,), 1e-300))
    # theta0 was stored before its norm failed: the trace keeps row 0,
    # its elapsed time taken and its norm NaN
    trace = info.value.trace
    assert trace.iterations == 0 and len(trace.records) == 1
    assert trace.final_theta == HyperParams((1.0,), 1e-300)
    assert np.isnan(trace.grad_norm_sq[0]) and np.isfinite(trace.elapsed[0])


def test_config_validation():
    with pytest.raises(ValueError):
        SGDConfig(m=0, iterations=1)
    with pytest.raises(ValueError):
        SGDConfig(m=4, iterations=1, epochs=1)
    with pytest.raises(ValueError):
        SGDConfig(m=4)
    with pytest.raises(ValueError):
        SGDConfig(m=4, iterations=1, alpha1=0.0)
    with pytest.raises(ValueError):
        SGDConfig(m=4, iterations=1, clamp=(2.0, 1.0))


def test_adam_single_step_closed_form():
    ds = _dataset(n=8, seed=19)
    config = SGDConfig(m=8, iterations=1, learning_rate=0.1, seed=20)
    trace = adam_fit(ds, MK, config, HyperParams((2.0,), 2.0))
    grad = trace.records[1].gradient
    # fresh-state bias correction cancels: step = lr * g / (|g| + eps)
    expected = np.array([2.0, 2.0]) - 0.1 * grad / (np.abs(grad) + ADAM_EPS)
    assert np.max(np.abs(trace.records[1].theta - expected)) < 1e-14


def test_adam_keeps_lengthscales_frozen_by_default():
    theta0 = HyperParams((2.0,), 1.0, lengthscales=(0.5,))
    config = SGDConfig(m=16, iterations=10, learning_rate=0.05, seed=21)
    trace = adam_fit(_dataset(), MK, config, theta0, learn_lengthscales=False)
    history = trace.theta
    assert np.all(history[:, 2] == 0.5)
    assert history[0, 0] != history[-1, 0]


def test_adam_learns_lengthscale_direction():
    # data generated at lengthscale 0.5; optimization starts at 2.0
    true_kernels = MultiKernel.single(KernelSpec.rbf(0.5))
    ds = simulate_gp(true_kernels, HyperParams((4.0,), 1.0), 400, Gaussian(5.0), 1, seed=9)
    start = MultiKernel.single(KernelSpec.rbf(2.0))
    config = SGDConfig(m=16, epochs=40, learning_rate=0.02, seed=10)
    trace = adam_fit(ds, start, config, HyperParams((2.0,), 2.0), learn_lengthscales=True)
    learned = trace.final_theta.lengthscales[0]
    assert abs(learned - 0.5) < abs(2.0 - 0.5)


def test_adam_positivity_floor():
    ds = _dataset(n=32, seed=22)
    config = SGDConfig(m=32, iterations=50, learning_rate=0.5, seed=23)
    trace = adam_fit(ds, MK, config, HyperParams((0.01,), 0.01))
    assert np.all(trace.theta > 0)


def test_sgd_steps_replay_from_recorded_gradients():
    # theta_k = clamp(theta_{k-1} - (alpha1 / k) g_k), with g_k the recorded
    # (clipped) gradient
    lo, hi = 0.8, 2.5
    config = SGDConfig(m=16, iterations=40, alpha1=20.0, seed=41, clamp=(lo, hi), clip=0.05)
    trace = sgd_fit(_dataset(n=80, seed=40), MK, config, HyperParams((2.0,), 2.0))
    assert trace.clamp_events > 0 and trace.clip_events > 0
    for k in range(1, trace.iterations + 1):
        alpha_k = config.alpha1 / k
        assert trace.step_size[k] == alpha_k
        expected = np.clip(trace.theta[k - 1] - alpha_k * trace.gradient[k], lo, hi)
        assert np.array_equal(trace.theta[k], expected)


def test_adam_steps_replay_from_recorded_gradients():
    # the moments run on the recorded gradients, which are 0 in the frozen
    # lengthscale slot; the floor holds theta above DEFAULT_CLAMP_BOUNDS[0]
    floor = training.DEFAULT_CLAMP_BOUNDS[0]
    ds = simulate_gp(MK, HyperParams((1e-3,), 1e-3), 32, Gaussian(5.0), 1, seed=22)
    config = SGDConfig(m=32, iterations=50, learning_rate=0.5, seed=23)
    trace = adam_fit(ds, MK, config, HyperParams((0.3,), 0.3, (0.5,)))
    assert trace.clamp_events > 0
    assert np.all(trace.gradient[1:, 2] == 0.0) and np.all(trace.theta[:, 2] == 0.5)
    active = np.array([True, True, False])
    m_state = np.zeros(3)
    v_state = np.zeros(3)
    for k in range(1, trace.iterations + 1):
        g = trace.gradient[k]
        m_state = training.ADAM_BETA1 * m_state + (1.0 - training.ADAM_BETA1) * g
        v_state = training.ADAM_BETA2 * v_state + (1.0 - training.ADAM_BETA2) * g**2
        m_hat = m_state / (1.0 - training.ADAM_BETA1**k)
        v_hat = v_state / (1.0 - training.ADAM_BETA2**k)
        update = config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        expected = np.clip(trace.theta[k - 1] - np.where(active, update, 0.0), floor, np.inf)
        assert trace.step_size[k] == config.learning_rate
        assert np.array_equal(trace.theta[k], expected)


def test_trace_csv_format(tmp_path):
    # the trace.csv that `gpsgd fit` writes
    config = SGDConfig(m=16, iterations=3, alpha1=2.0, seed=24, grad_norm_every=3)
    trace = sgd_fit(_dataset(), MK, config, HyperParams((3.0,), 2.0))
    path = tmp_path / "trace.csv"
    _write_trace(path, trace)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iter,alpha,theta_1,theta_2,grad_norm_sq"   # no elapsed_ms column
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0.0"
    assert float(first[2]) == 3.0
    # full precision round trip
    assert float(lines[4].split(",")[2]) == trace.records[3].theta[0]
    assert all(len(line.split(",")) == 5 for line in lines)


def _replay_mismatches(trace, dataset, kernels, config) -> int:
    """Iterations whose recorded gradient differs, in any bit, from
    `draw_minibatch` + `stochastic_gradient` at the recorded theta."""
    index = build_index(dataset.X) if config.scheme == SamplingScheme.NEARBY else None
    mismatches = 0
    for k in range(1, trace.iterations + 1):
        theta = HyperParams.from_vector(trace.theta[k - 1], trace.n_kernels,
                                        trace.has_lengthscales)
        batch = draw_minibatch(config.scheme, dataset.n, config.m,
                               iteration_rng(config.seed, k), index)
        grad = stochastic_gradient(theta, kernels, batch, dataset.X, dataset.y, config.scaling)
        mismatches += not np.array_equal(grad, trace.gradient[k])
    return mismatches


@pytest.mark.parametrize("chunk", [7, training.SCHEDULE_CHUNK])
def test_sgd_uniform_fit_replays_bit_for_bit(monkeypatch, chunk):
    # batches drawn ahead in chunks of 7 cross several chunk boundaries
    monkeypatch.setattr(training, "SCHEDULE_CHUNK", chunk)
    ds = _dataset(n=200, seed=31)
    config = SGDConfig(m=24, iterations=60, alpha1=3.0, seed=32,
                       scaling=ScalingPolicy(ScalingMode.LOG_SCALED), clamp=(1e-3, 1e3))
    trace = sgd_fit(ds, MK, config, HyperParams((2.0,), 2.0))
    assert trace.iterations == 60
    assert _replay_mismatches(trace, ds, MK, config) == 0


@pytest.mark.parametrize("chunk", [7, training.SCHEDULE_CHUNK])
def test_adam_nearby_fit_replays_bit_for_bit(monkeypatch, chunk):
    # batches drawn ahead in chunks of 7 cross several chunk boundaries
    monkeypatch.setattr(training, "SCHEDULE_CHUNK", chunk)
    ds = simulate_function(levy, 300, Uniform(-10.0, 10.0), 4, noise_sd=1.0, seed=33)
    kernels = MultiKernel.single(KernelSpec.rbf((3.0,) * 4))
    config = SGDConfig(m=16, iterations=40, learning_rate=0.05,
                       scheme=SamplingScheme.NEARBY, seed=34)
    trace = adam_fit(ds, kernels, config, HyperParams((1.0,), 0.5), learn_lengthscales=True)
    assert trace.iterations == 40
    assert _replay_mismatches(trace, ds, kernels, config) == 0
