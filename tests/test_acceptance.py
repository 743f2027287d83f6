"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned in the asserts; stated runtime budgets are
asserted as upper bounds (actual runtimes are far below them).
"""

import math
import time
from pathlib import Path

import numpy as np
from gpsgd import (
    Gaussian,
    HyperParams,
    KernelSpec,
    Minibatch,
    MultiKernel,
    PredictStrategy,
    SamplingScheme,
    ScalingMode,
    ScalingPolicy,
    SGDConfig,
    Uniform,
    adam_fit,
    build_index,
    conditional_expected_gradient,
    curvature_experiment,
    eigendecay_fit,
    full_gradient,
    gaussian_kernel_beta,
    gaussian_kernel_eigenvalues,
    kernel_matrix,
    monte_carlo_expected_gradient,
    nll_loss,
    noise_curvature,
    predict,
    predict_nn,
    rmse,
    sgd_fit,
    simulate_function,
    simulate_gp,
    stochastic_gradient,
    surrogate_curvature,
    sym_eigenvalues,
    train_test_split,
)
from gpsgd.cli import main as cli_main
from gpsgd.data import levy, normalize
from gpsgd.diagnostics import DecayFamily
from gpsgd.seeds import component_rng

RBF_HALF = MultiKernel.single(KernelSpec.rbf(0.5))
TRUE_THETA = HyperParams((4.0,), 1.0)


def check(tag: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{tag}] {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"{tag}: {detail}"
    assert elapsed < budget, f"{tag}: runtime {elapsed:.1f}s exceeded budget {budget:.0f}s"


def _finite_difference_gradient(theta, kernels, X, y):
    vec = theta.to_vector()
    has_ls = theta.lengthscales is not None
    out = np.empty(vec.shape[0])
    for l in range(vec.shape[0]):
        h = 1e-5 * max(1.0, abs(vec[l]))
        up, dn = vec.copy(), vec.copy()
        up[l] += h
        dn[l] -= h
        f_up = nll_loss(HyperParams.from_vector(up, theta.n_kernels, has_ls), kernels, X, y)
        f_dn = nll_loss(HyperParams.from_vector(dn, theta.n_kernels, has_ls), kernels, X, y)
        out[l] = (f_up - f_dn) / (2 * h)
    return out


def test_ac01_gradient_matches_finite_differences():
    start = time.time()
    rng = component_rng(101, "ac1")
    worst = 0.0
    for fixture in range(20):
        n = int(rng.integers(10, 51))
        if fixture % 2 == 0:
            kernels = MultiKernel.single(KernelSpec.rbf((0.6, 1.1)))
            n_ls = 2
        else:
            kernels = MultiKernel((KernelSpec.rbf((0.8, 0.8)), KernelSpec.matern(1.5, 1.0)))
            n_ls = 3
        gen_theta = HyperParams(tuple(rng.uniform(1.0, 4.0, kernels.n_kernels)),
                                float(rng.uniform(0.5, 2.0)))
        ds = simulate_gp(kernels, gen_theta, n, Gaussian(2.0), 2, seed=int(rng.integers(1e6)))
        theta = HyperParams(
            tuple(rng.uniform(0.5, 3.0, kernels.n_kernels)),
            float(rng.uniform(0.5, 2.0)),
            lengthscales=tuple(rng.uniform(0.5, 1.5, n_ls)),
        )
        grad = full_gradient(theta, kernels, ds.X, ds.y)
        fd = _finite_difference_gradient(theta, kernels, ds.X, ds.y)
        worst = max(worst, float(np.max(np.abs(grad - fd) / np.abs(fd))))
    check("AC-01 gradient-vs-FD", worst < 1e-5, f"worst rel err {worst:.2e} < 1e-5",
          time.time() - start, 10.0)


def test_ac02_stochastic_gradient_reduces_to_full():
    start = time.time()
    worst = 0.0
    for n, seed in [(50, 1), (120, 2), (200, 3)]:
        ds = simulate_gp(RBF_HALF, TRUE_THETA, n, Gaussian(5.0), 1, seed=seed)
        theta = HyperParams((2.0 + seed,), 0.5 + 0.3 * seed)
        batch = Minibatch(np.arange(n))
        sg = stochastic_gradient(theta, RBF_HALF, batch, ds.X, ds.y, ScalingPolicy())
        fg = full_gradient(theta, RBF_HALF, ds.X, ds.y)
        worst = max(worst, float(np.max(np.abs(sg - fg))))
    check("AC-02 minibatch-reduction", worst < 1e-12, f"worst abs diff {worst:.2e} < 1e-12",
          time.time() - start, 5.0)


def _simulation_protocol_fit(m: int, rep: int, seed_base: int) -> tuple:
    """One repetition of the reference simulation protocol at batch size m."""
    ds = simulate_gp(RBF_HALF, TRUE_THETA, 1024, Gaussian(5.0), 1, seed=1000 + rep)
    config = SGDConfig(
        m=m, epochs=25, alpha1=9.0,
        scaling=ScalingPolicy(ScalingMode.LOG_SCALED, tau=3.0),
        clamp=(1e-4, 1e4), seed=seed_base + rep,
    )
    trace = sgd_fit(ds, RBF_HALF, config, HyperParams((5.0,), 3.0))
    return ds, trace


def test_ac03_noise_variance_convergence():
    start = time.time()
    finals, mse_quarter, mse_final = [], [], []
    for rep in range(10):
        _, trace = _simulation_protocol_fit(128, rep, 2000)
        history = trace.theta
        K = trace.iterations
        assert K == 200
        finals.append(abs(history[K, 1] - 1.0))
        mse_quarter.append((history[K // 4, 1] - 1.0) ** 2)
        mse_final.append((history[K, 1] - 1.0) ** 2)
    mean_err = float(np.mean(finals))
    decay_ratio = float(np.mean(mse_final) / np.mean(mse_quarter))
    ok = mean_err < 0.3 and decay_ratio < 0.5
    check("AC-03 noise-convergence", ok,
          f"mean |noise err| {mean_err:.3f} < 0.3, MSE(K)/MSE(K/4) {decay_ratio:.2f} < 0.5",
          time.time() - start, 1800.0)


def test_ac04_gradient_norm_decreases_with_batch_size():
    start = time.time()
    means = {}
    for m in (32, 128, 512):
        norms = []
        for rep in range(10):
            ds, trace = _simulation_protocol_fit(m, rep, 3000)
            grad = full_gradient(trace.final_theta, RBF_HALF, ds.X, ds.y)
            norms.append(float(grad @ grad))
        means[m] = float(np.mean(norms))
    ok = means[32] > means[128] > means[512]
    check("AC-04 batch-size-monotonicity", ok,
          "mean final ||grad||^2 = " + ", ".join(f"m={m}: {v:.2e}" for m, v in means.items()),
          time.time() - start, 5400.0)


def test_ac05_nearby_curvature_exceeds_uniform():
    start = time.time()
    reports = curvature_experiment(
        pool_size=2048, m_grid=[16, 32, 64, 128], replicates=50,
        theta=TRUE_THETA, kernel=KernelSpec.rbf(0.5),
        input_dist=Gaussian(10.0), seed=7,
    )
    by_key = {(r.m, r.scheme.value): r.mean for r in reports}
    gaps = {m: by_key[(m, "nearby")] - by_key[(m, "uniform")] for m in (16, 32, 64, 128)}
    ok = all(gap > 0 for gap in gaps.values())
    check("AC-05 curvature-ordering", ok,
          "nearby-uniform mean gaps " + ", ".join(f"m={m}: {g:+.3f}" for m, g in gaps.items()),
          time.time() - start, 600.0)


def test_ac06_surrogate_curvature_monotone_in_lengthscale():
    start = time.time()
    m = 2048
    values = [
        surrogate_curvature(TRUE_THETA, gaussian_kernel_eigenvalues(10.0, l, m), m)
        for l in (0.5, 0.75, 1.0, 1.5, 2.0)
    ]
    ok = all(a <= b for a, b in zip(values, values[1:]))
    check("AC-06 lengthscale-monotonicity", ok,
          "surrogate curvature " + " <= ".join(f"{v:.4f}" for v in values),
          time.time() - start, 1.0)


def test_ac07_monte_carlo_matches_expected_gradient():
    start = time.time()
    batch_X = component_rng(5, "ac7").normal(0, 5.0, size=(32, 1))
    scaling = ScalingPolicy(ScalingMode.LOG_SCALED, tau=3.0)
    details = []
    ok = True
    for theta in (HyperParams((3.0,), 2.0), TRUE_THETA):
        exact = conditional_expected_gradient(theta, TRUE_THETA, RBF_HALF, batch_X, scaling)
        mc, se = monte_carlo_expected_gradient(
            theta, TRUE_THETA, RBF_HALF, batch_X, scaling, draws=20000, seed=99
        )
        sigmas = np.abs(mc - exact) / se
        ok &= bool(np.all(sigmas < 4.0))
        details.append(f"max |mc-g*|/se {sigmas.max():.2f}")
        if theta is TRUE_THETA:
            ok &= bool(np.max(np.abs(exact)) < 1e-12)
            details.append(f"|g*(truth)| {np.max(np.abs(exact)):.1e}")
    check("AC-07 mc-oracle", ok, ", ".join(details) + " (4 se bound)",
          time.time() - start, 120.0)


def test_ac08_curvature_is_noise_gradient_derivative():
    start = time.time()
    pool = component_rng(13, "ac8-pool").normal(0, 10.0, size=(512, 1))
    worst = 0.0
    for rep in range(10):
        rng = component_rng(14, "ac8-batch", rep)
        idx = rng.choice(512, size=24, replace=False)
        batch_X = pool[idx]
        lam = sym_eigenvalues(kernel_matrix(KernelSpec.rbf(0.5), batch_X))
        theta = HyperParams((float(rng.uniform(1, 6)),), float(rng.uniform(0.5, 2)))
        gamma = noise_curvature(theta, lam)
        h = 1e-5 * theta.noise_variance
        def g2(noise):
            shifted = HyperParams(theta.signal_variances, noise)
            return conditional_expected_gradient(shifted, theta, RBF_HALF, batch_X)[1]
        fd = (g2(theta.noise_variance + h) - g2(theta.noise_variance - h)) / (2 * h)
        worst = max(worst, abs(fd - gamma) / gamma)
    check("AC-08 curvature-derivative", worst < 1e-4,
          f"worst rel err {worst:.2e} < 1e-4 over 10 minibatches",
          time.time() - start, 30.0)


def test_ac09_empirical_eigendecay_matches_analytic_law():
    start = time.time()
    n = 2048
    X = component_rng(123, "eig-check").normal(0, 10.0, size=(n, 1))
    spectrum = sym_eigenvalues(kernel_matrix(KernelSpec.rbf(0.5), X))
    beta = gaussian_kernel_beta(10.0, 0.5)
    analytic = gaussian_kernel_eigenvalues(10.0, 0.5, 10)
    empirical = spectrum[:10] / n
    point_err = float(np.max(np.abs(empirical - analytic) / analytic))
    fit = eigendecay_fit(spectrum, n, DecayFamily.EXPONENTIAL, index_range=(1, 40))
    rate_err = abs(fit.rate - (-math.log(beta))) / (-math.log(beta))
    ok = point_err < 0.15 and rate_err < 0.15
    check("AC-09 eigendecay", ok,
          f"max pointwise rel err {point_err:.3f} < 0.15 (j<=10), "
          f"rate rel err {rate_err:.3f} < 0.15",
          time.time() - start, 120.0)


def test_ac10_prediction_sanity_and_levy_benchmark():
    start = time.time()
    details = []

    # near-noiseless interpolation at the training points
    X_interp = np.arange(20, dtype=float)[:, None] * 0.7
    y_interp = component_rng(3, "ac10-interp").normal(0, 2.0, size=20)
    interp = predict(HyperParams((4.0,), 1e-12), RBF_HALF, X_interp, y_interp, X_interp)
    interp_err = float(np.max(np.abs(interp.mean - y_interp)))
    ok = interp_err < 1e-4
    details.append(f"interp err {interp_err:.1e}")

    # exact vs CG at n=2000
    ds2k = simulate_gp(RBF_HALF, TRUE_THETA, 2000, Gaussian(5.0), 1, seed=77)
    X_test = component_rng(4, "ac10-cg").normal(0, 5.0, size=(5, 1))
    tol = 1e-6
    exact = predict(TRUE_THETA, RBF_HALF, ds2k.X, ds2k.y, X_test, strategy=PredictStrategy.EXACT)
    via_cg = predict(TRUE_THETA, RBF_HALF, ds2k.X, ds2k.y, X_test,
                     strategy=PredictStrategy.CG, cg_tol=tol)
    cg_gap = float(max(np.max(np.abs(exact.mean - via_cg.mean)),
                       np.max(np.abs(exact.variance - via_cg.variance))))
    ok &= cg_gap < 10 * tol
    details.append(f"exact-cg gap {cg_gap:.1e}")

    # full conditioning set reproduces the exact prediction
    nn_full = predict_nn(TRUE_THETA, RBF_HALF, ds2k.X, ds2k.y, X_test, 2000,
                         build_index(ds2k.X))
    nn_gap = float(max(np.max(np.abs(nn_full.mean - exact.mean)),
                       np.max(np.abs(nn_full.variance - exact.variance))))
    ok &= nn_gap < 1e-10
    details.append(f"nn(n)-exact gap {nn_gap:.1e}")

    # Levy benchmark: Adam-trained GP beats the constant-mean baseline 2x
    raw = simulate_function(levy, 10_000, Uniform(-10, 10), 4, noise_sd=3.0,
                            seed=424242, name="levy")
    train_raw, test_raw = train_test_split(raw, 0.6, seed=31)
    train, test, _ = normalize(train_raw, test_raw)
    kernels = MultiKernel.single(KernelSpec.rbf((1.0,) * 4))
    config = SGDConfig(m=16, epochs=100, learning_rate=0.01,
                       scheme=SamplingScheme.NEARBY, seed=55)
    trace = adam_fit(train, kernels, config, HyperParams((1.0,), 0.5),
                     learn_lengthscales=True)
    pred = predict(trace.final_theta, kernels, train.X, train.y, test.X)
    model_rmse = rmse(pred.mean, test.y)
    baseline_rmse = rmse(np.full(test.n, float(train.y.mean())), test.y)
    factor = baseline_rmse / model_rmse
    ok &= factor >= 2.0
    details.append(f"levy baseline/model rmse {factor:.2f} >= 2")

    check("AC-10 prediction", ok, ", ".join(details), time.time() - start, 1200.0)


def test_ac11_subcommands_are_deterministic(tmp_path):
    start = time.time()

    def run(args):
        assert cli_main([str(a) for a in args]) == 0

    def csvs(d: Path) -> dict:
        return {p.name: p.read_bytes() for p in sorted(Path(d).glob("*.csv"))}

    mismatches = []
    sim_args = ["simulate", "--seed", 9, "--set", "n=64"]
    run(sim_args + ["--out", tmp_path / "sim1"])
    run(sim_args + ["--out", tmp_path / "sim2"])
    if csvs(tmp_path / "sim1") != csvs(tmp_path / "sim2"):
        mismatches.append("simulate")
    data = tmp_path / "sim1" / "dataset.csv"

    fit_args = ["fit", "--seed", 3, "--set", f"data={data}", "--set", "m=16",
                "--set", "epochs=2", "--set", "alpha1=2.0"]
    run(fit_args + ["--out", tmp_path / "fit1"])
    run(fit_args + ["--out", tmp_path / "fit2"])
    if csvs(tmp_path / "fit1") != csvs(tmp_path / "fit2"):
        mismatches.append("fit")

    pred_args = ["predict", "--seed", 0, "--set", f"train={data}",
                 "--set", f"test={data}", "--set", "theta_signal=[4.0]",
                 "--set", "theta_noise=1.0"]
    run(pred_args + ["--out", tmp_path / "p1"])
    run(pred_args + ["--out", tmp_path / "p2"])
    if csvs(tmp_path / "p1") != csvs(tmp_path / "p2"):
        mismatches.append("predict")

    diag_args = ["diagnose", "--seed", 4, "--set", "n=128",
                 "--set", "m_grid=[8,16]", "--set", "replicates=3",
                 "--set", "fit_index_range=[1,12]"]
    run(diag_args + ["--out", tmp_path / "d1"])
    run(diag_args + ["--out", tmp_path / "d2"])
    if csvs(tmp_path / "d1") != csvs(tmp_path / "d2"):
        mismatches.append("diagnose")

    exp_args = ["experiment", "--seed", 8, "--set", "study=vary-m",
                "--set", "n=48", "--set", "m_grid=[8,16]", "--set", "epochs=1",
                "--set", "reps=2"]
    run(exp_args + ["--out", tmp_path / "e1"])
    run(exp_args + ["--out", tmp_path / "e2"])
    if csvs(tmp_path / "e1") != csvs(tmp_path / "e2"):
        mismatches.append("experiment")

    check("AC-11 determinism", not mismatches,
          "all five subcommands byte-identical on rerun" if not mismatches
          else f"mismatched: {mismatches}",
          time.time() - start, 600.0)
