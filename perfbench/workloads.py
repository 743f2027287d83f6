"""The benchmark's workloads and the end-to-end stages they run.

Every workload is one user session on inputs generated from the workload
seed: set up the data, fit the hyperparameters, predict with the exact, CG
and nearest-neighbour strategies, and run the curvature and eigendecay
diagnostics. Each workload makes some of these stages large (its focus) and
keeps the others small, so that every end-to-end metric exists on every
workload while each workload stresses different layers.
Units are sized so that most stages repeat many times in one run: a
reported time is the median over samples spread across the whole run.

`Session` holds one workload's inputs and runs one unit of each stage
through the public gpsgd API. `run_stages` interleaves timed samples of all
stages, each for its share of the measuring time, and returns the time per
unit of each sample; `gates` checks the outputs.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import gpsgd as g
from gpsgd.seeds import component_rng

CG_TOL = 1e-6            # the CLI's predict default
LEVY = {"kind": "levy"}  # the AC-10 protocol: n=10 000, D=4, split 0.6, normalised


def _gp(n_train: int, input_sd: float) -> dict:
    """1-D GP data as `gpsgd simulate` draws it (RBF 0.5, theta=(4, 1)),
    plus 256 held-out test points."""
    return {"kind": "gp", "n_train": n_train, "n_test": 256, "input_sd": input_sd}


@dataclass(frozen=True)
class Workload:
    data: dict
    fit: dict            # optimizer settings (see Session.fit_config); rows: fit on the first rows
    predict: dict        # fixed theta (signal, noise), train rows, test points per stage
    diagnose: dict       # curvature_experiment sizes
    shares: dict         # stage -> share of the measuring time
    checks: tuple        # the workload's own gates, besides those every workload has


SGD_DEFAULTS = {"optimizer": "sgd", "m": 128, "epochs": 25, "alpha1": 9.0,
                "scheme": "uniform", "theta0": (1.0, 1.0)}
# One fit unit is 1000 iterations (under 2 s), so that a run holds several;
# with 500 the AC-10 RMSE gate failed on some seeds.
ADAM_LEVY = {"optimizer": "adam", "m": 16, "iterations": 1000, "learning_rate": 0.01,
             "scheme": "nearby", "theta0": (1.0, 0.5)}
# The CLI's diagnose defaults; one unit takes about a second.
DIAGNOSE_DEFAULTS = {"pool": 2048, "m_grid": (16, 32, 64, 128), "replicates": 50}
DIAGNOSE_SMALL = {"pool": 512, "m_grid": (16, 64), "replicates": 10}
N_NEIGHBORS = 256         # the CLI's predict default
MIN_SAMPLE_S = 0.3        # work in one timed sample, in seconds
WARMUP_MAX_S = 1.0        # a first call shorter than this is not counted
GP_THETA = (4.0, 1.0)     # the generating theta of the GP data
LEVY_THETA = (1.0, 0.1)

WORKLOADS = {
    "fit-sgd-uniform": Workload(
        data=_gp(2048, 5.0),
        # 25 epochs of m=128 on the first 640 rows: 125 iterations per fit
        fit={**SGD_DEFAULTS, "rows": 640},
        # Predict on all 2048 rows: with a few hundred, BLAS thread wake-ups
        # dominated the call and its time drifted with the host's load.
        predict={"theta": GP_THETA, "train": 2048, "exact": 256, "cg": 1, "nearest": 32},
        diagnose=DIAGNOSE_DEFAULTS,
        shares={"fit": 0.55, "exact": 0.1, "cg": 0.1, "nearest": 0.1, "diagnose": 0.15},
        checks=("fit.noise", "diagnose.ordering"),
    ),
    "predict-n6000": Workload(
        data=LEVY,
        fit=ADAM_LEVY,
        predict={"theta": LEVY_THETA, "train": 6000, "exact": 256, "cg": 1, "nearest": 64},
        diagnose=DIAGNOSE_SMALL,
        # the CG share holds two units of about 7 s at the benchmark's 50 s
        shares={"fit": 0.26, "exact": 0.22, "cg": 0.32, "nearest": 0.1, "diagnose": 0.1},
        checks=("fit.rmse_ratio", "predict.nearest_rmse"),
    ),
}

STAGES = ("fit", "exact", "cg", "nearest", "diagnose")
STAGE_METRIC = {"fit": "fit_s", "exact": "predict_exact_s", "cg": "predict_cg_s",
                "nearest": "predict_nearest_s", "diagnose": "diagnose_s"}


class _Direct:
    """Stands in for a Tracer when nothing is traced."""

    @staticmethod
    def call(name, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)


class Session:
    """One workload's inputs, generated from the seed, and one unit of each
    stage. Seeds of the parts are seed + a fixed offset."""

    def __init__(self, name: str, seed: int, tracer=_Direct):
        self.w = WORKLOADS[name]
        self.seed = seed
        call = tracer.call
        if self.w.data["kind"] == "levy":
            raw = call("data.simulate_function", g.simulate_function, g.levy, 10_000,
                       g.Uniform(-10.0, 10.0), 4, noise_sd=3.0, seed=seed, name="levy")
            train, test = call("data.train_test_split", g.train_test_split, raw, 0.6, seed + 1)
            self.train, self.test, _ = call("data.normalize", g.normalize, train, test)
            self.kernels = g.MultiKernel.single(g.KernelSpec.rbf((1.0,) * 4))
        else:
            d = self.w.data
            self.kernels = g.MultiKernel.single(g.KernelSpec.rbf(0.5))
            full = call("data.simulate_gp", g.simulate_gp, self.kernels,
                        g.HyperParams(GP_THETA[:1], GP_THETA[1]), d["n_train"] + d["n_test"],
                        g.Gaussian(d["input_sd"]), 1, seed=seed)
            self.train = full.subset(np.arange(d["n_train"]))
            self.test = full.subset(np.arange(d["n_train"], full.n))
        rows = self.w.fit.get("rows")
        self.fit_train = self.train.subset(np.arange(rows)) if rows else self.train

    # -- fit ---------------------------------------------------------------
    def fit_config(self) -> g.SGDConfig:
        f = self.w.fit
        return g.SGDConfig(
            m=f["m"], iterations=f.get("iterations"), epochs=f.get("epochs"),
            alpha1=f.get("alpha1", 1.0), learning_rate=f.get("learning_rate", 0.01),
            scheme=g.SamplingScheme(f["scheme"]),
            seed=self.seed + 2,
        )

    def theta0(self) -> g.HyperParams:
        signal, noise = self.w.fit["theta0"]
        return g.HyperParams((signal,), noise)

    def run_fit(self) -> g.FitTrace:
        if self.w.fit["optimizer"] == "adam":
            return g.adam_fit(self.fit_train, self.kernels, self.fit_config(), self.theta0(),
                              learn_lengthscales=True)
        return g.sgd_fit(self.fit_train, self.kernels, self.fit_config(), self.theta0())

    # -- predict -----------------------------------------------------------
    def predict_theta(self) -> g.HyperParams:
        signal, noise = self.w.predict["theta"]
        return g.HyperParams((signal,), noise)

    def predict_inputs(self, stage: str):
        rows = self.w.predict["train"]
        points = self.w.predict[stage]
        return (self.train.X[:rows], self.train.y[:rows], self.test.X[:points],
                self.test.y[:points])

    def run_exact(self) -> g.PredictionResult:
        X, y, Xt, _ = self.predict_inputs("exact")
        return g.predict(self.predict_theta(), self.kernels, X, y, Xt,
                         strategy=g.PredictStrategy.EXACT)

    def run_cg(self) -> g.PredictionResult:
        X, y, Xt, _ = self.predict_inputs("cg")
        return g.predict(self.predict_theta(), self.kernels, X, y, Xt,
                         strategy=g.PredictStrategy.CG, cg_tol=CG_TOL)

    def run_nearest(self) -> g.PredictionResult:
        X, y, Xt, _ = self.predict_inputs("nearest")
        index = g.build_index(X)
        return g.predict_nn(self.predict_theta(), self.kernels, X, y, Xt, N_NEIGHBORS, index)

    # -- diagnose ----------------------------------------------------------
    def diagnose_parts(self):
        d = self.w.diagnose
        theta = g.HyperParams(GP_THETA[:1], GP_THETA[1])
        return d, theta, g.KernelSpec.rbf(0.5), g.Gaussian(10.0)

    def run_diagnose(self):
        """`gpsgd diagnose`: curvature over replicate batches, then the
        eigendecay fit of the kernel matrix on a fresh pool."""
        d, theta, spec, dist = self.diagnose_parts()
        reports = g.curvature_experiment(d["pool"], list(d["m_grid"]), d["replicates"],
                                         theta, spec, dist, seed=self.seed + 3)
        X = dist.sample(component_rng(self.seed + 4, "diagnose-eigendecay"),
                        d["pool"], 1)
        spectrum = g.sym_eigenvalues(g.kernel_matrix(spec, X))
        fit = g.eigendecay_fit(spectrum, d["pool"], g.DecayFamily.EXPONENTIAL)
        return reports, fit

    def unit(self, stage: str):
        return getattr(self, "run_" + stage)()


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    def run(self, name: str, fn):
        """Run one operation; a raised exception counts as its failure."""
        self.attempted += 1
        try:
            return True, fn()
        except Exception as exc:  # the benchmark keeps going and reports it
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return False, None


def run_stages(session: Session, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Run each stage for its share of `seconds`, interleaving the stages:
    the next sample is always of the stage that has used the least of its
    share, so every stage samples the whole run and a slow stretch of the
    host does not fall on one stage alone.

    A stage's first call warms up caches and lazy imports and sizes its
    samples; it is not counted unless it alone lasts WARMUP_MAX_S. A sample
    repeats the call until it holds about MIN_SAMPLE_S of work and records
    the time per call, so that the median over samples does not jump
    between the fast and the slow mode of a bimodal call time. A stage
    stops when its median sample no longer fits its share, or when a call
    fails. Returns, per stage, the per-call times of the samples and every
    counted call's output."""
    shares = session.w.shares
    budget = {stage: shares[stage] * seconds for stage in STAGES}
    spent = dict.fromkeys(STAGES, 0.0)
    reps: dict[str, int] = {}
    sample_s: dict[str, list[float]] = {stage: [] for stage in STAGES}
    times: dict[str, list[float]] = {stage: [] for stage in STAGES}
    outputs: dict[str, list] = {stage: [] for stage in STAGES}
    live = list(STAGES)
    while live:
        stage = min(live, key=lambda s: spent[s] / shares[s])
        if sample_s[stage] and spent[stage] + statistics.median(sample_s[stage]) > budget[stage]:
            live.remove(stage)
            continue
        calls = reps.get(stage, 1)
        t0 = time.perf_counter()
        for _ in range(calls):
            ok, out = tally.run(stage, lambda: session.unit(stage))
            if not ok:
                break
            outputs[stage].append(out)
        elapsed = time.perf_counter() - t0
        spent[stage] += elapsed
        if not ok:
            live.remove(stage)
        elif stage not in reps:
            reps[stage] = max(1, math.ceil(MIN_SAMPLE_S / elapsed))
            if elapsed < WARMUP_MAX_S:
                outputs[stage].pop()
                continue
        if ok:
            sample_s[stage].append(elapsed)
            times[stage].append(elapsed / calls)
    return times, outputs


def iteration_ms(trace: g.FitTrace) -> np.ndarray:
    elapsed = np.array([rec.elapsed for rec in trace.records])
    return np.diff(elapsed) * 1e3


def rmse_ratio(session: Session, theta: g.HyperParams) -> float:
    """Constant-mean baseline RMSE over the RMSE of the exact prediction at
    `theta`, from the first 4000 training points on the first 1000 test
    points."""
    X, y = session.train.X[:4000], session.train.y[:4000]
    Xt, yt = session.test.X[:1000], session.test.y[:1000]
    pred = g.predict(theta, session.kernels, X, y, Xt, strategy=g.PredictStrategy.EXACT)
    return g.rmse(np.full(yt.shape, y.mean()), yt) / g.rmse(pred.mean, yt)


def gates(session: Session, outputs: dict, tally: Tally) -> None:
    """Correctness checks on the last output of each stage; each failed check
    counts as a failed operation."""
    w = session.w
    outputs = {stage: outs[-1] for stage, outs in outputs.items() if outs}
    if "fit" in outputs:
        fitted = outputs["fit"].final_theta
        theta = fitted.to_vector()
        tally.check("fit.finite", bool(np.all(np.isfinite(theta))), f"theta {theta}")
        if "fit.noise" in w.checks:
            tally.check("fit.noise", abs(fitted.noise_variance - 1.0) <= 0.3,
                        f"final noise {fitted.noise_variance:.4f} not within 0.3 of 1.0")
        if "fit.rmse_ratio" in w.checks:
            ratio = rmse_ratio(session, fitted)
            tally.check("fit.rmse_ratio", ratio >= 2.0, f"baseline/model rmse {ratio:.3f} < 2")
    if "exact" in outputs:
        exact = outputs["exact"]
        _, _, _, y_test = session.predict_inputs("exact")
        if "cg" in outputs:
            k = outputs["cg"].mean.shape[0]
            gap = max(np.max(np.abs(outputs["cg"].mean - exact.mean[:k])),
                      np.max(np.abs(outputs["cg"].variance - exact.variance[:k])))
            tally.check("predict.cg_gap", gap < 10 * CG_TOL,
                        f"exact-vs-CG gap {gap:.3e} >= {10 * CG_TOL:g}")
        if "predict.nearest_rmse" in w.checks and "nearest" in outputs:
            k = outputs["nearest"].mean.shape[0]
            nn = g.rmse(outputs["nearest"].mean, y_test[:k])
            ref = g.rmse(exact.mean[:k], y_test[:k])
            tally.check("predict.nearest_rmse", nn <= 1.1 * ref,
                        f"nearest rmse {nn:.4f} above 1.1 x exact rmse {ref:.4f}")
    if "diagnose" in outputs:
        reports, fit = outputs["diagnose"]
        means = {(r.m, r.scheme.value): r.mean for r in reports}
        if "diagnose.ordering" in w.checks:
            for m in w.diagnose["m_grid"]:
                near, uni = means[(m, "nearby")], means[(m, "uniform")]
                tally.check(f"diagnose.ordering_m{m}", near > uni,
                            f"m={m}: nearby curvature {near:.4f} <= uniform {uni:.4f}")
        tally.check("diagnose.rate", math.isfinite(fit.rate), f"eigendecay rate {fit.rate}")
