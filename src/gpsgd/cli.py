"""Command-line driver: simulate data, fit models, predict, run diagnostics,
and execute multi-repetition studies with reproducible seeds and CSV outputs.

Configuration is a flat JSON document merged with `--set key=value` overrides
(flags win); unknown keys are rejected. Every run writes a `summary.txt` with
the resolved-config hash and elapsed time. Output CSVs contain no wall-clock
columns, so a rerun with the same config and seed is byte-identical.

Exit codes: 0 success, 1 runtime or numerical failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .data import (
    BENCHMARK_FUNCTIONS,
    Dataset,
    Gaussian,
    Uniform,
    load_csv,
    save_csv,
    simulate_function,
    simulate_gp,
)
from .diagnostics import (
    DecayFamily,
    curvature_experiment,
    curvature_reports_to_csv,
    eigendecay_fit,
    eigendecay_fits_to_csv,
    gaussian_kernel_eigenvalues,
    surrogate_curvature,
)
from .kernels import HyperParams, KernelFamily, KernelSpec, MultiKernel, kernel_matrix
from .linalg import sym_eigenvalues
from .prediction import PredictStrategy, predict, predict_nn, rmse
from .sampling import SamplingScheme, build_index
from .seeds import derived_seed
from .training import (
    DEFAULT_CLAMP_BOUNDS,
    MIN_LOG_SCALED_M,
    FitTrace,
    ScalingPolicy,
    SGDConfig,
    adam_fit,
    sgd_fit,
)


class ConfigError(Exception):
    """Bad configuration or usage; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration

_KERNEL_KEYS = {
    "kernel_family": "rbf",        # rbf | matern
    "lengthscales": [0.5],         # one per input dimension (rbf) or [h] (matern)
    "matern_order": None,          # 0.5 | 1.5 | 2.5
    "kernels": None,               # list of kernel blocks for a sum of kernels
}

_INPUT_KEYS = {
    "input_kind": "gaussian",      # gaussian | uniform
    "input_sd": 5.0,
    "input_low": -10.0,
    "input_high": 10.0,
}

_OPTIMIZER_KEYS = {
    "optimizer": "sgd",            # sgd | adam
    "m": 128,
    "epochs": 25,
    "iterations": None,            # overrides epochs when set
    "alpha1": 9.0,
    "learning_rate": 0.01,
    "scaling": "linear",           # linear | log (signal slots)
    "tau": 3.0,
    "sampling": "uniform",         # uniform | nearby
    "theta0_signal": [1.0],
    "theta0_noise": 1.0,
    "learn_lengthscales": False,
    "clamp": None,                 # true for defaults, or [theta_min, theta_max]
    "clip": None,                  # gradient-norm threshold G
    "grad_norm_every": 0,
}

SCHEMAS: dict[str, dict] = {
    "simulate": {
        "generator": "gp",         # gp | levy | griewank
        "n": 1024,
        "input_dim": 1,
        "theta_signal": [4.0],
        "theta_noise": 1.0,
        "noise_sd": 1.0,           # function generators only
        "seed": 0,
        **_INPUT_KEYS,
        **_KERNEL_KEYS,
    },
    "fit": {
        "data": None,              # dataset CSV path (required)
        "seed": 0,
        **_KERNEL_KEYS,
        **_OPTIMIZER_KEYS,
    },
    "predict": {
        "train": None,             # training CSV path (required)
        "test": None,              # test CSV path (required)
        "params": None,            # params.json from fit; overrides theta_* keys
        "theta_signal": [1.0],
        "theta_noise": 1.0,
        "strategy": "auto",        # auto | exact | cg | nearest
        "cg_tol": 1e-6,
        "cg_max_iter": 1000,
        "n_neighbors": 256,
        "seed": 0,
        **_KERNEL_KEYS,
    },
    "diagnose": {
        "n": 2048,
        "input_dim": 1,
        "theta_signal": [4.0],
        "theta_noise": 1.0,
        "m_grid": [16, 32, 64, 128],
        "replicates": 50,
        "decay_family": "exponential",   # exponential | polynomial
        "fit_index_range": None,         # [lo, hi], 1-based inclusive
        "seed": 0,
        **{**_INPUT_KEYS, "input_sd": 10.0},
        **_KERNEL_KEYS,
    },
    "experiment": {
        "study": None,             # required study name
        "reps": 10,
        "n": 1024,
        "input_dim": 1,
        "theta_signal": [4.0],
        "theta_noise": 1.0,
        "m": 128,
        "m_grid": [32, 128, 512],
        "replicates": 50,
        "lengthscale_grid": [0.5, 0.75, 1.0, 1.5, 2.0],
        "surrogate_m": 2048,
        "epochs": 25,
        "alpha1": 9.0,
        "scaling": "log",
        "tau": 3.0,
        "sampling": "uniform",
        "theta0_signal": [5.0],
        "theta0_noise": 3.0,
        "clamp": True,
        "clip": None,
        "grad_norm_every": 0,
        "seed": None,              # mandatory for reproducible studies
        **{**_INPUT_KEYS, "input_sd": 5.0},
        **_KERNEL_KEYS,
    },
}

STUDIES = ("param-convergence", "grad-convergence", "vary-m", "curvature", "lengthscale-monotone")


def _parse_set(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def resolve_config(command: str, args) -> dict:
    schema = SCHEMAS[command]
    cfg = dict(schema)
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg.update(loaded)
    cfg.update(_parse_set(args.set))
    if args.seed is not None:
        cfg["seed"] = args.seed
    unknown = set(cfg) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    if command == "experiment" and cfg["seed"] is None:
        raise ConfigError("experiment requires a seed (--seed or the seed key)")
    if cfg.get("seed") is None:
        cfg["seed"] = 0
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _build_kernels(cfg: dict) -> MultiKernel:
    try:
        if cfg.get("kernels"):
            specs = tuple(KernelSpec.from_config(block) for block in cfg["kernels"])
            return MultiKernel(specs)
        block = {"family": cfg["kernel_family"], "lengthscales": cfg["lengthscales"]}
        if cfg.get("matern_order") is not None:
            block["matern_order"] = cfg["matern_order"]
        return MultiKernel((KernelSpec.from_config(block),))
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad kernel config: {exc}") from None


def _int(key: str, raw) -> int:
    """`raw` as an integer, else a ConfigError naming the key."""
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None


def _int_in_range(key: str, raw, hi: int | None = None) -> int:
    """`raw` as an integer in [1, hi] (or >= 1 without `hi`), else a
    ConfigError naming the key."""
    value = _int(key, raw)
    if hi is None and value < 1:
        raise ConfigError(f"{key} must be a positive integer, got {value}")
    if hi is not None and not 1 <= value <= hi:
        raise ConfigError(f"{key} must be in [1, {hi}], got {value}")
    return value


def _batch_size(key: str, raw, n: int, scaling: str) -> int:
    """A minibatch size from key `key`: in [1, n], and at least
    MIN_LOG_SCALED_M when the signal slots are log-scaled."""
    m = _int_in_range(key, raw, n)
    if scaling == "log" and m < MIN_LOG_SCALED_M:
        raise ConfigError(f"scaling=log requires {key} >= {MIN_LOG_SCALED_M}, got {m}")
    return m


def _input_dim(cfg: dict, kernels: MultiKernel | None) -> int:
    """input_dim as a positive integer that matches the lengthscale count of
    every RBF kernel (a Matern kernel takes any dimension)."""
    dim = _int_in_range("input_dim", cfg["input_dim"])
    for spec in () if kernels is None else kernels.components:
        if spec.family == KernelFamily.RBF and spec.n_lengthscales != dim:
            raise ConfigError(
                f"input_dim is {dim} but an rbf kernel has {spec.n_lengthscales} lengthscales"
            )
    return dim


def _build_input_dist(cfg: dict):
    kind = cfg["input_kind"]
    if kind == "gaussian":
        return Gaussian(float(cfg["input_sd"]))
    if kind == "uniform":
        return Uniform(float(cfg["input_low"]), float(cfg["input_high"]))
    raise ConfigError(f"unknown input_kind {kind!r}")


def _build_theta(cfg: dict, kernels: MultiKernel, signal_key: str, noise_key: str,
                 lengthscales: tuple[float, ...] | None = None) -> HyperParams:
    signal = cfg[signal_key]
    if np.isscalar(signal):
        signal = [signal]
    if len(signal) != kernels.n_kernels:
        raise ConfigError(
            f"{signal_key} has {len(signal)} entries for {kernels.n_kernels} kernels"
        )
    try:
        return HyperParams(tuple(float(v) for v in signal), float(cfg[noise_key]), lengthscales)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _build_sgd_config(cfg: dict, kernels: MultiKernel, seed: int) -> SGDConfig:
    scaling_name = cfg["scaling"]
    if scaling_name == "linear":
        scaling = ScalingPolicy.linear(kernels.n_kernels)
    elif scaling_name == "log":
        scaling = ScalingPolicy.log_signal(kernels.n_kernels, tau=float(cfg["tau"]))
    else:
        raise ConfigError(f"unknown scaling {scaling_name!r}")
    try:
        scheme = SamplingScheme(cfg["sampling"])
    except ValueError:
        raise ConfigError(f"unknown sampling scheme {cfg['sampling']!r}") from None
    clamp = cfg["clamp"]
    if clamp is True:
        clamp = DEFAULT_CLAMP_BOUNDS
    elif clamp is not None:
        clamp = (float(clamp[0]), float(clamp[1]))
    iterations = cfg.get("iterations")
    epochs = cfg.get("epochs")
    if iterations is not None:
        epochs = None
    try:
        return SGDConfig(
            m=_int("m", cfg["m"]),
            iterations=None if iterations is None else _int("iterations", iterations),
            epochs=None if epochs is None else _int("epochs", epochs),
            alpha1=float(cfg["alpha1"]) if cfg.get("alpha1") is not None else 1.0,
            learning_rate=float(cfg.get("learning_rate", 0.01)),
            scheme=scheme,
            scaling=scaling,
            clamp=clamp,
            clip=None if cfg["clip"] is None else float(cfg["clip"]),
            seed=seed,
            grad_norm_every=_int("grad_norm_every", cfg.get("grad_norm_every", 0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_summary(out: Path, command: str, cfg: dict, started: float, extra: dict) -> None:
    lines = [
        f"command: {command}",
        f"config_hash: {config_hash(cfg)}",
        f"elapsed_seconds: {time.time() - started:.3f}",
    ]
    lines += [f"{key}: {value}" for key, value in extra.items()]
    _atomic_write(out / "summary.txt", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(cfg: dict, out: Path) -> dict:
    input_dist = _build_input_dist(cfg)
    n = _int_in_range("n", cfg["n"])
    seed = int(cfg["seed"])
    generator = cfg["generator"]
    kernels = _build_kernels(cfg) if generator == "gp" else None
    dim = _input_dim(cfg, kernels)
    if generator == "gp":
        theta = _build_theta(cfg, kernels, "theta_signal", "theta_noise")
        dataset = simulate_gp(kernels, theta, n, input_dist, dim, seed)
    elif generator in BENCHMARK_FUNCTIONS:
        dataset = simulate_function(
            BENCHMARK_FUNCTIONS[generator], n, input_dist, dim,
            float(cfg["noise_sd"]), seed, name=generator,
        )
    else:
        raise ConfigError(f"unknown generator {generator!r}")
    save_csv(dataset, out / "dataset.csv")
    _atomic_write(out / "provenance.json", json.dumps(dataset.provenance, indent=2) + "\n")
    return {"rows": dataset.n, "columns": dataset.input_dim + 1}


def _load_dataset(path_value, what: str) -> Dataset:
    if not path_value:
        raise ConfigError(f"{what} dataset path is required")
    path = Path(path_value)
    if not path.exists():
        raise ConfigError(f"{what} dataset not found: {path}")
    return load_csv(path)


def cmd_fit(cfg: dict, out: Path) -> dict:
    dataset = _load_dataset(cfg["data"], "data")
    kernels = _build_kernels(cfg)
    seed = int(cfg["seed"])
    run_cfg = _build_sgd_config(cfg, kernels, seed)
    optimizer = cfg["optimizer"]
    learn_ls = bool(cfg["learn_lengthscales"])
    if learn_ls and optimizer != "adam":
        raise ConfigError("learn_lengthscales requires the adam optimizer")
    theta0 = _build_theta(cfg, kernels, "theta0_signal", "theta0_noise")
    if optimizer not in ("sgd", "adam"):
        raise ConfigError(f"unknown optimizer {optimizer!r}")
    _batch_size("m", cfg["m"], dataset.n, cfg["scaling"])
    if optimizer == "sgd":
        trace = sgd_fit(dataset, kernels, run_cfg, theta0)
    else:
        trace = adam_fit(dataset, kernels, run_cfg, theta0, learn_lengthscales=learn_ls)
    trace.to_csv(out / "trace.csv", include_timing=False)
    final = trace.final_theta
    params = {
        "theta_signal": list(final.signal_variances),
        "theta_noise": final.noise_variance,
    }
    if final.lengthscales is not None:
        params["lengthscales"] = list(final.lengthscales)
    _atomic_write(out / "params.json", json.dumps(params, indent=2) + "\n")
    return {
        "iterations": trace.iterations,
        "clamp_events": trace.clamp_events,
        "clip_events": trace.clip_events,
        "final_theta": [repr(float(v)) for v in final.to_vector()],
    }


def cmd_predict(cfg: dict, out: Path) -> dict:
    train = _load_dataset(cfg["train"], "train")
    test = _load_dataset(cfg["test"], "test")
    kernels = _build_kernels(cfg)
    if cfg["params"] is not None:
        params_path = Path(cfg["params"])
        if not params_path.exists():
            raise ConfigError(f"params file not found: {params_path}")
        params = json.loads(params_path.read_text())
        lengthscales = params.get("lengthscales")
        theta = HyperParams(
            tuple(float(v) for v in params["theta_signal"]),
            float(params["theta_noise"]),
            None if lengthscales is None else tuple(float(v) for v in lengthscales),
        )
    else:
        theta = _build_theta(cfg, kernels, "theta_signal", "theta_noise")

    strategy = cfg["strategy"]
    if strategy == "nearest":
        n_neighbors = _int_in_range("n_neighbors", cfg["n_neighbors"], train.n)
        result = predict_nn(theta, kernels, train.X, train.y, test.X,
                            n_neighbors, build_index(train.X))
    else:
        chosen = None if strategy == "auto" else PredictStrategy(strategy)
        result = predict(theta, kernels, train.X, train.y, test.X, strategy=chosen,
                         cg_tol=float(cfg["cg_tol"]), cg_max_iter=int(cfg["cg_max_iter"]))

    lines = ["index,mean,variance,truth,abs_err"]
    for i in range(test.n):
        err = abs(result.mean[i] - test.y[i])
        lines.append(
            f"{i},{repr(float(result.mean[i]))},{repr(float(result.variance[i]))},"
            f"{repr(float(test.y[i]))},{repr(float(err))}"
        )
    _atomic_write(out / "predictions.csv", "\n".join(lines) + "\n")
    value = rmse(result.mean, test.y)
    print(f"rmse={value!r}")
    extra = {"rmse": repr(value), "strategy": result.strategy.value, "rows": test.n}
    if result.cg_iterations is not None:
        extra["cg_iterations_y"] = result.cg_iterations[0]
        extra["cg_iterations_max_test_column"] = max(result.cg_iterations[1:], default=0)
    return extra


def cmd_diagnose(cfg: dict, out: Path) -> dict:
    kernels = _build_kernels(cfg)
    if kernels.n_kernels != 1:
        raise ConfigError("diagnose uses a single kernel")
    spec = kernels.components[0]
    theta = _build_theta(cfg, kernels, "theta_signal", "theta_noise")
    input_dist = _build_input_dist(cfg)
    seed = int(cfg["seed"])
    n = _int_in_range("n", cfg["n"])
    dim = _input_dim(cfg, kernels)
    reports = curvature_experiment(
        pool_size=n,
        m_grid=[_int_in_range("m_grid", m, n) for m in cfg["m_grid"]],
        replicates=int(cfg["replicates"]),
        theta=theta,
        kernel=spec,
        input_dist=input_dist,
        seed=seed,
        input_dim=dim,
    )
    curvature_reports_to_csv(reports, out / "curvature.csv")

    pool_rng_seed = derived_seed(seed, "diagnose-eigendecay")
    X = input_dist.sample(np.random.Generator(np.random.Philox(pool_rng_seed)), n, dim)
    spectrum = sym_eigenvalues(kernel_matrix(spec, X))
    family = DecayFamily(cfg["decay_family"])
    index_range = cfg["fit_index_range"]
    fit = eigendecay_fit(
        spectrum, n, family,
        index_range=None if index_range is None else (int(index_range[0]), int(index_range[1])),
    )
    eigendecay_fits_to_csv([fit], out / "eigendecay.csv")
    return {
        "curvature_rows": len(reports),
        "eigendecay_rate": repr(fit.rate),
        "eigendecay_scale": repr(fit.scale),
    }


# ---------------------------------------------------------------------------
# experiment studies

def _simulate_pool(cfg: dict, rep: int) -> Dataset:
    kernels = _build_kernels(cfg)
    theta = _build_theta(cfg, kernels, "theta_signal", "theta_noise")
    data_seed = derived_seed(int(cfg["seed"]), f"{cfg['study']}:data", rep)
    return simulate_gp(kernels, theta, int(cfg["n"]), _build_input_dist(cfg),
                       int(cfg["input_dim"]), data_seed)


def _fit_rep(cfg: dict, rep: int, tag: str, m: int, theta0_signal, theta0_noise,
             alpha1: float) -> FitTrace:
    kernels = _build_kernels(cfg)
    dataset = _simulate_pool(cfg, rep)
    fit_seed = derived_seed(int(cfg["seed"]), f"{cfg['study']}:{tag}", rep)
    run_cfg = _build_sgd_config(
        {**cfg, "m": m, "alpha1": alpha1, "iterations": None}, kernels, fit_seed
    )
    theta0 = HyperParams(tuple(float(v) for v in theta0_signal), float(theta0_noise))
    return sgd_fit(dataset, kernels, run_cfg, theta0)


def _aggregate_csv(path: Path, histories: list[np.ndarray], names: list[str]) -> None:
    """Per-iteration mean and sd across repetitions for each traced column."""
    stack = np.stack(histories)          # (reps, iters+1, params)
    mean = stack.mean(axis=0)
    sd = stack.std(axis=0, ddof=0)
    header = ["iter"]
    for name in names:
        header += [f"{name}_mean", f"{name}_sd"]
    lines = [",".join(header)]
    for k in range(mean.shape[0]):
        row = [str(k)]
        for j in range(mean.shape[1]):
            row += [repr(float(mean[k, j])), repr(float(sd[k, j]))]
        lines.append(",".join(row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _run_param_convergence_rep(payload: tuple) -> tuple:
    cfg, rep, case_idx, theta0, alpha1 = payload
    trace = _fit_rep(cfg, rep, f"case{case_idx}", int(cfg["m"]),
                     theta0[:-1], theta0[-1], alpha1)
    return (case_idx, rep, trace.theta_history(), trace.param_names,
            trace.clamp_events, trace.clip_events)


_PARAM_CASES = (
    # (theta0 incl. noise slot, alpha1); stepsizes follow the reference runs,
    # start points span above/below the simulated truth.
    ((5.0, 3.0), 9.0),
    ((2.0, 0.5), 9.0),
    ((6.0, 2.0), 6.0),
)


def _study_param_convergence(cfg: dict, out: Path, pool) -> dict:
    reps = int(cfg["reps"])
    tasks = [
        (cfg, rep, case_idx, theta0, alpha1)
        for case_idx, (theta0, alpha1) in enumerate(_PARAM_CASES)
        for rep in range(reps)
    ]
    by_case: dict[int, list[np.ndarray]] = {i: [None] * reps for i in range(len(_PARAM_CASES))}
    names = None
    clamp_total = clip_total = 0
    for case_idx, rep, history, rec_names, clamps, clips in pool(
            _run_param_convergence_rep, tasks):
        by_case[case_idx][rep] = history
        names = rec_names
        clamp_total += clamps
        clip_total += clips
        _write_history_csv(out / f"case{case_idx}_rep{rep}_trace.csv", history, rec_names)
    for case_idx, histories in by_case.items():
        _aggregate_csv(out / f"case{case_idx}_aggregate.csv", histories, names)
    return {"cases": len(_PARAM_CASES), "reps": reps,
            "clamp_events": clamp_total, "clip_events": clip_total}


def _write_history_csv(path: Path, history: np.ndarray, names: list[str]) -> None:
    lines = [",".join(["iter"] + list(names))]
    for k in range(history.shape[0]):
        lines.append(",".join([str(k)] + [repr(float(v)) for v in history[k]]))
    _atomic_write(path, "\n".join(lines) + "\n")


def _run_grad_convergence_rep(payload: tuple) -> tuple:
    cfg, rep, m = payload
    kernels = _build_kernels(cfg)
    dataset = _simulate_pool(cfg, rep)
    fit_seed = derived_seed(int(cfg["seed"]), f"{cfg['study']}:m{m}", rep)
    iterations = int(cfg["epochs"]) * math.ceil(int(cfg["n"]) / m)
    every = int(cfg["grad_norm_every"]) or max(1, iterations // 25)
    run_cfg = _build_sgd_config(
        {**cfg, "m": m, "iterations": None, "grad_norm_every": every}, kernels, fit_seed
    )
    theta0 = HyperParams(tuple(float(v) for v in cfg["theta0_signal"]),
                         float(cfg["theta0_noise"]))
    trace = sgd_fit(dataset, kernels, run_cfg, theta0)
    iters = np.flatnonzero(trace.grad_norm_recorded)
    norms = trace.grad_norm_sq[iters]
    return (m, rep, iters, norms, trace.theta_history(), trace.param_names,
            trace.clamp_events, trace.clip_events)


def _study_grad_convergence(cfg: dict, out: Path, pool) -> dict:
    reps = int(cfg["reps"])
    m_grid = [int(m) for m in cfg["m_grid"]]
    tasks = [(cfg, rep, m) for m in m_grid for rep in range(reps)]
    collected: dict[int, list] = {m: [None] * reps for m in m_grid}
    clamp_total = clip_total = 0
    for m, rep, iters, norms, history, names, clamps, clips in pool(
            _run_grad_convergence_rep, tasks):
        collected[m][rep] = (iters, norms)
        clamp_total += clamps
        clip_total += clips
        _write_history_csv(out / f"m{m}_rep{rep}_trace.csv", history, names)
    final_means = {}
    for m in m_grid:
        iters = collected[m][0][0]
        stack = np.stack([norms for _, norms in collected[m]])
        lines = ["iter,grad_norm_sq_mean,grad_norm_sq_sd"]
        for i, k in enumerate(iters):
            lines.append(
                f"{int(k)},{repr(float(stack[:, i].mean()))},{repr(float(stack[:, i].std(ddof=0)))}"
            )
        _atomic_write(out / f"m{m}_aggregate.csv", "\n".join(lines) + "\n")
        final_means[m] = float(stack[:, -1].mean())
    return {"m_grid": m_grid, "reps": reps,
            "clamp_events": clamp_total, "clip_events": clip_total,
            "final_grad_norm_sq_means": {str(m): repr(v) for m, v in final_means.items()}}


def _run_vary_m_rep(payload: tuple) -> tuple:
    cfg, rep, m = payload
    trace = _fit_rep(cfg, rep, f"m{m}", m, cfg["theta0_signal"], cfg["theta0_noise"],
                     float(cfg["alpha1"]))
    return (m, rep, trace.theta_history(), trace.param_names,
            trace.clamp_events, trace.clip_events)


def _study_vary_m(cfg: dict, out: Path, pool) -> dict:
    reps = int(cfg["reps"])
    m_grid = [int(m) for m in cfg["m_grid"]]
    tasks = [(cfg, rep, m) for m in m_grid for rep in range(reps)]
    by_m: dict[int, list] = {m: [None] * reps for m in m_grid}
    names = None
    clamp_total = clip_total = 0
    for m, rep, history, rec_names, clamps, clips in pool(_run_vary_m_rep, tasks):
        by_m[m][rep] = history
        names = rec_names
        clamp_total += clamps
        clip_total += clips
        _write_history_csv(out / f"m{m}_rep{rep}_trace.csv", history, rec_names)
    for m, histories in by_m.items():
        _aggregate_csv(out / f"m{m}_aggregate.csv", histories, names)
    return {"m_grid": m_grid, "reps": reps,
            "clamp_events": clamp_total, "clip_events": clip_total}


def _study_curvature(cfg: dict, out: Path, pool) -> dict:
    kernels = _build_kernels(cfg)
    if kernels.n_kernels != 1:
        raise ConfigError("the curvature study uses a single kernel")
    theta = _build_theta(cfg, kernels, "theta_signal", "theta_noise")
    reports = curvature_experiment(
        pool_size=int(cfg["n"]),
        m_grid=[int(m) for m in cfg["m_grid"]],
        replicates=int(cfg["replicates"]),
        theta=theta,
        kernel=kernels.components[0],
        input_dist=_build_input_dist(cfg),
        seed=int(cfg["seed"]),
        input_dim=int(cfg["input_dim"]),
    )
    curvature_reports_to_csv(reports, out / "curvature.csv")
    return {"rows": len(reports)}


def _study_lengthscale_monotone(cfg: dict, out: Path, pool) -> dict:
    kernels = _build_kernels(cfg)
    theta = _build_theta(cfg, kernels, "theta_signal", "theta_noise")
    m = int(cfg["surrogate_m"])
    grid = [float(l) for l in cfg["lengthscale_grid"]]
    if sorted(grid) != grid:
        raise ConfigError("lengthscale_grid must be ascending")
    sd = float(cfg["input_sd"])
    values = []
    lines = ["lengthscale,gamma_tilde"]
    for l in grid:
        lam = gaussian_kernel_eigenvalues(sd, l, m)
        value = surrogate_curvature(theta, lam, m)
        values.append(value)
        lines.append(f"{repr(l)},{repr(value)}")
    _atomic_write(out / "lengthscale_curvature.csv", "\n".join(lines) + "\n")
    diffs = np.diff(values)
    if np.any(diffs < 0):
        raise RuntimeError(
            f"surrogate curvature is not nondecreasing over the lengthscale grid: {values}"
        )
    return {"grid": grid, "monotone": True}


_STUDY_RUNNERS = {
    "param-convergence": _study_param_convergence,
    "grad-convergence": _study_grad_convergence,
    "vary-m": _study_vary_m,
    "curvature": _study_curvature,
    "lengthscale-monotone": _study_lengthscale_monotone,
}


def cmd_experiment(cfg: dict, out: Path, jobs: int) -> dict:
    study = cfg["study"]
    if study not in STUDIES:
        raise ConfigError(f"unknown study {study!r}; choose from {list(STUDIES)}")
    # Sizes are checked here, before any repetition runs.
    if study != "lengthscale-monotone":
        n = _int_in_range("n", cfg["n"])
        _input_dim(cfg, _build_kernels(cfg))
    if study == "param-convergence":
        _batch_size("m", cfg["m"], n, cfg["scaling"])
    elif study in ("vary-m", "grad-convergence"):
        for m in cfg["m_grid"]:
            _batch_size("m_grid", m, n, cfg["scaling"])
    elif study == "curvature":
        for m in cfg["m_grid"]:
            _int_in_range("m_grid", m, n)

    def pool(fn, tasks):
        if jobs <= 1 or len(tasks) <= 1:
            for task in tasks:
                yield fn(task)
        else:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
                yield from ex.map(fn, tasks)

    return _STUDY_RUNNERS[study](cfg, out, pool)


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpsgd",
        description="Gaussian process hyperparameter estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate", "generate a synthetic dataset CSV"),
        ("fit", "run minibatch SGD or Adam on a dataset"),
        ("predict", "posterior prediction and RMSE on a test CSV"),
        ("diagnose", "curvature and eigendecay diagnostics"),
        ("experiment", f"multi-repetition studies: {', '.join(STUDIES)}"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="root seed (overrides config)")
        p.add_argument("--out", default="out", help="output directory (created if missing)")
        p.add_argument("--jobs", type=int, default=1, help="parallel repetitions")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (JSON-parsed value)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        cfg = resolve_config(args.command, args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            extra = cmd_simulate(cfg, out)
        elif args.command == "fit":
            extra = cmd_fit(cfg, out)
        elif args.command == "predict":
            extra = cmd_predict(cfg, out)
        elif args.command == "diagnose":
            extra = cmd_diagnose(cfg, out)
        else:
            extra = cmd_experiment(cfg, out, args.jobs)
        _write_summary(out, args.command, cfg, started, extra)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime / numerical failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
