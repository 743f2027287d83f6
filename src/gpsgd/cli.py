"""Command-line driver: simulate data, fit models, predict, run diagnostics,
and execute multi-repetition studies with reproducible seeds and CSV outputs.

Configuration is a flat JSON document merged with `--set key=value` overrides
(flags win); unknown keys are rejected. Every key has a default, a type and a
range in one table, `KEYS`; every value and the rules that tie keys together
are checked before any work. Every run writes a `summary.txt` with the
resolved-config hash, the elapsed time and the BLAS thread pin. Output CSVs
contain no wall-clock columns, so a rerun with the same config and seed is
byte-identical.

Exit codes: 0 success, 1 runtime or numerical failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from .data import (
    BENCHMARK_FUNCTIONS,
    Dataset,
    Gaussian,
    Uniform,
    _atomic_write,
    load_csv,
    save_csv,
    simulate_function,
    simulate_gp,
)
from .diagnostics import (
    MIN_FIT_EIGENVALUES,
    DecayFamily,
    curvature_experiment,
    eigendecay_fit,
    gaussian_kernel_eigenvalues,
    surrogate_curvature,
)
from .kernels import (
    MATERN_ORDERS,
    HyperParams,
    KernelFamily,
    KernelSpec,
    MultiKernel,
    kernel_matrix,
    param_names,
)
from . import linalg
from .linalg import EIG_SIZE_CAP, one_blas_thread, sym_eigenvalues
from .prediction import PredictStrategy, predict, predict_nn, rmse
from .sampling import SamplingScheme, SpatialIndex
from .seeds import derived_seed
from .training import (
    DEFAULT_CLAMP_BOUNDS,
    MIN_LOG_SCALED_M,
    ScalingMode,
    ScalingPolicy,
    SGDConfig,
    adam_fit,
    sgd_fit,
)


class ConfigError(Exception):
    """Bad configuration or usage; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration

POSITIVE, NONNEGATIVE = "positive", "nonnegative"


@dataclass(frozen=True)
class Key:
    """One config key: its default, its type and the range of its value.

    `kind` is int, float, bool, path (an existing file), ints or floats (a
    nonempty list; a bare number is a list of one), choice (a value of
    `choices`, an Enum class or a tuple), clamp (true for the default bounds,
    or floats) or kernels (a list of kernel blocks). `low` bounds a number,
    or each entry of a list, below. Only a nullable key takes null.
    """

    default: object
    kind: str
    low: str | None = None
    choices: type[Enum] | tuple = ()
    nullable: bool = False


_KERNEL_KEYS = {
    "kernel_family": Key("rbf", "choice", choices=KernelFamily),
    "lengthscales": Key([0.5], "floats", POSITIVE),   # one per input dimension (rbf) or [h] (matern)
    "matern_order": Key(None, "choice", choices=MATERN_ORDERS, nullable=True),
    "kernels": Key(None, "kernels", nullable=True),  # kernel blocks for a sum of kernels
}


def _input_keys(sd: float) -> dict:
    return {
        "input_kind": Key("gaussian", "choice", choices=("gaussian", "uniform")),
        "input_sd": Key(sd, "float", POSITIVE),
        "input_low": Key(-10.0, "float"),
        "input_high": Key(10.0, "float"),
    }


def _theta_keys(prefix: str, signal: list, noise: float) -> dict:
    return {f"{prefix}_signal": Key(signal, "floats", POSITIVE),
            f"{prefix}_noise": Key(noise, "float", POSITIVE)}


# m and m_grid lie in [1, n], a cross-key rule (see _check_batch_sizes).
_SGD_KEYS = {
    "m": Key(128, "int"),
    "epochs": Key(25, "int", NONNEGATIVE),
    "alpha1": Key(9.0, "float", POSITIVE),
    "scaling": Key("linear", "choice", choices=ScalingMode),   # signal-slot divisor
    "tau": Key(3.0, "float", POSITIVE),
    "sampling": Key("uniform", "choice", choices=SamplingScheme),
    **_theta_keys("theta0", [1.0], 1.0),
    "clamp": Key(None, "clamp", POSITIVE, nullable=True),  # true, or [theta_min, theta_max]
    "clip": Key(None, "float", POSITIVE, nullable=True),    # gradient-norm threshold G
    "grad_norm_every": Key(0, "int", NONNEGATIVE),
}

# The experiment keys each study reads besides `seed` and `study`; it takes
# every other key only at its default.
_POOL_KEYS = {"n", "input_dim", "theta_signal", "theta_noise", "input_kind", "input_sd",
              "input_low", "input_high", *_KERNEL_KEYS}
_FIT_STUDY_KEYS = _POOL_KEYS | {"reps", "epochs", "scaling", "tau", "sampling", "clamp", "clip",
                                "grad_norm_every"}
_START_KEYS = {"m_grid", "theta0_signal", "theta0_noise", "alpha1"}
STUDY_KEYS = {
    "param-convergence": _FIT_STUDY_KEYS | {"m"},   # fixed start points and step sizes
    "grad-convergence": _FIT_STUDY_KEYS | _START_KEYS,
    "vary-m": _FIT_STUDY_KEYS | _START_KEYS,
    "curvature": _POOL_KEYS | {"m_grid", "replicates"},
    # the RBF spectrum under Gaussian inputs; input_kind may only be gaussian
    "lengthscale-monotone": {"theta_signal", "theta_noise", "input_kind", "input_sd",
                             "lengthscale_grid", "surrogate_m"},
}
STUDIES = tuple(STUDY_KEYS)

# Keys read only under some values of other keys: key -> {governing key: its
# values}. A gate applies to a command that has its governing key.
_GP_ONLY = {"generator": ("gp",)}
GATED_KEYS = {"tau": {"scaling": ("log",)}, "alpha1": {"optimizer": ("sgd",)},
              "learning_rate": {"optimizer": ("adam",)},
              "learn_lengthscales": {"optimizer": ("adam",)},
              "input_sd": {"input_kind": ("gaussian",)}, "input_low": {"input_kind": ("uniform",)},
              "input_high": {"input_kind": ("uniform",)}, "epochs": {"iterations": (None,)},
              "noise_sd": {"generator": tuple(BENCHMARK_FUNCTIONS)},
              "theta_signal": {**_GP_ONLY, "params": (None,)},
              "theta_noise": {**_GP_ONLY, "params": (None,)},
              # auto picks CG from n >= 10^4, so it reads the CG keys too
              "cg_tol": {"strategy": ("auto", "cg")}, "cg_max_iter": {"strategy": ("auto", "cg")},
              "n_neighbors": {"strategy": ("nearest",)},
              **{key: _GP_ONLY for key in _KERNEL_KEYS}}

_SEED = Key(0, "int", NONNEGATIVE)

KEYS: dict[str, dict[str, Key]] = {
    "simulate": {
        "generator": Key("gp", "choice", choices=("gp", *BENCHMARK_FUNCTIONS)),
        "n": Key(1024, "int", POSITIVE),
        "input_dim": Key(1, "int", POSITIVE),
        **_theta_keys("theta", [4.0], 1.0),
        "noise_sd": Key(1.0, "float", NONNEGATIVE),   # function generators only
        "seed": _SEED,
        **_input_keys(5.0),
        **_KERNEL_KEYS,
    },
    "fit": {
        "data": Key(None, "path"),
        "seed": _SEED,
        "optimizer": Key("sgd", "choice", choices=("sgd", "adam")),
        "iterations": Key(None, "int", NONNEGATIVE, nullable=True),  # replaces epochs
        "learning_rate": Key(0.01, "float", POSITIVE),
        "learn_lengthscales": Key(False, "bool"),
        **_SGD_KEYS,
        **_KERNEL_KEYS,
    },
    "predict": {
        "train": Key(None, "path"),
        "test": Key(None, "path"),
        "params": Key(None, "path", nullable=True),   # params.json from fit; replaces theta_*
        **_theta_keys("theta", [1.0], 1.0),
        "strategy": Key("auto", "choice", choices=("auto", *(s.value for s in PredictStrategy))),
        "cg_tol": Key(1e-6, "float", POSITIVE),
        "cg_max_iter": Key(1000, "int", POSITIVE),
        "n_neighbors": Key(256, "int", POSITIVE),
        "seed": _SEED,   # read by no predict; taken only at its default
        **_KERNEL_KEYS,
    },
    "diagnose": {
        "n": Key(2048, "int", POSITIVE),
        "input_dim": Key(1, "int", POSITIVE),
        **_theta_keys("theta", [4.0], 1.0),
        "m_grid": Key([16, 32, 64, 128], "ints"),
        "replicates": Key(50, "int", POSITIVE),
        "decay_family": Key("exponential", "choice", choices=DecayFamily),
        "fit_index_range": Key(None, "ints", POSITIVE, nullable=True),  # [lo, hi], 1-based inclusive
        "seed": _SEED,
        **_input_keys(10.0),
        **_KERNEL_KEYS,
    },
    "experiment": {
        "study": Key(None, "choice", choices=STUDIES),
        "reps": Key(10, "int", POSITIVE),
        "n": Key(1024, "int", POSITIVE),
        "input_dim": Key(1, "int", POSITIVE),
        **_theta_keys("theta", [4.0], 1.0),
        "m_grid": Key([32, 128, 512], "ints"),
        "replicates": Key(50, "int", POSITIVE),
        "lengthscale_grid": Key([0.5, 0.75, 1.0, 1.5, 2.0], "floats", POSITIVE),
        "surrogate_m": Key(2048, "int", POSITIVE),
        **_SGD_KEYS,
        "scaling": Key("log", "choice", choices=ScalingMode),
        **_theta_keys("theta0", [5.0], 3.0),
        "clamp": Key(True, "clamp", POSITIVE, nullable=True),
        "seed": Key(None, "int", NONNEGATIVE),   # mandatory for reproducible studies
        **_input_keys(5.0),
        **_KERNEL_KEYS,
    },
}


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


def resolve_config(command: str, args) -> tuple[dict, dict]:
    """The resolved config (defaults, then the config file, then `--set`,
    then `--seed`) as given, and the same config checked and typed.

    Every key is checked against KEYS and the cross-key rules hold before
    any subcommand runs. The first dict is what config_hash hashes, so
    checking never changes a hash.
    """
    keys = KEYS[command]
    cfg = {key: spec.default for key, spec in keys.items()}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except IsADirectoryError:
            raise ConfigError(f"--config names a directory, not a file: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg.update(loaded)
    cfg.update(_parse_set(args.set))
    if args.seed is not None:
        cfg["seed"] = args.seed
    unknown = set(cfg) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    if command == "experiment" and cfg["seed"] is None:
        raise ConfigError("experiment requires a seed (--seed or the seed key)")
    if cfg.get("seed") is None:
        cfg["seed"] = 0
    typed = {key: _typed(key, keys[key], value) for key, value in cfg.items()}
    _check_rules(command, typed)
    return cfg, typed


def _typed(key: str, spec: Key, value):
    """`value` of `key` as the type `spec` gives, else a ConfigError naming
    the key. A bool or a non-integral float is not an integer."""
    if value is None:
        if spec.nullable:
            return None
        raise ConfigError(f"{key} is required")
    kind = spec.kind
    if kind in ("ints", "floats"):
        items = value if isinstance(value, list) else [value]
        if not items:
            raise ConfigError(f"{key} must not be empty")
        entry = Key(None, kind[:-1], spec.low)
        return tuple(_typed(key, entry, item) for item in items)
    if kind == "clamp":
        if value is True:
            return DEFAULT_CLAMP_BOUNDS
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be true or [lo, hi], got {value!r}")
        return _typed(key, Key(None, "floats", spec.low), value)
    if kind == "choice":
        enum = spec.choices if isinstance(spec.choices, type) else None
        names = [c.value for c in enum] if enum else list(spec.choices)
        if value not in names:
            raise ConfigError(f"{key} must be one of {names}, got {value!r}")
        return enum(value) if enum else value
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{key} must be true or false, got {value!r}")
        return value
    if kind == "path":
        if not isinstance(value, str) or not Path(value).is_file():
            raise ConfigError(f"{key} file not found: {value!r}")
        return Path(value)
    if kind == "kernels":
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{key} must be a nonempty list of kernel blocks, got {value!r}")
        try:
            return tuple(KernelSpec.from_config(block) for block in value)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad kernel config in {key}: {exc}") from None
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "int":
        if not number or isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        value = int(value)
    else:
        if not number or not math.isfinite(value):
            raise ConfigError(f"{key} must be a finite number, got {value!r}")
        value = float(value)
    if spec.low == POSITIVE and value <= 0 or spec.low == NONNEGATIVE and value < 0:
        what = "integer" if kind == "int" else "number"
        raise ConfigError(f"{key} must be a {spec.low} {what}, got {value}")
    return value


def _check_rules(command: str, c: dict) -> None:
    """The rules that tie keys together. Replaces the kernel keys with the
    model they give, `c["kernels"]`, and `params` with the hyperparameters
    its file holds."""
    study = c.get("study")
    # The keys the run does not read, each with the reason; they must keep their default.
    read = STUDY_KEYS[study] | {"seed", "study"} if study else set(c)
    if command == "predict":   # it draws nothing at random
        read.discard("seed")
    unread = {key: f"does not apply to {study or command}" for key in set(c) - read}
    for key, gates in GATED_KEYS.items():
        for governor, values in gates.items():
            if governor in c and key not in unread and c[governor] not in values:
                unread[key] = "applies only with " + " or ".join(
                    f"{governor}={'null' if v is None else v}" for v in values)
    for key in sorted(unread):
        spec = KEYS[command][key]
        if c[key] != _typed(key, spec, spec.default):
            raise ConfigError(f"{key} {unread[key]}; leave it at its default {spec.default!r}")
    if command == "simulate" and c["generator"] != "gp":
        c["kernels"] = None
    elif c["kernels"] is not None:
        c["kernels"] = MultiKernel(c["kernels"])
    else:
        try:
            c["kernels"] = MultiKernel.single(
                KernelSpec(c["kernel_family"], c["lengthscales"], c["matern_order"]))
        except ValueError as exc:
            raise ConfigError(f"bad kernel config: {exc}") from None
    kernels = c["kernels"]
    if kernels is not None:
        if kernels.n_kernels != 1 and (command == "diagnose"
                                       or study in ("curvature", "param-convergence")):
            raise ConfigError(f"{study or command} uses a single kernel")
        for key in ("theta_signal", "theta0_signal"):
            if key in c and key not in unread:
                _check_theta_length(key, c[key], kernels)
        if "input_dim" in c:
            _check_input_dim(f"input_dim is {c['input_dim']}", c["input_dim"], kernels)
    if c.get("params") is not None:
        c["params"] = _read_params(c["params"], kernels)
    if c.get("input_kind") == "uniform" and not c["input_low"] < c["input_high"]:
        raise ConfigError(f"input_low must be below input_high, got "
                          f"{c['input_low']} and {c['input_high']}")
    for key in ("clamp", "fit_index_range"):
        pair = c.get(key)
        if pair is not None and not (len(pair) == 2 and pair[0] < pair[1]):
            raise ConfigError(f"{key} must be [lo, hi] with lo < hi, got {list(pair)}")
    if c.get("fit_index_range") is not None:
        lo, hi = c["fit_index_range"]
        if min(hi, c["n"]) - lo + 1 < MIN_FIT_EIGENVALUES:
            raise ConfigError(f"fit_index_range {[lo, hi]} holds fewer than "
                              f"{MIN_FIT_EIGENVALUES} of the eigenvalue indices 1..{c['n']}")
    if command == "diagnose" and c["n"] > EIG_SIZE_CAP:
        raise ConfigError(f"n is {c['n']}, but the eigendecay fit takes at most "
                          f"{EIG_SIZE_CAP} points")
    if command == "diagnose" or study == "curvature":
        _check_batch_sizes("m_grid", c["m_grid"], c["n"])
    elif study == "param-convergence":
        _check_batch_sizes("m", c["m"], c["n"], c["scaling"])
    elif study in ("vary-m", "grad-convergence"):
        _check_batch_sizes("m_grid", c["m_grid"], c["n"], c["scaling"])
    elif study == "lengthscale-monotone" and sorted(c["lengthscale_grid"]) != list(
            c["lengthscale_grid"]):
        raise ConfigError("lengthscale_grid must be ascending")
    if study == "lengthscale-monotone" and c["input_kind"] != "gaussian":
        raise ConfigError("input_kind must be gaussian for lengthscale-monotone: its "
                          "eigenvalues are those of Gaussian inputs")


def _load_dataset(c: dict, key: str) -> Dataset:
    """The dataset CSV that `key` names; a file load_csv rejects, or whose
    input columns the kernels cannot take, is a bad value of that key."""
    try:
        dataset = load_csv(c[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    _check_input_dim(f"{key} has {dataset.input_dim} input columns", dataset.input_dim,
                     c["kernels"])
    return dataset


def _check_input_dim(what: str, dim: int, kernels: MultiKernel) -> None:
    """Each rbf kernel has one lengthscale per input dimension."""
    for spec in kernels.components:
        if spec.family == KernelFamily.RBF and spec.n_lengthscales != dim:
            raise ConfigError(f"{what} but an rbf kernel has {spec.n_lengthscales} lengthscales")


def _check_theta_length(key: str, signal: tuple, kernels: MultiKernel) -> None:
    if len(signal) != kernels.n_kernels:
        raise ConfigError(f"{key} has {len(signal)} entries for {kernels.n_kernels} kernels")


def _check_batch_sizes(key: str, sizes, n: int, scaling: ScalingMode | None = None) -> None:
    """Each size in [1, n], and at least MIN_LOG_SCALED_M when the signal
    slots are log-scaled. A grid holds each size once."""
    if isinstance(sizes, tuple) and len(set(sizes)) != len(sizes):
        raise ConfigError(f"{key} must not repeat an entry, got {list(sizes)}")
    for m in sizes if isinstance(sizes, tuple) else (sizes,):
        if not 1 <= m <= n:
            raise ConfigError(f"{key} must be in [1, {n}], got {m}")
        if scaling == ScalingMode.LOG_SCALED and m < MIN_LOG_SCALED_M:
            raise ConfigError(f"scaling=log requires {key} >= {MIN_LOG_SCALED_M}, got {m}")


_PARAMS_KEYS = {
    "theta_signal": Key(None, "floats", POSITIVE),
    "theta_noise": Key(None, "float", POSITIVE),
    "lengthscales": Key(None, "floats", POSITIVE, nullable=True),
}


def _read_params(path: Path, kernels: MultiKernel) -> HyperParams:
    """The hyperparameters in a params.json written by fit, checked like the
    theta keys."""
    try:
        params = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"params file {path} is not valid JSON: {exc}") from None
    if not isinstance(params, dict):
        raise ConfigError(f"params file {path} must hold a JSON object, got {params!r}")
    p = {key: _typed(f"params {key}", spec, params.get(key)) for key, spec in _PARAMS_KEYS.items()}
    _check_theta_length("params theta_signal", p["theta_signal"], kernels)
    if p["lengthscales"] is not None and len(p["lengthscales"]) != kernels.n_lengthscales:
        raise ConfigError(f"params lengthscales has {len(p['lengthscales'])} entries for "
                          f"{kernels.n_lengthscales} lengthscale slots")
    return HyperParams(p["theta_signal"], p["theta_noise"], p["lengthscales"])


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _theta(c: dict, prefix: str) -> HyperParams:
    return HyperParams(c[f"{prefix}_signal"], c[f"{prefix}_noise"])


def _input_dist(c: dict):
    if c["input_kind"] == "gaussian":
        return Gaussian(c["input_sd"])
    return Uniform(c["input_low"], c["input_high"])


def _sgd_config(c: dict, seed: int, **run) -> SGDConfig:
    """The SGDConfig the optimizer keys give; `run` overrides fields."""
    fields = dict(m=c["m"], epochs=c["epochs"], alpha1=c["alpha1"], scheme=c["sampling"],
                  scaling=ScalingPolicy(c["scaling"], c["tau"]), clamp=c["clamp"],
                  clip=c["clip"], seed=seed, grad_norm_every=c["grad_norm_every"])
    return SGDConfig(**{**fields, **run})


def _write_table(path: Path, header: list[str], rows) -> None:
    """The CSV of every output table: a float cell (numpy floats too) as its
    shortest round-trip repr, None as an empty cell, any other cell with str.
    The whole text is built before `_atomic_write`, so a row that raises
    leaves `path` as it was."""
    def cell(v) -> str:
        if v is None:
            return ""
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_trace(path: Path, trace) -> None:
    """One row per iteration of a FitTrace, with no wall-clock column; the
    grad_norm_sq column is there when some norm was recorded, empty in the
    other rows."""
    has_norms = not np.isnan(trace.grad_norm_sq).all()
    columns = zip(trace.step_size.tolist(), trace.theta.tolist(), trace.grad_norm_sq.tolist())
    _write_table(path, ["iter", "alpha", *trace.param_names] + ["grad_norm_sq"] * has_norms,
                 ([k, step, *theta] + [None if math.isnan(norm) else norm] * has_norms
                  for k, (step, theta, norm) in enumerate(columns)))


def _blas_pin() -> str:
    """The BLAS library linalg.one_blas_thread pins, and the limits it is used with."""
    if linalg.PINNED_BLAS is None:
        return "no OpenBLAS found, no pin"
    return (f"{linalg.PINNED_BLAS} on one thread up to order "
            f"{linalg.ONE_THREAD_MAX_ORDER_INVERSE} (gradient: factor, solve, inverse) and "
            f"{linalg.ONE_THREAD_MAX_ORDER_FACTOR} (exact-moments factor), "
            f"and for every fit-study repetition")


def _write_summary(out: Path, command: str, cfg: dict, started: float, extra: dict) -> None:
    lines = [
        f"command: {command}",
        f"config_hash: {config_hash(cfg)}",
        f"elapsed_seconds: {time.time() - started:.3f}",
        f"blas_pin: {_blas_pin()}",
    ]
    lines += [f"{key}: {value}" for key, value in extra.items()]
    _atomic_write(out / "summary.txt", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands; each takes the typed config

def cmd_simulate(c: dict, out: Path) -> dict:
    if c["generator"] == "gp":
        dataset = simulate_gp(c["kernels"], _theta(c, "theta"), c["n"], _input_dist(c),
                              c["input_dim"], c["seed"])
    else:
        dataset = simulate_function(
            BENCHMARK_FUNCTIONS[c["generator"]], c["n"], _input_dist(c), c["input_dim"],
            c["noise_sd"], c["seed"], name=c["generator"],
        )
    save_csv(dataset, out / "dataset.csv")
    _atomic_write(out / "provenance.json", json.dumps(dataset.provenance, indent=2) + "\n")
    return {"rows": dataset.n, "columns": dataset.input_dim + 1}


def cmd_fit(c: dict, out: Path) -> dict:
    dataset = _load_dataset(c, "data")
    _check_batch_sizes("m", c["m"], dataset.n, c["scaling"])
    length = {} if c["iterations"] is None else {"iterations": c["iterations"], "epochs": None}
    run_cfg = _sgd_config(c, c["seed"], learning_rate=c["learning_rate"], **length)
    theta0 = _theta(c, "theta0")
    if c["optimizer"] == "sgd":
        trace = sgd_fit(dataset, c["kernels"], run_cfg, theta0)
    else:
        trace = adam_fit(dataset, c["kernels"], run_cfg, theta0,
                         learn_lengthscales=c["learn_lengthscales"])
    _write_trace(out / "trace.csv", trace)
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


def cmd_predict(c: dict, out: Path) -> dict:
    train = _load_dataset(c, "train")
    test = _load_dataset(c, "test")
    if test.input_dim != train.input_dim:
        raise ConfigError(f"test has {test.input_dim} input columns but train has "
                          f"{train.input_dim}")
    kernels = c["kernels"]
    theta = c["params"] or _theta(c, "theta")
    if c["strategy"] == "nearest":
        _check_batch_sizes("n_neighbors", c["n_neighbors"], train.n)
        result = predict_nn(theta, kernels, train.X, train.y, test.X,
                            c["n_neighbors"], SpatialIndex(train.X))
    else:
        chosen = None if c["strategy"] == "auto" else PredictStrategy(c["strategy"])
        result = predict(theta, kernels, train.X, train.y, test.X, strategy=chosen,
                         cg_tol=c["cg_tol"], cg_max_iter=c["cg_max_iter"])
    columns = zip(result.mean.tolist(), result.variance.tolist(), test.y.tolist())
    _write_table(out / "predictions.csv", ["index", "mean", "variance", "truth", "abs_err"],
                 ((i, mean, var, truth, abs(mean - truth))
                  for i, (mean, var, truth) in enumerate(columns)))
    value = rmse(result.mean, test.y)
    print(f"rmse={value!r}")
    extra = {"rmse": repr(value), "strategy": result.strategy.value, "rows": test.n}
    if result.cg_iterations is not None:
        extra["cg_iterations_y"] = result.cg_iterations[0]
        extra["cg_iterations_max_test_column"] = max(result.cg_iterations[1:], default=0)
        extra["cg_preconditioner_rank"] = result.cg_preconditioner_rank
        extra["cg_residual_max"] = repr(result.cg_residual_max)
    return extra


def _curvature(c: dict, out: Path) -> list:
    """The curvature experiment the keys give, written to curvature.csv."""
    reports = curvature_experiment(
        pool_size=c["n"],
        m_grid=list(c["m_grid"]),
        replicates=c["replicates"],
        theta=_theta(c, "theta"),
        kernel=c["kernels"].components[0],
        input_dist=_input_dist(c),
        seed=c["seed"],
        input_dim=c["input_dim"],
    )
    _write_table(out / "curvature.csv", ["m", "scheme", "replicates", "mean", "sd"],
                 ((r.m, r.scheme.value, r.replicates, r.mean, r.sd) for r in reports))
    return reports


def cmd_diagnose(c: dict, out: Path) -> dict:
    reports = _curvature(c, out)
    n = c["n"]
    pool_rng_seed = derived_seed(c["seed"], "diagnose-eigendecay")
    X = _input_dist(c).sample(np.random.Generator(np.random.Philox(pool_rng_seed)), n,
                              c["input_dim"])
    spectrum = sym_eigenvalues(kernel_matrix(c["kernels"].components[0], X), overwrite=True)
    fit = eigendecay_fit(spectrum, n, c["decay_family"], index_range=c["fit_index_range"])
    _write_table(out / "eigendecay.csv",
                 ["family", "rate", "scale", "index_lo", "index_hi", "residual"],
                 [(fit.family.value, fit.rate, fit.scale, *fit.index_range, fit.residual)])
    return {
        "curvature_rows": len(reports),
        "eigendecay_rate": repr(fit.rate),
        "eigendecay_scale": repr(fit.scale),
    }


# ---------------------------------------------------------------------------
# experiment studies

_PARAM_CASES = (
    # (theta0 incl. noise slot, alpha1); stepsizes follow the reference runs,
    # start points span above/below the simulated truth.
    ((5.0, 3.0), 9.0),
    ((2.0, 0.5), 9.0),
    ((6.0, 2.0), 6.0),
)


def _fit_tasks(c: dict) -> list[tuple]:
    """(tag, rep, m, theta0, alpha1, grad_norm_every) of every fit in a fit
    study; the tag names the fit's seed stream and its output files."""
    reps = range(c["reps"])
    if c["study"] == "param-convergence":
        return [(f"case{i}", rep, c["m"], HyperParams(theta0[:-1], theta0[-1]), alpha1,
                 c["grad_norm_every"])
                for i, (theta0, alpha1) in enumerate(_PARAM_CASES) for rep in reps]
    tasks = []
    for m in c["m_grid"]:
        every = c["grad_norm_every"]
        if c["study"] == "grad-convergence" and not every:
            every = max(1, c["epochs"] * math.ceil(c["n"] / m) // 25)
        tasks += [(f"m{m}", rep, m, _theta(c, "theta0"), c["alpha1"], every) for rep in reps]
    return tasks


def _fit_rep(c: dict, task: tuple) -> tuple:
    """One repetition: simulate its data pool and run SGD from the task's
    start. Returns the theta history, the iterations and values of the
    recorded squared gradient norms, and the clamp and clip counts.

    The whole repetition runs on one scipy BLAS thread, in the study's own
    process and in every `--jobs` worker alike, so the outputs are the same
    at any `--jobs` and BLAS thread count. Two threads per worker made
    `--jobs 2` slower than `--jobs 1`: 28 against 13 s for vary-m, 235
    against 58 s for grad-convergence (2 cores, BENCH_threads.json)."""
    tag, rep, m, theta0, alpha1, every = task
    with one_blas_thread():
        data_seed = derived_seed(c["seed"], f"{c['study']}:data", rep)
        dataset = simulate_gp(c["kernels"], _theta(c, "theta"), c["n"], _input_dist(c),
                              c["input_dim"], data_seed)
        fit_seed = derived_seed(c["seed"], f"{c['study']}:{tag}", rep)
        run_cfg = _sgd_config(c, fit_seed, m=m, alpha1=alpha1, grad_norm_every=every)
        trace = sgd_fit(dataset, c["kernels"], run_cfg, theta0)
    iters = np.flatnonzero(~np.isnan(trace.grad_norm_sq))
    return (trace.theta, iters, trace.grad_norm_sq[iters],
            trace.clamp_events, trace.clip_events)


def _map(fn, tasks: list, jobs: int):
    """fn over tasks in order; in `jobs` processes when jobs > 1."""
    if jobs <= 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as ex:
        yield from ex.map(fn, tasks)


def _study_fits(c: dict, out: Path, jobs: int) -> dict:
    """param-convergence, vary-m and grad-convergence. Writes each
    repetition's theta trace, then per tag the mean and sd across
    repetitions of theta, or for grad-convergence of the recorded squared
    gradient norm, and returns the event totals."""
    tasks = _fit_tasks(c)
    names = param_names(c["kernels"], tasks[0][3])
    runs: dict[str, list] = {}
    clamp_total = clip_total = 0
    for (tag, rep, *_), (history, iters, norms, clamps, clips) in zip(
            tasks, _map(partial(_fit_rep, c), tasks, jobs)):
        runs.setdefault(tag, [None] * c["reps"])[rep] = (history, iters, norms)
        clamp_total += clamps
        clip_total += clips
        _write_table(out / f"{tag}_rep{rep}_trace.csv", ["iter", *names],
                     ([k, *row] for k, row in enumerate(history.tolist())))
    grad = c["study"] == "grad-convergence"
    final_means = {}
    for tag, results in runs.items():
        if grad:
            norms = np.stack([r[2] for r in results])     # (reps, recorded)
            # Each column is reduced as a 1-D array: a reduction over axis 0
            # adds in another order and changes the last bits from 8 reps on.
            mean = [[col.mean()] for col in norms.T]
            sd = [[col.std(ddof=0)] for col in norms.T]
            _aggregate_csv(out / f"{tag}_aggregate.csv", results[0][1], mean, sd,
                           ["grad_norm_sq"])
            final_means[tag] = float(mean[-1][0])
        else:
            stack = np.stack([r[0] for r in results])     # (reps, iters+1, params)
            _aggregate_csv(out / f"{tag}_aggregate.csv", range(stack.shape[1]),
                           stack.mean(axis=0), stack.std(axis=0, ddof=0), names)
    if c["study"] == "param-convergence":
        summary = {"cases": len(_PARAM_CASES)}
    else:
        summary = {"m_grid": list(c["m_grid"])}
    summary.update(reps=c["reps"], clamp_events=clamp_total, clip_events=clip_total)
    if grad:
        summary["final_grad_norm_sq_means"] = {
            str(m): repr(final_means[f"m{m}"]) for m in c["m_grid"]}
    return summary


def _aggregate_csv(path: Path, iters, mean, sd, names: list[str]) -> None:
    """One row per iteration: the mean and sd across repetitions of each
    named column."""
    _write_table(path, ["iter", *(f"{name}_{stat}" for name in names for stat in ("mean", "sd"))],
                 ([int(k), *(v for pair in zip(mean_row, sd_row) for v in pair)]
                  for k, mean_row, sd_row in zip(iters, mean, sd)))


def _study_lengthscale_monotone(c: dict, out: Path) -> dict:
    theta = _theta(c, "theta")
    m = c["surrogate_m"]
    grid = list(c["lengthscale_grid"])
    values = [surrogate_curvature(theta, gaussian_kernel_eigenvalues(c["input_sd"], l, m), m)
              for l in grid]
    _write_table(out / "lengthscale_curvature.csv", ["lengthscale", "gamma_tilde"],
                 zip(grid, values))
    if np.any(np.diff(values) < 0):
        raise RuntimeError(
            f"surrogate curvature is not nondecreasing over the lengthscale grid: {values}"
        )
    return {"grid": grid, "monotone": True}


def cmd_experiment(c: dict, out: Path, jobs: int) -> dict:
    if c["study"] == "curvature":
        return {"rows": len(_curvature(c, out))}
    if c["study"] == "lengthscale-monotone":
        return _study_lengthscale_monotone(c, out)
    return _study_fits(c, out, jobs)


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
        if name == "experiment":
            p.add_argument("--jobs", type=int, default=1, help="parallel repetitions")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (JSON-parsed value)")
    return parser


_COMMANDS = {"simulate": cmd_simulate, "fit": cmd_fit, "predict": cmd_predict,
             "diagnose": cmd_diagnose}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        cfg, typed = resolve_config(args.command, args)
        if args.command == "experiment" and args.jobs < 1:
            raise ConfigError(f"--jobs must be a positive integer, got {args.jobs}")
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ConfigError(f"--out names a file, not a directory: {args.out}") from None
        if args.command == "experiment":
            extra = cmd_experiment(typed, out, args.jobs)
        else:
            extra = _COMMANDS[args.command](typed, out)
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
