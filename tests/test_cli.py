"""End-to-end CLI tests: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gpsgd
from gpsgd import HyperParams, KernelSpec, MultiKernel, PredictStrategy, linalg, load_csv, predict
from gpsgd.cli import _write_table, main


def run(args):
    return main([str(a) for a in args])


def read_csvs(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def simulate_small(tmp_path, name="data", n=64, seed=5, extra=()):
    out = tmp_path / name
    args = ["simulate", "--out", out, "--seed", seed, "--set", f"n={n}"]
    for kv in extra:
        args += ["--set", kv]
    assert run(args) == 0
    return out


def test_simulate_shape_and_sidecar(tmp_path):
    out = simulate_small(tmp_path, n=100)
    lines = (out / "dataset.csv").read_text().strip().split("\n")
    assert lines[0] == "x1,y"
    assert len(lines) == 101
    provenance = json.loads((out / "provenance.json").read_text())
    assert provenance["n"] == 100 and provenance["seed"] == 5
    assert (out / "summary.txt").exists()


def test_simulate_default_config_shape(tmp_path):
    # all-default simulation: 1024 rows, one input column plus the response
    out = tmp_path / "default"
    assert run(["simulate", "--out", out, "--seed", 0]) == 0
    lines = (out / "dataset.csv").read_text().strip().split("\n")
    assert lines[0] == "x1,y"
    assert len(lines) == 1025


def test_fit_default_config_row_count(tmp_path):
    # default protocol: 25 epochs at m=128 on 1024 rows -> 201 trace rows
    data = tmp_path / "d"
    assert run(["simulate", "--out", data, "--seed", 0]) == 0
    out = tmp_path / "fit"
    assert run(["fit", "--out", out, "--seed", 1, "--set",
                f"data={data / 'dataset.csv'}", "--set", "scaling=log",
                "--set", "theta0_signal=[5.0]", "--set", "theta0_noise=3.0",
                "--set", "clamp=true"]) == 0
    rows = (out / "trace.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 201


def test_simulate_creates_missing_directory(tmp_path):
    nested = tmp_path / "a" / "b" / "c"
    assert run(["simulate", "--out", nested, "--seed", 1, "--set", "n=8"]) == 0
    assert (nested / "dataset.csv").exists()


def test_simulate_rerun_is_byte_identical(tmp_path):
    a = simulate_small(tmp_path, "first", seed=9)
    b = simulate_small(tmp_path, "second", seed=9)
    assert read_csvs(a) == read_csvs(b)


def test_fit_outputs_and_determinism(tmp_path):
    data = simulate_small(tmp_path, n=64)
    common = [
        "--set", f"data={data / 'dataset.csv'}", "--set", "m=16", "--set", "epochs=2",
        "--set", "alpha1=2.0", "--set", "theta0_signal=[2.0]", "--set", "theta0_noise=2.0",
    ]
    out1, out2 = tmp_path / "fit1", tmp_path / "fit2"
    assert run(["fit", "--out", out1, "--seed", 3] + common) == 0
    assert run(["fit", "--out", out2, "--seed", 3] + common) == 0
    assert read_csvs(out1) == read_csvs(out2)
    trace = (out1 / "trace.csv").read_text().strip().split("\n")
    assert trace[0] == "iter,alpha,theta_1,theta_2"
    assert len(trace) == 2 + 2 * 4   # header + theta0 + epochs * ceil(64/16)
    params = json.loads((out1 / "params.json").read_text())
    assert params["theta_noise"] > 0


def test_fit_trace_row_count_formula(tmp_path):
    # epochs * ceil(n/m) + 1 rows: 3 * ceil(50/16) = 12 iterations
    data = simulate_small(tmp_path, n=50)
    out = tmp_path / "fit"
    assert run(["fit", "--out", out, "--seed", 0,
                "--set", f"data={data / 'dataset.csv'}",
                "--set", "m=16", "--set", "epochs=3"]) == 0
    rows = (out / "trace.csv").read_text().strip().split("\n")
    assert len(rows) - 1 == 1 + 3 * 4


def test_fit_usage_errors(tmp_path):
    data = simulate_small(tmp_path)
    base = ["fit", "--out", tmp_path / "bad", "--set", f"data={data / 'dataset.csv'}"]
    assert run(base + ["--set", "alpha1=-1"]) == 2
    assert run(base + ["--set", "no_such_key=1"]) == 2
    assert run(base + ["--set", "optimizer=newton"]) == 2
    assert run(["fit", "--out", tmp_path / "bad2", "--set", "data=/nonexistent.csv"]) == 2


def test_out_of_range_sizes_exit_two(tmp_path, capsys):
    data = simulate_small(tmp_path, n=200)
    csv = data / "dataset.csv"
    predict = ["predict", "--out", tmp_path / "bad", "--set", f"train={csv}",
               "--set", f"test={csv}", "--set", "strategy=nearest"]
    for value in ["500", "0", "abc"]:
        assert run(predict + ["--set", f"n_neighbors={value}"]) == 2
        assert "n_neighbors" in capsys.readouterr().err
    assert run(["fit", "--out", tmp_path / "bad", "--set", f"data={csv}",
                "--set", "m=500", "--set", "sampling=nearby"]) == 2
    assert "m must be in [1, 200]" in capsys.readouterr().err


def test_theta_length_must_match_kernel_count(tmp_path, capsys):
    csv = simulate_small(tmp_path) / "dataset.csv"
    assert run(["fit", "--out", tmp_path / "bad", "--set", f"data={csv}",
                "--set", "theta0_signal=[1,2]"]) == 2
    assert "theta0_signal has 2 entries for 1 kernels" in capsys.readouterr().err
    assert run(["predict", "--out", tmp_path / "bad", "--set", f"train={csv}",
                "--set", f"test={csv}", "--set", "theta_signal=[1,2]"]) == 2
    assert "theta_signal has 2 entries for 1 kernels" in capsys.readouterr().err


def test_batch_sizes_checked_before_work(tmp_path, capsys):
    csv = simulate_small(tmp_path) / "dataset.csv"
    assert run(["fit", "--out", tmp_path / "bad", "--set", f"data={csv}",
                "--set", "m=abc"]) == 2
    assert "m must be an integer, got 'abc'" in capsys.readouterr().err
    experiment = ["experiment", "--out", tmp_path / "x", "--seed", 1, "--set", "n=64"]
    for study, key, value in [("vary-m", "m_grid", "[16,100]"),
                              ("grad-convergence", "m_grid", "[0]"),
                              ("param-convergence", "m", "100")]:
        assert run(experiment + ["--set", f"study={study}", "--set", f"{key}={value}"]) == 2
        assert f"{key} must be in [1, 64]" in capsys.readouterr().err
    assert not list((tmp_path / "x").glob("*.csv"))


def test_log_scaling_needs_three_points_per_batch(tmp_path, capsys):
    csv = simulate_small(tmp_path) / "dataset.csv"
    assert run(["fit", "--out", tmp_path / "bad", "--set", f"data={csv}",
                "--set", "scaling=log", "--set", "m=2"]) == 2
    assert "scaling=log requires m >= 3, got 2" in capsys.readouterr().err
    # log is the vary-m study's default scaling
    assert run(["experiment", "--out", tmp_path / "x", "--seed", 1, "--set", "n=64",
                "--set", "study=vary-m", "--set", "m_grid=[2]"]) == 2
    assert "scaling=log requires m_grid >= 3, got 2" in capsys.readouterr().err
    assert not list((tmp_path / "x").glob("*.csv"))


@pytest.mark.parametrize("command, settings, message", [
    ("simulate", ["n=abc"], "n must be an integer, got 'abc'"),
    ("simulate", ["n=0"], "n must be a positive integer, got 0"),
    ("diagnose", ["n=0"], "n must be a positive integer, got 0"),
    ("experiment", ["study=curvature", "n=0"], "n must be a positive integer, got 0"),
    ("simulate", ["input_dim=2"], "input_dim is 2 but an rbf kernel has 1 lengthscales"),
    ("diagnose", ["n=64", "input_dim=2"], "input_dim is 2 but an rbf kernel has 1 lengthscales"),
    ("experiment", ["study=vary-m", "n=64", "m_grid=[8]", "input_dim=2"],
     "input_dim is 2 but an rbf kernel has 1 lengthscales"),
    ("simulate", ["n=2.5"], "n must be an integer, got 2.5"),
    ("simulate", ["n=true"], "n must be an integer, got True"),
    ("simulate", ["input_sd=abc"], "input_sd must be a finite number, got 'abc'"),
    ("fit", ["data={csv}", "m=16.9"], "m must be an integer, got 16.9"),
    ("fit", ["data={csv}", "clamp=[1]"], "clamp must be [lo, hi] with lo < hi, got [1.0]"),
    ("fit", ["data={csv}", "clamp=abc"], "clamp must be true or [lo, hi], got 'abc'"),
    ("fit", ["data={csv}", "scaling=log", "tau=abc"], "tau must be a finite number, got 'abc'"),
    ("predict", ["train={csv}", "test={csv}", "strategy=bogus"],
     "strategy must be one of ['auto', 'exact', 'cg', 'nearest'], got 'bogus'"),
    ("predict", ["train={csv}", "test={csv}", "cg_max_iter=abc"],
     "cg_max_iter must be an integer, got 'abc'"),
    ("diagnose", ["replicates=0"], "replicates must be a positive integer, got 0"),
    ("diagnose", ["decay_family=linear"],
     "decay_family must be one of ['exponential', 'polynomial'], got 'linear'"),
    ("diagnose", ["fit_index_range=[5,2]"], "fit_index_range must be [lo, hi] with lo < hi"),
    ("diagnose", ["n=64", "m_grid=[8]", "replicates=2", "fit_index_range=[100,200]"],
     "fit_index_range [100, 200] holds fewer than 3 of the eigenvalue indices 1..64"),
    ("diagnose", ["n=64", "m_grid=[8]", "fit_index_range=[63,200]"],
     "fit_index_range [63, 200] holds fewer than 3"),
    ("diagnose", ["n=64", "m_grid=[8,8]"], "m_grid must not repeat an entry, got [8, 8]"),
    ("experiment", ["study=curvature", "n=64", "m_grid=[8,16,8]"],
     "m_grid must not repeat an entry, got [8, 16, 8]"),
    ("experiment", ["study=vary-m", "n=64", "m_grid=[8,8]"],
     "m_grid must not repeat an entry, got [8, 8]"),
    ("experiment", ["study=grad-convergence", "n=64", "m_grid=[8,8]"],
     "m_grid must not repeat an entry, got [8, 8]"),
    ("experiment", ["study=vary-m", "reps=0"], "reps must be a positive integer, got 0"),
    ("experiment", ["study=grad-convergence", "reps=0"], "reps must be a positive integer, got 0"),
    ("experiment", ["study=lengthscale-monotone", "surrogate_m=0"],
     "surrogate_m must be a positive integer, got 0"),
    ("fit", ["data={wide}", "m=4", "epochs=1"],
     "data has 2 input columns but an rbf kernel has 1 lengthscales"),
    ("predict", ["train={wide}", "test={wide}"],
     "train has 2 input columns but an rbf kernel has 1 lengthscales"),
    ("predict", ["train={csv}", "test={wide}"],
     "test has 2 input columns but an rbf kernel has 1 lengthscales"),
    ("predict", ["train={csv}", "test={wide}", "kernel_family=matern", "matern_order=1.5",
                 "lengthscales=[1.0]"], "test has 2 input columns but train has 1"),
], ids=["simulate-n-abc", "simulate-n-0", "diagnose-n-0", "experiment-n-0",
        "simulate-input-dim", "diagnose-input-dim", "experiment-input-dim",
        "simulate-n-fraction", "simulate-n-bool", "simulate-input-sd-text", "fit-m-fraction",
        "fit-clamp-one-bound", "fit-clamp-text", "fit-log-tau-text", "predict-strategy",
        "predict-cg-max-iter-text", "diagnose-replicates-0", "diagnose-decay-family",
        "diagnose-index-range-reversed", "diagnose-index-range-past-n",
        "diagnose-index-range-two-indices", "diagnose-m-grid-repeat", "curvature-m-grid-repeat",
        "vary-m-m-grid-repeat", "grad-convergence-m-grid-repeat", "vary-m-reps-0",
        "grad-convergence-reps-0",
        "monotone-surrogate-m-0", "fit-data-columns", "predict-train-columns",
        "predict-test-columns", "predict-matern-test-columns"])
def test_bad_n_or_input_dim_exits_two(tmp_path, capsys, command, settings, message):
    csv = simulate_small(tmp_path) / "dataset.csv" if command in ("fit", "predict") else None
    wide = tmp_path / "wide.csv"
    wide.write_text("x1,x2,y\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n")
    args = [command, "--out", tmp_path / "bad"] + ["--seed", 1] * (command != "predict")
    for kv in settings:
        args += ["--set", kv.format(csv=csv, wide=wide)]
    assert run(args) == 2
    assert message in capsys.readouterr().err
    assert not list((tmp_path / "bad").glob("*.csv"))


@pytest.mark.parametrize("flag, target, message", [
    ("--out", "file", "--out names a file, not a directory: "),
    ("--out", "file/sub", "--out names a file, not a directory: "),
    ("--config", "dir", "--config names a directory, not a file: "),
], ids=["out-file", "out-under-file", "config-directory"])
def test_bad_out_or_config_path_exits_two(tmp_path, capsys, flag, target, message):
    (tmp_path / "file").write_text("x\n")
    (tmp_path / "dir").mkdir()
    path = tmp_path / target
    out = [] if flag == "--out" else ["--out", tmp_path / "out"]
    assert run(["simulate", flag, path, *out, "--seed", 1, "--set", "n=8"]) == 2
    assert f"error: {message}{path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content, message", [
    ('{"theta_signal": [1, 2], "theta_noise": 1}', "params theta_signal has 2 entries for 1 kernels"),
    ('{"theta_noise": 1}', "params theta_signal is required"),
    ('{"theta_signal": [1], "theta_noise": 1, "lengthscales": [0.5, 0.5]}',
     "params lengthscales has 2 entries for 1 lengthscale slots"),
    ("[1, 2]", "must hold a JSON object, got [1, 2]"),
    ("not json", "is not valid JSON"),
    ('{"theta_signal": [4.0], "theta_noise": 1.0, "lengthscale": [0.05]}',
     "params.json: ['lengthscale']"),
], ids=["two-signal-variances", "no-signal", "two-lengthscales", "list", "text", "misspelt-key"])
def test_bad_params_file_exits_two(tmp_path, capsys, content, message):
    csv = simulate_small(tmp_path) / "dataset.csv"
    params = tmp_path / "params.json"
    params.write_text(content)
    assert run(["predict", "--out", tmp_path / "bad", "--set", f"train={csv}",
                "--set", f"test={csv}", "--set", f"params={params}"]) == 2
    err = capsys.readouterr().err
    assert "params" in err and message in err
    assert not list((tmp_path / "bad").glob("*.csv"))


@pytest.mark.parametrize("blocks, message", [
    ('[{"family": "rbf", "lengthscales": "12"}]',
     "kernels[0] lengthscales must be a finite number, got '12'"),
    ('[{"family": "rbf", "lengthscales": "5"}]',
     "kernels[0] lengthscales must be a finite number, got '5'"),
    ('[{"family": "rbf", "lengthscales": [true]}]',
     "kernels[0] lengthscales must be a finite number, got True"),
    ('[{"family": "rbf", "lengthscales": [0.5]}, '
     '{"family": "matern", "lengthscales": [1.0], "matern_order": "1.5"}]',
     "kernels[1] matern_order must be one of [0.5, 1.5, 2.5], got '1.5'"),
    ('[{"family": "rbf"}]', "kernels[0] lengthscales is required"),
    ('[{"lengthscales": [0.5]}]', "kernels[0] family is required"),
    ('[{"family": "rbf", "lengthscales": [0.5], "bogus": 1}]',
     "unknown keys in kernels[0]: ['bogus']"),
    ("[0.5]", "kernels[0] must hold a JSON object, got 0.5"),
], ids=["text-lengthscales", "text-lengthscale", "bool-lengthscale", "text-matern-order",
        "no-lengthscales", "no-family", "unknown-key", "not-an-object"])
def test_bad_kernel_block_exits_two(tmp_path, capsys, blocks, message):
    csv = simulate_small(tmp_path) / "dataset.csv"
    assert run(["predict", "--out", tmp_path / "bad", "--set", f"train={csv}",
                "--set", f"test={csv}", "--set", f"kernels={blocks}"]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not list((tmp_path / "bad").glob("*.csv"))


def test_provenance_kernels_feed_back_as_the_kernels_key(tmp_path):
    # simulate records each block as KernelSpec.to_config gives it; read back
    # through the kernels key, the blocks give the same model. A bare number
    # is a list of one lengthscale.
    common = ["input_dim=2", "theta_signal=[2, 1]"]
    first = simulate_small(tmp_path, "first", extra=[
        'kernels=[{"family": "rbf", "lengthscales": [0.5, 2.0]}, '
        '{"family": "matern", "lengthscales": 0.8, "matern_order": 1.5}]', *common])
    kernels = json.loads((first / "provenance.json").read_text())["kernels"]
    assert kernels == [{"family": "rbf", "lengthscales": [0.5, 2.0]},
                       {"family": "matern", "lengthscales": [0.8], "matern_order": 1.5}]
    again = simulate_small(tmp_path, "again", extra=[f"kernels={json.dumps(kernels)}", *common])
    assert (again / "provenance.json").read_bytes() == (first / "provenance.json").read_bytes()
    assert read_csvs(again) == read_csvs(first)


@pytest.mark.parametrize("command, key", [("fit", "data"), ("predict", "train"),
                                          ("predict", "test")])
def test_rejected_dataset_csv_exits_two(tmp_path, capsys, command, key):
    csv = simulate_small(tmp_path) / "dataset.csv"
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    files = {"fit": {"data": csv}, "predict": {"train": csv, "test": csv}}[command]
    files[key] = bad
    args = [command, "--out", tmp_path / "out"]
    for name, path in files.items():
        args += ["--set", f"{name}={path}"]
    assert run(args) == 2
    assert f"error: {key}: {bad}: header must be x1,...,xD,y" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("text, where", [
    ("x1,y\n0,1\n\n1,2\n", ":3: expected 2 columns, got 0"),
    ("x1,y\n0,1\n1,nan\n", ":3: column 2: non-finite cell 'nan'"),
], ids=["blank-line", "non-finite"])
def test_dataset_csv_bad_line_exits_two(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert run(["fit", "--out", tmp_path / "out", "--set", f"data={bad}"]) == 2
    assert f"error: data: {bad}{where}" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


_CURVATURE = ["study=curvature", "n=64", "m_grid=[8]"]
_VARY_M = ["study=vary-m", "n=64", "m_grid=[8]"]
_PARAM = ["study=param-convergence", "n=64", "m=16"]
_MONOTONE = ["study=lengthscale-monotone"]
_ONE_KERNEL = 'kernels=[{"family": "rbf", "lengthscales": [0.5]}]'
_TWO_KERNELS = ('kernels=[{"family": "rbf", "lengthscales": [0.5]}, '
                '{"family": "rbf", "lengthscales": [2.0]}]')


@pytest.mark.parametrize("settings, message", [
    (_MONOTONE + ["input_kind=uniform"], "input_kind must be gaussian for lengthscale-monotone"),
    (_PARAM + ["theta0_signal=[2]"], "theta0_signal does not apply to param-convergence"),
    (_PARAM + ["theta0_noise=1"], "theta0_noise does not apply to param-convergence"),
    (_PARAM + ["alpha1=3"], "alpha1 does not apply to param-convergence"),
    (_CURVATURE + ["alpha1=3"], "alpha1 does not apply to curvature"),
    (_CURVATURE + ["sampling=nearby"], "sampling does not apply to curvature"),
    (_VARY_M + ["replicates=7"], "replicates does not apply to vary-m"),
    (_VARY_M + ["m=7"], "m does not apply to vary-m"),
    (_MONOTONE + ["kernel_family=matern", "matern_order=1.5", "lengthscales=[3.0]", "reps=4",
                  "n=10"], "kernel_family does not apply to lengthscale-monotone"),
    (_MONOTONE + ["matern_order=1.5"], "matern_order does not apply to lengthscale-monotone"),
    (_MONOTONE + ["lengthscales=[3.0]"], "lengthscales does not apply to lengthscale-monotone"),
    (_MONOTONE + ["reps=4"], "reps does not apply to lengthscale-monotone"),
    (_MONOTONE + ["n=10"], "n does not apply to lengthscale-monotone"),
    # its fixed start points hold one signal variance each
    (_PARAM + [_TWO_KERNELS, "theta_signal=[2,2]"], "param-convergence uses a single kernel"),
], ids=["monotone-uniform-inputs", "param-theta0-signal", "param-theta0-noise",
        "param-alpha1", "curvature-alpha1", "curvature-sampling", "vary-m-replicates",
        "vary-m-m", "monotone-matern", "monotone-matern-order", "monotone-lengthscales",
        "monotone-reps", "monotone-n", "param-two-kernels"])
def test_keys_a_study_ignores_exit_two(tmp_path, capsys, settings, message):
    args = ["experiment", "--out", tmp_path / "x", "--seed", 1]
    for kv in settings:
        args += ["--set", kv]
    assert run(args) == 2
    assert message in capsys.readouterr().err
    assert not list((tmp_path / "x").glob("*.csv"))


@pytest.mark.parametrize("command, settings, message", [
    ("fit", ["tau=7"], "tau applies only with scaling=log"),
    ("fit", ["learning_rate=0.5"], "learning_rate applies only with optimizer=adam"),
    ("fit", ["learn_lengthscales=true"], "learn_lengthscales applies only with optimizer=adam"),
    ("fit", ["optimizer=adam", "alpha1=3"], "alpha1 applies only with optimizer=sgd"),
    ("simulate", ["input_low=-3"], "input_low applies only with input_kind=uniform"),
    ("simulate", ["input_kind=uniform", "input_sd=2"],
     "input_sd applies only with input_kind=gaussian"),
    ("experiment", _VARY_M + ["scaling=linear", "tau=7"], "tau applies only with scaling=log"),
    ("fit", ["iterations=5", "epochs=9"], "epochs applies only with iterations=null"),
    ("simulate", ["noise_sd=3"], "noise_sd applies only with generator=levy or generator=griewank"),
    ("simulate", ["generator=levy", "theta_noise=7"], "theta_noise applies only with generator=gp"),
    ("simulate", ["generator=levy", "lengthscales=[3]"],
     "lengthscales applies only with generator=gp"),
    ("simulate", ["generator=levy", "kernel_family=matern"],
     "kernel_family applies only with generator=gp"),
    ("predict", ["params=params.json", "theta_signal=[9]"],
     "theta_signal applies only with params=null"),
    ("predict", ["params=params.json", "theta_noise=3"],
     "theta_noise applies only with params=null"),
    ("predict", ["seed=7"], "seed does not apply to predict"),
    ("predict", ["strategy=exact", "cg_tol=0.5"],
     "cg_tol applies only with strategy=auto or strategy=cg"),
    ("predict", ["strategy=nearest", "cg_max_iter=3"],
     "cg_max_iter applies only with strategy=auto or strategy=cg"),
    ("predict", ["n_neighbors=7"], "n_neighbors applies only with strategy=nearest"),
    ("predict", [_ONE_KERNEL, "lengthscales=[9.0]"], "lengthscales applies only with kernels=null"),
    ("fit", [_ONE_KERNEL, "kernel_family=matern"], "kernel_family applies only with kernels=null"),
    ("simulate", [_ONE_KERNEL, "matern_order=1.5"], "matern_order applies only with kernels=null"),
], ids=["fit-tau-linear", "fit-learning-rate-sgd", "fit-learn-lengthscales-sgd",
        "fit-alpha1-adam", "simulate-input-low-gaussian", "simulate-input-sd-uniform",
        "vary-m-tau-linear", "fit-epochs-iterations", "simulate-noise-sd-gp",
        "simulate-theta-noise-levy", "simulate-lengthscales-levy", "simulate-kernel-family-levy",
        "predict-theta-signal-params", "predict-theta-noise-params", "predict-seed",
        "predict-cg-tol-exact", "predict-cg-max-iter-nearest", "predict-n-neighbors-auto",
        "predict-lengthscales-kernels", "fit-kernel-family-kernels",
        "simulate-matern-order-kernels"])
def test_keys_another_key_turns_off_exit_two(tmp_path, monkeypatch, capsys, command, settings,
                                             message):
    monkeypatch.chdir(tmp_path)
    args = [command, "--out", tmp_path / "bad"]
    if command == "fit":
        settings = [f"data={simulate_small(tmp_path) / 'dataset.csv'}", *settings]
    elif command == "predict":
        csv = simulate_small(tmp_path) / "dataset.csv"
        (tmp_path / "params.json").write_text('{"theta_signal": [2.0], "theta_noise": 0.5}')
        settings = [f"train={csv}", f"test={csv}", *settings]
    if command != "predict":
        args += ["--seed", 1]
    for kv in settings:
        args += ["--set", kv]
    assert run(args) == 2
    assert f"{message}; leave it at its default" in capsys.readouterr().err
    assert not list((tmp_path / "bad").glob("*.csv"))


def test_gated_keys_at_their_default_are_accepted(tmp_path):
    csv = simulate_small(tmp_path) / "dataset.csv"
    assert run(["fit", "--out", tmp_path / "fit", "--set", f"data={csv}", "--set", "m=16",
                "--set", "epochs=1", "--set", "tau=3", "--set", "learning_rate=0.01",
                "--set", "learn_lengthscales=false"]) == 0
    assert run(["simulate", "--out", tmp_path / "sim", "--set", "n=8",
                "--set", "input_kind=uniform", "--set", "input_sd=5"]) == 0
    assert run(["fit", "--out", tmp_path / "fit_iters", "--set", f"data={csv}", "--set", "m=16",
                "--set", "iterations=2", "--set", "epochs=25"]) == 0
    assert run(["simulate", "--out", tmp_path / "gp", "--set", "n=8", "--set", "noise_sd=1"]) == 0
    assert run(["simulate", "--out", tmp_path / "levy", "--set", "n=8", "--set", "generator=levy",
                "--set", "theta_noise=1", "--set", "lengthscales=[0.5]",
                "--set", "kernel_family=rbf"]) == 0
    assert run(["simulate", "--out", tmp_path / "blocks", "--set", "n=8", "--set", _ONE_KERNEL,
                "--set", "kernel_family=rbf", "--set", "lengthscales=[0.5]",
                "--set", "matern_order=null"]) == 0
    params = tmp_path / "params.json"
    params.write_text('{"theta_signal": [2.0], "theta_noise": 0.5}')
    assert run(["predict", "--out", tmp_path / "pred", "--seed", 0, "--set", f"train={csv}",
                "--set", f"test={csv}", "--set", f"params={params}",
                "--set", "theta_signal=[1]", "--set", "theta_noise=1"]) == 0
    for strategy, neighbors in (("exact", 256), ("nearest", 8)):
        assert run(["predict", "--out", tmp_path / strategy, "--set", f"train={csv}",
                    "--set", f"test={csv}", "--set", f"strategy={strategy}",
                    "--set", "cg_tol=1e-6", "--set", "cg_max_iter=1000",
                    "--set", f"n_neighbors={neighbors}"]) == 0


def test_write_table_cells_round_trip_and_atomic(tmp_path):
    path = tmp_path / "table.csv"
    third = 1 / 3
    _write_table(path, ["f", "np", "short", "int", "none", "str"],
                 [(third, np.float64(third), np.float64(0.1), 7, None, "uniform")])
    text = path.read_text()
    header, row = text.splitlines()
    assert header == "f,np,short,int,none,str"
    assert row == f"{third!r},{third!r},0.1,7,,uniform" and text.endswith("\n")
    assert float(row.split(",")[0]) == third and float(row.split(",")[1]) == third

    def failing_rows():
        yield (1.0,)
        raise RuntimeError("row failed")

    with pytest.raises(RuntimeError):
        _write_table(path, ["f"], failing_rows())
    assert path.read_text() == text
    assert not list(tmp_path.glob("*.tmp"))


def test_a_study_takes_keys_it_ignores_at_their_default(tmp_path):
    assert run(["experiment", "--out", tmp_path / "x", "--seed", 1, "--set", "n=32",
                "--set", "study=curvature", "--set", "m_grid=[4]", "--set", "replicates=1",
                "--set", "alpha1=9", "--set", "sampling=uniform", "--set", "m=128"]) == 0


def test_param_convergence_accepts_its_default_start(tmp_path):
    assert run(["experiment", "--out", tmp_path / "x", "--seed", 1, "--set", "n=32",
                "--set", "study=param-convergence", "--set", "m=16", "--set", "epochs=1",
                "--set", "reps=1", "--set", "theta0_signal=5", "--set", "theta0_noise=3",
                "--set", "alpha1=9"]) == 0


def test_jobs_is_an_experiment_flag(tmp_path, capsys):
    csv = simulate_small(tmp_path) / "dataset.csv"
    with pytest.raises(SystemExit) as exc:
        run(["fit", "--out", tmp_path / "fit", "--set", f"data={csv}", "--jobs", 2])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()
    assert run(["experiment", "--out", tmp_path / "x", "--seed", 1, "--jobs", 0,
                "--set", "study=lengthscale-monotone"]) == 2
    assert "--jobs must be a positive integer" in capsys.readouterr().err


def test_checking_keeps_the_config_hash(tmp_path):
    # theta_signal=4 is read as [4.0]; the hash is of the config as given
    out = tmp_path / "sim"
    assert run(["simulate", "--out", out, "--seed", 1, "--set", "n=8",
                "--set", "theta_signal=4"]) == 0
    assert "config_hash: 868214d1cf8f59c2\n" in (out / "summary.txt").read_text()


def test_predict_cg_summary_reports_iterations(tmp_path):
    train = simulate_small(tmp_path, "train", n=80, seed=1)
    test = simulate_small(tmp_path, "test", n=20, seed=2)
    common = ["--set", f"train={train / 'dataset.csv'}", "--set", f"test={test / 'dataset.csv'}"]
    assert run(["predict", "--out", tmp_path / "cg", "--set", "strategy=cg"] + common) == 0
    summary = dict(line.split(": ", 1)
                   for line in (tmp_path / "cg" / "summary.txt").read_text().splitlines())
    train_ds, test_ds = load_csv(train / "dataset.csv"), load_csv(test / "dataset.csv")
    result = predict(HyperParams((1.0,), 1.0), MultiKernel.single(KernelSpec.rbf(0.5)),
                     train_ds.X, train_ds.y, test_ds.X, strategy=PredictStrategy.CG)
    assert int(summary["cg_iterations_y"]) == result.cg_iterations[0] > 0
    assert int(summary["cg_iterations_max_test_column"]) == max(result.cg_iterations[1:])
    lines = (tmp_path / "cg" / "predictions.csv").read_text().strip().split("\n")
    assert lines[0] == "index,mean,variance,truth,abs_err" and len(lines) == 21
    assert run(["predict", "--out", tmp_path / "exact", "--set", "strategy=exact"] + common) == 0
    assert "cg_iterations" not in (tmp_path / "exact" / "summary.txt").read_text()


def test_predict_cg_summary_reports_preconditioner(tmp_path):
    train = simulate_small(tmp_path, "train", n=80, seed=1)
    test = simulate_small(tmp_path, "test", n=20, seed=2)
    assert run(["predict", "--out", tmp_path / "cg", "--set", "strategy=cg",
                "--set", f"train={train / 'dataset.csv'}",
                "--set", f"test={test / 'dataset.csv'}"]) == 0
    summary = dict(line.split(": ", 1)
                   for line in (tmp_path / "cg" / "summary.txt").read_text().splitlines())
    train_ds, test_ds = load_csv(train / "dataset.csv"), load_csv(test / "dataset.csv")
    result = predict(HyperParams((1.0,), 1.0), MultiKernel.single(KernelSpec.rbf(0.5)),
                     train_ds.X, train_ds.y, test_ds.X, strategy=PredictStrategy.CG)
    assert int(summary["cg_preconditioner_rank"]) == result.cg_preconditioner_rank > 0
    assert float(summary["cg_residual_max"]) == result.cg_residual_max <= 1e-6


def test_predict_reports_rmse(tmp_path, capsys):
    train = simulate_small(tmp_path, "train", n=80, seed=1)
    test = simulate_small(tmp_path, "test", n=20, seed=2)
    out = tmp_path / "pred"
    code = run([
        "predict", "--out", out,
        "--set", f"train={train / 'dataset.csv'}",
        "--set", f"test={test / 'dataset.csv'}",
        "--set", "theta_signal=[4.0]", "--set", "theta_noise=1.0",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("rmse=")
    lines = (out / "predictions.csv").read_text().strip().split("\n")
    assert lines[0] == "index,mean,variance,truth,abs_err"
    assert len(lines) == 21


def test_predict_uses_fit_params(tmp_path):
    train = simulate_small(tmp_path, "train", n=64, seed=1)
    fit_out = tmp_path / "fitp"
    assert run(["fit", "--out", fit_out, "--seed", 2,
                "--set", f"data={train / 'dataset.csv'}",
                "--set", "m=16", "--set", "epochs=2"]) == 0
    out = tmp_path / "predp"
    assert run(["predict", "--out", out,
                "--set", f"train={train / 'dataset.csv'}",
                "--set", f"test={train / 'dataset.csv'}",
                "--set", f"params={fit_out / 'params.json'}"]) == 0
    assert (out / "predictions.csv").exists()


def test_adam_fit_params_predict_like_the_library(tmp_path, capsys):
    csv = simulate_small(tmp_path) / "dataset.csv"
    fit = tmp_path / "fit"
    assert run(["fit", "--out", fit, "--seed", 3, "--set", f"data={csv}",
                "--set", "optimizer=adam", "--set", "sampling=nearby",
                "--set", "learn_lengthscales=true", "--set", "m=16",
                "--set", "iterations=20"]) == 0
    params = json.loads((fit / "params.json").read_text())
    assert sorted(params) == ["lengthscales", "theta_noise", "theta_signal"]
    assert len(params["lengthscales"]) == 1 and params["lengthscales"] != [0.5]
    pred = tmp_path / "pred"
    assert run(["predict", "--out", pred, "--set", f"train={csv}", "--set", f"test={csv}",
                "--set", "strategy=exact", "--set", f"params={fit / 'params.json'}"]) == 0
    data = load_csv(csv)
    theta = HyperParams(tuple(params["theta_signal"]), params["theta_noise"],
                        tuple(params["lengthscales"]))
    result = predict(theta, MultiKernel.single(KernelSpec.rbf(0.5)), data.X, data.y, data.X,
                     strategy=PredictStrategy.EXACT)
    rows = [line.split(",") for line in (pred / "predictions.csv").read_text().splitlines()[1:]]
    assert [float(row[1]) for row in rows] == result.mean.tolist()
    assert [float(row[2]) for row in rows] == result.variance.tolist()
    misspelt = tmp_path / "misspelt.json"
    misspelt.write_text((fit / "params.json").read_text().replace('"lengthscales"',
                                                                  '"lengthscale"'))
    capsys.readouterr()
    assert run(["predict", "--out", tmp_path / "bad", "--set", f"train={csv}",
                "--set", f"test={csv}", "--set", f"params={misspelt}"]) == 2
    assert "['lengthscale']" in capsys.readouterr().err
    assert not (tmp_path / "bad" / "predictions.csv").exists()


def test_predict_numerical_failure_exits_one(tmp_path, capsys):
    train = simulate_small(tmp_path, "train", n=64, seed=1)
    code = run(["predict", "--out", tmp_path / "cgfail",
                "--set", f"train={train / 'dataset.csv'}",
                "--set", f"test={train / 'dataset.csv'}",
                "--set", "strategy=cg", "--set", "cg_tol=1e-15",
                "--set", "cg_max_iter=1"])
    assert code == 1
    assert "CGConvergenceError: cg prediction at theta [1.0, 1.0]: CG stopped after" in (
        capsys.readouterr().err)
    # a noise of 1e-300 under a long lengthscale leaves K singular
    code = run(["predict", "--out", tmp_path / "exactfail",
                "--set", f"train={train / 'dataset.csv'}",
                "--set", f"test={train / 'dataset.csv'}",
                "--set", "strategy=exact", "--set", "theta_noise=1e-300",
                "--set", "lengthscales=[100]"])
    assert code == 1
    assert ("NotPositiveDefiniteError: exact prediction at theta [1.0, 1e-300]: Cholesky failed"
            in capsys.readouterr().err)


def test_predict_nearest_strategy(tmp_path):
    train = simulate_small(tmp_path, "train", n=64, seed=1)
    out = tmp_path / "prednn"
    assert run(["predict", "--out", out,
                "--set", f"train={train / 'dataset.csv'}",
                "--set", f"test={train / 'dataset.csv'}",
                "--set", "strategy=nearest", "--set", "n_neighbors=8"]) == 0


def test_diagnose_outputs(tmp_path):
    out = tmp_path / "diag"
    assert run(["diagnose", "--out", out, "--seed", 4,
                "--set", "n=128", "--set", "m_grid=[8,16]",
                "--set", "replicates=1", "--set", "fit_index_range=[1,12]"]) == 0
    rows = (out / "curvature.csv").read_text().strip().split("\n")
    assert rows[0] == "m,scheme,replicates,mean,sd"
    assert len(rows) == 5   # 2 sizes x 2 schemes
    # a single replicate reports zero spread
    assert all(row.split(",")[-1] == "0.0" for row in rows[1:])
    decay = (out / "eigendecay.csv").read_text().strip().split("\n")
    assert decay[0] == "family,rate,scale,index_lo,index_hi,residual"
    assert float(decay[1].split(",")[1]) > 0
    # a range reaching past n is cut at n
    assert run(["diagnose", "--out", tmp_path / "past", "--seed", 4, "--set", "n=128",
                "--set", "m_grid=[8]", "--set", "replicates=1",
                "--set", "fit_index_range=[2,1000]"]) == 0


def test_diagnose_n_above_eigenvalue_cap_exits_two_before_work(tmp_path, capsys):
    out = tmp_path / "big"
    assert run(["diagnose", "--out", out, "--seed", 1, "--set", "n=5000"]) == 2
    assert "n is 5000" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_requires_seed_and_known_study(tmp_path):
    assert run(["experiment", "--out", tmp_path / "x", "--set", "study=curvature"]) == 2
    assert run(["experiment", "--out", tmp_path / "x", "--seed", 1,
                "--set", "study=unheard-of"]) == 2


def test_experiment_lengthscale_monotone(tmp_path):
    out = tmp_path / "monotone"
    assert run(["experiment", "--out", out, "--seed", 1,
                "--set", "study=lengthscale-monotone"]) == 0
    rows = (out / "lengthscale_curvature.csv").read_text().strip().split("\n")
    assert rows[0] == "lengthscale,gamma_tilde"
    values = [float(r.split(",")[1]) for r in rows[1:]]
    assert values == sorted(values)


def test_experiment_param_convergence_outputs(tmp_path):
    out = tmp_path / "study"
    assert run(["experiment", "--out", out, "--seed", 6,
                "--set", "study=param-convergence", "--set", "n=64",
                "--set", "m=16", "--set", "epochs=2", "--set", "reps=2"]) == 0
    aggregate = (out / "case0_aggregate.csv").read_text().strip().split("\n")
    assert aggregate[0] == "iter,theta_1_mean,theta_1_sd,theta_2_mean,theta_2_sd"
    assert len(aggregate) == 2 + 2 * 4
    assert (out / "case2_rep1_trace.csv").exists()


def check_rerun_and_jobs_parity(tmp_path, study, sizes):
    args = ["experiment", "--seed", 8, "--set", f"study={study}", "--set", "n=48",
            "--set", sizes, "--set", "epochs=1", "--set", "reps=2"]
    serial1, serial2, parallel = tmp_path / "s1", tmp_path / "s2", tmp_path / "par"
    assert run(args + ["--out", serial1]) == 0
    assert run(args + ["--out", serial2]) == 0
    assert run(args + ["--out", parallel, "--jobs", 2]) == 0
    assert read_csvs(serial1) == read_csvs(serial2)
    assert read_csvs(serial1) == read_csvs(parallel)


def test_experiment_rerun_and_jobs_parity(tmp_path):
    check_rerun_and_jobs_parity(tmp_path, "vary-m", "m_grid=[8,16]")


@pytest.mark.parametrize("study, sizes", [
    ("param-convergence", "m=8"),
    ("grad-convergence", "m_grid=[8,16]"),
])
def test_experiment_rerun_and_jobs_parity_other_studies(tmp_path, study, sizes):
    check_rerun_and_jobs_parity(tmp_path, study, sizes)


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n": 32, "seed": 1}))
    out = tmp_path / "sim"
    assert run(["simulate", "--config", config, "--out", out, "--seed", 2]) == 0
    provenance = json.loads((out / "provenance.json").read_text())
    assert provenance["n"] == 32
    assert provenance["seed"] == 2   # flag beats config file


def test_config_rejects_unknown_file_key(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"frobnicate": True}))
    assert run(["simulate", "--config", config, "--out", tmp_path / "y"]) == 2


def test_small_factorizations_give_the_same_bits_at_any_blas_thread_count(tmp_path):
    # linalg's thread rule runs the batch gradients' (m=128) factor and
    # inverse, the 256-point nearest neighbourhoods' factor and the 512-point
    # simulation's factor on one scipy BLAS thread, so these outputs do not
    # depend on OPENBLAS_NUM_THREADS. grad_norm_sq is a full gradient over
    # 512 rows, whose inverse is above linalg.ONE_THREAD_MAX_ORDER_INVERSE:
    # it keeps every thread and may differ in the last bits, so only
    # trace.csv's theta columns are compared.
    data = simulate_small(tmp_path, n=512, seed=11)
    src = str(Path(gpsgd.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        fit, pred = tmp_path / f"fit{threads}", tmp_path / f"pred{threads}"
        sim = tmp_path / f"sim{threads}"
        for args in (["simulate", "--out", sim, "--seed", 11, "--set", "n=512"],
                     ["fit", "--out", fit, "--seed", 3, "--set", f"data={data / 'dataset.csv'}",
                      "--set", "grad_norm_every=25"],
                     ["predict", "--out", pred, "--set", f"train={data / 'dataset.csv'}",
                      "--set", f"test={data / 'dataset.csv'}",
                      "--set", f"params={fit / 'params.json'}", "--set", "strategy=nearest"]):
            subprocess.run([sys.executable, "-m", "gpsgd.cli", *map(str, args)], env=env,
                           check=True, capture_output=True)
        header, *rows = (fit / "trace.csv").read_text().splitlines()
        assert header == "iter,alpha,theta_1,theta_2,grad_norm_sq"
        outputs[threads] = ((fit / "params.json").read_bytes(),
                            [row.rsplit(",", 1)[0] for row in rows],
                            (pred / "predictions.csv").read_bytes(),
                            (sim / "dataset.csv").read_bytes())
    assert outputs["1"] == outputs["2"]


@pytest.mark.parametrize("pinned", ["libscipy_openblas-test.so", None])
def test_summary_names_the_blas_pin(tmp_path, monkeypatch, pinned):
    monkeypatch.setattr(linalg, "PINNED_BLAS", pinned)
    out = simulate_small(tmp_path, n=8)
    lines = [line for line in (out / "summary.txt").read_text().splitlines()
             if line.startswith("blas_pin: ")]
    if pinned is None:
        assert lines == ["blas_pin: no OpenBLAS found, no pin"]
    else:
        assert len(lines) == 1 and lines[0].startswith(f"blas_pin: {pinned} on one thread")
        assert (f" {linalg.ONE_THREAD_MAX_ORDER_INVERSE} (" in lines[0]
                and f" {linalg.ONE_THREAD_MAX_ORDER_FACTOR} (" in lines[0])
