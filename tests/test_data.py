"""Dataset generation, splitting, normalization, and CSV round trips."""

import numpy as np
import pytest

from gpsgd import (
    Dataset,
    Gaussian,
    HyperParams,
    KernelSpec,
    MultiKernel,
    Uniform,
    griewank,
    levy,
    load_csv,
    marginal_covariance,
    nll_loss,
    normalize,
    save_csv,
    simulate_function,
    simulate_gp,
    train_test_split,
)

MK = MultiKernel.single(KernelSpec.rbf(0.5))


def test_simulate_noise_only_limit():
    ds = simulate_gp(MK, HyperParams((1e-12,), 1.0), 5000, Gaussian(5.0), 1, seed=0)
    # y is i.i.d. N(0,1); sample variance within 5 sigma of 1
    var = ds.y.var()
    sigma = np.sqrt(2.0 / 5000)  # var of the sample variance of N(0,1)
    assert abs(var - 1.0) < 5 * sigma


def test_simulate_deterministic():
    a = simulate_gp(MK, HyperParams((4.0,), 1.0), 64, Gaussian(5.0), 1, seed=42)
    b = simulate_gp(MK, HyperParams((4.0,), 1.0), 64, Gaussian(5.0), 1, seed=42)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert a.provenance["seed"] == 42


def test_simulate_covariance_monte_carlo():
    # each replicate draws fresh (X, y); E[y y^T] must match E[K(theta*, X)],
    # both estimated over the same 2000 independent replicates
    theta = HyperParams((2.0,), 0.5)
    reps = 2000
    second_moment = np.zeros((3, 3))
    target = np.zeros((3, 3))
    for r in range(reps):
        ds = simulate_gp(MK, theta, 3, Gaussian(2.0), 1, seed=10_000 + r)
        second_moment += np.outer(ds.y, ds.y)
        target += marginal_covariance(MK, theta, ds.X)
    second_moment /= reps
    target /= reps
    for i in range(3):
        for j in range(3):
            # var of the sample second moment of jointly gaussian entries
            se = np.sqrt((target[i, i] * target[j, j] + target[i, j] ** 2) / reps)
            assert abs(second_moment[i, j] - target[i, j]) < 5 * se


def test_simulate_uniform_inputs_within_bounds():
    mk2 = MultiKernel.single(KernelSpec.rbf((0.5, 0.5)))
    ds = simulate_gp(mk2, HyperParams((1.0,), 1.0), 200, Uniform(-2.0, 3.0), 2, seed=5)
    assert ds.X.min() >= -2.0 and ds.X.max() <= 3.0
    assert ds.input_dim == 2


def test_levy_and_griewank_minima():
    assert levy(np.ones((1, 4)))[0] == pytest.approx(0.0, abs=1e-12)
    assert griewank(np.zeros((1, 6)))[0] == pytest.approx(0.0, abs=1e-12)
    assert levy(np.array([[3.0, -2.0]]))[0] > 0


def test_simulate_function_noise_injection():
    noiseless = simulate_function(levy, 500, Uniform(-10, 10), 3, 0.0, seed=8)
    assert np.allclose(noiseless.y, levy(noiseless.X))
    noisy = simulate_function(levy, 500, Uniform(-10, 10), 3, 2.0, seed=8)
    resid = noisy.y - levy(noisy.X)
    assert abs(resid.std() - 2.0) < 0.3
    assert noisy.provenance["function"] == "levy"


def test_split_sizes_and_partition():
    ds = simulate_gp(MK, HyperParams((1.0,), 1.0), 10, Gaussian(1.0), 1, seed=1)
    train, test = train_test_split(ds, 0.6, seed=2)
    assert train.n == 6 and test.n == 4
    merged = sorted(np.concatenate([train.X[:, 0], test.X[:, 0]]))
    assert np.array_equal(merged, sorted(ds.X[:, 0]))


def test_split_seeds_differ():
    ds = simulate_gp(MK, HyperParams((1.0,), 1.0), 100, Gaussian(1.0), 1, seed=1)
    a, _ = train_test_split(ds, 0.5, seed=1)
    b, _ = train_test_split(ds, 0.5, seed=2)
    assert not np.array_equal(a.X, b.X)


def test_split_rejects_degenerate():
    ds = simulate_gp(MK, HyperParams((1.0,), 1.0), 3, Gaussian(1.0), 1, seed=1)
    with pytest.raises(ValueError):
        train_test_split(ds, 0.1, seed=0)


def test_normalize_identity_on_standardized_data():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 2))
    X = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
    y = rng.normal(size=200)
    y = (y - y.mean()) / y.std(ddof=1)
    ds = Dataset(X=X, y=y)
    train, _, _ = normalize(ds, ds)
    assert np.max(np.abs(train.X - X)) < 1e-12
    assert np.max(np.abs(train.y - y)) < 1e-12


def test_normalize_hand_formula_n_minus_one():
    # y = (0, 2): mean 1, sample sd sqrt(2) -> normalized (-1/sqrt2, 1/sqrt2)
    ds = Dataset(X=np.array([[1.0], [2.0]]), y=np.array([0.0, 2.0]))
    train, _, meta = normalize(ds, ds)
    assert meta.y_sd == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert train.y == pytest.approx([-1 / np.sqrt(2), 1 / np.sqrt(2)], rel=1e-12)


def test_normalize_round_trip():
    ds = simulate_gp(MK, HyperParams((4.0,), 1.0), 50, Gaussian(5.0), 1, seed=6)
    train_raw, test_raw = train_test_split(ds, 0.6, seed=7)
    train, test, meta = normalize(train_raw, test_raw)
    for normalized, raw in [(train, train_raw), (test, test_raw)]:
        assert np.max(np.abs(normalized.X * meta.x_sd + meta.x_mean - raw.X)) < 1e-10
        assert np.max(np.abs(normalized.y * meta.y_sd + meta.y_mean - raw.y)) < 1e-10


def test_normalize_rejects_constant_column():
    ds = Dataset(X=np.ones((5, 1)), y=np.arange(5.0))
    with pytest.raises(ValueError):
        normalize(ds, ds)


def test_csv_round_trip_bit_exact(tmp_path):
    mk2 = MultiKernel.single(KernelSpec.rbf((0.5, 0.5)))
    ds = simulate_gp(mk2, HyperParams((4.0,), 1.0), 40, Gaussian(5.0), 2, seed=11)
    path = tmp_path / "ds.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


def test_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(empty)

    header_only = tmp_path / "header.csv"
    header_only.write_text("x1,y\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(header_only)

    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        load_csv(bad_header)

    bad_cell = tmp_path / "bad_cell.csv"
    bad_cell.write_text("x1,y\n1.0,2.0\n1.0,oops\n")
    with pytest.raises(ValueError, match="3: column 2"):
        load_csv(bad_cell)


def test_dataset_rejects_non_finite():
    with pytest.raises(ValueError):
        Dataset(X=np.array([[np.inf]]), y=np.array([0.0]))


def test_truth_is_near_optimal_on_its_own_data():
    theta = HyperParams((4.0,), 1.0)
    doubled = HyperParams((8.0,), 2.0)
    gaps = []
    for seed in range(10):
        ds = simulate_gp(MK, theta, 60, Gaussian(5.0), 1, seed=seed)
        gaps.append(nll_loss(doubled, MK, ds.X, ds.y) - nll_loss(theta, MK, ds.X, ds.y))
    assert np.mean(gaps) > 0
