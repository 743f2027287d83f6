"""Dataset generation, splitting, normalization, and CSV round trips."""

import csv

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
from gpsgd import data

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


def _per_cell_reference(path):
    """The reader load_csv replaced: csv.reader and float() cell by cell."""
    with open(path, newline="") as fh:
        rows = [[float(cell) for cell in row] for row in list(csv.reader(fh))[1:]]
    return np.array([row[:-1] for row in rows]), np.array([row[-1] for row in rows])


# signed zeros, subnormals, the normal/subnormal boundary, the largest
# double and integral floats, each written with its shortest repr
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308,
                2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                1.0, -2.0, 3e16, 12345678.0, 0.1, 9007199254740993.0]


def _fuzz_dataset(rng, n, dim):
    """Random doubles over the whole exponent range, a quarter of the cells
    an edge value and a quarter an integral float."""
    shape = (n, dim + 1)
    values = np.ldexp(rng.uniform(-1.0, 1.0, shape), rng.integers(-1074, 1025, shape))
    pick = rng.integers(0, 4, shape)
    values[pick == 0] = rng.choice(_EDGE_VALUES, (pick == 0).sum())
    values[pick == 1] = rng.integers(-10**6, 10**6, (pick == 1).sum())
    return Dataset(X=values[:, :-1], y=values[:, -1])


def _assert_loads_as_reference(ds, tmp_path):
    """save_csv's file, with CRLF and with LF line endings, loads bit for
    bit as the per-cell reader reads it, in C order."""
    crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
    save_csv(ds, crlf)
    lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
    want = _per_cell_reference(crlf)
    for path in (crlf, lf):
        got = load_csv(path)
        for got_a, want_a in zip((got.X, got.y), want):
            assert got_a.shape == want_a.shape and got_a.dtype == want_a.dtype
            assert got_a.tobytes() == want_a.tobytes()   # bit for bit: -0.0 is not 0.0
            assert got_a.flags.c_contiguous


@pytest.mark.parametrize("dim", range(1, 7))
def test_csv_load_matches_the_per_cell_reader_bit_for_bit(tmp_path, dim):
    rng = np.random.default_rng(dim)
    for n in (1, 2, 3):
        _assert_loads_as_reference(_fuzz_dataset(rng, n, dim), tmp_path)


def test_csv_load_matches_the_per_cell_reader_on_a_large_file(tmp_path):
    _assert_loads_as_reference(_fuzz_dataset(np.random.default_rng(106), 200_000, 6), tmp_path)


# Each case gives the message the per-cell csv reader gave, line and column.
_REJECTIONS = {
    "empty": ("", "{path}: no data rows"),
    "header-only": ("x1,y\n", "{path}: no data rows"),
    "bad-header": ("a,b\n1,2\n", "{path}: header must be x1,...,xD,y, got ['a', 'b']"),
    "bad-header-column": ("x1,x3,y\n1,2,3\n", "{path}: header column 2 is 'x3', expected 'x2'"),
    "blank-first-line": ("\nx1,y\n1,2\n", "{path}: header must be x1,...,xD,y, got []"),
    "blank-line-mid-file": ("x1,y\n0,1\n\n1,2\n", "{path}:3: expected 2 columns, got 0"),
    "blank-line-at-end": ("x1,y\n0,1\n\n", "{path}:3: expected 2 columns, got 0"),
    "blank-lines-only": ("x1,y\n\n\n", "{path}:2: expected 2 columns, got 0"),
    "whitespace-only-line": ("x1,y\n0,1\n \t \n1,2\n", "{path}:3: expected 2 columns, got 1"),
    "short-row": ("x1,x2,y\n0,1,2\n3,4\n", "{path}:3: expected 3 columns, got 2"),
    "long-row": ("x1,y\n0,1\n1,2,3\n", "{path}:3: expected 2 columns, got 3"),
    "trailing-comma": ("x1,y\n1,2,\n", "{path}:2: expected 2 columns, got 3"),
    "non-numeric": ("x1,y\n1.0,2.0\n1.0,oops\n", "{path}:3: column 2: non-numeric cell 'oops'"),
    "empty-cell": ("x1,y\n1.0,\n", "{path}:2: column 2: non-numeric cell ''"),
    "first-bad-line-wins": ("x1,y\n0,1\n\n1,oops\n", "{path}:3: expected 2 columns, got 0"),
}


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("case", list(_REJECTIONS))
def test_csv_rejections_name_the_line_and_column(tmp_path, case, newline):
    text, message = _REJECTIONS[case]
    path = tmp_path / "bad.csv"
    path.write_bytes(text.replace("\n", newline).encode())
    with pytest.raises(ValueError) as exc:
        load_csv(path)
    assert str(exc.value) == message.format(path=path)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_csv_without_a_trailing_newline_loads(tmp_path, newline):
    path = tmp_path / "ds.csv"
    path.write_bytes(newline.join(["x1,y", "0,1", " 1 ,2.5"]).encode())
    ds = load_csv(path)
    assert ds.X.tolist() == [[0.0], [1.0]] and ds.y.tolist() == [1.0, 2.5]


@pytest.mark.parametrize("text, where", [
    ("x1,y\n0,1\n1,nan\n", ":3: column 2: non-finite cell 'nan'"),
    ("x1,y\n0,1\n-inf,2\n", ":3: column 1: non-finite cell '-inf'"),
    ("x1,x2,y\n0,1e999,1\n", ":2: column 2: non-finite cell '1e999'"),
], ids=["nan", "-inf", "overflow"])
def test_csv_names_non_finite_cells(tmp_path, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_csv(path)
    assert str(exc.value) == f"{path}{where}"


@pytest.mark.parametrize("cell", ["1_000", '"1.0"', "１"], ids=["underscore", "quoted", "fullwidth"])
def test_csv_rejects_cells_numpy_cannot_parse(tmp_path, cell):
    # The per-cell reader took these (csv.reader unquotes, float() reads
    # digit separators and other scripts' digits); numpy's parser does not,
    # so the file is refused, naming the line and column, rather than read
    # differently.
    path = tmp_path / "bad.csv"
    path.write_text(f"x1,y\n0,1\n{cell},2\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_csv(path)
    assert str(exc.value) == f"{path}:3: column 1: non-numeric cell {cell!r}"


@pytest.mark.parametrize("cell", ["1_000", "１", "١", "\xa01", " 1 ", "1.5\u2003", "+1", "-.5",
                                  "1e5", "Infinity", "0x10", "1e", "", "1 2"])
def test_the_line_scan_reads_cells_as_numpy_does(cell):
    try:
        np.loadtxt([f"{cell},1"], delimiter=",", comments=None)
        numpy_reads = True
    except ValueError:
        numpy_reads = False
    try:
        data._numpy_float(cell)
        scan_reads = True
    except ValueError:
        scan_reads = False
    assert scan_reads == numpy_reads


def test_save_csv_streams_the_bytes_of_one_write(tmp_path):
    # two chunk boundaries: the bytes equal the whole text joined at once
    ds = _fuzz_dataset(np.random.default_rng(5), 2 * data.SAVE_CHUNK_ROWS + 1, 2)
    path = tmp_path / "ds.csv"
    save_csv(ds, path)
    rows = (",".join(map(repr, x + [v])) for x, v in zip(ds.X.tolist(), ds.y.tolist()))
    assert path.read_bytes() == ("\r\n".join(["x1,x2,y", *rows]) + "\r\n").encode()


def test_save_csv_replaces_the_target_whole(tmp_path, monkeypatch):
    path = tmp_path / "ds.csv"
    path.write_text("stale\n" * 1000)
    ds = Dataset(X=np.array([[0.1, -0.0], [5e-324, 2.0]]), y=np.array([1.0, -3.5]))
    save_csv(ds, path)
    assert path.read_bytes() == b"x1,x2,y\r\n0.1,-0.0,1.0\r\n5e-324,2.0,-3.5\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["ds.csv"]

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(data.os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_csv(Dataset(X=np.zeros((3, 1)), y=np.zeros(3)), path)
    assert load_csv(path).X.tobytes() == ds.X.tobytes()


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
