"""Covariance functions and kernel-matrix assembly.

Two stationary families are provided, both with unit diagonal k(x, x) = 1:

* RBF with one lengthscale per input dimension:
      k(x, x') = exp(-sum_j (x_j - x'_j)^2 / (2 l_j^2))
* Matern with a single scale h, restricted to half-integer orders
  1/2, 3/2, 5/2 where the Bessel form reduces to a closed form.

The marginal covariance of the observations is
    K(theta) = sum_l theta_l K_l + noise * I
for base kernel matrices K_l and signal variances theta_1..theta_M.

Matrices are assembled in tiles of _TILE = 128 rows and columns
(cross-covariances too). A symmetric matrix builds only its upper tiles:
each takes the explicit differences of its rows and columns, applies the
kernel profile, scales and sums the components in order (a diagonal tile
also gets the noise), and is written into its place
and, transposed, into the mirrored one. Explicit differences make entry
(a, b) equal (b, a) bit for bit, so the mirror is exact and the result
equals building every entry; the only n x n array allocated is the result.

`CovariancePlan.covariance(..., upper_only=True)` skips the mirror: the
upper triangle is written into a zero-filled result, and the strict lower
triangle stays exactly zero. Only a caller that reads the upper triangle
alone may take it. The exact and nearest-neighbour predictions do: their
dpotrf reads that triangle, and their factor is used only through
triangular solves (see linalg.cholesky's `clean`). CG keeps the mirror:
its dsymv reads the other triangle, and switching triangles would move
its last bits. A matrix of one tile is returned whole either way.

A large matrix (at least _PARALLEL_MIN differences, n * t * D) is built on
every CPU the process may use: its tile rows are dealt out, interleaved, to
a thread pool made for the call. Each tile's arithmetic does not depend on
which thread runs it, and tiles write to disjoint places, so the CPU count
never changes a bit of the result.

A CovariancePlan checks theta's layout and the inputs once, when built, and
then maps a plain theta vector and row indices to K, its contraction (every
gradient slot, each RBF kernel's lengthscales in one product) and the
cross-covariance with a second point set. K and the cross-covariance come
from one tile routine: the cross-covariance is K's with the second set's
points as columns, and no noise. `marginal_covariance` and
`cross_kernel_matrix` are its one-call forms.
"""

from __future__ import annotations

import math
import operator
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

MATERN_ORDERS = (0.5, 1.5, 2.5)


class KernelFamily(str, Enum):
    RBF = "rbf"
    MATERN = "matern"


@dataclass(frozen=True)
class KernelSpec:
    """One covariance function: family plus its scale parameters.

    RBF carries one lengthscale per input dimension; Matern carries a single
    scale h (its sole lengthscale) and a half-integer order.
    """

    family: KernelFamily
    lengthscales: tuple[float, ...]
    matern_order: float | None = None

    def __post_init__(self):
        if len(self.lengthscales) == 0:
            raise ValueError("at least one lengthscale is required")
        if any(not math.isfinite(l) or l <= 0 for l in self.lengthscales):
            raise ValueError(f"lengthscales must be strictly positive, got {self.lengthscales}")
        if self.family == KernelFamily.MATERN:
            if self.matern_order not in MATERN_ORDERS:
                raise ValueError(
                    f"matern_order must be one of {MATERN_ORDERS}, got {self.matern_order}"
                )
            if len(self.lengthscales) != 1:
                raise ValueError("Matern uses a single scale h, got multiple lengthscales")
        elif self.matern_order is not None:
            raise ValueError("matern_order is only valid for the Matern family")

    @property
    def n_lengthscales(self) -> int:
        return len(self.lengthscales)

    def to_config(self) -> dict:
        cfg = {"family": self.family.value, "lengthscales": list(self.lengthscales)}
        if self.matern_order is not None:
            cfg["matern_order"] = self.matern_order
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "KernelSpec":
        unknown = set(cfg) - {"family", "lengthscales", "matern_order"}
        if unknown:
            raise ValueError(f"unknown kernel config keys: {sorted(unknown)}")
        family = KernelFamily(cfg["family"])
        lengthscales = tuple(float(l) for l in cfg["lengthscales"])
        order = cfg.get("matern_order")
        return cls(family, lengthscales, None if order is None else float(order))

    @classmethod
    def rbf(cls, lengthscales) -> "KernelSpec":
        if np.isscalar(lengthscales):
            lengthscales = (float(lengthscales),)
        return cls(KernelFamily.RBF, tuple(float(l) for l in lengthscales))

    @classmethod
    def matern(cls, order: float, scale: float) -> "KernelSpec":
        return cls(KernelFamily.MATERN, (float(scale),), float(order))


@dataclass(frozen=True)
class MultiKernel:
    """Ordered sum-of-kernels model; component order indexes the signal
    variances theta_1..theta_M."""

    components: tuple[KernelSpec, ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("MultiKernel needs at least one component")

    @property
    def n_kernels(self) -> int:
        return len(self.components)

    @property
    def n_lengthscales(self) -> int:
        return sum(spec.n_lengthscales for spec in self.components)

    def lengthscale_slots(self) -> list[tuple[int, int]]:
        """(component index, dimension index) for each flat lengthscale slot."""
        return [(c, d) for c, spec in enumerate(self.components)
                for d in range(spec.n_lengthscales)]

    def flat_lengthscales(self) -> tuple[float, ...]:
        return tuple(l for spec in self.components for l in spec.lengthscales)

    @classmethod
    def single(cls, spec: KernelSpec) -> "MultiKernel":
        return cls((spec,))


@dataclass(frozen=True)
class HyperParams:
    """Model hyperparameters: per-kernel signal variances, noise variance,
    and optionally the lengthscales when those are being learned.

    When `lengthscales` is set it has one entry per lengthscale slot of the
    accompanying MultiKernel (component order, then dimension order) and
    overrides the values stored in the kernel specs.
    """

    signal_variances: tuple[float, ...]
    noise_variance: float
    lengthscales: tuple[float, ...] | None = None

    def __post_init__(self):
        if len(self.signal_variances) < 1:
            raise ValueError("at least one signal variance is required")
        values = [*self.signal_variances, self.noise_variance, *(self.lengthscales or ())]
        if any(not math.isfinite(v) or v <= 0 for v in values):
            raise ValueError(f"all hyperparameters must be strictly positive, got {values}")

    @property
    def n_kernels(self) -> int:
        return len(self.signal_variances)

    @property
    def n_params(self) -> int:
        return len(self.signal_variances) + 1 + len(self.lengthscales or ())

    def to_vector(self) -> np.ndarray:
        return np.array([*self.signal_variances, self.noise_variance, *(self.lengthscales or ())],
                        dtype=np.float64)

    @classmethod
    def from_vector(cls, vec: np.ndarray, n_kernels: int, has_lengthscales: bool) -> "HyperParams":
        vec = np.asarray(vec, dtype=np.float64)
        signal = tuple(float(v) for v in vec[:n_kernels])
        noise = float(vec[n_kernels])
        ls = tuple(float(v) for v in vec[n_kernels + 1:]) if has_lengthscales else None
        if has_lengthscales and len(ls) == 0:
            raise ValueError("vector carries no lengthscale entries")
        return cls(signal, noise, ls)


def param_names(kernels: MultiKernel, theta: HyperParams) -> list[str]:
    """Column names for the flat parameter vector, CSV order."""
    names = [f"theta_{l + 1}" for l in range(kernels.n_kernels + 1)]
    slots = kernels.lengthscale_slots() if theta.lengthscales is not None else []
    return names + [f"lengthscale_{c + 1}_{d + 1}" for c, d in slots]


def effective_kernels(kernels: MultiKernel, theta: HyperParams) -> MultiKernel:
    """Substitute learned lengthscales from `theta` into the kernel specs."""
    _check_theta(kernels, theta)
    if theta.lengthscales is None:
        return kernels
    ls = iter(theta.lengthscales)
    return MultiKernel(tuple(KernelSpec(s.family, tuple(next(ls) for _ in s.lengthscales),
                                        s.matern_order) for s in kernels.components))


def _check_points(spec: KernelSpec, x: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    x2 = np.atleast_1d(np.asarray(x2, dtype=np.float64))
    if x.shape != x2.shape:
        raise ValueError(f"point dimensions differ: {x.shape} vs {x2.shape}")
    if spec.family == KernelFamily.RBF and x.shape[0] != spec.n_lengthscales:
        raise ValueError(
            f"point dimension {x.shape[0]} does not match {spec.n_lengthscales} lengthscales"
        )
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(x2))):
        raise ValueError("non-finite input coordinates")
    return x, x2


def _matern_profile(r: np.ndarray, order: float, h: float) -> np.ndarray:
    """Half-integer Matern correlation as a function of distance r >= 0."""
    if order == 0.5:
        return np.exp(-r / h)
    if order == 1.5:
        u = math.sqrt(3.0) * r / h
        return (1.0 + u) * np.exp(-u)
    u = math.sqrt(5.0) * r / h
    return (1.0 + u + u * u / 3.0) * np.exp(-u)


def _matern_profile_dh(r: np.ndarray, order: float, h: float) -> np.ndarray:
    """d/dh of the half-integer Matern correlation."""
    if order == 0.5:
        return np.exp(-r / h) * r / h**2
    if order == 1.5:
        u = math.sqrt(3.0) * r / h
        return np.exp(-u) * 3.0 * r**2 / h**3
    u = math.sqrt(5.0) * r / h
    return np.exp(-u) * (1.0 + u) * 5.0 * r**2 / (3.0 * h**3)


def eval_kernel(spec: KernelSpec, x: np.ndarray, x2: np.ndarray) -> float:
    """Base-kernel value k0(x, x2) in (0, 1]; symmetric in its arguments."""
    x, x2 = _check_points(spec, x, x2)
    diff = x - x2
    if spec.family == KernelFamily.RBF:
        ls = np.asarray(spec.lengthscales)
        return float(np.exp(-0.5 * np.sum((diff / ls) ** 2)))
    r = float(np.linalg.norm(diff))
    return float(_matern_profile(np.asarray(r), spec.matern_order, spec.lengthscales[0]))


_TILE = 128
# Threads pay only on large difference volumes: below this many entries
# (n * t * D) a matrix is built on the calling thread.
_PARALLEL_MIN = 2 ** 24
# A tile's upper triangle: what an upper-only build keeps of a diagonal tile.
# At n=256 the build took 787 us with this mask against 845 us with np.triu.
_UPPER = ~np.tri(_TILE, k=-1, dtype=bool)


def _tile_sq(Z: np.ndarray, Z2: np.ndarray, buf: np.ndarray | None = None) -> np.ndarray:
    """sum_j (z_aj - z2_bj)^2 for one tile, from explicit differences.

    z_a - z_b and z_b - z_a are exact negatives, so their squares and sums
    agree bit for bit: the tile for (rows, cols) is the exact transpose of
    the tile for (cols, rows). This is what makes mirroring a tile exact.
    With `buf`, a (rows, cols, D) array, the differences are written into it
    one dimension at a time: the same values in the same layout, faster
    than the broadcast on a full tile.
    """
    if buf is None:
        diff = Z[:, None, :] - Z2[None, :, :]
    else:
        diff = buf
        for j in range(Z.shape[1]):
            np.subtract(Z[:, j, None], Z2[None, :, j], out=diff[:, :, j])
    return np.einsum("abj,abj->ab", diff, diff)


def _workers(tile_rows: int) -> int:
    """Threads for a matrix of `tile_rows` tile rows: one per usable CPU."""
    return min(len(os.sched_getaffinity(0)), tile_rows)


def _from_tiles(n: int, t: int, dim: int, tile, symmetric: bool,
                upper_only: bool = False) -> np.ndarray:
    """An n x t matrix from `tile(rows, cols, buf)` on _TILE x _TILE blocks
    of D = `dim` columns.

    With `symmetric` (n == t) only the upper tiles are built, and each one
    off the diagonal is also written, transposed, into its mirrored place.
    With `upper_only` (symmetric only) the result starts zero-filled, no
    tile is mirrored and a diagonal tile keeps only its upper triangle, so
    the strict lower triangle is exactly zero; every entry on and above the
    diagonal is the same to the bit.
    A full tile gets a (_TILE, _TILE, D) difference buffer `buf`, one per
    thread; a ragged one gets None. The only n x t array is the result. A
    matrix of one tile (every fit batch up to 128 points) is that tile,
    built with buf=None and returned without a copy. With at least
    _PARALLEL_MIN differences, tile rows i, i + w, i + 2w, ... go to the
    i-th of w threads, so the shrinking rows of a symmetric matrix balance.
    """
    if n <= _TILE and t <= _TILE:
        return tile(slice(0, n), slice(0, t), None)
    out = np.zeros((n, t)) if upper_only else np.empty((n, t))
    starts = range(0, n, _TILE)

    def build(tile_rows) -> None:
        buf = np.empty((_TILE, _TILE, dim))
        for i in tile_rows:
            rows = slice(i, min(i + _TILE, n))
            for j in range(i if symmetric else 0, t, _TILE):
                cols = slice(j, min(j + _TILE, t))
                full = rows.stop - i == _TILE and cols.stop - j == _TILE
                block = tile(rows, cols, buf if full else None)
                if upper_only and j == i:
                    h = rows.stop - i
                    np.copyto(out[rows, cols], block, where=_UPPER[:h, :h])
                    continue
                out[rows, cols] = block
                if symmetric and j != i and not upper_only:
                    out[cols, rows] = block.T

    workers = _workers(len(starts)) if n * t * dim >= _PARALLEL_MIN else 1
    if workers == 1:
        build(starts)
    else:
        # A pool per call: no thread outlives it into a forked child.
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(build, [starts[w::workers] for w in range(workers)]))
    return out


# The helpers below take a kernel as plain values: its Matern order (None
# for RBF) and its lengthscales (RBF) or (h,) (Matern).

def _scaled_inputs(order: float | None, ls, X: np.ndarray) -> np.ndarray:
    """X / l_j per dimension (RBF) or X itself (Matern), so that the squared
    distance between rows is what the kernel profile takes."""
    return X / np.asarray(ls) if order is None else X


def _sq_dists(Z: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between the rows of Z."""
    return _from_tiles(Z.shape[0], Z.shape[0], Z.shape[1],
                       lambda r, c, buf: _tile_sq(Z[r], Z[c], buf), True)


def _kernel_from_sq(order: float | None, ls, sq: np.ndarray) -> np.ndarray:
    """Base kernel values from scaled squared distances. A point's distance
    to itself is exactly 0.0, so its value is exactly 1.0."""
    return np.exp(-0.5 * sq) if order is None else _matern_profile(np.sqrt(sq), order, float(ls[0]))


def _base_matrix(order: float | None, ls, Z: np.ndarray) -> np.ndarray:
    """The base kernel matrix over the rows of the scaled inputs Z."""
    return _from_tiles(
        Z.shape[0], Z.shape[0], Z.shape[1],
        lambda r, c, buf: _kernel_from_sq(order, ls, _tile_sq(Z[r], Z[c], buf)), True)


def kernel_matrix(spec: KernelSpec, X: np.ndarray) -> np.ndarray:
    """Base kernel matrix over the rows of X: symmetric, unit diagonal, PSD."""
    X = _check_inputs(spec, X)
    order, ls = spec.matern_order, spec.lengthscales
    return _base_matrix(order, ls, _scaled_inputs(order, ls, X))


def cross_kernel_matrix(spec: KernelSpec, X: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Base kernel evaluated between the rows of X (n) and X2 (t): n x t,
    the cross-covariance of a plan with unit signal variance."""
    plan = CovariancePlan(MultiKernel.single(spec), HyperParams((1.0,), 1.0), X, X2)
    return plan.covariance(np.ones(2), cols=slice(None))


def _check_inputs(spec: KernelSpec, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError(f"expected an n x D input matrix, got shape {X.shape}")
    if spec.family == KernelFamily.RBF and X.shape[1] != spec.n_lengthscales:
        raise ValueError(
            f"input dimension {X.shape[1]} does not match {spec.n_lengthscales} lengthscales"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite input coordinates")
    return X


def _check_theta(kernels: MultiKernel, theta: HyperParams) -> None:
    if theta.n_kernels != kernels.n_kernels:
        raise ValueError(
            f"{theta.n_kernels} signal variances for {kernels.n_kernels} kernels"
        )
    if theta.lengthscales is not None and len(theta.lengthscales) != kernels.n_lengthscales:
        raise ValueError(
            f"{len(theta.lengthscales)} lengthscales for {kernels.n_lengthscales} slots"
        )


class CovariancePlan:
    """K(theta), its contraction and the cross-covariance over rows of one
    input matrix X and, optionally, a second point set X2.

    Building the plan checks theta's layout against the kernels, the
    dimension and finiteness of X and X2, and that they have the same
    columns, once. A call takes theta as a flat vector in
    HyperParams.to_vector() order, of that layout and positive (neither is
    checked again), and optionally row indices into X (and X2); it works on
    plain arrays and builds no KernelSpec or HyperParams.
    """

    def __init__(self, kernels: MultiKernel, theta: HyperParams, X: np.ndarray,
                 X2: np.ndarray | None = None):
        _check_theta(kernels, theta)
        self.X, self.X2 = X, X2
        for spec in kernels.components:   # an RBF kernel takes one lengthscale per column
            self.X = _check_inputs(spec, self.X)
            self.X2 = None if X2 is None else _check_inputs(spec, self.X2)
        if self.X2 is not None and self.X2.shape[1] != self.X.shape[1]:
            raise ValueError(f"input dimensions differ: {self.X.shape[1]} vs {self.X2.shape[1]}")
        self.n_kernels, self.learn = kernels.n_kernels, theta.lengthscales is not None
        ends = kernels.n_kernels + 1 + np.cumsum([s.n_lengthscales for s in kernels.components])
        # each component's order, fixed lengthscales and slots in the vector
        self.components = [(s.matern_order, np.array(s.lengthscales),
                            slice(end - s.n_lengthscales, end))
                           for s, end in zip(kernels.components, ends)]

    def _parts(self, theta: np.ndarray, rows) -> tuple[np.ndarray, list]:
        """The rows, and (variance, order, lengthscales, scaled rows) per component."""
        X = self.X if rows is None else self.X[rows]
        parts = []
        for variance, (order, ls, span) in zip(theta, self.components):
            ls = theta[span] if self.learn else ls
            parts.append((variance, order, ls, _scaled_inputs(order, ls, X)))
        return X, parts

    def covariance(self, theta: np.ndarray, rows=None, cols=None,
                   upper_only: bool = False) -> np.ndarray:
        """K(theta) over the rows of X or, with `cols` (indices into X2;
        slice(None) for all), the cross-covariance sum_l theta_l k_l(X[rows],
        X2[cols]): the same tiles without the noise.
        Each tile sums its components' scaled base tiles in component order,
        so no n x n array but the result is allocated. With `upper_only`
        (K only, not a cross-covariance), K of more than one tile holds its
        upper triangle and exact zeros below (see the module docstring)."""
        X, parts = self._parts(theta, rows)
        symmetric = cols is None
        X2 = X if symmetric else self.X2[cols]
        scaled2 = [Z if symmetric else _scaled_inputs(order, ls, X2) for _, order, ls, Z in parts]

        def tile(r: slice, c: slice, buf) -> np.ndarray:
            diagonal = symmetric and r == c
            # summed in place from the first term, not from 0
            block = reduce(operator.iadd, (
                variance * _kernel_from_sq(order, ls, _tile_sq(Z[r], Z2[c], buf))
                for (variance, order, ls, Z), Z2 in zip(parts, scaled2)))
            if diagonal:
                block.flat[::block.shape[0] + 1] += theta[self.n_kernels]
            return block

        return _from_tiles(X.shape[0], X2.shape[0], X.shape[1], tile, symmetric, upper_only)

    def __call__(self, theta: np.ndarray, rows=None) -> tuple[np.ndarray, Callable]:
        """K(theta) over the rows, and `contract(W)`: <W, dK/dtheta_l> for
        every slot in theta's order, no derivative matrix built. With B_c
        the base matrix of kernel c:
        * signal slot: <W, B_c>; noise slot: tr(W);
        * RBF lengthscales: dB_c/dl_d = B_c o (dx_d)^2 / l_d^3, so with
          P = W o B_c all of them are theta_c / l^3 o sum_ab P_ab (x_a - x_b)^2,
          one product per tile over its (rows, cols, D) squared differences.
          Differences of x, not of x / l, stay exact for close points far
          from the origin, as in a nearby batch;
        * Matern scale: theta_c <W, dprofile/dh(r)> on the distances of B_c.
        K equals `covariance` and the signal and noise entries equal
        <W, kernel_matrix_grad(...)> bit for bit; the scale entries agree to
        rounding.
        """
        X, parts = self._parts(theta, rows)
        bases, dists = [], []
        for _, order, ls, Z in parts:
            # Only the Matern d/dh needs the distances again; RBF reuses B_c.
            sq = _sq_dists(Z) if self.learn and order is not None else None
            bases.append(_base_matrix(order, ls, Z) if sq is None
                         else _kernel_from_sq(order, ls, sq))
            dists.append(sq)
        K = reduce(operator.iadd, (part[0] * base for part, base in zip(parts, bases)))
        K.flat[::K.shape[0] + 1] += theta[self.n_kernels]

        def contract(W: np.ndarray) -> np.ndarray:
            out = [np.einsum("ab,ab->", W, base) for base in bases] + [np.trace(W)]
            learned = zip(parts, bases, dists) if self.learn else ()
            for (variance, order, ls, _), base, sq in learned:
                if order is not None:
                    dh = _matern_profile_dh(np.sqrt(sq), order, float(ls[0]))
                    out.append(variance * np.einsum("ab,ab->", W, dh))
                    continue
                tiles = [slice(i, i + _TILE) for i in range(0, len(X), _TILE)]
                out.extend(variance / ls**3 * sum(
                    np.einsum("ab,abd->d", W[r, c] * base[r, c], (X[r, None] - X[c]) ** 2)
                    for r in tiles for c in tiles))
            return np.array(out)

        return K, contract


def marginal_covariance(kernels: MultiKernel, theta: HyperParams, X: np.ndarray) -> np.ndarray:
    """K(theta) = sum_l theta_l K_l + noise * I over the rows of X."""
    return CovariancePlan(kernels, theta, X).covariance(theta.to_vector())


def kernel_matrix_grad(
    kernels: MultiKernel, theta: HyperParams, X: np.ndarray, param_index: int
) -> np.ndarray:
    """Derivative of the marginal covariance w.r.t. one flat parameter slot.

    Slot layout matches HyperParams.to_vector(): signal variances (returns the
    base kernel matrix K_l), then noise (identity), then lengthscale slots
    (elementwise derivative, scaled by the owning kernel's signal variance).
    """
    eff = effective_kernels(kernels, theta)
    X = _check_inputs(eff.components[0], X)
    M = kernels.n_kernels
    if 0 <= param_index < M:
        return kernel_matrix(eff.components[param_index], X)
    if param_index == M:
        return np.eye(X.shape[0])

    ls_slot = param_index - M - 1
    if theta.lengthscales is None or not 0 <= ls_slot < kernels.n_lengthscales:
        raise ValueError(f"invalid param_index {param_index}")
    c, d = kernels.lengthscale_slots()[ls_slot]
    spec = eff.components[c]
    return theta.signal_variances[c] * base_lengthscale_grad(spec, X, d)


def base_lengthscale_grad(spec: KernelSpec, X: np.ndarray, dim: int) -> np.ndarray:
    """Elementwise derivative of the base kernel matrix w.r.t. lengthscale
    `dim`: for RBF, K_ab * (x_ad - x_bd)^2 / l_d^3; for Matern, the closed-form
    d/dh of the half-integer profile."""
    X = _check_inputs(spec, X)
    if spec.family == KernelFamily.RBF:
        l = spec.lengthscales[dim]
        diff = X[:, None, dim] - X[None, :, dim]
        return kernel_matrix(spec, X) * diff**2 / l**3
    return _matern_profile_dh(np.sqrt(_sq_dists(X)), spec.matern_order, spec.lengthscales[0])
