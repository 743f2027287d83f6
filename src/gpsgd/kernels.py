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
also gets the unit diagonal and the noise), and is written into its place
and, transposed, into the mirrored one. Explicit differences make entry
(a, b) equal (b, a) bit for bit, so the mirror is exact and the result
equals building every entry; the only n x n array allocated is the result.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

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

    def with_lengthscales(self, lengthscales: tuple[float, ...]) -> "KernelSpec":
        return KernelSpec(self.family, tuple(lengthscales), self.matern_order)

    def to_config(self) -> dict:
        cfg = {"family": self.family.value, "lengthscales": list(self.lengthscales)}
        if self.matern_order is not None:
            cfg["matern_order"] = self.matern_order
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "KernelSpec":
        known = {"family", "lengthscales", "matern_order"}
        unknown = set(cfg) - known
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
        slots = []
        for c, spec in enumerate(self.components):
            slots.extend((c, d) for d in range(spec.n_lengthscales))
        return slots

    def flat_lengthscales(self) -> tuple[float, ...]:
        out: list[float] = []
        for spec in self.components:
            out.extend(spec.lengthscales)
        return tuple(out)

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
        values = list(self.signal_variances) + [self.noise_variance]
        if self.lengthscales is not None:
            values += list(self.lengthscales)
        if any(not math.isfinite(v) or v <= 0 for v in values):
            raise ValueError(f"all hyperparameters must be strictly positive, got {values}")

    @property
    def n_kernels(self) -> int:
        return len(self.signal_variances)

    @property
    def n_params(self) -> int:
        extra = 0 if self.lengthscales is None else len(self.lengthscales)
        return len(self.signal_variances) + 1 + extra

    def to_vector(self) -> np.ndarray:
        vec = list(self.signal_variances) + [self.noise_variance]
        if self.lengthscales is not None:
            vec += list(self.lengthscales)
        return np.array(vec, dtype=np.float64)

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
    if theta.lengthscales is not None:
        for c, d in kernels.lengthscale_slots():
            names.append(f"lengthscale_{c + 1}_{d + 1}")
    return names


def effective_kernels(kernels: MultiKernel, theta: HyperParams) -> MultiKernel:
    """Substitute learned lengthscales from `theta` into the kernel specs."""
    if theta.lengthscales is None:
        return kernels
    if len(theta.lengthscales) != kernels.n_lengthscales:
        raise ValueError(
            f"{len(theta.lengthscales)} lengthscales for {kernels.n_lengthscales} slots"
        )
    specs = []
    pos = 0
    for spec in kernels.components:
        k = spec.n_lengthscales
        specs.append(spec.with_lengthscales(theta.lengthscales[pos:pos + k]))
        pos += k
    return MultiKernel(tuple(specs))


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


def _tile_sq(Z: np.ndarray, Z2: np.ndarray) -> np.ndarray:
    """sum_j (z_aj - z2_bj)^2 for one tile, from explicit differences.

    z_a - z_b and z_b - z_a are exact negatives, so their squares and sums
    agree bit for bit: the tile for (rows, cols) is the exact transpose of
    the tile for (cols, rows). This is what makes mirroring a tile exact.
    """
    diff = Z[:, None, :] - Z2[None, :, :]
    return np.einsum("abj,abj->ab", diff, diff)


def _from_tiles(n: int, t: int, tile, symmetric: bool) -> np.ndarray:
    """An n x t matrix from `tile(rows, cols)` on _TILE x _TILE blocks.

    With `symmetric` (n == t) only the upper tiles are built, and each one
    off the diagonal is also written, transposed, into its mirrored place.
    Each tile bounds the (_TILE, _TILE, D) difference array; the only n x t
    array is the result. A matrix of one tile (every fit batch up to 128
    points) is that tile, returned without a copy.
    """
    if n <= _TILE and t <= _TILE:
        return tile(slice(0, n), slice(0, t))
    out = np.empty((n, t))
    for i in range(0, n, _TILE):
        rows = slice(i, min(i + _TILE, n))
        for j in range(i if symmetric else 0, t, _TILE):
            cols = slice(j, min(j + _TILE, t))
            block = tile(rows, cols)
            out[rows, cols] = block
            if symmetric and j != i:
                out[cols, rows] = block.T
    return out


def _scaled_inputs(spec: KernelSpec, X: np.ndarray) -> np.ndarray:
    """X / l_j per dimension (RBF) or X itself (Matern), so that the squared
    distance between rows is what the kernel profile takes."""
    if spec.family == KernelFamily.RBF:
        return X / np.asarray(spec.lengthscales)[None, :]
    return X


def _scaled_sq_dists(spec: KernelSpec, X: np.ndarray) -> np.ndarray:
    """Pairwise sum_j (x_aj - x_bj)^2 / l_j^2 (RBF) or squared Euclidean
    distance (Matern)."""
    Z = _scaled_inputs(spec, X)
    return _from_tiles(Z.shape[0], Z.shape[0], lambda r, c: _tile_sq(Z[r], Z[c]), True)


def _kernel_from_sq(spec: KernelSpec, sq: np.ndarray, diagonal: bool) -> np.ndarray:
    """Base kernel values from scaled squared distances; `diagonal` marks a
    block whose diagonal pairs a point with itself (set exactly to 1)."""
    if spec.family == KernelFamily.RBF:
        K = np.exp(-0.5 * sq)
    else:
        K = _matern_profile(np.sqrt(sq), spec.matern_order, spec.lengthscales[0])
    if diagonal:
        np.fill_diagonal(K, 1.0)
    return K


def _base_matrix(spec: KernelSpec, X: np.ndarray) -> np.ndarray:
    """`kernel_matrix` on already checked inputs."""
    Z = _scaled_inputs(spec, X)
    return _from_tiles(
        Z.shape[0], Z.shape[0],
        lambda r, c: _kernel_from_sq(spec, _tile_sq(Z[r], Z[c]), r == c), True)


def kernel_matrix(spec: KernelSpec, X: np.ndarray) -> np.ndarray:
    """Base kernel matrix over the rows of X: symmetric, unit diagonal, PSD."""
    return _base_matrix(spec, _check_inputs(spec, X))


def cross_kernel_matrix(spec: KernelSpec, X: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Base kernel evaluated between the rows of X (n) and X2 (t): n x t."""
    X = _check_inputs(spec, X)
    X2 = _check_inputs(spec, X2)
    if X.shape[1] != X2.shape[1]:
        raise ValueError(f"input dimensions differ: {X.shape[1]} vs {X2.shape[1]}")
    Z, Z2 = _scaled_inputs(spec, X), _scaled_inputs(spec, X2)
    return _from_tiles(
        Z.shape[0], Z2.shape[0],
        lambda r, c: _kernel_from_sq(spec, _tile_sq(Z[r], Z2[c]), False), False)


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


def marginal_covariance(kernels: MultiKernel, theta: HyperParams, X: np.ndarray) -> np.ndarray:
    """K(theta) = sum_l theta_l K_l + noise * I over the rows of X.

    Each tile sums its components' scaled base tiles in component order and
    adds the noise on its diagonal, so no n x n array but K is allocated.
    """
    _check_theta(kernels, theta)
    eff = effective_kernels(kernels, theta)
    X = _check_inputs(eff.components[0], X)
    parts = [(variance, spec, _scaled_inputs(spec, X))
             for variance, spec in zip(theta.signal_variances, eff.components)]

    def tile(rows: slice, cols: slice) -> np.ndarray:
        block = sum(variance * _kernel_from_sq(spec, _tile_sq(Z[rows], Z[cols]), rows == cols)
                    for variance, spec, Z in parts)
        if rows == cols:
            block[np.diag_indices(block.shape[0])] += theta.noise_variance
        return block

    return _from_tiles(X.shape[0], X.shape[0], tile, True)


def covariance_and_contraction(
    kernels: MultiKernel, theta: HyperParams, X: np.ndarray
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """K(theta) over the rows of X, and `contract(W)`: <W, dK/dtheta_l> for
    every flat slot in HyperParams.to_vector() order, no derivative matrix
    built. With B_c the base matrix of kernel c:
    * signal slot: <W, B_c>; noise slot: tr(W);
    * RBF lengthscale d: dB_c/dl_d = B_c o (dz_d)^2 / l_d with z = x / l, so
      theta_c / l_d * sum_ab (W o B_c)_ab (z_ad - z_bd)^2, one dimension at
      a time so that no array exceeds n x n;
    * Matern scale: theta_c <W, dprofile/dh(r)> on the distances of B_c.
    K equals `marginal_covariance` and the signal and noise entries equal
    <W, kernel_matrix_grad(...)> bit for bit; the scale entries agree to
    rounding.
    """
    _check_theta(kernels, theta)
    eff = effective_kernels(kernels, theta)
    X = _check_inputs(eff.components[0], X)
    learn = theta.lengthscales is not None
    bases, dists = [], []
    for spec in eff.components:
        # Only the Matern d/dh needs the distances again; RBF reuses B_c.
        sq = _scaled_sq_dists(spec, X) if learn and spec.family == KernelFamily.MATERN else None
        bases.append(_base_matrix(spec, X) if sq is None else _kernel_from_sq(spec, sq, True))
        dists.append(sq)
    K = sum(variance * base for variance, base in zip(theta.signal_variances, bases))
    K[np.diag_indices(X.shape[0])] += theta.noise_variance

    def contract(W: np.ndarray) -> np.ndarray:
        out = [np.einsum("ab,ab->", W, base) for base in bases] + [np.trace(W)]
        scaled = zip(theta.signal_variances, eff.components, bases, dists) if learn else ()
        for variance, spec, base, sq in scaled:
            if spec.family == KernelFamily.MATERN:
                dh = _matern_profile_dh(np.sqrt(sq), spec.matern_order, spec.lengthscales[0])
                out.append(variance * np.einsum("ab,ab->", W, dh))
                continue
            WB, Z = W * base, _scaled_inputs(spec, X)
            dz = np.empty_like(WB)
            for d, l in enumerate(spec.lengthscales):
                np.subtract(Z[:, None, d], Z[None, :, d], out=dz)
                dz *= dz
                out.append(variance / l * np.einsum("ab,ab->", WB, dz))
        return np.array(out)

    return K, contract


def kernel_matrix_grad(
    kernels: MultiKernel, theta: HyperParams, X: np.ndarray, param_index: int
) -> np.ndarray:
    """Derivative of the marginal covariance w.r.t. one flat parameter slot.

    Slot layout matches HyperParams.to_vector(): signal variances (returns the
    base kernel matrix K_l), then noise (identity), then lengthscale slots
    (elementwise derivative, scaled by the owning kernel's signal variance).
    """
    _check_theta(kernels, theta)
    eff = effective_kernels(kernels, theta)
    X = _check_inputs(eff.components[0], X)
    n = X.shape[0]
    M = kernels.n_kernels

    if 0 <= param_index < M:
        return kernel_matrix(eff.components[param_index], X)
    if param_index == M:
        return np.eye(n)

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
    sq = _scaled_sq_dists(spec, X)
    return _matern_profile_dh(np.sqrt(sq), spec.matern_order, spec.lengthscales[0])
