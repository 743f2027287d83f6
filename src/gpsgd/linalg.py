"""Dense symmetric linear algebra: Cholesky, inverse, solves,
log-determinant, eigenvalues, and a conjugate-gradient solver.

Everything here operates on plain float64 numpy arrays. Factorizations are
deterministic; no randomized methods.

Every factorization, solve and eigensolve calls scipy's LAPACK, never
numpy.linalg. numpy and scipy each load their own OpenBLAS with its own
thread pool, and a call on one pool right after a threaded call on the other
waits for the first pool's threads to go idle: on a 2-core host with 2-thread
OpenBLAS, `np.linalg.cholesky` followed by `scipy.linalg.solve_triangular`
at m=128 took 8.0 ms, against 0.39 ms with both calls on scipy. So callers on
a hot path keep every matrix product that is large enough to be threaded on
scipy's BLAS too (see the CG matvec and the predictive mean in prediction).

The factor, the solves and the inverse call LAPACK's dpotrf, dtrtrs and
dpotri through handles fetched once at import. They make the same LAPACK
calls that scipy.linalg.cholesky and solve_triangular make, without the
argument checks and batch dispatch around them, which cost more than the
arithmetic at the m=16 of a small-batch iteration (93 against 27 us for a
factor, a solve and an inverse). A solve with the factor is two dtrtrs
passes, L then L^T, not dpotrs: dpotrs gives the same x only up to the
last bits, while the dtrtrs pair matches solve_triangular bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

_potrf, _potri, _trtrs = scipy.linalg.get_lapack_funcs(("potrf", "potri", "trtrs"),
                                                       dtype=np.float64)


class NotPositiveDefiniteError(Exception):
    """Raised when a matrix required to be positive definite is not.

    For marginal covariance matrices this signals hyperparameters outside the
    valid region (e.g. a non-positive noise variance) or a corrupted kernel
    matrix, rather than something a jitter should paper over.
    """


class CGBreakdownError(Exception):
    """Conjugate gradient hit a direction of non-positive curvature,
    which means the operator is not positive definite."""


EIG_SIZE_CAP = 4096


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with K = L L^T."""

    lower: np.ndarray

    @property
    def n(self) -> int:
        return self.lower.shape[0]


@dataclass(frozen=True)
class CGResult:
    x: np.ndarray
    iterations: int
    converged: bool
    residual: float


def cholesky(K: np.ndarray) -> CholeskyFactor:
    """Factor a symmetric positive definite matrix as K = L L^T.

    Raises NotPositiveDefiniteError if any pivot is non-positive.
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K.shape}")
    finite = np.isfinite(K)
    if not finite.all():
        bad = np.argwhere(~finite)
        raise NotPositiveDefiniteError(
            f"{K.shape[0]}x{K.shape[0]} matrix has {bad.shape[0]} non-finite entries, "
            f"the first at {tuple(int(i) for i in bad[0])}"
        )
    lower, info = _potrf(K, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"Cholesky failed for {K.shape[0]}x{K.shape[0]} matrix: "
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"potrf rejected argument {-info}")
    return CholeskyFactor(lower=lower)


def inverse(factor: CholeskyFactor) -> np.ndarray:
    """K^-1 from the Cholesky factor of K (LAPACK potri), exactly symmetric."""
    inv, info = _potri(factor.lower, lower=1)
    if info != 0:
        raise NotPositiveDefiniteError(f"potri failed with info={info}")
    # potri writes the lower triangle and keeps L's strict upper one, which
    # is zero, so the sum with the transpose mirrors it and doubles the
    # diagonal. A fresh sum beats an in-place one, which numpy must buffer
    # because its operands overlap. The sum of a Fortran-ordered matrix and
    # its C-ordered transpose comes out in C order, which elementwise
    # products with C-ordered matrices traverse several times faster.
    inv = inv + inv.T
    inv.flat[::inv.shape[0] + 1] *= 0.5
    return inv


def forward_solve(factor: CholeskyFactor, b: np.ndarray) -> np.ndarray:
    """L^-1 b given the Cholesky factor L of K: one triangular pass.

    With W = L^-1 [b | c], b^T K^-1 c is the inner product of W's columns,
    so one pass over all right-hand sides serves every such quadratic form.
    Accepts a vector or a matrix of right-hand sides; returns the same shape.
    """
    b = np.asarray(b, dtype=np.float64)
    n = factor.n
    if b.shape[0] != n:
        raise ValueError(f"right-hand side has leading dimension {b.shape[0]}, expected {n}")
    return _triangular(factor.lower, b, trans=0)


def solve(factor: CholeskyFactor, b: np.ndarray) -> np.ndarray:
    """Solve K x = b given the Cholesky factor of K.

    Accepts a vector or a matrix of right-hand sides; returns the same shape.
    """
    z = forward_solve(factor, b)
    return _triangular(factor.lower, z, trans=1, overwrite_b=1)


def _triangular(lower: np.ndarray, b: np.ndarray, trans: int, overwrite_b: int = 0) -> np.ndarray:
    """L^-1 b (trans=0) or L^-T b (trans=1) for a lower-triangular L in
    Fortran order, as one dtrtrs call. `overwrite_b` lets dtrtrs solve in
    b's own buffer when b is a Fortran-ordered temporary."""
    x, info = _trtrs(lower, b, lower=1, trans=trans, overwrite_b=overwrite_b)
    if info != 0:
        raise NotPositiveDefiniteError(f"trtrs failed with info={info}")
    return x


def log_det(factor: CholeskyFactor) -> float:
    """log |K| = 2 * sum(log L_ii)."""
    return float(2.0 * np.sum(np.log(np.diag(factor.lower))))


def sym_eigenvalues(K: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending.

    Only eigenvalues are computed (no vectors). Matrices above
    EIG_SIZE_CAP are rejected to keep the dense solve bounded.
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K.shape}")
    if K.shape[0] > EIG_SIZE_CAP:
        raise ValueError(f"matrix size {K.shape[0]} exceeds eigenvalue cap {EIG_SIZE_CAP}")
    # dsyevd called directly: scipy.linalg.eigvalsh gives the same bits but
    # took 63 against 28 us at 16x16.
    lwork, liwork, info = scipy.linalg.lapack.dsyevd_lwork(K.shape[0], compute_v=0, lower=1)
    if info != 0:
        raise ValueError(f"dsyevd workspace query failed with info={info}")
    values, _, info = scipy.linalg.lapack.dsyevd(K, compute_v=0, lower=1,
                                                 lwork=int(lwork), liwork=liwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"eigenvalues did not converge (dsyevd info={info})")
    return values[::-1].copy()


def cg_solve(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> CGResult:
    """Conjugate gradient for a symmetric PD operator.

    Stops when ||A x - b||_2 / ||b||_2 <= tol or after `max_iter` iterations;
    the result reports which happened. Raises CGBreakdownError on a direction
    of non-positive curvature.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=np.float64)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return CGResult(x=np.zeros_like(b), iterations=0, converged=True, residual=0.0)

    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)

    iterations = 0
    residual = 1.0
    for _ in range(max_iter):
        Ap = matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise CGBreakdownError(
                f"non-positive curvature p^T A p = {pAp:g} at iteration {iterations + 1}"
            )
        alpha = rr / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        iterations += 1
        residual = float(np.linalg.norm(r)) / b_norm
        if residual <= tol:
            return CGResult(x=x, iterations=iterations, converged=True, residual=residual)
        rr_next = float(r @ r)
        p = r + (rr_next / rr) * p
        rr = rr_next

    return CGResult(x=x, iterations=iterations, converged=False, residual=residual)


def two_sided_solve(factor: CholeskyFactor, D: np.ndarray) -> np.ndarray:
    """L^-1 D L^-T for symmetric D, via two triangular solve passes.

    Its trace equals tr(K^-1 D) without ever forming K^-1.
    """
    A = _triangular(factor.lower, D, trans=0)
    return _triangular(factor.lower, A.T, trans=0)

