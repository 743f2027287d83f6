"""Dense symmetric linear algebra: Cholesky, inverse, solves,
log-determinant, eigenvalues, and a preconditioned block conjugate-gradient
solver.

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

At the orders of a small batch, scipy's OpenBLAS loses more to its threads
than they gain, and its threaded dpotrf and dpotri give other last bits
than one thread (dpotri from order 16 up, dpotrf from 128). So `cholesky`
runs dpotrf on one scipy BLAS thread up to order ONE_THREAD_MAX_ORDER_FACTOR
= 512, and `inverse` runs dpotri on one thread up to
ONE_THREAD_MAX_ORDER_INVERSE = 192, through `one_blas_thread` (about
0.85 us to enter and leave; its count is process-wide, so call them from
one Python thread at a time); no caller pins them again. Thus fits with
m <= 192, nearest predictions with at most 512 neighbours, simulate_gp with
n <= 512, CG's preconditioner factor and the CLI's fit studies
(cli._fit_rep pins each whole repetition) give the same bits at any BLAS
thread count. The solves are not pinned: with a fixed factor, dtrtrs gave
the same bits at 1 and 2 threads for 1 to 2001 random columns at orders 16
to 512. Still, a wide exact predict depends on the count: at n=500 over
2000 test points, 37 entries of the forward solve's k* columns, and so 4
means (by up to 1.2e-15 relative), differed between 1 and 2 threads; its y
column and the variances did not. Larger factors and inverses, CG's solves
and the eigensolver keep every thread too. The limits come from
bench/blas_threads.py's sweep (BENCH_threads.json; 2 cores, OpenBLAS
0.3.30, microseconds per call on 2 threads against 1): a one-column
gradient took 2365 against 1758 at 192 but 3006 against 3186 at 224;
dpotrf took 2934 against 2873 at 512 but 4922 against 4958 at 640.

The factor, the solves and the inverse call LAPACK's dpotrf, dtrtrs and
dpotri through handles fetched once at import. They make the same LAPACK
calls that scipy.linalg.cholesky and solve_triangular make, without the
argument checks and batch dispatch around them, which cost more than the
arithmetic at the m=16 of a small-batch iteration (93 against 27 us for a
factor, a solve and an inverse). A solve with the factor is two dtrtrs
passes, L then L^T, not dpotrs: dpotrs gives the same x only up to the
last bits, while the dtrtrs pair matches solve_triangular bit for bit.

LAPACK works in Fortran order, and f2py copies a C-ordered argument into
Fortran order first: for an n x n K, a transposing copy as large as K.
Every K the package builds is exactly symmetric (the mirrored tiles of
kernels are exact), so K.T is the same matrix in Fortran order, in K's own
buffer. `cholesky` and `sym_eigenvalues` therefore give dpotrf and dsyevd a
C-ordered K as K.T, and the upper triangle of K is the one read. With
`overwrite=True`, which callers that build K and then drop it pass (the
exact predict, every gradient, the simulation's draw and the
diagnostics), dpotrf and dsyevd work in K's own buffer and no second n x n
array is made; without it, f2py's copy is a plain memcpy. A matrix already
in Fortran order goes as it is: woodbury_preconditioner's dsyrk matrix
holds only its lower triangle. The factor and the eigenvalues are the same
to the bit. On a 2-core host, an exact predict at n=6000 with 256 test
points fell from 2.56 to 1.94 s, its dpotrf step from 1.82 to 1.19 s, and
its process's peak RSS from 678 to 404 MB (medians of 5 processes a side,
BENCH_inplace_factor.json).

dpotrf writes L into one triangle and leaves the other as it found it.
scipy's `clean=1` pass then zeroes that other triangle. `inverse` needs it
zeroed, since potri keeps it and `inv + inv.T` reads it, and so does a
dense `factor.lower @ z`; the triangular solves and `log_det` never read
it. The exact moments of prediction use the factor only through
`forward_solve`, so they factor an upper-only K (see kernels), whose other
triangle is already zero, with `clean=False`. The gradient, the
simulation's draw and the diagnostics keep the clean factor.

`cg_solve` takes a vector or an n x r block, whose columns run as
independent recurrences with one operator product per iteration and a
stopping test each, and an optional preconditioner. For a GP covariance
K = S + noise I, `pivoted_cholesky` gives a rank-r factor L L^T ~ S
(greedy, deterministic; rank at most PRECONDITIONER_MAX_RANK and n, and no
more once the largest remaining diagonal of S is <= PRECONDITIONER_STOP *
noise), and `woodbury_preconditioner` applies (noise I + L L^T)^-1 through
the Woodbury identity with one r x r factor (Harbrecht, Peters & Schneider
2012; Gardner et al. 2018). Its products are scipy's dgemm and dsyrk, for
the pool reason above: at n=6000 and r=300, the K product and the
preconditioner of a two-column block took 14.6 ms, against 32.7 ms with the
Woodbury products on numpy's `@` (2 cores, OpenBLAS 0.3.30).
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
from scipy.linalg.blas import dgemm, dgemv, dsyrk

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
# The rank rule of pivoted_cholesky: at most this many columns, and no more
# once the largest remaining signal diagonal is at most STOP * noise.
PRECONDITIONER_MAX_RANK = 300
PRECONDITIONER_STOP = 1e-6
# The largest matrix orders at which `inverse` (dpotri) and `cholesky`
# (dpotrf) run on one scipy BLAS thread. From bench/blas_threads.py's sweep.
ONE_THREAD_MAX_ORDER_INVERSE = 192
ONE_THREAD_MAX_ORDER_FACTOR = 512


def _scipy_openblas() -> tuple[str, Callable[[], int], Callable[[int], None]] | None:
    """The file name and the thread-count getter and setter of the OpenBLAS
    that scipy's LAPACK and BLAS run on: the mapped library that exports
    scipy_openblas_get_num_threads and scipy_openblas_set_num_threads
    (numpy's own OpenBLAS exports them with a 64_ suffix). None when no
    mapped library does, or the process has no /proc/self/maps."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        # no argtypes: ctypes passes a Python int as a C int anyway, and
        # converting through declared argtypes cost 0.3 us per pin
        set_.restype = None
        return os.path.basename(path), get, set_
    return None


# PINNED_BLAS: the file name of the OpenBLAS that one_blas_thread pins, None if none.
PINNED_BLAS, _get_threads, _set_threads = _scipy_openblas() or (None, None, None)


class one_blas_thread:
    """Context that runs scipy's OpenBLAS on one thread when `pin` is true,
    and restores the thread count it found on exit. With `pin` false, or
    with no scipy OpenBLAS in the process, it does nothing. The count is
    process-wide: enter it from one Python thread at a time. numpy's own
    OpenBLAS keeps its threads."""

    __slots__ = ("_threads",)

    def __init__(self, pin: bool = True):
        # true while a count is to be read and restored, then that count
        self._threads = pin and PINNED_BLAS is not None

    def __enter__(self) -> None:
        if self._threads:
            self._threads = _get_threads()
            _set_threads(1)

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._threads:
            _set_threads(self._threads)


def _lapack_order(K: np.ndarray) -> np.ndarray:
    """A symmetric K in the Fortran order LAPACK works in, at no cost: a
    C-ordered K as K.T, its own buffer. Any other K as it is, above all a
    Fortran-ordered one that may hold only its lower triangle (dsyrk's)."""
    return K.T if K.flags.c_contiguous and not K.flags.f_contiguous else K


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with K = L L^T."""

    lower: np.ndarray

    @property
    def n(self) -> int:
        return self.lower.shape[0]


@dataclass(frozen=True)
class CGResult:
    """A CG solve: scalars for a vector right-hand side, one entry per
    column for a block."""

    x: np.ndarray
    iterations: int | np.ndarray
    converged: bool | np.ndarray
    residual: float | np.ndarray


def cholesky(K: np.ndarray, overwrite: bool = False, clean: bool = True) -> CholeskyFactor:
    """Factor a symmetric positive definite matrix as K = L L^T.

    K goes to dpotrf as `_lapack_order(K)`: a C-ordered K as K.T, so the
    upper triangle of K is the one read. With `overwrite` (scipy's
    `overwrite_a`) a contiguous K is factored in its own buffer, which then
    holds L and must not be used again, also when the factor fails; without
    it K is left unchanged.

    With `clean` (scipy's `clean=1`) the strict upper triangle of `lower` is
    zeroed after dpotrf, a strided pass that took 135 ms at n=6000 and
    20 us at 128 on a 2-core host (bench/inplace_factor.py's
    `clean_pass_s`). With `clean=False` it is skipped, and the strict upper
    triangle of `lower` holds what K held there: for a C-ordered K, its
    strict lower triangle transposed, which is zero for an upper-only K
    (kernels.CovariancePlan.covariance) of more than one tile.
    Only triangle readers may take such a factor: `forward_solve`, `solve`,
    `two_sided_solve` and `log_det` read L's lower triangle alone, while
    `inverse` and a dense `factor.lower @ z` read the whole array. Up to
    ONE_THREAD_MAX_ORDER_FACTOR rows dpotrf runs on one scipy BLAS thread.

    Raises NotPositiveDefiniteError if K has a non-finite entry or a
    non-positive pivot. The entries are checked through their sum, which is
    finite only if every entry is: the n x n mask of finite entries is built
    only when the sum is not, to name the first bad one.
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K.shape}")
    # einsum sums without K.sum()'s overflow warning, which np.errstate
    # would silence at more than the check's own cost at m=16
    if not math.isfinite(np.einsum("ij->", K)) and not (finite := np.isfinite(K)).all():
        bad = np.argwhere(~finite)
        raise NotPositiveDefiniteError(
            f"{K.shape[0]}x{K.shape[0]} matrix has {bad.shape[0]} non-finite entries, "
            f"the first at {tuple(int(i) for i in bad[0])}"
        )
    with one_blas_thread(K.shape[0] <= ONE_THREAD_MAX_ORDER_FACTOR):
        lower, info = _potrf(_lapack_order(K), lower=1, clean=int(clean), overwrite_a=int(overwrite))
    if info > 0:
        raise NotPositiveDefiniteError(
            f"Cholesky failed for {K.shape[0]}x{K.shape[0]} matrix: "
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"potrf rejected argument {-info}")
    return CholeskyFactor(lower=lower)


def inverse(factor: CholeskyFactor) -> np.ndarray:
    """K^-1 from the Cholesky factor of K (LAPACK potri), exactly symmetric.

    The factor must be clean (`cholesky`'s default): the strict upper
    triangle of its array must be zero, as the sum below reads it. potri
    works in the factor's own buffer, so the factor must not be used again;
    a caller that drops it holds two n x n arrays here, not three. Up to
    ONE_THREAD_MAX_ORDER_INVERSE rows dpotri runs on one scipy BLAS thread.
    """
    with one_blas_thread(factor.lower.shape[0] <= ONE_THREAD_MAX_ORDER_INVERSE):
        inv, info = _potri(factor.lower, lower=1, overwrite_c=1)
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


def sym_eigenvalues(K: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending.

    Only eigenvalues are computed (no vectors). Matrices above
    EIG_SIZE_CAP are rejected to keep the dense solve bounded. K goes to
    dsyevd as `_lapack_order(K)`, so the upper triangle of a C-ordered K is
    the one read. With `overwrite` a contiguous K is reduced in its own
    buffer and must not be used again; without it K is left unchanged.
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
    values, _, info = scipy.linalg.lapack.dsyevd(_lapack_order(K), compute_v=0, lower=1,
                                                 lwork=int(lwork), liwork=liwork,
                                                 overwrite_a=int(overwrite))
    if info != 0:
        raise np.linalg.LinAlgError(f"eigenvalues did not converge (dsyevd info={info})")
    return values[::-1].copy()


def cg_solve(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float = 1e-6,
    max_iter: int = 1000,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> CGResult:
    """Conjugate gradient for a symmetric PD operator, optionally
    preconditioned: z = precondition(r) stands in for P^-1 r.

    `b` is a vector or an n x r block. The columns of a block are independent
    recurrences that share one `matvec` call and one `precondition` call per
    iteration; both callables get an array shaped like `b`, for a block the
    Fortran-ordered n x c block of the columns still running. Each column
    stops when its relative residual ||b - A x||_2 / ||b||_2 (of the
    recurrence, not the preconditioned norm) is <= tol, or after `max_iter`
    iterations. For a vector the result holds scalars; for a block, x is
    n x r and iterations, converged and residual have one entry per column.
    Raises CGBreakdownError on a direction of non-positive curvature, or on
    r^T z <= 0, which means the preconditioner is not positive definite.

    Every inner product is one ddot over a contiguous column, so without a
    preconditioner (z = r) a vector takes exactly the arithmetic of plain CG.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=np.float64)
    vector = b.ndim == 1
    B = b.reshape(b.shape[0], -1)
    if vector:
        on_column = lambda f: (lambda V: np.asarray(f(V[:, 0]))[:, None])
        matvec = on_column(matvec)
        if precondition is not None:
            precondition = on_column(precondition)
    n, r = B.shape
    b_norm = np.sqrt(_column_dots(B, B))
    X = np.zeros((n, r), order="F")
    iterations = np.zeros(r, dtype=int)
    converged = b_norm == 0.0          # x = 0 solves a zero column
    residual = np.where(converged, 0.0, 1.0)
    active = np.flatnonzero(~converged)

    def check_positive(what: str, values: np.ndarray, when: str) -> None:
        if (values <= 0.0).any():
            j = int(np.argmax(values <= 0.0))
            column = "" if vector else f" in column {active[j]}"
            raise CGBreakdownError(f"non-positive {what} = {values[j]:g} {when}{column}")

    R = np.asfortranarray(B[:, active])
    Z = R if precondition is None or not active.size else precondition(R)
    rz = _column_dots(R, Z)
    check_positive("r^T z", rz, "before iteration 1")
    P = Z
    Xa = np.zeros_like(R)
    k = 0
    while active.size and k < max_iter:
        k += 1
        AP = matvec(P)
        pAp = _column_dots(P, AP)
        check_positive("curvature p^T A p", pAp, f"at iteration {k}")
        alpha = rz / pAp
        Xa = Xa + alpha * P
        R = R - alpha * AP
        rr = _column_dots(R, R)
        iterations[active] = k
        residual[active] = np.sqrt(rr) / b_norm[active]
        done = residual[active] <= tol
        if done.any():
            X[:, active[done]] = Xa[:, done]
            converged[active[done]] = True
            keep = ~done
            active = active[keep]
            R, P, Xa = (np.asfortranarray(M[:, keep]) for M in (R, P, Xa))
            rz, rr = rz[keep], rr[keep]
            if not active.size:
                break
        Z = R if precondition is None else precondition(R)
        rz_next = rr if precondition is None else _column_dots(R, Z)
        check_positive("r^T z", rz_next, f"after iteration {k}")
        P = Z + (rz_next / rz) * P
        rz = rz_next
    X[:, active] = Xa

    if vector:
        return CGResult(x=X[:, 0], iterations=int(iterations[0]),
                        converged=bool(converged[0]), residual=float(residual[0]))
    return CGResult(x=X, iterations=iterations, converged=converged, residual=residual)


def _column_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The inner product of each column pair, one ddot per column."""
    return np.array([A[:, j] @ B[:, j] for j in range(A.shape[1])])


def pivoted_cholesky(K: np.ndarray, noise: float) -> np.ndarray:
    """Low-rank factor L (n x r, Fortran order) with L L^T ~ K - noise I,
    the signal part of a marginal covariance K (Harbrecht, Peters &
    Schneider 2012).

    Each step pivots on the largest remaining diagonal of the signal part
    (np.argmax, so a tie goes to the first index) and adds one column from
    row p of the C-ordered symmetric K, which is its column p. The rank is
    at most PRECONDITIONER_MAX_RANK and n; the factor stops early once the
    largest remaining diagonal is <= PRECONDITIONER_STOP * noise.
    Deterministic: no random probes.
    """
    n = K.shape[0]
    cap = min(PRECONDITIONER_MAX_RANK, n)
    L = np.zeros((n, cap), order="F")
    remaining = np.diagonal(K) - noise
    stop = PRECONDITIONER_STOP * noise
    for k in range(cap):
        p = int(np.argmax(remaining))
        pivot = remaining[p]
        if pivot <= stop:
            return L[:, :k]
        column = K[p].copy()
        column[p] -= noise
        if k:
            column = dgemv(-1.0, L[:, :k], L[p, :k], beta=1.0, y=column, overwrite_y=1)
        column /= np.sqrt(pivot)
        L[:, k] = column
        remaining -= column * column
        remaining[p] = 0.0
    return L


def woodbury_preconditioner(L: np.ndarray, noise: float) -> Callable[[np.ndarray], np.ndarray]:
    """v -> (noise I + L L^T)^-1 v through Woodbury:

        (v - L (noise I + L^T L)^-1 L^T v) / noise

    The r x r matrix is formed (dsyrk) and factored once; each application
    is two dgemm and one solve with that factor, for a vector or a block.
    """
    if L.shape[1] == 0:
        return lambda V: V / noise
    inner = dsyrk(1.0, L, trans=1, lower=1)
    inner.flat[::inner.shape[0] + 1] += noise
    factor = cholesky(inner)

    def apply(V: np.ndarray) -> np.ndarray:
        block = V.reshape(V.shape[0], -1)
        S = solve(factor, dgemm(1.0, L, block, trans_a=1))
        return dgemm(-1.0 / noise, L, S, beta=1.0 / noise, c=block).reshape(V.shape)

    return apply


def two_sided_solve(factor: CholeskyFactor, D: np.ndarray) -> np.ndarray:
    """L^-1 D L^-T for symmetric D, via two triangular solve passes.

    Its trace equals tr(K^-1 D) without ever forming K^-1.
    """
    A = _triangular(factor.lower, D, trans=0)
    return _triangular(factor.lower, A.T, trans=0)

