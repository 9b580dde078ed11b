"""Least-squares solution of the stacked systems, conditioning, errors.

Each system is factored once, and that factorization gives both the
coefficients and the reported condition number, which is always that of
the Gram matrix G = H'H.

Systems whose dense G fits in GRAM_BYTES (256 MiB, so up to
DENSE_SOLVE_LIMIT = 5792 unknowns) form the normal equations G c = H'r
once and factor G in place by a dense Cholesky, G = R'R.  G is a BLAS
product of the densified H when H is at least DENSE_FILL dense and a
sparse product otherwise.  The Gram condition is ||G|| ||G^-1||, from
one Lanczos run (ARPACK eigsh) on G, applied as H'(Hv), and one on
G^-1, applied through R; up to EXACT_CONDITION_LIMIT unknowns it is
the exact (s_max / s_min)^2 of R's singular values instead.  On
full-rank systems the normal equations keep the least-squares answer
while cond(G) eps is well below one (Bjorck, Numerical Methods for
Least Squares Problems, 1996, ch. 2).

Only when Cholesky fails or the Gram condition reaches
GRAM_CONDITION_MAX = 1e-2 / eps does the dense path fall back to an SVD
of H itself (LAPACK gelsd).  It drops singular values below
GRAM_CONDITION_MAX ** -0.5 of the largest, the same line in terms of H,
and returns the minimum-norm solution, with rank_deficient set when any
was dropped.  Larger systems factor the sparse G once with a sparse LU,
which drives the same Lanczos estimate.  Diagonally preconditioned CG on
the normal equations remains only as an explicitly requested path.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .tet_spline import S0dSpace, eval_s0d_batch
from .tp_spline import TensorProductSpace, eval_tp_batch

# A dense G costs n^2 8 bytes; the dense path takes the systems whose G
# fits in GRAM_BYTES.
GRAM_BYTES = 256 * 2 ** 20
DENSE_SOLVE_LIMIT = math.isqrt(GRAM_BYTES // 8)

# Fill of H from which G is formed by BLAS on the densified H: 0.22 s
# against 0.83 s for the sparse product at 15% fill (tensor-product
# m=10), but 2.4 s against 0.17 s at 0.75% (type5 m=5).
DENSE_FILL = 0.05

# Up to this many unknowns the Gram condition is exact, from the
# singular values of the Cholesky factor, at a few milliseconds.
EXACT_CONDITION_LIMIT = 200

# cond(G) eps >= 1e-2: the normal equations no longer resolve the answer.
GRAM_CONDITION_MAX = 1e-2 / np.finfo(float).eps

# Path -> SolveResult.method.  The dense path is a Cholesky of G (with
# the gelsd fallback), yet keeps the label "dense-qr": perfbench's tracer
# books dense-path time as solver.dense_qr.* only under that name, until
# the library records its own spans (ROADMAP item 4).
METHODS = {"dense": "dense-qr", "sparse": "sparse-lu",
           "iterative": "normal-cg"}


@dataclass
class SolveResult:
    coefficients: np.ndarray
    residual_norm: float
    gram_condition: float
    setup_seconds: float
    solve_seconds: float
    method: str
    rank_deficient: bool = False


def _system_parts(system):
    if hasattr(system, "H"):
        return system.H, system.rhs
    H, r = system
    return H, np.asarray(r, dtype=float)


def solve_least_squares(system, force_path=None, compute_condition=True):
    """Minimize ||H c - r||_2 for the stacked system.

    Up to DENSE_SOLVE_LIMIT unknowns the dense path runs: one Cholesky
    of G = H'H, or, when G is numerically singular, one gelsd SVD of H.
    Above it the sparse LU path runs.  force_path overrides that choice:
    "dense", or "iterative" for CG on the normal equations, which the
    size rule never picks.  Numerical rank deficiency is reported, not
    fatal: the solution (minimum-norm on the dense path) is returned with
    the flag set and an infinite Gram condition.  A G that the sparse LU
    finds exactly singular raises RuntimeError.  The dense path always
    computes the Gram condition, since it decides the fallback; with
    compute_condition=False it is reported as nan, and the sparse paths
    skip its estimate.  setup_seconds covers forming the matrices to
    factor, solve_seconds the factorization, solution and condition.
    The dense path's method is "dense-qr" whichever factorization ran
    (see METHODS).
    """
    H, r = _system_parts(system)
    rows, cols = H.shape
    if rows < cols:
        raise ValueError(f"underdetermined system: {rows} rows < {cols} cols")
    if force_path not in (None, "dense", "iterative"):
        raise ValueError(f"unknown path {force_path!r}")
    path = force_path or ("dense" if cols <= DENSE_SOLVE_LIMIT
                          else "sparse")
    t0 = time.perf_counter()
    H = sp.csr_matrix(H) if sp.issparse(H) else np.asarray(H, dtype=float)
    if path == "dense":
        G, b = _dense_normal_equations(H, r)
        t1 = time.perf_counter()
        solved = _cholesky_solve(H, G, b)
        del G   # R overwrote it; freed before any fallback
        c, cond, deficient = solved or _svd_solve(H, r)
    else:
        G = (H.T @ H).tocsc()
        b = H.T @ r
        t1 = time.perf_counter()
        if path == "sparse":
            lu = _sparse_lu(G, rows, cols)
            c = lu.solve(b)
        else:
            c = _normal_cg(G, b)
            lu = _sparse_lu(G, rows, cols) if compute_condition else None
        cond = _gram_condition(H, lu.solve) if compute_condition else np.nan
        deficient = np.isinf(cond)
    t2 = time.perf_counter()
    if not compute_condition:
        cond = np.nan
    residual = float(np.linalg.norm(H @ c - r))
    return SolveResult(c, residual, float(cond), t1 - t0, t2 - t1,
                       METHODS[path], rank_deficient=bool(deficient))


def _dense_normal_equations(H, r):
    """G = H'H, dense in Fortran order with at least the upper triangle
    that Cholesky reads, and b = H'r.

    H is densified, for one BLAS syrk that copies nothing, only when it
    is at least DENSE_FILL dense and the copy fits in GRAM_BYTES.
    """
    rows, cols = H.shape
    if sp.issparse(H) and (H.nnz < DENSE_FILL * rows * cols
                           or rows * cols * 8 > GRAM_BYTES):
        return (H.T @ H).toarray(order="F"), H.T @ r
    Hd = H.toarray() if sp.issparse(H) else H
    return scipy.linalg.blas.dsyrk(1.0, Hd.T), Hd.T @ r


def _cholesky_solve(H, G, b):
    """(c, cond, False) from G = R'R, factored over G.

    None when G is numerically singular: Cholesky fails, or the Gram
    condition reaches GRAM_CONDITION_MAX.
    """
    try:
        R = scipy.linalg.cholesky(G, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    if G.shape[0] <= EXACT_CONDITION_LIMIT:
        s = scipy.linalg.svdvals(R, check_finite=False)
        cond = (s[0] / s[-1]) ** 2
    else:
        cond = _gram_condition(H, lambda v: scipy.linalg.cho_solve(
            (R, False), v, check_finite=False))
    if not cond < GRAM_CONDITION_MAX:
        return None
    c = scipy.linalg.cho_solve((R, False), b, check_finite=False)
    return c, cond, False


def _svd_solve(H, r):
    """Minimum-norm (c, cond, rank_deficient) by one gelsd SVD of H."""
    Hd = H.toarray() if sp.issparse(H) else H
    c, _, rank, s = scipy.linalg.lstsq(Hd, r, lapack_driver="gelsd",
                                       cond=GRAM_CONDITION_MAX ** -0.5)
    deficient = rank < H.shape[1]
    return c, np.inf if deficient else (s[0] / s[-1]) ** 2, deficient


def _sparse_lu(G, rows, cols):
    try:
        return spla.splu(G)
    except RuntimeError as exc:
        raise RuntimeError(f"Gram matrix of the {rows}x{cols} system "
                           f"is singular: {exc}") from exc


def _normal_cg(G, b):
    """Diagonally preconditioned CG on G c = b, capped at 10 n steps."""
    diag = G.diagonal()
    diag[diag <= 0] = 1.0
    maxiter = 10 * G.shape[0]
    c, info = spla.cg(G, b, rtol=1e-12, atol=0.0, maxiter=maxiter,
                      M=sp.diags(1.0 / diag))
    if info > 0:
        raise RuntimeError(f"normal-equation CG did not converge "
                           f"within {maxiter} iterations")
    return c


def _gram_condition(H, solve):
    """||G|| ||G^-1|| for G = H'H; solve(v) applies G^-1.

    Each norm is the largest eigenvalue from one Lanczos run; +inf when
    either run fails or gives a non-positive or non-finite value.
    """
    n = H.shape[1]
    try:
        cond = (_largest_eigenvalue(lambda v: H.T @ (H @ v), n)
                * _largest_eigenvalue(solve, n))
    except spla.ArpackError:
        return float("inf")
    return cond if np.isfinite(cond) and cond > 0 else float("inf")


def _largest_eigenvalue(apply, n):
    op = spla.LinearOperator((n, n), matvec=apply, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    return float(spla.eigsh(op, k=1, v0=v0, tol=1e-6,
                            return_eigenvectors=False)[0])


@dataclass(frozen=True)
class ErrorSummary:
    emax: float
    rms: float
    n_points: int


def spline_values(space, coeffs, pts, deriv=(0, 0, 0)):
    """Evaluate either kind of spline space at an array of points."""
    if isinstance(space, TensorProductSpace):
        return eval_tp_batch(space, coeffs, pts, deriv)
    if isinstance(space, S0dSpace):
        return eval_s0d_batch(space, coeffs, pts, deriv)
    raise TypeError(f"unknown space type {type(space).__name__}")


def evaluate_errors(space, coeffs, u_true, pts):
    """Maximum and root-mean-square error of the spline against truth."""
    pts = np.atleast_2d(np.asarray(pts if not hasattr(pts, "points")
                                   else pts.points, dtype=float))
    if len(pts) == 0:
        raise ValueError("empty evaluation set")
    diff = spline_values(space, coeffs, pts) - np.asarray(u_true(pts))
    return ErrorSummary(float(np.abs(diff).max()),
                        float(np.sqrt(np.mean(diff ** 2))),
                        len(pts))


def convergence_rate(e_coarse, e_fine, m_coarse, m_fine):
    """Observed order: log(e ratio) / log(h ratio) with h = 1/(m-1).

    A zero error means the method is exact at that resolution; the rate
    is reported as +inf ("exact") in that case.
    """
    if m_fine <= m_coarse or m_coarse < 2:
        raise ValueError(f"need m_fine > m_coarse >= 2, got "
                         f"{m_coarse} -> {m_fine}")
    if e_coarse < 0 or e_fine < 0:
        raise ValueError("errors must be nonnegative")
    if e_coarse == 0.0 or e_fine == 0.0:
        return float("inf")
    h_coarse = 1.0 / (m_coarse - 1)
    h_fine = 1.0 / (m_fine - 1)
    return float(np.log(e_coarse / e_fine) / np.log(h_coarse / h_fine))
