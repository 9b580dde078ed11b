"""Least-squares solution of the stacked systems, conditioning, errors.

Each system is factored once, and that factorization gives both the
coefficients and the reported condition number, which is always that of
the Gram matrix G = H' H.  Desk-scale systems (up to 4000 unknowns) are
solved on H itself by a dense SVD (LAPACK gelsd), whose singular values
give the Gram condition exactly.  Larger ones form the normal equations
G c = H' r and factor G once with a sparse LU; the same LU drives an
inverse-power estimate of ||G^-1|| beside a power estimate of ||G||,
good to roughly a factor of two.  Diagonally preconditioned CG on the
normal equations remains only as an explicitly requested path.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .tet_spline import S0dSpace, eval_s0d_batch
from .tp_spline import TensorProductSpace, eval_tp_batch

DENSE_SOLVE_LIMIT = 4000

# Path -> SolveResult.method.  "dense-qr" is the dense orthogonal
# factorization of H (gelsd: Householder bidiagonalization, then the
# SVD); perfbench's tracer books dense-path time by that name.
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

    Up to DENSE_SOLVE_LIMIT unknowns the dense path runs, above it the
    sparse LU path.  force_path overrides that choice: "dense", or
    "iterative" for CG on the normal equations, which the size rule never
    picks.  Numerical rank deficiency is reported, not fatal: the
    solution (minimum-norm on the dense path) is returned with the flag
    set and an infinite Gram condition.  A G that the sparse LU finds
    exactly singular raises RuntimeError.  With compute_condition=False
    the Gram condition is nan and the sparse paths skip its estimate.
    setup_seconds covers forming the matrices to factor, solve_seconds
    the factorization, solution and condition.
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
    if path == "dense":
        Hd = H.toarray() if sp.issparse(H) else np.asarray(H, dtype=float)
        t1 = time.perf_counter()
        rank_tol = max(rows, cols) * np.finfo(float).eps
        c, _, rank, s = scipy.linalg.lstsq(Hd, r, lapack_driver="gelsd",
                                           cond=rank_tol)
        deficient = rank < cols
        cond = np.inf if deficient else (s[0] / s[-1]) ** 2
    else:
        Hs = sp.csr_matrix(H)
        G = (Hs.T @ Hs).tocsc()
        b = Hs.T @ r
        t1 = time.perf_counter()
        if path == "sparse":
            lu = _sparse_lu(G, rows, cols)
            c = lu.solve(b)
        else:
            c = _normal_cg(G, b)
            lu = _sparse_lu(G, rows, cols) if compute_condition else None
        cond = _gram_condition_estimate(G, lu) if compute_condition else np.nan
        deficient = np.isinf(cond)
    t2 = time.perf_counter()
    if not compute_condition:
        cond = np.nan
    residual = float(np.linalg.norm(H @ c - r))
    return SolveResult(c, residual, float(cond), t1 - t0, t2 - t1,
                       METHODS[path], rank_deficient=bool(deficient))


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


def _gram_condition_estimate(G, lu):
    """||G|| ||G^-1|| by 60 power steps on G and 60 on G^-1 (via lu).

    Returns +inf when either iteration collapses to zero or overflows.
    """
    rng = np.random.default_rng(0)
    norms = []
    for apply in (G.dot, lu.solve):
        v = rng.standard_normal(G.shape[0])
        for _ in range(60):
            v = apply(v)
            nrm = np.linalg.norm(v)
            if not np.isfinite(nrm) or nrm == 0.0:
                return float("inf")
            v /= nrm
        norms.append(nrm)
    return float(norms[0] * norms[1])


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
