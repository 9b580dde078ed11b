"""Gauss-Legendre rules on intervals, tensor rules on boxes, symmetric
rules on tetrahedra.

Tetrahedral rules up to degree 12 come from embedded symmetric tables
(see ``_tet_tables``); higher degrees fall back to a conical-product
(collapsed tensor) rule whose exactness is verified once per degree.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np
from scipy.special import roots_jacobi

TET_TABLE_DEGREES = (4, 6, 8, 10, 12)
MAX_TET_DEGREE = 20

try:
    from ._tet_tables import TET_TABLES
except ImportError:  # tables not generated yet
    TET_TABLES = {}


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes, weights and the polynomial degree integrated exactly."""

    nodes: np.ndarray
    weights: np.ndarray
    degree: int

    def integrate(self, values):
        return float(self.weights @ np.asarray(values))

    def __len__(self):
        return len(self.weights)


def _legendre_and_derivative(n, x):
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre(n):
    """Gauss-Legendre rule on [-1, 1], exact for degree 2n - 1.

    Nodes by Newton iteration on the Legendre polynomial, then
    symmetrized about zero.
    """
    if not 1 <= n <= 30:
        raise ValueError(f"point count {n} outside [1, 30]")
    if n == 1:
        return QuadratureRule(np.zeros(1), np.full(1, 2.0), 1)
    x = np.cos(np.pi * (4.0 * np.arange(1, n + 1) - 1.0) / (4.0 * n + 2.0))
    for _ in range(100):
        p, dp = _legendre_and_derivative(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    x, w = x[order], w[order]
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return QuadratureRule(x, w, 2 * n - 1)


def gauss_legendre_on_interval(n, a, b):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    rule = gauss_legendre(n)
    half = 0.5 * (b - a)
    return a + half * (rule.nodes + 1.0), half * rule.weights


def box_rule(box, points_per_dim):
    """Tensor-product Gauss rule on an axis-aligned box.

    Exact for monomials x^a y^b z^c with a <= 2 nx - 1 and likewise in
    y and z.
    """
    box = np.asarray(box, dtype=float)
    if np.any(box[1] <= box[0]):
        raise ValueError(f"empty box {box.tolist()}")
    axes = []
    for axis, n in enumerate(points_per_dim):
        x, w = gauss_legendre_on_interval(int(n), box[0, axis], box[1, axis])
        axes.append((x, w))
    X, Y, Z = np.meshgrid(axes[0][0], axes[1][0], axes[2][0], indexing="ij")
    W = (axes[0][1][:, None, None] * axes[1][1][None, :, None]
         * axes[2][1][None, None, :])
    nodes = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    degree = 2 * int(min(points_per_dim)) - 1
    return QuadratureRule(nodes, W.ravel(), degree)


# ---------------------------------------------------------------------------
# Tetrahedra

def tet_volume(verts):
    v = np.asarray(verts, dtype=float)
    return float(np.linalg.det(v[1:] - v[0])) / 6.0


def _conical_product_barycentric(mq):
    """Collapsed-tensor rule on the simplex, exact to degree mq.

    Built from Gauss-Jacobi rules that absorb the Jacobian of the
    Duffy-style collapse, so exactness holds for the full total degree.
    """
    n = mq // 2 + 1
    x1, w1 = roots_jacobi(n, 2.0, 0.0)
    x2, w2 = roots_jacobi(n, 1.0, 0.0)
    x3, w3 = gauss_legendre(n).nodes, gauss_legendre(n).weights
    # map from [-1, 1] with weight (1-x)^alpha to [0, 1] with (1-u)^alpha
    u1, w1 = 0.5 * (x1 + 1.0), w1 / 8.0
    u2, w2 = 0.5 * (x2 + 1.0), w2 / 4.0
    u3, w3 = 0.5 * (x3 + 1.0), w3 / 2.0
    U1, U2, U3 = np.meshgrid(u1, u2, u3, indexing="ij")
    x = U1
    y = U2 * (1.0 - U1)
    z = U3 * (1.0 - U1) * (1.0 - U2)
    W = (w1[:, None, None] * w2[None, :, None] * w3[None, None, :])
    bary = np.column_stack([
        1.0 - x.ravel() - y.ravel() - z.ravel(),
        x.ravel(), y.ravel(), z.ravel(),
    ])
    weights = W.ravel() * 6.0  # normalize: reference volume 1/6 -> sum 1
    return bary, weights


def simplex_monomial_integral(i, j, k):
    """Exact integral of x^i y^j z^k over the reference simplex."""
    return (factorial(i) * factorial(j) * factorial(k)
            / factorial(i + j + k + 3))


def _verify_simplex_rule(bary, weights, degree, rtol=1e-12):
    nodes = bary[:, 1:]
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            for k in range(degree + 1 - i - j):
                vals = (nodes[:, 0] ** i * nodes[:, 1] ** j
                        * nodes[:, 2] ** k)
                got = (weights / 6.0) @ vals
                want = simplex_monomial_integral(i, j, k)
                if abs(got - want) > rtol * abs(want):
                    raise AssertionError(
                        f"rule fails moment x^{i} y^{j} z^{k}: "
                        f"{got} vs {want}")


_checked_tables = set()


@lru_cache(maxsize=None)
def _conical_rule(mq):
    """The verified conical fallback of degree mq, with read-only arrays."""
    bary, weights = _conical_product_barycentric(mq)
    _verify_simplex_rule(bary, weights, mq)
    bary.flags.writeable = False
    weights.flags.writeable = False
    return bary, weights


def _reference_tet_rule(mq):
    """Barycentric nodes and unit-sum weights for even degree mq."""
    if mq % 2 or not 4 <= mq <= MAX_TET_DEGREE:
        raise ValueError(f"tetrahedral rules need even degree in "
                         f"[4, {MAX_TET_DEGREE}], got {mq}")
    if mq in TET_TABLES:
        pts, wts = TET_TABLES[mq]
        bary = np.asarray(pts, dtype=float)
        weights = np.asarray(wts, dtype=float)
        if mq not in _checked_tables:
            if weights.min() <= 0.0:
                raise AssertionError(f"table for degree {mq} has "
                                     f"non-positive weights")
            if bary.min() < 0.0 or np.abs(bary.sum(1) - 1.0).max() > 1e-14:
                raise AssertionError(f"table for degree {mq} has nodes "
                                     f"outside the simplex")
            _verify_simplex_rule(bary, weights, mq)
            _checked_tables.add(mq)
        return bary, weights
    return _conical_rule(mq)


def tet_rule(verts, mq):
    """Quadrature rule exact to even degree mq on the given tetrahedron."""
    verts = np.asarray(verts, dtype=float)
    vol = tet_volume(verts)
    if vol == 0.0:
        raise ValueError("degenerate tetrahedron")
    bary, weights = _reference_tet_rule(mq)
    nodes = bary @ verts
    return QuadratureRule(nodes, weights * abs(vol), int(mq))


def default_box_points(degrees):
    """Points per dimension for assembling degree-d spline products."""
    return tuple(d + 2 for d in degrees)


def default_tet_degree(d):
    """Quadrature degree for assembling degree-d tetrahedral splines."""
    mq = 2 * d
    if mq % 2:
        mq += 1
    return min(max(mq, 4), 12)
