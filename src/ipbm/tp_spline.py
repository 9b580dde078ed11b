"""Univariate B-splines and trivariate tensor-product spline spaces.

Spaces live on an axis-aligned box with equally spaced grid lines and
clamped (open) knot vectors, giving maximal interior smoothness for the
chosen degrees.  Evaluation supports all partial derivatives up to total
order two, which is what second-order operators need.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# derivative multi-indices supported by trivariate evaluation
DERIV_INDICES = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                 (2, 0, 0), (0, 2, 0), (0, 0, 2),
                 (1, 1, 0), (1, 0, 1), (0, 1, 1))


@dataclass(frozen=True)
class KnotVector:
    """Clamped knot vector on [a, b] with equally spaced interior knots."""

    a: float
    b: float
    degree: int
    interior: np.ndarray
    extended: np.ndarray

    @property
    def n(self):
        """Number of basis functions: k interior knots + degree + 1."""
        return len(self.interior) + self.degree + 1

    def greville(self):
        d, t = self.degree, self.extended
        return np.array([t[i + 1:i + d + 1].mean() for i in range(self.n)])


def make_knots(a, b, m, d):
    """Knot vector with m equally spaced grid lines and degree d.

    The m grid lines give k = m - 2 interior knots; endpoint knots are
    stacked to multiplicity d + 1, so the spline space has dimension
    m - 2 + d + 1.
    """
    if m < 2:
        raise ValueError(f"need at least 2 grid lines, got m={m}")
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    if not a < b:
        raise ValueError(f"empty interval [{a}, {b}]")
    grid = np.linspace(a, b, m)
    interior = grid[1:-1]
    extended = np.concatenate([np.full(d + 1, a), interior, np.full(d + 1, b)])
    return KnotVector(float(a), float(b), int(d), interior, extended)


def find_spans(kv, x):
    """Knot span index for each x: right-continuous, left-continuous at b."""
    x = np.asarray(x, dtype=float)
    if np.any(x < kv.a) or np.any(x > kv.b):
        bad = x[(x < kv.a) | (x > kv.b)]
        raise ValueError(f"point {bad.flat[0]} outside [{kv.a}, {kv.b}]")
    spans = np.searchsorted(kv.extended, x, side="right") - 1
    return np.clip(spans, kv.degree, kv.n - 1)


def _value_levels(kv, x, spans, down_to):
    """Nonzero basis values at degree levels d, d-1, ..., down_to.

    Returns a dict level -> (npts, level+1) array; entry r of level p
    holds N[span - p + r, p](x).
    """
    t = kv.extended
    d = kv.degree
    npts = len(x)
    vals = np.ones((npts, 1))
    levels = {0: vals} if down_to <= 0 else {}
    for p in range(1, d + 1):
        new = np.zeros((npts, p + 1))
        saved = np.zeros(npts)
        for r in range(p):
            right = t[spans + r + 1] - x
            left = x - t[spans + r + 1 - p]
            temp = vals[:, r] / (right + left)
            new[:, r] = saved + right * temp
            saved = left * temp
        new[:, p] = saved
        vals = new
        if p >= down_to:
            levels[p] = vals
    return levels


def _raise_derivative(kv, spans, lower, p):
    """Degree-p derivative values from degree-(p-1) values (or derivatives)."""
    t = kv.extended
    npts = len(spans)
    padded = np.zeros((npts, p + 2))
    padded[:, 1:p + 1] = lower
    out = np.empty((npts, p + 1))
    for j in range(p + 1):
        i = spans - p + j
        den1 = t[i + p] - t[i]
        den2 = t[i + p + 1] - t[i + 1]
        term1 = np.divide(padded[:, j], den1, out=np.zeros(npts),
                          where=den1 > 0)
        term2 = np.divide(padded[:, j + 1], den2, out=np.zeros(npts),
                          where=den2 > 0)
        out[:, j] = p * (term1 - term2)
    return out


def basis_arrays(kv, x, max_deriv=0):
    """Vectorized basis evaluation.

    Returns (first_active, ders) where first_active[i] = span[i] - degree
    and ders[k] is an (npts, degree+1) array of k-th derivatives of the
    nonzero basis functions at each point.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    spans = find_spans(kv, x)
    d = kv.degree
    down_to = max(0, d - max_deriv)
    levels = _value_levels(kv, x, spans, down_to)
    ders = [levels[d]]
    if max_deriv >= 1:
        if d >= 1:
            ders.append(_raise_derivative(kv, spans, levels[d - 1], d))
        else:
            ders.append(np.zeros_like(ders[0]))
    if max_deriv >= 2:
        if d >= 2:
            d1_lower = _raise_derivative(kv, spans, levels[d - 2], d - 1)
            ders.append(_raise_derivative(kv, spans, d1_lower, d))
        else:
            ders.append(np.zeros_like(ders[0]))
    return spans - d, ders


def eval_bspline_basis(kv, x, deriv=0):
    """Nonzero basis (derivative) values at a single point.

    Returns (first active index, degree+1 values).
    """
    if deriv not in (0, 1, 2):
        raise ValueError(f"derivative order {deriv} not supported")
    first, ders = basis_arrays(kv, [x], max_deriv=deriv)
    return int(first[0]), ders[deriv][0]


@dataclass(frozen=True)
class TensorProductSpace:
    """Trivariate tensor-product spline space on a box.

    Basis index (i, j, k) maps to the flat coefficient index
    (i * ny + j) * nz + k, i.e. the z index varies fastest.
    """

    kx: KnotVector
    ky: KnotVector
    kz: KnotVector
    m: int

    @property
    def degrees(self):
        return (self.kx.degree, self.ky.degree, self.kz.degree)

    @property
    def dims(self):
        return (self.kx.n, self.ky.n, self.kz.n)

    @property
    def dim(self):
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def mesh_size(self):
        """Normalized mesh size h = 1/(m-1) used for rate reporting."""
        return 1.0 / (self.m - 1)

    @property
    def bbox(self):
        return np.array([[self.kx.a, self.ky.a, self.kz.a],
                         [self.kx.b, self.ky.b, self.kz.b]])


def build_tp_space(bbox, m, degrees):
    """Tensor-product space over bbox with m grid lines per direction."""
    bbox = np.asarray(bbox, dtype=float)
    dx, dy, dz = degrees
    return TensorProductSpace(
        make_knots(bbox[0, 0], bbox[1, 0], m, dx),
        make_knots(bbox[0, 1], bbox[1, 1], m, dy),
        make_knots(bbox[0, 2], bbox[1, 2], m, dz),
        int(m),
    )


def _check_deriv(deriv):
    deriv = tuple(int(v) for v in deriv)
    if deriv not in DERIV_INDICES:
        raise ValueError(f"unsupported derivative multi-index {deriv}")
    return deriv


def tp_batch_tables(space, pts, max_deriv=0):
    """Per-axis basis tables and flat column indices for a point batch.

    Returns (cols, tables) with cols of shape (npts, local_dim) holding
    flat coefficient indices and tables[axis][k] the k-th derivative
    values along that axis.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    kvs = (space.kx, space.ky, space.kz)
    firsts, tables = [], []
    for axis, kv in enumerate(kvs):
        first, ders = basis_arrays(kv, pts[:, axis], max_deriv)
        firsts.append(first)
        tables.append(ders)
    dx, dy, dz = space.degrees
    nx, ny, nz = space.dims
    ax = firsts[0][:, None] + np.arange(dx + 1)[None, :]
    ay = firsts[1][:, None] + np.arange(dy + 1)[None, :]
    az = firsts[2][:, None] + np.arange(dz + 1)[None, :]
    cols = ((ax[:, :, None, None] * ny + ay[:, None, :, None]) * nz
            + az[:, None, None, :])
    return cols.reshape(len(pts), -1), tables


def _outer3(bx, by, bz):
    prod = (bx[:, :, None, None] * by[:, None, :, None]
            * bz[:, None, None, :])
    return prod.reshape(len(bx), -1)


def eval_tp_batch(space, coeffs, pts, deriv=(0, 0, 0), chunk=8192):
    """Evaluate a tensor-product spline (derivative) at many points."""
    deriv = _check_deriv(deriv)
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    if len(coeffs) != space.dim:
        raise ValueError(f"coefficient vector has length {len(coeffs)}, "
                         f"space dimension is {space.dim}")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.empty(len(pts))
    for lo in range(0, len(pts), chunk):
        p = pts[lo:lo + chunk]
        cols, tables = tp_batch_tables(space, p, max_deriv=max(deriv))
        basis = _outer3(tables[0][deriv[0]], tables[1][deriv[1]],
                        tables[2][deriv[2]])
        out[lo:lo + chunk] = np.sum(basis * coeffs[cols], axis=1)
    return out


def eval_tp_spline(space, coeffs, p, deriv=(0, 0, 0)):
    """Spline (derivative) value at a single point."""
    return float(eval_tp_batch(space, coeffs, np.asarray(p)[None, :],
                               deriv)[0])


def tp_design_matrix(space, pts, deriv=(0, 0, 0)):
    """Sparse matrix of basis (derivative) values: rows points, cols basis."""
    deriv = _check_deriv(deriv)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    cols, tables = tp_batch_tables(space, pts, max_deriv=max(deriv))
    vals = _outer3(tables[0][deriv[0]], tables[1][deriv[1]],
                   tables[2][deriv[2]])
    rows = np.repeat(np.arange(len(pts)), cols.shape[1])
    return sp.csr_matrix((vals.ravel(), (rows, cols.ravel())),
                         shape=(len(pts), space.dim))


def interpolate_tp(space, func):
    """Coefficients interpolating func at the tensor Greville grid.

    Exact (up to conditioning) for any function inside the space, which
    makes it a convenient source of reference coefficient vectors.
    """
    kvs = (space.kx, space.ky, space.kz)
    grev = [kv.greville() for kv in kvs]
    X, Y, Z = np.meshgrid(*grev, indexing="ij")
    values = np.asarray(func(np.column_stack([X.ravel(), Y.ravel(),
                                              Z.ravel()])))
    tensor = values.reshape(space.dims)
    for axis, kv in enumerate(kvs):
        mat = tp_1d_collocation(kv, grev[axis])
        tensor = np.moveaxis(tensor, axis, 0)
        shape = tensor.shape
        tensor = np.linalg.solve(mat, tensor.reshape(shape[0], -1))
        tensor = np.moveaxis(tensor.reshape(shape), 0, axis)
    return tensor.ravel()


def tp_1d_collocation(kv, x, deriv=0):
    """Dense 1D collocation matrix A[p, i] = (d^k N_i)(x_p)."""
    first, ders = basis_arrays(kv, x, max_deriv=deriv)
    A = np.zeros((len(first), kv.n))
    cols = first[:, None] + np.arange(kv.degree + 1)[None, :]
    np.put_along_axis(A, cols, ders[deriv], axis=1)
    return A
