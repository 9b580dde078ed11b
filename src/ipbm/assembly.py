"""Assembly of the overdetermined least-squares systems.

Two methods over two spline spaces:

* IPBF: one weighted-integral equation per basis function
  (integral of (L s) phi_i = integral of f phi_i over the whole box),
  plus penalized boundary interpolation rows.
* IPBC: one pointwise PDE equation per collocation point, plus the same
  boundary rows.

Splines on tetrahedral partitions additionally get smoothness-penalty
rows from the C1 matrix.  All integration is over the full immersing box
(never over the curved domain), so quadrature stays exact per cell.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .geometry import PointSet
from .quadrature import (default_box_points, default_tet_degree,
                         gauss_legendre_on_interval, _reference_tet_rule)
from .tet_spline import (S0dSpace, bernstein_bary_second, bernstein_values,
                         build_smoothness_matrix, s0d_design_matrix)
from .tp_spline import TensorProductSpace, basis_arrays, tp_design_matrix

SECOND_DERIV_INDICES = ((2, 0, 0), (0, 2, 0), (0, 0, 2),
                        (1, 1, 0), (1, 0, 1), (0, 1, 1))


@dataclass
class LinearSystem:
    """Stacked sparse system H c = r with labeled row blocks."""

    H: sp.csr_matrix
    rhs: np.ndarray
    blocks: dict

    @property
    def shape(self):
        return self.H.shape


def apply_operator(bvp, second_derivs, pts):
    """L s at points, from the six second derivatives of s.

    second_derivs is ordered (xx, yy, zz, xy, xz, yz); cross terms enter
    doubled.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    h = np.atleast_2d(np.asarray(second_derivs, dtype=float))
    a = bvp.coefficients(pts)
    return (a[:, 0] * h[:, 0] + a[:, 1] * h[:, 1] + a[:, 2] * h[:, 2]
            + 2 * (a[:, 3] * h[:, 3] + a[:, 4] * h[:, 4]
                   + a[:, 5] * h[:, 5]))


# ---------------------------------------------------------------------------
# Collocation point sets

def _dedup_points(pts, tol):
    keys = np.round(pts / tol).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    return pts[np.sort(first)]


def collocation_points_tp(space, m_c):
    """Per-subbox m_c^3 lattices (corners included), globally deduplicated."""
    if m_c < 2:
        raise ValueError(f"m_c must be at least 2, got {m_c}")
    kvs = (space.kx, space.ky, space.kz)
    axes = []
    for kv in kvs:
        grid = np.concatenate([[kv.a], kv.interior, [kv.b]])
        local = np.linspace(0.0, 1.0, m_c)
        pts = (grid[:-1, None] + local[None, :] * np.diff(grid)[:, None])
        axes.append(pts.ravel())
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    return PointSet(_dedup_points(pts, 1e-12), role="collocation-G")


def collocation_points_tet(partition, d_c):
    """Union of per-tet domain points of degree d_c, deduplicated."""
    from .tet_spline import bernstein_index_set
    if d_c < 2:
        raise ValueError(f"d_c must be at least 2, got {d_c}")
    idx = np.array(bernstein_index_set(d_c), dtype=float) / d_c
    pts = np.concatenate([idx @ partition.tet_vertices(t)
                          for t in range(partition.n_tets)])
    return PointSet(_dedup_points(pts, 1e-10), role="collocation-G")


# ---------------------------------------------------------------------------
# IPBF Galerkin blocks

def _axis_cell_tables(kv, nq):
    """Per-cell Gauss nodes, weights, and basis tables up to 2nd derivative."""
    grid = np.concatenate([[kv.a], kv.interior, [kv.b]])
    ncells = len(grid) - 1
    nodes = np.empty((ncells, nq))
    weights = np.empty((ncells, nq))
    for c in range(ncells):
        nodes[c], weights[c] = gauss_legendre_on_interval(
            nq, grid[c], grid[c + 1])
    first, ders = basis_arrays(kv, nodes.ravel(), max_deriv=2)
    if not np.array_equal(first.reshape(ncells, nq)[:, 0],
                          np.arange(ncells)):
        raise AssertionError("quadrature node landed outside its cell")
    tables = [d.reshape(ncells, nq, kv.degree + 1) for d in ders]
    return nodes, weights, tables


def _outer3_flat(bx, by, bz):
    prod = (bx[:, None, None, :, None, None]
            * by[None, :, None, None, :, None]
            * bz[None, None, :, None, None, :])
    nq = bx.shape[0] * by.shape[0] * bz.shape[0]
    return prod.reshape(nq, -1)


def _galerkin_block_tp(space, bvp):
    nq = default_box_points(space.degrees)
    ax = _axis_cell_tables(space.kx, nq[0])
    ay = _axis_cell_tables(space.ky, nq[1])
    az = _axis_cell_tables(space.kz, nq[2])
    dx, dy, dz = space.degrees
    nx, ny, nz = space.dims
    n = space.dim
    G = np.zeros((n, n))
    rhs = np.zeros(n)
    ncx, ncy, ncz = len(ax[0]), len(ay[0]), len(az[0])
    for cx in range(ncx):
        bx = [t[cx] for t in ax[2]]
        wx = ax[1][cx]
        for cy in range(ncy):
            by = [t[cy] for t in ay[2]]
            wy = ay[1][cy]
            for cz in range(ncz):
                bz = [t[cz] for t in az[2]]
                wz = az[1][cz]
                X, Y, Z = np.meshgrid(ax[0][cx], ay[0][cy], az[0][cz],
                                      indexing="ij")
                pts = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
                w = (wx[:, None, None] * wy[None, :, None]
                     * wz[None, None, :]).ravel()
                a = bvp.coefficients(pts)
                V = _outer3_flat(bx[0], by[0], bz[0])
                Lv = (a[:, 0:1] * _outer3_flat(bx[2], by[0], bz[0])
                      + a[:, 1:2] * _outer3_flat(bx[0], by[2], bz[0])
                      + a[:, 2:3] * _outer3_flat(bx[0], by[0], bz[2])
                      + 2 * a[:, 3:4] * _outer3_flat(bx[1], by[1], bz[0])
                      + 2 * a[:, 4:5] * _outer3_flat(bx[1], by[0], bz[1])
                      + 2 * a[:, 5:6] * _outer3_flat(bx[0], by[1], bz[1]))
                ix = cx + np.arange(dx + 1)
                iy = cy + np.arange(dy + 1)
                iz = cz + np.arange(dz + 1)
                flat = (((ix[:, None, None] * ny + iy[None, :, None]) * nz
                         + iz[None, None, :]).ravel())
                G[np.ix_(flat, flat)] += V.T @ (w[:, None] * Lv)
                rhs[flat] += V.T @ (w * bvp.f(pts))
    return sp.csr_matrix(G), rhs


@lru_cache(maxsize=None)
def _tet_reference_tables(d, mq):
    bary, wref = _reference_tet_rule(mq)
    V = bernstein_values(d, bary)
    D2 = bernstein_bary_second(d, bary)
    return bary, wref, V, D2


def _galerkin_block_tet(space, bvp):
    part = space.partition
    d = space.degree
    bary, wref, V, D2 = _tet_reference_tables(d, default_tet_degree(d))
    nloc = space.n_local
    nt = part.n_tets
    rows = np.empty(nt * nloc * nloc, dtype=np.int64)
    cols = np.empty_like(rows)
    vals = np.empty(nt * nloc * nloc)
    rhs = np.zeros(space.dim)
    for t in range(nt):
        verts = part.tet_vertices(t)
        g = part.barycentric_gradients(t)              # (4, 3)
        nodes = bary @ verts
        w = wref * abs(part.volumes[t])
        a = bvp.coefficients(nodes)
        H = np.einsum("ri,sj,rsql->ijql", g, g, D2)    # (3, 3, nq, nloc)
        Lv = (a[:, 0:1] * H[0, 0] + a[:, 1:2] * H[1, 1]
              + a[:, 2:3] * H[2, 2] + 2 * a[:, 3:4] * H[0, 1]
              + 2 * a[:, 4:5] * H[0, 2] + 2 * a[:, 5:6] * H[1, 2])
        M = V.T @ (w[:, None] * Lv)
        dofs = space.tet_dofs[t]
        base = t * nloc * nloc
        rows[base:base + nloc * nloc] = np.repeat(dofs, nloc)
        cols[base:base + nloc * nloc] = np.tile(dofs, nloc)
        vals[base:base + nloc * nloc] = M.ravel()
        np.add.at(rhs, dofs, V.T @ (w * bvp.f(nodes)))
    G = sp.csr_matrix((vals, (rows, cols)), shape=(space.dim, space.dim))
    G.sum_duplicates()
    return G, rhs


# ---------------------------------------------------------------------------
# Shared blocks

def _design(space, pts, deriv=(0, 0, 0)):
    if isinstance(space, TensorProductSpace):
        return tp_design_matrix(space, pts, deriv)
    return s0d_design_matrix(space, pts, deriv)


def _check_in_box(space, pts, what):
    bbox = space.bbox
    if np.any(pts < bbox[0] - 1e-12) or np.any(pts > bbox[1] + 1e-12):
        raise ValueError(f"{what} outside the immersing box")


def _boundary_block(space, bvp, B, lam):
    pts = B.points if isinstance(B, PointSet) else np.atleast_2d(B)
    if len(pts) == 0:
        raise ValueError("empty boundary point set")
    _check_in_box(space, pts, "boundary point")
    return lam * _design(space, pts), lam * bvp.g(pts)


def _collocation_block(space, bvp, gamma):
    """Rows (L phi_j)(alpha_i) = f(alpha_i), averaged by the point count.

    Second-derivative rows grow like 1/h^2 while the collocation count
    grows like 1/h^3, so raw rows would drown the fixed-weight boundary
    block under refinement.  Dividing the block (rows and right-hand
    side together, so the equations are unchanged individually) by the
    number of collocation points keeps the default boundary weight
    balanced across resolutions; this reproduces the reference
    condition-number and error behaviour of the collocation method.
    """
    pts = gamma.points if isinstance(gamma, PointSet) else np.atleast_2d(gamma)
    if len(pts) == 0:
        raise ValueError("empty collocation point set")
    _check_in_box(space, pts, "collocation point")
    a = bvp.coefficients(pts)
    weights = [a[:, 0], a[:, 1], a[:, 2], 2 * a[:, 3], 2 * a[:, 4],
               2 * a[:, 5]]
    block = None
    for wcol, deriv in zip(weights, SECOND_DERIV_INDICES):
        term = sp.diags(wcol) @ _design(space, pts, deriv)
        block = term if block is None else block + term
    scale = 1.0 / len(pts)
    return sp.csr_matrix(block) * scale, bvp.f(pts) * scale


def _smoothness_block(space, lam_s):
    E = build_smoothness_matrix(space)
    return lam_s * E, np.zeros(E.shape[0])


def _stack(parts, labels):
    mats, rhss = zip(*parts)
    blocks = {}
    start = 0
    for label, mat in zip(labels, mats):
        blocks[label] = slice(start, start + mat.shape[0])
        start += mat.shape[0]
    return LinearSystem(sp.vstack(mats, format="csr"),
                        np.concatenate(rhss), blocks)


def assemble_ipbf(space, bvp, B, lam, lam_s):
    """Galerkin-flavored system: integral rows + boundary (+ smoothness).

    ``lam`` weights the boundary rows; ``lam_s`` weights the smoothness
    rows, which only tetrahedral spaces have.
    """
    if isinstance(space, TensorProductSpace):
        parts = [_galerkin_block_tp(space, bvp)]
    else:
        parts = [_galerkin_block_tet(space, bvp)]
    labels = ["galerkin", "boundary"]
    parts.append(_boundary_block(space, bvp, B, lam))
    if isinstance(space, S0dSpace):
        parts.append(_smoothness_block(space, lam_s))
        labels.append("smoothness")
    return _stack(parts, labels)


def assemble_ipbc(space, bvp, gamma, B, lam, lam_s):
    """Collocation system: pointwise PDE rows + boundary (+ smoothness).

    The weights are those of ``assemble_ipbf``.
    """
    parts = [_collocation_block(space, bvp, gamma)]
    labels = ["collocation", "boundary"]
    parts.append(_boundary_block(space, bvp, B, lam))
    if isinstance(space, S0dSpace):
        parts.append(_smoothness_block(space, lam_s))
        labels.append("smoothness")
    return _stack(parts, labels)


# ---------------------------------------------------------------------------
# Debug dump: one .npz archive of the CSR arrays, rhs and block bounds

def dump_system(system, path):
    """Write H, r and the row blocks to path as an .npz archive."""
    H = sp.csr_matrix(system.H)
    # Through a file handle, so np.savez keeps path as given.
    with open(path, "wb") as f:
        np.savez(f, data=H.data, indices=H.indices, indptr=H.indptr,
                 shape=H.shape, rhs=system.rhs, labels=list(system.blocks),
                 bounds=[(sl.start, sl.stop)
                         for sl in system.blocks.values()])


def load_system_dump(path):
    """Read a dump back; inverse of dump_system."""
    with np.load(path) as z:
        H = sp.csr_matrix((z["data"], z["indices"], z["indptr"]),
                          shape=tuple(z["shape"]))
        blocks = {str(label): slice(int(start), int(stop))
                  for label, (start, stop) in zip(z["labels"], z["bounds"])}
        return LinearSystem(H, z["rhs"], blocks)
