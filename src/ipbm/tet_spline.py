"""Type-5 tetrahedral partitions and continuous Bernstein-Bezier splines.

Each grid subbox is split into four corner tetrahedra and one central
tetrahedron; the two mirror-image splits alternate in a 3D checkerboard,
which makes adjacent subboxes share their face diagonals and yields a
conforming partition.  The piecewise-polynomial space of degree d is
continuous by construction: coefficients are attached to the global
deduplicated set of domain points.  Near-C1 behaviour is enforced in the
solvers through penalty rows built from the smoothness matrix.
"""

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial

import numpy as np
import scipy.sparse as sp

DOMAIN_POINT_DEDUP_TOL = 1e-10
BARYCENTRIC_TOL = -1e-12

# the 5-split of a unit cube: central tetrahedron on one parity class of
# corners, corner tetrahedra at the opposite class
_EVEN_CORNERS = ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1))
_ODD_CORNERS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def _five_split(parity):
    """Vertex tuples (in unit-cube coordinates) of the 5 tetrahedra."""
    central, corners = (_EVEN_CORNERS, _ODD_CORNERS) if parity == 0 \
        else (_ODD_CORNERS, _EVEN_CORNERS)
    tets = []
    for apex in corners:
        neighbors = [c for c in central
                     if sum(a != b for a, b in zip(apex, c)) == 1]
        tets.append((apex,) + tuple(neighbors))
    tets.append(central)
    return tets


@dataclass(frozen=True)
class TetPartition:
    """Conforming type-5 tetrahedral partition of a box."""

    bbox: np.ndarray
    m: int
    vertices: np.ndarray            # (nv, 3)
    tets: np.ndarray                # (nt, 4) vertex indices, det > 0
    subbox_tets: np.ndarray         # (m-1)^3 x 5 tet indices
    inv_maps: np.ndarray = field(repr=False)   # (nt, 4, 4) barycentric solves
    volumes: np.ndarray = field(repr=False)

    @property
    def n_tets(self):
        return len(self.tets)

    @property
    def mesh_size(self):
        return 1.0 / (self.m - 1)

    def tet_vertices(self, t):
        return self.vertices[self.tets[t]]

    def barycentric_gradients(self, t):
        """Constant gradients of the four barycentric coordinates."""
        return self.inv_maps[t][:, :3]

    def face_table(self):
        """Map sorted global vertex triple -> [(tet, opposite local vertex)]."""
        faces = {}
        for t, tet in enumerate(self.tets):
            for opp in range(4):
                key = tuple(sorted(np.delete(tet, opp)))
                faces.setdefault(key, []).append((t, opp))
        return faces

    def interior_faces(self):
        return {k: v for k, v in self.face_table().items() if len(v) == 2}

    def barycentric(self, t, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        rhs = np.column_stack([pts, np.ones(len(pts))])
        return rhs @ self.inv_maps[t].T

    def locate(self, pts):
        """Containing tetrahedron and barycentric coordinates per point.

        Points on shared faces resolve to the candidate with the largest
        minimum barycentric coordinate, which is deterministic.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        lo, hi = self.bbox[0], self.bbox[1]
        if np.any(pts < lo - 1e-12) or np.any(pts > hi + 1e-12):
            raise ValueError("point outside the partitioned box")
        cell = (hi - lo) / (self.m - 1)
        idx = np.clip(((pts - lo) / cell).astype(np.int64), 0, self.m - 2)
        flat = (idx[:, 0] * (self.m - 1) + idx[:, 1]) * (self.m - 1) + idx[:, 2]
        cand = self.subbox_tets[flat]                       # (n, 5)
        inv = self.inv_maps[cand]                           # (n, 5, 4, 4)
        rhs = np.column_stack([pts, np.ones(len(pts))])     # (n, 4)
        bary = np.einsum("ncij,nj->nci", inv, rhs)          # (n, 5, 4)
        best = np.argmax(bary.min(axis=2), axis=1)
        rows = np.arange(len(pts))
        return cand[rows, best], bary[rows, best]


def build_type5_partition(bbox, m):
    """Split an m-grid-line box into 5 (m-1)^3 tetrahedra."""
    if m < 2:
        raise ValueError(f"need at least 2 grid lines, got m={m}")
    bbox = np.asarray(bbox, dtype=float)
    axes = [np.linspace(bbox[0, i], bbox[1, i], m) for i in range(3)]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    def vid(i, j, k):
        return (i * m + j) * m + k

    tets = []
    nsb = m - 1
    subbox_tets = np.empty((nsb ** 3, 5), dtype=np.int64)
    for i in range(nsb):
        for j in range(nsb):
            for k in range(nsb):
                parity = (i + j + k) % 2
                ids = []
                for local in _five_split(parity):
                    tet = [vid(i + a, j + b, k + c) for a, b, c in local]
                    ids.append(len(tets))
                    tets.append(tet)
                subbox_tets[(i * nsb + j) * nsb + k] = ids
    tets = np.asarray(tets, dtype=np.int64)

    # consistent positive orientation
    v = vertices[tets]
    dets = np.linalg.det(v[:, 1:] - v[:, :1])
    flip = np.where(dets < 0)[0]
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]
    v = vertices[tets]
    volumes = np.linalg.det(v[:, 1:] - v[:, :1]) / 6.0

    mats = np.concatenate([v.transpose(0, 2, 1),
                           np.ones((len(tets), 1, 4))], axis=1)
    inv_maps = np.linalg.inv(mats)
    return TetPartition(bbox, int(m), vertices, tets, subbox_tets,
                        inv_maps, volumes)


# ---------------------------------------------------------------------------
# Bernstein basis on a tetrahedron

@lru_cache(maxsize=None)
def bernstein_index_set(d):
    """All (i, j, k, l) with i+j+k+l = d, in lexicographic order."""
    out = []
    for i in range(d + 1):
        for j in range(d + 1 - i):
            for k in range(d + 1 - i - j):
                out.append((i, j, k, d - i - j - k))
    return tuple(out)


@lru_cache(maxsize=None)
def _index_lookup(d):
    return {idx: loc for loc, idx in enumerate(bernstein_index_set(d))}


@lru_cache(maxsize=None)
def _multinomials(d):
    return np.array([factorial(d) // (factorial(i) * factorial(j)
                                      * factorial(k) * factorial(l))
                     for i, j, k, l in bernstein_index_set(d)], dtype=float)


@lru_cache(maxsize=None)
def _shift_matrix(d, r):
    """Sparse map from degree d-1 basis positions to degree d via +e_r."""
    lookup = _index_lookup(d)
    rows, cols = [], []
    for loc, idx in enumerate(bernstein_index_set(d - 1)):
        target = list(idx)
        target[r] += 1
        rows.append(lookup[tuple(target)])
        cols.append(loc)
    n_hi, n_lo = comb(d + 3, 3), comb(d + 2, 3)
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                         shape=(n_hi, n_lo))


def bernstein_values(d, bary):
    """Values of all C(d+3, 3) Bernstein polynomials at barycentric points."""
    bary = np.atleast_2d(np.asarray(bary, dtype=float))
    idx = np.array(bernstein_index_set(d))
    # cumulative powers of each coordinate
    pw = np.ones((d + 1, len(bary), 4))
    for e in range(1, d + 1):
        pw[e] = pw[e - 1] * bary
    vals = (pw[idx[:, 0], :, 0] * pw[idx[:, 1], :, 1]
            * pw[idx[:, 2], :, 2] * pw[idx[:, 3], :, 3])
    return _multinomials(d)[None, :] * vals.T


def bernstein_bary_derivs(d, bary):
    """First derivatives with respect to each barycentric coordinate.

    Returns an array of shape (4, npts, nloc).
    """
    low = bernstein_values(d - 1, bary) if d >= 1 else None
    out = np.zeros((4, len(np.atleast_2d(bary)), comb(d + 3, 3)))
    if d >= 1:
        for r in range(4):
            out[r] = d * (low @ _shift_matrix(d, r).T)
    return out


def bernstein_bary_second(d, bary):
    """Second barycentric derivatives, shape (4, 4, npts, nloc)."""
    npts = len(np.atleast_2d(bary))
    nloc = comb(d + 3, 3)
    out = np.zeros((4, 4, npts, nloc))
    if d < 2:
        return out
    low = bernstein_values(d - 2, bary)
    for r in range(4):
        mid = low @ _shift_matrix(d - 1, r).T
        for s in range(4):
            out[r, s] = d * (d - 1) * (mid @ _shift_matrix(d, s).T)
    return out


def eval_bernstein(verts, d, p, deriv=(0, 0, 0)):
    """Basis (derivative) values of all Bernstein polynomials at a point.

    The point must lie inside the closed tetrahedron (barycentric
    coordinates >= -1e-12).  Cartesian derivatives come from the chain
    rule with the constant barycentric gradient matrix.
    """
    verts = np.asarray(verts, dtype=float)
    mat = np.vstack([verts.T, np.ones(4)])
    if abs(np.linalg.det(mat)) < 1e-300:
        raise ValueError("degenerate tetrahedron")
    inv = np.linalg.inv(mat)
    bary = inv @ np.append(np.asarray(p, dtype=float), 1.0)
    if bary.min() < BARYCENTRIC_TOL:
        raise ValueError(f"point {p} outside tetrahedron "
                         f"(barycentric {bary})")
    order = sum(deriv)
    bary = bary[None, :]
    if order == 0:
        return bernstein_values(d, bary)[0]
    grads = inv[:, :3]
    if order == 1:
        axis = deriv.index(1)
        der = bernstein_bary_derivs(d, bary)
        return np.einsum("r,rl->l", grads[:, axis], der[:, 0, :])
    axes = [i for i, v in enumerate(deriv) for _ in range(v)]
    der2 = bernstein_bary_second(d, bary)
    return np.einsum("r,s,rsl->l", grads[:, axes[0]], grads[:, axes[1]],
                     der2[:, :, 0, :])


def domain_points(verts, d):
    """Equally spaced points (i v1 + j v2 + k v3 + l v4) / d on a tet."""
    if d < 1:
        raise ValueError("degree must be positive")
    verts = np.asarray(verts, dtype=float)
    idx = np.array(bernstein_index_set(d), dtype=float)
    return idx @ verts / d


@lru_cache(maxsize=None)
def _bernstein_interp_inverse(d):
    """Inverse Bernstein collocation matrix at the domain points."""
    idx = np.array(bernstein_index_set(d), dtype=float) / d
    return np.linalg.inv(bernstein_values(d, idx))


# ---------------------------------------------------------------------------
# The continuous spline space

@dataclass(frozen=True)
class S0dSpace:
    """Degree-d continuous piecewise polynomials on a tet partition.

    Degrees of freedom are the globally deduplicated domain points; the
    per-tet map ``tet_dofs`` sends local Bernstein indices (lexicographic)
    to global coefficient indices.  Sharing indices across faces is what
    makes the space continuous.
    """

    partition: TetPartition
    degree: int
    points: np.ndarray              # (dim, 3) global domain points
    tet_dofs: np.ndarray            # (nt, nloc) global indices

    @property
    def dim(self):
        return len(self.points)

    @property
    def n_local(self):
        return comb(self.degree + 3, 3)

    @property
    def mesh_size(self):
        return self.partition.mesh_size

    @property
    def bbox(self):
        return self.partition.bbox


def build_s0d_space(partition, d):
    """Number the distinct domain points over all tetrahedra."""
    idx = np.array(bernstein_index_set(d), dtype=float) / d
    key_to_gid = {}
    points = []
    nloc = comb(d + 3, 3)
    tet_dofs = np.empty((partition.n_tets, nloc), dtype=np.int64)
    for t in range(partition.n_tets):
        pts = idx @ partition.tet_vertices(t)
        keys = np.round(pts / DOMAIN_POINT_DEDUP_TOL).astype(np.int64)
        for loc, key in enumerate(map(tuple, keys)):
            gid = key_to_gid.get(key)
            if gid is None:
                gid = len(points)
                key_to_gid[key] = gid
                points.append(pts[loc])
            tet_dofs[t, loc] = gid
    return S0dSpace(partition, int(d), np.array(points), tet_dofs)


def interpolate_s0d(space, func):
    """Coefficients of the local Bernstein interpolant at domain points.

    Exact for any global polynomial of degree <= d, and then the result
    is a valid continuous-spline coefficient vector.
    """
    inv = _bernstein_interp_inverse(space.degree)
    idx = np.array(bernstein_index_set(space.degree), dtype=float)
    coeffs = np.zeros(space.dim)
    for t in range(space.partition.n_tets):
        pts = idx @ space.partition.tet_vertices(t) / space.degree
        coeffs[space.tet_dofs[t]] = inv @ np.asarray(func(pts))
    return coeffs


def eval_s0d_batch(space, coeffs, pts, deriv=(0, 0, 0)):
    """Evaluate the spline (or a derivative up to total order 2)."""
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    if len(coeffs) != space.dim:
        raise ValueError(f"coefficient vector has length {len(coeffs)}, "
                         f"space dimension is {space.dim}")
    mat = s0d_design_matrix(space, pts, deriv)
    return mat @ coeffs


def s0d_design_matrix(space, pts, deriv=(0, 0, 0), chunk=8192):
    """Sparse matrix of basis (derivative) values at points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    blocks = []
    for lo in range(0, len(pts), chunk):
        blocks.append(_design_chunk(space, pts[lo:lo + chunk], deriv))
    return sp.vstack(blocks, format="csr") if len(blocks) > 1 else blocks[0]


def _design_chunk(space, pts, deriv):
    part = space.partition
    d = space.degree
    tet_ids, bary = part.locate(pts)
    order = sum(deriv)
    if order == 0:
        vals = bernstein_values(d, bary)
    elif order == 1:
        axis = deriv.index(1)
        der = bernstein_bary_derivs(d, bary)        # (4, n, nloc)
        g = part.inv_maps[tet_ids][:, :, axis]      # (n, 4)
        vals = np.einsum("nr,rnl->nl", g, der)
    else:
        axes = [i for i, v in enumerate(deriv) for _ in range(v)]
        der2 = bernstein_bary_second(d, bary)       # (4, 4, n, nloc)
        gi = part.inv_maps[tet_ids][:, :, axes[0]]
        gj = part.inv_maps[tet_ids][:, :, axes[1]]
        vals = np.einsum("nr,ns,rsnl->nl", gi, gj, der2)
    cols = space.tet_dofs[tet_ids]
    rows = np.repeat(np.arange(len(pts)), space.n_local)
    return sp.csr_matrix((vals.ravel(), (rows, cols.ravel())),
                         shape=(len(pts), space.dim))


# ---------------------------------------------------------------------------
# C1 smoothness matrix

def build_smoothness_matrix(space):
    """Rows that vanish exactly when the spline is C1 across each face.

    For an interior face with ordered shared vertices (w1, w2, w3), tet T
    behind it and tet T' in front with off-face vertex v5, continuity of
    first derivatives is equivalent to

        c'_(i,j,k,1) = b1 c_(i+1,j,k,0) + b2 c_(i,j+1,k,0)
                       + b3 c_(i,j,k+1,0) + b4 c_(i,j,k,1)

    for all i+j+k = d-1, where (b1..b4) are the barycentric coordinates
    of v5 with respect to T in face-aligned order.  Rows are emitted in
    unnormalized form with coefficient -1 on c'; any overall penalty
    weight is applied by the assembler.
    """
    part = space.partition
    d = space.degree
    lookup = _index_lookup(d)
    rows, cols, vals = [], [], []
    row = 0
    shell = sorted((i, j, k) for i in range(d) for j in range(d - i)
                   for k in range(d - i - j) if i + j + k == d - 1)
    interior = part.interior_faces()
    for key in sorted(interior):
        (ta, oppa), (tb, oppb) = interior[key]
        perm_a = _face_alignment(part.tets[ta], key, oppa)
        perm_b = _face_alignment(part.tets[tb], key, oppb)
        v5 = part.vertices[part.tets[tb][oppb]]
        bary = part.barycentric(ta, v5[None, :])[0]
        aligned = bary[perm_a]
        for (i, j, k) in shell:
            base = np.zeros(4, dtype=np.int64)
            base[perm_a[0]], base[perm_a[1]], base[perm_a[2]] = i, j, k
            for pos, coef in enumerate(aligned):
                q = base.copy()
                q[perm_a[pos]] += 1
                cols.append(space.tet_dofs[ta, lookup[tuple(q)]])
                vals.append(coef)
                rows.append(row)
            q = np.zeros(4, dtype=np.int64)
            q[perm_b[0]], q[perm_b[1]], q[perm_b[2]] = i, j, k
            q[perm_b[3]] = 1
            cols.append(space.tet_dofs[tb, lookup[tuple(q)]])
            vals.append(-1.0)
            rows.append(row)
            row += 1
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(row, space.dim))
    mat.sum_duplicates()
    return mat


def _face_alignment(tet, face_key, opp):
    """Local positions of (w1, w2, w3, off-face vertex) in the tet."""
    positions = {v: loc for loc, v in enumerate(tet)}
    return np.array([positions[w] for w in face_key] + [opp])
