"""Domain ingestion: STL meshes, point clouds, analytic spheres.

Produces the two point sets the solvers consume: a well-spaced boundary
set B on the surface of the domain, and interior evaluation points
obtained by classifying grid candidates against the closed surface.
All randomized operations take an explicit seed and are reproducible.
"""

import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

VERTEX_DEDUP_TOL = 1e-12
SURFACE_SAMPLE_TOL = 1e-9

# boundary-B: points on the domain surface used for the penalty rows;
# collocation-G: points in the immersing box where the PDE is collocated;
# evaluation: points where errors against the true solution are measured.
POINT_ROLES = ("boundary-B", "collocation-G", "evaluation")


class StlError(ValueError):
    """Malformed STL input; message carries the byte or line position."""


@dataclass(frozen=True)
class PointSet:
    """A set of 3D points with the role they play in a solve."""

    points: np.ndarray
    role: str = "evaluation"

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {pts.shape}")
        if self.role not in POINT_ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class TriangleMesh:
    """Triangle surface mesh with deduplicated vertices."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle index out of range")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    @property
    def bbox(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return np.array([lo, hi])

    def edge_census(self):
        """Count how often each undirected edge appears across triangles."""
        tri = self.triangles
        edges = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
        edges = np.sort(edges, axis=1)
        uniq, counts = np.unique(edges, axis=0, return_counts=True)
        return {tuple(e): int(c) for e, c in zip(uniq, counts)}

    def is_watertight(self):
        counts = np.array(list(self.edge_census().values()))
        return bool(len(counts)) and bool(np.all(counts == 2))

    def triangle_areas(self):
        v = self.vertices
        a, b, c = (v[self.triangles[:, i]] for i in range(3))
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


@dataclass(frozen=True)
class Transform:
    """Uniform scale followed by translation: p -> p * scale + offset."""

    scale: float
    offset: np.ndarray

    def apply(self, pts):
        return np.asarray(pts, dtype=float) * self.scale + self.offset

    def invert(self, pts):
        return (np.asarray(pts, dtype=float) - self.offset) / self.scale

    @staticmethod
    def identity():
        return Transform(1.0, np.zeros(3))


@dataclass(frozen=True)
class Domain:
    """A normalized solve domain: bounding box plus its closed surface.

    The surface is either a TriangleMesh or an analytic sphere
    (``sphere_center``/``sphere_radius`` set, ``mesh`` None).  After
    normalization the longest bounding-box edge is exactly one.
    """

    bbox: np.ndarray
    mesh: TriangleMesh | None = None
    sphere_center: np.ndarray | None = None
    sphere_radius: float | None = None
    transform: Transform = field(default_factory=Transform.identity)

    @property
    def is_analytic(self):
        return self.mesh is None

    def bbox_edges(self):
        return self.bbox[1] - self.bbox[0]


def unit_sphere_domain():
    """The built-in analytic domain: radius-1/2 sphere in the unit box."""
    return Domain(
        bbox=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
        sphere_center=np.array([0.5, 0.5, 0.5]),
        sphere_radius=0.5,
    )


def mesh_domain(mesh):
    """Normalize a mesh to the unit-edge bounding box and wrap as Domain."""
    scaled, tf = scale_to_unit_box(mesh)
    return Domain(bbox=scaled.bbox, mesh=scaled, transform=tf)


# ---------------------------------------------------------------------------
# STL input/output

def _dedup_vertices(raw_vertices, tol=VERTEX_DEDUP_TOL):
    """Merge vertices closer than tol; returns (vertices, index_map)."""
    keys = np.round(raw_vertices / tol).astype(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    return raw_vertices[first], inverse


def load_stl(path):
    """Read an ASCII or binary STL file into a TriangleMesh.

    Facet normals are ignored and recomputed from vertex winding when
    needed.  Vertices are deduplicated to 1e-12 absolute.

    Raises
    ------
    StlError
        On a truncated binary body, facet-count mismatch, or unreadable
        ASCII token; the message includes the byte or line position.
    """
    with open(path, "rb") as f:
        data = f.read()
    if _looks_ascii(data):
        raw = _parse_ascii(data, path)
    else:
        raw = _parse_binary(data, path)
    vertices, inverse = _dedup_vertices(raw)
    triangles = inverse.reshape(-1, 3)
    return TriangleMesh(vertices, triangles)


def _looks_ascii(data):
    if not data.startswith(b"solid"):
        return False
    # Some binary files abuse a "solid" header; require a facet keyword in
    # the printable prefix to treat the file as ASCII.
    return b"facet" in data[:2000]


def _parse_binary(data, path):
    if len(data) < 84:
        raise StlError(f"{path}: binary STL shorter than 84-byte header "
                       f"(got {len(data)} bytes)")
    (count,) = struct.unpack_from("<I", data, 80)
    expected = 84 + 50 * count
    if len(data) < expected:
        raise StlError(f"{path}: truncated binary body at byte {len(data)}, "
                       f"header promises {count} facets ({expected} bytes)")
    if len(data) != expected:
        raise StlError(f"{path}: facet count mismatch: header says {count}, "
                       f"file holds {(len(data) - 84) // 50} facet records")
    facet = np.dtype([("normal", "<f4", 3), ("verts", "<f4", (3, 3)),
                      ("attr", "<u2")])
    records = np.frombuffer(data, dtype=facet, count=count, offset=84)
    return records["verts"].astype(float).reshape(-1, 3)


def _parse_ascii(data, path):
    verts = []
    for lineno, line in enumerate(data.decode("latin-1").splitlines(), 1):
        parts = line.split()
        if not parts or parts[0] != "vertex":
            continue
        if len(parts) != 4:
            raise StlError(f"{path}:{lineno}: vertex line needs 3 "
                           f"coordinates, got {len(parts) - 1}")
        try:
            verts.append([float(p) for p in parts[1:]])
        except ValueError as exc:
            raise StlError(f"{path}:{lineno}: unreadable token: {exc}") from exc
    if not verts:
        raise StlError(f"{path}: no vertex lines found in ASCII STL")
    if len(verts) % 3:
        raise StlError(f"{path}: ASCII vertex count {len(verts)} is not a "
                       f"multiple of 3")
    return np.array(verts)


def save_stl(mesh, path, ascii=False):
    """Write a mesh as STL; ASCII keeps full float64 precision."""
    v, t = mesh.vertices, mesh.triangles
    normals = _facet_normals(mesh)
    if ascii:
        with open(path, "w") as f:
            f.write("solid mesh\n")
            for n, tri in zip(normals, t):
                f.write("  facet normal %.17g %.17g %.17g\n" % tuple(n))
                f.write("    outer loop\n")
                for vi in tri:
                    f.write("      vertex %.17g %.17g %.17g\n" % tuple(v[vi]))
                f.write("    endloop\n  endfacet\n")
            f.write("endsolid mesh\n")
        return
    with open(path, "wb") as f:
        f.write(b"\0" * 80)
        f.write(struct.pack("<I", len(t)))
        pack = struct.Struct("<12fH").pack
        for n, tri in zip(normals, t):
            coords = np.concatenate([n, v[tri[0]], v[tri[1]], v[tri[2]]])
            f.write(pack(*coords, 0))


def _facet_normals(mesh):
    v = mesh.vertices
    a, b, c = (v[mesh.triangles[:, i]] for i in range(3))
    n = np.cross(b - a, c - a)
    lengths = np.linalg.norm(n, axis=1)
    lengths[lengths == 0] = 1.0
    return n / lengths[:, None]


def load_point_cloud(path, role="boundary-B"):
    """Read a plain-text point cloud, one "x y z" triple per line."""
    pts = np.loadtxt(path, ndmin=2)
    if pts.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns, got {pts.shape[1]}")
    return PointSet(pts, role=role)


def save_point_cloud(ps, path):
    np.savetxt(path, ps.points, fmt="%.17g")


# ---------------------------------------------------------------------------
# Normalization

def scale_to_unit_box(obj):
    """Uniformly scale + translate so the longest bbox edge is one.

    Accepts a TriangleMesh or a PointSet; returns (scaled object,
    Transform).  The transform maps original coordinates to scaled ones
    and is invertible.
    """
    if isinstance(obj, TriangleMesh):
        pts = obj.vertices
    elif isinstance(obj, PointSet):
        pts = obj.points
    else:
        pts = np.asarray(obj, dtype=float)
    if len(pts) == 0:
        raise ValueError("empty geometry")
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    longest = float((hi - lo).max())
    if longest == 0.0:
        raise ValueError("degenerate geometry: zero extent in all axes")
    scale = 1.0 / longest
    tf = Transform(scale, -lo * scale)
    if isinstance(obj, TriangleMesh):
        return TriangleMesh(tf.apply(obj.vertices), obj.triangles), tf
    if isinstance(obj, PointSet):
        return PointSet(tf.apply(obj.points), role=obj.role), tf
    return tf.apply(pts), tf


# ---------------------------------------------------------------------------
# Surface sampling and downsampling

def sample_surface(mesh, n, seed):
    """Draw n points uniformly by area from a triangle mesh's surface."""
    if n < 1:
        raise ValueError("need at least one sample")
    areas = mesh.triangle_areas()
    total = areas.sum()
    if total <= 0.0:
        raise ValueError("all triangles are degenerate (zero total area)")
    rng = np.random.default_rng(seed)
    tri_idx = rng.choice(len(areas), size=n, p=areas / total)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip], v[flip] = 1.0 - u[flip], 1.0 - v[flip]
    a = mesh.vertices[mesh.triangles[tri_idx, 0]]
    b = mesh.vertices[mesh.triangles[tri_idx, 1]]
    c = mesh.vertices[mesh.triangles[tri_idx, 2]]
    pts = a + u[:, None] * (b - a) + v[:, None] * (c - a)
    return PointSet(pts, role="boundary-B")


def farthest_point_downsample(cloud, nb, seed, start=None):
    """Greedy max-min selection of nb well-spaced points from a cloud.

    After the start point (chosen by the seeded generator unless given),
    each accepted point maximizes its minimum distance to everything
    accepted so far.  Deterministic for a fixed (seed, start).
    """
    pts = cloud.points if isinstance(cloud, PointSet) else np.asarray(cloud)
    if len(pts) == 0:
        raise ValueError("empty cloud")
    if nb < 1:
        raise ValueError("nb must be positive")
    if nb > len(pts):
        raise ValueError(f"nb={nb} exceeds cloud size {len(pts)}")
    if start is None:
        start = int(np.random.default_rng(seed).integers(len(pts)))
    # One contiguous array per axis, updated in place; the squares are
    # summed x, y, z in the order a row sum of (pts - p)**2 takes.
    axes = [np.ascontiguousarray(pts[:, k], dtype=float) for k in range(3)]
    dist2 = np.full(len(pts), np.inf)
    d2 = np.empty(len(pts))
    tmp = np.empty(len(pts))
    chosen = np.empty(nb, dtype=np.int64)
    nxt = start
    for i in range(nb):
        chosen[i] = nxt
        np.subtract(axes[0], axes[0][nxt], out=d2)
        np.multiply(d2, d2, out=d2)
        for x in axes[1:]:
            np.subtract(x, x[nxt], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.add(d2, tmp, out=d2)
        np.minimum(dist2, d2, out=dist2)
        nxt = int(np.argmax(dist2))
    role = cloud.role if isinstance(cloud, PointSet) else "boundary-B"
    return PointSet(pts[chosen], role=role)


def fibonacci_sphere(n, center, radius, seed=0):
    """Well-spaced points on a sphere via the golden-angle lattice.

    The seed rotates the lattice about the z axis so that independent
    draws (boundary set vs evaluation set) do not coincide.
    """
    i = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    phi = i * golden + 2.0 * np.pi * np.random.default_rng(seed).random()
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return PointSet(center + radius * pts, role="boundary-B")


# ---------------------------------------------------------------------------
# Interior classification

# Fixed, irrationally oriented ray directions: votes from three rays guard
# against a single ray grazing an edge or vertex.
_RAY_DIRECTIONS = np.array([
    [0.12940952255126037, 0.48296291314453416, 0.86602540378443860],
    [-0.81915204428899180, 0.33682408883346520, -0.46474580049929130],
    [0.53729960834682380, -0.76604444311897800, 0.35286853056609272],
])


def classify_interior(domain, candidates):
    """Return the subset of candidate points strictly inside the surface.

    Analytic spheres use the exact radius test.  Meshes use ray-casting
    parity along three fixed directions with majority vote; non-watertight
    meshes are classified anyway after a warning.
    """
    pts = candidates.points if isinstance(candidates, PointSet) else \
        np.atleast_2d(np.asarray(candidates, dtype=float))
    if domain.is_analytic:
        d2 = np.sum((pts - domain.sphere_center) ** 2, axis=1)
        inside = d2 < domain.sphere_radius ** 2
    else:
        mesh = domain.mesh
        if not mesh.is_watertight():
            warnings.warn("mesh is not watertight; interior classification "
                          "may misjudge points near unmatched edges")
        votes = np.zeros(len(pts), dtype=np.int64)
        for direction in _RAY_DIRECTIONS:
            votes += _ray_parity(mesh, pts, direction)
        inside = votes >= 2
    return PointSet(pts[inside], role="evaluation")


def _ray_parity(mesh, pts, direction, eps=1e-13):
    """1 where the ray from each point crosses the mesh an odd number of times."""
    return _count_crossings(mesh, pts, direction, eps) % 2


def _expand(counts):
    """Owner i and rank 0..counts[i]-1 of each of sum(counts) slots."""
    owner = np.repeat(np.arange(len(counts)), counts)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts,
                                             counts)
    return owner, rank


def _count_crossings(mesh, pts, direction, eps):
    """Candidate pairs from a 2D hash in the plane normal to the ray,
    then exact intersection tests on the survivors.

    The hash is a sorted table of (cell, triangle) entries, one per cell
    a triangle's projected bounding box touches; each point meets the
    triangles listed under its own cell.  The pair test is Moller-Trumbore
    with the per-triangle terms (e2 x d, det, 1/det) computed once and
    near-parallel triangles (|det| <= eps) dropped up front.
    """
    v = mesh.vertices
    tris = mesh.triangles
    # orthonormal frame with the ray as third axis
    tangent = np.array([1.0, 0.0, 0.0])
    if abs(direction[0]) > 0.9:
        tangent = np.array([0.0, 1.0, 0.0])
    u1 = tangent - (tangent @ direction) * direction
    u1 /= np.linalg.norm(u1)
    u2 = np.cross(direction, u1)
    v0 = v[tris[:, 0]]
    e1 = v[tris[:, 1]] - v0
    e2 = v[tris[:, 2]] - v0
    h = np.cross(direction[None, :], e2)
    det = np.einsum("ki,ki->k", e1, h)
    keep = np.abs(det) > eps
    if not keep.any():
        return np.zeros(len(pts), dtype=np.int64)
    corners = v[tris]                                    # (M, 3, 3)
    cu = corners @ u1
    cv = corners @ u2
    lo_u, hi_u = cu.min(axis=1), cu.max(axis=1)
    lo_v, hi_v = cv.min(axis=1), cv.max(axis=1)
    cell = max(float(np.median(hi_u - lo_u)),
               float(np.median(hi_v - lo_v)), 1e-9) * 0.5
    margin = 1e-9
    v0, e1, e2, h = v0[keep], e1[keep], e2[keep], h[keep]
    inv = 1.0 / det[keep]
    iu0 = np.floor((lo_u[keep] - margin) / cell).astype(np.int64)
    iu1 = np.floor((hi_u[keep] + margin) / cell).astype(np.int64)
    iv0 = np.floor((lo_v[keep] - margin) / cell).astype(np.int64)
    iv1 = np.floor((hi_v[keep] + margin) / cell).astype(np.int64)
    u_lo, v_lo = iu0.min(), iv0.min()
    n_u, n_v = iu1.max() - u_lo + 1, iv1.max() - v_lo + 1
    nv = iv1 - iv0 + 1
    tri, rank = _expand((iu1 - iu0 + 1) * nv)
    entry_key = ((iu0[tri] + rank // nv[tri] - u_lo) * n_v
                 + iv0[tri] + rank % nv[tri] - v_lo)
    order = np.argsort(entry_key)
    entry_key, entry_tri = entry_key[order], tri[order]
    pu = np.floor((pts @ u1) / cell).astype(np.int64) - u_lo
    pv = np.floor((pts @ u2) / cell).astype(np.int64) - v_lo
    pidx = np.flatnonzero((pu >= 0) & (pu < n_u) & (pv >= 0) & (pv < n_v))
    pkey = pu[pidx] * n_v + pv[pidx]
    first = np.searchsorted(entry_key, pkey, side="left")
    owner, rank = _expand(np.searchsorted(entry_key, pkey, side="right")
                          - first)
    cand_n = pidx[owner]
    cand_b = entry_tri[first[owner] + rank]
    # the exact test, narrowing the pairs after each condition
    s = pts[cand_n] - v0[cand_b]
    u = np.einsum("ki,ki->k", s, h[cand_b]) * inv[cand_b]
    sel = u >= 0.0
    cand_n, cand_b, s, u = cand_n[sel], cand_b[sel], s[sel], u[sel]
    q = np.cross(s, e1[cand_b])
    w = (q @ direction) * inv[cand_b]
    sel = (w >= 0.0) & (u + w <= 1.0)
    cand_n, cand_b, q = cand_n[sel], cand_b[sel], q[sel]
    dist = np.einsum("ki,ki->k", q, e2[cand_b]) * inv[cand_b]
    return np.bincount(cand_n[dist > eps], minlength=len(pts))


# ---------------------------------------------------------------------------
# Reference meshes for tests and demos

def make_box_mesh(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)):
    """Axis-aligned box as 12 triangles with outward winding."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    corners = np.array([[lo[0], lo[1], lo[2]], [hi[0], lo[1], lo[2]],
                        [hi[0], hi[1], lo[2]], [lo[0], hi[1], lo[2]],
                        [lo[0], lo[1], hi[2]], [hi[0], lo[1], hi[2]],
                        [hi[0], hi[1], hi[2]], [lo[0], hi[1], hi[2]]])
    quads = [(0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
             (2, 3, 7, 6), (1, 2, 6, 5), (3, 0, 4, 7)]
    tris = []
    for a, b, c, d in quads:
        tris.append((a, b, c))
        tris.append((a, c, d))
    return TriangleMesh(corners, np.array(tris))


def make_icosphere(center, radius, subdivisions=3):
    """Sphere mesh from a subdivided icosahedron."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ])
    for _ in range(subdivisions):
        verts_list = list(verts)
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts_list[i] + verts_list[j]
                m /= np.linalg.norm(m)
                cache[key] = len(verts_list)
                verts_list.append(m)
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.array(verts_list)
        faces = np.array(new_faces)
    return TriangleMesh(np.asarray(center) + radius * verts, faces)


def make_torus_mesh(center, major_radius, minor_radius, n_major=48, n_minor=24):
    """Watertight torus mesh around the z axis through ``center``."""
    c = np.asarray(center, dtype=float)
    iu = np.arange(n_major)
    iv = np.arange(n_minor)
    theta = 2.0 * np.pi * iu / n_major
    phi = 2.0 * np.pi * iv / n_minor
    T, P = np.meshgrid(theta, phi, indexing="ij")
    ring = major_radius + minor_radius * np.cos(P)
    verts = np.stack([ring * np.cos(T), ring * np.sin(T),
                      minor_radius * np.sin(P)], axis=-1).reshape(-1, 3) + c
    tris = []
    for i in range(n_major):
        for j in range(n_minor):
            a = i * n_minor + j
            b = ((i + 1) % n_major) * n_minor + j
            a2 = i * n_minor + (j + 1) % n_minor
            b2 = ((i + 1) % n_major) * n_minor + (j + 1) % n_minor
            tris.append((a, b, b2))
            tris.append((a, b2, a2))
    return TriangleMesh(verts, np.array(tris))
