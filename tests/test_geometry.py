import itertools

import numpy as np
import pytest

from ipbm.geometry import (_RAY_DIRECTIONS, Domain, PointSet, StlError,
                           TriangleMesh, _count_crossings, classify_interior, farthest_point_downsample,
                           fibonacci_sphere, load_point_cloud, load_stl,
                           make_box_mesh, make_icosphere, make_torus_mesh,
                           sample_surface, save_point_cloud, save_stl,
                           scale_to_unit_box, unit_sphere_domain)

ASCII_ONE_FACET = """solid test
  facet normal 0 0 1
    outer loop
      vertex 0 0 0
      vertex 1 0 0
      vertex 0 1 0
    endloop
  endfacet
endsolid test
"""


class TestStlIO:
    def test_ascii_single_facet(self, tmp_path):
        path = tmp_path / "one.stl"
        path.write_text(ASCII_ONE_FACET)
        mesh = load_stl(path)
        assert len(mesh.triangles) == 1
        assert len(mesh.vertices) == 3

    def test_binary_cube_roundtrip(self, tmp_path):
        # write the known 12-facet cube, reread, expect dedup to 8 vertices
        cube = make_box_mesh()
        path = tmp_path / "cube.stl"
        save_stl(cube, path)
        mesh = load_stl(path)
        assert len(mesh.triangles) == 12
        assert len(mesh.vertices) == 8
        assert mesh.is_watertight()

    def test_shared_edge_census(self, tmp_path):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]])
        tris = np.array([[0, 1, 2], [1, 3, 2]])
        mesh = TriangleMesh(verts, tris)
        path = tmp_path / "two.stl"
        save_stl(mesh, path, ascii=True)
        back = load_stl(path)
        assert len(back.vertices) == 4
        census = back.edge_census()
        assert sorted(census.values()) == [1, 1, 1, 1, 2]

    def test_ascii_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        verts = rng.random((12, 3))
        tris = np.arange(12).reshape(4, 3)
        mesh = TriangleMesh(verts, tris)
        path = tmp_path / "rt.stl"
        save_stl(mesh, path, ascii=True)
        back = load_stl(path)
        mine = np.array(sorted(map(tuple, mesh.vertices)))
        theirs = np.array(sorted(map(tuple, back.vertices)))
        assert np.abs(mine - theirs).max() < 1e-12

    def test_truncated_binary_reports_position(self, tmp_path):
        cube = make_box_mesh()
        path = tmp_path / "trunc.stl"
        save_stl(cube, path)
        data = path.read_bytes()
        path.write_bytes(data[:-30])
        with pytest.raises(StlError, match="truncated.*byte"):
            load_stl(path)

    def test_facet_count_mismatch(self, tmp_path):
        cube = make_box_mesh()
        path = tmp_path / "extra.stl"
        save_stl(cube, path)
        path.write_bytes(path.read_bytes() + b"\0" * 50)
        with pytest.raises(StlError, match="mismatch"):
            load_stl(path)

    def test_ascii_bad_token_reports_line(self, tmp_path):
        path = tmp_path / "bad.stl"
        path.write_text(ASCII_ONE_FACET.replace("vertex 1 0 0",
                                                "vertex 1 oops 0"))
        with pytest.raises(StlError, match=":5"):
            load_stl(path)

    def test_point_cloud_roundtrip(self, tmp_path):
        pts = PointSet(np.random.default_rng(1).random((40, 3)),
                       role="boundary-B")
        path = tmp_path / "cloud.txt"
        save_point_cloud(pts, path)
        back = load_point_cloud(path)
        assert np.abs(back.points - pts.points).max() < 1e-15


class TestScaling:
    @pytest.mark.parametrize("lo,hi,scale,edges", [
        ((0, 0, 0), (2, 1, 1), 0.5, (1.0, 0.5, 0.5)),
        ((0, 0, 0), (1, 1, 1), 1.0, (1.0, 1.0, 1.0)),
        ((-3, 0, 2), (7, 5, 4), 0.1, (1.0, 0.5, 0.2)),
    ])
    def test_forced_arithmetic(self, lo, hi, scale, edges):
        rng = np.random.default_rng(2)
        pts = rng.random((100, 3)) * (np.array(hi) - lo) + lo
        pts[0], pts[1] = lo, hi  # pin the bbox
        scaled, tf = scale_to_unit_box(PointSet(pts))
        assert abs(tf.scale - scale) < 1e-15
        got = scaled.points.max(axis=0) - scaled.points.min(axis=0)
        assert np.abs(got - edges).max() < 1e-14

    def test_roundtrip_identity(self):
        pts = np.random.default_rng(3).random((50, 3)) * 7 - 2
        scaled, tf = scale_to_unit_box(pts)
        assert np.abs(tf.invert(scaled) - pts).max() < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="zero extent"):
            scale_to_unit_box(np.zeros((5, 3)))


class TestSurfaceSampling:
    def test_points_on_triangle_plane(self):
        verts = np.array([[0, 0, 0], [1, 0, 0.5], [0, 1, 0.25]])
        mesh = TriangleMesh(verts, [[0, 1, 2]])
        ps = sample_surface(mesh, 100, seed=0)
        normal = np.cross(verts[1] - verts[0], verts[2] - verts[0])
        normal /= np.linalg.norm(normal)
        dist = (ps.points - verts[0]) @ normal
        assert np.abs(dist).max() < 1e-12

    def test_area_weighting_binomial(self):
        # unit square as two equal triangles: per-triangle counts are
        # Binomial(n, 1/2); allow four standard deviations
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]])
        mesh = TriangleMesh(verts, [[0, 1, 2], [1, 3, 2]])
        n = 10000
        ps = sample_surface(mesh, n, seed=1)
        in_first = (ps.points[:, 0] + ps.points[:, 1]) <= 1.0
        four_sigma = 4 * np.sqrt(n * 0.25)
        assert abs(in_first.sum() - n / 2) <= four_sigma

    def test_icosphere_radius(self):
        mesh = make_icosphere([0.5, 0.5, 0.5], 0.5, subdivisions=2)
        ps = sample_surface(mesh, 4000, seed=2)
        radii = np.linalg.norm(ps.points - 0.5, axis=1)
        assert abs(radii.mean() - 0.5) < 1e-2

    def test_seed_determinism(self):
        mesh = make_box_mesh()
        a = sample_surface(mesh, 64, seed=9).points
        b = sample_surface(mesh, 64, seed=9).points
        assert np.array_equal(a, b)

    def test_degenerate_mesh_rejected(self):
        mesh = TriangleMesh(np.zeros((3, 3)), [[0, 1, 2]])
        with pytest.raises(ValueError, match="degenerate"):
            sample_surface(mesh, 10, seed=0)


class TestFarthestPoint:
    def test_square_corners(self):
        cloud = PointSet([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        out = farthest_point_downsample(cloud, 2, seed=0, start=0)
        assert np.allclose(out.points[1], [1, 1, 0])

    def test_line_hand_trace(self):
        pts = np.zeros((11, 3))
        pts[:, 0] = np.arange(11)
        out = farthest_point_downsample(PointSet(pts), 3, seed=0, start=0)
        assert list(out.points[:, 0]) == [0.0, 10.0, 5.0]

    def test_full_cloud_is_permutation(self):
        cloud = PointSet(np.random.default_rng(4).random((37, 3)))
        out = farthest_point_downsample(cloud, 37, seed=1)
        assert sorted(map(tuple, out.points)) == \
            sorted(map(tuple, cloud.points))

    def test_greedy_property_exact(self):
        # every accepted point maximizes the min distance to the chosen set
        rng = np.random.default_rng(5)
        pts = rng.random((800, 3))
        out = farthest_point_downsample(PointSet(pts), 60, seed=2).points
        for j in range(1, 60):
            chosen = out[:j]
            d_all = np.min(np.linalg.norm(
                pts[:, None, :] - chosen[None, :, :], axis=2), axis=1)
            d_next = np.min(np.linalg.norm(out[j] - chosen, axis=1))
            assert d_next >= d_all.max() - 1e-12

    def test_errors(self):
        cloud = PointSet(np.random.default_rng(6).random((5, 3)))
        with pytest.raises(ValueError):
            farthest_point_downsample(cloud, 0, seed=0)
        with pytest.raises(ValueError):
            farthest_point_downsample(cloud, 6, seed=0)


def _fps_loop(pts, nb, start):
    """Reference farthest-point selection: one row-wise update per point."""
    chosen = np.empty(nb, dtype=np.int64)
    chosen[0] = start
    dist2 = np.sum((pts - pts[start]) ** 2, axis=1)
    for i in range(1, nb):
        nxt = int(np.argmax(dist2))
        chosen[i] = nxt
        dist2 = np.minimum(dist2, np.sum((pts - pts[nxt]) ** 2, axis=1))
    return pts[chosen]


class TestFarthestPointAgainstLoop:
    def _check(self, pts, nb, seed):
        start = int(np.random.default_rng(seed).integers(len(pts)))
        got = farthest_point_downsample(PointSet(pts), nb, seed=seed).points
        assert np.array_equal(got, _fps_loop(pts, nb, start))

    def test_random_cloud(self):
        pts = np.random.default_rng(7).normal(size=(3000, 3))
        self._check(pts, 300, seed=3)

    def test_permuted_coordinates(self):
        # the 6 coordinate permutations of each point tie in exact
        # arithmetic; rounding breaks the ties by the order of summation
        base = np.random.default_rng(9).random((40, 3))
        pts = np.vstack([base[:, list(p)]
                         for p in itertools.permutations(range(3))])
        self._check(pts, 200, seed=0)

    def test_duplicated_points_tie_break(self):
        # a coarse lattice, every point three times: argmax ties everywhere
        g = np.arange(4.0)
        X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
        lattice = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
        pts = np.repeat(lattice, 3, axis=0)
        self._check(pts, 64, seed=1)
        self._check(pts, len(pts), seed=2)      # nb == len(cloud)


def _all_pairs_crossings(mesh, pts, direction, eps):
    """Reference crossing count: the exact pair test on every
    (point, triangle) pair, with no bucketing."""
    v = mesh.vertices
    tris = mesh.triangles
    crossings = np.zeros(len(pts), dtype=np.int64)
    for lo in range(0, len(pts), 200):
        block = np.arange(lo, min(lo + 200, len(pts)))
        cand_n = np.repeat(block, len(tris))
        cand_b = np.tile(np.arange(len(tris)), len(block))
        v0 = v[tris[cand_b, 0]]
        e1 = v[tris[cand_b, 1]] - v0
        e2 = v[tris[cand_b, 2]] - v0
        h = np.cross(direction[None, :], e2)
        det = np.einsum("ki,ki->k", e1, h)
        ok = np.abs(det) > eps
        inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        s = pts[cand_n] - v0
        u = np.einsum("ki,ki->k", s, h) * inv
        q = np.cross(s, e1)
        w = (q @ direction) * inv
        dist = np.einsum("ki,ki->k", q, e2) * inv
        hit = ok & (u >= 0.0) & (w >= 0.0) & (u + w <= 1.0) & (dist > eps)
        np.add.at(crossings, cand_n[hit], 1)
    return crossings


class TestCountCrossings:
    @pytest.mark.parametrize("mesh", [
        make_torus_mesh((0.5, 0.5, 0.5), 0.3, 0.12, n_major=24, n_minor=12),
        make_icosphere((0.5, 0.5, 0.5), 0.4, subdivisions=2),
    ], ids=["torus", "icosphere"])
    def test_matches_all_pairs(self, mesh):
        g = np.linspace(0.0, 1.0, 11)
        X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
        grid = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
        v, t = mesh.vertices, mesh.triangles
        midpoints = 0.5 * (v[t] + v[np.roll(t, 1, axis=1)]).reshape(-1, 3)
        pts = np.vstack([grid, v, midpoints])
        for direction in _RAY_DIRECTIONS:
            got = _count_crossings(mesh, pts, direction, 1e-13)
            want = _all_pairs_crossings(mesh, pts, direction, 1e-13)
            assert np.array_equal(got, want)
            assert got[:len(grid)].any()


class TestClassifyInterior:
    def test_analytic_sphere(self):
        dom = unit_sphere_domain()
        center = dom.sphere_center
        near = center + [0.0, 0.0, 0.45]
        far = center + [0.0, 0.0, 0.6]
        out = classify_interior(dom, np.vstack([center, near, far]))
        assert len(out) == 2

    def test_cube_mesh_against_half_space_oracle(self):
        lo, hi = np.array([0.3, 0.3, 0.3]), np.array([0.7, 0.7, 0.7])
        dom = Domain(bbox=np.array([[0.0] * 3, [1.0] * 3]),
                     mesh=make_box_mesh(lo, hi))
        g = np.linspace(0.05, 0.95, 10)
        X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
        cands = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
        got = classify_interior(dom, cands)
        oracle = np.all((cands > lo) & (cands < hi), axis=1)
        assert len(got) == oracle.sum()

    def test_torus_hole_center_excluded(self):
        center = np.array([0.5, 0.5, 0.5])
        mesh = make_torus_mesh(center, 0.3, 0.1)
        dom = Domain(bbox=np.array([[0.0] * 3, [1.0] * 3]), mesh=mesh)
        probe = np.vstack([center,                      # on the hole axis
                           center + [0.3, 0.0, 0.0]])  # inside the tube
        got = classify_interior(dom, probe)
        assert len(got) == 1
        assert np.allclose(got.points[0], center + [0.3, 0, 0])

    def test_sphere_mesh_agrees_with_analytic(self):
        dom = unit_sphere_domain()
        mesh = make_icosphere(dom.sphere_center, dom.sphere_radius,
                              subdivisions=4)
        mesh_dom = Domain(bbox=dom.bbox, mesh=mesh)
        g = np.linspace(0.0, 1.0, 50)
        X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
        cands = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
        exact = classify_interior(dom, cands).points
        approx = classify_interior(mesh_dom, cands).points
        exact_keys = set(map(tuple, np.round(exact, 9)))
        approx_keys = set(map(tuple, np.round(approx, 9)))
        agree = len(exact_keys & approx_keys)
        union = max(len(exact_keys), len(approx_keys))
        assert agree / union >= 0.99

    def test_non_watertight_warns_but_classifies(self):
        cube = make_box_mesh()
        open_mesh = TriangleMesh(cube.vertices, cube.triangles[:-1])
        dom = Domain(bbox=np.array([[-1.0] * 3, [2.0] * 3]), mesh=open_mesh)
        with pytest.warns(UserWarning, match="watertight"):
            out = classify_interior(dom, np.array([[0.5, 0.5, 0.5]]))
        assert len(out) == 1


class TestHelpers:
    def test_fibonacci_points_on_sphere(self):
        ps = fibonacci_sphere(500, np.array([0.5, 0.5, 0.5]), 0.5, seed=0)
        radii = np.linalg.norm(ps.points - 0.5, axis=1)
        assert np.abs(radii - 0.5).max() < 1e-9

    def test_torus_watertight(self):
        mesh = make_torus_mesh([0, 0, 0], 0.3, 0.1, n_major=16, n_minor=8)
        assert mesh.is_watertight()

    def test_icosphere_watertight(self):
        assert make_icosphere([0, 0, 0], 1.0, subdivisions=1).is_watertight()

    def test_pointset_validation(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            PointSet(np.zeros((3, 3)), role="nonsense")

    def test_triangle_index_validation(self):
        with pytest.raises(ValueError):
            TriangleMesh(np.zeros((3, 3)), [[0, 1, 5]])
