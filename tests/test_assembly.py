import numpy as np
import pytest
import scipy.sparse as sp

from ipbm.assembly import (LinearSystem, apply_operator, assemble_ipbc,
                           assemble_ipbf, collocation_points_tet,
                           collocation_points_tp, dump_system,
                           load_system_dump)
from ipbm.geometry import (PointSet, farthest_point_downsample,
                           fibonacci_sphere, unit_sphere_domain)
from ipbm.problems import BVPDefinition, make_preset
from ipbm.quadrature import box_rule
from ipbm.runner import ExperimentConfig
from ipbm.solver import solve_least_squares
from ipbm.tet_spline import build_s0d_space, build_type5_partition
from ipbm.tp_spline import build_tp_space, interpolate_tp

UNIT_BOX = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
LAM = LAM_S = 0.01      # the default boundary and smoothness weights


@pytest.fixture(scope="module")
def sphere_boundary():
    dom = unit_sphere_domain()
    cloud = fibonacci_sphere(20000, dom.sphere_center, dom.sphere_radius,
                             seed=42)
    return farthest_point_downsample(cloud, 500, seed=42, start=0)


def zero_bvp():
    """Homogeneous problem: truth u = 0."""
    zero = lambda p: np.zeros(len(np.atleast_2d(p)))
    zero3 = lambda p: np.zeros((len(np.atleast_2d(p)), 3))
    zero6 = lambda p: np.zeros((len(np.atleast_2d(p)), 6))
    const = lambda p: np.broadcast_to(
        np.array([1.0, 1, 1, 0, 0, 0]), (len(np.atleast_2d(p)), 6)).copy()
    return BVPDefinition("zero", "laplace", zero, zero3, zero6, const)


class TestApplyOperator:
    def test_laplace_of_quadratic(self):
        bvp = make_preset("sin5", "laplace")
        derivs = np.array([[2.0, 2.0, 2.0, 0.0, 0.0, 0.0]])
        got = apply_operator(bvp, derivs, np.array([[0.3, 0.4, 0.5]]))
        assert abs(got[0] - 6.0) < 1e-14

    def test_cross_terms_doubled(self):
        bvp = make_preset("sin5", "nonelliptic")
        derivs = np.array([[0.0, 0.0, 0.0, 1.0, 0.0, 0.0]])  # u = x y
        got = apply_operator(bvp, derivs, np.array([[0.1, 0.2, 0.3]]))
        assert abs(got[0] - 20.0) < 1e-14

    def test_variable_coefficient_at_origin(self):
        bvp = make_preset("sin5", "var-diag")
        derivs = np.array([[2.0, 0.0, 0.0, 0.0, 0.0, 0.0]])  # u = x^2
        got = apply_operator(bvp, derivs, np.array([[0.0, 0.0, 0.0]]))
        assert abs(got[0] - 22.0) < 1e-14


class TestCollocationPoints:
    def test_single_box_corners(self):
        space = build_tp_space(UNIT_BOX, 2, (1, 1, 1))
        pts = collocation_points_tp(space, 2)
        assert len(pts) == 8
        assert sorted(map(tuple, pts.points)) == sorted(
            [(float(a), float(b), float(c))
             for a in (0, 1) for b in (0, 1) for c in (0, 1)])

    def test_lattice_union_count(self):
        space = build_tp_space(UNIT_BOX, 3, (2, 2, 2))
        pts = collocation_points_tp(space, 3)
        assert len(pts) == 5 ** 3

    @pytest.mark.parametrize("m,m_c", [(5, 3), (6, 2), (4, 4)])
    def test_deduplicated_grid_formula(self, m, m_c):
        space = build_tp_space(UNIT_BOX, m, (2, 2, 2))
        pts = collocation_points_tp(space, m_c)
        assert len(pts) == ((m_c - 1) * (m - 1) + 1) ** 3

    def test_mc_lower_bound(self):
        space = build_tp_space(UNIT_BOX, 3, (2, 2, 2))
        with pytest.raises(ValueError):
            collocation_points_tp(space, 1)

    def test_tet_single_subbox_degree2(self):
        part = build_type5_partition(UNIT_BOX, 2)
        pts = collocation_points_tet(part, 2)
        # five tets share vertices and edge midpoints after dedup
        space = build_s0d_space(part, 2)
        assert len(pts) == space.dim

    def test_tet_pre_dedup_count(self):
        part = build_type5_partition(UNIT_BOX, 5)
        assert part.n_tets * 20 == 5 * 20 * (5 - 1) ** 3 == 6400

    def test_dc_lower_bound(self):
        part = build_type5_partition(UNIT_BOX, 2)
        with pytest.raises(ValueError):
            collocation_points_tet(part, 1)


class TestIPBF(object):
    def test_row_layout_d5_m7(self, sphere_boundary):
        dom = unit_sphere_domain()
        cloud = fibonacci_sphere(20000, dom.sphere_center,
                                 dom.sphere_radius, seed=42)
        B = farthest_point_downsample(cloud, 1000, seed=42, start=0)
        space = build_tp_space(UNIT_BOX, 7, (5, 5, 5))
        system = assemble_ipbf(space, make_preset("sin5", "laplace"), B,
                               LAM, LAM_S)
        assert system.shape == (1331 + 1000, 1331)
        assert system.blocks["galerkin"] == slice(0, 1331)
        assert system.blocks["boundary"] == slice(1331, 2331)

    def test_boundary_weight_linearity(self, sphere_boundary):
        space = build_tp_space(UNIT_BOX, 4, (2, 2, 2))
        bvp = make_preset("mono123", "laplace")
        s1 = assemble_ipbf(space, bvp, sphere_boundary, 0.01, LAM_S)
        s2 = assemble_ipbf(space, bvp, sphere_boundary, 0.02, LAM_S)
        b1 = s1.blocks["boundary"]
        diff = (2.0 * s1.H[b1] - s2.H[b1]).toarray()
        assert np.abs(diff).max() < 1e-15
        assert np.abs(2.0 * s1.rhs[b1] - s2.rhs[b1]).max() < 1e-15

    def test_galerkin_row_sparsity(self, sphere_boundary):
        space = build_tp_space(UNIT_BOX, 5, (2, 3, 2))
        system = assemble_ipbf(space, make_preset("sin5", "laplace"),
                               sphere_boundary, LAM, LAM_S)
        gal = system.H[system.blocks["galerkin"]]
        assert np.diff(gal.indptr).max() <= 5 * 7 * 5

    def test_galerkin_locality_against_global_quadrature(self,
                                                         sphere_boundary):
        # whole-domain quadrature of (L phi_j) phi_i equals the assembled
        # per-cell accumulation
        space = build_tp_space(UNIT_BOX, 3, (2, 2, 2))
        bvp = make_preset("mono123", "laplace")
        system = assemble_ipbf(space, bvp, sphere_boundary, LAM, LAM_S)
        gal = system.H[system.blocks["galerkin"]].toarray()
        from ipbm.tp_spline import tp_design_matrix
        rng = np.random.default_rng(0)
        # one global rule per cell grid: each octant gets its own tensor rule
        total = np.zeros_like(gal)
        for cx in range(2):
            for cy in range(2):
                for cz in range(2):
                    lo = np.array([cx, cy, cz]) * 0.5
                    rule = box_rule([lo, lo + 0.5], (4, 4, 4))
                    V = tp_design_matrix(space, rule.nodes).toarray()
                    L = sum(
                        a * tp_design_matrix(space, rule.nodes, d).toarray()
                        for a, d in zip([1.0, 1.0, 1.0],
                                        [(2, 0, 0), (0, 2, 0), (0, 0, 2)]))
                    total += V.T @ (rule.weights[:, None] * L)
        assert np.abs(total - gal).max() < 1e-12

    def test_exact_coefficients_have_tiny_residual(self, sphere_boundary):
        space = build_tp_space(UNIT_BOX, 5, (1, 2, 3))
        bvp = make_preset("mono123", "laplace")
        system = assemble_ipbf(space, bvp, sphere_boundary, LAM, LAM_S)
        c_true = interpolate_tp(space, bvp.u)
        resid = system.H @ c_true - system.rhs
        assert np.abs(resid).max() < 1e-10

    def test_patch_solution_recovers_truth(self, sphere_boundary):
        space = build_tp_space(UNIT_BOX, 5, (1, 2, 3))
        bvp = make_preset("mono123", "laplace")
        system = assemble_ipbf(space, bvp, sphere_boundary, LAM, LAM_S)
        res = solve_least_squares(system)
        pts = np.random.default_rng(1).random((2000, 3))
        from ipbm.solver import evaluate_errors
        summary = evaluate_errors(space, res.coefficients, bvp.u, pts)
        assert summary.emax < 1e-10

    def test_boundary_point_outside_box_rejected(self):
        space = build_tp_space(UNIT_BOX, 3, (2, 2, 2))
        bvp = make_preset("sin5", "laplace")
        bad = PointSet([[0.5, 0.5, 1.5]], role="boundary-B")
        with pytest.raises(ValueError, match="outside"):
            assemble_ipbf(space, bvp, bad, LAM, LAM_S)

    def test_zero_solution_gives_zero_coefficients(self, sphere_boundary):
        space = build_tp_space(UNIT_BOX, 4, (2, 2, 2))
        system = assemble_ipbf(space, zero_bvp(), sphere_boundary, LAM, LAM_S)
        assert np.abs(system.rhs).max() == 0.0
        res = solve_least_squares(system)
        assert np.abs(res.coefficients).max() < 1e-12

    def test_joint_block_scaling_keeps_minimizer(self, sphere_boundary):
        space = build_tp_space(UNIT_BOX, 4, (2, 2, 2))
        bvp = make_preset("sin5", "laplace")
        system = assemble_ipbf(space, bvp, sphere_boundary, LAM, LAM_S)
        res1 = solve_least_squares(system)
        scaled = LinearSystem(system.H * 3.7, system.rhs * 3.7,
                              system.blocks)
        res2 = solve_least_squares(scaled)
        scale = np.abs(res1.coefficients).max()
        assert np.abs(res1.coefficients
                      - res2.coefficients).max() < 1e-10 * scale


class TestIPBC:
    def test_row_counts(self, sphere_boundary):
        space = build_tp_space(UNIT_BOX, 6, (5, 5, 5))
        gamma = collocation_points_tp(space, 3)
        assert len(gamma) == (2 * 5 + 1) ** 3 == 1331
        system = assemble_ipbc(space, make_preset("sin5", "laplace"),
                               gamma, sphere_boundary, LAM, LAM_S)
        assert system.shape == (1331 + 500, 1000)
        assert system.blocks["collocation"] == slice(0, 1331)

    def test_mc2_gram_rank_deficient(self, sphere_boundary):
        # under-collocated: the Gram matrix loses rank numerically
        space = build_tp_space(UNIT_BOX, 6, (5, 5, 5))
        gamma = collocation_points_tp(space, 2)
        system = assemble_ipbc(space, make_preset("sin5", "laplace"),
                               gamma, sphere_boundary, LAM, LAM_S)
        H = system.H.toarray()
        G = H.T @ H
        assert np.linalg.matrix_rank(G) < space.dim

    def test_type5_dc2_rank_deficient(self, sphere_boundary):
        part = build_type5_partition(UNIT_BOX, 3)
        space = build_s0d_space(part, 5)
        gamma = collocation_points_tet(part, 2)
        system = assemble_ipbc(space, make_preset("sin5", "laplace"),
                               gamma, sphere_boundary, LAM, LAM_S)
        res = solve_least_squares(system)
        assert res.rank_deficient

    def test_zero_solution(self, sphere_boundary):
        space = build_tp_space(UNIT_BOX, 4, (3, 3, 3))
        gamma = collocation_points_tp(space, 3)
        system = assemble_ipbc(space, zero_bvp(), gamma, sphere_boundary,
                               LAM, LAM_S)
        assert np.abs(system.rhs).max() == 0.0
        res = solve_least_squares(system)
        assert np.abs(res.coefficients).max() < 1e-12

    def test_type5_smoothness_block_present(self, sphere_boundary):
        part = build_type5_partition(UNIT_BOX, 3)
        space = build_s0d_space(part, 3)
        gamma = collocation_points_tet(part, 3)
        system = assemble_ipbc(space, make_preset("sin5", "laplace"),
                               gamma, sphere_boundary, LAM, LAM_S)
        assert "smoothness" in system.blocks
        sl = system.blocks["smoothness"]
        assert np.abs(system.rhs[sl]).max() == 0.0


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ValueError):
            ExperimentConfig(method="IPBX")

    def test_bad_space(self):
        with pytest.raises(ValueError):
            ExperimentConfig(space="hex")

    def test_nonuniform_tet_degrees(self):
        with pytest.raises(ValueError):
            ExperimentConfig(space="type5", degrees=(3, 4, 5))

    def test_nonpositive_weights(self):
        with pytest.raises(ValueError):
            ExperimentConfig(lam=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(space="type5", degrees=4, lam_s=-1.0)

    def test_defaults(self):
        cfg = ExperimentConfig()
        assert (cfg.nb, cfg.lam, cfg.lam_s, cfg.m_c, cfg.d_c) == \
            (1000, 0.01, 0.01, 3, 3)


class TestDump:
    def test_roundtrip(self, tmp_path, sphere_boundary):
        space = build_tp_space(UNIT_BOX, 3, (2, 2, 2))
        bvp = make_preset("mono123", "laplace")
        system = assemble_ipbf(space, bvp, sphere_boundary, LAM, LAM_S)
        path = tmp_path / "system.txt"
        dump_system(system, path)
        back = load_system_dump(path)
        assert back.blocks == system.blocks
        assert np.abs(back.rhs - system.rhs).max() < 1e-15
        assert (back.H != system.H).nnz == 0
