import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import ipbm.solver as solver_mod
from ipbm.assembly import (assemble_ipbc, assemble_ipbf,
                           collocation_points_tet)
from ipbm.geometry import (farthest_point_downsample, fibonacci_sphere,
                           unit_sphere_domain)
from ipbm.problems import make_preset
from ipbm.solver import convergence_rate, evaluate_errors, solve_least_squares
from ipbm.tet_spline import build_s0d_space, build_type5_partition
from ipbm.tp_spline import build_tp_space, interpolate_tp

UNIT_BOX = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
LAM = LAM_S = 0.01


@pytest.fixture(scope="module")
def sphere_boundary():
    dom = unit_sphere_domain()
    cloud = fibonacci_sphere(20000, dom.sphere_center, dom.sphere_radius,
                             seed=42)
    return farthest_point_downsample(cloud, 500, seed=42, start=0)


def _count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's shape."""
    calls = []
    original = getattr(module, name)

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestLeastSquares:
    def test_square_nonsingular(self):
        rng = np.random.default_rng(0)
        H = rng.normal(size=(10, 10)) + 10 * np.eye(10)
        x = rng.normal(size=10)
        res = solve_least_squares((H, H @ x))
        assert np.abs(res.coefficients - x).max() < 1e-12
        assert res.residual_norm < 1e-12

    def test_consistent_overdetermined(self):
        rng = np.random.default_rng(1)
        H = rng.normal(size=(50, 10))
        x = rng.normal(size=10)
        res = solve_least_squares((H, H @ x))
        assert np.abs(res.coefficients - x).max() < 1e-10

    def test_against_normal_equations_oracle(self):
        rng = np.random.default_rng(2)
        H = rng.normal(size=(40, 8))
        r = rng.normal(size=40)
        oracle = np.linalg.solve(H.T @ H, H.T @ r)
        res = solve_least_squares((H, r))
        assert np.abs(res.coefficients - oracle).max() < 1e-8

    def test_iterative_path_matches_dense(self):
        rng = np.random.default_rng(3)
        H = sp.random(300, 80, density=0.1, random_state=4,
                      data_rvs=rng.standard_normal)
        H = sp.vstack([H, sp.eye(80)]).tocsr()
        r = rng.normal(size=380)
        dense = solve_least_squares((H, r), force_path="dense")
        iterative = solve_least_squares((H, r), force_path="iterative")
        scale = np.abs(dense.coefficients).max()
        assert np.abs(dense.coefficients
                      - iterative.coefficients).max() < 1e-7 * scale
        assert dense.method == "dense-qr"
        assert iterative.method == "normal-cg"

    def test_sparse_path_matches_dense(self, monkeypatch):
        rng = np.random.default_rng(3)
        H = sp.random(300, 80, density=0.1, random_state=4,
                      data_rvs=rng.standard_normal)
        H = sp.vstack([H, sp.eye(80)]).tocsr()
        r = rng.normal(size=380)
        dense = solve_least_squares((H, r))
        monkeypatch.setattr(solver_mod, "DENSE_SOLVE_LIMIT", 79)
        sparse = solve_least_squares((H, r))
        scale = np.abs(dense.coefficients).max()
        assert np.abs(dense.coefficients
                      - sparse.coefficients).max() < 1e-7 * scale
        assert 0.5 <= sparse.gram_condition / dense.gram_condition <= 2.0
        assert dense.method == "dense-qr"
        assert sparse.method == "sparse-lu"

    @pytest.mark.parametrize("patch", [{}, {"DENSE_FILL": 1.0},
                                       {"GRAM_BYTES": 0}])
    def test_gram_product_choice_keeps_solution(self, monkeypatch, patch):
        # 10% fill takes the BLAS product unless too sparse or too large
        rng = np.random.default_rng(17)
        H = sp.vstack([sp.random(300, 80, density=0.1, random_state=18,
                                 data_rvs=rng.standard_normal),
                       sp.eye(80)]).tocsr()
        r = rng.normal(size=380)
        oracle = np.linalg.lstsq(H.toarray(), r, rcond=None)[0]
        for name, value in patch.items():
            monkeypatch.setattr(solver_mod, name, value)
        res = solve_least_squares((H, r))
        assert np.abs(res.coefficients - oracle).max() < 1e-12
        assert res.method == "dense-qr"

    def test_singular_gram_on_sparse_path_raises(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "DENSE_SOLVE_LIMIT", 10)
        H = sp.random(60, 20, density=0.3, random_state=0).tolil()
        H[:, 7] = 0.0  # G then has a zero row and column
        with pytest.raises(RuntimeError, match="60x20"):
            solve_least_squares((H.tocsr(), np.ones(60)))

    def test_consistent_row_does_not_move_solution(self):
        rng = np.random.default_rng(5)
        H = rng.normal(size=(30, 6))
        r = rng.normal(size=30)
        base = solve_least_squares((H, r))
        new_row = rng.normal(size=6)
        H2 = np.vstack([H, new_row])
        r2 = np.append(r, new_row @ base.coefficients)
        grown = solve_least_squares((H2, r2))
        assert np.abs(base.coefficients - grown.coefficients).max() < 1e-10

    def test_residual_norm_recomputes(self):
        rng = np.random.default_rng(6)
        H = rng.normal(size=(25, 5))
        r = rng.normal(size=25)
        res = solve_least_squares((H, r))
        recomputed = np.linalg.norm(H @ res.coefficients - r)
        assert abs(recomputed - res.residual_norm) < 1e-9

    def test_rank_deficiency_flagged(self):
        rng = np.random.default_rng(7)
        H = rng.normal(size=(20, 5))
        H[:, 4] = H[:, 0] + H[:, 1]  # dependent column
        res = solve_least_squares((H, rng.normal(size=20)))
        assert res.rank_deficient

    @pytest.mark.parametrize("n", [30, 250])
    def test_column_scaled_gram_condition_1e12(self, n):
        # cond(G) about 1e12; n=250 takes the Lanczos estimate
        rng = np.random.default_rng(13)
        H = rng.normal(size=(2 * n + 100, n)) * np.logspace(0, -6, n)
        r = rng.normal(size=len(H))
        oracle = scipy.linalg.lstsq(H, r, lapack_driver="gelsd")[0]
        s = np.linalg.svd(H, compute_uv=False)
        res = solve_least_squares((H, r))
        assert 1e11 < res.gram_condition < 1e13
        assert not res.rank_deficient
        err = np.linalg.norm(res.coefficients - oracle)
        assert err < 1e-6 * np.linalg.norm(oracle)
        want = (s[0] / s[-1]) ** 2
        assert abs(res.gram_condition - want) < 1e-6 * want

    def test_nearly_dependent_column_takes_fallback(self, monkeypatch):
        rng = np.random.default_rng(14)
        H = rng.normal(size=(80, 12))
        H[:, 11] = H[:, 0] + H[:, 1] + 1e-10 * rng.normal(size=80)
        r = rng.normal(size=80)
        svd_calls = _count_calls(monkeypatch, scipy.linalg, "lstsq")
        res = solve_least_squares((H, r))
        assert svd_calls == [H.shape]
        assert res.rank_deficient and res.gram_condition == np.inf
        minimum_norm = np.linalg.lstsq(
            H, r, rcond=solver_mod.GRAM_CONDITION_MAX ** -0.5)[0]
        assert np.abs(res.coefficients - minimum_norm).max() < 1e-12

    def test_type5_dc2_takes_fallback(self, monkeypatch, sphere_boundary):
        part = build_type5_partition(UNIT_BOX, 3)
        space = build_s0d_space(part, 5)
        gamma = collocation_points_tet(part, 2)
        system = assemble_ipbc(space, make_preset("sin5", "laplace"),
                               gamma, sphere_boundary, LAM, LAM_S)
        svd_calls = _count_calls(monkeypatch, scipy.linalg, "lstsq")
        res = solve_least_squares(system)
        assert svd_calls == [system.H.shape]
        assert res.rank_deficient and res.method == "dense-qr"

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            solve_least_squares((np.ones((3, 5)), np.ones(3)))

    def test_joint_scaling_invariance(self):
        rng = np.random.default_rng(8)
        H = rng.normal(size=(40, 7))
        r = rng.normal(size=40)
        base = solve_least_squares((H, r))
        scaled = solve_least_squares((7.3 * H, 7.3 * r))
        assert np.abs(base.coefficients - scaled.coefficients).max() < 1e-10


def _gram_condition(H):
    return solve_least_squares((H, np.zeros(H.shape[0]))).gram_condition


class TestConditionNumber:
    def test_identity(self):
        assert _gram_condition(np.eye(6)) == 1.0

    def test_diagonal_squares(self):
        H = np.diag([1.0, 10.0])
        assert abs(_gram_condition(H) - 100.0) < 1e-10

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(9)
        H = rng.normal(size=(20, 5))
        s = np.linalg.svd(H, compute_uv=False)
        want = (s[0] / s[-1]) ** 2
        got = _gram_condition(H)
        assert abs(got - want) < 1e-6 * want

    def test_rank_deficient_reports_inf(self):
        H = np.ones((8, 3))
        assert _gram_condition(H) == np.inf

    def test_estimate_path_within_factor_two(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "DENSE_SOLVE_LIMIT", 10)
        rng = np.random.default_rng(10)
        H = rng.normal(size=(120, 40)) + np.vstack([np.eye(40) * 5] * 3)
        s = np.linalg.svd(H, compute_uv=False)
        want = (s[0] / s[-1]) ** 2
        got = _gram_condition(sp.csr_matrix(H))
        assert want / 2 <= got <= want * 2


class TestOneFactorization:
    """Full-rank dense-path systems are factored by one Cholesky only."""

    @pytest.fixture
    def cholesky_calls(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a second factorization was run")
        monkeypatch.setattr(scipy.linalg, "lstsq", refuse)
        monkeypatch.setattr(solver_mod.spla, "splu", refuse)
        return _count_calls(monkeypatch, scipy.linalg, "cholesky")

    def test_sparse_system(self, cholesky_calls):
        rng = np.random.default_rng(15)
        H = sp.vstack([sp.random(500, 250, density=0.02, random_state=16,
                                 data_rvs=rng.standard_normal),
                       sp.eye(250)]).tocsr()
        res = solve_least_squares((H, rng.normal(size=750)))
        assert cholesky_calls == [(250, 250)]
        assert not res.rank_deficient and np.isfinite(res.gram_condition)

    @pytest.mark.parametrize("space_kind", ["tensor-product", "type5"])
    def test_ipbf_system(self, cholesky_calls, sphere_boundary, space_kind):
        if space_kind == "type5":
            space = build_s0d_space(build_type5_partition(UNIT_BOX, 3), 4)
        else:
            space = build_tp_space(UNIT_BOX, 4, (4, 4, 4))
        system = assemble_ipbf(space, make_preset("sin5", "laplace"),
                               sphere_boundary, LAM, LAM_S)
        res = solve_least_squares(system)
        assert cholesky_calls == [(space.dim, space.dim)]
        assert not res.rank_deficient and res.method == "dense-qr"


class TestErrors:
    def test_exact_solution_zero_errors(self):
        space = build_tp_space(UNIT_BOX, 3, (2, 2, 2))
        truth = lambda p: p[:, 0] ** 2
        coeffs = interpolate_tp(space, truth)
        pts = np.random.default_rng(11).random((100, 3))
        err = evaluate_errors(space, coeffs, truth, pts)
        assert err.emax < 1e-13 and err.rms < 1e-13

    def test_constant_offset(self):
        space = build_tp_space(UNIT_BOX, 3, (2, 2, 2))
        coeffs = interpolate_tp(space, lambda p: p[:, 0])
        truth = lambda p: p[:, 0] + 1e-3
        pts = np.random.default_rng(12).random((50, 3))
        err = evaluate_errors(space, coeffs, truth, pts)
        assert abs(err.emax - 1e-3) < 1e-12
        assert abs(err.rms - 1e-3) < 1e-12

    def test_two_point_arithmetic(self):
        # errors {3, 4}: emax 4, rms sqrt(12.5)
        space = build_tp_space(UNIT_BOX, 2, (1, 1, 1))
        coeffs = interpolate_tp(space, lambda p: np.zeros(len(p)))

        def truth(p):
            return np.where(p[:, 0] < 0.5, 3.0, 4.0)

        err = evaluate_errors(space, coeffs, truth,
                              np.array([[0.1, 0.5, 0.5], [0.9, 0.5, 0.5]]))
        assert err.emax == 4.0
        assert abs(err.rms - np.sqrt(12.5)) < 1e-14
        assert err.rms <= err.emax

    def test_empty_set_rejected(self):
        space = build_tp_space(UNIT_BOX, 2, (1, 1, 1))
        with pytest.raises(ValueError):
            evaluate_errors(space, np.ones(8), lambda p: p[:, 0],
                            np.zeros((0, 3)))


class TestConvergenceRate:
    def test_halving(self):
        # e halves when h halves: rate one
        assert abs(convergence_rate(1.0, 0.5, 3, 5) - 1.0) < 1e-14

    def test_ratio_sixteen(self):
        assert abs(convergence_rate(1.6e-3, 1e-4, 3, 5) - 4.0) < 1e-14

    def test_reference_table_value(self):
        # errors 5.99e-4 -> 1.78e-4 from m=5 to m=6 give rate 5.44
        rate = convergence_rate(5.99e-4, 1.78e-4, 5, 6)
        assert abs(rate - 5.44) < 0.01

    @pytest.mark.parametrize("p", [1.0, 2.5, 4.0, 6.5, 8.0])
    def test_synthetic_rates_invert(self, p):
        for m1, m2 in [(3, 4), (5, 8), (4, 9)]:
            e1 = 2.7 * (1.0 / (m1 - 1)) ** p
            e2 = 2.7 * (1.0 / (m2 - 1)) ** p
            assert abs(convergence_rate(e1, e2, m1, m2) - p) < 1e-12

    def test_zero_error_reported_exact(self):
        assert convergence_rate(0.0, 1e-4, 3, 4) == np.inf
        assert convergence_rate(1e-4, 0.0, 3, 4) == np.inf

    def test_bad_m_ordering(self):
        with pytest.raises(ValueError):
            convergence_rate(1.0, 0.5, 5, 5)
        with pytest.raises(ValueError):
            convergence_rate(1.0, 0.5, 1, 4)
