import numpy as np
import pytest
import scipy.sparse as sp

import ipbm.solver as solver_mod
from ipbm.solver import convergence_rate, evaluate_errors, solve_least_squares
from ipbm.tp_spline import build_tp_space, interpolate_tp

UNIT_BOX = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])


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
