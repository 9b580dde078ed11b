import numpy as np
import pytest

from ipbm import quadrature
from ipbm.quadrature import (QuadratureRule, box_rule, gauss_legendre,
                             gauss_legendre_on_interval,
                             simplex_monomial_integral, tet_rule,
                             TET_TABLE_DEGREES, TET_TABLES)

REF_TET = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


class TestGaussLegendre:
    def test_single_point_is_midpoint(self):
        rule = gauss_legendre(1)
        assert rule.nodes[0] == 0.0
        assert rule.weights[0] == 2.0

    def test_two_points(self):
        rule = gauss_legendre(2)
        assert np.allclose(np.abs(rule.nodes), 1.0 / np.sqrt(3.0), atol=1e-15)
        assert np.allclose(rule.weights, 1.0, atol=1e-15)

    def test_degree_eight_monomial(self):
        # analytic oracle: integral of x^8 over [-1, 1] is 2/9
        rule = gauss_legendre(5)
        assert abs(rule.weights @ rule.nodes ** 8 - 2.0 / 9.0) < 1e-14

    @pytest.mark.parametrize("n", range(1, 31))
    def test_matches_numpy_leggauss(self, n):
        rule = gauss_legendre(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        assert np.abs(rule.nodes - x_ref).max() < 5e-15
        assert np.abs(rule.weights - w_ref).max() < 5e-15

    @pytest.mark.parametrize("n", [1, 4, 9, 17, 30])
    def test_symmetry_and_exactness(self, n):
        rule = gauss_legendre(n)
        assert np.allclose(rule.nodes, -rule.nodes[::-1])
        for k in range(2 * n):
            want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            got = rule.weights @ rule.nodes ** k
            assert abs(got - want) < 1e-13

    @pytest.mark.parametrize("n", [0, 31, -2])
    def test_point_count_range(self, n):
        with pytest.raises(ValueError):
            gauss_legendre(n)

    def test_interval_map(self):
        x, w = gauss_legendre_on_interval(3, 2.0, 5.0)
        assert abs(w.sum() - 3.0) < 1e-14
        assert abs(w @ x ** 2 - (125.0 - 8.0) / 3.0) < 1e-12


class TestBoxRule:
    def test_unit_volume(self):
        rule = box_rule([[0, 0, 0], [1, 1, 1]], (2, 2, 2))
        assert abs(rule.weights.sum() - 1.0) < 1e-14

    def test_mixed_monomial(self):
        # integral of x^3 y^2 z over the unit box = 1/4 * 1/3 * 1/2
        rule = box_rule([[0, 0, 0], [1, 1, 1]], (2, 2, 2))
        v = rule.nodes
        got = rule.weights @ (v[:, 0] ** 3 * v[:, 1] ** 2 * v[:, 2])
        assert abs(got - 1.0 / 24.0) < 1e-14

    def test_midpoint_exact_for_linear(self):
        rule = box_rule([[0, 0, 0], [2, 2, 2]], (1, 1, 1))
        assert abs(rule.weights @ rule.nodes[:, 0] - 8.0) < 1e-13

    def test_anisotropic_exactness(self):
        rule = box_rule([[0, -1, 2], [1, 1, 3]], (3, 2, 4))
        v = rule.nodes
        # x^5 y^2 z^6 over [0,1]x[-1,1]x[2,3], analytic factors
        want = (1.0 / 6.0) * (2.0 / 3.0) * ((3.0 ** 7 - 2.0 ** 7) / 7.0)
        got = rule.weights @ (v[:, 0] ** 5 * v[:, 1] ** 2 * v[:, 2] ** 6)
        assert abs(got - want) < 1e-12 * abs(want)

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            box_rule([[0, 0, 0], [1, 0, 1]], (2, 2, 2))


def _moment_sweep(rule, degree):
    worst = 0.0
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            for k in range(degree + 1 - i - j):
                got = rule.weights @ (rule.nodes[:, 0] ** i
                                      * rule.nodes[:, 1] ** j
                                      * rule.nodes[:, 2] ** k)
                want = simplex_monomial_integral(i, j, k)
                worst = max(worst, abs(got - want) / abs(want))
    return worst


class TestTetRule:
    @pytest.mark.parametrize("mq", TET_TABLE_DEGREES)
    def test_reference_moments(self, mq):
        rule = tet_rule(REF_TET, mq)
        assert _moment_sweep(rule, mq) < 1e-12

    @pytest.mark.parametrize("mq", TET_TABLE_DEGREES)
    def test_tables_positive_and_interior(self, mq):
        assert mq in TET_TABLES, f"embedded table for degree {mq} missing"
        bary = np.array(TET_TABLES[mq][0])
        weights = np.array(TET_TABLES[mq][1])
        assert weights.min() > 0.0
        assert bary.min() > 0.0
        assert np.abs(bary.sum(axis=1) - 1.0).max() < 1e-14

    def test_wrong_table_raises_on_first_use(self, monkeypatch):
        # a table whose moments are off must not degrade assembly silently
        bary = np.array(TET_TABLES[4][0])
        weights = np.array(TET_TABLES[4][1])
        weights = weights * (1.0 + 1e-6 * np.arange(len(weights)))
        weights /= weights.sum()
        monkeypatch.setitem(quadrature.TET_TABLES, 4, (bary, weights))
        monkeypatch.setattr(quadrature, "_checked_tables", set())
        with pytest.raises(AssertionError, match="moment"):
            tet_rule(REF_TET, 4)

    def test_published_node_counts(self):
        # the reference tables for degrees 10 and 12 carry 81 and 168 nodes
        assert len(tet_rule(REF_TET, 10)) == 81
        assert len(tet_rule(REF_TET, 12)) == 168

    def test_volume_weight_sum(self):
        verts = np.array([[0.2, 0.1, 0.0], [1.1, 0.3, 0.2],
                          [0.4, 0.9, -0.1], [0.3, 0.2, 1.4]])
        rule = tet_rule(verts, 6)
        vol = abs(np.linalg.det(verts[1:] - verts[0])) / 6.0
        assert abs(rule.weights.sum() - vol) < 1e-13

    def test_affine_invariance(self):
        rng = np.random.default_rng(11)
        ref = tet_rule(REF_TET, 8)
        for _ in range(5):
            A = rng.normal(size=(3, 3)) + 2 * np.eye(3)
            b = rng.normal(size=3)
            mapped = tet_rule(REF_TET @ A.T + b, 8)
            det = abs(np.linalg.det(A))
            # linear functions integrate consistently under the map
            got = mapped.weights @ mapped.nodes[:, 0]
            want = det * (ref.weights @ (ref.nodes @ A[0] + b[0]))
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_nodes_inside_mapped_tet(self):
        verts = np.array([[0, 0, 0], [2, 0, 0], [0, 3, 0], [0, 0, 4.0]])
        rule = tet_rule(verts, 10)
        mat = np.vstack([verts.T, np.ones(4)])
        bary = np.linalg.solve(mat, np.vstack([rule.nodes.T,
                                               np.ones(len(rule))]))
        assert bary.min() > -1e-13

    @pytest.mark.parametrize("mq", [14, 16])
    def test_conical_fallback_exact(self, mq):
        rule = tet_rule(REF_TET, mq)
        assert _moment_sweep(rule, mq) < 1e-12

    def test_conical_fallback_verified_once(self, monkeypatch):
        calls = []
        verify = quadrature._verify_simplex_rule

        def counting(*args, **kwargs):
            calls.append(args[2])
            return verify(*args, **kwargs)

        monkeypatch.setattr(quadrature, "_verify_simplex_rule", counting)
        quadrature._conical_rule.cache_clear()
        first = tet_rule(REF_TET, 16)
        second = tet_rule(REF_TET, 16)
        assert calls == [16]
        assert np.array_equal(first.nodes, second.nodes)
        bary, weights = quadrature._reference_tet_rule(16)
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 0.0

    @pytest.mark.parametrize("mq", [3, 5, 22, 0])
    def test_degree_validation(self, mq):
        with pytest.raises(ValueError):
            tet_rule(REF_TET, mq)

    def test_degenerate_tet_rejected(self):
        flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]])
        with pytest.raises(ValueError):
            tet_rule(flat, 4)
