#!/usr/bin/env python3
"""Construct symmetric Gauss-type quadrature rules on the reference tetrahedron.

Writes ``src/ipbm/_tet_tables.py`` containing barycentric nodes and weights
for rules exact to degree 4, 6, 8, 10 and 12 with 14, 24, 46, 81 and 168
points respectively.

Method: rules are sought as unions of orbits of the symmetry group of the
tetrahedron acting on barycentric coordinates.  Orbit types (sizes):

    S4     (1)   (1/4, 1/4, 1/4, 1/4)
    S31    (4)   (a, a, a, 1-3a)
    S22    (6)   (a, a, 1/2-a, 1/2-a)
    S211   (12)  (a, a, b, 1-2a-b)
    S1111  (24)  (a, b, c, 1-a-b-c)

For symmetric point sets it suffices to impose one moment equation per
partition of the exactness degree.  A rule is accepted when every moment
matches to 1e-13 relative, all weights are strictly positive, all nodes are
strictly interior and pairwise distinct (``Structure.acceptable``).

Each degree is found by node elimination within its time budget.
Moments are imposed on an orthonormal basis of the S4-invariant
polynomials, built by Arnoldi from the power sums p2, p3, p4 of b - 1/4.
NNLS over a grid of candidate orbits gives an exact positive rule with a
few hundred points.  Orbits are then dropped, or two generator entries
merged (S1111 -> S211 -> S31/S22 -> S4), each step followed by a
Gauss-Newton correction that keeps the rule positive and interior.  A
rule that falls below the target is padded with light orbits; one that
sticks above it is tried with combinations of up to three moves that
land on the target.  Each attempt uses its own seed, so runs are
reproducible.  Degree 12 needs an S1111 orbit: the squared Vandermonde
of the barycentric coordinates is invariant, has degree 12, and vanishes
on every orbit with a repeated coordinate.

A rule found is polished once more on the relative monomial residuals
and checkpointed into the tables file; a degree the search misses is
reported and left out, and the run then exits 1.  Run from the
repository root: ``python tools/generate_tet_rules.py``.  Degrees
already in the tables are kept.
"""

import itertools
import sys
import time
from math import factorial
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares, nnls

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from ipbm.quadrature import _conical_product_barycentric  # noqa: E402

ORBIT_NPARAM = {"S4": 0, "S31": 1, "S22": 1, "S211": 2, "S1111": 3}
ORBIT_SIZE = {"S4": 1, "S31": 4, "S22": 6, "S211": 12, "S1111": 24}

TARGETS = {4: 14, 6: 24, 8: 46, 10: 81, 12: 168}


def _distinct_perms(pattern):
    """Index permutations producing each distinct rearrangement once."""
    seen, perms = set(), []
    for sigma in itertools.permutations(range(4)):
        key = tuple(pattern[i] for i in sigma)
        if key not in seen:
            seen.add(key)
            perms.append(sigma)
    return np.array(perms)

PERMS = {
    "S4": _distinct_perms("aaaa"),
    "S31": _distinct_perms("aaab"),
    "S22": _distinct_perms("aabb"),
    "S211": _distinct_perms("aabc"),
    "S1111": _distinct_perms("abcd"),
}


def generator_tuple(kind, params):
    if kind == "S4":
        return np.array([0.25, 0.25, 0.25, 0.25])
    if kind == "S31":
        a = params[0]
        return np.array([a, a, a, 1.0 - 3.0 * a])
    if kind == "S22":
        a = params[0]
        return np.array([a, a, 0.5 - a, 0.5 - a])
    if kind == "S211":
        a, b = params
        return np.array([a, a, b, 1.0 - 2.0 * a - b])
    a, b, c = params
    return np.array([a, b, c, 1.0 - a - b - c])


def partitions_of(n, parts=4):
    """Partitions of n into at most `parts` parts, as padded tuples."""
    def rec(n, maxpart, left):
        if n == 0:
            yield ()
            return
        if left == 0:
            return
        for first in range(min(n, maxpart), 0, -1):
            for rest in rec(n - first, first, left - 1):
                yield (first,) + rest
    return [p + (0,) * (parts - len(p)) for p in rec(n, n, parts)]


class Structure:
    def __init__(self, degree, orbits):
        self.degree = degree
        self.orbits = list(orbits)
        self.alphas = np.array(partitions_of(degree))
        self.moments = np.array([
            6.0 * np.prod([factorial(a) for a in al]) / factorial(degree + 3)
            for al in self.alphas
        ])
        self.nparams = sum(ORBIT_NPARAM[k] for k in self.orbits)
        self.npoints = sum(ORBIT_SIZE[k] for k in self.orbits)
        # per-orbit slices into the expanded point array
        self.slices = []
        pos = 0
        for kind in self.orbits:
            self.slices.append(slice(pos, pos + ORBIT_SIZE[kind]))
            pos += ORBIT_SIZE[kind]

    def split(self, params):
        out, pos = [], 0
        for kind in self.orbits:
            n = ORBIT_NPARAM[kind]
            out.append((kind, params[pos:pos + n]))
            pos += n
        return out

    def points(self, params):
        rows = []
        for kind, p in self.split(params):
            gen = generator_tuple(kind, p)
            rows.append(gen[PERMS[kind]])
        return np.vstack(rows)

    def _monomial_sums(self, params):
        """Matrix A with A[m, o] = sum over orbit o's points of b^alpha_m."""
        pts = self.points(params)
        # cumulative powers: pw[e] = pts**e
        pw = np.ones((self.degree + 1,) + pts.shape)
        for e in range(1, self.degree + 1):
            pw[e] = pw[e - 1] * pts
        vals = (pw[self.alphas[:, 0], :, 0] * pw[self.alphas[:, 1], :, 1]
                * pw[self.alphas[:, 2], :, 2] * pw[self.alphas[:, 3], :, 3])
        return np.stack([vals[:, s].sum(axis=1) for s in self.slices], axis=1)

    def residual(self, x):
        A = self._monomial_sums(x[:self.nparams])
        return (A @ x[self.nparams:] - self.moments) / self.moments

    def sample_params(self, rng):
        params = []
        for kind in self.orbits:
            if kind == "S31":
                params.append(rng.uniform(0.002, 0.331))
            elif kind == "S22":
                params.append(rng.uniform(0.002, 0.498))
            elif kind == "S211":
                while True:
                    a = rng.uniform(0.002, 0.49)
                    b = rng.uniform(0.002, 0.98)
                    if 1.0 - 2.0 * a - b > 0.002:
                        break
                params.extend([a, b])
            elif kind == "S1111":
                params.extend(rng.dirichlet([1.2, 1.2, 1.2, 1.2])[:3])
        return np.array(params)

    def expand(self, x):
        pts = self.points(x[:self.nparams])
        w = np.concatenate([
            np.full(ORBIT_SIZE[k], wi)
            for k, wi in zip(self.orbits, x[self.nparams:])
        ])
        return pts, w

    def acceptable(self, x):
        if not np.all(np.isfinite(x)):
            return False
        if np.max(np.abs(self.residual(x))) > 1e-13:
            return False
        pts, w = self.expand(x)
        if w.min() <= 1e-9 or pts.min() <= 1e-9:
            return False
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, 1.0)
        return d2.min() > 1e-14


# ---------------------------------------------------------------------------
# Node elimination

# d(generator)/d(params) per orbit kind; generators are affine in params.
GEN_JAC = {
    "S4": np.zeros((4, 0)),
    "S31": np.array([[1.0], [1.0], [1.0], [-3.0]]),
    "S22": np.array([[1.0], [1.0], [-1.0], [-1.0]]),
    "S211": np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-2.0, -1.0]]),
    "S1111": np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [-1.0, -1, -1]]),
}
GEN_JAC3 = {k: np.pad(v, ((0, 0), (0, 3 - v.shape[1]))) for k, v in GEN_JAC.items()}


class InvariantBasis:
    """Orthonormal S4-invariant polynomials of degree <= p on the tet.

    Vandermonde-with-Arnoldi on the invariant ring: each new function is an
    earlier one times a power sum p2, p3 or p4 of c = b - 1/4,
    orthogonalized (twice) against all earlier ones under a degree-2p rule.
    """

    def __init__(self, degree):
        exps = sorted(((i, j, k) for i in range(degree // 2 + 1)
                       for j in range(degree // 3 + 1)
                       for k in range(degree // 4 + 1)
                       if 2 * i + 3 * j + 4 * k <= degree),
                      key=lambda e: (2 * e[0] + 3 * e[1] + 4 * e[2], e))
        bary, w = _conical_product_barycentric(2 * degree)
        self.steps = []           # (source index, power-sum index, h vector)
        index = {exps[0]: 0}
        psum = self._psums(bary)
        vals = [np.ones(len(w))]
        for e in exps[1:]:
            for k, src_e in enumerate([(e[0] - 1, e[1], e[2]),
                                         (e[0], e[1] - 1, e[2]),
                                         (e[0], e[1], e[2] - 1)]):
                if src_e in index:
                    src = index[src_e]
                    break
            v = psum[k] * vals[src]
            V = np.array(vals)
            h = np.zeros(len(vals) + 1)
            for _ in range(2):
                c = V @ (w * v)
                v = v - c @ V
                h[:-1] += c
            h[-1] = np.sqrt(w @ (v * v))
            vals.append(v / h[-1])
            index[e] = len(vals) - 1
            self.steps.append((src, k, h))
        self.moments = np.array(vals) @ w

    @staticmethod
    def _psums(b):
        c = b - 0.25
        return [np.sum(c ** 2, axis=1), np.sum(c ** 3, axis=1),
                np.sum(c ** 4, axis=1)]

    def __call__(self, b, grad=False):
        c = b - 0.25
        ps = self._psums(b)
        vals = [np.ones(len(b))]
        if grad:
            dps = [2 * c, 3 * c ** 2, 4 * c ** 3]       # (n, 4) each
            grads = [np.zeros_like(b)]
        for src, k, h in self.steps:
            v = ps[k] * vals[src] - np.array(vals).T @ h[:-1]
            vals.append(v / h[-1])
            if grad:
                gv = dps[k] * vals[src][:, None] + ps[k][:, None] * grads[src] \
                    - np.tensordot(h[:-1], np.array(grads), axes=(0, 0))
                grads.append(gv / h[-1])
        V = np.array(vals).T
        if not grad:
            return V
        return V, np.moveaxis(np.array(grads), 0, 2)   # (n, 4, nb)


class Rule:
    """Orbit kinds, generator parameters and per-point weights of a rule."""

    def __init__(self, kinds, params, w):
        self.kinds = list(kinds)
        self.params = [np.array(p, float) for p in params]
        self.w = np.array(w, float)

    def copy(self):
        return Rule(self.kinds, [p.copy() for p in self.params], self.w.copy())

    @property
    def npoints(self):
        return sum(ORBIT_SIZE[k] for k in self.kinds)

    @property
    def nunknowns(self):
        return sum(1 + ORBIT_NPARAM[k] for k in self.kinds)

    def gen(self, o):
        return generator_tuple(self.kinds[o], self.params[o])

    def feasible(self, margin=1e-7):
        return (np.all(np.isfinite(self.w)) and self.w.min() > 0
                and all(self.gen(o).min() > margin for o in range(len(self.kinds))))

    def pack(self):
        return np.concatenate(self.params + [self.w])

    def unpack(self, x):
        pos = 0
        for o, k in enumerate(self.kinds):
            n = ORBIT_NPARAM[k]
            self.params[o] = x[pos:pos + n].copy()
            pos += n
        self.w = x[pos:].copy()

    def offset(self, o):
        return sum(ORBIT_NPARAM[k] for k in self.kinds[:o])

    def drop(self, o):
        new = self.copy()
        del new.kinds[o]; del new.params[o]
        new.w = np.delete(new.w, o)
        return new


def residual_jac(basis, rule):
    """Invariant-basis moment residual and its Jacobian (params, weights)."""
    pts = np.vstack([rule.gen(o)[PERMS[k]] for o, k in enumerate(rule.kinds)])
    D = np.vstack([GEN_JAC3[k][PERMS[k]] for k in rule.kinds])
    starts = np.cumsum([0] + [ORBIT_SIZE[k] for k in rule.kinds])[:-1]
    val, dv = basis(pts, grad=True)
    S = np.add.reduceat(val, starts, axis=0)
    dP = np.add.reduceat(np.einsum('nmb,nmq->nbq', dv, D), starts, axis=0)
    r = rule.w @ S - basis.moments
    cols = [rule.w[o] * dP[o, :, :ORBIT_NPARAM[k]] for o, k in enumerate(rule.kinds)]
    return r, np.column_stack(cols + [S.T])


def newton(basis, rule, tol=1e-12, maxit=60, con=None):
    """Gauss-Newton in place, with step halving that keeps the rule
    positive and interior; con = (c, d) adds the row c.x = d.
    """
    def resid(rl):
        r, J = residual_jac(basis, rl)
        if con is not None:
            c, d = con
            r = np.append(r, c @ rl.pack() - d); J = np.vstack([J, c])
        return r, J
    r, J = resid(rule)
    nr = np.linalg.norm(r)
    scale = np.ones(J.shape[1])
    scale[J.shape[1] - len(rule.w):] = np.mean(rule.w)
    for it in range(maxit):
        if nr < tol:
            return True
        dx = -np.linalg.lstsq(J * scale, r, rcond=None)[0] * scale
        x0 = rule.pack()
        t = 1.0
        while t > 1e-4:
            trial = rule.copy(); trial.unpack(x0 + t * dx)
            if trial.feasible():
                r2, J2 = resid(trial)
                n2 = np.linalg.norm(r2)
                if n2 < nr * (1 - 1e-4 * t) or n2 < tol:
                    break
            t *= 0.5
        else:
            return nr < 1e-10
        rule.unpack(trial.pack()); r, J, nr = r2, J2, n2
    return nr < tol


def merged(rule, o, i, j):
    """Orbit o with the clusters of generator entries i and j merged."""
    t = rule.gen(o)
    ci, cj = t == t[i], t == t[j]
    both = ci | cj
    t = t.copy(); t[both] = t[both].mean()
    vals, counts = np.unique(t, return_counts=True)
    pattern = tuple(sorted(counts, reverse=True))
    if pattern == (4,):
        kind, p = "S4", []
    elif pattern == (3, 1):
        kind, p = "S31", [vals[counts == 3][0]]
    elif pattern == (2, 2):
        kind, p = "S22", [vals.min()]
    else:
        kind, p = "S211", [vals[counts == 2][0], vals[counts == 1][0]]
    new = rule.copy()
    size = ORBIT_SIZE[rule.kinds[o]]
    new.kinds[o], new.params[o] = kind, np.array(p)
    new.w[o] *= size / ORBIT_SIZE[kind]
    return new


def merge_constraint(rule, o, i, j):
    """(c, const): c.x + const = t_i - t_j for orbit o's generator."""
    c = np.zeros(len(rule.pack()))
    k = rule.kinds[o]
    G = GEN_JAC[k]
    pos = rule.offset(o)
    c[pos:pos + G.shape[1]] = G[i] - G[j]
    t0 = generator_tuple(k, np.zeros(G.shape[1]))
    return c, t0[i] - t0[j]


def moves(rule, rng, noise, allow_s4):
    """Drops and merges, most points lost per unknown first, then least
    orbit weight (log-normal noise of the given width breaks ties).
    """
    out = []
    has_s4 = "S4" in rule.kinds
    for o, kind in enumerate(rule.kinds):
        size = ORBIT_SIZE[kind]
        W = rule.w[o] * size * np.exp(noise * rng.normal())
        if kind != "S4":
            out.append((-size / (1 + ORBIT_NPARAM[kind]), W, o, None))
        t = rule.gen(o)
        done = set()
        for i in range(4):
            for j in range(i + 1, 4):
                if t[i] == t[j]:
                    continue
                key = (t[i], t[j])
                if key in done:
                    continue
                done.add(key)
                new = merged(rule, o, i, j)
                if new.kinds[o] == "S4" and (has_s4 or not allow_s4):
                    continue
                lost = size - ORBIT_SIZE[new.kinds[o]]
                out.append((-lost, W * abs(t[i] - t[j]), o, (i, j)))
    return sorted(out, key=lambda m: m[:2])


def apply_move(rule, mv):
    _, _, o, ij = mv
    return rule.drop(o) if ij is None else merged(rule, o, *ij)


def try_move(basis, rule, mv, continuation):
    """Apply a move and correct; with continuation, shrink the dropped
    weight or the merged gap step by step instead.  None on failure.
    """
    _, _, o, ij = mv
    new = apply_move(rule, mv)
    if newton(basis, new):
        return new
    if not continuation:
        return None
    cur = rule.copy()
    if ij is None:
        c = np.zeros(len(cur.pack())); c[len(c) - len(cur.w) + o] = 1.0
        const = 0.0
    else:
        c, const = merge_constraint(cur, o, *ij)
    base = c @ cur.pack() + const
    s, h = 0.0, 0.25
    while s < 1.0:
        h = min(h, 1.0 - s)
        trial = cur.copy()
        if newton(basis, trial, con=(c, base * (1 - s - h) - const), maxit=30):
            cur, s = trial, s + h
            h *= 2
        else:
            h /= 2
            if h < 1.0 / 256:
                W = cur.w * np.array([ORBIT_SIZE[k] for k in cur.kinds])
                W[o] = np.inf
                k = int(np.argmin(W))
                if W[k] < 1e-3 * np.mean(W[np.isfinite(W)]):
                    alt = cur.drop(k)
                    if newton(basis, alt):
                        return alt
                return None
    new = apply_move(cur, mv)
    return new if newton(basis, new) else None


def candidates(rng, n, s1111):
    """Jittered grid of S31, S22, S211 (and random S1111) orbits."""
    kinds, params = [], []
    j = lambda: rng.uniform(-0.5, 0.5) / n
    for a in np.linspace(0, 1/3, n + 2)[1:-1]:
        a += j() / 3
        if abs(a - .25) > 1e-3:
            kinds.append("S31"); params.append([a])
    for a in np.linspace(0, .25, n + 1)[1:-1]:
        kinds.append("S22"); params.append([a + j() / 4])
    for a in np.linspace(0, .5, n + 1)[1:-1]:
        for b in np.linspace(0, 1, 2 * n + 1)[1:-1]:
            a2, b2 = a + j() / 2, b + j()
            c = 1 - 2 * a2 - b2
            if min(a2, b2, c) > 1e-3 and b2 < c - 1e-3 and min(abs(a2 - b2), abs(a2 - c)) > 1e-3:
                kinds.append("S211"); params.append([a2, b2])
    if s1111:
        m = max(4, n // 2)
        for _ in range(m ** 3):
            p = np.sort(rng.dirichlet([1, 1, 1, 1]))
            if np.diff(p).min() > 1e-3 and p.min() > 1e-3:
                kinds.append("S1111"); params.append(p[:3])
    return kinds, params


def initial_rule(basis, rng, n, s1111):
    """Exact positive rule on the candidate orbits, by NNLS."""
    kinds, params = candidates(rng, n, s1111)
    cand = Rule(kinds, params, np.ones(len(kinds)))
    A = np.column_stack([basis(cand.gen(o)[PERMS[k]]).sum(0) for o, k in enumerate(kinds)])
    x, res = nnls(A, basis.moments, maxiter=50 * len(kinds))
    keep = np.flatnonzero(x > 0)
    return Rule([kinds[i] for i in keep], [params[i] for i in keep], x[keep])


def eliminate(basis, rule, stop_pts, min_unk, rng, noise, allow_s4):
    """Greedy moves until stop_pts points or no move keeps the rule exact."""
    while rule.npoints > stop_pts:
        mvs = [mv for mv in moves(rule, rng, noise, allow_s4)
               if apply_move(rule, mv).nunknowns >= min_unk]
        new = None
        for cont in (False, True):
            for mv in (mvs[:12] if cont else mvs):
                new = try_move(basis, rule, mv, cont)
                if new is not None:
                    break
            if new is not None:
                break
        if new is None:
            break
        rule = new
    return rule


def padding(diff, need_s4):
    """Orbit kinds whose sizes add to diff (S4 first if needed)."""
    kinds = []
    if need_s4:
        kinds.append("S4"); diff -= 1
    if diff < 0 or diff == 2 or diff % 2:
        return None
    while diff >= 12 and diff != 14:
        kinds.append("S211"); diff -= 12
    if diff % 4 == 2:
        kinds.append("S22"); diff -= 6
    kinds += ["S31"] * (diff // 4)
    return kinds


def pad(basis, rule, target, rng, tries=50):
    """Add light orbits at random nodes up to target points, then correct."""
    kinds = padding(target - rule.npoints, target % 2 == 1 and "S4" not in rule.kinds)
    if kinds is None:
        return None
    st = Structure(2, kinds)
    for _ in range(tries):
        new = rule.copy()
        p = st.sample_params(rng)
        for kind, q in st.split(p):
            new.kinds.append(kind); new.params.append(np.array(q))
        new.w = np.concatenate([rule.w, np.full(len(kinds), 0.1 * rule.w.min())])
        if new.feasible(1e-3) and newton(basis, new):
            return new
    return None


def newton_free(basis, rule, tol=1e-12, maxit=80):
    """Gauss-Newton that may leave the simplex on the way; feasibility checked after."""
    r, J = residual_jac(basis, rule)
    nr = np.linalg.norm(r)
    scale = np.ones(J.shape[1]); scale[J.shape[1] - len(rule.w):] = max(np.mean(np.abs(rule.w)), 1e-12)
    for it in range(maxit):
        if nr < tol:
            break
        dx = -np.linalg.lstsq(J * scale, r, rcond=None)[0] * scale
        x0 = rule.pack(); t = 1.0
        while t > 1e-5:
            trial = rule.copy(); trial.unpack(x0 + t * dx)
            with np.errstate(all="ignore"):
                r2, J2 = residual_jac(basis, trial)
            n2 = np.linalg.norm(r2)
            if np.isfinite(n2) and n2 < nr:
                break
            t *= 0.5
        else:
            break
        rule.unpack(trial.pack()); r, J, nr = r2, J2, n2
    return nr < 1e-10 and rule.feasible(1e-9)


def combos(basis, rule, target, rng, E, max_tries):
    """Up to three simultaneous moves landing within 8 points of target."""
    odd = target % 2
    mv1 = moves(rule, rng, 0.0, bool(odd))
    tried = 0
    for depth in (1, 2, 3):
        for combo in itertools.combinations(range(len(mv1)), depth):
            orbs = [mv1[i][2] for i in combo]
            if len(set(orbs)) < depth:
                continue
            new = rule
            for i in sorted(combo, key=lambda i: -mv1[i][2]):
                new = apply_move(new, mv1[i])
            has4 = "S4" in new.kinds
            need = target - new.npoints
            if need < 0 or need > 8:
                continue
            em = E - (1 if (odd and not has4) else 0)
            if new.nunknowns < em:
                continue
            tried += 1
            if tried > max_tries:
                return None, tried
            trial = new.copy()
            if newton_free(basis, trial):
                if trial.npoints == target:
                    return trial, tried
                p = pad(basis, trial, target, rng)
                if p is not None:
                    return p, tried
    return None, tried


def eliminate_search(degree, npoints, budget_s, max_combos=300):
    """Node elimination from dense NNLS rules, one seeded attempt at a time.

    Each attempt eliminates orbits down to the target, then either pads a
    rule that fell below it with light orbits, or tries combinations of
    moves that land on it.  Returns Structure-form (orbits, x) or None.
    """
    basis = InvariantBasis(degree)
    nconds = len(basis.moments)
    odd = npoints % 2
    t0 = time.time()
    seed = 0
    while time.time() - t0 < budget_s:
        seed += 1
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 26))
        noise = float(rng.choice([0.0, 0.5, 1.5]))
        s1111 = bool(rng.integers(2)) or degree >= 12
        rule = initial_rule(basis, rng, n, s1111)
        if not newton(basis, rule):
            continue
        rule = eliminate(basis, rule, npoints, nconds, rng, noise, bool(odd))
        got = None
        while got is None and rule.npoints <= npoints:
            got = pad(basis, rule, npoints, rng)
            if got is None:
                shorter = eliminate(basis, rule, rule.npoints - 1, nconds,
                                    rng, 0.0, bool(odd))
                if shorter.npoints == rule.npoints:
                    break
                rule = shorter
        if got is None and rule.npoints > npoints:
            got, _ = combos(basis, rule, npoints, rng, nconds, max_combos)
        print(f"  degree {degree}: elimination seed {seed} ended at "
              f"{rule.npoints} points, {rule.nunknowns} unknowns"
              f"{', solved' if got else ''}, {time.time() - t0:.0f}s",
              flush=True)
        if got is not None and got.npoints == npoints:
            return got.kinds, got.pack()
    return None


def polish(degree, orbits, x):
    """Joint LM polish on the relative monomial residuals; None if rejected."""
    st = Structure(degree, orbits)
    full = least_squares(st.residual, x,
                         method="lm" if len(st.moments) >= len(x) else "trf",
                         xtol=1e-15, ftol=1e-15, gtol=1e-15,
                         max_nfev=200 * (len(x) + 1))
    if not st.acceptable(full.x):
        return None
    err = np.max(np.abs(st.residual(full.x)))
    print(f"degree {degree}: orbits={orbits}, max rel err {err:.2e}",
          flush=True)
    return st.expand(full.x)


def write_tables(results, path="src/ipbm/_tet_tables.py"):
    with open(path, "w") as f:
        f.write('"""Symmetric quadrature tables for the reference tetrahedron.\n\n')
        f.write("Generated by tools/generate_tet_rules.py; do not edit by hand.\n")
        f.write("Nodes are barycentric 4-tuples; weights sum to one, so they\n")
        f.write("are multiplied by the target tetrahedron volume on use.\n")
        f.write('"""\n\n')
        f.write("TET_TABLES = {\n")
        for degree in sorted(results):
            pts, wts = results[degree]
            order = np.lexsort(pts.T)
            pts, wts = pts[order], wts[order]
            f.write(f"    {degree}: (\n        [\n")
            for p in pts:
                f.write("            [%.17e, %.17e, %.17e, %.17e],\n" % tuple(p))
            f.write("        ],\n        [\n")
            for w in wts:
                f.write("            %.17e,\n" % w)
            f.write("        ],\n    ),\n")
        f.write("}\n")
    print(f"wrote {path}: degrees {sorted(results)}", flush=True)


def main():
    budgets = {4: 600, 6: 1800, 8: 7200, 10: 14400, 12: 21600}
    results = {}
    try:
        from ipbm._tet_tables import TET_TABLES as existing
        for degree, (pts, wts) in existing.items():
            results[degree] = (np.asarray(pts), np.asarray(wts))
        print("resuming with existing degrees", sorted(results), flush=True)
    except ImportError:
        pass
    missed = []
    for degree, npoints in TARGETS.items():
        if degree in results:
            continue
        got = eliminate_search(degree, npoints, budgets[degree])
        if got is not None:
            got = polish(degree, *got)
        if got is None:
            print(f"degree {degree}: no {npoints}-point rule found within "
                  f"{budgets[degree]} s", flush=True)
            missed.append(degree)
            continue
        results[degree] = got
        write_tables(results)
    print("generation finished:", sorted(results), flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
