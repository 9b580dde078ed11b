"""Workload definitions and the correctness gate for the ipbm benchmark.

Pure data: importing this module does not import ipbm or numpy, so run.py
can validate its arguments and time a fresh interpreter's
``import ipbm`` before anything heavy is loaded.

A workload is a fixed list of ``run_experiment`` requests, given as
keyword arguments of ``ipbm.ExperimentConfig`` without ``seed`` (the
benchmark's ``--seed`` is added).  ``STL_PLACEHOLDER`` in a domain is
replaced by the path of the torus mesh the benchmark writes before
timing.  ``expect`` maps (solution, operator, m) to the expected
unknown count and the largest max / RMS error a correct solve may have.
The error bounds are twice the largest error seen over seeds 1-8 at the
commit that introduced the benchmark; the rates between consecutive m
make them tight enough that a broken assembly or solver trips them.
"""

from dataclasses import dataclass

STL_PLACEHOLDER = "{stl}"

# make_torus_mesh arguments for the torus-stream domain: 9216 triangles.
TORUS_MESH = dict(center=(0.5, 0.5, 0.5), major_radius=0.3,
                  minor_radius=0.12, n_major=96, n_minor=48)

# Warm-up request: the workload's first request shrunk to m=3 on the
# analytic sphere, so lazy set-up (imports inside scipy, cached
# quadrature tables) is paid before timing without touching the STL.
WARMUP_OVERRIDES = dict(domain="sphere", m_list=(3,), nb=200, eval_grid=10)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    requests: tuple
    expect: dict


def _sphere_ipbf(**kw):
    base = dict(domain="sphere", method="IPBF", space="tensor-product",
                degrees=(4, 4, 4), solution="sin5", operator="laplace",
                nb=1000, eval_grid=40)
    base.update(kw)
    return base


_TORUS_SOLUTIONS = ("sin5", "sin5sum", "abs3", "quintic")
_TORUS_OPERATORS = ("laplace", "var-diag")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="tp-sweep",
        why=("paper-style m-sweep on the sphere; dense QR, exact SVD "
             "condition and the tensor-product Galerkin cell loop dominate"),
        requests=(_sphere_ipbf(operator="var-full",
                               m_list=(5, 6, 7, 8, 9, 10)),),
        expect={
            ("sin5", "var-full", 5): (512, 3.5e-2, 4.5e-3),
            ("sin5", "var-full", 6): (729, 1.0e-2, 1.1e-3),
            ("sin5", "var-full", 7): (1000, 4.1e-3, 4.5e-4),
            ("sin5", "var-full", 8): (1331, 1.6e-3, 1.7e-4),
            ("sin5", "var-full", 9): (1728, 8.0e-4, 7.5e-5),
            ("sin5", "var-full", 10): (2197, 4.4e-4, 4.0e-5),
        },
    ),
    Workload(
        name="tet-iterative",
        why=("type-5 tet system of 4273 unknowns; the only sparse path: "
             "normal-equation CG and the splu condition estimate dominate"),
        requests=(_sphere_ipbf(space="type5", m_list=(5,), nb=2000),),
        expect={("sin5", "laplace", 5): (4273, 6.6e-3, 1.3e-3)},
    ),
    Workload(
        name="torus-stream",
        why=("8 IPBC requests on one STL torus; geometry dominates and "
             "requests share mesh, boundary set and 2 system matrices"),
        requests=tuple(
            dict(domain="stl:" + STL_PLACEHOLDER, method="IPBC",
                 space="tensor-product", degrees=(4, 4, 4), solution=s,
                 operator=o, m_list=(6,), nb=1000, eval_grid=30)
            for s in _TORUS_SOLUTIONS for o in _TORUS_OPERATORS),
        expect={
            ("sin5", "laplace", 6): (729, 1.0e-2, 1.4e-3),
            ("sin5", "var-diag", 6): (729, 2.4e-2, 3.3e-3),
            ("sin5sum", "laplace", 6): (729, 1.6e-2, 3.0e-3),
            ("sin5sum", "var-diag", 6): (729, 4.0e-2, 6.5e-3),
            ("abs3", "laplace", 6): (729, 1.5e-3, 1.2e-4),
            ("abs3", "var-diag", 6): (729, 1.5e-2, 1.6e-3),
            ("quintic", "laplace", 6): (729, 5.4e-5, 2.4e-5),
            ("quintic", "var-diag", 6): (729, 5.7e-5, 2.4e-5),
        },
    ),
    Workload(
        name="smoke",
        why="benchmark self-test only: one m=3 solve in about a second",
        requests=(_sphere_ipbf(m_list=(3,), nb=200, eval_grid=10),),
        expect={("sin5", "laplace", 3): (216, 1.4e-1, 4.1e-2)},
    ),
)}


def config_kwargs(request, seed, stl_path=""):
    """ExperimentConfig keyword arguments for one request of a pass."""
    return dict(request, seed=seed,
                domain=request["domain"].replace(STL_PLACEHOLDER, stl_path))


def warmup_kwargs(workload, seed):
    return config_kwargs(dict(workload.requests[0], **WARMUP_OVERRIDES), seed)


def check_row(workload, request, row):
    """Reasons one solve fails the gate; an empty list means it passed."""
    key = (request["solution"], request["operator"], row.m)
    if key not in workload.expect:
        return [f"unexpected solve {key}"]
    nc, emax_bound, rms_bound = workload.expect[key]
    problems = []
    if row.nc != nc:
        problems.append(f"{key}: nc {row.nc} != {nc}")
    if row.rank_deficient:
        problems.append(f"{key}: rank deficient")
    if not (row.emax <= emax_bound):        # also rejects NaN
        problems.append(f"{key}: emax {row.emax:.3e} > {emax_bound:.1e}")
    if not (row.rms <= rms_bound):
        problems.append(f"{key}: rms {row.rms:.3e} > {rms_bound:.1e}")
    return problems
