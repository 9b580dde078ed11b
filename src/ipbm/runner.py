"""Experiment harness: configure a run or an m-sweep, execute, report.

A run is (domain, problem, method, space) executed over a list of grid
resolutions.  Each resolution contributes one table row (timings,
coefficient count, Gram condition, max and RMS errors); consecutive rows
yield observed convergence rates.  Reports are written as an aligned
text table, as CSV, and with the resolved configuration echoed.

The geometry of a run -- the normalized domain, the boundary set B and
the interior and boundary evaluation points -- depends only on the
domain, ``nb``, ``eval_grid`` and ``seed``, so it is memoized on those
fields in one bounded memo (the 8 most recently used keys).  An STL
domain is keyed on the SHA-256 of the file's bytes as well as its path,
so a file rewritten in place is read afresh.  Every memoized array is
read-only, since all requests with the same key share it; a computation
that raises is not memoized.
"""

import csv
import functools
import hashlib
import io
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .assembly import (SolverConfig, assemble_ipbc, assemble_ipbf,
                       collocation_points_tet, collocation_points_tp)
from .geometry import (classify_interior, farthest_point_downsample,
                       fibonacci_sphere, load_stl, mesh_domain,
                       sample_surface, unit_sphere_domain)
from .problems import make_preset
from .solver import convergence_rate, evaluate_errors, solve_least_squares
from .tet_spline import build_s0d_space, build_type5_partition
from .tp_spline import build_tp_space

BOUNDARY_EVAL_COUNT = 2000


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    domain: str = "sphere"
    solution: str = "sin5"
    operator: str = "laplace"
    method: str = "IPBF"
    space: str = "tensor-product"
    degrees: tuple = (4, 4, 4)
    m_list: tuple = (5, 6)
    nb: int = 1000
    lam: float = 0.01
    lam_s: float = 0.01
    m_c: int = 3
    d_c: int = 3
    seed: int = 42
    eval_grid: int = 40

    def echo_pairs(self):
        """(config-file key, value string) for every field, in file order."""
        d = self.degrees
        deg = str(d[0]) if len(set(d)) == 1 else ",".join(map(str, d))
        pairs = [
            ("domain", self.domain), ("solution", self.solution),
            ("operator", self.operator), ("method", self.method),
            ("space", self.space), ("d", deg),
            ("m_list", ",".join(map(str, self.m_list))),
            ("nb", self.nb), ("lambda", self.lam),
            ("lambda_s", self.lam_s), ("m_c", self.m_c),
            ("d_c", self.d_c), ("seed", self.seed),
            ("eval_grid", self.eval_grid),
        ]
        return [(k, str(v)) for k, v in pairs]

    def echo_lines(self):
        return [f"{k} = {v}" for k, v in self.echo_pairs()]


# Config-file defaults are the echo of the default config.
_DEFAULTS = dict(ExperimentConfig().echo_pairs())


def parse_config(path=None, overrides=()):
    """Flat key=value config file plus command-line overrides."""
    raw = dict(_DEFAULTS)
    if path is not None:
        text = Path(path).read_text()
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, "
                                  f"got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in raw:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            raw[key] = value
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in raw:
            raise ConfigError(f"unknown key {key!r}")
        raw[key] = value
    return _build_config(raw)


def _build_config(raw):
    try:
        degrees = tuple(int(v) for v in str(raw["d"]).split(","))
        if len(degrees) == 1:
            degrees = degrees * 3
        if len(degrees) != 3:
            raise ValueError("d needs one or three integers")
        m_list = tuple(int(v) for v in str(raw["m_list"]).split(","))
        cfg = ExperimentConfig(
            domain=str(raw["domain"]),
            solution=str(raw["solution"]),
            operator=str(raw["operator"]),
            method=str(raw["method"]).upper(),
            space=str(raw["space"]),
            degrees=degrees,
            m_list=m_list,
            nb=int(raw["nb"]),
            lam=float(raw["lambda"]),
            lam_s=float(raw["lambda_s"]),
            m_c=int(raw["m_c"]),
            d_c=int(raw["d_c"]),
            seed=int(raw["seed"]),
            eval_grid=int(raw["eval_grid"]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.method not in ("IPBF", "IPBC"):
        raise ConfigError(f"method must be IPBF or IPBC, got {cfg.method!r}")
    if cfg.space not in ("tensor-product", "type5"):
        raise ConfigError(f"space must be tensor-product or type5, "
                          f"got {cfg.space!r}")
    if not cfg.m_list or any(m < 2 for m in cfg.m_list):
        raise ConfigError("m_list needs values >= 2")
    if list(cfg.m_list) != sorted(set(cfg.m_list)):
        raise ConfigError("m_list must be strictly increasing")
    if cfg.nb < 1:
        raise ConfigError(f"nb must be >= 1, got {cfg.nb}")
    if cfg.eval_grid < 2:
        raise ConfigError(f"eval_grid must be >= 2, got {cfg.eval_grid}")
    return cfg


@dataclass
class ExperimentRow:
    m: int
    setup_seconds: float
    solve_seconds: float
    nc: int
    condition: float
    emax: float
    rms: float
    rank_deficient: bool = False


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list = field(default_factory=list)
    max_rates: list = field(default_factory=list)
    rms_rates: list = field(default_factory=list)
    n_interior_eval: int = 0
    n_boundary_eval: int = 0

    def rate_pairs(self):
        return list(zip(self.max_rates, self.rms_rates))


def _resolve_domain(spec_str):
    if spec_str == "sphere":
        return unit_sphere_domain()
    if spec_str.startswith("stl:"):
        return mesh_domain(load_stl(spec_str[4:]))
    raise ConfigError(f"domain must be 'sphere' or 'stl:<path>', "
                      f"got {spec_str!r}")


def boundary_points(domain, n, seed):
    """Well-spaced boundary set: dense candidates downsampled greedily."""
    candidates = max(20000, 10 * n)
    if domain.is_analytic:
        cloud = fibonacci_sphere(candidates, domain.sphere_center,
                                 domain.sphere_radius, seed=seed)
    else:
        cloud = sample_surface(domain.mesh, candidates, seed=seed)
    return farthest_point_downsample(cloud, n, seed=seed, start=0)


def evaluation_points(domain, eval_grid, seed):
    """Interior grid points plus a fixed-size boundary sample."""
    lo, hi = domain.bbox[0], domain.bbox[1]
    axes = [np.linspace(lo[i], hi[i], eval_grid) for i in range(3)]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    cands = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    interior = classify_interior(domain, cands).points
    if not len(interior):
        what = ("the analytic sphere" if domain.is_analytic else
                f"the {len(domain.mesh.triangles)}-triangle mesh")
        raise ConfigError(f"no point of the eval_grid={eval_grid} grid lies "
                          f"inside {what}; raise eval_grid")
    if domain.is_analytic:
        surf = fibonacci_sphere(BOUNDARY_EVAL_COUNT, domain.sphere_center,
                                domain.sphere_radius, seed=seed + 1).points
    else:
        surf = sample_surface(domain.mesh, BOUNDARY_EVAL_COUNT,
                              seed=seed + 1).points
    return interior, surf


def _content_key(spec_str):
    """SHA-256 of the bytes of an STL domain's file; None for the sphere."""
    if spec_str.startswith("stl:"):
        return hashlib.sha256(Path(spec_str[4:]).read_bytes()).hexdigest()
    return None


@functools.lru_cache(maxsize=8)
def _geometry(spec_str, content_key, nb, eval_grid, seed):
    """(domain, B, interior, surf) of one geometry key, all arrays read-only.

    ``content_key`` is ``_content_key(spec_str)``; it only keys the memo.
    """
    domain = _resolve_domain(spec_str)
    interior, surf = evaluation_points(domain, eval_grid, seed)
    B = boundary_points(domain, nb, seed)
    arrays = [domain.bbox, domain.transform.offset, B.points, interior, surf]
    if domain.is_analytic:
        arrays.append(domain.sphere_center)
    else:
        arrays += [domain.mesh.vertices, domain.mesh.triangles]
    for array in arrays:
        array.flags.writeable = False
    return domain, B, interior, surf


def run_experiment(config, progress=None):
    """Execute the m-sweep described by an ExperimentConfig."""
    bvp = make_preset(config.solution, config.operator)
    domain, B, interior, surf = _geometry(
        config.domain, _content_key(config.domain), config.nb,
        config.eval_grid, config.seed)
    eval_pts = np.vstack([interior, surf])
    report = ExperimentReport(config, n_interior_eval=len(interior),
                              n_boundary_eval=len(surf))
    for m in config.m_list:
        solver_cfg = SolverConfig(
            method=config.method, space_kind=config.space,
            degrees=config.degrees, m=m, lam=config.lam, lam_s=config.lam_s,
            nb=config.nb, m_c=config.m_c, d_c=config.d_c, seed=config.seed)
        t0 = time.perf_counter()
        if config.space == "tensor-product":
            space = build_tp_space(domain.bbox, m, config.degrees)
        else:
            partition = build_type5_partition(domain.bbox, m)
            space = build_s0d_space(partition, config.degrees[0])
        if config.method == "IPBF":
            system = assemble_ipbf(space, bvp, B, solver_cfg)
        else:
            if config.space == "tensor-product":
                gamma = collocation_points_tp(space, config.m_c)
            else:
                gamma = collocation_points_tet(partition, config.d_c)
            system = assemble_ipbc(space, bvp, gamma, B, solver_cfg)
        t1 = time.perf_counter()
        result = solve_least_squares(system)
        t2 = time.perf_counter()
        err = evaluate_errors(space, result.coefficients, bvp.u, eval_pts)
        row = ExperimentRow(m=m, setup_seconds=t1 - t0,
                            solve_seconds=t2 - t1, nc=space.dim,
                            condition=result.gram_condition,
                            emax=err.emax, rms=err.rms,
                            rank_deficient=result.rank_deficient)
        report.rows.append(row)
        if progress is not None:
            progress(row)
    for prev, cur in zip(report.rows, report.rows[1:]):
        report.max_rates.append(
            convergence_rate(prev.emax, cur.emax, prev.m, cur.m))
        report.rms_rates.append(
            convergence_rate(prev.rms, cur.rms, prev.m, cur.m))
    return report


def patch_test(space_kind, degrees, operator_id, solution_id=None,
               m=None, emax_tol=1e-9):
    """Exactness check: solve with a truth the space can represent.

    Defaults pair tensor-product spaces with the monomial x y^2 z^3 and
    tetrahedral spaces with the quintic x^5 + 2y^5 + 3z^5; pass means
    the recovered spline matches the truth to emax <= 1e-9 on the
    evaluation set.
    """
    if np.isscalar(degrees):
        degrees = (int(degrees),) * 3
    else:
        degrees = tuple(int(v) for v in degrees)
    if solution_id is None:
        solution_id = "mono123" if space_kind == "tensor-product" \
            else "quintic"
    if m is None:
        m = 5 if space_kind == "tensor-product" else 4
    config = ExperimentConfig(
        solution=solution_id, operator=operator_id, method="IPBF",
        space=space_kind, degrees=degrees, m_list=(m,), nb=500)
    report = run_experiment(config)
    emax = report.rows[0].emax
    return emax <= emax_tol, emax


# ---------------------------------------------------------------------------
# Report formatting

def _fmt_rate(value):
    if value is None:
        return ""
    if np.isinf(value):
        return "exact"
    return f"{value:.2f}"


def report_text(report):
    """Aligned table in the style of the reference convergence tables."""
    out = io.StringIO()
    cfg = report.config
    out.write(f"# {cfg.method} {cfg.space} d={cfg.degrees} "
              f"{cfg.solution}/{cfg.operator} on {cfg.domain}\n")
    out.write(f"# evaluation points: {report.n_interior_eval} interior + "
              f"{report.n_boundary_eval} boundary; seed {cfg.seed}\n")
    header = (f"{'m':>3} {'setup':>8} {'solve':>8} {'nc':>7} {'CN':>10} "
              f"{'emax':>10} {'rms':>10} {'maxrate':>8} {'rmsrate':>8}")
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for i, row in enumerate(report.rows):
        mr = _fmt_rate(report.max_rates[i - 1]) if i else ""
        rr = _fmt_rate(report.rms_rates[i - 1]) if i else ""
        cn = "Inf" if np.isinf(row.condition) else f"{row.condition:.2e}"
        flag = " RANK-DEFICIENT" if row.rank_deficient else ""
        out.write(f"{row.m:>3} {row.setup_seconds:>8.2f} "
                  f"{row.solve_seconds:>8.2f} {row.nc:>7} {cn:>10} "
                  f"{row.emax:>10.2e} {row.rms:>10.2e} {mr:>8} {rr:>8}"
                  f"{flag}\n")
    return out.getvalue()


def report_csv(report):
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["m", "setup_s", "solve_s", "nc", "cn", "emax", "rms",
                     "max_rate", "rms_rate", "flag"])
    for i, row in enumerate(report.rows):
        mr = _fmt_rate(report.max_rates[i - 1]) if i else ""
        rr = _fmt_rate(report.rms_rates[i - 1]) if i else ""
        writer.writerow([
            row.m, f"{row.setup_seconds:.3f}", f"{row.solve_seconds:.3f}",
            row.nc, repr(row.condition), repr(row.emax), repr(row.rms),
            mr, rr, "rank-deficient" if row.rank_deficient else ""])
    return out.getvalue()


def write_report(report, outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.txt").write_text(report_text(report))
    (outdir / "report.csv").write_text(report_csv(report))
    (outdir / "config.echo").write_text(
        "\n".join(report.config.echo_lines()) + "\n")
    return outdir
