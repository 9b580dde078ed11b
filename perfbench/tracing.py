"""Spans recorded from outside the ipbm package, and the per-layer metrics.

The traced run replaces public functions at the module attributes that
``run_experiment`` looks up at call time with timing wrappers, so the
program runs unchanged and no source file is edited.  Spans stay in
memory (name, start, end, parent, request id, attributes) and are
written out when the run ends.  ``Tracer.installed`` restores every
attribute it replaced on exit.
"""

import contextlib
import functools
import importlib
import time
import types

# (module, attribute, span name).  Geometry functions are wrapped where
# the runner sees them; design matrices where assembly sees them.
WRAPPED = (
    ("ipbm.runner", "load_stl", "geometry.load_stl"),
    ("ipbm.runner", "boundary_points", "runner.boundary_points"),
    ("ipbm.runner", "evaluation_points", "runner.evaluation_points"),
    ("ipbm.runner", "classify_interior", "geometry.classify_interior"),
    ("ipbm.runner", "sample_surface", "geometry.sample_surface"),
    ("ipbm.runner", "fibonacci_sphere", "geometry.fibonacci_sphere"),
    ("ipbm.runner", "farthest_point_downsample",
     "geometry.farthest_point_downsample"),
    ("ipbm.runner", "build_tp_space", "tp_spline.build_tp_space"),
    ("ipbm.runner", "build_type5_partition", "tet_spline.build_type5_partition"),
    ("ipbm.runner", "build_s0d_space", "tet_spline.build_s0d_space"),
    ("ipbm.runner", "assemble_ipbf", "assembly.assemble_ipbf"),
    ("ipbm.runner", "assemble_ipbc", "assembly.assemble_ipbc"),
    ("ipbm.runner", "collocation_points_tp", "assembly.collocation_points_tp"),
    ("ipbm.runner", "collocation_points_tet",
     "assembly.collocation_points_tet"),
    ("ipbm.runner", "solve_least_squares", "solver.solve_least_squares"),
    ("ipbm.runner", "evaluate_errors", "solver.evaluate_errors"),
    ("ipbm.assembly", "tp_design_matrix", "tp_spline.tp_design_matrix"),
    ("ipbm.assembly", "s0d_design_matrix", "tet_spline.s0d_design_matrix"),
    ("ipbm.assembly", "build_smoothness_matrix",
     "tet_spline.build_smoothness_matrix"),
    ("ipbm.solver", "condition_number", "solver.condition_number"),
)

REQUEST_SPAN = "runner.run_experiment"

# Spans that have children get a self time as well as a wall time.
PARENT_SPANS = (REQUEST_SPAN, "runner.boundary_points",
                "runner.evaluation_points", "assembly.assemble_ipbf",
                "assembly.assemble_ipbc", "solver.solve_least_squares")

# Per-layer metrics of a traced run, in BENCHMARK.json order.
LAYER_METRICS = (
    [(f"{name}.s", "s") for _, _, name in WRAPPED]
    + [(REQUEST_SPAN + ".s", "s")]
    + [(f"{name}.self_s", "s") for name in PARENT_SPANS]
    + [("solver.dense_qr.s", "s"), ("solver.normal_cg.s", "s"),
       ("solver.form_s", "s"),
       ("solver.condition_number.exact_s", "s"),
       ("solver.condition_number.estimate_s", "s"),
       ("solver.normal_cg.iterations", "count"),
       ("solver.dense_qr.gflop", "Gflop"),
       ("solver.dense_qr.gbyte", "GB"),
       ("solver.dense_qr.gflop_per_s", "Gflop/s"),
       ("geometry.triangles", "count"),
       ("geometry.boundary_candidates", "count"),
       ("geometry.eval_points", "count"),
       ("assembly.rows", "count"), ("assembly.cols", "count"),
       ("assembly.nnz", "count"),
       ("runner.requests", "count"), ("runner.solves", "count"),
       ("fail_ratio", "ratio"), ("trace_overhead_s", "s"),
       ("setup.import_s", "s"), ("setup.warmup_s", "s")]
)


def _record_attrs(span, args, result):
    """Sizes and solver facts a span needs for the derived metrics."""
    name = span["name"]
    attrs = span["attrs"]
    if name == "geometry.load_stl":
        attrs["triangles"] = len(result.triangles)
    elif name == "geometry.farthest_point_downsample":
        attrs["candidates"] = len(args[0])
    elif name == "runner.evaluation_points":
        attrs["points"] = sum(len(part) for part in result)
    elif name in ("assembly.assemble_ipbf", "assembly.assemble_ipbc"):
        attrs["rows"], attrs["cols"] = result.H.shape
        attrs["nnz"] = int(result.H.nnz)
    elif name == "solver.solve_least_squares":
        attrs["rows"], attrs["cols"] = args[0].H.shape
        attrs["method"] = result.method
        attrs["form_s"] = result.setup_seconds
        attrs["factor_s"] = result.solve_seconds
    elif name == "solver.condition_number":
        attrs["cols"] = args[0].H.shape[1]


class Tracer:
    """In-memory span recorder with a CG iteration counter."""

    def __init__(self):
        self.spans = []
        self.request = None
        self.cg_iterations = 0
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "request": self.request,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None, "attrs": {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            _record_attrs(span, args, result)
            return result
        return traced

    def _counting_spla(self, spla):
        """A stand-in for scipy.sparse.linalg whose cg counts iterations."""
        proxy = types.ModuleType(spla.__name__)
        proxy.__dict__.update(vars(spla))

        def cg(*args, callback=None, **kwargs):
            def count(xk):
                self.cg_iterations += 1
                if callback is not None:
                    callback(xk)
            return spla.cg(*args, callback=count, **kwargs)

        proxy.cg = cg
        return proxy

    @contextlib.contextmanager
    def installed(self):
        """Wrap every WRAPPED attribute and ipbm.solver.spla; undo on exit.

        An attribute a later version of ipbm no longer has is skipped, and
        its metric reads 0.
        """
        saved = []
        try:
            for modname, attr, name in WRAPPED:
                module = importlib.import_module(modname)
                if not hasattr(module, attr):
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            solver = importlib.import_module("ipbm.solver")
            saved.append((solver, "spla", solver.spla))
            solver.spla = self._counting_spla(solver.spla)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans):
    """Duration minus the time covered by each span's children."""
    children = {}
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(i)
    result = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for j in sorted(children.get(i, ()), key=lambda k: spans[k]["start"]):
            lo = max(spans[j]["start"], reach)
            hi = min(spans[j]["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span["end"] - span["start"] - covered)
    return result


def layer_metrics(spans, cg_iterations, passes, exact_condition_limit):
    """Per-pass per-layer metrics from the spans of ``passes`` passes.

    Metrics with no spans read 0 (for instance the tet layers on a
    tensor-product workload).  The dense-QR rate uses the factorization
    time ipbm reports itself; flops and bytes are computed from the
    shape, not measured.
    """
    values = dict.fromkeys((name for name, _ in LAYER_METRICS), 0.0)
    factor_s = 0.0
    own = self_times(spans)
    for span, self_s in zip(spans, own):
        name, attrs = span["name"], span["attrs"]
        values[name + ".s"] += span["end"] - span["start"]
        if name in PARENT_SPANS:
            values[name + ".self_s"] += self_s
        if name == REQUEST_SPAN:
            values["runner.requests"] += 1
        if not attrs:       # the call raised, or its span records no sizes
            continue
        if name == "geometry.load_stl":
            values["geometry.triangles"] += attrs["triangles"]
        elif name == "geometry.farthest_point_downsample":
            values["geometry.boundary_candidates"] += attrs["candidates"]
        elif name == "runner.evaluation_points":
            values["geometry.eval_points"] += attrs["points"]
        elif name.startswith("assembly.assemble_"):
            for key in ("rows", "cols", "nnz"):
                values["assembly." + key] += attrs[key]
        elif name == "solver.solve_least_squares":
            values["solver.form_s"] += attrs["form_s"]
            if attrs["method"] == "dense-qr":
                rows, cols = attrs["rows"], attrs["cols"]
                values["solver.dense_qr.s"] += self_s
                values["solver.dense_qr.gflop"] += (
                    2.0 * rows * cols ** 2 - 2.0 / 3.0 * cols ** 3) / 1e9
                values["solver.dense_qr.gbyte"] += rows * cols * 8 / 1e9
                factor_s += attrs["factor_s"]
            else:
                values["solver.normal_cg.s"] += self_s
        elif name == "solver.condition_number":
            kind = ("exact_s" if attrs["cols"] <= exact_condition_limit
                    else "estimate_s")
            values["solver.condition_number." + kind] += \
                span["end"] - span["start"]
    values["solver.normal_cg.iterations"] = float(cg_iterations)
    values = {k: v / passes for k, v in values.items()}
    if factor_s > 0:
        values["solver.dense_qr.gflop_per_s"] = \
            values["solver.dense_qr.gflop"] * passes / factor_s
    return values
