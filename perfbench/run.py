"""Benchmark of the ipbm solvers through the public run_experiment API.

Usage (from the repository root):

    python3 perfbench/run.py --workload tp-sweep --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py.  The run

1. times ``SETUP_REPEATS`` fresh interpreters that import ipbm and make
   one small warm-up solve (``setup_s`` is their median),
2. warms this process up with the same request,
3. runs the workload's request list back to back (a closed loop with one
   client), repeating the list while another pass fits in ``--seconds``,
4. checks every solve against its manufactured truth (workloads.check_row).

With ``--trace 1`` it then runs as many passes again with timing wrappers
installed (tracing.py), requires the same max error per solve as the
untraced passes, and reports the per-layer metrics instead of the
end-to-end ones.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the full record,
with the environment, every solve and every span, is written under
perfbench/out/.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import LAYER_METRICS, REQUEST_SPAN, Tracer, layer_metrics
from workloads import (STL_PLACEHOLDER, TORUS_MESH, WORKLOADS, check_row,
                       config_kwargs, warmup_kwargs)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("request_s.p50", "s"),
              ("peak_rss_mb", "MB"), ("emax.gmean", "1"), ("rms.gmean", "1"))


class BenchError(RuntimeError):
    """The program under test could not be set up or imported."""


def measure_setup(workload, seed):
    """Wall times of fresh interpreters doing import + warm-up.

    Runs before this process imports numpy, and one child at a time, so
    no more than nproc threads are busy.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, imports, warmups = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload.name,
             str(seed)], env=env, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError("set-up probe failed:\n" + proc.stderr[-2000:])
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(child["ipbm"]).resolve().parent.parent != SRC:
            raise BenchError(f"imported ipbm from {child['ipbm']}, not {SRC}")
        imports.append(child["import_s"])
        warmups.append(child["warmup_s"])
    return {"wall_s": walls, "import_s": imports, "warmup_s": warmups}


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"nproc": len(os.sched_getaffinity(0)),
           "blas": f"{blas.get('name')} {blas.get('version')}",
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "python": sys.version.split()[0], "cpu": "unknown",
           "l3": "unknown"}
    try:
        with open("/proc/cpuinfo") as f:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in f
                               if line.startswith("model name")), "unknown")
    except OSError:
        pass
    try:
        env["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size") \
            .read_text().strip()
    except OSError:
        pass
    return env


def run_pass(ipbm, run, workload, seed, stl_path, tracer=None):
    """One pass over the workload's requests; failures are counted."""
    requests, solves = [], []
    attempted = failed = 0
    t_pass = time.perf_counter()
    for index, request in enumerate(workload.requests):
        config = ipbm.ExperimentConfig(
            **config_kwargs(request, seed, stl_path))
        rows = []
        if tracer is not None:
            tracer.request = (seed, index)
        t0 = time.perf_counter()
        try:
            run(config, progress=rows.append)
            error = None
        except Exception as exc:    # a failed request is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        requests.append(time.perf_counter() - t0)
        expected = len(request["m_list"])
        attempted += expected
        failed += expected - len(rows)
        for row in rows:
            problems = check_row(workload, request, row)
            failed += bool(problems)
            solves.append({"request": index, "m": row.m, "nc": row.nc,
                           "emax": row.emax, "rms": row.rms,
                           "condition": row.condition,
                           "problems": problems})
        if error is not None:
            solves.append({"request": index, "error": error})
    return {"seed": seed, "wall_s": time.perf_counter() - t_pass,
            "request_s": requests, "solves": solves,
            "attempted": attempted, "failed": failed}


def run_passes(ipbm, workload, seed, stl_path, seconds):
    """Passes until another would overrun ``seconds``, at least one.

    Pass i uses seed + i.
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ipbm, ipbm.runner.run_experiment, workload,
                               seed + len(passes), stl_path))
        if time.perf_counter() - start + passes[-1]["wall_s"] > seconds:
            return passes


def _gmean(values):
    logs = [math.log(v) for v in values if math.isfinite(v) and v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def end_to_end(passes, setup_s):
    rows = [s for p in passes for s in p["solves"] if "emax" in s]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "request_s.p50": statistics.median(
            t for p in passes for t in p["request_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "emax.gmean": _gmean([s["emax"] for s in rows]),
        "rms.gmean": _gmean([s["rms"] for s in rows]),
    }


def _emax_by_solve(passes):
    return [(p["seed"], s["request"], s["m"], s["emax"])
            for p in passes for s in p["solves"] if "emax" in s]


def traced_passes(ipbm, workload, plain, stl_path):
    """The untraced passes again, with wrappers installed.

    Returns (passes, tracer).
    """
    tracer = Tracer()
    with tracer.installed():
        run = tracer.wrap(REQUEST_SPAN, ipbm.runner.run_experiment)
        passes = [run_pass(ipbm, run, workload, p["seed"], stl_path, tracer)
                  for p in plain]
    return passes, tracer


def per_layer(ipbm, plain, traced, tracer, setup, fail_ratio):
    values = layer_metrics(tracer.spans, tracer.cg_iterations, len(traced),
                           getattr(ipbm.solver, "EXACT_CONDITION_LIMIT", 3000))
    values["runner.solves"] = sum(
        1 for s in traced[0]["solves"] if "emax" in s)
    values["fail_ratio"] = fail_ratio
    values["trace_overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain))
    values["setup.import_s"] = statistics.median(setup["import_s"])
    values["setup.warmup_s"] = statistics.median(setup["warmup_s"])
    return values


def import_ipbm():
    sys.path.insert(0, str(SRC))
    import ipbm
    import ipbm.runner
    if Path(ipbm.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"imported ipbm from {ipbm.__file__}, not {SRC}")
    return ipbm


def run_benchmark(workload, seed, seconds, trace):
    """Everything but printing; returns the full record of the run."""
    if not (SRC / "ipbm" / "__init__.py").is_file():
        raise BenchError(f"no ipbm package under {SRC}")
    setup = measure_setup(workload, seed)
    ipbm = import_ipbm()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        stl_path = str(Path(tmp) / "torus.stl")
        if any(STL_PLACEHOLDER in r["domain"] for r in workload.requests):
            ipbm.save_stl(ipbm.make_torus_mesh(**TORUS_MESH), stl_path)
        ipbm.run_experiment(ipbm.ExperimentConfig(
            **warmup_kwargs(workload, seed)))
        plain = run_passes(ipbm, workload, seed, stl_path, seconds)
        record = {"workload": workload.name, "seed": seed,
                  "seconds": seconds, "trace": trace,
                  "environment": environment(), "setup": setup,
                  "passes": plain}
        traced = []
        if trace:
            traced, tracer = traced_passes(ipbm, workload, plain, stl_path)
            record["traced_passes"] = traced
            record["spans"] = tracer.spans
            record["emax_identical"] = \
                _emax_by_solve(plain) == _emax_by_solve(traced)
    attempted = sum(p["attempted"] for p in plain + traced)
    failed = sum(p["failed"] for p in plain + traced)
    record["fail_ratio"] = failed / attempted
    if trace:
        metrics = per_layer(ipbm, plain, traced, tracer, setup,
                            record["fail_ratio"])
        units = dict(LAYER_METRICS)
    else:
        metrics = end_to_end(plain, statistics.median(setup["wall_s"]))
        units = dict(END_TO_END)
    record["result"] = {
        "correct": failed == 0 and record.get("emax_identical", True),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    return record


def report(record):
    """Human-readable lines, then the result as the last line."""
    result = record["result"]
    env = record["environment"]
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    samples = sum(len(p["request_s"]) for p in record["passes"])
    for name, metric in result["metrics"].items():
        note = f"  (n={samples} requests)" if name == "request_s.p50" else ""
        print(f"{name:<40} {metric['value']:>14.6g} {metric['unit']}{note}")
    if "fail_ratio" not in result["metrics"]:
        print(f"{'fail_ratio':<40} {record['fail_ratio']:>14.6g} ratio  "
              f"({result['failed']}/{result['attempted']} solves)")
    for p in record["passes"] + record.get("traced_passes", []):
        for s in p["solves"]:
            for problem in s.get("problems", []) + [s.get("error")]:
                if problem:
                    print(f"# FAILED seed {p['seed']} request "
                          f"{s['request']}: {problem}")
    if record.get("emax_identical") is False:
        print("# FAILED traced run changed emax")
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run_benchmark(WORKLOADS[args.workload], args.seed,
                               args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    path = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                  f"{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1))
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
