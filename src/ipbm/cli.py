"""Command-line experiment runner.

Verbs:
    run <config> [overrides...]    one experiment, reports to --out;
                                   key=value overrides may come before
                                   or after --out
    patch-test                     exactness checks for both spaces
    sweep <config> [<config>...]   batch of experiments; configs may
                                   come before or after --out

Exit status is 0 on success and 1 on a failed patch test.  It is 2, with
a one-line message on stderr, on a configuration error (``ConfigError``:
unknown key, malformed or out-of-range value, unknown domain), on a
malformed STL file (``StlError``), and on a file that cannot be read or
written (``OSError``: missing file, a directory, no permission).
Command-line usage errors also exit 2, from argparse.
"""

import argparse
import sys
from pathlib import Path

from .geometry import StlError
from .runner import (ConfigError, parse_config, patch_test, report_text,
                     run_experiment, write_report)


def _progress_printer(row):
    print(f"  m={row.m}: nc={row.nc} emax={row.emax:.3e} "
          f"rms={row.rms:.3e} ({row.setup_seconds + row.solve_seconds:.1f}s)",
          flush=True)


def _cmd_run(args):
    config = parse_config(args.config, args.override)
    print(f"running {args.config}", flush=True)
    report = run_experiment(config, progress=_progress_printer)
    outdir = args.out or (Path(args.config).stem + "_out")
    write_report(report, outdir)
    print(report_text(report))
    print(f"reports written to {outdir}/")
    return 0


def _cmd_patch_test(args):
    checks = []
    if args.space in ("both", "tensor-product"):
        checks.append(("tensor-product", (1, 2, 3), "mono123"))
    if args.space in ("both", "type5"):
        checks.append(("type5", (5, 5, 5), "quintic"))
    failed = False
    for space_kind, degrees, solution in checks:
        ok, emax = patch_test(space_kind, degrees, args.operator,
                              solution_id=solution)
        status = "pass" if ok else "FAIL"
        print(f"patch-test {space_kind} d={degrees} {solution}/"
              f"{args.operator}: emax={emax:.3e} -> {status}", flush=True)
        failed = failed or not ok
    return 1 if failed else 0


def _parse_prefixed(cfg_path):
    """parse_config, with the file named in every ConfigError."""
    try:
        return parse_config(cfg_path)
    except ConfigError as exc:
        if str(exc).startswith(f"{cfg_path}:"):
            raise
        raise ConfigError(f"{cfg_path}: {exc}") from exc


def _cmd_sweep(args):
    base = Path(args.out) if args.out else Path("sweep_out")
    configs = [(cfg_path, _parse_prefixed(cfg_path))
               for cfg_path in args.configs]
    for cfg_path, config in configs:
        print(f"running {cfg_path}", flush=True)
        report = run_experiment(config, progress=_progress_printer)
        write_report(report, base / Path(cfg_path).stem)
    print(f"reports written under {base}/")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ipbm",
        description="Immersed penalized boundary solvers: experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_run.add_argument("override", nargs="*",
                       help="key=value overrides of config entries, "
                            "before or after --out")
    p_run.add_argument("--out", default=None, help="output directory")

    p_patch = sub.add_parser("patch-test", help="run the exactness checks")
    p_patch.add_argument("--space", default="both",
                         choices=["both", "tensor-product", "type5"])
    p_patch.add_argument("--operator", default="laplace")

    p_sweep = sub.add_parser("sweep", help="run several configs")
    p_sweep.add_argument("configs", nargs="+",
                         help="config files, before or after --out")
    p_sweep.add_argument("--out", default=None, help="output directory")

    # argparse closes a positional list at the first option, so overrides
    # or configs after --out come back as leftovers; unknown options are
    # still errors.
    args, extra = parser.parse_known_args(argv)
    if extra:
        trailing = {"run": "override", "sweep": "configs"}.get(args.command)
        if trailing is None or any(t.startswith("-") for t in extra):
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        getattr(args, trailing).extend(extra)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "patch-test":
            return _cmd_patch_test(args)
        return _cmd_sweep(args)
    except (ConfigError, StlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
