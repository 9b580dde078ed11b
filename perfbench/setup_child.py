"""Set-up probe run in a fresh interpreter by the benchmark.

Usage: PYTHONPATH=src python3 perfbench/setup_child.py <workload> <seed>

Imports ipbm, runs the workload's small warm-up request, and prints
{"import_s": ..., "warmup_s": ..., "ipbm": <path of the imported package>}
as one JSON line.
"""

import json
import sys
import time

t0 = time.perf_counter()
import ipbm  # noqa: E402
t1 = time.perf_counter()

from workloads import WORKLOADS, warmup_kwargs  # noqa: E402


def main():
    workload, seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
    ipbm.run_experiment(ipbm.ExperimentConfig(**warmup_kwargs(workload, seed)))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1,
                      "ipbm": ipbm.__file__}))


if __name__ == "__main__":
    main()
