#!/usr/bin/env python3
"""Closed-loop benchmark of the manpower package: one client sends one
request at a time, each doing what a CLI subcommand does.

    python3 perfbench/run.py --workload staffing --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Workloads are ``staffing``, ``roster`` and ``pareto`` (see README.md).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs every
request cycle once traced and once untraced and reports per-layer
metrics from the traced pass.  The last line of standard output is one
JSON object with the result.  Run it from the root of a checkout: the
package is imported from ``src/`` there.
"""

import os

# pin BLAS/OpenMP pools to one thread before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description="closed-loop benchmark of the manpower package")
    p.add_argument("--workload", required=True, help="workload name (see README.md) or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p


def main(argv=None) -> int:
    p = parser()
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "manpower", "__init__.py")):
        print(f"error: no package source at {SRC}/manpower; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # set-up time starts here: import, instance generation, instance file
    t0 = time.perf_counter()
    import manpower  # noqa: F401
    import_s = time.perf_counter() - t0
    import driver
    import workloads

    if args.workload not in workloads.WORKLOADS + ("all",):
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{', '.join(workloads.WORKLOADS)} or all")
    return driver.main(args, t0, import_s)


if __name__ == "__main__":
    sys.exit(main())
