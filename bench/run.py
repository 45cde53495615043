"""The repo benchmark's command line (see ``bench/README.md``).

    python3 bench/run.py --workload prove_2p19 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --suite out.json --runs 5      # every workload
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --aa 5 --baseline bench/baseline.json

The last line of standard output of a ``--workload`` run is one JSON
object with exactly the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def build_parser() -> argparse.ArgumentParser:
    import defs

    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=defs.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(defs.RUN_SECONDS))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="test scale (2^11/2^12, two circuits); numbers are "
                        "NOT comparable with full-scale runs")
    p.add_argument("--role", choices=("parent", "cold", "measure"),
                   default="parent", help=argparse.SUPPRESS)
    p.add_argument("--suite", metavar="OUT.json",
                   help="run every workload --runs times untraced plus once "
                        "traced and write the results to OUT.json")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                   help="compare two --suite result files pair by pair")
    p.add_argument("--aa", type=int, metavar="N",
                   help="run the suite N times per side on this same tree, "
                        "sides interleaved, then compare; exit 1 unless "
                        "every (metric, workload) pair reads 'same'")
    p.add_argument("--baseline", metavar="PATH",
                   help="with --aa: also write the pooled runs as a baseline")
    return p


def main(argv=None) -> int:
    # The program under test is imported from this checkout's src/.  In a
    # directory that holds only the benchmark this fails: exit non-zero,
    # print no result.
    sys.path.insert(0, SRC_DIR)
    try:
        import repro  # noqa: F401 - also compiles bytecode before cold starts
    except ImportError as exc:
        print(f"bench: cannot import the program from {SRC_DIR}: {exc}",
              file=sys.stderr)
        return 2
    import defs

    args = build_parser().parse_args(argv)
    scale = defs.SMALL if args.small else defs.FULL
    if args.compare:
        import compare

        return compare.main_compare(*args.compare)
    if args.aa:
        import compare

        return compare.main_aa(args.aa, args.seed, args.seconds, scale,
                               args.baseline)
    if args.suite:
        import compare

        results = compare.run_suite(args.runs, args.seed, args.seconds, scale)
        with open(args.suite, "w") as fh:
            json.dump(results, fh, indent=1)
        return 0 if results["failed"] == 0 else 1
    if not args.workload:
        build_parser().error("one of --workload, --suite, --compare, --aa "
                             "is required")
    import measure

    if args.role != "parent":
        return measure.child_main(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.role, scale)
    detail = measure.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), scale)
    for failure in detail["failures"]:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    print(json.dumps(detail["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
