"""Command-line experiment runner.

Subcommands:
  run        execute a trial grid and summarize it
  summarize  rebuild the summary from an existing records directory
  suite      print the benchmark suite manifest for a dimension/seed

Exit code 0 on success, 2 with a diagnostic on any contract violation.
"""

from __future__ import annotations

import argparse
import sys

from .benchmarks import make_suite, suite_manifest
from .harness import ExperimentPlan, emit_summary, run_plan


def _int_list(text: str):
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _str_list(text: str):
    return [v.strip() for v in text.split(",") if v.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasar-opt",
        description="QUASAR/DE benchmark experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each dest is a plan field; an absent flag leaves the plan's default.
    run = sub.add_parser("run", help="run a trial grid",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--mode", choices=("dim", "sample", "custom"))
    run.add_argument("--dims", type=_int_list)
    run.add_argument("--pops", dest="pop_sizes", type=_int_list)
    run.add_argument("--gmax", dest="g_max", type=int)
    run.add_argument("--trials", type=int)
    run.add_argument("--seed", dest="master_seed", type=int)
    run.add_argument("--suite-seed", type=int)
    run.add_argument("--algos", dest="algorithms", type=_str_list)
    run.add_argument("--functions", type=_str_list,
                     help="restrict to these suite functions")
    run.add_argument("--save-traces", action="store_true")
    run.add_argument("--out", required=True)

    summarize = sub.add_parser("summarize", help="summarize an existing run")
    summarize.add_argument("--in", dest="in_dir", required=True)

    suite = sub.add_parser("suite", help="print the suite manifest")
    suite.add_argument("--dim", type=int, required=True)
    suite.add_argument("--seed", type=int, default=1)

    return parser


def _print_summary(table):
    print(f"algorithms: {', '.join(table.algorithms)}")
    print(f"scenarios:  {len(table.scenarios)}"
          + (f"  (failed trials: {table.n_failed_trials})"
             if table.n_failed_trials else ""))
    if table.rank_sums:
        sums = "  ".join(f"{a}={v:g}" for a, v in table.rank_sums.items())
        print(f"friedman rank sums: {sums}  (p={table.friedman_p:.3g})")
    for algo, value in table.gmerf_overall.items():
        lo, hi = table.gmerf_overall_ci[algo]
        print(f"overall GMERF vs {algo}: {value:.3f}  "
              f"[{lo:.3f}, {hi:.3f}] 95% CI")
    for algo, value in table.runtime_ratio_overall.items():
        print(f"overall runtime ratio vs {algo}: {value:.3f}x")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            fields = {k: v for k, v in vars(args).items()
                      if k not in ("command", "out")}
            plan = ExperimentPlan(**fields)
            table = run_plan(plan, args.out)
            _print_summary(table)
            print(f"records and summary written to {args.out}")
        elif args.command == "summarize":
            table = emit_summary(f"{args.in_dir}/records.csv")
            _print_summary(table)
        elif args.command == "suite":
            print(suite_manifest(make_suite(args.dim, args.seed)))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
