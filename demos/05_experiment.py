"""A miniature QUASAR-vs-DE comparison through the experiment harness.

The harness derives one seed per (algorithm, function, dim, pop, trial)
coordinate, appends raw results to records.csv (resumable), and aggregates
GMERF, Friedman rank sums, Wilcoxon p-values and runtime ratios into
summary.json. The same thing is available from the command line:

    quasar-opt run --mode custom --dims 10 --pops 100 --gmax 60 \
        --trials 5 --seed 7 --algos quasar,de --out /tmp/mini-exp
"""

import json
import tempfile
from pathlib import Path

from quasar_opt import ExperimentPlan, run_plan

plan = ExperimentPlan(
    mode="custom",
    dims=[10],
    pop_sizes=[100],
    g_max=60,
    trials=5,
    master_seed=7,
    suite_seed=1,
    algorithms=["quasar", "de"],
)

# The run directory is removed when the demo ends.
with tempfile.TemporaryDirectory(prefix="quasar-demo-") as tmp:
    out = Path(tmp)
    table = run_plan(plan, out)

    print(f"records: {out / 'records.csv'}")
    print(f"summary: {out / 'summary.json'}\n")

    print("per-scenario GMERF vs DE (>1 means QUASAR reached lower error):")
    for sc in table.scenarios:
        lo, hi = sc.gmerf_ci["de"]
        print(f"  {sc.function:12s} GMERF {sc.gmerf['de']:10.3g}  "
              f"CI [{lo:.3g}, {hi:.3g}]  p={sc.p_error['de']:.3g}")

    print(f"\nFriedman rank sums: {table.rank_sums} (p={table.friedman_p:.2g})")
    print(f"overall GMERF vs DE: {table.gmerf_overall['de']:.3g}, "
          f"CI {table.gmerf_overall_ci['de']}")
    print(f"overall runtime ratio vs DE: {table.runtime_ratio_overall['de']:.2f}x")

    # The summary JSON round-trips cleanly for downstream tooling.
    parsed = json.loads((out / "summary.json").read_text())
    print("\nsummary keys:", sorted(parsed))
