"""Experiment runner: seeded trial grids, CSV records, JSON summaries.

Raw results land in ``records.csv`` with the exact header
``algo,function,dim,pop,gmax,trial,seed,final_error,runtime_sec,evals``,
one row per completed trial, appended in a canonical order so interrupted
runs resume by skipping finished rows. ``emit_summary`` turns a records
file into ``summary.json`` plus ``plot_data.csv`` (long format: one row per
scenario/algorithm with geometric-mean error and mean runtime).

Per-trial seeds derive from the plan coordinates alone, so results are
independent of execution order and of the worker count (set the
``QUASAR_WORKERS`` environment variable to parallelize trials).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import de as de_mod
from . import quasar as quasar_mod
from .benchmarks import make_suite
from .core import BoundsBox
from .de import DeConfig
from .quasar import QuasarConfig
from .sampling import sobol_sample
from .stats import (
    ERROR_FLOOR,
    ScenarioResults,
    ScenarioSummary,
    SummaryTable,
    gmerf,
    gmerf_ci,
    gmerf_overall,
    friedman_rank_sums,
    runtime_ratios,
    wilcoxon_signed_rank,
)

CSV_HEADER = "algo,function,dim,pop,gmax,trial,seed,final_error,runtime_sec,evals"
WORKERS_ENV = "QUASAR_WORKERS"
ALGORITHMS = ("quasar", "de")
REFERENCE_ALGO = "quasar"
# Plan fields that change a trial's result without changing its resume key.
RESULT_FIELDS = ("g_max", "master_seed", "suite_seed")


@dataclass(frozen=True)
class TrialRecord:
    """One optimization run's outcome."""

    algo: str
    function: str
    dim: int
    pop: int
    gmax: int
    trial: int
    seed: int
    final_error: float
    runtime_sec: float
    evals: int

    def csv_row(self) -> str:
        return (
            f"{self.algo},{self.function},{self.dim},{self.pop},"
            f"{self.gmax},{self.trial},{self.seed},"
            f"{repr(float(self.final_error))},{self.runtime_sec:.6f},"
            f"{self.evals}"
        )


@dataclass
class ExperimentPlan:
    """Scenario grid: which (dim, pop) cells to run, how often, with what.

    mode ``dim`` varies dims at the first pop size, ``sample`` varies pop
    sizes at the first dim, ``custom`` runs the full cross product.
    ``functions`` of None means the whole benchmark suite.
    """

    mode: str = "custom"
    dims: Sequence[int] = (10, 30)
    pop_sizes: Sequence[int] = (100, 300)
    g_max: int = 100
    trials: int = 10
    master_seed: int = 42
    suite_seed: int = 1
    algorithms: Sequence[str] = ALGORITHMS
    functions: Optional[Sequence[str]] = None
    save_traces: bool = False

    def __post_init__(self):
        if self.mode not in ("dim", "sample", "custom"):
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.dims or not self.pop_sizes:
            raise ValueError("dims and pop_sizes must be nonempty")
        if self.g_max < 0:
            raise ValueError("g_max must be nonnegative")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown or not self.algorithms:
            raise ValueError(
                f"algorithms must be a nonempty subset of {ALGORITHMS}, "
                f"got {tuple(self.algorithms)}"
            )
        if self.functions is not None and not self.functions:
            raise ValueError("functions must be nonempty (None runs the suite)")
        for name in ("dims", "pop_sizes", "algorithms"):
            values = list(getattr(self, name))
            repeated = {v for v in values if values.count(v) > 1}
            if repeated:
                raise ValueError(f"{name} repeats {sorted(repeated)}")
        configs = {"quasar": QuasarConfig, "de": DeConfig}
        for algo in self.algorithms:
            for pop in dict.fromkeys(p for _, p in self.cells()):
                try:
                    configs[algo](pop_size=pop)
                except ValueError as exc:
                    raise ValueError(
                        f"{algo} cannot run pop {pop}: {exc}") from None

    def cells(self) -> List[Tuple[int, int]]:
        if self.mode == "dim":
            return [(d, self.pop_sizes[0]) for d in self.dims]
        if self.mode == "sample":
            return [(self.dims[0], p) for p in self.pop_sizes]
        return [(d, p) for d in self.dims for p in self.pop_sizes]


def derive_seed(master_seed: int, algo: str, function: str, dim: int,
                pop: int, trial: int) -> int:
    """Stable 64-bit trial seed from the plan coordinates (SHA-256)."""
    key = f"{master_seed}|{algo}|{function}|{dim}|{pop}|{trial}"
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


@lru_cache(maxsize=32)
def _suite(dim: int, suite_seed: int):
    return make_suite(dim, suite_seed)


def _plan_jobs(plan: ExperimentPlan, trace_dir: Optional[str]) -> List[tuple]:
    """Canonical job order: cells, then functions, algorithms, trials."""
    jobs = []
    for dim, pop in plan.cells():
        suite = _suite(dim, plan.suite_seed)
        names = [f.name for f in suite]
        if plan.functions is not None:
            missing = set(plan.functions) - set(names)
            if missing:
                raise ValueError(f"unknown suite functions: {sorted(missing)}")
            names = [n for n in names if n in set(plan.functions)]
        for name in names:
            for algo in plan.algorithms:
                for trial in range(plan.trials):
                    seed = derive_seed(plan.master_seed, algo, name,
                                       dim, pop, trial)
                    jobs.append((algo, name, dim, pop, plan.g_max, trial,
                                 seed, plan.suite_seed, trace_dir))
    return jobs


def run_trial(algo: str, function: str, dim: int, pop: int, gmax: int,
              trial: int, seed: int, suite_seed: int,
              trace_dir: Optional[str] = None) -> TrialRecord:
    """Execute one seeded trial; objective failures become NaN rows."""
    fn = next(f for f in _suite(dim, suite_seed) if f.name == function)
    try:
        t0 = time.perf_counter()
        if algo == "quasar":
            cfg = QuasarConfig(pop_size=pop, g_max=gmax, seed=seed)
            result = quasar_mod.optimize(fn, fn.bounds, cfg)
        elif algo == "de":
            cfg = DeConfig(pop_size=pop, g_max=gmax, seed=seed)
            result = de_mod.de_optimize(fn, fn.bounds, cfg)
        else:
            raise ValueError(f"unknown algorithm: {algo!r}")
        runtime = time.perf_counter() - t0
    except (ValueError, FloatingPointError):
        # Failed-row marker; the run continues with the remaining trials.
        return TrialRecord(algo, function, dim, pop, gmax, trial, seed,
                           float("nan"), float("nan"), 0)
    if trace_dir is not None:
        path = Path(trace_dir) / f"{algo}_{function}_D{dim}_N{pop}_t{trial}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savetxt(path, result.trace)
    return TrialRecord(algo, function, dim, pop, gmax, trial, seed,
                       result.error, runtime, result.eval_count)


def _warm_up() -> None:
    """Load the Sobol direction table (~15-20 ms, once per process) before
    any trial is timed, so it does not land in the first trial's
    runtime_sec."""
    sobol_sample(1, BoundsBox.cube(0.0, 1.0, 1))


def _check_same_results(plan_path: Path, plan: ExperimentPlan) -> None:
    """Refuse to resume a directory whose plan.json differs from ``plan`` in
    a field that changes results; adding cells, trials, functions or
    algorithms is fine."""
    if not plan_path.exists():
        return
    old, new = json.loads(plan_path.read_text()), asdict(plan)
    diffs = [f"{k}: {old.get(k)!r} there, {new[k]!r} now"
             for k in RESULT_FIELDS if old.get(k) != new[k]]
    if diffs:
        raise ValueError(
            f"{plan_path.parent} holds results of another plan ("
            + "; ".join(diffs) + ")"
        )


def _drop_torn_row(records_path: Path) -> None:
    """Cut a final row that lacks its newline (a kill mid-write), so its
    trial reruns. Every complete row ends in a newline."""
    with open(records_path, "rb+") as fh:
        data = fh.read()
        if data and not data.endswith(b"\n"):
            fh.truncate(data.rfind(b"\n") + 1)


def run_plan(plan: ExperimentPlan, out_dir) -> SummaryTable:
    """Run every trial of the plan, append records, then summarize.

    Existing rows in ``out_dir/records.csv`` are treated as completed and
    skipped, so rerunning a finished directory performs no optimizer
    executions; a torn final row is dropped and its trial rerun. A
    directory whose plan.json differs in a RESULT_FIELDS entry raises
    ValueError. Returns the SummaryTable also written to summary.json.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records_path = out / "records.csv"
    _check_same_results(out / "plan.json", plan)
    (out / "plan.json").write_text(json.dumps(asdict(plan), indent=2))

    done = set()
    if records_path.exists():
        _drop_torn_row(records_path)
        for rec in load_records(records_path):
            done.add((rec.algo, rec.function, rec.dim, rec.pop, rec.trial))
    else:
        records_path.write_text(CSV_HEADER + "\n")

    trace_dir = str(out / "traces") if plan.save_traces else None
    jobs = [j for j in _plan_jobs(plan, trace_dir)
            if (j[0], j[1], j[2], j[3], j[5]) not in done]

    workers = int(os.environ.get(WORKERS_ENV, "1"))
    with open(records_path, "a") as fh:
        if workers > 1 and len(jobs) > 1:
            with ProcessPoolExecutor(max_workers=workers,
                                     initializer=_warm_up) as pool:
                # Submission order == canonical order; write in that order.
                for record in pool.map(run_trial, *zip(*jobs)):
                    fh.write(record.csv_row() + "\n")
                    fh.flush()
        elif jobs:
            _warm_up()
            for job in jobs:
                fh.write(run_trial(*job).csv_row() + "\n")
                fh.flush()

    return emit_summary(records_path, out)


def load_records(path) -> List[TrialRecord]:
    """Parse a records CSV; malformed rows are reported with line numbers."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty records file") from None
        if ",".join(header) != CSV_HEADER:
            raise ValueError(
                f"{path}: line 1: bad header {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 10:
                raise ValueError(
                    f"{path}: line {lineno}: expected 10 fields, got {len(row)}"
                )
            try:
                records.append(TrialRecord(
                    algo=row[0], function=row[1], dim=int(row[2]),
                    pop=int(row[3]), gmax=int(row[4]), trial=int(row[5]),
                    seed=int(row[6]), final_error=float(row[7]),
                    runtime_sec=float(row[8]), evals=int(row[9]),
                ))
            except ValueError as exc:
                raise ValueError(
                    f"{path}: line {lineno}: {exc}"
                ) from None
    return records


def group_scenarios(records: List[TrialRecord]):
    """Group finite records into aligned ScenarioResults.

    Returns (scenarios, algorithms, n_failed); algorithm order follows
    first appearance, scenario order follows first appearance of the
    (function, dim, pop) key. Trials present for only some algorithms of a
    scenario are dropped to keep vectors aligned.
    """
    finite = [r for r in records if np.isfinite(r.final_error)]
    n_failed = len(records) - len(finite)
    algorithms = list(dict.fromkeys(r.algo for r in finite))

    by_key: Dict[tuple, Dict[str, Dict[int, TrialRecord]]] = {}
    for r in finite:
        key = (r.function, r.dim, r.pop)
        by_key.setdefault(key, {}).setdefault(r.algo, {})[r.trial] = r

    scenarios = []
    for (function, dim, pop), per_algo in by_key.items():
        common = None
        for trials in per_algo.values():
            ids = set(trials)
            common = ids if common is None else common & ids
        common = sorted(common or ())
        if not common:
            continue
        errors = {a: np.array([per_algo[a][t].final_error for t in common])
                  for a in per_algo}
        runtimes = {a: np.array([per_algo[a][t].runtime_sec for t in common])
                    for a in per_algo}
        scenarios.append(ScenarioResults(function, dim, pop, errors, runtimes))
    return scenarios, algorithms, n_failed


def _scenario_summary(sc: ScenarioResults, reference: Optional[str]) -> ScenarioSummary:
    gm_error = {
        a: float(np.exp(np.mean(np.log(np.maximum(v, ERROR_FLOOR)))))
        for a, v in sc.errors.items()
    }
    mean_runtime = {a: float(np.mean(v)) for a, v in sc.runtimes.items()}
    summary = ScenarioSummary(
        function=sc.function, dim=sc.dim, pop=sc.pop, n_trials=sc.n_trials,
        gm_error=gm_error, mean_runtime=mean_runtime,
        error_floor_applied=bool(
            any(np.any(v < ERROR_FLOOR) for v in sc.errors.values())
        ),
    )
    if reference is None or reference not in sc.errors:
        return summary
    ref_err = sc.errors[reference]
    ref_time = sc.runtimes[reference]
    for algo, err in sc.errors.items():
        if algo == reference:
            continue
        g = gmerf(err, ref_err)
        summary.gmerf[algo] = g
        summary.gmerf_ci[algo] = _ci(err, ref_err, g)
        summary.p_error[algo] = _paired_p(err, ref_err)
        summary.p_runtime[algo] = _paired_p(sc.runtimes[algo], ref_time)
    return summary


def _ci(comp: np.ndarray, ref: np.ndarray, point: float) -> List[float]:
    """95% GMERF interval; a single trial has no spread, so [point, point]."""
    return list(gmerf_ci(comp, ref)) if comp.size >= 2 else [point, point]


def _paired_p(x: np.ndarray, y: np.ndarray) -> Optional[float]:
    """Wilcoxon p with the degenerate cases absorbed: exact equality means
    no evidence of a difference (p=1), too few nonzero pairs means None."""
    nonzero = int(np.sum(x - y != 0.0))
    if nonzero == 0:
        return 1.0
    if nonzero < 5:
        return None
    return wilcoxon_signed_rank(x, y)[1]


def summarize_records(records: List[TrialRecord]) -> SummaryTable:
    """Aggregate records into the full SummaryTable."""
    scenarios, algorithms, n_failed = group_scenarios(records)
    if not scenarios:
        raise ValueError("no complete scenarios to summarize")
    reference = REFERENCE_ALGO if REFERENCE_ALGO in algorithms else None
    summaries = [_scenario_summary(sc, reference) for sc in scenarios]

    # Friedman over scenarios where every algorithm is present.
    rank_sums: Dict[str, float] = {}
    friedman_stat = friedman_p = None
    full = [sc for sc in scenarios if set(sc.errors) == set(algorithms)]
    if len(algorithms) >= 2 and full:
        medians = np.array([
            [float(np.median(sc.errors[a])) for a in algorithms]
            for sc in full
        ])
        fr = friedman_rank_sums(medians)
        rank_sums = {a: float(s) for a, s in zip(algorithms, fr.rank_sums)}
        friedman_stat, friedman_p = fr.statistic, fr.p_value

    gmerf_overall_d: Dict[str, float] = {}
    gmerf_overall_ci: Dict[str, List[float]] = {}
    ratio_by_dim: Dict[str, Dict[str, float]] = {}
    ratio_by_pop: Dict[str, Dict[str, float]] = {}
    ratio_overall: Dict[str, float] = {}
    if reference is not None:
        for algo in algorithms:
            if algo == reference:
                continue
            pair = [sc for sc in scenarios
                    if algo in sc.errors and reference in sc.errors]
            if not pair:
                continue
            g = gmerf_overall([gmerf(sc.errors[algo], sc.errors[reference])
                               for sc in pair])
            gmerf_overall_d[algo] = g
            gmerf_overall_ci[algo] = _ci(
                np.concatenate([sc.errors[algo] for sc in pair]),
                np.concatenate([sc.errors[reference] for sc in pair]), g)

            tc = np.concatenate([sc.runtimes[algo] for sc in pair])
            tr = np.concatenate([sc.runtimes[reference] for sc in pair])
            dims = np.concatenate([[sc.dim] * sc.n_trials for sc in pair])
            pops = np.concatenate([[sc.pop] * sc.n_trials for sc in pair])
            cells = np.array([f"{d}/{p}" for d, p in zip(dims, pops)])
            ratio_by_dim[algo] = runtime_ratios(tc, tr, dims).ratio_of_means
            ratio_by_pop[algo] = runtime_ratios(tc, tr, pops).ratio_of_means
            ratio_overall[algo] = runtime_ratios(tc, tr, cells).overall

    return SummaryTable(
        algorithms=algorithms,
        reference=reference,
        scenarios=summaries,
        rank_sums=rank_sums,
        friedman_statistic=friedman_stat,
        friedman_p=friedman_p,
        gmerf_overall=gmerf_overall_d,
        gmerf_overall_ci=gmerf_overall_ci,
        runtime_ratio_by_dim=ratio_by_dim,
        runtime_ratio_by_pop=ratio_by_pop,
        runtime_ratio_overall=ratio_overall,
        n_failed_trials=n_failed,
    )


def emit_summary(records_path, out_dir=None) -> SummaryTable:
    """Summarize a records CSV into summary.json and plot_data.csv."""
    records_path = Path(records_path)
    out = Path(out_dir) if out_dir is not None else records_path.parent
    out.mkdir(parents=True, exist_ok=True)
    table = summarize_records(load_records(records_path))

    (out / "summary.json").write_text(
        json.dumps(asdict(table), indent=2, sort_keys=True) + "\n"
    )
    lines = ["algo,function,dim,pop,gm_error,mean_runtime_sec"]
    for sc in table.scenarios:
        for algo in table.algorithms:
            if algo not in sc.gm_error:
                continue
            lines.append(
                f"{algo},{sc.function},{sc.dim},{sc.pop},"
                f"{repr(sc.gm_error[algo])},{repr(sc.mean_runtime[algo])}"
            )
    (out / "plot_data.csv").write_text("\n".join(lines) + "\n")
    return table
