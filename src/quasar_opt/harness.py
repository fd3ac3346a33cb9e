"""Experiment runner: seeded trial grids, CSV records, JSON summaries.

A ``TrialRecord`` describes one trial from plan to row: ``_plan_jobs``
yields the records still to run, ``run_trial`` fills in their outcome, and
the record's fields are the columns of ``records.csv``, whose exact header is
``algo,function,dim,pop,gmax,trial,seed,final_error,runtime_sec,evals``.
Rows are appended in a canonical order, one per finished trial, so
interrupted runs resume by skipping them; a trial whose objective fails
keeps the record's ``nan,nan,0`` defaults. ``emit_summary`` turns a records
file into ``summary.json`` plus ``plot_data.csv`` beside it (long format: one
row per scenario/algorithm with geometric-mean error and mean runtime).

Per-trial seeds derive from the plan coordinates alone, so results are
independent of execution order and of the worker count (set the
``QUASAR_WORKERS`` environment variable to parallelize trials).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from collections.abc import Iterable
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache, partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from . import de as de_mod
from . import quasar as quasar_mod
from .benchmarks import BASE_FUNCTIONS, make_suite
from .core import require_int
from .de import DeConfig
from .quasar import QuasarConfig
from .stats import (
    ERROR_FLOOR,
    ScenarioSummary,
    SummaryTable,
    gmerf,
    gmerf_ci,
    gmerf_overall,
    friedman_rank_sums,
    runtime_ratios,
    wilcoxon_signed_rank,
)

WORKERS_ENV = "QUASAR_WORKERS"
# Algorithm name -> (config class, module, optimizer name). The optimizer
# is looked up in its module at call time, so it can be wrapped.
_OPTIMIZERS = {
    "quasar": (QuasarConfig, quasar_mod, "optimize"),
    "de": (DeConfig, de_mod, "de_optimize"),
}
ALGORITHMS = tuple(_OPTIMIZERS)
REFERENCE_ALGO = "quasar"
# Plan fields that change a trial's result without changing its resume key.
RESULT_FIELDS = ("g_max", "master_seed", "suite_seed")


@dataclass(frozen=True)
class TrialRecord:
    """One trial, planned or run: its fields are the CSV columns in order.
    The outcome defaults (``nan,nan,0``) mark a trial that has not run or
    whose objective failed."""

    algo: str
    function: str
    dim: int
    pop: int
    gmax: int
    trial: int
    seed: int
    final_error: float = float("nan")
    runtime_sec: float = float("nan")
    evals: int = 0

    @property
    def key(self) -> Tuple[str, str, int, int, int]:
        """The resume key: the plan coordinates that derive the seed."""
        return (self.algo, self.function, self.dim, self.pop, self.trial)

    def csv_row(self) -> str:
        return (
            f"{self.algo},{self.function},{self.dim},{self.pop},"
            f"{self.gmax},{self.trial},{self.seed},"
            f"{repr(float(self.final_error))},{self.runtime_sec:.6f},"
            f"{self.evals}"
        )


CSV_HEADER = ",".join(f.name for f in fields(TrialRecord))
# The column types double as the parsers of a CSV row.
_PARSERS = tuple(get_type_hints(TrialRecord).values())


@dataclass(frozen=True)
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
        require_int("g_max", self.g_max, 0)
        require_int("trials", self.trials, 1)
        require_int("master_seed", self.master_seed)
        require_int("suite_seed", self.suite_seed, 0)
        for name in ("dims", "pop_sizes", "algorithms", "functions"):
            values = getattr(self, name)
            if name == "functions" and values is None:
                continue
            # A string would be read as a list of its letters.
            if isinstance(values, str) or not isinstance(values, Iterable):
                raise ValueError(f"{name} must be a list, got {values!r}")
            # Tuples, so a checked plan cannot be changed in place.
            values = tuple(values)
            object.__setattr__(self, name, values)
            if not values:
                suite = " (None runs the suite)" if name == "functions" else ""
                raise ValueError(f"{name} must be nonempty{suite}")
            # Elements first: sorting or hashing a bad one raises TypeError.
            for v in values:
                if name in ("dims", "pop_sizes"):
                    require_int(name, v)
                elif not isinstance(v, str):
                    raise ValueError(f"{name} must list strings, got {v!r}")
            repeated = {v for v in values if values.count(v) > 1}
            if repeated:
                raise ValueError(f"{name} repeats {sorted(repeated)}")
        if min(self.dims) < 2:
            raise ValueError("suite functions need dimension >= 2")
        if set(self.algorithms) - set(ALGORITHMS):
            raise ValueError(
                f"algorithms must be a nonempty subset of {ALGORITHMS}, "
                f"got {self.algorithms}")
        unknown = set(self.functions or ()) - set(BASE_FUNCTIONS)
        if unknown:
            raise ValueError(f"unknown suite functions: {sorted(unknown)}")
        for algo in self.algorithms:
            for pop in dict.fromkeys(p for _, p in self.cells()):
                try:
                    _OPTIMIZERS[algo][0](pop_size=pop)
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
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@lru_cache(maxsize=32)
def _suite(dim: int, suite_seed: int) -> Dict[str, object]:
    return {fn.name: fn for fn in make_suite(dim, suite_seed)}


def _plan_jobs(plan: ExperimentPlan) -> List[TrialRecord]:
    """The plan's trials, not yet run, in canonical order: cells, then
    functions, algorithms, trials."""
    names = [n for n in BASE_FUNCTIONS
             if plan.functions is None or n in plan.functions]
    return [TrialRecord(algo, name, dim, pop, plan.g_max, trial,
                        derive_seed(plan.master_seed, algo, name, dim, pop,
                                    trial))
            for dim, pop in plan.cells() for name in names
            for algo in plan.algorithms for trial in range(plan.trials)]


def run_trial(job: TrialRecord, suite_seed: int,
              trace_dir: Optional[str]) -> TrialRecord:
    """Run one planned trial of a checked plan and return its outcome; an
    objective failure returns ``job`` itself, the failed-row marker.

    runtime_sec is the optimizer's own OptResult.runtime_seconds, which
    leaves out the initial draw and so the one-time sampler set-up."""
    config, module, optimizer = _OPTIMIZERS[job.algo]
    fn = _suite(job.dim, suite_seed)[job.function]
    try:
        cfg = config(pop_size=job.pop, g_max=job.gmax, seed=job.seed)
        result = getattr(module, optimizer)(fn, fn.bounds, cfg)
    except (ValueError, FloatingPointError):
        return job    # the run continues with the remaining trials
    if trace_dir is not None:
        path = Path(trace_dir) / (f"{job.algo}_{job.function}_D{job.dim}"
                                  f"_N{job.pop}_t{job.trial}.csv")
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savetxt(path, result.trace)
    return replace(job, final_error=result.error,
                   runtime_sec=result.runtime_seconds,
                   evals=result.eval_count)


def _check_same_results(plan_path: Path, plan: ExperimentPlan) -> None:
    """Refuse to resume a directory whose plan.json differs from ``plan`` in
    a field that changes results; adding cells, trials, functions or
    algorithms is fine."""
    if not plan_path.exists():
        return
    try:
        old = json.loads(plan_path.read_text())
    except ValueError as exc:
        raise ValueError(f"{plan_path}: unreadable plan: {exc}") from None
    if not isinstance(old, dict):
        raise ValueError(f"{plan_path}: unreadable plan: not a JSON object")
    new = asdict(plan)
    diffs = [f"{k}: {old.get(k)!r} there, {new[k]!r} now"
             for k in RESULT_FIELDS if old.get(k) != new[k]]
    if diffs:
        raise ValueError(
            f"{plan_path.parent} holds results of another plan ("
            + "; ".join(diffs) + ")"
        )


def _complete_lines(path) -> bytes:
    """The bytes of ``path`` up to its last newline. A line exists once its
    newline is written, so a tail torn by a kill mid-write is never read,
    and the next append cuts it."""
    data = Path(path).read_bytes()
    return data[:data.rfind(b"\n") + 1]


def _write_whole(path: Path, text: str) -> None:
    """Write ``text`` aside and rename it into place. A whole file exists
    once it is renamed, so a kill never leaves it torn."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _pool(workers: int):
    """A process pool of `workers`, or a null context (None) for one; the
    pool's modules are imported only when a pool opens."""
    if workers < 2:
        return nullcontext()
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def run_plan(plan: ExperimentPlan, out_dir) -> SummaryTable:
    """Run every trial of the plan, append records, then summarize.

    Rows of ``out_dir/records.csv`` are read as ``load_records`` reads them
    and skipped as completed, so rerunning a finished directory performs
    no optimizer executions; a torn final row or header is cut when the
    file is opened for appending, and its trial reruns. ValueError is
    raised before any file or directory is created, cut or renamed when
    plan.json is unreadable or differs in a RESULT_FIELDS entry, when a
    row's gmax or seed is not this plan's, when records.csv has rows but
    plan.json is missing, or when QUASAR_WORKERS is not an integer >= 1.
    Returns the SummaryTable also written to summary.json.
    """
    text = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be an integer >= 1, got {text!r}")
    out = Path(out_dir)
    records_path = out / "records.csv"
    _check_same_results(out / "plan.json", plan)
    kept = _complete_lines(records_path) if records_path.exists() else b""
    done = set()
    if kept:
        # A row with another gmax, or a seed this plan's master seed does
        # not derive, was written by another plan.
        for lineno, rec in enumerate(load_records(records_path), start=2):
            seed = derive_seed(plan.master_seed, *rec.key)
            if (rec.gmax, rec.seed) != (plan.g_max, seed):
                raise ValueError(
                    f"{records_path}: line {lineno}: gmax {rec.gmax} and seed "
                    f"{rec.seed} are not this plan's ({plan.g_max}, {seed})")
            done.add(rec.key)
        # Rows do not carry suite_seed; only plan.json vouches for it.
        if done and not (out / "plan.json").exists():
            raise ValueError(f"{records_path} has rows but {out / 'plan.json'}"
                             " is missing, so their suite_seed is unknown")
    out.mkdir(parents=True, exist_ok=True)
    _write_whole(out / "plan.json", json.dumps(asdict(plan), indent=2))

    jobs = [job for job in _plan_jobs(plan) if job.key not in done]
    trace_dir = str(out / "traces") if plan.save_traces else None
    trial = partial(run_trial, suite_seed=plan.suite_seed, trace_dir=trace_dir)
    # A pool forks all its workers at the first submit, so never start more
    # workers than there are jobs.
    workers = min(workers, len(jobs))
    with open(records_path, "ab") as fh, _pool(workers) as pool:
        fh.truncate(len(kept))    # a torn final row or header
        if not kept:
            fh.write(CSV_HEADER.encode() + b"\n")
        # Either map yields in submission order, which is canonical order.
        for record in (pool.map if pool else map)(trial, jobs):
            fh.write(record.csv_row().encode() + b"\n")
            fh.flush()

    return emit_summary(records_path)


def load_records(path) -> List[TrialRecord]:
    """Parse the complete lines of a records CSV, the rows ``run_plan``
    skips on resume; malformed rows are reported with line numbers."""
    records = []
    reader = csv.reader(io.StringIO(_complete_lines(path).decode(), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty records file") from None
    if ",".join(header) != CSV_HEADER:
        raise ValueError(f"{path}: line 1: bad header {','.join(header)!r}")
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(_PARSERS):
            raise ValueError(f"{path}: line {lineno}: expected "
                             f"{len(_PARSERS)} fields, got {len(row)}")
        try:
            records.append(TrialRecord(
                *(parse(v) for parse, v in zip(_PARSERS, row))))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return records


def _ci(comp: np.ndarray, ref: np.ndarray, point: float) -> List[float]:
    """95% GMERF interval; a single trial has no spread, so [point, point]."""
    return list(gmerf_ci(comp, ref)) if comp.size >= 2 else [point, point]


def _median(values: np.ndarray) -> float:
    """np.median of finite values, bit for bit: the middle one or two sorted
    values, summed onto 0.0 (so a zero median is +0.0) and averaged.
    np.median itself imports numpy.ma."""
    s = np.sort(values)
    h = s.size // 2
    if s.size % 2:
        return 0.0 + float(s[h])
    return (0.0 + float(s[h - 1]) + float(s[h])) / 2


def summarize_records(records: List[TrialRecord]) -> SummaryTable:
    """Aggregate records into the full SummaryTable.

    Non-finite rows count as failed. The rest group by (function, dim, pop)
    scenario, algorithm and trial, where a repeated trial keeps its later
    row. A scenario keeps the trials that every algorithm in it has, so its
    vectors align by trial; one with no such trial is skipped. Algorithm
    and scenario order follow first appearance.
    """
    finite = [r for r in records if np.isfinite(r.final_error)]
    algorithms = list(dict.fromkeys(r.algo for r in finite))
    reference = REFERENCE_ALGO if REFERENCE_ALGO in algorithms else None
    table = SummaryTable(algorithms, reference,
                         n_failed_trials=len(records) - len(finite))
    by_key: Dict[tuple, Dict[str, Dict[int, TrialRecord]]] = {}
    for r in finite:
        key = (r.function, r.dim, r.pop)
        by_key.setdefault(key, {}).setdefault(r.algo, {})[r.trial] = r

    # Per kept scenario: its summary, then per-algorithm aligned errors
    # and runtimes, which the overall statistics below reuse.
    aligned = []
    for (function, dim, pop), per_algo in by_key.items():
        common = sorted(set.intersection(*map(set, per_algo.values())))
        if not common:
            continue
        rows = {a: [trials[t] for t in common] for a, trials in per_algo.items()}
        err = {a: np.array([r.final_error for r in rs]) for a, rs in rows.items()}
        rt = {a: np.array([r.runtime_sec for r in rs]) for a, rs in rows.items()}
        sc = ScenarioSummary(
            function=function, dim=dim, pop=pop, n_trials=len(common),
            gm_error={a: float(np.exp(np.mean(np.log(
                np.maximum(v, ERROR_FLOOR))))) for a, v in err.items()},
            mean_runtime={a: float(np.mean(v)) for a, v in rt.items()},
            error_floor_applied=bool(
                any(np.any(v < ERROR_FLOOR) for v in err.values())),
        )
        for algo in [a for a in err if a != reference and reference in err]:
            g = gmerf(err[algo], err[reference])
            sc.gmerf[algo] = g
            sc.gmerf_ci[algo] = _ci(err[algo], err[reference], g)
            sc.p_error[algo] = wilcoxon_signed_rank(
                err[algo], err[reference])[1]
            sc.p_runtime[algo] = wilcoxon_signed_rank(
                rt[algo], rt[reference])[1]
        table.scenarios.append(sc)
        aligned.append((sc, err, rt))
    if not aligned:
        raise ValueError("no complete scenarios to summarize")

    # Friedman over scenarios where every algorithm is present.
    full = [err for _, err, _ in aligned if len(err) == len(algorithms)]
    if len(algorithms) >= 2 and full:
        fr = friedman_rank_sums(
            [[_median(err[a]) for a in algorithms] for err in full])
        table.rank_sums = {a: float(s) for a, s in zip(algorithms, fr.rank_sums)}
        table.friedman_statistic, table.friedman_p = fr.statistic, fr.p_value

    # Overall statistics pool the scenarios where the algorithm has a
    # GMERF, i.e. runs beside the reference.
    for algo in algorithms:
        pair = [(sc, err, rt) for sc, err, rt in aligned if algo in sc.gmerf]
        if not pair:
            continue
        g = gmerf_overall([sc.gmerf[algo] for sc, _, _ in pair])
        table.gmerf_overall[algo] = g
        table.gmerf_overall_ci[algo] = _ci(
            np.concatenate([err[algo] for _, err, _ in pair]),
            np.concatenate([err[reference] for _, err, _ in pair]), g)

        tc = np.concatenate([rt[algo] for _, _, rt in pair])
        tr = np.concatenate([rt[reference] for _, _, rt in pair])
        dims = np.concatenate([[sc.dim] * sc.n_trials for sc, _, _ in pair])
        pops = np.concatenate([[sc.pop] * sc.n_trials for sc, _, _ in pair])
        cells = np.array([f"{d}/{p}" for d, p in zip(dims, pops)])
        table.runtime_ratio_by_dim[algo] = runtime_ratios(
            tc, tr, dims).ratio_of_means
        table.runtime_ratio_by_pop[algo] = runtime_ratios(
            tc, tr, pops).ratio_of_means
        table.runtime_ratio_overall[algo] = runtime_ratios(
            tc, tr, cells).overall
    return table


def emit_summary(records_path) -> SummaryTable:
    """Summarize a records CSV into summary.json and plot_data.csv beside
    it."""
    out = Path(records_path).parent
    table = summarize_records(load_records(records_path))

    _write_whole(out / "summary.json",
                 json.dumps(asdict(table), indent=2, sort_keys=True) + "\n")
    lines = ["algo,function,dim,pop,gm_error,mean_runtime_sec"]
    for sc in table.scenarios:
        for algo in table.algorithms:
            if algo not in sc.gm_error:
                continue
            lines.append(
                f"{algo},{sc.function},{sc.dim},{sc.pop},"
                f"{repr(sc.gm_error[algo])},{repr(sc.mean_runtime[algo])}"
            )
    _write_whole(out / "plot_data.csv", "\n".join(lines) + "\n")
    return table
