"""Where the benchmark cuts the package into layers, and the per-layer
metrics it derives from the spans.

The layers are the package modules. Each span wraps a name that a caller in
another layer looks up at call time, so the wrapped calls are exactly the
calls that cross into that layer. Times named *_ms are inclusive span times
unless the name says self.
"""

from __future__ import annotations

from typing import Dict, List

from measure import Outcome, median
from tracing import SpanStats, Target, calls, counter, self_ms, total_ms

RNG_METHODS = ("random", "uniform", "normal", "integers", "permutation")
# Metrics of the layers above the optimizers, from run_pass, resume_pass and
# summary_pass.
HARNESS_METRICS = ("harness.overhead_ms", "harness.pool_busy_frac",
                   "cli.overhead_ms", "harness.resume_ms",
                   "harness.load_records_ms", "harness.jobs_skipped",
                   "stats.summary_ms", "stats.wilcoxon_calls")


def _rows(args, out) -> dict:
    rows, dim = args[1].shape
    return {"rows": rows, "flop": 2 * rows * dim * dim}


def _step_info(args, out) -> dict:
    pop, info = out
    return {
        "members": pop.size,
        "reinit": info.n_reinit,
        "accepted": info.n_accepted,
        "fallbacks": int(info.cholesky_fallback != 0),
    }


def _jobs(args, out) -> dict:
    return {"jobs": len(out)}


def targets(pkg) -> List[Target]:
    """Every wrapped name, by the module whose callers look it up."""
    q, de, h, cli = pkg.quasar, pkg.de, pkg.harness, pkg.cli
    return [
        (q, "initial_population", "sampling.init", None),
        (de, "initial_population", "sampling.init", None),
        (q, "evaluate_rows", "benchmarks.eval", _rows),
        (de, "evaluate_rows", "benchmarks.eval", _rows),
        (pkg.benchmarks, "make_suite", "benchmarks.suite_build", None),
        (h, "make_suite", "benchmarks.suite_build", None),
        (q, "rank_population", "core.rank", None),
        (q, "clip_to_bounds", "core.clip", None),
        (de, "clip_to_bounds", "core.clip", None),
        *[(pkg.core.RngStream, m, "core.rng", None) for m in RNG_METHODS],
        (q, "step", "quasar.step", _step_info),
        (q, "select_strategy", "quasar.draw", None),
        (q, "sample_f_local", "quasar.draw", None),
        (q, "sample_f_global", "quasar.draw", None),
        (q, "compute_elite_stats", "quasar.elite_stats", None),
        (q, "optimize", "quasar.optimize", None),
        (de, "de_optimize", "de.optimize", None),
        (h, "run_trial", "harness.run_trial", None),
        (h, "_plan_jobs", "harness.plan_jobs", _jobs),
        (h, "load_records", "harness.load_records", None),
        (h, "emit_summary", "harness.emit_summary", None),
        (cli, "emit_summary", "harness.emit_summary", None),
        (h, "summarize_records", "stats.summary", None),
        (h, "wilcoxon_signed_rank", "stats.wilcoxon", None),
        (cli, "run_plan", "harness.run_plan", None),
        (cli, "main", "cli.main", None),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trial_layers(stats: Dict[str, SpanStats], first: Dict[str, float],
                 warm_init: List[float]) -> dict:
    """Metrics of the layers a trial runs through, from one pass that ran
    its trials in this process."""
    eval_s = total_ms(stats, "benchmarks.eval") / 1e3
    evals = counter(stats, "benchmarks.eval", "rows")
    members = counter(stats, "quasar.step", "members")
    reinit = counter(stats, "quasar.step", "reinit")
    run_trial = stats.get("harness.run_trial")
    return {
        "sampling.init_calls": calls(stats, "sampling.init"),
        "sampling.init_ms": total_ms(stats, "sampling.init"),
        "sampling.first_call_ms": 1e3 * first.get("sampling.init", 0.0),
        "sampling.warm_call_ms": 1e3 * median(warm_init) if warm_init else 0.0,
        "benchmarks.eval_ms": 1e3 * eval_s,
        "benchmarks.eval_gflops": _ratio(
            counter(stats, "benchmarks.eval", "flop") / 1e9, eval_s),
        "benchmarks.eval_calls": calls(stats, "benchmarks.eval"),
        "benchmarks.rows_per_call": _ratio(
            evals, calls(stats, "benchmarks.eval")),
        "benchmarks.evals": evals,
        "benchmarks.suite_build_ms": total_ms(stats, "benchmarks.suite_build"),
        "core.rank_calls": calls(stats, "core.rank"),
        "core.rank_ms": total_ms(stats, "core.rank"),
        "core.clip_calls": calls(stats, "core.clip"),
        "core.clip_ms": total_ms(stats, "core.clip"),
        "core.rng_calls": calls(stats, "core.rng"),
        "core.rng_ms": total_ms(stats, "core.rng"),
        "quasar.step_calls": calls(stats, "quasar.step"),
        "quasar.step_self_ms": self_ms(stats, "quasar.step"),
        "quasar.draw_ms": total_ms(stats, "quasar.draw"),
        "quasar.elite_stats_ms": total_ms(stats, "quasar.elite_stats"),
        "quasar.optimize_self_ms": self_ms(stats, "quasar.optimize"),
        "quasar.reinit_frac": _ratio(reinit, members),
        "quasar.accept_ratio": _ratio(
            counter(stats, "quasar.step", "accepted"), members - reinit),
        "quasar.cholesky_fallbacks": counter(stats, "quasar.step",
                                             "fallbacks"),
        "de.optimize_calls": calls(stats, "de.optimize"),
        "de.optimize_self_ms": self_ms(stats, "de.optimize"),
        "harness.trial_ms": (1e3 * median(run_trial.durations)
                             if run_trial else 0.0),
    }


def run_pass(stats: Dict[str, SpanStats], outcomes: List[Outcome],
             workers: int) -> dict:
    """Harness and CLI metrics of one `run` subcommand that started from an
    empty directory. With a pool, trial time is spread over the workers."""
    run_ms = total_ms(stats, "harness.run_plan")
    busy_ms = 1e3 * sum(o.runtime_sec for o in outcomes if not o.failed)
    in_process = total_ms(stats, "harness.run_trial")
    trial_ms = in_process if in_process else busy_ms / workers
    return {
        "harness.overhead_ms": (run_ms - trial_ms
                                - total_ms(stats, "harness.emit_summary")),
        "harness.pool_busy_frac": _ratio(busy_ms, workers * run_ms),
        "cli.overhead_ms": total_ms(stats, "cli.main") - run_ms,
    }


def resume_pass(stats: Dict[str, SpanStats]) -> dict:
    """Harness metrics of a `run` into a finished directory."""
    return {
        "harness.resume_ms": total_ms(stats, "harness.run_plan"),
        "harness.load_records_ms": total_ms(stats, "harness.load_records"),
        "harness.jobs_skipped": (counter(stats, "harness.plan_jobs", "jobs")
                                 - calls(stats, "harness.run_trial")),
    }


def summary_pass(stats: Dict[str, SpanStats]) -> dict:
    return {
        "stats.summary_ms": total_ms(stats, "stats.summary"),
        "stats.wilcoxon_calls": calls(stats, "stats.wilcoxon"),
    }


def runtime_ratio(outcomes: List[Outcome]) -> float:
    """The paper's QUASAR/DE runtime ratio: mean trial time of each."""
    def mean(algo):
        ts = [o.runtime_sec for o in outcomes
              if o.algo == algo and not o.failed]
        return sum(ts) / len(ts) if ts else 0.0
    return _ratio(mean("quasar"), mean("de"))
