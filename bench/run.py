"""Benchmark of quasar-opt: one workload per process, run against the package
source in ../src.

    python3 bench/run.py --workload desk_grid --seed 0 --seconds 30 --trace 0

It sets up (import plus suite build, several times), repeats the workload's
fixed seeded plan until --seconds have passed, checks the results, and
prints as its last line {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, measured
with nothing wrapped. With --trace 1 they are its per-layer metrics: traced
and untraced repeats alternate, and the traced ones record spans around the
calls into each layer (layers.py). The line before the result holds the
machine record, the plan, the result digest and the QUASAR/DE runtime ratio.
design.json gives the reason for each workload and metric.
"""

import argparse
import contextlib
import csv
import importlib
import io
import json
import os
import resource
import shutil
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import layers
import measure
from measure import Outcome, median, percentile
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("core", "sampling", "benchmarks", "quasar", "de", "harness",
           "stats", "cli")
CSV_HEADER = "algo,function,dim,pop,gmax,trial,seed,final_error,runtime_sec,evals"

# desk_grid: the paper's desk scale, full suite, serial, through the CLI.
DESK_DIM, DESK_POP, DESK_GMAX, DESK_TRIALS = 10, 100, 100, 3
# wide_run: direct optimizer calls at library-user scale.
WIDE_DIM, WIDE_POP, WIDE_GMAX = 100, 1000, 10
WIDE_FUNCTIONS = ("rastrigin", "rosenbrock", "ackley")
# pool_resume: four cells of ~10x different cost over two pool workers; 5
# trials per cell, so the summary runs its paired tests.
POOL_DIMS, POOL_POPS, POOL_GMAX, POOL_TRIALS = (10, 30), (100, 300), 50, 5
POOL_FUNCTIONS = WIDE_FUNCTIONS
POOL_WORKERS = 2

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
MIN_REPEATS = 3          # untraced; the digest must repeat across them
MIN_TRACED_REPEATS = 5   # traced, untraced, traced, untraced, traced


@dataclass
class Rep:
    """One repeat of a workload's plan."""

    outcomes: List[Outcome]
    wall: float                      # seconds of the timed trial work
    traced: bool
    passes: Dict[str, dict] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


def set_up(dims, suite_seed: int):
    """Import the package from ../src and build the suites SETUP_REPEATS
    times; returns the modules and the median set-up time.

    The first repeat also pays for numpy and scipy; the later ones import
    the package afresh, so work moved into its import time still shows."""
    src = ROOT / "src"
    if not (src / "quasar_opt" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found under {src}")
    # One BLAS/OpenMP thread, set before numpy loads. Final errors differ in
    # the last bits between thread counts, so the digest holds only at a
    # fixed count; forked pool workers inherit it, so 2 workers use 2 cores.
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before its threads were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules
                     if n == "quasar_opt" or n.startswith("quasar_opt.")]:
            del sys.modules[name]
        t0 = perf_counter()
        pkg = types.SimpleNamespace(**{
            m: importlib.import_module(f"quasar_opt.{m}") for m in MODULES
        })
        for dim in dims:
            pkg.benchmarks.make_suite(dim, suite_seed)
        times.append(perf_counter() - t0)
    where = Path(pkg.core.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"error: imported quasar_opt from {where}, not {src}")
    return pkg, median(times)


def read_records(path: Path) -> List[Outcome]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if ",".join(reader.fieldnames or ()) != CSV_HEADER:
            raise RuntimeError(f"{path}: bad header {reader.fieldnames}")
        return [
            Outcome(r["algo"], r["function"], int(r["dim"]), int(r["pop"]),
                    int(r["gmax"]), int(r["trial"]), int(r["seed"]),
                    float(r["final_error"]), int(r["evals"]),
                    float(r["runtime_sec"]))
            for r in reader
        ]


def call_cli(pkg, argv: List[str]) -> float:
    """Run the CLI in-process with its stdout discarded; returns wall time."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        code = pkg.cli.main(argv)
        wall = perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"quasar-opt {' '.join(argv)} exited {code}")
    return wall


@contextlib.contextmanager
def workers_env(n: int):
    old = os.environ.get("QUASAR_WORKERS")
    os.environ["QUASAR_WORKERS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            del os.environ["QUASAR_WORKERS"]
        else:
            os.environ["QUASAR_WORKERS"] = old


def clear_suite_cache(pkg) -> None:
    """Make each repeat build its suites, as a fresh CLI process does. If
    the cache goes away, repeats still match: the exact-count check on
    core.rng_calls would show a cache that survived between them."""
    cache_clear = getattr(getattr(pkg.harness, "_suite", None),
                          "cache_clear", None)
    if cache_clear is not None:
        cache_clear()


def run_argv(dims, pops, gmax, trials, master, suite, out: Path,
             functions=None) -> List[str]:
    only = ["--functions", ",".join(functions)] if functions else []
    return ["run", "--mode", "custom", *only,
            "--dims", ",".join(map(str, dims)),
            "--pops", ",".join(map(str, pops)),
            "--gmax", str(gmax), "--trials", str(trials),
            "--seed", str(master), "--suite-seed", str(suite),
            "--algos", "quasar,de", "--out", str(out)]


class Workload:
    """Runs repeats of one plan; `tracer` is None for an untraced repeat."""

    name = ""
    dims: tuple = ()     # suite dimensions built during set-up

    def __init__(self, pkg, master: int, suite: int, work: Path):
        self.pkg, self.master, self.suite, self.work = pkg, master, suite, work

    def plan(self) -> dict:
        raise NotImplementedError

    def repeat(self, tracer: Optional[Tracer], spans) -> Rep:
        raise NotImplementedError

    def before(self, tracer: Optional[Tracer], spans) -> None:
        """Work done once, before the repeats."""

    def after(self, reps: List[Rep]) -> List[str]:
        """Work done once, after the repeats; returns failed checks."""
        return []

    def layer_metrics(self, traced: List[Rep], tracer: Tracer) -> List[dict]:
        """Per-layer metrics of each traced repeat."""
        raise NotImplementedError

    def trial_passes(self, reps: List[Rep]) -> list:
        """(spans, outcomes) of the traced passes that ran trials here."""
        return [(r.passes["run"], r.outcomes) for r in reps if r.traced]

    def _traced_cli(self, tracer, spans, argv) -> tuple:
        """One CLI call, traced if a tracer is given; (wall, spans)."""
        with maybe_traced(tracer, spans):
            wall = call_cli(self.pkg, argv)
        return wall, tracer.take() if tracer else {}


def maybe_traced(tracer: Optional[Tracer], spans):
    return tracer.installed(spans) if tracer else contextlib.nullcontext()


def _warm_init(traced: List[Rep]) -> List[float]:
    """Initial-population call times of the traced repeats, without the
    first one: the first repeat of a traced run is traced, so its first
    call is the cold first call of the process."""
    times = []
    for rep in traced:
        s = rep.passes["run"].get("sampling.init")
        if s:
            times.extend(s.durations)
    return times[1:]


class DeskGrid(Workload):
    name = "desk_grid"
    dims = (DESK_DIM,)

    def plan(self):
        return {"dims": [DESK_DIM], "pops": [DESK_POP], "gmax": DESK_GMAX,
                "trials": DESK_TRIALS, "functions": "suite",
                "master_seed": self.master, "suite_seed": self.suite}

    def repeat(self, tracer, spans):
        out = self.work / "desk"
        shutil.rmtree(out, ignore_errors=True)
        clear_suite_cache(self.pkg)
        argv = run_argv([DESK_DIM], [DESK_POP], DESK_GMAX, DESK_TRIALS,
                        self.master, self.suite, out)
        wall, stats = self._traced_cli(tracer, spans, argv)
        return Rep(read_records(out / "records.csv"), wall, tracer is not None,
                   {"run": stats})

    def layer_metrics(self, traced, tracer):
        warm = _warm_init(traced)
        per_rep = []
        for rep in traced:
            stats = rep.passes["run"]
            m = layers.trial_layers(stats, tracer.first, warm)
            m.update(layers.run_pass(stats, rep.outcomes, 1))
            m.update(layers.resume_pass(stats))
            m["harness.resume_ms"] = 0.0    # no resume pass here
            m.update(layers.summary_pass(stats))
            per_rep.append(m)
        return per_rep


class WideRun(Workload):
    name = "wide_run"
    dims = (WIDE_DIM,)

    def plan(self):
        return {"dim": WIDE_DIM, "pop": WIDE_POP, "gmax": WIDE_GMAX,
                "functions": list(WIDE_FUNCTIONS), "master_seed": self.master,
                "suite_seed": self.suite}

    def _run(self) -> List[Outcome]:
        q, de = self.pkg.quasar, self.pkg.de
        suite = {f.name: f for f in
                 self.pkg.benchmarks.make_suite(WIDE_DIM, self.suite)}
        outcomes = []
        for name in WIDE_FUNCTIONS:
            fn = suite[name]
            for algo in ("quasar", "de"):
                seed = measure.trial_seed(self.master, algo, name)
                if algo == "quasar":
                    optimize = q.optimize
                    cfg = q.QuasarConfig(pop_size=WIDE_POP, g_max=WIDE_GMAX,
                                         seed=seed)
                else:
                    optimize = de.de_optimize
                    cfg = de.DeConfig(pop_size=WIDE_POP, g_max=WIDE_GMAX,
                                      seed=seed)
                t0 = perf_counter()
                try:
                    result = optimize(fn, fn.bounds, cfg)
                    error, evals = result.error, result.eval_count
                except (ValueError, FloatingPointError):
                    error, evals = float("nan"), 0
                outcomes.append(Outcome(algo, name, WIDE_DIM, WIDE_POP,
                                        WIDE_GMAX, 0, seed, error, evals,
                                        perf_counter() - t0))
        return outcomes

    def repeat(self, tracer, spans):
        with maybe_traced(tracer, spans):
            t0 = perf_counter()
            outcomes = self._run()
            wall = perf_counter() - t0
        return Rep(outcomes, wall, tracer is not None,
                   {"run": tracer.take() if tracer else {}})

    def layer_metrics(self, traced, tracer):
        warm = _warm_init(traced)
        # No harness, stats or CLI on this path.
        unused = dict.fromkeys(layers.HARNESS_METRICS, 0.0)
        return [{**layers.trial_layers(rep.passes["run"], tracer.first, warm),
                 **unused} for rep in traced]


class PoolResume(Workload):
    name = "pool_resume"
    dims = POOL_DIMS

    def plan(self):
        return {"dims": list(POOL_DIMS), "pops": list(POOL_POPS),
                "gmax": POOL_GMAX, "trials": POOL_TRIALS,
                "functions": list(POOL_FUNCTIONS),
                "workers": POOL_WORKERS, "master_seed": self.master,
                "suite_seed": self.suite}

    def _argv(self, out: Path) -> List[str]:
        return run_argv(POOL_DIMS, POOL_POPS, POOL_GMAX, POOL_TRIALS,
                        self.master, self.suite, out, POOL_FUNCTIONS)

    def repeat(self, tracer, spans):
        out = self.work / "pool"
        shutil.rmtree(out, ignore_errors=True)
        clear_suite_cache(self.pkg)
        passes = {}
        with workers_env(POOL_WORKERS):
            wall, passes["fresh"] = self._traced_cli(tracer, spans,
                                                     self._argv(out))
            records = (out / "records.csv").read_bytes()
            # The resume pass is always watched for run_trial calls.
            watch = tracer or Tracer()
            watched = spans if tracer else [
                t for t in spans if t[2] == "harness.run_trial"]
            _, passes["resume"] = self._traced_cli(watch, watched,
                                                   self._argv(out))
            _, passes["summarize"] = self._traced_cli(
                tracer, spans, ["summarize", "--in", str(out)])
        errors = []
        if (out / "records.csv").read_bytes() != records:
            errors.append("resume rerun changed records.csv")
        ran = layers.calls(passes["resume"], "harness.run_trial")
        if ran:
            errors.append(f"resume rerun called run_trial {ran} times")
        if tracer is None:
            passes["resume"] = {}
        return Rep(read_records(out / "records.csv"), wall, tracer is not None,
                   passes, errors)

    def _serial(self, tracer, spans) -> tuple:
        out = self.work / "serial"
        shutil.rmtree(out, ignore_errors=True)
        clear_suite_cache(self.pkg)
        with workers_env(1):
            _, stats = self._traced_cli(tracer, spans, self._argv(out))
        return read_records(out / "records.csv"), stats

    def before(self, tracer, spans):
        # Traced runs do the serial pass first, so that it sees the first
        # initial-population call of the process.
        self.serial = self._serial(tracer, spans) if tracer else None

    def after(self, reps):
        if self.serial is None:
            self.serial = self._serial(None, [])
        if measure.digest(self.serial[0]) != measure.digest(reps[0].outcomes):
            return ["pool records differ from a serial run of the same plan"]
        return []

    def trial_passes(self, reps):
        outcomes, stats = self.serial
        return [(stats, outcomes)]

    def layer_metrics(self, traced, tracer):
        _, stats = self.serial
        init = stats.get("sampling.init")
        warm = init.durations[1:] if init else []
        serial = layers.trial_layers(stats, tracer.first, warm)
        per_rep = []
        for rep in traced:
            m = dict(serial)
            m.update(layers.run_pass(rep.passes["fresh"], rep.outcomes,
                                     POOL_WORKERS))
            m.update(layers.resume_pass(rep.passes["resume"]))
            m.update(layers.summary_pass(rep.passes["summarize"]))
            per_rep.append(m)
        return per_rep


WORKLOADS = {w.name: w for w in (DeskGrid, WideRun, PoolResume)}


def trace_checks(workload: Workload, reps: List[Rep]) -> List[str]:
    """Span counts must agree with the results they produced."""
    errors = []
    for stats, outcomes in workload.trial_passes(reps):
        evals = layers.counter(stats, "benchmarks.eval", "rows")
        if evals != sum(o.evals for o in outcomes):
            errors.append(f"traced evals {evals} != records evals "
                          f"{sum(o.evals for o in outcomes)}")
        want = sum(o.gmax for o in outcomes if o.algo == "quasar")
        got = layers.calls(stats, "quasar.step")
        if got != want:
            errors.append(f"quasar.step calls {got} != g_max x runs {want}")
    return errors


def end_to_end(reps: List[Rep], setup_s: float, attempted: int,
               failed: int) -> dict:
    ok = [o for r in reps for o in r.outcomes if not o.failed]

    def trial_ms(algo, q):
        return 1e3 * percentile(
            [o.runtime_sec for o in ok if o.algo == algo], q)

    def gen_ms(algo):
        return 1e3 * median(
            [o.runtime_sec / o.gmax for o in ok if o.algo == algo])

    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (attempted - failed) / attempted,
        "trials_per_s": median([len(r.outcomes) / r.wall for r in reps]),
        "quasar_trial_ms_p50": trial_ms("quasar", 50),
        "quasar_trial_ms_p90": trial_ms("quasar", 90),
        "de_trial_ms_p50": trial_ms("de", 50),
        "de_trial_ms_p90": trial_ms("de", 90),
        "quasar_gen_ms": gen_ms("quasar"),
        "de_gen_ms": gen_ms("de"),
        "evals_per_s": median([sum(o.evals for o in r.outcomes) / r.wall
                               for r in reps]),
    }


def per_layer(workload: Workload, reps: List[Rep], tracer: Tracer,
              spec: dict) -> tuple:
    """Median of each per-layer metric over the traced repeats; counts named
    exact in design.json must repeat identically."""
    traced = [r for r in reps if r.traced]
    per_rep = workload.layer_metrics(traced, tracer)
    errors = []
    metrics = {}
    for name in per_rep[0]:
        values = [m[name] for m in per_rep]
        if spec["per_layer"][name]["exact"] and len(set(values)) != 1:
            errors.append(f"{name} is not exact: {values}")
        metrics[name] = median(values)
    # Rep 0 is cold, so the overhead compares the later repeats only.
    warm_traced = [r.wall for r in traced[1:]] or [traced[0].wall]
    untraced = [r.wall for r in reps if not r.traced]
    metrics["harness.runtime_ratio"] = layers.runtime_ratio(reps[0].outcomes)
    metrics["trace.overhead_frac"] = median(warm_traced) / median(untraced) - 1
    return metrics, errors


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(HERE / "design.json") as fh:
        design = json.load(fh)
    return {"end_to_end": {m["name"]: m for m in bench["end_to_end"]},
            "per_layer": design["per_layer"],
            "layer_units": {m["name"]: m["unit"] for m in bench["per_layer"]},
            "reference": json.loads((HERE / "reference.json").read_text())}


def repeat_for(workload: Workload, seconds: float, tracer: Optional[Tracer],
               spans) -> tuple:
    """Repeat the plan until `seconds` have passed; with a tracer, every
    other repeat is traced, starting with the first."""
    workload.before(tracer, spans)
    reps: List[Rep] = []
    least = MIN_TRACED_REPEATS if tracer else MIN_REPEATS
    start = perf_counter()
    while len(reps) < least or perf_counter() - start < seconds:
        trace_this = tracer is not None and len(reps) % 2 == 0
        reps.append(workload.repeat(tracer if trace_this else None, spans))
    return reps, workload.after(reps)


def result_checks(reps: List[Rep], reference: Optional[str]) -> List[str]:
    errors = []
    digests = {measure.digest(r.outcomes) for r in reps}
    if len(digests) != 1:
        errors.append(f"results differ between repeats: {sorted(digests)}")
    digest = measure.digest(reps[0].outcomes)
    if reference is not None and reference != digest:
        errors.append(f"digest {digest} != reference {reference}")
    for r in reps:
        errors += r.errors
        errors += measure.eval_errors(r.outcomes)
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="master seed of the plan")
    parser.add_argument("--suite-seed", type=int, default=None,
                        help="seed of the test-function suite "
                             "(default: the master seed)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    spec = load_spec()
    suite_seed = args.seed if args.suite_seed is None else args.suite_seed
    cls = WORKLOADS[args.workload]

    pkg, setup_s = set_up(cls.dims, suite_seed)
    tracer = Tracer() if args.trace else None
    work = ROOT / ".bench_work" / f"{cls.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(pkg, args.seed, suite_seed, work)
        reps, errors = repeat_for(workload, args.seconds, tracer,
                                  layers.targets(pkg))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    reference = spec["reference"].get(cls.name, {}).get(
        f"{args.seed}/{suite_seed}")
    errors += result_checks(reps, reference)
    attempted = sum(len(r.outcomes) for r in reps)
    failed = sum(o.failed for r in reps for o in r.outcomes)
    if tracer:
        errors += trace_checks(workload, reps)
        metrics, exact_errors = per_layer(workload, reps, tracer, spec)
        errors += exact_errors
        units = spec["layer_units"]
    else:
        metrics = end_to_end(reps, setup_s, attempted, failed)
        units = {n: m["unit"] for n, m in spec["end_to_end"].items()}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} are not both "
            f"measured and listed in BENCHMARK.json")

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    first = reps[0].outcomes
    print(json.dumps({
        "workload": cls.name, "plan": workload.plan(),
        "machine": measure.machine_record(THREAD_VARS),
        "repeat_walls": [round(r.wall, 4) for r in reps],
        "traced_repeats": sum(r.traced for r in reps),
        "trials_per_repeat": len(first),
        "trial_samples": {a: sum(o.algo == a and not o.failed
                                 for r in reps for o in r.outcomes)
                          for a in ("quasar", "de")},
        "digest": measure.digest(first),
        "reference_checked": reference is not None,
        "runtime_ratio": layers.runtime_ratio(first),
        "gm_error": {a: measure.gm_error(
            [o.final_error for o in first if o.algo == a],
            pkg.stats.ERROR_FLOOR) for a in ("quasar", "de")},
    }))
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]}
                    for n in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
