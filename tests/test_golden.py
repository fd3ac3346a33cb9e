"""Pinned results for fixed seeds: any bit drift in the QUASAR or DE kernels
fails here without running the benchmark.

Each case pins repr(final error), the evaluation count and, for QUASAR, the
StepInfo counts summed over the run. The cases cover a plain run, a run
where reinitialization replaces most of the population every generation
(including generations with an empty variation set), and runs that reach
both Cholesky fallbacks (rank-deficient elites in a wide box, and a plateau
objective whose elites are the same points every generation). One QUASAR and
one DE case run at D=40, N=400, far above the other cases' sizes.

The harness cases pin the exact bytes of ``summary.json``, ``plot_data.csv``
and ``plan.json`` for fixed inputs, so a change to the summary path that
alters any output byte fails here too.
"""

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special

import quasar_opt.quasar as quasar_mod
import quasar_opt.stats as stats_mod
from quasar_opt import (
    BoundsBox,
    DeConfig,
    ExperimentPlan,
    QuasarConfig,
    de_optimize,
    emit_summary,
    make_suite,
    optimize,
    run_plan,
)
from quasar_opt.harness import CSV_HEADER


def suite_function(name, dim, seed):
    return next(f for f in make_suite(dim, seed) if f.name == name)


def shifted_sphere(dim):
    return SimpleNamespace(
        dim=dim, known_optimum=0.0,
        evaluate_many=lambda X: np.sum((X - 3.0e5) ** 2, axis=1))


def plateau(dim):
    return SimpleNamespace(dim=dim, known_optimum=None,
                           evaluate_many=lambda X: np.ones(len(X)))


def quasar_cases():
    rastrigin = suite_function("rastrigin", 10, 3)
    ackley = suite_function("ackley", 6, 4)
    ackley40 = suite_function("ackley", 40, 6)
    return {
        "rastrigin_d10": (rastrigin, rastrigin.bounds,
                          QuasarConfig(pop_size=40, g_max=30, seed=11)),
        "heavy_reinit": (ackley, ackley.bounds,
                         QuasarConfig(pop_size=30, g_max=25, seed=5,
                                      p_final=0.9, g_final=1.0,
                                      reinit_fraction=1.0)),
        "wide_box_fallbacks": (shifted_sphere(10),
                               BoundsBox.cube(-1e6, 1e6, 10),
                               QuasarConfig(pop_size=12, g_max=20, seed=1)),
        "plateau_fallbacks": (plateau(4), BoundsBox.cube(-1e5, 1e5, 4),
                              QuasarConfig(pop_size=12, g_max=10, seed=2)),
        "ackley_d40": (ackley40, ackley40.bounds,
                       QuasarConfig(pop_size=400, g_max=4, seed=21)),
    }


# name: (repr(error), eval_count, n_reinit, n_accepted, strategy_counts,
#        generations per cholesky_fallback level 0/1/2)
QUASAR_GOLDEN = {
    "rastrigin_d10":
        ('103.94010693551354', 1240, 109, 538, [336, 374, 381], [30, 0, 0]),
    "heavy_reinit":
        ('20.478912161398547', 780, 720, 14, [15, 7, 8], [25, 0, 0]),
    "wide_box_fallbacks":
        ('162292803129.25977', 252, 18, 117, [77, 64, 81], [8, 5, 7]),
    "plateau_fallbacks":
        ('1.0', 132, 13, 0, [39, 31, 37], [3, 7, 0]),
    "ackley_d40":
        ('21.20058594126053', 2000, 229, 343, [426, 463, 482], [4, 0, 0]),
}


def de_cases():
    rastrigin = suite_function("rastrigin", 10, 3)
    rosenbrock = suite_function("rosenbrock", 5, 7)
    rosenbrock40 = suite_function("rosenbrock", 40, 6)
    return {
        "rastrigin_d10": (rastrigin, rastrigin.bounds,
                          DeConfig(pop_size=40, g_max=30, seed=11)),
        "rosenbrock_d5": (rosenbrock, rosenbrock.bounds,
                          DeConfig(pop_size=20, g_max=40, seed=3)),
        "rosenbrock_d40": (rosenbrock40, rosenbrock40.bounds,
                           DeConfig(pop_size=400, g_max=4, seed=21)),
    }


# name: (repr(error), eval_count)
DE_GOLDEN = {
    "rastrigin_d10":
        ('688.214597911963', 1240),
    "rosenbrock_d5":
        ('670.5555767483222', 820),
    "rosenbrock_d40":
        ('58942111500.5989', 2000),
}


def run_quasar_counted(monkeypatch, f, bounds, cfg):
    """optimize() with every StepInfo summed on the way."""
    totals = {"n_reinit": 0, "n_accepted": 0,
              "strategy_counts": np.zeros(3, dtype=int),
              "fallbacks": [0, 0, 0]}
    real_step = quasar_mod.step

    def counting_step(*args):
        pop, info = real_step(*args)
        totals["n_reinit"] += info.n_reinit
        totals["n_accepted"] += info.n_accepted
        totals["strategy_counts"] += info.strategy_counts
        totals["fallbacks"][info.cholesky_fallback] += 1
        return pop, info

    monkeypatch.setattr(quasar_mod, "step", counting_step)
    result = optimize(f, bounds, cfg)
    return (repr(result.error), result.eval_count, totals["n_reinit"],
            totals["n_accepted"], totals["strategy_counts"].tolist(),
            totals["fallbacks"])


@pytest.mark.parametrize("name", sorted(QUASAR_GOLDEN))
def test_quasar_golden(name, monkeypatch):
    f, bounds, cfg = quasar_cases()[name]
    assert run_quasar_counted(monkeypatch, f, bounds, cfg) == QUASAR_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(DE_GOLDEN))
def test_de_golden(name):
    f, bounds, cfg = de_cases()[name]
    result = de_optimize(f, bounds, cfg)
    assert (repr(result.error), result.eval_count) == DE_GOLDEN[name]



# Summary bytes. Fixed synthetic records files cover every branch of the
# summary path: per-scenario and pooled confidence intervals (with the
# point-value fallback for one trial), an error floored at 1e-12, a NaN
# row, a trial present for one algorithm only, a one-algorithm scenario, a
# Friedman tie on medians, identical runtimes (p = 1), too few nonzero
# pairs (p = None), and the cases listed above EDGE_CELLS.

# (function, dim, pop): {algo: (errors, runtimes)}, trial t is index t.
SUMMARY_CELLS = {
    ("sphere", 10, 50): {
        "quasar": ([0.5, 0.25, 1.5, 0.75, 2.0, 0.125],
                   [0.011, 0.012, 0.010, 0.013, 0.011, 0.012]),
        "de": ([2.0, 3.5, 1.0, 4.0, 2.5, 6.0],
               [0.020, 0.021, 0.019, 0.022, 0.020, 0.023]),
    },
    ("ackley", 10, 50): {
        "quasar": ([0.0, 1e-3, 2e-3, 5e-4, 1e-13, 3e-3],
                   [0.011, 0.011, 0.012, 0.010, 0.011, 0.012]),
        "de": ([0.1, 0.2, 0.05, 0.3, 0.15, float("nan")],
               [0.020, 0.020, 0.021, 0.019, 0.020, float("nan")]),
    },
    ("sphere", 20, 100): {
        "quasar": ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.05] * 6),
        "de": ([0.5, 3.0, 4.0, 6.0, 8.0, 2.0], [0.05] * 6),
    },
    ("ackley", 20, 100): {
        "quasar": ([0.4], [0.06]),
        "de": ([0.8], [0.09]),
    },
    ("rastrigin", 20, 100): {
        "quasar": ([10.0, 12.0, 9.0, 11.0, 13.0, 8.0], [0.07] * 6),
    },
}

SINGLE_TRIAL_CELLS = {
    ("sphere", 10, 50): {"quasar": ([0.3], [0.01]), "de": ([0.9], [0.02])},
}

# An optional third entry lists each row's trial id. Branches the mixed case
# misses: a repeated trial id (the later row wins), a scenario whose
# algorithms share no trial (skipped), and a scenario without the reference
# algorithm while the reference runs elsewhere.
EDGE_CELLS = {
    ("sphere", 10, 50): {
        "quasar": ([0.5, 0.25, 1.5, 0.75, 2.0, 0.125],
                   [0.011, 0.012, 0.010, 0.013, 0.011, 0.012]),
        "de": ([2.0, 3.5, 1.0, 4.0, 2.5, 6.0, 0.4],
               [0.020, 0.021, 0.019, 0.022, 0.020, 0.023, 0.030],
               [0, 1, 2, 3, 4, 5, 2]),
    },
    ("ackley", 10, 50): {
        "quasar": ([0.1, 0.2], [0.011, 0.012], [0, 1]),
        "de": ([0.3, 0.4], [0.021, 0.022], [2, 3]),
    },
    ("rastrigin", 10, 50): {
        "de": ([7.0, 9.0, 8.0], [0.025, 0.024, 0.026]),
    },
}

# name: (SHA-256 of summary.json, plot_data.csv text). Beside the pinned
# bytes, test_summary_equals_the_scipy_special_summary checks the statistic
# fields against scipy.special's ufuncs.
SUMMARY_GOLDEN = {
    "mixed": (
        "0d1af5bc9bad7b80ec7551d21c7a7072595f16ee290e5c6af34a02cb0f9a7aaf",
        "algo,function,dim,pop,gm_error,mean_runtime_sec\n"
        "quasar,sphere,10,50,0.5723571212766659,0.011499999999999998\n"
        "de,sphere,10,50,2.7365804185549725,0.020833333333333332\n"
        "quasar,ackley,10,50,2.5118864315095823e-07,0.011000000000000001\n"
        "de,ackley,10,50,0.13509600385206136,0.02\n"
        "quasar,sphere,20,100,2.993795165523909,0.049999999999999996\n"
        "de,sphere,20,100,2.8844991406148166,0.049999999999999996\n"
        "quasar,ackley,20,100,0.4,0.06\n"
        "de,ackley,20,100,0.8,0.09\n"
        "quasar,rastrigin,20,100,10.358772535435621,0.07\n"),
    "single_trial": (
        "3486f4773a0c86713a38299740f14dc761ccaf0e255d70eaad91a59688770d97",
        "algo,function,dim,pop,gm_error,mean_runtime_sec\n"
        "quasar,sphere,10,50,0.3,0.01\n"
        "de,sphere,10,50,0.9,0.02\n"),
    "edges": (
        "2d1740d3f8df576aa1246520d898fad47f4a633c29a23598988e763480ad9927",
        "algo,function,dim,pop,gm_error,mean_runtime_sec\n"
        "quasar,sphere,10,50,0.5723571212766659,0.011499999999999998\n"
        "de,sphere,10,50,2.349010079323254,0.02266666666666667\n"
        "de,rastrigin,10,50,7.958114415792782,0.024999999999999998\n"),
}

PLAN_JSON_GOLDEN = """{
  "mode": "sample",
  "dims": [
    5
  ],
  "pop_sizes": [
    20,
    30
  ],
  "g_max": 1,
  "trials": 1,
  "master_seed": 9,
  "suite_seed": 1,
  "algorithms": [
    "de"
  ],
  "functions": [
    "sphere"
  ],
  "save_traces": false
}"""


def write_cells(path, cells):
    lines = [CSV_HEADER]
    for (function, dim, pop), per_algo in cells.items():
        for algo, (errors, runtimes, *ids) in per_algo.items():
            trials = ids[0] if ids else range(len(errors))
            for t, e, rt in zip(trials, errors, runtimes):
                lines.append(f"{algo},{function},{dim},{pop},5,{t},{t + 1},"
                             f"{e!r},{rt!r},100")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name,cells", [("mixed", SUMMARY_CELLS),
                                        ("single_trial", SINGLE_TRIAL_CELLS),
                                        ("edges", EDGE_CELLS)])
def test_summary_bytes_golden(name, cells, tmp_path):
    write_cells(tmp_path / "records.csv", cells)
    emit_summary(tmp_path / "records.csv")
    summary = (tmp_path / "summary.json").read_bytes()
    plot_data = (tmp_path / "plot_data.csv").read_text()
    assert (hashlib.sha256(summary).hexdigest(), plot_data) == \
        SUMMARY_GOLDEN[name]


# The summary fields computed from the t, chi-square and normal helpers.
STAT_FIELDS = ("friedman_p", "gmerf_overall_ci", "gmerf_ci", "p_error",
               "p_runtime")


def split_stat_fields(summary):
    """Pop the statistic fields out of a parsed summary.json, top level and
    per scenario, and return them flattened to (path, value) pairs."""
    flat = []

    def walk(path, value):
        if isinstance(value, (dict, list)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            for k, v in items:
                walk(path + (k,), v)
        else:
            flat.append((path, value))

    for i, part in enumerate([summary, *summary["scenarios"]]):
        for name in STAT_FIELDS:
            if name in part:
                walk((i, name), part.pop(name))
    return flat


@pytest.mark.parametrize("cells", [SUMMARY_CELLS, SINGLE_TRIAL_CELLS,
                                   EDGE_CELLS],
                         ids=["mixed", "single_trial", "edges"])
def test_summary_equals_the_scipy_special_summary(cells, tmp_path,
                                                  monkeypatch):
    """The math-module helpers change only the five statistic fields, and
    those by at most 1e-12 relative against scipy.special's ufuncs."""
    records = tmp_path / "records.csv"
    write_cells(records, cells)
    emit_summary(records)
    ours = json.loads((tmp_path / "summary.json").read_text())
    calls = []

    def t_quantile(df, q):
        calls.append("stdtrit")
        return float(scipy.special.stdtrit(df, q))

    def chi2_sf(df, x):
        calls.append("chdtrc")
        # chdtrc gives NaN a hair below 0, where the helper gives 1.0.
        return float(scipy.special.chdtrc(df, max(x, 0.0)))

    def normal_cdf(z):
        calls.append("ndtr")
        return float(scipy.special.ndtr(z))

    monkeypatch.setattr(stats_mod, "_t_quantile", t_quantile)
    monkeypatch.setattr(stats_mod, "_chi2_sf", chi2_sf)
    monkeypatch.setattr(stats_mod, "_normal_cdf", normal_cdf)
    emit_summary(records)
    theirs = json.loads((tmp_path / "summary.json").read_text())
    assert calls
    our_stats, their_stats = split_stat_fields(ours), split_stat_fields(theirs)
    assert ours == theirs
    assert [path for path, _ in our_stats] == [path for path, _ in their_stats]
    for (path, got), (_, want) in zip(our_stats, their_stats):
        if want is None:
            assert got is None, path
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), path


def test_plan_json_golden(tmp_path):
    plan = ExperimentPlan(mode="sample", dims=(5,), pop_sizes=[20, 30],
                          g_max=1, trials=1, master_seed=9,
                          algorithms=("de",), functions=("sphere",))
    run_plan(plan, tmp_path)
    assert (tmp_path / "plan.json").read_text() == PLAN_JSON_GOLDEN
