"""Pinned results for fixed seeds: any bit drift in the QUASAR or DE kernels
fails here without running the benchmark.

Each case pins repr(final error), the evaluation count and, for QUASAR, the
StepInfo counts summed over the run. The cases cover a plain run, a run
where reinitialization replaces most of the population every generation
(including generations with an empty variation set), and runs that reach
both Cholesky fallbacks (rank-deficient elites in a wide box, and a plateau
objective whose elites are the same points every generation).
"""

import numpy as np
import pytest

import quasar_opt.quasar as quasar_mod
from quasar_opt import (
    BoundsBox,
    DeConfig,
    FunctionObjective,
    QuasarConfig,
    de_optimize,
    make_suite,
    optimize,
)


def suite_function(name, dim, seed):
    return next(f for f in make_suite(dim, seed) if f.name == name)


def shifted_sphere(dim):
    return FunctionObjective(
        lambda x: float(np.sum((x - 3.0e5) ** 2)), dim, known_optimum=0.0,
        batch=lambda X: np.sum((X - 3.0e5) ** 2, axis=1))


def plateau(dim):
    return FunctionObjective(lambda x: 1.0, dim, known_optimum=None,
                             batch=lambda X: np.ones(len(X)))


def quasar_cases():
    rastrigin = suite_function("rastrigin", 10, 3)
    ackley = suite_function("ackley", 6, 4)
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
}


def de_cases():
    rastrigin = suite_function("rastrigin", 10, 3)
    rosenbrock = suite_function("rosenbrock", 5, 7)
    return {
        "rastrigin_d10": (rastrigin, rastrigin.bounds,
                          DeConfig(pop_size=40, g_max=30, seed=11)),
        "rosenbrock_d5": (rosenbrock, rosenbrock.bounds,
                          DeConfig(pop_size=20, g_max=40, seed=3)),
    }


# name: (repr(error), eval_count)
DE_GOLDEN = {
    "rastrigin_d10":
        ('688.214597911963', 1240),
    "rosenbrock_d5":
        ('670.5555767483222', 820),
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

