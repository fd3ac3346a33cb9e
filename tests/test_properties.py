"""The run contracts of optimize and de_optimize under random inputs.

Boxes are narrow, asymmetric or mixed-scale; N runs from 5 to 60, D from 1
to 12, g_max from 0 to 20, and the seed and initializer vary. Each run is
checked for: bit-identical reruns; every position that each step emits
inside the box; a trace of g_max + 1 non-increasing entries;
N * (g_max + 1) evaluations; and, for QUASAR, StepInfo counts that agree
with each other. Runs on f and on 2**k * f, which differ only by an exact
power-of-two scale, must make the same decisions.
"""

from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasar_opt.de
import quasar_opt.quasar
from quasar_opt import (BoundsBox, DeConfig, InitMethod, Population,
                        QuasarConfig, de_optimize, optimize)
from quasar_opt.core import evaluate_rows
from quasar_opt.quasar import MutationStrategy, _apply
from quasar_opt.sampling import sobol_sample

SETTINGS = settings(derandomize=True, database=None, max_examples=200,
                    deadline=None)


@st.composite
def boxes(draw):
    """Per dimension: a low end anywhere in [-1e3, 1e3] and a width of
    1e-3 to 1e3, so boxes can be narrow, off-centre and mixed in scale."""
    d = draw(st.integers(1, 12))
    low = draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d))
    exponent = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    low = np.array(low)
    return BoundsBox(low, low + 10.0 ** np.array(exponent, dtype=float))


RUNS = st.fixed_dictionaries({
    "pop_size": st.integers(5, 60),
    "g_max": st.integers(0, 20),
    "seed": st.integers(0, 2**32),
    "init_method": st.sampled_from(list(InitMethod)),
})


class Objective:
    """A scaled sphere around a point inside the box; counts its rows."""

    def __init__(self, bounds: BoundsBox):
        self.dim = bounds.dim
        self.centre = bounds.low + 0.3 * bounds.width
        self.scale = bounds.width
        self.rows = 0

    def evaluate_many(self, X):
        self.rows += len(X)
        return np.sum(((X - self.centre) / self.scale) ** 2, axis=1)


@contextmanager
def recorded(module, name):
    """Every value the module's `name` returns while the block runs; the
    optimizers look their step up at call time."""
    original = getattr(module, name)
    outputs = []

    def record(*args, **kwargs):
        outputs.append(original(*args, **kwargs))
        return outputs[-1]

    setattr(module, name, record)
    try:
        yield outputs
    finally:
        setattr(module, name, original)


def check_run(run, bounds, cfg):
    """Run twice and check the result contracts."""
    objective = Objective(bounds)
    result = run(objective, bounds, cfg)
    again = run(Objective(bounds), bounds, cfg)
    assert result.best_position.tobytes() == again.best_position.tobytes()
    assert result.trace.tobytes() == again.trace.tobytes()
    assert result.best_fitness == again.best_fitness

    assert result.trace.shape == (cfg.g_max + 1,)
    assert np.all(np.diff(result.trace) <= 0)
    assert result.trace[-1] == result.best_fitness
    assert result.eval_count == objective.rows == cfg.pop_size * (cfg.g_max + 1)
    assert bounds.contains(result.best_position)


@SETTINGS
@given(bounds=boxes(), kwargs=RUNS)
def test_quasar_run_contracts(bounds, kwargs):
    cfg = QuasarConfig(**kwargs)
    with recorded(quasar_opt.quasar, "step") as steps:
        check_run(optimize, bounds, cfg)
    n = cfg.pop_size
    assert len(steps) == 2 * cfg.g_max          # the run and its rerun
    for pop, info in steps:
        assert pop.positions.shape == (n, bounds.dim)
        assert bounds.contains(pop.positions)
        varied = np.count_nonzero(~info.reinit_mask)
        assert info.n_reinit + varied == n
        assert info.strategy_counts.sum() == varied
        assert 0 <= info.n_accepted <= varied


@SETTINGS
@given(bounds=boxes(), kwargs=RUNS)
def test_de_run_contracts(bounds, kwargs):
    cfg = DeConfig(**kwargs)
    with recorded(quasar_opt.de, "_de_step") as steps:
        check_run(de_optimize, bounds, cfg)
    assert len(steps) == 2 * cfg.g_max
    for pop in steps:
        assert pop.positions.shape == (cfg.pop_size, bounds.dim)
        assert bounds.contains(pop.positions)


class Scaled:
    """`objective` times 2**k. The product is exact while it neither
    overflows nor underflows, so every comparison of two values comes out
    as it does on `objective`."""

    def __init__(self, objective, k):
        self.dim = objective.dim
        self.objective = objective
        self.factor = 2.0 ** k

    def evaluate_many(self, X):
        return self.factor * self.objective.evaluate_many(X)


# Objective values lie in [0, 6] and, in runs this short, far above the
# subnormals, so 2**k times them neither overflows nor underflows.
SCALES = st.integers(-80, 80)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(bounds=boxes(), kwargs=RUNS, k=SCALES)
@pytest.mark.parametrize("run, config", [(optimize, QuasarConfig),
                                         (de_optimize, DeConfig)])
def test_runs_see_values_only_through_comparisons(run, config, bounds,
                                                  kwargs, k):
    cfg = config(**kwargs)
    base = run(Objective(bounds), bounds, cfg)
    scaled = run(Scaled(Objective(bounds), k), bounds, cfg)
    assert (scaled.trace / 2.0 ** k).tobytes() == base.trace.tobytes()
    assert scaled.best_position.tobytes() == base.best_position.tobytes()
    assert scaled.eval_count == base.eval_count


@pytest.mark.parametrize("k", [-60, -20, 20, 60])
def test_hand_built_step_sees_values_only_through_comparisons(k):
    """One QUASAR generation on hand-built draws: a reinit hit, SPOOKY_BEST
    for all, zero crossover uniforms, and fitness rounded to quarters with
    every row twinned, so the ranking has ties. At k = -60 the fitness
    steps are far below 1e-12."""
    n, d = 12, 3
    bounds = BoundsBox.cube(-3.0, 3.0, d)
    coarse = SimpleNamespace(dim=d, evaluate_many=lambda X: np.floor(
        4.0 * np.sum(X * X, axis=1)) / 4.0)
    x0 = sobol_sample(n, bounds)
    x0[6:] = x0[:6]
    cfg = QuasarConfig(pop_size=n, g_max=10)
    m = n - 1
    draws = (np.array([True, False, False]), np.zeros((2, d)),
             np.full(m, int(MutationStrategy.SPOOKY_BEST), np.int8),
             np.resize([0.0, 0.7, -0.45], m),
             np.arange(m), np.zeros((m, d)))
    results = []
    for objective in (coarse, Scaled(coarse, k)):
        pop = Population(x0, evaluate_rows(objective, x0, 0, range(n)), 3, n)
        results.append(_apply(objective, bounds, pop, cfg, draws))
    (base, base_info), (scaled, scaled_info) = results
    assert 0 < base_info.n_accepted < m
    assert scaled.positions.tobytes() == base.positions.tobytes()
    assert (scaled.fitness / 2.0 ** k).tobytes() == base.fitness.tobytes()
    assert scaled_info.n_accepted == base_info.n_accepted
    assert np.array_equal(scaled_info.reinit_mask, base_info.reinit_mask)
