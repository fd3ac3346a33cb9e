"""The run contracts of optimize and de_optimize under random inputs.

Boxes are narrow, asymmetric or mixed-scale; N runs from 5 to 60, D from 1
to 12, g_max from 0 to 20, and the seed and initializer vary. Each run is
checked for: bit-identical reruns; every position that each step emits
inside the box; a trace of g_max + 1 non-increasing entries;
N * (g_max + 1) evaluations; and, for QUASAR, StepInfo counts that agree
with each other.
"""

from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import quasar_opt.de
import quasar_opt.quasar
from quasar_opt import (BoundsBox, DeConfig, InitMethod, QuasarConfig,
                        de_optimize, optimize)

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
