"""The generation kernels build their outputs in buffers of their own: no
step, reinitialization or objective may write into the arrays it is given.

Every input is compared bitwise (its bytes) with a copy taken before the
call, and no output may share memory with an input.
"""

import numpy as np
import pytest

from quasar_opt import (
    BoundsBox,
    DeConfig,
    Population,
    QuasarConfig,
    RngStream,
    make_suite,
    sample_reinit_positions,
    step,
)
from quasar_opt import de, quasar
from quasar_opt.benchmarks import BASE_FUNCTIONS
from quasar_opt.core import evaluate_rows
from quasar_opt.de import _de_step
from quasar_opt.quasar import EliteStats


def snapshot(*arrays):
    return [(a.shape, a.dtype, a.tobytes()) for a in arrays]


def suite_case(name="rastrigin", dim=8, n=40):
    fn = next(f for f in make_suite(dim, 3) if f.name == name)
    # A spread population, some of it on the bounds, so clipping acts.
    positions = RngStream(5).uniform(-150.0, 150.0, (n, dim))
    positions = np.clip(positions, fn.bounds.low, fn.bounds.high)
    fitness = evaluate_rows(fn, positions, 0, range(n))
    return fn, Population(positions, fitness, generation=0, eval_count=n)


def inputs_of(fn, pop):
    return (pop.positions, pop.fitness, fn.bounds.low, fn.bounds.high,
            fn.shift, fn.rotation)


@pytest.mark.parametrize("generation", [0, 7])
def test_quasar_step_leaves_population_and_bounds_unchanged(generation):
    fn, pop = suite_case()
    pop = Population(pop.positions, pop.fitness, generation, pop.eval_count)
    before = snapshot(*inputs_of(fn, pop))
    cfg = QuasarConfig(pop_size=pop.size, g_max=10, seed=1)
    new, info = step(fn, fn.bounds, pop, cfg, RngStream(2))
    assert snapshot(*inputs_of(fn, pop)) == before
    assert 0 < info.n_reinit < pop.size      # both halves of the step ran
    for out in (new.positions, new.fitness):
        for arr in inputs_of(fn, pop):
            assert not np.shares_memory(out, arr)
    # The same input steps to the same output again.
    again, _ = step(fn, fn.bounds, pop, cfg, RngStream(2))
    assert np.array_equal(again.positions, new.positions)


def test_de_step_leaves_population_and_bounds_unchanged():
    fn, pop = suite_case()
    before = snapshot(*inputs_of(fn, pop))
    cfg = DeConfig(pop_size=pop.size, g_max=10, f_weight=1.7, cr=0.6)
    new = _de_step(fn, fn.bounds, pop, cfg, RngStream(2))
    assert snapshot(*inputs_of(fn, pop)) == before
    for out in (new.positions, new.fitness):
        for arr in inputs_of(fn, pop):
            assert not np.shares_memory(out, arr)
    again = _de_step(fn, fn.bounds, pop, cfg, RngStream(2))
    assert np.array_equal(again.positions, new.positions)


# The apply half of a generation makes no draw and writes none: the same
# draws applied twice to the same population give the same bits, and every
# draw array ends as it was drawn.
def test_quasar_apply_only_reads_its_draws():
    fn, pop = suite_case()
    cfg = QuasarConfig(pop_size=pop.size, g_max=10)
    draws = quasar._draw(RngStream(2), cfg, pop.size, pop.dim, 0)
    before = snapshot(*draws)
    runs = [quasar._apply(fn, fn.bounds, pop, cfg, draws) for _ in range(2)]
    assert snapshot(*draws) == before
    (a, info), (b, again) = runs
    assert 0 < info.n_reinit < pop.size      # both halves of the step ran
    assert (snapshot(a.positions, a.fitness, info.reinit_mask,
                     info.strategy_counts)
            == snapshot(b.positions, b.fitness, again.reinit_mask,
                        again.strategy_counts))
    assert ((info.n_reinit, info.cholesky_fallback, info.n_accepted)
            == (again.n_reinit, again.cholesky_fallback, again.n_accepted))


def test_de_apply_only_reads_its_draws():
    fn, pop = suite_case()
    cfg = DeConfig(pop_size=pop.size, g_max=10)
    draws = de._draw(RngStream(2), pop.size, pop.dim)
    before = snapshot(*draws)
    a, b = [de._apply(fn, fn.bounds, pop, cfg, draws) for _ in range(2)]
    assert snapshot(*draws) == before
    assert (snapshot(a.positions, a.fitness)
            == snapshot(b.positions, b.fitness))


@pytest.mark.parametrize("sigma,fallback", [
    (np.diag([4.0, 1.0, 0.25]), 0),
    (np.zeros((3, 3)), 1),
    (-np.eye(3), 2),
])
def test_reinit_batch_leaves_elite_stats_and_bounds_unchanged(sigma,
                                                              fallback):
    stats = EliteStats(mu=np.array([0.5, -2.0, 9.0]), sigma=sigma, m=4)
    box = BoundsBox(np.array([-1.0, -3.0, 0.0]), np.array([1.0, 3.0, 10.0]))
    before = snapshot(stats.mu, stats.sigma, box.low, box.high)
    z = RngStream(4).normal(size=(12, 3))
    y, got = sample_reinit_positions(stats, box, z[:6], z[6:], 20.0)
    assert got == fallback
    assert snapshot(stats.mu, stats.sigma, box.low, box.high) == before
    assert y.shape == (6, 3) and box.contains(y)
    for arr in (stats.mu, stats.sigma, box.low, box.high):
        assert not np.shares_memory(y, arr)


@pytest.mark.parametrize("name", sorted(BASE_FUNCTIONS))
@pytest.mark.parametrize("shape", [(7,), (30, 7)])
def test_base_function_leaves_its_input_unchanged(name, shape):
    z = RngStream(6).normal(0.0, 50.0, shape)
    before = snapshot(z)
    BASE_FUNCTIONS[name][0](z)
    assert snapshot(z) == before


def test_suite_objective_leaves_its_input_unchanged():
    for fn in make_suite(6, 2):
        X = RngStream(7).uniform(-100.0, 100.0, (25, 6))
        before = snapshot(X, fn.shift, fn.rotation)
        fn.evaluate_many(X)
        fn.evaluate(X[0])
        assert snapshot(X, fn.shift, fn.rotation) == before
