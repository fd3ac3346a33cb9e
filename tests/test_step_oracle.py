"""A whole QUASAR step against the scalar oracles, and a step whose every
member is reinitialized.

The oracle replays a second stream of the same seed in the order `step`
documents: reinit Bernoullis, reinit Gaussians and noise, strategy
selectors, local factors, global factors, donor indices, crossover matrix.
It builds each trial one individual at a time with `oracles.mutate` and
`oracles.binomial_crossover` (d uniforms per row use the stream as one
(m, d) draw does) and keeps it with `oracles.greedy_select`.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from oracles import binomial_crossover, greedy_select, mutate
from quasar_opt import (
    BoundsBox,
    Population,
    QuasarConfig,
    RngStream,
    compute_elite_stats,
    optimize,
    reinit_probability,
    sample_reinit_positions,
    step,
)
from quasar_opt.core import evaluate_rows
from quasar_opt.quasar import (
    MutationStrategy,
    sample_f_global,
    sample_f_local,
    select_strategy,
)
from quasar_opt.sampling import sobol_sample


def coarse_sphere(dim):
    """Sphere rounded to quarters, so fitness ties occur in ranking and in
    selection."""
    return SimpleNamespace(dim=dim, evaluate_many=lambda X: np.floor(
        4.0 * np.sum(X * X, axis=1)) / 4.0)


def oracle_step(objective, bounds, pop, cfg, rng):
    """One generation, built per individual; returns (positions, fitness,
    reinit_mask, n_reinit, fallback, strategy_counts, n_accepted)."""
    n, d = pop.size, pop.dim
    order = sorted(range(n), key=lambda i: pop.fitness[i])     # stable
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)

    positions, fitness = pop.positions.copy(), pop.fitness.copy()
    n_slice = int(cfg.reinit_fraction * n)
    p = reinit_probability(pop.generation, cfg.g_max, cfg.p_final,
                           cfg.g_final)
    chosen = [i for i, u in zip(order[n - n_slice:], rng.random(n_slice))
              if u < p]
    fallback = 0
    if chosen:
        stats = compute_elite_stats(pop, cfg.elite_fraction,
                                    cfg.epsilon_jitter)
        new_pos, fallback = sample_reinit_positions(
            stats, bounds, rng, cfg.noise_divisor, len(chosen))
        positions[chosen] = new_pos
        fitness[chosen] = evaluate_rows(objective, new_pos, pop.generation,
                                        chosen)

    var_idx = [i for i in range(n) if i not in chosen]
    m = len(var_idx)
    strategies = select_strategy(rng, cfg.entangle_rate, m)
    is_best = strategies == MutationStrategy.SPOOKY_BEST
    local = iter(sample_f_local(rng, int(is_best.sum())))
    glob = iter(sample_f_global(rng, m - int(is_best.sum())))
    factors = [next(local) if b else next(glob) for b in is_best]
    donors = [r + (r >= i) for i, r in
              zip(var_idx, rng.integers(0, n - 1, size=m))]

    snapshot = Population(positions.copy(), fitness.copy(), pop.generation)
    best_idx = min(range(n), key=lambda i: fitness[i])
    trials = []
    for i, s, f, r in zip(var_idx, strategies, factors, donors):
        v = mutate(i, MutationStrategy(s), snapshot, best_idx, bounds, f, r)
        cr = max((n - 1 - ranks[i]) / (n - 1), cfg.cr_floor)
        trials.append(binomial_crossover(snapshot.positions[i], v, cr, rng))
    n_accepted = 0
    if m:
        trial_fit = evaluate_rows(objective, np.array(trials), pop.generation,
                                  var_idx)
        for i, u, fu in zip(var_idx, trials, trial_fit):
            n_accepted += bool(fu < fitness[i])
            positions[i], fitness[i] = greedy_select(positions[i],
                                                     fitness[i], u, fu)
    reinit_mask = np.isin(np.arange(n), chosen)
    counts = np.bincount(strategies, minlength=3)
    return (positions, fitness, reinit_mask, len(chosen), fallback, counts,
            n_accepted)


@pytest.mark.parametrize("seed,reinit_fraction", [
    (0, 0.33), (1, 0.33), (2, 0.5), (3, 1.0), (4, 1.0)])
def test_step_equals_the_scalar_oracles(seed, reinit_fraction):
    n, d, g_max = 12, 4, 6
    bounds = BoundsBox.cube(-3.0, 3.0, d)
    objective = coarse_sphere(d)
    cfg = QuasarConfig(pop_size=n, g_max=g_max, seed=seed,
                       reinit_fraction=reinit_fraction)
    x0 = sobol_sample(n, bounds)
    pop = Population(x0, evaluate_rows(objective, x0, 0, range(n)), 0, n)
    rng, replay = RngStream(seed), RngStream(seed)
    seen = set()
    for _ in range(g_max):
        expected = oracle_step(objective, bounds, pop, cfg, replay)
        pop, info = step(objective, bounds, pop, cfg, rng)
        assert np.array_equal(pop.positions, expected[0])
        assert np.array_equal(pop.fitness, expected[1])
        assert np.array_equal(info.reinit_mask, expected[2])
        assert (info.n_reinit, info.cholesky_fallback) == expected[3:5]
        assert np.array_equal(info.strategy_counts, expected[5])
        assert info.n_accepted == expected[6]
        seen.add(info.n_reinit == n)
    # Both the all-reinitialized step and ordinary ones occur at fraction 1.
    assert seen == ({True, False} if reinit_fraction == 1.0 else {False})


def test_all_reinitialized_step_never_calls_the_objective_with_no_rows():
    """With reinit_fraction 1 the first step replaces every member, so no
    trial is left to vary; an objective that reduces over its input must
    still complete the run."""
    d = 4
    rows = []

    def evaluate_many(X):
        rows.append(len(X))
        np.max(X)       # raises on an empty matrix
        return np.sum(X * X, axis=1)

    bounds = BoundsBox.cube(-3.0, 3.0, d)
    objective = SimpleNamespace(dim=d, evaluate_many=evaluate_many)
    result = optimize(objective, bounds, QuasarConfig(
        pop_size=10, g_max=5, seed=0, reinit_fraction=1.0))
    assert rows[:2] == [10, 10] and 0 not in rows
    assert result.eval_count == sum(rows) == 10 * 6
