"""A whole QUASAR step against the scalar oracles, and a step whose every
member is reinitialized.

The oracle replays a second stream of the same seed in the order
`quasar._draw` documents: reinit Bernoullis, reinit Gaussians and noise,
strategy selectors, local factors, global factors, donor indices, crossover
matrix.
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
    _apply,
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
        k = len(chosen)
        z = rng.normal(size=(2 * k, d))
        new_pos, fallback = sample_reinit_positions(
            stats, bounds, z[:k], z[k:], cfg.noise_divisor)
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


@pytest.mark.parametrize("strategy", list(MutationStrategy))
def test_hand_built_draws_equal_the_scalar_oracles(strategy):
    """_apply on draws built by hand, with no stream: every strategy forced
    to one code, crossover uniforms 0 (so each trial is its whole mutant),
    one reinit hit whose zero normals give the elite mean, and exact
    fitness ties in the ranking and in selection: every row has a twin,
    and a zero factor makes a trial a copy of a member or of its twin."""
    n, d = 12, 3
    bounds = BoundsBox.cube(-3.0, 3.0, d)
    objective = coarse_sphere(d)
    x0 = sobol_sample(n, bounds)
    x0[6:] = x0[:6]
    pop = Population(x0, evaluate_rows(objective, x0, 0, range(n)), 3, n)
    cfg = QuasarConfig(pop_size=n, g_max=10)
    hit = np.array([True, False, False])    # the floor(0.33 * 12) worst
    order = sorted(range(n), key=lambda i: pop.fitness[i])     # stable
    chosen = order[n - 3]
    var_idx = [i for i in range(n) if i != chosen]
    m = n - 1
    f = np.resize([0.0, 0.7, -0.45], m)
    # Factors of 0 and 0.7 take the member's twin (i + 6) % 12 as donor
    # (a draw skips i); factor -0.45 draws r = i, which maps to i + 1.
    r = np.array([(i + 5 if i < 6 else i - 6) if fj >= 0 else min(i, n - 2)
                  for i, fj in zip(var_idx, f)])
    draws = (hit, np.zeros((2, d)), np.full(m, int(strategy), np.int8), f,
             r, np.zeros((m, d)))
    new, info = _apply(objective, bounds, pop, cfg, draws)

    elite_mean = sum(pop.positions[i] for i in order[:3]) / 3
    positions, fitness = pop.positions.copy(), pop.fitness.copy()
    positions[chosen] = elite_mean
    fitness[chosen] = objective.evaluate_many(elite_mean[None])[0]
    snapshot = Population(positions.copy(), fitness.copy(), pop.generation)
    best_idx = min(range(n), key=lambda i: fitness[i])
    outcomes = []
    for i, fj, rj in zip(var_idx, f, r):
        u = mutate(i, strategy, snapshot, best_idx, bounds, fj,
                   rj + (rj >= i))
        fu = objective.evaluate_many(u[None])[0]
        outcomes.append(float(np.sign(fu - fitness[i])))
        positions[i], fitness[i] = greedy_select(positions[i], fitness[i],
                                                 u, fu)
    assert {0.0, -1.0} <= set(outcomes)     # ties and wins both occur
    assert np.array_equal(new.positions, positions)
    assert np.array_equal(new.fitness, fitness)
    assert info.n_reinit == 1
    assert np.array_equal(info.reinit_mask, np.arange(n) == chosen)
    assert info.strategy_counts[int(strategy)] == m
    assert info.n_accepted == outcomes.count(-1.0)


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
