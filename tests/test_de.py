from types import SimpleNamespace

import numpy as np
import pytest
from oracles import binomial_crossover, greedy_select

from quasar_opt import BoundsBox, DeConfig, Population, RngStream, de_optimize
from quasar_opt.core import evaluate_rows
from quasar_opt.de import _de_step, _draw
from quasar_opt.sampling import sobol_sample


def sphere_objective(dim):
    return SimpleNamespace(dim=dim, known_optimum=0.0,
                           evaluate_many=lambda X: np.sum(X * X, axis=1))


def fresh_pop(objective, bounds, n):
    positions = sobol_sample(n, bounds)
    fitness = evaluate_rows(objective, positions, 0, range(n))
    return Population(positions, fitness, 0, n)


class TestDistinctDonors:
    def test_pairwise_distinct_and_not_target(self):
        rng = RngStream(0)
        for n, d in ((4, 1), (5, 3), (9, 10), (30, 2)):
            for _ in range(50):
                r1, r2, r3, j_rand = _draw(rng, n, d)[:4]
                idx = np.arange(n)
                for a, b in ((r1, r2), (r1, r3), (r2, r3),
                             (r1, idx), (r2, idx), (r3, idx)):
                    assert np.all(a != b)
                for r in (r1, r2, r3):
                    assert np.all((0 <= r) & (r < n))
                assert np.all((0 <= j_rand) & (j_rand < d))

    def test_donors_cover_all_indices(self):
        rng = RngStream(1)
        seen, seen_j = set(), set()
        for _ in range(200):
            r1, _, _, j_rand = _draw(rng, 6, 4)[:4]
            seen.update(r1.tolist())
            seen_j.update(j_rand.tolist())
        assert seen == set(range(6))
        assert seen_j == set(range(4))


class TestDegenerateOperators:
    def test_1d_best_fitness_constant(self):
        # With F=0 every mutant copies an existing member and with D=1 the
        # forced crossover component makes the whole trial that copy, so no
        # new value can undercut the incumbent best.
        bounds = BoundsBox.cube(-3.0, 9.0, 1)
        obj = sphere_objective(1)
        frozen = DeConfig(f_weight=0.0, cr=0.0, pop_size=12, g_max=25, seed=4)
        baseline = DeConfig(f_weight=0.0, cr=0.0, pop_size=12, g_max=0, seed=4)
        assert (de_optimize(obj, bounds, frozen).best_fitness
                == de_optimize(obj, bounds, baseline).best_fitness)

    def test_coordinates_only_shuffle(self):
        # For D > 1, F=0/CR=0 trials splice single coordinates from other
        # members: no coordinate value can appear that was not already
        # present in that dimension's initial value set.
        bounds = BoundsBox.cube(-5.0, 5.0, 3)
        obj = sphere_objective(3)
        cfg = DeConfig(f_weight=0.0, cr=0.0, pop_size=10, g_max=0, seed=2)
        pop = fresh_pop(obj, bounds, 10)
        initial_values = [set(pop.positions[:, d].tolist()) for d in range(3)]
        rng = RngStream(9)
        for _ in range(20):
            pop = _de_step(obj, bounds, pop, cfg, rng)
            for d in range(3):
                assert set(pop.positions[:, d].tolist()) <= initial_values[d]

    def test_per_individual_monotonicity(self):
        bounds = BoundsBox.cube(-10.0, 10.0, 4)
        obj = sphere_objective(4)
        cfg = DeConfig(pop_size=15, g_max=0, seed=0)
        pop = fresh_pop(obj, bounds, 15)
        rng = RngStream(3)
        for _ in range(30):
            before = pop.fitness.copy()
            pop = _de_step(obj, bounds, pop, cfg, rng)
            assert np.all(pop.fitness <= before)
            assert bounds.contains(pop.positions)


class TestDeOptimize:
    def test_same_seed_identical(self):
        bounds = BoundsBox.cube(-8.0, 8.0, 5)
        obj = sphere_objective(5)
        cfg = DeConfig(pop_size=30, g_max=20, seed=11)
        a = de_optimize(obj, bounds, cfg)
        b = de_optimize(obj, bounds, cfg)
        assert np.array_equal(a.trace, b.trace)
        assert np.array_equal(a.best_position, b.best_position)

    def test_trace_non_increasing(self):
        bounds = BoundsBox.cube(-8.0, 8.0, 5)
        result = de_optimize(sphere_objective(5), bounds,
                             DeConfig(pop_size=30, g_max=40, seed=1))
        assert result.trace.shape == (41,)
        assert np.all(np.diff(result.trace) <= 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DeConfig(pop_size=3)
        with pytest.raises(ValueError):
            DeConfig(cr=1.5)

    # Each of these used to pass validation and fail later, inside
    # sobol_sample, run_generations or SeedSequence, or as a "non-finite
    # objective value" at generation 0. A string or None cr raised a bare
    # TypeError naming no field, and a bool one was accepted.
    @pytest.mark.parametrize("field,value", [
        ("pop_size", 20.0), ("pop_size", 20.5), ("g_max", 3.0),
        ("g_max", True), ("seed", -1), ("f_weight", float("nan")),
        ("f_weight", float("inf")), ("init_method", "uniform"),
        ("cr", "0.9"), ("cr", None), ("cr", True),
    ])
    def test_bad_value_named_up_front(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            DeConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = DeConfig(pop_size=np.int64(12), g_max=np.int32(3),
                       seed=np.uint64(2**64 - 1))
        result = de_optimize(sphere_objective(2), BoundsBox.cube(-1, 1, 2), cfg)
        assert result.eval_count == 48

    def test_zero_generations(self):
        bounds = BoundsBox.cube(-8.0, 8.0, 3)
        obj = sphere_objective(3)
        result = de_optimize(obj, bounds, DeConfig(pop_size=12, g_max=0, seed=0))
        init = sobol_sample(12, bounds)
        assert result.best_fitness == float(np.min(np.sum(init * init, axis=1)))


def test_trials_match_the_oracle_and_keep_the_mutant_at_j_rand():
    """_de_step's trials equal the per-individual reference fed the same
    stream: mutant X_r1 + F (X_r2 - X_r3), clipped, binomial crossover with
    the target, and the mutant's component at j_rand whatever the draw. The
    next population is the per-individual greedy selection. The reference
    draws r1, r2, r3 and j_rand in four scalar-bound calls, so the step's
    single merged draw must use the stream the same way."""
    n, d = 12, 6
    bounds = BoundsBox.cube(-5.0, 5.0, d)
    seen = []
    obj = SimpleNamespace(dim=d, evaluate_many=lambda X: seen.append(
        X.copy()) or np.sum(X * X, axis=1))
    pop = fresh_pop(obj, bounds, n)
    cfg = DeConfig(pop_size=n, f_weight=0.8, cr=0.3)
    new = _de_step(obj, bounds, pop, cfg, RngStream(9))

    rng = RngStream(9)
    r1, r2, r3, j_rand = (rng.integers(0, high, size=n)
                          for high in (n - 1, n - 2, n - 3, d))
    x, forced = pop.positions, 0
    expected = np.empty((n, d))
    for i in range(n):
        # Each donor skips the target and the donors drawn before it.
        taken = [i]
        for r in (r1, r2, r3):
            for t in sorted(taken):
                r[i] += r[i] >= t
            taken.append(r[i])
        assert len(set(taken)) == 4
        v = np.clip(x[r1[i]] + cfg.f_weight * (x[r2[i]] - x[r3[i]]),
                    bounds.low, bounds.high)
        expected[i] = binomial_crossover(x[i], v, cfg.cr, rng)
        forced += expected[i, j_rand[i]] != v[j_rand[i]]
        expected[i, j_rand[i]] = v[j_rand[i]]
    assert forced        # some draws would have kept the target at j_rand
    assert np.array_equal(seen[-1], expected)

    trial_fit = np.sum(expected * expected, axis=1)
    kept = [greedy_select(x[i], pop.fitness[i], expected[i], trial_fit[i])
            for i in range(n)]
    accepted = sum(fu < fx for fu, fx in zip(trial_fit, pop.fitness))
    assert 0 < accepted < n      # both branches of the selection occur
    assert np.array_equal(new.positions, [pos for pos, _ in kept])
    assert np.array_equal(new.fitness, [fit for _, fit in kept])
