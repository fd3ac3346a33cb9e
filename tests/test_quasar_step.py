from types import SimpleNamespace

import numpy as np
import pytest

import quasar_opt.quasar as quasar_mod
from oracles import mutate
from quasar_opt import (
    BoundsBox,
    Population,
    QuasarConfig,
    RngStream,
    make_suite,
    optimize,
    step,
)
from quasar_opt.core import evaluate_rows
from quasar_opt.quasar import MutationStrategy, _build_mutants
from quasar_opt.sampling import sobol_sample


def sphere_objective(dim):
    return SimpleNamespace(dim=dim, known_optimum=0.0,
                           evaluate_many=lambda X: np.sum(X * X, axis=1))


def fresh_pop(objective, bounds, n):
    positions = sobol_sample(n, bounds)
    fitness = evaluate_rows(objective, positions, 0, range(n))
    return Population(positions, fitness, 0, n)


class TestStep:
    def test_invariants_over_random_steps(self):
        bounds = BoundsBox.cube(-100.0, 100.0, 6)
        obj = sphere_objective(6)
        cfg = QuasarConfig(pop_size=30, g_max=50, seed=0)
        rng = RngStream(17)
        pop = fresh_pop(obj, bounds, 30)
        best_so_far = pop.fitness.min()
        for _ in range(50):
            before = pop.fitness.copy()
            pop, info = step(obj, bounds, pop, cfg, rng)
            assert bounds.contains(pop.positions)
            # Greedy monotonicity for everyone the reinit did not touch.
            keep = ~info.reinit_mask
            assert np.all(pop.fitness[keep] <= before[keep])
            assert info.cholesky_fallback in (0, 1, 2)
            best_so_far = min(best_so_far, pop.fitness.min())
            assert pop.fitness.min() >= best_so_far

    def test_worsened_individuals_come_from_bottom_slice(self):
        bounds = BoundsBox.cube(-100.0, 100.0, 4)
        obj = sphere_objective(4)
        cfg = QuasarConfig(pop_size=20, g_max=40, seed=0)
        rng = RngStream(3)
        pop = fresh_pop(obj, bounds, 20)
        n_slice = int(cfg.reinit_fraction * 20)
        for _ in range(40):
            ranks_before = np.empty(20, dtype=int)
            order = np.argsort(pop.fitness, kind="stable")
            ranks_before[order] = np.arange(20)
            before = pop.fitness.copy()
            pop, info = step(obj, bounds, pop, cfg, rng)
            worsened = np.flatnonzero(pop.fitness > before)
            assert np.all(info.reinit_mask[worsened])
            assert np.all(ranks_before[worsened] >= 20 - n_slice)

    def test_first_generation_reinitializes_whole_slice(self):
        bounds = BoundsBox.cube(-5.0, 5.0, 3)
        obj = sphere_objective(3)
        cfg = QuasarConfig(pop_size=21, g_max=10, seed=0)
        pop = fresh_pop(obj, bounds, 21)
        _, info = step(obj, bounds, pop, cfg, RngStream(1))
        # P_reinit(0) = 1: every member of the bottom slice is replaced.
        assert info.n_reinit == int(0.33 * 21)

    def test_generation_counter_and_eval_accounting(self):
        bounds = BoundsBox.cube(-5.0, 5.0, 3)
        obj = sphere_objective(3)
        cfg = QuasarConfig(pop_size=20, g_max=10, seed=0)
        pop = fresh_pop(obj, bounds, 20)
        new_pop, info = step(obj, bounds, pop, cfg, RngStream(2))
        assert new_pop.generation == 1
        assert new_pop.eval_count == 20 + info.n_reinit + (20 - info.n_reinit)

    def test_strategy_counts_cover_variation_set(self):
        bounds = BoundsBox.cube(-5.0, 5.0, 3)
        obj = sphere_objective(3)
        cfg = QuasarConfig(pop_size=30, g_max=10, seed=0)
        pop = fresh_pop(obj, bounds, 30)
        _, info = step(obj, bounds, pop, cfg, RngStream(4))
        assert info.strategy_counts.sum() == 30 - info.n_reinit


def never(x):
    raise AssertionError("objective called")


# int(0.05 * 10) is 0, so no member is reinitialized and the trials are the
# step's first evaluation; at 0.33 three members are, and theirs is.
@pytest.mark.parametrize("reinit_fraction", [0.33, 0.05])
@pytest.mark.parametrize("objective,error", [
    (SimpleNamespace(dim=5, evaluate=never), ValueError),
    (SimpleNamespace(dim=4), TypeError),
], ids=["wrong_dim", "no_form"])
def test_step_refuses_what_optimize_refuses(objective, error,
                                            reinit_fraction):
    bounds = BoundsBox.cube(-2.0, 3.0, 4)
    cfg = QuasarConfig(pop_size=10, g_max=5, reinit_fraction=reinit_fraction)
    pop = fresh_pop(sphere_objective(4), bounds, 10)
    with pytest.raises(error) as stepped:
        step(objective, bounds, pop, cfg, RngStream(0))
    with pytest.raises(error) as optimized:
        optimize(objective, bounds, cfg)
    assert str(stepped.value) == str(optimized.value) == {
        ValueError: "objective dim 5 != bounds dim 4",
        TypeError: "objective must be callable or have an evaluate or "
                   "evaluate_many method"}[error]


class TestMechanismIsolation:
    def test_pure_exploitation_only_recombines_with_best(self, monkeypatch):
        # entangle_rate 1 and F_local forced to 0 make every mutant equal
        # X_best; with reinitialization effectively off, any accepted change
        # must splice best-coordinates into the incumbent.
        monkeypatch.setattr(quasar_mod, "sample_f_local",
                            lambda rng, size=None: np.zeros(size) if size is not None else 0.0)
        bounds = BoundsBox.cube(-100.0, 100.0, 5)
        obj = sphere_objective(5)
        cfg = QuasarConfig(pop_size=20, g_max=30, seed=0,
                           entangle_rate=1.0, reinit_fraction=1e-9)
        rng = RngStream(5)
        pop = fresh_pop(obj, bounds, 20)
        for _ in range(30):
            best_before = pop.fitness.min()
            best_row = pop.positions[np.argmin(pop.fitness)].copy()
            prev = pop.positions.copy()
            pop, info = step(obj, bounds, pop, cfg, rng)
            assert info.n_reinit == 0
            assert pop.fitness.min() <= best_before
            changed = np.flatnonzero(np.any(pop.positions != prev, axis=1))
            for i in changed:
                from_parent = pop.positions[i] == prev[i]
                from_best = pop.positions[i] == best_row
                assert np.all(from_parent | from_best)


def hand_picked_case():
    rng = np.random.default_rng(0)
    positions = rng.uniform(-50, 50, size=(12, 4))
    pop = Population(positions, np.arange(12.0))
    var_idx = np.array([1, 3, 4, 7, 9, 11])
    strategies = np.array([0, 1, 2, 0, 1, 2])
    f = rng.normal(size=6)
    rand_idx = np.array([2, 5, 6, 8, 10, 0])
    return pop, 0, var_idx, strategies, f, rand_idx


def seeded_case():
    # ~200 rows over all three strategies, including donors that are the
    # best member.
    rng = np.random.default_rng(123)
    n, rows, best_idx = 40, 200, 7
    pop = Population(rng.uniform(-50, 50, size=(n, 5)), rng.normal(size=n))
    var_idx = rng.integers(0, n, size=rows)
    strategies = rng.integers(0, 3, size=rows).astype(np.int8)
    f = rng.normal(0.0, 0.8, size=rows)
    r = rng.integers(0, n - 1, size=rows)
    rand_idx = r + (r >= var_idx)
    rand_idx[::9] = np.where(var_idx[::9] == best_idx, 0, best_idx)
    assert np.any(rand_idx == best_idx)
    assert set(strategies.tolist()) == {0, 1, 2}
    return pop, best_idx, var_idx, strategies, f, rand_idx


class TestVectorizedMutationMatchesScalarOp:
    def test_build_mutants_equals_mutate(self):
        # The vector path must match the scalar oracle bit for bit.
        for pop, best_idx, var_idx, strategies, f, rand_idx in (
                hand_picked_case(), seeded_case()):
            bounds = BoundsBox.cube(-50.0, 50.0, pop.dim)
            batch = np.clip(
                _build_mutants(pop.positions, best_idx, var_idx, strategies,
                               f, rand_idx),
                -50.0, 50.0,
            )
            for row, (i, s, ff, r) in enumerate(
                    zip(var_idx, strategies, f, rand_idx)):
                scalar = mutate(int(i), MutationStrategy(int(s)), pop,
                                best_idx, bounds, f_factor=float(ff),
                                rand_index=int(r))
                assert np.array_equal(batch[row], scalar), row


class TestOptimize:
    def test_zero_generations_returns_initial_best(self):
        bounds = BoundsBox.cube(-100.0, 100.0, 4)
        obj = sphere_objective(4)
        cfg = QuasarConfig(pop_size=25, g_max=0, seed=0)
        result = optimize(obj, bounds, cfg)
        init = sobol_sample(25, bounds)
        expected = float(np.min(np.sum(init * init, axis=1)))
        assert result.best_fitness == expected
        assert result.trace.shape == (1,)
        assert result.eval_count == 25

    def test_same_seed_bit_identical(self):
        suite = make_suite(5, seed=2)
        fn = suite[4]
        cfg = QuasarConfig(pop_size=40, g_max=25, seed=77)
        a = optimize(fn, fn.bounds, cfg)
        b = optimize(fn, fn.bounds, cfg)
        assert np.array_equal(a.trace, b.trace)
        assert np.array_equal(a.best_position, b.best_position)
        assert a.best_fitness == b.best_fitness
        assert a.eval_count == b.eval_count

    def test_trace_non_increasing_and_length(self):
        suite = make_suite(6, seed=3)
        fn = suite[5]  # ackley
        cfg = QuasarConfig(pop_size=30, g_max=40, seed=5)
        result = optimize(fn, fn.bounds, cfg)
        assert result.trace.shape == (41,)
        assert np.all(np.diff(result.trace) <= 0)
        assert result.error == result.best_fitness - fn.known_optimum

    def test_eval_count_without_reinit(self):
        bounds = BoundsBox.cube(-5.0, 5.0, 3)
        obj = sphere_objective(3)
        cfg = QuasarConfig(pop_size=20, g_max=7, seed=1, reinit_fraction=1e-9)
        result = optimize(obj, bounds, cfg)
        assert result.eval_count == 20 * (1 + 7)

    def test_nan_objective_names_generation_and_individual(self):
        bounds = BoundsBox.cube(-1.0, 1.0, 2)
        calls = {"n": 0}

        def sometimes_nan(x):
            calls["n"] += 1
            return float("nan") if calls["n"] > 30 else float(np.sum(x * x))

        cfg = QuasarConfig(pop_size=20, g_max=5, seed=0)
        with pytest.raises(ValueError, match="generation .* individual"):
            optimize(sometimes_nan, bounds, cfg)

    def test_smoke_convergence(self):
        suite = make_suite(5, seed=1)
        fn = suite[0]  # shifted rotated sphere
        cfg = QuasarConfig(pop_size=50, g_max=60, seed=0)
        result = optimize(fn, fn.bounds, cfg)
        assert result.error < 1.0

    def test_plain_callable_accepted(self):
        bounds = BoundsBox.cube(-2.0, 2.0, 3)
        result = optimize(lambda x: float(np.sum(np.abs(x))), bounds,
                          QuasarConfig(pop_size=15, g_max=10, seed=0))
        assert bounds.contains(result.best_position)
