import dataclasses
import inspect
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import quasar_opt.core as core_mod
import quasar_opt.de as de_mod
import quasar_opt.quasar as quasar_mod
from quasar_opt import (
    BoundsBox,
    DeConfig,
    Population,
    QuasarConfig,
    RngStream,
    de_optimize,
    optimize,
)
from quasar_opt.core import (
    RunConfig,
    clip_to_bounds,
    evaluate_rows,
    rank_population,
    run_generations,
)


def make_pop(fitness, dim=2):
    fitness = np.asarray(fitness, dtype=float)
    positions = np.zeros((fitness.size, dim))
    return Population(positions, fitness)


class TestBoundsBox:
    def test_cube(self):
        b = BoundsBox.cube(-1.0, 1.0, 3)
        assert b.dim == 3
        assert np.all(b.width == 2.0)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="dimension 1"):
            BoundsBox(np.array([0.0, 2.0]), np.array([1.0, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BoundsBox(np.array([]), np.array([]))

    def test_contains(self):
        b = BoundsBox.cube(0.0, 1.0, 2)
        assert b.contains(np.array([[0.0, 1.0], [0.5, 0.5]]))
        assert not b.contains(np.array([0.5, 1.1]))


class TestClipToBounds:
    def test_saturation(self):
        b = BoundsBox.cube(-1.0, 1.0, 2)
        assert np.array_equal(clip_to_bounds(np.array([5.0, -5.0]), b),
                              np.array([1.0, -1.0]))

    def test_identity_inside(self):
        b = BoundsBox.cube(-1.0, 1.0, 2)
        y = np.array([0.2, 0.3])
        assert np.array_equal(clip_to_bounds(y, b), y)

    def test_boundary_clamp(self):
        b = BoundsBox.cube(-100.0, 100.0, 1)
        assert np.array_equal(clip_to_bounds(np.array([-100.0001]), b),
                              np.array([-100.0]))

    def test_dimension_mismatch(self):
        b = BoundsBox.cube(-1.0, 1.0, 3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            clip_to_bounds(np.array([0.0, 0.0]), b)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        b = BoundsBox.cube(-2.0, 3.0, 4)
        for _ in range(50):
            y = rng.normal(scale=10.0, size=4)
            once = clip_to_bounds(y, b)
            assert np.array_equal(clip_to_bounds(once, b), once)

    def test_stacked_rows(self):
        b = BoundsBox.cube(0.0, 1.0, 2)
        out = clip_to_bounds(np.array([[2.0, -1.0], [0.5, 0.5]]), b)
        assert np.array_equal(out, np.array([[1.0, 0.0], [0.5, 0.5]]))


class TestRankPopulation:
    def test_direct_sort(self):
        assert np.array_equal(rank_population(make_pop([3.0, 1.0, 2.0]))[0],
                              [2, 0, 1])

    def test_tie_broken_by_index(self):
        assert np.array_equal(rank_population(make_pop([1.0, 1.0]))[0], [0, 1])

    def test_reversed_order(self):
        assert np.array_equal(rank_population(make_pop([5, 4, 3, 2, 1]))[0],
                              [4, 3, 2, 1, 0])

    def test_is_permutation(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            ranks = rank_population(make_pop(rng.normal(size=n)))[0]
            assert np.array_equal(np.sort(ranks), np.arange(n))

    def test_order_is_the_stable_sort_the_ranks_invert(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            fitness = rng.integers(0, 5, size=int(rng.integers(1, 40)))
            ranks, order = rank_population(make_pop(fitness))
            assert np.array_equal(order, np.argsort(fitness, kind="stable"))
            assert np.array_equal(ranks[order], np.arange(fitness.size))

    def test_nan_names_individual(self):
        with pytest.raises(ValueError, match="individual 2"):
            rank_population(make_pop([1.0, 2.0, np.nan]))


class TestRunGenerations:
    """The best-so-far point: ties go to the lowest index, a later
    generation replaces it only when strictly better, and it is a copy."""

    @staticmethod
    def run(*fitness_per_generation):
        """Generation g has positions initial + 10 g and the given fitness."""
        positions = np.arange(6.0).reshape(3, 2)
        fitness = iter(fitness_per_generation)

        def advance(pop, rng):
            return Population(pop.positions + 10.0, np.array(next(fitness)),
                              pop.generation + 1, pop.eval_count + 3)

        cfg = RunConfig(pop_size=3, g_max=len(fitness_per_generation) - 1)
        result = run_generations(
            lambda x: 0.0, BoundsBox.cube(0.0, 100.0, 2), cfg,
            lambda method, n, bounds, rng: positions,
            lambda objective, X, generation, members: np.array(next(fitness)),
            advance)
        return result, positions

    def test_tie_goes_to_lowest_index(self):
        result, positions = self.run([2.0, 1.0, 1.0])
        assert result.best_fitness == 1.0
        assert np.array_equal(result.best_position, positions[1])
        assert result.trace.tolist() == [1.0] and result.eval_count == 3

    def test_equal_later_best_keeps_the_earlier_point(self):
        result, positions = self.run([1.0, 3.0, 3.0], [2.0, 1.0, 5.0])
        assert np.array_equal(result.best_position, positions[0])
        assert result.trace.tolist() == [1.0, 1.0]

    def test_strictly_better_later_best_replaces_it(self):
        result, positions = self.run([1.0, 3.0, 3.0], [5.0, 0.5, 0.5],
                                     [0.7, 0.6, 9.0])
        assert np.array_equal(result.best_position, positions[1] + 10.0)
        assert result.trace.tolist() == [1.0, 0.5, 0.5]
        assert result.eval_count == 9

    def test_position_is_copy(self):
        result, positions = self.run([1.0, 2.0, 3.0])
        positions += 99.0
        assert result.best_position.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("module,run,cfg_cls", [
    (quasar_mod, optimize, QuasarConfig), (de_mod, de_optimize, DeConfig)],
    ids=["quasar", "de"])
def test_clock_starts_after_the_initial_draw(monkeypatch, module, run,
                                             cfg_cls):
    """runtime_seconds times the initial evaluation and every generation,
    not the draw of the initial population."""
    events = []
    draw = module.initial_population
    monkeypatch.setattr(module, "initial_population",
                        lambda *a: events.append("draw") or draw(*a))
    clock = core_mod.time.perf_counter
    monkeypatch.setattr(core_mod, "time", SimpleNamespace(
        perf_counter=lambda: events.append("clock") or clock()))
    run(lambda x: float(x @ x), BoundsBox.cube(-1.0, 1.0, 3),
        cfg_cls(pop_size=8, g_max=2))
    assert events == ["draw", "clock", "clock"]


@pytest.mark.parametrize("module,step_name,run,cfg_cls", [
    (quasar_mod, "step", optimize, QuasarConfig),
    (de_mod, "_de_step", de_optimize, DeConfig)], ids=["quasar", "de"])
def test_initial_population_is_freed_after_generation_1(
        monkeypatch, module, step_name, run, cfg_cls):
    """The first matrix the objective gets is the initial population; no
    reference to it outlives generation 1."""
    first = []

    def evaluate_many(X):
        if not first:
            first.append(weakref.ref(X))
        return np.sum(X * X, axis=1)

    alive = []
    real_step = getattr(module, step_name)

    def step(objective, bounds, pop, cfg, rng):
        if pop.generation:      # generation 1 has finished
            alive.append(first[0]() is not None)
        return real_step(objective, bounds, pop, cfg, rng)

    monkeypatch.setattr(module, step_name, step)
    run(SimpleNamespace(dim=4, evaluate_many=evaluate_many),
        BoundsBox.cube(-1.0, 1.0, 4), cfg_cls(pop_size=10, g_max=4))
    assert alive == [False] * 3


class TestRngStream:
    def test_reproducible_million_draws(self):
        a = RngStream(123).random(1_000_000)
        b = RngStream(123).random(1_000_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngStream(1).random(100),
                                  RngStream(2).random(100))

    def test_substreams_independent_and_stable(self):
        parent = RngStream(7)
        s1 = parent.substream(0).random(1000)
        s2 = parent.substream(1).random(1000)
        assert not np.array_equal(s1, s2)
        assert np.array_equal(s1, RngStream(7).substream(0).random(1000))

    def test_substream_does_not_disturb_parent(self):
        a = RngStream(9)
        a.substream(4)
        b = RngStream(9)
        assert np.array_equal(a.random(100), b.random(100))


class TestDrawMerges:
    """The draw merges README allows: each uses the Philox stream exactly
    as the separate draws it replaces, leaving the same next draw."""

    @staticmethod
    def assert_same_stream(a: RngStream, b: RngStream):
        np.testing.assert_equal(a.generator.bit_generator.state,
                                b.generator.bit_generator.state)
        assert a.integers(0, 1000) == b.integers(0, 1000)
        assert a.random() == b.random()

    @pytest.mark.parametrize("n", [4, 5, 7, 100])
    @pytest.mark.parametrize("d", [1, 10])
    @pytest.mark.parametrize("odd_prefix", [0, 3])
    def test_per_element_bounds_equal_scalar_bound_calls(self, n, d,
                                                         odd_prefix):
        # An odd-sized draw first leaves half of a 64-bit word buffered;
        # n = 4 (and d = 1) make a zero-width range, which draws nothing.
        a, b = RngStream(11), RngStream(11)
        for rng in (a, b):
            rng.integers(0, 9, size=odd_prefix)
        highs = (n - 1, n - 2, n - 3, d)
        separate = np.concatenate([a.integers(0, h, size=n) for h in highs])
        merged = b.integers(0, np.repeat(highs, n))
        assert np.array_equal(merged, separate)
        self.assert_same_stream(a, b)

    def test_two_random_draws_equal_one(self):
        a, b = RngStream(3), RngStream(3)
        assert np.array_equal(np.concatenate([a.random(5), a.random(5)]),
                              b.random(10))
        self.assert_same_stream(a, b)

    def test_normal_equals_scaled_standard_normal(self):
        a, b = RngStream(4), RngStream(4)
        loc, scale = np.linspace(-2.0, 2.0, 7), 0.3
        assert np.array_equal(a.normal(loc, scale, 7),
                              loc + scale * b.generator.standard_normal(7))
        self.assert_same_stream(a, b)


class TestPopulation:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Population(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            Population(np.zeros(3), np.zeros(3))


def square_sum(x):
    return float(np.sum(x * x))


class TestEvaluateRows:
    def test_batch_and_row_paths_agree(self):
        X = np.arange(12.0).reshape(4, 3) - 5.0
        rowwise = evaluate_rows(square_sum, X, 0, range(4))
        assert rowwise.tolist() == [square_sum(x) for x in X]
        assert np.array_equal(
            evaluate_rows(SimpleNamespace(evaluate=square_sum), X, 0, range(4)),
            rowwise)
        batched = SimpleNamespace(evaluate_many=lambda X: np.sum(X * X, axis=1))
        assert np.array_equal(evaluate_rows(batched, X, 0, range(4)), rowwise)

    def test_batch_method_wins(self):
        def never(x):
            raise AssertionError("called per row")

        both = SimpleNamespace(evaluate=never,
                               evaluate_many=lambda X: X.sum(axis=1))
        assert evaluate_rows(both, np.ones((2, 3)), 0,
                             range(2)).tolist() == [3.0, 3.0]

    def test_scalar_results_convert_as_float_does(self):
        results = [np.float32(0.1), 2**53 + 1, np.array(1 / 3), "2.5", True]
        got = evaluate_rows(lambda x: results[int(x[0])],
                            np.arange(5.0)[:, None], 0, range(5))
        assert got.dtype == np.float64
        assert [v.hex() for v in got.tolist()] == \
            [float(r).hex() for r in results]

    def test_zero_rows_call_nothing(self):
        def never(*args):
            raise AssertionError("objective called")

        both = SimpleNamespace(evaluate=never, evaluate_many=never)
        for objective in (never, SimpleNamespace(evaluate=never), both):
            got = evaluate_rows(objective, np.empty((0, 3)), 2, [])
            assert got.dtype == np.float64 and got.shape == (0,)


RUNS = [(optimize, QuasarConfig), (de_optimize, DeConfig)]


@pytest.mark.parametrize("run,config", RUNS)
class TestObjectiveContract:
    """optimize and de_optimize take a callable, an object with evaluate(x)
    or one with evaluate_many(X); every form gives the same run."""

    box = BoundsBox.cube(-2.0, 3.0, 4)

    def test_evaluate_object_matches_callable(self, run, config):
        cfg = config(pop_size=10, g_max=6, seed=3)
        plain = run(square_sum, self.box, cfg)
        wrapped = run(SimpleNamespace(dim=4, evaluate=square_sum),
                      self.box, cfg)
        assert np.array_equal(plain.trace, wrapped.trace)
        assert np.array_equal(plain.best_position, wrapped.best_position)
        assert plain.eval_count == wrapped.eval_count

    def test_batch_only_object_gets_the_matrices(self, run, config):
        shapes = []

        def batch(X):
            shapes.append(X.shape)
            return np.sum(X * X, axis=1)

        obj = SimpleNamespace(dim=4, known_optimum=-1.0, evaluate_many=batch)
        result = run(obj, self.box, config(pop_size=10, g_max=6, seed=3))
        assert all(len(shape) == 2 and shape[1] == 4 for shape in shapes)
        assert sum(shape[0] for shape in shapes) == result.eval_count
        assert result.error == result.best_fitness + 1.0

    @pytest.mark.parametrize("objective", [object(), SimpleNamespace(dim=4),
                                           np.zeros(4)])
    def test_uncallable_objective_refused(self, run, config, objective):
        with pytest.raises(TypeError, match="objective must be callable"):
            run(objective, self.box, config(pop_size=10, g_max=1))

    # The objective returns the wrong number of values on one call: call 0
    # evaluates the initial population (generation 0); call 2 is inside a
    # step, QUASAR's generation-0 trials (10 minus the 3 reinitialized, as
    # the reinit probability is 1 at generation 0) or DE's generation 1.
    @pytest.mark.parametrize("bad_call", [0, 2])
    @pytest.mark.parametrize("reshape", [
        lambda v: v[:-1], lambda v: v[:1], lambda v: v[:, None],
    ], ids=["n-1", "one", "column"])
    def test_wrong_value_count_names_the_generation(self, run, config,
                                                    reshape, bad_call):
        calls = []

        def batch(X):
            calls.append(len(X))
            v = np.sum(X * X, axis=1)
            return reshape(v) if len(calls) == bad_call + 1 else v

        obj = SimpleNamespace(dim=4, evaluate_many=batch)
        points, generation = (10, 0) if bad_call == 0 else {
            optimize: (7, 0), de_optimize: (10, 1)}[run]
        with pytest.raises(ValueError, match=rf"for {points} points at "
                                             rf"generation {generation}$"):
            run(obj, self.box, config(pop_size=10, g_max=3, seed=3))
        assert len(calls) == bad_call + 1

    # A per-point result that is not one number is checked like an
    # evaluate_many result.
    @pytest.mark.parametrize("objective,message", [
        (lambda x: x, r"returned 40 values \(shape \(10, 4\)\) for 10 points "
                      r"at generation 0$"),
        (lambda x: None, r"non-finite value \(nan\) at generation 0 for "
                         r"individual 0$"),
    ], ids=["array", "none"])
    def test_non_scalar_row_result_names_the_generation(self, run, config,
                                                        objective, message):
        with pytest.raises(ValueError, match=message):
            run(objective, self.box, config(pop_size=10, g_max=2))

    def test_wrong_dim_refused(self, run, config):
        obj = SimpleNamespace(dim=5, evaluate=square_sum)
        with pytest.raises(ValueError, match="objective dim 5 != bounds dim 4"):
            run(obj, self.box, config(pop_size=10, g_max=1))


SHARED_FIELDS = ("pop_size", "g_max", "seed", "init_method")
OWN_CONSTANTS = {
    QuasarConfig: ("entangle_rate", "cr_floor", "p_final", "g_final",
                   "reinit_fraction", "elite_fraction", "noise_divisor",
                   "epsilon_jitter"),
    DeConfig: ("f_weight", "cr"),
}


@pytest.mark.parametrize("cls,min_pop", [(QuasarConfig, 5), (DeConfig, 4)])
class TestRunConfig:
    def test_shares_the_run_fields(self, cls, min_pop):
        assert issubclass(cls, RunConfig)
        names = [f.name for f in dataclasses.fields(cls)]
        assert sorted(names) == sorted(SHARED_FIELDS + OWN_CONSTANTS[cls])

    def test_default_pop_is_ten_per_dimension(self, cls, min_pop):
        assert cls().resolved_pop_size(1) == 10
        assert cls().resolved_pop_size(7) == 70
        assert cls(pop_size=12).resolved_pop_size(7) == 12

    def test_min_pop_enforced(self, cls, min_pop):
        assert cls.MIN_POP == min_pop
        assert cls(pop_size=min_pop).resolved_pop_size(3) == min_pop
        with pytest.raises(ValueError, match=rf"^pop_size must be at least "
                                             rf"{min_pop}, got {min_pop - 1}$"):
            cls(pop_size=min_pop - 1)

    def test_own_constants_positional_in_order(self, cls, min_pop):
        params = inspect.signature(cls).parameters.values()
        positional = [p.name for p in params
                      if p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD]
        assert tuple(positional) == OWN_CONSTANTS[cls]

    def test_shared_fields_keyword_only(self, cls, min_pop):
        params = inspect.signature(cls).parameters
        for name in SHARED_FIELDS:
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY
        n_own = len(OWN_CONSTANTS[cls])
        with pytest.raises(TypeError):
            cls(*[0.5] * n_own, 20)


def test_first_positional_constant():
    assert QuasarConfig(0.5).entangle_rate == 0.5
    assert DeConfig(0.7).f_weight == 0.7
