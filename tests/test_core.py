import numpy as np
import pytest

from quasar_opt import (
    BoundsBox,
    FunctionObjective,
    Population,
    RngStream,
    best_of,
    clip_to_bounds,
    rank_population,
)
from quasar_opt.core import evaluate_rows


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
        assert np.array_equal(rank_population(make_pop([3.0, 1.0, 2.0])),
                              [2, 0, 1])

    def test_tie_broken_by_index(self):
        assert np.array_equal(rank_population(make_pop([1.0, 1.0])), [0, 1])

    def test_reversed_order(self):
        assert np.array_equal(rank_population(make_pop([5, 4, 3, 2, 1])),
                              [4, 3, 2, 1, 0])

    def test_is_permutation(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            ranks = rank_population(make_pop(rng.normal(size=n)))
            assert np.array_equal(np.sort(ranks), np.arange(n))

    def test_nan_names_individual(self):
        with pytest.raises(ValueError, match="individual 2"):
            rank_population(make_pop([1.0, 2.0, np.nan]))


class TestBestOf:
    def test_basic(self):
        idx, pos, fit = best_of(make_pop([2.0, 1.0, 3.0]))
        assert idx == 1 and fit == 1.0

    def test_singleton(self):
        idx, _, fit = best_of(make_pop([7.0]))
        assert idx == 0 and fit == 7.0

    def test_tie_rule(self):
        assert best_of(make_pop([1.0, 1.0]))[0] == 0

    def test_empty(self):
        pop = Population(np.empty((0, 2)), np.empty(0))
        with pytest.raises(ValueError, match="empty"):
            best_of(pop)

    def test_position_is_copy(self):
        pop = make_pop([1.0, 2.0])
        _, pos, _ = best_of(pop)
        pos += 99.0
        assert np.all(pop.positions == 0.0)


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


class TestPopulation:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Population(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            Population(np.zeros(3), np.zeros(3))


class TestEvaluateRows:
    def test_batch_and_row_paths_agree(self):
        X = np.arange(12.0).reshape(4, 3) - 5.0
        rowwise = FunctionObjective(lambda x: float(np.sum(x * x)), 3)
        batched = FunctionObjective(lambda x: float(np.sum(x * x)), 3,
                                    batch=lambda X: np.sum(X * X, axis=1))
        assert not hasattr(rowwise, "evaluate_many")
        assert np.array_equal(evaluate_rows(rowwise, X),
                              evaluate_rows(batched, X))
        assert evaluate_rows(rowwise, X).tolist() == \
            [rowwise.evaluate(x) for x in X]
