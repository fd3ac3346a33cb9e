import inspect

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
)
from quasar_opt.core import crossover, select
from quasar_opt.quasar import (
    EliteStats,
    MutationStrategy,
    crossover_rate,
    sample_f_global,
    sample_f_local,
    select_strategy,
)

# Independent high-precision evaluation of exp(ln(0.33)/0.33), 30 digits.
P_REINIT_AT_GMAX = 0.0347497218725306251192830139058


class FixedRng:
    """Stub stream returning a constant for every uniform draw."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


def make_pop(positions, fitness=None):
    positions = np.asarray(positions, dtype=float)
    if fitness is None:
        fitness = np.sum(positions ** 2, axis=1)
    return Population(positions, np.asarray(fitness, dtype=float))


class TestSelectStrategy:
    def test_frequencies_at_default_rate(self):
        draws = select_strategy(RngStream(0), 0.33, size=100_000)
        freq = np.bincount(draws, minlength=3) / draws.size
        assert abs(freq[MutationStrategy.SPOOKY_BEST] - 0.33) < 0.01
        assert abs(freq[MutationStrategy.SPOOKY_CURRENT] - 0.335) < 0.01
        assert abs(freq[MutationStrategy.SPOOKY_RANDOM] - 0.335) < 0.01

    def test_rate_one_always_exploits(self):
        draws = select_strategy(RngStream(1), 1.0, size=1000)
        assert np.all(draws == int(MutationStrategy.SPOOKY_BEST))


class TestFactorDistributions:
    def test_local_moments(self):
        draws = sample_f_local(RngStream(3), size=1_000_000)
        assert abs(draws.mean()) < 0.002
        assert abs(draws.std(ddof=1) - 0.33) < 0.003
        assert abs(np.mean(draws < 0) - 0.5) < 0.005

    def test_global_moments(self):
        draws = sample_f_global(RngStream(4), size=1_000_000)
        assert abs(draws.mean()) < 0.002
        # Mixture variance 0.25^2 + 0.5^2 = 0.3125, computed analytically.
        assert abs(draws.var(ddof=1) - 0.3125) < 0.01

    def test_global_bimodal_shape(self):
        draws = sample_f_global(RngStream(5), size=200_000)
        near_zero = np.mean(np.abs(draws) < 0.05)
        near_pos = np.mean(np.abs(draws - 0.5) < 0.05)
        near_neg = np.mean(np.abs(draws + 0.5) < 0.05)
        assert near_zero < near_pos and near_zero < near_neg


class TestMutate:
    def setup_method(self):
        self.bounds = BoundsBox.cube(-10.0, 10.0, 2)
        self.pop = make_pop([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0], [2.0, 2.0]])
        # fitness: index 1 is best

    def test_zero_local_factor_returns_best(self):
        v = mutate(0, MutationStrategy.SPOOKY_BEST, self.pop, 1,
                   self.bounds, f_factor=0.0, rand_index=3)
        assert np.array_equal(v, self.pop.positions[1])

    def test_unit_factor_spooky_random_returns_self(self):
        v = mutate(2, MutationStrategy.SPOOKY_RANDOM, self.pop, 1,
                   self.bounds, f_factor=1.0, rand_index=0)
        assert np.allclose(v, self.pop.positions[2])

    def test_unit_factor_spooky_current_cancels_with_best_donor(self):
        v = mutate(3, MutationStrategy.SPOOKY_CURRENT, self.pop, 1,
                   self.bounds, f_factor=1.0, rand_index=1)
        assert np.allclose(v, self.pop.positions[3])

    def test_result_clipped(self):
        v = mutate(0, MutationStrategy.SPOOKY_BEST, self.pop, 1,
                   self.bounds, f_factor=50.0, rand_index=2)
        assert self.bounds.contains(v)

    def test_rand_index_never_self(self):
        rng = RngStream(7)
        n = self.pop.size
        for _ in range(100):
            r = int(rng.integers(0, n - 1))
            r = r + 1 if r >= 2 else r
            assert r != 2

    def test_small_population_rejected(self):
        tiny = make_pop([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="at least 3"):
            mutate(0, MutationStrategy.SPOOKY_BEST, tiny, 0,
                   self.bounds, f_factor=0.5, rand_index=1)


class TestCrossoverRate:
    def test_best_rank_full_inheritance(self):
        assert crossover_rate(0, 100) == 1.0

    def test_worst_rank_floored(self):
        assert crossover_rate(99, 100) == 0.33

    def test_mid_rank_exact(self):
        assert crossover_rate(33, 100) == (99 - 33) / 99

    def test_image_within_floor_and_one(self):
        ranks = np.arange(100)
        cr = crossover_rate(ranks, 100, cr_floor=0.33)
        assert np.all(cr >= 0.33) and np.all(cr <= 1.0)

    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            crossover_rate(0, 1)


class TestBinomialCrossover:
    def test_full_inheritance(self):
        x, v = np.zeros(8), np.ones(8)
        assert np.array_equal(binomial_crossover(x, v, 1.0, RngStream(0)), v)

    def test_no_inheritance_when_draws_exceed_rate(self):
        x, v = np.zeros(8), np.ones(8)
        assert np.array_equal(binomial_crossover(x, v, 0.5, FixedRng(0.9)), x)

    def test_mixing_fraction(self):
        x, v = np.zeros(10_000), np.ones(10_000)
        u = binomial_crossover(x, v, 0.5, RngStream(1))
        assert abs(u.mean() - 0.5) < 0.02

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            binomial_crossover(np.zeros(3), np.ones(4), 0.5, RngStream(0))


class TestSharedCrossoverMatchesOracle:
    """core.crossover, on a whole matrix, equals the one-individual oracle
    applied row by row to the same stream, bit for bit."""

    @staticmethod
    def check(cr, seed=5, m=40, d=7):
        g = np.random.default_rng(seed)
        targets, trials = g.uniform(-5.0, 5.0, (2, m, d))
        rates = np.broadcast_to(cr, (m, 1))
        rng = RngStream(seed)
        expected = np.array([binomial_crossover(x, v, c, rng)
                             for x, v, c in zip(targets, trials, rates)])
        # Both sides occur, so the comparison sees the mask.
        assert (expected == targets).any() and (expected != targets).any()
        crossover(trials, targets, cr, RngStream(seed).random(trials.shape))
        assert np.array_equal(trials, expected)

    def test_per_row_rates(self):
        ranks = np.random.default_rng(1).permutation(40)
        self.check(crossover_rate(ranks, 40)[:, None])

    def test_scalar_rate(self):
        self.check(0.9)

    def test_forced_cells_keep_the_trial(self):
        seed, m, d = 5, 40, 7
        g = np.random.default_rng(seed)
        targets, trials = g.uniform(-5.0, 5.0, (2, m, d))
        rows, cols = np.arange(m), g.integers(0, d, m)
        rng = RngStream(seed)
        expected = np.array([binomial_crossover(x, v, 0.3, rng)
                             for x, v in zip(targets, trials)])
        after = rng.random()
        # Some forced cells would have taken the target's component.
        assert (expected[rows, cols] != trials[rows, cols]).any()
        mixed, rng = trials.copy(), RngStream(seed)
        crossover(mixed, targets, 0.3, rng.random(trials.shape),
                  forced=(rows, cols))
        assert rng.random() == after        # the same uniform draw
        assert np.array_equal(mixed[rows, cols], trials[rows, cols])
        expected[rows, cols] = trials[rows, cols]
        assert np.array_equal(mixed, expected)


class TestSharedSelectMatchesOracle:
    """core.select, on a population, equals the one-individual oracle
    applied to each (member, trial) pair, and only reads the trials."""

    @staticmethod
    def check(idx, trial_fit, seed=3, n=30, d=5):
        g = np.random.default_rng(seed)
        positions = g.uniform(-5.0, 5.0, (n, d))
        fitness = g.integers(0, 4, n).astype(float)     # coarse: ties occur
        trials = g.uniform(-5.0, 5.0, (len(idx), d))
        expected_pos, expected_fit = positions.copy(), fitness.copy()
        for k, i in enumerate(idx):
            expected_pos[i], expected_fit[i] = greedy_select(
                positions[i], fitness[i], trials[k], trial_fit[k])
        wins = np.array([fu < fitness[i] for i, fu in zip(idx, trial_fit)],
                        dtype=bool)
        trials_before = trials.copy()
        accept = select(positions, fitness, idx, trials, trial_fit)
        assert np.array_equal(accept, wins)
        assert np.array_equal(positions, expected_pos)
        assert np.array_equal(fitness, expected_fit)
        assert np.array_equal(trials, trials_before)
        return accept

    def test_ties_keep_the_incumbent(self):
        g = np.random.default_rng(0)
        idx = g.permutation(30)[:20]
        accept = self.check(idx, g.integers(0, 4, 20).astype(float))
        assert accept.any() and not accept.all()

    def test_empty(self):
        accept = self.check(np.array([], dtype=np.int64), np.array([]))
        assert accept.shape == (0,)

    def test_all_accept(self):
        idx = np.arange(30)[::-1]
        assert self.check(idx, np.full(30, -1.0)).all()


class TestGreedySelect:
    def test_trial_wins(self):
        x, u = np.zeros(2), np.ones(2)
        pos, fit = greedy_select(x, 5.0, u, 4.0)
        assert fit == 4.0 and np.array_equal(pos, u)

    def test_tie_keeps_current(self):
        x, u = np.zeros(2), np.ones(2)
        pos, fit = greedy_select(x, 5.0, u, 5.0)
        assert fit == 5.0 and np.array_equal(pos, x)

    def test_current_kept(self):
        x, u = np.zeros(2), np.ones(2)
        pos, fit = greedy_select(x, 5.0, u, 6.0)
        assert fit == 5.0 and np.array_equal(pos, x)


class TestReinitProbability:
    def test_starts_at_one(self):
        assert reinit_probability(0, 100) == 1.0

    def test_hits_final_probability_at_knee(self):
        assert abs(reinit_probability(33, 100) - 0.33) <= 1e-12

    def test_value_at_final_generation(self):
        assert abs(reinit_probability(100, 100) - P_REINIT_AT_GMAX) < 1e-15

    def test_strictly_decreasing(self):
        vals = [reinit_probability(g, 100) for g in range(101)]
        assert np.all(np.diff(vals) < 0)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            reinit_probability(101, 100)
        with pytest.raises(ValueError):
            reinit_probability(0, 0)


class TestEliteStats:
    def test_identical_elites_give_jitter_only(self):
        p = np.array([1.5, -2.0])
        pop = make_pop(np.tile(p, (8, 1)), fitness=np.arange(8.0))
        stats = compute_elite_stats(pop, elite_fraction=0.25, epsilon=1e-12)
        assert stats.m == 2
        assert np.array_equal(stats.mu, p)
        assert np.array_equal(stats.sigma, 1e-12 * np.eye(2))

    def test_two_point_covariance(self):
        # Hand-computed: elites {(0,0),(2,0)} -> mean (1,0), unbiased
        # covariance [[2,0],[0,0]].
        pop = make_pop([[0.0, 0.0], [2.0, 0.0], [9.0, 9.0], [9.0, -9.0],
                        [8.0, 8.0], [8.0, -8.0], [7.0, 7.0], [7.0, -7.0]],
                       fitness=np.arange(8.0))
        stats = compute_elite_stats(pop, elite_fraction=0.25, epsilon=1e-12)
        assert np.array_equal(stats.mu, [1.0, 0.0])
        assert np.allclose(stats.sigma, np.array([[2.0, 0.0], [0.0, 0.0]])
                           + 1e-12 * np.eye(2))

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        pop = make_pop(rng.normal(size=(20, 5)))
        stats = compute_elite_stats(pop)
        assert np.array_equal(stats.sigma, stats.sigma.T)

    def test_elite_count_floor(self):
        pop = make_pop(np.zeros((8, 2)), fitness=np.arange(8.0))
        assert compute_elite_stats(pop, elite_fraction=0.01).m == 2
        assert compute_elite_stats(pop, elite_fraction=0.5).m == 4

    def test_too_small_population(self):
        pop = make_pop([[0.0, 0.0]], fitness=[1.0])
        with pytest.raises(ValueError):
            compute_elite_stats(pop)


def reinit_sample(stats, bounds, rng, noise_divisor, count):
    """sample_reinit_positions on one draw of 2 * count rows of standard
    normals, split in halves as the step splits them."""
    z = rng.normal(size=(2 * count, stats.mu.size))
    return sample_reinit_positions(stats, bounds, z[:count], z[count:],
                                   noise_divisor)


class TestReinitSampling:
    def test_concentrates_at_mean_without_noise(self):
        stats = EliteStats(mu=np.array([2.0, -3.0]),
                           sigma=1e-12 * np.eye(2), m=2)
        bounds = BoundsBox.cube(-10.0, 10.0, 2)
        rng = RngStream(0)
        pts, _ = reinit_sample(stats, bounds, rng, 1e18, 200)
        assert np.max(np.abs(pts - stats.mu)) < 1e-4

    def test_always_in_bounds(self):
        stats = EliteStats(mu=np.array([9.0]), sigma=np.array([[25.0]]), m=4)
        bounds = BoundsBox.cube(-10.0, 10.0, 1)
        pts, fb = reinit_sample(stats, bounds, RngStream(1), 20.0, 100_000)
        assert fb == 0
        assert bounds.contains(pts)

    def test_variance_adds_noise_component(self):
        # Var = 1 (covariance) + (20/20)^2 (noise) = 2, far from the clip.
        stats = EliteStats(mu=np.array([0.0]), sigma=np.array([[1.0]]), m=4)
        bounds = BoundsBox.cube(-10.0, 10.0, 1)
        pts, _ = reinit_sample(stats, bounds, RngStream(2), 20.0, 100_000)
        assert abs(pts.var(ddof=1) - 2.0) < 0.1

    def test_strong_jitter_fallback(self):
        # PSD up to a -1e-9 eigenvalue: plain Cholesky fails, the epsilon*1e6
        # retry succeeds.
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]]) - 1e-9 * np.eye(2)
        stats = EliteStats(mu=np.zeros(2), sigma=sigma, m=3)
        bounds = BoundsBox.cube(-5.0, 5.0, 2)
        pts, fb = reinit_sample(stats, bounds, RngStream(3), 20.0, 50)
        assert fb == 1
        assert bounds.contains(pts)

    def test_diagonal_fallback_never_aborts(self):
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        stats = EliteStats(mu=np.zeros(2), sigma=sigma, m=3)
        bounds = BoundsBox.cube(-5.0, 5.0, 2)
        pts, fb = reinit_sample(stats, bounds, RngStream(4), 20.0, 50)
        assert fb == 2
        assert bounds.contains(pts)


class TestQuasarConfig:
    def test_defaults_valid(self):
        cfg = QuasarConfig()
        assert cfg.entangle_rate == 0.33
        assert cfg.resolved_pop_size(12) == 120

    @pytest.mark.parametrize("target,param,field", [
        (crossover_rate, "cr_floor", "cr_floor"),
        (reinit_probability, "p_final", "p_final"),
        (reinit_probability, "g_final", "g_final"),
        (compute_elite_stats, "elite_fraction", "elite_fraction"),
        (compute_elite_stats, "epsilon", "epsilon_jitter"),
        (EliteStats, "epsilon", "epsilon_jitter"),
    ])
    def test_helper_defaults_are_the_configs(self, target, param, field):
        default = inspect.signature(target).parameters[param].default
        assert default == getattr(QuasarConfig(), field)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            QuasarConfig(entangle_rate=0.0)
        with pytest.raises(ValueError):
            QuasarConfig(g_final=1.5)

    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            QuasarConfig(pop_size=4)

    # Each of these used to pass validation and fail later, inside
    # sobol_sample, run_generations or SeedSequence, or as a "non-finite
    # objective value" at generation 0. A string or None fraction raised a
    # bare TypeError naming no field, and a bool one was accepted.
    @pytest.mark.parametrize("field,value", [
        ("pop_size", 20.5), ("pop_size", 20.0), ("g_max", 3.0),
        ("g_max", True), ("seed", -1), ("seed", 1.0),
        ("noise_divisor", float("nan")), ("noise_divisor", float("inf")),
        ("epsilon_jitter", float("nan")), ("epsilon_jitter", float("inf")),
        ("init_method", "sobol"),
        *[(field, value) for field in ("entangle_rate", "cr_floor", "p_final",
                                       "g_final", "reinit_fraction",
                                       "elite_fraction")
          for value in ("0.5", None, True)],
    ])
    def test_bad_value_named_up_front(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            QuasarConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = QuasarConfig(pop_size=np.int64(12), g_max=np.int32(3),
                           seed=np.uint64(2**64 - 1))
        result = optimize(lambda x: float(x @ x), BoundsBox.cube(-1, 1, 2), cfg)
        assert result.eval_count == 48
