import itertools
import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st

from quasar_opt import gmerf, gmerf_ci, gmerf_overall
from quasar_opt.stats import (
    _average_ranks,
    _chi2_sf,
    _normal_cdf,
    _t_quantile,
    friedman_rank_sums,
    runtime_ratios,
    wilcoxon_signed_rank,
)


def rel(x, tol):
    """A float within ``tol`` relative of x, with no absolute slack."""
    return pytest.approx(x, rel=tol, abs=0.0)


class TestGmerf:
    def test_constant_ratio(self):
        assert gmerf([2.0, 4.0, 8.0], [1.0, 2.0, 4.0]) == pytest.approx(2.0)

    def test_identity(self):
        e = [0.3, 1.7, 9.4]
        assert gmerf(e, e) == pytest.approx(1.0)

    def test_hand_computed_geometric_mean(self):
        # sqrt((4/1) * (9/1)) = 6.
        assert gmerf([4.0, 9.0], [1.0, 1.0]) == pytest.approx(6.0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.1, 5.0, 20)
        b = rng.uniform(0.1, 5.0, 20)
        assert gmerf(3.0 * a, b) == pytest.approx(3.0 * gmerf(a, b))

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0.1, 5.0, 30)
        b = rng.uniform(0.1, 5.0, 30)
        assert abs(gmerf(a, b) * gmerf(b, a) - 1.0) <= 1e-12

    def test_zero_errors_floored(self):
        assert gmerf([1.0], [0.0]) == pytest.approx(1.0 / 1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="not finite"):
            gmerf([1.0, np.inf], [1.0, 1.0])

    def test_rejects_misaligned(self):
        with pytest.raises(ValueError, match="align"):
            gmerf([1.0, 2.0], [1.0])


class TestGmerfOverall:
    def test_two_point(self):
        assert gmerf_overall([2.0, 8.0]) == pytest.approx(4.0)

    def test_single_scenario_passthrough(self):
        assert gmerf_overall([13.52]) == pytest.approx(13.52)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gmerf_overall([1.0, 0.0])


class TestGmerfCi:
    def test_constant_ratios_zero_width(self):
        lo, hi = gmerf_ci([2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
        assert lo == pytest.approx(2.0) and hi == pytest.approx(2.0)

    def test_straddles_point_estimate(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.uniform(0.1, 5.0, 10)
            b = rng.uniform(0.1, 5.0, 10)
            lo, hi = gmerf_ci(a, b)
            assert lo <= gmerf(a, b) <= hi

    def test_coverage_on_lognormal_ratios(self):
        # Monte Carlo oracle: nominal 95% coverage of the true geometric
        # mean for log-normal ratios, 10^4 replications of n=30.
        rng = np.random.default_rng(3)
        n, reps, mu, sigma = 30, 10_000, 0.4, 0.8
        logs = rng.normal(mu, sigma, size=(reps, n))
        means = logs.mean(axis=1)
        ses = logs.std(ddof=1, axis=1) / np.sqrt(n)
        half = scipy.stats.t.ppf(0.975, df=n - 1) * ses
        covered = (means - half <= mu) & (mu <= means + half)
        assert abs(covered.mean() - 0.95) < 0.03
        # Spot-check the library agrees with the vectorized construction.
        comp = np.exp(logs[0])
        lo, hi = gmerf_ci(comp, np.ones(n))
        assert lo == pytest.approx(np.exp(means[0] - half[0]))
        assert hi == pytest.approx(np.exp(means[0] + half[0]))

    def test_needs_two_trials(self):
        with pytest.raises(ValueError):
            gmerf_ci([1.0], [1.0])


class TestFriedman:
    def test_dominant_algorithm_rank_sum(self):
        m = np.column_stack([np.full(7, 1.0), np.full(7, 2.0), np.full(7, 3.0)])
        rank_sums, _, _ = friedman_rank_sums(m)
        assert rank_sums[0] == 7.0

    def test_alternating_winners_symmetric(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
        rank_sums, _, _ = friedman_rank_sums(m)
        assert np.array_equal(rank_sums, [6.0, 6.0])

    def test_three_by_three_hand_oracle(self):
        # Hand-ranked: rows give ranks (1,2,3), (2,3,1), (1.5,1.5,3)
        # -> sums (4.5, 6.5, 7).
        m = np.array([
            [0.1, 0.5, 0.9],
            [0.4, 0.6, 0.2],
            [0.3, 0.3, 0.8],
        ])
        rank_sums, _, _ = friedman_rank_sums(m)
        assert np.array_equal(rank_sums, [4.5, 6.5, 7.0])

    def test_rank_sum_total_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            s, a = int(rng.integers(1, 12)), int(rng.integers(2, 6))
            m = rng.uniform(size=(s, a))
            rank_sums, _, _ = friedman_rank_sums(m)
            assert rank_sums.sum() == pytest.approx(s * a * (a + 1) / 2)

    def test_statistic_matches_scipy(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(size=(12, 3))
        _, statistic, p_value = friedman_rank_sums(m)
        ref = scipy.stats.friedmanchisquare(m[:, 0], m[:, 1], m[:, 2])
        assert statistic == pytest.approx(ref.statistic)
        assert p_value == pytest.approx(ref.pvalue)

    def test_fully_tied_matrix(self):
        _, _, p_value = friedman_rank_sums(np.ones((4, 3)))
        assert p_value == 1.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            friedman_rank_sums(np.array([[1.0, np.nan]]))


def exact_two_sided_p(diffs):
    """Enumerate all sign assignments of |d| and return the exact two-sided
    p-value for the min(W+, W-) statistic."""
    d = np.asarray(diffs, dtype=float)
    ranks = scipy.stats.rankdata(np.abs(d))
    observed = min(ranks[d > 0].sum(), ranks[d < 0].sum())
    total = ranks.sum()
    count = 0
    for signs in itertools.product((0, 1), repeat=len(d)):
        w_plus = sum(r for r, s in zip(ranks, signs) if s)
        if min(w_plus, total - w_plus) <= observed:
            count += 1
    return count / 2 ** len(d)


class TestWilcoxon:
    def test_constant_shift_dominates(self):
        rng = np.random.default_rng(6)
        y = rng.normal(size=20)
        statistic, p = wilcoxon_signed_rank(y + 1.0, y)
        assert statistic == 0.0
        assert p < 0.01

    def test_matches_exact_enumeration_n8(self):
        diffs = np.array([1.5, -2.3, 3.1, 4.7, -0.4, 6.2, 7.8, 5.5])
        y = np.zeros(8)
        _, p = wilcoxon_signed_rank(diffs, y)
        assert abs(p - exact_two_sided_p(diffs)) <= 0.02

    def test_matches_scipy_approximation(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        statistic, p = wilcoxon_signed_rank(x, y)
        ref = scipy.stats.wilcoxon(x, y, correction=True, method="approx")
        assert statistic == pytest.approx(ref.statistic)
        assert p == pytest.approx(ref.pvalue)

    def test_null_calibration(self):
        rng = np.random.default_rng(8)
        hits = 0
        reps = 1000
        for _ in range(reps):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            _, p = wilcoxon_signed_rank(x, y)
            hits += p < 0.05
        assert abs(hits / reps - 0.05) < 0.02

    def test_symmetric_in_argument_order(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        assert wilcoxon_signed_rank(x, y)[1] == pytest.approx(
            wilcoxon_signed_rank(y, x)[1])

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = rng.normal(size=12)
            y = x + rng.normal(scale=0.01, size=12)
            _, p = wilcoxon_signed_rank(x, y)
            assert 0.0 < p <= 1.0

    def test_all_differences_tied_has_finite_p(self):
        # One tie group of n removes the most variance ties can: (n^3-n)/48.
        for n in range(5, 51):
            d = np.where(np.arange(n) % 3, 2.5, -2.5)
            statistic, p = wilcoxon_signed_rank(d, np.zeros(n))
            assert math.isfinite(statistic) and 0.0 < p <= 1.0, n

    def test_all_zero_differences_give_p_one(self):
        # Exact equality is no evidence of a difference.
        x = np.ones(10)
        assert wilcoxon_signed_rank(x, x) == (0.0, 1.0)

    def test_too_few_nonzero_give_no_p(self):
        # One nonzero pair: W is its rank sum, but no p-value is given.
        x = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 2.0])
        y = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        assert wilcoxon_signed_rank(x, y) == (0.0, None)
        for n in range(1, 5):
            statistic, p = wilcoxon_signed_rank(np.arange(1.0, n + 1),
                                                np.zeros(n))
            assert (statistic, p) == (0.0, None), n
        assert wilcoxon_signed_rank([1.0, -2.0, 3.0], np.zeros(3)) == \
            (2.0, None)


class TestRuntimeRatios:
    def test_constant_doubling(self):
        tq = np.array([1.0, 2.0, 1.5, 1.0])
        ratio_of_means, overall = runtime_ratios(2.0 * tq, tq, ["a", "a", "b", "b"])
        assert ratio_of_means == {"a": 2.0, "b": 2.0}
        assert overall == pytest.approx(2.0)

    def test_identical_times(self):
        t = np.array([1.0, 2.0, 3.0])
        _, overall = runtime_ratios(t, t, [1, 1, 2])
        assert overall == pytest.approx(1.0)

    def test_hand_mean_of_group_ratios(self):
        # Groups with constant paired ratios 1.26/1.17/1.14/1.09; the overall
        # arithmetic mean is 1.165.
        ratios = [1.26, 1.17, 1.14, 1.09]
        tq, tc, groups = [], [], []
        for g, r in enumerate(ratios):
            tq += [1.0, 2.0]
            tc += [r, 2.0 * r]
            groups += [g, g]
        _, overall = runtime_ratios(tc, tq, groups)
        assert overall == pytest.approx(np.mean(ratios))

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError, match="positive"):
            runtime_ratios([1.0, 0.0], [1.0, 1.0], [1, 1])


# The package's statistics once called scipy.stats; these oracles are those
# formulas verbatim. Ranks and statistics must be the same floats; p-values
# and interval bounds, now from the math-module helpers, agree to 1e-12.
def gmerf_ci_oracle(comp, ref, level):
    logs = np.log(np.maximum(comp, 1e-12)) - np.log(np.maximum(ref, 1e-12))
    n = logs.size
    se = logs.std(ddof=1) / np.sqrt(n)
    half = scipy.stats.t.ppf(0.5 + level / 2.0, df=n - 1) * se
    return float(np.exp(logs.mean() - half)), float(np.exp(logs.mean() + half))


def friedman_oracle(m):
    s, a = m.shape
    ranks = np.apply_along_axis(scipy.stats.rankdata, 1, m)
    rank_sums = ranks.sum(axis=0)
    stat = (12.0 / (s * a * (a + 1))) * np.sum(rank_sums ** 2) - 3.0 * s * (a + 1)
    ties = 0.0
    for row in ranks:
        _, counts = np.unique(row, return_counts=True)
        ties += np.sum(counts.astype(float) ** 3 - counts)
    c = 1.0 - ties / (s * a * (a * a - 1))
    if c <= 0:
        return rank_sums, 0.0, 1.0
    stat /= c
    return rank_sums, float(stat), float(scipy.stats.chi2.sf(stat, df=a - 1))


def wilcoxon_oracle(x, y):
    d = x - y
    d = d[d != 0.0]
    n = d.size
    ranks = scipy.stats.rankdata(np.abs(d))
    statistic = min(ranks[d > 0].sum(), ranks[d < 0].sum())
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, counts = np.unique(ranks, return_counts=True)
    var -= np.sum(counts.astype(float) ** 3 - counts) / 48.0
    z = (statistic - n * (n + 1) / 4.0 + 0.5) / np.sqrt(var)
    return float(statistic), float(min(2.0 * scipy.stats.norm.cdf(z), 1.0))


class TestEqualToScipyStats:
    def test_average_ranks_equal_rankdata_with_ties(self):
        rng = np.random.default_rng(20)
        for _ in range(2000):
            n = int(rng.integers(1, 30))
            x = rng.integers(0, int(rng.integers(1, 12)), n) * 0.37
            assert np.array_equal(_average_ranks(x)[0], scipy.stats.rankdata(x))

    # Few distinct values, so most vectors are full of ties.
    @settings(derandomize=True, database=None, max_examples=500)
    @given(st.lists(st.sampled_from([-1.5, 0.0, 0.37, 2.0, 1e300]),
                    min_size=1, max_size=40))
    def test_average_ranks_tie_term_equals_unique_counts(self, values):
        """The tie term is sum(c^3 - c) over the tie groups' sizes, the
        same floats added in the same order as over np.unique's counts."""
        ranks, tie_term = _average_ranks(np.array(values))
        _, counts = np.unique(ranks, return_counts=True)
        assert repr(tie_term) == repr(
            np.sum(counts.astype(float) ** 3 - counts))

    def test_gmerf_ci(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            comp, ref = rng.lognormal(size=n), rng.lognormal(size=n)
            level = float(rng.uniform(0.05, 0.99))
            assert gmerf_ci(comp, ref, level) == \
                rel(gmerf_ci_oracle(comp, ref, level), 1e-12)

    def test_friedman_rank_sums(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            s, a = int(rng.integers(1, 15)), int(rng.integers(2, 7))
            m = rng.integers(0, int(rng.integers(1, 6)), (s, a)) * 0.5
            rank_sums, statistic, p_value = friedman_rank_sums(m)
            sums, stat, p = friedman_oracle(m)
            assert np.array_equal(rank_sums, sums)
            assert statistic == stat
            assert p_value == rel(p, 1e-12)

    def test_friedman_statistic_rounded_below_zero(self):
        # Equal rank sums: the statistic is 0 in exact arithmetic but comes
        # out a hair negative in floats; its p-value is still exactly 1.
        m = np.array([(np.arange(7) + r) % 7 for r in range(21)], dtype=float)
        _, statistic, p_value = friedman_rank_sums(m)
        assert statistic < 0.0
        assert (statistic, p_value) == friedman_oracle(m)[1:]
        assert p_value == 1.0

    def test_wilcoxon_signed_rank(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(8, 40))
            x = np.round(rng.lognormal(size=n), 1)
            y = np.round(rng.lognormal(size=n), 1)
            (statistic, p), (want_stat, want_p) = (wilcoxon_signed_rank(x, y),
                                                   wilcoxon_oracle(x, y))
            assert statistic == want_stat
            assert p == rel(want_p, 1e-12)


T_QS = np.concatenate((np.linspace(0.5005, 0.999, 25),
                       1.0 - np.geomspace(1e-3, 1e-9, 13)))


class TestDistributionHelpers:
    """The math-module helpers that replace scipy.special's stdtrit, chdtrc
    and ndtr: dense grids against scipy, values pinned from mpmath, edges
    and monotonicity."""

    def test_t_quantile_grid(self):
        # scipy's own stdtrit is off by up to ~1.4e-11 near q = 0.5 for
        # small df (df 4, q 0.5005 against mpmath); where the two disagree
        # by more than 1e-12, the helper must be the one mpmath confirms.
        for df in [*range(1, 201), 1000]:
            for q in T_QS:
                got, want = _t_quantile(df, q), float(scipy.special.stdtrit(df, q))
                if got == rel(want, 1e-12):
                    continue
                import mpmath

                with mpmath.workdps(40):
                    exact = mpmath.findroot(
                        lambda t: mpmath.betainc(df / 2, 0.5, 0,
                                                 df / (df + t * t),
                                                 regularized=True) / 2
                        - (1 - mpmath.mpf(q)), want)
                assert got == rel(float(exact), 1e-13), (df, q)

    @pytest.mark.parametrize("df", [3, 10, 50, 1000, 5000])
    def test_t_quantile_next_to_one(self, df):
        for q in (1 - 1e-12, 1 - 1e-15, math.nextafter(1.0, 0.0)):
            assert _t_quantile(df, q) == \
                rel(float(scipy.special.stdtrit(df, q)), 1e-12), q

    def test_chi2_sf_grid(self):
        for df in range(1, 21):
            for x in np.concatenate((np.geomspace(1e-12, 1.0, 40),
                                     np.linspace(0.0, 200.0, 801))):
                want = float(scipy.special.chdtrc(df, x))
                if want >= 1e-300:
                    assert _chi2_sf(df, x) == rel(want, 1e-12), (df, x)

    def test_normal_cdf_grid(self):
        for z in np.linspace(-37.0, 8.0, 4501):
            assert _normal_cdf(z) == rel(float(scipy.special.ndtr(z)), 1e-12)

    # Computed once with mpmath at 50 digits, from the exact float inputs.
    @pytest.mark.parametrize("df,q,want", [
        (3, 0.975, 3.1824463052837084359),
        (4, 0.5005, 0.0013333338271606652259),
        (29, 0.975, 2.0452296421327038745),
        (5, 1 - 1e-9, 98.937225208242134296),
        (200, 0.99999, 4.3693895523436927024),
        (1000, 0.9985, 2.9750308919457893981),
    ])
    def test_t_quantile_pinned(self, df, q, want):
        assert _t_quantile(df, q) == rel(want, 1e-13)

    @pytest.mark.parametrize("df,x,want", [
        (1, 0.5, 0.47950012218695346232),
        (2, 3.0, 0.22313016014842982893),
        (5, 11.0, 0.051379983483069532207),
        (20, 200.0, 1.1253473960842733885e-31),
    ])
    def test_chi2_sf_pinned(self, df, x, want):
        assert _chi2_sf(df, x) == rel(want, 1e-13)

    # Below about z = -30 the rounding of z / sqrt(2) alone moves erfc by
    # more than 1e-13 (the condition number is ~z^2), so the pins stop at -20.
    @pytest.mark.parametrize("z,want", [
        (-20.0, 2.7536241186062336951e-89),
        (-1.5, 0.066807201268858066004),
        (0.5, 0.69146246127401310364),
        (3.0, 0.99865010196836990547),
    ])
    def test_normal_cdf_pinned(self, z, want):
        assert _normal_cdf(z) == rel(want, 1e-13)

    @pytest.mark.parametrize("df", range(1, 8))
    def test_chi2_sf_is_one_at_and_below_zero(self, df):
        for x in (0.0, -6e-14, -1.0):
            assert _chi2_sf(df, x) == 1.0

    def test_t_quantile_df1_is_the_cauchy_quantile(self):
        for q in np.linspace(0.5005, 0.99, 50):
            assert _t_quantile(1, q) == rel(math.tan(math.pi * (q - 0.5)), 1e-12)

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 29, 1000])
    def test_t_quantile_median_is_zero_and_q_one_infinite(self, df):
        assert _t_quantile(df, 0.5) == 0.0
        assert _t_quantile(df, 1.0) == math.inf

    @pytest.mark.parametrize("n", [2, 3, 4, 10])
    def test_gmerf_ci_at_the_largest_level_below_one(self, n):
        # 0.5 + level / 2 rounds to 1.0: the interval is (0, inf), as it
        # was with scipy.special.stdtrit.
        level = math.nextafter(1.0, 0.0)
        comp = np.arange(1.0, n + 1.0)
        assert gmerf_ci(comp, np.ones(n), level) == (0.0, math.inf)

    @settings(derandomize=True, database=None, max_examples=200)
    @given(st.integers(1, 20), st.floats(0.0, 200.0), st.floats(0.0, 200.0))
    def test_chi2_sf_decreases_in_x(self, df, a, b):
        lo, hi = sorted((a, b))
        assert _chi2_sf(df, lo) >= _chi2_sf(df, hi)

    @settings(derandomize=True, database=None, max_examples=200)
    @given(st.integers(1, 200), st.floats(0.5, 1.0 - 1e-9),
           st.floats(0.5, 1.0 - 1e-9))
    def test_t_quantile_increases_in_q(self, df, a, b):
        lo, hi = sorted((a, b))
        assert _t_quantile(df, lo) <= _t_quantile(df, hi)

    @settings(derandomize=True, database=None, max_examples=200)
    @given(st.integers(1, 200), st.integers(1, 200), st.floats(0.5, 1.0 - 1e-9))
    def test_t_quantile_decreases_in_df(self, a, b, q):
        lo, hi = sorted((a, b))
        assert _t_quantile(lo, q) >= _t_quantile(hi, q)
