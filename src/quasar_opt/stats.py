"""Evaluation statistics: GMERF, Friedman rank sums, Wilcoxon, runtime ratios.

GMERF (geometric mean error reduction factor) is the geometric mean of
per-trial error ratios comparison/reference; values above 1 mean the
reference algorithm achieved lower errors. All geometric means are computed
in log space. Final errors are floored at ERROR_FLOOR before forming ratios
so exact-zero errors stay well defined; callers should surface when the
floor was applied.

The p-values and t-intervals come from three private helpers built on the
math module, exact closed forms for the integer degrees of freedom used here
(Abramowitz & Stegun 26.2, 26.4.4-5, 26.7.3-4). They agree with
scipy.special's ndtr, chdtrc and stdtrit to 1e-12 relative, and spare every
summary the ~20-26 MB and ~0.3 s that importing scipy.special costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

ERROR_FLOOR = 1e-12


def _normal_cdf(z: float) -> float:
    """Standard normal CDF; erfc keeps the lower tail's relative accuracy."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _chi2_sf(df: int, x: float) -> float:
    """Chi-square survival function for integer df >= 1 (A&S 26.4.4-5).

    Exactly 1.0 for x <= 0, where a statistic that is 0 in exact
    arithmetic can land after rounding."""
    if x <= 0.0:
        return 1.0
    odd = df % 2
    term = math.exp(-x / 2.0) * (math.sqrt(2.0 * x / math.pi) if odd else 1.0)
    total = math.erfc(math.sqrt(x / 2.0)) if odd else 0.0
    for j in range(odd, df, 2):
        total += term
        term *= x / (j + 2)
    return total


def _t_quantile(df: int, q: float) -> float:
    """Student-t quantile for integer df >= 1 and 1/2 <= q <= 1.

    df 1 and 2 have closed forms. For df >= 3, Newton's method solves
    F(t) = q from t = 0: F is concave for t > 0, so each step lands left of
    the root and no bracket is needed. With x = df / (df + t^2), F is a
    series of terms u_j, j = df % 2, df % 2 + 2, ... (A&S 26.7.3-4). The
    terms below j = df, plus atan(t / sqrt(df)) / pi for odd df, give
    F(t) - 1/2; the terms from j = df on give 1 - F(t). In the upper 1%,
    once 1 - F(t) is within twice its target (or 1e-12 of it), those are
    summed directly, since 1/2 minus the first sum would cancel there. u_df
    also gives the density.
    """
    if q >= 1.0:
        return math.inf
    if df == 1:
        return math.sin(math.pi * (q - 0.5)) / math.sin(math.pi * (1.0 - q))
    if df == 2:
        return (q - 0.5) / math.sqrt(0.5 * q * (1.0 - q))
    odd = df % 2
    t = 0.0
    for _ in range(200):
        r = math.sqrt(df + t * t)
        x = df / (df + t * t)
        u = math.sqrt(x) / math.pi if odd else 0.5
        head = 0.0
        for j in range(odd, df, 2):
            head += u
            u *= x * (j + 1) / (j + 2)
        head *= t / r
        if odd:
            head += math.atan(t / math.sqrt(df)) / math.pi
        miss = q - 0.5 - head
        if head > 0.49 and miss < 1.0 - q + 1e-12:
            tail, term, j = 0.0, u, df
            while term > 1e-17 * tail:
                tail += term
                term *= x * (j + 1) / (j + 2)
                j += 2
            miss = t / r * tail - (1.0 - q)
        step = miss * r / (df * u)
        t += step
        if step <= 1e-15 * t:
            break
    return t


def _checked(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-D array")
    if not np.all(np.isfinite(arr)):
        bad = int(np.argmax(~np.isfinite(arr)))
        raise ValueError(f"{name}[{bad}] is not finite: {arr[bad]}")
    return arr


def _log_ratios(comparison_errors, reference_errors) -> np.ndarray:
    comp = _checked(comparison_errors, "comparison_errors")
    ref = _checked(reference_errors, "reference_errors")
    if comp.size != ref.size:
        raise ValueError(
            f"error vectors must align: {comp.size} vs {ref.size} trials"
        )
    return (np.log(np.maximum(comp, ERROR_FLOOR))
            - np.log(np.maximum(ref, ERROR_FLOOR)))


def gmerf(comparison_errors, reference_errors) -> float:
    """Geometric mean of per-trial ratios comparison/reference."""
    return float(np.exp(np.mean(_log_ratios(comparison_errors,
                                            reference_errors))))


def gmerf_overall(per_scenario) -> float:
    """Geometric mean of per-scenario GMERF values."""
    vals = _checked(per_scenario, "per_scenario")
    if np.any(vals <= 0):
        raise ValueError("GMERF values must be positive")
    return float(np.exp(np.mean(np.log(vals))))


def gmerf_ci(comparison_errors, reference_errors,
             level: float = 0.95) -> Tuple[float, float]:
    """Two-sided t-interval on the geometric mean ratio.

    Built on the mean of log ratios and exponentiated, so it always
    straddles the point GMERF; constant ratios give a zero-width interval.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must be in (0, 1)")
    logs = _log_ratios(comparison_errors, reference_errors)
    n = logs.size
    if n < 2:
        raise ValueError("confidence interval needs at least 2 trials")
    mean = logs.mean()
    se = logs.std(ddof=1) / np.sqrt(n)
    half = _t_quantile(n - 1, 0.5 + level / 2.0) * se
    return float(np.exp(mean - half)), float(np.exp(mean + half))


def _average_ranks(values: np.ndarray) -> Tuple[np.ndarray, float]:
    """Ranks 1..n of a 1-D array, ties sharing the mean of their ranks, and
    the tie term sum(t^3 - t) over the tie groups' sizes t."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    new = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    # A tie group at sorted positions [s, e) holds ranks s+1..e.
    edges = np.flatnonzero(np.concatenate((new, [True])))
    ranks = np.empty(values.size)
    ranks[order] = ((edges[:-1] + edges[1:] + 1) / 2.0)[np.cumsum(new) - 1]
    t = np.diff(edges).astype(float)
    return ranks, np.sum(t ** 3 - t)


@dataclass(frozen=True)
class FriedmanResult:
    rank_sums: np.ndarray   # per algorithm, aligned with input columns
    statistic: float
    p_value: float


def friedman_rank_sums(median_errors) -> FriedmanResult:
    """Friedman test over a scenarios-by-algorithms matrix of median errors.

    Per scenario, algorithms get ranks 1..A (average ranks on ties, best =
    lowest error = rank 1); rank sums accumulate across scenarios. The
    chi-square statistic uses the standard tie correction and A-1 degrees
    of freedom. A lower rank sum indicates better overall performance.
    """
    m = np.asarray(median_errors, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 2:
        raise ValueError("need a (scenarios, algorithms>=2) matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("median errors must be finite")
    s, a = m.shape
    ranks, ties = zip(*(_average_ranks(row) for row in m))
    rank_sums = np.sum(ranks, axis=0)

    stat = (12.0 / (s * a * (a + 1))) * np.sum(rank_sums ** 2) - 3.0 * s * (a + 1)
    # Tie correction: 1 - sum(t^3 - t) / (s * a * (a^2 - 1)).
    c = 1.0 - sum(ties) / (s * a * (a * a - 1))
    if c <= 0:
        # Every scenario fully tied: no evidence of any difference.
        return FriedmanResult(rank_sums, 0.0, 1.0)
    stat /= c
    return FriedmanResult(rank_sums, float(stat), _chi2_sf(a - 1, stat))


def wilcoxon_signed_rank(x, y) -> Tuple[float, Optional[float]]:
    """Paired two-sided Wilcoxon signed-rank test, normal approximation.

    Zero differences are dropped. The statistic is min(W+, W-); the p-value
    uses the tie-corrected variance and a 0.5 continuity correction toward
    the mean. With every difference zero there is no evidence of one, so the
    result is (0.0, 1.0); with 1-4 nonzero differences the p-value is None.
    """
    xa = _checked(x, "x")
    ya = _checked(y, "y")
    if xa.size != ya.size:
        raise ValueError("paired samples must have equal length")
    d = xa - ya
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return 0.0, 1.0
    ranks, ties = _average_ranks(np.abs(d))
    statistic = float(min(ranks[d > 0].sum(), ranks[d < 0].sum()))
    if n < 5:
        return statistic, None

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # Ties remove at most (n^3 - n)/48, so var >= n(n+1)(3n+3)/48 > 0.
    var -= ties / 48.0
    z = (statistic - mean + 0.5) / np.sqrt(var)
    p = min(2.0 * _normal_cdf(z), 1.0)
    return statistic, p


@dataclass(frozen=True)
class RuntimeRatios:
    """Run-time comparison grouped by a label (dimension or sample size).

    ratio_of_means[g] divides the groups' mean run times; overall averages,
    over the groups, the mean of per-trial ratios within each group.
    """

    ratio_of_means: Dict[str, float]
    overall: float


def runtime_ratios(times_comparison, times_reference, groups) -> RuntimeRatios:
    """Per-group and overall run-time ratios comparison/reference.

    All three arguments align per trial; times must be positive.
    """
    tc = _checked(times_comparison, "times_comparison")
    tr = _checked(times_reference, "times_reference")
    labels = np.asarray(groups)
    if not (tc.size == tr.size == labels.size):
        raise ValueError("times and groups must align")
    if np.any(tc <= 0) or np.any(tr <= 0):
        raise ValueError("run times must be positive")
    ratio_of_means: Dict[str, float] = {}
    paired_means = []
    for g in dict.fromkeys(labels.tolist()):  # first-appearance order
        sel = labels == g
        ratio_of_means[str(g)] = float(tc[sel].mean() / tr[sel].mean())
        paired_means.append(float(np.mean(tc[sel] / tr[sel])))
    return RuntimeRatios(ratio_of_means, float(np.mean(paired_means)))


@dataclass
class ScenarioSummary:
    """Aggregated statistics for one (function, dim, pop) cell."""

    function: str
    dim: int
    pop: int
    n_trials: int
    gm_error: Dict[str, float]                      # per algorithm
    mean_runtime: Dict[str, float]                  # per algorithm
    gmerf: Dict[str, float] = field(default_factory=dict)       # per comparison
    gmerf_ci: Dict[str, List[float]] = field(default_factory=dict)
    p_error: Dict[str, Optional[float]] = field(default_factory=dict)
    p_runtime: Dict[str, Optional[float]] = field(default_factory=dict)
    error_floor_applied: bool = False


@dataclass
class SummaryTable:
    """Full experiment summary: per-scenario stats plus overall aggregates."""

    algorithms: List[str]
    reference: Optional[str] = None
    scenarios: List[ScenarioSummary] = field(default_factory=list)
    rank_sums: Dict[str, float] = field(default_factory=dict)
    friedman_statistic: Optional[float] = None
    friedman_p: Optional[float] = None
    gmerf_overall: Dict[str, float] = field(default_factory=dict)
    gmerf_overall_ci: Dict[str, List[float]] = field(default_factory=dict)
    runtime_ratio_by_dim: Dict[str, Dict[str, float]] = field(default_factory=dict)
    runtime_ratio_by_pop: Dict[str, Dict[str, float]] = field(default_factory=dict)
    runtime_ratio_overall: Dict[str, float] = field(default_factory=dict)
    n_failed_trials: int = 0
