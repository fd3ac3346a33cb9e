"""QUASAR: quasi-adaptive search with asymptotic reinitialization.

A DE-family optimizer combining three probabilistically selected mutation
strategies, rank-based crossover rates, greedy elitism, and replacement of
the worst population slice by samples from an elite-fitted Gaussian whose
trigger probability decays asymptotically over generations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import ClassVar, Optional

import numpy as np

from .core import (
    BoundsBox,
    OptResult,
    Population,
    RngStream,
    RunConfig,
    clip_to_bounds,
    crossover,
    evaluate_rows,
    mutants,
    rank_population,
    require_finite,
    require_real,
    run_generations,
    select,
    work_array,
)
from .sampling import initial_population

# Factor distributions: local exploitation N(0, 0.33^2); global exploration
# is an equal-weight mixture of N(+0.5, 0.25^2) and N(-0.5, 0.25^2).
F_LOCAL_SCALE = 0.33
F_GLOBAL_MODE = 0.5
F_GLOBAL_SCALE = 0.25


class MutationStrategy(IntEnum):
    SPOOKY_BEST = 0      # exploit around the population best
    SPOOKY_CURRENT = 1   # move the current point along best-random
    SPOOKY_RANDOM = 2    # explore from a random member


@dataclass
class QuasarConfig(RunConfig):
    """All QUASAR constants, plus the shared RunConfig fields.

    Probabilities and fractions must lie in (0, 1]; noise_divisor and
    epsilon_jitter must be finite and positive; pop_size must be at least 5
    so mutation can draw distinct indices. A bad value raises ValueError
    naming the field.
    """

    MIN_POP: ClassVar[int] = 5

    entangle_rate: float = 0.33
    cr_floor: float = 0.33
    p_final: float = 0.33
    g_final: float = 0.33
    reinit_fraction: float = 0.33
    elite_fraction: float = 0.25
    noise_divisor: float = 20.0
    epsilon_jitter: float = 1e-12

    def __post_init__(self):
        for name in ("entangle_rate", "cr_floor", "p_final", "g_final",
                     "reinit_fraction", "elite_fraction"):
            v = getattr(self, name)
            require_real(name, v)
            if v > 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        require_real("noise_divisor", self.noise_divisor)
        require_real("epsilon_jitter", self.epsilon_jitter)
        super().__post_init__()


@dataclass(frozen=True)
class EliteStats:
    """Mean and jittered covariance of the top-M individuals."""

    mu: np.ndarray       # (D,)
    sigma: np.ndarray    # (D, D), symmetric, includes the epsilon*I jitter
    m: int
    epsilon: float = QuasarConfig.epsilon_jitter


@dataclass(frozen=True)
class StepInfo:
    """Diagnostics for one generation step."""

    reinit_mask: np.ndarray        # (N,) bool: replaced via reinitialization
    n_reinit: int
    cholesky_fallback: int         # 0 clean, 1 strong jitter, 2 diagonal only
    strategy_counts: np.ndarray    # draws per MutationStrategy value
    n_accepted: int                # trials that won greedy selection


def select_strategy(rng: RngStream, entangle_rate: float, size: int):
    """Draw `size` mutation strategy codes: SPOOKY_BEST with probability
    entangle_rate, otherwise SPOOKY_CURRENT or SPOOKY_RANDOM with equal
    probability."""
    # One draw of both uniform blocks: the stream use equals two draws.
    u_best, u_split = rng.random((2, size))
    # SPOOKY_CURRENT (1) below one half, SPOOKY_RANDOM (2) above.
    out = np.add(u_split >= 0.5, 1, dtype=np.int8)
    out[u_best < entangle_rate] = int(MutationStrategy.SPOOKY_BEST)
    return out


def sample_f_local(rng: RngStream, size: int) -> np.ndarray:
    """`size` local mutation factors: N(0, 0.33^2)."""
    return rng.normal(0.0, F_LOCAL_SCALE, size)


def sample_f_global(rng: RngStream, size: int) -> np.ndarray:
    """`size` global mutation factors: equal-weight bimodal mixture of
    N(+0.5, 0.25^2) and N(-0.5, 0.25^2)."""
    modes = np.where(rng.random(size) < 0.5, F_GLOBAL_MODE, -F_GLOBAL_MODE)
    # = rng.normal(modes, F_GLOBAL_SCALE) bit for bit, minus its slow path.
    return modes + F_GLOBAL_SCALE * rng.normal(size=size)


def _build_mutants(positions: np.ndarray, best_idx: int, var_idx: np.ndarray,
                   strategies: np.ndarray, f: np.ndarray,
                   rand_idx: np.ndarray) -> np.ndarray:
    """Vectorized mutation for the variation set (pre-clipping).

    Every strategy is X_p + F * (X_q - X_rand), with (p, q) = (best, i),
    (i, best) and (rand, i) for SPOOKY_BEST, SPOOKY_CURRENT and
    SPOOKY_RANDOM, so core.mutants serves all three with one gather per
    operand.
    """
    p = strategies.choose((best_idx, var_idx, rand_idx))
    q = np.where(strategies == int(MutationStrategy.SPOOKY_CURRENT),
                 best_idx, var_idx)
    return mutants(positions, p, q, rand_idx, f[:, None])


def crossover_rate(rank, n: int, cr_floor: float = QuasarConfig.cr_floor):
    """Rank-based crossover rate max((n-1-rank)/(n-1), cr_floor).

    Ranks are 0-based: the best individual (rank 0) gets CR = 1.0, the worst
    is floored at cr_floor. Accepts scalar or ndarray ranks.
    """
    if n < 2:
        raise ValueError("crossover rate needs a population of at least 2")
    raw = (n - 1 - np.asarray(rank)) / (n - 1)
    out = np.maximum(raw, cr_floor)
    return float(out) if out.ndim == 0 else out


def reinit_probability(g: int, g_max: int,
                       p_final: float = QuasarConfig.p_final,
                       g_final: float = QuasarConfig.g_final) -> float:
    """Reinitialization probability exp(ln(p_final) / (g_final * g_max) * g).

    Decays from 1 at g=0 to p_final at g = g_final * g_max, continuing
    asymptotically toward zero beyond that point.
    """
    if g_max < 1:
        raise ValueError("g_max must be at least 1")
    if not 0 <= g <= g_max:
        raise ValueError(f"generation {g} outside [0, {g_max}]")
    return float(np.exp(np.log(p_final) / (g_final * g_max) * g))


def compute_elite_stats(
        pop: Population, elite_fraction: float = QuasarConfig.elite_fraction,
        epsilon: float = QuasarConfig.epsilon_jitter) -> EliteStats:
    """Mean and unbiased covariance of the top max(2, floor(frac*N)) members.

    The covariance gets an epsilon*I jitter so it admits a Cholesky
    factorization even when the elites are degenerate.
    """
    n = pop.size
    m = max(2, int(elite_fraction * n))
    if n < m:
        raise ValueError(
            f"covariance needs at least {m} individuals, population has {n}"
        )
    order = pop.fitness.argsort(kind="stable")
    # The elites, gathered into a work array and centered in place.
    centered = pop.positions.take(order[:m], axis=0, mode="clip",
                                  out=work_array("rows", (m, pop.dim)))
    mu = centered.sum(axis=0) / m
    centered -= mu
    sigma = centered.T @ centered
    sigma /= m - 1
    sigma.ravel()[::pop.dim + 1] += epsilon     # the diagonal, in place
    return EliteStats(mu=mu, sigma=sigma, m=m, epsilon=epsilon)


def sample_reinit_positions(stats: EliteStats, bounds: BoundsBox,
                            rng: RngStream, noise_divisor: float, count: int):
    """Sample `count` replacement positions: N(mu, sigma) plus per-dimension
    noise N(0, ((high - low) / noise_divisor)^2), clipped into the box.
    Never aborts.

    Returns (positions, fallback): positions is (count, D); fallback 0 used
    the jittered covariance as-is, 1 needed a stronger jitter
    (epsilon * 1e6), 2 fell back to independent per-dimension sampling from
    diag(sigma).
    """
    mu, sigma = stats.mu, stats.sigma
    d = mu.size
    # Gaussians and noise in one draw: the same stream use as two draws.
    z = rng.normal(size=(2 * count, d))
    z, noise = z[:count], z[count:]
    noise *= bounds.width / noise_divisor
    fallback = 0
    try:
        y = z @ np.linalg.cholesky(sigma).T
    except np.linalg.LinAlgError:
        try:
            chol = np.linalg.cholesky(sigma + stats.epsilon * 1e6 * np.eye(d))
            y = z @ chol.T
            fallback = 1
        except np.linalg.LinAlgError:
            y = z * np.sqrt(np.maximum(np.diag(sigma), 0.0))
            fallback = 2
    y += mu
    y += noise
    return clip_to_bounds(y, bounds), fallback


def step(objective, bounds: BoundsBox, pop: Population, cfg: QuasarConfig,
         rng: RngStream):
    """Advance one generation; returns (new_population, StepInfo).

    Order within a generation: (1) rank the population; (2) each of the
    floor(reinit_fraction * N) worst individuals is independently replaced
    with probability reinit_probability(g) by an elite-covariance sample
    (evaluated immediately, no crossover or greedy comparison); (3) every
    other individual runs strategy selection, mutation, rank-based binomial
    crossover and greedy selection against its trial, drawing nothing and
    calling no objective when none is left. Crossover rates use the
    step-start ranking; mutation donors come from the post-reinit snapshot,
    and all trials are evaluated against it (batch-synchronous, so results
    do not depend on evaluation parallelism).

    Draw order (all on the coordinating thread): reinit Bernoullis, reinit
    Gaussians and noise, strategy selectors, local factors, global factors,
    donor indices, crossover matrix.
    """
    n, d = pop.size, pop.dim
    # One stable sort gives the ranks; their inverse orders the worst slice.
    ranks = rank_population(pop)
    order = np.empty_like(ranks)
    order[ranks] = np.arange(n)

    positions = pop.positions.copy()
    fitness = pop.fitness.copy()

    # Worst slice, ordered best-to-worst, each member drawn independently.
    n_slice = int(cfg.reinit_fraction * n)
    p_reinit = reinit_probability(pop.generation, cfg.g_max,
                                  cfg.p_final, cfg.g_final)
    chosen = order[n - n_slice:][rng.random(n_slice) < p_reinit]
    fallback = 0
    if chosen.size:
        stats = compute_elite_stats(pop, cfg.elite_fraction, cfg.epsilon_jitter)
        new_pos, fallback = sample_reinit_positions(
            stats, bounds, rng, cfg.noise_divisor, chosen.size)
        new_fit = evaluate_rows(objective, new_pos)
        require_finite(new_fit, pop.generation, chosen)
        positions[chosen] = new_pos
        fitness[chosen] = new_fit

    reinit_mask = np.zeros(n, dtype=bool)
    reinit_mask[chosen] = True
    var_idx = (~reinit_mask).nonzero()[0]
    m = var_idx.size

    strategies, n_accepted = np.zeros(0, np.int8), 0
    if m:       # else all were reinitialized: no zero-row objective call
        best_idx = int(fitness.argmin())
        strategies = select_strategy(rng, cfg.entangle_rate, size=m)
        is_best = strategies == int(MutationStrategy.SPOOKY_BEST)
        n_best = int(np.count_nonzero(is_best))
        f = np.empty(m)
        f[is_best] = sample_f_local(rng, size=n_best)
        f[~is_best] = sample_f_global(rng, size=m - n_best)
        r = rng.integers(0, n - 1, size=m)
        rand_idx = r + (r >= var_idx)

        trials = _build_mutants(positions, best_idx, var_idx, strategies, f,
                                rand_idx)
        clip_to_bounds(trials, bounds)
        cr = crossover_rate(ranks[var_idx], n, cfg.cr_floor)
        # The targets are a work array, done with before the objective runs.
        targets = positions.take(var_idx, axis=0, mode="clip",
                                 out=work_array("rows", (m, d)))
        crossover(trials, targets, cr[:, None], rng)
        trial_fit = evaluate_rows(objective, trials)
        require_finite(trial_fit, pop.generation, var_idx)
        n_accepted = int(np.count_nonzero(
            select(positions, fitness, var_idx, trials, trial_fit)))

    new_pop = Population(positions, fitness, pop.generation + 1,
                         pop.eval_count + n)
    return new_pop, StepInfo(
        reinit_mask=reinit_mask,
        n_reinit=int(chosen.size),
        cholesky_fallback=fallback,
        strategy_counts=np.bincount(strategies, minlength=3),
        n_accepted=n_accepted,
    )


def optimize(f, bounds: BoundsBox, cfg: Optional[QuasarConfig] = None) -> OptResult:
    """Minimize f over the box with QUASAR.

    Parameters
    ----------
    f : callable or object
        Objective, lower is better: f(x), f.evaluate(x) or a batch
        f.evaluate_many(X), as core.evaluate_rows calls it.
    bounds : BoundsBox
        Search box; every emitted position stays inside it.
    cfg : QuasarConfig, optional
        Algorithm constants; defaults throughout, population 10 * D.

    Returns
    -------
    OptResult
        Best-so-far position/fitness, error relative to the known optimum
        when available, the per-generation best-so-far trace, wall-clock
        runtime and the number of objective evaluations.

    The run is a pure function of (f, bounds, cfg) including cfg.seed: the
    same inputs reproduce the result bit for bit. Exactly g_max generations
    are executed; there is no early stopping and no polish step.
    """
    cfg = cfg or QuasarConfig()
    # `step` is looked up at call time, so it can be wrapped or replaced.
    return run_generations(
        f, bounds, cfg, initial_population, evaluate_rows,
        lambda pop, rng: step(f, bounds, pop, cfg, rng)[0])
