"""Classic DE/rand/1/bin baseline with fixed F and CR."""

from __future__ import annotations

from dataclasses import dataclass
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
    require_real,
    run_generations,
    select,
)
from .sampling import initial_population


@dataclass
class DeConfig(RunConfig):
    """Textbook DE/rand/1/bin constants, plus the shared RunConfig fields.

    At least 4 members are required so the three donors and the target can
    be pairwise distinct. f_weight must be finite and cr in [0, 1]. A bad
    value raises ValueError naming the field.
    """

    MIN_POP: ClassVar[int] = 4

    f_weight: float = 0.5
    cr: float = 0.9

    def __post_init__(self):
        require_real("f_weight", self.f_weight, positive=False)
        require_real("cr", self.cr, positive=False)
        if not 0.0 <= self.cr <= 1.0:
            raise ValueError(f"cr must be in [0, 1], got {self.cr}")
        super().__post_init__()


def _draw(rng: RngStream, n: int, d: int):
    """Every draw of a generation of n members in d dimensions: per target
    i, three donor indices, pairwise distinct and != i, and j_rand in
    [0, d), from one integers draw (bounds n-1, n-2, n-3, d), then the
    (n, d) crossover uniforms. Returns (r1, r2, r3, j_rand, u)."""
    idx = np.arange(n)
    r1, r2, r3, j_rand = rng.integers(
        0, np.repeat((n - 1, n - 2, n - 3, d), n)).reshape(4, n)
    r1 += r1 >= idx
    # Each draw skips the taken indices in ascending order.
    lo, hi = np.minimum(idx, r1), np.maximum(idx, r1)
    r2 += r2 >= lo
    r2 += r2 >= hi
    r3 += r3 >= np.minimum(lo, r2)
    r3 += r3 >= np.minimum(np.maximum(r2, lo), hi)     # the middle one
    r3 += r3 >= np.maximum(hi, r2)
    return r1, r2, r3, j_rand, rng.random((n, d))


def _apply(objective, bounds: BoundsBox, pop: Population, cfg: DeConfig,
           draws) -> Population:
    """One DE/rand/1/bin generation from its draws, which it only reads:
    v = X_r1 + F*(X_r2 - X_r3), binomial crossover (core.crossover keeps v
    at j_rand), greedy selection."""
    r1, r2, r3, j_rand, u = draws
    x = pop.positions
    trials = mutants(x, r1, r2, r3, cfg.f_weight)
    clip_to_bounds(trials, bounds)
    rows = np.arange(pop.size)
    crossover(trials, x, cfg.cr, u, forced=(rows, j_rand))
    trial_fit = evaluate_rows(objective, trials, pop.generation, rows)

    positions, fitness = x.copy(), pop.fitness.copy()
    select(positions, fitness, rows, trials, trial_fit)
    return Population(positions, fitness, pop.generation + 1,
                      pop.eval_count + pop.size)


def _de_step(objective, bounds: BoundsBox, pop: Population, cfg: DeConfig,
             rng: RngStream) -> Population:
    """One DE/rand/1/bin generation: draw, then apply."""
    return _apply(objective, bounds, pop, cfg, _draw(rng, pop.size, pop.dim))


def de_optimize(f, bounds: BoundsBox, cfg: Optional[DeConfig] = None) -> OptResult:
    """Minimize f over the box with DE/rand/1/bin.

    Same result contract as quasar.optimize: exactly g_max generations, no
    early stopping, deterministic for a given (f, bounds, cfg).
    """
    cfg = cfg or DeConfig()
    return run_generations(
        f, bounds, cfg, initial_population, evaluate_rows,
        lambda pop, rng: _de_step(f, bounds, pop, cfg, rng))
