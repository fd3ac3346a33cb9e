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
    require_finite,
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


def _distinct_donors(rng: RngStream, n: int):
    """Per target i: three donor indices, pairwise distinct and != i."""
    idx = np.arange(n)
    r1 = rng.integers(0, n - 1, size=n)
    r1 += r1 >= idx
    # Each draw skips the taken indices in ascending order.
    lo, hi = np.minimum(idx, r1), np.maximum(idx, r1)
    r2 = rng.integers(0, n - 2, size=n)
    r2 += r2 >= lo
    r2 += r2 >= hi
    r3 = rng.integers(0, n - 3, size=n)
    r3 += r3 >= np.minimum(lo, r2)
    r3 += r3 >= np.minimum(np.maximum(r2, lo), hi)     # the middle one
    r3 += r3 >= np.maximum(hi, r2)
    return r1, r2, r3


def _de_step(objective, bounds: BoundsBox, pop: Population, cfg: DeConfig,
             rng: RngStream) -> Population:
    """One DE/rand/1/bin generation: v = X_r1 + F*(X_r2 - X_r3), binomial
    crossover with a forced mutant component (j_rand), greedy selection."""
    n, d = pop.size, pop.dim
    r1, r2, r3 = _distinct_donors(rng, n)
    x = pop.positions
    trials = mutants(x, r1, r2, r3, cfg.f_weight)
    clip_to_bounds(trials, bounds)
    # The mutant's component at j_rand survives crossover.
    rows, j_rand = np.arange(n), rng.integers(0, d, size=n)
    forced = trials[rows, j_rand]
    crossover(trials, x, cfg.cr, rng)
    trials[rows, j_rand] = forced
    trial_fit = evaluate_rows(objective, trials)
    require_finite(trial_fit, pop.generation, range(n))

    positions, fitness = x.copy(), pop.fitness.copy()
    select(positions, fitness, rows, trials, trial_fit)
    return Population(positions, fitness, pop.generation + 1,
                      pop.eval_count + n)


def de_optimize(f, bounds: BoundsBox, cfg: Optional[DeConfig] = None) -> OptResult:
    """Minimize f over the box with DE/rand/1/bin.

    Same result contract as quasar.optimize: exactly g_max generations, no
    early stopping, deterministic for a given (f, bounds, cfg).
    """
    cfg = cfg or DeConfig()
    return run_generations(
        f, bounds, cfg, initial_population, evaluate_rows,
        lambda pop, rng: _de_step(f, bounds, pop, cfg, rng))
