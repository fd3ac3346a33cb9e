"""Classic DE/rand/1/bin baseline with fixed F and CR."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .core import (
    BoundsBox,
    OptResult,
    Population,
    RngStream,
    RunConfig,
    check_objective,
    clip_to_bounds,
    evaluate_rows,
    require_finite,
    require_real,
    run_generations,
    work_array,
)
from .sampling import initial_population, prepare_init


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
    # take() is the fast row gather; x[idx] costs ~4x more here. The mutants
    # are built in place in a fresh array, which becomes the next
    # population; + and * commute bit for bit in IEEE arithmetic. The other
    # operands go through work arrays (mode="clip" writes them directly:
    # every index is in range).
    trials = x.take(r2, axis=0)
    donor = work_array("rows", (n, d))
    trials -= x.take(r3, axis=0, out=donor, mode="clip")
    trials *= cfg.f_weight
    trials += x.take(r1, axis=0, out=donor, mode="clip")
    clip_to_bounds(trials, bounds)
    j_rand = rng.integers(0, d, size=n)
    # Keep the target's component where rand > CR, except at j_rand.
    keep = np.greater(rng.random(out=work_array("uniform", (n, d))),
                      cfg.cr, out=work_array("keep", (n, d), bool))
    keep[np.arange(n), j_rand] = False
    np.copyto(trials, x, where=keep)
    trial_fit = evaluate_rows(objective, trials)
    require_finite(trial_fit, pop.generation, range(n))

    accept = trial_fit < pop.fitness
    fitness = np.where(accept, trial_fit, pop.fitness)
    np.copyto(trials, x, where=~accept[:, None])    # losers keep the target
    return Population(trials, fitness, pop.generation + 1,
                      pop.eval_count + n)


def de_optimize(f, bounds: BoundsBox, cfg: Optional[DeConfig] = None) -> OptResult:
    """Minimize f over the box with DE/rand/1/bin.

    Same result contract as quasar.optimize: exactly g_max generations, no
    early stopping, deterministic for a given (f, bounds, cfg).
    """
    cfg = cfg or DeConfig()
    check_objective(f, bounds.dim)
    n = cfg.resolved_pop_size(bounds.dim)
    rng = RngStream(cfg.seed)
    prepare_init(cfg.init_method, bounds.dim)

    t0 = time.perf_counter()
    positions = initial_population(cfg.init_method, n, bounds, rng)
    return run_generations(f, positions, evaluate_rows(f, positions),
                           cfg.g_max, t0,
                           lambda p: _de_step(f, bounds, p, cfg, rng))
