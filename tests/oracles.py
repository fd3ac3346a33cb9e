"""Scalar reference versions of QUASAR's per-individual operators.

The package runs only the vectorized kernels in ``quasar_opt.quasar``; the
tests compare those kernels against these one-individual forms.
"""

import numpy as np

from quasar_opt import BoundsBox, Population, RngStream
from quasar_opt.core import clip_to_bounds
from quasar_opt.quasar import MutationStrategy


def mutate(i: int, strategy: MutationStrategy, pop: Population, best_idx: int,
           bounds: BoundsBox, f_factor: float, rand_index: int) -> np.ndarray:
    """Mutant vector for individual i under the given strategy, clipped.

    SPOOKY_BEST:    X_best + F_local  * (X_i    - X_rand)
    SPOOKY_CURRENT: X_i    + F_global * (X_best - X_rand)
    SPOOKY_RANDOM:  X_rand + F_global * (X_i    - X_rand)   (one shared X_rand)

    The factor F and the donor index rand_index (never i) are given, as the
    vectorized step draws them.
    """
    n = pop.size
    if n < 3:
        raise ValueError("mutation needs a population of at least 3")
    if not 0 <= i < n:
        raise ValueError(f"individual index {i} out of range")
    xi = pop.positions[i]
    xb = pop.positions[best_idx]
    xr = pop.positions[rand_index]
    if strategy is MutationStrategy.SPOOKY_BEST:
        v = xb + f_factor * (xi - xr)
    elif strategy is MutationStrategy.SPOOKY_CURRENT:
        v = xi + f_factor * (xb - xr)
    elif strategy is MutationStrategy.SPOOKY_RANDOM:
        v = xr + f_factor * (xi - xr)
    else:
        raise ValueError(f"unknown strategy: {strategy!r}")
    return clip_to_bounds(v, bounds)


def binomial_crossover(x: np.ndarray, v: np.ndarray, cr: float,
                       rng: RngStream) -> np.ndarray:
    """Component-wise mix: take v[n] where rand(0,1) <= cr, else x[n]."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {v.shape}")
    return np.where(rng.random(x.shape) <= cr, v, x)


def greedy_select(x: np.ndarray, fx: float, u: np.ndarray, fu: float):
    """Keep the trial only on strict improvement; ties keep the incumbent."""
    if fu < fx:
        return u, fu
    return x, fx
