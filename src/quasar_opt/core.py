"""Shared domain types: bounds, populations, objectives, RNG streams, results."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, runtime_checkable

import numpy as np


@dataclass(frozen=True)
class BoundsBox:
    """Per-dimension search interval [low[n], high[n]].

    Requires low[n] < high[n] for every dimension and at least one dimension.
    """

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        low = np.asarray(self.low, dtype=float)
        high = np.asarray(self.high, dtype=float)
        if low.ndim != 1 or high.ndim != 1:
            raise ValueError("bounds must be 1-D arrays")
        if low.size != high.size:
            raise ValueError(
                f"bound lengths differ: {low.size} vs {high.size}"
            )
        if low.size < 1:
            raise ValueError("bounds need at least one dimension")
        if not np.all(np.isfinite(low)) or not np.all(np.isfinite(high)):
            raise ValueError("bounds must be finite")
        if not np.all(low < high):
            bad = int(np.argmin(high - low))
            raise ValueError(
                f"low must be strictly below high in every dimension "
                f"(violated at dimension {bad}: [{low[bad]}, {high[bad]}])"
            )
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    @classmethod
    def cube(cls, low: float, high: float, dim: int) -> "BoundsBox":
        """Hypercube [low, high]^dim."""
        return cls(np.full(dim, float(low)), np.full(dim, float(high)))

    @property
    def dim(self) -> int:
        return self.low.size

    @property
    def width(self) -> np.ndarray:
        return self.high - self.low

    def contains(self, points: np.ndarray) -> bool:
        """True when every point lies inside the closed box."""
        p = np.asarray(points, dtype=float)
        return bool(np.all(p >= self.low) and np.all(p <= self.high))


def clip_to_bounds(y: np.ndarray, bounds: BoundsBox) -> np.ndarray:
    """Clamp a position (or a stack of positions) into the box, elementwise."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != bounds.dim:
        raise ValueError(
            f"dimension mismatch: position has {y.shape[-1]} components, "
            f"bounds have {bounds.dim}"
        )
    return np.minimum(np.maximum(y, bounds.low), bounds.high)


@runtime_checkable
class ObjectiveFunction(Protocol):
    """Minimization objective over a fixed-arity real vector.

    `evaluate` must be deterministic and return a finite float for any
    in-bounds input. `known_optimum` (the true minimum value, when known)
    enables error reporting; it may be None.
    """

    dim: int
    known_optimum: Optional[float]

    def evaluate(self, x: np.ndarray) -> float: ...


class FunctionObjective:
    """Adapter turning a plain callable into an ObjectiveFunction.

    `batch` optionally supplies a vectorized form taking an (n, dim) matrix
    and returning an (n,) vector. When given it becomes `evaluate_many`,
    which `evaluate_rows` uses; without it, rows go through `evaluate`.
    """

    def __init__(self, func: Callable[[np.ndarray], float], dim: int,
                 known_optimum: Optional[float] = None,
                 batch: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        self._func = func
        self.dim = int(dim)
        self.known_optimum = known_optimum
        if batch is not None:
            self.evaluate_many = batch

    def evaluate(self, x: np.ndarray) -> float:
        return float(self._func(np.asarray(x, dtype=float)))


def as_objective(f, dim: int) -> ObjectiveFunction:
    """Coerce a callable or ObjectiveFunction into the objective interface."""
    if isinstance(f, ObjectiveFunction):
        if f.dim != dim:
            raise ValueError(f"objective arity {f.dim} != bounds dimension {dim}")
        return f
    if callable(f):
        return FunctionObjective(f, dim)
    raise TypeError("objective must be callable or implement ObjectiveFunction")


def evaluate_rows(objective, X: np.ndarray) -> np.ndarray:
    """Evaluate each row of X, using the objective's batch path when it has one."""
    X = np.asarray(X, dtype=float)
    if hasattr(objective, "evaluate_many"):
        return np.asarray(objective.evaluate_many(X), dtype=float)
    return np.array([objective.evaluate(row) for row in X], dtype=float)


@dataclass(frozen=True)
class Population:
    """Positions, their fitness, and bookkeeping for one generation.

    Treated as an immutable snapshot: optimizer steps return new instances.
    fitness[i] is always the objective value of positions[i].
    """

    positions: np.ndarray   # (N, D)
    fitness: np.ndarray     # (N,)
    generation: int = 0
    eval_count: int = 0

    def __post_init__(self):
        if self.positions.ndim != 2:
            raise ValueError("positions must be an (N, D) matrix")
        if self.fitness.shape != (self.positions.shape[0],):
            raise ValueError("fitness length must match the number of positions")
        if self.generation < 0 or self.eval_count < 0:
            raise ValueError("generation and eval_count must be nonnegative")

    @property
    def size(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


def fitness_order(fitness: np.ndarray) -> np.ndarray:
    """Indices sorting fitness best first, ties by lower index (stable);
    NaN fitness is an error, as ranking NaN would corrupt selection."""
    order = fitness.argsort(kind="stable")
    if order.size and np.isnan(fitness[order[-1]]):    # NaN sorts last
        raise ValueError(
            f"cannot rank population: fitness of individual "
            f"{int(np.argmax(np.isnan(fitness)))} is NaN"
        )
    return order


def rank_population(pop: Population) -> np.ndarray:
    """0-based fitness ranks: rank 0 is the best (lowest fitness); ties and
    NaN are handled as in fitness_order."""
    order = fitness_order(np.asarray(pop.fitness, dtype=float))
    ranks = np.empty(order.size, dtype=np.int64)
    ranks[order] = np.arange(order.size)
    return ranks


def require_finite(values: np.ndarray, generation: int, indices) -> None:
    """Raise ValueError naming the generation and the individual (indices[k]
    for values[k]) of the first non-finite objective value."""
    if np.isfinite(values).all():
        return
    k = int(np.argmax(~np.isfinite(values)))
    raise ValueError(
        f"objective returned a non-finite value ({values[k]}) at "
        f"generation {generation} for individual {int(indices[k])}"
    )


def best_of(pop: Population):
    """Index, position (copy) and fitness of the best individual.

    Ties resolve to the lowest index.
    """
    if pop.size < 1:
        raise ValueError("population is empty")
    idx = int(np.argmin(pop.fitness))
    return idx, pop.positions[idx].copy(), float(pop.fitness[idx])


class RngStream:
    """Deterministic random stream with splittable sub-streams.

    Backed by numpy's Philox 4x64 counter-based generator, keyed by
    SeedSequence((seed, *key)). The same seed yields the same draw sequence
    on every platform, and sub-streams derived from (seed, index) are
    statistically independent of the parent and of each other.
    """

    def __init__(self, seed: int, _key: tuple = ()):
        self.seed = int(seed)
        self._key = tuple(int(k) for k in _key)
        ss = np.random.SeedSequence((self.seed, *self._key))
        self.generator = np.random.Generator(np.random.Philox(ss))

    def substream(self, index: int) -> "RngStream":
        """Independent stream derived from (seed, ..., index)."""
        return RngStream(self.seed, (*self._key, int(index)))

    # Thin pass-throughs for the draw types the optimizers use.
    def random(self, size=None):
        return self.generator.random(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.generator.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size)

    def permutation(self, n):
        return self.generator.permutation(n)


@dataclass(frozen=True)
class OptResult:
    """Outcome of one optimization run.

    `trace` holds the best-so-far fitness after initialization and after
    each generation (length g_max + 1), so it is non-increasing. `error`
    is best_fitness - known_optimum when the optimum is known, else the
    raw best fitness.
    """

    best_position: np.ndarray
    best_fitness: float
    error: float
    trace: np.ndarray
    runtime_seconds: float
    eval_count: int


def run_generations(objective, pop: Population, g_max: int, t0: float,
                    advance: Callable[[Population], Population]) -> OptResult:
    """Apply advance() g_max times to the initial population, tracking the
    best-so-far point and trace, and package the result; the runtime counts
    from the perf_counter reading t0."""
    _, best_pos, best_fit = best_of(pop)
    trace = np.empty(g_max + 1)
    trace[0] = best_fit
    for g in range(g_max):
        pop = advance(pop)
        gen_best = float(pop.fitness.min())
        if gen_best < best_fit:
            best_fit = gen_best
            best_pos = pop.positions[int(pop.fitness.argmin())].copy()
        trace[g + 1] = best_fit
    runtime = time.perf_counter() - t0

    known = getattr(objective, "known_optimum", None)
    error = best_fit - known if known is not None else best_fit
    return OptResult(
        best_position=best_pos,
        best_fitness=best_fit,
        error=float(error),
        trace=trace,
        runtime_seconds=runtime,
        eval_count=pop.eval_count,
    )
