"""Shared domain types (bounds, populations, objectives, run settings, RNG
streams, results) and the run and DE operators both optimizers share."""

from __future__ import annotations

import math
import numbers
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Optional

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
    """Clamp a float position (or a stack of positions) into the box,
    elementwise and in place; returns y."""
    if y.shape[-1] != bounds.dim:
        raise ValueError(
            f"dimension mismatch: position has {y.shape[-1]} components, "
            f"bounds have {bounds.dim}"
        )
    np.maximum(y, bounds.low, out=y)
    return np.minimum(y, bounds.high, out=y)


def evaluate_rows(objective, X: np.ndarray, generation: int,
                  members) -> np.ndarray:
    """The one place an objective is called, and the whole of its contract.

    Before any call, refuse an objective with none of the three forms
    (TypeError) or a `dim` attribute other than X.shape[1] (ValueError).
    Zero rows get an empty vector and no call. Otherwise call
    `evaluate_many(X)` (an (n, D) matrix to an (n,) vector) when the
    objective has it, else `evaluate(x)`, or the objective itself, once per
    row, and raise ValueError naming the generation unless that gives one
    finite value per row; members[k], the individual whose point is X[k],
    is named for a non-finite value k.

    The objective must be deterministic and return finite values for
    in-bounds input; an optional `known_optimum` attribute (the true minimum
    value) makes OptResult.error relative to it."""
    many = getattr(objective, "evaluate_many", None)
    call = getattr(objective, "evaluate", objective)
    if many is None and not callable(call):
        raise TypeError("objective must be callable or have an evaluate "
                        "or evaluate_many method")
    n, dim = X.shape
    if getattr(objective, "dim", dim) != dim:
        raise ValueError(f"objective dim {objective.dim} != bounds dim {dim}")
    if not n:
        return np.empty(0)
    if many is not None:
        values = np.asarray(many(X), dtype=float)
    else:
        values = np.array([call(row) for row in X], dtype=float)
    if values.shape != (n,):
        raise ValueError(
            f"objective returned {values.size} values (shape {values.shape}) "
            f"for {n} points at generation {generation}")
    if not np.isfinite(values).all():
        k = int(np.argmax(~np.isfinite(values)))
        raise ValueError(
            f"objective returned a non-finite value ({values[k]}) at "
            f"generation {generation} for individual {int(members[k])}")
    return values


_work = threading.local()


def work_array(slot: str, shape: tuple) -> np.ndarray:
    """A C-contiguous float scratch array of `shape` (rows, columns) for the
    named slot, owned by the calling thread; its contents are undefined.

    The slot keeps one buffer, reused across generations and runs while the
    column count stays the same and grown when more rows are asked for, so
    a generation's temporaries are not freed and faulted in again on every
    call. Threads, and so pool workers, never share a buffer. A caller must
    be done with its slot before it calls an objective, which may itself
    run an optimizer and take the same slot."""
    rows, cols = shape
    slots = vars(_work)
    buf = slots.get(slot)
    if buf is None or buf.shape[1] != cols or len(buf) < rows:
        buf = slots[slot] = np.empty(shape)
    return buf[:rows]


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


def rank_population(pop: Population):
    """(ranks, order) from one stable sort of the fitness: ranks are 0-based,
    rank 0 the best (lowest fitness), ties by lower index, and order lists
    the members best first, so ranks[order] is 0..n-1. NaN fitness is an
    error, as ranking NaN would corrupt selection."""
    order = pop.fitness.argsort(kind="stable")
    if order.size and np.isnan(pop.fitness[order[-1]]):    # NaN sorts last
        raise ValueError(
            f"cannot rank population: fitness of individual "
            f"{int(np.argmax(np.isnan(pop.fitness)))} is NaN"
        )
    ranks = np.empty(order.size, dtype=np.int64)
    ranks[order] = np.arange(order.size)
    return ranks, order


def require_int(name: str, value, low: Optional[int] = None) -> None:
    """Raise ValueError naming the field unless value is an integer (any
    numbers.Integral but bool) of at least low, when low is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def require_real(name: str, value, positive: bool = True) -> None:
    """Raise ValueError naming the field unless value is a finite real
    number (not a bool), and above 0 when positive."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or (positive and value <= 0)):
        kind = "finite positive" if positive else "finite"
        raise ValueError(f"{name} must be a {kind} number, got {value!r}")


class InitMethod(Enum):
    SOBOL = "sobol"
    LATIN_HYPERCUBE = "lhs"
    UNIFORM_RANDOM = "uniform"


@dataclass(kw_only=True)
class RunConfig:
    """The run settings both optimizers share, keyword-only.

    pop_size of None resolves to 10 * D at run time; otherwise it must be an
    integer of at least MIN_POP. g_max and seed are nonnegative integers and
    init_method an InitMethod. A bad value raises ValueError naming the
    field."""

    MIN_POP: ClassVar[int] = 1

    pop_size: Optional[int] = None
    g_max: int = 100
    seed: int = 0
    init_method: InitMethod = InitMethod.SOBOL

    def __post_init__(self):
        if self.pop_size is not None:
            require_int("pop_size", self.pop_size, self.MIN_POP)
        require_int("g_max", self.g_max, 0)
        require_int("seed", self.seed, 0)
        if not isinstance(self.init_method, InitMethod):
            raise ValueError(
                f"init_method must be an InitMethod, got {self.init_method!r}")

    def resolved_pop_size(self, dim: int) -> int:
        return 10 * dim if self.pop_size is None else self.pop_size


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


def mutants(x: np.ndarray, p, q, r, f) -> np.ndarray:
    """Differential mutants x[p] + f * (x[q] - x[r]) as a fresh array (an
    objective gets it); f is a scalar or a column of per-row factors. Built
    in the gathered x[q] rows, as + and * commute bit for bit; the other
    operands go through the `rows` work array. take() is ~4x faster than
    x[idx]; mode="clip" writes `out` directly, as every index is in range."""
    v = x.take(q, axis=0)
    donor = work_array("rows", v.shape)
    v -= x.take(r, axis=0, out=donor, mode="clip")
    v *= f
    v += x.take(p, axis=0, out=donor, mode="clip")
    return v


def crossover(trials: np.ndarray, targets, cr, u: np.ndarray,
              forced=(slice(0), slice(0))) -> None:
    """Binomial crossover in place: trials keeps its component where the
    uniform u of its cell is <= cr and at the (rows, columns) cells forced
    indexes (DE's j_rand), and takes the target's elsewhere; cr is a scalar
    or a column of per-row rates and u has trials' shape. u is only read."""
    keep = np.greater(u, cr)
    keep[forced] = False
    np.copyto(trials, targets, where=keep)


def select(positions: np.ndarray, fitness: np.ndarray, idx: np.ndarray,
           trials: np.ndarray, trial_fit: np.ndarray) -> np.ndarray:
    """Greedy one-to-one selection in place: member idx[k] takes trial k
    only when trial_fit[k] is strictly lower (a tie keeps the incumbent).
    Returns the accept mask; trials is only read."""
    accept = trial_fit < fitness[idx]
    winners = idx[accept]
    positions[winners] = trials.take(accept.nonzero()[0], axis=0)
    fitness[winners] = trial_fit[accept]
    return accept


def run_generations(objective, bounds: BoundsBox, cfg: RunConfig,
                    initial_population, evaluate, advance) -> OptResult:
    """The run both optimizers share: draw the initial population with
    initial_population(method, n, bounds, rng), start the clock, evaluate
    the population with evaluate(objective, X, 0, range(n)), which refuses
    a bad objective before its first call, then apply advance(pop, rng)
    cfg.g_max times, tracking the best-so-far point (a copy; ties go to the
    lowest index) and trace. The clock leaves out the draw, and with it any
    table the initializer builds once per process.
    Only the generation-0 population holds the initial rows, so they are
    freed once generation 1 replaces it."""
    n = cfg.resolved_pop_size(bounds.dim)
    rng = RngStream(cfg.seed)
    positions = initial_population(cfg.init_method, n, bounds, rng)

    t0 = time.perf_counter()
    fitness = evaluate(objective, positions, 0, range(n))
    pop = Population(positions, fitness, generation=0, eval_count=n)
    del positions
    best_fit = math.inf
    trace = np.empty(cfg.g_max + 1)
    for g in range(cfg.g_max + 1):
        if g:
            pop = advance(pop, rng)
        i = int(pop.fitness.argmin())
        if pop.fitness[i] < best_fit:
            best_fit, best_pos = float(pop.fitness[i]), pop.positions[i].copy()
        trace[g] = best_fit
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
