"""Initial-population generators: Sobol (default), Latin hypercube, uniform."""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from .core import BoundsBox, InitMethod, RngStream

# Rows of the Joe-Kuo direction-number table (Joe & Kuo, SIAM J. Sci.
# Comput. 2008) in _joe_kuo.npy, a C-ordered uint32 copy of the table scipy
# 1.17.1 ships as stats/_sobol_direction_numbers.npz (see
# _joe_kuo.NOTICE.txt).
SOBOL_MAX_DIM = 21201
# Direction numbers are 30-bit, as in scipy's default qmc.Sobol engine.
_BITS = 30


def sobol_sample(n: int, bounds: BoundsBox, rng: Optional[RngStream] = None,
                 scramble: bool = False) -> np.ndarray:
    """First n Sobol points after the all-zeros point, scaled into the box.

    Points are emitted in Gray-code order starting at sequence index 1, so
    no row sits exactly on the lower corner; with ``scramble=False`` the
    output is independent of any seed. ``scramble=True`` applies a digital
    XOR shift drawn from ``rng`` (one 53-bit mask per dimension), which
    preserves the dyadic stratification structure.

    Coordinates lie in [low, high): the low edge is attainable, the high
    edge is not. The points equal scipy's ``qmc.Sobol(d, scramble=False)``
    after ``fast_forward(1)`` bit for bit.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if n > 2**_BITS - 1:
        raise ValueError(f"at most 2**{_BITS} - 1 Sobol points; got {n}")
    d = bounds.dim
    if d > SOBOL_MAX_DIM:
        raise ValueError(
            f"Sobol direction numbers cover at most {SOBOL_MAX_DIM} "
            f"dimensions; got {d}"
        )
    # Gray-code order: point k is point k-1 XOR the direction numbers of
    # bit trailing_ones(k), i.e. log2 of the lowest set bit of k+1.
    k1 = np.arange(1, n + 1)
    bits = _direction_numbers(d).take(np.frexp(k1 & -k1)[1] - 1, axis=0)
    np.bitwise_xor.accumulate(bits, axis=0, out=bits)
    unit = bits * 2.0**-_BITS
    if scramble:
        if rng is None:
            raise ValueError("scrambling requires an rng")
        unit = _digital_shift(unit, rng)
    unit *= bounds.width
    unit += bounds.low
    return unit


def _joe_kuo(d: int = SOBOL_MAX_DIM):
    """(poly, vinit) of the first d dimensions of the Joe-Kuo table as
    read-only uint32 arrays: columns 0 and 1-18 of _joe_kuo.npy, memory-mapped
    so only the first d rows are read (~0.3 ms at any d on a 2-core x86-64
    host)."""
    rows = np.load(Path(__file__).with_name("_joe_kuo.npy"), mmap_mode="r")[:d]
    return rows[:, 0], rows[:, 1:]


@lru_cache(maxsize=32)
def _direction_numbers(d: int) -> np.ndarray:
    """(_BITS, d) read-only direction numbers, row j scaled by 2**(_BITS-1-j).

    Dimension 0 is all ones; dimension i takes its first deg(poly[i]) from
    vinit and the rest from the Bratley-Fox recurrence (ACM TOMS 1988), run
    for all dimensions at once."""
    poly, vinit = _joe_kuo(d)
    deg = np.frexp(poly)[1] - 1
    k = np.arange(vinit.shape[1])[:, None]
    # taps[k] = 2**(k+1) where poly's coefficient k+1 (from the top) is set.
    taps = ((k < deg) & (poly >> np.maximum(deg - 1 - k, 0)) & 1) << (k + 1)
    v = np.zeros((_BITS, d), dtype=np.int64)
    v[:vinit.shape[1]] = vinit.T
    v[:, 0] = 1
    dims = np.arange(d)
    for j in range(1, _BITS):
        new = v[np.maximum(j - deg, 0), dims]
        for i in range(min(j, len(taps))):
            new ^= v[j - 1 - i] * taps[i]
        v[j] = np.where(j >= deg, new, v[j])
    table = (v << (_BITS - 1 - np.arange(_BITS))[:, None]).astype(np.uint32)
    table.flags.writeable = False
    return table


def _digital_shift(unit: np.ndarray, rng: RngStream) -> np.ndarray:
    """XOR every coordinate's 53-bit expansion with a per-dimension mask."""
    masks = rng.integers(0, 1 << 53, size=unit.shape[1]).astype(np.uint64)
    bits = (unit * float(1 << 53)).astype(np.uint64)
    return (bits ^ masks) / float(1 << 53)


def lhs_sample(n: int, bounds: BoundsBox, rng: RngStream) -> np.ndarray:
    """Latin hypercube: per dimension, one uniform point in each of n strata.

    Strata are permuted independently per dimension.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    d = bounds.dim
    unit = np.empty((n, d))
    for j in range(d):
        unit[:, j] = (rng.permutation(n) + rng.random(n)) / n
    return bounds.low + unit * bounds.width


def uniform_sample(n: int, bounds: BoundsBox, rng: RngStream) -> np.ndarray:
    """i.i.d. uniform points inside the box."""
    if n < 1:
        raise ValueError("need at least one sample")
    unit = rng.random((n, bounds.dim))
    return bounds.low + unit * bounds.width


def initial_population(method: InitMethod, n: int, bounds: BoundsBox,
                       rng: RngStream) -> np.ndarray:
    """Dispatch to the chosen generator. Sobol ignores rng (scramble off)."""
    if method is InitMethod.SOBOL:
        return sobol_sample(n, bounds)
    if method is InitMethod.LATIN_HYPERCUBE:
        return lhs_sample(n, bounds, rng)
    if method is InitMethod.UNIFORM_RANDOM:
        return uniform_sample(n, bounds, rng)
    raise ValueError(f"unknown init method: {method!r}")
