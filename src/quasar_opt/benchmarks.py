"""Shifted/rotated benchmark objectives for optimizer comparisons.

Ten classical base functions (unimodal, ill-conditioned and multimodal),
each wrapped as f(x) = base(M @ (x - o)) with a seeded random shift o and a
Haar-random orthogonal rotation M. Every base has minimum value 0 at its
canonical optimum, so the wrapped optimum value is 0 as well and final
errors are directly comparable across functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import BoundsBox, RngStream, work_array

# Peak location and value of t*sin(sqrt(t)) on [0, 500]; frozen at 30-digit
# precision so the schwefel-style base is exactly zero at its optimum.
_SCHWEFEL_X = 420.968746359982027
_SCHWEFEL_C = 418.982887272433706
# Bytes of z per block of rows that a base function sees at once: its few
# block-sized temporaries stay in cache, and below the 128 KB at which glibc
# maps a fresh block for each allocation by default.
_BLOCK_BYTES = 1 << 16


def sphere(z):
    return np.sum(z * z, axis=-1)


def bent_cigar(z):
    return z[..., 0] ** 2 + 1e6 * np.sum(z[..., 1:] ** 2, axis=-1)


def discus(z):
    return 1e6 * z[..., 0] ** 2 + np.sum(z[..., 1:] ** 2, axis=-1)


def rosenbrock(z):
    a, b = z[..., :-1], z[..., 1:]
    return np.sum(100.0 * (b - a ** 2) ** 2 + (1.0 - a) ** 2, axis=-1)


def _cos_2pi(z):
    """cos(2*pi*z) in one new array: the cosine overwrites the product, and
    z itself is never written."""
    c = 2.0 * np.pi * z
    return np.cos(c, out=c)


def rastrigin(z):
    c = _cos_2pi(z)
    c *= 10.0
    t = z * z
    t -= c
    t += 10.0
    return np.sum(t, axis=-1)


def ackley(z):
    d = z.shape[-1]
    s1 = np.sqrt(np.sum(z * z, axis=-1) / d)
    s2 = np.sum(_cos_2pi(z), axis=-1) / d
    return -20.0 * np.exp(-0.2 * s1) - np.exp(s2) + 20.0 + np.e


def griewank(z):
    d = z.shape[-1]
    denom = np.sqrt(np.arange(1, d + 1, dtype=float))
    return (np.sum(z * z, axis=-1) / 4000.0
            - np.prod(np.cos(z / denom), axis=-1) + 1.0)


def levy(z):
    w = 1.0 + (z - 1.0) / 4.0
    head = np.sin(np.pi * w[..., 0]) ** 2
    mid = np.sum((w[..., :-1] - 1.0) ** 2
                 * (1.0 + 10.0 * np.sin(np.pi * w[..., :-1] + 1.0) ** 2),
                 axis=-1)
    tail = (w[..., -1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * w[..., -1]) ** 2)
    return head + mid + tail


def zakharov(z):
    d = z.shape[-1]
    s = np.sum(0.5 * np.arange(1, d + 1) * z, axis=-1)
    return np.sum(z * z, axis=-1) + s ** 2 + s ** 4


def schwefel226(z):
    """Schwefel-2.26-style multimodal base, bounded-safe.

    The argument is shifted so the optimum sits at the origin; beyond the
    canonical |t| <= 500 range the profile is clamped and a quadratic excess
    penalty keeps the function coercive, so rotation cannot expose deeper
    minima outside the box.
    """
    t = z + _SCHWEFEL_X
    tc = np.clip(t, -500.0, 500.0)
    core = _SCHWEFEL_C * z.shape[-1] - np.sum(
        tc * np.sin(np.sqrt(np.abs(tc))), axis=-1
    )
    excess = np.maximum(np.abs(t) - 500.0, 0.0)
    return core + 1e-2 * np.sum(excess * excess, axis=-1)


# name -> (base callable, canonical optimum coordinate per dimension)
BASE_FUNCTIONS = {
    "sphere": (sphere, 0.0),
    "bent_cigar": (bent_cigar, 0.0),
    "discus": (discus, 0.0),
    "rosenbrock": (rosenbrock, 1.0),
    "rastrigin": (rastrigin, 0.0),
    "ackley": (ackley, 0.0),
    "griewank": (griewank, 0.0),
    "levy": (levy, 1.0),
    "zakharov": (zakharov, 0.0),
    "schwefel226": (schwefel226, 0.0),
}


@dataclass(frozen=True)
class TestFunction:
    """A shifted/rotated benchmark objective.

    Evaluates base(M @ (x - o)), where base is the BASE_FUNCTIONS entry
    named ``name``; the global minimum value is ``known_optimum`` (always 0
    here) attained at ``x_opt = o + M.T @ z*`` where z* is the base optimum.
    """

    name: str
    dim: int
    bounds: BoundsBox
    shift: np.ndarray           # o, (D,)
    rotation: np.ndarray        # M, (D, D) orthogonal
    x_opt: np.ndarray
    known_optimum: float = 0.0
    seed: Optional[int] = None

    def evaluate(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"{self.name} expects a length-{self.dim} vector, "
                f"got shape {x.shape}"
            )
        return float(self.evaluate_many(x[None])[0])

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(
                f"{self.name} expects an (n, {self.dim}) matrix, "
                f"got shape {X.shape}"
            )
        base = BASE_FUNCTIONS[self.name][0]
        # One full-size GEMM into work arrays: row-blocking the matmul would
        # change its bits. The bases are row-local (elementwise work and
        # last-axis sums), so running them over row blocks of z keeps every
        # bit while their temporaries stay small and reused.
        shifted = np.subtract(X, self.shift,
                              out=work_array("suite.shifted", X.shape))
        z = np.matmul(shifted, self.rotation.T,
                      out=work_array("suite.z", X.shape))
        rows = max(1, _BLOCK_BYTES // z.strides[0])
        out = np.empty(len(z))
        for i in range(0, len(z), rows):
            out[i:i + rows] = base(z[i:i + rows])
        return out


def random_rotation(dim: int, rng: RngStream) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with sign correction."""
    a = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def make_function(base: str, dim: int, rng: RngStream,
                  seed: Optional[int] = None) -> TestFunction:
    """Wrap one base function with a random shift and rotation.

    The box is [-100, 100]^dim. The shift is drawn uniformly from its
    central 80% so the optimum never touches a bound; the base-optimum
    offset (at most sqrt(D) for the bases anchored at 1) stays comfortably
    inside the remaining margin.
    """
    if base not in BASE_FUNCTIONS:
        raise ValueError(f"unknown base function: {base!r}")
    bounds = BoundsBox.cube(-100.0, 100.0, dim)
    margin = 0.1 * bounds.width
    shift = rng.uniform(bounds.low + margin, bounds.high - margin)
    rotation = random_rotation(dim, rng)
    z_opt = np.full(dim, BASE_FUNCTIONS[base][1])
    x_opt = shift + rotation.T @ z_opt
    return TestFunction(
        name=base,
        dim=dim,
        bounds=bounds,
        shift=shift,
        rotation=rotation,
        x_opt=x_opt,
        seed=seed,
    )


def make_suite(dim: int, seed: int) -> list:
    """The full 10-function suite at the given dimension, seeded.

    The same (dim, seed) pair always produces identical shifts and
    rotations.
    """
    if dim < 2:
        raise ValueError("suite functions need dimension >= 2")
    rng = RngStream(seed)
    return [
        make_function(name, dim, rng.substream(k), seed=seed)
        for k, name in enumerate(BASE_FUNCTIONS)
    ]


def suite_manifest(suite) -> str:
    """JSON manifest (name, dim, seed, optimum value) for auditable runs."""
    entries = [
        {
            "name": fn.name,
            "dim": fn.dim,
            "seed": fn.seed,
            "optimum_value": fn.known_optimum,
        }
        for fn in suite
    ]
    return json.dumps(entries, indent=2)
