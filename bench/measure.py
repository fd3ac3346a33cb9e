"""Pure helpers of the benchmark: percentiles, result digests, geometric-mean
errors and the machine record. Nothing here imports the package under test,
so these helpers are testable without it."""

from __future__ import annotations

import hashlib
import math
import os
import platform
from dataclasses import dataclass
from typing import Iterable, List, Sequence

# The fields that identify a trial and its outcome. Runtime is left out: it
# differs on every run, while everything here must repeat bit for bit.
DIGEST_FIELDS = ("algo", "function", "dim", "pop", "trial", "seed",
                 "final_error", "evals")


@dataclass(frozen=True)
class Outcome:
    """One trial as the benchmark sees it, read from records.csv or from the
    result of a direct optimizer call."""

    algo: str
    function: str
    dim: int
    pop: int
    gmax: int
    trial: int
    seed: int
    final_error: float
    evals: int
    runtime_sec: float

    @property
    def failed(self) -> bool:
        return not math.isfinite(self.final_error)


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100) by linear interpolation between
    closest ranks, the rule numpy uses by default."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def digest(outcomes: Iterable[Outcome]) -> str:
    """SHA-256 over the identifying fields and results of the trials, in the
    order given. Floats enter as repr, which round-trips exactly."""
    h = hashlib.sha256()
    for o in outcomes:
        row = (o.algo, o.function, o.dim, o.pop, o.trial, o.seed,
               repr(float(o.final_error)), o.evals)
        h.update((",".join(str(v) for v in row) + "\n").encode("ascii"))
    return h.hexdigest()


def trial_seed(master_seed: int, *coords) -> int:
    """Stable 64-bit seed from the master seed and a trial's coordinates."""
    key = "|".join(str(v) for v in (master_seed, *coords))
    return int.from_bytes(hashlib.sha256(key.encode("ascii")).digest()[:8],
                          "big")


def gm_error(errors: Iterable[float], floor: float) -> float:
    """Geometric mean of the finite errors, each floored at `floor`."""
    logs = [math.log(max(e, floor)) for e in errors if math.isfinite(e)]
    if not logs:
        raise ValueError("no finite errors")
    return math.exp(sum(logs) / len(logs))


def eval_errors(outcomes: Iterable[Outcome]) -> List[str]:
    """One message per trial whose evaluation count is not N*(g_max+1)."""
    return [
        f"{o.algo}/{o.function}/D{o.dim}/N{o.pop}/t{o.trial}: "
        f"evals {o.evals} != {o.pop * (o.gmax + 1)}"
        for o in outcomes
        if not o.failed and o.evals != o.pop * (o.gmax + 1)
    ]


def machine_record(thread_vars: Sequence[str]) -> dict:
    """Core count, pinned thread settings and library versions."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in thread_vars},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
