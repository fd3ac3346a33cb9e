"""quasar_opt: the QUASAR evolutionary optimizer, a DE baseline, a
shifted/rotated benchmark suite, comparison statistics and an experiment
harness. NumPy is the only library loaded at run time; scipy is read from
disk only for its Joe-Kuo Sobol direction-number file.

The names below are the public API, as listed in the README's "Public API"
section. Everything else in the submodules is internal and may change."""

from .core import BoundsBox, OptResult, Population, RngStream
from .sampling import InitMethod, lhs_sample, sobol_sample, uniform_sample
from .quasar import (
    QuasarConfig,
    StepInfo,
    compute_elite_stats,
    optimize,
    reinit_probability,
    sample_reinit_positions,
    step,
)
from .de import DeConfig, de_optimize
from .benchmarks import make_suite, suite_manifest
from .stats import gmerf, gmerf_ci, gmerf_overall
from .harness import ExperimentPlan, emit_summary, run_plan

__version__ = "0.1.0"

__all__ = [
    "BoundsBox", "OptResult", "Population", "RngStream",
    "InitMethod", "lhs_sample", "sobol_sample", "uniform_sample",
    "QuasarConfig", "StepInfo", "compute_elite_stats", "optimize",
    "reinit_probability", "sample_reinit_positions", "step",
    "DeConfig", "de_optimize",
    "make_suite", "suite_manifest",
    "gmerf", "gmerf_ci", "gmerf_overall",
    "ExperimentPlan", "emit_summary", "run_plan",
    "__version__",
]
