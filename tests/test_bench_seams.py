"""The seams the benchmark traces still see every call it counts.

bench/layers.py wraps names where their callers look them up (for example
`quasar.evaluate_rows`). A refactor that moves a call behind another name
keeps results and tier-1 green, yet the traced bench then undercounts. These
tests install the bench's own targets and check the counts against the run.
"""

import sys
import types
from pathlib import Path

import pytest

import quasar_opt.benchmarks
import quasar_opt.cli
import quasar_opt.core
import quasar_opt.de
import quasar_opt.harness
import quasar_opt.quasar
import quasar_opt.sampling
from quasar_opt import (BoundsBox, DeConfig, InitMethod, QuasarConfig,
                        de_optimize, optimize)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402
from tracing import Tracer, calls, counter  # noqa: E402

PKG = types.SimpleNamespace(
    core=quasar_opt.core, sampling=quasar_opt.sampling,
    benchmarks=quasar_opt.benchmarks, quasar=quasar_opt.quasar,
    de=quasar_opt.de, harness=quasar_opt.harness, cli=quasar_opt.cli)
BOX = BoundsBox.cube(-2.0, 3.0, 4)
G_MAX = 4


def sphere(x):
    return float(x @ x)


def traced(run, cfg):
    """Run under the bench's spans (looked up at call time, as the bench
    does) and return the result with the spans it recorded."""
    tracer = Tracer()
    with tracer.installed(layers.targets(PKG)):
        result = getattr(PKG.quasar if run == "optimize" else PKG.de, run)(
            sphere, BOX, cfg)
    return result, tracer.take()


@pytest.mark.parametrize("method", list(InitMethod))
def test_quasar_seams(method):
    result, stats = traced("optimize", QuasarConfig(
        pop_size=9, g_max=G_MAX, seed=3, init_method=method))
    assert counter(stats, "benchmarks.eval", "rows") == result.eval_count
    assert calls(stats, "quasar.step") == G_MAX
    assert calls(stats, "core.rank") == G_MAX
    assert counter(stats, "quasar.step", "members") == 9 * G_MAX
    assert calls(stats, "sampling.init") == 1
    assert calls(stats, "quasar.optimize") == 1
    assert calls(stats, "core.clip") >= G_MAX


@pytest.mark.parametrize("method", list(InitMethod))
def test_de_seams(method):
    result, stats = traced("de_optimize", DeConfig(
        pop_size=9, g_max=G_MAX, seed=3, init_method=method))
    assert counter(stats, "benchmarks.eval", "rows") == result.eval_count
    assert calls(stats, "benchmarks.eval") == G_MAX + 1
    assert calls(stats, "quasar.step") == 0
    assert calls(stats, "core.rank") == 0
    assert calls(stats, "sampling.init") == 1
    assert calls(stats, "de.optimize") == 1
    assert calls(stats, "core.clip") == G_MAX
