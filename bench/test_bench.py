"""Tests of the benchmark's own arithmetic: percentiles, digests, the tracer's
wrapping and self time, and the agreement of BENCHMARK.json with design.json.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import measure  # noqa: E402
from measure import Outcome  # noqa: E402
from tracing import Tracer, calls, self_ms, total_ms  # noqa: E402


def outcome(**kw):
    base = dict(algo="quasar", function="sphere", dim=10, pop=100, gmax=100,
                trial=0, seed=7, final_error=0.5, evals=10100,
                runtime_sec=0.05)
    base.update(kw)
    return Outcome(**base)


# --- percentile rule -------------------------------------------------------

def test_percentile_interpolates_between_closest_ranks():
    assert measure.percentile([1, 2, 3, 4], 50) == 2.5
    assert measure.percentile(list(range(1, 11)), 90) == pytest.approx(9.1)
    assert measure.percentile([4, 1, 3, 2], 0) == 1
    assert measure.percentile([4, 1, 3, 2], 100) == 4
    assert measure.percentile([7.0], 90) == 7.0


def test_percentile_matches_numpy_default():
    np = pytest.importorskip("numpy")
    values = [0.3, 5.0, 1.25, 9.5, 2.0, 2.0, 7.75, 0.1, 4.4]
    for q in (10, 25, 50, 75, 90, 99):
        assert measure.percentile(values, q) == pytest.approx(
            float(np.percentile(values, q)))


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 101)


# --- digest ----------------------------------------------------------------

def test_digest_ignores_runtime_only():
    a = [outcome(), outcome(algo="de", runtime_sec=0.02)]
    b = [outcome(runtime_sec=9.0), outcome(algo="de", runtime_sec=1.0)]
    assert measure.digest(a) == measure.digest(b)


def test_digest_sees_last_bit_and_order():
    x = 18420.65752443221
    y = math.nextafter(x, math.inf)
    assert measure.digest([outcome(final_error=x)]) != \
        measure.digest([outcome(final_error=y)])
    a, b = outcome(trial=0), outcome(trial=1)
    assert measure.digest([a, b]) != measure.digest([b, a])
    assert measure.digest([outcome(evals=1)]) != measure.digest([outcome()])


def test_gm_error_floors_and_skips_failures():
    assert measure.gm_error([1e-20, 1.0], 1e-12) == pytest.approx(1e-6)
    assert measure.gm_error([4.0, float("nan"), 16.0], 1e-12) == \
        pytest.approx(8.0)
    with pytest.raises(ValueError):
        measure.gm_error([float("nan")], 1e-12)


def test_eval_errors_flags_wrong_counts_but_not_failed_rows():
    good = outcome(pop=100, gmax=100, evals=10100)
    bad = outcome(pop=100, gmax=100, evals=10000)
    failed = outcome(final_error=float("nan"), evals=0)
    assert measure.eval_errors([good, failed]) == []
    assert len(measure.eval_errors([bad])) == 1


def test_trial_seed_is_stable_and_distinct():
    assert measure.trial_seed(3, "quasar", "ackley") == \
        measure.trial_seed(3, "quasar", "ackley")
    assert measure.trial_seed(3, "quasar", "ackley") != \
        measure.trial_seed(4, "quasar", "ackley")
    assert 0 <= measure.trial_seed(0, "de") < 2 ** 64


# --- tracer ----------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def fake_layers(clock):
    """outer() spends 1 s itself and calls inner() twice; inner spends 2 s
    itself and calls leaf(), which spends 3 s."""
    mod = types.ModuleType("fake")

    def leaf():
        clock.now += 3.0
        return "leaf"

    def inner():
        clock.now += 2.0
        return mod.leaf()

    def outer():
        clock.now += 1.0
        return [mod.inner(), mod.inner()]

    mod.leaf, mod.inner, mod.outer = leaf, inner, outer
    return mod


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    mod = fake_layers(clock)
    tracer = Tracer(clock)
    targets = [(mod, "outer", "outer", None), (mod, "inner", "inner", None),
               (mod, "leaf", "leaf", None)]
    with tracer.installed(targets):
        assert mod.outer() == ["leaf", "leaf"]
    stats = tracer.take()
    assert calls(stats, "outer") == 1
    assert calls(stats, "inner") == 2
    assert total_ms(stats, "outer") == pytest.approx(11000.0)
    assert self_ms(stats, "outer") == pytest.approx(1000.0)
    assert total_ms(stats, "inner") == pytest.approx(10000.0)
    assert self_ms(stats, "inner") == pytest.approx(4000.0)
    assert self_ms(stats, "leaf") == pytest.approx(6000.0)
    # Self times of all spans add up to the outermost span's duration.
    assert sum(self_ms(stats, s) for s in ("outer", "inner", "leaf")) == \
        pytest.approx(total_ms(stats, "outer"))


def test_unwrapped_middle_layer_counts_as_parent_self_time():
    clock = FakeClock()
    mod = fake_layers(clock)
    tracer = Tracer(clock)
    with tracer.installed([(mod, "outer", "outer", None),
                           (mod, "leaf", "leaf", None)]):
        mod.outer()
    stats = tracer.take()
    assert self_ms(stats, "outer") == pytest.approx(5000.0)
    assert total_ms(stats, "leaf") == pytest.approx(6000.0)


def test_installed_restores_originals_even_on_error():
    mod = types.ModuleType("fake")

    def boom():
        raise KeyError("x")

    mod.boom = boom
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.installed([(mod, "boom", "boom", None)]):
            mod.boom()
    assert mod.boom is boom
    assert tracer._open == []


def test_missing_target_fails_loudly_and_restores():
    mod = types.ModuleType("fake")
    mod.present = lambda: 1
    original = mod.present
    with pytest.raises(LookupError, match="fake.absent"):
        with Tracer().installed([(mod, "present", "p", None),
                                 (mod, "absent", "a", None)]):
            pass
    assert mod.present is original


def test_class_methods_are_wrapped_where_defined():
    class Base:
        def inherited(self):
            return 1

    class Stream(Base):
        def draw(self, k):
            return k * 2

    tracer = Tracer()
    with tracer.installed([(Stream, "draw", "rng", None)]):
        assert Stream().draw(4) == 8
    assert calls(tracer.take(), "rng") == 1
    assert "draw" in vars(Stream)
    with pytest.raises(LookupError):
        with tracer.installed([(Stream, "inherited", "x", None)]):
            pass


def test_counters_sum_and_first_call_survives_take():
    clock = FakeClock()
    mod = types.ModuleType("fake")

    def rows(n):
        clock.now += n
        return list(range(n))

    mod.rows = rows
    tracer = Tracer(clock)
    count = (lambda args, out: {"rows": len(out)})
    with tracer.installed([(mod, "rows", "eval", count)]):
        mod.rows(3)
        mod.rows(5)
    stats = tracer.take()
    assert stats["eval"].counters == {"rows": 8}
    assert stats["eval"].durations == [3.0, 5.0]
    assert tracer.first["eval"] == 3.0
    assert tracer.take() == {}
    assert tracer.first["eval"] == 3.0


def test_runtime_ratio_is_mean_quasar_over_mean_de():
    rows = [outcome(runtime_sec=0.3), outcome(runtime_sec=0.1),
            outcome(algo="de", runtime_sec=0.1),
            outcome(algo="de", final_error=float("nan"), runtime_sec=9.0)]
    assert layers.runtime_ratio(rows) == pytest.approx(2.0)


def test_every_layer_target_exists_in_the_package():
    src = HERE.parent / "src"
    sys.path.insert(0, str(src))
    import importlib
    import run
    pkg = types.SimpleNamespace(**{
        m: importlib.import_module(f"quasar_opt.{m}") for m in run.MODULES})
    spans = layers.targets(pkg)
    originals = [getattr(owner, attr) for owner, attr, _, _ in spans]
    with Tracer().installed(spans):
        pass
    assert [getattr(owner, attr) for owner, attr, _, _ in spans] == originals


# --- the benchmark's own description ----------------------------------------

def test_benchmark_json_and_design_agree():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    design = json.loads((HERE / "design.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    layer_names = [m["name"] for m in bench["per_layer"]]
    assert sorted(layer_names) == sorted(design["per_layer"])
    assert {w["name"] for w in bench["workloads"]} == set(design["workloads"])
    for name in layers.HARNESS_METRICS:
        assert name in design["per_layer"]
    names = layer_names + [m["name"] for m in bench["end_to_end"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in bench["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
