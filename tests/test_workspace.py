"""Per-thread work arrays: the generation kernels and the suite objective
reuse scratch buffers instead of allocating their temporaries afresh.

The reuse must stay invisible: an objective may keep every matrix it is
given, may itself run an optimizer, and threads never share a buffer. On
Linux with glibc, a warm run also takes (almost) no fresh pages.
"""

import platform
import sys
import threading

import numpy as np
import pytest

from quasar_opt import (BoundsBox, DeConfig, QuasarConfig, de_optimize,
                        make_suite, optimize, sobol_sample)
from quasar_opt.benchmarks import BASE_FUNCTIONS
from quasar_opt.core import _work, work_array

RUNS = [(optimize, QuasarConfig), (de_optimize, DeConfig)]


def suite_fn(name="rastrigin", dim=8, seed=3):
    return next(f for f in make_suite(dim, seed) if f.name == name)


def same_result(a, b):
    return (a.best_fitness == b.best_fitness and a.eval_count == b.eval_count
            and np.array_equal(a.trace, b.trace)
            and np.array_equal(a.best_position, b.best_position))


class TestWorkArray:
    def test_slot_is_reused_and_grown(self):
        a = work_array("test.slot", (4, 3))
        assert a.shape == (4, 3) and a.dtype == float
        assert a.flags.c_contiguous
        b = work_array("test.slot", (2, 3))
        assert np.shares_memory(a, b)           # fewer rows reuse it
        c = work_array("test.slot", (10, 3))    # more rows grow it
        assert c.shape == (10, 3)
        assert np.shares_memory(c, work_array("test.slot", (7, 3)))
        d = work_array("test.slot", (2, 5))     # other columns replace it
        assert d.shape == (2, 5) and d.flags.c_contiguous

    def test_dtype_and_slot_are_separate(self):
        f = work_array("test.kind", (8, 2))
        m = work_array("test.kind", (8, 2), bool)
        assert m.dtype == bool and not np.shares_memory(f, m)
        assert not np.shares_memory(work_array("test.a", (8, 2)),
                                    work_array("test.b", (8, 2)))

    def test_threads_never_share(self):
        mine = work_array("test.thread", (16, 2))
        theirs = []
        t = threading.Thread(
            target=lambda: theirs.append(work_array("test.thread", (16, 2))))
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        assert not np.shares_memory(mine, theirs[0])

    def test_sobol_takes_no_slot(self):
        # A run draws once, so a slot would only pin the largest N x D
        # buffer its thread ever drew.
        slots = []

        def draw():
            sobol_sample(64, BoundsBox.cube(0.0, 1.0, 5))
            slots.append(dict(vars(_work)))
        t = threading.Thread(target=draw)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        assert slots == [{}]


class Keeper:
    """Delegates to a suite function and keeps every matrix it is given,
    with a copy taken at call time."""

    def __init__(self, fn):
        self.fn, self.dim, self.kept = fn, fn.dim, []

    def evaluate_many(self, X):
        self.kept.append((X, X.copy()))
        return self.fn.evaluate_many(X)


@pytest.mark.parametrize("run,cfg_cls", RUNS)
def test_objective_inputs_are_fresh(run, cfg_cls):
    """No two matrices an objective receives share memory: none is a work
    array that a later generation writes again."""
    fn = suite_fn()
    keeper = Keeper(fn)
    run(keeper, fn.bounds, cfg_cls(pop_size=40, g_max=6, seed=2))
    kept = [x for x, _ in keeper.kept]
    assert len(kept) > 6
    for i, x in enumerate(kept):
        for y in kept[i + 1:]:
            assert not np.shares_memory(x, y)


@pytest.mark.parametrize("run,cfg_cls", RUNS)
def test_quasar_never_writes_an_objective_input(run, cfg_cls):
    """Both optimizers leave every matrix they hand to the objective as it
    was at call time, to the end of the run."""
    fn = suite_fn()
    keeper = Keeper(fn)
    run(keeper, fn.bounds, cfg_cls(pop_size=40, g_max=6, seed=2))
    assert all(np.array_equal(x, at_call) for x, at_call in keeper.kept)


class Nested:
    """A suite function whose every evaluation first runs whole inner
    optimizations on the same thread, which take the same work-array slots
    with other row counts."""

    def __init__(self, fn, inner):
        self.fn, self.dim, self.inner = fn, fn.dim, inner

    def evaluate_many(self, X):
        for run, cfg_cls in RUNS:
            run(self.inner, self.inner.bounds,
                cfg_cls(pop_size=3 * len(X) + 5, g_max=2, seed=len(X)))
        return self.fn.evaluate_many(X)


@pytest.mark.parametrize("run,cfg_cls", RUNS)
def test_objective_may_run_an_optimizer(run, cfg_cls):
    fn, inner = suite_fn("levy"), suite_fn("schwefel226")
    cfg = cfg_cls(pop_size=30, g_max=5, seed=4)
    assert same_result(run(Nested(fn, inner), fn.bounds, cfg),
                       run(fn, fn.bounds, cfg))


@pytest.mark.parametrize("run,cfg_cls", RUNS)
def test_threads_match_serial_runs(run, cfg_cls):
    jobs = [(suite_fn(name, 20), seed) for name, seed in
            (("rastrigin", 1), ("ackley", 2), ("rastrigin", 3))]

    def one(fn, seed):
        return run(fn, fn.bounds, cfg_cls(pop_size=200, g_max=15, seed=seed))

    serial = [one(fn, seed) for fn, seed in jobs]
    threaded = [None] * len(jobs)
    start = threading.Barrier(len(jobs), timeout=60)

    def worker(k):
        start.wait()
        threaded[k] = one(*jobs[k])

    threads = [threading.Thread(target=worker, args=(k,))
               for k in range(len(jobs))]
    # The threads switch often, so a buffer they shared would be written
    # by one while another still used it.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(same_result(a, b) for a, b in zip(serial, threaded))


def test_suite_evaluation_is_blocked_bit_for_bit():
    """Row blocks give the bits of one whole-matrix pass of the base."""
    X = np.random.default_rng(0).uniform(-100.0, 100.0, (700, 40))
    for name, (base, _) in BASE_FUNCTIONS.items():
        fn = suite_fn(name, dim=40)
        assert np.array_equal(fn.evaluate_many(X),
                              base((X - fn.shift) @ fn.rotation.T)), name


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="page-fault counts are specific to Linux with glibc malloc")
@pytest.mark.parametrize("run,cfg_cls", RUNS)
def test_warm_run_takes_no_fresh_pages(run, cfg_cls):
    """A second identical run at D=50, N=500 finds its temporaries already
    mapped: fewer minor faults than one N x D float array has pages."""
    resource = pytest.importorskip("resource")
    fn = suite_fn("rastrigin", dim=50, seed=0)
    cfg = cfg_cls(pop_size=500, g_max=5, seed=0)
    run(fn, fn.bounds, cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run(fn, fn.bounds, cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 500 * 50 * 8 // resource.getpagesize()
