import json
import math

import numpy as np
import pytest

from quasar_opt import make_suite, suite_manifest
from quasar_opt.benchmarks import (
    BASE_FUNCTIONS,
    ackley,
    bent_cigar,
    discus,
    griewank,
    levy,
    make_function,
    random_rotation,
    rastrigin,
    rosenbrock,
    schwefel226,
    sphere,
    zakharov,
)
from quasar_opt.core import RngStream


# Independent scalar references (plain math loops) for the hand-evaluation
# oracle; deliberately written without numpy.

def ref_sphere(x):
    return sum(v * v for v in x)


def ref_bent_cigar(x):
    return x[0] ** 2 + 1e6 * sum(v * v for v in x[1:])


def ref_discus(x):
    return 1e6 * x[0] ** 2 + sum(v * v for v in x[1:])


def ref_rosenbrock(x):
    return sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1.0 - x[i]) ** 2
               for i in range(len(x) - 1))


def ref_rastrigin(x):
    return sum(v * v - 10.0 * math.cos(2.0 * math.pi * v) + 10.0 for v in x)


def ref_ackley(x):
    d = len(x)
    s1 = math.sqrt(sum(v * v for v in x) / d)
    s2 = sum(math.cos(2.0 * math.pi * v) for v in x) / d
    return -20.0 * math.exp(-0.2 * s1) - math.exp(s2) + 20.0 + math.e


def ref_griewank(x):
    s = sum(v * v for v in x) / 4000.0
    p = 1.0
    for i, v in enumerate(x):
        p *= math.cos(v / math.sqrt(i + 1.0))
    return s - p + 1.0


def ref_levy(x):
    w = [1.0 + (v - 1.0) / 4.0 for v in x]
    total = math.sin(math.pi * w[0]) ** 2
    for i in range(len(x) - 1):
        total += (w[i] - 1.0) ** 2 * (1.0 + 10.0 * math.sin(math.pi * w[i] + 1.0) ** 2)
    total += (w[-1] - 1.0) ** 2 * (1.0 + math.sin(2.0 * math.pi * w[-1]) ** 2)
    return total


def ref_zakharov(x):
    s = sum(0.5 * (i + 1) * v for i, v in enumerate(x))
    return sum(v * v for v in x) + s ** 2 + s ** 4


def ref_schwefel226(x):
    total = 0.0
    for v in x:
        t = v + 420.968746359982027
        tc = max(-500.0, min(500.0, t))
        total += 418.982887272433706 - tc * math.sin(math.sqrt(abs(tc)))
        excess = max(abs(t) - 500.0, 0.0)
        total += 1e-2 * excess * excess
    return total


REFERENCES = {
    "sphere": (sphere, ref_sphere),
    "bent_cigar": (bent_cigar, ref_bent_cigar),
    "discus": (discus, ref_discus),
    "rosenbrock": (rosenbrock, ref_rosenbrock),
    "rastrigin": (rastrigin, ref_rastrigin),
    "ackley": (ackley, ref_ackley),
    "griewank": (griewank, ref_griewank),
    "levy": (levy, ref_levy),
    "zakharov": (zakharov, ref_zakharov),
    "schwefel226": (schwefel226, ref_schwefel226),
}


class TestBaseFunctions:
    @pytest.mark.parametrize("name", sorted(BASE_FUNCTIONS))
    def test_minimum_zero_at_canonical_optimum(self, name):
        fn, opt_coord = BASE_FUNCTIONS[name]
        z = np.full(7, opt_coord)
        assert abs(fn(z)) < 1e-9

    @pytest.mark.parametrize("name", sorted(BASE_FUNCTIONS))
    def test_nonnegative_on_random_points(self, name):
        fn, _ = BASE_FUNCTIONS[name]
        rng = np.random.default_rng(0)
        z = rng.uniform(-100, 100, size=(2000, 5))
        assert np.all(fn(z) >= 0.0)

    @pytest.mark.parametrize("name", sorted(REFERENCES))
    def test_matches_scalar_reference(self, name):
        fn, ref = REFERENCES[name]
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.uniform(-80, 80, size=6)
            assert fn(x) == pytest.approx(ref(list(x)), rel=1e-12, abs=1e-9)

    def test_rastrigin_hand_value(self):
        # One coordinate at 0.5: 0.25 + 10 (1 - cos pi) = 20.25.
        z = np.array([0.5, 0.0, 0.0])
        assert rastrigin(z) == pytest.approx(20.25, abs=1e-12)

    def test_ackley_zero_identity(self):
        assert abs(ackley(np.zeros(10))) < 1e-12

    def test_batch_rows_match_single(self):
        rng = np.random.default_rng(1)
        Z = rng.uniform(-50, 50, size=(10, 4))
        for name, (fn, _) in REFERENCES.items():
            batch = fn(Z)
            single = np.array([fn(row) for row in Z])
            assert np.allclose(batch, single, rtol=1e-13)


class TestRotation:
    def test_orthogonality(self):
        for seed in range(5):
            m = random_rotation(8, RngStream(seed))
            assert np.max(np.abs(m.T @ m - np.eye(8))) <= 1e-10


class TestSuite:
    def test_contains_ten_functions(self):
        suite = make_suite(5, seed=1)
        assert len(suite) >= 10
        assert [f.name for f in suite] == list(BASE_FUNCTIONS)

    def test_optimum_value_attained_at_preimage(self):
        for fn in make_suite(8, seed=2):
            assert fn.evaluate(fn.x_opt) == pytest.approx(0.0, abs=1e-9)
            assert fn.bounds.contains(fn.x_opt)

    def test_shift_in_central_80_percent(self):
        for fn in make_suite(12, seed=3):
            assert np.all(fn.shift >= fn.bounds.low + 0.1 * fn.bounds.width)
            assert np.all(fn.shift <= fn.bounds.high - 0.1 * fn.bounds.width)

    def test_deterministic_construction(self):
        a = make_suite(6, seed=9)
        b = make_suite(6, seed=9)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.shift, fb.shift)
            assert np.array_equal(fa.rotation, fb.rotation)

    def test_evaluate_deterministic_and_consistent_with_batch(self):
        fn = make_suite(4, seed=5)[3]
        rng = np.random.default_rng(0)
        X = rng.uniform(-100, 100, size=(6, 4))
        batch = fn.evaluate_many(X)
        for i, row in enumerate(X):
            v1, v2 = fn.evaluate(row), fn.evaluate(row)
            assert v1 == v2 == pytest.approx(batch[i], rel=1e-13)

    def test_dimension_mismatch(self):
        fn = make_suite(4, seed=5)[0]
        with pytest.raises(ValueError, match="length-4"):
            fn.evaluate(np.zeros(5))
        with pytest.raises(ValueError):
            fn.evaluate_many(np.zeros((3, 5)))

    def test_identity_wrap_matches_base(self):
        # rotation = I, shift = 0 reduces the wrapper to the base function.
        rng = np.random.default_rng(2)
        for name, (base, _) in REFERENCES.items():
            fn = make_function(name, 5, RngStream(0))
            plain = fn.__class__(
                name=name, dim=5, bounds=fn.bounds,
                shift=np.zeros(5), rotation=np.eye(5), x_opt=fn.x_opt,
            )
            x = rng.uniform(-50, 50, size=5)
            assert plain.evaluate(x) == pytest.approx(float(base(x)), rel=1e-12)

    def test_manifest_json(self):
        suite = make_suite(7, seed=4)
        entries = json.loads(suite_manifest(suite))
        assert len(entries) == len(suite)
        for e, fn in zip(entries, suite):
            assert e == {"name": fn.name, "dim": 7, "seed": 4,
                         "optimum_value": 0.0}

    def test_rejects_dimension_below_two(self):
        with pytest.raises(ValueError):
            make_suite(1, seed=0)

    def test_unknown_base_rejected(self):
        with pytest.raises(ValueError, match="unknown base"):
            make_function("nope", 4, RngStream(0))
