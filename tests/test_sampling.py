import hashlib
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

import quasar_opt.sampling as sampling
from quasar_opt import BoundsBox, InitMethod, RngStream, lhs_sample, sobol_sample, uniform_sample
from quasar_opt.sampling import (
    SOBOL_MAX_DIM,
    _digital_shift,
    _direction_numbers,
    _joe_kuo,
    initial_population,
)

JOE_KUO_SHA256 = "1ae561ec93c2b9dd0995b2912a287c3b23857a4f96f306c30d0859d240a4aebc"


def gray_radical_inverse(i: int) -> float:
    """Base-2 radical inverse of the Gray code of i (the sequence's 1-D law)."""
    g = i ^ (i >> 1)
    value, denom = 0.0, 1.0
    while g:
        denom *= 2.0
        value += (g & 1) / denom
        g >>= 1
    return value


def unit_box(d):
    return BoundsBox.cube(0.0, 1.0, d)


class TestSobol:
    def test_first_three_points_match_radical_inverse_oracle(self):
        pts = sobol_sample(3, unit_box(1))
        expected = [gray_radical_inverse(i) for i in (1, 2, 3)]
        assert expected == [0.5, 0.75, 0.25]
        assert np.array_equal(pts[:, 0], expected)

    def test_first_point_is_midpoint(self):
        pts = sobol_sample(1, BoundsBox.cube(-5.0, 5.0, 3))
        assert np.array_equal(pts, np.zeros((1, 3)))

    def test_seed_independent_without_scramble(self):
        b = BoundsBox.cube(-2.0, 7.0, 5)
        a = sobol_sample(64, b, RngStream(1))
        c = sobol_sample(64, b, RngStream(999))
        assert np.array_equal(a, c)

    def test_first_256_bin_occupancy(self):
        # Computed with the counting oracle: dropping the zero point leaves
        # bin 0 empty and doubles exactly one other bin per coordinate; the
        # remaining 254 bins hold exactly one point each.
        pts = sobol_sample(256, unit_box(10))
        for c in range(10):
            counts = np.bincount((pts[:, c] * 256).astype(int), minlength=256)
            assert counts[0] == 0
            assert np.sum(counts == 2) == 1
            assert np.sum(counts == 1) == 254

    def test_aligned_block_stratifies_exactly(self):
        # Points with underlying indices [256, 512) form a dyadic block and
        # must occupy every bin of width 1/256 exactly once per coordinate.
        pts = sobol_sample(511, unit_box(10))[255:]
        assert pts.shape == (256, 10)
        for c in range(10):
            counts = np.bincount((pts[:, c] * 256).astype(int), minlength=256)
            assert np.all(counts == 1)

    def test_scramble_changes_points_but_keeps_stratification(self):
        b = unit_box(4)
        plain = sobol_sample(511, b)[255:]
        scrambled = sobol_sample(511, b, RngStream(5), scramble=True)[255:]
        assert not np.array_equal(plain, scrambled)
        assert np.all(scrambled >= 0.0) and np.all(scrambled < 1.0)
        # A digital XOR shift permutes dyadic bins, so exact one-per-bin
        # coverage of aligned blocks survives.
        for c in range(4):
            counts = np.bincount((scrambled[:, c] * 256).astype(int),
                                 minlength=256)
            assert np.all(counts == 1)

    def test_scramble_is_seeded(self):
        b = unit_box(3)
        a = sobol_sample(32, b, RngStream(1), scramble=True)
        c = sobol_sample(32, b, RngStream(1), scramble=True)
        d = sobol_sample(32, b, RngStream(2), scramble=True)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_scramble_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            sobol_sample(8, unit_box(2), scramble=True)

    def test_dimension_limit_named(self):
        big = BoundsBox.cube(0.0, 1.0, SOBOL_MAX_DIM + 1)
        with pytest.raises(ValueError, match=str(SOBOL_MAX_DIM)):
            sobol_sample(2, big)

    def test_points_inside_box(self):
        b = BoundsBox(np.array([-3.0, 10.0]), np.array([-1.0, 20.0]))
        pts = sobol_sample(100, b)
        assert np.all(pts >= b.low) and np.all(pts < b.high)


def scipy_sobol(n, d):
    """The oracle: scipy's unscrambled engine after the all-zeros point."""
    engine = qmc.Sobol(d=d, scramble=False)
    engine.fast_forward(1)
    return engine.random(n)


class TestSobolMatchesScipy:
    # n in {1, 2^k - 1, 2^k, 2^k + 1}, with k shrinking as d grows.
    @pytest.mark.parametrize("d, k", [(1, 12), (2, 10), (10, 9), (100, 7),
                                      (1000, 5), (SOBOL_MAX_DIM, 3)])
    def test_bit_exact(self, d, k):
        for n in (1, 2**k - 1, 2**k, 2**k + 1):
            assert np.array_equal(sobol_sample(n, unit_box(d)),
                                  scipy_sobol(n, d)), (n, d)

    def test_direction_numbers_equal_scipy_table(self):
        # All 30 columns of every dimension, including those only points
        # past index 2**18 reach; _sv is the scipy engine's own table.
        engine = qmc.Sobol(d=SOBOL_MAX_DIM, scramble=False)
        assert np.array_equal(_direction_numbers(SOBOL_MAX_DIM).T, engine._sv)

    def test_vendored_table_equals_scipy_file(self):
        vendored = Path(sampling.__file__).with_name("_joe_kuo.npy")
        assert hashlib.sha256(vendored.read_bytes()).hexdigest() == JOE_KUO_SHA256
        scipy_file = Path(qmc.__file__).with_name("_sobol_direction_numbers.npz")
        poly, vinit = _joe_kuo()
        with np.load(scipy_file) as table:
            assert np.array_equal(poly, table["poly"])
            assert np.array_equal(vinit, table["vinit"])
        assert poly.dtype == vinit.dtype == np.uint32
        assert SOBOL_MAX_DIM == len(poly)

    def test_bit_exact_scaled(self):
        b = BoundsBox(np.array([-3.0, 10.0, -1e-3]), np.array([-1.0, 20.0, 5.0]))
        assert np.array_equal(sobol_sample(37, b),
                              b.low + scipy_sobol(37, 3) * b.width)

    def test_scrambled_is_digital_shift_of_scipy_points(self):
        b = BoundsBox.cube(-2.0, 3.0, 6)
        want = b.low + _digital_shift(scipy_sobol(50, 6), RngStream(9)) * b.width
        assert np.array_equal(sobol_sample(50, b, RngStream(9), scramble=True),
                              want)

    def test_count_limit_named(self):
        with pytest.raises(ValueError, match=r"2\*\*30 - 1"):
            sobol_sample(2**30, unit_box(1))

    def test_returned_sample_is_a_fresh_array(self):
        first = sobol_sample(8, unit_box(3))
        first[:] = -1.0
        assert np.array_equal(sobol_sample(8, unit_box(3)), scipy_sobol(8, 3))


TABLE = Path(sampling.__file__).with_name("_joe_kuo.npy")
SCIPY_TABLE = Path(qmc.__file__).with_name("_sobol_direction_numbers.npz")


def bratley_fox(d):
    """Oracle: the (30, d) direction numbers from the whole table as np.load
    reads it, by the textbook recurrence on the integers m_j, one
    polynomial degree s at a time:
    m_j = m_{j-s} ^ (m_{j-s} << s) ^ XOR_{k<s} a_k (m_{j-k} << k)."""
    table = np.load(TABLE)[:d].astype(np.int64)
    poly, vinit = table[:, 0], table[:, 1:]
    deg = np.array([int(p).bit_length() - 1 for p in poly])
    m = np.ones((d, 30), dtype=np.int64)     # dimension 0 stays all ones
    for s in set(deg[1:].tolist()):
        rows = np.flatnonzero(deg == s)
        rows = rows[rows > 0]
        a = [(poly[rows] >> (s - k)) & 1 for k in range(s)]
        m[rows, :s] = vinit[rows, :s]
        for j in range(s, 30):
            x = m[rows, j - s] ^ (m[rows, j - s] << s)
            for k in range(1, s):
                x ^= a[k] * (m[rows, j - k] << k)
            m[rows, j] = x
    return (m << (29 - np.arange(30))).T.astype(np.uint32)


class TestJoeKuoReader:
    """_joe_kuo(d) reads only the first d rows of the table."""

    @pytest.mark.parametrize("d", [1, 2, 3, 17, 100, 1111, SOBOL_MAX_DIM])
    def test_direction_numbers_equal_recurrence_on_full_table(self, d):
        assert np.array_equal(_direction_numbers(d), bratley_fox(d))

    def test_max_dim_is_header_row_count(self):
        with open(TABLE, "rb") as fh:
            assert np.lib.format.read_magic(fh) == (1, 0)
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        assert shape == (SOBOL_MAX_DIM, 19)
        assert not fortran_order and dtype == np.dtype("<u4")

    @pytest.mark.parametrize("d", [1, 17, 100, SOBOL_MAX_DIM])
    def test_prefix_equals_scipy_rows_read_only(self, d):
        poly, vinit = _joe_kuo(d)
        with np.load(SCIPY_TABLE) as table:
            assert np.array_equal(poly, table["poly"][:d])
            assert np.array_equal(vinit, table["vinit"][:d])
        assert poly.shape == (d,) and vinit.shape == (d, 18)
        assert not poly.flags.writeable and not vinit.flags.writeable


class TestLhs:
    def test_one_point_per_stratum_1d(self):
        b = BoundsBox.cube(0.0, 4.0, 1)
        pts = lhs_sample(4, b, RngStream(3))
        strata = np.sort(np.floor(pts[:, 0]).astype(int))
        assert np.array_equal(strata, [0, 1, 2, 3])

    def test_single_point_in_box(self):
        b = BoundsBox.cube(-1.0, 1.0, 2)
        pts = lhs_sample(1, b, RngStream(0))
        assert b.contains(pts)

    def test_decile_projections(self):
        b = unit_box(3)
        pts = lhs_sample(10, b, RngStream(8))
        for c in range(3):
            counts = np.bincount((pts[:, c] * 10).astype(int), minlength=10)
            assert np.all(counts == 1)

    def test_deterministic_per_seed(self):
        b = unit_box(2)
        assert np.array_equal(lhs_sample(6, b, RngStream(4)),
                              lhs_sample(6, b, RngStream(4)))


class TestUniform:
    def test_mean_near_center(self):
        pts = uniform_sample(10_000, unit_box(1), RngStream(11))
        assert abs(pts.mean() - 0.5) < 0.02

    def test_inside_box(self):
        b = BoundsBox.cube(-7.0, -2.0, 3)
        assert b.contains(uniform_sample(500, b, RngStream(2)))

    def test_deterministic_per_seed(self):
        b = unit_box(4)
        assert np.array_equal(uniform_sample(9, b, RngStream(6)),
                              uniform_sample(9, b, RngStream(6)))


def test_initial_population_dispatch():
    b = unit_box(2)
    for method in InitMethod:
        pts = initial_population(method, 8, b, RngStream(1))
        assert pts.shape == (8, 2)
        assert np.all(pts >= 0.0) and np.all(pts < 1.0)


def test_rejects_nonpositive_count():
    for fn in (lambda: sobol_sample(0, unit_box(1)),
               lambda: lhs_sample(0, unit_box(1), RngStream(0)),
               lambda: uniform_sample(0, unit_box(1), RngStream(0))):
        with pytest.raises(ValueError):
            fn()
