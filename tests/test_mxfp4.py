import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specqd import mxfp4
from specqd.mxfp4 import (
    BLOCK_SIZE,
    CodecError,
    E2M1_MAGNITUDES,
    E2M1_MAX,
    MxfpTensor,
    block_scale_exponents,
    dequantize,
    fp4_decode,
    fp4_encode,
    fp4_to_int8_lut,
    quantize_direct_cast,
    scale_values,
)


def e2m1_value(code: int) -> float:
    """Independent enumeration of E2M1 semantics, bit by bit."""
    sign = -1.0 if code & 0x8 else 1.0
    exp = (code >> 1) & 0x3
    mant = code & 0x1
    if exp == 0:
        return sign * 0.5 * mant
    return sign * 2.0 ** (exp - 1) * (1.0 + 0.5 * mant)


ALL_CODES = [np.uint8(c) for c in range(16)]


def searchsorted_encode(values):
    """Oracle: the nearest E2M1 code by a search of the magnitude grid.

    Finite inputs only. Each magnitude's neighbours on the grid are found
    with searchsorted and the nearer wins; on a tie, the one whose mantissa
    bit is even.
    """
    v = np.asarray(values, dtype=np.float64)
    mag = np.minimum(np.abs(v), E2M1_MAX)
    hi = np.clip(np.searchsorted(E2M1_MAGNITUDES, mag, side="left"), 0, 7)
    lo = np.clip(hi - 1, 0, 7)
    d_lo = mag - E2M1_MAGNITUDES[lo]
    d_hi = E2M1_MAGNITUDES[hi] - mag
    # Adjacent grid codes alternate mantissa parity.
    even = np.where(lo & 1, hi, lo)
    code = np.where(d_lo < d_hi, lo, np.where(d_hi < d_lo, hi, even))
    code = np.where(np.signbit(v), code | 0x8, code).astype(np.uint8)
    return code if code.ndim else np.uint8(code)


def oracle_cast(x):
    """(codes, scale_exp, clamped_blocks) of the direct cast of a matrix
    with at least one row, encoded by ``searchsorted_encode``."""
    rows, cols = x.shape
    xp = np.pad(x, ((0, 0), (0, (-cols) % BLOCK_SIZE)))
    blocks = xp.reshape(rows, -1, BLOCK_SIZE)
    scale_exp, clamped = block_scale_exponents(np.max(np.abs(blocks), axis=2))
    scaled = blocks / scale_values(scale_exp)[:, :, None]
    return searchsorted_encode(scaled).reshape(rows, -1), scale_exp, clamped


class TestDecode:
    def test_exhaustive_against_enumeration(self):
        for c in ALL_CODES:
            assert fp4_decode(c) == e2m1_value(int(c))

    def test_zero_code(self):
        assert fp4_decode(np.uint8(0)) == 0.0

    def test_max_normal(self):
        assert fp4_decode(np.uint8(0b0111)) == 6.0

    def test_negative_subnormal(self):
        assert fp4_decode(np.uint8(0b1001)) == -0.5

    def test_magnitude_set(self):
        mags = sorted({abs(fp4_decode(c)) for c in ALL_CODES})
        assert mags == [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]


class TestEncode:
    def test_clamps_above_max_normal(self):
        assert fp4_decode(fp4_encode(7.5)) == 6.0
        assert fp4_decode(fp4_encode(-123.0)) == -6.0

    def test_zero(self):
        assert fp4_encode(0.0) == 0

    def test_tie_to_even_mantissa(self):
        # 2.5 sits exactly between 2.0 (mantissa 0) and 3.0 (mantissa 1).
        assert fp4_decode(fp4_encode(2.5)) == 2.0

    def test_all_midpoints_round_to_even(self):
        grid = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]
        for lo, hi in zip(grid[:-1], grid[1:]):
            mid = (lo + hi) / 2
            code = int(fp4_encode(mid)) & 0x7
            assert code & 1 == 0, f"tie at {mid} went to odd-mantissa code"

    def test_nearest_by_exhaustive_candidates(self):
        rng = np.random.default_rng(0)
        grid = np.array([fp4_decode(c) for c in ALL_CODES])
        for v in rng.uniform(-8, 8, size=500):
            got = fp4_decode(fp4_encode(v))
            clamped = np.clip(v, -6, 6)
            best = np.min(np.abs(grid - clamped))
            assert abs(got - clamped) == pytest.approx(best, abs=0)

    def test_monotone_over_dense_scan(self):
        xs = np.linspace(-7.0, 7.0, 100_001)
        decoded = fp4_decode(fp4_encode(xs))
        assert np.all(np.diff(decoded) >= 0)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(CodecError):
                fp4_encode(bad)

    @given(st.floats(min_value=-100, max_value=100))
    def test_roundtrip_through_grid_is_identity(self, v):
        once = fp4_encode(v)
        assert fp4_encode(fp4_decode(once)) == once


class TestEncodeAgainstSearchOracle:
    """``fp4_encode`` rounds arithmetically; it must give the grid search's
    codes byte for byte."""

    @staticmethod
    def check(values):
        got, want = fp4_encode(values), searchsorted_encode(values)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).dtype == np.uint8
        assert np.array_equal(got, want)

    def test_midpoints_and_their_neighbours(self):
        grid = E2M1_MAGNITUDES
        edges = np.concatenate([(grid[:-1] + grid[1:]) / 2, grid])
        near = np.concatenate([edges, np.nextafter(edges, 0.0),
                               np.nextafter(edges, np.inf)])
        self.check(np.concatenate([near, -near]))

    def test_zeros_subnormals_and_large(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        values = np.array([0.0, tiny, 2 * tiny, 1e-310,
                           np.finfo(np.float64).tiny,
                           np.nextafter(6.0, np.inf), 6.5, 7.0, 11.0, 12.0,
                           13.0, 1e3, 1e300, 1e308,
                           np.finfo(np.float64).max])
        self.check(np.concatenate([values, -values]))

    def test_dense_scan(self):
        self.check(np.linspace(-14.0, 14.0, 400_001))
        rng = np.random.default_rng(5)
        self.check(rng.standard_normal(100_000)
                   * 10.0 ** rng.uniform(-5, 5, 100_000))

    @pytest.mark.parametrize("values", [
        2.5, -0.0, 7, np.float32(-1.25), np.array(3.5), np.array(-0.0),
        [[0.25, -0.75], [5.0, 1e308]], np.arange(-48, 48).reshape(2, 3, 4, 4) / 8,
        np.zeros(0), np.zeros((3, 0, 2)),
    ], ids=["float", "neg-zero", "int", "float32", "0-d", "0-d-neg-zero",
            "nested-list", "4-d", "empty", "empty-3-d"])
    def test_input_kinds(self, values):
        self.check(values)

    def test_non_contiguous_input(self):
        x = np.linspace(-7, 7, 999).reshape(27, 37)
        self.check(x.T)
        self.check(x[::2, 1::3])


class TestCastAgainstSearchOracle:
    @staticmethod
    def check(x):
        t = quantize_direct_cast(x)
        codes, scale_exp, clamped = oracle_cast(x)
        assert t.codes.dtype == np.uint8 and t.scale_exp.dtype == np.uint8
        assert np.array_equal(t.codes, codes)
        assert np.array_equal(t.scale_exp, scale_exp)
        assert t.clamped_blocks == clamped

    @pytest.mark.parametrize("cols", [1, 31, 32, 33, 64, 100, 200])
    def test_wide_dynamic_range(self, cols):
        rng = np.random.default_rng(cols)
        rows = 600  # over one of the cast's passes at every width
        x = (rng.standard_normal((rows, cols))
             * 10.0 ** rng.uniform(-30, 30, (rows, 1))
             * 10.0 ** rng.uniform(-4, 4, (rows, cols)))
        x[rng.random(x.shape) < 0.1] = 0.0
        x[rng.random(x.shape) < 0.05] = -0.0
        x[0] = 0.0  # all-zero blocks
        x[1] = rng.standard_normal(cols) * 1e-42  # scale clamps to exponent 0
        x[2] = rng.standard_normal(cols) * 1e300  # scale clamps to 254
        x[3, :] = 1e308
        x[4] = np.resize([2.5, -5.0, 0.75, 6.0, -7.0, 0.25], cols) * 2.0 ** 10
        t = quantize_direct_cast(x)
        assert t.clamped_blocks >= 2 * -(-cols // BLOCK_SIZE)
        assert 0 in t.scale_exp and 254 in t.scale_exp
        self.check(x)

    def test_model_shaped_weight(self):
        rng = np.random.default_rng(8)
        self.check(rng.standard_normal((256, 512)) * 0.05)

    def test_float32_input(self):
        x = np.random.default_rng(9).standard_normal((5, 70)).astype(np.float32)
        self.check(x)


class TestCastShapes:
    @pytest.mark.parametrize("cols", [0, 1, 32, 40])
    def test_zero_rows(self, cols):
        t = quantize_direct_cast(np.zeros((0, cols)))
        blocks = -(-cols // BLOCK_SIZE)
        assert (t.rows, t.cols) == (0, cols)
        assert t.codes.shape == (0, blocks * BLOCK_SIZE)
        assert t.scale_exp.shape == (0, blocks)
        assert t.clamped_blocks == 0 and t.storage_bytes() == 0
        assert dequantize(t).shape == (0, cols)

    def test_zero_cols(self):
        t = quantize_direct_cast(np.zeros((3, 0)))
        assert t.codes.shape == (3, 0) and t.scale_exp.shape == (3, 0)

    def test_rejects_non_finite_in_padded_block(self):
        x = np.zeros((3, 40))
        x[2, 39] = -np.inf
        with pytest.raises(CodecError, match=r"\(2, 39\)"):
            quantize_direct_cast(x)


def test_cast_temporaries_stay_small():
    """The cast allocates at most 6x its float64 input, in all."""
    w = np.random.default_rng(10).standard_normal((1024, 512))
    quantize_direct_cast(w[:2])  # first-call allocations
    tracemalloc.start()
    try:
        quantize_direct_cast(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * w.nbytes


class TestBlockScale:
    def test_max_six(self):
        exp, clamped = block_scale_exponents([6.0])
        assert scale_values(exp)[0] == 1.0 and clamped == 0

    def test_max_four(self):
        exp, _ = block_scale_exponents([4.0])
        assert scale_values(exp)[0] == 1.0

    def test_all_zero_block(self):
        exp, clamped = block_scale_exponents([0.0])
        assert exp[0] == 127 and clamped == 0

    def test_largest_power_of_two_rule(self):
        # Direct evaluation of the two-step rule on random blocks.
        rng = np.random.default_rng(1)
        for _ in range(1000):
            m = float(rng.uniform(1e-3, 1e3))
            exp, _ = block_scale_exponents([m])
            want = 2.0 ** (np.floor(np.log2(m)) - 2)
            assert scale_values(exp)[0] == want

    def test_out_of_range_clamps_and_counts(self):
        tiny = np.full(BLOCK_SIZE, 1e-40)
        t = quantize_direct_cast(tiny[None, :])
        assert t.clamped_blocks == 1
        assert t.scale_exp[0, 0] == 0


class TestQuantizeDequantize:
    def test_exact_block(self):
        block = np.zeros((1, BLOCK_SIZE))
        block[0, 0], block[0, 1] = 6.0, 3.0
        t = quantize_direct_cast(block)
        assert scale_values(t.scale_exp)[0, 0] == 1.0
        out = dequantize(t)
        assert out[0, 0] == 6.0 and out[0, 1] == 3.0
        assert np.all(out[0, 2:] == 0.0)

    def test_zero_block(self):
        t = quantize_direct_cast(np.zeros((2, BLOCK_SIZE)))
        assert np.all(t.codes == 0)
        assert np.all(t.scale_exp == 127)
        assert np.all(dequantize(t) == 0.0)

    def test_overflowing_element(self):
        block = np.zeros((1, BLOCK_SIZE))
        block[0, 0] = 8.1
        t = quantize_direct_cast(block)
        assert scale_values(t.scale_exp)[0, 0] == 2.0
        assert dequantize(t)[0, 0] == 8.0

    def test_roundtrip_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.standard_normal((4, 2 * BLOCK_SIZE)) * 10.0 ** rng.integers(-2, 3)
            q1 = quantize_direct_cast(x)
            q2 = quantize_direct_cast(dequantize(q1))
            assert q1 == q2

    def test_error_bound_half_grid_spacing(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5, 5, size=(32, 64))
        err = np.abs(x - dequantize(quantize_direct_cast(x)))
        scales = scale_values(quantize_direct_cast(x).scale_exp)
        bound = np.repeat(scales, BLOCK_SIZE, axis=1)
        assert np.all(err <= bound)

    def test_clamping_only_above_bound(self):
        # Per-block bound: 6 * 2^(floor(log2 max)-2); values inside never clamp.
        x = np.linspace(0.1, 6.0, BLOCK_SIZE)[None, :]
        t = quantize_direct_cast(x)
        s = scale_values(t.scale_exp)[0, 0]
        assert np.max(np.abs(dequantize(t))) <= 6 * s

    def test_padding(self):
        x = np.ones((2, 40))
        t = quantize_direct_cast(x)
        assert t.padded_cols == 64 and t.cols == 40
        assert dequantize(t).shape == (2, 40)

    def test_rejects_non_finite_with_index(self):
        x = np.zeros((2, BLOCK_SIZE))
        x[1, 3] = np.nan
        with pytest.raises(CodecError, match=r"\(1, 3\)"):
            quantize_direct_cast(x)

    def test_storage_ratio(self):
        x = np.zeros((8, 128))
        t = quantize_direct_cast(x)
        assert t.storage_bytes() == 8 * 128 * 4.25 / 8
        assert (8 * 128 * 4) / t.storage_bytes() == pytest.approx(32 / 4.25)

    def test_dequantized_values_exact_in_f32(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, BLOCK_SIZE))
        d = dequantize(quantize_direct_cast(x))
        assert np.all(d == d.astype(np.float32).astype(np.float64))


class TestLut:
    def test_exactness(self):
        lut = fp4_to_int8_lut()
        for c in ALL_CODES:
            assert lut[c] == 2 * fp4_decode(c)

    def test_value_set(self):
        assert sorted(set(abs(int(v)) for v in fp4_to_int8_lut())) == [
            0, 1, 2, 3, 4, 6, 8, 12,
        ]

    def test_negative_zero_code(self):
        assert fp4_to_int8_lut()[0b1000] == 0

