import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from specqd import mxfp4, qgemm
from specqd.mxfp4 import (
    BLOCK_SIZE,
    NO_BLOCK,
    CodecError,
    MxfpTensor,
    dequantize,
    quantize_direct_cast,
)
from specqd.qgemm import (
    TERM_BITS,
    BenchResult,
    FloatWeight,
    GemmShape,
    GemmShapeError,
    dequantize_activations,
    fold_sum,
    gemm_bench,
    gemm_bytes,
    gemm_mxfp4_int8,
    gemm_mxfp4_latescale_f32,
    gemm_reference,
    quantize_activations,
)


def make_block_tensor(codes_row, scale_exp, rows=1):
    """Handcraft a one-block-per-row MxfpTensor."""
    codes = np.tile(np.asarray(codes_row, dtype=np.uint8), (rows, 1))
    scales = np.full((rows, 1), scale_exp, dtype=np.uint8)
    return MxfpTensor(rows, BLOCK_SIZE, codes, scales)


class TestReference:
    def test_identity(self):
        a = np.random.default_rng(0).standard_normal((8, 3))
        assert np.array_equal(gemm_reference(np.eye(8), a), a)

    def test_ones(self):
        out = gemm_reference(np.ones((1, 32)), np.ones((32, 1)))
        assert out[0, 0] == 32.0

    def test_two_loop_orders_agree(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((8, 64))
        a = rng.standard_normal((64, 4))
        alt = np.zeros((8, 4))
        for k in range(64):  # opposite loop nesting
            alt += np.outer(w[:, k], a[k])
        got = gemm_reference(w, a)
        assert np.max(np.abs(got - alt)) / np.max(np.abs(alt)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(GemmShapeError):
            gemm_reference(np.ones((2, 3)), np.ones((4, 2)))

    # Around the slice matmul's column chunk, and a long prefill.
    @pytest.mark.parametrize("n", sorted({1, qgemm.SLICE_COL_CHUNK - 1,
                                          qgemm.SLICE_COL_CHUNK,
                                          qgemm.SLICE_COL_CHUNK + 1, 400}))
    def test_column_alone_equals_batch(self, n):
        rng = np.random.default_rng(n)
        w = FloatWeight(rng.uniform(-1, 1, (40, 96)).astype(np.float32))
        # Columns of very different magnitude get different exponents.
        a = rng.standard_normal((96, n)) * np.exp2(rng.integers(-20, 20, n))
        batch = gemm_reference(w, a)
        for j in range(n):
            alone = gemm_reference(w, a[:, j:j + 1])
            assert alone.tobytes() == batch[:, j:j + 1].tobytes()

    @staticmethod
    def error_bound(w, a) -> np.ndarray:
        """The kernel's stated bound, K * max|w_i.| * max|a_.j| *
        (2^(1 - 3b) + 2^-49) with b = 53 - W_SLICE_BITS - ceil(log2 K)."""
        k = w.shape[1]
        bits = 53 - qgemm.W_SLICE_BITS - (k - 1).bit_length()
        scale = np.max(np.abs(w), axis=1)[:, None] * np.max(np.abs(a), axis=0)
        return k * scale * (2.0 ** (1 - 3 * bits) + 2.0 ** -49)

    @pytest.mark.parametrize("k", [1, 3, 32, 100, 1024])
    @pytest.mark.parametrize("float32_weights", [True, False])
    def test_within_bound_of_exact_product(self, k, float32_weights):
        rng = np.random.default_rng(k)
        # Mixed magnitudes, so slices beyond the first carry bits.
        w = rng.standard_normal((3, k)) * np.exp2(rng.integers(-12, 12, (3, k)))
        a = rng.standard_normal((k, 2)) * np.exp2(rng.integers(-12, 12, (k, 2)))
        if float32_weights:
            w = w.astype(np.float32).astype(np.float64)
        got = gemm_reference(w, a)
        bound = self.error_bound(w, a)
        for i in range(3):
            for j in range(2):
                exact = sum(Fraction(float(w[i, t])) * Fraction(float(a[t, j]))
                            for t in range(k))
                assert abs(Fraction(float(got[i, j])) - exact) <= Fraction(bound[i, j])

    def test_holder_drops_values_only_when_lossless(self):
        rng = np.random.default_rng(11)
        narrow = rng.uniform(-1, 1, (5, 64)).astype(np.float32).astype(np.float64)
        narrow[:, 0] = 0.75  # every row's exponent is 0: max|row| < 2^0
        # A float32 value in [2^-28, 2^-27) has its last bit at 2^-51.
        tiny = float(np.float32(1.2345678)) * 2.0 ** -28
        narrow[0, 1:5] = [-0.0, 0.0, tiny, -tiny]
        wide = narrow.copy()
        wide[1, 7] = tiny / 4  # last bit at 2^-53: 30 bits of range
        full = rng.standard_normal((5, 64))  # 53-bit mantissas
        a = rng.standard_normal((64, 3))
        for values, dropped in ((narrow, True), (wide, False), (full, False)):
            w = FloatWeight(values.copy())
            assert w.values is not None and "slices" not in vars(w)
            gemm_reference(w, a)
            assert (w.values is None) == dropped
            assert np.asarray(w).tobytes() == values.tobytes()
            assert np.asarray(w, dtype=np.float32).tobytes() == \
                values.astype(np.float32).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_operands_raise(self, bad):
        w, a = np.ones((4, 8)), np.ones((8, 2))
        w[1, 3] = bad
        with pytest.raises(CodecError):
            gemm_reference(w, a)
        with pytest.raises(CodecError):
            gemm_reference(FloatWeight(w), a)
        a[5, 1] = bad
        with pytest.raises(CodecError):
            gemm_reference(np.ones((4, 8)), a)

    def test_empty_operands(self):
        # No model or bench shape is empty, so an empty operand is a
        # caller's error on every path.
        for w, a in (((0, 32), (32, 3)), ((4, 32), (32, 0)), ((3, 0), (0, 5))):
            with pytest.raises(GemmShapeError):
                gemm_reference(np.ones(w), np.ones(a))

    def test_zero_activation_columns_on_every_path(self):
        w = quantize_direct_cast(
            np.random.default_rng(4).standard_normal((5, 2 * BLOCK_SIZE)))
        a = np.zeros((2 * BLOCK_SIZE, 0))
        for path in (quantize_activations, partial(gemm_mxfp4_latescale_f32, w),
                     partial(gemm_reference, dequantize(w))):
            with pytest.raises(GemmShapeError):
                path(a)


class TestSliceMatmul:
    """The slice product that the reference GEMM and attention share."""

    def test_batched_weight_equals_each_batch(self):
        # Attention multiplies every head's slices in one call with a 3-D
        # weight; each head must get the 2-D product's bits and bound.
        rng = np.random.default_rng(21)
        heads, m, k, n = 3, 5, 40, 4
        w = rng.standard_normal((heads, m, k)) * np.exp2(rng.integers(-12, 12, (heads, m, k)))
        a = rng.standard_normal((heads, k, n)) * np.exp2(rng.integers(-12, 12, (heads, k, n)))
        w_parts = np.stack([FloatWeight(w[h]).slices for h in range(heads)])
        a_parts = qgemm.row_slices(a.transpose(0, 2, 1), qgemm.slice_bits(k), qgemm.A_SLICES)
        got = qgemm.slice_matmul(a_parts, w_parts)
        assert got.shape == (heads, n, m)
        for h in range(heads):
            alone = qgemm.slice_matmul(np.ascontiguousarray(a_parts[:, h]), w_parts[h])
            assert alone.tobytes() == got[h].tobytes()
            assert np.ascontiguousarray(got[h].T).tobytes() == gemm_reference(w[h], a[h]).tobytes()
            bound = TestReference.error_bound(w[h], a[h])
            for i in range(m):
                for j in range(n):
                    exact = sum(Fraction(float(w[h, i, t])) * Fraction(float(a[h, t, j]))
                                for t in range(k))
                    assert abs(Fraction(float(got[h, j, i])) - exact) <= Fraction(bound[i, j])

    def test_2d_weight_is_one_matmul(self, monkeypatch):
        # One GEMM over every activation slice and column, not one
        # matrix-vector product per slice.
        shapes = []
        matmul = np.matmul

        def recording_matmul(a, b, out=None):
            shapes.append((a.shape, b.shape))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", recording_matmul)
        rng = np.random.default_rng(22)
        w = FloatWeight(rng.standard_normal((6, 32)))
        a = rng.standard_normal((32, 5))
        gemm_reference(w, a)
        assert shapes == [((qgemm.A_SLICES * 5, 32), (32, qgemm.W_SLICES * 6))]


class TestFoldSum:
    def test_matches_plain_sum(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 17, 32, 100):
            x = rng.standard_normal((5, n))
            assert np.allclose(fold_sum(x, axis=1), np.sum(x, axis=1))

    def test_layout_independent(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((7, 33))
        view = np.empty((9, 40))
        view[1:8, 4:37] = base
        assert np.array_equal(fold_sum(base, axis=1),
                              fold_sum(view[1:8, 4:37], axis=1))

    def test_same_tree_on_any_axis(self):
        # Neighbours added pairwise per level, an odd level's last element
        # moved up as it is: the order every caller's bits depend on.
        rng = np.random.default_rng(4)
        for n in (1, 2, 5, 32, 100, 128):
            x = rng.standard_normal((3, n, 2))
            want = []
            for row in x[:, :, 1].tolist():
                while len(row) > 1:
                    row = ([a + b for a, b in zip(row[0::2], row[1::2])]
                           + row[len(row) // 2 * 2:])
                want.append(row[0])
            assert fold_sum(x[:, :, 1]).tolist() == want
            assert fold_sum(x, axis=1)[:, 1].tolist() == want

    def test_zero_length_axis_rejected(self):
        with pytest.raises(ValueError):
            fold_sum(np.ones((3, 0)))


def quantize_activations_oracle(a):
    """The MXINT8-style format one (block, column) at a time in exact
    rational arithmetic: scale 2^s with s = floor(log2 max|block|) - 6, or
    s = -7 for an all-zero block; values rounded to multiples of the scale
    half to even, clamped to +-127 times it, zeros +0.0.

    Returns the (K, N) values, each block's s ([block][column]) and the
    window facts (l1_bits, lo, hi): l1_bits is the smallest b with 15 *
    sum |a| < 2^(b + min s) for every column, 7 if every value is 0, or
    NO_BLOCK when lo or hi leaves float32's normal range.
    """
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise CodecError("quantize_activations requires finite inputs")
    k, n = a.shape
    values = np.empty((k, n))
    exps = [[0] * n for _ in range(k // BLOCK_SIZE)]
    for b in range(k // BLOCK_SIZE):
        for j in range(n):
            rows = slice(b * BLOCK_SIZE, (b + 1) * BLOCK_SIZE)
            block = [Fraction(float(v)) for v in a[rows, j]]
            top = max(abs(v) for v in block)
            s = math.frexp(float(top))[1] - 7 if top else -7
            scale = Fraction(2) ** s
            values[rows, j] = [float(max(-127, min(127, round(v / scale))) * scale)
                               for v in block]
            exps[b][j] = s
    cols = list(zip(*exps))
    lo, hi = min(map(min, cols)), max(map(max, cols))
    l1_bits = NO_BLOCK
    if lo >= -126 and hi <= 121:
        # 15 * sum |a| over column j, over 2^min s.
        top = max(15 * sum(abs(Fraction(float(v))) for v in a[:, j])
                  / Fraction(2) ** min(cols[j]) for j in range(n))
        l1_bits = 7
        if top:
            l1_bits = top.numerator.bit_length() - top.denominator.bit_length() - 1
            while top >= Fraction(2) ** l1_bits:
                l1_bits += 1
    return values, exps, (l1_bits, lo, hi)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


class TestActivationQuantization:
    def test_zero_block(self):
        a = np.zeros((2 * BLOCK_SIZE, 2))
        a[BLOCK_SIZE:, 1] = -0.0
        p = quantize_activations(a)
        # Zeros come out +0.0; a zero block counts as exponent -7.
        assert_same_bits(dequantize_activations(p), np.zeros(a.shape))
        assert (p.l1_bits, p.lo, p.hi) == (7, -7, -7)
        assert p.operand.dtype == np.float32

    def test_max_127_block(self):
        a = np.zeros((BLOCK_SIZE, 1))
        a[0, 0], a[1, 0] = 127.0, -42.4
        p = quantize_activations(a)
        # floor(log2 127) - 6 = 0: scale 1.0; 15 * 169.4 < 2^12.
        assert (p.lo, p.hi, p.l1_bits) == (0, 0, 12)
        assert p.operand[0, 0] == 127 and p.operand[0, 1] == -42

    def test_half_integer_ties_to_even(self):
        a = np.zeros((BLOCK_SIZE, 1))
        a[:5, 0] = -127.0, 63.5, 62.5, -0.5, 0.5
        p = quantize_activations(a)
        assert_same_bits(p.operand[0, :5], np.float32([-127, 64, 62, 0, 0]))

    def test_clamp_at_127(self):
        # Over a scale of 2^e, 127.5 and -127.75 round to +-128 and clamp.
        a = np.zeros((BLOCK_SIZE, 2))
        a[:2, 0] = 127.5 * 2.0 ** -9, 3 * 2.0 ** -9
        a[:2, 1] = -127.75 * 2.0 ** 20, 127.25 * 2.0 ** 20
        p = quantize_activations(a)
        assert_same_bits(p.operand[:, :2], np.float32([[127 * 2.0 ** -9, 3 * 2.0 ** -9],
                                                       [-127 * 2.0 ** 20, 127 * 2.0 ** 20]]))
        assert (p.lo, p.hi) == (-9, 20)

    def test_range_bound(self):
        rng = np.random.default_rng(4)
        p = quantize_activations(rng.standard_normal((64, 4)) * 100)
        blocks = p.operand.astype(np.float64).reshape(4, 2, BLOCK_SIZE)
        # A block's scale is 2^(floor(log2 max|value|) - 6): it puts the
        # block's largest |q| in [64, 127], every q an integer.
        top = np.abs(blocks).max(axis=2, keepdims=True)
        q = blocks / np.exp2(np.floor(np.log2(top)) - 6)
        assert np.all(q == np.rint(q)) and np.max(np.abs(q)) <= 127
        assert np.all(np.abs(q).max(axis=2) >= 64)

    def test_per_column_scales(self):
        a = np.ones((2 * BLOCK_SIZE, 2))
        a[:, 1] *= 254.0
        p = quantize_activations(a)
        # 1 = 64 * 2^-6 and 254 = 127 * 2^1: exact, at scales 2^-6 and 2^1.
        assert_same_bits(dequantize_activations(p), a)
        # The larger column sets l1_bits: 15 * 64 * 254 < 2^(17 + 1), where
        # 15 * 64 < 2^(16 - 6) would do for the other.
        assert (p.l1_bits, p.lo, p.hi) == (17, -6, 1)

    @pytest.mark.parametrize("k", [32, 64, 512])
    @pytest.mark.parametrize("n", [1, 5, 17])
    def test_bytes_match_oracle(self, k, n):
        rng = np.random.default_rng(k * 100 + n)
        a = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-8, 8, size=(1, n))
        a[:BLOCK_SIZE, 0] = 0.0  # an all-zero block
        a[rng.integers(0, k, 4), rng.integers(0, n, 4)] = -0.0
        # Exact .5 ties after scaling: the block maximum is 127 * 2^e, so
        # the scale is 2^e and every value is a half-integer on that grid.
        e = int(rng.integers(-20, 20))
        tie = rng.integers(-254, 255, BLOCK_SIZE) / 2.0
        tie[0] = 127.0
        a[-BLOCK_SIZE:, -1] = tie * 2.0 ** e
        # A block whose maximum clamps, -127.5 * 2^(e - 3), where one is
        # neither the zero block nor the ties' block.
        clamp = ((BLOCK_SIZE, 0) if k > 2 * BLOCK_SIZE else (0, 1) if n > 2
                 else None)
        if clamp:
            row, col = clamp
            a[row:row + BLOCK_SIZE, col] = tie * 2.0 ** (e - 3)
            a[row, col] = -127.5 * 2.0 ** (e - 3)
        got = quantize_activations(a)
        values, exps, facts = quantize_activations_oracle(a)
        assert got.operand.dtype == np.float32
        assert_same_bits(dequantize_activations(got), values)
        assert (got.l1_bits, got.lo, got.hi) == facts
        assert exps[-1][-1] == e
        assert_same_bits(values[-BLOCK_SIZE:, -1], np.rint(tie) * 2.0 ** e + 0.0)
        if clamp:
            assert values[clamp] == -127 * 2.0 ** (e - 3)

    @pytest.mark.parametrize("e", [-1074, -1070, -1030, -140, -121, 128, 1000, 1023])
    def test_outside_float32_matches_oracle(self, e):
        # Every block's maximum is 1.5 * 2^e, or 2^e among float64
        # subnormals, so the scale exponents are e - 6: past float32's
        # normal range ([-126, 121]) the operand stays float64, exactly,
        # and below 2^-1074 the values stay as they are.
        rng = np.random.default_rng(e + 2000)
        shape = (2 * BLOCK_SIZE, 3)
        if e < -1022:
            top = 2.0 ** e
            a = rng.integers(-2 ** (e + 1074), 2 ** (e + 1074) + 1, shape) * 2.0 ** -1074
        else:
            top = 1.5 * 2.0 ** e
            a = rng.uniform(-1.5, 1.5, shape) * 2.0 ** e
        a[::BLOCK_SIZE] = top
        a[:BLOCK_SIZE, 1] = rng.standard_normal(BLOCK_SIZE)  # an ordinary block
        got = quantize_activations(a)
        values, exps, facts = quantize_activations_oracle(a)
        assert exps[1][0] == e - 6
        assert got.operand.dtype == np.float64
        assert_same_bits(dequantize_activations(got), values)
        assert (got.l1_bits, got.lo, got.hi) == facts
        if e < -1068:
            assert_same_bits(values[BLOCK_SIZE:], a[BLOCK_SIZE:])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pos", [(0, 0), (31, 2), (40, 0), (63, 2)])
    def test_non_finite_raises(self, bad, pos):
        a = np.ones((2 * BLOCK_SIZE, 3))
        a[pos] = bad
        with pytest.raises(CodecError):
            quantize_activations(a)


class TestLateScaling:
    def test_matches_oracle_random_shapes(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(1, 9)) * 8
            k = int(rng.integers(1, 9)) * BLOCK_SIZE
            n = int(rng.integers(1, 9))
            w = quantize_direct_cast(rng.standard_normal((m, k)))
            a = rng.standard_normal((k, n))
            got = gemm_mxfp4_latescale_f32(w, a)
            ref = gemm_reference(dequantize(w), a)
            denom = max(np.max(np.abs(ref)), 1.0)
            assert np.max(np.abs(got - ref)) / denom < 1e-5

    def test_single_block_hand_value(self):
        # codes all +1.0 (0b0010), scale 2.0, activations all one -> 32*1*2.
        w = make_block_tensor([0b0010] * BLOCK_SIZE, 127 + 1)
        out = gemm_mxfp4_latescale_f32(w, np.ones((BLOCK_SIZE, 1)))
        assert out[0, 0] == 64.0

    def test_identity_weights_exact(self):
        w = quantize_direct_cast(np.eye(64))
        a = np.random.default_rng(6).standard_normal((64, 3))
        assert np.array_equal(gemm_mxfp4_latescale_f32(w, a), a)

    def test_zero_weights(self):
        w = quantize_direct_cast(np.zeros((4, 64)))
        out = gemm_mxfp4_latescale_f32(w, np.ones((64, 2)))
        assert np.all(out == 0.0)

    def test_eq_rational_identity(self):
        # scf * sum(w_i a_i) == sum(scf w_i a_i) exactly over the rationals.
        rng = np.random.default_rng(7)
        for _ in range(50):
            w = [Fraction(int(x)) for x in rng.integers(-6, 7, BLOCK_SIZE)]
            a = [Fraction(int(x)) for x in rng.integers(-9, 10, BLOCK_SIZE)]
            scf = Fraction(2) ** int(rng.integers(-3, 4))
            late = scf * sum(wi * ai for wi, ai in zip(w, a))
            early = sum(scf * wi * ai for wi, ai in zip(w, a))
            assert late == early

    def test_eq_float_block_tolerance(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            w = rng.standard_normal(BLOCK_SIZE)
            a = rng.standard_normal(BLOCK_SIZE)
            scf = 2.0 ** int(rng.integers(-3, 4))
            late = scf * np.sum(w * a)
            early = np.sum(scf * w * a)
            ulp = np.spacing(abs(late)) if late else np.finfo(float).tiny
            assert abs(late - early) <= 8 * ulp


class TestInt8Path:
    @staticmethod
    def _pow2_activations(rng, k, n):
        """Activations whose per-block maximum is exactly 127 * 2^exp."""
        exps = rng.integers(-2, 3, size=(k // BLOCK_SIZE, n))
        ints = rng.integers(-127, 128, size=(k, n)).astype(np.float64)
        blocks = ints.reshape(-1, BLOCK_SIZE, n)
        # Force max|block| to exactly 127 so scale = 2^exp.
        blocks[:, 0, :] = 127.0
        return (blocks * 2.0 ** exps[:, None, :]).reshape(k, n)

    def test_bit_exact_vs_oracle_pow2_scales(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m, k, n = 16, 3 * BLOCK_SIZE, 4
            w = quantize_direct_cast(rng.standard_normal((m, k)))
            a = self._pow2_activations(rng, k, n)
            panel = quantize_activations(a)
            # The activations are their own quantization, at scales 2^exp.
            assert_same_bits(dequantize_activations(panel), a)
            assert -2 <= panel.lo <= panel.hi <= 2
            got = gemm_mxfp4_int8(w, panel)
            ref = gemm_reference(dequantize(w), dequantize_activations(panel))
            assert np.array_equal(got, ref)

    def test_single_block_exact(self):
        w = make_block_tensor([0b0010] * BLOCK_SIZE, 127 + 1)
        panel = quantize_activations(np.full((BLOCK_SIZE, 1), 1.0))
        assert gemm_mxfp4_int8(w, panel)[0, 0] == 64.0

    def test_zero_activations(self):
        w = quantize_direct_cast(np.ones((4, BLOCK_SIZE)))
        panel = quantize_activations(np.zeros((BLOCK_SIZE, 2)))
        assert_same_bits(gemm_mxfp4_int8(w, panel), np.zeros((4, 2)))

    def test_integer_partial_bound(self):
        # Worst term: the largest doubled E2M1 value times the largest
        # |q|, which TERM_BITS bits hold with none to spare.
        lut = mxfp4.fp4_to_int8_lut().astype(np.int64)
        worst = int(np.max(np.abs(lut))) * 127
        assert worst == 1524 and worst.bit_length() == TERM_BITS
        # All-max codes against all-max activations: 32 * 12 * 127 = 48,768
        # in doubled units, 24,384 in values, exactly.
        w = make_block_tensor([0b0111] * BLOCK_SIZE, 127)
        panel = quantize_activations(np.full((BLOCK_SIZE, 1), 127.0))
        assert gemm_mxfp4_int8(w, panel)[0, 0] == 32 * 6 * 127

    def test_shape_mismatch(self):
        w = quantize_direct_cast(np.ones((2, BLOCK_SIZE)))
        panel = quantize_activations(np.ones((2 * BLOCK_SIZE, 1)))
        with pytest.raises(GemmShapeError):
            gemm_mxfp4_int8(w, panel)

    @pytest.mark.parametrize("n", [1, 2, 9, 17, 40])
    @pytest.mark.parametrize("k_blocks", [1, 3])
    def test_matches_einsum_oracle(self, n, k_blocks):
        # Batches of up to 40 columns; one K block leaves each dot product
        # a single block's terms.
        rng = np.random.default_rng(100 + n)
        w = quantize_direct_cast(rng.standard_normal((37, k_blocks * BLOCK_SIZE)))
        a = rng.standard_normal((k_blocks * BLOCK_SIZE, n))
        a *= rng.uniform(1e-3, 1e3, size=(1, n))
        got = gemm_mxfp4_int8(w, quantize_activations(a))
        assert got.tobytes() == einsum_int8_oracle(w, a).tobytes()

    def test_operand_built_on_first_use(self):
        w = np.ones((4, 2 * BLOCK_SIZE))
        w[0, BLOCK_SIZE:] = 256.0
        w = quantize_direct_cast(w)
        assert "folded_operand" not in vars(w)
        gemm_mxfp4_int8(w, quantize_activations(np.ones((2 * BLOCK_SIZE, 1))))
        values, spread, lo, hi = vars(w)["folded_operand"]
        # One (K, rows) float32 matrix, the transposed dequantized weight.
        assert values.dtype == np.float32 and values.shape == (2 * BLOCK_SIZE, 4)
        assert values.flags.c_contiguous
        assert np.array_equal(values.T, dequantize(w))
        # Block maxima 1 and 256: E8M0 exponents -2 and 6, so doubled
        # values' exponents -3 and 5, both in the first row.
        assert (spread, lo, hi) == (8, -3, 5)


def einsum_int8_oracle(w: MxfpTensor, a) -> np.ndarray:
    """The MXFP4 GEMM one column at a time: integer block partials of
    doubled E2M1 values and the quantized q (``quantize_activations_oracle``),
    each times its power of two, summed exactly and rounded once."""
    w_int = mxfp4.fp4_to_int8_lut().astype(np.int64)[w.codes]
    wb = w_int.reshape(w.rows, -1, BLOCK_SIZE)
    w_exps = w.scale_exp.astype(np.int64) - 128  # doubled values: exponent - 1
    values, exps, _ = quantize_activations_oracle(a)
    out = np.zeros((w.rows, a.shape[1]))
    for j in range(a.shape[1]):
        for i in range(w.rows):
            terms = []
            for b, col_exps in enumerate(exps):
                q = (values[b * BLOCK_SIZE:(b + 1) * BLOCK_SIZE, j]
                     / 2.0 ** col_exps[j]).astype(np.int64)
                partial = int(np.dot(wb[i, b], q))
                terms.append(math.ldexp(partial, int(w_exps[i, b]) + col_exps[j]))
            out[i, j] = math.fsum(terms) + 0.0
    return out


class TestWindow:
    """Columns outside the exact-float32 window fall back to the reference
    product of the dequantized operands, with the bits a column gets
    alone, inside a batch of in-window columns, and from the oracle."""

    K = 1024

    @staticmethod
    def count_fallbacks(monkeypatch):
        """The number of columns of each fallback."""
        calls = []
        fallback = qgemm._fallback
        monkeypatch.setattr(qgemm, "_fallback",
                            lambda w, a: calls.append(a.n) or fallback(w, a))
        return calls

    @staticmethod
    def blocks_at_most(x, top):
        """x with every 32-block's largest |value| set to ``top``."""
        x[::BLOCK_SIZE] = top
        return x

    @classmethod
    def weight(cls, rng, wide_row=False):
        # Every block's maximum is 1.5, so the weight's spread is 0; the
        # fallback takes its rows in two parts.
        rows = qgemm.FALLBACK_ROWS + 16
        w = cls.blocks_at_most(rng.uniform(-1.5, 1.5, (rows, cls.K)).T, 1.5).T
        if wide_row:  # block maxima from 2^-12 to 2^8 along one row
            w[5] *= np.repeat(np.exp2(np.arange(cls.K // BLOCK_SIZE) % 21 - 12), BLOCK_SIZE)
        return quantize_direct_cast(w)

    @classmethod
    def columns(cls, rng):
        """Four in-window columns, then the out-of-window ones by kind, an
        all-zero column and an in-window column of spread 4."""
        a = cls.blocks_at_most(rng.uniform(-1.5, 1.5, (cls.K, 9)), 1.5)
        # One block's maximum 2^5 below the rest: s_lo = -11, and 12 times
        # the column's L1 norm, about 9,200, is past 2^(24 - 11).
        a[:BLOCK_SIZE, 4] *= 2.0 ** -5
        a[:, 5] *= 2.0 ** 118  # float32 operands, products past 2^128
        a[:, 6] *= 2.0 ** -130  # float32 subnormals: a float64 operand
        a[:, 7] = 0.0
        a[:BLOCK_SIZE, 7] = -0.0
        # 2^4 below the rest: s_lo = -10, and 15 * L1 < 2^(24 - 10), at the
        # edge of the window, which a spread-based bound puts 1 bit past
        # it: 4 + 11 + log2 K > 24.
        a[:BLOCK_SIZE, 8] *= 2.0 ** -4
        return a

    def check(self, w, a, monkeypatch):
        """The column counts of the fallbacks of the batch, then of each
        column alone."""
        ref = gemm_reference(dequantize(w), dequantize_activations(quantize_activations(a)))
        calls = self.count_fallbacks(monkeypatch)
        batch = gemm_mxfp4_int8(w, quantize_activations(a))
        assert_same_bits(batch, ref)
        assert not np.any(np.signbit(batch) & (batch == 0.0))
        for j in range(a.shape[1]):
            alone = gemm_mxfp4_int8(w, quantize_activations(a[:, j:j + 1]))
            assert_same_bits(alone, batch[:, j:j + 1])
        return calls

    def test_in_window_batch_is_one_sgemm(self, monkeypatch):
        rng = np.random.default_rng(30)
        a = self.columns(rng)
        assert self.check(self.weight(rng), a[:, [0, 1, 2, 3, 7, 8]], monkeypatch) == []

    def test_l1_bound_edge(self, monkeypatch):
        # The spread-4 column sits at the window's edge and stays in it;
        # the spread-5 one is past the L1 bound itself, not only past its
        # 15 / 12 margin, and falls back.
        rng = np.random.default_rng(38)
        w, a = self.weight(rng), self.columns(rng)
        for col, l1_bits, lo, calls in ((8, 24, -10, []), (4, 25, -11, [1, 1])):
            panel = quantize_activations(a[:, col:col + 1])
            assert (w.folded_operand[1], panel.l1_bits, panel.lo) == (0, l1_bits, lo)
            l1 = sum(abs(Fraction(float(v))) for v in panel.operand[0])
            assert (12 * l1 > 2 ** (24 + lo)) == (col == 4)
            assert self.check(w, a[:, [col]], monkeypatch) == calls

    @pytest.mark.parametrize("col", [4, 5, 6])
    def test_out_of_window_column(self, col, monkeypatch):
        rng = np.random.default_rng(31 + col)
        a = self.columns(rng)
        # The batch falls back, and so does the column alone: no other.
        assert self.check(self.weight(rng), a[:, [0, col, 1, 7]], monkeypatch) == [4, 1]

    def test_wide_weight_row(self, monkeypatch):
        rng = np.random.default_rng(35)
        w = self.weight(rng, wide_row=True)
        assert w.folded_operand[1] == 20
        # Every column meets the wide row, so every call falls back, zero
        # column included.
        assert self.check(w, self.columns(rng)[:, [0, 1, 7]], monkeypatch) == [3, 1, 1, 1]

    @pytest.mark.parametrize("w_exp, a_exp", [(-100, -50), (-125, 0), (128, 0)])
    def test_products_or_weights_outside_float32(self, w_exp, a_exp, monkeypatch):
        # Normal float32 operands whose products fall below 2^-126, and
        # weights below or above float32's normal range, which get no W'.
        rng = np.random.default_rng(37)
        w = quantize_direct_cast(np.asarray(self.weight(rng).folded_operand[0].T,
                                            dtype=np.float64) * 2.0 ** w_exp)
        assert (w.folded_operand[0] is None) == (w_exp != -100)
        a = self.columns(rng)[:, [0, 1, 7]] * 2.0 ** a_exp
        # Against W' the zero column alone is in the window: its exponent
        # counts as -7.
        calls = [3, 1, 1] if w_exp == -100 else [3, 1, 1, 1]
        assert self.check(w, a, monkeypatch) == calls

    def test_in_window_sum_is_exact(self):
        # Inside the window the float32 sum is the exact one, whatever
        # order BLAS adds in, so it equals the rational oracle's.
        rng = np.random.default_rng(36)
        w = self.weight(rng)
        a = self.columns(rng)[:, [0, 1, 8]]
        assert_same_bits(gemm_mxfp4_int8(w, quantize_activations(a)),
                         einsum_int8_oracle(w, a))


class TestBench:
    def test_bytes_formula(self):
        shape = GemmShape(8192, 1, 8192)
        want = int(8192 * 8192 * 4.25 / 8) + 8192 * 4 * 2
        assert gemm_bytes(shape, "latescale_f32") == want
        # The int8 path reads one float32 activation operand, scales folded.
        assert gemm_bytes(shape, "int8") == want
        assert gemm_bytes(shape, "reference") == 8192 * 8192 * 4 + 8192 * 4 * 2

    def test_weight_compression_ratios(self):
        shape = GemmShape(256, 1, 256)
        f32_w = 256 * 256 * 4
        mx_w = int(256 * 256 * 4.25 / 8)
        assert f32_w / mx_w == pytest.approx(32 / 4.25)  # 7.53x vs f32
        assert (f32_w / 2) / mx_w == pytest.approx(16 / 4.25)  # 3.76x vs bf16

    def test_reference_bench_times_a_stationary_weight(self, monkeypatch):
        splits = []
        row_slices = qgemm.row_slices
        monkeypatch.setattr(qgemm, "row_slices",
                            lambda x, bits, count, **kw: splits.append(count) or
                            row_slices(x, bits, count, **kw))
        res = gemm_bench(GemmShape(64, 2, 64), "reference")
        assert res.seconds > 0
        # The weight is split once, in warm-up; each call splits activations.
        assert splits.count(qgemm.W_SLICES) == 1
        assert splits.count(qgemm.A_SLICES) == 9 + 2

    def test_int8_bench_times_quantize_and_gemm(self, monkeypatch):
        calls = []
        for name in ("quantize_activations", "gemm_mxfp4_int8"):
            real = getattr(qgemm, name)
            monkeypatch.setattr(qgemm, name, lambda *a, _real=real, _name=name:
                                calls.append(_name) or _real(*a))
        gemm_bench(GemmShape(64, 2, 64), "int8")
        # Each warm-up and timed call quantizes, as a model's linear does.
        assert calls == ["quantize_activations", "gemm_mxfp4_int8"] * (2 + 9)

    def test_bench_smoke(self):
        res = gemm_bench(GemmShape(64, 2, 64), "int8")
        assert isinstance(res, BenchResult)
        assert res.seconds > 0 and res.gbps > 0
        assert res.csv_row().startswith("int8,64,2,64,")

    def test_shape_validation(self):
        with pytest.raises(GemmShapeError):
            GemmShape(8, 1, 33)
