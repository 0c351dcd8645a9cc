from fractions import Fraction

import numpy as np
import pytest

from specqd import mxfp4, qgemm
from specqd.mxfp4 import BLOCK_SIZE, MxfpTensor, dequantize, quantize_direct_cast
from specqd.qgemm import (
    INT_PARTIAL_BOUND,
    BenchResult,
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

    @staticmethod
    def per_column_oracle(w, a):
        """The kernel before column grouping: one fold per output column."""
        return np.stack(
            [fold_sum(w * a[:, j][None, :], axis=1) for j in range(a.shape[1])],
            axis=1,
        )

    # (M, K): M*K below 2^16 groups columns, at or above it does not.
    @pytest.mark.parametrize("m,k", [(64, 32), (40, 48), (96, 96),
                                     (2048, 32), (700, 96)])
    def test_matches_per_column_oracle(self, m, k):
        rng = np.random.default_rng(m * k)
        w = rng.standard_normal((m, k))
        # Signed-zero products: row 0 gives -0.0 against a non-negative
        # column 0, row 1 gives +0.0, and row 2 mixes both signs.
        w[0], w[1], w[2, ::2] = -0.0, 0.0, -0.0
        g = max(1, qgemm.REF_CHUNK // (m * k))
        for n in sorted({1, max(1, g - 1), g, g + 1, 400}):
            a = rng.standard_normal((k, n))
            a[:, 0] = np.abs(a[:, 0])
            want = self.per_column_oracle(w, a)
            assert np.signbit(want[0, 0]) and not np.signbit(want[1, 0])
            want = want.tobytes()
            for threads in (1, 3):
                assert gemm_reference(w, a, n_threads=threads).tobytes() == want

    def test_empty_operands(self):
        assert gemm_reference(np.ones((0, 32)), np.ones((32, 3))).shape == (0, 3)
        assert gemm_reference(np.ones((4, 32)), np.ones((32, 0))).shape == (4, 0)
        assert np.array_equal(
            gemm_reference(np.ones((3, 0)), np.ones((0, 5))), np.zeros((3, 5))
        )


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


class TestActivationQuantization:
    def test_zero_block(self):
        p = quantize_activations(np.zeros((BLOCK_SIZE, 2)))
        assert np.all(p.values == 0) and np.all(p.scales == 1.0)

    def test_max_127_block(self):
        a = np.zeros((BLOCK_SIZE, 1))
        a[0, 0], a[1, 0] = 127.0, -42.4
        p = quantize_activations(a)
        assert p.scales[0, 0] == 1.0
        assert p.values[0, 0] == 127 and p.values[1, 0] == -42

    def test_half_integer_ties_to_even(self):
        a = np.zeros((BLOCK_SIZE, 1))
        a[0, 0], a[1, 0] = -127.0, 63.5
        p = quantize_activations(a)
        assert p.values[1, 0] == 64

    def test_range_bound(self):
        rng = np.random.default_rng(4)
        p = quantize_activations(rng.standard_normal((64, 4)) * 100)
        assert np.max(np.abs(p.values.astype(int))) <= 127

    def test_per_column_scales(self):
        a = np.ones((BLOCK_SIZE, 2))
        a[:, 1] *= 254.0
        p = quantize_activations(a)
        assert p.scales[0, 0] != p.scales[0, 1]


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
        """Activations whose per-block scale is exactly a power of two."""
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
            assert np.all(np.exp2(np.log2(panel.scales)) == panel.scales)
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
        assert np.all(gemm_mxfp4_int8(w, panel) == 0.0)

    def test_integer_partial_bound(self):
        # Worst case: all-max codes against all-max activations.
        w = make_block_tensor([0b0111] * BLOCK_SIZE, 127)
        lut = mxfp4.fp4_to_int8_lut().astype(np.int64)
        worst = int(np.sum(lut[w.codes[0]] * 127))
        assert worst == INT_PARTIAL_BOUND
        # float32 holds every integer up to 2^24 exactly, so the kernel's
        # BLAS partials are exact in any summation order.
        assert INT_PARTIAL_BOUND < 2**24

    def test_shape_mismatch(self):
        w = quantize_direct_cast(np.ones((2, BLOCK_SIZE)))
        panel = quantize_activations(np.ones((2 * BLOCK_SIZE, 1)))
        with pytest.raises(GemmShapeError):
            gemm_mxfp4_int8(w, panel)

    @pytest.mark.parametrize("n", [1, 2, 9, 17, 40])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_matches_einsum_oracle(self, n, threads):
        # 17 and 40 columns cross the kernel's column chunks.
        assert qgemm.COL_CHUNK < 17
        rng = np.random.default_rng(100 + n)
        w = quantize_direct_cast(rng.standard_normal((37, 5 * BLOCK_SIZE)))
        a = rng.standard_normal((5 * BLOCK_SIZE, n))
        panel = quantize_activations(a * rng.uniform(1e-3, 1e3, size=(1, n)))
        got = gemm_mxfp4_int8(w, panel, threads)
        assert got.tobytes() == einsum_int8_oracle(w, panel).tobytes()

    def test_operand_built_on_first_use(self):
        w = quantize_direct_cast(np.ones((4, BLOCK_SIZE)))
        assert "int_operand" not in vars(w)
        gemm_mxfp4_int8(w, quantize_activations(np.ones((BLOCK_SIZE, 1))))
        values, scales = vars(w)["int_operand"]
        assert values.dtype == np.float32 and values.shape == (1, 4, BLOCK_SIZE)
        assert scales.shape == (4, 1)


def einsum_int8_oracle(w: MxfpTensor, a) -> np.ndarray:
    """The int8 kernel as a per-column integer einsum, one column at a time."""
    w_int = mxfp4.fp4_to_int8_lut().astype(np.int32)[w.codes]
    wb = w_int.reshape(w.rows, -1, BLOCK_SIZE)
    act = a.values.astype(np.int32).reshape(-1, BLOCK_SIZE, a.n)
    sc = np.exp2(w.scale_exp.astype(np.float64) - 127.0)
    cols = []
    for j in range(a.n):
        partial = np.einsum("mbk,bk->mb", wb, act[:, :, j], optimize=False)
        cols.append(fold_sum(partial * (sc * (a.scales[None, :, j] * 0.5)), axis=1))
    return np.stack(cols, axis=1)


class TestThreadInvariance:
    def test_all_paths(self):
        rng = np.random.default_rng(10)
        w_f = rng.standard_normal((33, 2 * BLOCK_SIZE))
        a = rng.standard_normal((2 * BLOCK_SIZE, 5))
        w_q = quantize_direct_cast(w_f)
        panel = quantize_activations(a)
        for threads in (2, 3, 8):
            assert np.array_equal(gemm_reference(w_f, a, 1),
                                  gemm_reference(w_f, a, threads))
            assert np.array_equal(gemm_mxfp4_latescale_f32(w_q, a, 1),
                                  gemm_mxfp4_latescale_f32(w_q, a, threads))
            assert np.array_equal(gemm_mxfp4_int8(w_q, panel, 1),
                                  gemm_mxfp4_int8(w_q, panel, threads))


class TestBench:
    def test_bytes_formula(self):
        shape = GemmShape(8192, 1, 8192)
        want = int(8192 * 8192 * 4.25 / 8) + 8192 * 4 * 2
        assert gemm_bytes(shape, "latescale_f32") == want

    def test_weight_compression_ratios(self):
        shape = GemmShape(256, 1, 256)
        f32_w = 256 * 256 * 4
        mx_w = int(256 * 256 * 4.25 / 8)
        assert f32_w / mx_w == pytest.approx(32 / 4.25)  # 7.53x vs f32
        assert (f32_w / 2) / mx_w == pytest.approx(16 / 4.25)  # 3.76x vs bf16

    def test_bench_smoke(self):
        res = gemm_bench(GemmShape(64, 2, 64), "int8", repetitions=9)
        assert isinstance(res, BenchResult)
        assert res.seconds > 0 and res.gbps > 0
        assert res.csv_row().startswith("int8,64,2,64,")

    def test_shape_validation(self):
        with pytest.raises(GemmShapeError):
            GemmShape(8, 1, 33)
