"""Weight-quantized GEMM kernels for the skinny-N shapes of draft/verify.

Three paths sharing one arithmetic contract:

* ``gemm_reference``     — float GEMM, the oracle everything is checked
                           against (dequantize-then-multiply), and the
                           unquantized target's arithmetic.
* ``gemm_mxfp4_latescale_f32`` — decodes E2M1 weights to float, accumulates
                           each 32-element block, then applies the block
                           scale once to the partial accumulator.
* ``gemm_mxfp4_int8``    — integer fast path: weights via the x2 FP4->int8
                           lookup table against int8 activations, one
                           integer partial per block, scaled by
                           weight_scale * activation_scale * 2^-1.

The int8 path is weights-stationary. Each MxfpTensor packs its LUT values
as float32 in (block, row, 32) layout once, on first use
(``MxfpTensor.int_operand``), and one batched BLAS matmul per call gives
the partials of every block, row and column. That is exact: a partial is
an integer of magnitude at most INT_PARTIAL_BOUND = 48,768 < 2^24, and so
is every partial sum of its terms, so float32 represents each step and any
summation order BLAS picks gives the same bits. Only the cross-block sum
of scaled partials is rounded, and ``fold_sum`` does it in a fixed order.

``gemm_reference`` is exact the same way, after an Ozaki-style error-free
split (Ozaki et al. 2012, Numer. Algorithms 59). A ``FloatWeight`` stores
each row as two integer-valued float64 slices of 26 bits under one
power-of-two row exponent, built on first use; the slices replace the
float64 values whenever they rebuild them exactly, which every
float32-valued row with at most 28 bits of dynamic range does. Each call
splits every activation column into three slices of 53 - 26 - ceil(log2 K)
bits under one column exponent. A slice dot product is then an integer
below 2^53, so one float64 BLAS matmul per 64 columns gives all six slice
products exactly, whatever order or thread count BLAS uses. Only the sum
of the six scaled products is rounded, in a fixed order.

So every path's result for a column depends only on that column: it is
independent of N-batching and of the thread count. The MXFP4 paths take
their parallelism from worker threads over disjoint output row ranges, the
reference path from BLAS.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mxfp4 import (
    BITS_PER_ELEMENT,
    BLOCK_SIZE,
    CodecError,
    MxfpTensor,
    decoded_weights,
)

# max |LUT entry| * max |int8| * block size = 12 * 127 * 32
INT_PARTIAL_BOUND = 48_768

# Output columns per block reduction in the int8 kernel; bounds its
# (blocks, rows, columns) temporaries for long prefills.
COL_CHUNK = 16

# The reference kernel's slicing: W_SLICES weight slices of W_SLICE_BITS
# bits and A_SLICES activation slices, so a product of one weight slice and
# one activation slice leaves ceil(log2 K) bits of headroom below 2^53.
# ``_join`` and the kernel's final sum are written out for 2 and 3 slices.
W_SLICES = 2
W_SLICE_BITS = 26
A_SLICES = 3

# Output columns per slice matmul in the reference kernel; bounds its
# (slices, columns, rows) temporaries for long prefills.
SLICE_COL_CHUNK = 64

GEMM_PATHS = ("reference", "latescale_f32", "int8")


def fold_sum(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Pairwise-tree float summation with a layout-independent result.

    numpy's own reductions vectorize with alignment-dependent peeling, so
    their rounding can change with the buffer an operand happens to live in.
    A fixed halving tree built from elementwise adds is bit-deterministic,
    which the batch-equals-incremental and thread-invariance contracts need.
    """
    x = np.asarray(x, dtype=np.float64)
    if not -x.ndim <= axis < x.ndim:
        raise ValueError(f"axis {axis} out of range for {x.ndim}-D input")
    axis %= x.ndim
    lead = (slice(None),) * axis  # index along ``axis`` in place
    if x.shape[axis] == 0:
        return np.zeros(x.shape[:axis] + x.shape[axis + 1:])
    while (n := x.shape[axis]) > 1:
        half = n // 2
        y = x[lead + (slice(0, 2 * half, 2),)] + x[lead + (slice(1, 2 * half, 2),)]
        if n % 2:
            y = np.concatenate([y, x[lead + (slice(n - 1, n),)]], axis=axis)
        x = y
    return x[lead + (0,)]


class GemmShapeError(ValueError):
    """Operand shapes do not conform."""


@dataclass
class QuantizedActivationPanel:
    """Per-(32-row-block, column) symmetric int8 activations.

    values: int8, shape (K, N); scales: float, shape (K // 32, N).
    Dequantized activation = value * scale.
    """

    values: np.ndarray
    scales: np.ndarray

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class GemmShape:
    m: int
    n: int
    k: int

    def __post_init__(self):
        if self.m <= 0 or self.n <= 0 or self.k <= 0:
            raise GemmShapeError(f"non-positive dimension in {self}")
        if self.k % BLOCK_SIZE:
            raise GemmShapeError(f"K={self.k} not divisible by {BLOCK_SIZE}")


def default_threads() -> int:
    return max(1, int(os.environ.get("SPECQD_THREADS", "1")))


def _row_chunks(m: int, n_threads: int):
    n_threads = min(n_threads, m)
    bounds = np.linspace(0, m, n_threads + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _parallel_rows(kernel, m: int, n_threads: int) -> np.ndarray:
    """Run ``kernel(row_lo, row_hi)`` over disjoint row ranges and stack.

    Each row is computed by the same sequential reduction regardless of the
    chunking, so outputs are bit-identical for any thread count.
    """
    if min(m, n_threads) <= 1:
        return kernel(0, m)
    chunks = _row_chunks(m, n_threads)
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        parts = list(pool.map(lambda c: kernel(*c), chunks))
    return np.concatenate(parts, axis=0)


class FloatWeight:
    """A float weight held as the reference GEMM's exact-slice operand.

    ``values`` holds the (M, K) matrix until the first GEMM reads
    ``slices``, which splits every row into ``W_SLICES`` integer-valued
    float64 slices of ``W_SLICE_BITS`` bits under one power-of-two row
    exponent. If the slices rebuild every value bit for bit, ``values``
    becomes None, so a model keeps one copy of its weights, not two. That
    holds for every float32-valued row whose dynamic range is at most
    52 - 24 = 28 bits. ``np.asarray`` gives the values either way.
    """

    def __init__(self, values):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise GemmShapeError(f"a weight must be 2-D, got shape {values.shape}")
        self.shape = values.shape
        self.values = values

    @cached_property
    def slices(self):
        """(slices of shape (K, W_SLICES * M), scales of shape (W_SLICES, M)).

        Column s * M + i holds slice s of row i, and that row is
        sum_s slice_s * scales[s, i] up to a remainder below 2^-51 times
        its largest magnitude. ``CodecError`` for a non-finite value.
        """
        values = self.values
        exps = _exponents(values)
        parts = _split(values, exps[:, None], W_SLICE_BITS, W_SLICES)
        # So that a -0.0 weight rebuilds as -0.0.
        np.copysign(parts[-1], values, out=parts[-1])
        steps = W_SLICE_BITS * np.arange(1, W_SLICES + 1)[:, None]
        scales = np.ldexp(1.0, exps - steps)
        rebuilt = _join(parts, scales)
        if (np.array_equal(rebuilt, values)
                and np.array_equal(np.signbit(rebuilt), np.signbit(values))):
            self.values = None
        return np.ascontiguousarray(parts.reshape(-1, self.shape[1]).T), scales

    def __array__(self, dtype=None, copy=None):
        values = self.values
        if values is None:
            parts, scales = self.slices
            values = _join(parts.T.reshape(W_SLICES, *self.shape), scales)
        elif copy:
            values = values.copy()
        return values if dtype is None else values.astype(dtype, copy=False)


def _exponents(x: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Per-row e with max|row| < 2^e (0 for a zero row); ``CodecError``
    if a row holds a non-finite value. |x| goes to ``work`` (x's shape)
    when given."""
    absmax = np.abs(x, out=work).max(axis=1)
    if not np.isfinite(absmax).all():
        raise CodecError("exact slice products require finite operands")
    return np.frexp(absmax)[1]


def _split(x: np.ndarray, exps: np.ndarray, bits: int, count: int,
           out: np.ndarray | None = None) -> np.ndarray:
    """``count`` integer-valued slices of ``bits`` bits each, so that
    x = sum_s out[s] * 2^(exps - bits * (s + 1)) plus a remainder below
    2^(exps - bits * count). Each step is exact: scaling by a power of two,
    truncating, and subtracting the truncation. The slices go to ``out``
    (shape (count,) + x.shape) when given, whose last slice also holds the
    remainder as it shrinks, so no other array is allocated; that slice
    may be x itself."""
    if out is None:
        out = np.empty((count,) + x.shape)
    rest = np.ldexp(x, bits - exps, out=out[-1])
    for s in range(count - 1):
        np.trunc(rest, out=out[s])
        rest -= out[s]
        rest *= 2.0 ** bits
    np.trunc(rest, out=rest)
    return out


def _join(parts: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """The values that two weight slices and their row scales stand for."""
    return parts[0] * scales[0][:, None] + parts[1] * scales[1][:, None]


def gemm_reference(w, a: np.ndarray, n_threads: int | None = None) -> np.ndarray:
    """Float GEMM (M x K) @ (K x N); the comparison baseline.

    ``w`` is a ``FloatWeight``, or any 2-D array, which becomes one for
    this call. Each activation column is split into ``A_SLICES``
    integer-valued slices of b = 53 - W_SLICE_BITS - ceil(log2 K) bits
    under one power-of-two column exponent, so the dot product of a weight
    slice and an activation slice is an integer below 2^53, exact in
    float64 in whatever order BLAS sums it. One float64 matmul per
    ``SLICE_COL_CHUNK`` columns gives all six slice products; they are
    scaled by powers of two (exact) and summed in a fixed order. A
    column's result therefore depends only on that column and the weight:
    it is the same alone, inside any batch and at any BLAS thread count.
    Against the exact product, for operands and results in float64's
    normal range, the error is below
    K * max|w[i, :]| * max|a[:, j]| * (2^(1 - 3b) + 2^-49).

    ``n_threads`` is accepted and ignored: BLAS gives the parallelism.
    Raises ``CodecError`` for a non-finite operand.
    """
    if not isinstance(w, FloatWeight):
        w = FloatWeight(w)
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or w.shape[1] != a.shape[0]:
        raise GemmShapeError(f"cannot multiply {w.shape} by {a.shape}")
    (m, k), n = w.shape, a.shape[1]
    if min(m, k, n) == 0:
        return np.zeros((m, n))
    w_parts, w_scales = w.slices
    bits = 53 - W_SLICE_BITS - (k - 1).bit_length()
    steps = np.exp2(-bits * np.arange(1, A_SLICES + 1))[:, None]
    a_rows = np.ascontiguousarray(a.T)
    a_exps = _exponents(a_rows)
    out = np.empty((m, n))
    for j in range(0, n, SLICE_COL_CHUNK):
        cols = slice(j, j + SLICE_COL_CHUNK)
        e = a_exps[cols]
        parts = _split(a_rows[cols], e[:, None], bits, A_SLICES)
        # (activation slice, column, weight slice, row)
        prod = (parts.reshape(-1, k) @ w_parts).reshape(A_SLICES, -1, W_SLICES, m)
        prod *= np.ldexp(steps, e)[:, :, None, None]
        prod *= w_scales
        # Sum over weight slices, then over activation slices, most
        # significant first.
        by_a = prod[:, :, 0] + prod[:, :, 1]
        out[:, cols] = ((by_a[0] + by_a[1]) + by_a[2]).T
    return out


def quantize_activations(a: np.ndarray) -> QuantizedActivationPanel:
    """Symmetric int8 quantization, one scale per (32-row block, column).

    scale = max|block| / 127 (1.0 for an all-zero block); values rounded
    half-to-even and clamped to [-127, 127].
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] % BLOCK_SIZE:
        raise GemmShapeError(f"activation shape {a.shape} not K-blockable")
    if not np.all(np.isfinite(a)):
        raise CodecError("quantize_activations requires finite inputs")
    k, n = a.shape
    blocks = a.reshape(-1, BLOCK_SIZE, n)
    absmax = np.max(np.abs(blocks), axis=1)
    scales = np.where(absmax == 0.0, 1.0, absmax / 127.0)
    q = np.round(blocks / scales[:, None, :])
    values = np.clip(q, -127, 127).astype(np.int8).reshape(k, n)
    return QuantizedActivationPanel(values=values, scales=scales)


def dequantize_activations(panel: QuantizedActivationPanel) -> np.ndarray:
    blocks = panel.values.astype(np.float64).reshape(-1, BLOCK_SIZE, panel.n)
    return (blocks * panel.scales[:, None, :]).reshape(panel.k, panel.n)


def _check_weight_act(w: MxfpTensor, k: int):
    if w.padded_cols != k:
        raise GemmShapeError(
            f"weight K={w.padded_cols} does not match activation K={k}"
        )


def gemm_mxfp4_latescale_f32(
    w: MxfpTensor, a: np.ndarray, n_threads: int | None = None
) -> np.ndarray:
    """Late-scaling float path: scf * sum(w_i * a_i) per 32-element block."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise GemmShapeError(f"activations must be 2-D, got {a.shape}")
    _check_weight_act(w, a.shape[0])
    if n_threads is None:
        n_threads = default_threads()
    decoded, scales = decoded_weights(w)
    n = a.shape[1]
    a_blocks = a.reshape(-1, BLOCK_SIZE, n)

    def kernel(lo, hi):
        wb = decoded[lo:hi].reshape(hi - lo, -1, BLOCK_SIZE)
        sc = scales[lo:hi]
        cols = []
        for j in range(n):
            partial = fold_sum(wb * a_blocks[None, :, :, j], axis=2)
            cols.append(fold_sum(partial * sc, axis=1))
        return np.stack(cols, axis=1)

    return _parallel_rows(kernel, w.rows, n_threads)


def gemm_mxfp4_int8(
    w: MxfpTensor, a: QuantizedActivationPanel, n_threads: int | None = None
) -> np.ndarray:
    """Integer LUT path: exact block dot products, late-scaled once per block.

    The (block, row, column) partials come from one float32 BLAS matmul per
    ``COL_CHUNK`` columns, exactly (see the module docstring). The output
    scale folds in the LUT's x2 compensation as
    weight_scale * activation_scale * 0.5.
    """
    _check_weight_act(w, a.k)
    if n_threads is None:
        n_threads = default_threads()
    w_vals, w_scales = w.int_operand
    # Columns lead and rows trail, so the scaling broadcasts along rows.
    act = a.values.astype(np.float32).reshape(-1, BLOCK_SIZE, a.n).transpose(0, 2, 1)
    a_scales = (a.scales * 0.5)[:, :, None]

    def kernel(lo, hi):
        w_t = w_vals[:, lo:hi].transpose(0, 2, 1)
        sc = w_scales[lo:hi].T[:, None, :]
        out = np.empty((hi - lo, a.n))
        for j in range(0, a.n, COL_CHUNK):
            cols = slice(j, j + COL_CHUNK)
            partial = np.matmul(act[:, cols], w_t)
            out[:, cols] = fold_sum(partial * (sc * a_scales[:, cols]), axis=0).T
        return out

    return _parallel_rows(kernel, w.rows, n_threads)


def gemm_bytes(shape: GemmShape, path: str) -> int:
    """Compulsory traffic per iteration: weights + activations + output once.

    MXFP4 weights count 4.25 bits/element; the reference path counts 32-bit
    float weights. Activations and output count as 32-bit floats.
    """
    if path not in GEMM_PATHS:
        raise ValueError(f"unknown gemm path {path!r}")
    if path == "reference":
        weight_bytes = shape.m * shape.k * 4
    else:
        weight_bytes = int(shape.m * shape.k * BITS_PER_ELEMENT / 8)
    act_bytes = shape.k * shape.n * (1 if path == "int8" else 4)
    if path == "int8":
        act_bytes += (shape.k // BLOCK_SIZE) * shape.n * 4  # activation scales
    out_bytes = shape.m * shape.n * 4
    return weight_bytes + act_bytes + out_bytes


@dataclass
class BenchResult:
    path: str
    shape: GemmShape
    bytes_per_iter: int
    seconds: float
    gbps: float

    def csv_row(self) -> str:
        s = self.shape
        return (
            f"{self.path},{s.m},{s.n},{s.k},{self.bytes_per_iter},"
            f"{self.seconds:.9f},{self.gbps:.6f}"
        )


BENCH_CSV_HEADER = "path,M,N,K,bytes,seconds,gbps"


def gemm_bench(
    shape: GemmShape,
    path: str = "int8",
    repetitions: int = 9,
    warmups: int = 2,
    rng: np.random.Generator | None = None,
) -> BenchResult:
    """Median-of-repetitions timing of one kernel invocation."""
    if path not in GEMM_PATHS:
        raise ValueError(f"unknown gemm path {path!r}")
    repetitions = max(9, repetitions)
    rng = rng or np.random.default_rng(0)
    w_f = rng.standard_normal((shape.m, shape.k))
    a = rng.standard_normal((shape.k, shape.n))
    # Each weight is stationary: the float slices, like the int8 operand,
    # are built by the first warm-up call, not timed.
    if path == "reference":
        w_ref = FloatWeight(w_f)
        run = lambda: gemm_reference(w_ref, a)
    else:
        from .mxfp4 import quantize_direct_cast

        w_q = quantize_direct_cast(w_f)
        if path == "latescale_f32":
            run = lambda: gemm_mxfp4_latescale_f32(w_q, a)
        else:
            panel = quantize_activations(a)
            run = lambda: gemm_mxfp4_int8(w_q, panel)
    for _ in range(max(1, warmups)):
        run()
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    seconds = float(np.median(times))
    nbytes = gemm_bytes(shape, path)
    return BenchResult(path, shape, nbytes, seconds, nbytes / seconds / 1e9)
