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
as float32 in a contiguous (block, 32, row) layout once, on first use
(``MxfpTensor.int_operand``): every block is a row-major (32, rows)
matrix, so one batched BLAS matmul per call gives the partials of every
block, column and row without a transposed operand. That is exact: a
partial is an integer of magnitude at most INT_PARTIAL_BOUND = 48,768 <
2^24, and so is every partial sum of its terms, so float32 represents each
step and any summation order BLAS picks gives the same bits. Only the
cross-block sum of scaled partials is rounded, and ``fold_sum`` does it in
a fixed order.

``gemm_reference`` is exact the same way, after an Ozaki-style error-free
split (Ozaki et al. 2012, Numer. Algorithms 59) that attention in
``tinylm`` shares. ``row_slices`` cuts each weight row into two slices of
26 bits and each activation column into three of 53 - 26 - ceil(log2 K)
bits (``slice_bits``), each slice an integer times a power of two set by
its row's magnitude. A slice dot product is then an integer below 2^53
times one power of two, so one float64 BLAS matmul gives all six slice
products exactly, whatever order or thread count BLAS uses. Only their
sum is rounded, in a fixed order (``slice_matmul``). A ``FloatWeight``
keeps its slices instead of its values whenever they rebuild them
exactly, which every float32-valued row with at most 28 bits of dynamic
range does.

So every path's result for a column depends only on that column: it is
independent of N-batching and of the BLAS thread count. Every path runs
in the calling thread; BLAS is the only source of parallelism.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
# (blocks, columns, rows) temporaries for long prefills.
COL_CHUNK = 16

# The exact-slice format: W_SLICES weight slices of W_SLICE_BITS bits and
# A_SLICES activation slices of ``slice_bits(K)`` bits. ``FloatWeight`` and
# ``slice_matmul`` write their sums out for 2 and 3 slices.
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
    """The threads a kernel runs on: always 1, the calling thread, since
    BLAS is the only source of parallelism. Kept because the benchmark
    reports it as its ``specqd_threads`` fact."""
    return 1


class FloatWeight:
    """A float weight held as the reference GEMM's exact-slice operand.

    ``values`` holds the (M, K) matrix until the first GEMM reads
    ``slices``, which cuts every row into ``W_SLICES`` slices of
    ``W_SLICE_BITS`` bits (``row_slices``). If the slices rebuild every
    value bit for bit, ``values`` becomes None, so a model keeps one copy
    of its weights, not two. That holds for every float32-valued row whose
    dynamic range is at most 52 - 24 = 28 bits. ``np.asarray`` gives the
    values either way.
    """

    def __init__(self, values):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise GemmShapeError(f"a weight must be 2-D, got shape {values.shape}")
        self.shape = values.shape
        self.values = values

    @cached_property
    def slices(self) -> np.ndarray:
        """Shape (K, M * W_SLICES): column i * W_SLICES + s holds slice s
        of row i (``row_slices``). ``CodecError`` for a non-finite value."""
        values = self.values
        parts = row_slices(values, W_SLICE_BITS, W_SLICES)
        # So that a -0.0 weight rebuilds as -0.0.
        np.copysign(parts[-1], values, out=parts[-1])
        rebuilt = parts[0] + parts[1]
        if (np.array_equal(rebuilt, values)
                and np.array_equal(np.signbit(rebuilt), np.signbit(values))):
            self.values = None
        return np.ascontiguousarray(parts.transpose(2, 1, 0)).reshape(self.shape[1], -1)

    def __array__(self, dtype=None, copy=None):
        values = self.values
        if values is None:
            parts = self.slices.T.reshape(self.shape[0], W_SLICES, -1)
            values = np.add(parts[:, 0], parts[:, 1], out=np.empty(self.shape))
        elif copy:
            values = values.copy()
        return values if dtype is None else values.astype(dtype, copy=False)


def slice_bits(k: int, w_bits: int = W_SLICE_BITS) -> int:
    """The activation-slice width for dot products of length k: k products
    of such a slice and a slice of ``w_bits`` bits sum exactly in float64,
    in any order. With ``w_bits`` = 0, k values in [0, 1] do."""
    return 53 - w_bits - (k - 1).bit_length()


def row_exponents(x: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Per-row e with max|row| < 2^e over x's last axis (0 for a zero
    row), shape x.shape[:-1] + (1,). ``CodecError`` if a row holds a
    non-finite value. |x| goes to ``work`` (x's shape) when given."""
    absmax = np.abs(x, out=work).max(axis=-1, keepdims=True)
    if not np.isfinite(absmax).all():
        raise CodecError("exact slice products require finite operands")
    return np.frexp(absmax)[1]


def row_slices(x: np.ndarray, bits: int, count: int, out: np.ndarray | None = None,
               exps=None, work: np.ndarray | None = None) -> np.ndarray:
    """``count`` slices of every row of x (its last axis): slice s is an
    integer of ``bits`` bits times 2^(e - bits * (s + 1)), for e the row's
    ``exps`` (``row_exponents(x, work)`` unless given), and the slices sum
    to the row up to a remainder below 2^(e - bits * count). Each step is
    exact in float64's normal range. The slices go to ``out`` (shape
    (count,) + x.shape) when given, whose last slice also holds the
    remainder as it shrinks, so no other array of x's size is allocated;
    that slice may be x itself."""
    if exps is None:
        exps = row_exponents(x, work)
    if out is None:
        out = np.empty((count,) + x.shape)
    rest = np.ldexp(x, bits - exps, out=out[-1])
    for s in range(count - 1):
        np.trunc(rest, out=out[s])
        rest -= out[s]
        rest *= 2.0 ** bits
    np.trunc(rest, out=rest)
    out *= np.ldexp(_slice_steps(bits, count, x.ndim), exps)
    return out


@lru_cache(maxsize=None)
def _slice_steps(bits: int, count: int, ndim: int) -> np.ndarray:
    """2^(-bits * (s + 1)) for slice s, to broadcast over ``ndim``-D rows."""
    steps = np.exp2(-bits * np.arange(1.0, count + 1)).reshape((count,) + (1,) * ndim)
    steps.flags.writeable = False  # shared by every caller
    return steps


def slice_matmul(a_parts: np.ndarray, w_parts: np.ndarray, out: np.ndarray | None = None,
                 work: np.ndarray | None = None) -> np.ndarray:
    """(..., N, M): activation slices (A_SLICES, ..., N, K) times weight
    slices (..., K, M * W_SLICES), column i * W_SLICES + s holding slice s
    of row i. One BLAS matmul, over every slice and column when the weight
    is 2-D, gives the six slice products, exact when ``slice_bits`` set
    the widths. They go to ``work`` (contiguous) when given, and are
    summed over weight slices, then over activation slices, most
    significant first, into ``out`` when given."""
    shape = a_parts.shape[:-1] + w_parts.shape[-1:]
    prod = np.empty(shape) if work is None else work.reshape(shape)
    if w_parts.ndim == 2:
        np.matmul(a_parts.reshape(-1, a_parts.shape[-1]), w_parts,
                  out=prod.reshape(-1, shape[-1]))
    else:
        np.matmul(a_parts, w_parts, out=prod)
    by_a = np.add(prod[..., 0::2], prod[..., 1::2], out=prod[..., 0::2])
    out = np.add(by_a[0], by_a[1], out=out)
    out += by_a[2]
    return out


def gemm_reference(w, a: np.ndarray, n_threads: int | None = None) -> np.ndarray:
    """Float GEMM (M x K) @ (K x N); the comparison baseline.

    ``w`` is a ``FloatWeight``, or any 2-D array, which becomes one for
    this call. Each activation column is cut into ``A_SLICES`` slices of
    b = ``slice_bits(K)`` bits, and ``slice_matmul`` multiplies them with
    the weight's slices ``SLICE_COL_CHUNK`` columns at a time, in one
    workspace per call. A column's result therefore depends only on that
    column and the weight: it is the same alone, inside any batch and at
    any BLAS thread count. Against the exact product, for operands and
    results in float64's normal range, the error is below
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
    w_parts = w.slices
    bits = slice_bits(k)
    chunk = min(n, SLICE_COL_CHUNK)
    # A chunk's slices lead the workspace (its columns enter as the last
    # slice's rows, their |values| as the first's); the products follow.
    work = np.empty(A_SLICES * chunk * (k + w_parts.shape[1]))
    out = np.empty((m, n))
    for j in range(0, n, chunk):
        cols = min(chunk, n - j)
        size = A_SLICES * cols * k
        parts = work[:size].reshape(A_SLICES, cols, k)
        parts[-1] = a[:, j:j + cols].T
        row_slices(parts[-1], bits, A_SLICES, out=parts, work=parts[0])
        slice_matmul(parts, w_parts, out=out[:, j:j + cols].T,
                     work=work[size:size + A_SLICES * cols * w_parts.shape[1]])
    return out


def quantize_activations(a: np.ndarray) -> QuantizedActivationPanel:
    """Symmetric int8 quantization, one scale per (32-row block, column).

    scale = max|block| / 127 (1.0 for an all-zero block); values rounded
    half-to-even and clamped to [-127, 127]. One pass: |a|, then a over
    its scale, rounded and clamped in place in the same buffer.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] % BLOCK_SIZE:
        raise GemmShapeError(f"activation shape {a.shape} not K-blockable")
    k, n = a.shape
    blocks = a.reshape(-1, BLOCK_SIZE, n)
    q = np.abs(blocks)
    absmax = q.max(axis=1)
    if not np.isfinite(absmax).all():  # a NaN or an infinity reaches its maximum
        raise CodecError("quantize_activations requires finite inputs")
    zero = absmax == 0.0
    scales = np.divide(absmax, 127.0, out=absmax)
    scales += zero  # 1.0 for an all-zero block, exactly
    np.rint(np.divide(blocks, scales[:, None, :], out=q), out=q)
    np.maximum(np.minimum(q, 127.0, out=q), -127.0, out=q)
    return QuantizedActivationPanel(values=q.astype(np.int8).reshape(k, n), scales=scales)


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
    """Late-scaling float path: scf * sum(w_i * a_i) per 32-element block.

    One column at a time, in the calling thread; ``n_threads`` is accepted
    and ignored.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise GemmShapeError(f"activations must be 2-D, got {a.shape}")
    _check_weight_act(w, a.shape[0])
    decoded, scales = decoded_weights(w)
    wb = decoded.reshape(w.rows, -1, BLOCK_SIZE)
    a_blocks = a.reshape(-1, BLOCK_SIZE, a.shape[1])
    cols = []
    for j in range(a.shape[1]):
        partial = fold_sum(wb * a_blocks[None, :, :, j], axis=2)
        cols.append(fold_sum(partial * scales, axis=1))
    return np.stack(cols, axis=1)


def gemm_mxfp4_int8(
    w: MxfpTensor, a: QuantizedActivationPanel, n_threads: int | None = None
) -> np.ndarray:
    """Integer LUT path: exact block dot products, late-scaled once per block.

    The (block, column, row) partials come from one float32 BLAS matmul of
    the activations against ``w.int_operand`` per ``COL_CHUNK`` columns,
    exactly (see the module docstring). The output scale folds in the
    LUT's x2 compensation as weight_scale * activation_scale * 0.5.
    ``n_threads`` is accepted and ignored: BLAS gives the parallelism.
    """
    _check_weight_act(w, a.k)
    w_vals, w_scales = w.int_operand
    # Columns lead and rows trail, so the scaling broadcasts along rows.
    act = a.values.astype(np.float32).reshape(-1, BLOCK_SIZE, a.n).transpose(0, 2, 1)
    return _int8_kernel(act, (a.scales * 0.5)[:, :, None], w_vals, w_scales)


def _int8_kernel(act, a_scales, w_vals, w_scales) -> np.ndarray:
    """(rows, columns) of the int8 GEMM of (block, column, 32) activations
    on a (block, 32, row) operand, ``COL_CHUNK`` columns at a time; the
    split moves no result bit."""
    if act.shape[1] > COL_CHUNK:
        return np.concatenate([
            _int8_kernel(act[:, j:j + COL_CHUNK], a_scales[:, j:j + COL_CHUNK],
                         w_vals, w_scales)
            for j in range(0, act.shape[1], COL_CHUNK)], axis=1)
    # partial * (w scale * a scale / 2), the tests' oracle order: another
    # order rounds differently once a product leaves float64's normal range.
    scaled = np.multiply(w_scales[:, None, :], a_scales)
    np.multiply(np.matmul(act, w_vals), scaled, out=scaled)
    return fold_sum(scaled, axis=0).T


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
