"""Weight-quantized GEMM kernels for the skinny-N shapes of draft/verify.

Three paths:

* ``gemm_reference``     — float GEMM, the oracle everything is checked
                           against (dequantize-then-multiply), and the
                           unquantized target's arithmetic.
* ``gemm_mxfp4_latescale_f32`` — decodes E2M1 weights to float, accumulates
                           each 32-element block, then applies the block
                           scale once to the partial accumulator.
* ``gemm_mxfp4_int8``    — the MXFP4 draft's path: MXFP4 weights against
                           MXINT8-style activations (``quantize_activations``:
                           int8 values under a power-of-two scale per
                           32-element block), as one float32 BLAS call.

The MXFP4 path folds both operands' scales in ahead of time. A weight is
d * 2^e with d a doubled E2M1 value (|d| <= 12) and e its block's scale
exponent minus 1; each MxfpTensor keeps them as one (K, M) float32 matrix
W' built on first use (``MxfpTensor.folded_operand``). An activation is
q * 2^s with |q| <= 127, and ``quantize_activations`` returns them as an
(N, K) float32 operand a'. So y = a' @ W' is a single sgemm.

It is exact when float32 holds every partial sum BLAS may form. Take
weight row i, whose block exponents lie in [e_lo, e_lo + spread_w], and
activation column j, whose smallest block exponent is s_lo. Every term
w_t * a'_t is a multiple of 2^(e_lo + s_lo), and so is every sum of any
subset of the terms, whose magnitude is at most

    sum_t |w_t| |a'_t| <= 12 * 2^(e_lo + spread_w) * L1,   L1 = sum_t |a'_t|.

So whenever 12 * L1 <= 2^(24 + s_lo - spread_w), every partial sum is an
integer of at most 24 bits times 2^(e_lo + s_lo), which float32 holds:
BLAS gives the exact sum in any order, batch or thread count. The
quantizer bounds L1 by the |values| it already takes. In a block of
scale 2^s, whose largest |value| is at least 64 * 2^s, rounding grows a
value only if it is at least 2^(s - 1), and by at most that; with r of
the other 31 values grown, the block's sum of |values| is at least
(64 + r / 2) * 2^s and grows by at most (r + 1) * 2^(s - 1), a factor
below 1 + 16 / 79.5 < 1.21. So 15 * sum |a_t| bounds 12 * L1, with room
for float64's rounding of the sum (a relative error below K * 2^-53).
The panel's fact ``l1_bits`` is the smallest b with 15 * sum |a_t| <
2^(b + s_lo) for every column, so the check is

    spread_w + l1_bits <= 24.

The exponent ranges must also keep operands, terms and sums normal
float32s; ``TERM_BITS`` bounds every term, and so every sum, for the
check that none overflows. Both operands carry these facts as Python
ints, the activations' computed once per panel by the quantizer, so the
check costs a few integer comparisons per call. It is conservative: a
panel outside it falls back to the exact-slice reference product of the
dequantized operands, which is exact too wherever a column is inside the
window, so a column's bits never depend on the path its call took.

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

import math
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import analytics
from .mxfp4 import (
    BLOCK_SIZE,
    NO_BLOCK,
    CodecError,
    MxfpTensor,
    dequantize,
    fp4_decode,
    scale_values,
)

# A term of the MXFP4 GEMM is at most max |doubled E2M1| * max |int8| =
# 12 * 127 = 1524 < 2^TERM_BITS times its power of two.
TERM_BITS = 11

# The exact-slice format: W_SLICES weight slices of W_SLICE_BITS bits and
# A_SLICES activation slices of ``slice_bits(K)`` bits. ``FloatWeight`` and
# ``slice_matmul`` write their sums out for 2 and 3 slices.
W_SLICES = 2
W_SLICE_BITS = 26
A_SLICES = 3

# Output columns per slice matmul in the reference kernel; bounds its
# (slices, columns, rows) temporaries for long prefills.
SLICE_COL_CHUNK = 64

# Weight rows per slice product in the MXFP4 GEMM's fallback; bounds its
# float64 weight copy and slices to a few MB whatever the weight's size.
FALLBACK_ROWS = 64

GEMM_PATHS = ("reference", "latescale_f32", "int8")


def fold_sum(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Pairwise-tree float summation with a layout-independent result.

    numpy's own reductions vectorize with alignment-dependent peeling, so
    their rounding can change with the buffer an operand happens to live in.
    A fixed halving tree built from elementwise adds is bit-deterministic,
    which the batch-equals-incremental and thread-invariance contracts need.
    Each level adds neighbouring pairs; an odd level's last element moves
    up as it is. ``ValueError`` for a bad or zero-length axis.
    """
    x = np.asarray(x, dtype=np.float64)
    if not -x.ndim <= axis < x.ndim or not x.shape[axis]:
        raise ValueError(f"cannot sum axis {axis} of shape {x.shape}")
    if axis % x.ndim != x.ndim - 1:
        x = np.moveaxis(x, axis, -1)
    while (n := x.shape[-1]) > 1:
        if n % 2:
            y = np.empty(x.shape[:-1] + (n // 2 + 1,))
            np.add(x[..., :-1:2], x[..., 1::2], out=y[..., :-1])
            y[..., -1] = x[..., -1]
            x = y
        else:
            x = x[..., ::2] + x[..., 1::2]
    return x[..., 0]


class GemmShapeError(ValueError):
    """Operand shapes do not conform."""


@dataclass
class QuantizedActivationPanel:
    """MXINT8-style activations and the facts of their exponent window.

    operand: shape (N, K), row j the panel's column j, each value q * 2^s
    for an integer |q| <= 127 and its block's exponent s; float32 when
    every nonzero value is a normal float32, float64 otherwise, exact
    either way. l1_bits: the smallest b with 15 * sum |a| over each
    column's values before quantization below 2^(b + s_lo), s_lo the
    column's smallest s, so that 12 * sum |q * 2^s| is too (module
    docstring); 7 if every value is 0, NO_BLOCK for a float64 operand.
    lo, hi: the smallest and largest s.
    """

    operand: np.ndarray
    l1_bits: int
    lo: int
    hi: int

    @property
    def k(self) -> int:
        return self.operand.shape[1]

    @property
    def n(self) -> int:
        return self.operand.shape[0]


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
               exps=None, work: np.ndarray | None = None,
               scaled: bool = True) -> np.ndarray:
    """``count`` slices of every row of x (its last axis): slice s is an
    integer of ``bits`` bits times 2^(e - bits * (s + 1)), for e the row's
    ``exps`` (``row_exponents(x, work)`` unless given), and the slices sum
    to the row up to a remainder below 2^(e - bits * count). Each step is
    exact in float64's normal range. The slices go to ``out`` (shape
    (count,) + x.shape) when given, whose last slice also holds the
    remainder as it shrinks, so no other array of x's size is allocated;
    that slice may be x itself. With ``scaled`` False the slices stay
    integers, for a caller that scales a sum or a product of them instead,
    which is as exact and touches fewer elements."""
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
    if scaled:
        out *= np.ldexp(_slice_steps(bits, count, x.ndim), exps)
    return out


@lru_cache(maxsize=None)
def _slice_steps(bits: int, count: int, ndim: int) -> np.ndarray:
    """2^(-bits * (s + 1)) for slice s, to broadcast over ``ndim``-D rows."""
    steps = np.exp2(-bits * np.arange(1.0, count + 1)).reshape((count,) + (1,) * ndim)
    steps.flags.writeable = False  # shared by every caller
    return steps


def slice_matmul(a_parts: np.ndarray, w_parts: np.ndarray, out: np.ndarray | None = None,
                 work: np.ndarray | None = None, blocked: bool = False) -> np.ndarray:
    """(..., N, M): activation slices (A_SLICES, ..., N, K) times weight
    slices (..., K, M * W_SLICES), column i * W_SLICES + s holding slice s
    of row i, or column s * M + i when ``blocked``. One BLAS matmul, over
    every slice and column when the weight is 2-D, gives the six slice
    products, exact when ``slice_bits`` set the widths. They go to
    ``work`` (contiguous) when given, and are summed over weight slices,
    then over activation slices, most significant first, into ``out``
    when given."""
    shape = a_parts.shape[:-1] + w_parts.shape[-1:]
    prod = np.empty(shape) if work is None else work.reshape(shape)
    if w_parts.ndim == 2:
        np.matmul(a_parts.reshape(-1, a_parts.shape[-1]), w_parts,
                  out=prod.reshape(-1, shape[-1]))
    else:
        np.matmul(a_parts, w_parts, out=prod)
    m = shape[-1] // W_SLICES
    first, second = ((prod[..., :m], prod[..., m:]) if blocked
                     else (prod[..., 0::2], prod[..., 1::2]))
    by_a = np.add(first, second, out=first)
    out = np.add(by_a[0], by_a[1], out=out)
    out += by_a[2]
    return out


def gemm_reference(w, a: np.ndarray) -> np.ndarray:
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
    Raises ``CodecError`` for a non-finite operand and ``GemmShapeError``
    for an empty one.
    """
    if not isinstance(w, FloatWeight):
        w = FloatWeight(w)
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or w.shape[1] != a.shape[0] or 0 in w.shape + a.shape:
        raise GemmShapeError(f"cannot multiply {w.shape} by {a.shape}")
    return _slice_gemm(w, a)


def _slice_gemm(w: FloatWeight, a: np.ndarray) -> np.ndarray:
    """``gemm_reference`` of conforming operands. The MXFP4 GEMM's
    fallback calls it here, so that a tracer wrapping ``gemm_reference``
    sees only the model's float weights."""
    (m, k), n = w.shape, a.shape[1]
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
    """MXINT8-style quantization of a (K, N) panel, one power-of-two scale
    per (32-row block, column), as the OCP microscaling formats define it
    (Rouhani et al. 2023, arXiv:2310.10537).

    A block's scale is 2^s with s = floor(log2 max|block|) - 6; an
    all-zero block takes s = -7, as if its maximum were 1/2, which keeps
    the quantizer free of masks. Each value becomes q * 2^s, the multiple
    of 2^s nearest to it, ties to even, with q clamped to [-127, 127]; a
    zero is +0.0. Where 2^s is below float64's smallest step, 2^-1074,
    that leaves a value as it is. ``CodecError`` for a non-finite value,
    ``GemmShapeError`` for an empty panel.

    The panel's operand holds q * 2^s row by row of columns. Its window
    facts come from the |values| and block maxima the quantizer takes
    anyway, once per panel, so the linears that share it share them too
    (see the module docstring).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] % BLOCK_SIZE or not a.size:
        raise GemmShapeError(f"activation shape {a.shape} empty or not K-blockable")
    k, n = a.shape
    # Columns as rows, so that each block is a contiguous run of 32 values.
    flat = np.ascontiguousarray(a.T).reshape(-1)
    mags = np.abs(flat)
    absmax = np.maximum.reduceat(mags, _starts(flat.size, BLOCK_SIZE))
    # max|block| = m * 2^e with m in [0.5, 1), or m = e = 0; s = e - 7.
    mant, exps = np.frexp(absmax)
    top = float(np.maximum.reduce(mant))
    if not top < 1.0:  # a NaN or an infinity
        raise CodecError("quantize_activations requires finite inputs")
    lows = np.minimum.reduceat(exps, _starts(exps.size, k // BLOCK_SIZE))
    # Python's min and max beat numpy's on the few blocks of a decode step.
    lo, hi = min(lows.tolist()) - 7, max(exps.tolist()) - 7
    l1_bits = NO_BLOCK
    # Nonzero values q * 2^s lie in [2^s, 2^(s + 7)): normal float32s.
    as_float32 = lo >= -126 and hi <= 121
    if as_float32:
        # 15 * sum |a| * 2^-(s_lo + 7) < 2^(l1_bits - 7) for every column,
        # s_lo + 7 its smallest block's frexp exponent.
        sums = np.add.reduceat(mags, _starts(flat.size, k))
        l1_bits = math.frexp(15.0 * max(np.ldexp(sums, -lows).tolist()))[1] + 7
    if lo < -1074:  # these blocks' values are multiples of 2^s already
        np.maximum(exps, 7 - 1074, out=exps)
    if hi <= 971:
        # x + c rounds x to a multiple of 2^s, half to even, for c = 1.5 *
        # 2^(s + 52), whose float64 step that is; subtracting c is exact.
        c = np.repeat(np.ldexp(1.5 * 2.0 ** 45, exps), BLOCK_SIZE)
        values = flat + c
        values -= c
    else:  # such a c would overflow
        scales = np.repeat(np.ldexp(2.0 ** -7, exps), BLOCK_SIZE)
        values = np.rint(flat / scales)
        values *= scales
        values += 0.0  # -0.0 to +0.0
    if top >= 127.5 / 128:  # a block maximum rounded to 128 * 2^s
        bound = np.repeat(np.ldexp(127 / 128, exps), BLOCK_SIZE)
        np.minimum(values, bound, out=values)
        np.maximum(values, np.negative(bound, out=bound), out=values)
    if as_float32:
        values = values.astype(np.float32)
    return QuantizedActivationPanel(values.reshape(n, k), l1_bits, lo, hi)


@lru_cache(maxsize=256)
def _starts(size: int, step: int) -> np.ndarray:
    """The offsets 0, step, 2 * step, ... below size, for ``reduceat``."""
    starts = np.arange(0, size, step)
    starts.flags.writeable = False  # shared by every caller
    return starts


def dequantize_activations(panel: QuantizedActivationPanel) -> np.ndarray:
    """The panel's (K, N) activations after quantization, as float64."""
    return panel.operand.T.astype(np.float64)


def _check_weight_act(w: MxfpTensor, k: int):
    if w.padded_cols != k:
        raise GemmShapeError(
            f"weight K={w.padded_cols} does not match activation K={k}"
        )


def gemm_mxfp4_latescale_f32(w: MxfpTensor, a: np.ndarray) -> np.ndarray:
    """Late-scaling float path: scf * sum(w_i * a_i) per 32-element block.

    One column at a time, with no BLAS call: the decoded E2M1 values keep
    their block scales apart, so each scale applies once per partial.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or not a.size:
        raise GemmShapeError(f"activations must be 2-D and non-empty, got {a.shape}")
    _check_weight_act(w, a.shape[0])
    wb = fp4_decode(w.codes).reshape(w.rows, -1, BLOCK_SIZE)
    scales = scale_values(w.scale_exp)
    a_blocks = a.reshape(-1, BLOCK_SIZE, a.shape[1])
    cols = []
    for j in range(a.shape[1]):
        partial = fold_sum(wb * a_blocks[None, :, :, j], axis=2)
        cols.append(fold_sum(partial * scales, axis=1))
    return np.stack(cols, axis=1)


def gemm_mxfp4_int8(w: MxfpTensor, a: QuantizedActivationPanel) -> np.ndarray:
    """(M, N) product of an MXFP4 weight and a quantized panel, the exact
    sum of their dequantized products wherever the window allows.

    Inside the window (module docstring), checked per panel from the two
    operands' facts, it is one float32 BLAS call a' @ W', exact. Outside
    it, the exact-slice reference product of the dequantized operands.
    Inside the window both give the exact sum, so the result always
    equals ``gemm_reference(dequantize(w), dequantize_activations(a))``
    bit for bit, and a zero is +0.0 either way.
    """
    _check_weight_act(w, a.k)
    w_op, w_spread, w_lo, w_hi = w.folded_operand
    # A float64 panel's l1_bits, NO_BLOCK, fails the window.
    if (w_op is not None and w_spread + a.l1_bits <= 24 and w_lo + a.lo >= -126
            and w_hi + a.hi + TERM_BITS + (a.k - 1).bit_length() <= 128):
        out = np.matmul(a.operand, w_op)
    else:
        out = _fallback(w, a)
    # x + 0.0 is x, but +0.0 for -0.0.
    return np.add(out, 0.0, out=np.empty(out.shape)).T


def _fallback(w: MxfpTensor, a: QuantizedActivationPanel) -> np.ndarray:
    """(N, M): the reference product of the dequantized operands,
    ``FALLBACK_ROWS`` weight rows at a time, each row's bits its own. The
    rows come from W' when there is one, which holds them exactly."""
    w_op = w.folded_operand[0]
    act = dequantize_activations(a)[:w.cols]
    out = np.empty((a.n, w.rows))
    for r in range(0, w.rows, FALLBACK_ROWS):
        rows = slice(r, r + FALLBACK_ROWS)
        part = (w_op[:w.cols, rows].T if w_op is not None else dequantize(MxfpTensor(
            len(w.codes[rows]), w.cols, w.codes[rows], w.scale_exp[rows])))
        out[:, rows] = _slice_gemm(FloatWeight(part), act).T
    return out


def gemm_bytes(shape: GemmShape, path: str) -> int:
    """Compulsory traffic per iteration, ``analytics.gemm_traffic_bytes`` in
    whole bytes: the reference path's weights as float32, the MXFP4 paths'
    at 4.25 bits per element. Activations and output count as 32-bit
    floats: the MXFP4 GEMM reads its activations as one float32 operand,
    with their scales folded in.
    """
    if path not in GEMM_PATHS:
        raise ValueError(f"unknown gemm path {path!r}")
    fmt = "f32" if path == "reference" else "mxfp4"
    return int(analytics.gemm_traffic_bytes(shape.m, shape.n, shape.k, fmt))


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


def gemm_bench(shape: GemmShape, path: str = "int8") -> BenchResult:
    """Median of 9 timed calls of one kernel, after 2 untimed warm-up
    calls, on standard normal operands drawn at seed 0. The int8 path's
    call quantizes the activations too, as a model's linear does."""
    if path not in GEMM_PATHS:
        raise ValueError(f"unknown gemm path {path!r}")
    rng = np.random.default_rng(0)
    w_f = rng.standard_normal((shape.m, shape.k))
    a = rng.standard_normal((shape.k, shape.n))
    # Each weight is stationary: the float slices, like the folded MXFP4
    # operand, are built by the first warm-up call, not timed.
    if path == "reference":
        w_ref = FloatWeight(w_f)
        run = lambda: gemm_reference(w_ref, a)
    else:
        from .mxfp4 import quantize_direct_cast

        w_q = quantize_direct_cast(w_f)
        if path == "latescale_f32":
            run = lambda: gemm_mxfp4_latescale_f32(w_q, a)
        else:
            run = lambda: gemm_mxfp4_int8(w_q, quantize_activations(a))
    for _ in range(2):
        run()
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    seconds = float(np.median(times))
    nbytes = gemm_bytes(shape, path)
    return BenchResult(path, shape, nbytes, seconds, nbytes / seconds / 1e9)
