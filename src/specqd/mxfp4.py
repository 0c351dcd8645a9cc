"""MXFP4 block floating-point codec.

E2M1 4-bit elements (1 sign / 2 exponent / 1 mantissa bits) sharing one
E8M0 power-of-two scale per 32-element block along the reduction dimension.
Effective storage is 4.25 bits per element.

Quantization is the two-step direct cast: pick the largest power of two
<= max|block| divided by the largest E2M1 power of two (4), then round
each scaled element to the nearest representable E2M1 value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

BLOCK_SIZE = 32

# E2M1 magnitudes for codes 0..7; codes 8..15 are the negated mirror.
# Code 0bSEEM: exponent 0 -> subnormal 0.5*m, exponent e -> 2^(e-1)*(1+0.5*m).
E2M1_MAGNITUDES = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])

E2M1_MAX = 6.0

# Bits per element including the amortized shared scale: 4 + 8/32.
BITS_PER_ELEMENT = 4.25

E8M0_BIAS = 127

# The exponent bounds of a tensor or panel with no nonzero block: lo =
# NO_BLOCK and hi = -NO_BLOCK pass every range check.
NO_BLOCK = 1 << 30


class CodecError(ValueError):
    """Raised on invalid codec inputs (non-finite values, bad shapes)."""


def fp4_decode(codes):
    """Decode E2M1 code(s) to signed float magnitude. Total over all 16 codes."""
    codes = np.asarray(codes)
    mag = E2M1_MAGNITUDES[codes & 0x7]
    return np.where(codes & 0x8, -mag, mag)


# E2M1 code of each doubled magnitude in {0, 1, 2, 3, 4, 6, 8, 12}; the
# other entries are never read.
_CODE_OF_DOUBLED = np.zeros(13, dtype=np.uint8)
_CODE_OF_DOUBLED[(2 * E2M1_MAGNITUDES).astype(np.intp)] = np.arange(8)


def _encode_into(v, out):
    """Write the E2M1 codes of the finite float64 array v into uint8 out.

    Rounds as ``fp4_encode`` describes: rint(t / step) * step on the
    doubled magnitude t, then a table lookup of the code.
    """
    t = np.minimum(np.abs(v), E2M1_MAX)
    t *= 2.0
    step = 1.0 + (t >= 4.0) + 2.0 * (t >= 8.0)
    t /= step
    np.rint(t, out=t)
    t *= step
    np.take(_CODE_OF_DOUBLED, t.astype(np.intp), out=out)
    # From the sign bit, so that -0.0 keeps code 8.
    out |= np.signbit(v).view(np.uint8) << 3


def fp4_encode(values):
    """Encode finite float(s) to the nearest E2M1 code.

    Round-to-nearest with ties to the code whose mantissa bit is even;
    magnitudes above 6 clamp to the max normal, preserving sign. Rounding
    is arithmetic, on the doubled magnitude t = 2 min(|v|, 6), which is
    exact: there the grid {0, 1, 2, 3, 4, 6, 8, 12} has step 1 below 4, 2
    below 8 and 4 up to 12, so rint(t / step) * step is the nearest grid
    point, and rint's ties to even land on the even-mantissa code.
    """
    v = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise CodecError("fp4_encode requires finite inputs")
    code = np.empty(v.shape, dtype=np.uint8)
    _encode_into(v.reshape(-1), code.reshape(-1))
    return code if code.ndim else np.uint8(code)


def fp4_to_int8_lut():
    """16-entry FP4 -> int8 table: entry = 2 * fp4_decode(code).

    The doubling makes every entry integral ({0, +-1, ..., +-12}); the
    GEMM's folded weight operand compensates with a block scale of
    2^(E8M0 exponent - 1) (``MxfpTensor.folded_operand``).
    """
    return (2.0 * fp4_decode(np.arange(16, dtype=np.uint8))).astype(np.int8)


def block_scale_exponents(block_max):
    """Biased E8M0 exponents for an array of per-block max|V| values.

    scale = 2^(floor(log2(max|V|)) - 2); all-zero blocks get scale 1.0.
    Returns (biased_exponents uint8, clamped_count).
    """
    m = np.asarray(block_max, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise CodecError("block_scale requires finite inputs")
    # frexp: m = f * 2^e with f in [0.5, 1), so floor(log2 m) == e - 1.
    _, e = np.frexp(m)
    biased = (e - 1) - 2 + E8M0_BIAS
    biased = np.where(m == 0.0, E8M0_BIAS, biased)
    clamped = int(np.sum((biased < 0) | (biased > 254)))
    return np.clip(biased, 0, 254).astype(np.uint8), clamped


def scale_values(biased_exponents):
    """E8M0 biased exponent(s) -> float power-of-two scale value(s)."""
    e = np.asarray(biased_exponents, dtype=np.float64)
    return np.exp2(e - E8M0_BIAS)


@dataclass
class MxfpTensor:
    """A rows x cols matrix in MXFP4 form, blocked along the column (K) axis.

    ``codes`` holds one unpacked E2M1 code per element over the zero-padded
    column count; ``scale_exp`` holds one biased E8M0 exponent per
    (row, 32-column block). ``cols`` is the logical (pre-padding) width.
    """

    rows: int
    cols: int
    codes: np.ndarray  # uint8, shape (rows, padded_cols)
    scale_exp: np.ndarray  # uint8, shape (rows, padded_cols // 32)
    clamped_blocks: int = 0

    @property
    def padded_cols(self) -> int:
        return self.codes.shape[1]

    def storage_bytes(self) -> int:
        """Packed size: two codes per byte plus one scale byte per block."""
        return self.codes.size // 2 + self.scale_exp.size

    @cached_property
    def folded_operand(self) -> tuple[np.ndarray | None, int, int, int]:
        """(W', spread, lo, hi) for the MXFP4 GEMM, built on first use and
        kept, so casting or loading a model does not pay for it.

        Every weight is d * 2^e, for d = ``fp4_to_int8_lut()[code]`` (an
        integer, |d| <= 12) and e its block's E8M0 exponent minus 1. W' is
        the (padded_cols, rows) float32 matrix of those values, the
        transposed ``dequantize``, exact whenever every nonzero weight is a
        normal float32 (-126 <= e <= 124), and None otherwise. spread is
        the largest, over rows, of max - min of e over a row's nonzero
        blocks (those with a nonzero code); lo and hi are the smallest and
        largest e over the tensor's nonzero blocks (NO_BLOCK and -NO_BLOCK
        if there are none).
        """
        rows, blocks = self.scale_exp.shape
        nonzero = (self.codes & 0x7).reshape(rows, blocks, BLOCK_SIZE).any(axis=2)
        exps = self.scale_exp.astype(np.int32) - (E8M0_BIAS + 1)
        row_hi = np.max(exps, axis=1, where=nonzero, initial=-NO_BLOCK)
        row_lo = np.min(exps, axis=1, where=nonzero, initial=NO_BLOCK)
        spread = int(np.max(row_hi - row_lo, initial=0))
        lo, hi = int(np.min(row_lo, initial=NO_BLOCK)), int(np.max(row_hi, initial=-NO_BLOCK))
        values = None
        if lo >= -126 and hi <= 124:
            values = fp4_to_int8_lut().astype(np.float32)[self.codes].reshape(
                rows, blocks, BLOCK_SIZE)
            values *= np.ldexp(np.float32(1), exps)[:, :, None]
            values = np.ascontiguousarray(values.reshape(rows, -1).T)
        return values, spread, lo, hi

    def __eq__(self, other) -> bool:
        if not isinstance(other, MxfpTensor):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.scale_exp, other.scale_exp)
        )


# Values the cast scales and encodes per pass, so that the temporaries of
# a pass stay in cache; a multiple of BLOCK_SIZE, so a pass holds whole
# blocks.
_CHUNK = 1 << 14


def _pad_cols(x: np.ndarray) -> np.ndarray:
    k = x.shape[1]
    pad = (-k) % BLOCK_SIZE
    if pad:
        x = np.pad(x, ((0, 0), (0, pad)))
    return x


def quantize_direct_cast(tensor: np.ndarray) -> MxfpTensor:
    """Two-step direct cast of a float matrix to MXFP4.

    Columns are zero-padded to a multiple of 32; padding zeros never change a
    block's max|V| so they are included in the scale computation harmlessly.
    Blocks are scaled and rounded ``_CHUNK`` values at a time, by
    ``fp4_encode``'s arithmetic, so the cast's temporaries are a few chunks
    in size whatever the matrix's. A non-finite entry makes its block's
    max|V| non-finite, so the cast needs no separate scan for one.
    """
    x = np.asarray(tensor, dtype=np.float64)
    if x.ndim != 2:
        raise CodecError(f"expected a 2-D matrix, got shape {x.shape}")
    rows, cols = x.shape
    n_blocks = -(-cols // BLOCK_SIZE)
    blocks = _pad_cols(x).reshape(rows * n_blocks, BLOCK_SIZE)
    # max|V| without an |V| copy; NaN and inf carry through to the block max.
    block_max = np.maximum(blocks.max(axis=1), -blocks.min(axis=1))
    if not np.all(np.isfinite(block_max)):
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(x))[0])
        raise CodecError(f"non-finite entry at index {idx}")
    scale_exp, clamped = block_scale_exponents(block_max)
    scales = scale_values(scale_exp)[:, None]
    codes = np.empty(blocks.shape, dtype=np.uint8)
    per = _CHUNK // BLOCK_SIZE
    for s in range(0, len(blocks), per):
        _encode_into(blocks[s:s + per] / scales[s:s + per], codes[s:s + per])
    return MxfpTensor(rows, cols, codes.reshape(rows, n_blocks * BLOCK_SIZE),
                      scale_exp.reshape(rows, n_blocks), clamped_blocks=clamped)


def dequantize(t: MxfpTensor) -> np.ndarray:
    """Inverse of the direct cast: element = fp4_decode(code) * block scale.

    Exact in float arithmetic (power-of-two scale times a 4-value mantissa set).
    """
    decoded = fp4_decode(t.codes).reshape(*t.scale_exp.shape, BLOCK_SIZE)
    out = decoded * scale_values(t.scale_exp)[:, :, None]
    return out.reshape(t.codes.shape)[:, : t.cols]
