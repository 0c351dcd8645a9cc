"""Deterministic desk-scale decoder-only transformer.

Pre-norm blocks with learned absolute positions and a GELU MLP. Every
linear layer runs on the qgemm kernel of its weight's kind, ``gemm_reference``
or ``gemm_mxfp4_int8``, so swapping a model's linear weights for their MXFP4
direct cast is a one-call transformation with nothing to tune.

Forward passes are bit-deterministic: every reduction for a position is
either exact on BLAS (the float GEMM, the MXFP4 GEMM's single float32
sgemm inside its exponent window or its exact-slice fallback outside it,
and attention, see ``_attention``) or taken in a fixed order over that
position's own data (layer norm). So processing a batch of new positions
equals processing them one at a time, token for token and bit for bit,
at any BLAS thread count.

Attention has two precisions, chosen by the model's kind as the GEMM
kernel is. A float model, a target, attends with six exact slice
products per reduction. An MXFP4 model is a draft, whose proposals the
target verifies, so it needs determinism, not exactness: one slice per
operand, one exact product per reduction. Its context is within about
V * L * 2^(2 - c) of exact attention's, for V the largest |value| of its
L keys and c = ``qgemm.slice_bits(max_seq_len)``: L * 2^-16 * V at
max_seq_len 512. ``_attention`` states both bounds. Both precisions
write the same cache bytes.

A layer's tensors are named once, in ``LAYER_NORMS`` and ``LAYER_LINEARS``
with ``linear_shapes``; the init, the cast, the checksum and the model file
all follow them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import qgemm
from .mxfp4 import MxfpTensor, quantize_direct_cast


@dataclass(frozen=True)
class LmConfig:
    """A model's dimensions. These fields, with their types and defaults,
    are the config's schema: the model file's config block and
    ``model-init``'s flags derive from them."""

    vocab_size: int = 256
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 128
    max_seq_len: int = 256
    norm_epsilon: float = 1e-5

    def __post_init__(self):
        if min(self.vocab_size, self.d_model, self.n_layers, self.n_heads,
               self.d_ff, self.max_seq_len) <= 0:
            raise ValueError("all LmConfig dimensions must be positive")
        if self.d_model % self.n_heads:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )


class ContextOverflow(RuntimeError):
    """Sequence would exceed max_seq_len."""


class TokenRangeError(ValueError):
    """A token id lies outside [0, vocab_size)."""


@dataclass
class LinearWeight:
    """A (out_features x in_features) weight in float or MXFP4 storage.

    A float weight is kept as a ``qgemm.FloatWeight``, which becomes the
    reference GEMM's slices on first use; ``np.asarray`` gives its values.
    """

    weight: qgemm.FloatWeight | MxfpTensor

    def __post_init__(self):
        if not isinstance(self.weight, (qgemm.FloatWeight, MxfpTensor)):
            self.weight = qgemm.FloatWeight(self.weight)

    @property
    def is_quantized(self) -> bool:
        return isinstance(self.weight, MxfpTensor)

    @property
    def shape(self):
        w = self.weight
        return (w.rows, w.cols) if self.is_quantized else w.shape

    def storage_bytes(self) -> int:
        w = self.weight
        return w.storage_bytes() if self.is_quantized else w.shape[0] * w.shape[1] * 4

    def quantized(self) -> "LinearWeight":
        if self.is_quantized:
            return self
        return LinearWeight(quantize_direct_cast(self.weight))

    def _operand(self, x: np.ndarray):
        """The GEMM's right-hand side for x of shape (n_tokens, in_features)."""
        if not self.is_quantized:
            return np.ascontiguousarray(x.T)
        # The quantizer reads columns as rows: x itself, when it needs no pad.
        a = x.T
        pad = self.weight.padded_cols - a.shape[0]
        if pad:
            a = np.pad(a, ((0, pad), (0, 0)))
        return qgemm.quantize_activations(a)

    def apply(self, x: np.ndarray, operands: dict | None = None,
              last: int | None = None) -> np.ndarray:
        """y = x @ W.T for x of shape (n_tokens, in_features), or for its
        ``last`` rows only.

        ``operands`` keeps the GEMM operand made from x per storage kind,
        so linears that read the same x transpose, pad and quantize it
        once; ``last`` takes that operand's last columns, which is exact,
        since every column is quantized and multiplied on its own.
        """
        quantized = self.is_quantized
        if operands is None:
            operands = {}
        if quantized not in operands:
            operands[quantized] = self._operand(x)
        a = operands[quantized]
        n = x.shape[0]
        if last is not None and last < n:
            # A panel's window facts hold for any of its columns.
            a = (replace(a, operand=a.operand[n - last:])
                 if quantized else a[:, n - last:])
        if not quantized:
            return qgemm.gemm_reference(self.weight, a).T
        return qgemm.gemm_mxfp4_int8(self.weight, a).T


# A layer's norm gains and biases, vectors of d_model, and its linears, in
# the order that ``init_seeded`` draws and ``model_checksum`` hashes them.
LAYER_NORMS = ("ln1_g", "ln1_b", "ln2_g", "ln2_b")
LAYER_LINEARS = ("wq", "wk", "wv", "wo", "w_up", "w_down")


def linear_shapes(config: LmConfig) -> dict[str, tuple[int, int]]:
    """(out_features, in_features) of each of a layer's linears, by name in
    ``LAYER_LINEARS`` order."""
    d, d_ff = config.d_model, config.d_ff
    return {"wq": (d, d), "wk": (d, d), "wv": (d, d), "wo": (d, d),
            "w_up": (d_ff, d), "w_down": (d, d_ff)}


@dataclass
class LayerWeights:
    """A layer's norms and linears; the field order is the order of the
    layer's sections in a model file."""

    ln1_g: np.ndarray
    ln1_b: np.ndarray
    wq: LinearWeight
    wk: LinearWeight
    wv: LinearWeight
    wo: LinearWeight
    w_up: LinearWeight
    w_down: LinearWeight
    ln2_g: np.ndarray
    ln2_b: np.ndarray


@dataclass
class TinyLmModel:
    config: LmConfig
    tok_emb: np.ndarray
    pos_emb: np.ndarray
    layers: list[LayerWeights]
    final_ln_g: np.ndarray
    final_ln_b: np.ndarray
    w_out: LinearWeight
    # Optional per-forward sleep, used to emulate a bandwidth-bound host
    # where wall time tracks streamed weight bytes.
    forward_penalty_s: float = 0.0

    @property
    def is_quantized(self) -> bool:
        return self.w_out.is_quantized

    @property
    def gemm_path(self) -> str:
        return "int8" if self.is_quantized else "reference"

    def all_linears(self) -> list[LinearWeight]:
        return [getattr(ly, name) for ly in self.layers
                for name in LAYER_LINEARS] + [self.w_out]

    def linear_weight_bytes(self) -> int:
        return sum(lw.storage_bytes() for lw in self.all_linears())

    def embeddings_and_norms(self) -> list[np.ndarray]:
        """Every weight outside the linears, in a fixed order."""
        return [self.tok_emb, self.pos_emb, self.final_ln_g, self.final_ln_b] + [
            getattr(ly, name) for ly in self.layers for name in LAYER_NORMS]


@dataclass
class KvCache:
    """One session's keys, values and tokens in buffers preallocated for
    the model's whole context; the first ``length`` positions are valid.

    Each (position, head) row of a key or value is held as the two
    ``qgemm.row_slices`` that ``_attention`` multiplies exactly, cut once,
    when ``forward`` writes the position. keys and values, both (n_layers,
    n_heads, max_seq_len, W_SLICES, d_head), hold slices of the key and of
    the value over its ``value_scales`` (n_layers, n_heads, max_seq_len)
    entry, the power of two just above its largest magnitude. A float
    model's exact attention reads both slices, as a ``qgemm.slice_matmul``
    weight; an MXFP4 model's draft-grade attention reads slice 0 alone, a
    strided view BLAS takes as it is. Both write both slices, so a target
    that shares a draft's cache reads what it would have written itself.
    tokens has shape (max_seq_len,).
    """

    keys: np.ndarray
    values: np.ndarray
    value_scales: np.ndarray
    tokens: np.ndarray
    length: int = 0

    @classmethod
    def empty(cls, config: LmConfig) -> "KvCache":
        lead = (config.n_layers, config.n_heads, config.max_seq_len)
        d_head = config.d_model // config.n_heads
        return cls(np.zeros(lead + (qgemm.W_SLICES, d_head)),
                   np.zeros(lead + (qgemm.W_SLICES, d_head)), np.ones(lead),
                   np.zeros(config.max_seq_len, dtype=np.int64))


def rollback(cache: KvCache, to_length: int) -> KvCache:
    """Truncate the cache to the state after the first ``to_length`` tokens."""
    if to_length > cache.length or to_length < 0:
        raise ValueError(f"cannot roll back to {to_length} from {cache.length}")
    cache.length = to_length
    return cache


def init_seeded(config: LmConfig, seed: int) -> TinyLmModel:
    """All weights uniform in [-1/sqrt(d_model), 1/sqrt(d_model)] from one
    PRNG, drawn in order: each layer's linears, then tok_emb, pos_emb and
    w_out. Every norm's gain is one and its bias zero.

    The (config, seed) pair fully determines the model, bit for bit.
    """
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(config.d_model)
    # Weights are rounded to float32 values so serialization round-trips
    # reproduce the in-memory model exactly.
    u = lambda *shape: rng.uniform(-bound, bound, size=shape).astype(
        np.float32
    ).astype(np.float64)
    d = config.d_model
    layers = [
        LayerWeights(**{name: np.ones(d) if name.endswith("_g") else np.zeros(d)
                        for name in LAYER_NORMS},
                     **{name: LinearWeight(u(*shape))
                        for name, shape in linear_shapes(config).items()})
        for _ in range(config.n_layers)
    ]
    return TinyLmModel(
        config=config,
        tok_emb=u(config.vocab_size, d),
        pos_emb=u(config.max_seq_len, d),
        layers=layers,
        final_ln_g=np.ones(d),
        final_ln_b=np.zeros(d),
        w_out=LinearWeight(u(config.vocab_size, d)),
    )


def direct_cast_mxfp4(m: TinyLmModel) -> TinyLmModel:
    """Replace every 2-D linear weight by its MXFP4 direct cast.

    Embeddings, norms and architecture are untouched; casting an already
    quantized model is a no-op on the weights.
    """
    layers = [replace(ly, **{name: getattr(ly, name).quantized()
                             for name in LAYER_LINEARS}) for ly in m.layers]
    return replace(m, layers=layers, w_out=m.w_out.quantized())


def _layer_norm(x, g, b, eps):
    d = x.shape[-1]
    mu = qgemm.fold_sum(x, axis=-1)[..., None] / d
    var = qgemm.fold_sum((x - mu) ** 2, axis=-1)[..., None] / d
    return (x - mu) / np.sqrt(var + eps) * g + b


def _gelu(x):
    # tanh approximation; exactness is irrelevant, determinism is not. x**3
    # would call libm pow per element at 30-45x the cost of x * x * x; the two
    # differ in the last bits, so this choice is part of every model's logits.
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * (x * x * x))))


# Product elements per block of query positions in ``_attention``; bounds
# the (slices, heads, positions, keys) temporaries of a long prefill.
ATTN_BLOCK = 1 << 17


def _attention(q, k, v, cache: KvCache, li: int, start: int, exact: bool = True):
    """Causal attention of the last ``len(q)`` of the new positions
    ``start + i``: writes every new position's key and value to layer
    ``li`` of the cache, then attends over the cache for the query rows.

    k and v have shape (n, heads, d_head), q and the result (m, heads,
    d_head) with m <= n: q's row i is position start + n - m + i. A caller
    that reads no result for the first n - m new positions needs only
    their keys and values, so it passes no queries for them, and no query
    block runs for them. Every (position, head) row of q / sqrt(d_head),
    k and v gets its own power-of-two exponent, and both reductions are
    exact slice products on BLAS (``qgemm.row_slices``), at one of two
    precisions:

    * ``exact`` (a float target's): the products ``qgemm.gemm_reference``
      makes (``qgemm.slice_matmul``).
      - Scores: a key row is stored as two 26-bit slices, a query row is
        cut into A_SLICES slices of b = ``slice_bits(d_head)`` bits. Each
        slice dot product is exact in any order; the six are summed in a
        fixed order.
      - Softmax: p = exp(s - max s), +0.0 for a key past the position.
        Its normaliser is the exact sum of p on a grid of 2^-2g, g =
        ``slice_bits(max_seq_len, 0)``, taken in two slices.
      - Context: a value row is stored as two 26-bit slices of the row
        over its power of two 2^e (``value_scales``), and 2^e is folded
        into p exactly. Each query row of p is cut into A_SLICES slices of
        c = ``slice_bits(max_seq_len)`` bits, so a dot product over up to
        max_seq_len keys is exact again.
    * draft-grade (an MXFP4 draft's, whose tokens the target verifies):
      one slice per operand, each product one plain BLAS matmul. Scores:
      one query slice of b bits against key slice 0. Normaliser: one
      slice of p on the grid of 2^-g. Context: one slice of p of c bits
      against value slice 0.

    The normaliser's slices are summed over the keys as integers, then
    scaled. A zero result is +0.0. Every rounded step is elementwise on
    one position's row over the keys it sees: a masked key adds exact
    zeros to exact sums and moves no exponent, and the widths depend on
    d_head and max_seq_len, never on the number of keys. So a position's
    bits depend neither on the positions computed with it, nor on whether
    earlier new positions had queries, nor on how the causal blocks of
    ``ATTN_BLOCK`` product elements, each reducing over the keys up to its
    last position, fall. A key or value row's slices depend on that row
    alone, so the cache gets the same bits whatever m is, at either
    precision.

    For operands and results in float64's normal range, let L be the
    keys position i sees, K and V the largest |k| and |v| over them (V at
    least 1/2 if one of their value rows is all zero, which is stored
    over a scale of 1), and delta = sqrt(d_head) * max|q_i| * K * eps_s
    the bound on a score's error. Against exact attention, position i's
    error is below V * (2.01 * delta + L * eps_p + eps_v), with eps_s =
    2^(1 - 3b) + 2^-48, eps_p = 2^(2 - 3c) + 2^-49 and eps_v = 0 when
    ``exact``, and eps_s = 2^(1 - b) + 2^-24, eps_p = 2^(2 - c) + 2^-g and
    eps_v = 2^-24 draft-grade. At max_seq_len 512, c = 18: the draft's
    context is within about L * 2^-16 * V, 2^-7 * V at the last position.
    Raises ``CodecError`` for a non-finite q, k or v, before writing the
    cache.
    """
    n, heads, d_head = k.shape
    m = q.shape[0]
    w_n = qgemm.W_SLICES
    # Query or p slices against key or value slices, and the normaliser's.
    a_n, b_n, z_n = (qgemm.A_SLICES, w_n, 2) if exact else (1, 1, 1)
    qh, nh, end = m * heads, n * heads, start + n
    qd, kvd = qh * d_head, 2 * nh * d_head
    step = max(1, ATTN_BLOCK // (a_n * b_n * heads * end))
    rows_max = min(m, step)
    q_size = a_n * rows_max * heads * d_head
    # A block's score products, or p's slices and the context products.
    prod_size = a_n * heads * rows_max * (end + max(end, b_n * d_head))
    # One buffer holds every large temporary of the call, so a long prefill
    # allocates once, not per block. The rows of q / sqrt(d_head), k and v
    # lead it, and |rows| follows them. The rows of k and v become their
    # own last slices, in place, with the first slices behind them. Once
    # those are in the cache, only the query rows stay, and the blocks use
    # the space behind them.
    work = np.empty(max(2 * (qd + kvd),
                        qd + q_size + prod_size + heads * rows_max * end))
    rows = work[:qd + kvd]
    np.multiply(q, 1.0 / math.sqrt(d_head), out=rows[:qd].reshape(q.shape))
    kv_rows = rows[qd:].reshape(2, n, heads, d_head)
    kv_rows[0], kv_rows[1] = k, v
    rows = rows.reshape(qh + 2 * nh, d_head)
    exps = qgemm.row_exponents(rows, work[qd + kvd:2 * (qd + kvd)].reshape(-1, d_head))
    # Key slices sum to the key, value slices to the value over its 2^e.
    vr = qh + nh  # the first value row
    scales = np.ldexp(1.0, exps[vr:])
    cache.value_scales[li, :, start:end] = scales.reshape(n, heads).T
    np.divide(rows[vr:], scales, out=rows[vr:])
    exps[vr:] = 0
    kv = qgemm.row_slices(
        rows[qh:], qgemm.W_SLICE_BITS, w_n, exps=exps[qh:],
        out=work[qd:qd + w_n * kvd].reshape(w_n, 2 * nh, d_head)[::-1])
    kv = kv.reshape(w_n, 2, n, heads, d_head)
    cache.keys[li, :, start:end] = kv[:, 0].transpose(2, 1, 0, 3)
    cache.values[li, :, start:end] = kv[:, 1].transpose(2, 1, 0, 3)
    rows, exps = rows[:qh].reshape(m, heads, d_head), exps[:qh].reshape(m, heads, 1)

    n_seq = cache.keys.shape[2]
    q_bits, p_bits, z_bits = (qgemm.slice_bits(d_head), qgemm.slice_bits(n_seq),
                              qgemm.slice_bits(n_seq, 0))
    # The first b_n slices of every key and value: column j * b_n + s of a
    # head's keys holds slice s of key j, column s * d_head + i of its
    # values slice s of element i. Both are views.
    keys = cache.keys[li, :, :, :b_n].reshape(heads, -1, d_head).transpose(0, 2, 1)
    values = cache.values[li, :, :, :b_n].reshape(heads, n_seq, -1)
    work = work[qd:]
    ctx = np.empty((m, heads, d_head))
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        rows_b, n_keys = hi - lo, end - m + hi
        size = heads * rows_b * n_keys
        # Each block cuts its own query slices. The products follow them in
        # the buffer, then the scores and p.
        q_parts = qgemm.row_slices(
            rows[lo:hi], q_bits, a_n, exps=exps[lo:hi],
            out=work[:q_size].reshape(a_n, -1, heads, d_head)[:, :rows_b])
        prod = work[q_size:q_size + prod_size]
        scores = work[q_size + prod_size:q_size + prod_size + size].reshape(
            heads, rows_b, n_keys)
        block_keys = keys[..., :b_n * n_keys]
        if exact:
            qgemm.slice_matmul(q_parts.transpose(0, 2, 1, 3), block_keys, out=scores,
                               work=prod[:w_n * a_n * size])
        else:
            np.matmul(q_parts[0].transpose(1, 0, 2), block_keys, out=scores)
        if rows_b > 1:  # the block's own last keys lie past its first positions
            future = np.arange(rows_b) > np.arange(rows_b)[:, None]
            np.copyto(scores[..., -rows_b:], -np.inf, where=future)
        scores -= scores.max(axis=-1, keepdims=True)
        p = np.exp(scores, out=scores)  # (heads, rows, keys)
        # The normaliser: p's integer slices on the grid of 2^-z_bits,
        # summed exactly over the keys, then each sum scaled.
        z_sums = qgemm.row_slices(p, z_bits, z_n, exps=0, scaled=False, out=prod[
            :z_n * size].reshape(z_n, heads, rows_b, n_keys)).sum(axis=-1, keepdims=True)
        z = np.ldexp(z_sums[0], -z_bits)
        if exact:
            z += np.ldexp(z_sums[1], -2 * z_bits)
        p *= cache.value_scales[li, :, None, :n_keys]
        # p is finite and never negative.
        p_exps = np.frexp(p.max(axis=-1, keepdims=True))[1]
        p_parts = qgemm.row_slices(
            p, p_bits, a_n, exps=p_exps, scaled=exact,
            out=prod[:a_n * size].reshape(a_n, heads, rows_b, n_keys))
        out = ctx[lo:hi].transpose(1, 0, 2)
        if exact:
            qgemm.slice_matmul(
                p_parts, values[:, :n_keys], out=out, blocked=True,
                work=prod[a_n * size:a_n * (size + heads * rows_b * w_n * d_head)])
        else:  # the one slice of p is an integer: scale its product instead
            np.matmul(p_parts[0], values[:, :n_keys], out=out)
            np.ldexp(out, p_exps - p_bits, out=out)
        # Adding +0.0 makes a zero +0.0 whichever sign BLAS gave it.
        out /= z
        out += 0.0
    return ctx


def forward(model: TinyLmModel, cache: KvCache, new_tokens, *,
            n_logits: int | None = None) -> np.ndarray:
    """Process new token positions in one pass, extending the cache.

    Returns the last ``n_logits`` rows (every row by default) of the
    logits of shape (len(new_tokens), vocab); row i of the full logits
    conditions on the cache plus new_tokens[: i + 1]. Verifying N+1
    positions therefore costs one call. Keys and values are written in
    place past the cached positions for every new token, and ``length``
    advances only once the logits exist, so a forward that raises, also
    for an ``n_logits`` outside [1, len(new_tokens)], leaves the cache as
    it was.

    Only the last layer's keys and values of a position whose logits are
    not returned are ever read, so its queries, attention, ``wo``, MLP,
    final norm and LM head run on the kept rows alone. Every step is
    computed per position (a GEMM column, a layer-norm row, an attention
    query row), so the kept rows and the cache get the same bits as in the
    full forward.
    """
    cfg = model.config
    tokens = np.asarray(new_tokens, dtype=np.int64)
    if tokens.ndim != 1 or tokens.size == 0:
        raise ValueError("new_tokens must be a non-empty 1-D sequence")
    bad = (tokens < 0) | (tokens >= cfg.vocab_size)
    if bad.any():
        raise TokenRangeError(
            f"token id {int(tokens[bad][0])} outside [0, {cfg.vocab_size})"
        )
    n = tokens.size
    if n_logits is None:
        n_logits = n
    elif (isinstance(n_logits, bool) or not isinstance(n_logits, (int, np.integer))
          or not 1 <= n_logits <= n):
        raise ValueError(f"n_logits must be an integer in [1, {n}], got {n_logits!r}")
    start = cache.length
    end = start + n
    if end > cfg.max_seq_len:
        raise ContextOverflow(
            f"{start} cached + {n} new tokens exceed max_seq_len={cfg.max_seq_len}"
        )
    if model.forward_penalty_s:
        time.sleep(model.forward_penalty_s)

    x = model.tok_emb[tokens] + model.pos_emb[start:end]
    d_head = cfg.d_model // cfg.n_heads

    for li, layer in enumerate(model.layers):
        # Rows past attention: the kept ones in the last layer, else all.
        rows = n_logits if li == len(model.layers) - 1 else n
        h = _layer_norm(x, layer.ln1_g, layer.ln1_b, cfg.norm_epsilon)
        operands = {}  # wq, wk and wv read the same h
        k, v = (lw.apply(h, operands).reshape(n, cfg.n_heads, d_head)
                for lw in (layer.wk, layer.wv))
        q = layer.wq.apply(h, operands, last=rows).reshape(rows, cfg.n_heads, d_head)
        ctx = _attention(q, k, v, cache, li, start, exact=not model.is_quantized)
        x = x[n - rows:] + layer.wo.apply(ctx.reshape(rows, cfg.d_model))

        h = _layer_norm(x, layer.ln2_g, layer.ln2_b, cfg.norm_epsilon)
        up = _gelu(layer.w_up.apply(h))
        x = x + layer.w_down.apply(up)

    h = _layer_norm(x, model.final_ln_g, model.final_ln_b, cfg.norm_epsilon)
    logits = model.w_out.apply(h)
    cache.tokens[start:end] = tokens
    cache.length = end
    return logits


def greedy_next(logits_row: np.ndarray) -> int:
    """Argmax with ties broken to the lowest token id."""
    row = np.asarray(logits_row)
    if row.size == 0:
        raise ValueError("empty logits row")
    return int(np.argmax(row))


def softmax_probs(logits_row: np.ndarray) -> np.ndarray:
    row = np.asarray(logits_row, dtype=np.float64)
    e = np.exp(row - np.max(row))
    return e / qgemm.fold_sum(e)


def model_checksum(model: TinyLmModel) -> str:
    """Stable hex digest over all weight payloads."""
    import hashlib

    h = hashlib.sha256()
    for a in model.embeddings_and_norms():
        h.update(np.ascontiguousarray(a).tobytes())
    for lw in model.all_linears():
        w = lw.weight
        if isinstance(w, MxfpTensor):
            h.update(w.codes.tobytes())
            h.update(w.scale_exp.tobytes())
        else:
            h.update(np.ascontiguousarray(w).tobytes())
    return h.hexdigest()
