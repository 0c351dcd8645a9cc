"""Deterministic desk-scale decoder-only transformer.

Pre-norm blocks with learned absolute positions and a GELU MLP. Every
linear layer routes through the qgemm kernels, so swapping a model's linear
weights for their MXFP4 direct cast is a one-call transformation and the
quantized model exercises exactly the late-scaling / int8 paths.

Forward passes are bit-deterministic: per-position reductions are computed
in a fixed sequential order, so processing a batch of new positions equals
processing them one at a time, token for token and bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import qgemm
from .mxfp4 import MxfpTensor, quantize_direct_cast


@dataclass(frozen=True)
class LmConfig:
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

    def _operand(self, x: np.ndarray, gemm_path: str):
        """The GEMM's right-hand side for x of shape (n_tokens, in_features)."""
        a = np.ascontiguousarray(x.T)
        if not self.is_quantized:
            return a
        pad = self.weight.padded_cols - a.shape[0]
        if pad:
            a = np.pad(a, ((0, pad), (0, 0)))
        if gemm_path == "latescale_f32":
            return a
        return qgemm.quantize_activations(a)

    def apply(self, x: np.ndarray, gemm_path: str,
              operands: dict | None = None) -> np.ndarray:
        """y = x @ W.T for x of shape (n_tokens, in_features).

        ``operands`` keeps the GEMM operand made from x per storage kind and
        width, so linears that read the same x transpose, pad and quantize
        it once.
        """
        if operands is None:
            a = self._operand(x, gemm_path)
        else:
            key = (self.is_quantized, self.shape[1])
            if key not in operands:
                operands[key] = self._operand(x, gemm_path)
            a = operands[key]
        if not self.is_quantized:
            return qgemm.gemm_reference(self.weight, a).T
        if gemm_path == "latescale_f32":
            return qgemm.gemm_mxfp4_latescale_f32(self.weight, a).T
        return qgemm.gemm_mxfp4_int8(self.weight, a).T


@dataclass
class LayerWeights:
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    wq: LinearWeight
    wk: LinearWeight
    wv: LinearWeight
    wo: LinearWeight
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    w_up: LinearWeight
    w_down: LinearWeight


@dataclass
class TinyLmModel:
    config: LmConfig
    tok_emb: np.ndarray
    pos_emb: np.ndarray
    layers: list[LayerWeights]
    final_ln_g: np.ndarray
    final_ln_b: np.ndarray
    w_out: LinearWeight
    # GEMM path for MXFP4 linears: "int8" (default) or "latescale_f32".
    gemm_path: str = "int8"
    # Optional per-forward sleep, used to emulate a bandwidth-bound host
    # where wall time tracks streamed weight bytes.
    forward_penalty_s: float = 0.0

    @property
    def is_quantized(self) -> bool:
        return self.w_out.is_quantized

    def all_linears(self) -> list[LinearWeight]:
        out = []
        for layer in self.layers:
            out += [layer.wq, layer.wk, layer.wv, layer.wo, layer.w_up, layer.w_down]
        out.append(self.w_out)
        return out

    def linear_weight_bytes(self) -> int:
        return sum(lw.storage_bytes() for lw in self.all_linears())


@dataclass
class KvCache:
    """One session's keys, values and tokens in buffers preallocated for
    the model's whole context; the first ``length`` positions are valid.

    keys and values have shape (n_layers, max_seq_len, n_heads, d_head),
    tokens (max_seq_len,).
    """

    keys: np.ndarray
    values: np.ndarray
    tokens: np.ndarray
    length: int = 0

    @classmethod
    def empty(cls, config: LmConfig) -> "KvCache":
        shape = (config.n_layers, config.max_seq_len, config.n_heads,
                 config.d_model // config.n_heads)
        return cls(np.zeros(shape), np.zeros(shape),
                   np.zeros(config.max_seq_len, dtype=np.int64))


def rollback(cache: KvCache, to_length: int) -> KvCache:
    """Truncate the cache to the state after the first ``to_length`` tokens."""
    if to_length > cache.length or to_length < 0:
        raise ValueError(f"cannot roll back to {to_length} from {cache.length}")
    cache.length = to_length
    return cache


def init_seeded(config: LmConfig, seed: int) -> TinyLmModel:
    """All weights uniform in [-1/sqrt(d_model), 1/sqrt(d_model)] from one PRNG.

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

    def linear(out_f, in_f):
        return LinearWeight(u(out_f, in_f))

    layers = []
    for _ in range(config.n_layers):
        layers.append(
            LayerWeights(
                ln1_g=np.ones(d), ln1_b=np.zeros(d),
                wq=linear(d, d), wk=linear(d, d), wv=linear(d, d), wo=linear(d, d),
                ln2_g=np.ones(d), ln2_b=np.zeros(d),
                w_up=linear(config.d_ff, d), w_down=linear(d, config.d_ff),
            )
        )
    return TinyLmModel(
        config=config,
        tok_emb=u(config.vocab_size, d),
        pos_emb=u(config.max_seq_len, d),
        layers=layers,
        final_ln_g=np.ones(d),
        final_ln_b=np.zeros(d),
        w_out=linear(config.vocab_size, d),
    )


def direct_cast_mxfp4(m: TinyLmModel, gemm_path: str = "int8") -> TinyLmModel:
    """Replace every 2-D linear weight by its MXFP4 direct cast.

    Embeddings, norms and architecture are untouched; casting an already
    quantized model is a no-op on the weights.
    """
    layers = [
        replace(
            layer,
            wq=layer.wq.quantized(), wk=layer.wk.quantized(),
            wv=layer.wv.quantized(), wo=layer.wo.quantized(),
            w_up=layer.w_up.quantized(), w_down=layer.w_down.quantized(),
        )
        for layer in m.layers
    ]
    return replace(m, layers=layers, w_out=m.w_out.quantized(), gemm_path=gemm_path)


def _layer_norm(x, g, b, eps):
    d = x.shape[-1]
    mu = qgemm.fold_sum(x, axis=-1)[..., None] / d
    var = qgemm.fold_sum((x - mu) ** 2, axis=-1)[..., None] / d
    return (x - mu) / np.sqrt(var + eps) * g + b


def _gelu(x):
    # tanh approximation; exactness is irrelevant, determinism is not.
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x**3)))


def _softmax_row(row):
    e = np.exp(row - np.max(row))
    return e / qgemm.fold_sum(e)


# Product elements per attention chunk of new positions; bounds the
# (positions, heads, keys, d_head) temporaries of a long prefill to 1 MiB.
ATTN_CHUNK = 1 << 17


def _attention(q, keys, vals, start):
    """Causal attention of new positions ``start + i`` over the cache.

    q has shape (n, heads, d_head); keys and vals (start + n, heads, d_head).
    A chunk of positions reduces over the keys its last position sees: a
    key past a position scores -inf, so exp gives it an exact +0.0, and its
    context product is set to -0.0, which leaves any float unchanged when
    added. A fold_sum tree padded with such trailing identities gives the
    bits of the unpadded tree, so a position's output does not depend on
    how many positions arrive with it.
    """
    n, heads, d_head = q.shape
    inv_sqrt = 1.0 / np.sqrt(d_head)
    k_t = keys.transpose(1, 0, 2)[None]  # (1, heads, keys, d_head)
    v_t = vals.transpose(1, 0, 2)[None]
    ctx = np.empty_like(q)
    step = max(1, ATTN_CHUNK // (heads * keys.shape[0] * d_head))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        kv = start + hi
        # (positions, 1, keys): True where the key lies past the position.
        future = (np.arange(kv) > np.arange(start + lo, kv)[:, None])[:, None]
        scores = qgemm.fold_sum(q[lo:hi, :, None] * k_t[:, :, :kv], axis=-1)
        scores = np.where(future, -np.inf, scores * inv_sqrt)
        e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
        prod = (e / qgemm.fold_sum(e, axis=-1)[..., None])[..., None] * v_t[:, :, :kv]
        np.copyto(prod, -0.0, where=future[..., None])
        ctx[lo:hi] = qgemm.fold_sum(prod, axis=2)
    return ctx


def forward(model: TinyLmModel, cache: KvCache, new_tokens) -> np.ndarray:
    """Process new token positions in one pass, extending the cache.

    Returns logits of shape (len(new_tokens), vocab); row i conditions on
    the cache plus new_tokens[: i + 1]. Verifying N+1 positions therefore
    costs one call. Keys and values are written in place past the cached
    positions, and ``length`` advances only once the logits exist, so a
    forward that raises leaves the cache as it was.
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
    start = cache.length
    end = start + n
    if end > cfg.max_seq_len:
        raise ContextOverflow(
            f"{start} cached + {n} new tokens exceed max_seq_len={cfg.max_seq_len}"
        )
    if model.forward_penalty_s:
        time.sleep(model.forward_penalty_s)

    d_head = cfg.d_model // cfg.n_heads
    x = model.tok_emb[tokens] + model.pos_emb[start:end]

    for li, layer in enumerate(model.layers):
        h = _layer_norm(x, layer.ln1_g, layer.ln1_b, cfg.norm_epsilon)
        operands = {}  # wq, wk and wv read the same h
        q, k, v = (
            lw.apply(h, model.gemm_path, operands).reshape(n, cfg.n_heads, d_head)
            for lw in (layer.wq, layer.wk, layer.wv)
        )
        cache.keys[li, start:end] = k
        cache.values[li, start:end] = v
        ctx = _attention(q, cache.keys[li, :end], cache.values[li, :end], start)
        attn = layer.wo.apply(ctx.reshape(n, cfg.d_model), model.gemm_path)
        x = x + attn

        h = _layer_norm(x, layer.ln2_g, layer.ln2_b, cfg.norm_epsilon)
        up = _gelu(layer.w_up.apply(h, model.gemm_path))
        x = x + layer.w_down.apply(up, model.gemm_path)

    h = _layer_norm(x, model.final_ln_g, model.final_ln_b, cfg.norm_epsilon)
    logits = model.w_out.apply(h, model.gemm_path)
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
    return _softmax_row(np.asarray(logits_row, dtype=np.float64))


def model_checksum(model: TinyLmModel) -> str:
    """Stable hex digest over all weight payloads."""
    import hashlib

    h = hashlib.sha256()
    arrays = [model.tok_emb, model.pos_emb, model.final_ln_g, model.final_ln_b]
    for layer in model.layers:
        arrays += [layer.ln1_g, layer.ln1_b, layer.ln2_g, layer.ln2_b]
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    for lw in model.all_linears():
        w = lw.weight
        if isinstance(w, MxfpTensor):
            h.update(w.codes.tobytes())
            h.update(w.scale_exp.tobytes())
        else:
            h.update(np.ascontiguousarray(w).tobytes())
    return h.hexdigest()
