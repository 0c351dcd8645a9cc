import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import specqd

from specqd import qgemm, tinylm
from specqd.mxfp4 import CodecError, MxfpTensor
from specqd.tinylm import (
    ContextOverflow,
    LAYER_LINEARS,
    LAYER_NORMS,
    KvCache,
    LayerWeights,
    LinearWeight,
    LmConfig,
    TokenRangeError,
    _attention,
    direct_cast_mxfp4,
    forward,
    greedy_next,
    init_seeded,
    linear_shapes,
    model_checksum,
    rollback,
    softmax_probs,
)

CFG = LmConfig(d_model=64, n_layers=2, n_heads=4, d_ff=128, max_seq_len=96)


@pytest.fixture(scope="module")
def model():
    return init_seeded(CFG, 42)


@pytest.fixture(scope="module")
def qmodel(model):
    return direct_cast_mxfp4(model)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            LmConfig(d_model=65, n_heads=4)

    def test_positive_dims(self):
        with pytest.raises(ValueError):
            LmConfig(n_layers=0)


class TestSchema:
    def test_names_every_layer_tensor_once(self):
        # A layer tensor the schema misses would escape the cast, the
        # checksum and the model file.
        names = LAYER_NORMS + LAYER_LINEARS
        assert len(set(names)) == len(names)
        assert set(names) == {f.name for f in fields(LayerWeights)}

    def test_linear_shapes(self):
        cfg = LmConfig(d_model=48, n_heads=3, d_ff=80)
        shapes = linear_shapes(cfg)
        assert tuple(shapes) == LAYER_LINEARS
        assert shapes["w_up"] == (80, 48) and shapes["w_down"] == (48, 80)
        layer = init_seeded(replace(cfg, n_layers=1), 0).layers[0]
        assert {name: getattr(layer, name).shape for name in LAYER_LINEARS} == shapes
        assert all(getattr(layer, name).shape == (48,) for name in LAYER_NORMS)


class TestInit:
    def test_seed_determinism(self):
        a = init_seeded(CFG, 7)
        b = init_seeded(CFG, 7)
        assert model_checksum(a) == model_checksum(b)

    def test_different_seeds_differ(self):
        assert model_checksum(init_seeded(CFG, 1)) != model_checksum(init_seeded(CFG, 2))

    def test_golden_checksum(self, model):
        # Frozen at first build; guards against silent init-order changes.
        assert model_checksum(model) == (
            "d87631e0e6f7e495184556b6ac88cfcffa32618d4ea44997b075bb39809866a0"
        )

    def test_weight_bound(self, model):
        bound = 1.0 / np.sqrt(CFG.d_model)
        assert np.max(np.abs(model.tok_emb)) <= bound


class TestDirectCast:
    def test_only_linears_quantized(self, qmodel):
        assert isinstance(qmodel.w_out.weight, MxfpTensor)
        assert isinstance(qmodel.tok_emb, np.ndarray)
        assert isinstance(qmodel.layers[0].ln1_g, np.ndarray)

    def test_idempotent(self, qmodel):
        twice = direct_cast_mxfp4(qmodel)
        assert model_checksum(twice) == model_checksum(qmodel)

    def test_size_reduction(self, model, qmodel):
        ratio = model.linear_weight_bytes() / qmodel.linear_weight_bytes()
        assert ratio == pytest.approx(32 / 4.25, rel=1e-9)

    def test_architecture_shared(self, model, qmodel):
        assert qmodel.config == model.config

    def test_outputs_often_agree(self, model, qmodel):
        # Direction check only: the cast keeps most greedy choices intact.
        agree = 0
        for t in range(0, 100, 10):
            c1, c2 = KvCache.empty(CFG), KvCache.empty(CFG)
            l1 = forward(model, c1, [t, t + 1])
            l2 = forward(qmodel, c2, [t, t + 1])
            agree += greedy_next(l1[-1]) == greedy_next(l2[-1])
        assert agree >= 5


class TestForward:
    def test_logit_shape(self, model):
        cache = KvCache.empty(CFG)
        logits = forward(model, cache, [1, 2, 3])
        assert logits.shape == (3, CFG.vocab_size)
        assert cache.length == 3

    def test_incremental_equals_fresh(self, model):
        c1 = KvCache.empty(CFG)
        forward(model, c1, [5])
        l_inc = forward(model, c1, [9])
        c2 = KvCache.empty(CFG)
        l_all = forward(model, c2, [5, 9])
        assert np.array_equal(l_inc[-1], l_all[-1])

    @pytest.mark.parametrize("mdl", ["model", "qmodel"])
    def test_batch_equals_token_by_token(self, mdl, request):
        m = request.getfixturevalue(mdl)
        toks = [3, 200, 17, 4, 90]
        c1, c2 = KvCache.empty(CFG), KvCache.empty(CFG)
        batch = forward(m, c1, toks)
        singles = [forward(m, c2, [t])[0] for t in toks]
        for i in range(len(toks)):
            assert np.array_equal(batch[i], singles[i])

    def test_context_overflow(self, model):
        cache = KvCache.empty(CFG)
        with pytest.raises(ContextOverflow):
            forward(model, cache, list(range(CFG.max_seq_len + 1)))

    def test_empty_input_rejected(self, model):
        with pytest.raises(ValueError):
            forward(model, KvCache.empty(CFG), [])

    @pytest.mark.parametrize("bad", [-1, -5, CFG.vocab_size, 10_000])
    def test_out_of_range_token_rejected(self, model, bad):
        cache = KvCache.empty(CFG)
        with pytest.raises(TokenRangeError, match="outside"):
            forward(model, cache, [3, bad])
        assert issubclass(TokenRangeError, ValueError)
        assert cache.length == 0

    @pytest.mark.parametrize("mdl", ["model", "qmodel"])
    def test_long_prefill_equals_token_by_token(self, mdl, request):
        # 80 positions over up to 90 keys span several attention chunks.
        m = request.getfixturevalue(mdl)
        toks = [int(t) for t in np.random.default_rng(14).integers(0, 256, 90)]
        c1, c2 = KvCache.empty(CFG), KvCache.empty(CFG)
        forward(m, c1, toks[:10])
        batch = forward(m, c1, toks[10:])
        singles = [forward(m, c2, [t])[0] for t in toks][10:]
        assert batch.tobytes() == np.stack(singles).tobytes()

    @pytest.mark.parametrize("mdl", ["model", "qmodel"])
    def test_one_activation_quantization_for_qkv(self, mdl, request,
                                                  monkeypatch):
        m = request.getfixturevalue(mdl)
        calls = []
        real = qgemm.quantize_activations
        monkeypatch.setattr(qgemm, "quantize_activations",
                            lambda a: calls.append(a.shape) or real(a))
        forward(m, KvCache.empty(CFG), [1, 2, 3])
        # wq/wk/wv share one panel: wo, w_up, w_down and QKV per layer,
        # plus the LM head.
        want = 4 * CFG.n_layers + 1 if m.is_quantized else 0
        assert len(calls) == want

    @pytest.mark.parametrize("mdl", ["model", "qmodel"])
    def test_apply_rows_whatever_the_operand_dict(self, mdl, request):
        # A call without a dict makes its operand in a fresh one; a shared
        # dict hands wq the operand wk made; ``last`` keeps its last rows.
        layer = request.getfixturevalue(mdl).layers[0]
        x = np.random.default_rng(3).standard_normal((5, CFG.d_model))
        full = layer.wq.apply(x)
        operands = {}
        layer.wk.apply(x, operands)
        assert layer.wq.apply(x, operands).tobytes() == full.tobytes()
        for k in (1, 2, 5):
            want = full[5 - k:].tobytes()
            assert layer.wq.apply(x, last=k).tobytes() == want
            assert layer.wq.apply(x, operands, last=k).tobytes() == want
        assert len(operands) == 1


# Prints one digest over a reference GEMM, two int8 GEMMs and the logits of
# d64 forwards of a float model and its MXFP4 cast: 40 tokens, then a
# 320-token prefill at max_seq_len=512, once in the default attention
# blocks and once in a single block, whose matmuls are large enough for
# OpenBLAS to split across threads. So is the int8 GEMM's (16, 64) by
# (64, 4096) sgemm. The second int8 GEMM, at K = 1024, batches columns
# inside its exact float32 window with one of each kind outside it: a
# column past the L1 bound, products past float32's range,
# activations below float32's normal range and an all-zero column.
_BLAS_PROBE = """
import hashlib
import numpy as np
from specqd import qgemm, tinylm
from specqd.mxfp4 import quantize_direct_cast
rng = np.random.default_rng(0)
h = hashlib.sha256(qgemm.gemm_reference(rng.standard_normal((300, 200)),
                                        rng.standard_normal((200, 70))).tobytes())
h.update(qgemm.gemm_mxfp4_int8(
    quantize_direct_cast(rng.standard_normal((4096, 64))),
    qgemm.quantize_activations(rng.standard_normal((64, 16)))).tobytes())
w = quantize_direct_cast(rng.uniform(-1, 1, (2048, 1024)))
a = rng.uniform(-1, 1, (1024, 12))
a[:, 8] *= np.repeat(np.tile([1.0, 2.0 ** -7], 16), 32)
a[:, 9] *= 2.0 ** 120
a[:, 10] *= 2.0 ** -140
a[:, 11] = 0.0
for cols in ([0, 1, 2, 3, 4, 5, 6, 7, 11], slice(None)):
    h.update(qgemm.gemm_mxfp4_int8(w, qgemm.quantize_activations(a[:, cols])).tobytes())
for max_seq_len, n, block in ((256, 40, None), (512, 320, None), (512, 320, 1 << 22)):
    tinylm.ATTN_BLOCK = block or tinylm.ATTN_BLOCK
    cfg = tinylm.LmConfig(d_model=64, n_layers=2, n_heads=4, d_ff=128,
                          max_seq_len=max_seq_len)
    model = tinylm.init_seeded(cfg, 0)
    toks = [int(t) for t in np.random.default_rng(n).integers(0, cfg.vocab_size, n)]
    for m in (model, tinylm.direct_cast_mxfp4(model)):
        h.update(tinylm.forward(m, tinylm.KvCache.empty(cfg), toks).tobytes())
print(h.hexdigest())
"""


def test_blas_thread_count_does_not_change_bits():
    # BLAS does the reference and int8 GEMMs' and attention's reductions,
    # and it is the only source of parallelism, so its thread count is
    # where the bits could start to depend on the host.
    src = str(Path(specqd.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def loop_attention(q, keys, vals, start):
    """Causal attention one (position, head) at a time in extended
    precision, each reduction over exactly the keys the position sees."""
    q, keys, vals = (np.asarray(a, dtype=np.longdouble) for a in (q, keys, vals))
    n, heads, d_head = q.shape
    ctx = np.empty((n, heads, d_head), dtype=np.longdouble)
    for i in range(n):
        kv_len = start + i + 1
        for hd in range(heads):
            scores = keys[:kv_len, hd] @ q[i, hd] / np.sqrt(np.longdouble(d_head))
            e = np.exp(scores - scores.max())
            ctx[i, hd] = e @ vals[:kv_len, hd] / e.sum()
    return ctx


def attention_bound(q, keys, vals, start, max_seq_len):
    """``_attention``'s stated error bound per position, shape (n, 1, 1)."""
    n, _, d_head = q.shape
    b = 53 - qgemm.W_SLICE_BITS - (d_head - 1).bit_length()
    c = 53 - qgemm.W_SLICE_BITS - (max_seq_len - 1).bit_length()
    seen = start + np.arange(1, n + 1)
    k_max = np.maximum.accumulate(np.abs(keys).max(axis=(1, 2)))[seen - 1]
    v_max = np.maximum.accumulate(np.abs(vals).max(axis=(1, 2)))[seen - 1]
    delta = (np.sqrt(d_head) * np.abs(q).max(axis=(1, 2)) * k_max
             * (2.0 ** (1 - 3 * b) + 2.0 ** -48))
    bound = v_max * (2.01 * delta + seen * (2.0 ** (2 - 3 * c) + 2.0 ** -49))
    return bound[:, None, None]


def run_attention(q, keys, vals, start, max_seq_len=96, steps=None):
    """``_attention`` of positions start.. on a fresh one-layer cache that
    first takes ``start`` positions; ``steps`` splits the new positions
    into calls of those sizes (one call by default)."""
    n, heads, d_head = q.shape
    cfg = LmConfig(d_model=heads * d_head, n_layers=1, n_heads=heads,
                   max_seq_len=max_seq_len)
    cache = KvCache.empty(cfg)
    if start:
        _attention(np.zeros((start, heads, d_head)), keys[:start], vals[:start],
                   cache, 0, 0)
    out, pos = [], 0
    for size in steps or [n]:
        lo, hi = start + pos, start + pos + size
        out.append(_attention(q[pos:pos + size], keys[lo:hi], vals[lo:hi],
                              cache, 0, lo))
        pos += size
    return np.concatenate(out)


class TestAttention:
    @pytest.mark.parametrize("start,n", [(0, 1), (0, 37), (5, 1), (9, 12)])
    def test_matches_loop_oracle(self, start, n):
        # Within the stated bound of exact attention, not bit for bit:
        # only the contracts below pin bits.
        rng = np.random.default_rng(start + n)
        heads, d_head = 4, 16
        q = rng.standard_normal((n, heads, d_head))
        keys = rng.standard_normal((start + n, heads, d_head))
        vals = rng.standard_normal((start + n, heads, d_head))
        got = run_attention(q, keys, vals, start)
        err = np.abs(got - loop_attention(q, keys, vals, start))
        assert np.all(err <= attention_bound(q, keys, vals, start, 96))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0])
    def test_bound_at_max_seq_len(self, scale):
        # Large scores drive most probabilities to 0; small ones make the
        # softmax nearly flat.
        rng = np.random.default_rng(16)
        q = rng.standard_normal((40, 4, 16)) * scale
        keys = rng.standard_normal((512, 4, 16))
        vals = rng.standard_normal((512, 4, 16)) * rng.uniform(0.01, 10, (512, 1, 1))
        got = run_attention(q, keys, vals, 472, max_seq_len=512)
        err = np.abs(got - loop_attention(q, keys, vals, 472))
        assert np.all(err <= attention_bound(q, keys, vals, 472, 512))

    def test_block_boundaries(self):
        # 200 cached + 60 new keys: the 60 positions span several blocks.
        heads, d_head, n_keys = 4, 16, 260
        slices = qgemm.A_SLICES * qgemm.W_SLICES
        assert tinylm.ATTN_BLOCK // (slices * heads * n_keys) < 30
        rng = np.random.default_rng(15)
        q = rng.standard_normal((60, heads, d_head))
        keys = rng.standard_normal((n_keys, heads, d_head))
        vals = rng.standard_normal((n_keys, heads, d_head))
        for steps in ([1] * 60, [7, 31, 22]):
            got = run_attention(q, keys, vals, 200, n_keys, steps)
            assert got.tobytes() == run_attention(q, keys, vals, 200, n_keys).tobytes()

    @pytest.mark.parametrize("blas_zero", [0.0, -0.0])
    def test_signed_zero_values(self, monkeypatch, blas_zero):
        # Zero rows of either sign in the values, and a head whose values
        # are all -0.0, whose context is then +0.0 whichever sign BLAS
        # gives a zero dot product.
        matmul = np.matmul

        def signed_matmul(a, b, out=None):
            out = matmul(a, b, out=out)
            out[out == 0] = blas_zero
            return out

        monkeypatch.setattr(np, "matmul", signed_matmul)
        rng = np.random.default_rng(17)
        q = rng.standard_normal((30, 4, 16))
        keys = rng.standard_normal((30, 4, 16))
        vals = rng.standard_normal((30, 4, 16))
        vals[::3] = -0.0
        vals[1::5] = 0.0
        vals[:, 2] = -0.0
        batch = run_attention(q, keys, vals, 0)
        assert batch.tobytes() == run_attention(q, keys, vals, 0, steps=[1] * 30).tobytes()
        assert not np.signbit(batch[:, 2]).any() and not batch[:, 2].any()
        err = np.abs(batch - loop_attention(q, keys, vals, 0))
        assert np.all(err <= attention_bound(q, keys, vals, 0, 96))

    def test_non_finite_rejected_before_writing(self):
        cache = KvCache.empty(CFG)
        q = np.ones((2, 4, 16))
        bad = q.copy()
        bad[1, 3, 5] = np.inf
        with pytest.raises(CodecError):
            _attention(q, q, bad, cache, 0, 0)
        assert not cache.keys.any() and not cache.values.any()


LONG = LmConfig(d_model=64, n_layers=2, n_heads=4, d_ff=128, max_seq_len=512)


class TestLongContext:
    """Batched = incremental on a d64 model at max_seq_len=512, across the
    attention's block boundaries and up to the last position."""

    @pytest.fixture(scope="class")
    def long_model(self):
        return init_seeded(LONG, 3)

    @pytest.fixture(scope="class")
    def tokens(self):
        return [int(t) for t in np.random.default_rng(18).integers(0, 256, 512)]

    @pytest.fixture(scope="class")
    def incremental(self, long_model, tokens):
        cache = KvCache.empty(LONG)
        return np.stack([forward(long_model, cache, [t])[0] for t in tokens])

    def test_grid_crosses_blocks(self):
        rows = tinylm.ATTN_BLOCK // (qgemm.A_SLICES * qgemm.W_SLICES
                                     * LONG.n_heads * LONG.max_seq_len)
        assert 1 < rows < 22

    @pytest.mark.parametrize("start,n", [(0, 512), (0, 300), (1, 40), (21, 22),
                                         (100, 64), (333, 179), (450, 62), (511, 1)])
    def test_batched_equals_incremental(self, long_model, tokens, incremental,
                                        start, n):
        cache = KvCache.empty(LONG)
        if start:
            forward(long_model, cache, tokens[:start])
        batch = forward(long_model, cache, tokens[start:start + n])
        assert batch.tobytes() == incremental[start:start + n].tobytes()

    def test_rollback_mid_block_then_refeed(self, long_model, tokens):
        other = [int(t) for t in np.random.default_rng(19).integers(0, 256, 200)]
        cache = KvCache.empty(LONG)
        forward(long_model, cache, tokens[:300])
        rollback(cache, 157)
        got = forward(long_model, cache, other)
        fresh = forward(long_model, KvCache.empty(LONG), tokens[:157] + other)
        assert got.tobytes() == fresh[157:].tobytes()


# Prompts of up to 153 positions at max_seq_len=160 span several attention
# query blocks in both shapes.
ROWS_CONFIGS = {
    "2-layer": LmConfig(d_model=64, n_layers=2, n_heads=4, d_ff=128,
                        max_seq_len=160),
    "1-layer": LmConfig(d_model=32, n_layers=1, n_heads=2, d_ff=64,
                        max_seq_len=160),
}
CACHE_FIELDS = ("keys", "values", "value_scales", "tokens", "length")


def cache_bytes(cache):
    return [np.asarray(getattr(cache, name)).tobytes() for name in CACHE_FIELDS]


class TestLogitRows:
    """``n_logits=m`` returns the last m rows of the full forward and
    leaves the cache as the full forward does, bit for bit."""

    @pytest.fixture(scope="class", params=[
        (shape, quantized) for shape in ROWS_CONFIGS for quantized in (False, True)
    ], ids=lambda p: f"{p[0]}-{'mxfp4' if p[1] else 'float'}")
    def rows_model(self, request):
        shape, quantized = request.param
        m = init_seeded(ROWS_CONFIGS[shape], 5)
        return direct_cast_mxfp4(m) if quantized else m

    @staticmethod
    def run(model, tokens, start, n, n_logits):
        """The cache after ``start`` tokens, then a forward of the next n."""
        cache = KvCache.empty(model.config)
        if start:
            forward(model, cache, tokens[:start])
        return forward(model, cache, tokens[start:start + n], n_logits=n_logits), cache

    def test_grid_crosses_blocks(self):
        for cfg in ROWS_CONFIGS.values():
            rows = tinylm.ATTN_BLOCK // (qgemm.A_SLICES * qgemm.W_SLICES
                                         * cfg.n_heads * cfg.max_seq_len)
            assert rows < 153 // 2

    # The first case leaves room for 10 more tokens, the second ends at
    # max_seq_len.
    @pytest.mark.parametrize("start,n", [(0, 150), (7, 153), (40, 3)])
    @pytest.mark.parametrize("m", ["1", "2", "n"])
    def test_last_rows_and_cache(self, rows_model, start, n, m):
        cfg = rows_model.config
        m = n if m == "n" else int(m)
        tokens = [int(t) for t in np.random.default_rng(20).integers(
            0, cfg.vocab_size, cfg.max_seq_len)]
        full, full_cache = self.run(rows_model, tokens, start, n, None)
        got, cache = self.run(rows_model, tokens, start, n, m)
        assert got.shape == (m, cfg.vocab_size)
        assert got.tobytes() == full[n - m:].tobytes()
        assert cache_bytes(cache) == cache_bytes(full_cache)
        rest = tokens[start + n:][:10]
        if rest:
            after = forward(rows_model, cache, rest)
            assert after.tobytes() == forward(rows_model, full_cache, rest).tobytes()

    @pytest.mark.parametrize("bad", [-1, 0, 4, 1.0, "1", True, np.float64(2)])
    def test_bad_n_logits_rejected(self, model, bad):
        cache = KvCache.empty(CFG)
        forward(model, cache, [1, 2])
        before = cache_bytes(cache)
        with pytest.raises(ValueError, match="n_logits"):
            forward(model, cache, [4, 5, 6], n_logits=bad)
        assert cache_bytes(cache) == before
        got = forward(model, cache, [4, 5, 6], n_logits=np.int64(2))
        assert got.tobytes() == forward(
            model, KvCache.empty(CFG), [1, 2, 4, 5, 6])[3:].tobytes()


class TestRollback:
    def test_noop(self, model):
        cache = KvCache.empty(CFG)
        forward(model, cache, [1, 2])
        rollback(cache, 2)
        assert cache.length == 2

    def test_to_zero(self, model):
        cache = KvCache.empty(CFG)
        forward(model, cache, [1, 2])
        rollback(cache, 0)
        assert cache.length == 0
        want = forward(model, KvCache.empty(CFG), [7, 8])
        assert forward(model, cache, [7, 8]).tobytes() == want.tobytes()

    def test_buffers_reused(self, model):
        cache = KvCache.empty(CFG)
        made = vars(cache).copy()
        forward(model, cache, [1, 2, 3])
        rollback(cache, 1)
        forward(model, cache, [4, 5])
        for name in ("keys", "values", "tokens"):
            assert np.shares_memory(getattr(cache, name), made[name])
        assert cache.tokens[:cache.length].tolist() == [1, 4, 5]

    def test_rollback_then_forward_equals_fresh(self, model):
        cache = KvCache.empty(CFG)
        forward(model, cache, [10, 11, 12])
        rollback(cache, 1)
        l1 = forward(model, cache, [99])
        fresh = KvCache.empty(CFG)
        l2 = forward(model, fresh, [10, 99])
        assert np.array_equal(l1[-1], l2[-1])

    def test_rejects_growth(self, model):
        cache = KvCache.empty(CFG)
        forward(model, cache, [1])
        with pytest.raises(ValueError):
            rollback(cache, 5)

    def test_random_interleaving_equals_recompute(self, model):
        rng = np.random.default_rng(11)
        cache = KvCache.empty(CFG)
        prefix: list[int] = []
        last = None
        for _ in range(20):
            if prefix and rng.random() < 0.4:
                keep = int(rng.integers(0, len(prefix) + 1))
                rollback(cache, keep)
                prefix = prefix[:keep]
            new = [int(t) for t in rng.integers(0, CFG.vocab_size, rng.integers(1, 4))]
            last = forward(model, cache, new)
            prefix += new
            fresh = KvCache.empty(CFG)
            ref = forward(model, fresh, prefix)
            assert np.array_equal(last[-1], ref[-1])


def _poisoned(model, layer=None):
    """A copy of ``model`` with a NaN in layer ``layer``'s wq, or in w_out."""
    w = np.array(model.layers[layer].wq.weight if layer is not None
                 else model.w_out.weight)
    w[0, 0] = np.nan
    if layer is None:
        return replace(model, w_out=LinearWeight(w))
    layers = list(model.layers)
    layers[layer] = replace(layers[layer], wq=LinearWeight(w))
    return replace(model, layers=layers)


@pytest.mark.parametrize("layer", [1, None], ids=["wq-layer1", "w_out"])
def test_failed_forward_leaves_cache_usable(model, layer):
    cache = KvCache.empty(CFG)
    forward(model, cache, [1, 2, 3])
    with pytest.raises(CodecError):
        forward(_poisoned(model, layer), cache, [4, 5])
    assert cache.length == 3
    want = forward(model, KvCache.empty(CFG), [1, 2, 3, 6, 7])[3:]
    assert forward(model, cache, [6, 7]).tobytes() == want.tobytes()


class TestGreedyNext:
    def test_basic(self):
        assert greedy_next(np.array([0.1, 0.9, 0.3])) == 1

    def test_tie_lowest_id(self):
        assert greedy_next(np.array([0.5, 0.5])) == 0

    def test_uniform(self):
        assert greedy_next(np.zeros(7)) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            greedy_next(np.array([]))

    def test_affine_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            row = rng.standard_normal(16)
            a = float(rng.uniform(0.1, 5))
            b = float(rng.uniform(-3, 3))
            assert greedy_next(row) == greedy_next(a * row + b)


def test_softmax_normalized():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = softmax_probs(rng.standard_normal(32) * 5)
        assert abs(np.sum(p) - 1.0) < 1e-6
        assert np.all(p >= 0)
