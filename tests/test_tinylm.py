import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import specqd

from specqd import qgemm, tinylm
from specqd.mxfp4 import CodecError, MxfpTensor
from specqd.tinylm import (
    ContextOverflow,
    KvCache,
    LinearWeight,
    LmConfig,
    TokenRangeError,
    _attention,
    _softmax_row,
    direct_cast_mxfp4,
    forward,
    greedy_next,
    init_seeded,
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

    def test_thread_count_invariant(self, model, monkeypatch):
        c1 = KvCache.empty(CFG)
        base = forward(model, c1, [1, 2])
        monkeypatch.setenv("SPECQD_THREADS", "4")
        c2 = KvCache.empty(CFG)
        assert np.array_equal(base, forward(model, c2, [1, 2]))


# Prints one digest over a reference GEMM and the logits of a d64 forward.
_BLAS_PROBE = """
import hashlib
import numpy as np
from specqd import qgemm, tinylm
rng = np.random.default_rng(0)
h = hashlib.sha256(qgemm.gemm_reference(rng.standard_normal((300, 200)),
                                        rng.standard_normal((200, 70))).tobytes())
cfg = tinylm.LmConfig(d_model=64, n_layers=2, n_heads=4, d_ff=128)
model = tinylm.init_seeded(cfg, 0)
h.update(tinylm.forward(model, tinylm.KvCache.empty(cfg), list(range(40))).tobytes())
print(h.hexdigest())
"""


def test_blas_thread_count_does_not_change_bits():
    # BLAS does the reference GEMM's reductions, so its thread count is
    # one more place where the bits could start to depend on the host.
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
    """Causal attention one (position, head) at a time, each reduction over
    exactly the keys the position sees."""
    n, heads, d_head = q.shape
    inv_sqrt = 1.0 / np.sqrt(d_head)
    ctx = np.empty((n, heads, d_head))
    for i in range(n):
        kv_len = start + i + 1
        for hd in range(heads):
            scores = qgemm.fold_sum(q[i, hd] * keys[:kv_len, hd], axis=1) * inv_sqrt
            probs = _softmax_row(scores)
            ctx[i, hd] = qgemm.fold_sum(probs[:, None] * vals[:kv_len, hd], axis=0)
    return ctx


class TestAttention:
    @pytest.mark.parametrize("start,n", [(0, 1), (0, 37), (5, 1), (9, 12)])
    def test_matches_loop_oracle(self, start, n):
        rng = np.random.default_rng(start + n)
        heads, d_head = 4, 16
        q = rng.standard_normal((n, heads, d_head))
        keys = rng.standard_normal((start + n, heads, d_head))
        vals = rng.standard_normal((start + n, heads, d_head))
        # Negative zeros in vals must survive the masked padding.
        vals[::7] = -0.0
        got = _attention(q, keys, vals, start)
        assert got.tobytes() == loop_attention(q, keys, vals, start).tobytes()

    def test_chunk_boundaries(self):
        # 200 cached + 60 new keys: 16,640 product elements per position,
        # so the 60 positions span several chunks.
        assert tinylm.ATTN_CHUNK // (4 * 260 * 16) < 60
        rng = np.random.default_rng(15)
        q = rng.standard_normal((60, 4, 16))
        keys = rng.standard_normal((260, 4, 16))
        vals = rng.standard_normal((260, 4, 16))
        want = loop_attention(q, keys, vals, 200).tobytes()
        assert _attention(q, keys, vals, 200).tobytes() == want


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
