import json
import statistics
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from specqd import artifacts, qgemm, specdec
from specqd.specdec import (
    DEFAULT_SPEC_LEN,
    DEFAULT_THRESHOLD,
    ACCEPTANCE_CSV_HEADER,
    ROUNDS_CSV_HEADER,
    AcceptanceStats,
    LevelSpec,
    RoundRecord,
    SpecTree,
    acceptance_csv,
    greedy_generate,
    rounds_csv,
    run_benchmark,
    speculative_generate,
)
from specqd.tinylm import (
    KvCache,
    LmConfig,
    TokenRangeError,
    direct_cast_mxfp4,
    forward,
    greedy_next,
    init_seeded,
    softmax_probs,
)

CFG = LmConfig(d_model=32, n_layers=2, n_heads=2, d_ff=64, max_seq_len=128)
SMALL = LmConfig(d_model=16, n_layers=1, n_heads=2, d_ff=32, max_seq_len=128)


@pytest.fixture(scope="module")
def target():
    return init_seeded(CFG, 0)


@pytest.fixture(scope="module")
def mx_draft(target):
    return direct_cast_mxfp4(target)


@pytest.fixture(scope="module")
def small_draft():
    return init_seeded(SMALL, 1)


def two_level(target, draft, n=4, threshold=0.0):
    return SpecTree([
        LevelSpec(target, spec_len=n, threshold=threshold),
        LevelSpec(draft, spec_len=n, threshold=threshold),
    ])


class TestDefaults:
    def test_constants(self):
        assert DEFAULT_SPEC_LEN == 8
        assert DEFAULT_THRESHOLD == 0.4

    def test_level_validation(self, target):
        with pytest.raises(ValueError):
            LevelSpec(target, spec_len=0)
        with pytest.raises(ValueError):
            LevelSpec(target, threshold=1.5)

    def test_tree_needs_target(self):
        with pytest.raises(ValueError):
            SpecTree([])

    def test_tree_rejects_vocab_mismatch(self, target):
        other = init_seeded(LmConfig(vocab_size=128, d_model=16, n_layers=1,
                                     n_heads=2, d_ff=32), 3)
        with pytest.raises(ValueError):
            SpecTree([LevelSpec(target), LevelSpec(other)])


class TestGreedy:
    def test_deterministic(self, target):
        a = greedy_generate(target, [1, 2, 3], 16)
        b = greedy_generate(target, [1, 2, 3], 16)
        assert a.tokens == b.tokens and len(a.tokens) == 16

    def test_eos_stops(self, target):
        full = greedy_generate(target, [5], 24).tokens
        eos = full[10]
        got = greedy_generate(target, [5], 24, eos=eos).tokens
        assert got == full[: full.index(eos) + 1]

    def test_empty_prompt_rejected(self, target):
        with pytest.raises(ValueError):
            greedy_generate(target, [], 4)

    def test_context_truncation(self, target):
        res = greedy_generate(target, [1], CFG.max_seq_len + 50)
        assert res.truncated and len(res.tokens) < CFG.max_seq_len + 50


class TestRequestChecks:
    @pytest.fixture()
    def generators(self, target, mx_draft):
        tree = two_level(target, mx_draft)
        return {
            "greedy": lambda **kw: greedy_generate(target, [5], **kw),
            "speculative": lambda **kw: speculative_generate(tree, [5], **kw),
        }

    @pytest.mark.parametrize("kind", ["greedy", "speculative"])
    def test_negative_max_new_rejected(self, generators, kind):
        with pytest.raises(ValueError, match="max_new"):
            generators[kind](max_new=-3)

    @pytest.mark.parametrize("kind", ["greedy", "speculative"])
    @pytest.mark.parametrize("eos", [-1, CFG.vocab_size, 999])
    def test_eos_outside_vocab_rejected(self, generators, kind, eos):
        with pytest.raises(TokenRangeError, match=f"eos token id {eos} outside"):
            generators[kind](max_new=4, eos=eos)

    @pytest.mark.parametrize("kind", ["greedy", "speculative"])
    def test_zero_max_new_and_edge_eos_accepted(self, generators, kind):
        assert generators[kind](max_new=0).tokens == []
        for eos in (0, CFG.vocab_size - 1):
            assert len(generators[kind](max_new=3, eos=eos).tokens) <= 3


class TestLossless:
    @pytest.mark.parametrize("threshold", [0.0, 0.4, 0.65, 1.0])
    def test_two_level_matches_greedy(self, target, mx_draft, threshold):
        tree = two_level(target, mx_draft, n=4, threshold=threshold)
        for prompt in ([1], [9, 7], [100, 3, 55]):
            base = greedy_generate(target, prompt, 24).tokens
            spec = speculative_generate(tree, prompt, 24).tokens
            assert spec == base

    def test_three_level_matches_greedy(self, target, mx_draft, small_draft):
        tree = SpecTree([
            LevelSpec(target, spec_len=4, threshold=0.2),
            LevelSpec(mx_draft, spec_len=3, threshold=0.2),
            LevelSpec(small_draft, spec_len=2, threshold=0.2),
        ])
        for prompt in ([2], [40, 41]):
            base = greedy_generate(target, prompt, 20).tokens
            assert speculative_generate(tree, prompt, 20).tokens == base

    def test_depth_zero_degenerates_to_greedy(self, target):
        tree = SpecTree([LevelSpec(target)])
        base = greedy_generate(target, [7], 12).tokens
        assert speculative_generate(tree, [7], 12).tokens == base

    def test_eos_respected(self, target, mx_draft):
        tree = two_level(target, mx_draft)
        full = greedy_generate(target, [5], 24).tokens
        eos = full[8]
        base = greedy_generate(target, [5], 24, eos=eos).tokens
        assert speculative_generate(tree, [5], 24, eos=eos).tokens == base

    def test_identical_draft_accepts_everything(self, target):
        # The target drafting for itself must accept every proposal.
        tree = two_level(target, target, n=4)
        res = speculative_generate(tree, [3], 20)
        assert res.stats.alpha(1) == 1.0

    def test_uncorrelated_draft_still_lossless(self, target, small_draft):
        tree = two_level(target, small_draft)
        base = greedy_generate(target, [11], 16).tokens
        assert speculative_generate(tree, [11], 16).tokens == base

    def test_out_of_range_tokens_raise(self, target, mx_draft):
        tree = two_level(target, mx_draft)
        for prompt in ([-1, -5], [3, CFG.vocab_size]):
            with pytest.raises(TokenRangeError):
                speculative_generate(tree, prompt, 4)
            with pytest.raises(TokenRangeError):
                greedy_generate(target, prompt, 4)


# Every level's context ends at or before the target's, one level's far
# before, so the sweep below reaches each level's limit.
LIMIT = LmConfig(vocab_size=64, d_model=32, n_layers=1, n_heads=2, d_ff=64,
                 max_seq_len=24)
LIMIT_SMALL = LmConfig(vocab_size=64, d_model=16, n_layers=1, n_heads=2,
                       d_ff=32, max_seq_len=24)
LIMIT_SHORT = LmConfig(vocab_size=64, d_model=16, n_layers=1, n_heads=2,
                       d_ff=32, max_seq_len=8)


class TestContextLimit:
    @pytest.mark.parametrize("shape", ["mx", "short", "mx-short",
                                       "mx-small-short"])
    @pytest.mark.parametrize("spec_len", [1, 2, 4, 8])
    def test_sweep_matches_greedy(self, shape, spec_len):
        target = init_seeded(LIMIT, 0)
        drafts = {"mx": direct_cast_mxfp4(target),
                  "small": init_seeded(LIMIT_SMALL, 1),
                  "short": init_seeded(LIMIT_SHORT, 2)}
        tree = SpecTree([LevelSpec(target)] + [
            LevelSpec(drafts[name], spec_len=spec_len, threshold=0.0)
            for name in shape.split("-")
        ])
        max_len = LIMIT.max_seq_len
        for n in range(1, max_len + 3):
            prompt = [(7 * i + 3) % 64 for i in range(n)]
            base = greedy_generate(target, prompt, max_len)
            spec = speculative_generate(tree, prompt, max_len)
            assert (spec.tokens, spec.truncated) == (base.tokens, base.truncated), n


def leaf_oracle(model, context, n_max, threshold, eos=None):
    """A leaf's greedy proposal as a loop of its own, one forward per token.

    It stops at ``eos``, at a token whose probability is below
    ``threshold``, and at the context limit.
    """
    n_max = min(n_max, model.config.max_seq_len - len(context) + 1)
    cache = KvCache.empty(model.config)
    out, pending = [], list(context)
    for _ in range(n_max):
        row = forward(model, cache, pending)[-1]
        token = greedy_next(row)
        out.append(token)
        pending = [token]
        if token == eos or (threshold > 0
                            and softmax_probs(row)[token] < threshold):
            break
    return out


# Top-1 probabilities of this model straddle 0.02, so that threshold
# stops some proposals early and lets others run to the limit.
LEAF = LmConfig(vocab_size=160, d_model=16, n_layers=1, n_heads=2, d_ff=32,
                max_seq_len=24)


class TestLeafRound:
    """A leaf runs the same round as every other level, over an empty draft."""

    @pytest.mark.parametrize("context_len,n_max", [
        (3, 5), (3, 22), (3, 40), (20, 5), (24, 3), (25, 3),
    ], ids=["short", "reaches-limit", "passes-limit", "near-limit",
            "full-context", "past-limit"])
    @pytest.mark.parametrize("threshold", [0.0, 1e-9, 0.02, 0.4, 1.0])
    @pytest.mark.parametrize("eos_hit", [False, True])
    def test_matches_greedy_oracle(self, monkeypatch, context_len, n_max,
                                   threshold, eos_hit):
        model = init_seeded(LEAF, 0)
        context = [(5 * i + 1) % LEAF.vocab_size for i in range(context_len)]
        want = leaf_oracle(model, context, n_max, threshold)
        eos = want[len(want) // 2] if eos_hit and want else None
        want = leaf_oracle(model, context, n_max, threshold, eos)
        assert eos is None or eos in want

        calls = Counter()
        real = specdec.forward

        def counting(model, cache, tokens, *, n_logits=None):
            calls["forward"] += 1
            return real(model, cache, tokens, n_logits=n_logits)

        monkeypatch.setattr(specdec, "forward", counting)
        leaf = specdec._Session(LevelSpec(model, threshold=threshold), 2, None,
                                KvCache.empty(model.config))
        stats = AcceptanceStats()
        assert leaf.propose(context, n_max, stats, eos) == want
        assert calls["forward"] == len(want)
        assert (stats.proposed, stats.rounds, stats.log) == ({}, {}, [])

    def test_leaf_level_has_no_round_rows(self, target, mx_draft, small_draft):
        tree = SpecTree([LevelSpec(target, 4, 0.0), LevelSpec(mx_draft, 3, 0.0),
                         LevelSpec(small_draft, 2, 0.0)])
        res = speculative_generate(tree, [4, 5], 16)
        assert {r.level for r in res.stats.log} == {0, 1}
        greedy_only = speculative_generate(SpecTree([LevelSpec(target)]), [4], 8)
        assert greedy_only.stats.log == [] and len(greedy_only.tokens) == 8


class TestStatsAndRounds:
    def test_round_accounting(self, target, mx_draft):
        tree = two_level(target, mx_draft, n=4)
        res = speculative_generate(tree, [1], 20)
        lvl0 = [r for r in res.stats.log if r.level == 0]
        assert lvl0, "expected at least one top-level round"
        for r in lvl0:
            assert 0 <= r.accepted <= r.proposed <= 4
            assert r.draft_s >= 0 and r.verify_s >= 0
        # Tokens out = accepted + one bonus per round (up to truncation).
        produced = sum(r.accepted + 1 for r in lvl0)
        assert produced >= len(res.tokens)

    def test_alpha_range(self, target, mx_draft):
        tree = two_level(target, mx_draft)
        res = speculative_generate(tree, [1], 24)
        a = res.stats.alpha(1)
        assert 0.0 <= a <= 1.0

    def test_alpha_nan_without_rounds(self):
        assert np.isnan(AcceptanceStats().alpha(1))

    def test_stats_record(self):
        st = AcceptanceStats()
        st.record(1, 4, 2)
        st.record(1, 4, 4)
        assert st.alpha(1) == 0.75 and st.rounds[1] == 2


def replay_shared_draft(target, draft, prompt, max_new, spec_len, threshold):
    """(proposed, accepted, rounds) of a two-level tree whose draft shares
    the target's cache, replayed round by round from fresh caches.

    A prompt of more than one token is caught up first: that round drafts
    nothing and the target emits its first token. In every later round
    the target has fed all of the context but its last token; the draft
    feeds that token and then each of its proposals, one forward per
    token. A proposal stops at ``spec_len`` tokens, at one fewer than the
    request still needs, or after a token whose probability is below
    ``threshold``. A round that drafts nothing records nothing. The
    context limit is not modelled: the request must stay short of it.
    """
    want = greedy_generate(target, prompt, max_new).tokens
    assert len(prompt) + max_new <= target.config.max_seq_len
    proposed = accepted = rounds = 0
    done = min(len(want), int(len(prompt) > 1))  # the catch-up round
    while done < len(want):
        context = prompt + want[:done]
        draft_out = []
        for _ in range(min(spec_len, max_new - done - 1)):
            if not draft_out:
                cache = KvCache.empty(target.config)
                if len(context) > 1:
                    forward(target, cache, context[:-1])
                pending = context[-1:]
            row = forward(draft, cache, pending)[-1]
            pending = [greedy_next(row)]
            draft_out += pending
            if threshold > 0 and softmax_probs(row)[pending[0]] < threshold:
                break
        match = 0
        while match < len(draft_out) and draft_out[match] == want[done + match]:
            match += 1
        rounds += bool(draft_out)
        proposed += len(draft_out)
        accepted += match
        done += match + 1
    return proposed, accepted, rounds


class TestForwardCount:
    PROMPTS = ([1, 2, 3], [7, 40, 99, 5], [200])

    # ``before``: forwards on this tree when a level synced its cache with a
    # forward of its own before each round's forward.
    @pytest.mark.parametrize("threshold,before", [(0.0, 226), (0.4, 159)])
    def test_sync_folded_into_round_forward(self, target, mx_draft, monkeypatch,
                                            threshold, before):
        greedy = [greedy_generate(target, p, 32).tokens for p in self.PROMPTS]
        replayed = [replay_shared_draft(target, mx_draft, p, 32, 4, threshold)
                    for p in self.PROMPTS]
        calls = Counter()
        real = specdec.forward

        def counting(model, cache, tokens, *, n_logits=None):
            calls[id(model)] += 1
            return real(model, cache, tokens, n_logits=n_logits)

        monkeypatch.setattr(specdec, "forward", counting)
        tree = two_level(target, mx_draft, n=4, threshold=threshold)
        proposed = target_rounds = 0
        for prompt, want, replay in zip(self.PROMPTS, greedy, replayed):
            res = speculative_generate(tree, prompt, 32)
            assert res.tokens == want
            stats = res.stats
            assert (stats.proposed[1], stats.accepted[1],
                    stats.rounds[1]) == replay
            proposed += stats.proposed[1]
            target_rounds += sum(r.level == 0 for r in stats.log)
        # One target forward per level-0 round, the catch-up round of a
        # prompt longer than one token included; one draft forward per
        # drafted token: the unfed tail of the context rides along with
        # the round's own tokens.
        assert calls[id(target)] == target_rounds
        assert calls[id(mx_draft)] == proposed
        assert sum(calls.values()) < before


class TestProposalBudget:
    """No level drafts more than its caller can still emit."""

    @staticmethod
    def tree(shape, threshold):
        target = init_seeded(LIMIT, 0)
        small = init_seeded(LIMIT_SMALL, 1)
        drafts = {"mx": [direct_cast_mxfp4(target)], "small": [small],
                  "mx-small": [direct_cast_mxfp4(target), small],
                  "small-mx": [small, direct_cast_mxfp4(small)]}[shape]
        return SpecTree([LevelSpec(target)] + [
            LevelSpec(d, spec_len=n, threshold=threshold)
            for d, n in zip(drafts, (5, 3))])

    @staticmethod
    def requests(target):
        """(prompt, max_new, eos, greedy's result) for prompts short of,
        near and at the context limit, budgets from 0 to past it, each
        without an eos and with the middle greedy token as eos."""
        max_len = LIMIT.max_seq_len
        for n in (3, max_len - 2, max_len - 1, max_len):
            prompt = [(7 * i + 3) % 64 for i in range(n)]
            for max_new in (0, 1, 2, 3, 8, 32):
                base = greedy_generate(target, prompt, max_new).tokens
                for eos in [None] + base[len(base) // 2:][:1]:
                    yield (prompt, max_new, eos,
                           greedy_generate(target, prompt, max_new, eos))

    @pytest.mark.parametrize("shape", ["mx", "small", "mx-small", "small-mx"])
    @pytest.mark.parametrize("threshold", [0.0, 0.4])
    def test_child_asked_for_less_than_callers_need(self, monkeypatch, shape,
                                                    threshold):
        tree = self.tree(shape, threshold)
        assert tree.shares_cache[1:] == {
            "mx": [True], "small": [False], "mx-small": [True, False],
            "small-mx": [False, True]}[shape]
        real = specdec._Session.propose
        active, child_calls, overshoots = [], [], []

        def spy(session, context, n_max, stats, eos=None):
            if active:
                caller_context, budget = active[-1]
                need = budget - (len(context) - len(caller_context))
                child_calls.append((session.level, n_max, need))
            limit = session.spec.model.config.max_seq_len - len(context) + 1
            active.append((context, min(n_max, limit)))
            try:
                out = real(session, context, n_max, stats, eos)
            finally:
                active.pop()
            if len(out) > n_max:
                overshoots.append((session.level, n_max, len(out)))
            return out

        monkeypatch.setattr(specdec._Session, "propose", spy)
        drafted = 0
        for prompt, max_new, eos, want in self.requests(tree.target):
            child_calls.clear()
            spec = speculative_generate(tree, prompt, max_new, eos)
            assert ((spec.tokens, spec.truncated)
                    == (want.tokens, want.truncated)), (len(prompt), max_new, eos)
            bad = [c for c in child_calls if not 1 <= c[1] <= c[2] - 1]
            assert not bad, (len(prompt), max_new, eos, bad)
            drafted += len(child_calls)
        assert drafted and not overshoots

    @pytest.mark.parametrize("shape", ["mx", "mx-small", "small-mx"])
    @pytest.mark.parametrize("threshold", [0.0, 0.4])
    def test_sharing_child_finds_context_but_last_token(self, monkeypatch,
                                                         shape, threshold):
        # The invariant that lets a sharing child write its caller's cache:
        # when it is called, the cache holds exactly the context but its
        # last token, so it writes only where the caller rolls back.
        tree = self.tree(shape, threshold)
        real = specdec._Session.propose
        callers, found = [], []

        def spy(session, context, n_max, stats, eos=None):
            if callers and callers[-1].cache is session.cache:
                cache = session.cache
                found.append((cache.tokens[:cache.length].tolist(), context[:-1]))
            callers.append(session)
            try:
                return real(session, context, n_max, stats, eos)
            finally:
                callers.pop()

        monkeypatch.setattr(specdec._Session, "propose", spy)
        for prompt, max_new, eos, want in self.requests(tree.target):
            spec = speculative_generate(tree, prompt, max_new, eos)
            assert ((spec.tokens, spec.truncated)
                    == (want.tokens, want.truncated)), (len(prompt), max_new, eos)
        assert found
        bad = [(len(held), len(want)) for held, want in found if held != want]
        assert not bad

    def test_single_token_request_makes_one_target_forward(self, monkeypatch):
        tree = self.tree("mx-small", 0.0)
        prompt = [5, 9, 2, 40, 17]
        want = greedy_generate(tree.target, prompt, 1).tokens
        fed = []
        real = specdec.forward

        def recording(model, cache, tokens, *, n_logits=None):
            fed.append((model, len(tokens)))
            return real(model, cache, tokens, n_logits=n_logits)

        monkeypatch.setattr(specdec, "forward", recording)
        res = speculative_generate(tree, prompt, 1)
        assert res.tokens == want
        # No split prefill: the whole prompt goes in one target forward, and
        # no draft runs.
        assert fed == [(tree.target, len(prompt))]
        assert [(r.level, r.proposed) for r in res.stats.log] == [(0, 0)]
        assert res.stats.proposed == {}


def fresh_linears(model, seed):
    """``model`` with the linear weights of another seed's model: it keeps
    the embeddings and norms, so it shares ``model``'s cache in a tree, but
    it drafts badly."""
    other = init_seeded(model.config, seed)
    layers = [replace(mine, wq=theirs.wq, wk=theirs.wk, wv=theirs.wv,
                      wo=theirs.wo, w_up=theirs.w_up, w_down=theirs.w_down)
              for mine, theirs in zip(model.layers, other.layers)]
    return replace(model, layers=layers, w_out=other.w_out)


class TestSharedCache:
    def test_rule(self, target, mx_draft, small_draft, tmp_path):
        def shares(*models):
            return SpecTree([LevelSpec(m) for m in models]).shares_cache

        assert shares(target) == [False]
        assert shares(target, mx_draft, small_draft) == [False, True, False]
        assert shares(target, fresh_linears(target, 5)) == [False, True]
        # An equal config is not enough: another seed has other embeddings.
        other = init_seeded(CFG, 7)
        assert shares(target, other) == [False, False]
        assert shares(target, direct_cast_mxfp4(other)) == [False, False]
        # A cast read back from disk still shares, with its source read back
        # or in memory.
        artifacts.save_model(tmp_path / "t.bin", target)
        artifacts.save_model(tmp_path / "d.bin", mx_draft)
        loaded = [artifacts.load_model(tmp_path / f) for f in ("t.bin", "d.bin")]
        assert shares(*loaded) == [False, True]
        assert shares(target, loaded[1]) == [False, True]

    def test_cast_feeds_one_token_per_forward(self, target, mx_draft,
                                              monkeypatch):
        fed = []
        real = specdec.forward

        def recording(model, cache, tokens, *, n_logits=None):
            fed.append((model, cache.length, len(tokens)))
            return real(model, cache, tokens, n_logits=n_logits)

        monkeypatch.setattr(specdec, "forward", recording)
        for threshold in (0.0, 0.4):
            tree = two_level(target, mx_draft, n=4, threshold=threshold)
            for prompt in ([7, 40, 99, 5], [1, 2]):
                fed.clear()
                res = speculative_generate(tree, prompt, 32)
                draft = [(pos, n) for m, pos, n in fed if m is mx_draft]
                assert draft and all(n == 1 for _, n in draft)
                # The target forwards the whole prompt and emits its first
                # token before the draft runs, from the position after it.
                assert fed[0] == (target, 0, len(prompt))
                assert min(pos for pos, _ in draft) == len(prompt)
                stats = res.stats
                assert (stats.forwards[1] == stats.tokens_fed[1]
                        == stats.proposed[1] == len(draft))

    @pytest.mark.parametrize("prompt", [[7, 40], [7, 40, 99, 5], [3] * 30])
    def test_first_target_forward_is_greedys(self, target, mx_draft,
                                            small_draft, monkeypatch, prompt):
        calls = []
        real = specdec.forward

        def recording(model, cache, tokens, *, n_logits=None):
            logits = real(model, cache, tokens, n_logits=n_logits)
            if model is target:
                calls.append((list(tokens), n_logits, logits))
            return logits

        monkeypatch.setattr(specdec, "forward", recording)
        greedy_generate(target, prompt, 8)
        want = calls[0]
        assert want[:2] == (prompt, 1)
        for tree in (two_level(target, mx_draft),
                     SpecTree([LevelSpec(target, 4, 0.0), LevelSpec(mx_draft, 3, 0.0),
                               LevelSpec(small_draft, 2, 0.0)])):
            calls.clear()
            speculative_generate(tree, prompt, 8)
            # The whole prompt in one forward that reads one row: greedy's
            # first step, bit for bit.
            assert calls[0][:2] == want[:2]
            assert calls[0][2].tobytes() == want[2].tobytes()

    def test_target_logits_byte_identical(self, target, monkeypatch):
        tree = two_level(target, fresh_linears(target, 5), n=4)
        rows = []
        real = specdec.forward

        def recording(model, cache, tokens, *, n_logits=None):
            logits = real(model, cache, tokens, n_logits=n_logits)
            if model is target:
                rows.append((cache.tokens[:cache.length].tolist(), logits))
            return logits

        monkeypatch.setattr(specdec, "forward", recording)
        prompt = [3, 1, 4, 1, 5]
        res = speculative_generate(tree, prompt, 40)
        seq = prompt + res.tokens
        # The first forward is the whole prompt and returns greedy's one
        # row; each later round's forward returns the rows of its last fed
        # position and its proposals.
        assert rows[0][0] == prompt and rows[0][1].shape == (1, CFG.vocab_size)
        read = set()
        for fed, logits in rows:
            start = len(fed) - len(logits)
            want = forward(target, KvCache.empty(CFG), fed)[start:]
            assert logits.tobytes() == want.tobytes()
            read.update(start + i for i in range(len(logits))
                        if fed[:start + i + 1] == seq[:start + i + 1])
        # Every position whose next token the target emitted was returned.
        assert read == set(range(len(prompt) - 1, len(seq) - 1))

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("threshold", [0.0, 0.03])
    @pytest.mark.parametrize("with_eos", [False, True])
    def test_bad_sharing_draft_is_lossless(self, depth, threshold, with_eos):
        target = init_seeded(LIMIT, 0)
        bad = fresh_linears(target, 5)
        tree = SpecTree([LevelSpec(target), LevelSpec(bad, 4, threshold),
                         LevelSpec(direct_cast_mxfp4(bad), 2, threshold)
                         ][:depth + 1])
        assert tree.shares_cache == [False] + [True] * depth
        max_len = LIMIT.max_seq_len
        proposed = accepted = 0
        # Prompts below, at and one past the context limit.
        for n in range(1, max_len + 2):
            prompt = [(7 * i + 3) % 64 for i in range(n)]
            base = greedy_generate(target, prompt, max_len)
            eos = None
            if with_eos and base.tokens:
                eos = base.tokens[len(base.tokens) // 2]
                base = greedy_generate(target, prompt, max_len, eos=eos)
            spec = speculative_generate(tree, prompt, max_len, eos=eos)
            assert (spec.tokens, spec.truncated) == (base.tokens, base.truncated), n
            proposed += spec.stats.proposed.get(1, 0)
            accepted += spec.stats.accepted.get(1, 0)
        # The draft wrote proposals past the target's positions that the
        # target rejected.
        assert accepted < proposed


class TestRowsRead:
    """Callers ask ``forward`` by keyword for the logit rows they read, so
    no kernel runs on zero columns."""

    def test_keyword_only_and_no_empty_kernel_call(self, target, mx_draft,
                                                   small_draft, monkeypatch):
        forwards = []
        real = specdec.forward

        def spy(*args, **kwargs):
            forwards.append((len(args), tuple(kwargs)))
            return real(*args, **kwargs)

        monkeypatch.setattr(specdec, "forward", spy)
        kernel_cols = []
        for name, cols in (("gemm_reference", lambda w, a: a.shape[1]),
                           ("gemm_mxfp4_int8", lambda w, a: a.n),
                           ("quantize_activations", lambda a: a.shape[1])):
            def checked(*args, _kernel=getattr(qgemm, name), _name=name,
                        _cols=cols):
                kernel_cols.append((_name, _cols(*args)))
                return _kernel(*args)

            monkeypatch.setattr(qgemm, name, checked)
        for threshold in (0.0, 0.4):
            tree = SpecTree([LevelSpec(target, 4, threshold),
                             LevelSpec(mx_draft, 3, threshold),
                             LevelSpec(small_draft, 2, threshold)])
            for prompt in ([1], [7, 40, 99, 5]):
                base = greedy_generate(target, prompt, 20).tokens
                assert speculative_generate(tree, prompt, 20).tokens == base
        assert forwards and set(forwards) == {(3, ("n_logits",))}
        assert {name for name, _ in kernel_cols} == {
            "gemm_reference", "gemm_mxfp4_int8", "quantize_activations"}
        assert min(n for _, n in kernel_cols) > 0


class TestRolledBack:
    @pytest.mark.parametrize("limit", [False, True])
    @pytest.mark.parametrize("threshold", [0.0, 0.4])
    def test_fed_minus_rolled_back_is_cache_length(
            self, target, mx_draft, small_draft, limit, threshold):
        if limit:
            # A short context, so requests reach its limit.
            t, small = init_seeded(LIMIT, 0), init_seeded(LIMIT_SMALL, 1)
            models, prompts = [t, direct_cast_mxfp4(t), small], ([3], [5] * 20)
        else:
            models, prompts = [target, mx_draft, small_draft], ([1], [7, 40, 99, 5])
        tree = SpecTree([LevelSpec(m, n, threshold)
                         for m, n in zip(models, (4, 3, 2))])
        assert tree.shares_cache == [False, True, False]
        dropped = 0
        for prompt in prompts:
            session = specdec.build_sessions(tree)
            stats = AcceptanceStats()
            session.propose(prompt, 24, stats)
            caches = {}  # each cache and the levels that feed it
            while session is not None:
                caches.setdefault(id(session.cache), (session.cache, []))[1].append(
                    session.level)
                session = session.child
            assert len(caches) == 2
            for cache, levels in caches.values():
                assert cache.length == sum(
                    stats.tokens_fed[lv] - stats.rolled_back[lv] for lv in levels)
            dropped += sum(stats.rolled_back.values())
        assert dropped > 0

    def test_merge_sums(self):
        a, b = AcceptanceStats(), AcceptanceStats()
        a.rolled_back.update({0: 2, 1: 3})
        b.rolled_back.update({1: 4, 2: 1})
        a.merge(b)
        assert a.rolled_back == {0: 2, 1: 7, 2: 1}


class TestConfidenceSkip:
    PROMPTS = ([1, 2, 3], [7, 40, 99, 5])

    def test_threshold_zero_skips_softmax(self, target, mx_draft, small_draft,
                                          monkeypatch):
        calls = Counter()
        real = specdec.softmax_probs

        def counting(row):
            calls["softmax"] += 1
            return real(row)

        monkeypatch.setattr(specdec, "softmax_probs", counting)

        def run(threshold):
            # An argmax's probability is at least 1 / vocab, so a threshold
            # of 1e-9 never stops a level either, but it does call softmax.
            tree = SpecTree([LevelSpec(target, 4, threshold),
                             LevelSpec(mx_draft, 4, threshold),
                             LevelSpec(small_draft, 2, threshold)])
            calls.clear()
            results = [speculative_generate(tree, p, 24) for p in self.PROMPTS]
            return calls["softmax"], [
                (r.tokens, r.stats.proposed, r.stats.accepted, r.stats.rounds,
                 [(x.level, x.proposed, x.accepted) for x in r.stats.log])
                for r in results
            ]

        skipped, got = run(0.0)
        called, want = run(1e-9)
        assert skipped == 0 and called > 0
        assert got == want


class TestBenchmark:
    def test_report_and_losslessness(self, target, mx_draft):
        tree = two_level(target, mx_draft, n=4)
        rep = run_benchmark(tree, [[1], [2, 3], [9]], max_new=12)
        assert rep.total_tokens == 36
        assert len(rep.per_prompt_speedups) == 3
        assert 0.0 <= rep.per_level_alpha[1] <= 1.0
        assert {r[0] for r in rep.alpha_rows} <= {0, 1, 2}
        assert rep.geomean_speedup == statistics.geometric_mean(
            rep.per_prompt_speedups)
        d = rep.summary_dict()
        assert set(d) >= {"geomean_speedup", "per_level_alpha", "total_tokens"}

    def test_alpha_direction_mxfp4_vs_small(self, target, mx_draft, small_draft):
        # A direct cast of the target should be accepted far more often
        # than an unrelated small model.
        rep_mx = run_benchmark(two_level(target, mx_draft), [[1], [7]], 16)
        rep_sm = run_benchmark(two_level(target, small_draft), [[1], [7]], 16)
        assert rep_mx.per_level_alpha[1] > rep_sm.per_level_alpha[1]

    def test_per_level_model_seconds(self, target, mx_draft, small_draft):
        tree = SpecTree([LevelSpec(target, 4, 0.0), LevelSpec(mx_draft, 4, 0.0),
                         LevelSpec(small_draft, 2, 0.0)])
        rep = run_benchmark(tree, [[1], [2, 3]], max_new=8)
        got = json.loads(rep.summary_json())["per_level_model_s"]
        assert set(got) == {"0", "1", "2"}
        assert all(seconds > 0 for seconds in got.values())
        for level, seconds in got.items():
            assert seconds == pytest.approx(sum(
                r.stats.model_time_s[int(level)] for r in rep.results))
        summary = rep.summary_dict()
        for key, field in (("per_level_forwards", "forwards"),
                           ("per_level_tokens_fed", "tokens_fed"),
                           ("per_level_rolled_back", "rolled_back")):
            assert summary[key] == {
                str(level): sum(getattr(r.stats, field)[level]
                                for r in rep.results)
                for level in range(3)}

    def test_empty_prompt_set(self, target, mx_draft):
        with pytest.raises(ValueError):
            run_benchmark(two_level(target, mx_draft), [], 4)

    def test_no_speedup_without_tokens(self, target, mx_draft):
        rep = run_benchmark(two_level(target, mx_draft), [[1], [2, 3]], 0)
        assert rep.total_tokens == 0 and rep.per_prompt_speedups == []
        assert rep.geomean_speedup is None
        assert json.loads(rep.summary_json())["geomean_speedup"] is None


class TestCsv:
    def test_rounds_csv(self):
        logs = [[RoundRecord(0, 4, 2, 0.001, 0.002)], [],
                [RoundRecord(1, 3, 0, 0.0005, 0.25), RoundRecord(0, 0, 0, 0.0, 0.004)]]
        lines = rounds_csv(logs).strip().split("\n")
        assert lines[0] == ROUNDS_CSV_HEADER == (
            "prompt,level,proposed,accepted,draft_ms,verify_ms")
        # The prompt column is the log's index; a prompt without rounds
        # has no row.
        assert lines[1:] == ["0,0,4,2,1.000000,2.000000",
                             "2,1,3,0,0.500000,250.000000",
                             "2,0,0,0,0.000000,4.000000"]

    def test_acceptance_csv(self):
        text = acceptance_csv([(0, 1, 0.5), (1, 1, 0.25)])
        lines = text.strip().split("\n")
        assert lines[0] == ACCEPTANCE_CSV_HEADER == "prompt,level,alpha"
        assert lines[1] == "0,1,0.500000"
