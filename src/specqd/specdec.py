"""Draft/verify speculative decoding, recursively composable into a
multi-level hierarchy.

Level 0 is the target; level i+1 drafts for level i. Each level is a
session over a KV cache, and every level runs the same round; a leaf
drafts nothing. In a round the child proposes and the level's own model
verifies. A draft that differs from its verifier only in linear weights,
as a direct MXFP4 cast does, shares the verifier's cache, and no level
reads a position that a descendant wrote. Verification is greedy: the
longest proposed prefix matching the verifier's own argmax is accepted
and the verifier's argmax at the first mismatch (or after a fully
accepted prefix) is emitted as the bonus token. Because every model
breaks argmax ties to the lowest token id, the target's stream is
token-identical to plain greedy decoding of the target, up to and at its
context limit.

A level drafts only what its caller can use. A round emits its accepted
proposals plus the bonus, so with ``need`` tokens still wanted from the
level, the child is asked for min(its ``spec_len``, ``need`` - 1); a
request's ``max_new`` thus bounds every level's proposal, and a round
with ``need`` 1 drafts nothing.

While more than the context's last token is unfed, as for a prompt, a
level over a cache-sharing draft catches up: its round drafts nothing and
emits what one forward of the unfed tokens predicts, as greedy's first
step does, so a request's first target forward is greedy's.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from statistics import geometric_mean

import numpy as np

from .tinylm import (
    ContextOverflow,
    KvCache,
    TinyLmModel,
    TokenRangeError,
    forward,
    greedy_next,
    model_checksum,
    rollback,
    softmax_probs,
)

DEFAULT_SPEC_LEN = 8
DEFAULT_THRESHOLD = 0.4


@dataclass
class LevelSpec:
    model: TinyLmModel
    spec_len: int = DEFAULT_SPEC_LEN
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        if self.spec_len < 1:
            raise ValueError("speculation length must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("confidence threshold must be in [0, 1]")


def _differs_in_linears_only(a: TinyLmModel, b: TinyLmModel) -> bool:
    """Whether ``b`` is ``a`` but for its linear weights: equal configs, and
    embeddings and norms equal value for value, as in a direct cast."""
    return a.config == b.config and all(
        np.array_equal(x, y)
        for x, y in zip(a.embeddings_and_norms(), b.embeddings_and_norms()))


@dataclass
class SpecTree:
    """Ordered levels: [target, draft1, draft2, ...]. Empty draft list is greedy.
    ``shares_cache[i]``: level i forwards over level i - 1's KV cache."""

    levels: list[LevelSpec]
    shares_cache: list[bool] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.levels:
            raise ValueError("SpecTree needs at least the target level")
        vocab = self.levels[0].model.config.vocab_size
        for lv in self.levels[1:]:
            if lv.model.config.vocab_size != vocab:
                raise ValueError("all levels must share one token-id space")
        self.shares_cache = [False] + [
            _differs_in_linears_only(a.model, b.model)
            for a, b in zip(self.levels, self.levels[1:])]

    @property
    def target(self) -> TinyLmModel:
        return self.levels[0].model

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


@dataclass
class RoundRecord:
    level: int
    proposed: int
    accepted: int
    draft_s: float
    verify_s: float


@dataclass
class AcceptanceStats:
    proposed: dict[int, int] = field(default_factory=Counter)
    accepted: dict[int, int] = field(default_factory=Counter)
    rounds: dict[int, int] = field(default_factory=Counter)
    # Each level's forwards, the tokens they fed and their seconds.
    forwards: dict[int, int] = field(default_factory=Counter)
    tokens_fed: dict[int, int] = field(default_factory=Counter)
    model_time_s: dict[int, float] = field(default_factory=Counter)
    # Tokens each level's rollbacks dropped from its session's cache.
    rolled_back: dict[int, int] = field(default_factory=Counter)
    log: list[RoundRecord] = field(default_factory=list)  # rounds with a child

    def record(self, level: int, proposed: int, accepted: int):
        self.proposed[level] += proposed
        self.accepted[level] += accepted
        self.rounds[level] += 1

    def add_forward(self, level: int, tokens: int, seconds: float):
        self.forwards[level] += 1
        self.tokens_fed[level] += tokens
        self.model_time_s[level] += seconds

    def merge(self, other: "AcceptanceStats"):
        """Add ``other``'s per-level counts and times, not its round log."""
        for name in ("proposed", "accepted", "rounds", "forwards",
                     "tokens_fed", "model_time_s", "rolled_back"):
            getattr(self, name).update(getattr(other, name))

    def alpha(self, level: int) -> float:
        prop = self.proposed.get(level, 0)
        return self.accepted.get(level, 0) / prop if prop else float("nan")

    def levels(self) -> list[int]:
        return sorted(self.proposed)


@dataclass
class GenerationResult:
    tokens: list[int]
    seconds: float
    stats: AcceptanceStats = field(default_factory=AcceptanceStats)
    truncated: bool = False


@dataclass(eq=False)
class _Session:
    """One level's model plus its cache, which a sharing child also writes;
    the cache records the tokens it covers, and the next forward feeds
    tokens right after them. A level calls a sharing child only once the
    cache holds exactly ``context[:-1]``, so every position the child
    writes is at or past ``len(context) - 1``, and the level rolls those
    back as soon as the child returns."""

    spec: LevelSpec
    level: int
    child: "_Session | None"
    cache: KvCache

    def _unfed(self, context: list[int], stats: AcceptanceStats) -> list[int]:
        """Roll the cache back to its longest prefix shared with
        ``context[:-1]``; return the tokens of ``context`` it still lacks.

        The result always ends with ``context[-1]``, even where the cache
        holds it: no logits are cached, so the level's next forward feeds
        it, along with the round's own tokens, for the row that predicts
        what follows the context.
        """
        fed = self.cache.tokens[:min(self.cache.length, len(context) - 1)]
        differ = np.flatnonzero(fed != context[:fed.size])
        common = int(differ[0]) if differ.size else fed.size
        if common < self.cache.length:
            self._rollback(common, stats)
        return context[common:]

    def _rollback(self, to_length: int, stats: AcceptanceStats):
        """Roll the cache back to ``to_length``; the dropped tokens count
        as this level's."""
        stats.rolled_back[self.level] += self.cache.length - to_length
        rollback(self.cache, to_length)

    def _timed_forward(self, tokens, stats: AcceptanceStats, n_logits: int):
        """The last ``n_logits`` logit rows of a forward of ``tokens``."""
        t0 = time.perf_counter()
        logits = forward(self.spec.model, self.cache, tokens, n_logits=n_logits)
        stats.add_forward(self.level, len(tokens), time.perf_counter() - t0)
        return logits

    def _unconfident(self, row, token: int) -> bool:
        """Whether ``token``'s probability falls below the threshold; no
        probability is below 0, so threshold 0 skips the softmax."""
        return (self.spec.threshold > 0
                and softmax_probs(row)[token] < self.spec.threshold)

    def propose(self, context: list[int], n_max: int, stats: AcceptanceStats,
                eos: int | None = None) -> list[int]:
        """Up to ``n_max`` tokens of this model's greedy continuation of
        ``context``, in rounds until a confidence stop, ``eos`` (only the
        target passes one) or the context limit: the last token it can give
        is the one after a full context.

        Each round gets what is left of the budget, ``n_max`` less the
        tokens emitted so far, and emits at most that many, so ``out`` never
        passes ``n_max`` and no level drafts a token it could not emit.
        """
        n_max = min(n_max, self.spec.model.config.max_seq_len - len(context) + 1)
        out: list[int] = []
        while len(out) < n_max:
            new, stop = self._verify_round(context + out, n_max - len(out),
                                           stats)
            out += new
            if stop or eos in new:
                break
        return out

    def _verify_round(self, context, need, stats):
        """The child, if any, drafts after ``context``; this level verifies.

        Returns (tokens to emit at this level, early-stop flag). The flag is
        set when a token's confidence falls below this level's threshold.
        At least the bonus token is always emitted, and at most ``need``
        tokens: a round emits its accepted proposals plus one bonus, so the
        child is asked for at most ``need - 1``, which never passes the
        context left, since ``propose`` bounds its budget by the context
        limit. With ``need`` 1, at a leaf, or while a sharing child would
        find more than the last token unfed, nothing is drafted: the round
        is one forward of the unfed tokens, and leaves the cache holding
        ``context[:-1]`` for the next.
        """
        child = self.child
        shares = child is not None and child.cache is self.cache
        t0 = time.perf_counter()
        unfed = self._unfed(context, stats)
        n_draft = (0 if child is None or (shares and len(unfed) > 1)
                   else min(child.spec.spec_len, need - 1))
        t1 = time.perf_counter()
        proposed = child.propose(context, n_draft, stats) if n_draft else []
        t2 = time.perf_counter()
        if shares and proposed:  # drop what the child wrote
            self._rollback(len(context) - 1, stats)
        # Row j of ``logits`` follows context plus proposed[:j].
        logits = self._timed_forward(unfed + proposed, stats,
                                     n_logits=len(proposed) + 1)
        picks = [greedy_next(row) for row in logits]
        accepted = 0
        while accepted < len(proposed) and proposed[accepted] == picks[accepted]:
            accepted += 1
        # Drop cache entries of rejected proposals; bonus stays unprocessed.
        self._rollback(len(context) + accepted, stats)
        if proposed:
            stats.record(self.level + 1, len(proposed), accepted)
        if child is not None:
            stats.log.append(RoundRecord(
                level=self.level, proposed=len(proposed), accepted=accepted,
                draft_s=t2 - t1, verify_s=time.perf_counter() - t2 + t1 - t0,
            ))
        emitted = picks[:accepted + 1]  # the accepted proposals and the bonus
        # Confidence stop applies to this level's own output stream.
        for j, tok in enumerate(emitted):
            if self._unconfident(logits[j], tok):
                return emitted[:j + 1], True
        return emitted, False


def build_sessions(tree: SpecTree) -> _Session:
    """The target's session, linked to its drafts'; a level takes the cache
    of a child that shares it. The target's output is the answer, so it
    never stops on confidence (threshold 0)."""
    child = None
    for level in range(tree.depth, -1, -1):
        spec = tree.levels[level]
        if level == 0:
            spec = replace(spec, threshold=0.0)
        cache = (child.cache if child is not None and tree.shares_cache[level + 1]
                 else KvCache.empty(spec.model.config))
        child = _Session(spec, level, child, cache)
    return child


def _checked_request(model: TinyLmModel, prompt, max_new: int,
                     eos: int | None) -> list[int]:
    """The prompt as a list; ``ValueError`` for an empty prompt or a
    negative ``max_new``, ``TokenRangeError`` for an ``eos`` the model
    cannot emit."""
    prompt = list(prompt)
    if not prompt:
        raise ValueError("prompt must be non-empty")
    if max_new < 0:
        raise ValueError(f"max_new must be >= 0, got {max_new}")
    vocab = model.config.vocab_size
    if eos is not None and not 0 <= eos < vocab:
        raise TokenRangeError(f"eos token id {eos} outside [0, {vocab})")
    return prompt


def greedy_generate(model: TinyLmModel, prompt, max_new: int,
                    eos: int | None = None) -> GenerationResult:
    """Plain auto-regressive argmax decoding; the losslessness reference."""
    prompt = _checked_request(model, prompt, max_new, eos)
    t0 = time.perf_counter()
    cache = KvCache.empty(model.config)
    out: list[int] = []
    pending = prompt
    truncated = False
    for _ in range(max_new):
        try:
            logits = forward(model, cache, pending, n_logits=1)
        except ContextOverflow:
            truncated = True
            break
        token = greedy_next(logits[-1])
        out.append(token)
        if eos is not None and token == eos:
            break
        pending = [token]
    return GenerationResult(out, time.perf_counter() - t0, truncated=truncated)


def speculative_generate(tree: SpecTree, prompt, max_new: int,
                         eos: int | None = None) -> GenerationResult:
    """The target's session proposes the answer; lossless vs greedy_generate.

    A depth-0 tree degenerates to greedy decoding of the target.
    """
    prompt = _checked_request(tree.target, prompt, max_new, eos)
    t0 = time.perf_counter()
    stats = AcceptanceStats()
    out = build_sessions(tree).propose(prompt, max_new, stats, eos)
    if eos in out:
        out = out[: out.index(eos) + 1]
    # Short of max_new without EOS means the context ran out, as in greedy.
    truncated = len(out) < max_new and eos not in out
    return GenerationResult(out, time.perf_counter() - t0, stats=stats,
                            truncated=truncated)


class LosslessnessError(RuntimeError):
    """Speculative decoding emitted other tokens than greedy decoding."""


@dataclass
class BenchmarkReport:
    results: list[GenerationResult]  # each prompt's speculative decode
    per_prompt_speedups: list[float]  # prompts that generated a token
    geomean_speedup: float | None  # None when no prompt did
    alpha_rows: list[tuple[int, int, float]]  # (prompt index, level, alpha)
    per_level_alpha: dict[int, float]
    totals: AcceptanceStats  # counts and forward seconds, summed over prompts
    total_tokens: int
    greedy_seconds: float
    spec_seconds: float
    per_level_checksum: dict[int, str]  # model_checksum of each level

    def summary_dict(self) -> dict:
        t = self.totals
        tokens = self.total_tokens or None  # no rate without a token
        return {
            "geomean_speedup": self.geomean_speedup,
            "per_level_alpha": {str(k): v for k, v in self.per_level_alpha.items()},
            "per_level_model_s": _by_level(self.totals.model_time_s),
            "per_level_forwards": _by_level(self.totals.forwards),
            "per_level_tokens_fed": _by_level(self.totals.tokens_fed),
            "per_level_rolled_back": _by_level(
                {lv: t.rolled_back[lv] for lv in t.forwards}),
            # A draft level's rejected tokens, and its tokens per round
            # that drafted any.
            "per_level_wasted_draft_tokens": _by_level(
                {lv: t.proposed[lv] - t.accepted[lv] for lv in t.levels()}),
            "per_level_mean_proposal": _by_level(
                {lv: t.proposed[lv] / t.rounds[lv] for lv in t.levels()}),
            "per_level_checksum": _by_level(self.per_level_checksum),
            "per_prompt_truncated": [r.truncated for r in self.results],
            "total_tokens": self.total_tokens,
            "greedy_seconds": self.greedy_seconds,
            "spec_seconds": self.spec_seconds,
            "greedy_tok_s": tokens and tokens / self.greedy_seconds,
            "spec_tok_s": tokens and tokens / self.spec_seconds,
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary_dict(), indent=2)


def _by_level(values: dict) -> dict:
    return {str(k): v for k, v in sorted(values.items())}


def run_benchmark(tree: SpecTree, prompts, max_new: int,
                  eos: int | None = None) -> BenchmarkReport:
    """Greedy baseline vs speculative pipeline, per prompt; geomean speedup."""
    prompts = [list(p) for p in prompts]
    if not prompts:
        raise ValueError("prompt set must be non-empty")
    results, speedups, alpha_rows = [], [], []
    agg = AcceptanceStats()
    total_tokens, greedy_total, spec_total = 0, 0.0, 0.0
    for pi, prompt in enumerate(prompts):
        base = greedy_generate(tree.target, prompt, max_new, eos=eos)
        spec = speculative_generate(tree, prompt, max_new, eos=eos)
        if spec.tokens != base.tokens:
            raise LosslessnessError(f"losslessness violated on prompt {pi}")
        results.append(spec)
        if spec.tokens:
            speedups.append(base.seconds / spec.seconds)
        greedy_total += base.seconds
        spec_total += spec.seconds
        total_tokens += len(spec.tokens)
        for level in spec.stats.levels():
            alpha_rows.append((pi, level, spec.stats.alpha(level)))
        agg.merge(spec.stats)
    per_level = {lv: agg.alpha(lv) for lv in agg.levels()}
    return BenchmarkReport(
        results=results,
        per_prompt_speedups=speedups,
        geomean_speedup=(None if not speedups
                         else geometric_mean(speedups) if tree.depth else 1.0),
        alpha_rows=alpha_rows,
        per_level_alpha=per_level,
        totals=agg,
        total_tokens=total_tokens,
        greedy_seconds=greedy_total,
        spec_seconds=spec_total,
        per_level_checksum={i: model_checksum(lv.model)
                            for i, lv in enumerate(tree.levels)},
    )


ROUNDS_CSV_HEADER = "prompt,level,proposed,accepted,draft_ms,verify_ms"
ACCEPTANCE_CSV_HEADER = "prompt,level,alpha"


def _csv(header: str, rows) -> str:
    return "\n".join([header] + [",".join(map(str, row)) for row in rows]) + "\n"


def rounds_csv(logs) -> str:
    """A row per verify round of each prompt's log; prompt is its index."""
    return _csv(ROUNDS_CSV_HEADER, (
        (p, r.level, r.proposed, r.accepted, f"{r.draft_s * 1e3:.6f}",
         f"{r.verify_s * 1e3:.6f}") for p, log in enumerate(logs) for r in log))


def acceptance_csv(rows) -> str:
    return _csv(ACCEPTANCE_CSV_HEADER, ((p, lv, f"{a:.6f}") for p, lv, a in rows))
