"""Per-layer view of a traced run, built on ``spans.SpanRecorder``.

``install`` wraps, at run time, the public functions of every specqd layer
that set-up or decoding reaches (``analytics`` is not among them: only the
benchmark calls it, to fold the measurements into a prediction); the ``*_metrics`` functions fold the recorded spans into the per-layer
metrics that BENCHMARK.json names, plus a ``detail`` dict with the numbers
that exist only on some workloads (level-2 counts, the verify-cost curve).
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from specqd import analytics, artifacts, cli, qgemm, specdec, tinylm

ROLES = {"wq": "qkv", "wk": "qkv", "wv": "qkv", "wo": "o",
         "w_up": "mlp_up", "w_down": "mlp_down"}
GREEDY = "specdec.greedy_generate"
SPEC = "specdec.speculative_generate"


def install(rec):
    """Wrap each layer where its callers look it up."""
    rec.wrap(qgemm, "gemm_reference", "qgemm.gemm",
             lambda w, a, *_: {"path": "reference", "m": w.shape[0],
                               "k": w.shape[1], "n": a.shape[1], "w": id(w)})
    rec.wrap(qgemm, "gemm_mxfp4_int8", "qgemm.gemm",
             lambda w, a, *_: {"path": "int8", "m": w.rows,
                               "k": w.padded_cols, "n": a.n, "w": id(w)})
    rec.wrap(qgemm, "quantize_activations", "qgemm.quantize_activations")
    # specdec imported these names from tinylm; its sessions call them here.
    rec.wrap(specdec, "forward", "tinylm.forward",
             lambda model, cache, toks: {"model": id(model), "n": len(toks),
                                         "pos": cache.length})
    rec.wrap(specdec, "rollback", "tinylm.rollback",
             lambda cache, to: {"tokens": cache.length - to})
    rec.wrap(specdec, "greedy_generate", GREEDY)
    rec.wrap(specdec, "speculative_generate", SPEC)
    # LinearWeight.quantized calls the codec through tinylm's namespace.
    rec.wrap(tinylm, "quantize_direct_cast", "mxfp4.quantize_direct_cast")
    rec.wrap(artifacts, "save_model", "artifacts.save_model")
    rec.wrap(artifacts, "load_model", "artifacts.load_model")
    # cli.main rebuilds its parser on every call, so the subcommands it
    # dispatches to are looked up here at call time.
    rec.wrap(cli, "cmd_model_init", "cli.model_init")
    rec.wrap(cli, "cmd_quantize", "cli.quantize")


def setup_metrics(rec, reps: list[tuple[int, int]]) -> dict[str, float]:
    """Median over set-up repetitions of each set-up layer's seconds.

    ``reps`` holds each repetition's [first, last) span index range.
    """
    names = {"mxfp4.quantize_direct_cast": "mxfp4.quantize_s",
             "artifacts.save_model": "artifacts.save_s",
             "artifacts.load_model": "artifacts.load_s",
             "cli.model_init": "cli.model_init_s",
             "cli.quantize": "cli.quantize_s"}
    per_rep = []
    for lo, hi in reps:
        sums = dict.fromkeys(names.values(), 0.0)
        for s in rec.spans[lo:hi]:
            if s.name in names:
                sums[names[s.name]] += s.dur
        per_rep.append(sums)
    return {m: statistics.median(r[m] for r in per_rep) for m in names.values()}


def fwd1_probe(rec, tree, prompt, steps: int = 16) -> dict[int, list[float]]:
    """1-token forward seconds per level, each level's model decoding alone.

    Inside the loop some levels never run a 1-token forward (a drafting
    level at threshold 0 always verifies N > 1), so every level is timed
    the same way: greedy decoding of ``steps`` tokens after ``prompt``,
    cut so that the decode fits the level's context.
    """
    first = len(rec.spans)
    rec.request = -1  # the probe belongs to no request
    install(rec)
    try:
        for lv in tree.levels:
            cut = prompt[: lv.model.config.max_seq_len - steps - 1]
            specdec.greedy_generate(lv.model, cut, steps + 1)
    finally:
        rec.uninstall()
    level_of = {id(lv.model): i for i, lv in enumerate(tree.levels)}
    out = defaultdict(list)
    for s in rec.spans[first:]:
        a = s.attrs
        if (s.name == "tinylm.forward" and a["n"] == 1 and a["pos"] > 0
                and "raised" not in a):
            out[level_of[a["model"]]].append(s.dur)
    return out


def _median_ms(values):
    if not values:
        raise RuntimeError("no samples for a median; the work did not happen")
    return statistics.median(values) * 1e3


def loop_metrics(rec, span_range, trees, results, wall_s: float, fwd1):
    """Per-layer metrics of the traced closed loop.

    ``trees`` are the workload's same-shaped trees (level i of each is
    level i); ``span_range`` is the loop's [first, last) span indices; ``results``
    are the speculative GenerationResults of the requests that returned;
    ``wall_s`` is the loop's wall time; ``fwd1`` comes from ``fwd1_probe``.
    Returns (metrics, detail).
    """
    level_of = {id(lv.model): i for t in trees for i, lv in enumerate(t.levels)}
    role_of = {}
    for lv in (lv for t in trees for lv in t.levels):
        for layer in lv.model.layers:
            for attr, role in ROLES.items():
                role_of[id(getattr(layer, attr).weight)] = role
        role_of[id(lv.model.w_out.weight)] = "lm_head"

    gemm = defaultdict(lambda: {"calls": 0, "cols": 0, "s": 0.0, "bytes": 0})
    role_s = dict.fromkeys(("qkv", "o", "mlp_up", "mlp_down", "lm_head"), 0.0)
    qa_calls, qa_s = 0, 0.0
    fwd = defaultdict(lambda: {"calls": 0, "tokens": 0, "s": 0.0, "self_s": 0.0})
    verify_by_n = defaultdict(list)  # target forwards inside speculative requests
    target_fwd1 = []  # the target's 1-token forwards past prefill
    prefill_s = 0.0
    rb_calls = rb_tokens = 0
    rb_s = 0.0
    spec_self_s = 0.0
    greedy_fwd = 0
    spec_fwd = Counter()  # level -> forwards inside speculative requests

    lo, hi = span_range
    selfs = rec.self_times()[lo:hi]
    for s, self_s in zip(rec.spans[lo:hi], selfs):
        a = s.attrs
        if s.name == "qgemm.gemm":
            g = gemm[a["path"]]
            g["calls"] += 1
            g["cols"] += a["n"]
            g["s"] += s.dur
            g["bytes"] += qgemm.gemm_bytes(
                qgemm.GemmShape(a["m"], a["n"], a["k"]), a["path"])
            role_s[role_of[a["w"]]] += s.dur
        elif s.name == "qgemm.quantize_activations":
            qa_calls += 1
            qa_s += s.dur
        elif s.name == "tinylm.forward":
            level = level_of[a["model"]]
            f = fwd[level]
            f["calls"] += 1
            f["tokens"] += a["n"]
            f["s"] += s.dur
            f["self_s"] += self_s
            if a["pos"] == 0:
                prefill_s += s.dur
            caller = rec.spans[s.parent].name
            if caller == GREEDY:
                greedy_fwd += 1
            elif caller == SPEC:
                spec_fwd[level] += 1
            # Cost curves use forwards that ran: one refused at the context
            # limit returns at once.
            if level == 0 and a["pos"] > 0 and "raised" not in a:
                if caller == SPEC:
                    verify_by_n[a["n"]].append(s.dur)
                if a["n"] == 1:
                    target_fwd1.append(s.dur)
        elif s.name == "tinylm.rollback":
            rb_calls += 1
            rb_tokens += a["tokens"]
            rb_s += s.dur
        elif s.name == SPEC:
            spec_self_s += self_s

    depth = trees[0].depth
    proposed, accepted, rounds = Counter(), Counter(), Counter()
    spec_tokens = 0
    for r in results:
        spec_tokens += len(r.tokens)
        for lv in r.stats.levels():
            proposed[lv] += r.stats.proposed[lv]
            accepted[lv] += r.stats.accepted[lv]
            rounds[lv] += r.stats.rounds[lv]
    alpha = {lv: accepted[lv] / proposed[lv] for lv in proposed}
    mean_n = {lv: proposed[lv] / rounds[lv] for lv in proposed}
    fwd1_ms = {lv: _median_ms(fwd1[lv]) for lv in range(depth + 1)}

    # The verify width the target sees most: spec_len + 1 when the draft's
    # threshold is 0, often 2 when a confident-only draft stops early. Its
    # cost is set against the target's 1-token forwards in the same loop.
    widths = Counter({n: len(v) for n, v in verify_by_n.items() if n > 1})
    n_verify = widths.most_common(1)[0][0]
    verify_ratio = _median_ms(verify_by_n[n_verify]) / _median_ms(target_fwd1)

    s1 = fwd1_ms[0] / fwd1_ms[1]
    outer = analytics.SpeedupParams(alpha[1], mean_n[1], s1)
    if depth == 1:
        predicted = analytics.speedup_sd(outer)
    else:
        inner = analytics.SpeedupParams(alpha[2], mean_n[2],
                                        fwd1_ms[1] / fwd1_ms[2])
        predicted = analytics.speedup_multilevel(
            analytics.MultiLevelParams(outer=outer, inner=inner))
    weight_bytes = [lv.model.linear_weight_bytes() for lv in trees[0].levels]
    emulated = (greedy_fwd * weight_bytes[0]
                / sum(spec_fwd[lv] * b for lv, b in enumerate(weight_bytes)))

    m = {}
    for path in ("reference", "int8"):
        g = gemm[path]
        m[f"qgemm.{path}.calls"] = g["calls"]
        m[f"qgemm.{path}.cols"] = g["cols"]
        m[f"qgemm.{path}.s"] = g["s"]
        m[f"qgemm.{path}.gbps_computed"] = g["bytes"] / g["s"] / 1e9
    for role, sec in role_s.items():
        m[f"qgemm.role.{role}.s"] = sec
    m["qgemm.quantize_activations.calls"] = qa_calls
    m["qgemm.quantize_activations.s"] = qa_s
    for lv in (0, 1):
        for key, val in fwd[lv].items():
            m[f"tinylm.forward.{key}.l{lv}"] = val
        m[f"tinylm.fwd1_ms.l{lv}"] = fwd1_ms[lv]
    m["tinylm.prefill_s"] = prefill_s
    m["tinylm.verify_cost_ratio"] = verify_ratio
    m["tinylm.rollback.calls"] = rb_calls
    m["tinylm.rollback.tokens"] = rb_tokens
    m["tinylm.rollback.s"] = rb_s
    m["specdec.alpha.l1"] = alpha[1]
    m["specdec.wasted_draft_tokens.l1"] = proposed[1] - accepted[1]
    m["specdec.rounds.l1"] = rounds[1]
    m["specdec.tokens_per_target_forward"] = spec_tokens / spec_fwd[0]
    m["specdec.self_s"] = spec_self_s
    m["analytics.s_measured"] = s1
    m["analytics.predicted_speedup"] = predicted
    m["analytics.emulated_speedup"] = emulated
    # Self times add up to the wall time by construction, so that sum only
    # checks the loop's own bookkeeping. The share left to the layers that
    # call others (requests and forwards) shows a wrapper that is missing or
    # records nothing: the time it should take lands there.
    m["trace.self_sum_over_wall"] = sum(selfs) / wall_s
    m["trace.unattributed_share"] = (
        sum(t for s, t in zip(rec.spans[lo:hi], selfs)
            if s.name in (GREEDY, SPEC, "tinylm.forward")) / wall_s)

    detail = {
        "levels": {
            f"l{lv}": {
                **fwd[lv],
                "fwd1_ms": fwd1_ms[lv],
                "fwd1_samples": len(fwd1[lv]),
                **({"alpha": alpha[lv], "mean_proposal_n": mean_n[lv],
                    "rounds": rounds[lv],
                    "wasted_draft_tokens": proposed[lv] - accepted[lv]}
                   if lv in proposed else {}),
                "linear_weight_bytes": weight_bytes[lv],
            }
            for lv in range(depth + 1)
        },
        "verify_width": n_verify,
        "verify_cost_curve_ms": {
            str(n): {"median_ms": _median_ms(v), "samples": len(v)}
            for n, v in sorted(verify_by_n.items())
        },
    }
    return m, detail
