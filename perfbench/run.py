#!/usr/bin/env python3
"""specqd benchmark: greedy vs lossless speculative decoding.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One process runs one workload: it sets up the
workload's models through the CLI (several times; the median is
``setup_s``), then drives a closed loop with one client. Each prompt is
decoded greedily, then speculatively, and the next prompt starts only when
both have finished. A run checks a fixed number of distinct seeded
requests and cycles over them until the time is up, so how many it
attempts and how many fail do not depend on the machine's speed. A request
fails when the speculative tokens differ from greedy or a call raises;
rates and latencies cover every decode of the requests that passed.
``correct`` reports the benchmark's own checks: the workload's models and
greedy tokens at a fixed seed against digests committed in
``canary.json``, bit-exact save and load of every model, every repeat of a
request giving its first outcome, the same greedy tokens and pass/fail in
the traced run and its untraced replay, and the traced run's time being
spread over the layers rather than left in their callers. The facts hold a
digest of the greedy tokens of every request, which depends only on the
code and the seed.

Regenerate ``canary.json`` after a deliberate change to the models or the
target's arithmetic with ``python3 perfbench/run.py --write-canary``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
prints its per-layer metrics: it runs the loop for half the time with every
specqd layer wrapped in spans, then replays the same decodes unwrapped, so
tracing overhead is the difference of the two speculative rates.

The last stdout line is the result object; the line before it holds the
machine and settings facts. A fuller report (and, traced, every span) goes
to ``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import os
import sys

# Pin every BLAS/OpenMP pool to one thread before numpy loads; leave
# SPECQD_THREADS at the library default. Both are recorded in the facts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("SPECQD_THREADS", None)

import argparse
import hashlib
import itertools
import json
import platform
import resource
import shutil
import statistics
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
# Set-up repeats at least SETUP_MIN_REPS times and, when it is cheap, until
# SETUP_MIN_SECONDS have passed (at most SETUP_MAX_REPS), so that the median
# of a few-millisecond set-up is as steady as that of a slow one.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPS = 25
# Per-layer self times must sum to the traced loop's wall time within this
# share; they do by construction, up to the loop's bookkeeping between
# requests.
SELF_TIME_MARGIN = 0.02
# At most this share of the traced wall time may stay in the self time of
# requests and forwards, the spans that call other layers. It is 0.1 to
# 0.7 on the three workloads; an unwrapped or silent qgemm or rollback
# pushes it towards 1.
UNATTRIBUTED_MAX = 0.9
WARMUP_NEW_TOKENS = 4
# At canary.json's seed, the greedy tokens of a workload's first
# DIGEST_REQUESTS prompts are digested against the committed digest.
DIGEST_REQUESTS = 4


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)



def import_program():
    """Import specqd from this checkout's ``src``; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "specqd" / "__init__.py").is_file():
        print(f"error: no specqd package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def token_digest(sequences) -> str:
    h = hashlib.sha256()
    for seq in sequences:
        h.update(json.dumps(seq).encode())
    return h.hexdigest()


def greedy_prefix(wl, trees, seed: int) -> list[list[int]]:
    """Greedy tokens of the first DIGEST_REQUESTS prompts of the stream.

    Prompt i goes to tree i mod len(trees), as in the loop.
    """
    from specqd import specdec
    import workloads

    stream = workloads.prompt_stream(wl, seed, trees[0].target.config.vocab_size)
    return [specdec.greedy_generate(trees[i % len(trees)].target, prompt,
                                    wl.max_new).tokens
            for i, prompt in enumerate(itertools.islice(stream, DIGEST_REQUESTS))]


def canary(wl, work: Path) -> dict:
    """Model checksums and greedy digest of the workload at the canary seed."""
    import workloads
    from specqd import tinylm

    seed = json.loads((HERE / "canary.json").read_text())["seed"]
    trees, _ = workloads.set_up(wl, seed, work / "canary")
    return {
        "checksums": [[tinylm.model_checksum(lv.model) for lv in tree.levels]
                      for tree in trees],
        "greedy_digest": token_digest(greedy_prefix(wl, trees, seed)),
    }


def canary_problems(wl, work: Path) -> list[str]:
    """The workload at a fixed seed against canary.json.

    The run's own models and prompts follow its seed and cannot be pinned;
    this fixed draw of the same shapes catches a change to model
    initialisation, the MXFP4 cast, saving and loading, or the target's
    arithmetic. It runs outside the timed window.
    """
    want = json.loads((HERE / "canary.json").read_text())["workloads"][wl.name]
    got = canary(wl, work)
    return [f"canary {k}: {got[k]} != {want[k]}" for k in got if got[k] != want[k]]


def write_canary() -> int:
    """``run.py --write-canary``: record this checkout's digests."""
    import_program()
    import workloads

    want = json.loads((HERE / "canary.json").read_text())
    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        want["workloads"] = {name: canary(wl, work / name)
                             for name, wl in workloads.WORKLOADS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "canary.json").write_text(json.dumps(want, indent=1) + "\n")
    return 0


class Loop:
    """Closed-loop client over a fixed list of distinct requests.

    Request i goes to tree i mod len(trees). The list is decoded in order,
    then again from its start while time remains: every run checks the same
    requests, so ``attempted`` and ``failed`` follow from the code and the
    seed alone, not from the machine's speed, while the rates cover every
    decode of the window. A repeat must reproduce its request's first
    outcome.
    """

    def __init__(self, trees, max_new: int, recorder=None):
        self.trees = trees
        self.max_new = max_new
        self.recorder = recorder
        # One entry per distinct request, from its first decode.
        self.passed: list[bool] = []
        self.greedy_tokens: list[list[int] | None] = []  # None if it raised
        self.errors: list[str] = []
        self.repeat_mismatches = 0
        # One entry per decode, repeats included.
        self.order: list[int] = []  # the request decoded
        self.ok: list[bool] = []
        self.greedy_s: list[float] = []
        self.spec_s: list[float] = []
        self.tokens: list[int] = []
        self.spec_results = []  # GenerationResult of each returned decode
        self.wall_s = 0.0

    def decode(self, i: int, prompt):
        from specqd import specdec

        tree = self.trees[i % len(self.trees)]
        if self.recorder:
            self.recorder.request = len(self.order)
        self.order.append(i)
        greedy_tokens, ok, error = None, False, None
        g_s = s_s = 0.0
        try:
            t0 = time.perf_counter()
            greedy = specdec.greedy_generate(tree.target, prompt, self.max_new)
            t1 = time.perf_counter()
            spec = specdec.speculative_generate(tree, prompt, self.max_new)
            t2 = time.perf_counter()
        except Exception as exc:  # a failed request; the loop keeps running
            error = f"{type(exc).__name__}: {exc}"
        else:
            g_s, s_s = t1 - t0, t2 - t1
            greedy_tokens = greedy.tokens
            ok = spec.tokens == greedy.tokens
            self.spec_results.append(spec)
        if i == len(self.passed):
            self.passed.append(ok)
            self.greedy_tokens.append(greedy_tokens)
            if error:
                self.errors.append(error)
        elif (ok, greedy_tokens) != (self.passed[i], self.greedy_tokens[i]):
            self.repeat_mismatches += 1
        self.ok.append(ok)
        self.greedy_s.append(g_s)
        self.spec_s.append(s_s)
        self.tokens.append(len(greedy_tokens or ()))

    def run(self, requests, seconds: float | None = None,
            decodes: int | None = None):
        """Decode ``requests`` in turn, cycling over them.

        Stops after ``decodes`` decodes, or once ``seconds`` have elapsed
        and every request was decoded; with neither, after one pass.
        """
        if seconds is None and decodes is None:
            decodes = len(requests)
        t0 = time.perf_counter()
        for n, i in enumerate(itertools.cycle(range(len(requests)))):
            if decodes is not None and n >= decodes:
                break
            if (seconds is not None and n >= len(requests)
                    and time.perf_counter() - t0 >= seconds):
                break
            self.decode(i, requests[i])
        self.wall_s = time.perf_counter() - t0

    def failed(self) -> int:
        return self.passed.count(False)

    def rates(self) -> dict[str, float]:
        ok = [d for d, p in enumerate(self.ok) if p]
        if not ok:
            raise RuntimeError("no request passed; rates are undefined")
        tokens = sum(self.tokens[d] for d in ok)
        greedy = sum(self.greedy_s[d] for d in ok)
        spec = sum(self.spec_s[d] for d in ok)
        return {
            "greedy_tok_s": tokens / greedy,
            "spec_tok_s": tokens / spec,
            "speedup": greedy / spec,
            "spec_req_ms_p50": statistics.median(self.spec_s[d] for d in ok) * 1e3,
        }


def facts(args, workload, trees, seconds_setup, loop) -> dict:
    import numpy as np
    from specqd import qgemm, tinylm

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = Path("/proc/self/status")
    os_threads = next((int(line.split()[1]) for line in
                       status.read_text().splitlines()
                       if line.startswith("Threads:")), None) if status.exists() else None
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "specqd_threads": qgemm.default_threads(),
        "os_threads": os_threads,
        "python_threads": threading.active_count(),
        "setup_s_reps": seconds_setup,
        "levels": [
            {"config": vars(lv.model.config), "quantized": lv.model.is_quantized,
             "gemm_path": lv.model.gemm_path, "spec_len": lv.spec_len,
             "threshold": lv.threshold}
            for lv in trees[0].levels
        ],
        "checksums": [[tinylm.model_checksum(lv.model) for lv in tree.levels]
                      for tree in trees],
        "max_new": workload.max_new,
        "prompt_len": list(workload.prompt_len),
        "requests": {"attempted": len(loop.passed), "failed": loop.failed(),
                     "succeeded": len(loop.passed) - loop.failed(),
                     "decodes": len(loop.order)},
        "loop_wall_s": loop.wall_s,
        "spec_req_ms_p50_samples": sum(loop.ok),
        "greedy_digest": token_digest(loop.greedy_tokens),
        "errors": loop.errors[:5],
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--write-canary"]:
        return write_canary()
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        return measure(args, spec, workloads.WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec, wl, work) -> int:
    import workloads
    from spans import SpanRecorder

    problems = canary_problems(wl, work)
    rec = SpanRecorder() if args.trace else None
    trees, printed, setup_times, reps = set_up_repeatedly(wl, args.seed, work, rec)
    problems += workloads.check_models(wl, work, printed)
    # Sleep emulation would make rates track weight bytes, not compute.
    if any(lv.model.forward_penalty_s != 0 for t in trees for lv in t.levels):
        raise RuntimeError("forward_penalty_s must be 0 in this benchmark")

    stream = workloads.prompt_stream(wl, args.seed,
                                     trees[0].target.config.vocab_size)
    requests = list(itertools.islice(stream, wl.requests))
    Loop(trees, WARMUP_NEW_TOKENS).run([[1, 2, 3]] * len(trees))

    if rec:
        loop, metrics, detail = traced_run(args, wl, trees, requests, rec,
                                           reps, work, problems)
        wanted = spec["per_layer"]
    else:
        loop = Loop(trees, wl.max_new)
        loop.run(requests, seconds=args.seconds)
        metrics, detail = loop.rates(), {}
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        wanted = spec["end_to_end"]

    if loop.repeat_mismatches:
        problems.append(f"{loop.repeat_mismatches} repeated decodes differ "
                        "from their request's first decode")
    info = facts(args, wl, trees, setup_times, loop)
    if (info["os_threads"] or 0) > info["nproc"]:
        problems.append(f"{info['os_threads']} threads on {info['nproc']} CPUs")
    info["problems"] = problems
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    result = {
        "correct": not problems,
        "attempted": len(loop.passed),
        "failed": loop.failed(),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    OUT_DIR.mkdir(exist_ok=True)
    report = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(
        {"facts": info, "result": result, "detail": detail}, indent=1) + "\n")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"facts": info, "detail": detail}))
    print(json.dumps(result))
    return 0


def set_up_repeatedly(wl, seed, work, rec):
    """Repeated full set-ups into ``work``; the last one's models are used.

    Returns (trees, model-init checksums, seconds of each repetition, and
    each traced repetition's [first, last) span range).
    """
    import layers
    import workloads

    if rec:
        layers.install(rec)
    times, reps = [], []
    try:
        while len(times) < SETUP_MIN_REPS or (
                sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPS):
            first = len(rec.spans) if rec else 0
            t0 = time.perf_counter()
            trees, printed = workloads.set_up(wl, seed, work)
            times.append(time.perf_counter() - t0)
            if rec:
                reps.append((first, len(rec.spans)))
    finally:
        if rec:
            rec.uninstall()
    return trees, printed, times, reps


def traced_run(args, wl, trees, requests, rec, reps, work, problems):
    """Half the time traced, then the same decodes replayed untraced."""
    import layers

    first = len(rec.spans)
    layers.install(rec)
    traced = Loop(trees, wl.max_new, recorder=rec)
    try:
        traced.run(requests, seconds=args.seconds / 2)
    finally:
        rec.uninstall()
    loop_spans = (first, len(rec.spans))
    loop = Loop(trees, wl.max_new)
    loop.run(requests, decodes=len(traced.order))
    if traced.passed != loop.passed:
        problems.append("traced and untraced runs disagree on pass/fail")
    if traced.greedy_tokens != loop.greedy_tokens:
        problems.append("traced and untraced greedy tokens differ")
    if traced.repeat_mismatches:
        problems.append("traced repeats differ from their request's first decode")
    rates = loop.rates()

    fwd1 = layers.fwd1_probe(rec, trees[0], requests[0])
    metrics, detail = layers.loop_metrics(
        rec, loop_spans, trees, traced.spec_results, traced.wall_s, fwd1)
    if abs(metrics["trace.self_sum_over_wall"] - 1.0) > SELF_TIME_MARGIN:
        problems.append("span self times do not add up to the traced wall time")
    if metrics["trace.unattributed_share"] > UNATTRIBUTED_MAX:
        problems.append("traced time stays in requests and forwards, "
                        "not in the layers they call")
    metrics.update(layers.setup_metrics(rec, reps))
    metrics["artifacts.bytes"] = sum(f.stat().st_size for f in work.rglob("*.bin"))
    levels = trees[0].levels
    metrics["mxfp4.compression"] = (levels[0].model.linear_weight_bytes()
                                    / levels[1].model.linear_weight_bytes())
    metrics["analytics.measured_over_predicted"] = (
        rates["speedup"] / metrics["analytics.predicted_speedup"])
    traced_tok_s = traced.rates()["spec_tok_s"]
    metrics["trace.spec_tok_s_traced"] = traced_tok_s
    metrics["trace.spec_tok_s_untraced"] = rates["spec_tok_s"]
    metrics["trace.overhead"] = 1.0 - traced_tok_s / rates["spec_tok_s"]
    detail["measured_speedup_untraced"] = rates["speedup"]
    OUT_DIR.mkdir(exist_ok=True)
    rec.dump(OUT_DIR / f"{wl.name}-seed{args.seed}-spans.json")
    return loop, metrics, detail


if __name__ == "__main__":
    sys.exit(main())
