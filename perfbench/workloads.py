"""The benchmark's workloads: model trees, prompt streams and CLI set-up.

Every model and prompt derives from the workload seed; the library sees
only the generated files and token lists. Set-up follows a CLI user's
path: ``specqd model-init`` and ``specqd quantize`` run in-process through
``cli.main``, then every level's file is read back with
``artifacts.load_model``.
"""

from __future__ import annotations

import contextlib
import io
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from specqd import artifacts, cli, specdec, tinylm


@dataclass(frozen=True)
class ModelInit:
    """One ``specqd model-init`` call; ``seed_slot`` picks a derived seed."""

    file: str
    seed_slot: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    max_seq_len: int = 256


@dataclass(frozen=True)
class Level:
    file: str
    spec_len: int = specdec.DEFAULT_SPEC_LEN
    threshold: float = specdec.DEFAULT_THRESHOLD


@dataclass(frozen=True)
class Workload:
    name: str
    index: int  # mixed into the seed, so workloads never share inputs
    inits: tuple[ModelInit, ...]
    casts: tuple[tuple[str, str], ...]  # (float model file, MXFP4 file)
    levels: tuple[Level, ...]  # target first, as `generate --draft ...`
    prompt_len: tuple[int, int]  # inclusive range
    max_new: int
    # Distinct prompts a run checks, the stream's first ones. A run decodes
    # them all, then cycles over them until its time is up; the first pass
    # takes about 25 s of a 30 s window on a 2-CPU host.
    requests: int
    # Independently seeded copies of the tree; prompts rotate over them, so
    # a run's rates average the acceptance of several model draws instead
    # of depending on one.
    trees: int = 1


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="decode-short",
            index=1,
            inits=(ModelInit("target.bin", 0, d_model=512, n_layers=2,
                             n_heads=8, d_ff=1024),),
            casts=(("target.bin", "draft.bin"),),
            levels=(Level("target.bin"), Level("draft.bin")),
            prompt_len=(2, 16),
            max_new=32,
            requests=10,
            trees=2,
        ),
        Workload(
            name="long-context",
            index=2,
            inits=(ModelInit("target.bin", 0, d_model=64, n_layers=2,
                             n_heads=4, d_ff=128, max_seq_len=512),),
            casts=(("target.bin", "draft.bin"),),
            levels=(Level("target.bin"), Level("draft.bin")),
            # Half the context up to its last position: requests near the
            # end run into max_seq_len, which exercises the context limit.
            prompt_len=(256, 511),
            max_new=48,
            requests=12,
        ),
        Workload(
            name="multilevel-deep",
            index=3,
            inits=(
                ModelInit("target.bin", 0, d_model=128, n_layers=2,
                          n_heads=4, d_ff=256),
                ModelInit("tiny_f32.bin", 1, d_model=32, n_layers=1,
                          n_heads=4, d_ff=64),
            ),
            casts=(("target.bin", "draft.bin"), ("tiny_f32.bin", "tiny.bin")),
            # Threshold 0 fixes each level's proposal length N, as the
            # closed form (alpha + 1/N) / (1/N + 1/S) assumes.
            levels=(Level("target.bin"), Level("draft.bin", 8, 0.0),
                    Level("tiny.bin", 4, 0.0)),
            prompt_len=(2, 16),
            max_new=8,
            requests=40,
            # Acceptance differs between seeded model pairs (1.9 to 2.5
            # tokens per target round over ten seeds) and between prompts;
            # eight trees and short requests average both within a run
            # (with four, spec_req_ms_p50 spread twice as far over seeds).
            trees=8,
        ),
    )
}


def model_seeds(workload: Workload, seed: int) -> list[list[int]]:
    """One seed per (tree, seed slot)."""
    slots = 1 + max(m.seed_slot for m in workload.inits)
    rng = np.random.default_rng([seed, workload.index])
    flat = [int(s) for s in rng.integers(0, 2**31, slots * workload.trees)]
    return [flat[t * slots:(t + 1) * slots] for t in range(workload.trees)]


GOLDEN = (5 ** 0.5 - 1) / 2


def prompt_stream(workload: Workload, seed: int, vocab: int):
    """Endless deterministic prompts; independent of the model seeds.

    Lengths follow a golden-ratio sequence from a seeded offset, so any run
    of consecutive prompts covers the whole length range evenly: a run's
    few distinct requests see the same length mix, whatever the seed.
    Tokens are uniform random.
    """
    rng = np.random.default_rng([seed, workload.index, 1])
    lo, hi = workload.prompt_len
    u = rng.random()
    while True:
        n = lo + int(u * (hi - lo + 1))
        u = (u + GOLDEN) % 1.0
        yield [int(t) for t in rng.integers(0, vocab, n)]


def _cli(argv: list[str]) -> str:
    """Run ``specqd <argv>`` in-process; return its stdout, fail on error."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"specqd {' '.join(argv)} exited with {code}")
    return out.getvalue()


def set_up(workload: Workload, seed: int, workdir: Path):
    """Create, cast, save and load every model of every tree.

    Tree t lives in ``workdir/tree<t>``. Returns (trees, the checksums
    model-init printed, by file path).
    """
    trees, printed = [], {}
    for t, seeds in enumerate(model_seeds(workload, seed)):
        tdir = workdir / f"tree{t}"
        tdir.mkdir(parents=True, exist_ok=True)
        for m in workload.inits:
            argv = ["model-init", "--seed", str(seeds[m.seed_slot]),
                    "--d-model", str(m.d_model), "--n-layers", str(m.n_layers),
                    "--n-heads", str(m.n_heads), "--d-ff", str(m.d_ff),
                    "--max-seq-len", str(m.max_seq_len),
                    "--out", str(tdir / m.file)]
            printed[tdir / m.file] = re.search(r"checksum=([0-9a-f]+)",
                                               _cli(argv)).group(1)
        for src, dst in workload.casts:
            _cli(["quantize", "--model", str(tdir / src),
                  "--out", str(tdir / dst)])
        trees.append(specdec.SpecTree([
            specdec.LevelSpec(artifacts.load_model(tdir / lv.file),
                              spec_len=lv.spec_len, threshold=lv.threshold)
            for lv in workload.levels
        ]))
    return trees, printed


def check_models(workload: Workload, workdir: Path, printed: dict) -> list[str]:
    """Bit-exactness of the set-up path; returns a list of problems.

    A float model read back must hash as model-init printed it, and a cast
    read back must hash as the in-memory cast of its source.
    """
    problems = []
    for path, digest in printed.items():
        if tinylm.model_checksum(artifacts.load_model(path)) != digest:
            problems.append(f"{path.name}: load does not reproduce model-init")
    for t in range(workload.trees):
        tdir = workdir / f"tree{t}"
        for src, dst in workload.casts:
            want = tinylm.direct_cast_mxfp4(artifacts.load_model(tdir / src))
            got = artifacts.load_model(tdir / dst)
            if tinylm.model_checksum(got) != tinylm.model_checksum(want):
                problems.append(f"{dst}: quantize does not reproduce direct cast")
    return problems
