"""Batch command-line front end.

Subcommands: model-init, quantize, generate, gemm-bench, speedup-surface,
roofline. All results are files (CSV/JSON) plus a short stdout summary;
there is no interactive mode. The GEMM kernels start no threads of their
own: BLAS is the only source of parallelism (``OPENBLAS_NUM_THREADS``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import analytics, artifacts, qgemm, specdec, tinylm


class CliError(Exception):
    pass


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


# LmConfig's int fields, each a model-init flag with the field's default.
_INIT_FIELDS = [f for f in dataclasses.fields(tinylm.LmConfig)
                if type(f.default) is int]


def cmd_model_init(args) -> int:
    config = tinylm.LmConfig(**{f.name: getattr(args, f.name) for f in _INIT_FIELDS})
    model = tinylm.init_seeded(config, args.seed)
    artifacts.save_model(args.out, model)
    print(f"wrote {args.out} checksum={tinylm.model_checksum(model)}")
    return 0


def cmd_quantize(args) -> int:
    model = artifacts.load_model(args.model)
    before = model.linear_weight_bytes()
    cast = tinylm.direct_cast_mxfp4(model)
    after = cast.linear_weight_bytes()
    artifacts.save_model(args.out, cast)
    print(f"wrote {args.out} linear-bytes {before} -> {after} "
          f"({before / after:.2f}x reduction)")
    return 0


def _load_tree(args) -> specdec.SpecTree:
    """The target, then each ``--draft`` with the ``--spec-len`` and
    ``--threshold`` values at its position; a draft past them keeps
    ``LevelSpec``'s defaults."""
    paths = [args.target] + args.draft
    given = {"spec_len": args.spec_len, "threshold": args.threshold}
    for key, values in given.items():
        if len(values) >= len(paths):
            raise CliError(f"{len(values)} --{key.replace('_', '-')} values for "
                           f"{len(paths)} levels: one per --draft, none for the target")
    levels = []
    for i, path in enumerate(paths):
        model = artifacts.load_model(path)
        if args.slowdown_per_mb:
            model.forward_penalty_s = (
                model.linear_weight_bytes() / 1e6 * args.slowdown_per_mb
            )
        # Level i takes value i - 1; the target drafts nothing.
        levels.append(specdec.LevelSpec(model, **{
            key: values[i - 1] for key, values in given.items()
            if 0 < i <= len(values)}))
    return specdec.SpecTree(levels)


def cmd_generate(args) -> int:
    tree = _load_tree(args)
    prompts = artifacts.load_prompts(args.prompts, byte_mode=args.byte_tokens)
    if not prompts:
        raise CliError(f"no prompts in {args.prompts}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    report = specdec.run_benchmark(tree, prompts, args.max_new, eos=args.eos)
    for res in report.results:
        print(" ".join(str(t) for t in res.tokens))

    _write(out_dir / "summary.json", report.summary_json() + "\n")
    _write(out_dir / "rounds.csv", specdec.rounds_csv(
        [res.stats.log for res in report.results]))
    _write(out_dir / "acceptance.csv", specdec.acceptance_csv(report.alpha_rows))
    speedup = report.geomean_speedup
    shown = "n/a" if speedup is None else f"{speedup:.3f}x"
    print(f"geomean speedup {shown} alpha={report.per_level_alpha}",
          file=sys.stderr)
    return 0


def cmd_gemm_bench(args) -> int:
    rows = [qgemm.BENCH_CSV_HEADER]
    for n in args.n:
        for path in args.paths:
            res = qgemm.gemm_bench(qgemm.GemmShape(args.m, n, args.k), path)
            rows.append(res.csv_row())
    text = "\n".join(rows) + "\n"
    _write(Path(args.out), text)
    print(text, end="")
    return 0


def cmd_speedup_surface(args) -> int:
    alphas = np.linspace(0.0, 1.0, args.grid)
    text = analytics.surface_csv(
        args.mode, alphas=alphas, s_values=tuple(args.s),
        n=args.spec_len, s1=args.s1, s2=args.s2,
    )
    _write(Path(args.out), text)
    print(f"wrote {args.out} ({len(text.splitlines()) - 1} rows)")
    return 0


def cmd_roofline(args) -> int:
    lines = ["format,M,N,K,intensity,attainable_flops"]
    for n in args.n:
        for fmt in ("mxfp4", "f32", "bf16"):
            oi = analytics.intensity_of_gemm(args.m, n, args.k, fmt)
            att = analytics.roofline(analytics.RooflinePoint(
                intensity=oi, bandwidth=args.bandwidth, compute=args.compute,
            ))
            lines.append(f"{fmt},{args.m},{n},{args.k},{oi:.9f},{att:.3f}")
    text = "\n".join(lines) + "\n"
    _write(Path(args.out), text)
    print(text, end="")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as
    it was, so every call of ``main`` gets the same parser."""
    parser = argparse.ArgumentParser(
        prog="specqd",
        description="Quantized-draft speculative decoding experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model-init", help="create a seeded model file")
    p.add_argument("--seed", type=int, default=0)
    for f in _INIT_FIELDS:
        p.add_argument("--" + f.name.replace("_", "-"), type=int, default=f.default)
    p.add_argument("--out", required=True)

    p = sub.add_parser("quantize", help="MXFP4 direct-cast of a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("generate",
                       help="greedy / SD / multi-level SD generation")
    p.add_argument("--target", required=True)
    p.add_argument("--draft", action="append", default=[],
                   help="draft model file, ordered target-first; repeatable")
    p.add_argument("--spec-len", action="append", type=int, default=[],
                   help="speculation length of each --draft, in order; repeatable")
    p.add_argument("--threshold", action="append", type=float, default=[],
                   help="confidence threshold of each --draft, in order; repeatable")
    p.add_argument("--max-new", type=int, default=32)
    p.add_argument("--prompts", required=True)
    p.add_argument("--byte-tokens", action="store_true",
                   help="treat prompt lines as raw text (byte tokenizer)")
    p.add_argument("--eos", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--slowdown-per-mb", type=float, default=0.0,
                   help="per-forward sleep in seconds per MB of linear "
                        "weights, emulating a bandwidth-bound host")

    p = sub.add_parser("gemm-bench", help="kernel bandwidth benchmark")
    p.add_argument("--m", type=int, default=1024)
    p.add_argument("--k", type=int, default=1024)
    p.add_argument("--n", type=int, nargs="+", default=[1, 2, 4, 8])
    p.add_argument("--paths", nargs="+", default=list(qgemm.GEMM_PATHS),
                   choices=qgemm.GEMM_PATHS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("speedup-surface", help="analytic speedup grid CSV")
    p.add_argument("--mode", choices=("single", "multi"), default="single")
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--s", type=float, nargs="+", default=[4.0, 20.0, 100.0])
    p.add_argument("--spec-len", type=float, default=4.0)
    p.add_argument("--s1", type=float, default=4.0)
    p.add_argument("--s2", type=float, default=100.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("roofline", help="operational-intensity table")
    p.add_argument("--m", type=int, default=8192)
    p.add_argument("--k", type=int, default=8192)
    p.add_argument("--n", type=int, nargs="+", default=[1, 2, 4, 8])
    p.add_argument("--bandwidth", type=float, default=104e9,
                   help="bandwidth roof in bytes/s")
    p.add_argument("--compute", type=float, default=1e12,
                   help="compute roof in flops/s")
    p.add_argument("--out", required=True)
    return parser


def _reject_nan(args):
    """A NaN float flag is an error, not a NaN result."""
    for name, value in vars(args).items():
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and math.isnan(v):
                raise CliError(f"--{name.replace('_', '-')} must be a number, got nan")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The subcommand's function is looked up by name at call time, so a
    # wrapper set on this module's ``cmd_*`` attribute is the one called.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        _reject_nan(args)
        return command(args)
    except (CliError, artifacts.ArtifactError, specdec.LosslessnessError,
            ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
