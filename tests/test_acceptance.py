"""Release acceptance gate.

Each test covers one acceptance criterion end to end and prints a single
PASS/FAIL line (visible with ``pytest -s`` or in captured output). Criteria
are asserted at their stated tolerances; nothing here is approximate where
exactness is claimed.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from specqd import analytics, qgemm
from specqd.mxfp4 import (
    BLOCK_SIZE,
    block_scale_exponents,
    dequantize,
    fp4_decode,
    fp4_encode,
    quantize_direct_cast,
    scale_values,
)
from specqd.specdec import LevelSpec, SpecTree, greedy_generate, run_benchmark, speculative_generate
from specqd.tinylm import LmConfig, TinyLmModel, direct_cast_mxfp4, init_seeded


def _report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")


# ---------------------------------------------------------------- criterion 1


def test_losslessness_randomized_cases():
    """Speculative output token-identical to greedy over >= 100 random cases."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    n_cases = 100
    for case in range(n_cases):
        n_heads = int(rng.choice([2, 4]))
        cfg = LmConfig(
            vocab_size=64,
            d_model=int(rng.choice([16, 32, 64])) * n_heads // n_heads,
            n_layers=int(rng.integers(1, 3)),
            n_heads=n_heads,
            d_ff=int(rng.choice([32, 64])),
            max_seq_len=64,
        )
        target = init_seeded(cfg, int(rng.integers(0, 10_000)))
        depth = int(rng.integers(0, 3))
        levels = [LevelSpec(
            target,
            spec_len=int(rng.integers(1, 9)),
            threshold=float(rng.choice([0.0, 0.4, 0.65, 1.0])),
        )]
        if depth >= 1:
            levels.append(LevelSpec(
                direct_cast_mxfp4(target),
                spec_len=int(rng.integers(1, 9)),
                threshold=float(rng.choice([0.0, 0.4, 0.65, 1.0])),
            ))
        if depth >= 2:
            small_cfg = LmConfig(vocab_size=64, d_model=16, n_layers=1,
                                 n_heads=2, d_ff=32, max_seq_len=64)
            levels.append(LevelSpec(
                init_seeded(small_cfg, int(rng.integers(0, 10_000))),
                spec_len=int(rng.integers(1, 9)),
                threshold=float(rng.choice([0.0, 0.4, 0.65, 1.0])),
            ))
        tree = SpecTree(levels)
        prompt = [int(t) for t in rng.integers(0, 64, int(rng.integers(1, 5)))]
        max_new = int(rng.integers(4, 13))
        base = greedy_generate(target, prompt, max_new).tokens
        spec = speculative_generate(tree, prompt, max_new).tokens
        assert spec == base, f"case {case}: {spec} != {base}"
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 300
    _report("losslessness suite", ok, f"{n_cases} cases in {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------- criterion 2


def test_codec_suite():
    """Exhaustive decode, monotone encode, round-trip, clamping, scale rule."""

    def e2m1(code):
        sign = -1.0 if code & 0x8 else 1.0
        exp, mant = (code >> 1) & 0x3, code & 0x1
        if exp == 0:
            return sign * 0.5 * mant
        return sign * 2.0 ** (exp - 1) * (1.0 + 0.5 * mant)

    # 16-code exhaustive decode.
    for c in range(16):
        assert fp4_decode(np.uint8(c)) == e2m1(c)

    # Encode monotonicity over a 1e5-point scan.
    xs = np.linspace(-8.0, 8.0, 100_000)
    decoded = fp4_decode(fp4_encode(xs))
    assert np.all(np.diff(decoded) >= 0)

    rng = np.random.default_rng(7)
    for _ in range(1000):
        # Round-trip idempotence on random blocks.
        x = rng.standard_normal((1, BLOCK_SIZE)) * 10.0 ** rng.integers(-2, 3)
        q1 = quantize_direct_cast(x)
        assert quantize_direct_cast(dequantize(q1)) == q1
        # Two-step scale rule vs direct evaluation.
        m = float(np.max(np.abs(x)))
        exp, _ = block_scale_exponents([m])
        assert scale_values(exp)[0] == 2.0 ** (np.floor(np.log2(m)) - 2)

    # Clamping at |v| > 6 * scale.
    block = np.zeros((1, BLOCK_SIZE))
    block[0, 0] = 100.0  # scale 2^(floor(log2 100) - 2) = 16, 6*16 = 96
    t = quantize_direct_cast(block)
    assert scale_values(t.scale_exp)[0, 0] == 16.0
    assert dequantize(t)[0, 0] == 96.0

    _report("codec suite", True,
            "16-code decode, 1e5 monotone scan, 1e3 round-trips, clamping, "
            "1e3 scale-rule blocks, exact")


# ---------------------------------------------------------------- criterion 3


def test_gemm_oracle_suite():
    """Float path 1e-5 relative, int8 bit-exact, Eq. identity, bound, threads."""
    from fractions import Fraction

    rng = np.random.default_rng(8)

    # Late-scaling float path within relative 1e-5 of the dequantized oracle.
    worst_rel = 0.0
    for _ in range(25):
        m = int(rng.integers(1, 9)) * BLOCK_SIZE  # M <= 256
        k = int(rng.integers(1, 9)) * BLOCK_SIZE  # K <= 256
        n = int(rng.integers(1, 9))  # N <= 8
        w = quantize_direct_cast(rng.standard_normal((m, k)))
        a = rng.standard_normal((k, n))
        got = qgemm.gemm_mxfp4_latescale_f32(w, a)
        ref = qgemm.gemm_reference(dequantize(w), a)
        rel = np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1.0)
        worst_rel = max(worst_rel, float(rel))
    assert worst_rel < 1e-5

    # int8 path bit-exact under power-of-two activation scales.
    for _ in range(10):
        k, n = 4 * BLOCK_SIZE, 4
        exps = rng.integers(-2, 3, size=(k // BLOCK_SIZE, n))
        ints = rng.integers(-127, 128, size=(k, n)).astype(np.float64)
        blocks = ints.reshape(-1, BLOCK_SIZE, n)
        blocks[:, 0, :] = 127.0
        a = (blocks * 2.0 ** exps[:, None, :]).reshape(k, n)
        w = quantize_direct_cast(rng.standard_normal((16, k)))
        panel = qgemm.quantize_activations(a)
        got = qgemm.gemm_mxfp4_int8(w, panel)
        ref = qgemm.gemm_reference(
            dequantize(w), qgemm.dequantize_activations(panel)
        )
        assert np.array_equal(got, ref)

    # Late-scaling identity, exact over the rationals.
    for _ in range(100):
        wq = [Fraction(int(x)) for x in rng.integers(-6, 7, BLOCK_SIZE)]
        aq = [Fraction(int(x)) for x in rng.integers(-9, 10, BLOCK_SIZE)]
        scf = Fraction(2) ** int(rng.integers(-4, 5))
        assert scf * sum(wi * ai for wi, ai in zip(wq, aq)) == sum(
            scf * wi * ai for wi, ai in zip(wq, aq)
        )

    # Term bound of the MXFP4 GEMM's exact float32 window.
    assert (12 * 127).bit_length() == qgemm.TERM_BITS == 11

    # BLAS thread-count invariance: the reference and int8 paths at shapes
    # whose matmuls OpenBLAS splits across threads, byte for byte.
    src = str(Path(qgemm.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _GEMM_THREAD_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout.split())
    assert len(digests[0]) == 2 and digests[0] == digests[1]

    _report("gemm oracle suite", True,
            f"float path worst rel {worst_rel:.2e}, int8 bit-exact, "
            "rational identity, term bound 2^11, reference and int8 "
            "thread-invariant at 1 and 2 BLAS threads, latescale makes no "
            "BLAS call")


# One digest each for a reference GEMM of (300, 200) by (200, 70) and an
# int8 GEMM of 4096 rows, K = 64, N = 16: OpenBLAS splits both kernels'
# matmuls across threads.
_GEMM_THREAD_PROBE = """
import hashlib
import numpy as np
from specqd import qgemm
from specqd.mxfp4 import quantize_direct_cast
rng = np.random.default_rng(0)
ref = qgemm.gemm_reference(rng.standard_normal((300, 200)),
                           rng.standard_normal((200, 70)))
int8 = qgemm.gemm_mxfp4_int8(
    quantize_direct_cast(rng.standard_normal((4096, 64))),
    qgemm.quantize_activations(rng.standard_normal((64, 16))))
for out in (ref, int8):
    print(hashlib.sha256(out.tobytes()).hexdigest())
"""


# ---------------------------------------------------------------- criterion 4


def test_analytic_model():
    """Closed-form speedup: specialization, simulation, composition band,
    and the two-point surface cross-check at 10% tolerance."""
    # N=4 specialization, symbolic agreement on a grid.
    for a in np.linspace(0.0, 1.0, 101):
        for s in (2.0, 4.0, 20.0, 100.0):
            general = analytics.speedup_sd(analytics.SpeedupParams(float(a), 4, s))
            special = (a + 0.25) / (1.0 / s + 0.25)
            assert abs(general - special) < 1e-12

    # Exact-match round simulation equals the closed form at integral G.
    for n in (1, 2, 4, 8):
        for g in range(0, n + 1):
            p = analytics.SpeedupParams(g / n, n, 10.0)
            sim = analytics.simulate_rounds(p, 137)
            assert abs(sim - analytics.speedup_sd(p)) < 1e-12

    # Two-level composition lands in the 3-3.5x band at the center and the
    # upper corner of the quoted operating rectangle (S1=4, S2=100, N=4).
    for a_out, a_in in ((0.85, 0.425), (0.85, 0.45)):
        p = analytics.MultiLevelParams(
            outer=analytics.SpeedupParams(a_out, 4, 4.0),
            inner=analytics.SpeedupParams(a_in, 4, 25.0),
        )
        sp = analytics.speedup_multilevel(p)
        assert 3.0 <= sp <= 3.5, f"composition at {(a_out, a_in)} = {sp}"

    # Surface cross-check: a slow high-acceptance draft (S=4, alpha=0.85)
    # against a fast half-acceptance draft (S=100, alpha=0.425), asserted
    # to agree within 10%.
    slow = analytics.speedup_sd(analytics.SpeedupParams(0.85, 4, 4.0))
    fast = analytics.speedup_sd(analytics.SpeedupParams(0.425, 4, 100.0))
    rel = abs(slow - fast) / fast
    ok = rel <= 0.10
    _report("analytic model", ok,
            f"specialization/simulation/band ok; cross-check rel diff "
            f"{rel:.3f} ({slow:.3f} vs {fast:.3f}) vs 0.10 tolerance")
    assert ok, (
        f"two-point surface cross-check: relative difference {rel:.3f} "
        f"exceeds the 0.10 tolerance ({slow:.4f} vs {fast:.4f})"
    )


# ---------------------------------------------------------------- criterion 5


def test_end_to_end_demo():
    """MXFP4 cast beats a 4x-smaller draft on acceptance; with a
    bandwidth-proportional per-forward cost the quantized pipeline beats
    greedy wall time."""
    t0 = time.perf_counter()
    cfg = LmConfig(vocab_size=64, d_model=32, n_layers=1, n_heads=2,
                   d_ff=64, max_seq_len=96)
    small_cfg = LmConfig(vocab_size=64, d_model=16, n_layers=1, n_heads=2,
                         d_ff=16, max_seq_len=96)
    target = init_seeded(cfg, 0)
    mx_draft = direct_cast_mxfp4(target)
    small = init_seeded(small_cfg, 1)

    rng = np.random.default_rng(5)
    prompts = [[int(t) for t in rng.integers(0, 64, int(rng.integers(1, 4)))]
               for _ in range(100)]

    # Acceptance-ratio direction: cast draft vs unrelated small draft.
    tree_mx = SpecTree([LevelSpec(target, spec_len=4, threshold=0.0),
                        LevelSpec(mx_draft, spec_len=4, threshold=0.0)])
    tree_sm = SpecTree([LevelSpec(target, spec_len=2, threshold=0.0),
                        LevelSpec(small, spec_len=2, threshold=0.0)])
    rep_mx = run_benchmark(tree_mx, prompts, max_new=12)
    rep_sm = run_benchmark(tree_sm, prompts, max_new=12)
    a_mx, a_sm = rep_mx.per_level_alpha[1], rep_sm.per_level_alpha[1]
    assert a_mx > a_sm, f"alpha direction violated: {a_mx} <= {a_sm}"

    # Wall-time speedup on an emulated bandwidth-bound host: per-forward cost
    # proportional to streamed linear-weight bytes.
    slow_per_mb = 0.8  # seconds of sleep per MB of linear weights
    slow_target = init_seeded(cfg, 0)
    slow_target.forward_penalty_s = (
        slow_target.linear_weight_bytes() / 1e6 * slow_per_mb
    )
    slow_draft = direct_cast_mxfp4(slow_target)
    slow_draft.forward_penalty_s = (
        slow_draft.linear_weight_bytes() / 1e6 * slow_per_mb
    )

    # Gate: assert the draft forward really is measurably faster here.
    from specqd.tinylm import KvCache, forward

    def forward_seconds(m: TinyLmModel) -> float:
        cache = KvCache.empty(cfg)
        t = time.perf_counter()
        forward(m, cache, [1])
        return time.perf_counter() - t

    draft_faster = forward_seconds(slow_draft) < 0.7 * forward_seconds(slow_target)
    assert draft_faster, "draft not measurably faster; emulation failed"

    tree_slow = SpecTree([LevelSpec(slow_target, spec_len=4, threshold=0.0),
                          LevelSpec(slow_draft, spec_len=4, threshold=0.0)])
    rep = run_benchmark(tree_slow, prompts[:40], max_new=12)
    elapsed = time.perf_counter() - t0
    ok = rep.geomean_speedup > 1.0 and elapsed <= 600
    _report("end-to-end demo", ok,
            f"alpha mxfp4 {a_mx:.3f} > small {a_sm:.3f}, geomean speedup "
            f"{rep.geomean_speedup:.2f}x, {elapsed:.0f}s")
    assert rep.geomean_speedup > 1.0
    assert elapsed <= 600


# ---------------------------------------------------------------- criterion 6


def test_roofline_sanity():
    """Intensity ratio matches the byte formula; attainable below both roofs."""
    m = k = 4096
    i8 = analytics.intensity_of_gemm(m, 8, k, "mxfp4")
    i1 = analytics.intensity_of_gemm(m, 1, k, "mxfp4")
    b8 = analytics.gemm_traffic_bytes(m, 8, k, "mxfp4")
    b1 = analytics.gemm_traffic_bytes(m, 1, k, "mxfp4")
    want = (2 * m * 8 * k / b8) / (2 * m * 1 * k / b1)
    assert abs(i8 / i1 - want) < 1e-9

    rng = np.random.default_rng(9)
    for _ in range(10_000):
        pt = analytics.RooflinePoint(*np.exp(rng.uniform(-3, 12, 3)))
        att = analytics.roofline(pt)
        assert att <= pt.compute
        assert att <= pt.bandwidth * pt.intensity

    _report("roofline sanity", True,
            f"N=8/N=1 intensity ratio {i8 / i1:.4f} exact, 1e4 grid bounded")
