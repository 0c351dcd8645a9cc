"""Closed-form performance models for speculative decoding, plus roofline.

Single-level speedup per round: a draft S times faster than the target
proposes N tokens, G = alpha * N are accepted, and verification adds one
bonus token, so

    speedup = (G + 1) / (1 + N / S) = (alpha + 1/N) / (1/N + 1/S)

For a two-level hierarchy the intermediate draft is itself accelerated by
its own sub-draft, so the outer S is replaced by S' = S1 * inner speedup.
That multiplicative composition is this module's modeling assumption; it is
validated against the round-by-round simulation below.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .mxfp4 import BITS_PER_ELEMENT


@dataclass(frozen=True)
class SpeedupParams:
    alpha: float
    n: float
    s: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha={self.alpha} outside [0, 1]")
        # Written so that NaN fails; S = inf is a draft that costs nothing.
        if not (self.n > 0 and self.s > 0):
            raise ValueError(f"N and S must be positive, got N={self.n}, S={self.s}")


@dataclass(frozen=True)
class MultiLevelParams:
    outer: SpeedupParams  # target vs level-1 draft, relative speed S1
    inner: SpeedupParams  # level-1 vs level-2 draft, relative speed S2/S1


@dataclass(frozen=True)
class RooflinePoint:
    intensity: float  # flops / byte
    bandwidth: float  # bytes / s
    compute: float  # flops / s

    def __post_init__(self):
        if not all(x > 0 for x in (self.intensity, self.bandwidth, self.compute)):
            raise ValueError(f"roofline fields must be positive, got {self}")


def speedup_sd(p: SpeedupParams) -> float:
    """Expected single-level speedup (alpha + 1/N) / (1/N + 1/S)."""
    return (p.alpha + 1.0 / p.n) / (1.0 / p.n + 1.0 / p.s)


def effective_draft_speed(inner: SpeedupParams, s1: float) -> float:
    """S' for a level-1 draft that is itself accelerated by its sub-draft."""
    if not s1 > 0:
        raise ValueError(f"S1 must be positive, got {s1}")
    return s1 * speedup_sd(inner)


def speedup_multilevel(p: MultiLevelParams) -> float:
    """Two-level speedup: outer formula with S replaced by S'."""
    s_eff = effective_draft_speed(p.inner, p.outer.s)
    boosted = SpeedupParams(p.outer.alpha, p.outer.n, s_eff)
    return speedup_sd(boosted)


def surface_csv(mode: str, alphas, s_values=(4.0, 20.0, 100.0),
                n: float = 4.0, s1: float = 4.0, s2: float = 100.0) -> str:
    """Dense speedup grid for external plotting.

    ``single``: columns alpha,S,speedup over the alpha x S grid.
    ``multi``:  columns alpha_inner,alpha_outer,speedup over the alpha x
    alpha grid, with draft speeds S1 (intermediate) and S2 (last level).
    """
    out = io.StringIO()
    if mode == "single":
        out.write("alpha,S,speedup\n")
        for s in s_values:
            for a in alphas:
                sp = speedup_sd(SpeedupParams(float(a), n, float(s)))
                out.write(f"{a:.6f},{s:g},{sp:.9f}\n")
    elif mode == "multi":
        out.write("alpha_inner,alpha_outer,speedup\n")
        for ai in alphas:
            for ao in alphas:
                p = MultiLevelParams(
                    outer=SpeedupParams(float(ao), n, s1),
                    inner=SpeedupParams(float(ai), n, s2 / s1),
                )
                out.write(f"{ai:.6f},{ao:.6f},{speedup_multilevel(p):.9f}\n")
    else:
        raise ValueError(f"unknown surface mode {mode!r}")
    return out.getvalue()


def roofline(point: RooflinePoint) -> float:
    """Attainable throughput = min(compute roof, bandwidth * intensity)."""
    return min(point.compute, point.bandwidth * point.intensity)


def gemm_traffic_bytes(m: int, n: int, k: int, fmt: str) -> float:
    """Compulsory bytes for one M x N x K GEMM with the given weight format:
    the weights once, and the activations and output once as float32."""
    if fmt == "mxfp4":
        weight = m * k * BITS_PER_ELEMENT / 8.0
    elif fmt == "f32":
        weight = m * k * 4.0
    elif fmt == "bf16":
        weight = m * k * 2.0
    else:
        raise ValueError(f"unknown weight format {fmt!r}")
    return weight + k * n * 4.0 + m * n * 4.0


def intensity_of_gemm(m: int, n: int, k: int, fmt: str = "mxfp4") -> float:
    """Operational intensity 2*M*N*K / bytes(shape, format)."""
    return 2.0 * m * n * k / gemm_traffic_bytes(m, n, k, fmt)


def simulate_rounds(params, rounds: int, stochastic: bool = False,
                    seed: int = 0) -> float:
    """Discrete round-by-round oracle for the closed-form speedup.

    Unit-cost model: one target pass costs 1, one draft pass costs 1/S (the
    intermediate level's passes cost 1/S' for multi-level params). In
    exact-match mode G = alpha * N must be integral and every round accepts
    exactly G tokens; in stochastic mode G ~ Binomial(N, alpha).
    """
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    if isinstance(params, MultiLevelParams):
        s = effective_draft_speed(params.inner, params.outer.s)
        p = SpeedupParams(params.outer.alpha, params.outer.n, s)
    else:
        p = params
    n = p.n
    if stochastic:
        rng = np.random.default_rng(seed)
        g = rng.binomial(int(n), p.alpha, size=rounds).astype(np.float64)
    else:
        g_exact = p.alpha * n
        if abs(g_exact - round(g_exact)) > 1e-9:
            raise ValueError("exact-match mode needs integral G = alpha * N")
        g = np.full(rounds, round(g_exact), dtype=np.float64)
    tokens = float(np.sum(g + 1.0))
    cost = rounds * (1.0 + n / p.s)
    # Greedy spends one target pass per token; speedup is the cost ratio.
    return tokens / cost
