import numpy as np
import pytest

from specqd.analytics import (
    MultiLevelParams,
    RooflinePoint,
    SpeedupParams,
    effective_draft_speed,
    gemm_traffic_bytes,
    intensity_of_gemm,
    roofline,
    simulate_rounds,
    speedup_multilevel,
    speedup_sd,
    surface_csv,
)


class TestSpeedupFormula:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpeedupParams(1.2, 4, 4)
        with pytest.raises(ValueError):
            SpeedupParams(0.5, 0, 4)
        with pytest.raises(ValueError):
            SpeedupParams(0.5, 4, -1)

    @pytest.mark.parametrize("alpha, n, s", [(np.nan, 4, 4), (0.5, np.nan, 4),
                                             (0.5, 4, np.nan)])
    def test_nan_rejected(self, alpha, n, s):
        with pytest.raises(ValueError):
            SpeedupParams(alpha, n, s)

    def test_free_draft_is_valid(self):
        # S = inf is a draft with no cost, such as a lookup level.
        assert speedup_sd(SpeedupParams(0.5, 4, np.inf)) == 0.5 * 4 + 1

    def test_perfect_draft_free_speed(self):
        # alpha=1 with an infinitely fast draft approaches N+1.
        sp = speedup_sd(SpeedupParams(1.0, 4, 1e12))
        assert sp == pytest.approx(5.0, rel=1e-9)

    def test_useless_draft(self):
        # alpha=0: every round still nets the bonus token.
        sp = speedup_sd(SpeedupParams(0.0, 4, 4.0))
        assert sp == pytest.approx((1 / 4) / (1 / 4 + 1 / 4))

    def test_same_speed_draft_never_helps_much(self):
        # With S=1 the speedup is (alpha + 1/N) / (1/N + 1), <= 1 always.
        for a in np.linspace(0, 1, 11):
            for n in (1, 2, 4, 8):
                assert speedup_sd(SpeedupParams(float(a), n, 1.0)) <= 1.0 + 1e-12

    def test_n4_specialization(self):
        # (4a + 1) / (1 + 4/S) is the same formula cleared of fractions.
        for a in np.linspace(0, 1, 21):
            for s in (2.0, 4.0, 20.0, 100.0):
                general = speedup_sd(SpeedupParams(float(a), 4, s))
                special = (4 * a + 1) / (1 + 4 / s)
                assert abs(general - special) < 1e-12

    def test_monotone_in_alpha_and_s(self):
        grid = np.linspace(0.0, 1.0, 21)
        prev = -1.0
        for a in grid:
            cur = speedup_sd(SpeedupParams(float(a), 8, 10.0))
            assert cur > prev
            prev = cur
        assert speedup_sd(SpeedupParams(0.5, 8, 50.0)) > speedup_sd(
            SpeedupParams(0.5, 8, 10.0)
        )


class TestMultiLevel:
    def test_effective_speed(self):
        inner = SpeedupParams(0.5, 4, 25.0)
        assert effective_draft_speed(inner, 4.0) == pytest.approx(
            4.0 * speedup_sd(inner)
        )

    @pytest.mark.parametrize("s1", [0.0, -1.0, np.nan])
    def test_effective_speed_validation(self, s1):
        with pytest.raises(ValueError):
            effective_draft_speed(SpeedupParams(0.5, 4, 25.0), s1)

    def test_composition_equals_manual(self):
        p = MultiLevelParams(
            outer=SpeedupParams(0.85, 4, 4.0),
            inner=SpeedupParams(0.425, 4, 25.0),
        )
        s_eff = 4.0 * speedup_sd(p.inner)
        want = speedup_sd(SpeedupParams(0.85, 4, s_eff))
        assert speedup_multilevel(p) == pytest.approx(want, rel=1e-12)

    def test_inner_draft_always_helps_when_faster(self):
        base = speedup_sd(SpeedupParams(0.8, 4, 4.0))
        p = MultiLevelParams(
            outer=SpeedupParams(0.8, 4, 4.0),
            inner=SpeedupParams(0.5, 4, 25.0),
        )
        assert speedup_multilevel(p) > base


class TestSimulation:
    def test_exact_matches_formula(self):
        # Integral G = alpha * N: simulation must equal the closed form.
        p = SpeedupParams(0.5, 4, 4.0)
        assert simulate_rounds(p, 1000) == pytest.approx(speedup_sd(p), rel=1e-12)

    def test_exact_rejects_fractional_g(self):
        with pytest.raises(ValueError):
            simulate_rounds(SpeedupParams(0.3, 4, 4.0), 10)

    def test_stochastic_converges(self):
        p = SpeedupParams(0.6, 8, 10.0)
        got = simulate_rounds(p, 200_000, stochastic=True, seed=1)
        assert got == pytest.approx(speedup_sd(p), rel=0.01)

    def test_stochastic_seed_determinism(self):
        p = SpeedupParams(0.5, 4, 4.0)
        a = simulate_rounds(p, 1000, stochastic=True, seed=7)
        b = simulate_rounds(p, 1000, stochastic=True, seed=7)
        assert a == b

    def test_multilevel_params_accepted(self):
        p = MultiLevelParams(
            outer=SpeedupParams(0.75, 4, 4.0),
            inner=SpeedupParams(0.5, 4, 25.0),
        )
        assert simulate_rounds(p, 500) == pytest.approx(
            speedup_multilevel(p), rel=1e-12
        )


class TestSurfaceCsv:
    def test_single_grid(self):
        text = surface_csv("single", alphas=[0.0, 0.5, 1.0], s_values=(4.0,))
        lines = text.strip().split("\n")
        assert lines[0] == "alpha,S,speedup"
        assert len(lines) == 4
        a, s, sp = lines[2].split(",")
        assert float(sp) == pytest.approx(
            speedup_sd(SpeedupParams(0.5, 4, 4.0)), rel=1e-6
        )

    def test_multi_grid(self):
        text = surface_csv("multi", alphas=[0.2, 0.8])
        lines = text.strip().split("\n")
        assert lines[0] == "alpha_inner,alpha_outer,speedup"
        assert [tuple(map(float, line.split(",")[:2])) for line in lines[1:]] == [
            (0.2, 0.2), (0.2, 0.8), (0.8, 0.2), (0.8, 0.8)]
        assert float(lines[2].split(",")[2]) == pytest.approx(speedup_multilevel(MultiLevelParams(
            outer=SpeedupParams(0.8, 4, 4.0), inner=SpeedupParams(0.2, 4, 25.0),
        )), rel=1e-6)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            surface_csv("cube", alphas=[0.5])


class TestRoofline:
    def test_bandwidth_bound(self):
        pt = RooflinePoint(intensity=2.0, bandwidth=100.0, compute=1e6)
        assert roofline(pt) == 200.0

    def test_compute_bound(self):
        pt = RooflinePoint(intensity=1e6, bandwidth=100.0, compute=5000.0)
        assert roofline(pt) == 5000.0

    def test_never_exceeds_either_roof(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            pt = RooflinePoint(*np.exp(rng.uniform(0, 10, 3)))
            att = roofline(pt)
            assert att <= pt.compute and att <= pt.bandwidth * pt.intensity

    def test_validation(self):
        with pytest.raises(ValueError):
            RooflinePoint(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_nan_rejected(self, field):
        values = [1.0, 1e9, 1e12]
        values[field] = np.nan
        with pytest.raises(ValueError):
            RooflinePoint(*values)


class TestIntensity:
    def test_traffic_formats(self):
        m = n = k = 64
        assert gemm_traffic_bytes(m, n, k, "f32") == m * k * 4 + k * n * 4 + m * n * 4
        assert gemm_traffic_bytes(m, n, k, "bf16") == m * k * 2 + k * n * 4 + m * n * 4
        assert gemm_traffic_bytes(m, n, k, "mxfp4") == pytest.approx(
            m * k * 4.25 / 8 + k * n * 4 + m * n * 4
        )
        with pytest.raises(ValueError):
            gemm_traffic_bytes(m, n, k, "int4")

    def test_intensity_definition(self):
        m, n, k = 512, 8, 512
        want = 2 * m * n * k / gemm_traffic_bytes(m, n, k, "mxfp4")
        assert intensity_of_gemm(m, n, k) == pytest.approx(want, rel=1e-12)

    def test_mxfp4_intensity_exceeds_f32(self):
        # Fewer weight bytes for the same flops means higher intensity.
        for n in (1, 4, 8):
            assert intensity_of_gemm(1024, n, 1024, "mxfp4") > intensity_of_gemm(
                1024, n, 1024, "f32"
            )

    def test_batching_raises_intensity(self):
        assert intensity_of_gemm(1024, 8, 1024) > intensity_of_gemm(1024, 1, 1024)
