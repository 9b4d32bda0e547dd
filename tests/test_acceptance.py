"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance and runtime budget is pinned here; nothing is deferred to
later calibration.  Random draws use fixed seeds so reruns are identical.
"""

import math
import time

import numpy as np

from thermalops import (
    FockTruncation,
    OttoConfig,
    ScanSpec,
    ThreeStrokeConfig,
    analytic_populations,
    apply_map,
    enumerate_work_distribution,
    eto_deviation,
    induced_population_map,
    intercycle_pcc,
    jc_evolution_map,
    maximize_work,
    otto_cycle_report,
    otto_steady_state,
    pcc_three_stroke_exact,
    scaled_cumulants,
    three_stroke_report,
    three_stroke_steady_state,
    tilted_map_otto,
    tilted_map_three_stroke,
    work_moments,
)
from thermalops import cli
from thermalops.optimize import fluctuation_curve

from oracles import otto_config, quiet, swap_unitary, three_stroke_config_at


class criterion:
    """Times a criterion body and prints one PASS/FAIL line."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} [{status}] {self.label} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget: {elapsed:.2f}s"
            )
        return False


def sample_otto(rng):
    while True:
        a = rng.uniform(0.4, 2.2)
        b = a * rng.uniform(1.15, 2.2)
        cfg = otto_config(a, b, rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0))
        rep = quiet(otto_cycle_report, cfg)
        if abs(rep.p3.p_e - rep.p1.p_e) >= 0.02:
            return cfg


def sample_three_stroke(rng):
    while True:
        omega = rng.uniform(0.3, 2.0)
        cfg = ThreeStrokeConfig(
            omega,
            omega / rng.uniform(0.25, 1.2),
            omega / rng.uniform(1.3, 3.0),
            rng.uniform(0.5, 1.0),
            rng.uniform(0.5, 1.0),
        )
        if cfg.T_C >= cfg.T_H:
            continue
        if abs(2.0 * quiet(three_stroke_report, cfg).p2.p_e - 1.0) >= 0.05:
            return cfg


def test_criterion_1_closed_form_steady_states():
    with criterion(1, "closed-form steady states on the 20x20 grid", 1.0):
        grid = np.linspace(0.05, 5.0, 20)
        worst = 0.0
        for a in grid:
            for b in grid:
                nm = otto_config(a, b)
                mk = OttoConfig.markov(nm.omega_H, nm.omega_C, nm.T_H, nm.T_C)
                for cfg, regime in ((nm, "nonmarkov"), (mk, "markov")):
                    p1_exact, p3_exact = analytic_populations(cfg, regime)
                    p1 = otto_steady_state(cfg)
                    p3 = apply_map(cfg.cycle().strokes[0], p1)
                    worst = max(worst, abs(p1.p_e - p1_exact), abs(p3.p_e - p3_exact))
                if b > a:  # three-stroke needs T_H > T_C, i.e. the upper triangle
                    cfg3 = ThreeStrokeConfig.nonmarkov(1.0, 1.0 / a, 1.0 / b)
                    p1 = three_stroke_steady_state(cfg3)
                    p2 = apply_map(cfg3.cycle().strokes[0], p1)
                    worst = max(
                        worst,
                        abs(p1.p_e - 1.0 / (1.0 + math.exp(a + b))),
                        abs(p2.p_e - 1.0 / (math.exp(a) + math.exp(-b))),
                    )
        print(f"  worst residual {worst:.3e}")
        assert worst <= 1e-12


def test_criterion_2_first_law():
    with criterion(2, "first law on 10^3 random configs per engine", 1.0):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(1000):
            a, b = rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)
            cfg = otto_config(a, b, rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))
            rep = quiet(otto_cycle_report, cfg)
            worst = max(worst, abs(rep.W - rep.Q_H - rep.Q_C))
        for _ in range(1000):
            omega = rng.uniform(0.2, 3.0)
            cfg = ThreeStrokeConfig(
                omega, 1.0, rng.uniform(0.3, 0.9), rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
            )
            rep = quiet(three_stroke_report, cfg)
            worst = max(worst, abs(rep.W - rep.Q_H - rep.Q_C))
        print(f"  worst |W - Q_H - Q_C| = {worst:.3e}")
        assert worst <= 1e-12


def test_criterion_3_nonmarkovian_dominance():
    with criterion(3, "work dominance nonmarkov > markov > three-stroke", 10.0):
        for eta in np.arange(0.05, 0.46, 0.05):
            w_nm = maximize_work(ScanSpec(eta, 0.5, 1.0, "nonmarkov")).W_star
            w_mk = maximize_work(ScanSpec(eta, 0.5, 1.0, "markov")).W_star
            w_3s = quiet(three_stroke_report, three_stroke_config_at(eta, 0.5, 1.0)).W
            print(f"  eta={eta:.2f}: {w_nm:.5f} > {w_mk:.5f} > {w_3s:.5f}")
            assert w_nm > w_mk > w_3s


def test_criterion_4_fcs_oracle_equivalence():
    with criterion(4, "counting-field moments match exact enumeration", 30.0):
        rng = np.random.default_rng(102)
        worst = 0.0
        for sampler, build, steady in (
            (sample_otto, tilted_map_otto, otto_steady_state),
            (sample_three_stroke, tilted_map_three_stroke, three_stroke_steady_state),
        ):
            for _ in range(20):
                cfg = sampler(rng)
                tmap, p1 = build(cfg), steady(cfg)
                for n in (1, 2, 3, 4):
                    dist = enumerate_work_distribution(cfg, n)
                    stats = work_moments(tmap, p1, n)
                    worst = max(
                        worst,
                        abs(stats.mean - dist.mean()) / abs(dist.mean()),
                        abs(stats.variance - dist.variance()) / dist.variance(),
                    )
        print(f"  worst relative deviation {worst:.3e}")
        assert worst <= 1e-8


def test_criterion_5_scaled_cumulant_consistency():
    with criterion(5, "scaled variance matches the Var_N slope over N=50..60", 10.0):
        rng = np.random.default_rng(103)
        ns = np.arange(50, 61)
        worst = 0.0
        for sampler, build, steady in (
            (sample_otto, tilted_map_otto, otto_steady_state),
            (sample_three_stroke, tilted_map_three_stroke, three_stroke_steady_state),
        ):
            for _ in range(10):
                cfg = sampler(rng)
                tmap, p1 = build(cfg), steady(cfg)
                _, scaled_var = scaled_cumulants(tmap)
                slope = np.polyfit(
                    ns, [work_moments(tmap, p1, int(n)).variance for n in ns], 1
                )[0]
                worst = max(worst, abs(slope - scaled_var) / abs(scaled_var))
        print(f"  worst relative deviation {worst:.3e}")
        assert worst <= 1e-6


def test_criterion_6_pcc_identities():
    with criterion(6, "PCC identities (markov zero, three-stroke closed form)", 5.0):
        worst_markov = 0.0
        for a in (0.3, 0.8, 1.5):
            for ratio in (1.2, 1.8):
                base = otto_config(a, a * ratio)
                cfg = OttoConfig.markov(base.omega_H, base.omega_C, base.T_H, base.T_C)
                pcc = intercycle_pcc(tilted_map_otto(cfg), otto_steady_state(cfg))
                worst_markov = max(worst_markov, abs(pcc))
        print(f"  worst |PCC_markov| = {worst_markov:.3e}")
        assert worst_markov <= 1e-9

        worst_closed = 0.0
        for bh in (0.2, 0.6, 1.1, 1.8):
            for bc in (0.3, 0.8, 1.5, 2.5):
                if bc <= bh:
                    continue
                cfg = ThreeStrokeConfig.nonmarkov(1.0, 1.0 / bh, 1.0 / bc)
                pcc = intercycle_pcc(
                    tilted_map_three_stroke(cfg), three_stroke_steady_state(cfg)
                )
                worst_closed = max(worst_closed, abs(pcc - pcc_three_stroke_exact(cfg)))
        print(f"  worst |PCC - closed form| = {worst_closed:.3e}")
        assert worst_closed <= 1e-9

        omega = 1e-4 / 3.0  # beta-weighted total gap of 1e-4
        cfg = ThreeStrokeConfig.nonmarkov(omega, 1.0, 0.5)
        pcc = intercycle_pcc(tilted_map_three_stroke(cfg), three_stroke_steady_state(cfg))
        print(f"  PCC at vanishing gap = {pcc:.6f}")
        assert abs(pcc + 1.0) <= 1e-3


def test_criterion_7_quantified_comparison():
    with criterion(7, "work ratio in [3, 5] and fluctuation excess in [0%, 20%]", 10.0):
        record = maximize_work(ScanSpec(0.3, 0.5, 1.0, "nonmarkov"))
        cfg3 = three_stroke_config_at(0.3, 0.5, 1.0)
        w3 = quiet(three_stroke_report, cfg3).W
        work_ratio = record.W_star / w3

        grid = [record.omega_H_star]
        data = fluctuation_curve(0.3, 0.5, 1.0, "infinite", grid)
        excess = data["nonmarkov"][0][2] / data["three_stroke"][2] - 1.0
        print(f"  work ratio {work_ratio:.3f}, fluctuation excess {100 * excess:.1f}%")
        assert 3.0 <= work_ratio <= 5.0
        assert 0.0 <= excess <= 0.20


def test_criterion_8_fig5_qualitative_shape():
    with criterion(8, "single-cycle ratio small at omega_H = 1e-3; scaled ratio >> it", 5.0):
        grid = [1e-3]
        single = fluctuation_curve(0.3, 0.5, 1.0, "single_cycle", grid)
        infinite = fluctuation_curve(0.3, 0.5, 1.0, "infinite", grid)
        ratio_1 = single["nonmarkov"][0][2]
        ratio_inf = infinite["nonmarkov"][0][2]
        print(f"  single-cycle ratio {ratio_1:.6e}, scaled ratio {ratio_inf:.4f}")
        assert ratio_inf > 10.0 * ratio_1
        # Known red: the small-gap expansion gives ratio_1 -> 1.749 * omega_H
        # at eta = 0.3, eta_C = 0.5, so a sub-1e-3 value at omega_H = 1e-3 is
        # not attainable; the bound is asserted unchanged rather than
        # loosened to fit.
        assert ratio_1 < 1e-3


def test_criterion_9_microscopic_eto_recovery():
    with criterion(9, "microscopic dilations recover the ETO", 5.0):
        tr = FockTruncation(60, 1.0, 1.0)
        dev_swap = eto_deviation(induced_population_map(swap_unitary(tr), tr), tr)
        dev_jc = eto_deviation(
            jc_evolution_map(1.0, math.pi / 2.0, tr, "intensity_dependent"), tr
        )
        print(f"  swap deviation {dev_swap:.3e}, JC half-Rabi deviation {dev_jc:.3e}")
        assert dev_swap < 1e-8
        assert dev_jc < 1e-8
        devs = []
        for n_max in (10, 20, 40, 60):
            trunc = FockTruncation(n_max, 1.0, 1.0, tail_bound=1.0)
            devs.append(
                eto_deviation(induced_population_map(swap_unitary(trunc), trunc), trunc)
            )
        print(f"  deviation vs n_max: {[f'{d:.2e}' for d in devs]}")
        assert all(later <= earlier for earlier, later in zip(devs, devs[1:]))


def test_criterion_10_fig1_reproduction(tmp_path):
    with criterion(10, "default fig1 table shows the ETO inversion", 1.0):
        out = tmp_path / "fig1.csv"
        assert cli.main(["fig1", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        crossed = (rows[:, 1] > 0.5).any() and (rows[:, 1] < 0.5).any()
        asymptote = abs(rows[-1, 1] - 1.0 / (1.0 + math.exp(-0.5)))
        print(f"  ETO crosses 1/2: {crossed}, asymptote residual {asymptote:.2e}")
        assert crossed
        assert (rows[:, 2] < 0.5).all()
        assert asymptote < 1e-3
