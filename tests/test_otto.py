import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermalops import (
    DegenerateCycleError,
    InvalidParameterError,
    NotAnEngineWarning,
    OttoConfig,
    RegimeMismatchError,
    ThreeStrokeConfig,
    analytic_populations,
    apply_map,
    otto_cycle_report,
    otto_steady_state,
    otto_work,
)
from thermalops.maps import DRIFT_RENORM
from thermalops.optimize import otto_config_at, three_stroke_config_at

from oracles import otto_config, quiet

LN2 = math.log(2.0)
LN4 = math.log(4.0)


def markov_config(a, b):
    cfg = otto_config(a, b)
    return OttoConfig.markov(cfg.omega_H, cfg.omega_C, cfg.T_H, cfg.T_C)


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        OttoConfig(1.0, 1.5, 1.0, 0.5, 1.0, 1.0)  # omega_C > omega_H
    with pytest.raises(InvalidParameterError):
        OttoConfig(1.0, 0.5, 0.5, 1.0, 1.0, 1.0)  # T_C > T_H
    with pytest.raises(InvalidParameterError):
        OttoConfig(1.0, 0.5, 1.0, 0.5, 1.5, 1.0)


@pytest.mark.parametrize(
    "fields",
    [
        (1.0, 0.5, math.inf, 1.0, 1.0, 1.0),  # otto_work gave 0.5, the report raised
        (math.inf, 0.5, 2.0, 1.0, 1.0, 1.0),  # the report gave W = nan
    ],
    ids=["T_H-inf", "omega_H-inf"],
)
def test_infinite_fields_are_rejected_at_construction(fields):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="must be finite"):
            OttoConfig(*fields)


@pytest.mark.parametrize(
    "make, args",
    [
        (OttoConfig.markov, (1.0, 0.5, 1.0, 0.0)),
        (otto_config_at, (0.3, 0.5, 0.0, 1.0, "markov")),
        (ThreeStrokeConfig.markov, (1.0, 1.0, 0.0)),
        (ThreeStrokeConfig.markov, (1.0, 0.0, 0.5)),
        (three_stroke_config_at, (0.3, 0.5, 0.0)),
    ],
    ids=["otto-markov", "otto-at", "three-stroke-T_C", "three-stroke-T_H", "three-stroke-at"],
)
def test_zero_temperature_is_a_parameter_error(make, args):
    # the Markov couplings and the three-stroke gap divide by T
    with pytest.raises(InvalidParameterError):
        make(*args)


def test_eto_steady_state_ln2_ln4():
    p1 = otto_steady_state(otto_config(LN2, LN4))
    assert math.isclose(p1.p_e, 1.0 / 7.0, abs_tol=1e-14)


def test_markov_steady_state_ln2_ln4():
    p1 = otto_steady_state(markov_config(LN2, LN4))
    assert math.isclose(p1.p_e, 1.0 / 5.0, abs_tol=1e-14)


def test_eto_report_ln2_ln4():
    cfg = otto_config(LN2, LN4)
    rep = quiet(otto_cycle_report, cfg)
    assert math.isclose(rep.p1.p_e, 1.0 / 7.0, abs_tol=1e-14)
    assert math.isclose(rep.p3.p_e, 3.0 / 7.0, abs_tol=1e-14)
    assert math.isclose(rep.W, (2.0 / 7.0) * cfg.cycle().quantum, abs_tol=1e-14)


def test_markov_report_ln2_ln4():
    cfg = markov_config(LN2, LN4)
    rep = quiet(otto_cycle_report, cfg)
    assert math.isclose(rep.p1.p_e, 1.0 / 5.0, abs_tol=1e-14)
    assert math.isclose(rep.p3.p_e, 1.0 / 3.0, abs_tol=1e-14)
    assert math.isclose(rep.W, (2.0 / 15.0) * cfg.cycle().quantum, abs_tol=1e-14)


def test_work_strokes_freeze_populations():
    cfg = otto_config(0.7, 1.9)
    rep = quiet(otto_cycle_report, cfg)
    assert rep.p2 == rep.p3
    # the quench back keeps the populations: the cold stroke closes the cycle
    assert abs(apply_map(cfg.cold_map(), rep.p3).p_e - rep.p1.p_e) <= DRIFT_RENORM


def test_carnot_pinned_thermalization_gives_zero_work():
    # omega_C / omega_H = 1 - eta_C makes both baths see the same beta*omega
    omega_H, T_H, T_C = 1.3, 1.0, 0.6
    cfg = OttoConfig.markov(omega_H, (T_C / T_H) * omega_H, T_H, T_C)
    with pytest.warns(NotAnEngineWarning):
        rep = otto_cycle_report(cfg)
    assert abs(rep.W) < 1e-14


def test_first_law_random():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        cfg = otto_config(
            rng.uniform(0.1, 4.0),
            rng.uniform(0.1, 4.0),
            rng.uniform(0.05, 1.0),
            rng.uniform(0.05, 1.0),
            t_hot=rng.uniform(0.5, 2.0),
        )
        rep = quiet(otto_cycle_report, cfg)
        assert abs(rep.W - rep.Q_H - rep.Q_C) <= 1e-12


def test_efficiency_identity_random():
    rng = np.random.default_rng(6)
    for _ in range(200):
        cfg = otto_config(
            rng.uniform(0.1, 4.0),
            rng.uniform(0.1, 4.0),
            rng.uniform(0.05, 1.0),
            rng.uniform(0.05, 1.0),
        )
        rep = quiet(otto_cycle_report, cfg)
        assert math.isclose(rep.eta, 1.0 - cfg.omega_C / cfg.omega_H, rel_tol=1e-15)


def test_population_dominance_and_work_dominance():
    # engine regime (eta < eta_C <=> b > a): extremal strokes beat
    # thermalization on both cycle points, hence on work
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = rng.uniform(0.1, 3.0)
        b = a * rng.uniform(1.02, 3.0)
        nm = quiet(otto_cycle_report, otto_config(a, b))
        mk = quiet(otto_cycle_report, markov_config(a, b))
        assert nm.p3.p_e > mk.p3.p_e
        assert nm.p1.p_e < mk.p1.p_e
        assert nm.W > mk.W


def test_engine_regime_iff_sub_carnot():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a = rng.uniform(0.1, 3.0)
        b = a * rng.uniform(0.5, 2.0)
        if abs(b - a) < 1e-3:
            continue
        for cfg in (otto_config(a, b), markov_config(a, b)):
            assert (quiet(otto_cycle_report, cfg).W > 0.0) == (b > a)


def test_degenerate_cycle_rejected():
    with pytest.raises(DegenerateCycleError):
        otto_steady_state(OttoConfig(1.0, 0.5, 1.0, 0.5, 0.0, 0.0))


def test_tiny_couplings_are_not_degenerate():
    # the cycle map is within 1e-13 of the identity, but its fixed point is
    # unique; only both couplings 0 (above) leave it undetermined
    cfg = OttoConfig(1.0, 0.7, 1.0, 0.5, 1e-13, 1e-13)
    assert quiet(otto_cycle_report, cfg).W == otto_work(cfg) == 1.3916646215585132e-15
    assert otto_steady_state(cfg) == cfg.cycle().steady_state()


def test_not_an_engine_warning_above_carnot():
    # eta = 0.6 > eta_C = 0.5
    with pytest.warns(NotAnEngineWarning):
        otto_cycle_report(OttoConfig.nonmarkov(1.0, 0.4, 1.0, 0.5))


def test_analytic_populations_nonmarkov_symmetric():
    cfg = otto_config(LN2, LN2 * (1.0 + 1e-15))  # b must exceed a for a valid config
    p1, p3 = analytic_populations(cfg, "nonmarkov")
    assert math.isclose(p1, 1.0 / 3.0, abs_tol=1e-12)
    assert math.isclose(p3, 1.0 / 3.0, abs_tol=1e-12)


def test_analytic_populations_markov_example():
    p1, p3 = analytic_populations(markov_config(LN2, LN4), "markov")
    assert math.isclose(p1, 0.2, abs_tol=1e-14)
    assert math.isclose(p3, 1.0 / 3.0, abs_tol=1e-14)


def test_analytic_matches_solver_random():
    rng = np.random.default_rng(9)
    for _ in range(200):
        a, b = rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0)
        for cfg, regime in ((otto_config(a, b), "nonmarkov"), (markov_config(a, b), "markov")):
            p1_exact, p3_exact = analytic_populations(cfg, regime)
            p1 = otto_steady_state(cfg)
            p3 = apply_map(cfg.hot_map(), p1)
            assert abs(p1.p_e - p1_exact) <= 1e-12
            assert abs(p3.p_e - p3_exact) <= 1e-12


def test_analytic_populations_regime_mismatch():
    cfg = otto_config(LN2, LN4)
    with pytest.raises(RegimeMismatchError):
        analytic_populations(cfg, "markov")
    with pytest.raises(RegimeMismatchError):
        analytic_populations(markov_config(LN2, LN4), "nonmarkov")
    with pytest.raises(InvalidParameterError):
        analytic_populations(cfg, "something")


def test_regime_check_is_the_coupling_rule():
    # configs built through the coupling rule pass at any gaps and
    # temperatures; a coupling moved by 2e-12 or a wrong regime does not
    rng = np.random.default_rng(31)
    for _ in range(200):
        T_H = 10.0 ** rng.uniform(-3.0, 3.0)
        omega_H = T_H * 10.0 ** rng.uniform(-3.0, 1.5)
        args = (omega_H, omega_H * rng.uniform(0.1, 0.9), T_H, T_H * rng.uniform(0.1, 0.9))
        for regime in ("markov", "nonmarkov"):
            cfg = getattr(OttoConfig, regime)(*args)
            analytic_populations(cfg, regime)
            shifted = OttoConfig(*args, cfg.lambda_H, cfg.lambda_C - 2e-12)
            with pytest.raises(RegimeMismatchError):
                analytic_populations(shifted, regime)
    omega, T_H, T_C = 0.8, 1.0, 0.4
    ThreeStrokeConfig.nonmarkov(omega, T_H, T_C).requires_eto()
    for cfg in (
        ThreeStrokeConfig.markov(omega, T_H, T_C),
        ThreeStrokeConfig(omega, T_H, T_C, 1.0, 1.0 - 2e-12),
    ):
        with pytest.raises(RegimeMismatchError):
            cfg.requires_eto()


def test_analytic_populations_at_huge_gaps():
    # exp(beta * omega) is beyond binary64 here; both populations underflow to 0
    for regime in ("markov", "nonmarkov"):
        cfg = getattr(OttoConfig, regime)(1000.0, 800.0, 1.0, 0.5)
        assert analytic_populations(cfg, regime) == (0.0, 0.0)


@settings(max_examples=200)
@given(T_H=st.floats(-300.0, 300.0).map(lambda e: 10.0**e))
@example(T_H=1e-300)
@example(T_H=1e300)
@example(T_H=1e-310)  # subnormal: 1 / T_H is inf
def test_analytic_populations_are_scale_covariant(T_H):
    # the populations depend on omega / T only, so scaling every gap and
    # temperature by T_H changes nothing beyond the rounding of the fields
    for regime in ("markov", "nonmarkov"):
        make = getattr(OttoConfig, regime)
        unit = analytic_populations(make(1.0, 0.6, 1.0, 0.5), regime)
        scaled = analytic_populations(make(T_H, 0.6 * T_H, T_H, 0.5 * T_H), regime)
        assert all(math.isclose(x, y, rel_tol=1e-12) for x, y in zip(scaled, unit))


@pytest.mark.parametrize(
    "cfg, fraction", [(otto_config(LN2, LN4), 2.0 / 7.0), (markov_config(LN2, LN4), 2.0 / 15.0)]
)
def test_otto_work_ln2_ln4(cfg, fraction):
    assert math.isclose(otto_work(cfg), fraction * cfg.cycle().quantum, rel_tol=1e-15)


def test_otto_work_matches_the_stroke_cycle_random():
    # one home: the cycle carries the closed form, so the report's W is it
    # bit for bit, also after a pickle or deep-copy round trip of the cycle
    rng = np.random.default_rng(11)
    for _ in range(300):
        a, b = rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0)
        cfg = otto_config(a, b, rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        assert otto_work(cfg) == quiet(otto_cycle_report, cfg).W
    cycle = cfg.cycle()
    for twin in (pickle.loads(pickle.dumps(cycle)), copy.deepcopy(cycle)):
        assert twin.work() == otto_work(cfg)
        assert twin.run() == cycle.run()
        assert twin.tilted(0.5) == cycle.tilted(0.5)
