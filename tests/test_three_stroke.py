import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermalops import (
    DegenerateCycleError,
    InvalidParameterError,
    NotAnEngineWarning,
    ThreeStrokeConfig,
    ZeroHeatError,
    full_thermalization_lambda,
    three_stroke_report,
    three_stroke_steady_state,
)

from oracles import EPS, exact_work_and_scale, quiet, three_stroke_config

def closed_form_p(bh, bc):
    p1 = 1.0 / (1.0 + math.exp(bh + bc))
    p2 = 1.0 / (math.exp(bh) + math.exp(-bc))
    return p1, p2, 1.0 - p2


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        ThreeStrokeConfig(1.0, 0.5, 1.0, 1.0, 1.0)  # T_C > T_H
    with pytest.raises(InvalidParameterError):
        ThreeStrokeConfig(-1.0, 1.0, 0.5, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        ThreeStrokeConfig(1.0, 1.0, 0.5, 1.0, 1.7)


@pytest.mark.parametrize(
    "fields", [(math.inf, 1.0, 0.5, 1.0, 1.0), (1.0, math.inf, 0.5, 1.0, 1.0)], ids=["omega", "T_H"]
)
def test_infinite_fields_are_rejected_at_construction(fields):
    # an infinite gap made the report's W and Q_H NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="must be finite"):
            ThreeStrokeConfig(*fields)


def test_steady_state_example():
    cfg = three_stroke_config(math.log(1.2), math.log(4.0))
    assert math.isclose(three_stroke_steady_state(cfg).p_e, 1.0 / 5.8, abs_tol=1e-14)


def test_steady_state_equal_temperature_limit():
    # T_H -> T_C limit: p_e1 -> 1/(1 + exp(2 beta omega))
    beta_omega = 0.8
    cfg = three_stroke_config(beta_omega, beta_omega * (1.0 + 1e-12))
    expected = 1.0 / (1.0 + math.exp(2.0 * beta_omega))
    assert math.isclose(three_stroke_steady_state(cfg).p_e, expected, abs_tol=1e-9)


def test_report_engine_example():
    cfg = three_stroke_config(math.log(1.2), math.log(4.0))
    rep = quiet(three_stroke_report, cfg)
    assert math.isclose(rep.p2.p_e, 1.0 / 1.45, abs_tol=1e-14)
    assert math.isclose(rep.W, cfg.omega * (2.0 / 1.45 - 1.0), abs_tol=1e-14)
    assert rep.W > 0.0


def test_report_non_engine_example():
    cfg = three_stroke_config(math.log(2.0), math.log(4.0))
    with pytest.warns(NotAnEngineWarning):
        rep = three_stroke_report(cfg)
    assert math.isclose(rep.p2.p_e, 4.0 / 9.0, abs_tol=1e-14)
    assert rep.W < 0.0


def test_a_cycle_that_heats_to_exactly_one_half_is_not_an_engine():
    # beta_H omega = ln 2 and a cold bath at zero excitation: the hot ETO takes
    # the ground state to p_e2 = 1/2 exactly, no inversion, and W is -0.0
    ln2 = math.log(2.0)
    cfg = ThreeStrokeConfig(ln2, 1.0, ln2 / 800.0, 1.0, 1.0)
    with pytest.warns(NotAnEngineWarning, match="p_e2 <= 1/2"):
        rep = three_stroke_report(cfg)
    assert rep.p2.p_e == 0.5 and rep.W == 0.0 and rep.Q_H > 0.0


def test_flip_swaps_populations():
    rep = quiet(three_stroke_report, three_stroke_config(0.3, 1.1))
    assert rep.p3.p_g == rep.p2.p_e
    assert rep.p3.p_e == rep.p2.p_g


def test_closed_form_agreement_on_grid():
    for bh in np.linspace(0.05, 3.0, 15):
        for bc in np.linspace(0.05, 3.0, 15):
            if bc <= bh:
                continue
            cfg = three_stroke_config(bh, bc)
            p1e, p2e, p3e = closed_form_p(bh, bc)
            rep = quiet(three_stroke_report, cfg)
            assert abs(rep.p1.p_e - p1e) <= 1e-12
            assert abs(rep.p2.p_e - p2e) <= 1e-12
            assert abs(rep.p3.p_e - p3e) <= 1e-12
            w_exact = cfg.omega * (2.0 / (math.exp(bh) + math.exp(-bc)) - 1.0)
            assert abs(rep.W - w_exact) <= 1e-12
            eta_exact = 1.0 - math.expm1(bh) / -math.expm1(-bc)
            assert abs(rep.eta - eta_exact) <= 1e-12


def test_first_law_random():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        cfg = ThreeStrokeConfig(
            rng.uniform(0.2, 3.0),
            1.0,
            rng.uniform(0.3, 0.9),
            rng.uniform(0.1, 1.0),
            rng.uniform(0.1, 1.0),
        )
        rep = quiet(three_stroke_report, cfg)
        assert abs(rep.W - rep.Q_H - rep.Q_C) <= 1e-12


def test_inversion_criterion():
    rng = np.random.default_rng(11)
    for _ in range(300):
        bh = rng.uniform(0.05, 2.0)
        bc = bh * rng.uniform(1.05, 4.0)
        rep = quiet(three_stroke_report, three_stroke_config(bh, bc))
        inverted = math.exp(bh) + math.exp(-bc) < 2.0
        assert (rep.W > 0.0) == inverted == (rep.p2.p_e > 0.5)


def test_markovian_strokes_never_an_engine():
    rng = np.random.default_rng(12)
    for _ in range(200):
        cfg = ThreeStrokeConfig.markov(
            rng.uniform(0.1, 3.0), 1.0, rng.uniform(0.2, 0.9)
        )
        with pytest.warns(NotAnEngineWarning):
            rep = three_stroke_report(cfg)
        assert rep.W <= 0.0
        assert rep.p2.p_e < 0.5  # heating only reaches the hot thermal value


def test_zero_heat_guard():
    # lambda_H = 0 leaves the state untouched by the heat stroke, so Q_H = 0;
    # at a subnormal gap 1e-14 * omega underflows to 0, and so does Q_H
    for cfg in (
        ThreeStrokeConfig(1.0, 1.0, 0.5, 0.0, 1.0),
        ThreeStrokeConfig.nonmarkov(1e-320, 1.0, 0.5),
        ThreeStrokeConfig(5e-324, 1e-320, 5e-321, 0.0, 0.0),
    ):
        assert cfg.cycle().run()[4] == 0.0
        with pytest.raises(ZeroHeatError):
            three_stroke_report(cfg)


# --- the closed-form work against a 60-digit evaluation ---


def couplings(omega, T):
    """0.05, the Markov threshold, 1, or anywhere between 0.05 and 1."""
    markov = full_thermalization_lambda(omega, 1.0 / T)
    return st.one_of(st.sampled_from([0.05, markov, 1.0]), st.floats(0.05, 1.0))


@st.composite
def three_stroke_configs(draw):
    """Gaps from 1e-6 T_H to 30 T_H, with T_C from 1e-3 T_H to just below T_H."""
    T_H = 10.0 ** draw(st.floats(-3.0, 3.0))
    T_C = T_H * draw(st.one_of(st.floats(1e-3, 0.99), st.just(1.0 - 1e-12)))
    omega = T_H * 10.0 ** draw(st.floats(-6.0, math.log10(30.0)))
    return ThreeStrokeConfig(omega, T_H, T_C, draw(couplings(omega, T_H)), draw(couplings(omega, T_C)))


@settings(max_examples=400)
@given(three_stroke_configs())
@example(ThreeStrokeConfig.nonmarkov(1e-6, 1.0, 0.5))
@example(ThreeStrokeConfig.nonmarkov(30.0, 1.0, 0.5))
@example(ThreeStrokeConfig.markov(1e-6, 1.0, 0.5))
@example(ThreeStrokeConfig(30.0, 1.0, 0.5, 0.05, 0.05))
@example(ThreeStrokeConfig.nonmarkov(0.23, 1.0, 0.5))  # near the fig6 point
def test_closed_form_work_matches_a_decimal_evaluation(cfg):
    # within 6 ulp of the conditioning scale, which is |W| away from the
    # zero-work gap; a run of the cycle returns this one value
    cycle = cfg.cycle()
    work = cycle.work()
    exact, scale = exact_work_and_scale(cfg)
    assert abs(Decimal(work) - exact) <= Decimal(6 * EPS) * scale, (work, exact, scale)
    assert cycle.run()[3] == work


def test_a_hot_flip_with_an_idle_cold_bath_is_degenerate():
    # omega / T_H rounds to 0, so the hot ETO is the flip, and the cold bath
    # is idle: the cycle is flip, flip, identity, the identity.  The
    # closed-form work reaches its den == 0 guard; the report stops earlier,
    # at the fixed point
    cfg = ThreeStrokeConfig(1e-300, 1e300, 1e299, 1.0, 0.0)
    with pytest.raises(DegenerateCycleError) as info:
        cfg.cycle().work()
    assert info.traceback[-1].name == "_three_stroke_work"
    with pytest.raises(DegenerateCycleError):
        three_stroke_report(cfg)
