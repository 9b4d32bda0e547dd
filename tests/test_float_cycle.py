"""The float stroke-cycle arithmetic against exact and numpy oracles.

``Cycle`` composes the 2x2 maps on Python floats.  The numpy products below
are the former implementation, kept here as the oracle.  A numpy 2x2
product may round through a fused multiply-add, so the two agree to a few
ulp of the magnitudes involved, not bitwise.  The work comes from each
engine's closed form and is checked against a 60-digit evaluation of the
model instead: differencing populations, as the numpy oracle would, cancels
at small gaps.

The counting-statistics terms ``(v1, c, 1 - mu)`` of ``fcs`` are checked
against the same cell sums on the exact rationals of the float entries, and
the intercycle PCC against a 60-digit evaluation of the model over
two-cycle paths.  A centred evaluation of the float entries is no reference
for a tiny ``v1``: their column sums miss 1 by about 1e-16.  The heats of
``Cycle.run`` are checked against the walk of its entries in rationals.

Every exact evaluation is one model, ``oracles.ExactCycle``, whose two
formulations of each quantity are checked against each other here too.
"""

import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermalops import (
    CycleReport,
    DegenerateCycleError,
    InvalidParameterError,
    NotAnEngineWarning,
    OttoConfig,
    PopulationVector,
    ThreeStrokeConfig,
    ZeroHeatError,
    apply_map,
    full_thermalization_lambda,
    intercycle_pcc,
    otto_cycle_report,
    pcc_three_stroke_exact,
    scaled_cumulants,
    stationary_population,
    three_stroke_report,
    work_moments,
)
from thermalops.fcs import _spectral_terms
from thermalops.maps import DRIFT_RENORM, WorkStroke
from thermalops.optimize import otto_config_at

from oracles import EPS, config_cycle, exact_counting_terms, exact_work, float_cycle, log_uniform

TINY = 2.0**-1070  # a few subnormal ulp, for entries that underflow
ULPS = 6  # for the counting terms; the largest seen is 2.5


# --- the numpy oracle ---


def numpy_matrix(cycle, chi=0.0):
    m = None
    for stroke in cycle.strokes:
        if isinstance(stroke, WorkStroke):
            for j, w in enumerate(stroke.released):
                if chi and w:
                    m[j] *= np.exp(chi * w)
            if stroke.flip:
                m = m[::-1]
        elif m is None:
            m = np.array(stroke.entries).reshape(2, 2)
        else:
            m = np.array(stroke.entries).reshape(2, 2) @ m
    return m


def numpy_run(cycle):
    strokes, n = cycle.strokes, len(cycle.strokes)
    last = max(i for i, s in enumerate(strokes) if not isinstance(s, WorkStroke))
    points = [stationary_population(numpy_matrix(cycle))] * n
    for i in range(1, last + 1):
        prev, p = strokes[i - 1], points[i - 1]
        if isinstance(prev, WorkStroke):
            points[i] = prev.apply(p)
        else:
            m = np.array(prev.entries).reshape(2, 2)
            points[i] = PopulationVector.from_raw(m @ np.array(p))
    for i in range(n - 1, last, -1):
        points[i] = strokes[i].apply(points[(i + 1) % n])
    heats = []
    for i, stroke in enumerate(strokes):
        if not isinstance(stroke, WorkStroke):
            heats.append(stroke.omega * (points[(i + 1) % n].p_e - points[i].p_e))
    return points, heats


# --- engines over the edges of the domain ---


# fractions in (0, 1): anywhere, far below one, or just below one
FRACTION = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    log_uniform(-12.0, -1.0),
    log_uniform(-15.0, -1.0).map(lambda x: 1.0 - x),
)


def coupling(omega, T):
    """1, the Markov threshold and one ulp either side of it, or anywhere."""
    if not (omega > 0.0 and T > 0.0):  # rounded to 0; the config rejects it
        return st.just(1.0)
    markov = full_thermalization_lambda(omega, 1.0 / T)
    return st.one_of(
        st.sampled_from([1.0, markov, math.nextafter(markov, 0.0), math.nextafter(markov, 1.0)]),
        st.floats(0.0, 1.0),
    )


@st.composite
def engines(draw):
    """Otto or three-stroke configs with the hot gap from 1e-12 T_H to
    1e3 T_H (the Boltzmann factor underflows beyond about 745), T_C -> T_H
    and T_C << T_H, omega_C -> omega_H and omega_C << omega_H."""
    T_H = draw(log_uniform(-3.0, 3.0))
    T_C = T_H * draw(FRACTION)
    omega = T_H * draw(log_uniform(-12.0, 3.0))
    if draw(st.booleans()):
        omega_C = omega * draw(FRACTION)
        couplings = draw(coupling(omega, T_H)), draw(coupling(omega_C, T_C))
        make, fields = OttoConfig, (omega, omega_C, T_H, T_C, *couplings)
    else:
        couplings = draw(coupling(omega, T_H)), draw(coupling(omega, T_C))
        make, fields = ThreeStrokeConfig, (omega, T_H, T_C, *couplings)
    try:
        return make(*fields)
    except InvalidParameterError:  # a fraction rounded a gap or a temperature to 0
        return OttoConfig.nonmarkov(1.0, 0.5, 1.0, 0.6)


def assert_close(got, expected, scale, ulps):
    assert abs(got - expected) <= ulps * EPS * scale + TINY, (got, expected, scale)


@settings(max_examples=400)
@given(engines(), st.floats(-3.0, 3.0))
@example(OttoConfig.nonmarkov(1e-12, 7e-13, 1.0, 0.5), 1.0)  # tiny gaps
@example(OttoConfig.nonmarkov(800.0, 700.0, 1.0, 0.5), 1.0)  # every q underflows
@example(OttoConfig.markov(1.0, 0.7, 1.0, math.nextafter(1.0, 0.0)), -2.0)  # T_C -> T_H
@example(ThreeStrokeConfig.markov(0.5, 1.0, 0.4), 0.5)  # couplings at the Markov threshold
@example(ThreeStrokeConfig.nonmarkov(1e-12, 1.0, 0.5), 3.0)
@example(ThreeStrokeConfig.nonmarkov(900.0, 1.0, 0.5), -1.0)
@example(OttoConfig(1.0, 0.5, 1.0, 0.5, 0.0, 1.0), 2.0)  # identity heat stroke
@example(OttoConfig(1.0, 0.5, 1.0, 0.5, 0.0, 1.3776559883204974e-82), 0.0)  # near-identity map
def test_float_cycle_matches_the_numpy_oracle(cfg, x):
    cycle = cfg.cycle()
    for chi in (0.0, x / cycle.quantum):  # exp(chi * work) is exp(+-x)
        got, expected = cycle.tilted(chi), numpy_matrix(cycle, chi)
        for i in range(4):
            assert_close(got[i], expected.flat[i], expected.flat[i], 4)

    try:
        expected_points, expected_heats = numpy_run(cycle)
    except DegenerateCycleError:
        try:
            cycle.run()
        except DegenerateCycleError:
            return
        raise AssertionError("the float cycle missed a degenerate map")
    *points, W, Q_H, Q_C = cycle.run()
    for p, q in zip(points, expected_points):
        assert_close(p.p_g, q.p_g, q.p_g, 4)
        assert_close(p.p_e, q.p_e, q.p_e, 4)
    exact = exact_work(cfg)
    assert abs(Decimal(W) - exact) <= Decimal(4 * EPS * cycle.quantum + TINY), (W, exact)
    for stroke, Q, expected_Q in zip(
        (s for s in cycle.strokes if not isinstance(s, WorkStroke)), (Q_H, Q_C), expected_heats
    ):
        assert_close(Q, expected_Q, stroke.omega, 4)


@settings(max_examples=300)
@given(engines())
@example(OttoConfig.nonmarkov(800.0, 700.0, 1.0, 0.5))  # every q underflows
@example(OttoConfig(1.0, 0.5, 1.0, 0.5, 0.0, 0.0))  # both maps idle: degenerate
@example(ThreeStrokeConfig.nonmarkov(0.4, 1.0, 0.5))
@example(ThreeStrokeConfig.nonmarkov(1e-320, 1.0, 0.5))  # 1e-14 * omega underflows
# the reports read the couplings from the entries, as Cycle.work does; the
# config's -0.0 would make the Otto W -0.0, where the walk gives 0.0
@example(OttoConfig(1.0, 0.5, 1.0, 0.5, -0.0, 1.0))
@example(ThreeStrokeConfig(1.0, 1.0, 0.5, -0.0, 1.0))  # idle heat stroke: no heat
@example(OttoConfig(2, 1, 1.0, 0.5, 1, 1))  # int and Fraction fields
@example(ThreeStrokeConfig(1, 1.0, 0.5, 1, 1))
@example(OttoConfig(Fraction(3, 2), Fraction(1, 2), Fraction(1), Fraction(1, 3), 0.9, 0.7))
@example(ThreeStrokeConfig(Fraction(1, 2), 1.0, Fraction(1, 4), 1.0, Fraction(1, 2)))
def test_both_reports_are_the_stroke_walk(cfg):
    # one CycleReport for both engines, every field bit for bit from the
    # public pieces: the fixed point of the cycle matrix walked through the
    # strokes by apply_map, the closed-form work and each engine's eta
    otto = isinstance(cfg, OttoConfig)
    report = otto_cycle_report if otto else three_stroke_report
    cycle = cfg.cycle()
    hot, first, cold, *_ = cycle.strokes
    try:
        p1 = stationary_population(np.array(cycle.tilted(0.0)).reshape(2, 2))
    except DegenerateCycleError:
        with pytest.raises(DegenerateCycleError):
            report(cfg)
        return
    p2 = apply_map(hot, p1)
    p3 = PopulationVector(p2.p_e, p2.p_g) if first.flip else p2
    W, Q_H, Q_C = cycle.work(), hot.omega * (p2.p_e - p1.p_e), cold.omega * (p1.p_e - p3.p_e)
    if not (otto or abs(Q_H) > 1e-14 * cfg.omega):
        with pytest.raises(ZeroHeatError):
            report(cfg)
        return
    eta = 1.0 - cfg.omega_C / cfg.omega_H if otto else W / Q_H
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotAnEngineWarning)
        got = report(cfg)
    assert type(got) is CycleReport
    assert repr(got) == repr(CycleReport(p1, p2, p3, W, Q_H, Q_C, eta))  # signed zeros too
    if otto:  # the quench back keeps the populations, so the cold stroke closes the cycle
        assert abs(apply_map(cold, p3).p_e - p1.p_e) <= DRIFT_RENORM


@settings(max_examples=400)
@given(engines())
@example(OttoConfig.nonmarkov(1e-12, 7e-13, 1.0, 0.5))  # tiny gaps
@example(OttoConfig.nonmarkov(800.0, 700.0, 1.0, 0.5))  # every q underflows
@example(OttoConfig.markov(1.0, 0.7, 1.0, math.nextafter(1.0, 0.0)))  # T_C -> T_H
@example(ThreeStrokeConfig.markov(0.5, 1.0, 0.4))  # couplings at the Markov threshold
@example(ThreeStrokeConfig.nonmarkov(1e-12, 1.0, 0.5))
@example(ThreeStrokeConfig.nonmarkov(30.0, 1.0, 0.5))  # the PCC is -exp(-90)
@example(OttoConfig(1.0, 0.5, 1.0, 0.5, 0.0, 1.0))  # identity heat stroke
# a centred v1 of these entries is 2.7e-17; the exact one is 1.39e-22
@example(
    ThreeStrokeConfig(
        12610.38650953651, 400.4332524456435, 397.3236650375562, 1.0, 1.654467757557153e-09
    )
)
def test_counting_terms_are_the_exact_cell_sums_of_the_entries(cfg):
    cycle = cfg.cycle()
    try:
        got = _spectral_terms(cycle)
    except DegenerateCycleError:
        return
    for value, (exact, scale) in zip(got, exact_counting_terms(cycle)):
        assert abs(Fraction(value) - exact) <= ULPS * EPS * scale + Fraction(TINY), (value, exact)


@settings(max_examples=300)
@given(engines())
@example(OttoConfig.nonmarkov(1e-12, 7e-13, 1.0, 0.5))  # tiny gaps: the heats cancel
@example(OttoConfig.nonmarkov(800.0, 700.0, 1.0, 0.5))  # every q underflows
@example(ThreeStrokeConfig.nonmarkov(1e-12, 1.0, 0.5))
@example(ThreeStrokeConfig.nonmarkov(1e-320, 1.0, 0.5))  # a subnormal gap
@example(OttoConfig(1.0, 0.5, 1.0, 0.5, 0.0, 0.0))  # both maps idle: degenerate
def test_the_heats_are_the_exact_walk_of_the_entries(cfg):
    # Cycle.run against the same walk of its float entries in rationals.
    # Every term of M = C H, of its fixed point and of H p1 is non-negative,
    # so each rounds relatively, to first order in u = 2^-53: M's entries by
    # 2u, the rate by 3u, p1 by 6u and H p1 by 8u.  The difference of two
    # populations adds u, and its product with omega u more: 16u = 8 EPS of
    # omega, absolute, however much of the heat cancels.
    cycle = cfg.cycle()
    try:
        *_, Q_H, Q_C = cycle.run()
    except DegenerateCycleError:
        return
    exact = float_cycle(cycle).walk()
    for Q, expected, heat in zip((Q_H, Q_C), (exact.Q_H, exact.Q_C), cycle.strokes[::2]):
        bound = 8 * EPS * Fraction(heat.omega) + Fraction(TINY)
        assert abs(Fraction(Q) - expected) <= bound, (Q, float(expected))


@settings(max_examples=200)
@given(engines())
@example(OttoConfig.nonmarkov(1e-12, 7e-13, 1.0, 0.5))
@example(ThreeStrokeConfig.nonmarkov(900.0, 1.0, 0.5))
@example(OttoConfig(1.0, 0.5, 1.0, 0.5, 0.0, 1.0))  # identity heat stroke
def test_the_series_product_and_the_cells_are_one_model(cfg):
    # On the cycle's off-diagonal entries, with each column summing to 1
    # exactly, every identity between two formulations holds exactly: (v1,
    # c, 1 - mu) of the series product and of the cell sums, the walk's W and
    # the series mean 1ᵀM'p, and the PCC over two-cycle paths and c / v1.
    model = float_cycle(cfg.cycle())
    hot, cold = ((1 - up, down, up, 1 - down) for _, down, up, _ in model[:2])
    model = model._replace(hot=hot, cold=cold)
    try:
        m, *terms = model.counting_terms()
    except ZeroDivisionError:  # the identity cycle has no unique fixed point
        return
    (v1, _), (c, _), (g, _) = model.cells()
    assert (*terms, model.walk().W) == (v1, c, g, m * model.quantum)
    if v1:
        assert model.path_pcc() == c / v1


def test_three_stroke_eto_pcc_is_the_closed_form():
    # -det(H) det(C) = -q_H q_C: no term cancels, at any gap up to the
    # largest the three-stroke engine runs at (fig6's point is omega = 0.23)
    for i in range(25):
        omega = 0.23 * (30.0 / 0.23) ** (i / 24)
        cfg = ThreeStrokeConfig.nonmarkov(omega, 1.0, 0.5)
        exact = pcc_three_stroke_exact(cfg)
        assert math.isclose(intercycle_pcc(cfg.cycle(), None), exact, rel_tol=1e-14), omega


@pytest.mark.parametrize("omega_H", [20.0, 40.0, 60.0])
def test_large_gap_otto_eto_pcc_matches_a_decimal_evaluation(omega_H):
    # fig6's engine beyond its window: the PCC falls to 3e-37 at omega_H = 60
    cfg = otto_config_at(0.3, 0.5, 1.0, omega_H, "nonmarkov")
    pcc, exact = intercycle_pcc(cfg.cycle(), None), config_cycle(cfg).path_pcc()
    assert abs(Decimal(pcc) / exact - 1) <= Decimal("1e-14"), (pcc, exact)


@pytest.mark.parametrize(
    "cfg",
    [
        OttoConfig.nonmarkov(1.0, 0.7, 1.0, 0.5),
        # past Carnot: the cycle map's up entry 0.518 exceeds its down entry 0.181
        OttoConfig.nonmarkov(1.0, 0.1, 1.0, 0.5),
        ThreeStrokeConfig.nonmarkov(0.4, 1.0, 0.5),
    ],
)
def test_counting_statistics_match_the_60_digit_model(cfg):
    # the bounds of the fig5 and fig6 tables against the same model; the
    # five-cycle variance is 5 v1 + 2 c S_5 of the model's counting terms
    cycle, model = cfg.cycle(), config_cycle(cfg)
    exact = model.statistics()
    _, v1, c, g = model.counting_terms()
    with localcontext(model.ctx):
        pair_sum = sum((5 - d) * (1 - g) ** (d - 1) for d in range(1, 5))
        variance_5 = (5 * v1 + 2 * c * pair_sum) * model.quantum**2
    mean, scaled_variance = scaled_cumulants(cycle)
    stats = work_moments(cycle, None, 5)
    assert abs(Decimal(mean) / exact.W - 1) <= Decimal("2e-15")
    assert abs(Decimal(stats.mean) / (5 * exact.W) - 1) <= Decimal("2e-15")
    assert abs(Decimal(scaled_variance) / exact.scaled_variance - 1) <= Decimal("2e-14")
    assert abs(Decimal(stats.variance) / variance_5 - 1) <= Decimal("2e-14")
    assert abs(Decimal(intercycle_pcc(cycle, None)) - exact.pcc) <= Decimal("2.2e-16")

def test_small_variance_pcc_matches_the_model():
    # v1 is 2.0e-15 work quanta squared.  The Boltzmann factors are formed
    # at omega / T = 31 and 37, so the float entries are 1e-15 off the
    # model's: the PCC is held to 1 ulp of the exact cell sums of those
    # entries, and to the fig6 bound of the model at 60 digits.
    cfg = OttoConfig(
        31.364907591901385,
        12.222775616014866,
        1.0,
        0.32642271518090704,
        0.08195794234038645,
        0.7826854667746651,
    )
    cycle = cfg.cycle()
    (v1, _), (c, _), _ = exact_counting_terms(cycle)
    entries_pcc = c / v1
    for p1 in (cycle.steady_state(), None):
        pcc = intercycle_pcc(cycle, p1)
        assert abs(Fraction(pcc) - entries_pcc) <= Fraction(math.ulp(float(entries_pcc)))
        assert abs(Decimal(pcc) - config_cycle(cfg).path_pcc()) <= Decimal("2.2e-16")
