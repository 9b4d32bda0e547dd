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
for a tiny ``v1``: their column sums miss 1 by about 1e-16.
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
    stationary_population,
    three_stroke_report,
)
from thermalops.fcs import _spectral_terms
from thermalops.maps import DRIFT_RENORM, WorkStroke
from thermalops.optimize import otto_config_at

EPS = 2.0**-52
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
            m = stroke.m.copy()
        else:
            m = stroke.m @ m
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
            points[i] = PopulationVector.from_raw(prev.m @ p.as_array())
    for i in range(n - 1, last, -1):
        points[i] = strokes[i].apply(points[(i + 1) % n])
    heats = []
    for i, stroke in enumerate(strokes):
        if not isinstance(stroke, WorkStroke):
            heats.append(stroke.omega * (points[(i + 1) % n].p_e - points[i].p_e))
    return points, heats


def exact_work(cfg) -> Decimal:
    """The steady work of the config's binary64 fields at 60 digits.

    A heat stroke maps ``p_e`` to ``l q + mu p_e`` with ``mu = 1 - u`` and
    ``u = l (1 + q)``, and the flip maps it to ``1 - p_e``; the cyclic fixed
    point gives the populations entering each work stroke, and the work is
    their release.  The Otto denominator ``1 - mu_C mu_H`` is formed as
    ``u_C + u_H - u_C u_H``, which keeps couplings far below 1e-60."""
    with localcontext() as ctx:
        ctx.prec = 60

        def heat(omega, T, lam):
            q, lam = (-Decimal(omega) / Decimal(T)).exp(), Decimal(lam)
            return lam * q, 1 - lam * (1 + q), lam * (1 + q)  # p_e -> a + mu p_e; u

        if isinstance(cfg, OttoConfig):
            (a_H, mu_H, u_H), (a_C, mu_C, u_C) = (
                heat(cfg.omega_H, cfg.T_H, cfg.lambda_H),
                heat(cfg.omega_C, cfg.T_C, cfg.lambda_C),
            )
            p_e1 = (a_C + mu_C * a_H) / (u_C + u_H - u_C * u_H)
            p_e2 = a_H + mu_H * p_e1
            return (Decimal(cfg.omega_H) - Decimal(cfg.omega_C)) * (p_e2 - p_e1)
        (a_H, mu_H, _), (a_C, mu_C, _) = (
            heat(cfg.omega, cfg.T_H, cfg.lambda_H),
            heat(cfg.omega, cfg.T_C, cfg.lambda_C),
        )
        p_e1 = (a_C + mu_C * (1 - a_H)) / (1 + mu_C * mu_H)
        return Decimal(cfg.omega) * (2 * (a_H + mu_H * p_e1) - 1)


def exact_counting_terms(cycle):
    """``(v1, c, 1 - mu)`` of the cycle's float entries as exact rationals,
    each with the magnitude that bounds its rounding: the sum of the absolute
    pair terms, times those of ``a_g - a_e`` for ``c``.  The cells are those
    of ``fcs``: level ``a`` after the hot stroke and ``b`` after the cold one."""
    hot, first, cold, *last = cycle.strokes
    h = [Fraction(x) for x in hot._entries]
    t = [Fraction(x) for x in cold._entries]
    rows = h[2:] + h[:2] if first.flip else h  # after the first work stroke
    m = [t[2 * i] * rows[j] + t[2 * i + 1] * rows[2 + j] for i in (0, 1) for j in (0, 1)]
    closing = last[0] if last else WorkStroke(1.0, 1.0)  # a stroke releasing nothing
    if closing.flip:
        m = m[2:] + m[:2]
    g = m[1] + m[2]
    p = (m[1] / g, m[2] / g)
    x = (h[0] * p[0] + h[1] * p[1], h[2] * p[0] + h[3] * p[1])
    quantum = Fraction(cycle.quantum)
    k1 = [Fraction(w) / quantum for w in first.released]
    k2 = [Fraction(w) / quantum for w in closing.released]
    cells = [
        (x[a] * t[2 * b + (a ^ first.flip)], k1[a] + k2[b], b ^ closing.flip)
        for a in (0, 1)
        for b in (0, 1)
    ]
    pairs = [(i, j) for n, i in enumerate(cells) for j in cells[n + 1 :]]
    v1 = sum(P * Q * (K - L) ** 2 for (P, K, _), (Q, L, _) in pairs)
    # the pairs of a cell ending in g and one ending in e, oriented g to e
    across = [(1 - 2 * e) * P * Q * (K - L) for (P, K, e), (Q, L, f) in pairs if e != f]
    J = sum(across)
    det_c = t[3] - t[2]
    shift = (k2[1] - k2[0]) * det_c * (-1 if first.flip else 1)
    gap = -(h[3] - h[2]) * ((k1[1] - k1[0]) + shift)
    gap_scale = (abs(h[3]) + abs(h[2])) * (
        abs(k1[1] - k1[0]) + abs(k2[1] - k2[0]) * (abs(t[3]) + abs(t[2]))
    )
    c_scale = gap_scale * sum(abs(term) for term in across)
    return (v1, v1), (gap * J, c_scale), (g, g)


def decimal_pcc(cfg) -> Decimal:
    """The intercycle PCC of the config's binary64 fields at 60 digits.

    The heat maps are the model's (``q = exp(-omega / T)`` in decimal), the
    work strokes those of the cycle.  Two cycles of stroke-boundary paths
    from the steady state give the covariance of their work and the
    variance of one; at 60 digits their centring loses nothing that
    matters here."""
    with localcontext() as ctx:
        ctx.prec = 60
        if isinstance(cfg, OttoConfig):
            fields = (cfg.omega_H, cfg.T_H, cfg.lambda_H), (cfg.omega_C, cfg.T_C, cfg.lambda_C)
        else:
            fields = (cfg.omega, cfg.T_H, cfg.lambda_H), (cfg.omega, cfg.T_C, cfg.lambda_C)
        heats = []
        for omega, T, lam in fields:
            q, lam = (-Decimal(omega) / Decimal(T)).exp(), Decimal(lam)
            heats.append([[1 - lam * q, lam], [lam * q, 1 - lam]])
        cycle = cfg.cycle()
        quantum = Decimal(cycle.quantum)

        def branches(src):
            """(end, probability, work quanta) of every path of one cycle."""
            paths, maps = [(src, Decimal(1), Decimal(0))], iter(heats)
            for stroke in cycle.strokes:
                if isinstance(stroke, WorkStroke):
                    k = [Decimal(w) / quantum for w in stroke.released]
                    paths = [(s ^ stroke.flip, prob, dk + k[s]) for s, prob, dk in paths]
                else:
                    m = next(maps)
                    paths = [(t, prob * m[t][s], dk) for s, prob, dk in paths for t in (0, 1)]
            return paths

        one = {src: branches(src) for src in (0, 1)}
        up = sum(prob for end, prob, _ in one[0] if end == 1)
        down = sum(prob for end, prob, _ in one[1] if end == 0)
        start = (down / (up + down), up / (up + down))
        two = [
            (start[s] * prob * prob2, k, k2)
            for s in (0, 1)
            for end, prob, k in one[s]
            for _, prob2, k2 in one[end]
        ]
        mean1 = sum(w * k for w, k, _ in two)
        mean2 = sum(w * k2 for w, _, k2 in two)
        var1 = sum(w * (k - mean1) ** 2 for w, k, _ in two)
        return sum(w * (k - mean1) * (k2 - mean2) for w, k, k2 in two) / var1


# --- engines over the edges of the domain ---


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


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


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
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
        got, expected = cycle.matrix(chi), numpy_matrix(cycle, chi)
        for i in range(4):
            assert_close(got.flat[i], expected.flat[i], expected.flat[i], 4)

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


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(engines())
@example(OttoConfig.nonmarkov(800.0, 700.0, 1.0, 0.5))  # every q underflows
@example(OttoConfig(1.0, 0.5, 1.0, 0.5, 0.0, 0.0))  # both maps idle: degenerate
@example(ThreeStrokeConfig.nonmarkov(0.4, 1.0, 0.5))
@example(ThreeStrokeConfig.nonmarkov(1e-320, 1.0, 0.5))  # 1e-14 * omega underflows
def test_both_reports_are_the_stroke_walk(cfg):
    # one CycleReport for both engines, every field bit for bit from the
    # public pieces: the fixed point of the cycle matrix walked through the
    # strokes by apply_map, the closed-form work and each engine's eta
    otto = isinstance(cfg, OttoConfig)
    report = otto_cycle_report if otto else three_stroke_report
    cycle = cfg.cycle()
    hot, first, cold, *_ = cycle.strokes
    try:
        p1 = stationary_population(cycle.matrix())
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


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
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
        got = _spectral_terms(cycle, cycle._product())
    except DegenerateCycleError:
        return
    for value, (exact, scale) in zip(got, exact_counting_terms(cycle)):
        assert abs(Fraction(value) - exact) <= ULPS * EPS * scale + Fraction(TINY), (value, exact)


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
    pcc, exact = intercycle_pcc(cfg.cycle(), None), decimal_pcc(cfg)
    assert abs(Decimal(pcc) / exact - 1) <= Decimal("1e-14"), (pcc, exact)


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
        assert abs(Decimal(pcc) - decimal_pcc(cfg)) <= Decimal("2.2e-16")
