"""The float stroke-cycle arithmetic against the numpy code it replaced.

``Cycle`` and ``fcs`` compose the 2x2 maps on Python floats.  The numpy
products below are the former implementation, kept here as the oracle.  A
numpy 2x2 product may round through a fused multiply-add, so the two agree
to a few ulp of the magnitudes involved, not bitwise.  The work comes from
each engine's closed form and is checked against a 60-digit evaluation of
the model instead: differencing populations, as the numpy oracle would,
cancels at small gaps.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermalops import (
    DegenerateCycleError,
    InvalidParameterError,
    OttoConfig,
    PopulationVector,
    ThreeStrokeConfig,
    full_thermalization_lambda,
    stationary_population,
)
from thermalops.fcs import _derivative_maps
from thermalops.maps import WorkStroke

EPS = 2.0**-52
TINY = 2.0**-1070  # a few subnormal ulp, for entries that underflow


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


def numpy_derivative_maps(cycle, weight=lambda k: k):
    """``(M, M', M'')`` stacked; ``weight=abs`` gives the magnitudes that
    bound the rounding of every entry."""
    stack = None
    for stroke in cycle.strokes:
        if isinstance(stroke, WorkStroke):
            for j, w in enumerate(stroke.released):
                k = weight(w / cycle.quantum)
                stack[2, j] += 2.0 * k * stack[1, j] + k * k * stack[0, j]
                stack[1, j] += k * stack[0, j]
            if stroke.flip:
                stack = stack[:, ::-1]
        elif stack is None:
            stack = np.zeros((3, 2, 2))
            stack[0] = stroke.m
        else:
            stack = stroke.m @ stack
    return stack


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

    A heat stroke maps ``p_e`` to ``l q + mu p_e`` with ``mu = 1 - l (1 + q)``
    and the flip maps it to ``1 - p_e``; the cyclic fixed point gives the
    populations entering each work stroke, and the work is their release."""
    with localcontext() as ctx:
        ctx.prec = 60

        def heat(omega, T, lam):
            q, lam = (-Decimal(omega) / Decimal(T)).exp(), Decimal(lam)
            return lam * q, 1 - lam * (1 + q)  # p_e -> a + mu p_e

        if isinstance(cfg, OttoConfig):
            (a_H, mu_H), (a_C, mu_C) = (
                heat(cfg.omega_H, cfg.T_H, cfg.lambda_H),
                heat(cfg.omega_C, cfg.T_C, cfg.lambda_C),
            )
            p_e1 = (a_C + mu_C * a_H) / (1 - mu_C * mu_H)
            p_e2 = a_H + mu_H * p_e1
            return (Decimal(cfg.omega_H) - Decimal(cfg.omega_C)) * (p_e2 - p_e1)
        (a_H, mu_H), (a_C, mu_C) = (
            heat(cfg.omega, cfg.T_H, cfg.lambda_H),
            heat(cfg.omega, cfg.T_C, cfg.lambda_C),
        )
        p_e1 = (a_C + mu_C * (1 - a_H)) / (1 + mu_C * mu_H)
        return Decimal(cfg.omega) * (2 * (a_H + mu_H * p_e1) - 1)


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
def test_float_cycle_matches_the_numpy_oracle(cfg, x):
    cycle = cfg.cycle()
    stack = numpy_derivative_maps(cycle)
    bound = numpy_derivative_maps(cycle, weight=abs)
    floats = _derivative_maps(cycle)
    for d in range(3):
        for i in range(4):
            assert_close(floats[d][i], stack[d].flat[i], bound[d].flat[i], 4)

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
    points, W, heats = cycle.run()
    for p, q in zip(points, expected_points):
        assert_close(p.p_g, q.p_g, q.p_g, 4)
        assert_close(p.p_e, q.p_e, q.p_e, 4)
    exact = exact_work(cfg)
    assert abs(Decimal(W) - exact) <= Decimal(4 * EPS * cycle.quantum + TINY), (W, exact)
    for stroke, Q, expected_Q in zip(
        (s for s in cycle.strokes if not isinstance(s, WorkStroke)), heats, expected_heats
    ):
        assert_close(Q, expected_Q, stroke.omega, 4)
