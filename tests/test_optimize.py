import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import thermalops
from thermalops import (
    DegenerateCycleError,
    InvalidParameterError,
    NoInteriorMaximumWarning,
    OttoConfig,
    ScanSpec,
    ThreeStrokeConfig,
    ZeroWorkError,
    eto_vs_thermalization_scan,
    full_thermalization_lambda,
    fluctuation_curve,
    intercycle_pcc,
    maximize_work,
    otto_work,
    scaled_cumulants,
    three_stroke_omega_for_eta,
    work_at,
    work_efficiency_curve,
    work_moments,
)
from thermalops import optimize
import oracles
from oracles import EPS as _EPS, conditioning, exact_work as exact_otto_work, log_uniform, quiet
from oracles import three_stroke_config_at
from thermalops.cli import COMMANDS, ENGINE_CODES, _log_grid, _run_sweep, main
from thermalops.optimize import otto_config_at
from thermalops.maps import _three_stroke_work
from thermalops.three_stroke import three_stroke_report


def test_scan_spec_validation():
    with pytest.raises(InvalidParameterError):
        ScanSpec(0.5, 0.5, 1.0, "nonmarkov")
    with pytest.raises(InvalidParameterError):
        ScanSpec(0.3, 0.5, 1.0, "bogus")
    with pytest.raises(InvalidParameterError):
        ScanSpec(0.3, 0.5, 1.0, "markov", omega_lo=2.0, omega_hi=1.0)


@pytest.mark.parametrize("field, value", [("omega_hi", math.inf)])
def test_scan_spec_rejects_bad_scan_inputs(field, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        with pytest.raises(InvalidParameterError):
            ScanSpec(0.3, 0.5, 1.0, "markov", **{field: value})


# calls that a float fast path must not take: equal window ends, Decimals,
# which compare with floats but are no numbers.Real, in two or more positions
# of one type, and bool couplings; each gets the named check's message
WINDOW = ("0.001", "20")
FAST_PATH_REJECTS = [
    (
        lambda: ScanSpec(0.3, 0.5, 1.0, "markov", 1.0, 1.0),
        "need omega_hi > omega_lo > 0, got (1.0, 1.0)",
    ),
    (
        lambda: ScanSpec(0.3, 0.5, 1.0, "markov", *map(Decimal, WINDOW)),
        "need omega_hi > omega_lo > 0, got (Decimal('20'), Decimal('0.001'))",
    ),
    (
        lambda: ScanSpec(0.3, Decimal("0.5"), Decimal("1"), "markov", *map(Decimal, WINDOW)),
        "eta_C must be real, got Decimal('0.5')",
    ),
    (
        lambda: ScanSpec(0.3, 0.5, Decimal("1"), "markov", *map(Decimal, WINDOW)),
        "T_H must be real, got Decimal('1')",
    ),
    (
        lambda: work_at(0.3, Decimal("0.5"), Decimal("1"), 1.0, "markov"),
        "eta_C must be real, got Decimal('0.5')",
    ),
    (
        lambda: three_stroke_omega_for_eta(0.3, Decimal("0.5"), Decimal("1")),
        "eta_C must be real, got Decimal('0.5')",
    ),
    # otto._coupling_rule, which reads the temperatures before any config check
    (
        lambda: OttoConfig.markov(1.0, 0.5, Decimal("1"), 0.5),
        "need T_H > T_C > 0, got (Decimal('1'), 0.5)",
    ),
    (
        lambda: OttoConfig.markov(1.0, 0.5, 1.0, Decimal("0.5")),
        "need T_H > T_C > 0, got (1.0, Decimal('0.5'))",
    ),
    # the config chains, each field after the first of one non-float type
    (
        lambda: OttoConfig(2.0, Decimal(1), Decimal(2), Decimal(1), 1.0, 1.0),
        "need omega_H > omega_C > 0, got (2.0, Decimal('1'))",
    ),
    (
        lambda: OttoConfig(2.0, 1.0, Decimal(2), Decimal(1), 1.0, 1.0),
        "need T_H > T_C > 0, got (Decimal('2'), Decimal('1'))",
    ),
    (
        lambda: ThreeStrokeConfig(0.5, Decimal(2), Decimal(1), Decimal(1), Decimal(1)),
        "need T_H > T_C > 0, got (Decimal('2'), Decimal('1'))",
    ),
    (
        lambda: ThreeStrokeConfig(0.5, 2.0, Decimal(1), Decimal(1), Decimal(1)),
        "need T_H > T_C > 0, got (2.0, Decimal('1'))",
    ),
    (
        lambda: ThreeStrokeConfig(0.5, 2.0, 1.0, Decimal(1), Decimal(1)),
        "lambda_H must be real, got Decimal('1')",
    ),
    (lambda: ThreeStrokeConfig(0.5, 2.0, 1.0, True, True), "lambda_H must lie in [0, 1], got True"),
]


@pytest.mark.parametrize("call, message", FAST_PATH_REJECTS)
def test_a_float_fast_path_rejects_what_the_named_checks_reject(call, message):
    with pytest.raises(InvalidParameterError) as info:
        call()
    assert str(info.value) == message


def test_work_at_carnot_point_vanishes():
    # eta_C as a float takes the scan's fast path, as a Fraction its named checks
    for regime, eta_C in itertools.product(("markov", "nonmarkov"), (0.5, Fraction(1, 2))):
        W = work_at(0.5, eta_C, 1.0, 1.3, regime)
        assert abs(W) < 1e-14
        assert math.copysign(1.0, W) == 1.0  # +0.0, not -0.0


def test_work_vanishes_with_the_gap():
    for regime in ("markov", "nonmarkov"):
        assert abs(work_at(0.3, 0.5, 1.0, 1e-6, regime)) < 1e-5


def round12(x: Decimal) -> str:
    """``x`` rounded to 12 significant digits, printed as the CSV prints."""
    return f"{float(f'{x:.11e}'):.12g}"


@pytest.mark.parametrize("regime", ["nonmarkov", "markov"])
@pytest.mark.parametrize("points", [40, 200])  # the pinned and the default sweep
def test_work_at_prints_the_exact_rounding_on_the_sweep_grids(regime, points):
    p = COMMANDS["sweep"][0]
    wrong = []
    for w in _log_grid({**p, "points": points}, "omega_lo", "omega_hi"):
        cfg = otto_config_at(p["eta"], p["eta_C"], p["T_H"], w, regime)
        exact = round12(exact_otto_work(cfg) / Decimal(p["T_H"]))
        got = f"{work_at(p['eta'], p['eta_C'], p['T_H'], w, regime):.12g}"
        if got != exact:
            wrong.append((float(w), got, exact))
    assert not wrong


def converged_exact_work(cfg) -> Decimal:
    """``exact_otto_work`` at a precision that outlasts its cancellation:
    doubled from 50 digits until two non-zero evaluations agree to 30
    digits (a zero can be the whole value cancelling).  At the last, 400
    digits, the error is below ``1e-390 * (omega_H - omega_C)`` either way."""
    prev = None
    for prec in (50, 100, 200, 400):
        try:
            w = exact_otto_work(cfg, prec)
        except ArithmeticError:  # both q rounded to 1: the rates are 0 / 0
            continue
        if w and prev is not None and abs(w - prev) <= Decimal("1e-30") * abs(w):
            break
        prev = w
    return w


# fractions in (0, 1): anywhere, far below one, or just below one
_FRACTION = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    log_uniform(-12.0, 0.0),
    log_uniform(-16.0, -1.0).map(lambda x: 1.0 - x),
)


def _couplings(omega: float, T: float):
    markov = full_thermalization_lambda(omega, 1.0 / T)
    return st.one_of(
        st.sampled_from([0.0, 1.0, markov, *(math.nextafter(markov, x) for x in (0.0, 1.0))]),
        st.floats(0.0, 1.0),
        log_uniform(-320.0, 0.0),
    )


@st.composite
def otto_configs(draw):
    """Otto configs over the whole domain: a = omega_H / T_H from 1e-200 to
    1e5, T_C -> T_H and T_C << T_H, omega_C -> omega_H and omega_C << omega_H
    (with a > b + 709 on the refrigerator side), couplings at 0, 1, the Markov
    threshold and down to subnormal."""
    T_H = draw(log_uniform(-100.0, 100.0))
    T_C = T_H * draw(_FRACTION)
    omega_H = T_H * draw(st.one_of(log_uniform(-12.0, 3.0), log_uniform(-200.0, 5.0)))
    omega_C = omega_H * draw(_FRACTION)
    lambda_H = draw(_couplings(omega_H, T_H))
    # a fraction can round T_C or omega_C to 0; OttoConfig then rejects them
    lambda_C = draw(_couplings(omega_C, T_C)) if T_C > 0.0 and omega_C > 0.0 else 1.0
    try:
        return OttoConfig(omega_H, omega_C, T_H, T_C, lambda_H, lambda_C)
    except InvalidParameterError:  # rounding closed the gap or the temperature ratio
        return OttoConfig.nonmarkov(1.0, 0.5, 1.0, 0.6)


@settings(max_examples=400)
@given(otto_configs())
@example(OttoConfig(800.0, 1e-3, 1.0, 0.5, 1.0, 1.0))  # a > b + 709
@example(OttoConfig(1.0, 0.7, 1.0, math.nextafter(1.0, 0.0), 1.0, 0.3))  # T_C -> T_H
@example(OttoConfig(1e-150, 2e-151, 1.0, 0.5, 1.0, 1.0))  # tiny gaps
@example(OttoConfig.markov(3.0, 1.0, 2.0, 0.5))  # couplings at the Markov threshold
@example(OttoConfig(2.0, 1.0, 1.0, 0.6, 1e-12, 1e-300))  # couplings near 0
def test_otto_work_matches_the_exact_model(cfg):
    # a and b carry one rounding each, exp and expm1 one more, the sums of
    # non-negative rates a few: 8 ulp per condition unit.  Below 2**-1000
    # (times the work quantum) the float result is subnormal or the oracle
    # stops refining, and only the absolute error counts.
    if cfg.lambda_H == cfg.lambda_C == 0.0:
        with pytest.raises(DegenerateCycleError):
            otto_work(cfg)
        return
    got = otto_work(cfg)
    assert math.isfinite(got)
    exact = converged_exact_work(cfg)
    err = abs(Decimal(got) - exact)
    if err > Decimal((cfg.cycle().quantum + 1.0) * 2.0**-1000):
        assert exact and err / abs(exact) <= 8 * _EPS * (1 + conditioning(cfg))


def test_otto_work_edges():
    # omega / T overflows to inf for a subnormal T: every q is 0, no NaN
    for regime in ("nonmarkov", "markov"):
        assert work_at(0.3, 0.5, 1e-320, 1.0, regime) == 0.0
    assert math.isfinite(otto_work(OttoConfig(1.0, 0.5, 1e-320, 5e-321, 0.4, 0.9)))
    with pytest.raises(DegenerateCycleError):
        otto_work(OttoConfig(1.0, 0.5, 1.0, 0.5, 0.0, 0.0))
    with pytest.raises(InvalidParameterError):
        otto_work(OttoConfig(math.inf, 0.5, 1.0, 0.5, 1.0, 1.0))


@pytest.mark.parametrize("regime", ["nonmarkov", "markov"])
@pytest.mark.parametrize(
    "args",
    [
        (0.3, 0.5, math.nan, 1.0),
        (0.3, 0.5, 0.0, 1.0),
        (0.3, 0.5, math.inf, 1.0),
        (0.3, 0.5, True, 1.0),
        (0.3, 0.5, 1.0, math.nan),
        (0.3, 0.5, 1.0, True),
        (0.6, 0.7, 1.0, 5e-324),  # omega_C = 0.4 * omega_H underflows to 0
        (0.6, 0.5, 1.0, 1.0),  # eta > eta_C
    ],
    ids=["T_H-nan", "T_H-0", "T_H-inf", "T_H-bool", "omega_H-nan", "omega_H-bool",
         "omega_C-underflow", "eta-above-carnot"],
)
def test_work_at_rejects_bad_scalars(args, regime):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError):
            work_at(*args, regime)


def test_work_at_rejects_an_unknown_regime():
    with pytest.raises(InvalidParameterError):
        work_at(0.3, 0.5, 1.0, 1.0, "diesel")


def test_nonmarkov_beats_markov_pointwise():
    for omega_H in np.logspace(-2, 1, 25):
        assert work_at(0.3, 0.5, 1.0, omega_H, "nonmarkov") > work_at(
            0.3, 0.5, 1.0, omega_H, "markov"
        )


def test_maximize_work_improves_on_grid_and_is_deterministic():
    spec = ScanSpec(0.3, 0.5, 1.0, "nonmarkov")
    rec1 = maximize_work(spec)
    rec2 = maximize_work(spec)
    assert rec1 == rec2  # bit-identical rerun
    grid = optimize._logspace(spec.omega_lo, spec.omega_hi, 200)
    best_coarse = max(work_at(0.3, 0.5, 1.0, w, "nonmarkov") for w in grid)
    assert rec1.W_star >= best_coarse - 1e-12
    assert rec1.W_star == work_at(0.3, 0.5, 1.0, rec1.omega_H_star, "nonmarkov")
    assert rec1.converged
    # the two window ends, then regula falsi steps: fewer than half of the
    # halvings, one per bit of [1e-3, 20] down to the spacing of the floats
    # near the optimum, that plain bisection takes
    assert 2 < rec1.evaluations <= 2 + math.ceil(math.log2(20.0 / math.ulp(1.0))) // 2


@settings(max_examples=500)
@given(start=st.floats(), stop=st.floats(), num=st.integers(1, 300))
@example(start=0.0, stop=5e-324, num=4)  # the step underflows: numpy scales i / (num - 1)
@example(start=-0.0, stop=1.0, num=1)
@example(start=0.02, stop=math.inf, num=1)  # one point keeps a bad stop visible
@example(start=0.02, stop=0.48, num=24)  # the fig4 default
def test_linspace_is_numpys_bit_for_bit(start, stop, num):
    with np.errstate(all="ignore"):
        expected = np.linspace(start, stop, num).tolist()
    assert [x.hex() for x in optimize._linspace(start, stop, num)] == [x.hex() for x in expected]


def ulp_error(x: float, exponent: float) -> Decimal:
    """``|x - 10**exponent|`` in ulps of ``x``, the power taken at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        return abs(Decimal(x) - Decimal(10) ** Decimal(exponent)) / Decimal(math.ulp(x))


@pytest.mark.parametrize(
    "lo, hi, points",
    [(0.01, 1000.0, 241), (1e-3, 20.0, 120), (1e-3, 10.0, 120), (1e-3, 20.0, 200)],
    ids=["fig1", "fig5", "fig6", "sweep-and-scan"],
)
def test_logspace_rounds_each_point_correctly(lo, hi, points):
    # libm's pow is within 0.5 ulp on the default grids, where numpy's
    # SIMD power reaches 0.61 ulp (fig1) on some CPUs; the ends are exact
    exponents = optimize._linspace(math.log10(lo), math.log10(hi), points)
    grid = optimize._logspace(lo, hi, points)
    assert len(grid) == points
    assert (grid[0], grid[-1]) == (lo, hi)
    inner = zip(grid[1:-1], exponents[1:-1])
    assert max(ulp_error(x, y) for x, y in inner) <= Decimal("0.5")


positive_floats = st.floats(min_value=5e-324, max_value=1.7e308)


@settings(max_examples=500)
@given(ends=st.tuples(positive_floats, positive_floats), n=st.integers(2, 300))
@example(ends=(1e-3, 20.0), n=3)  # 10**log10(20.0) is 20.000000000000004
@example(ends=(1.2345e300, math.nextafter(1.2345e300, math.inf)), n=5)
@example(ends=(5e-324, 1e-323), n=7)
@example(ends=(5e-324, 1.7e308), n=300)
def test_logspace_starts_at_lo_ends_at_hi_and_never_decreases(ends, n):
    lo, hi = sorted(ends)
    assume(lo < hi)
    grid = optimize._logspace(lo, hi, n)
    assert len(grid) == n
    assert (grid[0], grid[-1]) == (lo, hi)
    assert all(a <= b for a, b in zip(grid, grid[1:]))


def test_maximize_work_warns_on_endpoint_maximum():
    spec = ScanSpec(0.3, 0.5, 1.0, "nonmarkov", omega_lo=1e-3, omega_hi=1e-2)
    with pytest.warns(NoInteriorMaximumWarning):
        rec = maximize_work(spec)
    assert not rec.converged
    assert (rec.omega_H_star, rec.W_star) == (1e-2, work_at(0.3, 0.5, 1.0, 1e-2, "nonmarkov"))


@settings(max_examples=300)
@given(
    regime=st.sampled_from(["nonmarkov", "markov"]),
    eta_C=st.floats(1e-6, 1.0 - 1e-6),
    eta_share=st.one_of(st.floats(1e-6, 1.0 - 1e-6), log_uniform(-6.0, -1.0)),
    T_H=log_uniform(-300.0, 300.0),
)
@example(regime="markov", eta_C=1e-6, eta_share=1e-6, T_H=1e-300)  # W* = 4.4e-19
@example(regime="nonmarkov", eta_C=1e-6, eta_share=1e-6, T_H=1e-300)
@example(regime="markov", eta_C=1.0 - 1e-6, eta_share=1.0 - 1e-6, T_H=1e300)
@example(regime="nonmarkov", eta_C=1.0 - 1e-6, eta_share=1.0 - 1e-6, T_H=1e300)
def test_work_curve_rises_then_falls(regime, eta_C, eta_share, T_H):
    # the log-concavity that maximize_work's docstring proves, seen on a
    # coarse grid: the values on the default window rise to an interior
    # maximum and fall after it (rounding may tie neighbours).  Closer to
    # eta = 0 or eta = eta_C than a share of 1e-6, the rounding of omega_C
    # or T_C is a sizeable part of omega_H - omega_C or of kappa - 1, and
    # the coarse values carry it.
    grid = optimize._logspace(1e-3 * T_H, 20.0 * T_H, 200)
    values = optimize._otto_works(eta_C * eta_share, eta_C, T_H, regime, grid)
    peak = values.index(max(values))
    assert 0 < peak < 199
    assert all(a <= b for a, b in zip(values[:peak], values[1 : peak + 1]))
    assert all(a >= b for a, b in zip(values[peak:], values[peak + 1 :]))


@settings(max_examples=300)
@given(
    regime=st.sampled_from(["nonmarkov", "markov"]),
    eta_C=st.floats(1e-6, 1.0 - 1e-6),
    eta_share=st.one_of(st.floats(1e-6, 1.0 - 1e-6), log_uniform(-6.0, -1.0)),
    T_H=log_uniform(-300.0, 300.0),
)
@example(regime="markov", eta_C=1e-6, eta_share=1e-6, T_H=1e-300)
@example(regime="nonmarkov", eta_C=1e-6, eta_share=1e-6, T_H=1e-300)
@example(regime="markov", eta_C=1.0 - 1e-6, eta_share=1.0 - 1e-6, T_H=1e300)
@example(regime="nonmarkov", eta_C=1.0 - 1e-6, eta_share=1.0 - 1e-6, T_H=1e300)
def test_bisection_finds_the_one_sign_change_and_beats_the_grid(regime, eta_C, eta_share, T_H):
    # on the domain of test_work_curve_rises_then_falls the slope of ln W
    # changes sign once on the default window, and the work at its root is
    # at least the best value of a 200-point log grid, to 4 ulp and the
    # rounding of the checked config: omega_C = (1 - eta) omega_H and
    # omega_C / T_C each round by up to 2**-53, which moves W by that times
    # (1 - eta) / eta and (1 - eta) / (eta_C - eta).  A grid point may gain
    # it and the root lose it, so the bound takes it twice.  It matters only
    # where eta or eta_C - eta is near 1e-12 (the corners below), where it
    # reaches 1.3e-4 relative.
    eta = eta_C * eta_share
    slope = optimize._log_work_slope(regime)
    grid = optimize._logspace(1e-3 * T_H, 20.0 * T_H, 200)
    signs = optimize._otto_scan(eta, eta_C, T_H, regime, grid, lambda *g: slope(*g[2:4]) > 0.0)
    rising = list(signs)
    assert rising[0] and not rising[-1]
    assert rising == sorted(rising, reverse=True)
    rec = maximize_work(ScanSpec(eta, eta_C, T_H, regime, 1e-3 * T_H, 20.0 * T_H))
    assert rec.converged
    best = max(optimize._otto_works(eta, eta_C, T_H, regime, grid))
    rounding = 2.0**-52 * (1.0 - eta) * (1.0 / eta + 1.0 / (eta_C - eta)) * best
    assert rec.W_star >= best - 4 * math.ulp(best) - rounding


def mp_optimum(eta: float, eta_C: float, regime: str):
    """The work-maximal ``a = omega_H / T_H`` and ``W / T_H`` there, at 50
    digits, for the work written out in ``maximize_work``'s docstring at
    the binary64 ``eta`` and ``eta_C``: the root in [1e-3, 20] of the
    numerical derivative of ``ln W``."""
    with mpmath.workdps(50):
        eta, eta_C = mpmath.mpf(eta), mpmath.mpf(eta_C)
        kappa = (1 - eta) / (1 - eta_C)
        if regime == "nonmarkov":

            def work(a):
                return eta * a * mpmath.sinh((kappa - 1) * a / 2) / mpmath.sinh((kappa + 1) * a / 2)

        else:

            def work(a):
                return eta * a * (1 / (1 + mpmath.exp(a)) - 1 / (1 + mpmath.exp(kappa * a)))

        def slope(a):
            return mpmath.diff(lambda x: mpmath.log(work(x)), a)

        root = mpmath.findroot(slope, (mpmath.mpf("1e-3"), 20), solver="illinois")
        return root, work(root)


@pytest.mark.parametrize("regime", ["nonmarkov", "markov"])
def test_fig4_optima_match_a_50_digit_oracle(regime):
    p = COMMANDS["fig4"][0]
    for eta in optimize._linspace(p["eta_min"], p["eta_max"], p["points"]):
        spec = ScanSpec(eta, p["eta_C"], p["T_H"], regime, 1e-3 * p["T_H"], 20.0 * p["T_H"])
        rec = maximize_work(spec)
        a, W = mp_optimum(eta, p["eta_C"], regime)
        assert rec.converged and rec.evaluations <= 64
        assert abs(rec.omega_H_star / p["T_H"] - a) <= 1e-12 * a
        assert abs(rec.W_star - W) <= 1e-14 * W


def checked_config_work(eta, eta_C, T_H, omega_H, regime) -> str:
    """The work through a checked ``OttoConfig``, as ``float.hex`` (which
    tells the signed zeros apart)."""
    cfg = otto_config_at(eta, eta_C, T_H, omega_H, regime)
    if regime == "markov":  # full thermalization at each bath, from omega / T
        assert cfg.lambda_H == 1.0 / (1.0 + math.exp(-cfg.omega_H / cfg.T_H))
        assert cfg.lambda_C == 1.0 / (1.0 + math.exp(-cfg.omega_C / cfg.T_C))
    return (otto_work(cfg) / T_H).hex()


@settings(max_examples=300)
@given(
    regime=st.sampled_from(["nonmarkov", "markov"]),
    eta_C=st.floats(1e-6, 1.0 - 1e-6),
    eta_share=st.one_of(st.just(1.0), st.floats(1e-6, 1.0)),  # eta = eta_C is admitted
    T_H=log_uniform(-3.0, 3.0),
    omega_H=log_uniform(-300.0, 4.0),
)
@example(regime="nonmarkov", eta_C=0.5, eta_share=0.6, T_H=1e-3, omega_H=1e4)
@example(regime="markov", eta_C=0.5, eta_share=1.0, T_H=1e3, omega_H=1e-300)
@example(regime="markov", eta_C=1.0 - 1e-6, eta_share=1.0 - 2**-53, T_H=1.0, omega_H=1e-300)
def test_scans_are_the_checked_config_path(regime, eta_C, eta_share, T_H, omega_H):
    # every gap a scan or a sweep evaluates is bitwise the work of the
    # checked config at that gap
    eta = eta_C * eta_share
    p = {**COMMANDS["sweep"][0], "eta": eta, "eta_C": eta_C, "T_H": T_H, "regime": regime}
    _, rows = _run_sweep({**p, "omega_lo": omega_H, "omega_hi": 8.0 * omega_H, "points": 5})
    for w, W in rows:
        assert W.hex() == checked_config_work(eta, eta_C, T_H, w, regime)
    if eta == eta_C:
        return
    spec = ScanSpec(eta, eta_C, T_H, regime, omega_lo=omega_H, omega_hi=8.0 * omega_H)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the endpoint warning is not at issue
        rec = maximize_work(spec)
    assert rec.W_star.hex() == checked_config_work(eta, eta_C, T_H, rec.omega_H_star, regime)


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300)
@given(
    regime=st.sampled_from(["nonmarkov", "markov"]),
    eta_C=st.floats(1e-6, 1.0 - 1e-6),
    eta_share=st.one_of(st.just(1.0), st.floats(1e-6, 1.0)),  # eta = eta_C: W = +0.0
    T_H=st.one_of(st.sampled_from([5e-324, 1e-310, 1e-300, 1.0, 1e300]), log_uniform(-300, 300)),
    window=st.tuples(st.floats(-4.0, 1.0), st.floats(0.1, 4.0)),
    points=st.integers(2, 40),
)
@example(regime="markov", eta_C=0.5, eta_share=1.0, T_H=1e300, window=(-3.0, 1.3), points=9)
@example(regime="nonmarkov", eta_C=1e-6, eta_share=1e-6, T_H=1e-310, window=(-3.0, 1.3), points=9)
@example(regime="markov", eta_C=0.9, eta_share=0.5, T_H=5e-324, window=(1.0, 2.0), points=9)
def test_every_otto_scan_evaluates_one_work(regime, eta_C, eta_share, T_H, window, points):
    # the public scans agree to the bit (float.hex tells the signed zeros
    # apart): each sweep row, read from its JSON table, is work_at at its
    # gap; an optimum's W_star is work_at at its gap; and an Otto row of
    # work_efficiency_curve is maximize_work's W_star on fig4's window, or
    # both raise the same error
    eta = eta_C * eta_share
    lo, hi = T_H * 10.0 ** window[0], T_H * 10.0 ** sum(window)
    params = dict(eta=eta, eta_C=eta_C, T_H=T_H, omega_lo=lo, omega_hi=hi)
    sets = [f"{key}={value!r}" for key, value in params.items()]
    sets += [f"regime={regime}", f"points={points}"]
    argv = ["sweep", "--format", "json", *(arg for s in sets for arg in ("--set", s))]
    code, out, err = cli_call(argv)
    if code:
        assert (code, out) == (1, "") and err.startswith("thermalops sweep: need ")
    else:
        for omega_H, W in json.loads(out)["rows"]:
            assert W.hex() == work_at(eta, eta_C, T_H, omega_H, regime).hex()
    if eta == eta_C:
        return
    if not code:
        rec = quiet(maximize_work, ScanSpec(eta, eta_C, T_H, regime, lo, hi))
        assert rec.W_star.hex() == work_at(eta, eta_C, T_H, rec.omega_H_star, regime).hex()
    try:
        [(_, W)] = quiet(work_efficiency_curve, eta_C, T_H, regime, [eta])
    except InvalidParameterError as exc:
        with pytest.raises(InvalidParameterError, match=re.escape(str(exc))):
            quiet(maximize_work, ScanSpec(eta, eta_C, T_H, regime, 1e-3 * T_H, 20.0 * T_H))
        return
    rec = quiet(maximize_work, ScanSpec(eta, eta_C, T_H, regime, 1e-3 * T_H, 20.0 * T_H))
    assert W.hex() == rec.W_star.hex()


# Requests with two or three bad values each, and the first error each
# reports: a scan checks its parameters in a fixed order.
FIRST_ERRORS = [
    ("sweep eta=nan eta_C=1.5", "need 0 < eta <= eta_C < 1, got nan, 1.5"),
    ("sweep eta=0.6 T_H=-1.0", "need 0 < eta <= eta_C < 1, got 0.6, 0.5"),
    (
        "sweep eta_C=1.0 omega_lo=nan",
        "need 0 < omega_lo < omega_hi < inf, got omega_lo=nan, omega_hi=20.0",
    ),
    ("sweep eta_C=1.0 T_H=nan", "need 0 < eta <= eta_C < 1, got 0.3, 1.0"),
    ("sweep regime=carnot T_H=-1.0", "need T_H > T_C > 0, got (-1.0, -0.5)"),
    ("sweep regime=carnot T_H=nan eta=0.0", "need 0 < eta <= eta_C < 1, got 0.0, 0.5"),
    ("sweep regime=carnot eta=0.0", "need 0 < eta <= eta_C < 1, got 0.0, 0.5"),
    ("sweep points=1 eta=nan", "need points >= 2, got points=1"),
    (
        "sweep omega_hi=inf regime=carnot",
        "need 0 < omega_lo < omega_hi < inf, got omega_lo=0.001, omega_hi=inf",
    ),
    ("sweep T_H=5e-324 eta_C=0.9 regime=markov", "need T_H > T_C > 0, got (5e-324, 0.0)"),
    (
        "sweep eta=0.6 eta_C=0.9 omega_lo=5e-324 regime=markov",
        "need omega_H > omega_C > 0, got (5e-324, 0.0)",
    ),
    (
        "sweep eta=0.6 eta_C=0.9 omega_lo=5e-324 regime=carnot",
        "regime must be one of ('markov', 'nonmarkov'), got 'carnot'",
    ),
    ("sweep eta=0.5 eta_C=0.5 T_H=inf regime=markov", "need T_H > T_C > 0, got (inf, inf)"),
    ("sweep eta=-0.1 eta_C=nan T_H=0.0", "need 0 < eta <= eta_C < 1, got -0.1, nan"),
    ("sweep eta=1.5 eta_C=2.0 T_H=0.0", "need 0 < eta <= eta_C < 1, got 1.5, 2.0"),
    (
        "fig4 eta_min=nan eta_C=0.3",
        "need 0 < eta < eta_C and omega_hi < inf, got ScanSpec(eta=nan, eta_C=0.3, T_H=1.0,"
        " regime='nonmarkov', omega_lo=0.001, omega_hi=20.0)",
    ),
    (
        "fig4 eta_min=0.4 eta_max=0.6 points=3",  # the middle eta is eta_C
        "need 0 < eta < eta_C and omega_hi < inf, got ScanSpec(eta=0.5, eta_C=0.5, T_H=1.0,"
        " regime='nonmarkov', omega_lo=0.001, omega_hi=20.0)",
    ),
    (
        "fig4 eta_min=0.1 eta_max=0.9 points=5 T_H=inf",
        "need omega_hi > omega_lo > 0, got (inf, inf)",
    ),
    ("fig4 eta_C=1.0 T_H=nan", "need omega_hi > omega_lo > 0, got (nan, nan)"),
    ("fig4 eta_C=1.5 T_H=-1.0", "need omega_hi > omega_lo > 0, got (-20.0, -0.001)"),
    ("fig4 eta_C=1.0 eta_min=0.6 eta_max=0.9", "need 0 < eta <= eta_C < 1, got 0.6, 1.0"),
    ("fig4 T_H=5e-324 eta_C=0.9", "need omega_hi > omega_lo > 0, got (1e-322, 0.0)"),
    ("fig4 points=0 eta_min=nan", "need points >= 1, got points=0"),
    (
        "fig4 T_H=1e-310 eta_C=1e-06 eta_min=1e-12 eta_max=2e-12 points=3",
        "need omega_H > omega_C > 0, got (1e-313, 1e-313)",
    ),
]


@pytest.mark.parametrize("line, message", FIRST_ERRORS)
def test_a_bad_scan_request_reports_its_first_error(line, message):
    command, *pairs = line.split()
    code, out, err = cli_call([command, *(a for pair in pairs for a in ("--set", pair))])
    assert (code, out, err) == (1, "", f"thermalops {command}: {message}\n")


NAN, INF = math.nan, math.inf
CALL_FIRST_ERRORS = [
    (work_at, (NAN, 0.5, -1.0, 1.0, "carnot"), "need 0 < eta <= eta_C < 1, got nan, 0.5"),
    (work_at, (0.3, 0.5, 1.0, True, "carnot"), "omega_H must be real, got True"),
    (work_at, (0.3, 0.5, "1", 0.0, "markov"), "T_H must be real, got '1'"),
    (
        work_at,
        (0.3, 0.5, 1.0, -1.0, "carnot"),
        "regime must be one of ('markov', 'nonmarkov'), got 'carnot'",
    ),
    (work_at, (0.3, 0.5, -1.0, -1.0, "markov"), "need T_H > T_C > 0, got (-1.0, -0.5)"),
    (work_at, (0.3, 1.0, 1.0, 1.0, "carnot"), "need 0 < eta <= eta_C < 1, got 0.3, 1.0"),
    (
        work_at,
        (0.6, 0.9, 1.0, 5e-324, "carnot"),
        "regime must be one of ('markov', 'nonmarkov'), got 'carnot'",
    ),
    (ScanSpec, (0.3, 1.0, 1.0, "carnot"), "need 0 < eta <= eta_C < 1, got 0.3, 1.0"),
    (ScanSpec, (0.3, 0.5, -1.0, "carnot"), "need T_H > T_C > 0, got (-1.0, -0.5)"),
    (ScanSpec, (0.3, 0.5, 1.0, "carnot", NAN), "need omega_hi > omega_lo > 0, got (20.0, nan)"),
    (ScanSpec, ("0.3", 0.5, 1.0, "carnot"), "eta must be real, got '0.3'"),
    (
        ScanSpec,
        (0.6, 0.5, 1.0, "carnot", 1e-3, INF),
        "need 0 < eta < eta_C and omega_hi < inf, got ScanSpec(eta=0.6, eta_C=0.5, T_H=1.0,"
        " regime='carnot', omega_lo=0.001, omega_hi=inf)",
    ),
    (ScanSpec, (0.3, 0.5, 5e-324, "carnot"), "need T_H > T_C > 0, got (5e-324, 0.0)"),
    (
        work_efficiency_curve,
        (1.5, 1.0, "carnot", [0.1]),
        "engine must be one of ('nonmarkov', 'markov', 'three_stroke'), got 'carnot'",
    ),
    (
        work_efficiency_curve,
        (0.5, 1.0, "markov", [0.1, 0.6, NAN]),
        "need 0 < eta < eta_C and omega_hi < inf, got ScanSpec(eta=0.6, eta_C=0.5, T_H=1.0,"
        " regime='markov', omega_lo=0.001, omega_hi=20.0)",
    ),
    (work_efficiency_curve, (0.5, "1", "carnot", []), "T_H must be real, got '1'"),
    (
        work_efficiency_curve,
        (1.0, 1.0, "nonmarkov", [0.5, 0.9]),
        "need 0 < eta <= eta_C < 1, got 0.5, 1.0",
    ),
    (
        work_efficiency_curve,
        (0.5, -1.0, "markov", [0.3, NAN]),
        "need omega_hi > omega_lo > 0, got (-20.0, -0.001)",
    ),
    (
        work_efficiency_curve,
        (0.5, 1.0, "nonmarkov", [0.3, 0.5, 0.7]),
        "need 0 < eta < eta_C and omega_hi < inf, got ScanSpec(eta=0.5, eta_C=0.5, T_H=1.0,"
        " regime='nonmarkov', omega_lo=0.001, omega_hi=20.0)",
    ),
    (
        maximize_work,
        (ScanSpec(0.6, 0.7, 1e-300, "markov", 5e-324, 1e-300),),
        "need omega_H > omega_C > 0, got (5e-324, 0.0)",
    ),
    # an eta of 0 and an eta_C of 1, which a later check rejects with another message
    (
        ScanSpec,
        (0.0, 0.5, 1.0, "nonmarkov"),
        "need 0 < eta < eta_C and omega_hi < inf, got ScanSpec(eta=0.0, eta_C=0.5, T_H=1.0,"
        " regime='nonmarkov', omega_lo=0.001, omega_hi=20.0)",
    ),
    (
        three_stroke_omega_for_eta,
        (0.3, 1.0, 1.0),
        "target efficiency 0.3 outside the attainable range (0, 1.0)",
    ),
]


@pytest.mark.parametrize("fn, args, message", CALL_FIRST_ERRORS)
def test_a_bad_scan_call_raises_its_first_error(fn, args, message):
    with pytest.raises(InvalidParameterError) as info:
        fn(*args)
    assert str(info.value) == message


ZERO_MEAN = "{} work mean vanishes at gap {}; variance-to-mean ratio undefined"

# fluctuation_curve calls with two bad values, or a first row that raises
# before a bad gap, and the first error of each: the table's parameters are
# checked in a fixed order, then the rows one at a time, in grid order.  A
# zero mean is named at the caller's gap, not in the unit next to T_H.
CURVE_FIRST_ERRORS = [
    *[
        ((0.3, 0.5, 1.0, "single_cycle", grid), ZeroWorkError, ZERO_MEAN.format("1-cycle", "2000"))
        for grid in ([2000.0, INF], [2000.0, 5e-324])
    ],
    *[
        (
            (0.3, 0.5, T_H, "infinite", grid),
            thermalops.NonPrimitiveMapError,
            "untilted cycle map squared has zero entries",
        )
        # 1e308 is a gap that the unit 2**0 next to T_H = 0.75 still holds
        for T_H, grid in ((1.0, [2000.0, INF]), (1.0, [2000.0, 5e-324]), (0.75, [1e308, 5e-324]))
    ],
    *[
        (
            (0.3, 0.5, 1.0, horizon, [gap]),
            InvalidParameterError,
            f"need omega_H > omega_C > 0, got {got}",
        )
        for horizon in optimize.HORIZONS
        # the unit 2**1 next to T_H = 1 halves 5e-324 to 0
        for gap, got in ((5e-324, "(0.0, 0.0)"), (INF, "(inf, inf)"))
    ],
    ((0.6, 0.5, 1.0, "infinite", [INF]), InvalidParameterError, "need 0 < eta < eta_C < 1"),
    ((0.0, 0.5, 1.0, "infinite", [INF]), InvalidParameterError, "need 0 < eta < eta_C < 1"),
    ((NAN, 0.5, 1.0, "single_cycle", [-1.0]), InvalidParameterError, "need 0 < eta < eta_C < 1"),
    ((0.3, 1.0, 1.0, "infinite", [5e-324]), InvalidParameterError, "need 0 < eta < eta_C < 1"),
    (
        (0.3, 0.5, 1.0, "sometimes", [INF]),
        InvalidParameterError,
        "horizon must be one of ('single_cycle', 'infinite'), got 'sometimes'",
    ),
    (
        (0.6, 0.5, 1.0, "sometimes", []),
        InvalidParameterError,
        "horizon must be one of ('single_cycle', 'infinite'), got 'sometimes'",
    ),
    ((0.3, 0.5, -1.0, "infinite", [INF]), InvalidParameterError, "need T_H > 0, got (-1.0,)"),
    (
        (0.3, 0.5, 1e-10, "infinite", [1.0, 1e306]),
        InvalidParameterError,
        "need omega_H < 2**991 at T_H=1e-10, got 1e+306",
    ),
    (
        (0.3, 0.5, 1e300, "single_cycle", [1e303]),
        ZeroWorkError,
        ZERO_MEAN.format("1-cycle", "1e+303"),
    ),
    (
        (math.nextafter(0.5, 0.0), 0.5, 1.0, "infinite", [1.0]),
        ZeroWorkError,
        ZERO_MEAN.format("infinite", "1"),
    ),
    # the largest finite gap is checked with the table, before any row: an
    # infinite gap (frexp(inf) has exponent 0) does not hide a 1e308, past
    # the float range in the unit next to T_H = 1e-300, wherever it stands
    *[
        (
            (0.3, 0.5, 1e-300, horizon, [INF, 1e308]),
            InvalidParameterError,
            "need omega_H < 2**28 at T_H=1e-300, got 1e+308",
        )
        for horizon in optimize.HORIZONS
    ],
    (
        (0.3, 0.5, 1e-300, "infinite", [2000.0, INF, 1e308]),
        InvalidParameterError,
        "need omega_H < 2**28 at T_H=1e-300, got 1e+308",
    ),
    # the variance is exactly 0 and the quantum squared overflows in the
    # unit next to T_H = 1e-300: the zero stays zero, so the mean is named
    (
        (0.3, 0.5, 1e-300, "single_cycle", [2000.0]),
        ZeroWorkError,
        ZERO_MEAN.format("1-cycle", "2000"),
    ),
    # the big gap before the infinite one: once an OverflowError from ldexp
    *[
        (
            (0.3, 0.5, 1e-300, horizon, [1e308, INF]),
            InvalidParameterError,
            "need omega_H < 2**28 at T_H=1e-300, got 1e+308",
        )
        for horizon in optimize.HORIZONS
    ],
]


@pytest.mark.parametrize("args, kind, message", CURVE_FIRST_ERRORS)
def test_a_bad_fluctuation_call_raises_its_first_error(args, kind, message):
    with pytest.raises(kind) as info:
        fluctuation_curve(*args)
    assert (type(info.value), str(info.value)) == (kind, message)


# fig5 and fig6 requests with two bad values each, or a bad row, and the first error each reports
BAD_WINDOW = "need 0 < omega_lo < omega_hi < inf, got omega_lo=0.001, omega_hi=inf"
TABLE_FIRST_ERRORS = [
    ("fig5 eta=nan omega_hi=inf", BAD_WINDOW),
    (
        "fig5 horizon=sometimes eta=0.6",
        "horizon must be one of ('single_cycle', 'infinite'), got 'sometimes'",
    ),
    ("fig5 eta=0.6 T_H=-1.0", "need 0 < eta < eta_C < 1"),
    ("fig5 T_H=-1.0 omega_hi=1e306", "need T_H > 0, got (-1.0,)"),
    ("fig5 omega_lo=5e-324 T_H=nan", "need T_H > 0, got (nan,)"),
    ("fig5 horizon=single_cycle omega_hi=2000 eta=nan", "need 0 < eta < eta_C < 1"),
    ("fig5 points=1 eta=nan", "need points >= 2, got points=1"),
    # a zero mean at the requested gap 2000, which is 1000 in the unit 2**1 next to T_H = 1
    (
        "fig5 horizon=single_cycle omega_lo=1 omega_hi=2000 points=2",
        ZERO_MEAN.format("1-cycle", "2000"),
    ),
    ("fig6 eta=nan omega_hi=inf", BAD_WINDOW),
    ("fig6 eta=0.6 T_H=nan", "need 0 < eta < eta_C < 1"),
    ("fig6 T_H=5e-324 eta=nan", "need 0 < eta < eta_C < 1"),
    ("fig6 T_H=inf omega_lo=5e-324", "need T_H > T_C > 0, got (inf, inf)"),
    ("fig6 omega_lo=5e-324 eta=nan", "need 0 < eta < eta_C < 1"),
    ("fig6 eta_C=1.0 T_H=-1.0", "need 0 < eta < eta_C < 1"),
    ("fig6 points=1 omega_hi=inf", BAD_WINDOW),
]


@pytest.mark.parametrize("line, message", TABLE_FIRST_ERRORS)
def test_a_bad_fluctuation_request_reports_its_first_error(line, message):
    command, *pairs = line.split()
    code, out, err = cli_call([command, *(a for pair in pairs for a in ("--set", pair))])
    assert (code, out, err) == (1, "", f"thermalops {command}: {message}\n")


EXTREME_SCANS = """
import warnings
from thermalops import ScanSpec, maximize_work
warnings.simplefilter("ignore")
for spec in (
    ScanSpec(0.3, 0.5, 1e9, "nonmarkov", omega_lo=1e6, omega_hi=2e10),
    ScanSpec(0.3, 0.5, 1.0, "nonmarkov", omega_lo=1e8, omega_hi=2e9),
):
    print(repr(maximize_work(spec).W_star))
"""


def test_maximize_work_returns_at_extreme_gaps():
    # At T_H = 1e9 the floats near the optimal gap are 2.4e-7 apart, and
    # near 1e8 they are 1.5e-8 apart, so no bracket shrinks to 1e-8 there.
    # A subprocess with a timeout turns a hang into a failure.
    src = os.path.dirname(os.path.dirname(thermalops.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", EXTREME_SCANS], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    w_huge, w_flat = (float(line) for line in done.stdout.split())
    reference = maximize_work(ScanSpec(0.3, 0.5, 1.0, "nonmarkov", 1e-3, 20.0)).W_star
    assert math.isclose(w_huge, reference, rel_tol=1e-14)
    assert w_flat == 0.0  # exp(-1e8) underflows: no work anywhere in the window


@pytest.mark.parametrize(
    "T_H, omega_lo, omega_hi",
    [(1.0, 1e-300, 1e300), (1e308, 1e306, 1.7e308)],
    ids=["600-decades", "ends-sum-past-the-largest-float"],
)
def test_maximize_work_bisects_any_finite_window(T_H, omega_lo, omega_hi):
    # the first window is 2**1000 times wider than the float spacing at the
    # optimum, the second bisects where omega_lo + omega_hi overflows
    reference = maximize_work(ScanSpec(0.3, 0.5, 1.0, "nonmarkov"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = maximize_work(ScanSpec(0.3, 0.5, T_H, "nonmarkov", omega_lo, omega_hi))
    assert rec.converged
    assert math.isclose(rec.omega_H_star / T_H, reference.omega_H_star, rel_tol=1e-15)
    assert math.isclose(rec.W_star, reference.W_star, rel_tol=1e-15)


def test_maximize_work_checks_the_gaps_it_evaluates():
    # at omega_lo = 5e-324, omega_C = 0.7 * omega_lo rounds back to omega_lo
    with pytest.raises(InvalidParameterError, match="omega_H > omega_C"):
        maximize_work(ScanSpec(0.3, 0.5, 1.0, "nonmarkov", 5e-324, 20.0))


def seeded_scan_specs(count: int = 400, seed: int = 15) -> list:
    """Seeded ``ScanSpec``s over the scan's domain: both regimes, ``T_H``
    from subnormal to 1e300, ``eta_C`` from 1e-6 to 1 - 1e-6, ``eta`` in
    ``(0, eta_C)`` and windows anywhere in ``[1e-4, 1e5] * T_H``."""
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        eta_C = rng.choice([1e-6, 1.0 - 1e-6, rng.uniform(1e-6, 1.0 - 1e-6)])
        T_H = rng.choice([1e-310, 1e-300, 1e-3, 1.0, 1e9, 1e300])
        omega_lo = T_H * 10.0 ** rng.uniform(-4.0, 1.0)
        specs.append(
            ScanSpec(
                eta_C * rng.uniform(1e-6, 1.0 - 1e-6),
                eta_C,
                T_H,
                rng.choice(["nonmarkov", "markov"]),
                omega_lo,
                omega_lo * 10.0 ** rng.uniform(0.1, 4.0),
            )
        )
    return specs


# sha256 of every seeded scan's optimum, as float.hex, and convergence flag;
# ``evaluations`` is left out
SEEDED_SCANS_SHA256 = "1babffe468c45268d0ffb6fc4a014484f7d47aa5bd84b769bb7cbbeb53cf2214"


def test_maximize_work_pins_seeded_scans():
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec in seeded_scan_specs():
            rec = maximize_work(spec)
            lines.append(f"{rec.omega_H_star.hex()} {rec.W_star.hex()} {rec.converged}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SEEDED_SCANS_SHA256


def seeded_fluctuation_tables(count: int = 210, seed: int = 33) -> list:
    """Seeded fig5 (both horizons) and fig6 parameters, a third each:
    ``T_H`` from subnormal to 1e300, ``eta_C`` from 1e-6 to 1 - 1e-6,
    ``eta`` in ``(0, eta_C)`` and windows anywhere in ``[1e-4, 1e5] * T_H``."""
    rng = random.Random(seed)
    tables = []
    for i in range(count):
        command, horizon = [("fig5", "single_cycle"), ("fig5", "infinite"), ("fig6", None)][i % 3]
        eta_C = rng.choice([1e-6, 1.0 - 1e-6, rng.uniform(1e-6, 1.0 - 1e-6)])
        T_H = rng.choice([1e-310, 1e-300, 1e-3, 1.0, 1e9, 1e300])
        lo = rng.uniform(-4.0, 4.9)
        p = {
            **COMMANDS[command][0],
            "eta": eta_C * rng.uniform(1e-6, 1.0 - 1e-6),
            "eta_C": eta_C,
            "T_H": T_H,
            "omega_lo": T_H * 10.0**lo,
            "omega_hi": T_H * 10.0 ** min(lo + rng.uniform(0.1, 2.5), 5.0),
            "points": rng.randint(2, 9),
        }
        if horizon:
            p["horizon"] = horizon
        tables.append((command, p))
    return tables


def table_outcome(command: str, p: dict) -> str:
    """The rows of the table, as ``float.hex``, or its raise."""
    try:
        _, rows = COMMANDS[command][1](p)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return ";".join(" ".join(x.hex() if isinstance(x, float) else repr(x) for x in r) for r in rows)


# sha256 of every seeded fig5 and fig6 table's outcome; a zero mean is named
# at the requested gap
SEEDED_FLUCTUATION_SHA256 = "1263bfdb2fb6284bcc1d740d0f7b2ac28a6b24b04250d467d6c59c5de8731ec2"
# the same outcomes with each zero mean's gap masked: the hash they had when
# that gap was named in the unit next to T_H, so naming it at the requested
# gap moved that number (in 19 outcomes) and nothing else
SEEDED_FLUCTUATION_MASKED_SHA256 = "e66b2b8fa2040913f03d9a1c4bed75a57fae1405df519b2e7c95524e6d031a9e"


def test_fluctuation_tables_pin_seeded_parameters():
    lines = [f"{c} {p.get('horizon')} {table_outcome(c, p)}" for c, p in seeded_fluctuation_tables()]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SEEDED_FLUCTUATION_SHA256
    masked = [re.sub(r"at gap \S+;", "at gap ?;", line) for line in lines]
    assert hashlib.sha256("\n".join(masked).encode()).hexdigest() == (
        SEEDED_FLUCTUATION_MASKED_SHA256
    )


def seeded_fig4_curves(count: int = 300, seed: int = 39) -> list:
    """Seeded ``work_efficiency_curve`` arguments, a third for each engine:
    ``T_H`` from the smallest subnormal to 1e300, ``eta_C`` from 1e-6 to
    1 - 1e-6 and one to four efficiencies in ``(0, eta_C)``."""
    rng = random.Random(seed)
    curves = []
    for i in range(count):
        eta_C = rng.choice([1e-6, 1.0 - 1e-6, rng.uniform(1e-6, 1.0 - 1e-6)])
        T_H = rng.choice([5e-324, 1e-322, 1e-320, 1e-310, 1e-300, 1e-3, 1.0, 1e9, 1e300])
        etas = sorted(eta_C * rng.uniform(1e-6, 1.0 - 1e-6) for _ in range(rng.randint(1, 4)))
        curves.append((eta_C, T_H, optimize.ENGINES[i % 3], etas))
    return curves


def curve_outcome(eta_C: float, T_H: float, engine: str, etas: list) -> str:
    """The rows of the curve, as ``float.hex``, or its raise."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = work_efficiency_curve(eta_C, T_H, engine, etas)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return ";".join(" ".join(x.hex() for x in r) for r in rows)


# sha256 of every seeded fig4 curve's outcome
SEEDED_FIG4_SHA256 = "d6ac7ddb7cfbcc0f928f1ea01e848aa2ddbd42328f859375f91f212179619070"


def test_fig4_curves_pin_seeded_parameters():
    lines = [f"{args[2]} {curve_outcome(*args)}" for args in seeded_fig4_curves()]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SEEDED_FIG4_SHA256


def fig4_specs(regime: str) -> list:
    p = COMMANDS["fig4"][0]
    window = (1e-3 * p["T_H"], 20.0 * p["T_H"])
    etas = optimize._linspace(p["eta_min"], p["eta_max"], p["points"])
    return [ScanSpec(eta, p["eta_C"], p["T_H"], regime, *window) for eta in etas]


def slope_of(spec: ScanSpec):
    slope = optimize._log_work_slope(spec.regime)

    def at(w):
        (value,) = optimize._otto_scan(*spec[:4], (w,), lambda *g: slope(*g[2:4]))
        return value

    return at


def is_sign_change(spec: ScanSpec, omega_H: float) -> bool:
    """Whether the computed slope of ``ln W`` changes sign between
    ``omega_H`` and one of its neighbouring floats."""
    slope = slope_of(spec)

    def rising(w):
        return slope(w) > 0.0

    if rising(omega_H):
        return not rising(math.nextafter(omega_H, math.inf))
    return rising(math.nextafter(omega_H, 0.0))


def ulps_apart(x: float, y: float) -> float:
    return abs(x - y) / math.ulp(min(x, y))


@settings(max_examples=400)
@given(
    regime=st.sampled_from(["nonmarkov", "markov"]),
    eta_C=st.one_of(st.sampled_from([1e-6, 1.0 - 1e-6]), st.floats(1e-6, 1.0 - 1e-6)),
    eta_share=st.floats(1e-6, 1.0 - 1e-6),
    T_H=st.one_of(st.sampled_from([1e-310, 1e-300, 1e-3, 1.0, 1e9, 1e300]), log_uniform(-300, 300)),
    window=st.one_of(
        st.just((1e-3, 20.0)),  # fig4's
        st.tuples(st.floats(-4.0, 1.0), st.floats(0.1, 4.0)).map(
            lambda e: (10.0 ** e[0], 10.0 ** (e[0] + e[1]))
        ),
    ),
)
@example(regime="nonmarkov", eta_C=0.5, eta_share=0.6, T_H=1.0, window=(1e-3, 20.0))
@example(regime="markov", eta_C=1e-6, eta_share=1e-6, T_H=1e-310, window=(1e-3, 20.0))  # raises
@example(regime="markov", eta_C=1e-6, eta_share=1e-6, T_H=1e-300, window=(1e-3, 20.0))
def test_regula_falsi_lands_where_bisection_does(regime, eta_C, eta_share, T_H, window):
    # over the seeded_scan_specs domain and the fig4 window: an interior
    # optimum is an adjacent-float sign change of the computed slope, within
    # 4 ulp of the float plain halving finds (the same float wherever the
    # computed sign changes once); an optimum at a window end is that end,
    # and a window whose gaps fail their check raises the same error
    spec = ScanSpec(eta_C * eta_share, eta_C, T_H, regime, window[0] * T_H, window[1] * T_H)
    try:
        reference = oracles.bisection_maximize_work(spec)
    except InvalidParameterError as exc:
        with pytest.raises(InvalidParameterError, match=re.escape(str(exc))):
            maximize_work(spec)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = maximize_work(spec)
    assert rec.converged == reference.converged
    if not rec.converged:
        assert rec == reference
        return
    assert is_sign_change(spec, rec.omega_H_star)
    assert ulps_apart(rec.omega_H_star, reference.omega_H_star) <= 4
    assert rec.W_star == work_at(spec.eta, eta_C, T_H, rec.omega_H_star, regime)


def halvings(value, lo: float, hi: float) -> str:
    """Runs ``_bisect(value, lo, hi, ends)`` and tells for each step whether
    it left the bracket on one side of the bracket's midpoint: T for a
    halving, F for a step that did not halve."""
    points = []

    def recording(x):
        points.append(x)
        return value(x)

    optimize._bisect(recording, lo, hi, (value(lo), value(hi)))
    steps = ""
    for x in points:
        mid = 0.5 * lo + 0.5 * hi
        lo, hi = (x, hi) if value(x) > 0.0 else (lo, x)
        steps += "T" if lo >= mid or hi <= mid else "F"
    return steps


def test_regula_falsi_takes_a_few_evaluations_and_at_most_four_per_halving():
    # fig4's default grid: a median of at most 14 slope evaluations per
    # optimum (maximize_work's 13-14), where halving takes 57-59
    for regime in ("nonmarkov", "markov"):
        records = [maximize_work(spec) for spec in fig4_specs(regime)]
        assert all(rec.converged for rec in records)
        assert statistics.median(rec.evaluations for rec in records) <= 14
    # the safeguard: no more than three steps in a row that do not halve the
    # bracket, so at most four steps per halving; on the seeded scans that
    # is also at most four times the steps of plain halving
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec in seeded_scan_specs():
            rec = maximize_work(spec)
            if not rec.converged:
                continue
            steps = halvings(slope_of(spec), spec.omega_lo, spec.omega_hi)
            assert len(steps) == rec.evaluations - 2 and "FFFF" not in steps
            reference = oracles.bisection_maximize_work(spec)
            assert rec.evaluations - 2 <= 4 * (reference.evaluations - 2)


@pytest.mark.parametrize("rise", [1e6, 1.0, 1e-6])
def test_bisect_halves_where_regula_falsi_stalls(rise):
    # a step of height 1e6 over -1 puts every regula falsi point within
    # 1e-6 of the bracket's width of hi (1e-6: of lo), and the Illinois rule
    # needs 20 halvings of the kept value to move off it: the safeguard
    # halves the bracket every fourth step instead (about three steps per
    # halving here), and the search ends on the float that halving alone
    # finds
    root = 0.3

    def plain(x):
        plain.calls += 1
        return x < root

    def value(x):
        value.calls += 1
        return rise if x < root else -1.0

    plain.calls = value.calls = 0
    expected = optimize._halve(plain, 0.0, 1.0)
    assert optimize._bisect(value, 0.0, 1.0, (value(0.0), value(1.0))) == expected
    assert value.calls - 2 <= 4 * plain.calls
    assert "FFFF" not in halvings(value, 0.0, 1.0)


def test_a_zero_slope_at_the_window_end_takes_few_evaluations():
    # the slope is exactly 0 at omega_hi, where the regula falsi point of the
    # bracket is hi itself and the Illinois rule halves 0 to 0: each step fell
    # back to halving (55 evaluations).  A zero end is read as a fall of 2**-52
    # of the rise at lo, and the search ends on the same float at once
    spec = ScanSpec(
        0.3153171244138034, 0.4508484746493212, 1.0, "nonmarkov", 1e-3, 1.7199318622493749
    )
    assert slope_of(spec)(spec.omega_hi) == 0.0
    rec = maximize_work(spec)
    assert (rec.omega_H_star, rec.converged) == (1.7199318622493749, True)
    assert rec.evaluations <= 4


def test_bisect_steps_off_a_zero_reached_inside_the_bracket():
    # the first regula falsi point, 0.3, lands on the flat zero of value:
    # the new hi end is read as a small fall, not halved as 0 for every step
    def value(x):
        value.calls += 1
        return 0.3 - x if x < 0.3 or x > 0.6 else 0.0

    value.calls = 0
    got = optimize._bisect(value, 0.0, 1.0, (value(0.0), value(1.0)))
    assert got == optimize._halve(lambda x: 0.3 - x > 0.0, 0.0, 1.0)
    assert value.calls <= 4


@pytest.mark.parametrize("root", [0.3, 1e-300, 5e-324, 1.5, 1e300])
def test_halve_ends_on_the_adjacent_pair_around_a_step(root):
    # pred is true below root and false from it on: the search ends on
    # (prev float, root), the oracle's final halving bracket, and returns
    # their midpoint
    lo, hi = 0.0, 1.7e308
    below = math.nextafter(root, 0.0)
    steps = []

    def pred(x):
        steps.append(x)
        return x < root

    got = optimize._halve(pred, lo, hi)
    assert got == 0.5 * below + 0.5 * root
    assert lo <= min(steps) and max(steps) <= hi and len(steps) <= 2100
    assert oracles.halving_bracket(pred, lo, hi) == (below, root)


@pytest.mark.parametrize("lo, hi", [(NAN, 1.0), (0.0, NAN), (0.0, INF), (-INF, INF), (NAN, NAN)])
def test_halve_stops_on_a_bracket_with_a_nan_or_infinite_end(lo, hi):
    # a NaN midpoint is never equal to an end, and inf halves to inf: the
    # cap of 2100 halvings ends the search
    calls = []

    def pred(x):
        calls.append(x)
        return x < 0.5

    optimize._halve(pred, lo, hi)
    assert len(calls) <= 2100


def test_a_window_that_ends_where_the_slope_is_zero_has_its_maximum_inside():
    # maximize_work reads the slope's sign at the window's ends as _bisect
    # reads it: exactly 0 at omega_hi is falling, so a window that ends on
    # such a gap finds the optimum there, converged and without a warning
    for spec in seeded_scan_specs():
        spec = spec._replace(T_H=1.0, omega_lo=1e-3, omega_hi=20.0)
        slope, star = slope_of(spec), maximize_work(spec).omega_H_star
        zeros = [x for i in range(-200, 200) if slope(x := star + i * math.ulp(star)) == 0.0]
        if zeros:
            break
    assert zeros, "no seeded optimum has a gap where the slope is exactly 0"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = maximize_work(spec._replace(omega_hi=zeros[0]))
    assert rec.converged and rec.omega_H_star <= zeros[0]
    assert is_sign_change(spec, rec.omega_H_star)


def test_three_stroke_inversion_hits_target_efficiency():
    for eta in (0.1, 0.3, 0.45):
        cfg = three_stroke_config_at(eta, 0.5, 1.0)
        assert abs(quiet(three_stroke_report, cfg).eta - eta) < 1e-9


def test_three_stroke_inversion_rejects_unattainable_target():
    # an out-of-range eta is a bad parameter like any other
    for eta in (0.6, 0.5):
        with pytest.raises(InvalidParameterError):
            three_stroke_omega_for_eta(eta, 0.5, 1.0)


@pytest.mark.parametrize("T_H", [math.inf, math.nan, -1.0, True])
def test_three_stroke_inversion_rejects_bad_temperatures(T_H):
    with pytest.raises(InvalidParameterError):
        three_stroke_omega_for_eta(0.3, 0.5, T_H)


@settings(max_examples=300)
@given(eta_C=st.floats(1e-6, 1.0 - 1e-6), T_H=log_uniform(-300.0, 300.0))
@example(eta_C=1e-6, T_H=1e-300)
@example(eta_C=1.0 - 1e-6, T_H=1e300)
def test_three_stroke_branch_needs_no_runtime_probe(eta_C, T_H):
    # the two facts that three_stroke_omega_for_eta proves and does not
    # check at run time: the efficiency is negative at T_H, so [1e-12, 1] * T_H
    # brackets every target, and it never steps up below T_H
    T_C = (1.0 - eta_C) * T_H

    def eta(w):
        return 1.0 - math.expm1(w / T_H) / -math.expm1(-w / T_C)

    assert eta(T_H) < 0.0
    etas = [eta(w) for w in optimize._logspace(1e-6 * T_H, T_H, 32)]
    assert all(b <= a + 1e-12 for a, b in zip(etas, etas[1:]))


@pytest.mark.parametrize(
    "run, searches",
    [
        (lambda: three_stroke_omega_for_eta(0.3, 0.5, 1.0), 1),
        (lambda: work_efficiency_curve(0.5, 1.0, "three_stroke", [0.1, 0.25, 0.4, 0.48]), 4),
        (lambda: COMMANDS["fig5"][1]({**COMMANDS["fig5"][0], "points": 10}), 1),
        (lambda: COMMANDS["fig6"][1]({**COMMANDS["fig6"][0], "points": 10}), 1),
    ],
    ids=["gap", "fig4-curve", "fig5-table", "fig6-table"],
)
def test_the_three_stroke_gap_is_one_search_per_efficiency(monkeypatch, run, searches):
    # no zero-work search: each gap is one bisection on [1e-12, 1] * T_H, in
    # the power-of-two unit of T_H for fig5 and fig6
    calls, halve = [], optimize._halve

    def counted(value, lo, hi):
        calls.append((lo, hi))
        return halve(value, lo, hi)

    monkeypatch.setattr(optimize, "_halve", counted)
    run()
    assert len(calls) == searches
    assert all(lo == 1e-12 * hi for lo, hi in calls)


def test_three_stroke_point_is_reproducible():
    a = three_stroke_omega_for_eta(0.3, 0.5, 1.0)
    b = three_stroke_omega_for_eta(0.3, 0.5, 1.0)
    assert a == b


def test_work_efficiency_curve_ordering_and_endpoint():
    etas = [0.1, 0.25, 0.4, 0.48]
    curves = {
        engine: work_efficiency_curve(0.5, 1.0, engine, etas)
        for engine in ("nonmarkov", "markov", "three_stroke")
    }
    for i in range(len(etas)):
        assert curves["nonmarkov"][i][1] > curves["markov"][i][1] > curves["three_stroke"][i][1]
    # every engine approaches zero work at the Carnot endpoint
    for engine, curve in curves.items():
        assert curve[-1][1] < 0.35 * curve[1][1]


def test_work_efficiency_curve_validation():
    for grid in ([0.3, 0.6], [0.3, math.nan], [0.3, 0.0]):
        with pytest.raises(InvalidParameterError):
            work_efficiency_curve(0.5, 1.0, "nonmarkov", grid)
    with pytest.raises(InvalidParameterError):
        work_efficiency_curve(0.5, 1.0, "diesel", [0.3])


# grids that a scan cannot use; each bad entry follows a good one
BAD_GRIDS = {
    "empty": [],
    "zero": [0.3, 0.0],
    "negative": [0.3, -0.2],
    "nan": [0.3, math.nan],
    "inf": [0.3, math.inf],
    "-inf": [0.3, -math.inf],
}
BAD_ETA_GRIDS = {**BAD_GRIDS, "eta_C": [0.3, 0.5], "above-eta_C": [0.3, 0.6]}
BAD_OMEGA_GRIDS = {kind: (1.0, grid) for kind, grid in BAD_GRIDS.items()}
# in the unit 2**-996 next to T_H = 1e-300, math.ldexp(-1e308, 996) overflows
BAD_OMEGA_GRIDS["-1e308"] = (1e-300, [1e-300, -1e308])


@pytest.mark.parametrize(
    "scan, kind",
    [(engine, kind) for engine in optimize.ENGINES for kind in BAD_ETA_GRIDS]
    + [(horizon, kind) for horizon in optimize.HORIZONS for kind in BAD_OMEGA_GRIDS],
)
def test_every_bad_grid_entry_raises_for_every_engine_and_horizon(scan, kind):
    # fig4 checks an eta where it uses it, by ScanSpec or
    # three_stroke_omega_for_eta; fig5 and fig6 check that every omega_H is
    # positive before the grid is rescaled to the unit next to T_H, and
    # _otto_scan that it is finite
    if scan in optimize.ENGINES:
        with pytest.raises(InvalidParameterError):
            work_efficiency_curve(0.5, 1.0, scan, BAD_ETA_GRIDS[kind])
        return
    T_H, grid = BAD_OMEGA_GRIDS[kind]
    message = "need omega_H > omega_C" if kind == "inf" else "omega_H grid entries must be > 0"
    with pytest.raises(InvalidParameterError, match=message):
        fluctuation_curve(0.3, 0.5, T_H, scan, grid)

def test_public_scans_are_arrays_of_the_table_rows():
    # a numpy grid gives the table rows of the same list grid, in Python floats
    fig1 = eto_vs_thermalization_scan(0.5, np.array([0.5, 2.0]))
    fig4 = work_efficiency_curve(0.5, 1.0, "markov", np.array([0.1, 0.3]))
    fig5 = fluctuation_curve(0.3, 0.5, 1.0, "infinite", np.array([0.5, 1.0]))
    assert fig1 == eto_vs_thermalization_scan(0.5, [0.5, 2.0])
    assert fig4 == work_efficiency_curve(0.5, 1.0, "markov", [0.1, 0.3])
    assert fig5 == fluctuation_curve(0.3, 0.5, 1.0, "infinite", [0.5, 1.0])
    assert [len(row) for row in fig4] == [2, 2]
    assert len(fig5["three_stroke"]) == 3
    tables = [fig1, fig4, fig5["nonmarkov"], fig5["markov"]]
    assert {type(x) for table in tables for row in table for x in row} == {float}


def test_single_cycle_ratio_scales_away_at_small_gap():
    grid = [1e-4, 1e-3, 1e-2]
    data = fluctuation_curve(0.3, 0.5, 1.0, "single_cycle", grid)
    ratios = [row[2] for row in data["nonmarkov"]]
    assert ratios[0] < ratios[1] / 5.0 < ratios[2] / 25.0  # ~ linear in omega_H


def test_infinite_horizon_ratio_does_not_vanish_at_small_gap():
    grid = [1e-3]
    single = fluctuation_curve(0.3, 0.5, 1.0, "single_cycle", grid)
    infinite = fluctuation_curve(0.3, 0.5, 1.0, "infinite", grid)
    # the single-cycle ratio scales away with the gap, the scaled one stays
    # of order one (intercycle correlations pile up)
    assert infinite["nonmarkov"][0][2] > 10.0 * single["nonmarkov"][0][2]
    assert infinite["nonmarkov"][0][2] > 1.0
    # cross-check the scaled ratio against the geometric covariance sum
    # v_inf = Var_1 + 2 Cov_1 / (1 - lambda_2) of the two-state chain
    assert math.isclose(infinite["nonmarkov"][0][2], 1.4584, rel_tol=0.02)


def test_three_stroke_point_below_otto_curves_in_the_long_run():
    grid = np.logspace(-3, math.log10(20.0), 40)
    data = fluctuation_curve(0.3, 0.5, 1.0, "infinite", grid)
    r3 = data["three_stroke"][2]
    assert r3 < min(row[2] for row in data["nonmarkov"])
    assert r3 < min(row[2] for row in data["markov"])


def test_fluctuation_curve_validation():
    with pytest.raises(InvalidParameterError):
        fluctuation_curve(0.3, 0.5, 1.0, "sometimes", [1.0])
    for grid in ([], [1.0, math.nan], [1.0, -1.0]):
        with pytest.raises(InvalidParameterError):
            fluctuation_curve(0.3, 0.5, 1.0, "infinite", grid)
    with pytest.raises(InvalidParameterError):
        fluctuation_curve(0.6, 0.5, 1.0, "infinite", [1.0])


def test_a_carnot_point_in_disguise_has_no_infinite_horizon_ratio():
    # eta is one ulp below eta_C, but 1 - eta rounds to 1 - eta_C, so
    # omega_C / T_C is omega_H / T_H: the work is +0.0 on a primitive cycle,
    # and the scaled mean reaches the ZeroWorkError of _fluctuation_point
    eta = math.nextafter(0.5, 0.0)
    assert 1.0 - eta == 1.0 - 0.5
    with pytest.raises(ZeroWorkError, match="infinite work mean vanishes") as info:
        fluctuation_curve(eta, 0.5, 1.0, "infinite", [1.0])
    assert info.traceback[-1].name == "_fluctuation_point"


def hexed(outcome):
    """An outcome with every float as ``float.hex`` (signed zeros told apart)."""
    if isinstance(outcome, float):
        return outcome.hex()
    if isinstance(outcome, (list, tuple)):
        return [hexed(x) for x in outcome]
    if isinstance(outcome, dict):
        return {k: hexed(v) for k, v in outcome.items()}
    return outcome


def outcome_of(fn, *args):
    """``fn(*args)`` with its floats hexed, or the type and message it raises."""
    try:
        return hexed(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def zero_mean(label: str, omega_H: float) -> ZeroWorkError:
    return ZeroWorkError(ZERO_MEAN.format(label, f"{omega_H:.6g}"))


def cycle_path_point(cycle, horizon: str, omega_H: float) -> tuple[float, float]:
    """Work mean and variance-to-mean ratio by the public statistics of the
    cycle.  A zero mean at either horizon raises at the caller's gap
    ``omega_H``; ``work_moments`` names the cycle's own gap, which is in the
    unit next to ``T_H``."""
    if horizon == "single_cycle":
        try:
            stats = work_moments(cycle, None, 1)
        except ZeroWorkError:
            raise zero_mean("1-cycle", omega_H) from None
        return stats.mean, stats.ratio
    mean, var = scaled_cumulants(cycle)
    if mean == 0.0:
        raise zero_mean(horizon, omega_H)
    return mean, var / mean


def cycle_path_fluctuation_curve(eta, eta_C, T_H, horizon, grid) -> dict:
    """``fluctuation_curve`` through each checked config's ``cycle()``, in
    the unit ``2**e`` next to ``T_H`` (that the unit changes no bit is
    ``test_counting_tables_in_units_of_T_H_are_the_unit_tables``)."""
    e = math.frexp(T_H)[1]
    unit = math.ldexp(T_H, -e)
    out = {}
    for regime in ("nonmarkov", "markov"):
        out[regime] = []
        for omega_H in grid:
            cfg = otto_config_at(eta, eta_C, unit, math.ldexp(omega_H, -e), regime)
            mean, ratio = cycle_path_point(cfg.cycle(), horizon, omega_H)
            out[regime].append([omega_H, mean / unit, ratio / unit])
    cfg3 = three_stroke_config_at(eta, eta_C, unit)
    omega = math.ldexp(cfg3.omega, e)
    mean, ratio = cycle_path_point(cfg3.cycle(), horizon, omega)
    out["three_stroke"] = [omega, mean / unit, ratio / unit]
    return out


# T_H from subnormal to 1e300; windows anywhere in [1e-4, 1e5] * T_H
FLUCTUATION_T_H = st.one_of(
    st.sampled_from([1e-310, 1e-300, 1.0, 37.0, 1e300]), log_uniform(-300.0, 300.0)
)
FLUCTUATION_WINDOW = st.tuples(st.floats(-4.0, 4.9), st.floats(0.1, 2.5))


@settings(max_examples=200)
@given(
    horizon=st.sampled_from(["single_cycle", "infinite"]),
    eta_C=st.floats(1e-6, 1.0 - 1e-6),
    eta_share=_FRACTION,
    T_H=FLUCTUATION_T_H,
    window=FLUCTUATION_WINDOW,
)
@example(horizon="single_cycle", eta_C=0.5, eta_share=0.6, T_H=1.0, window=(-3.0, 4.3))
@example(horizon="infinite", eta_C=0.5, eta_share=0.6, T_H=37.0, window=(-3.0, 4.3))
@example(horizon="infinite", eta_C=0.5, eta_share=0.6, T_H=1.0, window=(2.5, 1.0))  # q underflows
@example(horizon="single_cycle", eta_C=0.5, eta_share=0.6, T_H=1e-310, window=(-4.0, 2.0))
def test_fluctuation_rows_are_the_checked_config_path_anywhere(
    horizon, eta_C, eta_share, T_H, window
):
    # every fig5 row, and the first raise, is that of the checked config's cycle
    eta = eta_C * eta_share
    assume(0.0 < eta < eta_C)
    lo, width = window
    grid = optimize._logspace(T_H * 10.0**lo, T_H * 10.0 ** min(lo + width, 5.0), 9)
    assert outcome_of(fluctuation_curve, eta, eta_C, T_H, horizon, grid) == outcome_of(
        cycle_path_fluctuation_curve, eta, eta_C, T_H, horizon, grid
    )


@pytest.mark.parametrize("horizon", ["single_cycle", "infinite"])
@pytest.mark.parametrize("T_H", [1.0, 37.0])
def test_fluctuation_rows_are_the_checked_config_path(horizon, T_H):
    # the rows are built from floats checked once per table; each must be
    # bitwise the statistics of the checked config's own cycle
    data = fluctuation_curve(0.3, 0.5, T_H, horizon, np.logspace(-3.0, 1.3, 17) * T_H)
    for regime in ("nonmarkov", "markov"):
        for omega_H, W, ratio in data[regime]:
            cycle = otto_config_at(0.3, 0.5, T_H, omega_H, regime).cycle()
            if horizon == "single_cycle":
                stats = work_moments(cycle, cycle.steady_state(), 1)
                mean, mean_ratio = stats.mean, stats.ratio
            else:
                mean, var = scaled_cumulants(cycle)
                mean_ratio = var / mean
            assert (W.hex(), ratio.hex()) == ((mean / T_H).hex(), (mean_ratio / T_H).hex())


def scaled_tables(k: int) -> list:
    """The rows of fig5 at both horizons and of fig6 at ``T_H = 1.5`` and the
    gap grid ``G`` below, both scaled by ``2**k``: fig6 at ``points=2``, whose
    log grid is its window's ends, ``G[0]`` and ``G[-1]``."""
    T_H, grid = math.ldexp(1.5, k), [math.ldexp(w, k) for w in (0.375, 1.5, 6.0, 24.0)]
    curves = [fluctuation_curve(0.3, 0.5, T_H, horizon, grid) for horizon in optimize.HORIZONS]
    tables = [[*c["nonmarkov"], *c["markov"], c["three_stroke"]] for c in curves]
    p = {**COMMANDS["fig6"][0], "T_H": T_H, "omega_lo": grid[0], "omega_hi": grid[-1], "points": 2}
    return [*tables, [row[1:] for row in COMMANDS["fig6"][1](p)[1]]]


@pytest.mark.parametrize("k", [-1060, -1030, -700, -1, 1, 64, 700, 1000])
def test_fluctuation_rows_are_scale_covariant_bit_for_bit(k):
    # Scaling T_H and the gaps by a power of two scales the unit next to
    # T_H and leaves every float in it unchanged, so the W, variance-to-mean
    # and PCC columns, in units of T_H, are the same floats, down to a
    # subnormal T_H (k = -1060, -1030), where the grid's few mantissa bits
    # are still exact.  Each Otto gap is the scaled one.
    for base, scaled in zip(scaled_tables(0), scaled_tables(k), strict=True):
        assert hexed([row[1:] for row in scaled]) == hexed([row[1:] for row in base])
        assert [row[0] for row in scaled[:-1]] == [math.ldexp(row[0], k) for row in base[:-1]]


def cycle_path_fig6(p: dict) -> list:
    """fig6's rows through each checked config's ``cycle()``, in the unit
    ``2**e`` next to ``T_H`` as in ``cycle_path_fluctuation_curve``: each row
    builds its cycle and takes the work and the PCC, then the three-stroke
    point does."""
    eta, eta_C, T_H = p["eta"], p["eta_C"], p["T_H"]
    e = math.frexp(T_H)[1]
    unit = math.ldexp(T_H, -e)
    rows = []
    for omega_H in _log_grid(p, "omega_lo", "omega_hi"):
        c = otto_config_at(eta, eta_C, unit, math.ldexp(omega_H, -e), "nonmarkov").cycle()
        rows.append([ENGINE_CODES["nonmarkov"], omega_H, c.work() / unit, intercycle_pcc(c, None)])
    cfg3 = three_stroke_config_at(eta, eta_C, unit)
    c = cfg3.cycle()
    gap = math.ldexp(cfg3.omega, e)
    rows.append([ENGINE_CODES["three_stroke"], gap, c.work() / unit, intercycle_pcc(c, None)])
    return rows


@settings(max_examples=200)
@given(
    eta_C=st.floats(1e-6, 1.0 - 1e-6),
    eta_share=_FRACTION,
    T_H=FLUCTUATION_T_H,
    window=FLUCTUATION_WINDOW,
)
@example(eta_C=0.5, eta_share=0.6, T_H=1.0, window=(-3.0, 4.0))
@example(eta_C=0.5, eta_share=0.6, T_H=1.0, window=(2.5, 1.0))  # the PCC's zero variance
@example(eta_C=0.5, eta_share=0.6, T_H=1e-310, window=(-4.0, 2.0))
def test_fig6_rows_are_the_checked_config_path(eta_C, eta_share, T_H, window):
    eta = eta_C * eta_share
    assume(0.0 < eta < eta_C)
    lo, width = window
    p = {
        **COMMANDS["fig6"][0],
        "eta": eta,
        "eta_C": eta_C,
        "T_H": T_H,
        "omega_lo": T_H * 10.0**lo,
        "omega_hi": T_H * 10.0 ** min(lo + width, 5.0),
        "points": 9,
    }
    assert outcome_of(lambda: COMMANDS["fig6"][1](p)[1]) == outcome_of(cycle_path_fig6, p)
