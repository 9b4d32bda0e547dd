import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermalops import (
    BisectionError,
    DegenerateCycleError,
    InvalidParameterError,
    MultimodalScanWarning,
    NoInteriorMaximumWarning,
    OttoConfig,
    ScanSpec,
    full_thermalization_lambda,
    fluctuation_curve,
    maximize_work,
    otto_work,
    three_stroke_omega_for_eta,
    work_at,
    work_efficiency_curve,
)
from thermalops import optimize
from thermalops.cli import COMMANDS, _log_grid, _run_sweep
from thermalops.optimize import _golden_max, otto_config_at, three_stroke_config_at
from thermalops.three_stroke import three_stroke_report


def test_golden_section_on_synthetic_unimodal():
    x, fx, evals = _golden_max(lambda x: -((x - 3.7) ** 2) + 2.0, 1.0, 10.0)
    assert abs(x - 3.7) < 5e-8
    assert abs(fx - 2.0) < 1e-14
    assert evals > 2


def test_scan_spec_validation():
    with pytest.raises(InvalidParameterError):
        ScanSpec(0.5, 0.5, 1.0, "nonmarkov")
    with pytest.raises(InvalidParameterError):
        ScanSpec(0.3, 0.5, 1.0, "bogus")
    with pytest.raises(InvalidParameterError):
        ScanSpec(0.3, 0.5, 1.0, "markov", omega_lo=2.0, omega_hi=1.0)


@pytest.mark.parametrize("field, value", [("grid_size", 200.0), ("omega_hi", math.inf)])
def test_scan_spec_rejects_bad_scan_inputs(field, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        with pytest.raises(InvalidParameterError):
            ScanSpec(0.3, 0.5, 1.0, "markov", **{field: value})


def test_work_at_carnot_point_vanishes():
    assert abs(work_at(0.5, 0.5, 1.0, 1.3, "markov")) < 1e-14
    assert abs(work_at(0.5, 0.5, 1.0, 1.3, "nonmarkov")) < 1e-14


def test_work_vanishes_with_the_gap():
    for regime in ("markov", "nonmarkov"):
        assert abs(work_at(0.3, 0.5, 1.0, 1e-6, regime)) < 1e-5


def exact_otto_work(cfg, prec: int = 50) -> Decimal:
    """Otto work of the config's binary64 fields evaluated in decimal at
    ``prec`` digits: both heat maps, their product ``L_C L_H``, its fixed
    point ``p1`` and ``W = (omega_H - omega_C) * (p_e2 - p_e1)``."""
    with localcontext() as ctx:
        ctx.prec = prec
        w_H, w_C, T_H, T_C, l_H, l_C = (
            Decimal(x)
            for x in (cfg.omega_H, cfg.omega_C, cfg.T_H, cfg.T_C, cfg.lambda_H, cfg.lambda_C)
        )

        def heat(omega, T, lam):
            q = (-omega / T).exp()
            return [[1 - lam * q, lam], [lam * q, 1 - lam]]

        hot, cold = heat(w_H, T_H, l_H), heat(w_C, T_C, l_C)
        cyc = [[sum(cold[i][k] * hot[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        up, down = cyc[1][0], cyc[0][1]
        p_e1 = up / (up + down)
        p_e2 = hot[1][0] * (1 - p_e1) + hot[1][1] * p_e1
        return (w_H - w_C) * (p_e2 - p_e1)


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


def conditioning(cfg) -> float:
    """Relative condition number of ``q_H - q_C`` under relative errors in
    ``a = omega_H / T_H`` and ``b = omega_C / T_C``:
    ``(a q_H + b q_C) / |q_H - q_C|``, which is ``(a + b) / |a - b|`` as
    ``a -> b``."""
    with localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(cfg.omega_H) / Decimal(cfg.T_H)
        b = Decimal(cfg.omega_C) / Decimal(cfg.T_C)
        q_H, q_C = (-a).exp(), (-b).exp()
        if q_H == q_C:
            return math.inf
        return float((a * q_H + b * q_C) / abs(q_H - q_C))


def log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


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


_EPS = 2.0**-52


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
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
    if err > Decimal((cfg.work_quantum + 1.0) * 2.0**-1000):
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
    grid = np.logspace(math.log10(spec.omega_lo), math.log10(spec.omega_hi), spec.grid_size)
    best_coarse = max(work_at(0.3, 0.5, 1.0, w, "nonmarkov") for w in grid)
    assert rec1.W_star >= best_coarse - 1e-12
    assert rec1.converged
    assert rec1.evaluations >= spec.grid_size


def test_maximize_work_warns_on_endpoint_maximum():
    spec = ScanSpec(0.3, 0.5, 1.0, "nonmarkov", omega_lo=1e-3, omega_hi=1e-2, grid_size=20)
    with pytest.warns(NoInteriorMaximumWarning):
        rec = maximize_work(spec)
    assert not rec.converged


def checked_config_work(eta, eta_C, T_H, omega_H, regime) -> str:
    """The work through a checked ``OttoConfig``, as ``float.hex`` (which
    tells the signed zeros apart)."""
    cfg = otto_config_at(eta, eta_C, T_H, omega_H, regime)
    if regime == "markov":  # full thermalization at each bath, at beta = 1 / T
        assert cfg.lambda_H == full_thermalization_lambda(cfg.omega_H, 1.0 / cfg.T_H)
        assert cfg.lambda_C == full_thermalization_lambda(cfg.omega_C, 1.0 / cfg.T_C)
    return (otto_work(cfg) / T_H).hex()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
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
    seen, real_curve = [], optimize._work_curve

    def recording_curve(*scalars):
        work = real_curve(*scalars)

        def recorded(w):
            seen.append((w, work(w)))
            return seen[-1][1]

        return recorded

    spec = ScanSpec(eta, eta_C, T_H, regime, omega_lo=omega_H, omega_hi=8.0 * omega_H, grid_size=7)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(optimize, "_work_curve", recording_curve)
        warnings.simplefilter("ignore")  # endpoint and tie warnings are not at issue
        rec = maximize_work(spec)
    assert len(seen) == rec.evaluations
    for w, W in seen:
        assert W.hex() == checked_config_work(eta, eta_C, T_H, w, regime)


def test_maximize_work_refines_tied_peaks(monkeypatch):
    # two separated local maxima within 1e-6 of each other: both get
    # refined and the larger one wins
    def bimodal(omega_H):
        x = math.log(omega_H)
        peak_a = math.exp(-50.0 * (x - math.log(1.0)) ** 2)
        peak_b = (1.0 - 5e-7) * math.exp(-50.0 * (x - math.log(4.0)) ** 2)
        return peak_a + peak_b

    monkeypatch.setattr("thermalops.optimize._work_curve", lambda eta, eta_C, T_H, regime: bimodal)
    spec = ScanSpec(0.3, 0.5, 1.0, "nonmarkov", omega_lo=0.25, omega_hi=16.0, grid_size=60)
    with pytest.warns(MultimodalScanWarning):
        rec = maximize_work(spec)
    assert abs(rec.W_star - 1.0) < 1e-10
    assert abs(rec.omega_H_star - 1.0) < 1e-6


def test_three_stroke_inversion_hits_target_efficiency():
    for eta in (0.1, 0.3, 0.45):
        cfg = three_stroke_config_at(eta, 0.5, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert abs(three_stroke_report(cfg).eta - eta) < 1e-9


def test_three_stroke_inversion_rejects_unattainable_target():
    with pytest.raises(BisectionError):
        three_stroke_omega_for_eta(0.6, 0.5, 1.0)
    with pytest.raises(BisectionError):
        three_stroke_omega_for_eta(0.5, 0.5, 1.0)


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
        assert curves["nonmarkov"][i, 1] > curves["markov"][i, 1] > curves["three_stroke"][i, 1]
    # every engine approaches zero work at the Carnot endpoint
    for engine, curve in curves.items():
        assert curve[-1, 1] < 0.35 * curve[1, 1]


def test_work_efficiency_curve_validation():
    with pytest.raises(InvalidParameterError):
        work_efficiency_curve(0.5, 1.0, "nonmarkov", [0.3, 0.6])
    with pytest.raises(InvalidParameterError):
        work_efficiency_curve(0.5, 1.0, "diesel", [0.3])


def test_single_cycle_ratio_scales_away_at_small_gap():
    grid = [1e-4, 1e-3, 1e-2]
    data = fluctuation_curve(0.3, 0.5, 1.0, "single_cycle", grid)
    ratios = data["nonmarkov"][:, 2]
    assert ratios[0] < ratios[1] / 5.0 < ratios[2] / 25.0  # ~ linear in omega_H


def test_infinite_horizon_ratio_does_not_vanish_at_small_gap():
    grid = [1e-3]
    single = fluctuation_curve(0.3, 0.5, 1.0, "single_cycle", grid)
    infinite = fluctuation_curve(0.3, 0.5, 1.0, "infinite", grid)
    # the single-cycle ratio scales away with the gap, the scaled one stays
    # of order one (intercycle correlations pile up)
    assert infinite["nonmarkov"][0, 2] > 10.0 * single["nonmarkov"][0, 2]
    assert infinite["nonmarkov"][0, 2] > 1.0
    # cross-check the scaled ratio against the geometric covariance sum
    # v_inf = Var_1 + 2 Cov_1 / (1 - lambda_2) of the two-state chain
    assert math.isclose(infinite["nonmarkov"][0, 2], 1.4584, rel_tol=0.02)


def test_three_stroke_point_below_otto_curves_in_the_long_run():
    grid = np.logspace(-3, math.log10(20.0), 40)
    data = fluctuation_curve(0.3, 0.5, 1.0, "infinite", grid)
    r3 = data["three_stroke"][2]
    assert r3 < data["nonmarkov"][:, 2].min()
    assert r3 < data["markov"][:, 2].min()


def test_fluctuation_curve_validation():
    with pytest.raises(InvalidParameterError):
        fluctuation_curve(0.3, 0.5, 1.0, "sometimes", [1.0])
    with pytest.raises(InvalidParameterError):
        fluctuation_curve(0.3, 0.5, 1.0, "infinite", [])
    with pytest.raises(InvalidParameterError):
        fluctuation_curve(0.6, 0.5, 1.0, "infinite", [1.0])
