import itertools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from thermalops import (
    ConsistencyError,
    CountingOverflowError,
    DegenerateCycleError,
    EnumerationSizeError,
    InvalidParameterError,
    NonPrimitiveMapError,
    OttoConfig,
    PopulationVector,
    RegimeMismatchError,
    ThreeStrokeConfig,
    WorkDistribution,
    ZeroVarianceError,
    ZeroWorkError,
    cumulant_gf,
    enumerate_work_distribution,
    eto,
    intercycle_pcc,
    otto_cycle_report,
    otto_steady_state,
    otto_work,
    pcc_three_stroke_exact,
    scaled_cumulants,
    three_stroke_report,
    three_stroke_steady_state,
    tilted_map_otto,
    tilted_map_three_stroke,
    work_moments,
)
from thermalops.fcs import _cycle_branches, _pair_sum
from thermalops.maps import Cycle, GibbsStochasticMatrix, WorkStroke

from oracles import float_cycle, otto_config, quiet, three_stroke_config

LN2 = math.log(2.0)
LN4 = math.log(4.0)
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])  # population map of the three-stroke flip


def random_otto(rng):
    a = rng.uniform(0.4, 2.2)
    return otto_config(a, a * rng.uniform(1.15, 2.2), rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0))


def random_three_stroke(rng, min_bias=0.05):
    while True:
        cfg = three_stroke_config(
            rng.uniform(0.25, 1.2),
            rng.uniform(1.3, 3.0),
            rng.uniform(0.3, 2.0),
            rng.uniform(0.5, 1.0),
            rng.uniform(0.5, 1.0),
        )
        if abs(2.0 * quiet(three_stroke_report, cfg).p2.p_e - 1.0) >= min_bias:
            return cfg


def tilted_and_steady(cfg):
    if isinstance(cfg, OttoConfig):
        return tilted_map_otto(cfg), otto_steady_state(cfg)
    return tilted_map_three_stroke(cfg), three_stroke_steady_state(cfg)


def bits(value):
    """``value`` with every float, also in nested tuples, as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    return tuple(map(bits, value)) if isinstance(value, tuple) else value


# --- independent brute-force path oracle (kept deliberately naive) ---


def brute_force_paths(cfg, n):
    """All 4^n per-start trajectories as (probability, per-cycle works)."""
    hot = np.array(cfg.cycle().strokes[0].entries).reshape(2, 2)
    cold = np.array(cfg.cycle().strokes[2].entries).reshape(2, 2)
    is_otto = isinstance(cfg, OttoConfig)
    _, p1 = tilted_and_steady(cfg)
    quantum = cfg.cycle().quantum
    paths = []
    for start, p0 in ((0, p1.p_g), (1, p1.p_e)):
        for choices in itertools.product(range(4), repeat=n):
            prob, state, works = p0, start, []
            for c in choices:
                first, end = c >> 1, c & 1
                if is_otto:
                    prob *= hot[first, state] * cold[end, first]
                    works.append(quantum * ((first == 1) - (end == 1)))
                else:
                    prob *= hot[first, state] * cold[end, 1 - first]
                    works.append(quantum * (1 if first == 1 else -1))
                state = end
            paths.append((prob, tuple(works)))
    return paths


def distribution_from_paths(paths):
    agg = {}
    for prob, works in paths:
        key = round(sum(works), 12)
        agg[key] = agg.get(key, 0.0) + prob
    return agg


# --- tilted maps ---


def test_tilted_otto_untilted_limit():
    cfg = otto_config(LN2, LN4)
    tmap = tilted_map_otto(cfg)
    hot, cold = (np.array(m.entries).reshape(2, 2) for m in cfg.cycle().strokes[:3:2])
    np.testing.assert_allclose(np.array(tmap.tilted(0.0)).reshape(2, 2), cold @ hot, atol=1e-15)


def test_tilted_three_stroke_untilted_limit():
    cfg = three_stroke_config(0.5, 1.5)
    tmap = tilted_map_three_stroke(cfg)
    hot, cold = (np.array(m.entries).reshape(2, 2) for m in cfg.cycle().strokes[:3:2])
    composed = cold @ SWAP @ hot
    np.testing.assert_allclose(np.array(tmap.tilted(0.0)).reshape(2, 2), composed, atol=1e-15)


def test_tilted_entries_nonnegative():
    rng = np.random.default_rng(13)
    tmap, _ = tilted_and_steady(random_otto(rng))
    for chi in rng.uniform(-5.0, 5.0, size=20):
        assert min(tmap.tilted(chi)) >= 0.0


def test_gf_normalization_and_overflow_guard():
    rng = np.random.default_rng(14)
    tmap, p1 = tilted_and_steady(random_otto(rng))
    for n in (1, 2, 5, 20):
        assert abs(cumulant_gf(tmap, p1, n, 0.0)) < 1e-12
    with pytest.raises(CountingOverflowError):
        cumulant_gf(tmap, p1, 50, 1e4 / tmap.quantum)  # the weights overflow first
    # every weight is finite here, so the exponent budget itself refuses N
    cycle = OttoConfig(1.0, 0.6, 1.0, 0.5, 1.0, 1.0).cycle()
    with pytest.raises(CountingOverflowError, match="exceeds the exponent budget 600.0"):
        cumulant_gf(cycle, cycle.steady_state(), 1000, 1.0 / cycle.quantum)
    assert math.isfinite(cumulant_gf(cycle, cycle.steady_state(), 599, 1.0 / cycle.quantum))
    for chi in (0.0, 0.1):  # N is no float: the budget product would raise OverflowError
        with pytest.raises(CountingOverflowError, match="binary64"):
            cumulant_gf(tmap, p1, 10**400, chi)
    with pytest.raises(InvalidParameterError):
        cumulant_gf(tmap, p1, 0, 0.1)


def test_single_cycle_mean_matches_reports():
    cfg = otto_config(LN2, LN4)
    w_otto = quiet(otto_cycle_report, cfg).W
    tmap, p1 = tilted_and_steady(cfg)
    assert math.isclose(work_moments(tmap, p1, 1).mean, w_otto, rel_tol=1e-9)

    cfg3 = three_stroke_config(math.log(1.2), LN4)
    w3 = quiet(three_stroke_report, cfg3).W
    tmap3, p13 = tilted_and_steady(cfg3)
    assert math.isclose(work_moments(tmap3, p13, 1).mean, w3, rel_tol=1e-9)


# --- enumeration oracle ---


def test_enumeration_matches_brute_force():
    rng = np.random.default_rng(15)
    for make in (random_otto, random_three_stroke):
        for _ in range(4):
            cfg = make(rng)
            for n in (1, 2, 3):
                brute = distribution_from_paths(brute_force_paths(cfg, n))
                dist = enumerate_work_distribution(cfg, n)
                packaged = {round(w, 12): p for w, p in dist.support}
                for key, prob in brute.items():
                    assert abs(packaged.get(key, 0.0) - prob) < 1e-12


def test_gf_equals_log_mgf_of_distribution():
    rng = np.random.default_rng(16)
    cfg = random_otto(rng)
    tmap, p1 = tilted_and_steady(cfg)
    for n in (1, 3):
        dist = enumerate_work_distribution(cfg, n)
        for chi in rng.uniform(-1.0, 1.0, size=5) / tmap.quantum:
            expected = math.log(math.fsum(p * math.exp(chi * w) for w, p in dist.support))
            assert math.isclose(cumulant_gf(tmap, p1, n, chi), expected, abs_tol=1e-12)


def test_gf_matches_a_60_digit_power_at_up_to_a_billion_cycles():
    # No entry of M is negative, so a 2x2 product rounds each entry by a few
    # ulp relative, and the N-th power of M by about N ulp; rounding chi *
    # work moves ln M^N by about |chi| N Delta ulp.  Over these draws the
    # worst error was 1.77 (N + |chi| N Delta) 2^-53, both for numpy's
    # matrix_power of the same M and for the float powering.
    rng = np.random.default_rng(29)
    draws = [(random_otto(rng), 10**9, 500.0), (random_three_stroke(rng), 10**9, 500.0)]
    for make in (random_otto, random_three_stroke) * 100:
        draws.append((make(rng), round(10 ** rng.uniform(0.0, 9.0)), rng.uniform(0.0, 500.0)))
    for cfg, n, x in draws:
        cycle = cfg.cycle()
        p1, exact = cycle.steady_state(), float_cycle(cycle, prec=60)
        for chi in (x / (n * cycle.quantum), -x / (n * cycle.quantum)):
            error = abs(Decimal(cumulant_gf(cycle, p1, n, chi)) - exact.cumulant_gf(p1, n, chi))
            assert error <= 2.0 * (n + x) * 2.0**-53, (cfg, n, chi)


def test_moments_match_enumeration():
    rng = np.random.default_rng(17)
    for make in (random_otto, random_three_stroke):
        for _ in range(6):
            cfg = make(rng)
            tmap, p1 = tilted_and_steady(cfg)
            for n in (1, 2, 3, 4):
                dist = enumerate_work_distribution(cfg, n)
                stats = work_moments(tmap, p1, n)
                assert math.isclose(stats.mean, dist.mean(), rel_tol=1e-12)
                assert math.isclose(stats.variance, dist.variance(), rel_tol=1e-12)


def exact_pair_sum(n, g):
    """``sum_{d=1}^{n-1} (n - d) mu^(d-1)`` at ``mu = 1 - g``, in rationals."""
    mu = 1 - Fraction(g)
    total = Fraction(0)
    for d in range(n - 1, 0, -1):  # Horner, highest power of mu first
        total = total * mu + (n - d)
    return total


@settings(max_examples=400)
@given(
    n=st.integers(1, 300),
    g=st.one_of(st.floats(0.0, 2.0), st.floats(1e-12, 1e-1).map(lambda x: x * x)),
)
@example(n=1, g=0.5)
@example(n=5, g=0.0)  # mu = 1: n (n - 1) / 2
@example(n=300, g=1.0 / 300.0)  # n g at 1: the series meets expm1
@example(n=300, g=math.nextafter(1.0 / 300.0, 0.0))
@example(n=300, g=0.999)  # mu = 0.001, just inside the expm1 branch
@example(n=299, g=2.0)  # mu = -1
@example(n=300, g=1.5)
def test_pair_sum_matches_exact_rationals(n, g):
    expected = exact_pair_sum(n, g)
    assert abs(Fraction(_pair_sum(n, g)) - expected) <= 2e-15 * expected


@settings(max_examples=150)
@given(
    engine=st.sampled_from([random_otto, random_three_stroke]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 10**18),
)
@example(engine=random_otto, seed=0, n=10**18)
def test_work_moments_are_finite_at_large_n(engine, seed, n):
    cfg = engine(np.random.default_rng(seed))
    tmap, p1 = tilted_and_steady(cfg)
    stats = work_moments(tmap, p1, n)
    mean, _ = scaled_cumulants(tmap)
    assert math.isfinite(stats.mean) and math.isfinite(stats.variance)
    assert stats.variance >= 0.0
    assert math.isclose(stats.mean, n * mean, rel_tol=1e-14)


def test_work_moments_at_a_billion_cycles():
    cfg = OttoConfig(1.0, 0.7, 1.0, 0.5, 1.0, 1.0)
    tmap, p1 = tilted_and_steady(cfg)
    n = 10**9
    stats = work_moments(tmap, p1, n)
    assert math.isfinite(stats.variance)
    assert stats.mean == n * otto_work(cfg)
    _, scaled_var = scaled_cumulants(tmap)
    assert math.isclose(stats.variance / n, scaled_var, rel_tol=1e-8)


def test_deterministic_work_has_zero_variance_at_any_count():
    # the steady state is p_e = 1, so v1 = c = 0; S_N overflows at N = 10**297,
    # where 2 c S_N was 0 * inf = NaN
    cycle = OttoConfig(1e10, 1.0, 1e24, 1e19, 1.0, 1.0).cycle()
    for n in (1000, 10**200, 10**297):
        stats = work_moments(cycle, None, n)
        assert stats.variance == 0.0 and math.isfinite(stats.mean)


def test_a_zero_variance_stays_zero_where_the_quantum_squared_overflows():
    # a quantum near 1e300: 0 quanta^2 is 0 in energy squared, where 0.0 * inf
    # was NaN and read as an overflow
    deterministic = OttoConfig(1e300, 1.0, 1.7e308, 1e290, 1.0, 1.0).cycle()
    assert work_moments(deterministic, None, 1) == (1, -1e300, 0.0, -0.0)
    vanishing = OttoConfig.nonmarkov(1e300, 0.7e300, 1.0, 0.5).cycle()  # exp(-1e300) is 0
    with pytest.raises(ZeroWorkError, match="1-cycle work mean vanishes at gap 1e\\+300"):
        work_moments(vanishing, None, 1)


def test_work_moments_overflow_is_typed():
    # S_N ~ N / (1 - mu) with 1 - mu ~ 2e-3 at this gap: Var_N exceeds binary64
    tmap, p1 = tilted_and_steady(OttoConfig.nonmarkov(1e-3, 7e-4, 1.0, 0.5))
    assert math.isfinite(work_moments(tmap, p1, 10**300).variance)
    with pytest.raises(CountingOverflowError):
        work_moments(tmap, p1, 10**307)
    with pytest.raises(CountingOverflowError):
        work_moments(tmap, p1, 10**309)  # not even a float
    # a quantum of 3e299: one cycle's variance, in energy squared, is beyond binary64
    huge = tilted_map_otto(OttoConfig.nonmarkov(1e300, 0.7e300, 1e300, 0.5e300))
    with pytest.raises(CountingOverflowError):
        work_moments(huge, None, 1)
    with pytest.raises(CountingOverflowError):
        scaled_cumulants(huge)
    # omega / T is about 2e-309: the 7-cycle mean is subnormal, and the
    # finite variance over it overflows
    for cfg in (
        ThreeStrokeConfig(0.3, 1.7e308, 0.85e308, 0.5, 0.0),
        OttoConfig(0.3, 0.18, 1.7e308, 0.85e308, 0.5, 0.5),
    ):
        cycle = cfg.cycle()
        assert 0.0 < abs(7 * cycle.work()) < 2.2250738585072014e-308
        with pytest.raises(CountingOverflowError, match="ratio"):
            work_moments(cycle, None, 7)


def test_statistics_reject_a_p1_that_is_not_the_steady_state():
    # from the ground state the 3-cycle mean is 0.14596 and the PCC 0.1493,
    # not the stationary 3 * W and 0.1944 that the closed form gives
    cfg = OttoConfig.nonmarkov(1.0, 0.7, 1.0, 0.5)
    tmap, steady = tilted_and_steady(cfg)
    ground = PopulationVector(1.0, 0.0)
    with pytest.raises(InvalidParameterError, match="not the steady state"):
        work_moments(tmap, ground, 3)
    with pytest.raises(InvalidParameterError, match="not the steady state"):
        intercycle_pcc(tmap, ground)
    assert work_moments(tmap, steady, 3).mean == 3 * otto_work(cfg)
    assert math.isclose(intercycle_pcc(tmap, steady), 0.19435777017457537, rel_tol=1e-15)
    # a copy within DRIFT_RENORM = 1e-12 in p_e is checked, not used
    near = PopulationVector(steady.p_g + 8e-13, steady.p_e - 8e-13)
    assert work_moments(tmap, near, 3) == work_moments(tmap, steady, 3)
    assert work_moments(tmap, None, 3) == work_moments(tmap, steady, 3)  # no p1, no check
    assert intercycle_pcc(tmap, near) == intercycle_pcc(tmap, steady)
    assert intercycle_pcc(tmap, None) == intercycle_pcc(tmap, steady)  # no p1, no check
    far = PopulationVector(steady.p_g + 2e-12, steady.p_e - 2e-12)
    with pytest.raises(InvalidParameterError):
        work_moments(tmap, far, 3)
    with pytest.raises(InvalidParameterError):
        intercycle_pcc(tmap, far)


def test_identity_cycle_statistics_are_degenerate():
    tmap = tilted_map_otto(OttoConfig(1.0, 0.5, 1.0, 0.5, 0.0, 0.0))  # identity cycle map
    p1 = PopulationVector(0.5, 0.5)
    with pytest.raises(DegenerateCycleError):
        work_moments(tmap, p1, 2)
    with pytest.raises(DegenerateCycleError):
        intercycle_pcc(tmap, p1)


@pytest.mark.parametrize("chi", [math.nan, math.inf, -math.inf])
def test_non_finite_counting_field_is_a_parameter_error(chi):
    tmap, p1 = tilted_and_steady(OttoConfig.nonmarkov(1.0, 0.5, 1.0, 0.5))
    with pytest.raises(InvalidParameterError, match="counting field must be finite"):
        tmap.tilted(chi)
    with pytest.raises(InvalidParameterError, match="counting field must be finite"):
        cumulant_gf(tmap, p1, 3, chi)


def test_counting_weight_overflow_is_typed():
    # exp(2000 * 0.5) is beyond binary64
    tmap = tilted_map_otto(OttoConfig(1.0, 0.5, 1.0, 0.5, 1.0, 1.0))
    with pytest.raises(CountingOverflowError):
        tmap.tilted(2000.0)
    with pytest.raises(CountingOverflowError):
        tmap.tilted(-2000.0)
    assert all(map(math.isfinite, tmap.tilted(1400.0)))


def test_vanishing_work_mean_is_typed():
    # exp(-1100) underflows to 0 at both baths: the work mean is exactly 0
    tmap, p1 = tilted_and_steady(OttoConfig.nonmarkov(1100.0, 770.0, 1.0, 0.5))
    for n in (1, 7):
        with pytest.raises(ZeroWorkError, match="work mean vanishes"):
            work_moments(tmap, p1, n)


def test_distribution_mean_is_n_times_cycle_work():
    rng = np.random.default_rng(18)
    cfg = random_otto(rng)
    w = quiet(otto_cycle_report, cfg).W
    for n in (1, 2, 5):
        assert math.isclose(enumerate_work_distribution(cfg, n).mean(), n * w, rel_tol=1e-12)


def test_eto_cooling_from_excited_is_deterministic():
    # excited -> excited through the cool stroke is forbidden under ETO, so
    # every zero-work cycle must come from the ground -> ground branch alone
    cfg = otto_config(0.8, 1.6)
    hot = np.array(cfg.cycle().strokes[0].entries).reshape(2, 2)
    cold = np.array(cfg.cycle().strokes[2].entries).reshape(2, 2)
    assert cold[1, 1] == 0.0
    dist = enumerate_work_distribution(cfg, 1)
    zero = {round(w, 12): p for w, p in dist.support}.get(0.0, 0.0)
    p1 = otto_steady_state(cfg)
    expected_gg = (p1.p_g * hot[0, 0] + p1.p_e * hot[0, 1]) * cold[0, 0]
    assert math.isclose(zero, expected_gg, abs_tol=1e-14)


def test_three_stroke_two_point_support():
    cfg = three_stroke_config(math.log(1.2), LN4)
    p2 = quiet(three_stroke_report, cfg).p2
    dist = enumerate_work_distribution(cfg, 1)
    assert [w for w, _ in dist.support] == [-cfg.omega, cfg.omega]
    probs = dict(dist.support)
    assert math.isclose(probs[cfg.omega], p2.p_e, abs_tol=1e-14)
    # two-point distribution at +-omega
    tmap, p1 = tilted_and_steady(cfg)
    stats = work_moments(tmap, p1, 1)
    expected_var = 4.0 * p2.p_e * (1.0 - p2.p_e) * cfg.omega**2
    assert math.isclose(stats.variance, expected_var, rel_tol=1e-10)


def test_enumeration_limits():
    cfg = otto_config(LN2, LN4)
    with pytest.raises(EnumerationSizeError):
        enumerate_work_distribution(cfg, 13)
    with pytest.raises(InvalidParameterError):
        enumerate_work_distribution(cfg, 0)
    with pytest.raises(InvalidParameterError):
        enumerate_work_distribution("not a config", 2)


def test_work_distribution_validation():
    with pytest.raises(ConsistencyError):
        WorkDistribution(1, 1.0, ((1.0, 0.6), (-1.0, 0.6)))
    with pytest.raises(ConsistencyError):
        WorkDistribution(1, 1.0, ((0.5, 1.0),))  # off-lattice support
    with pytest.raises(ConsistencyError, match="negative probability -0.5"):
        WorkDistribution(1, 1.0, ((0.0, 1.5), (1.0, -0.5)))  # sums to 1


def test_work_distribution_keeps_the_pairs_it_read():
    # a generator is spent by the checks; the record keeps the pairs as a tuple
    pairs = [(1.0, 0.25), (-1.0, 0.75)]
    records = [
        WorkDistribution(1, 1.0, support)
        for support in ((pair for pair in pairs), pairs, tuple(pairs), [list(p) for p in pairs])
    ]
    assert all(dist == records[2] and dist.support == tuple(pairs) for dist in records)
    assert {(dist.mean(), dist.variance()) for dist in records} == {(-0.5, 0.75)}


def test_enumeration_from_a_state_of_zero_weight():
    # q = e^-800 is 0.0, so the hot ETO empties e and the steady state is
    # exactly g: paths from e carry weight 0 and the support is one point
    cfg = OttoConfig(800.0, 400.0, 1.0, 0.5, 1.0, 1.0)
    assert cfg.cycle().steady_state().p_e == 0.0
    for n in (1, 2, 12):
        assert enumerate_work_distribution(cfg, n).support == ((0.0, 1.0),)


# --- correlations and scaled cumulants ---


def test_markov_otto_variance_is_linear_in_n():
    rng = np.random.default_rng(19)
    for _ in range(5):
        a = rng.uniform(0.3, 2.0)
        b = a * rng.uniform(1.1, 2.0)
        base = otto_config(a, b)
        cfg = OttoConfig.markov(base.omega_H, base.omega_C, base.T_H, base.T_C)
        tmap, p1 = tilted_and_steady(cfg)
        var1 = work_moments(tmap, p1, 1).variance
        for n in (2, 3, 7):
            assert math.isclose(work_moments(tmap, p1, n).variance, n * var1, rel_tol=1e-9)


def test_markov_otto_pcc_vanishes():
    rng = np.random.default_rng(20)
    for _ in range(10):
        a = rng.uniform(0.3, 2.2)
        b = a * rng.uniform(1.1, 2.2)
        base = otto_config(a, b)
        cfg = OttoConfig.markov(base.omega_H, base.omega_C, base.T_H, base.T_C)
        tmap, p1 = tilted_and_steady(cfg)
        assert abs(intercycle_pcc(tmap, p1)) <= 1e-9


def test_three_stroke_pcc_closed_form():
    for bh, bc in ((math.log(1.2), LN4), (0.3, 0.9), (0.7, 2.1)):
        cfg = three_stroke_config(bh, bc)
        tmap, p1 = tilted_and_steady(cfg)
        assert math.isclose(intercycle_pcc(tmap, p1), -math.exp(-(bh + bc)), abs_tol=1e-9)
    cfg = three_stroke_config(math.log(1.2), LN4)
    assert math.isclose(pcc_three_stroke_exact(cfg), -1.0 / 4.8, abs_tol=1e-12)


def test_three_stroke_pcc_limits():
    # omega -> 0: perfect anticorrelation
    omega = 1e-4 / 3.0
    cfg = ThreeStrokeConfig.nonmarkov(omega, 1.0, 0.5)
    tmap, p1 = tilted_and_steady(cfg)
    assert abs(intercycle_pcc(tmap, p1) + 1.0) < 1e-3
    # omega -> infinity: correlations die out
    assert abs(pcc_three_stroke_exact(three_stroke_config(30.0, 60.0))) < 1e-9


def test_pcc_closed_form_requires_eto():
    with pytest.raises(RegimeMismatchError):
        pcc_three_stroke_exact(three_stroke_config(0.5, 1.5, lambda_H=0.7))


def test_pcc_covariance_identity_from_paths():
    rng = np.random.default_rng(21)
    cfg = random_otto(rng)
    paths = brute_force_paths(cfg, 2)
    mean1 = sum(p * w[0] for p, w in paths)
    mean2 = sum(p * w[1] for p, w in paths)
    cov = sum(p * w[0] * w[1] for p, w in paths) - mean1 * mean2
    tmap, p1 = tilted_and_steady(cfg)
    var1 = work_moments(tmap, p1, 1).variance
    var2 = work_moments(tmap, p1, 2).variance
    assert math.isclose(var2, 2.0 * var1 + 2.0 * cov, rel_tol=1e-8)
    assert math.isclose(intercycle_pcc(tmap, p1), cov / var1, abs_tol=1e-8)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e3])
def test_pcc_does_not_depend_on_the_unit_of_energy(scale):
    # the cell sums are in work quanta, so a rescaled engine keeps its PCC
    cfg = OttoConfig.nonmarkov(1.0 * scale, 0.7 * scale, 1.0 * scale, 0.5 * scale)
    tmap, p1 = tilted_and_steady(cfg)
    assert math.isclose(intercycle_pcc(tmap, p1), 0.19435777017457537, rel_tol=1e-15)


def test_zero_variance_guard():
    # every Boltzmann factor underflows, so each cycle releases -1 quantum
    # and the single-cycle variance is exactly 0
    tmap, p1 = tilted_and_steady(ThreeStrokeConfig.nonmarkov(800.0, 1.0, 0.5))
    with pytest.raises(ZeroVarianceError):
        intercycle_pcc(tmap, p1)


def test_frozen_three_stroke_pcc_is_the_closed_form():
    # work is exponentially frozen and the quantum is small, so v1 is only
    # 1.7e-17 quanta squared; nothing cancels, and the PCC is the closed form
    cfg = three_stroke_config(40.0, 80.0, omega=0.01)
    tmap, p1 = tilted_and_steady(cfg)
    exact = pcc_three_stroke_exact(cfg)
    assert math.isclose(exact, -7.667648073722e-53, rel_tol=1e-12)
    assert math.isclose(intercycle_pcc(tmap, p1), exact, rel_tol=1e-14)


# An Otto cycle's hot and cold maps and work strokes, and the three-stroke flip
HOT, COLD = eto(1.0, 1.0), eto(0.7, 2.0)
DOWN, UP, FLIP = WorkStroke(1.0, 0.7), WorkStroke(0.7, 1.0), WorkStroke(1.0, 1.0, flip=True)
QUENCH_0 = WorkStroke(1.0, 1.0)  # a quench that releases nothing
SHAPE, LINK = "heat, work, heat", "quench omega_H > omega_C and back, or flip"
NOT_CYCLES = {
    "empty": ((), SHAPE),
    "work-stroke-first": ((DOWN, HOT, UP, COLD), SHAPE),
    "heat-heat-work": ((HOT, COLD, DOWN), SHAPE),
    "five": ((HOT, DOWN, COLD, UP, DOWN), SHAPE),
    "six": ((HOT, DOWN, HOT, DOWN, COLD, UP), SHAPE),
    "raw-list-heat-map": ((np.array(HOT.entries).reshape(2, 2).tolist(), DOWN, COLD, UP), SHAPE),
    "gap-mismatch": ((HOT, WorkStroke(1.0, 0.6), COLD, WorkStroke(0.6, 1.0)), LINK),
    "otto-first-flip": ((HOT, WorkStroke(1.0, 0.7, flip=True), COLD, UP), LINK),
    "otto-last-flip": ((HOT, DOWN, COLD, WorkStroke(0.7, 1.0, flip=True)), LINK),
    "three-stroke-quench": ((HOT, QUENCH_0, eto(1.0, 2.0)), LINK),
    "three-stroke-gaps-differ": ((HOT, FLIP, COLD), LINK),
    "omega-H-below-omega-C": ((COLD, UP, HOT, DOWN), LINK),
    "omega-H-equals-omega-C": ((HOT, QUENCH_0, eto(1.0, 2.0), QUENCH_0), LINK),
}


@pytest.mark.parametrize("strokes, match", NOT_CYCLES.values(), ids=NOT_CYCLES.keys())
def test_cycle_of_another_shape_is_rejected_when_built(strokes, match):
    assert Cycle((HOT, DOWN, COLD, UP)).quantum == 1.0 - 0.7  # the linked tuples build
    assert Cycle((HOT, FLIP, eto(1.0, 2.0))).quantum == 1.0
    with pytest.raises(InvalidParameterError, match=match):
        Cycle(strokes)


TEMPERATURES = st.one_of(
    st.sampled_from([5e-324, 1e-310]), st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
)
COUPLINGS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, "threshold"]), st.floats(0.0, 1.0))


@st.composite
def engine_configs(draw):
    """Otto and three-stroke configs, temperatures down to subnormal, with
    each coupling 0 (either sign), at the Markov threshold, 1 or between."""
    T_H = draw(TEMPERATURES)
    T_C, omega_H = T_H * draw(st.floats(0.01, 0.99)), 10.0 ** draw(st.floats(-5.0, 5.0))
    omega_C = omega_H * draw(st.floats(0.01, 0.99))
    assume(T_H > T_C > 0.0 and omega_H > omega_C > 0.0)
    otto = draw(st.booleans())
    make = OttoConfig if otto else ThreeStrokeConfig
    gaps = (omega_H, omega_C) if otto else (omega_H,)
    markov = make.markov(*gaps, T_H, T_C)
    l_H, l_C = draw(COUPLINGS), draw(COUPLINGS)
    l_H = markov.lambda_H if l_H == "threshold" else l_H
    l_C = markov.lambda_C if l_C == "threshold" else l_C
    return make(*gaps, T_H, T_C, l_H, l_C)


@settings(max_examples=300)
@given(engine_configs())
@example(OttoConfig.nonmarkov(1e-310, 0.7e-310, 1e-310, 0.5e-310))  # subnormal T
@example(OttoConfig(1.0, 0.7, 1e-320, 5e-321, -0.0, 1.0))  # -0.0 reads as +0.0
@example(OttoConfig(1.0, 0.7, 1.0, 0.5, 0.0, -0.0))
@example(OttoConfig.markov(3.0, 1.0, 2.0, 0.5))
@example(ThreeStrokeConfig.markov(1e-300, 1e-310, 5e-324))
@example(ThreeStrokeConfig(1.0, 1.0, 0.5, -0.0, 1.0))
def test_a_cycle_rebuilt_from_its_strokes_is_the_builders(cfg):
    # a config's cycle stores its floats alone and builds its strokes from them
    # on the first read; the methods read the floats, so a checked cycle of those
    # strokes must store the builder's floats, bit for bit (-0.0 too), to give
    # the builder's values and otto_work's
    built = cfg.cycle()
    assert list(vars(built)) == ["_floats"]
    strokes = built.strokes
    assert list(vars(built)) == ["_floats", "strokes"]
    assert built.strokes is strokes  # the same objects, kept
    otto = isinstance(cfg, OttoConfig)
    shape = (GibbsStochasticMatrix, WorkStroke, GibbsStochasticMatrix, WorkStroke)
    assert tuple(map(type, strokes)) == (shape if otto else shape[:3])
    cycle = Cycle(strokes)
    assert list(vars(cycle)) == ["strokes", "_floats"] and cycle.strokes is strokes
    assert bits(cycle._floats) == bits(built._floats)
    # the enumeration oracle walks the strokes, built on its read of a fresh cycle
    fresh = cfg.cycle()
    assert _cycle_branches(fresh) == _cycle_branches(cycle)
    assert tuple(map(type, vars(fresh)["strokes"])) == tuple(map(type, strokes))
    assert cycle.quantum == built.quantum == (cfg.omega_H - cfg.omega_C if otto else cfg.omega)
    # the coupling is read as the entry 0.0 + lam, which turns -0.0 into +0.0
    assert all(math.copysign(1.0, heat.entries[1]) == 1.0 for heat in built.strokes[::2])
    if otto and cfg.lambda_H == cfg.lambda_C == 0.0:  # the identity cycle map
        for c in (cycle, built):
            with pytest.raises(DegenerateCycleError):
                c.work()
        return
    assert cycle.work() == built.work()
    if otto:
        assert cycle.work() == otto_work(cfg)


def test_scaled_mean_equals_cycle_work():
    rng = np.random.default_rng(22)
    for make in (random_otto, random_three_stroke):
        for _ in range(5):
            cfg = make(rng)
            tmap, p1 = tilted_and_steady(cfg)
            mean, _ = scaled_cumulants(tmap)
            assert mean == work_moments(tmap, p1, 1).mean == tmap.work()  # one closed form


def test_markov_scaled_variance_is_single_cycle_variance():
    base = otto_config(0.8, 1.5)
    cfg = OttoConfig.markov(base.omega_H, base.omega_C, base.T_H, base.T_C)
    tmap, p1 = tilted_and_steady(cfg)
    _, scaled_var = scaled_cumulants(tmap)
    assert math.isclose(scaled_var, work_moments(tmap, p1, 1).variance, rel_tol=1e-9)


def test_scaled_variance_matches_long_run_slope():
    rng = np.random.default_rng(23)
    for make in (random_otto, random_three_stroke):
        cfg = make(rng)
        tmap, p1 = tilted_and_steady(cfg)
        _, scaled_var = scaled_cumulants(tmap)
        ns = np.arange(50, 61)
        variances = [work_moments(tmap, p1, int(n)).variance for n in ns]
        slope = np.polyfit(ns, variances, 1)[0]
        assert math.isclose(slope, scaled_var, rel_tol=1e-6)


def test_scaled_cumulants_reject_non_primitive_map():
    cfg = OttoConfig(1.0, 0.5, 1.0, 0.5, 0.0, 0.0)  # identity cycle map
    with pytest.raises(NonPrimitiveMapError):
        scaled_cumulants(tilted_map_otto(cfg))
    # couplings of 1e-13 leave the square positive but 1 - mu below 1e-12
    cfg = OttoConfig(1.0, 0.6, 1.0, 0.5, 1e-13, 1e-13)
    with pytest.raises(NonPrimitiveMapError, match="dominant eigenvalue degenerate"):
        scaled_cumulants(cfg.cycle())


STATISTICS = {
    "work": lambda cycle, p1: cycle.work(),
    **{
        f"work_moments N={n}": lambda cycle, p1, n=n: work_moments(cycle, p1, n)
        for n in (1, 2, 13, 10**6)
    },
    "scaled_cumulants": lambda cycle, p1: scaled_cumulants(cycle),
    "intercycle_pcc": lambda cycle, p1: intercycle_pcc(cycle, p1),
    "steady_state": lambda cycle, p1: cycle.steady_state(),
}


@pytest.mark.parametrize("make", [random_otto, random_three_stroke])
def test_a_cycle_returns_the_same_bits_before_and_after_it_keeps_them(make):
    # a cycle keeps work() and its cell sums after the first call that returns
    # them; every statistic must be the fresh cycle's, bit for bit, in any order
    rng = np.random.default_rng(43)
    for _ in range(4):
        cfg = make(rng)
        p1 = cfg.cycle().steady_state()
        fresh = {name: bits(stat(cfg.cycle(), p1)) for name, stat in STATISTICS.items()}
        for order in (list(STATISTICS), list(STATISTICS)[::-1]):
            cycle = cfg.cycle()
            for _ in range(2):
                assert {name: bits(STATISTICS[name](cycle, p1)) for name in order} == fresh
        cycle = Cycle(cfg.cycle().strokes)  # a cycle checked from its strokes keeps alike
        assert {name: bits(stat(cycle, None)) for name, stat in STATISTICS.items()} == fresh


@pytest.mark.parametrize("make", [random_otto, random_three_stroke])
def test_a_wrong_p1_is_rejected_after_a_call_that_returned(make):
    cfg = make(np.random.default_rng(44))
    cycle = cfg.cycle()
    p1 = cycle.steady_state()
    stats, pcc = work_moments(cycle, p1, 3), intercycle_pcc(cycle, p1)
    far = PopulationVector(1.0, 0.0)  # the steady p_e is well above 1e-12
    with pytest.raises(InvalidParameterError, match="p1 is not the steady state"):
        work_moments(cycle, far, 3)
    with pytest.raises(InvalidParameterError, match="p1 is not the steady state"):
        intercycle_pcc(cycle, far)
    assert bits(work_moments(cycle, p1, 3)) == bits(stats)
    assert bits(intercycle_pcc(cycle, p1)) == bits(pcc)


IDENTITY = OttoConfig(1.0, 0.5, 1.0, 0.5, 0.0, 0.0)  # both couplings 0
NEAR_IDENTITY = OttoConfig(1.0, 0.6, 1.0, 0.5, 1e-13, 1e-13)


@pytest.mark.parametrize("moments_first", [True, False])
def test_a_cycle_that_raises_keeps_raising_in_either_call_order(moments_first):
    # the primitivity checks run before the fixed point on every call, and a
    # check that raised keeps nothing, so the error does not depend on the order
    calls = [
        (lambda c: work_moments(c, None, 3), DegenerateCycleError),
        (scaled_cumulants, NonPrimitiveMapError),
    ]
    cycle = IDENTITY.cycle()
    for call, error in (calls if moments_first else calls[::-1]) * 2:
        with pytest.raises(error):
            call(cycle)
    # here the fixed point exists, so a first work_moments returns and keeps it
    cycle = NEAR_IDENTITY.cycle()
    if moments_first:
        work_moments(cycle, None, 3)
    for _ in range(2):
        with pytest.raises(NonPrimitiveMapError, match="dominant eigenvalue degenerate"):
            scaled_cumulants(cycle)
    assert bits(work_moments(cycle, None, 3)) == bits(work_moments(NEAR_IDENTITY.cycle(), None, 3))


def test_gf_convexity_on_grid():
    rng = np.random.default_rng(24)
    for make in (random_otto, random_three_stroke):
        cfg = make(rng)
        tmap, p1 = tilted_and_steady(cfg)
        chis = np.linspace(-0.5, 0.5, 41) / tmap.quantum
        values = [cumulant_gf(tmap, p1, 3, c) for c in chis]
        assert np.diff(values, 2).min() >= -1e-10
