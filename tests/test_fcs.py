import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermalops import (
    ConsistencyError,
    CountingOverflowError,
    EnumerationSizeError,
    InvalidParameterError,
    NonPrimitiveMapError,
    OttoConfig,
    RegimeMismatchError,
    ThreeStrokeConfig,
    WorkDistribution,
    ZeroVarianceError,
    ZeroWorkError,
    cumulant_gf,
    enumerate_work_distribution,
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
from thermalops.fcs import _pair_sum
from thermalops.three_stroke import SWAP

LN2 = math.log(2.0)
LN4 = math.log(4.0)


def otto_config(a, b, lambda_H=1.0, lambda_C=1.0):
    t_cold = 0.9 * min(1.0, a / b)
    return OttoConfig(a, t_cold * b, 1.0, t_cold, lambda_H, lambda_C)


def three_stroke_config(bh, bc, omega=1.0, lambda_H=1.0, lambda_C=1.0):
    return ThreeStrokeConfig(omega, omega / bh, omega / bc, lambda_H, lambda_C)


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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if abs(2.0 * three_stroke_report(cfg).p2.p_e - 1.0) >= min_bias:
                return cfg


def tilted_and_steady(cfg):
    if isinstance(cfg, OttoConfig):
        return tilted_map_otto(cfg), otto_steady_state(cfg)
    return tilted_map_three_stroke(cfg), three_stroke_steady_state(cfg)


# --- independent brute-force path oracle (kept deliberately naive) ---


def brute_force_paths(cfg, n):
    """All 4^n per-start trajectories as (probability, per-cycle works)."""
    hot = cfg.hot_map().as_array()
    cold = cfg.cold_map().as_array()
    is_otto = isinstance(cfg, OttoConfig)
    _, p1 = tilted_and_steady(cfg)
    quantum = cfg.work_quantum
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
    composed = cfg.cold_map().as_array() @ cfg.hot_map().as_array()
    np.testing.assert_allclose(tmap.matrix(0.0), composed, atol=1e-15)


def test_tilted_three_stroke_untilted_limit():
    cfg = three_stroke_config(0.5, 1.5)
    tmap = tilted_map_three_stroke(cfg)
    composed = cfg.cold_map().as_array() @ SWAP @ cfg.hot_map().as_array()
    np.testing.assert_allclose(tmap.matrix(0.0), composed, atol=1e-15)


def test_tilted_entries_nonnegative():
    rng = np.random.default_rng(13)
    tmap, _ = tilted_and_steady(random_otto(rng))
    for chi in rng.uniform(-5.0, 5.0, size=20):
        assert tmap.matrix(chi).min() >= 0.0


def test_gf_normalization_and_overflow_guard():
    rng = np.random.default_rng(14)
    tmap, p1 = tilted_and_steady(random_otto(rng))
    for n in (1, 2, 5, 20):
        assert abs(cumulant_gf(tmap, p1, n, 0.0)) < 1e-12
    with pytest.raises(CountingOverflowError):
        cumulant_gf(tmap, p1, 50, 1e4 / tmap.quantum)
    with pytest.raises(InvalidParameterError):
        cumulant_gf(tmap, p1, 0, 0.1)


def test_single_cycle_mean_matches_reports():
    cfg = otto_config(LN2, LN4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w_otto = otto_cycle_report(cfg).W
    tmap, p1 = tilted_and_steady(cfg)
    assert math.isclose(work_moments(tmap, p1, 1).mean, w_otto, rel_tol=1e-9)

    cfg3 = three_stroke_config(math.log(1.2), LN4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w3 = three_stroke_report(cfg3).W
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


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
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


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
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
    assert math.isclose(stats.mean, n * otto_work(cfg), rel_tol=1e-12)
    _, scaled_var = scaled_cumulants(tmap)
    assert math.isclose(stats.variance / n, scaled_var, rel_tol=1e-8)


def test_work_moments_overflow_is_typed():
    # S_N ~ N / (1 - mu) with 1 - mu ~ 2e-3 at this gap: Var_N exceeds binary64
    tmap, p1 = tilted_and_steady(OttoConfig.nonmarkov(1e-3, 7e-4, 1.0, 0.5))
    assert math.isfinite(work_moments(tmap, p1, 10**300).variance)
    with pytest.raises(CountingOverflowError):
        work_moments(tmap, p1, 10**307)
    with pytest.raises(CountingOverflowError):
        work_moments(tmap, p1, 10**309)  # not even a float


def test_vanishing_work_mean_is_typed():
    # exp(-1100) underflows to 0 at both baths: the work mean is exactly 0
    tmap, p1 = tilted_and_steady(OttoConfig.nonmarkov(1100.0, 770.0, 1.0, 0.5))
    for n in (1, 7):
        with pytest.raises(ZeroWorkError, match="work mean vanishes"):
            work_moments(tmap, p1, n)


def test_distribution_mean_is_n_times_cycle_work():
    rng = np.random.default_rng(18)
    cfg = random_otto(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w = otto_cycle_report(cfg).W
    for n in (1, 2, 5):
        assert math.isclose(enumerate_work_distribution(cfg, n).mean(), n * w, rel_tol=1e-12)


def test_eto_cooling_from_excited_is_deterministic():
    # excited -> excited through the cool stroke is forbidden under ETO, so
    # every zero-work cycle must come from the ground -> ground branch alone
    cfg = otto_config(0.8, 1.6)
    hot = cfg.hot_map().as_array()
    cold = cfg.cold_map().as_array()
    assert cold[1, 1] == 0.0
    dist = enumerate_work_distribution(cfg, 1)
    zero = {round(w, 12): p for w, p in dist.support}.get(0.0, 0.0)
    p1 = otto_steady_state(cfg)
    expected_gg = (p1.p_g * hot[0, 0] + p1.p_e * hot[0, 1]) * cold[0, 0]
    assert math.isclose(zero, expected_gg, abs_tol=1e-14)


def test_three_stroke_two_point_support():
    cfg = three_stroke_config(math.log(1.2), LN4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p2 = three_stroke_report(cfg).p2
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


def test_zero_variance_guard():
    # work is exponentially frozen and the quantum is small, so the
    # single-cycle variance sits far below the representable threshold
    cfg = three_stroke_config(40.0, 80.0, omega=0.01)
    tmap, p1 = tilted_and_steady(cfg)
    with pytest.raises(ZeroVarianceError):
        intercycle_pcc(tmap, p1)


def test_scaled_mean_equals_cycle_work():
    rng = np.random.default_rng(22)
    for make in (random_otto, random_three_stroke):
        for _ in range(5):
            cfg = make(rng)
            tmap, p1 = tilted_and_steady(cfg)
            mean, _ = scaled_cumulants(tmap)
            assert math.isclose(mean, work_moments(tmap, p1, 1).mean, rel_tol=1e-9)


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


def test_gf_convexity_on_grid():
    rng = np.random.default_rng(24)
    for make in (random_otto, random_three_stroke):
        cfg = make(rng)
        tmap, p1 = tilted_and_steady(cfg)
        chis = np.linspace(-0.5, 0.5, 41) / tmap.quantum
        values = [cumulant_gf(tmap, p1, 3, c) for c in chis]
        assert np.diff(values, 2).min() >= -1e-10
