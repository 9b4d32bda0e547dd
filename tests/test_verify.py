"""The verify suites' draws (blocks of uniforms against scalar draws) and
what makes their checks fail."""

import dataclasses
import json
import math
import types
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from thermalops import cli, maps, otto, three_stroke, verify
from thermalops.maps import ThermalOpParams, build_map, thermal_population
from thermalops.otto import OttoConfig
from thermalops.three_stroke import ThreeStrokeConfig, three_stroke_report
from thermalops.verify import _draw, _otto_configs, _three_stroke_draws


# The draw loops of the suites as scalar ``rng.uniform`` calls, one value
# at a time in the order the suites consume them.
def scalar_otto(rng) -> OttoConfig:
    a = rng.uniform(0.3, 2.5)  # beta_H * omega_H
    b = a * rng.uniform(1.15, 2.2)  # beta_C * omega_C
    t_cold = 0.9 * min(1.0, a / b)
    return OttoConfig(
        omega_H=a,
        omega_C=t_cold * b,
        T_H=1.0,
        T_C=t_cold,
        lambda_H=rng.uniform(0.5, 1.0),
        lambda_C=rng.uniform(0.5, 1.0),
    )


def scalar_three_stroke(rng, min_bias: float, attempts: list):
    while True:
        attempts.append(None)
        cfg = ThreeStrokeConfig(
            omega=rng.uniform(0.3, 2.0),
            T_H=1.0,
            T_C=rng.uniform(0.35, 0.85),
            lambda_H=rng.uniform(0.5, 1.0),
            lambda_C=rng.uniform(0.5, 1.0),
        )
        rep = three_stroke_report(cfg)
        if abs(2.0 * rep.p2.p_e - 1.0) >= min_bias:
            return cfg, rep


def scalar_gibbs(rng) -> tuple:
    omega = rng.uniform(0.05, 4.0)
    beta = rng.uniform(0.05, 4.0)
    lam = rng.uniform(0.0, 1.0)
    return omega, beta, lam


def bits(value) -> list:
    """Every float of a config, report or row as its exact hex form."""
    if dataclasses.is_dataclass(value):
        return bits(dataclasses.astuple(value))
    if isinstance(value, tuple):
        return [bits(v) for v in value]
    return value.hex()


def assert_same_stream(block_rng, scalar_rng):
    assert block_rng.bit_generator.state == scalar_rng.bit_generator.state
    assert block_rng.random() == scalar_rng.random()


@pytest.mark.parametrize("count", [1, 7, 300])
def test_otto_block_draws_are_the_scalar_draws(count):
    block, scalar = np.random.default_rng(5), np.random.default_rng(5)
    drawn = list(_otto_configs(block, count))
    assert bits(tuple(drawn)) == bits(tuple(scalar_otto(scalar) for _ in range(count)))
    assert_same_stream(block, scalar)


@pytest.mark.parametrize("count", [1, 7, 300])
def test_gibbs_block_draws_are_the_scalar_draws(count):
    block, scalar = np.random.default_rng(6), np.random.default_rng(6)
    drawn = list(_draw(block, count, ((0.05, 4.0), (0.05, 4.0), (0.0, 1.0))))
    assert bits(tuple(drawn)) == bits(tuple(scalar_gibbs(scalar) for _ in range(count)))
    assert_same_stream(block, scalar)


@pytest.mark.parametrize("min_bias", [1e-6, 0.05, 0.5, 0.8])
def test_three_stroke_redraws_only_the_rejected_rows(min_bias):
    # a large min_bias rejects most rows, so the shortfall is redrawn
    # several times; the rows kept and the generator state after the last
    # one must still be those of the scalar rejection loop
    count = 40
    block, scalar = np.random.default_rng(7), np.random.default_rng(7)
    attempts = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rejected draws are mostly not engines
        drawn = list(_three_stroke_draws(block, count, min_bias))
        expected = [scalar_three_stroke(scalar, min_bias, attempts) for _ in range(count)]
    assert bits(tuple(drawn)) == bits(tuple(expected))
    assert_same_stream(block, scalar)
    if min_bias >= 0.5:
        assert len(attempts) > count  # the redraw path ran


def test_draws_sharing_a_generator_stay_in_step():
    # oracle-equivalence draws Otto configs and then three-stroke configs
    # from one generator: the first helper must not draw past its rows
    block, scalar = np.random.default_rng(8), np.random.default_rng(8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        drawn = list(_otto_configs(block, 6)) + list(_three_stroke_draws(block, 6, 0.5))
        expected = [scalar_otto(scalar) for _ in range(6)]
        expected += [scalar_three_stroke(scalar, 0.5, [])[0] for _ in range(6)]
    assert bits(tuple(drawn[:6] + [cfg for cfg, _ in drawn[6:]])) == bits(tuple(expected))
    assert_same_stream(block, scalar)


def test_draw_of_nothing_leaves_the_generator_alone():
    rng = np.random.default_rng(9)
    state = rng.bit_generator.state
    assert list(_draw(rng, 0, ((0.0, 1.0),))) == []
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("suite", ["oracle-equivalence", "first-law"])
def test_engine_suites_leak_no_warning(suite, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", "--suite", suite]) == 0


def test_a_nan_residual_fails_its_check(monkeypatch):
    # max(0.0, nan) is 0.0, so a fold by max would pass a NaN residual
    records = verify.suite_gibbs_fixed_point(draws=5, perturb=lambda m: m * np.nan)
    assert len(records) == 3
    assert all(math.isnan(r.observed) and not r.passed for r in records)

    def nan_work(report):
        return lambda cfg: dataclasses.replace(report(cfg), W=math.nan)

    monkeypatch.setattr(verify, "otto_cycle_report", nan_work(otto.otto_cycle_report))
    monkeypatch.setattr(verify, "three_stroke_report", nan_work(three_stroke_report))
    records = verify.suite_first_law(draws=20)
    assert all(math.isnan(r.observed) and not r.passed for r in records)

    moments = verify.work_moments
    monkeypatch.setattr(
        verify, "work_moments", lambda *args: dataclasses.replace(moments(*args), mean=math.nan)
    )
    mean, variance = verify.suite_oracle_equivalence(configs_per_engine=2)
    assert math.isnan(mean.observed) and not mean.passed
    assert variance.passed


def test_gibbs_residuals_match_their_oracles():
    # the suite's per-draw float residuals against the numpy array forms it
    # used before (entry range and column sums, bit for bit) and against an
    # exact evaluation of the same float entries (fixed point, within 2 ulp
    # of 1: numpy's 2x2 product may fuse a multiply-add, so it is no oracle)
    rng = np.random.default_rng(verify._SEED)
    worst = [0.0, 0.0, 0.0]
    for omega, beta, lam in _draw(rng, 1000, ((0.05, 4.0), (0.05, 4.0), (0.0, 1.0))):
        m = build_map(ThermalOpParams(omega, beta, lam))
        g = thermal_population(omega, beta)
        entry, cols, gibbs = verify._gibbs_residuals(*m._entries, g.p_g, g.p_e)
        arr = m.as_array()
        assert entry.hex() == float(np.maximum(arr - 1.0, -arr).max()).hex()
        assert cols.hex() == float(np.abs(arr.sum(axis=0) - 1.0).max()).hex()
        m00, m01, m10, m11 = map(Fraction, m._entries)
        g_g, g_e = Fraction(g.p_g), Fraction(g.p_e)
        exact = max(abs(m00 * g_g + m01 * g_e - g_g), abs(m10 * g_g + m11 * g_e - g_e))
        assert abs(Fraction(gibbs) - exact) <= 2 * Fraction(math.ulp(1.0))
        worst = [max(w, r) for w, r in zip(worst, (entry, cols, gibbs))]
    records = verify.suite_gibbs_fixed_point()
    assert [r.observed for r in records] == worst


def test_gibbs_suite_uses_numpy_only_for_its_draws(monkeypatch):
    # without perturb, the suite reads the checked entries: no array is built
    monkeypatch.setattr(verify, "np", types.SimpleNamespace(random=np.random))
    monkeypatch.setattr(maps, "np", types.SimpleNamespace())
    assert all(r.passed for r in verify.suite_gibbs_fixed_point(draws=50))


@pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_a_nan_in_one_entry_fails_every_check(i, j):
    # every check reads every entry; Python's max(0.0, nan) is 0.0, so a
    # fold by max would drop a NaN that is not its first argument
    def poison(m):
        m[i, j] = math.nan
        return m

    records = verify.suite_gibbs_fixed_point(draws=5, perturb=poison)
    assert [r.check for r in records] == ["entries-in-range", "column-sums", "fixed-point-residual"]
    assert all(math.isnan(r.observed) and not r.passed for r in records)


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_verify_json_writes_null_for_a_non_finite_residual(bad, monkeypatch, capsys):
    suite = partial(verify.suite_gibbs_fixed_point, draws=5, perturb=lambda m: m * bad)
    monkeypatch.setitem(verify.SUITES, "gibbs-fixed-point", suite)
    assert cli.main(["verify", "--suite", "gibbs-fixed-point", "--format", "json"]) == 2
    doc = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert doc["ok"] is False
    assert [c["observed"] for c in doc["checks"]] == [None, None, None]
    assert not any(c["passed"] for c in doc["checks"])


@pytest.mark.parametrize(
    "engine, kernel", [(otto, "_otto_work"), (three_stroke, "_three_stroke_work")]
)
def test_first_law_checks_the_closed_form_against_the_heats(engine, kernel, monkeypatch):
    # the work is each engine's closed form, which Cycle.work evaluates with
    # the kernel in maps, and the heats come from the populations, so moving
    # either kernel by 1e-10 relative fails that engine's record alone
    exact = getattr(maps, kernel)
    monkeypatch.setattr(maps, kernel, lambda *values: exact(*values) * (1.0 + 1e-10))
    failed = [r.check for r in verify.suite_first_law() if not r.passed]
    assert failed == ["otto" if engine is otto else "three-stroke"]
