"""What makes the verify suites' checks fail: maps corrupted through a
stand-in for ``verify.build_map``, reports and moments made NaN, and work
kernels moved by 1e-10; and the gibbs-fixed-point residuals against their
array and exact oracles."""

import json
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from thermalops import cli, maps, otto, three_stroke, verify
from thermalops.maps import GibbsStochasticMatrix, ThermalOpParams, build_map, thermal_population
from thermalops.three_stroke import three_stroke_report
from thermalops.verify import _draw


def corrupt_maps(monkeypatch, change):
    """Make ``gibbs-fixed-point`` measure ``change(entries)`` in place of each
    map's checked entries, wrapped unchecked as a map of the same gap."""

    def corrupted(params):
        m = build_map(params)
        entries = tuple(change(list(m.entries)))
        return maps._unchecked(
            GibbsStochasticMatrix,
            {"entries": entries, "omega": m.omega, "beta_omega": m.beta_omega},
        )

    monkeypatch.setattr(verify, "build_map", corrupted)


@pytest.mark.parametrize("suite", ["oracle-equivalence", "first-law"])
def test_engine_suites_leak_no_warning(suite, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", "--suite", suite]) == 0


def test_a_nan_residual_fails_its_check(monkeypatch):
    # max(0.0, nan) is 0.0, so a fold by max would pass a NaN residual
    corrupt_maps(monkeypatch, lambda entries: [math.nan] * 4)
    records = verify.suite_gibbs_fixed_point()
    assert len(records) == 3
    assert all(math.isnan(r.observed) and not r.passed for r in records)

    def nan_work(report):
        return lambda cfg: report(cfg)._replace(W=math.nan)

    monkeypatch.setattr(verify, "otto_cycle_report", nan_work(otto.otto_cycle_report))
    monkeypatch.setattr(verify, "three_stroke_report", nan_work(three_stroke_report))
    records = verify.suite_first_law()
    assert all(math.isnan(r.observed) and not r.passed for r in records)

    moments = verify.work_moments
    monkeypatch.setattr(
        verify, "work_moments", lambda *args: moments(*args)._replace(mean=math.nan)
    )
    mean, variance = verify.suite_oracle_equivalence()
    assert math.isnan(mean.observed) and not mean.passed
    assert variance.passed


def test_gibbs_residuals_match_their_oracles():
    # the suite's per-draw float residuals against the numpy array forms it
    # used before (entry range and column sums, bit for bit) and against an
    # exact evaluation of the same float entries (fixed point, within 2 ulp
    # of 1: numpy's 2x2 product may fuse a multiply-add, so it is no oracle)
    rng = random.Random(verify._SEED)
    worst = [0.0, 0.0, 0.0]
    for omega, beta, lam in _draw(rng, verify._DRAWS, ((0.05, 4.0), (0.05, 4.0), (0.0, 1.0))):
        m = build_map(ThermalOpParams(omega, beta, lam))
        g = thermal_population(omega, beta)
        entry, cols, gibbs = verify._gibbs_residuals(*m.entries, g.p_g, g.p_e)
        arr = np.array(m.entries).reshape(2, 2)
        assert entry.hex() == float(np.maximum(arr - 1.0, -arr).max()).hex()
        assert cols.hex() == float(np.abs(arr.sum(axis=0) - 1.0).max()).hex()
        m00, m01, m10, m11 = map(Fraction, m.entries)
        g_g, g_e = Fraction(g.p_g), Fraction(g.p_e)
        exact = max(abs(m00 * g_g + m01 * g_e - g_g), abs(m10 * g_g + m11 * g_e - g_e))
        assert abs(Fraction(gibbs) - exact) <= 2 * Fraction(math.ulp(1.0))
        worst = [max(w, r) for w, r in zip(worst, (entry, cols, gibbs))]
    records = verify.suite_gibbs_fixed_point()
    assert [r.observed for r in records] == worst


def test_gibbs_suite_uses_numpy_only_for_its_draws():
    # the suite reads the checked entries and draws from random.Random:
    # neither it nor maps holds numpy, and it passes
    assert not hasattr(verify, "np") and not hasattr(maps, "np")
    assert all(r.passed for r in verify.suite_gibbs_fixed_point())


@pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_a_nan_in_one_entry_fails_every_check(i, j, monkeypatch):
    # every check reads every entry; Python's max(0.0, nan) is 0.0, so a
    # fold by max would drop a NaN that is not its first argument
    def poison(entries):
        entries[2 * i + j] = math.nan
        return entries

    corrupt_maps(monkeypatch, poison)
    records = verify.suite_gibbs_fixed_point()
    assert [r.check for r in records] == ["entries-in-range", "column-sums", "fixed-point-residual"]
    assert all(math.isnan(r.observed) and not r.passed for r in records)


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_verify_json_writes_null_for_a_non_finite_residual(bad, monkeypatch, capsys):
    corrupt_maps(monkeypatch, lambda entries: [x * bad for x in entries])
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
