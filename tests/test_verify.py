"""What makes the verify suites' checks fail: maps corrupted through a
stand-in for ``verify.build_map``, reports and moments made NaN, and work
kernels moved by 1e-10; the gibbs-fixed-point residuals against their
array and exact oracles; and the rows the suites draw against
``random.Random.uniform``."""

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


def test_gibbs_residuals_match_their_oracles(monkeypatch):
    # each map the suite builds and the Gibbs populations it reads, recorded
    # through its module's names; per draw, the float residuals against the
    # numpy array forms the suite used before (entry range and column sums,
    # bit for bit) and against an exact evaluation of the same float entries
    # (fixed point, within 2 ulp of 1: numpy's 2x2 product may fuse a
    # multiply-add, so it is no oracle); the suite's observed values are the
    # worst of those per-draw floats, bit for bit
    built, gibbs_pops = [], []

    def recorded(fn, into):
        return lambda *args: into.append(fn(*args)) or into[-1]

    monkeypatch.setattr(verify, "build_map", recorded(build_map, built))
    monkeypatch.setattr(verify, "thermal_population", recorded(thermal_population, gibbs_pops))
    records = verify.suite_gibbs_fixed_point()
    assert len(built) == len(gibbs_pops) == verify._DRAWS
    worst = [0.0, 0.0, 0.0]
    for m, g in zip(built, gibbs_pops):
        m00, m01, m10, m11 = m.entries
        entry = max(m00 - 1.0, -m00, m01 - 1.0, -m01, m10 - 1.0, -m10, m11 - 1.0, -m11)
        cols = max(abs((m00 + m10) - 1.0), abs((m01 + m11) - 1.0))
        gibbs = max(abs(m00 * g.p_g + m01 * g.p_e - g.p_g), abs(m10 * g.p_g + m11 * g.p_e - g.p_e))
        arr = np.array(m.entries).reshape(2, 2)
        assert entry.hex() == float(np.maximum(arr - 1.0, -arr).max()).hex()
        assert cols.hex() == float(np.abs(arr.sum(axis=0) - 1.0).max()).hex()
        f00, f01, f10, f11 = map(Fraction, m.entries)
        g_g, g_e = Fraction(g.p_g), Fraction(g.p_e)
        exact = max(abs(f00 * g_g + f01 * g_e - g_g), abs(f10 * g_g + f11 * g_e - g_e))
        assert abs(Fraction(gibbs) - exact) <= 2 * Fraction(math.ulp(1.0))
        worst = [max(w, r) for w, r in zip(worst, (entry, cols, gibbs))]
    assert [r.observed.hex() for r in records] == [w.hex() for w in worst]


GIBBS_BOUNDS = ((0.05, 4.0), (0.05, 4.0), (0.0, 1.0))


@pytest.mark.parametrize("suite", ["gibbs-fixed-point", "first-law", "oracle-equivalence"])
def test_the_suites_draw_random_uniform_rows(suite, monkeypatch):
    # every row a suite draws, rejected rows included, in the order drawn,
    # against random.Random(_SEED).uniform on the same bounds, by float.hex:
    # the gibbs rows are what reaches ThermalOpParams, the engine rows what
    # reaches _draw's build
    rows, draw = [], verify._draw

    def recording(rng, count, bounds, build):
        return draw(rng, count, bounds, lambda *row: rows.append((bounds, row)) or build(*row))

    def params(*row):
        rows.append((GIBBS_BOUNDS, row))
        return ThermalOpParams(*row)

    if suite == "gibbs-fixed-point":
        monkeypatch.setattr(verify, "ThermalOpParams", params)
    else:
        monkeypatch.setattr(verify, "_draw", recording)
    verify.SUITES[suite]()
    assert len(rows) >= (verify._DRAWS if suite != "oracle-equivalence" else 12)
    rng = random.Random(verify._SEED)
    for bounds, row in rows:
        expected = [rng.uniform(lo, hi) for lo, hi in bounds]
        assert [x.hex() for x in row] == [x.hex() for x in expected]


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


@pytest.mark.parametrize("i", range(4))
@pytest.mark.parametrize("value, residual", [(-2.0**-30, 2.0**-30), (1.0 + 2.0**-30, 2.0**-30)])
def test_an_entry_outside_the_unit_interval_is_its_range_residual(i, value, residual, monkeypatch):
    # both sides of [0, 1] are measured at every entry: -m below 0, m - 1 above 1
    def push(entries):
        entries[i] = value
        return entries

    corrupt_maps(monkeypatch, push)
    entry, *_ = verify.suite_gibbs_fixed_point()
    assert entry.observed.hex() == residual.hex() and not entry.passed


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
