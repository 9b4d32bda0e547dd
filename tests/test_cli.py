import hashlib
import json
import math

import numpy as np
import pytest

from thermalops import cli
from thermalops.fcs import pcc_three_stroke_exact
from thermalops.optimize import three_stroke_config_at
from thermalops.verify import suite_gibbs_fixed_point


def run(tmp_path, *argv):
    out = tmp_path / "out.dat"
    code = cli.main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# command=")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return lines[0], rows


def test_fig1_crossing_and_asymptote(tmp_path):
    code, text = run(tmp_path, "fig1")
    assert code == 0
    meta, rows = parse_csv(text)
    assert "columns=t2_over_t1,p_e_eto,p_e_thermalization" in meta
    # ETO crosses 1/2 somewhere, thermalization never does
    assert (rows[:, 1] > 0.5).any() and (rows[:, 1] < 0.5).any()
    assert (rows[:, 2] < 0.5).all()
    assert abs(rows[-1, 1] - 1.0 / (1.0 + math.exp(-0.5))) < 1e-3


def test_fig1_equal_temperature_row(tmp_path):
    code, text = run(tmp_path, "fig1", "--set", "t2_min=1", "--set", "t2_max=10")
    _, rows = parse_csv(text)
    assert code == 0
    assert abs(rows[0, 1] - rows[0, 2]) < 1e-12  # T2 = T1 leaves the state thermal


def test_fig1_rerun_bit_identical(tmp_path):
    _, first = run(tmp_path, "fig1")
    _, second = run(tmp_path, "fig1")
    assert first == second


def test_fig4_ordering_and_carnot_endpoint(tmp_path):
    code, text = run(tmp_path, "fig4", "--set", "points=8")
    assert code == 0
    _, rows = parse_csv(text)
    assert (rows[:, 1] > rows[:, 2]).all()  # nonmarkov > markov
    assert (rows[:, 2] > rows[:, 3]).all()  # markov > three-stroke
    assert rows[-1, 1] < 0.5 * rows[:, 1].max()  # work collapses near eta_C


def test_fig4_rerun_bit_identical(tmp_path):
    _, first = run(tmp_path, "fig4", "--set", "points=6")
    _, second = run(tmp_path, "fig4", "--set", "points=6")
    assert first == second


def test_fig5_infinite_horizon_table(tmp_path):
    code, text = run(tmp_path, "fig5", "--set", "points=24")
    assert code == 0
    _, rows = parse_csv(text)
    engines = rows[:, 0]
    assert set(engines) == {0.0, 1.0, 2.0}
    three = rows[engines == 2.0][0]
    otto_nm = rows[engines == 0.0]
    otto_mk = rows[engines == 1.0]
    assert three[3] < otto_nm[:, 3].min()
    assert three[3] < otto_mk[:, 3].min()


def test_fig5_single_cycle_horizon(tmp_path):
    code, text = run(
        tmp_path, "fig5", "--set", "horizon=single_cycle", "--set", "points=12"
    )
    assert code == 0
    _, rows = parse_csv(text)
    nm = rows[rows[:, 0] == 0.0]
    assert nm[0, 3] < 1e-2  # ratio vanishes with the gap

    code, _ = run(tmp_path, "fig5", "--set", "horizon=never")
    assert code == 1


def test_fig6_pcc_bounds_and_three_stroke_point(tmp_path):
    code, text = run(tmp_path, "fig6", "--set", "points=40")
    assert code == 0
    _, rows = parse_csv(text)
    nm = rows[rows[:, 0] == 0.0]
    assert (nm[:, 3] > -1e-6).all() and (nm[:, 3] <= 1.0 + 1e-9).all()
    assert nm[0, 3] > 0.99  # perfect correlations as the gap closes
    three = rows[rows[:, 0] == 2.0][0]
    assert three[3] < 0.0  # three-stroke cycles anticorrelate
    cfg3 = three_stroke_config_at(0.3, 0.5, 1.0)
    assert abs(three[3] - pcc_three_stroke_exact(cfg3)) < 1e-9


# sha256 of the CSV stdout of every table command at reduced sizes; a change
# here means a published number changed and needs a stated reason.
PINNED_TABLES = {
    ("fig1", "points=41"): "9ffe0f30e1407563749026bfddc0a98db668bed7eff791a564679985a1281aa2",
    ("fig4", "points=3"): "4579726884ca5f54c95e17e37060b27f5894daa3df6d1543cbcec3c554e07f84",
    ("fig5", "points=24"): "a2624531aec38ff18a0b2e12125de2641b408f94a009fabb8de53fb82269cac3",
    ("fig5", "horizon=single_cycle", "points=24"): (
        "536859476d5c2fdb32bd9d5978186b748ee8862ec09ded4070768e842c52fc88"
    ),
    ("fig6", "points=24"): "a90ce6b57abc62ccd92bd9bdb5d921299581bcb646ddd41fdc2180b177680c83",
    ("sweep", "points=40"): "84b572a8dcfb5addaa3c22947edb46c40b045c760d81a3ef4a9ff958483e4bd5",
    ("sweep", "regime=markov", "points=40"): (
        "e84d725397f30d71a9e77b9bd5fb16a4ea68880b3cb482f703f37dd93d571faf"
    ),
    ("micro-report", "n_max=30", "points=9"): (
        "d86a9d62d299f5cb6178d0399fab208d1f7c9c2f873033190f2fe04722dd7fa7"
    ),
}


@pytest.mark.parametrize("case", list(PINNED_TABLES), ids=lambda c: "-".join(c))
def test_csv_tables_are_pinned(case, capsys):
    command, *overrides = case
    argv = [command]
    for pair in overrides:
        argv += ["--set", pair]
    assert cli.main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_TABLES[case]


@pytest.mark.parametrize("horizon", ["single_cycle", "infinite"])
def test_fig5_vanishing_work_mean_is_a_validation_error(horizon, capsys):
    # beyond omega_H ~ 40 T_H the work mean underflows to exactly 0, so the
    # variance-to-mean ratio is undefined
    argv = ["fig5", "--set", f"horizon={horizon}", "--set", "omega_lo=40", "--set", "omega_hi=41"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("thermalops fig5: ")
    assert "work mean vanishes" in captured.err
    assert captured.err.count("\n") == 1


def test_default_parameters_pin_the_reference_figures():
    assert cli.COMMANDS["fig1"][0]["omega_over_T1"] == 0.5
    assert cli.COMMANDS["fig4"][0]["eta_C"] == 0.5
    for name in ("fig5", "fig6"):
        assert cli.COMMANDS[name][0]["eta"] == 0.3
        assert cli.COMMANDS[name][0]["eta_C"] == 0.5
    assert cli.COMMANDS["fig5"][0]["horizon"] == "infinite"


def test_sweep_and_overrides(tmp_path):
    code, text = run(
        tmp_path, "sweep", "--set", "points=7", "--set", "regime=markov", "--set", "eta=0.2"
    )
    assert code == 0
    meta, rows = parse_csv(text)
    assert "regime=markov" in meta and "eta=0.2" in meta
    assert rows.shape == (7, 2)


def test_micro_report_command(tmp_path):
    code, text = run(
        tmp_path,
        "micro-report",
        "--set", "n_max=30",
        "--set", "points=9",
        "--set", "jt_max=1.5707963267948966",
    )
    assert code == 0
    _, rows = parse_csv(text)
    intensity = rows[rows[:, 0] == 0.0]
    assert math.isclose(intensity[0, 2], 1.0, abs_tol=1e-12)  # identity at t=0
    assert intensity[-1, 2] < 1e-8  # half Rabi period hits the ETO


def test_set_validation_errors(tmp_path):
    assert run(tmp_path, "fig1", "--set", "bogus=1")[0] == 1
    assert run(tmp_path, "fig1", "--set", "points")[0] == 1
    assert run(tmp_path, "fig1", "--set", "points=many")[0] == 1
    assert run(tmp_path, "sweep", "--set", "regime=diesel")[0] == 1
    assert run(tmp_path, "fig1", "--set", "t2_min=-1")[0] == 1


def test_io_error_exit_code(tmp_path):
    code = cli.main(["fig1", "--out", str(tmp_path / "missing" / "out.csv")])
    assert code == 3


def test_json_output_round_trip(tmp_path):
    out = tmp_path / "fig1.json"
    assert cli.main(["fig1", "--format", "json", "--set", "points=11", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "fig1"
    assert payload["columns"] == ["t2_over_t1", "p_e_eto", "p_e_thermalization"]
    assert len(payload["rows"]) == 11
    # binary64 round-trip: recompute one row exactly
    from thermalops import eto_vs_thermalization_scan

    grid = np.logspace(math.log10(0.01), 3.0, 11)
    expected = eto_vs_thermalization_scan(0.5, grid)
    assert payload["rows"][3] == list(expected[3])


def test_verify_command_passes(tmp_path):
    out = tmp_path / "verify.txt"
    assert cli.main(["verify", "--suite", "gibbs-fixed-point", "--out", str(out)]) == 0
    assert "PASS gibbs-fixed-point/column-sums" in out.read_text()


def test_verify_json_format(tmp_path):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--suite", "first-law", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert all(check["passed"] for check in payload["checks"])


def test_verify_unknown_suite():
    assert cli.main(["verify", "--suite", "vibes"]) == 1


def test_verify_detects_injected_perturbation():
    # corrupting one matrix entry by 1e-6 must break the fixed-point check
    def corrupt(m):
        m = np.array(m)
        m[0, 0] += 1e-6
        return m

    records = suite_gibbs_fixed_point(draws=50, perturb=corrupt)
    by_name = {record.check: record for record in records}
    assert not by_name["fixed-point-residual"].passed
    assert by_name["fixed-point-residual"].observed > 1e-7


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    from thermalops.verify import CheckRecord

    monkeypatch.setattr(cli, "run_suites", lambda name: [CheckRecord("s", "c", 1.0, 1e-12)])
    assert cli.main(["verify"]) == 2


def test_unknown_command_exits_with_validation_code(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["figx"])
    assert info.value.code == 1
