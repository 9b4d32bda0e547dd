import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from thermalops import cli
from thermalops.fcs import pcc_three_stroke_exact
from thermalops.optimize import otto_config_at, three_stroke_config_at
from thermalops.otto import otto_work
from thermalops.verify import closed_form_vs_dense, suite_gibbs_fixed_point


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
    ("fig5", "points=24"): "a1bf9bbe1ce8a13efdaa161b4e73b39762c35312e9238dad9e02b45350c7fcba",
    ("fig5", "horizon=single_cycle", "points=24"): (
        "a5518134ba4ea1e7bf910aedb6d28539d066a2dcc4e69351a67e81e78a226988"
    ),
    ("fig6", "points=24"): "0d9d62fdbf9c5c490776badb91f1ea83c03fc6c33b21fc591b3d8990e2ef7071",
    ("sweep", "points=40"): "84b572a8dcfb5addaa3c22947edb46c40b045c760d81a3ef4a9ff958483e4bd5",
    ("sweep", "regime=markov", "points=40"): (
        "e84d725397f30d71a9e77b9bd5fb16a4ea68880b3cb482f703f37dd93d571faf"
    ),
    ("micro-report", "n_max=30", "points=9"): (
        "d86a9d62d299f5cb6178d0399fab208d1f7c9c2f873033190f2fe04722dd7fa7"
    ),
}


# sha256 of the JSON stdout at reduced sizes.  JSON carries full binary64
# values, so these also catch ulp-level drift that the 12-digit CSV rounds
# away.
PINNED_JSON = {
    ("fig4", "points=3"): "3c6c08d773e70cc28f20b74cc23961b92019e1ef195971f91d2b8ecde58a48d4",
    ("fig5", "points=24"): "1640c1fa9651a367389fe09563001de76bc9f1c97c8506f6dbc72aa8e4883e9b",
    ("fig5", "horizon=single_cycle", "points=24"): (
        "5d9580069aa8450d78371ec49ced9c1274523a59c8dbcf2e165ed749f8443d48"
    ),
    ("fig6", "points=24"): "8e5a2d31473727d601cf902106d0a80f638cfc6722b92c5eb50332f3488f7919",
    ("sweep", "points=40"): "a54c15f4af00823b784cd2288137fdeeeacf590fadc4de707a858728482a2849",
    ("sweep", "regime=markov", "points=40"): (
        "b778a24e6a11df088fb00d95cc9304387e1fb818fba4894d68ada58320d5b8ff"
    ),
}

# sha256 of the verify stdout per (suite, format): the observed values are
# printed to 6 digits in text and in full in JSON.
PINNED_VERIFY = {
    ("all", "text"): "135d5eaa6db7c9287e2658dd68a34da53d6dd72cc0425b62906ed08116aa83cb",
    ("all", "json"): "0911e0fa036373af09f8f67479df7de4c7d87a5d3ca40ebd5b37cf0a7f1e56f8",
    ("first-law", "text"): "fc7d5b021ed3c6c7dd6642a3be039dc2e5d3603a5b813868faca9d8c411801b2",
    ("first-law", "json"): "4746fc206b1659559ffa6c8721c7c41ce6bb22ea9e3bedc12e267db1d892bad2",
}


def stdout_digest(argv, capsys) -> str:
    assert cli.main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def table_argv(case, fmt):
    command, *overrides = case
    argv = [command, "--format", fmt]
    for pair in overrides:
        argv += ["--set", pair]
    return argv


@pytest.mark.parametrize("case", list(PINNED_TABLES), ids=lambda c: "-".join(c))
def test_csv_tables_are_pinned(case, capsys):
    assert stdout_digest(table_argv(case, "csv"), capsys) == PINNED_TABLES[case]


@pytest.mark.parametrize("case", list(PINNED_JSON), ids=lambda c: "-".join(c))
def test_json_tables_are_pinned(case, capsys):
    assert stdout_digest(table_argv(case, "json"), capsys) == PINNED_JSON[case]


@pytest.mark.parametrize("case", list(PINNED_VERIFY), ids=lambda c: "-".join(c))
def test_verify_output_is_pinned(case, capsys):
    suite, fmt = case
    argv = ["verify", "--suite", suite, "--format", fmt]
    assert stdout_digest(argv, capsys) == PINNED_VERIFY[case]


VANISHING_WORK_MESSAGES = {
    "single_cycle": "work mean vanishes",
    "infinite": "untilted cycle map squared has zero entries",
}


@pytest.mark.parametrize("horizon", list(VANISHING_WORK_MESSAGES))
def test_fig5_vanishing_work_mean_is_a_validation_error(horizon, capsys):
    # at omega_H ~ 1100 T_H the Boltzmann factor exp(-omega_H / T_H)
    # underflows to 0: the work mean is exactly 0 and the cycle map is not
    # primitive, so neither ratio is defined
    argv = [
        "fig5", "--set", f"horizon={horizon}", "--set", "omega_lo=1100", "--set", "omega_hi=1101"
    ]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("thermalops fig5: ")
    assert VANISHING_WORK_MESSAGES[horizon] in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("horizon", ["single_cycle", "infinite"])
def test_fig5_tiny_work_mean_is_the_cycle_work(horizon, capsys):
    # near omega_H ~ 40 T_H the work is about 1e-17, far below the
    # populations it is the difference of; the counting statistics still
    # give the closed-form cycle work
    argv = ["fig5", "--format", "json", "--set", f"horizon={horizon}"]
    argv += ["--set", "omega_lo=36", "--set", "omega_hi=41", "--set", "points=6"]
    assert cli.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    for code, omega_H, w, _ in rows[:-1]:
        regime = ("nonmarkov", "markov")[int(code)]
        expected = otto_work(otto_config_at(0.3, 0.5, 1.0, omega_H, regime))
        assert 0.0 < expected < 3e-15
        assert math.isclose(w, expected, rel_tol=1e-12)


@pytest.mark.parametrize(
    "command, key, other", [("sweep", "omega_hi", "omega_lo"), ("fig1", "t2_max", "t2_min")]
)
def test_infinite_grid_bound_is_a_validation_error(command, key, other, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--set", f"{key}=inf"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"thermalops {command}: need 0 < {other} < {key} < inf")
    assert f"{key}=inf" in captured.err
    assert captured.err.count("\n") == 1


def test_sweep_gap_underflow_is_a_validation_error(capsys):
    # the first gap is the smallest subnormal: omega_C = 0.4 * omega_H rounds
    # to 0 inside the row loop, after the scalars were checked
    argv = ["sweep", "--set", "omega_lo=5e-324", "--set", "eta=0.6", "--set", "eta_C=0.7"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("thermalops sweep: need omega_H > omega_C > 0")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("setting", ["J=0", "J=-1", "J=inf", "jt_max=inf", "jt_max=nan"])
def test_micro_report_rejects_bad_coupling_and_horizon(setting, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["micro-report", "--set", setting]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("thermalops micro-report: need 0 < J < inf and 0 <= jt_max")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command, points, minimum",
    [
        ("fig4", -1, 1),
        ("fig4", 0, 1),
        ("micro-report", -1, 1),
        ("micro-report", 0, 1),
        ("sweep", 1, 2),
    ],
)
def test_too_few_points_is_a_validation_error(command, points, minimum, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--set", f"points={points}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"thermalops {command}: need points >= {minimum}, got points={points}\n"


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_micro_report_reaches_hot_baths(capsys):
    # n_max = 2400 is far beyond what a dense 4802-dimensional evolution allows
    argv = ["micro-report", "--set", "beta_omega=0.01", "--set", "n_max=2400"]
    assert cli.main(argv + ["--set", "points=17"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert rows.shape == (34, 3)
    assert ((rows[:, 2] >= 0.0) & (rows[:, 2] <= 1.0 + 1e-12)).all()
    half_rabi = (rows[:, 0] == 0) & np.isclose(rows[:, 1], 1.6)
    assert rows[half_rabi, 2] < 0.01  # J t = 1.6 is 0.03 past the exact swap


def test_verify_closed_form_against_dense():
    record = closed_form_vs_dense()
    assert (record.suite, record.check) == ("microscopic-eto", "closed-form-vs-dense")
    assert record.passed and record.bound == 1e-14


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
