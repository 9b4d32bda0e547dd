import hashlib
import json
import math
import os
import random
import subprocess
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thermalops
from thermalops import cli, verify
from thermalops.fcs import pcc_three_stroke_exact
from thermalops.maps import GibbsStochasticMatrix, _unchecked, build_map
from thermalops.optimize import otto_config_at
from thermalops.cli import ENGINE_CODES
from thermalops.otto import otto_work
from thermalops.microscopic import (
    STANDARD,
    FockTruncation,
    induced_population_map,
    jc_evolution_map,
    jc_unitary,
)
from thermalops.verify import CheckRecord, suite_gibbs_fixed_point

from oracles import config_cycle, three_stroke_config_at


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
    ("fig5", "points=24"): "c7d5d6020617e23a841153f82b51c9e9c38946e8065d323f318ca82a3ce09e7f",
    ("fig5", "horizon=single_cycle", "points=24"): (
        "af12401708d8f4a44cc620add7ab7b273e23aacf06a94f95c13adba6e6d2f4d0"
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
    ("fig4", "points=3"): "8ed106228003eb97233019d4ac6849667e042b0e4a89d9fd9bdcfe025752c2c6",
    ("fig5", "points=24"): "1ba8b1e2a348643d8d0b49b1718d750f98d7a2b253ec1302ee6d08e85122ab4e",
    ("fig5", "horizon=single_cycle", "points=24"): (
        "975b885ad2819b56fc346cbf0b9378f54387958023128c32f4a744537d3c133e"
    ),
    ("fig6", "points=24"): "b060b69926b0a8b895050cfeeeb2f4068d803875588f4a3cbc8edd1e227e73a1",
    ("sweep", "points=40"): "ec4b123d0709a4a5c5d0d9f5b08fdd32e13c2edf33c091b8a117cfc10e0fb467",
    ("sweep", "regime=markov", "points=40"): (
        "656e36d2301b397ec15fff508a029b4ab9be7cd5962303300784dfff3fbb8b4b"
    ),
    ("micro-report", "n_max=30", "points=9"): (
        "5599719595baeaf79802af2e267ef71bbc872bf523f3e4b50d45d56765e98f8e"
    ),
}

# sha256 of the verify stdout per (suite, format): the observed values are
# printed to 6 digits in text and in full in JSON.
PINNED_VERIFY = {
    ("all", "text"): "7d9a71cbf6be63db98573eadc55377fab802beae1c3edacd378fa1f833b2e5d3",
    ("all", "json"): "50a854886ae812b2931597e53d9755baec603fd64d475d0c2e5538b58302e325",
    ("first-law", "text"): "9b69e9df7a8b33ebcf789b291ecf0c88ed8e61bf450a2618ea8cec0df1b75bf0",
    ("first-law", "json"): "f06db3d813c6b00cdbfc69f393dfad79d165918230572cca9955e94eb3e689ba",
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


# The renderers as they were written before the rows skipped json's indent
# encoder and the per-value format: the oracles the renderers must match.
def json_oracle(command, params, columns, rows):
    payload = {
        "command": command,
        "version": thermalops.__version__,
        "params": params,
        "columns": list(columns),
        "rows": [[float(v) for v in row] for row in rows],
    }
    return json.dumps(payload, indent=1) + "\n"


def csv_oracle(command, params, columns, rows):
    meta = " ".join(f"{k}={v}" for k, v in params.items())
    lines = [
        f"# command={command} version={thermalops.__version__} {meta} columns={','.join(columns)}"
    ]
    lines.extend(",".join(f"{float(v):.12g}" for v in row) for row in rows)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_default_tables_match_the_oracle_renderers(command):
    defaults, runner = cli.COMMANDS[command]
    columns, rows = runner(dict(defaults))
    assert cli._render_json(command, defaults, columns, rows) == json_oracle(
        command, defaults, columns, rows
    )
    assert cli._render_csv(command, defaults, columns, rows) == csv_oracle(
        command, defaults, columns, rows
    )


# repr switches to exponent form below 1e-4 and from 1e16 on
TABLE_VALUES = st.one_of(
    st.floats(),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2e-308]
        + [0.1, 1e-4, 1e-5, 9999999999999998.0, 1e16]
    ),
    st.integers(-(2**64), 2**64),
)


@st.composite
def tables(draw):
    width = draw(st.integers(1, 4))
    columns = draw(st.lists(st.text(max_size=4), min_size=width, max_size=width))
    rows = draw(st.lists(st.lists(TABLE_VALUES, min_size=width, max_size=width), max_size=6))
    params = draw(
        st.dictionaries(st.text(max_size=4), st.one_of(st.text(), st.floats(), st.integers()))
    )
    return params, columns, rows


@settings(max_examples=1000)
@given(tables())
@example(({}, ["W"], [[1.0], [math.nan], [-math.inf]]))
@example(({"T_H": 1.0}, ["eta", "W"], []))
@example(({'a "quoted" \\ key': "caf\u00e9\n", "eta": math.nan}, ["engine", "W"], [[2, 5e-324]]))
def test_renderers_match_the_oracles_byte_for_byte(table):
    params, columns, rows = table
    assert cli._render_json("t", params, columns, rows) == json_oracle("t", params, columns, rows)
    assert cli._render_csv("t", params, columns, rows) == csv_oracle("t", params, columns, rows)


def test_module_entry_point_prints_what_main_prints(capsys, monkeypatch):
    # a usage error and help import argparse, here in a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help to
    src = os.path.dirname(os.path.dirname(thermalops.__file__))
    runs = [
        (["fig1", "--set", "points=3"], 0, "# command=fig1", ""),
        ([], 1, "", f"\n{MISSING_COMMAND}\n"),
        (["fig1", "-h"], 0, "usage: thermalops fig1 [-h]", ""),
    ]
    for argv, code, out_head, err_tail in runs:
        done = subprocess.run(
            [sys.executable, "-m", "thermalops.cli", *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        try:
            assert cli.main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
        captured = capsys.readouterr()
        assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)
        assert done.stdout.startswith(out_head) and done.stderr.endswith(err_tail), argv


def test_the_import_loads_no_dataclasses_inspect_or_numpy():
    # the records are named tuples, so the import needs neither dataclasses
    # nor the inspect it loads; only the dense pair of microscopic imports numpy
    probe = "import sys, thermalops, thermalops.cli; print(*sorted(sys.modules))"
    src = os.path.dirname(os.path.dirname(thermalops.__file__))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "thermalops.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "numpy"}


# Prints whether json is loaded before thermalops is imported, then after
# each of fig1, verify --format text and fig1 --format json in turn.
NO_JSON_PROBE = """
import io, sys
from contextlib import redirect_stdout

loaded = ["json" in sys.modules]
from thermalops.cli import main

for argv in (["fig1"], ["verify", "--format", "text"], ["fig1", "--format", "json"]):
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    loaded.append("json" in sys.modules)
print(*loaded)
"""


def test_csv_and_text_requests_leave_json_unloaded():
    # json is imported only to render --format json; the last run shows the
    # probe sees it when it is loaded
    src = os.path.dirname(os.path.dirname(thermalops.__file__))
    done = subprocess.run(
        [sys.executable, "-c", NO_JSON_PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    at_start, *after = done.stdout.split()
    if at_start == "True":
        pytest.skip("site start-up already loads json")
    assert after == ["False", "False", "True"]


# In a bare interpreter, prints whether typing and whether re is loaded
# before thermalops is imported, after the import, after every command at its
# defaults in CSV or text, and after fig1 --format json.  It swaps
# sys.stdout by hand: contextlib would load functools.
NO_TYPING_PROBE = """
import io, sys

def loaded():
    return f"{'typing' in sys.modules},{'re' in sys.modules}"

report = [loaded()]
import thermalops.cli

report.append(loaded())
stdout = sys.stdout
argvs = [[name] for name in [*thermalops.cli.COMMANDS, "verify"]]
for argv in [*argvs, ["fig1", "--format", "json"]]:
    sys.stdout = io.StringIO()
    code = thermalops.cli.main(argv)
    sys.stdout = stdout
    assert code == 0, argv
    report.append(loaded())
print(*report)
"""


def test_the_import_and_csv_or_text_commands_leave_typing_and_re_unloaded():
    # -S keeps site start-up from loading them first; the json run shows
    # that the probe sees re once it is loaded
    src = os.path.dirname(os.path.dirname(thermalops.__file__))
    done = subprocess.run(
        [sys.executable, "-S", "-c", NO_TYPING_PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    at_start, *after, json_run = done.stdout.split()
    if at_start != "False,False":
        pytest.skip("interpreter start-up already loads typing or re")
    assert after == ["False,False"] * (2 + len(cli.COMMANDS))
    assert json_run.endswith(",True")


# Runs CLI commands in a fresh interpreter and prints, per command, its
# exit code, the sha256 of its stdout, whether numpy is loaded and whether
# every layer module is; then which layer modules hold a module as np.
IMPORT_PATH_PROBE = """
import hashlib, io, json, sys, types
from contextlib import redirect_stdout

LAYERS = ("cli", "optimize", "otto", "three_stroke", "maps", "fcs", "microscopic", "verify")


def loaded():
    return "numpy" in sys.modules, all(f"thermalops.{name}" in sys.modules for name in LAYERS)


import thermalops.cli

report = [["import", 0, "", *loaded()]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with redirect_stdout(out):
        code = thermalops.cli.main(argv)
    report.append([" ".join(argv), code, hashlib.sha256(out.getvalue().encode()).hexdigest(), *loaded()])
modules = [sys.modules[f"thermalops.{n}"] for n in LAYERS]
report.append([n for n, mod in zip(LAYERS, modules) if isinstance(getattr(mod, "np", None), types.ModuleType)])
print(json.dumps(report))
"""


def test_table_commands_run_without_numpy():
    # the import, every command at its defaults, micro-report at a pinned
    # setting and every verify suite, all of them together too, load every
    # layer module but never numpy; no layer holds numpy as np, and the
    # pinned outputs print
    micro = ("micro-report", "n_max=30", "points=9")
    suites = ("gibbs-fixed-point", "first-law", "oracle-equivalence", "microscopic-eto", "all")
    argvs = [[name] for name in (*cli.COMMANDS, "verify")]
    argvs += [table_argv(micro, "csv"), *(["verify", "--suite", s] for s in suites)]
    argvs.append(["verify", "--suite", "all", "--format", "json"])
    src = os.path.dirname(os.path.dirname(thermalops.__file__))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PATH_PROBE, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    *runs, holding_numpy = json.loads(done.stdout)
    assert len(runs) == 1 + len(argvs)
    for command, code, _, numpy_loaded, layers_loaded in runs:
        assert (command, code, numpy_loaded, layers_loaded) == (command, 0, False, True)
    assert holding_numpy == []
    digests = {command: digest for command, _, digest, *_ in runs}
    assert digests[" ".join(table_argv(micro, "csv"))] == PINNED_TABLES[micro]
    assert digests["verify --suite first-law"] == PINNED_VERIFY[("first-law", "text")]
    assert digests["verify"] == digests["verify --suite all"] == PINNED_VERIFY[("all", "text")]
    assert digests["verify --suite all --format json"] == PINNED_VERIFY[("all", "json")]


# Calls the three public scans in a fresh interpreter and prints their rows
# and whether numpy is loaded afterwards.
SCAN_PROBE = """
import json, sys
from thermalops import eto_vs_thermalization_scan, fluctuation_curve, work_efficiency_curve

fig1 = eto_vs_thermalization_scan(0.5, [0.5, 2.0])
fig4 = work_efficiency_curve(0.5, 1.0, "markov", [0.1, 0.3])
fig5 = fluctuation_curve(0.3, 0.5, 1.0, "infinite", [0.5, 1.0])
rows = [*fig1, *fig4, *fig5["nonmarkov"], *fig5["markov"], fig5["three_stroke"]]
floats = all(type(row) is list and all(type(x) is float for x in row) for row in rows)
print(json.dumps([fig1, fig4, fig5, floats, "numpy" in sys.modules]))
"""


def test_public_scans_return_float_rows_without_numpy():
    src = os.path.dirname(os.path.dirname(thermalops.__file__))
    done = subprocess.run(
        [sys.executable, "-c", SCAN_PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    fig1, fig4, fig5, floats, numpy_loaded = json.loads(done.stdout)
    assert (floats, numpy_loaded) == (True, False)
    # each table's first column is its grid, row by row
    assert [row[0] for row in fig1] == [0.5, 2.0] and all(len(row) == 3 for row in fig1)
    assert [row[0] for row in fig4] == [0.1, 0.3] and all(len(row) == 2 for row in fig4)
    assert sorted(fig5) == ["markov", "nonmarkov", "three_stroke"]
    for regime in ("nonmarkov", "markov"):
        assert [row[0] for row in fig5[regime]] == [0.5, 1.0]
        assert all(len(row) == 3 for row in fig5[regime])
    assert len(fig5["three_stroke"]) == 3


# Makes numpy unimportable, imports the package, runs each command and builds
# maps from nested lists; prints each command's exit code and stdout, the
# maps' entries, and whether an import of numpy fails.
NO_NUMPY_PROBE = """
import io, json, math, sys
from contextlib import redirect_stdout

sys.modules["numpy"] = None
import thermalops
from thermalops import GibbsStochasticMatrix, InducedMap, stationary_population
from thermalops.cli import main

runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
gibbs = GibbsStochasticMatrix([[0.75, 0.5], [0.25, 0.5]], 1.0, math.log(2.0))
induced = InducedMap(((0.75, 0.5), (0.25, 0.5)))
p = stationary_population([[0.5, 0.5], [0.5, 0.5]])
try:
    import numpy
    blocked = False
except ImportError:
    blocked = True
print(json.dumps([runs, [gibbs.entries, induced.entries, p], blocked]))
"""


def test_the_package_runs_with_numpy_unimportable(capsys):
    # every command at its defaults prints what it prints with numpy, and
    # nested lists are matrix input without it
    argvs = [[name] for name in (*cli.COMMANDS, "verify")] + [["verify", "--suite", "all"]]
    src = os.path.dirname(os.path.dirname(thermalops.__file__))
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_PROBE, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    runs, maps, blocked = json.loads(done.stdout)
    assert blocked
    assert "numpy" in sys.modules  # this interpreter has it
    for argv, (code, text) in zip(argvs, runs, strict=True):
        assert (code, text) == (cli.main(argv), capsys.readouterr().out), argv
    assert maps == [[0.75, 0.5, 0.25, 0.5], [0.75, 0.5, 0.25, 0.5], [0.5, 0.5]]


# Makes argparse unimportable and runs each argument vector through main;
# prints each exit code and stdout.
NO_ARGPARSE_PROBE = """
import io, json, sys
from contextlib import redirect_stdout

sys.modules["argparse"] = None
from thermalops.cli import main

runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
"""


def test_the_cli_runs_with_argparse_unimportable(capsys):
    # every command at its defaults, and with its options spelled out, prints
    # what it prints here; only help and usage errors need argparse
    argvs = [[name] for name in (*cli.COMMANDS, "verify")]
    argvs += [
        [name, "--format", "json", "--set", f"points={defaults['points']}"]
        for name, (defaults, _) in cli.COMMANDS.items()
    ]
    argvs += [["verify", "--suite", "first-law", "--format", "json"]]
    src = os.path.dirname(os.path.dirname(thermalops.__file__))
    done = subprocess.run(
        [sys.executable, "-c", NO_ARGPARSE_PROBE, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for argv, (code, text) in zip(argvs, json.loads(done.stdout), strict=True):
        assert (code, text) == (cli.main(argv), capsys.readouterr().out), argv


def json_rows(argv, capsys):
    assert cli.main([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["rows"]


def row_config(command, code, omega_H, **overrides):
    p = {**cli.COMMANDS[command][0], **overrides}
    if code == ENGINE_CODES["three_stroke"]:
        return three_stroke_config_at(p["eta"], p["eta_C"], p["T_H"])
    regime = next(name for name, value in ENGINE_CODES.items() if value == code)
    return otto_config_at(p["eta"], p["eta_C"], p["T_H"], omega_H, regime)


@pytest.mark.parametrize("horizon", ["infinite", "single_cycle"])
def test_fig5_matches_a_decimal_evaluation(horizon, capsys):
    # W within 2e-15 and the variance-to-mean ratio within 2e-14 relative of
    # the model at 60 digits (4.0e-16 and 7.2e-15 measured).  W is each
    # engine's closed form, which does not cancel; at small gaps the variance
    # inherits the rounding of the stay entry 1 - lam q of the heat maps.
    rows = json_rows(["fig5", "--set", f"horizon={horizon}", "--set", "points=24"], capsys)
    assert len(rows) == 49
    T_H = Decimal(cli.COMMANDS["fig5"][0]["T_H"])
    for code, omega_H, w, ratio in rows:
        exact = config_cycle(row_config("fig5", code, omega_H)).statistics()
        variance = exact.variance if horizon == "single_cycle" else exact.scaled_variance
        exact_w, exact_ratio = exact.W / T_H, variance / exact.W / T_H
        assert abs(Decimal(w) / exact_w - 1) <= Decimal("2e-15"), (code, omega_H)
        assert abs(Decimal(ratio) / exact_ratio - 1) <= Decimal("2e-14"), (code, omega_H)


def test_fig6_matches_a_decimal_evaluation(capsys):
    rows = json_rows(["fig6", "--set", "points=24"], capsys)
    assert len(rows) == 25
    T_H = Decimal(cli.COMMANDS["fig6"][0]["T_H"])
    for code, omega_H, w, pcc in rows:
        exact = config_cycle(row_config("fig6", code, omega_H)).statistics()
        assert abs(Decimal(w) / (exact.W / T_H) - 1) <= Decimal("2e-15"), omega_H
        assert abs(Decimal(pcc) - exact.pcc) <= Decimal("2.2e-16"), omega_H


@pytest.mark.parametrize("T_H", [1e-8, 1e3])
def test_rescaled_fig6_matches_a_decimal_evaluation(T_H, capsys):
    # The fig6 engines with every energy scaled by T_H.  The PCC bound is
    # the worst error of the default 120-point table at T_H = 1 before the
    # cell sums, 3.4e-16 (2.7e-16 with them); the 24-point table at T_H = 1
    # stays within 1.6e-16, this one at T_H = 1e-8 within 1.7e-16.
    window = [f"T_H={T_H!r}", f"omega_lo={1e-3 * T_H!r}", f"omega_hi={10.0 * T_H!r}", "points=24"]
    rows = json_rows(["fig6", *(arg for kv in window for arg in ("--set", kv))], capsys)
    assert len(rows) == 25
    for code, omega_H, w, pcc in rows:
        exact = config_cycle(row_config("fig6", code, omega_H, T_H=T_H)).statistics()
        assert abs(Decimal(w) / (exact.W / Decimal(T_H)) - 1) <= Decimal("2e-15")
        assert abs(Decimal(pcc) - exact.pcc) <= Decimal("3.5e-16"), omega_H


@pytest.mark.parametrize("T_H", ["100", "1e-6"])
def test_fig4_does_not_depend_on_the_unit_of_energy(T_H, capsys):
    # the gap window and the golden-section tolerance scale with T_H, so the
    # table in units of T_H is the T_H = 1 table up to rounding
    base = json_rows(["fig4"], capsys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no scan-edge warning either
        rows = json_rows(["fig4", "--set", f"T_H={T_H}"], capsys)
    assert len(rows) == len(base) == 24
    for a, b in zip(base, rows):
        assert a[0] == b[0]
        for k, rel_tol in ((1, 1e-14), (2, 1e-14), (3, 1e-13)):
            assert math.isclose(b[k], a[k], rel_tol=rel_tol), (T_H, a[0], k)


def test_fig4_at_a_subnormal_T_H_is_the_unit_table(capsys):
    # 1 / T_H overflows at T_H = 1e-310; the Markov couplings and the
    # three-stroke efficiency take omega / T, so every column is the T_H = 1
    # table up to the precision of the subnormal gap window (1.8e-11 seen)
    base = json_rows(["fig4"], capsys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = json_rows(["fig4", "--set", "T_H=1e-310"], capsys)
    assert len(rows) == len(base) == 24
    for a, b in zip(base, rows):
        assert a[0] == b[0]
        for k in (1, 2, 3):
            assert math.isclose(b[k], a[k], rel_tol=1e-9), (a[0], k)


@pytest.mark.parametrize("T_H", [1e-310, 1e-300, 1e-8, 1e3, 1e300])
@pytest.mark.parametrize(
    "command, omega_hi",
    [(["fig5"], 20.0), (["fig5", "--set", "horizon=single_cycle"], 20.0), (["fig6"], 10.0)],
    ids=["fig5", "fig5-single_cycle", "fig6"],
)
def test_counting_tables_in_units_of_T_H_are_the_unit_tables(command, omega_hi, T_H, capsys):
    # 1 / T_H overflows at 1e-310, and a variance in energy squared leaves
    # binary64 at 1e-300 and 1e300.  The heat maps take omega / T and the
    # fig5 rows are computed in a power-of-two unit next to T_H, so in units
    # of T_H every column is the T_H = 1 table, to the precision of the
    # subnormal gap window at 1e-310.
    base = json_rows([*command, "--set", "points=24"], capsys)
    window = [f"T_H={T_H!r}", f"omega_lo={1e-3 * T_H!r}", f"omega_hi={omega_hi * T_H!r}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = [*command, "--set", "points=24", *(a for kv in window for a in ("--set", kv))]
        rows = json_rows(argv, capsys)
    assert len(rows) == len(base)
    for a, b in zip(base, rows):
        assert a[0] == b[0]
        assert math.isclose(b[1] / T_H, a[1], rel_tol=1e-9), a
        for k in (2, 3):
            assert math.isclose(b[k], a[k], rel_tol=1e-9), (a, k)


SUBNORMAL_FIG = [
    "T_H=1e-310", "eta_C=1e-6", "eta=1.94e-8", "omega_lo=2.1e-310", "omega_hi=4e-310", "points=2"
]


def test_fig6_prints_the_work_and_gap_of_fig5(capsys):
    # fig6 and fig5 take their rows from one path, in one power-of-two unit:
    # at a subnormal T_H both print the same W column and three-stroke gap
    sets = [arg for kv in SUBNORMAL_FIG for arg in ("--set", kv)]
    fig6 = json_rows(["fig6", *sets], capsys)
    fig5 = json_rows(["fig5", *sets, "--set", "horizon=single_cycle"], capsys)
    codes = (ENGINE_CODES["nonmarkov"], ENGINE_CODES["three_stroke"])
    assert [row[:3] for row in fig6] == [row[:3] for row in fig5 if row[0] in codes]
    assert all(row[2] > 0.0 for row in fig6)


@pytest.mark.parametrize("command", ["fig5", "fig6"])
def test_a_gap_past_the_float_range_in_the_unit_is_a_validation_error(command, capsys):
    # at T_H = 1e-320 the unit is 2**-1063: a gap of 1e-3 is 2**1053 of it
    assert cli.main([command, "--set", "T_H=1e-320"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"thermalops {command}: need omega_H < 2**-39 at T_H=1e-320")
    assert captured.err.count("\n") == 1


def run_outcome(command, p):
    """The rows a table runner returns, or the type and message it raises."""
    try:
        return cli.COMMANDS[command][1](p)[1]
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "key, value",
    [
        ("eta", 0.5),  # eta = eta_C
        ("eta", 0.6),
        ("eta", 0.0),
        ("eta", -0.1),
        ("eta_C", 1.0),
        ("eta_C", 1.5),
        ("T_H", 0.0),
        ("T_H", -1.0),
        ("T_H", math.nan),
        ("points", 0),  # an empty grid, which the CLI's own check would catch first
    ],
)
def test_fig5_and_fig6_reject_a_bad_parameter_alike(key, value, monkeypatch):
    if key == "points":
        monkeypatch.setattr(cli, "_log_grid", lambda p, lo, hi: [])
    outcomes = [
        run_outcome(command, {**cli.COMMANDS[command][0], key: value})
        for command in ("fig5", "fig6")
    ]
    assert outcomes[0][0] is thermalops.InvalidParameterError
    assert outcomes[1] == outcomes[0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["fig5", "--set", "horizon=never"],
            "horizon must be one of ('single_cycle', 'infinite'), got 'never'",
        ),
        (
            ["sweep", "--set", "regime=diesel"],
            "regime must be one of ('markov', 'nonmarkov'), got 'diesel'",
        ),
    ],
)
def test_bad_horizon_and_regime_messages(argv, message, capsys):
    # one check each, in the library; the CLI reports its message
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"thermalops {argv[0]}: {message}\n"


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
    # populations it is the difference of; the counting statistics report
    # the closed-form cycle work itself
    argv = ["fig5", "--format", "json", "--set", f"horizon={horizon}"]
    argv += ["--set", "omega_lo=36", "--set", "omega_hi=41", "--set", "points=6"]
    assert cli.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    for code, omega_H, w, _ in rows[:-1]:
        regime = ("nonmarkov", "markov")[int(code)]
        expected = otto_work(otto_config_at(0.3, 0.5, 1.0, omega_H, regime))
        assert 0.0 < expected < 3e-15
        assert w == expected  # T_H = 1


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


@pytest.mark.parametrize(
    "command, key, other", [("sweep", "omega_hi", "omega_lo"), ("fig1", "t2_max", "t2_min")]
)
def test_a_grid_window_of_one_value_is_a_validation_error(command, key, other, capsys):
    # a log grid needs lo < hi: with both ends at the default low end, no
    # table is written
    low = cli.COMMANDS[command][0][other]
    assert cli.main([command, "--set", f"{key}={low!r}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"thermalops {command}: need 0 < {other} < {key} < inf, got {other}={low}, {key}={low}\n"
    )


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


@pytest.mark.parametrize("J, jt_max", [(0.5, 3.2), (2.0, 3.2), (2.0, 0.0)])
def test_micro_report_spans_jt_from_0_to_jt_max_at_any_coupling(J, jt_max, capsys):
    # the times run to jt_max / J, so the Jt column ends at jt_max whatever
    # J is; jt_max = 0 is the one instant t = 0, where every map is the identity
    argv = ["micro-report", "--set", f"J={J}", "--set", f"jt_max={jt_max}"]
    assert cli.main(argv + ["--set", "n_max=30", "--set", "points=3"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert rows.shape == (6, 3)
    assert rows[:, 1].min() == 0.0 and math.isclose(rows[:, 1].max(), jt_max)


def test_micro_report_reaches_hot_baths(capsys):
    # n_max = 2400 is far beyond what a dense 4802-dimensional evolution allows
    argv = ["micro-report", "--set", "beta_omega=0.01", "--set", "n_max=2400"]
    assert cli.main(argv + ["--set", "points=17"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert rows.shape == (34, 3)
    assert ((rows[:, 2] >= 0.0) & (rows[:, 2] <= 1.0 + 1e-12)).all()
    half_rabi = (rows[:, 0] == 0) & np.isclose(rows[:, 1], 1.6)
    assert rows[half_rabi, 2] < 0.01  # J t = 1.6 is 0.03 past the exact swap


def test_micro_report_at_zero_temperature(capsys):
    # beta_omega = inf: the mode is in the vacuum, where the weight
    # exp(-inf * 0) = nan once stopped the command with exit code 1
    argv = ["micro-report", "--set", "beta_omega=inf", "--set", "n_max=3", "--set", "points=3"]
    assert cli.main(argv) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert rows.shape == (6, 3)
    assert np.isfinite(rows).all()


def closed_form_vs_dense() -> CheckRecord:
    """Per-sector JC map against the dense dilation of the same unitary.

    One standard-coupling evolution at the generic ``J t = 1.2``, where every
    sector sits at a different Rabi angle.  ``n_max = 23`` is the smallest
    truncation within the default tail bound at ``beta omega = 1``, so the
    boundary weight (about 1e-10) would show far above the bound if the
    boundary sector were handled differently from the dense path.

    The record is named as a ``microscopic-eto`` check but is not part of
    that suite: the benchmark's verify checker test edits the suite's literal
    ``2/2 checks`` line, so it can join the suite once that test counts
    records instead.
    """
    tr = FockTruncation(n_max=23, omega=1.0, beta=1.0)
    closed = np.array(jc_evolution_map(1.0, 1.2, tr, STANDARD).entries)
    dense = np.array(induced_population_map(jc_unitary(1.0, 1.2, tr, STANDARD), tr).entries)
    diff = float(np.abs(closed - dense).max())
    return CheckRecord("microscopic-eto", "closed-form-vs-dense", diff, 1e-14)


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
    from thermalops.optimize import _logspace

    expected = eto_vs_thermalization_scan(0.5, _logspace(0.01, 1000.0, 11))
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


def test_verify_detects_injected_perturbation(monkeypatch):
    # corrupting one matrix entry by 1e-6 must break the fixed-point check
    def corrupt(params):
        m = build_map(params)
        m00, m01, m10, m11 = m.entries
        entries = (m00 + 1e-6, m01, m10, m11)
        return _unchecked(
            GibbsStochasticMatrix,
            {"entries": entries, "omega": m.omega, "beta_omega": m.beta_omega},
        )

    monkeypatch.setattr(verify, "build_map", corrupt)
    records = suite_gibbs_fixed_point()
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


def what_main_reads(argv, monkeypatch) -> dict:
    """The fields ``main`` reads of ``argv``: the command, ``--out``, the
    format, and the ``--set`` pairs in order (table commands) or the suite
    (``verify``).  Runners, suites, renderers and the writer are stubbed."""
    seen = {}

    def runner(name):
        return lambda params: seen.update(command=name) or (["x"], [])

    def suites(suite):
        seen.update(command="verify", suite=suite)
        return []

    def overrides(defaults, pairs):
        seen.update(overrides=list(pairs or ()))
        return dict(defaults)

    for name, (defaults, _) in list(cli.COMMANDS.items()):
        monkeypatch.setitem(cli.COMMANDS, name, (defaults, runner(name)))
    monkeypatch.setattr(cli, "run_suites", suites)
    monkeypatch.setattr(cli, "_apply_overrides", overrides)
    for render, fmt in [("_render_csv", "csv"), ("_render_json", "json")]:
        monkeypatch.setattr(cli, render, lambda *args, fmt=fmt: fmt)
    for render, fmt in [("_render_verify_text", "text"), ("_render_verify_json", "json")]:
        monkeypatch.setattr(cli, render, lambda records, fmt=fmt: fmt)
    monkeypatch.setattr(cli, "_emit", lambda text, out: seen.update(format=text, out=out))
    assert cli.main(argv) == 0
    return seen


def table_run(command, out=None, format="csv", overrides=()):
    return {"command": command, "out": out, "format": format, "overrides": list(overrides)}


def verify_run(out=None, format="text", suite="all"):
    return {"command": "verify", "out": out, "format": format, "suite": suite}


# An argument vector and what main reads of it.  A long option takes a
# unique prefix and the --opt=value form, --out, --format and --suite keep
# their last value, --set pairs keep their order, and a value may be a
# negative number or a lone dash.
GRAMMAR_PARSES = [
    (["fig1"], table_run("fig1")),
    (["fig4", "--format=json"], table_run("fig4", format="json")),
    (["fig5", "--form", "json"], table_run("fig5", format="json")),
    (["fig6", "--o", "t.csv"], table_run("fig6", out="t.csv")),
    (["fig1", "--out", "a", "--out=b"], table_run("fig1", out="b")),
    (["sweep", "--format", "json", "--format", "csv"], table_run("sweep")),
    (
        ["sweep", "--set", "b=2", "--set=a=1", "--se", "c=3", "--set", "b=1"],
        table_run("sweep", overrides=["b=2", "a=1", "c=3", "b=1"]),
    ),
    (
        ["micro-report", "--set", "-1", "--out", "-"],
        table_run("micro-report", out="-", overrides=["-1"]),
    ),
    (["fig1", "--set="], table_run("fig1", overrides=[""])),
    (["verify"], verify_run()),
    (
        ["verify", "--suite", "first-law", "--format", "json", "--out", "v.json"],
        verify_run("v.json", "json", "first-law"),
    ),
    (["verify", "--su=gibbs-fixed-point", "--s", "first-law"], verify_run(suite="first-law")),
]


def argv_id(argv) -> str:
    return " ".join(argv) or "(none)"


@pytest.mark.parametrize(
    "argv, fields", GRAMMAR_PARSES, ids=[argv_id(argv) for argv, _ in GRAMMAR_PARSES]
)
def test_the_grammar_reads_each_argument_vector(argv, fields, monkeypatch):
    assert what_main_reads(argv, monkeypatch) == fields


COMMAND_CHOICES = "(choose from 'fig1', 'fig4', 'fig5', 'fig6', 'sweep', 'micro-report', 'verify')"
MISSING_COMMAND = "thermalops: error: the following arguments are required: command"
BAD_FORMAT = "invalid choice: 'xml' (choose from 'csv', 'json')"

# An argument vector and the last stderr line of its usage error, which
# exits with code 1 after a usage line.  A bad option or value is the
# command's error, reported as it is read; a missing or unknown command and
# any token left over are the program's, left-over tokens once the
# command's options are read.  The only ambiguous prefix is the empty one.
GRAMMAR_ERRORS = [
    ([], MISSING_COMMAND),
    (["--"], MISSING_COMMAND),
    (["-x"], MISSING_COMMAND),
    (["figx"], f"thermalops: error: argument command: invalid choice: 'figx' {COMMAND_CHOICES}"),
    (
        ["--format", "json"],
        f"thermalops: error: argument command: invalid choice: 'json' {COMMAND_CHOICES}",
    ),
    (["fig1", "extra"], "thermalops: error: unrecognized arguments: extra"),
    (["-x", "fig1", "-y"], "thermalops: error: unrecognized arguments: -x -y"),
    (["fig1", "--bogus", "--format", "json"], "thermalops: error: unrecognized arguments: --bogus"),
    (["verify", "--set", "a=1"], "thermalops: error: unrecognized arguments: --set a=1"),
    (
        ["fig1", "--", "--format", "json"],
        "thermalops: error: unrecognized arguments: -- --format json",
    ),
    (
        ["fig1", "--format", "xml"],
        f"thermalops fig1: error: argument --format: {BAD_FORMAT}",
    ),
    (
        ["fig1", "extra", "--format", "xml"],
        f"thermalops fig1: error: argument --format: {BAD_FORMAT}",
    ),
    (
        ["verify", "--format", "csv"],
        "thermalops verify: error: argument --format: "
        "invalid choice: 'csv' (choose from 'text', 'json')",
    ),
    (["verify", "--suite"], "thermalops verify: error: argument --suite: expected one argument"),
    (["fig1", "--set", "--out"], "thermalops fig1: error: argument --set: expected one argument"),
    (["fig1", "--out", "-o"], "thermalops fig1: error: argument --out: expected one argument"),
    (["fig1", "--out", "--", "x"], "thermalops fig1: error: argument --out: expected one argument"),
    (
        ["fig1", "-h", "--=json"],
        "thermalops fig1: error: ambiguous option: --=json could match "
        "--help, --out, --format, --set",
    ),
    (
        ["verify", "--=json"],
        "thermalops verify: error: ambiguous option: --=json could match "
        "--help, --suite, --out, --format",
    ),
    (
        ["fig1", "--help=x"],
        "thermalops fig1: error: argument -h/--help: ignored explicit argument 'x'",
    ),
    (["-hx"], "thermalops: error: argument -h/--help: ignored explicit argument 'x'"),
]


@pytest.mark.parametrize(
    "argv, error", GRAMMAR_ERRORS, ids=[argv_id(argv) for argv, _ in GRAMMAR_ERRORS]
)
def test_a_usage_error_exits_with_the_argparse_message(argv, error, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (1, "")
    assert captured.err.startswith("usage: thermalops")
    assert captured.err.endswith(f"\n{error}\n")


HELP_ARGVS = [
    ["-h"],
    ["--help"],
    ["--he"],
    ["-x", "-h"],
    *([name, "-h"] for name in (*cli.COMMANDS, "verify")),
    ["fig1", "--out", "x", "--help"],
    ["fig1", "extra", "--h"],
    ["verify", "-h", "--format", "xml"],
]


@pytest.mark.parametrize("argv", HELP_ARGVS, ids=argv_id)
def test_help_prints_the_usage_and_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    captured = capsys.readouterr()
    assert (info.value.code, captured.err) == (0, "")
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    if command is None:
        assert captured.out.startswith("usage: thermalops [-h]")
        assert all(name in captured.out for name in (*cli.COMMANDS, "verify"))
    else:
        assert captured.out.startswith(f"usage: thermalops {command} [-h]")
        options = ("--suite", "--out", "--format") if command == "verify" else ("--out", "--set")
        assert all(option in captured.out for option in (*options, "--format"))


# Tokens of random argument vectors: the command's options spelled in full
# with plain values or their choices, which the fast reader takes, and the
# forms it leaves to argparse (prefixes, ``=``, help, ``--``, a lone dash,
# negative numbers, "" and unknown words), in option and in value places.
DRAWN_COMMANDS = [*cli.COMMANDS, "verify", "figx", "", "-h", "--", "--format"]
PLAIN_VALUES = ["x.csv", "points=3", "a=1", "first-law", "all", "csv", "json", "text"]
ODD_OPTIONS = [
    "--suite", "--set", "--o", "--form", "--s", "--se", "--su", "--format=json", "--set=a=1",
    "--out=x", "--=json", "-h", "--help", "--he", "--", "-", "-1", "", "extra", "--bogus", "-x",
]
ODD_VALUES = [
    "xml", "", "a b", "-", "-1", "-.5", "-1e3", "-x", "-h", "--", "--out", "--format", "-1 x",
]


def drawn_argv(rng) -> list[str]:
    """A command and up to four option-value pairs, mostly of its own
    options; now and then with a token left off or one more at the end."""
    argv = [rng.choice(DRAWN_COMMANDS)]
    options = cli._OPTIONS.get(argv[0], cli._TABLE_OPTIONS)
    for _ in range(rng.randrange(5)):
        name = rng.choice([*options] if rng.random() < 0.9 else ODD_OPTIONS)
        values = options.get(name) if rng.random() < 0.5 else None
        values = values or (PLAIN_VALUES if rng.random() < 0.9 else ODD_VALUES)
        argv += [name, rng.choice(values)]
    if rng.random() < 0.1:
        argv.pop(rng.randrange(len(argv)))
    if rng.random() < 0.1:
        argv.append(rng.choice(ODD_OPTIONS + ODD_VALUES))
    return argv


class HandedOver(Exception):
    """Raised in place of ``cli._argparse``: ``_parse`` handed its vector over."""


def hand_over(argv):
    raise HandedOver


def test_the_fast_reader_reads_what_argparse_reads(monkeypatch, capsys):
    # a vector _parse hands over gives _argparse's outcome by construction;
    # each one it reads itself must be read so by argparse, silently
    read_by_argparse = cli._argparse
    monkeypatch.setattr(cli, "_argparse", hand_over)
    rng, read = random.Random(41), 0
    for _ in range(2000):
        argv = drawn_argv(rng)
        try:
            fields = cli._parse(argv)
        except HandedOver:
            continue
        read += 1
        try:
            outcome = read_by_argparse(argv)
        except SystemExit as exc:
            outcome = exc.code
        assert (outcome, *capsys.readouterr()) == (fields, "", ""), argv
    assert read >= 400  # the draw reaches the fast reader
