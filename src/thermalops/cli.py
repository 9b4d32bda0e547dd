"""Command-line front end emitting machine-readable tables.

Every figure-style command writes one deterministic table: a single
``#``-prefixed metadata line carrying the command name, artifact version,
the full parameter set, and the column names, followed by pure numeric
rows (CSV, 12 significant digits) or the equivalent JSON document (full
binary64 round-trip).  No timestamps appear anywhere, so reruns are
bit-identical.  fig5 and fig6 read their rows from one checked path, in a
power-of-two unit of energy next to ``T_H`` (``optimize._fluctuation_cycles``).

The arguments are read by ``_parse`` from one table, ``_OPTIONS``: the
options of every command of ``COMMANDS`` and of ``verify``.  The grammar
and its usage errors are argparse's, word for word, without its import or
its parser build: the command first, then ``--opt VALUE`` or
``--opt=VALUE`` with a unique prefix of the option allowed, and ``-h`` or
``--help`` at either level.

Exit codes: 0 success or help, 1 validation or usage error, 2 verification
failure, 3 I/O error.
"""

from __future__ import annotations

import json
import math
import re
import sys
from typing import Optional, Sequence

from . import __version__
from .errors import ThermalOpsError
from .fcs import _cell_sums, _pcc
from .maps import _cycle_work, eto_vs_thermalization_scan
from .microscopic import JC_KINDS, FockTruncation, eto_approximation_report
from .optimize import (
    ENGINES,
    _fluctuation_cycles,
    _linspace,
    _logspace,
    _work_curve,
    fluctuation_curve,
    work_efficiency_curve,
)
from .otto import MARKOV, NONMARKOV
from .verify import run_suites

ENGINE_CODES = {NONMARKOV: 0, MARKOV: 1, "three_stroke": 2}
KIND_CODES = {kind: i for i, kind in enumerate(JC_KINDS)}


def _points(p, minimum: int) -> int:
    """``p["points"]``, required to be at least ``minimum``."""
    if p["points"] < minimum:
        raise ThermalOpsError(f"need points >= {minimum}, got points={p['points']}")
    return p["points"]


def _log_grid(p, lo: str, hi: str) -> list[float]:
    """``p["points"]`` log-spaced values from ``p[lo]`` to ``p[hi]``."""
    if not 0.0 < p[lo] < p[hi] < math.inf:
        raise ThermalOpsError(f"need 0 < {lo} < {hi} < inf, got {lo}={p[lo]}, {hi}={p[hi]}")
    return _logspace(p[lo], p[hi], _points(p, 2))


def _run_fig1(p):
    grid = _log_grid(p, "t2_min", "t2_max")
    rows = eto_vs_thermalization_scan(p["omega_over_T1"], grid)
    return ["t2_over_t1", "p_e_eto", "p_e_thermalization"], rows


def _run_fig4(p):
    etas = _linspace(p["eta_min"], p["eta_max"], _points(p, 1))
    curves = {
        engine: work_efficiency_curve(p["eta_C"], p["T_H"], engine, etas) for engine in ENGINES
    }
    rows = [
        [eta, curves[NONMARKOV][i][1], curves[MARKOV][i][1], curves["three_stroke"][i][1]]
        for i, eta in enumerate(etas)
    ]
    return ["eta", "W_nonmarkov", "W_markov", "W_three_stroke"], rows


def _run_fig5(p):
    grid = _log_grid(p, "omega_lo", "omega_hi")
    data = fluctuation_curve(p["eta"], p["eta_C"], p["T_H"], p["horizon"], grid)
    rows = [[ENGINE_CODES[engine], *r] for engine in (NONMARKOV, MARKOV) for r in data[engine]]
    rows.append([ENGINE_CODES["three_stroke"], *data["three_stroke"]])
    return ["engine", "omega_H", "W", "variance_over_mean"], rows


def _run_fig6(p):
    grid = _log_grid(p, "omega_lo", "omega_hi")
    cycles = _fluctuation_cycles(p["eta"], p["eta_C"], p["T_H"], grid, (NONMARKOV,))
    unit = next(cycles)
    return ["engine", "omega_H", "W", "pcc"], [
        [ENGINE_CODES[engine], w, _cycle_work(*c) / unit, _pcc(*_cell_sums(c))]
        for engine, w, c in cycles
    ]


def _run_sweep(p):
    grid = _log_grid(p, "omega_lo", "omega_hi")
    work = _work_curve(p["eta"], p["eta_C"], p["T_H"], p["regime"])
    return ["omega_H", "W"], [[w, work(w)] for w in grid]


def _run_micro_report(p):
    if not (0.0 < p["J"] < math.inf and 0.0 <= p["jt_max"] < math.inf):
        raise ThermalOpsError(
            f"need 0 < J < inf and 0 <= jt_max < inf, got J={p['J']}, jt_max={p['jt_max']}"
        )
    tr = FockTruncation(
        n_max=p["n_max"], omega=1.0, beta=p["beta_omega"], tail_bound=p["tail_bound"]
    )
    times = _linspace(0.0, p["jt_max"] / p["J"], _points(p, 1))
    report = eto_approximation_report(p["J"], tr, times)
    rows = []
    for kind in JC_KINDS:
        rows.extend([KIND_CODES[kind], *r] for r in report[kind])
    return ["kind", "Jt", "deviation_from_eto"], rows


COMMANDS = {
    "fig1": (
        {"omega_over_T1": 0.5, "t2_min": 0.01, "t2_max": 1000.0, "points": 241},
        _run_fig1,
    ),
    "fig4": (
        {"eta_C": 0.5, "T_H": 1.0, "eta_min": 0.02, "eta_max": 0.48, "points": 24},
        _run_fig4,
    ),
    "fig5": (
        {
            "eta": 0.3,
            "eta_C": 0.5,
            "T_H": 1.0,
            "horizon": "infinite",
            "omega_lo": 1e-3,
            "omega_hi": 20.0,
            "points": 120,
        },
        _run_fig5,
    ),
    "fig6": (
        {"eta": 0.3, "eta_C": 0.5, "T_H": 1.0, "omega_lo": 1e-3, "omega_hi": 10.0, "points": 120},
        _run_fig6,
    ),
    "sweep": (
        {
            "eta": 0.3,
            "eta_C": 0.5,
            "T_H": 1.0,
            "regime": "nonmarkov",
            "omega_lo": 1e-3,
            "omega_hi": 20.0,
            "points": 200,
        },
        _run_sweep,
    ),
    "micro-report": (
        {
            "beta_omega": 1.0,
            "n_max": 60,
            "J": 1.0,
            "jt_max": 3.2,
            "points": 65,
            "tail_bound": 1e-10,
        },
        _run_micro_report,
    ),
}


def _apply_overrides(defaults: dict, pairs: Sequence[str]) -> dict:
    params = dict(defaults)
    for pair in pairs:
        if "=" not in pair:
            raise ThermalOpsError(f"--set expects key=value, got {pair!r}")
        key, text = pair.split("=", 1)
        if key not in params:
            raise ThermalOpsError(
                f"unknown parameter {key!r}; valid keys: {', '.join(sorted(params))}"
            )
        try:
            if isinstance(params[key], int):
                params[key] = int(text)
            elif isinstance(params[key], float):
                params[key] = float(text)
            else:
                params[key] = text
        except ValueError as exc:
            raise ThermalOpsError(f"cannot parse {pair!r}: {exc}") from exc
    return params


def _render_csv(command: str, params: dict, columns, rows) -> str:
    meta = " ".join(f"{k}={v}" for k, v in params.items())
    row = ",".join(["%.12g"] * len(columns))
    lines = [
        f"# command={command} version={__version__} {meta} columns={','.join(columns)}",
        *[row % tuple(r) for r in rows],
    ]
    return "\n".join(lines) + "\n"


def _render_json(command: str, params: dict, columns, rows) -> str:
    """``json.dumps(payload, indent=1) + "\\n"``, byte for byte, for the
    payload of the header fields and ``rows`` as lists of floats.

    Any ``indent`` sends ``json`` to its pure-Python encoder, which costs
    more than the rows themselves, so only the small header goes through it
    (it escapes the strings).  The rows are written with one ``%r`` per
    value: ``float.__repr__`` is what ``json`` writes for a finite float.
    Finite reprs hold no ``n``, so only a table with a ``nan`` or ``inf``
    is rewritten to ``json``'s ``NaN``, ``Infinity`` and ``-Infinity``.
    """
    head = json.dumps(
        {"command": command, "version": __version__, "params": params, "columns": list(columns)},
        indent=1,
    )
    row = "\n  [" + ",".join(["\n   %r"] * len(columns)) + "\n  ]"
    body = ",".join([row % tuple(map(float, r)) for r in rows])
    if "n" in body:
        body = body.replace("nan", "NaN").replace("inf", "Infinity")
    block = f"[{body}\n ]" if rows else "[]"
    return f'{head[:-2]},\n "rows": {block}\n}}\n'


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as stream:
            stream.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {out_path}: {exc}") from exc


def _render_verify_text(records) -> str:
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.suite}/{r.check} "
        f"observed={r.observed:.6g} bound={r.bound:.6g}"
        for r in records
    ]
    failures = sum(not r.passed for r in records)
    lines.append(f"{len(records) - failures}/{len(records)} checks passed")
    return "\n".join(lines) + "\n"


def _render_verify_json(records) -> str:
    payload = {
        "version": __version__,
        "checks": [
            {
                "suite": r.suite,
                "check": r.check,
                "observed": r.observed if math.isfinite(r.observed) else None,  # JSON has no NaN
                "bound": r.bound,
                "passed": r.passed,
            }
            for r in records
        ],
        "ok": all(r.passed for r in records),
    }
    return json.dumps(payload, indent=1) + "\n"


# Each command's options, in the order help lists them, with the name of
# the value each takes or the tuple of the only values it may take.  Every
# option takes one value; ``--set`` repeats, the others keep their last.
_TABLE_OPTIONS = {"--out": "OUT", "--format": ("csv", "json"), "--set": "KEY=VALUE"}
_OPTIONS = {
    **{name: _TABLE_OPTIONS for name in COMMANDS},
    "verify": {"--suite": "SUITE", "--out": "OUT", "--format": ("text", "json")},
}
_NAMES = {None: ("--help",), **{name: ("--help", *options) for name, options in _OPTIONS.items()}}
_HELP = {
    **{name: f"emit the {name} data table" for name in COMMANDS},
    "verify": "run the cross-module invariant suites",
    "-h, --help": "show this help message and exit",
    "--out": "output path (default: stdout)",
    "--set": "override a default parameter (repeatable)",
}
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse reads these as values


def _metavar(value) -> str:
    return "{" + ",".join(value) + "}" if type(value) is tuple else value


def _invalid(value: str, choices) -> str:
    return f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


def _usage(command: Optional[str]) -> str:
    if command is None:
        return f"usage: thermalops [-h] {_metavar(tuple(_OPTIONS))} ...\n"
    options = "".join(f" [{name} {_metavar(v)}]" for name, v in _OPTIONS[command].items())
    return f"usage: thermalops {command} [-h]{options}\n"


def _fail(command: Optional[str], message: str):
    """Exit 1 with a usage line and argparse's error line on stderr."""
    prog = "thermalops" if command is None else f"thermalops {command}"
    sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
    raise SystemExit(1)


def _help(command: Optional[str], token: str, inline: Optional[str]):
    """Print the help of the program or of ``command`` and exit 0.  As in
    argparse, ``-hh`` is ``-h`` twice and any other inline value is an error."""
    if inline is not None and (token[1] == "-" or not inline or inline.lstrip("h")):
        ignored = inline if token[1] == "-" else inline.lstrip("h")
        _fail(command, f"argument -h/--help: ignored explicit argument {ignored!r}")
    rows = [("-h, --help", _HELP["-h, --help"])]
    if command is None:
        lines = ["", "Single-qubit heat engines driven by thermal operations", "", "commands:"]
        lines += [f"  {name:<22}{_HELP[name]}" for name in _OPTIONS]
    else:
        lines = []
        options = _OPTIONS[command].items()
        rows += [(f"{name} {_metavar(v)}", _HELP.get(name, "")) for name, v in options]
    lines += ["", "options:", *(f"  {name:<22}{text}".rstrip() for name, text in rows)]
    sys.stdout.write(_usage(command) + "\n".join(lines) + "\n")
    raise SystemExit(0)


def _read(token: str, command: Optional[str]):
    """How argparse reads ``token`` among the program's options (``command``
    None) or a command's: None for a value, else the option it names (None
    if unknown) and its inline value.  A long option takes a unique prefix
    and ``=VALUE``; ``-h`` may run on as ``-hVALUE``."""
    if token[:1] != "-" or token == "-":
        return None
    names = _NAMES[command]
    if token in names:
        return token, None
    if token[1] == "-":
        head, eq, inline = token.partition("=")
        found = [name for name in names if name.startswith(head)]
        if len(found) > 1:
            _fail(command, f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], inline if eq else None
    elif token[1] == "h":
        return "--help", token[3:] if token[2:3] == "=" else token[2:] or None
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _parse(argv: Sequence[str]) -> tuple:
    """``(command, out, format, overrides, suite)`` of an argument vector.

    The grammar and the messages are those of argparse for ``thermalops
    COMMAND [OPTION VALUE]...`` with the options of ``_OPTIONS``: help exits
    0, a usage error exits 1 through ``_fail``.  An option's value is the
    next token unless that reads as an option; the tokens from ``--`` on,
    and any that no option takes, are unrecognized.
    """
    args, extras, i = list(argv), [], 0
    while i < len(args) and (read := None if args[i] == "--" else _read(args[i], None)):
        if read[0]:
            _help(None, args[i], read[1])
        extras.append(args[i])
        i += 1
    if args[i:] in ([], ["--"]):
        _fail(None, "the following arguments are required: command")
    command, rest = args[i], args[i + 1 :]
    if command not in _OPTIONS:
        _fail(None, f"argument command: {_invalid(command, _OPTIONS)}")
    options = _OPTIONS[command]
    stop = rest.index("--") if "--" in rest else len(rest)
    reads = [_read(token, command) for token in rest[:stop]]  # an ambiguous one fails first
    values = {"--out": None, "--format": options["--format"][0], "--set": [], "--suite": "all"}
    i = 0
    while i < stop:
        read, i = reads[i], i + 1
        if read is None or read[0] is None:
            extras.append(rest[i - 1])
            continue
        name, value = read
        if name == "--help":
            _help(command, rest[i - 1], value)
        if value is None:
            if i == stop or reads[i] is not None:
                _fail(command, f"argument {name}: expected one argument")
            value, i = rest[i], i + 1
        choices = options[name]
        if type(choices) is tuple and value not in choices:
            _fail(command, f"argument {name}: {_invalid(value, choices)}")
        if name == "--set":
            values[name].append(value)
        else:
            values[name] = value
    if extras + rest[stop:]:
        _fail(None, f"unrecognized arguments: {' '.join(extras + rest[stop:])}")
    return command, values["--out"], values["--format"], values["--set"], values["--suite"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    command, out, fmt, overrides, suite = _parse(sys.argv[1:] if argv is None else argv)
    try:
        if command == "verify":
            records = run_suites(suite)
            render = _render_verify_json if fmt == "json" else _render_verify_text
            _emit(render(records), out)
            return 0 if all(r.passed for r in records) else 2
        defaults, runner = COMMANDS[command]
        params = _apply_overrides(defaults, overrides)
        columns, rows = runner(params)
        render = _render_json if fmt == "json" else _render_csv
        _emit(render(command, params, columns, rows), out)
        return 0
    except ThermalOpsError as exc:
        print(f"thermalops {command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"thermalops {command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
