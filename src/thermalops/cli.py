"""Command-line front end emitting machine-readable tables.

Every figure-style command writes one deterministic table: a single
``#``-prefixed metadata line carrying the command name, artifact version,
the full parameter set, and the column names, followed by pure numeric
rows (CSV, 12 significant digits) or the equivalent JSON document (full
binary64 round-trip).  No timestamps appear anywhere, so reruns are
bit-identical.  fig5 and fig6 print the rows of one generator, which checks fig5's horizon
too, in a power-of-two unit of energy next to ``T_H`` (``optimize._fluctuation_rows``).

The grammar is argparse's over one table, ``_OPTIONS``: the options of
every command of ``COMMANDS`` and of ``verify``.  ``_parse`` reads a
well-formed request (the command, then each option spelled in full and its
value) from the table without importing argparse.  Any other vector, help
and usage errors included, goes to ``_argparse``, which imports argparse
and builds its parser from the same table only then.  Likewise only the
two JSON renderers import ``json``.  A table's rows are written by one
``%`` over all of its values (``_render_csv``, ``_render_json``).

Exit codes: 0 success or help, 1 validation or usage error, 2 verification
failure, 3 I/O error.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from itertools import chain

from . import __version__
from .errors import ThermalOpsError
from .maps import eto_vs_thermalization_scan
from .microscopic import JC_KINDS, FockTruncation, eto_approximation_report
from .optimize import (
    _PCC,
    ENGINES,
    _fluctuation_rows,
    _linspace,
    _logspace,
    _otto_works,
    work_efficiency_curve,
)
from .otto import MARKOV, NONMARKOV
from .verify import run_suites

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
    curves = [work_efficiency_curve(p["eta_C"], p["T_H"], engine, etas) for engine in ENGINES]
    rows = [[eta, *(w for _, w in cells)] for eta, *cells in zip(etas, *curves)]
    return ["eta", "W_nonmarkov", "W_markov", "W_three_stroke"], rows


def _run_fig5(p):
    grid = _log_grid(p, "omega_lo", "omega_hi")
    horizon = p["horizon"]  # checked by the generator, first of its checks
    rows = _fluctuation_rows(p["eta"], p["eta_C"], p["T_H"], grid, (NONMARKOV, MARKOV), horizon)
    return ["engine", "omega_H", "W", "variance_over_mean"], list(rows)


def _run_fig6(p):
    grid = _log_grid(p, "omega_lo", "omega_hi")
    rows = _fluctuation_rows(p["eta"], p["eta_C"], p["T_H"], grid, (NONMARKOV,), _PCC)
    return ["engine", "omega_H", "W", "pcc"], list(rows)


def _run_sweep(p):
    grid = _log_grid(p, "omega_lo", "omega_hi")
    works = _otto_works(p["eta"], p["eta_C"], p["T_H"], p["regime"], grid)
    return ["omega_H", "W"], list(zip(grid, works))


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
            params[key] = type(params[key])(text)  # each default is an int, a float or a str
        except ValueError as exc:
            raise ThermalOpsError(f"cannot parse {pair!r}: {exc}") from exc
    return params


def _render_csv(command: str, params: dict, columns, rows) -> str:
    """The header line, then each row's values as ``%.12g``, comma-separated:
    every row is written by one ``%`` over the table's flattened values."""
    meta = " ".join(f"{k}={v}" for k, v in params.items())
    row = "\n" + ",".join(["%.12g"] * len(columns))
    body = (row * len(rows)) % tuple(chain.from_iterable(rows))
    return f"# command={command} version={__version__} {meta} columns={','.join(columns)}{body}\n"


def _render_json(command: str, params: dict, columns, rows) -> str:
    """``json.dumps(payload, indent=1) + "\\n"``, byte for byte, for the
    payload of the header fields and ``rows`` as lists of floats.

    Any ``indent`` sends ``json`` to its pure-Python encoder, which costs
    more than the rows themselves, so only the small header goes through it
    (it escapes the strings).  All rows are written by one ``%`` with one
    ``%r`` per value, over the table's flattened values as floats:
    ``float.__repr__`` is what ``json`` writes for a finite float.  Finite
    reprs hold no ``n``, so only a table with a ``nan`` or ``inf`` is
    rewritten to ``json``'s ``NaN``, ``Infinity`` and ``-Infinity``.
    """
    import json

    head = json.dumps(
        {"command": command, "version": __version__, "params": params, "columns": list(columns)},
        indent=1,
    )
    row = "\n  [" + ",".join(["\n   %r"] * len(columns)) + "\n  ]"
    body = ",".join([row] * len(rows)) % tuple(map(float, chain.from_iterable(rows)))
    if "n" in body:
        body = body.replace("nan", "NaN").replace("inf", "Infinity")
    block = f"[{body}\n ]" if rows else "[]"
    return f'{head[:-2]},\n "rows": {block}\n}}\n'


def _emit(text: str, out_path: str | None) -> None:
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
    import json

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


# Each command's options, in the order help lists them, with the tuple of
# the only values it may take (None for any).  Every option takes one value;
# ``--set`` repeats, the others keep their last.
_TABLE_OPTIONS = {"--out": None, "--format": ("csv", "json"), "--set": None}
_OPTIONS = {
    **{name: _TABLE_OPTIONS for name in COMMANDS},
    "verify": {"--suite": None, "--out": None, "--format": ("text", "json")},
}
_HELP = {
    **{name: f"emit the {name} data table" for name in COMMANDS},
    "verify": "run the cross-module invariant suites",
    "--out": "output path (default: stdout)",
    "--set": "override a default parameter (repeatable)",
}


def _fields(command: str, given: dict) -> tuple:
    """``(command, out, format, overrides, suite)`` from the values given."""
    fmt = given.get("--format", _OPTIONS[command]["--format"][0])
    return command, given.get("--out"), fmt, given.get("--set", []), given.get("--suite", "all")


def _parse(argv: Sequence[str]) -> tuple:
    """``(command, out, format, overrides, suite)`` of an argument vector.

    Reads the common form itself: a command, then options of ``_OPTIONS``
    spelled in full, each followed by a value that does not start with
    ``-`` and is one of the option's choices, if it has any.  argparse reads
    that form the same way; every other vector goes to ``_argparse``.
    """
    options = _OPTIONS.get(argv[0]) if argv else None
    if options is None or len(argv) % 2 == 0:
        return _argparse(argv)
    given = {"--set": []}
    for name, value in zip(argv[1::2], argv[2::2]):
        choices = options.get(name)
        if name not in options or value[:1] == "-" or choices and value not in choices:
            return _argparse(argv)
        if name == "--set":
            given[name].append(value)
        else:
            given[name] = value
    return _fields(argv[0], given)


def _argparse(argv: Sequence[str]) -> tuple:
    """``_parse``'s tuple, read by argparse from a parser built from
    ``_OPTIONS``: it takes a unique prefix of an option, ``--opt=VALUE``,
    ``--`` and values that start with ``-``.  Help exits 0; a usage error
    exits 1, as a validation error does."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse defaults to exit code 2
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = Parser(
        prog="thermalops", description="Single-qubit heat engines driven by thermal operations"
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, options in _OPTIONS.items():
        sub = commands.add_parser(name, help=_HELP[name], argument_default=argparse.SUPPRESS)
        for option, choices in options.items():
            repeats = option == "--set"
            sub.add_argument(
                option,
                action="append" if repeats else "store",
                choices=choices,
                metavar="KEY=VALUE" if repeats else None,
                help=_HELP.get(option),
            )
    given = vars(parser.parse_args(argv))
    return _fields(given.pop("command"), {f"--{key}": value for key, value in given.items()})


def main(argv: Sequence[str] | None = None) -> int:
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
