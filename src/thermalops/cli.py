"""Command-line front end emitting machine-readable tables.

Every figure-style command writes one deterministic table: a single
``#``-prefixed metadata line carrying the command name, artifact version,
the full parameter set, and the column names, followed by pure numeric
rows (CSV, 12 significant digits) or the equivalent JSON document (full
binary64 round-trip).  No timestamps appear anywhere, so reruns are
bit-identical.

Exit codes: 0 success, 1 validation error, 2 verification failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .errors import ThermalOpsError
from .fcs import intercycle_pcc
from .maps import eto_vs_thermalization_scan
from .microscopic import JC_KINDS, FockTruncation, eto_approximation_report
from .optimize import (
    ENGINES,
    HORIZONS,
    REGIMES,
    _work_curve,
    fluctuation_curve,
    otto_config_at,
    three_stroke_config_at,
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


def _log_grid(p, lo: str, hi: str) -> np.ndarray:
    """``p["points"]`` log-spaced values from ``p[lo]`` to ``p[hi]``."""
    if not 0.0 < p[lo] < p[hi] < math.inf:
        raise ThermalOpsError(f"need 0 < {lo} < {hi} < inf, got {lo}={p[lo]}, {hi}={p[hi]}")
    return np.logspace(math.log10(p[lo]), math.log10(p[hi]), _points(p, 2))


def _run_fig1(p):
    grid = _log_grid(p, "t2_min", "t2_max")
    rows = eto_vs_thermalization_scan(p["omega_over_T1"], grid)
    return ["t2_over_t1", "p_e_eto", "p_e_thermalization"], rows.tolist()


def _run_fig4(p):
    etas = np.linspace(p["eta_min"], p["eta_max"], _points(p, 1))
    curves = {
        engine: work_efficiency_curve(p["eta_C"], p["T_H"], engine, etas)
        for engine in ENGINES
    }
    rows = [
        [eta, curves[NONMARKOV][i, 1], curves[MARKOV][i, 1], curves["three_stroke"][i, 1]]
        for i, eta in enumerate(etas)
    ]
    return ["eta", "W_nonmarkov", "W_markov", "W_three_stroke"], rows


def _run_fig5(p):
    if p["horizon"] not in HORIZONS:
        raise ThermalOpsError(f"horizon must be one of {HORIZONS}, got {p['horizon']!r}")
    grid = _log_grid(p, "omega_lo", "omega_hi")
    data = fluctuation_curve(p["eta"], p["eta_C"], p["T_H"], p["horizon"], grid)
    rows = []
    for engine in (NONMARKOV, MARKOV):
        rows.extend([ENGINE_CODES[engine], *r] for r in data[engine].tolist())
    rows.append([ENGINE_CODES["three_stroke"], *data["three_stroke"].tolist()])
    return ["engine", "omega_H", "W", "variance_over_mean"], rows


def _run_fig6(p):
    grid = _log_grid(p, "omega_lo", "omega_hi")
    engines = [
        (NONMARKOV, otto_config_at(p["eta"], p["eta_C"], p["T_H"], w, NONMARKOV)) for w in grid
    ]
    engines.append(("three_stroke", three_stroke_config_at(p["eta"], p["eta_C"], p["T_H"])))
    rows = []
    for engine, cfg in engines:
        cycle = cfg.cycle()
        points, W, _ = cycle.run()
        pcc = intercycle_pcc(cycle, points[0])
        rows.append([ENGINE_CODES[engine], cycle.strokes[0].omega, W / p["T_H"], pcc])
    return ["engine", "omega_H", "W", "pcc"], rows


def _run_sweep(p):
    if p["regime"] not in REGIMES:
        raise ThermalOpsError(f"regime must be one of {REGIMES}, got {p['regime']!r}")
    grid = _log_grid(p, "omega_lo", "omega_hi")
    work = _work_curve(p["eta"], p["eta_C"], p["T_H"], p["regime"])
    return ["omega_H", "W"], [[w, work(w)] for w in grid.tolist()]


def _run_micro_report(p):
    if not (0.0 < p["J"] < math.inf and 0.0 <= p["jt_max"] < math.inf):
        raise ThermalOpsError(
            f"need 0 < J < inf and 0 <= jt_max < inf, got J={p['J']}, jt_max={p['jt_max']}"
        )
    tr = FockTruncation(
        n_max=p["n_max"], omega=1.0, beta=p["beta_omega"], tail_bound=p["tail_bound"]
    )
    times = np.linspace(0.0, p["jt_max"] / p["J"], _points(p, 1))
    report = eto_approximation_report(p["J"], tr, times)
    rows = []
    for kind in JC_KINDS:
        rows.extend([KIND_CODES[kind], *r] for r in report[kind].tolist())
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


def _apply_overrides(defaults: dict, pairs: Optional[Sequence[str]]) -> dict:
    params = dict(defaults)
    for pair in pairs or ():
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


def _fmt(value) -> str:
    return f"{float(value):.12g}"


def _render_csv(command: str, params: dict, columns, rows) -> str:
    meta = " ".join(f"{k}={v}" for k, v in params.items())
    lines = [
        f"# command={command} version={__version__} {meta} columns={','.join(columns)}"
    ]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _render_json(command: str, params: dict, columns, rows) -> str:
    payload = {
        "command": command,
        "version": __version__,
        "params": params,
        "columns": list(columns),
        "rows": [[float(v) for v in row] for row in rows],
    }
    return json.dumps(payload, indent=1) + "\n"


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
                "observed": r.observed,
                "bound": r.bound,
                "passed": r.passed,
            }
            for r in records
        ],
        "ok": all(r.passed for r in records),
    }
    return json.dumps(payload, indent=1) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="thermalops",
        description="Single-qubit heat engines driven by thermal operations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"emit the {name} data table")
        cmd.add_argument("--out", default=None, help="output path (default: stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        cmd.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            dest="overrides",
            help="override a default parameter (repeatable)",
        )
    ver = sub.add_parser("verify", help="run the cross-module invariant suites")
    ver.add_argument("--suite", default="all")
    ver.add_argument("--out", default=None)
    ver.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            records = run_suites(args.suite)
            render = _render_verify_json if args.format == "json" else _render_verify_text
            _emit(render(records), args.out)
            return 0 if all(r.passed for r in records) else 2
        defaults, runner = COMMANDS[args.command]
        params = _apply_overrides(defaults, args.overrides)
        columns, rows = runner(params)
        render = _render_json if args.format == "json" else _render_csv
        _emit(render(args.command, params, columns, rows), args.out)
        return 0
    except ThermalOpsError as exc:
        print(f"thermalops {args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"thermalops {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
