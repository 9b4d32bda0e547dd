"""Output checks, one independent invariant per request type.

``classify`` sorts every request into one outcome.  All outcomes except
``OK`` count as failed requests.  ``WRONG`` is the one that makes a run
incorrect: the request returned finite numbers that break an invariant.
Requests that raise, exit non-zero or return non-finite numbers are failures
the program reports or could report, and are counted, not hidden.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import THREE_STROKE_ETO, Request

OK = "ok"
RAISED = "raised"
EXIT = "exit"
NONFINITE = "nonfinite"
WRONG = "wrong"

# Counting statistics are verified against enumeration to 1e-8 relative and
# the PCC identities to 1e-9 (acceptance criteria 4 and 6).
MOMENT_RTOL = 1e-8
PCC_TOL = 1e-9
# Closed-form work: the CSV form carries 12 significant digits.
WORK_RTOL = 1e-9
# Map entries are stochastic to the library's own tolerance; at J t = 0 the
# exact deviation from the ETO is 1 and rounding can put it one ulp above.
STOCHASTIC_TOL = 1e-12


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def settings(argv) -> dict[str, str]:
    """``--set key=value`` pairs of a CLI argument vector."""
    return dict(argv[i + 1].split("=", 1) for i, a in enumerate(argv) if a == "--set")


def parse_table(text: str) -> np.ndarray:
    """Rows of a CSV or JSON table written by the CLI."""
    if text.startswith("{"):
        return np.array(json.loads(text)["rows"], dtype=float)
    header, *lines = text.splitlines()
    _require(header.startswith("# command="), "missing metadata line")
    return np.array([[float(v) for v in line.split(",")] for line in lines], dtype=float)


def _otto_closed_form_work(eta, eta_C, T_H, omega_H, regime) -> float:
    """Work per cycle in k_B T_H units from the closed-form populations."""
    from thermalops.optimize import otto_config_at
    from thermalops.otto import analytic_populations

    cfg = otto_config_at(eta, eta_C, T_H, omega_H, regime)
    p_e1, p_e3 = analytic_populations(cfg, regime)
    return (cfg.omega_H - cfg.omega_C) * (p_e3 - p_e1) / T_H


def _close(observed: float, expected: float, rtol: float, atol: float) -> bool:
    return abs(observed - expected) <= rtol * abs(expected) + atol


def check_fig4(p, rows):
    _require(len(rows) == int(p["points"]), "row count")
    _require(bool((rows[:, 1] >= rows[:, 2]).all()), "W_nonmarkov < W_markov")


def check_sweep(p, rows):
    _require(len(rows) == int(p["points"]), "row count")
    eta, eta_C, T_H = float(p["eta"]), float(p["eta_C"]), float(p["T_H"])
    for omega_H, w in rows:
        expected = _otto_closed_form_work(eta, eta_C, T_H, omega_H, p["regime"])
        atol = 1e-12 * omega_H * eta / T_H
        _require(_close(w, expected, WORK_RTOL, atol), f"W={w} vs closed form {expected}")


def check_fig5(p, rows):
    points = int(p["points"])
    _require(len(rows) == 2 * points + 1, "row count")
    _require(bool((rows[:, 3] >= 0.0).all()), "negative variance-to-work ratio")
    if p["horizon"] != "single_cycle":
        return
    # The single-cycle mean from the steady state is the cycle work.
    eta, eta_C, T_H = float(p["eta"]), float(p["eta_C"]), float(p["T_H"])
    regimes = {0: "nonmarkov", 1: "markov"}
    for code, omega_H, w, _ in rows[:-1]:
        expected = _otto_closed_form_work(eta, eta_C, T_H, omega_H, regimes[int(code)])
        atol = MOMENT_RTOL * omega_H * eta / T_H
        _require(_close(w, expected, MOMENT_RTOL, atol), f"mean {w} vs W {expected}")


def check_fig6(p, rows):
    _require(len(rows) == int(p["points"]) + 1, "row count")
    _require(bool((np.abs(rows[:, 3]) <= 1.0).all()), "PCC outside [-1, 1]")
    T_H = float(p["T_H"])
    T_C = (1.0 - float(p["eta_C"])) * T_H
    omega, pcc = rows[-1, 1], rows[-1, 3]
    exact = -math.exp(-(1.0 / T_C + 1.0 / T_H) * omega)
    _require(abs(pcc - exact) <= PCC_TOL, f"three-stroke PCC {pcc} vs exact {exact}")


def check_micro_report(p, rows):
    _require(len(rows) == 2 * int(p["points"]), "row count")
    dev = rows[:, 2]
    ok = (dev >= 0.0) & (dev <= 1.0 + STOCHASTIC_TOL)
    _require(bool(ok.all()), "deviation outside [0, 1]")


TABLE_CHECKS = {
    "fig4": check_fig4,
    "sweep": check_sweep,
    "fig5": check_fig5,
    "fig6": check_fig6,
    "micro-report": check_micro_report,
}


def check_verify(text: str) -> None:
    if text.startswith("{"):
        _require(json.loads(text)["ok"] is True, "verify reported failures")
    else:
        passed, total = text.splitlines()[-1].split()[0].split("/")
        _require(passed == total, "verify reported failures")


def check_quickstart(q, out: dict) -> None:
    n, quantum = q.n, out["quantum"]
    scale = n * quantum  # largest |work| n cycles can produce
    _require(
        _close(out["mean"], n * out["W"], 0.0, MOMENT_RTOL * scale),
        f"N-cycle mean {out['mean']} vs N*W {n * out['W']}",
    )
    if "enum_mean" in out:
        atol = 1e-12 * scale
        _require(
            _close(out["mean"], out["enum_mean"], MOMENT_RTOL, atol), "mean vs enumeration"
        )
        _require(
            _close(out["variance"], out["enum_variance"], MOMENT_RTOL, atol * quantum),
            "variance vs enumeration",
        )
    if q.engine == THREE_STROKE_ETO:
        omega, T_H, T_C = q.config[:3]
        exact = -math.exp(-(1.0 / T_C + 1.0 / T_H) * omega)
        _require(abs(out["pcc"] - exact) <= PCC_TOL, f"PCC {out['pcc']} vs exact {exact}")


def classify(req: Request, code: int, output) -> tuple[str, str]:
    """Outcome of one request that returned (did not raise), with a reason."""
    if code != 0:
        return EXIT, f"exit code {code}"
    try:
        if req.quickstart is not None:
            if not all(math.isfinite(v) for v in output.values()):
                return NONFINITE, "non-finite result"
            check_quickstart(req.quickstart, output)
        elif req.argv[0] == "verify":
            check_verify(output)
        else:
            rows = parse_table(output)
            if not np.isfinite(rows).all():
                return NONFINITE, "non-finite table entry"
            TABLE_CHECKS[req.argv[0]](settings(req.argv), rows)
    except (CheckFailed, ValueError, KeyError, IndexError) as exc:
        return WRONG, f"{type(exc).__name__}: {exc}"
    return OK, ""


class Tally:
    """Outcome counts of checked requests, with the first failure reasons."""

    def __init__(self):
        self.outcomes: dict[str, int] = {}
        self.by_type: dict[str, int] = {}
        self.reasons: list[str] = []

    def add(self, req: Request, code, output) -> None:
        """Check one request's result; ``code`` is None if it raised."""
        outcome, why = (RAISED, output) if code is None else classify(req, code, output)
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.by_type[req.label] = self.by_type.get(req.label, 0) + 1
        if outcome != OK and len(self.reasons) < 10:
            self.reasons.append(f"{req.label}: {outcome}: {why}")

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.outcomes.get(OK, 0)

    @property
    def wrong(self) -> int:
        return self.outcomes.get(WRONG, 0)
