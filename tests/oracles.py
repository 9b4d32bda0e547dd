"""Oracles shared by the tests: the dense excitation swap of the microscopic
dilation, and reference copies of the value checks of ``maps`` and ``otto``
as they read before they were rewritten to test plain floats in one
comparison chain.  The copies raise the same types and messages for real
values.  A value with no order against a float (a string, None, a Python
complex number, an array of several values) makes them raise a bare
``TypeError`` or ``ValueError``; a numpy complex number or a one-value
array compares with a float, and the copies may accept it.  The checks now
raise ``InvalidParameterError`` for every value that is not ``real``,
whatever the copies do with it."""

import math
import numbers

import numpy as np

from thermalops import ConsistencyError, InvalidParameterError, optimize
from thermalops.maps import DRIFT_FAIL, DRIFT_RENORM, STOCHASTIC_TOL


def swap_unitary(tr):
    """Excitation-swap permutation on the truncated product space, in the
    basis ``|s, n>`` at ``s * n_levels + n``.

    An involution commuting with the free Hamiltonian: it permutes states
    within degenerate total-excitation sectors; the unpartnered boundary
    vector ``|e, n_max>`` is held fixed.
    """
    u = np.zeros((tr.dim, tr.dim))
    u[0, 0] = u[-1, -1] = 1.0  # |g, 0> and |e, n_max>
    for n in range(1, tr.n_levels):
        g, e = n, tr.n_levels + n - 1  # |g, n> and |e, n - 1>
        u[e, g] = u[g, e] = 1.0
    return u


def real(*values) -> bool:
    """Whether every value is a ``numbers.Real`` (bools included), the
    values the reference copies stand for."""
    return all(isinstance(v, numbers.Real) for v in values)


def population_vector(p_g, p_e):
    """The fields ``PopulationVector(p_g, p_e)`` holds, or its raise."""
    in_range = 0.0 <= p_g <= 1.0 and 0.0 <= p_e <= 1.0  # NaN fails
    if not in_range or isinstance(p_g, bool) or isinstance(p_e, bool):
        raise InvalidParameterError(f"populations must lie in [0, 1], got ({p_g}, {p_e})")
    if abs(p_g + p_e - 1.0) > DRIFT_RENORM:
        raise InvalidParameterError(
            f"populations must sum to 1 within {DRIFT_RENORM}, got sum {p_g + p_e}"
        )
    return p_g, p_e


def _real(x) -> float:
    if type(x) is not float and isinstance(x, numbers.Complex) and not isinstance(x, numbers.Real):
        raise TypeError(f"{x!r} is complex")
    return float(x)


def from_raw(values):
    """``PopulationVector.from_raw(values)``: every value converted, the
    drifts taken with ``max``, then the constructor's checks again.  Its
    ``float`` parses a string or bytes and reads a one-value array, which
    ``from_raw`` rejects as not real."""
    try:
        p_g, p_e = map(_real, values)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"expected two real populations: {exc}") from None
    overshoot = max(0.0, -p_g, -p_e, p_g - 1.0, p_e - 1.0)
    drift = max(overshoot, abs(p_g + p_e - 1.0))
    if drift > DRIFT_FAIL:
        raise ConsistencyError(
            f"population drift {drift:.3e} exceeds {DRIFT_FAIL}: "
            f"raw values ({p_g}, {p_e})"
        )
    if overshoot > 0.0:
        p_g = min(max(p_g, 0.0), 1.0)
        p_e = min(max(p_e, 0.0), 1.0)
    if drift > DRIFT_RENORM:
        total = p_g + p_e
        p_g, p_e = p_g / total, p_e / total
    return population_vector(p_g, p_e)


def gibbs_stochastic_entries(m00, m01, m10, m11, q):
    """``maps._gibbs_stochastic_entries``, with ``min``/``max`` over the
    entries and the larger residual taken on every call."""
    entries = (m00, m01, m10, m11)
    lo, hi = min(entries), max(entries)
    if lo < -STOCHASTIC_TOL or hi > 1.0 + STOCHASTIC_TOL:
        raise InvalidParameterError("matrix entries must lie in [0, 1]")
    if lo < 0.0 or hi > 1.0:
        entries = tuple(min(max(x, 0.0), 1.0) for x in entries)
        m00, m01, m10, m11 = entries
    cols = (m00 + m10, m01 + m11)
    if not (abs(cols[0] - 1.0) <= STOCHASTIC_TOL and abs(cols[1] - 1.0) <= STOCHASTIC_TOL):
        raise InvalidParameterError(f"columns must sum to 1 within {STOCHASTIC_TOL}, got {cols}")
    g_g, g_e = 1.0 / (1.0 + q), q / (1.0 + q)
    residual = max(abs(m00 * g_g + m01 * g_e - g_g), abs(m10 * g_g + m11 * g_e - g_e))
    if residual > STOCHASTIC_TOL:
        raise InvalidParameterError(
            f"Gibbs populations are not a fixed point (residual {residual:.3e})"
        )
    return entries


def require_descending(**values):
    vals = tuple(values.values())
    for a, b in zip(vals, vals[1:] + (0.0,)):
        if isinstance(a, bool) or not a > b:
            raise InvalidParameterError(f"need {' > '.join(values)} > 0, got {vals}")


def require_unit_interval(**values):
    for name, v in values.items():
        if isinstance(v, bool) or not 0.0 <= v <= 1.0:
            raise InvalidParameterError(f"{name} must lie in [0, 1], got {v}")


def thermal_op_params(omega, beta, lam):
    """The fields ``ThermalOpParams(omega, beta, lam)`` holds, or its raise."""
    require_descending(omega=omega)
    require_descending(beta=beta)
    require_unit_interval(lam=lam)
    return omega, beta, lam


def engine_config(names, n_gaps, fields):
    """``EngineConfig._checked`` on ``fields`` named ``names``, of which the
    first ``n_gaps`` are the gaps: the fields, or the raise."""
    cfg = dict(zip(names, fields))
    require_descending(**{name: cfg[name] for name in names[:n_gaps]})
    require_descending(T_H=cfg["T_H"], T_C=cfg["T_C"])
    require_unit_interval(lambda_H=cfg["lambda_H"], lambda_C=cfg["lambda_C"])
    for name in (names[0], "T_H"):
        if cfg[name] == math.inf:
            raise InvalidParameterError(f"{name} must be finite, got inf")
    return tuple(fields)


def bisection_maximize_work(spec):
    """``optimize.maximize_work`` as it read before regula falsi: plain
    halving of the window on the sign of the slope of ``ln W``, the gaps
    checked through ``_otto_gaps``, and no warning.  The same
    ``OptimumRecord``; ``evaluations`` counts the window's ends and one per
    halving."""
    gaps = optimize._otto_gaps(spec.eta, spec.eta_C, spec.T_H)
    slope = optimize._log_work_slope(spec.regime)
    signs = []

    def rising(omega_H):
        signs.append(slope(*gaps(omega_H)[2:4]) > 0.0)
        return signs[-1]

    lo, hi = spec.omega_lo, spec.omega_hi
    if not rising(lo):
        omega_H = lo
    elif rising(hi):
        omega_H = hi
    else:
        for _ in range(2100):
            mid = 0.5 * lo + 0.5 * hi
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if rising(mid) else (lo, mid)
        omega_H = 0.5 * lo + 0.5 * hi
    W = optimize.work_at(spec.eta, spec.eta_C, spec.T_H, omega_H, spec.regime)
    return optimize.OptimumRecord(omega_H, W, signs[:2] == [True, False], len(signs))
