"""Constrained performance scans over the Otto gap.

Fixing the efficiency ``eta`` and the Carnot efficiency ``eta_C`` pins
``omega_C = (1 - eta) * omega_H`` and ``T_C = (1 - eta_C) * T_H``, leaving
the single gap ``omega_H`` free.  The work-per-cycle (in units of k_B T_H)
is log-concave in it, so a log-spaced coarse scan on Python floats and one
golden-section refinement of the best point's bracket, to ``1e-8 * T_H``,
find its one maximum (``maximize_work``); fig4 (``work_efficiency_curve``)
scans the window ``[1e-3, 20] * T_H``, so its rows do not depend on the
unit of energy.  Each gap is evaluated with the closed-form Otto work
(``otto.otto_work``) without building an ``OttoConfig``.  A scan checks
``eta``, ``eta_C``, the temperatures and the regime once, in
``_work_curve``, and each gap only for ``omega_H > omega_C > 0``;
``work_at`` is the same curve at one gap, and ``sweep`` rows evaluate it
too.  The three-stroke engine has no free gap once (eta, eta_C) is
chosen: its zero-work gap lies below ``ln 2 * T_H``, its efficiency falls
strictly below that gap, and one bisection there finds the gap at ``eta``.

All scans are deterministic: identical inputs produce bit-identical
outputs.  ``work_efficiency_curve`` and ``fluctuation_curve`` return their
rows as lists of Python floats, the rows the CLI prints; nothing here
imports numpy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidParameterError, NoInteriorMaximumWarning, ZeroWorkError
from .fcs import scaled_cumulants, work_moments
from .maps import Cycle, _otto_work, _three_stroke_work, require_count, require_descending
from .otto import MARKOV, NONMARKOV, OttoConfig, _coupling_rule, _otto_cycle
from .three_stroke import ThreeStrokeConfig

THREE_STROKE_ENGINE = "three_stroke"
ENGINES = (NONMARKOV, MARKOV, THREE_STROKE_ENGINE)

SINGLE_CYCLE = "single_cycle"
INFINITE = "infinite"
HORIZONS = (SINGLE_CYCLE, INFINITE)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_XTOL = 1e-8


@dataclass(frozen=True)
class ScanSpec:
    """Gap-scan specification at fixed (eta, eta_C)."""

    eta: float
    eta_C: float
    T_H: float
    regime: str
    omega_lo: float = 1e-3
    omega_hi: float = 20.0
    grid_size: int = 200

    def __post_init__(self):
        if not 0.0 < self.eta < self.eta_C < 1.0:
            raise InvalidParameterError(
                f"need 0 < eta < eta_C < 1, got eta={self.eta}, eta_C={self.eta_C}"
            )
        _coupling_rule(self.T_H, (1.0 - self.eta_C) * self.T_H, self.regime)  # checks T_H, regime
        if not 0.0 < self.omega_lo < self.omega_hi < math.inf:
            raise InvalidParameterError(
                f"need 0 < omega_lo < omega_hi < inf, got ({self.omega_lo}, {self.omega_hi})"
            )
        require_count(self.grid_size, 3, "grid_size")


@dataclass(frozen=True)
class OptimumRecord:
    """``maximize_work``'s refined gap and work (units of k_B T_H);
    ``converged`` is false when the best coarse point was a range endpoint,
    and ``evaluations`` counts coarse and golden-section evaluations."""

    omega_H_star: float
    W_star: float
    converged: bool
    evaluations: int


def otto_config_at(
    eta: float, eta_C: float, T_H: float, omega_H: float, regime: str
) -> OttoConfig:
    """Otto configuration with (eta, eta_C) pinned; ``omega_H`` and the
    gaps of the config are absolute energies, like ``T_H``.  The couplings
    are those ``otto._coupling_rule`` gives the regime.  ``eta`` and
    ``eta_C`` each lie in (0, 1); ``eta > eta_C`` gives a refrigerator."""
    omega_C = (1.0 - eta) * omega_H
    T_C = (1.0 - eta_C) * T_H
    return OttoConfig._in_regime(regime, T_H, T_C, omega_H, omega_C)


def work_at(eta: float, eta_C: float, T_H: float, omega_H: float, regime: str) -> float:
    """Otto work-per-cycle in units of k_B T_H at the given gap, in closed
    form (``otto.otto_work``), for ``0 < eta <= eta_C < 1``: the engine side
    of ``otto_config_at`` and the Carnot point (W = +0.0).  Makes the checks
    of ``otto_config_at`` on the scalars, without building the config, and
    evaluates the same work."""
    return _work_curve(eta, eta_C, T_H, regime)(omega_H)


def _work_curve(eta: float, eta_C: float, T_H: float, regime: str):
    """``work_at`` as a function of ``omega_H`` alone (``_otto_fields``)."""
    fields = _otto_fields(eta, eta_C, T_H, regime)
    return lambda omega_H: _otto_work(*fields(omega_H)) / T_H


def _otto_fields(eta: float, eta_C: float, T_H: float, regime: str):
    """What ``_otto_cycle`` and ``maps._otto_work`` take for the config of
    ``otto_config_at``, ``(omega_H, omega_C, omega_H / T_H, omega_C / T_C,
    lambda_H, lambda_C)``, as a function of ``omega_H`` alone:
    ``eta``, ``eta_C``, the temperatures and the regime are checked here,
    once, and each gap only for ``omega_H > omega_C > 0``, which also fails
    for NaN, a bool or an ``omega_C`` that underflows to 0."""
    if not 0.0 < eta <= eta_C < 1.0:
        raise InvalidParameterError(f"need 0 < eta <= eta_C < 1, got {eta}, {eta_C}")
    T_C = (1.0 - eta_C) * T_H
    couplings = _coupling_rule(T_H, T_C, regime)
    keep = 1.0 - eta

    def fields(omega_H: float) -> tuple:
        omega_C = keep * omega_H
        if isinstance(omega_H, bool) or not omega_H > omega_C > 0.0:
            raise InvalidParameterError(f"need omega_H > omega_C > 0, got {(omega_H, omega_C)}")
        return (omega_H, omega_C, omega_H / T_H, omega_C / T_C, *couplings(omega_H, omega_C))

    return fields


def _golden_max(f, lo: float, hi: float, xtol: float = _XTOL):
    """Golden-section maximization on [lo, hi] until the bracket is ``xtol``
    wide or an inner point rounds onto its end; returns (x, f(x), evals)."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    while b - a > xtol and a < c and d < b:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        evals += 1
    if fc > fd:
        return c, fc, evals
    return d, fd, evals


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``num >= 1`` evenly spaced floats from ``start`` to ``stop``, rounded
    as ``numpy.linspace`` rounds them: ``i * step + start`` with the last
    point ``stop``, or ``(i / (num - 1)) * (stop - start) + start`` when the
    step underflows to 0.  One point is ``0 * (stop - start) + start``, so
    a NaN or infinite ``stop`` still shows."""
    delta = stop - start
    if num == 1:
        return [0.0 * delta + start]
    div = num - 1
    step = delta / div
    if step == 0.0:
        return [i / div * delta + start for i in range(div)] + [stop]
    return [i * step + start for i in range(div)] + [stop]


def _logspace(lo: float, hi: float, n: int) -> list[float]:
    """``n >= 2`` log-spaced floats from ``lo`` to ``hi``, for ``0 < lo < hi``:
    the one log grid of the gap scan and of the CLI tables.  The ends are
    ``lo`` and ``hi`` themselves (``10**log10(20.0)`` rounds to
    ``20.000000000000004``).  Each inner point is ``math.pow(10, y)`` on
    ``_linspace`` exponents, which rounds every point of the default grids
    correctly; ``numpy.logspace`` takes a SIMD power that depends on the
    CPU.  In a window a few ulps wide the powers may round outside
    ``[lo, hi]``; they are then clamped into it.  They rise with ``y``, so
    only the points next to the ends can leave the window."""
    grid = [math.pow(10.0, y) for y in _linspace(math.log10(lo), math.log10(hi), n)]
    grid[0], grid[-1] = lo, hi
    if grid[1] < lo or grid[-2] > hi:
        return [min(max(x, lo), hi) for x in grid]
    return grid


def maximize_work(spec: ScanSpec) -> OptimumRecord:
    """Maximize the Otto work-per-cycle over the gap range: a log-spaced
    coarse scan, then one golden-section refinement, to ``1e-8 * T_H`` in
    ``omega_H``, of the grid steps next to the best coarse point.  If that
    point is a range endpoint a ``NoInteriorMaximumWarning`` is issued and
    the record is marked unconverged.

    One refinement suffices: at fixed (eta, eta_C) the work is strictly
    log-concave in ``a = omega_H / T_H``, so it has one maximum, which the
    best coarse point brackets.  With ``kappa = (1 - eta) / (1 - eta_C) >
    1`` (``omega_C / T_C = kappa a``) and ``phi(y) = (y / sinh y)**2``,
    which lies in (0, 1) and falls as ``y`` grows:
    - ``nonmarkov``: ``W / T_H = eta a sinh((kappa-1) a/2) / sinh((kappa+1)
      a/2)`` and ``(ln W)'' = [phi((kappa+1) a/2) - phi((kappa-1) a/2) - 1]
      / a**2 < 0``;
    - ``markov``: ``W / T_H = eta a [1/(1 + e^a) - 1/(1 + e^(kappa a))]``,
      so ``ln W = ln a + a + ln(e^((kappa-1) a) - 1) - ln(1 + e^a) - ln(1 +
      e^(kappa a)) + const``, a sum of concave terms.
    Rounding can tie neighbouring coarse values, or break their order where
    ``W * T_H`` is a few subnormal quanta; the optimum then moves by about
    that rounding.
    """
    n = spec.grid_size
    grid = _logspace(spec.omega_lo, spec.omega_hi, n)
    f = _work_curve(spec.eta, spec.eta_C, spec.T_H, spec.regime)
    values = [f(w) for w in grid]
    best = max(range(n), key=values.__getitem__)  # the first maximum, like argmax
    converged = 0 < best < n - 1
    if not converged:
        warnings.warn(
            f"coarse-scan maximum at range endpoint omega_H={grid[best]:.6g}; "
            "widen [omega_lo, omega_hi]",
            NoInteriorMaximumWarning,
            stacklevel=2,
        )
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, n - 1)]
    x, fx, evals = _golden_max(f, lo, hi, _XTOL * spec.T_H)
    if fx > values[best]:
        return OptimumRecord(x, fx, converged, n + evals)
    return OptimumRecord(grid[best], values[best], converged, n + evals)


def _bisect(below_edge, lo: float, hi: float) -> float:
    """Midpoint of the final bracket of a bisection on [lo, hi] for the
    point where ``below_edge`` turns false; stops once the midpoint rounds
    onto an end of the bracket (every later step would too), or after 200."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if below_edge(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def three_stroke_omega_for_eta(eta: float, eta_C: float, T_H: float) -> float:
    """Gap at which the three-stroke engine runs at efficiency ``eta``: one
    bisection finds the zero-work gap in ``[1e-12, 1] * T_H``, a second the
    gap below it where the efficiency falls to ``eta``.  Both are sound:
    - with ``x = exp(-omega/T_H)`` and ``y = exp(-omega/T_C) < x``, the ETO
      work vanishes where ``1 - 2x + xy = 0``, so at ``x = 1/(2 - y) > 1/2``:
      the zero-work gap lies below ``ln 2 * T_H``, and ``W(T_H) < 0``;
    - with ``a = omega/T_H`` and ``kappa = T_H/T_C``, ``d/da ln[(e^a - 1)/
      (1 - e^(-kappa a))] = 1/(1 - e^(-a)) - kappa/(e^(kappa a) - 1) >
      1/a - 1/a = 0``, so ``eta`` falls strictly on the whole branch.
    """
    if not 0.0 < eta < eta_C < 1.0:
        raise InvalidParameterError(
            f"target efficiency {eta} outside the attainable range (0, {eta_C})"
        )
    T_C = (1.0 - eta_C) * T_H
    _coupling_rule(T_H, T_C, NONMARKOV)  # checks the temperatures
    lo = 1e-12 * T_H
    omega_max = _bisect(lambda w: _three_stroke_work(w, w / T_H, w / T_C, 1.0, 1.0) > 0.0, lo, T_H)
    return _bisect(
        lambda w: 1.0 - math.expm1(w / T_H) / -math.expm1(-w / T_C) > eta, lo, omega_max
    )


def three_stroke_config_at(eta: float, eta_C: float, T_H: float) -> ThreeStrokeConfig:
    omega = three_stroke_omega_for_eta(eta, eta_C, T_H)
    return ThreeStrokeConfig.nonmarkov(omega, T_H, (1.0 - eta_C) * T_H)


def work_efficiency_curve(
    eta_C: float, T_H: float, engine: str, eta_grid: Sequence[float]
) -> list[list[float]]:
    """Work-per-cycle (k_B T_H units) vs efficiency for one engine, as rows
    ``[eta, W]`` of floats.

    Otto rows maximize over the gap in ``[1e-3 * T_H, 20 * T_H]`` at each
    efficiency; three-stroke rows invert the efficiency for the gap and
    evaluate the cycle's closed-form work there.
    """
    etas = [float(eta) for eta in eta_grid]
    if not etas or not all(0.0 < eta < eta_C for eta in etas):  # NaN fails too
        raise InvalidParameterError("eta grid must lie strictly inside (0, eta_C)")
    if engine not in ENGINES:
        raise InvalidParameterError(f"engine must be one of {ENGINES}, got {engine!r}")
    rows = []
    for eta in etas:
        if engine == THREE_STROKE_ENGINE:
            w = three_stroke_config_at(eta, eta_C, T_H).cycle().work() / T_H
        else:
            w = maximize_work(ScanSpec(eta, eta_C, T_H, engine, 1e-3 * T_H, 20.0 * T_H)).W_star
        rows.append([eta, w])
    return rows


def _fluctuation_point(cycle: Cycle, horizon: str) -> tuple[float, float]:
    """Work mean and variance-to-mean ratio of one engine at the horizon."""
    if horizon == SINGLE_CYCLE:
        stats = work_moments(cycle, None, 1)  # from the steady state it derives
        return stats.mean, stats.ratio
    mean, var = scaled_cumulants(cycle)
    if mean == 0.0:
        raise ZeroWorkError(
            f"{horizon} work mean vanishes at gap {cycle.strokes[0].omega:.6g}; "
            "variance-to-mean ratio undefined"
        )
    return mean, var / mean


def fluctuation_curve(
    eta: float,
    eta_C: float,
    T_H: float,
    horizon: str,
    omega_H_grid: Sequence[float],
) -> dict[str, list]:
    """Work vs variance-to-work ratio at fixed (eta, eta_C).

    Returns, per Otto regime, rows ``[omega_H, W, ratio]`` of floats
    parametrized by the gap grid, plus the single three-stroke point, one
    such row, under the key ``"three_stroke"``.  Energies are in units of
    k_B T_H.  ``horizon`` selects single-cycle statistics or the
    infinite-cycle scaled limit.
    """
    if horizon not in HORIZONS:
        raise InvalidParameterError(f"horizon must be one of {HORIZONS}, got {horizon!r}")
    if not 0.0 < eta < eta_C < 1.0:
        raise InvalidParameterError("need 0 < eta < eta_C < 1")
    grid = [float(omega_H) for omega_H in omega_H_grid]
    if not grid or not all(omega_H > 0.0 for omega_H in grid):  # NaN fails too
        raise InvalidParameterError("omega_H grid entries must be > 0")

    # Energies in the unit 2**e next to T_H: a power of two rescales every
    # float exactly, and the variance in energy squared neither overflows nor
    # underflows, as it would at T_H = 1e300 or 1e-300.
    require_descending(T_H=T_H)
    e = math.frexp(T_H)[1]
    unit = math.ldexp(T_H, -e)  # T_H in that unit
    out: dict[str, list] = {}
    for regime in (NONMARKOV, MARKOV):
        fields = _otto_fields(eta, eta_C, unit, regime)
        rows = []
        for omega_H in grid:
            cycle = _otto_cycle(*fields(math.ldexp(omega_H, -e)))
            mean, ratio = _fluctuation_point(cycle, horizon)
            rows.append([omega_H, mean / unit, ratio / unit])
        out[regime] = rows
    cfg3 = three_stroke_config_at(eta, eta_C, unit)
    mean, ratio = _fluctuation_point(cfg3.cycle(), horizon)
    out[THREE_STROKE_ENGINE] = [math.ldexp(cfg3.omega, e), mean / unit, ratio / unit]
    return out
