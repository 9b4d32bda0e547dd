"""Constrained performance scans over the Otto gap.

Fixing the efficiency ``eta`` and the Carnot efficiency ``eta_C`` pins
``omega_C = (1 - eta) * omega_H`` and ``T_C = (1 - eta_C) * T_H``, leaving
the single gap ``omega_H`` free.  The work-per-cycle (in units of k_B T_H)
is strictly log-concave in ``a = omega_H / T_H``, so its one maximum is
the one root of the slope of ``ln W``, which has a closed form in each
regime; ``maximize_work`` brackets that root by Illinois regula falsi on
the slope's values (``_bisect``), down to the adjacent floats that halving
on its sign reaches.  fig4 (``work_efficiency_curve``) searches the window
``[1e-3, 20] * T_H``, so its rows do not depend on the unit of energy.
Each gap is evaluated in closed form, with no ``OttoConfig``, map or cycle, on
one checked loop, ``_otto_scan``: ``eta``, ``eta_C``, the temperatures and the
regime once, then each gap for ``omega_H > omega_C > 0``.  It gives the Otto
work (``maps._otto_work``) of ``sweep``, ``work_at`` and an optimum's
``W_star`` (``_otto_works``), and the cycle floats (``maps._cycle_floats``) of
a fig5 or fig6 Otto row.  An optimum's slope evaluations check each gap apart.
The three-stroke engine has no free gap once (eta, eta_C) is chosen: its
efficiency falls strictly with the gap, from ``eta_C`` to below 0 at
``T_H``, so one plain halving search (``_halve``) in ``[1e-12, 1] * T_H``
finds the gap at ``eta``.  fig5 and fig6 are two statistics of the same rows,
which one generator yields finished (``_fluctuation_rows``).

All scans are deterministic: identical inputs produce bit-identical
outputs.  ``work_efficiency_curve`` and ``fluctuation_curve`` return their
rows as lists of Python floats, the rows the CLI prints.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from collections.abc import Sequence

from .errors import InvalidParameterError, NoInteriorMaximumWarning, ZeroWorkError
from .fcs import _cell_sums, _moments, _pcc, _scaled
from .maps import _Checked, _cycle_floats, _cycle_work, _otto_work, _three_stroke_work
from .maps import _real_grid, _require_real, _require_type, _shown, require_descending
from .otto import MARKOV, NONMARKOV, REGIMES, OttoConfig, _coupling_rule

THREE_STROKE_ENGINE = "three_stroke"
ENGINES = (NONMARKOV, MARKOV, THREE_STROKE_ENGINE)

SINGLE_CYCLE = "single_cycle"
INFINITE = "infinite"
HORIZONS = (SINGLE_CYCLE, INFINITE)
_PCC = "pcc"  # fig6's statistic, in place of a horizon


class ScanSpec(_Checked, namedtuple("ScanSpec", "eta eta_C T_H regime omega_lo omega_hi")):
    """Gap-scan specification at fixed (eta, eta_C)."""

    __slots__ = ()

    def __new__(
        cls,
        eta: float,
        eta_C: float,
        T_H: float,
        regime: str,
        omega_lo: float = 1e-3,
        omega_hi: float = 20.0,
    ):
        self = tuple.__new__(cls, (eta, eta_C, T_H, regime, omega_lo, omega_hi))
        if (
            type(eta) is float is type(eta_C) is type(T_H) is type(omega_lo) is type(omega_hi)
            and 0.0 < eta < eta_C < 1.0
            and T_H > (1.0 - eta_C) * T_H > 0.0
            and math.inf > omega_hi > omega_lo > 0.0
            and regime in REGIMES
        ):  # other types, and every failure, go through the named checks
            return self
        _require_real(eta=eta, eta_C=eta_C, T_H=T_H)
        require_descending(omega_hi=omega_hi, omega_lo=omega_lo)  # rejects bools and NaN
        if not (0.0 < eta < eta_C and omega_hi < math.inf):
            raise InvalidParameterError(f"need 0 < eta < eta_C and omega_hi < inf, got {self}")
        _coupling_rule(T_H, _cold_side(eta, eta_C, T_H)[1], regime)  # eta_C < 1, T_H, regime
        return self


class OptimumRecord(namedtuple("OptimumRecord", "omega_H_star W_star converged evaluations")):
    """``maximize_work``'s gap and the work there (units of k_B T_H);
    ``converged`` is false when the maximum sits at a window end, and
    ``evaluations`` counts the evaluations of the slope of ``ln W``: the
    window's ends, then one per step of ``_bisect`` (a median of 13-14 on
    the fig4 grid, at most four per halving of the window)."""

    __slots__ = ()


def otto_config_at(
    eta: float, eta_C: float, T_H: float, omega_H: float, regime: str
) -> OttoConfig:
    """Otto configuration with (eta, eta_C) pinned; ``omega_H`` and the
    gaps of the config are absolute energies, like ``T_H``.  The couplings
    are those ``otto._coupling_rule`` gives the regime.  ``eta`` and
    ``eta_C`` each lie in (0, 1); ``eta > eta_C`` gives a refrigerator."""
    _require_real(eta=eta, eta_C=eta_C, T_H=T_H, omega_H=omega_H)
    omega_C = (1.0 - eta) * omega_H
    T_C = (1.0 - eta_C) * T_H
    return OttoConfig._in_regime(regime, T_H, T_C, omega_H, omega_C)


def work_at(eta: float, eta_C: float, T_H: float, omega_H: float, regime: str) -> float:
    """Otto work-per-cycle in units of k_B T_H at the given gap, in closed
    form (``otto.otto_work``), for ``0 < eta <= eta_C < 1``: the engine side
    of ``otto_config_at`` and the Carnot point (W = +0.0).  Makes the checks
    of ``otto_config_at`` on the scalars, each once, without building the
    config, and evaluates the same work: ``_otto_works`` on the one gap."""
    _require_real(omega_H=omega_H)
    return _otto_works(eta, eta_C, T_H, regime, (omega_H,))[0]


def _otto_works(eta: float, eta_C: float, T_H: float, regime: str, grid) -> list[float]:
    """``work_at`` at each real gap of ``grid``: ``maps._otto_work`` on ``_otto_scan``."""
    return [w / T_H for w in _otto_scan(eta, eta_C, T_H, regime, grid, _otto_work)]


def _otto_scan(eta: float, eta_C: float, T_H: float, regime: str, grid, form):
    """``form(omega_H, omega_C, omega_H / T_H, omega_C / T_C, lambda_H, lambda_C)``
    at each gap of ``grid``, lazily: checks ``eta``, ``eta_C``, the temperatures
    and the regime once, then each gap for ``omega_H > omega_C > 0``, which also
    fails for NaN or an ``omega_C`` that underflows to 0.  The ETO's couplings
    are read once, a Markov gap's from its coupling rule."""
    if type(eta) is float is type(eta_C) is type(T_H) and 0.0 < eta <= eta_C < 1.0:
        keep, T_C = 1.0 - eta, (1.0 - eta_C) * T_H
    else:  # other types, and every failure, go through the named checks
        _require_real(eta=eta, eta_C=eta_C, T_H=T_H)
        keep, T_C = _cold_side(eta, eta_C, T_H)
    couplings = _coupling_rule(T_H, T_C, regime)
    fixed = regime == NONMARKOV and couplings(T_H, T_C)  # the ETO's, the same at any gap
    for omega_H in grid:
        omega_C = keep * omega_H
        if not omega_H > omega_C > 0.0:
            raise _gap_error(omega_H, omega_C)
        l_H, l_C = fixed or couplings(omega_H, omega_C)
        yield form(omega_H, omega_C, omega_H / T_H, omega_C / T_C, l_H, l_C)


def _cold_side(eta: float, eta_C: float, T_H: float) -> tuple[float, float]:
    """``(1 - eta, T_C)`` for real values, once ``0 < eta <= eta_C < 1`` is checked."""
    if not 0.0 < eta <= eta_C < 1.0:
        raise InvalidParameterError(f"need 0 < eta <= eta_C < 1, got {eta}, {eta_C}")
    return 1.0 - eta, (1.0 - eta_C) * T_H


def _gap_error(omega_H: float, omega_C: float) -> InvalidParameterError:
    return InvalidParameterError(f"need omega_H > omega_C > 0, got {(omega_H, omega_C)}")


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
    the one log grid of the CLI tables.  The ends are
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
    """Maximize the Otto work-per-cycle over the gap window: ``_bisect``
    brackets the root of the slope of ``ln W`` (``_log_work_slope``) by
    Illinois regula falsi, down to adjacent floats in ``omega_H``.  It trusts
    the fields of ``spec``, checked when it was built, and checks each gap
    for ``omega_H > omega_C > 0`` as ``work_at`` does; a slope evaluation is
    one call on the exponents ``omega / T``; ``W_star`` is ``_otto_works`` at
    the gap found.  Wherever the computed slope changes sign once, that is the
    float that halving alone finds, in a median of 13-14 evaluations on the
    fig4 grid where halving takes 57-59.  A slope not positive at
    ``omega_lo``, or positive at ``omega_hi``, puts the maximum at that end,
    which the record holds, marked unconverged, with a
    ``NoInteriorMaximumWarning``.

    The slope falls through zero once: at fixed (eta, eta_C) the work is
    strictly log-concave in ``a = omega_H / T_H``.  With ``kappa = (1 -
    eta) / (1 - eta_C) > 1`` (``omega_C / T_C = kappa a``) and ``phi(y) =
    (y / sinh y)**2``, which lies in (0, 1) and falls as ``y`` grows:
    - ``nonmarkov``: ``W / T_H = eta a sinh((kappa-1) a/2) / sinh((kappa+1)
      a/2)`` and ``(ln W)'' = [phi((kappa+1) a/2) - phi((kappa-1) a/2) - 1]
      / a**2 < 0``;
    - ``markov``: ``W / T_H = eta a [1/(1 + e^a) - 1/(1 + e^(kappa a))]``,
      so ``ln W = ln a + a + ln(e^((kappa-1) a) - 1) - ln(1 + e^a) - ln(1 +
      e^(kappa a)) + const``, a sum of concave terms.
    """
    _require_type(spec, ScanSpec)
    eta, eta_C, T_H, regime, lo, hi = spec
    keep, T_C = _cold_side(eta, eta_C, T_H)
    slope = _log_work_slope(regime)
    evaluations = 0

    def value(omega_H: float) -> float:
        nonlocal evaluations
        evaluations += 1
        omega_C = keep * omega_H
        if not omega_H > omega_C > 0.0:
            raise _gap_error(omega_H, omega_C)
        return slope(omega_H / T_H, omega_C / T_C)

    f_lo = value(lo)
    converged = f_lo > 0.0 and not (f_hi := value(hi)) > 0.0  # rising at lo, falling at hi
    if converged:
        omega_H = _bisect(value, lo, hi, (f_lo, f_hi))
    else:
        omega_H = hi if f_lo > 0.0 else lo
        msg = f"work maximum at range endpoint omega_H={omega_H:.6g}; widen [omega_lo, omega_hi]"
        warnings.warn(msg, NoInteriorMaximumWarning, stacklevel=2)
    W_star = _otto_works(eta, eta_C, T_H, regime, (omega_H,))[0]
    return OptimumRecord(omega_H, W_star, converged, evaluations)


def _log_work_slope(regime: str):
    """``a (ln W)'(a)`` for ``maximize_work``'s ``W``, as a function of ``a``
    and ``b = omega_C / T_C = kappa a``, with ``u, v = (b - a)/2, (b + a)/2``:
    ``1 + u coth u - v coth v`` (``nonmarkov``) and ``1 + u coth u - (a/2)
    tanh(a/2) - (b/2) tanh(b/2)`` (``markov``, as ``1/(1 + e^a) - 1/(1 + e^b)
    = sinh u / (2 cosh(a/2) cosh(b/2))``).  ``y coth y = y + B(2y)`` and ``y
    tanh y = y - F(2y)`` give the forms below, where ``B`` lies in (0, 1] and
    ``F`` in [0, 0.28]: the root lies in ``1 < a < 2.6`` and no term there is
    large, where the ``coth`` terms cancel at size ``kappa a / 2``.  An
    overflowing ``b + a`` gives NaN, read as falling, as the slope is."""

    def bose(x: float) -> float:  # B(x) = x / (e^x - 1), 1 at x = 0
        return x * math.exp(-x) / -math.expm1(-x) if x else 1.0

    def fermi(x: float) -> float:  # F(x) = x / (e^x + 1)
        q = math.exp(-x)
        return x * q / (1.0 + q)

    if regime == NONMARKOV:
        return lambda a, b: 1.0 - a + bose(b - a) - bose(b + a)
    return lambda a, b: 1.0 - a + bose(b - a) + fermi(a) + fermi(b)


def _halve(pred, lo: float, hi: float) -> float:
    """Midpoint of the final bracket of plain halving on ``0 <= lo < hi < inf``
    for the point where ``pred(x)`` turns false, once the midpoint rounds onto
    an end.  Halving each end keeps ``lo + hi`` from overflowing and rounds as
    ``0.5 * (lo + hi)`` above the subnormals; 2100 halvings cover any bracket
    (2**1024 wide at most, floats 2**-1074 apart at least)."""
    for _ in range(2100):
        mid = 0.5 * lo + 0.5 * hi
        if mid in (lo, hi):
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * lo + 0.5 * hi


def _bisect(value, lo: float, hi: float, ends: tuple[float, float]) -> float:
    """``_halve``'s float for ``value(x) > 0``, given ``ends = (value(lo),
    value(hi))``, in fewer evaluations.  Every step keeps ``value > 0`` at
    ``lo`` and not at ``hi``, so wherever that sign changes once over the
    floats, every way of stepping ends on the same adjacent pair and returns
    the same float.

    Each step goes to the regula falsi point of the bracket, and an end kept
    twice in a row has its value halved (the Illinois rule: Dowell &
    Jarratt, BIT 11, 168 (1971)), which converges superlinearly on a smooth
    ``value``.  A step that leaves the bracket on both sides of its midpoint
    has not halved it; after three such steps in a row, and wherever the
    point is not strictly inside the bracket (a NaN or infinite ``value``),
    the step halves.  So at most four steps go to each of ``_halve``'s
    halvings, and 8400 cover any bracket.  A zero at ``hi``, whose regula
    falsi point is ``hi`` at every step, is kept as ``-2**-52 value(lo)``."""
    f_lo, f_hi = ends
    f_hi = f_hi or -f_lo * 2.0**-52
    kept = stalls = 0  # the end kept by the last step (-1 lo, +1 hi)
    for _ in range(8400):
        mid = 0.5 * lo + 0.5 * hi
        if mid in (lo, hi):
            break
        x = mid
        if stalls < 3:
            x = lo + f_lo / (f_lo - f_hi) * (hi - lo)
            if not lo < x < hi:
                x = mid
        v = value(x)
        if v > 0.0:
            lo, f_lo = x, v
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, v or -f_lo * 2.0**-52
            if kept == -1:
                f_lo *= 0.5
            kept = -1
        stalls = 0 if hi <= mid or lo >= mid else stalls + 1
    return 0.5 * lo + 0.5 * hi


def three_stroke_omega_for_eta(eta: float, eta_C: float, T_H: float) -> float:
    """Gap at which the three-stroke engine runs at efficiency ``eta``: one
    plain halving (``_halve``) of ``eta(omega) > eta`` on ``[1e-12, 1] * T_H``.
    The computed efficiency flips about the target over several ulps of the gap,
    more where it is flat, so the gap found depends on the path: regula
    falsi moved 2227 of 8025 seeded gaps (``eta_C`` in [0.01, 0.99], ``T_H``
    in [1e-3, 1e3]) by 2 to 70270 ulp, and 5 of the 24 fig4 default rows.
    The bracket holds every target below ``eta(1e-12 * T_H)``, just below
    ``eta_C``: with ``a = omega/T_H``, ``kappa = T_H/T_C > 1``,
    ``eta = 1 - (e^a - 1)/(1 - e^(-kappa a))`` and
    - ``d/da ln[(e^a - 1)/(1 - e^(-kappa a))] = 1/(1 - e^(-a)) - kappa/
      (e^(kappa a) - 1) > 1/a - 1/a = 0``, so ``eta`` falls strictly on the
      whole positive axis, from ``1 - 1/kappa = eta_C`` as ``a -> 0``;
    - at ``omega = T_H``, ``eta = 1 - (e - 1)/(1 - e^(-kappa)) < 2 - e < 0``.
    """
    if not (
        type(eta) is float is type(eta_C) is type(T_H)
        and 0.0 < eta < eta_C < 1.0
        and T_H > (T_C := (1.0 - eta_C) * T_H) > 0.0
    ):  # other types, and every failure, go through the named checks
        _require_real(eta=eta, eta_C=eta_C, T_H=T_H)
        if not 0.0 < eta < eta_C < 1.0:
            raise InvalidParameterError(
                f"target efficiency {eta} outside the attainable range (0, {eta_C})"
            )
        T_C = (1.0 - eta_C) * T_H
        require_descending(T_H=T_H, T_C=T_C)
    omega = _halve(
        lambda w: 1.0 - math.expm1(w / T_H) / -math.expm1(-w / T_C) > eta, 1e-12 * T_H, T_H
    )
    require_descending(omega=omega)  # 0.0 where T_H is a few subnormal steps
    return omega


def work_efficiency_curve(
    eta_C: float, T_H: float, engine: str, eta_grid: Sequence[float]
) -> list[list[float]]:
    """Work-per-cycle (k_B T_H units) vs efficiency for one engine, as rows
    ``[eta, W]`` of floats.

    Otto rows maximize over the gap in ``[1e-3 * T_H, 20 * T_H]`` at each
    efficiency; three-stroke rows invert the efficiency for the gap and
    evaluate the cycle's closed-form work there.
    """
    _require_real(eta_C=eta_C, T_H=T_H)
    etas = _real_grid(eta_grid, "eta grid")
    if not etas:  # an entry is checked by ScanSpec or three_stroke_omega_for_eta
        raise InvalidParameterError("eta grid must not be empty")
    if engine not in ENGINES:
        raise InvalidParameterError(f"engine must be one of {ENGINES}, got {_shown(engine)}")
    if engine == THREE_STROKE_ENGINE:
        T_C = (1.0 - eta_C) * T_H
        gaps = [three_stroke_omega_for_eta(eta, eta_C, T_H) for eta in etas]
        return [
            [eta, _three_stroke_work(w, w / T_H, w / T_C, 1.0, 1.0) / T_H]
            for eta, w in zip(etas, gaps)
        ]
    window = (1e-3 * T_H, 20.0 * T_H)
    return [[eta, maximize_work(ScanSpec(eta, eta_C, T_H, engine, *window)).W_star] for eta in etas]


def _fluctuation_point(stat: str, omega_H: float, cycle: tuple, unit: float) -> tuple:
    """Work mean over ``unit`` and ``stat`` of a cycle's floats (``maps.Cycle._floats``):
    the PCC (``_PCC``) or the variance-to-mean ratio at a horizon, over ``unit``
    too; a zero mean is named at the caller's gap ``omega_H``, not in ``unit``."""
    terms, work = _cell_sums(cycle, primitive=stat == INFINITE), _cycle_work(*cycle)
    if stat == _PCC:
        return work / unit, _pcc(*terms)
    _, _, omega, omega_C, _, _, flip = cycle
    quantum = omega if flip else omega - omega_C
    if stat == SINGLE_CYCLE:
        stats = _moments(1, *terms, work, quantum, omega_H)
        return stats.mean / unit, stats.ratio / unit
    mean, var = _scaled(*terms, work, quantum)
    if mean == 0.0:
        raise ZeroWorkError(
            f"{stat} work mean vanishes at gap {omega_H:.6g}; variance-to-mean ratio undefined"
        )
    return mean / unit, var / mean / unit


def fluctuation_curve(
    eta: float, eta_C: float, T_H: float, horizon: str, omega_H_grid: Sequence[float]
) -> dict[str, list]:
    """Work vs variance-to-work ratio at fixed (eta, eta_C), in units of k_B T_H.

    Returns, per Otto regime, rows ``[omega_H, W, ratio]`` of floats over the
    gap grid, and the three-stroke point, one such row, under ``"three_stroke"``,
    at one cycle or in the infinite-cycle scaled limit (``horizon``): the rows
    of ``_fluctuation_rows``, as fig5 prints them, with the checks of
    ``work_moments`` or ``scaled_cumulants``.
    """
    if horizon not in HORIZONS:
        raise InvalidParameterError(f"horizon must be one of {HORIZONS}, got {_shown(horizon)}")
    found = _fluctuation_rows(eta, eta_C, T_H, omega_H_grid, (NONMARKOV, MARKOV), horizon)
    rows = [[w, x, y] for _, w, x, y in found]
    n = len(rows) // 2
    return {NONMARKOV: rows[:n], MARKOV: rows[n:-1], THREE_STROKE_ENGINE: rows[-1]}


def _fluctuation_rows(eta, eta_C, T_H, omega_H_grid, regimes: tuple, stat: str):
    """The rows of fig5 (``stat`` a horizon) and fig6 (``_PCC``), lazily, as
    ``(engine, omega_H, W, stat)`` in units of ``T_H``, ``engine`` its index in
    ``ENGINES``: each regime's gaps, then the three-stroke point.  The table's
    parameters are checked once.  Each row's floats (``maps._cycle_floats``) are
    in the unit ``2**e`` next to ``T_H``, which rescales every float exactly and
    keeps a variance in energy squared inside binary64 at ``T_H = 1e300``; the
    largest finite gap must fit in it.  An Otto row's come from ``_otto_scan``,
    a row at a time, so a row's error comes before a later gap's."""
    _require_real(eta=eta, eta_C=eta_C)
    if not 0.0 < eta < eta_C < 1.0:
        raise InvalidParameterError("need 0 < eta < eta_C < 1")
    grid = _real_grid(omega_H_grid, "omega_H grid")
    if not grid or not all(omega_H > 0.0 for omega_H in grid):  # NaN fails too
        raise InvalidParameterError("omega_H grid entries must be > 0")
    require_descending(T_H=T_H)
    e = math.frexp(T_H)[1]
    top = max((w for w in grid if w < math.inf), default=math.inf)  # frexp(inf)[1] is 0
    if math.frexp(top)[1] - e > 1024:  # math.ldexp(top, -e) overflows
        raise InvalidParameterError(f"need omega_H < 2**{1024 + e} at T_H={T_H!r}, got {top!r}")
    unit = math.ldexp(T_H, -e)
    for regime in regimes:
        engine, scaled = ENGINES.index(regime), (math.ldexp(w, -e) for w in grid)
        for w, floats in zip(grid, _otto_scan(eta, eta_C, unit, regime, scaled, _cycle_floats)):
            x, y = _fluctuation_point(stat, w, floats, unit)
            yield engine, w, x, y
    w = three_stroke_omega_for_eta(eta, eta_C, unit)
    floats = _cycle_floats(w, w, w / unit, w / ((1.0 - eta_C) * unit), 1.0, 1.0, True)
    w = math.ldexp(w, e)
    yield ENGINES.index(THREE_STROKE_ENGINE), w, *_fluctuation_point(stat, w, floats, unit)
