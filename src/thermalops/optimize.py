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
Each gap is evaluated in closed form, with no ``OttoConfig``, map or cycle:
the Otto work (``otto.otto_work``) or a fig5 or fig6 row (``_otto_fields``).
A scan checks ``eta``, ``eta_C``, the temperatures and the regime once, and
each gap it evaluates only for ``omega_H > omega_C > 0`` (``_otto_gaps``); a
slope evaluation takes the two exponents ``omega / T`` and no couplings.
``work_at`` is the work curve at one gap, and ``sweep`` rows evaluate it too.
The three-stroke engine has no free gap once (eta, eta_C) is chosen: its
zero-work gap lies below ``ln 2 * T_H``, its efficiency falls strictly below
that gap, and one bisection there finds the gap at ``eta``.

All scans are deterministic: identical inputs produce bit-identical
outputs.  ``work_efficiency_curve`` and ``fluctuation_curve`` return their
rows as lists of Python floats, the rows the CLI prints.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from typing import NamedTuple, Sequence

from .errors import InvalidParameterError, NoInteriorMaximumWarning, ZeroWorkError
from .fcs import _cell_sums, _moments, _scaled, _spectral_terms
from .maps import _Checked, _compose, _map_entries, _otto_work, _three_stroke_work
from .maps import _real_grid, _require_real, require_descending
from .otto import MARKOV, NONMARKOV, OttoConfig, _coupling_rule
from .three_stroke import ThreeStrokeConfig

THREE_STROKE_ENGINE = "three_stroke"
ENGINES = (NONMARKOV, MARKOV, THREE_STROKE_ENGINE)

SINGLE_CYCLE = "single_cycle"
INFINITE = "infinite"
HORIZONS = (SINGLE_CYCLE, INFINITE)


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
        _require_real(eta=eta, eta_C=eta_C, T_H=T_H)
        if not (0.0 < eta < eta_C and omega_hi < math.inf):
            raise InvalidParameterError(f"need 0 < eta < eta_C and omega_hi < inf, got {self}")
        require_descending(omega_hi=omega_hi, omega_lo=omega_lo)  # rejects bools and NaN
        _otto_fields(eta, eta_C, T_H, regime)  # checks eta_C < 1, T_H, regime
        return self


class OptimumRecord(NamedTuple):
    """``maximize_work``'s gap and the work there (units of k_B T_H);
    ``converged`` is false when the maximum sits at a window end, and
    ``evaluations`` counts the evaluations of the slope of ``ln W``: the
    window's ends, then one per step of ``_bisect`` (a median of 13-14 on
    the fig4 grid, at most four per halving of the window)."""

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
    _require_real(omega_H=omega_H)
    return _work_curve(eta, eta_C, T_H, regime)(omega_H)


def _work_curve(eta: float, eta_C: float, T_H: float, regime: str):
    """``work_at`` as a function of ``omega_H`` alone: the work among
    ``_otto_fields``' fields, written out without the heat maps' entries."""
    gaps = _otto_gaps(eta, eta_C, T_H)
    couplings = _coupling_rule(T_H, (1.0 - eta_C) * T_H, regime)

    def work(omega_H: float) -> float:
        omega_H, omega_C, a, b = gaps(omega_H)
        return _otto_work(omega_H, omega_C, a, b, *couplings(omega_H, omega_C)) / T_H

    return work


def _otto_fields(eta: float, eta_C: float, T_H: float, regime: str):
    """``otto_config_at(...).cycle()`` as floats, ``(omega_H, omega_C, omega_H
    / T_H, omega_C / T_C, work(), hot, cold, m0)`` with the heat maps' checked
    entries and the map, a function of ``omega_H`` alone: ``eta``, ``eta_C``,
    the temperatures and the regime are checked here, once, each gap by
    ``_otto_gaps``.  A coupling is 1/2 or more, so ``work()`` cannot raise."""
    gaps = _otto_gaps(eta, eta_C, T_H)
    couplings = _coupling_rule(T_H, (1.0 - eta_C) * T_H, regime)

    def fields(omega_H: float) -> tuple:
        omega_H, omega_C, a, b = gaps(omega_H)
        l_H, l_C = couplings(omega_H, omega_C)
        hot, cold = _map_entries(a, l_H), _map_entries(b, l_C)
        work = _otto_work(omega_H, omega_C, a, b, hot[1], cold[1])
        return omega_H, omega_C, a, b, work, hot, cold, _compose(cold, hot)

    return fields


def _otto_gaps(eta: float, eta_C: float, T_H: float):
    """The first four of ``_otto_fields``' fields, without the couplings, as
    a function of ``omega_H`` alone: ``eta``, ``eta_C`` and that ``T_H`` is real
    are checked here, once, and each gap only for ``omega_H > omega_C > 0``,
    which also fails for NaN, a bool or an ``omega_C`` that underflows to 0.
    The caller checks the temperatures (``_coupling_rule``)."""
    _require_real(eta=eta, eta_C=eta_C, T_H=T_H)
    if not 0.0 < eta <= eta_C < 1.0:
        raise InvalidParameterError(f"need 0 < eta <= eta_C < 1, got {eta}, {eta_C}")
    T_C = (1.0 - eta_C) * T_H
    keep = 1.0 - eta

    def gaps(omega_H: float) -> tuple:
        omega_C = keep * omega_H
        if isinstance(omega_H, bool) or not omega_H > omega_C > 0.0:
            raise InvalidParameterError(f"need omega_H > omega_C > 0, got {(omega_H, omega_C)}")
        return omega_H, omega_C, omega_H / T_H, omega_C / T_C

    return gaps


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
    Illinois regula falsi, down to adjacent floats in ``omega_H``, and
    checks each gap as ``work_at`` does; a slope evaluation takes only the
    exponents ``omega / T`` (``_otto_gaps``).  Wherever the computed slope
    changes sign once, that is the float that halving alone finds, in a
    median of 13-14 evaluations on the fig4 grid where halving takes
    57-59.  A slope not positive at ``omega_lo``, or positive at
    ``omega_hi``, puts the maximum at that end, which the record holds,
    marked unconverged, with a ``NoInteriorMaximumWarning``.

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
    work = _work_curve(spec.eta, spec.eta_C, spec.T_H, spec.regime)
    gaps = _otto_gaps(spec.eta, spec.eta_C, spec.T_H)
    slope = _log_work_slope(spec.regime)
    evaluations = 0

    def value(omega_H: float) -> float:
        nonlocal evaluations
        evaluations += 1
        _, _, a, b = gaps(omega_H)
        return slope(a, b)

    lo, hi = spec.omega_lo, spec.omega_hi
    f_lo = value(lo)
    converged = f_lo > 0.0 and not (f_hi := value(hi)) > 0.0  # rising at lo, falling at hi
    if converged:
        omega_H = _bisect(value, lo, hi, (f_lo, f_hi))
    else:
        omega_H = hi if f_lo > 0.0 else lo
        msg = f"work maximum at range endpoint omega_H={omega_H:.6g}; widen [omega_lo, omega_hi]"
        warnings.warn(msg, NoInteriorMaximumWarning, stacklevel=2)
    return OptimumRecord(omega_H, work(omega_H), converged, evaluations)


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


def _bisect(value, lo: float, hi: float, ends: tuple[float, float] | None = None) -> float:
    """Midpoint of the final bracket of a search on ``0 <= lo < hi < inf``
    for the point where ``value(x) > 0`` turns false, once the midpoint
    rounds onto an end.  Every step keeps ``value > 0`` at ``lo`` and not at
    ``hi``, so wherever that sign changes once over the floats, every way of
    stepping ends on the same adjacent pair and returns the same float.

    Without ``ends`` each step halves the bracket.  Halving each end keeps
    ``lo + hi`` from overflowing and rounds as ``0.5 * (lo + hi)`` above the
    subnormals; 2100 halvings cover any bracket (2**1024 wide at most,
    floats 2**-1074 apart at least).  With ``ends = (value(lo), value(hi))``
    each step goes to the regula falsi point of the bracket, and an end kept
    twice in a row has its value halved (the Illinois rule: Dowell &
    Jarratt, BIT 11, 168 (1971)), which converges superlinearly on a smooth
    ``value``.  A step that leaves the bracket on both sides of its midpoint
    has not halved it; after three such steps in a row, and wherever the
    point is not strictly inside the bracket (a NaN or infinite ``value``),
    the step halves.  So at most four steps go to each halving, and 8400
    cover any bracket."""
    f_lo, f_hi = ends if ends else (0.0, 0.0)
    kept = stalls = 0  # the end kept by the last step (-1 lo, +1 hi)
    for _ in range(8400):
        mid = 0.5 * lo + 0.5 * hi
        if mid in (lo, hi):
            break
        x = mid
        if ends and stalls < 3:
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
            hi, f_hi = x, v
            if kept == -1:
                f_lo *= 0.5
            kept = -1
        stalls = 0 if hi <= mid or lo >= mid else stalls + 1
    return 0.5 * lo + 0.5 * hi


def three_stroke_omega_for_eta(eta: float, eta_C: float, T_H: float) -> float:
    """Gap at which the three-stroke engine runs at efficiency ``eta``: one
    bisection finds the zero-work gap in ``[1e-12, 1] * T_H``, a second the
    gap below it where the efficiency falls to ``eta``.  Both halve
    (``_bisect`` without ``ends``): the computed efficiency flips about the
    target over several ulps of the gap, and more where it is flat, so the
    gap found depends on the path.  Regula falsi on the same two functions
    moved 2191 of 8025 seeded gaps (``eta_C`` in [0.01, 0.99], ``T_H`` in
    [1e-3, 1e3]) by 2 to 2974 ulp, 8 of them fig4 default rows.  Both
    bisections are sound:
    - with ``x = exp(-omega/T_H)`` and ``y = exp(-omega/T_C) < x``, the ETO
      work vanishes where ``1 - 2x + xy = 0``, so at ``x = 1/(2 - y) > 1/2``:
      the zero-work gap lies below ``ln 2 * T_H``, and ``W(T_H) < 0``;
    - with ``a = omega/T_H`` and ``kappa = T_H/T_C``, ``d/da ln[(e^a - 1)/
      (1 - e^(-kappa a))] = 1/(1 - e^(-a)) - kappa/(e^(kappa a) - 1) >
      1/a - 1/a = 0``, so ``eta`` falls strictly on the whole branch.
    """
    _require_real(eta=eta, eta_C=eta_C, T_H=T_H)
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
    _require_real(eta_C=eta_C, T_H=T_H)
    etas = _real_grid(eta_grid, "eta grid")
    if not etas or not all(0.0 < eta < eta_C for eta in etas):  # NaN fails too
        raise InvalidParameterError("eta grid must lie strictly inside (0, eta_C)")
    if engine not in ENGINES:
        raise InvalidParameterError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == THREE_STROKE_ENGINE:
        return [[eta, three_stroke_config_at(eta, eta_C, T_H).cycle().work() / T_H] for eta in etas]
    window = (1e-3 * T_H, 20.0 * T_H)
    return [[eta, maximize_work(ScanSpec(eta, eta_C, T_H, engine, *window)).W_star] for eta in etas]


def _fluctuation_point(horizon: str, terms, work, quantum, omega) -> tuple[float, float]:
    """Work mean and variance-to-mean ratio of a cycle's ``_cell_sums`` at the horizon."""
    if horizon == SINGLE_CYCLE:
        stats = _moments(1, *terms, work, quantum, omega)
        return stats.mean, stats.ratio
    mean, var = _scaled(*terms, work, quantum)
    if mean == 0.0:
        raise ZeroWorkError(
            f"{horizon} work mean vanishes at gap {omega:.6g}; variance-to-mean ratio undefined"
        )
    return mean, var / mean


def fluctuation_curve(
    eta: float,
    eta_C: float,
    T_H: float,
    horizon: str,
    omega_H_grid: Sequence[float],
) -> dict[str, list]:
    """Work vs variance-to-work ratio at fixed (eta, eta_C), in units of k_B T_H.

    Returns, per Otto regime, rows ``[omega_H, W, ratio]`` of floats over the
    gap grid, and the three-stroke point, one such row, under ``"three_stroke"``,
    at one cycle or in the infinite-cycle scaled limit (``horizon``).  An Otto
    row reads its config's cycle as floats (``_otto_fields``) with the checks
    of ``work_moments`` or ``scaled_cumulants``, the three-stroke point its cycle.
    """
    if horizon not in HORIZONS:
        raise InvalidParameterError(f"horizon must be one of {HORIZONS}, got {horizon!r}")
    _require_real(eta=eta, eta_C=eta_C)
    if not 0.0 < eta < eta_C < 1.0:
        raise InvalidParameterError("need 0 < eta < eta_C < 1")
    grid = _real_grid(omega_H_grid, "omega_H grid")
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
            w_H, w_C, _, _, work, hot, cold, m0 = fields(math.ldexp(omega_H, -e))
            terms = _cell_sums(hot, cold, m0, primitive=horizon == INFINITE)
            mean, ratio = _fluctuation_point(horizon, terms, work, w_H - w_C, w_H)
            rows.append([omega_H, mean / unit, ratio / unit])
        out[regime] = rows
    c3 = three_stroke_config_at(eta, eta_C, unit).cycle()
    terms = _spectral_terms(c3, c3._product(), primitive=horizon == INFINITE)
    mean, ratio = _fluctuation_point(horizon, terms, c3.work(), c3.quantum, c3.strokes[0].omega)
    out[THREE_STROKE_ENGINE] = [math.ldexp(c3.strokes[0].omega, e), mean / unit, ratio / unit]
    return out
