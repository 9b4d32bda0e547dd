"""Constrained performance scans over the Otto gap.

Fixing the efficiency ``eta`` and the Carnot efficiency ``eta_C`` pins
``omega_C = (1 - eta) * omega_H`` and ``T_C = (1 - eta_C) * T_H``, leaving
the single gap ``omega_H`` free; the work-per-cycle (in units of k_B T_H)
is maximized over it by a log-spaced coarse scan followed by golden-section
refinement.  Each gap is evaluated with the closed-form Otto work
(``otto.otto_work``), not by running the stroke cycle, on Python floats and
without building an ``OttoConfig``.  A scan checks ``eta``, ``eta_C``, the
temperatures and the regime once, in ``_work_curve``, and each gap only for
``omega_H > omega_C > 0``; ``work_at`` is the same curve at one gap, and
``sweep`` rows evaluate it too.  The three-stroke engine has no free gap
once (eta, eta_C) is chosen: its gap is recovered by inverting the monotone
efficiency curve on the engine branch with bisection.

All scans are deterministic: identical inputs produce bit-identical
outputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BisectionError,
    InvalidParameterError,
    MultimodalScanWarning,
    NoInteriorMaximumWarning,
    ZeroWorkError,
)
from .fcs import scaled_cumulants, work_moments
from .maps import require_count, require_descending
from .otto import (
    MARKOV,
    NONMARKOV,
    REGIMES,
    EngineConfig,
    OttoConfig,
    _coupling_rule,
    _otto_work,
    _pinned_fields,
)
from .three_stroke import ThreeStrokeConfig, three_stroke_report

THREE_STROKE_ENGINE = "three_stroke"
ENGINES = (NONMARKOV, MARKOV, THREE_STROKE_ENGINE)

SINGLE_CYCLE = "single_cycle"
INFINITE = "infinite"
HORIZONS = (SINGLE_CYCLE, INFINITE)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_XTOL = 1e-8
_PEAK_TIE_TOL = 1e-6


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
        require_descending(T_H=self.T_H)
        if not 0.0 < self.omega_lo < self.omega_hi < math.inf:
            raise InvalidParameterError(
                f"need 0 < omega_lo < omega_hi < inf, got ({self.omega_lo}, {self.omega_hi})"
            )
        if self.regime not in REGIMES:
            raise InvalidParameterError(f"regime must be one of {REGIMES}")
        require_count(self.grid_size, 3, "grid_size")


@dataclass(frozen=True)
class OptimumRecord:
    omega_H_star: float
    W_star: float
    converged: bool
    evaluations: int


def otto_config_at(
    eta: float, eta_C: float, T_H: float, omega_H: float, regime: str
) -> OttoConfig:
    """Otto configuration with (eta, eta_C) pinned; omegas in k_B T_H units.
    Both couplings are 1 (``nonmarkov``) or at full thermalization
    (``markov``)."""
    omega_C = (1.0 - eta) * omega_H
    T_C = (1.0 - eta_C) * T_H
    return OttoConfig(*_pinned_fields(omega_H, omega_C, T_H, T_C, regime))


def work_at(eta: float, eta_C: float, T_H: float, omega_H: float, regime: str) -> float:
    """Otto work-per-cycle in units of k_B T_H at the given gap, in closed
    form (``otto.otto_work``).

    Makes the checks of ``otto_config_at`` on the scalars, without building
    the config, and evaluates the same work.  ``eta = eta_C`` is admitted
    (it gives W = 0) so that the Carnot endpoint can be probed directly.
    """
    return _work_curve(eta, eta_C, T_H, regime)(omega_H)


def _work_curve(eta: float, eta_C: float, T_H: float, regime: str):
    """``work_at`` as a function of ``omega_H`` alone, for a scan over the
    gap: ``eta``, ``eta_C``, the temperatures and the regime are checked
    here, once, and each gap only for ``omega_H > omega_C > 0``, which also
    fails for NaN, a bool or an ``omega_C`` that underflows to 0."""
    if not 0.0 < eta <= eta_C < 1.0:
        raise InvalidParameterError(f"need 0 < eta <= eta_C < 1, got {eta}, {eta_C}")
    T_C = (1.0 - eta_C) * T_H
    couplings = _coupling_rule(T_H, T_C, regime)
    keep = 1.0 - eta

    def work(omega_H: float) -> float:
        omega_C = keep * omega_H
        if isinstance(omega_H, bool) or not omega_H > omega_C > 0.0:
            raise InvalidParameterError(f"need omega_H > omega_C > 0, got {(omega_H, omega_C)}")
        return _otto_work(omega_H, omega_C, T_H, T_C, *couplings(omega_H, omega_C)) / T_H

    return work


def _golden_max(f, lo: float, hi: float, xtol: float = _XTOL):
    """Golden-section maximization on [lo, hi]; returns (x, f(x), evals)."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    while b - a > xtol:
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


def maximize_work(spec: ScanSpec) -> OptimumRecord:
    """Maximize the Otto work-per-cycle over the gap range.

    Log-spaced coarse scan, then golden-section refinement of the
    bracketing interval to ``1e-8`` absolute in ``omega_H``.  If the best
    coarse point sits at a range endpoint a warning is issued and the
    record is marked unconverged; if a second local maximum ties the best
    one within ``1e-6`` it is refined as well and the larger value wins.
    """
    grid = np.logspace(math.log10(spec.omega_lo), math.log10(spec.omega_hi), spec.grid_size)
    grid = grid.tolist()  # the same binary64 values; Python float arithmetic is cheaper
    f = _work_curve(spec.eta, spec.eta_C, spec.T_H, spec.regime)
    values = np.array([f(w) for w in grid])
    evals = spec.grid_size
    best = int(values.argmax())

    interior = (values[1:-1] >= values[:-2]) & (values[1:-1] >= values[2:])
    peaks = sorted(np.flatnonzero(interior) + 1, key=lambda i: -values[i])

    converged = True
    if best in (0, spec.grid_size - 1):
        warnings.warn(
            f"coarse-scan maximum at range endpoint omega_H={grid[best]:.6g}; "
            "widen [omega_lo, omega_hi]",
            NoInteriorMaximumWarning,
            stacklevel=2,
        )
        converged = False

    to_refine = [best] if best not in peaks else [peaks[0]]
    if len(peaks) >= 2 and values[peaks[0]] - values[peaks[1]] <= _PEAK_TIE_TOL:
        warnings.warn(
            "two near-degenerate coarse-scan maxima; refining both",
            MultimodalScanWarning,
            stacklevel=2,
        )
        to_refine.append(peaks[1])

    x_star, w_star = grid[best], values[best]
    for idx in to_refine:
        lo = grid[max(idx - 1, 0)]
        hi = grid[min(idx + 1, spec.grid_size - 1)]
        x, fx, used = _golden_max(f, lo, hi)
        evals += used
        if fx > w_star:
            x_star, w_star = x, fx
    return OptimumRecord(float(x_star), float(w_star), converged, evals)


def _three_stroke_eta(omega: float, beta_H: float, beta_C: float) -> float:
    return 1.0 - math.expm1(beta_H * omega) / -math.expm1(-beta_C * omega)


def _three_stroke_work(omega: float, beta_H: float, beta_C: float) -> float:
    return omega * (2.0 / (math.exp(beta_H * omega) + math.exp(-beta_C * omega)) - 1.0)


def _bisect(below_edge, lo: float, hi: float) -> float:
    """Midpoint of the final bracket of a bisection on [lo, hi] for the
    point where ``below_edge`` turns false; stops at the first step that
    leaves the bracket unchanged (every later step would too), or after 200."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below_edge(mid):
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return 0.5 * (lo + hi)


def three_stroke_omega_for_eta(eta: float, eta_C: float, T_H: float) -> float:
    """Gap at which the three-stroke engine runs at efficiency ``eta``.

    The efficiency decreases monotonically from ``eta_C`` (gap -> 0) to 0
    at the zero-work gap; the target is found by bisection on that branch.
    Monotonicity is verified on a coarse grid each call.
    """
    if not 0.0 < eta < eta_C < 1.0:
        raise BisectionError(
            f"target efficiency {eta} outside the attainable range (0, {eta_C})"
        )
    require_descending(T_H=T_H)
    beta_H = 1.0 / T_H
    beta_C = 1.0 / ((1.0 - eta_C) * T_H)

    # zero-work gap: W < 0 beyond it
    hi = T_H
    while _three_stroke_work(hi, beta_H, beta_C) > 0.0:
        hi *= 2.0
        if hi > 1e9 * T_H:
            raise BisectionError("failed to bracket the zero-work gap")
    omega_max = _bisect(lambda w: _three_stroke_work(w, beta_H, beta_C) > 0.0, 1e-12 * T_H, hi)

    probes = np.logspace(math.log10(omega_max) - 6.0, math.log10(omega_max), 32)
    etas = [_three_stroke_eta(w, beta_H, beta_C) for w in probes]
    if any(b > a + 1e-12 for a, b in zip(etas, etas[1:])):
        raise BisectionError("efficiency is not monotone on the engine branch")

    return _bisect(lambda w: _three_stroke_eta(w, beta_H, beta_C) > eta, 1e-12 * T_H, omega_max)


def three_stroke_config_at(eta: float, eta_C: float, T_H: float) -> ThreeStrokeConfig:
    omega = three_stroke_omega_for_eta(eta, eta_C, T_H)
    return ThreeStrokeConfig.nonmarkov(omega, T_H, (1.0 - eta_C) * T_H)


def work_efficiency_curve(
    eta_C: float, T_H: float, engine: str, eta_grid: Sequence[float]
) -> np.ndarray:
    """Work-per-cycle (k_B T_H units) vs efficiency for one engine.

    Otto rows maximize over the gap at each efficiency; three-stroke rows
    invert the efficiency for the gap and evaluate the closed cycle.
    """
    etas = np.asarray(list(eta_grid), dtype=float)
    if etas.size == 0 or not ((etas > 0.0) & (etas < eta_C)).all():
        raise InvalidParameterError("eta grid must lie strictly inside (0, eta_C)")
    if engine not in ENGINES:
        raise InvalidParameterError(f"engine must be one of {ENGINES}, got {engine!r}")
    rows = np.empty((etas.size, 2))
    for i, eta in enumerate(etas):
        if engine == THREE_STROKE_ENGINE:
            cfg = three_stroke_config_at(eta, eta_C, T_H)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                w = three_stroke_report(cfg).W / T_H
        else:
            w = maximize_work(ScanSpec(eta, eta_C, T_H, engine)).W_star
        rows[i] = (eta, w)
    return rows


def _fluctuation_point(cfg: EngineConfig, horizon: str) -> tuple[float, float]:
    """Work mean and variance-to-mean ratio of one engine at the horizon."""
    cycle = cfg.cycle()
    if horizon == SINGLE_CYCLE:
        stats = work_moments(cycle, cycle.steady_state(), 1)
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
) -> dict[str, np.ndarray]:
    """Work vs variance-to-work ratio at fixed (eta, eta_C).

    Returns, per Otto regime, rows ``(omega_H, W, ratio)`` parametrized by
    the gap grid, plus the single three-stroke point under the key
    ``"three_stroke"``.  Energies are in units of k_B T_H.  ``horizon``
    selects single-cycle statistics or the infinite-cycle scaled limit.
    """
    if horizon not in HORIZONS:
        raise InvalidParameterError(f"horizon must be one of {HORIZONS}, got {horizon!r}")
    if not 0.0 < eta < eta_C < 1.0:
        raise InvalidParameterError("need 0 < eta < eta_C < 1")
    grid = np.asarray(list(omega_H_grid), dtype=float)
    if grid.size == 0 or grid.min() <= 0.0:
        raise InvalidParameterError("omega_H grid entries must be > 0")

    out: dict[str, np.ndarray] = {}
    for regime in (NONMARKOV, MARKOV):
        rows = np.empty((grid.size, 3))
        for i, omega_H in enumerate(grid):
            cfg = otto_config_at(eta, eta_C, T_H, omega_H, regime)
            mean, ratio = _fluctuation_point(cfg, horizon)
            rows[i] = (omega_H, mean / T_H, ratio / T_H)
        out[regime] = rows
    cfg3 = three_stroke_config_at(eta, eta_C, T_H)
    mean, ratio = _fluctuation_point(cfg3, horizon)
    out[THREE_STROKE_ENGINE] = np.array([cfg3.omega, mean / T_H, ratio / T_H])
    return out
