"""Full counting statistics of the work generated over repeated cycles.

The per-cycle propagator ``P(chi)`` composes an engine's stroke tuple
(``maps.Cycle``) in cycle order and weights every work-stroke transition
that releases ``k`` work quanta by ``exp(k * chi * quantum)``: the Otto
quenches tag an excitation after heating with ``+Delta`` and one after
cooling with ``-Delta``; the three-stroke flip releases ``+omega`` from an
inverted qubit and ``-omega`` otherwise.

``G_N(chi) = ln(1^T P(chi)^N p1)`` is then the cumulant generating function
of the N-cycle work, evaluated from the cyclostationary state ``p1``.
Finite-N mean and variance are its first two derivatives at ``chi = 0``,
obtained by fourth-order central differences with one Richardson level at
step ``h = 1e-3 / Delta``.  The stencil is evaluated in extended precision
(``numpy.longdouble``) so that differencing noise stays orders of magnitude
below the 1e-8/1e-9 tolerances the statistics are verified against; the
scheme itself is validated against an exact trajectory-enumeration oracle,
which walks the same stroke tuple.

In the infinite-cycle limit the scaled cumulants follow from
``g(chi) = ln lambda_0(chi)`` with ``lambda_0`` the dominant eigenvalue of
the tilted map, available in closed form for 2x2 matrices.  The classic
branch-switching failure cannot occur here: the off-diagonal entries stay
strictly positive for every real ``chi`` whenever the untilted map is
primitive, so the larger root is globally continuous; degeneracy at
``chi = 0`` is rejected instead of silently picking a branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConsistencyError,
    CountingOverflowError,
    EnumerationSizeError,
    InvalidParameterError,
    NonPrimitiveMapError,
    ZeroVarianceError,
)
from .maps import Cycle, PopulationVector, WorkStroke, require_count
from .otto import EngineConfig, OttoConfig
from .three_stroke import ThreeStrokeConfig

FD_STEP = 1e-3  # finite-difference step in units of 1/work-quantum
EXP_BUDGET = 600.0  # |chi| * N * Delta beyond this would overflow binary64
ENUM_MAX_CYCLES = 12

_LD = np.longdouble

# The counting-field view of a cycle: ``TiltedMap.matrix(chi)`` is P(chi).
TiltedMap = Cycle


def tilted_map_otto(cfg: OttoConfig) -> TiltedMap:
    return cfg.cycle()


def tilted_map_three_stroke(cfg: ThreeStrokeConfig) -> TiltedMap:
    return cfg.cycle()


def _matpow(m: np.ndarray, n: int) -> np.ndarray:
    """Binary-exponentiation matrix power (dtype-preserving)."""
    result = np.eye(2, dtype=m.dtype)
    base = m
    while n:
        if n & 1:
            result = base @ result
        base = base @ base
        n >>= 1
    return result


def _gf_ld(tmap: TiltedMap, p1: PopulationVector, n: int, chi) -> np.longdouble:
    m = tmap.matrix(chi, dtype=_LD)
    vec = _matpow(m, n) @ p1.as_array().astype(_LD)
    return np.log(vec.sum())


def cumulant_gf(tmap: TiltedMap, p1: PopulationVector, n: int, chi: float) -> float:
    """N-cycle cumulant generating function ``G_N(chi)``; zero at ``chi = 0``."""
    n = require_count(n, 1, "cycle count")
    if abs(chi) * n * tmap.quantum > EXP_BUDGET:
        raise CountingOverflowError(
            f"|chi| * N * Delta = {abs(chi) * n * tmap.quantum:.3g} exceeds "
            f"the exponent budget {EXP_BUDGET}"
        )
    return float(_gf_ld(tmap, p1, n, chi))


def _fd_derivatives(f: Callable[[float], np.longdouble], h: float):
    """First and second derivative of ``f`` at 0.

    Fourth-order central stencils at steps ``h`` and ``h/2`` combined with
    one Richardson level; ``f(0)`` is evaluated, not assumed to vanish.
    """
    h = _LD(h)
    f0 = f(0.0)
    fp1, fm1 = f(h), f(-h)
    fp2, fm2 = f(2.0 * h), f(-2.0 * h)
    fph, fmh = f(h / 2.0), f(-h / 2.0)

    d1_h = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
    d1_h2 = (-fp1 + 8.0 * fph - 8.0 * fmh + fm1) / (6.0 * h)
    d2_h = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
    d2_h2 = (-fp1 + 16.0 * fph - 30.0 * f0 + 16.0 * fmh - fm1) / (3.0 * h * h)

    d1 = (16.0 * d1_h2 - d1_h) / 15.0
    d2 = (16.0 * d2_h2 - d2_h) / 15.0
    return d1, d2


@dataclass(frozen=True)
class WorkStatistics:
    """Mean and variance of the work generated over ``n`` cycles."""

    n: int
    mean: float
    variance: float
    ratio: float  # variance / mean, in energy units


def _clamped_variance(raw, scale: float) -> float:
    var = float(raw)
    if var < 0.0:
        if var < -1e-9 * max(scale, 1e-300):
            raise ConsistencyError(f"work variance came out negative: {var:.3e}")
        var = 0.0
    return var


def work_moments(tmap: TiltedMap, p1: PopulationVector, n: int) -> WorkStatistics:
    """Finite-N work mean and variance from derivatives of ``G_N`` at 0."""
    n = require_count(n, 1, "cycle count")
    h = FD_STEP / tmap.quantum
    d1, d2 = _fd_derivatives(lambda chi: _gf_ld(tmap, p1, n, chi), h)
    mean = float(d1)
    variance = _clamped_variance(d2, n * tmap.quantum**2)
    ratio = variance / mean if mean != 0.0 else math.nan
    return WorkStatistics(n, mean, variance, ratio)


def _log_dominant_eigenvalue(tmap: TiltedMap, chi) -> np.longdouble:
    m = tmap.matrix(chi, dtype=_LD)
    half_trace = (m[0, 0] + m[1, 1]) / 2.0
    half_gap = np.sqrt(((m[0, 0] - m[1, 1]) / 2.0) ** 2 + m[0, 1] * m[1, 0])
    return np.log(half_trace + half_gap)


def scaled_cumulants(tmap: TiltedMap) -> tuple[float, float]:
    """Infinite-cycle work mean and variance per cycle.

    Derivatives of ``ln lambda_0(chi)`` at 0, with ``lambda_0`` the larger
    root of the 2x2 characteristic polynomial.  Requires the untilted map
    to be primitive (all entries of its square strictly positive); a
    degenerate dominant eigenvalue raises ``NonPrimitiveMapError``.
    """
    m0 = tmap.matrix(0.0)
    if not (m0 @ m0 > 0.0).all():
        raise NonPrimitiveMapError("untilted cycle map squared has zero entries")
    gap = math.sqrt(((m0[0, 0] - m0[1, 1]) / 2.0) ** 2 + m0[0, 1] * m0[1, 0])
    if 2.0 * gap < 1e-12:
        raise NonPrimitiveMapError("dominant eigenvalue degenerate at chi = 0")
    h = FD_STEP / tmap.quantum
    d1, d2 = _fd_derivatives(lambda chi: _log_dominant_eigenvalue(tmap, chi), h)
    return float(d1), _clamped_variance(d2, tmap.quantum**2)


@dataclass(frozen=True)
class WorkDistribution:
    """Exact N-cycle work distribution on the lattice ``k * quantum``."""

    n: int
    quantum: float
    support: tuple[tuple[float, float], ...]

    def __post_init__(self):
        total = math.fsum(p for _, p in self.support)
        if abs(total - 1.0) > 1e-12:
            raise ConsistencyError(f"probabilities sum to {total}, expected 1")
        for w, p in self.support:
            if p < 0.0:
                raise ConsistencyError(f"negative probability {p} at work {w}")
            k = w / self.quantum
            if abs(k - round(k)) > 1e-9 or abs(round(k)) > self.n:
                raise ConsistencyError(
                    f"work value {w} is not a lattice point within +-{self.n} quanta"
                )

    def mean(self) -> float:
        return math.fsum(w * p for w, p in self.support)

    def variance(self) -> float:
        mu = self.mean()
        return math.fsum((w - mu) ** 2 * p for w, p in self.support)


def _cycle_branches(cycle: Cycle):
    """(source, end, probability, work quanta) of every stroke-boundary
    path through one cycle with nonzero probability."""
    branches = []
    for src in (0, 1):
        paths = [(src, 1.0, 0.0)]
        for stroke in cycle.strokes:
            if isinstance(stroke, WorkStroke):
                k = [w / cycle.quantum for w in stroke.released]
                paths = [(1 - s if stroke.flip else s, prob, dk + k[s]) for s, prob, dk in paths]
            else:
                paths = [(t, prob * stroke.m[t, s], dk) for s, prob, dk in paths for t in (0, 1)]
        branches += [(src, end, prob, dk) for end, prob, dk in paths if prob != 0.0]
    return branches


def enumerate_work_distribution(cfg: EngineConfig, n: int) -> WorkDistribution:
    """Exact N-cycle work distribution by trajectory enumeration.

    Walks every stroke-boundary state sequence of the cycle's stroke tuple,
    with transition probabilities taken directly from the heat maps and the
    work strokes' permutations, accumulating the per-path work quanta;
    sequences are aggregated by (state, accumulated work) cycle by cycle,
    which preserves the exact path weights.  Serves as the independent
    oracle for the counting-field machinery and is capped at ``n <= 12``.
    """
    n = require_count(n, 1, "cycle count")
    if n > ENUM_MAX_CYCLES:
        raise EnumerationSizeError(
            f"enumeration capped at {ENUM_MAX_CYCLES} cycles, got {n}"
        )
    if not isinstance(cfg, EngineConfig):
        raise InvalidParameterError(f"unsupported config type {type(cfg).__name__}")
    cycle = cfg.cycle()
    p1 = cycle.steady_state()
    branches = _cycle_branches(cycle)
    quantum = cycle.quantum

    measure = {(0, 0): p1.p_g, (1, 0): p1.p_e}
    for _ in range(n):
        advanced: dict[tuple[int, int], float] = {}
        for (state, k), weight in measure.items():
            if weight == 0.0:
                continue
            for src, end, prob, dk in branches:
                if src != state:
                    continue
                key = (end, k + dk)
                advanced[key] = advanced.get(key, 0.0) + weight * prob
        measure = advanced

    by_work: dict[int, float] = {}
    for (_, k), weight in measure.items():
        by_work[k] = by_work.get(k, 0.0) + weight
    support = tuple(
        (k * quantum, by_work[k]) for k in sorted(by_work) if by_work[k] > 0.0
    )
    return WorkDistribution(n, quantum, support)


def intercycle_pcc(tmap: TiltedMap, p1: PopulationVector) -> float:
    """Pearson correlation coefficient of the work in two successive cycles.

    Uses the covariance identity ``Var_2 = 2 Var_1 + 2 Cov``, i.e.
    ``PCC = Var_2 / (2 Var_1) - 1``; always in [-1, 1].
    """
    stats1 = work_moments(tmap, p1, 1)
    if stats1.variance < 1e-14:
        raise ZeroVarianceError(
            f"single-cycle variance {stats1.variance:.3e} too small for a PCC"
        )
    stats2 = work_moments(tmap, p1, 2)
    pcc = stats2.variance / (2.0 * stats1.variance) - 1.0
    if not -1.0 - 1e-9 <= pcc <= 1.0 + 1e-9:
        raise ConsistencyError(f"PCC {pcc} outside [-1, 1] beyond tolerance")
    return min(max(pcc, -1.0), 1.0)


def pcc_three_stroke_exact(cfg: ThreeStrokeConfig) -> float:
    """Closed-form intercycle PCC of the three-stroke engine with extremal
    operations: ``-exp(-(beta_C + beta_H) * omega)``."""
    cfg.requires_eto()
    return -math.exp(-(cfg.beta_C + cfg.beta_H) * cfg.omega)
