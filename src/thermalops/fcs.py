"""Full counting statistics of the work generated over repeated cycles.

The tilted cycle map ``P(chi)`` composes an engine's stroke tuple
(``maps.Cycle``) and weights every work-stroke transition that releases
``k`` work quanta by ``exp(k * chi * quantum)``; ``G_N(chi) =
ln(1^T P(chi)^N p)`` is the cumulant generating function of the N-cycle
work from the cyclostationary state ``p``.

Mean and variance need only ``M = P(0)`` and its exact derivatives ``M'``
and ``M''`` in ``chi * quantum`` at 0, carried through the stroke tuple: a
heat stroke left-multiplies all three, a work stroke adds ``k M`` to row
``j`` of ``M'`` and ``2k M' + k^2 M`` to row ``j`` of ``M''``.  A 2x2
column-stochastic ``M`` is ``p 1^T + mu (I - p 1^T)`` with
``mu = tr M - 1``, so with ``m = 1^T M' p``, ``v1 = 1^T M'' p - m^2`` and
``c = 1^T M' (M' p - m p)`` the N-cycle mean is ``N m``, the variance
``N v1 + 2 c S_N`` with ``S_N = sum_{d=1}^{N-1} (N - d) mu^(d-1)``, the
scaled variance ``v1 + 2 c / (1 - mu)`` and the intercycle Pearson
coefficient ``c / v1``: the 2x2 case of Flindt et al., PRL 100, 150601
(2008).  ``1 - mu`` is the sum of the off-diagonal entries, which does not
cancel at small gaps.  An exact trajectory-enumeration oracle, which walks
the same stroke tuple, checks all of it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    CountingOverflowError,
    EnumerationSizeError,
    InvalidParameterError,
    NonPrimitiveMapError,
    ZeroVarianceError,
    ZeroWorkError,
)
from .maps import Cycle, PopulationVector, WorkStroke, require_count, stationary_population
from .otto import EngineConfig, OttoConfig
from .three_stroke import ThreeStrokeConfig

EXP_BUDGET = 600.0  # |chi| * N * Delta beyond this would overflow binary64
ENUM_MAX_CYCLES = 12

# The counting-field view of a cycle: ``TiltedMap.matrix(chi)`` is P(chi).
TiltedMap = Cycle


def tilted_map_otto(cfg: OttoConfig) -> TiltedMap:
    return cfg.cycle()


def tilted_map_three_stroke(cfg: ThreeStrokeConfig) -> TiltedMap:
    return cfg.cycle()


def cumulant_gf(tmap: TiltedMap, p1: PopulationVector, n: int, chi: float) -> float:
    """N-cycle cumulant generating function ``G_N(chi)``; zero at ``chi = 0``."""
    n = require_count(n, 1, "cycle count")
    if abs(chi) * n * tmap.quantum > EXP_BUDGET:
        raise CountingOverflowError(
            f"|chi| * N * Delta = {abs(chi) * n * tmap.quantum:.3g} exceeds "
            f"the exponent budget {EXP_BUDGET}"
        )
    vec = np.linalg.matrix_power(tmap.matrix(chi), n) @ p1.as_array()
    return float(np.log(vec.sum()))


def _derivative_maps(tmap: TiltedMap) -> np.ndarray:
    """``(M, M', M'')``, the cycle map and its derivatives in ``chi *
    quantum`` at 0, stacked on the first axis."""
    stack = None
    for stroke in tmap.strokes:
        if isinstance(stroke, WorkStroke):
            for j, w in enumerate(stroke.released):
                k = w / tmap.quantum
                stack[2, j] += 2.0 * k * stack[1, j] + k * k * stack[0, j]
                stack[1, j] += k * stack[0, j]
            if stroke.flip:
                stack = stack[:, ::-1]
        elif stack is None:
            stack = np.zeros((3, 2, 2))
            stack[0] = stroke.m
        else:
            stack = stroke.m @ stack
    return stack


def _spectral_terms(stack: np.ndarray, p: PopulationVector):
    """``(m, v1, c, 1 - mu)`` of the cycle, in work quanta."""
    m0, d1, d2 = stack
    p = p.as_array()
    r = d1.sum(axis=0)  # 1^T M'
    m = float(r @ p)
    v1 = float(d2.sum(axis=0) @ p) - m * m
    c = float(r @ (d1 @ p - m * p))
    return m, v1, c, float(m0[0, 1] + m0[1, 0])


def _pair_sum(n: int, g: float) -> float:
    """``S_N = sum_{d=1}^{N-1} (N - d) mu^(d-1)`` with ``mu = 1 - g``, which
    is ``(N g - 1 + mu^N) / g^2`` in closed form."""
    if n * g < 1.0:
        # sum_{k>=2} C(N, k) (-g)^(k-2): each term is below a third of the last
        total, term, k = 0.0, n * (n - 1) / 2, 2
        while total + term != total:
            total += term
            term *= -g * (n - k) / (k + 1)
            k += 1
        return total
    if g < 1.0:
        return (n * g + math.expm1(n * math.log1p(-g))) / (g * g)
    return (n * g - 1.0 + (1.0 - g) ** n) / (g * g)


def _checked_variance(var: float, scale: float) -> float:
    """``var`` with rounding below zero cleared; a negative value beyond
    ``1e-9 * scale`` is a logic error."""
    if var < -1e-9 * scale:
        raise ConsistencyError(f"work variance came out negative: {var:.3e}")
    return max(var, 0.0)


@dataclass(frozen=True)
class WorkStatistics:
    """Mean and variance of the work generated over ``n`` cycles."""

    n: int
    mean: float
    variance: float
    ratio: float  # variance / mean, in energy units


def work_moments(tmap: TiltedMap, p1: PopulationVector, n: int) -> WorkStatistics:
    """Finite-N work mean ``N m`` and variance ``N v1 + 2 c S_N``.

    Raises ``ZeroWorkError`` when the mean is exactly 0, where the
    variance-to-mean ratio is undefined."""
    n = require_count(n, 1, "cycle count")
    if n > sys.float_info.max:
        raise CountingOverflowError("cycle count beyond the binary64 range")
    m, v1, c, g = _spectral_terms(_derivative_maps(tmap), p1)
    quantum = tmap.quantum
    mean = n * (m * quantum)
    variance = _checked_variance(n * v1 + 2.0 * c * _pair_sum(n, g), n) * quantum**2
    if not math.isfinite(variance):
        raise CountingOverflowError(f"the {n}-cycle work variance overflows binary64")
    if mean == 0.0:
        raise ZeroWorkError(
            f"{n}-cycle work mean vanishes at gap {tmap.strokes[0].omega:.6g}; "
            "variance-to-mean ratio undefined"
        )
    return WorkStatistics(n, mean, variance, variance / mean)


def scaled_cumulants(tmap: TiltedMap) -> tuple[float, float]:
    """Infinite-cycle work mean ``m`` and variance ``v1 + 2 c / (1 - mu)``
    per cycle.

    Requires the untilted map to be primitive (all entries of its square
    strictly positive); a degenerate dominant eigenvalue (``mu = 1``)
    raises ``NonPrimitiveMapError``.
    """
    stack = _derivative_maps(tmap)
    m0 = stack[0]
    if not (m0 @ m0 > 0.0).all():
        raise NonPrimitiveMapError("untilted cycle map squared has zero entries")
    m, v1, c, g = _spectral_terms(stack, stationary_population(m0))
    if g < 1e-12:
        raise NonPrimitiveMapError("dominant eigenvalue degenerate at chi = 0")
    return m * tmap.quantum, _checked_variance(v1 + 2.0 * c / g, 1.0) * tmap.quantum**2


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
    """Pearson correlation coefficient of the work in two successive
    cycles, ``Cov / Var_1 = c / v1``; always in [-1, 1]."""
    _, v1, c, _ = _spectral_terms(_derivative_maps(tmap), p1)
    variance = _checked_variance(v1, 1.0) * tmap.quantum**2
    if variance < 1e-14:
        raise ZeroVarianceError(f"single-cycle variance {variance:.3e} too small for a PCC")
    pcc = c / v1
    if not -1.0 - 1e-9 <= pcc <= 1.0 + 1e-9:
        raise ConsistencyError(f"PCC {pcc} outside [-1, 1] beyond tolerance")
    return min(max(pcc, -1.0), 1.0)


def pcc_three_stroke_exact(cfg: ThreeStrokeConfig) -> float:
    """Closed-form intercycle PCC of the three-stroke engine with extremal
    operations: ``-exp(-(beta_C + beta_H) * omega)``."""
    cfg.requires_eto()
    return -math.exp(-(cfg.beta_C + cfg.beta_H) * cfg.omega)
