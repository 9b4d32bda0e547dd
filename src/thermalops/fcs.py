"""Full counting statistics of the work generated over repeated cycles.

The tilted cycle map ``P(chi)`` composes an engine's stroke tuple
(``maps.Cycle``) and weights every work-stroke transition that releases
``k`` work quanta by ``exp(k * chi * quantum)``, where ``quantum`` is the
work of the first work stroke from the excited level (``Cycle.quantum``);
``G_N(chi) = ln(1^T P(chi)^N p)`` is the cumulant generating function of
the N-cycle work from the cyclostationary state ``p``.

Mean and variance are closed forms over the two cycles that ``Cycle``
admits: heat map ``H``, a work stroke, heat map ``C`` and, for the Otto
engine, a second work stroke that keeps the levels.  With ``x = H p``,
the cell ``(a, b)``, level ``a`` after ``H`` and ``b`` after ``C``, has
probability ``P_ab = x_a C[b][a']`` (``a'`` is ``a`` after the first work
stroke) and releases ``K_ab = k1[a] + k2[b]`` work quanta.  The
single-cycle variance is ``v1 = sum_{i<j} P_i P_j (K_i - K_j)^2`` and
``J = sum P_i P_j (K_i - K_j)``, over a cell ``i`` that ends the cycle in
g and a cell ``j`` that ends it in e, is ``Cov(k, 1{end = g})``.
The mean work from g less that from e is ``-det H (d1 + s d2 det C)``, with
``d = k[1] - k[0]``, ``s = -1`` when the first work stroke flips, and
``det = m11 - m10``, so ``c = -det H (d1 + s d2 det C) J`` is the covariance
of successive cycles.  Nothing is centred on the mean: no term of ``v1`` is
negative, and ``J`` rounds to a few ulp of its pair terms.  Nor does ``1 -
mu``, the sum of the off-diagonal entries of the cycle map ``M`` (``mu = tr
M - 1``), cancel.  The N-cycle mean is ``N work()``, the variance ``N v1 +
2 c S_N`` with ``S_N = sum_{d=1}^{N-1} (N - d) mu^(d-1)``, the scaled
variance ``v1 + 2 c / (1 - mu)`` and the intercycle Pearson coefficient
``c / v1``: the 2x2 case of Flindt et al., PRL 100, 150601 (2008), summed
pairwise as in Chan, Golub & LeVeque, Am. Stat. 37, 242 (1983).  ``p`` is
the fixed point of ``M``; a ``p1`` a caller passes is checked against it.
An exact trajectory-enumeration oracle, which walks the same stroke tuple,
checks all of it.

The closed forms read checked float entries, a ``Cycle``'s or those of a fig5
or fig6 Otto row, which builds no map; ``M``, tilted or not, and its powers
are composed by the 2x2 kernel ``maps._compose``, so they round alike anywhere.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import NamedTuple

from .errors import (
    ConsistencyError,
    CountingOverflowError,
    EnumerationSizeError,
    InvalidParameterError,
    NonPrimitiveMapError,
    ZeroVarianceError,
    ZeroWorkError,
)
from .maps import (
    DRIFT_RENORM,
    Cycle,
    PopulationVector,
    WorkStroke,
    _Checked,
    _compose,
    _fixed_point,
    require_count,
    require_descending,
)
from .otto import EngineConfig, OttoConfig
from .three_stroke import ThreeStrokeConfig

EXP_BUDGET = 600.0  # |chi| * N * Delta beyond this would overflow binary64
ENUM_MAX_CYCLES = 12


def tilted_map_otto(cfg: OttoConfig) -> Cycle:
    """The Otto cycle as a tilted map; its quantum is ``omega_H - omega_C``."""
    return cfg.cycle()


def tilted_map_three_stroke(cfg: ThreeStrokeConfig) -> Cycle:
    """The three-stroke cycle as a tilted map; its quantum is ``omega``."""
    return cfg.cycle()


def cumulant_gf(tmap: Cycle, p1: PopulationVector, n: int, chi: float) -> float:
    """N-cycle cumulant generating function ``G_N(chi)``; zero at ``chi = 0``.

    ``M^N`` is formed by binary powering of the tilted cycle's float entries.
    The log's argument ``1^T M^N p1`` sums probability times weight over the
    N-cycle paths: each weight lies in ``[e^-600, e^600]`` under
    ``EXP_BUDGET`` and the probabilities sum to 1, so it is finite and > 0.
    """
    n = require_count(n, 1, "cycle count")
    if n > sys.float_info.max:
        raise CountingOverflowError("cycle count beyond the binary64 range")
    m = tmap.tilted(chi)
    if abs(chi) * n * tmap.quantum > EXP_BUDGET:
        raise CountingOverflowError(
            f"|chi| * N * Delta = {abs(chi) * n * tmap.quantum:.3g} exceeds "
            f"the exponent budget {EXP_BUDGET}"
        )
    power = None
    while n:  # power is M to the binary digits of N read so far, m is M^(2^digit)
        if n & 1:
            power = m if power is None else _compose(power, m)
        n >>= 1
        m = _compose(m, m) if n else m
    a, b, c, d = power
    return math.log((a * p1.p_g + b * p1.p_e) + (c * p1.p_g + d * p1.p_e))


def _spectral_terms(tmap: Cycle, m0: tuple, p1: PopulationVector | None = None, primitive=False):
    """``_cell_sums`` of the cycle's strokes; ``m0`` is ``tmap._product()``."""
    hot, first, cold, *last = tmap.strokes
    (k1_g, k1_e), (k2_g, k2_e) = first.released, last[0].released if last else (0.0, 0.0)
    q = k1_e  # Cycle.quantum: what the first work stroke releases from e
    quanta = (k1_g / q, k1_e / q, k2_g / q, k2_e / q)
    return _cell_sums(hot.entries, cold.entries, m0, quanta, first.flip, p1, primitive)


def _cell_sums(hot, cold, m0, quanta=(0.0, 1.0, 0.0, -1.0), flip=False, p1=None, primitive=False):
    """``(v1, c, 1 - mu)`` in quanta, Otto's by default; ``primitive``: the scaled checks."""
    if primitive and not min(_compose(m0, m0)) > 0.0:  # the entries are finite
        raise NonPrimitiveMapError("untilted cycle map squared has zero entries")
    p_g, p_e = _fixed_point(*m0)
    if primitive and m0[1] + m0[2] < 1e-12:
        raise NonPrimitiveMapError("dominant eigenvalue degenerate at chi = 0")
    if p1 is not None and not abs(p1.p_e - p_e) <= DRIFT_RENORM:
        raise InvalidParameterError(f"p1 is not the steady state: p_e {p1.p_e!r}, not {p_e!r}")
    h00, h01, h10, h11 = hot
    c00, c01, c10, c11 = cold
    x_g, x_e = h00 * p_g + h01 * p_e, h10 * p_g + h11 * p_e  # after the hot stroke
    k1_g, k1_e, k2_g, k2_e = quanta
    # Cell (a, b): level a after the hot stroke and b after the cold one,
    # with probability x_a t[b][a] and k1[a] + k2[b] quanta; the Otto quench
    # back keeps the levels, so b = 0 is the level that ends the cycle in g.
    t = (c01, c00, c11, c10) if flip else (c00, c01, c10, c11)
    P0, P1, P2, P3 = x_g * t[0], x_e * t[1], x_g * t[2], x_e * t[3]
    K0, K1, K2, K3 = k1_g + k2_g, k1_e + k2_g, k1_g + k2_e, k1_e + k2_e
    d01, d02, d03, d12, d13, d23 = K0 - K1, K0 - K2, K0 - K3, K1 - K2, K1 - K3, K2 - K3
    # every pair of cells once, so no term is negative and nothing is centred;
    # written out, as sum() compensates from Python 3.12 on and would move bits
    v1 = P0 * P1 * (d01 * d01) + P0 * P2 * (d02 * d02) + P0 * P3 * (d03 * d03)
    v1 = v1 + P1 * P2 * (d12 * d12) + P1 * P3 * (d13 * d13) + P2 * P3 * (d23 * d23)
    # Cov(k, 1{end = g}): every pair of a cell ending in g and one ending in e
    J = P0 * P2 * d02 + P0 * P3 * d03 + P1 * P2 * d12 + P1 * P3 * d13
    # det = m11 - m10 is (1 - lam) - lam q, which does not cancel as
    # m00 - m01 = (1 - q) - 1 would for the ETO
    d2 = (k2_e - k2_g) * (c11 - c10)
    gap = -(h11 - h10) * ((k1_e - k1_g) + (-d2 if flip else d2))  # a_g - a_e
    return v1, gap * J, m0[1] + m0[2]


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


def _checked_variance(var: float, scale: float, quantum: float) -> float:
    """``var`` quanta squared in energy squared, with rounding below zero
    cleared: a ``var`` below ``-1e-9 * scale`` is a logic error, and a result
    beyond binary64 a ``CountingOverflowError``."""
    if var < -1e-9 * scale:
        raise ConsistencyError(f"work variance came out negative: {var:.3e}")
    energy = max(var, 0.0) * (quantum * quantum)
    if not math.isfinite(energy):
        raise CountingOverflowError(f"work variance {var:.3e} quanta^2 overflows binary64")
    return energy


class WorkStatistics(NamedTuple):
    """Mean and variance of the work generated over ``n`` cycles."""

    n: int
    mean: float
    variance: float
    ratio: float  # variance / mean, in energy units


def work_moments(tmap: Cycle, p1: PopulationVector | None, n: int) -> WorkStatistics:
    """Finite-N work mean ``N work()`` and variance ``N v1 + 2 c S_N`` from
    the steady state, which ``p1`` must be (to ``DRIFT_RENORM`` in ``p_e``) or
    None.  ``ZeroWorkError`` when the mean is 0: the ratio is undefined;
    ``CountingOverflowError`` when it overflows, over a subnormal mean."""
    n = require_count(n, 1, "cycle count")
    if n > sys.float_info.max:
        raise CountingOverflowError("cycle count beyond the binary64 range")
    v1, c, g = _spectral_terms(tmap, tmap._product(), p1)
    return _moments(n, v1, c, g, tmap.work(), tmap.quantum, tmap.strokes[0].omega)


def _moments(n: int, v1, c, g, work: float, quantum: float, omega: float) -> WorkStatistics:
    """``work_moments`` of a cycle's ``_cell_sums``, ``work()``, quantum and hot gap."""
    mean = n * work
    pairs = 2.0 * c * _pair_sum(n, g) if c else 0.0  # S_N may overflow where c is 0
    variance = _checked_variance(n * v1 + pairs, n, quantum)
    if mean == 0.0:
        raise ZeroWorkError(
            f"{n}-cycle work mean vanishes at gap {omega:.6g}; variance-to-mean ratio undefined"
        )
    ratio = variance / mean
    if not math.isfinite(ratio):
        raise CountingOverflowError(f"variance-to-mean ratio overflows binary64 at mean {mean!r}")
    return WorkStatistics(n, mean, variance, ratio)


def scaled_cumulants(tmap: Cycle) -> tuple[float, float]:
    """Infinite-cycle work mean ``work()`` and variance ``v1 + 2 c / (1 - mu)``
    per cycle.  ``NonPrimitiveMapError`` unless the untilted map is primitive
    (its square strictly positive) with a simple dominant eigenvalue."""
    terms = _spectral_terms(tmap, tmap._product(), primitive=True)
    return _scaled(*terms, tmap.work(), tmap.quantum)


def _scaled(v1: float, c: float, g: float, work: float, quantum: float) -> tuple[float, float]:
    """``scaled_cumulants`` of a primitive cycle's ``_cell_sums``, ``work()`` and quantum."""
    return work, _checked_variance(v1 + 2.0 * c / g, 1.0, quantum)


class WorkDistribution(_Checked, namedtuple("WorkDistribution", "n quantum support")):
    """Exact N-cycle work distribution on the lattice ``k * quantum``;
    ``support`` holds ``(work, probability)`` pairs."""

    __slots__ = ()

    def __new__(cls, n: int, quantum: float, support: tuple[tuple[float, float], ...]):
        require_count(n, 1, "cycle count")
        require_descending(quantum=quantum)
        total = math.fsum(p for _, p in support)
        if not abs(total - 1.0) <= 1e-12:  # NaN fails too
            raise ConsistencyError(f"probabilities sum to {total}, expected 1")
        for w, p in support:
            if p < 0.0:
                raise ConsistencyError(f"negative probability {p} at work {w}")
            k = w / quantum
            if not abs(k) <= n + 0.5 or abs(k - round(k)) > 1e-9:  # a NaN k fails first
                raise ConsistencyError(
                    f"work value {w} is not a lattice point within +-{n} quanta"
                )
        return tuple.__new__(cls, (n, quantum, support))

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
                m = stroke.entries
                paths = [(t, prob * m[2 * t + s], dk) for s, prob, dk in paths for t in (0, 1)]
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


def intercycle_pcc(tmap: Cycle, p1: PopulationVector | None) -> float:
    """Pearson coefficient ``Cov / Var_1 = c / v1`` of the work in two
    successive cycles, in [-1, 1], from the steady state as in ``work_moments``;
    ``ZeroVarianceError`` when ``v1`` is 0.

    The clamp moves ``c / v1`` by rounding only.  On a stochastic chain in
    its steady state, ``|c| = |Cov(W_1, W_2)| <= Var W_1 = v1``.  Rounding,
    and scaling the heat maps' columns to unit sum (they may miss it by
    ``STOCHASTIC_TOL``), move the cells ``P_i``, sums and products of
    non-negative values, and so ``v1`` by a relative few 1e-12, and ``gap``
    by a few 1e-12.  Each ``J`` term is at most its ``v1`` pair term, as
    the quanta differences are integers, and ``|gap| <= 2``, so ``c`` moves
    by a few 1e-12 of ``v1``: ``|c / v1| <= 1 + 1e-10``.  That needs normal
    pair products ``P_i P_j``; below, the clamp still gives [-1, 1], and a
    probe of 162,643 configs of both engines, 17,411 of them with a
    subnormal ``v1``, found none above 1 in magnitude."""
    return _pcc(*_spectral_terms(tmap, tmap._product(), p1))


def _pcc(v1: float, c: float, _g: float) -> float:
    """``intercycle_pcc`` of a cycle's ``_cell_sums``."""
    if v1 == 0.0:
        raise ZeroVarianceError("single-cycle work variance is 0; the PCC is undefined")
    return min(max(c / v1, -1.0), 1.0)


def pcc_three_stroke_exact(cfg: ThreeStrokeConfig) -> float:
    """Closed-form intercycle PCC of the three-stroke engine with extremal
    operations: ``-exp(-(omega / T_C + omega / T_H))``."""
    cfg.requires_eto()
    return -math.exp(-(cfg.omega / cfg.T_C + cfg.omega / cfg.T_H))
