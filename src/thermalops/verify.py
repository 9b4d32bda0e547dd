"""Cross-module invariant suites behind the ``verify`` CLI command.

Each suite is a fixed experiment: it aggregates the worst residual
observed over a batch of random configurations and reports it against the
bound the invariant is supposed to hold at.  The configurations are drawn
from ``random.Random(_SEED)`` one value at a time, as ``lo + (hi - lo) *
random()`` on each value's bounds, the formula of ``Random.uniform``, so
every platform and every run reproduces the same residuals.  The suites
take no arguments; their residuals are Python floats on checked float
entries.  Each residual is folded into its check's worst value in the
suite's own loop by ``if not x <= worst and worst == worst``: a NaN fails
every comparison, so the first NaN wins and stays, where ``max(0.0, nan)``
would drop it.
"""

from __future__ import annotations

import math
import random
import warnings
from collections import namedtuple
from collections.abc import Callable, Iterator

from .errors import InvalidParameterError
from .fcs import enumerate_work_distribution, work_moments
from .maps import ThermalOpParams, build_map, thermal_population
from .microscopic import (
    INTENSITY_DEPENDENT,
    FockTruncation,
    eto_deviation,
    jc_evolution_map,
    swap_map,
)
from .otto import OttoConfig, otto_cycle_report
from .three_stroke import ThreeStrokeConfig, three_stroke_report

_SEED = 20260810
_DRAWS = 1000  # gibbs-fixed-point maps; first-law configs per engine
_CONFIGS_PER_ENGINE = 6  # oracle-equivalence, each at every count in _CYCLES
_CYCLES = (1, 2, 3)
_N_MAX = 60  # microscopic-eto's Fock truncation at beta omega = _BETA_OMEGA
_BETA_OMEGA = 1.0


class CheckRecord(namedtuple("CheckRecord", "suite check observed bound")):
    """One check of a suite: the worst residual observed against its bound."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.observed <= self.bound


def _draw(rng, count: int, bounds: tuple, build: Callable) -> Iterator:
    """Yield ``count`` values ``build(*row)`` that are not None, for rows of
    ``lo + (hi - lo) * rng.random()`` on ``bounds``; a rejected row is drawn again."""
    while count > 0:
        item = build(*[lo + (hi - lo) * rng.random() for lo, hi in bounds])
        if item is not None:
            count -= 1
            yield item


def _otto_configs(rng, count: int) -> Iterator[OttoConfig]:
    def build(a, stretch, lambda_H, lambda_C):  # a = beta_H omega_H, a * stretch = beta_C omega_C
        t_cold = 0.9 * min(1.0, a / (a * stretch))
        return OttoConfig(a, t_cold * (a * stretch), 1.0, t_cold, lambda_H, lambda_C)

    return _draw(rng, count, ((0.3, 2.5), (1.15, 2.2), (0.5, 1.0), (0.5, 1.0)), build)


def _three_stroke_draws(rng, count: int, min_bias: float) -> Iterator[tuple]:
    """Three-stroke configs and reports with ``|2 p_e2 - 1| >= min_bias``."""

    def build(omega, T_C, lambda_H, lambda_C):
        cfg = ThreeStrokeConfig(omega, 1.0, T_C, lambda_H, lambda_C)
        rep = three_stroke_report(cfg)
        return (cfg, rep) if abs(2.0 * rep.p2.p_e - 1.0) >= min_bias else None

    return _draw(rng, count, ((0.3, 2.0), (0.35, 0.85), (0.5, 1.0), (0.5, 1.0)), build)


def suite_gibbs_fixed_point() -> list[CheckRecord]:
    """Column-stochasticity and Gibbs fixed point of randomly drawn maps.

    Each of ``_DRAWS`` draws builds ``build_map(ThermalOpParams(omega, beta,
    lam))`` and measures, on its checked float entries and the
    ``thermal_population`` floats, how far an entry lies outside [0, 1]
    (``m - 1`` and ``-m``, at most 0 inside, where the fold from 0.0 skips
    them), how far a column sum is from 1 and how far the Gibbs populations
    move.  The float products round alike on every platform, where a numpy
    2x2 product may fuse a multiply-add.
    """
    rand = random.Random(_SEED).random
    worst_entry = worst_cols = worst_gibbs = 0.0
    for _ in range(_DRAWS):
        omega = 0.05 + (4.0 - 0.05) * rand()
        beta = 0.05 + (4.0 - 0.05) * rand()
        lam = 0.0 + (1.0 - 0.0) * rand()
        m00, m01, m10, m11 = build_map(ThermalOpParams(omega, beta, lam)).entries
        g_g, g_e = thermal_population(omega, beta)
        in_range = 0.0 <= m00 <= 1.0 and 0.0 <= m01 <= 1.0 and 0.0 <= m10 <= 1.0
        if not (in_range and 0.0 <= m11 <= 1.0):
            for x in (m00 - 1.0, -m00, m01 - 1.0, -m01, m10 - 1.0, -m10, m11 - 1.0, -m11):
                if not x <= worst_entry and worst_entry == worst_entry:
                    worst_entry = x
        for x in (abs((m00 + m10) - 1.0), abs((m01 + m11) - 1.0)):
            if not x <= worst_cols and worst_cols == worst_cols:
                worst_cols = x
        for x in (abs(m00 * g_g + m01 * g_e - g_g), abs(m10 * g_g + m11 * g_e - g_e)):
            if not x <= worst_gibbs and worst_gibbs == worst_gibbs:
                worst_gibbs = x
    return [
        CheckRecord("gibbs-fixed-point", "entries-in-range", worst_entry, 1e-12),
        CheckRecord("gibbs-fixed-point", "column-sums", worst_cols, 1e-12),
        CheckRecord("gibbs-fixed-point", "fixed-point-residual", worst_gibbs, 1e-12),
    ]


def suite_first_law() -> list[CheckRecord]:
    """|W - Q_H - Q_C| over ``_DRAWS`` random Otto and three-stroke configurations."""
    rng = random.Random(_SEED)
    worst_otto = worst_three = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # draws outside the engine regime are intended
        for r in map(otto_cycle_report, _otto_configs(rng, _DRAWS)):
            x = abs(r.W - r.Q_H - r.Q_C)
            if not x <= worst_otto and worst_otto == worst_otto:
                worst_otto = x
        for _, r in _three_stroke_draws(rng, _DRAWS, 1e-6):
            x = abs(r.W - r.Q_H - r.Q_C)
            if not x <= worst_three and worst_three == worst_three:
                worst_three = x
    return [
        CheckRecord("first-law", "otto", worst_otto, 1e-12),
        CheckRecord("first-law", "three-stroke", worst_three, 1e-12),
    ]


def suite_oracle_equivalence() -> list[CheckRecord]:
    """Counting-field moments vs exact trajectory enumeration."""
    rng = random.Random(_SEED)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # draws outside the engine regime are intended
        configs = [*_otto_configs(rng, _CONFIGS_PER_ENGINE)]
        configs += [cfg for cfg, _ in _three_stroke_draws(rng, _CONFIGS_PER_ENGINE, 0.05)]
    worst_mean = worst_var = 0.0
    for cfg in configs:
        cycle = cfg.cycle()
        p1 = cycle.steady_state()
        for n in _CYCLES:
            dist = enumerate_work_distribution(cfg, n)
            stats = work_moments(cycle, p1, n)
            mean = abs(stats.mean - dist.mean()) / abs(dist.mean())
            if not mean <= worst_mean and worst_mean == worst_mean:
                worst_mean = mean
            var = abs(stats.variance - dist.variance()) / dist.variance()
            if not var <= worst_var and worst_var == worst_var:
                worst_var = var
    return [
        CheckRecord("oracle-equivalence", "mean", worst_mean, 1e-12),
        CheckRecord("oracle-equivalence", "variance", worst_var, 1e-12),
    ]


def suite_microscopic_eto() -> list[CheckRecord]:
    """Recovery of the ETO from the microscopic dilation: the map of the
    excitation swap, and the sector map of the intensity-dependent JC
    coupling at half a Rabi period, which generates the swap."""
    tr = FockTruncation(n_max=_N_MAX, omega=1.0, beta=_BETA_OMEGA)
    dev_swap = eto_deviation(swap_map(tr), tr)
    dev_jc = eto_deviation(jc_evolution_map(1.0, math.pi / 2.0, tr, INTENSITY_DEPENDENT), tr)
    return [
        CheckRecord("microscopic-eto", "swap-unitary", dev_swap, 1e-8),
        CheckRecord("microscopic-eto", "jc-half-rabi", dev_jc, 1e-8),
    ]


SUITES: dict[str, Callable[[], list[CheckRecord]]] = {
    "gibbs-fixed-point": suite_gibbs_fixed_point,
    "first-law": suite_first_law,
    "oracle-equivalence": suite_oracle_equivalence,
    "microscopic-eto": suite_microscopic_eto,
}


def run_suites(name: str = "all") -> list[CheckRecord]:
    """Run one named suite, or all of them."""
    if name != "all" and name not in SUITES:
        raise InvalidParameterError(f"unknown suite {name!r}; choose from {('all', *SUITES)}")
    return [r for key, fn in SUITES.items() if name in ("all", key) for r in fn()]
