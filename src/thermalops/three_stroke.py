"""Three-stroke engine: heat, coherent population flip, cool, at fixed gap.

The cycle is the stroke tuple (heat, flip, cool) at one gap ``omega``.  The
flip swaps the populations, so a cycle generates work
``W = omega * (2 p_e2 - 1)``: positive only when the heat stroke produces
population inversion.  Since Markovian thermal operations cannot invert a
non-inverted state, the engine runs only in the non-Markovian regime.
``Cycle.work`` evaluates that work in closed form, for any couplings, from
the heat maps (``maps._three_stroke_work``).  ``otto.EngineConfig`` builds
the cycle, with the one gap as both gaps.  The report is the Otto engine's
``maps.CycleReport``, with ``eta = W / Q_H``.  Signs match the Otto module;
``W = Q_H + Q_C`` to rounding.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple

from .errors import NotAnEngineWarning, ZeroHeatError
from .maps import CycleReport, PopulationVector, _require_type, _steady_cycle
from .otto import MARKOV, NONMARKOV, EngineConfig

_HEAT_TOL = 1e-14


class ThreeStrokeConfig(
    EngineConfig, namedtuple("ThreeStrokeConfig", "omega T_H T_C lambda_H lambda_C")
):
    """Three-stroke parameters: gap, bath temperatures, coupling strengths."""

    __slots__ = ()
    GAPS = ("omega",)

    def __new__(cls, omega: float, T_H: float, T_C: float, lambda_H: float, lambda_C: float):
        self = tuple.__new__(cls, (omega, T_H, T_C, lambda_H, lambda_C))
        if (
            type(omega) is float is type(T_H) is type(T_C) is type(lambda_H) is type(lambda_C)
            and math.inf > omega > 0.0
            and math.inf > T_H > T_C > 0.0
            and 0.0 <= lambda_H <= 1.0
            and 0.0 <= lambda_C <= 1.0
        ):
            return self
        return self._checked()

    @classmethod
    def nonmarkov(cls, omega, T_H, T_C) -> "ThreeStrokeConfig":
        """Both heat strokes are extremal thermal operations."""
        return cls._in_regime(NONMARKOV, T_H, T_C, omega)

    @classmethod
    def markov(cls, omega, T_H, T_C) -> "ThreeStrokeConfig":
        """Both heat strokes fully thermalize the qubit, as in ``OttoConfig.markov``."""
        return cls._in_regime(MARKOV, T_H, T_C, omega)

    def requires_eto(self):
        """Closed forms hold only for extremal operations (``nonmarkov``)."""
        self._require_regime(NONMARKOV)


def three_stroke_steady_state(cfg: ThreeStrokeConfig) -> PopulationVector:
    """Cyclostationary populations at point 1 (start of the heat stroke)."""
    _require_type(cfg, ThreeStrokeConfig)
    return cfg.cycle().steady_state()


def three_stroke_report(cfg: ThreeStrokeConfig) -> CycleReport:
    """Steady-cycle report with ``eta = W / Q_H``: ``ZeroHeatError`` unless
    ``|Q_H| > 1e-14 * omega`` (so a ``Q_H`` of 0 where that underflows, or
    NaN), a warning if ``W <= 0``.  As ``otto_cycle_report``, on floats."""
    _require_type(cfg, ThreeStrokeConfig)
    p1, p2, p3, W, Q_H, Q_C = _steady_cycle(cfg._cycle_floats())
    if not abs(Q_H) > _HEAT_TOL * cfg.omega:
        raise ZeroHeatError("Q_H vanishes; efficiency undefined")
    if W <= 0.0:
        warnings.warn(
            "heating did not produce population inversion (p_e2 <= 1/2); "
            "not operating as a heat engine",
            NotAnEngineWarning,
            stacklevel=2,
        )
    return tuple.__new__(CycleReport, (p1, p2, p3, W, Q_H, Q_C, W / Q_H))  # as otto's report
