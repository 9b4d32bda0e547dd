"""Three-stroke engine: heat, coherent population flip, cool, at fixed gap.

The cycle is the stroke tuple (heat, flip, cool) at one gap ``omega``.  The
flip swaps the populations, so a cycle generates work
``W = omega * (2 p_e2 - 1)``: positive only when the heat stroke produces
population inversion.  Since Markovian thermal operations cannot invert a
non-inverted state, the engine runs only in the non-Markovian regime.
``Cycle.work`` evaluates that work in closed form, for any couplings, from
the heat maps (``maps._three_stroke_work``).  Signs match the Otto module;
``W = Q_H + Q_C`` to rounding.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from typing import NamedTuple

from .errors import NotAnEngineWarning, ZeroHeatError
from .maps import Cycle, PopulationVector, WorkStroke, _unchecked
from .otto import MARKOV, NONMARKOV, EngineConfig

_HEAT_TOL = 1e-14


class ThreeStrokeConfig(
    EngineConfig, namedtuple("ThreeStrokeConfig", "omega T_H T_C lambda_H lambda_C")
):
    """Three-stroke parameters: gap, bath temperatures, coupling strengths."""

    __slots__ = ()
    GAPS = ("omega",)

    def __new__(cls, omega: float, T_H: float, T_C: float, lambda_H: float, lambda_C: float):
        return tuple.__new__(cls, (omega, T_H, T_C, lambda_H, lambda_C))._checked()

    @classmethod
    def nonmarkov(cls, omega, T_H, T_C) -> "ThreeStrokeConfig":
        """Both heat strokes are extremal thermal operations."""
        return cls._in_regime(NONMARKOV, T_H, T_C, omega)

    @classmethod
    def markov(cls, omega, T_H, T_C) -> "ThreeStrokeConfig":
        """Both heat strokes fully thermalize the qubit, as in ``OttoConfig.markov``."""
        return cls._in_regime(MARKOV, T_H, T_C, omega)

    def cycle(self) -> Cycle:
        """Heat, flip, cool: the strokes link the gap, so ``Cycle``'s check is skipped."""
        strokes = (self.hot_map(), WorkStroke(self.omega, self.omega, flip=True), self.cold_map())
        return _unchecked(Cycle, strokes=strokes)

    def requires_eto(self):
        """Closed forms hold only for extremal operations (``nonmarkov``)."""
        self._require_regime(NONMARKOV)


class ThreeStrokeReport(NamedTuple):
    """Populations at the three cycle points plus energy bookkeeping."""

    p1: PopulationVector
    p2: PopulationVector
    p3: PopulationVector
    W: float
    Q_H: float
    Q_C: float
    eta: float


def three_stroke_steady_state(cfg: ThreeStrokeConfig) -> PopulationVector:
    """Cyclostationary populations at point 1 (start of the heat stroke)."""
    return cfg.cycle().steady_state()


def three_stroke_report(cfg: ThreeStrokeConfig) -> ThreeStrokeReport:
    """Full steady-cycle report: populations, work, heats, ``eta = W / Q_H``;
    ``ZeroHeatError`` if ``|Q_H| < 1e-14 * omega``, a warning if ``W <= 0``."""
    points, W, (Q_H, Q_C) = cfg.cycle().run()
    if abs(Q_H) < _HEAT_TOL * cfg.omega:
        raise ZeroHeatError("Q_H vanishes; efficiency undefined")
    eta = W / Q_H
    if W <= 0.0:
        warnings.warn(
            "heating did not produce population inversion (p_e2 <= 1/2); "
            "not operating as a heat engine",
            NotAnEngineWarning,
            stacklevel=2,
        )
    return ThreeStrokeReport(*points, W, Q_H, Q_C, eta)
