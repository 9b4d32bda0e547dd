"""Three-stroke engine: heat, coherent population flip, cool, at fixed gap.

The cycle is the stroke tuple (heat, flip, cool) at one gap ``omega``.  The
flip swaps the populations, so a cycle generates work
``W = omega * (2 p_e2 - 1)``: positive only when the heat stroke produces
population inversion.  Since Markovian thermal operations cannot invert a
non-inverted state, the engine runs only in the non-Markovian regime.  The
cycle carries that work in closed form (``_three_stroke_work``, any
couplings).  Signs match the Otto module; ``W = Q_H + Q_C`` to rounding.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

from .errors import DegenerateCycleError, NotAnEngineWarning, ZeroHeatError
from .maps import Cycle, PopulationVector, WorkStroke, _unchecked
from .otto import MARKOV, NONMARKOV, EngineConfig

_HEAT_TOL = 1e-14


@dataclass(frozen=True)
class ThreeStrokeConfig(EngineConfig):
    """Three-stroke parameters: gap, bath temperatures, coupling strengths."""

    GAPS = ("omega",)

    omega: float
    T_H: float
    T_C: float
    lambda_H: float
    lambda_C: float

    @classmethod
    def nonmarkov(cls, omega, T_H, T_C) -> "ThreeStrokeConfig":
        """Both heat strokes are extremal thermal operations."""
        return cls._in_regime(NONMARKOV, T_H, T_C, omega)

    @classmethod
    def markov(cls, omega, T_H, T_C) -> "ThreeStrokeConfig":
        """Both heat strokes fully thermalize the qubit, as in ``OttoConfig.markov``."""
        return cls._in_regime(MARKOV, T_H, T_C, omega)

    @property
    def work_quantum(self) -> float:
        """Every flip exchanges exactly one quantum ``omega``."""
        return self.omega

    def cycle(self) -> Cycle:
        """Heat, flip, cool: a shape ``Cycle`` admits, so its check is skipped."""
        strokes = (self.hot_map(), WorkStroke(self.omega, self.omega, flip=True), self.cold_map())
        fields = (self.omega, self.T_H, self.T_C, self.lambda_H, self.lambda_C)
        work = partial(_three_stroke_work, *fields)
        return _unchecked(Cycle, strokes=strokes, quantum=self.work_quantum, work=work)

    def requires_eto(self):
        """Closed forms hold only for extremal operations (``nonmarkov``)."""
        self._require_regime(NONMARKOV)


def _three_stroke_work(omega: float, T_H: float, T_C: float, l_H: float, l_C: float) -> float:
    """Steady work on checked fields, any couplings: heat maps ``x = 2 p_e - 1``
    to ``mu x - r`` (``mu = (1 - l) - l q``, ``r = -l expm1(-omega / T)``) and
    the flip to ``-x``, so ``W = -omega (r_H + mu_H r_C) / (1 + mu_H mu_C)``.
    The denominator adds non-negative parts, so only the numerator cancels."""
    a, b = omega / T_H, omega / T_C
    r_H, r_C, q_H = -l_H * math.expm1(-a), -l_C * math.expm1(-b), math.exp(-a)
    mu_H = (1.0 - l_H) - l_H * q_H
    if mu_H >= 0.0:  # 1 + mu_H mu_C = (1 - mu_H) + mu_H (1 + mu_C)
        den = l_H * (1.0 + q_H) + mu_H * (2.0 * (1.0 - l_C) + r_C)
    else:  # (1 + mu_H) - mu_H (1 - mu_C)
        den = (2.0 * (1.0 - l_H) + r_H) - mu_H * (l_C * (1.0 + math.exp(-b)))
    if den == 0.0:
        raise DegenerateCycleError("cycle map is the identity; fixed point not unique")
    return -omega * (r_H + mu_H * r_C) / den


@dataclass(frozen=True)
class ThreeStrokeReport:
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
