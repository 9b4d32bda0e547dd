"""Three-stroke engine: heat, coherent population flip, cool, at fixed gap.

The cycle is the stroke tuple (heat, flip, cool) at one gap ``omega``.  The
flip swaps the populations, so a cycle generates work
``W = omega * (2 p_e2 - 1)``: positive only when the heat stroke produces
population inversion.  Since Markovian thermal operations cannot invert a
non-inverted state, the engine runs only in the non-Markovian regime.
Sign conventions match the Otto module and the first law ``W = Q_H + Q_C``
holds exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NotAnEngineWarning, RegimeMismatchError, ZeroHeatError
from .maps import Cycle, PopulationVector, WorkStroke
from .otto import MARKOV, EngineConfig, _coupling_rule

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])  # population map of the flip
SWAP.setflags(write=False)

_REGIME_TOL = 1e-12
_HEAT_TOL = 1e-14


@dataclass(frozen=True)
class ThreeStrokeConfig(EngineConfig):
    GAPS = ("omega",)

    omega: float
    T_H: float
    T_C: float
    lambda_H: float
    lambda_C: float

    @classmethod
    def nonmarkov(cls, omega, T_H, T_C) -> "ThreeStrokeConfig":
        return cls(omega, T_H, T_C, 1.0, 1.0)

    @classmethod
    def markov(cls, omega, T_H, T_C) -> "ThreeStrokeConfig":
        """Both heat strokes fully thermalize the qubit, as in ``OttoConfig.markov``."""
        return cls(omega, T_H, T_C, *_coupling_rule(T_H, T_C, MARKOV)(omega, omega))

    @property
    def work_quantum(self) -> float:
        """Every flip exchanges exactly one quantum ``omega``."""
        return self.omega

    def cycle(self) -> Cycle:
        """Heat, flip, cool."""
        return Cycle(
            (self.hot_map(), WorkStroke(self.omega, self.omega, flip=True), self.cold_map()),
            self.work_quantum,
        )

    def requires_eto(self):
        if abs(self.lambda_H - 1.0) > _REGIME_TOL or abs(self.lambda_C - 1.0) > _REGIME_TOL:
            raise RegimeMismatchError(
                "closed-form expressions hold only for extremal operations "
                "(lambda = 1 on both strokes)"
            )


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
