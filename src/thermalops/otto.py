"""Steady-state analysis of the four-stroke Otto cycle.

The cycle is the stroke tuple (heat at ``omega_H``, quench to ``omega_C``,
cool at ``omega_C``, quench back): points 1 -> 2 -> 3 -> 4 -> 1.  Heat
strokes are thermal operations and quenches keep the populations, so the
cyclostationary state solves ``L_C L_H p1 = p1``; populations, work and
heats follow from the tuple (``maps.Cycle``).  ``EngineConfig`` holds the
parameters and checks that the Otto and three-stroke configs share.

``otto_work`` gives the steady-cycle work in closed form for any
couplings; the gap scans use it, and ``otto_cycle_report`` stays the full
report and the reference it is tested against.

Sign conventions: ``Q_H = omega_H * (p_e2 - p_e1)`` is positive when heat
flows into the qubit, ``Q_C = omega_C * (p_e4 - p_e3)`` is negative in
engine operation, and the first law reads ``W = Q_H + Q_C`` exactly.  The
efficiency ``eta = 1 - omega_C / omega_H`` is an algebraic identity of the
cycle; the setup is an engine (W > 0) only for ``eta < 1 - T_C / T_H``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import (
    DegenerateCycleError,
    InvalidParameterError,
    NotAnEngineWarning,
    RegimeMismatchError,
)
from .maps import (
    Cycle,
    GibbsStochasticMatrix,
    PopulationVector,
    WorkStroke,
    _build_map,
    build_map,  # noqa: F401  (bench/tests/test_bench.py reads thermalops.otto.build_map)
    full_thermalization_lambda,
    require_descending,
    require_unit_interval,
)

MARKOV = "markov"
NONMARKOV = "nonmarkov"
REGIMES = (MARKOV, NONMARKOV)

_REGIME_TOL = 1e-12


class EngineConfig:
    """Checks, inverse temperatures and heat maps shared by the engine
    configs: frozen dataclasses with fields ``T_H``, ``T_C``, ``lambda_H``,
    ``lambda_C`` and the gaps named in ``GAPS`` (hot gap first, cold gap
    last), which build their stroke tuple in ``cycle()``."""

    GAPS: tuple[str, ...] = ()

    def __post_init__(self):
        require_descending(**{name: getattr(self, name) for name in self.GAPS})
        require_descending(T_H=self.T_H, T_C=self.T_C)
        require_unit_interval(lambda_H=self.lambda_H, lambda_C=self.lambda_C)

    @property
    def beta_H(self) -> float:
        return 1.0 / self.T_H

    @property
    def beta_C(self) -> float:
        return 1.0 / self.T_C

    # the fields were checked in __post_init__, so the maps skip ThermalOpParams
    def hot_map(self) -> GibbsStochasticMatrix:
        return _build_map(getattr(self, self.GAPS[0]), self.beta_H, self.lambda_H)

    def cold_map(self) -> GibbsStochasticMatrix:
        return _build_map(getattr(self, self.GAPS[-1]), self.beta_C, self.lambda_C)


@dataclass(frozen=True)
class OttoConfig(EngineConfig):
    """Otto-cycle parameters: gaps, bath temperatures, coupling strengths."""

    GAPS = ("omega_H", "omega_C")

    omega_H: float
    omega_C: float
    T_H: float
    T_C: float
    lambda_H: float
    lambda_C: float

    @classmethod
    def nonmarkov(cls, omega_H, omega_C, T_H, T_C) -> "OttoConfig":
        """Both heat strokes are extremal thermal operations."""
        return cls(*_pinned_fields(omega_H, omega_C, T_H, T_C, NONMARKOV))

    @classmethod
    def markov(cls, omega_H, omega_C, T_H, T_C) -> "OttoConfig":
        """Both heat strokes fully thermalize the qubit."""
        return cls(*_pinned_fields(omega_H, omega_C, T_H, T_C, MARKOV))

    @property
    def work_quantum(self) -> float:
        """Energy exchanged per counted event, ``omega_H - omega_C``."""
        return self.omega_H - self.omega_C

    @property
    def efficiency(self) -> float:
        return 1.0 - self.omega_C / self.omega_H

    @property
    def carnot_efficiency(self) -> float:
        return 1.0 - self.T_C / self.T_H

    def cycle(self) -> Cycle:
        """Heat at omega_H, quench to omega_C, cool, quench back."""
        return Cycle(
            (
                self.hot_map(),
                WorkStroke(self.omega_H, self.omega_C),
                self.cold_map(),
                WorkStroke(self.omega_C, self.omega_H),
            ),
            self.work_quantum,
        )


def _coupling_rule(T_H: float, T_C: float, regime: str):
    """The couplings ``(lambda_H, lambda_C)`` of the regime as a function of
    the gaps ``(omega_H, omega_C)``: 1 and 1 (``nonmarkov``) or full
    thermalization at each bath (``markov``), for the Otto and the
    three-stroke configs and the gap scans.  The temperatures, before they
    divide, and the regime are checked here, once; the gaps by the caller."""
    require_descending(T_H=T_H, T_C=T_C)
    if regime == NONMARKOV:
        return lambda omega_H, omega_C: (1.0, 1.0)
    if regime == MARKOV:
        beta_H, beta_C = 1.0 / T_H, 1.0 / T_C
        return lambda omega_H, omega_C: (
            full_thermalization_lambda(omega_H, beta_H),
            full_thermalization_lambda(omega_C, beta_C),
        )
    raise InvalidParameterError(f"regime must be one of {REGIMES}, got {regime!r}")


def _pinned_fields(
    omega_H: float, omega_C: float, T_H: float, T_C: float, regime: str
) -> tuple[float, float, float, float, float, float]:
    """``OttoConfig`` fields with both couplings set by ``_coupling_rule``."""
    return omega_H, omega_C, T_H, T_C, *_coupling_rule(T_H, T_C, regime)(omega_H, omega_C)


@dataclass(frozen=True)
class OttoCycleReport:
    """Populations at the four cycle points plus energy bookkeeping."""

    p1: PopulationVector
    p2: PopulationVector
    p3: PopulationVector
    p4: PopulationVector
    W: float
    Q_H: float
    Q_C: float
    eta: float


def otto_steady_state(cfg: OttoConfig) -> PopulationVector:
    """Cyclostationary populations at point 1 (start of the heat stroke)."""
    return cfg.cycle().steady_state()


def otto_cycle_report(cfg: OttoConfig) -> OttoCycleReport:
    """Full steady-cycle report: populations, work, heats, efficiency."""
    points, W, (Q_H, Q_C) = cfg.cycle().run()
    eta = cfg.efficiency
    if eta >= cfg.carnot_efficiency:
        warnings.warn(
            f"efficiency {eta:.6g} is not below the Carnot value "
            f"{cfg.carnot_efficiency:.6g}; not operating as a heat engine",
            NotAnEngineWarning,
            stacklevel=2,
        )
    return OttoCycleReport(*points, W, Q_H, Q_C, eta)


def otto_work(cfg: OttoConfig) -> float:
    """Work per steady cycle in closed form, for any couplings.

    With ``q = exp(-beta * omega)`` and ``r = 1 - lam * q`` per bath, the
    fixed point of ``L_C L_H`` has rates ``up = l_C q_C r_H + (1 - l_C) l_H q_H``
    and ``down = r_C l_H + l_C (1 - l_H)``; since ``q_H down - up =
    l_C (q_H - q_C)``,

        W = (omega_H - omega_C) * l_H * l_C * (q_H - q_C) / (up + down).

    No step cancels: ``r`` and ``q_H - q_C`` are formed with ``expm1``, and
    every other term is a sum of non-negative parts.  Agrees with
    ``otto_cycle_report(cfg).W``, which differences populations instead.
    Raises ``DegenerateCycleError`` when ``up + down == 0`` (both couplings
    0), where the cycle map is the identity, as the stroke path does.
    """
    return _otto_work(cfg.omega_H, cfg.omega_C, cfg.T_H, cfg.T_C, cfg.lambda_H, cfg.lambda_C)


def _otto_work(
    omega_H: float, omega_C: float, T_H: float, T_C: float, l_H: float, l_C: float
) -> float:
    """``otto_work`` on the fields of an ``OttoConfig`` that the caller has
    already checked."""
    if math.isinf(omega_H):
        raise InvalidParameterError("the work of an infinite gap is not a number")
    # beta * omega would round twice, and overflow for a subnormal T
    a = omega_H / T_H
    b = omega_C / T_C
    q_H, q_C = math.exp(-a), math.exp(-b)
    r_H = (1.0 - l_H) - l_H * math.expm1(-a)
    r_C = (1.0 - l_C) - l_C * math.expm1(-b)
    rate = l_C * q_C * r_H + (1.0 - l_C) * l_H * q_H + r_C * l_H + l_C * (1.0 - l_H)  # up + down
    if rate == 0.0:
        raise DegenerateCycleError("cycle map is the identity; fixed point not unique")
    # q_H - q_C as a multiple of the larger q; when that q underflows to 0,
    # a - b may be inf - inf, but the difference is 0
    if a <= b:
        dq = -q_H * math.expm1(a - b) if q_H else 0.0
    else:
        dq = q_C * math.expm1(b - a) if q_C else 0.0
    return (omega_H - omega_C) * l_H * (l_C * dq / rate)


def _nonmarkov_populations(a: float, b: float) -> tuple[float, float]:
    # a = beta_H * omega_H, b = beta_C * omega_C; expm1 keeps small-gap
    # accuracy, the exp(-x) form avoids overflow for large exponents.
    if a + b < 700.0:
        denom = math.expm1(a + b)
        return math.expm1(a) / denom, math.expm1(b) / denom
    x_h, x_c = math.exp(-a), math.exp(-b)
    denom = 1.0 - x_c * x_h
    return x_c * (1.0 - x_h) / denom, x_h * (1.0 - x_c) / denom


def analytic_populations(cfg: OttoConfig, regime: str) -> tuple[float, float]:
    """Closed-form excited-state populations (p_e1, p_e3) for the two
    reference regimes.

    ``markov`` requires both couplings at their full-thermalization values
    (points 1 and 3 are then thermal at the cold and hot bath); ``nonmarkov``
    requires extremal operations on both strokes.  Serves as an independent
    check on the steady-state solver.
    """
    a = cfg.beta_H * cfg.omega_H
    b = cfg.beta_C * cfg.omega_C
    if regime == MARKOV:
        expected_H = full_thermalization_lambda(cfg.omega_H, cfg.beta_H)
        expected_C = full_thermalization_lambda(cfg.omega_C, cfg.beta_C)
        if (
            abs(cfg.lambda_H - expected_H) > _REGIME_TOL
            or abs(cfg.lambda_C - expected_C) > _REGIME_TOL
        ):
            raise RegimeMismatchError(
                "markov regime requires full-thermalization coupling strengths"
            )
        return 1.0 / (1.0 + math.exp(b)), 1.0 / (1.0 + math.exp(a))
    if regime == NONMARKOV:
        if abs(cfg.lambda_H - 1.0) > _REGIME_TOL or abs(cfg.lambda_C - 1.0) > _REGIME_TOL:
            raise RegimeMismatchError("nonmarkov regime requires lambda = 1 on both strokes")
        return _nonmarkov_populations(a, b)
    raise InvalidParameterError(f"unknown regime {regime!r}, expected one of {REGIMES}")
