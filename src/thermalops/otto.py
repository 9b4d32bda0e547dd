"""Steady-state analysis of the four-stroke Otto cycle.

The cycle is the stroke tuple (heat at ``omega_H``, quench to ``omega_C``,
cool at ``omega_C``, quench back): points 1 -> 2 -> 3 -> 4 -> 1.  Heat
strokes are thermal operations and quenches keep the populations, so
point 4 is point 1 and the cyclostationary state solves ``L_C L_H p1 =
p1``; populations and heats follow from the tuple (``maps.Cycle``).
``EngineConfig`` holds the parameters, checks and cycle that the Otto and
three-stroke configs share: their cycle as floats (``_cycle_floats``),
which ``cycle()`` stores in a ``Cycle`` without building a stroke.

``otto_work`` gives the steady-cycle work in closed form for any
couplings: it is ``cfg.cycle().work()``, the kernel ``maps._otto_work`` in
the heat maps' gaps, exponents ``omega / T`` and couplings, so the reports,
the counting statistics and the gap scans all return this one value.

``_coupling_rule`` is the one statement of a regime's couplings: the
regime constructors (``EngineConfig._in_regime``) and the gap scans take
them from it, and the closed forms check a config against it.

The report is ``maps.CycleReport``.  Sign conventions: ``Q_H = omega_H *
(p_e2 - p_e1)`` is positive when heat flows into the qubit, ``Q_C =
omega_C * (p_e1 - p_e3)`` is negative in engine operation, and the first
law reads ``W = Q_H + Q_C`` to rounding.  The efficiency ``eta = 1 -
omega_C / omega_H`` is an algebraic identity of the cycle; the setup is an
engine (W > 0) only for ``eta < 1 - T_C / T_H``.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple

from .errors import InvalidParameterError, NotAnEngineWarning, RegimeMismatchError
from .maps import (
    Cycle,
    CycleReport,
    PopulationVector,
    _Checked,
    _cycle_floats,
    _require_type,
    _shown,
    _steady_cycle,
    _unchecked,
    build_map,  # noqa: F401  (bench/tests/test_bench.py reads thermalops.otto.build_map)
    require_descending,
    require_unit_interval,
)

MARKOV = "markov"
NONMARKOV = "nonmarkov"
REGIMES = (MARKOV, NONMARKOV)

_REGIME_TOL = 1e-12


def _coupling_rule(T_H: float, T_C: float, regime: str):
    """The couplings ``(lambda_H, lambda_C)`` of the regime as a function of
    the gaps ``(omega_H, omega_C)``: 1 and 1 (``nonmarkov``) or full
    thermalization at each bath (``markov``), ``1 / (1 + exp(-omega / T))``:
    ``omega / T`` rounds once and, unlike ``1 / T`` at a subnormal ``T``,
    overflows only where ``exp(-omega / T)`` underflows anyway.  The
    temperatures, before they divide, and the regime are checked here, once;
    the gaps by the caller."""
    if not (type(T_H) is float is type(T_C) and T_H > T_C > 0.0):
        require_descending(T_H=T_H, T_C=T_C)  # other types, and every failure
    if regime == NONMARKOV:
        return lambda omega_H, omega_C: (1.0, 1.0)
    if regime == MARKOV:
        return lambda omega_H, omega_C: (
            1.0 / (1.0 + math.exp(-omega_H / T_H)),
            1.0 / (1.0 + math.exp(-omega_C / T_C)),
        )
    raise InvalidParameterError(f"regime must be one of {REGIMES}, got {_shown(regime)}")


class EngineConfig(_Checked):
    """Checks, cycle and regime couplings shared by the engine configs: named
    tuples of the gaps named in ``GAPS`` (hot first, cold last, or the one
    gap), ``T_H``, ``T_C``, ``lambda_H`` and ``lambda_C``.  ``_cycle_floats``
    is their cycle as floats, and ``cycle()`` the ``Cycle`` of them.  Each
    ``__new__`` accepts float fields in one comparison chain and sends any
    other tuple through ``_checked``, which names the failing check or
    accepts a valid tuple of other real types."""

    __slots__ = ()
    GAPS: tuple[str, ...] = ()

    def _checked(self):
        require_descending(**{name: getattr(self, name) for name in self.GAPS})
        require_descending(T_H=self.T_H, T_C=self.T_C)
        require_unit_interval(lambda_H=self.lambda_H, lambda_C=self.lambda_C)
        for name in (self.GAPS[0], "T_H"):  # the largest gap and temperature
            if getattr(self, name) == math.inf:
                raise InvalidParameterError(f"{name} must be finite, got inf")
        return self

    def _cycle_floats(self) -> tuple:
        """The floats of ``maps._steady_cycle`` (``maps._cycle_floats``) at the
        gaps, ``omega / T`` at each bath and the couplings."""
        flip = len(self) == 5  # the three-stroke config's one gap is both gaps
        w_H, w_C, T_H, T_C, l_H, l_C = (self[0], *self) if flip else self
        return _cycle_floats(w_H, w_C, w_H / T_H, w_C / T_C, l_H, l_C, flip)

    def cycle(self) -> Cycle:
        """The ``Cycle`` of ``_cycle_floats``, whose strokes are built when first read:
        checked fields, linked gaps, so unchecked."""
        return _unchecked(Cycle, {"_floats": self._cycle_floats()})

    @classmethod
    def _in_regime(cls, regime: str, T_H: float, T_C: float, *gaps: float):
        """The config with the couplings of ``regime`` at these gaps."""
        return cls(*gaps, T_H, T_C, *_coupling_rule(T_H, T_C, regime)(gaps[0], gaps[-1]))

    def _require_regime(self, regime: str) -> None:
        """Raise ``RegimeMismatchError`` unless the couplings are those of
        ``regime`` at the config's own gaps, within ``_REGIME_TOL``."""
        gaps = (getattr(self, self.GAPS[0]), getattr(self, self.GAPS[-1]))
        lam_H, lam_C = _coupling_rule(self.T_H, self.T_C, regime)(*gaps)
        if max(abs(self.lambda_H - lam_H), abs(self.lambda_C - lam_C)) > _REGIME_TOL:
            raise RegimeMismatchError(f"{regime} regime requires couplings {(lam_H, lam_C)}")


class OttoConfig(
    EngineConfig, namedtuple("OttoConfig", "omega_H omega_C T_H T_C lambda_H lambda_C")
):
    """Otto-cycle parameters: gaps, bath temperatures, coupling strengths."""

    __slots__ = ()
    GAPS = ("omega_H", "omega_C")

    def __new__(
        cls,
        omega_H: float,
        omega_C: float,
        T_H: float,
        T_C: float,
        lambda_H: float,
        lambda_C: float,
    ):
        self = tuple.__new__(cls, (omega_H, omega_C, T_H, T_C, lambda_H, lambda_C))
        if (
            type(omega_H) is float is type(omega_C) is type(T_H) is type(T_C)
            and type(lambda_H) is float is type(lambda_C)
            and math.inf > omega_H > omega_C > 0.0
            and math.inf > T_H > T_C > 0.0
            and 0.0 <= lambda_H <= 1.0
            and 0.0 <= lambda_C <= 1.0
        ):
            return self
        return self._checked()

    @classmethod
    def nonmarkov(cls, omega_H, omega_C, T_H, T_C) -> "OttoConfig":
        """Both heat strokes are extremal thermal operations."""
        return cls._in_regime(NONMARKOV, T_H, T_C, omega_H, omega_C)

    @classmethod
    def markov(cls, omega_H, omega_C, T_H, T_C) -> "OttoConfig":
        """Both heat strokes fully thermalize the qubit."""
        return cls._in_regime(MARKOV, T_H, T_C, omega_H, omega_C)

    @property
    def efficiency(self) -> float:
        return 1.0 - self.omega_C / self.omega_H

    @property
    def carnot_efficiency(self) -> float:
        return 1.0 - self.T_C / self.T_H


def otto_steady_state(cfg: OttoConfig) -> PopulationVector:
    """Cyclostationary populations at point 1 (start of the heat stroke)."""
    _require_type(cfg, OttoConfig)
    return cfg.cycle().steady_state()


def otto_cycle_report(cfg: OttoConfig) -> CycleReport:
    """Steady-cycle report with ``eta = 1 - omega_C / omega_H``; a warning past
    Carnot.  ``cfg.cycle().run()`` on the config's floats (``_steady_cycle``)."""
    _require_type(cfg, OttoConfig)
    run = _steady_cycle(cfg._cycle_floats())
    eta = cfg.efficiency
    if eta >= cfg.carnot_efficiency:
        warnings.warn(
            f"efficiency {eta:.6g} is not below the Carnot value "
            f"{cfg.carnot_efficiency:.6g}; not operating as a heat engine",
            NotAnEngineWarning,
            stacklevel=2,
        )
    return tuple.__new__(CycleReport, (*run, eta))  # skips namedtuple's Python __new__


def otto_work(cfg: OttoConfig) -> float:
    """Work per steady cycle in closed form, for any couplings.

    With ``q = exp(-omega / T)`` and ``r = 1 - lam * q`` per bath, the
    fixed point of ``L_C L_H`` has rates ``up = l_C q_C r_H + (1 - l_C) l_H q_H``
    and ``down = r_C l_H + l_C (1 - l_H)``; since ``q_H down - up =
    l_C (q_H - q_C)``,

        W = (omega_H - omega_C) * l_H * l_C * (q_H - q_C) / (up + down).

    No step cancels: ``r`` and ``q_H - q_C`` are formed with ``expm1``, and
    every other term is a sum of non-negative parts.  It is ``cfg.cycle().work()``,
    which reads a coupling as its map's entry ``0.0 + lam``, so -0.0 as +0.0.  Raises
    ``DegenerateCycleError`` when ``up + down == 0`` (both couplings 0),
    where the cycle map is the identity.
    """
    _require_type(cfg, OttoConfig)
    return cfg.cycle().work()


def analytic_populations(cfg: OttoConfig, regime: str) -> tuple[float, float]:
    """Closed-form excited-state populations (p_e1, p_e3) for the two
    reference regimes.

    The couplings must be those of the regime: full thermalization
    (``markov``; points 1 and 3 are then thermal at the cold and hot bath)
    or extremal operations on both strokes (``nonmarkov``).  Serves as an
    independent check on the steady-state solver.
    """
    _require_type(cfg, OttoConfig)
    cfg._require_regime(regime)
    a, b = cfg.omega_H / cfg.T_H, cfg.omega_C / cfg.T_C  # 1 / T overflows for a subnormal T
    q_H, q_C = math.exp(-a), math.exp(-b)
    if regime == MARKOV:
        return q_C / (1.0 + q_C), q_H / (1.0 + q_H)
    # (e^a - 1) / (e^(a+b) - 1) and (e^b - 1) / (e^(a+b) - 1); -expm1 of a
    # negative argument keeps small gaps accurate and cannot overflow
    denom = -math.expm1(-(a + b))
    return q_C * -math.expm1(-a) / denom, q_H * -math.expm1(-b) / denom
