"""Thermal operations on a single qubit, restricted to populations.

A thermal operation at inverse temperature ``beta`` acting on a qubit with
gap ``omega`` sends the population vector ``(p_g, p_e)`` through a 2x2
column-stochastic matrix that leaves the Gibbs populations invariant
(a Gibbs-stochastic matrix).  The whole one-parameter family is

    L(omega, beta, lam) = (1 - lam) * I + lam * [[1 - q, 1], [q, 0]],

with ``q = exp(-beta * omega)`` and interaction strength ``lam`` in [0, 1].
The operation is Markovian (realizable by Lindblad dynamics with the Gibbs
state stationary) iff ``lam`` does not exceed the ground-state thermal
population; ``lam = 1`` is the extremal thermal operation (ETO), which is
non-Markovian and can invert populations.

Units: hbar = k_B = 1 throughout, so ``beta = 1/T`` and energies are
measured in units of the reference temperature.  Coherences are taken to be
fully dephased after every operation, so population vectors are a complete
state description here.

An engine cycle is an ordered tuple of two-level strokes (``Cycle``): heat
strokes are Gibbs-stochastic maps, work strokes (``WorkStroke``) permute
the levels at frozen populations while the gap changes.  The cycle map,
its steady state, the populations at the stroke boundaries, the work and
the heats all follow from that tuple.

Every value is checked once, where it enters, and 2x2 work is done on
Python floats: a ``GibbsStochasticMatrix`` built from a user's matrix and
a map from ``build_map`` pass the same float checks of their four entries;
``build_map`` then wraps its entries without checking them again.

All types are immutable after construction and all operations are pure
functions; everything is safe for concurrent read-only use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConsistencyError, DegenerateCycleError, InvalidParameterError

# Probability drift below RENORM is accepted as-is, between RENORM and FAIL
# it is clamped and renormalized, above FAIL it is treated as a logic bug.
DRIFT_RENORM = 1e-12
DRIFT_FAIL = 1e-9

STOCHASTIC_TOL = 1e-12
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class PopulationVector:
    """Ground/excited occupation probabilities of the qubit."""

    p_g: float
    p_e: float

    def __post_init__(self):
        if not (0.0 <= self.p_g <= 1.0 and 0.0 <= self.p_e <= 1.0):
            raise InvalidParameterError(
                f"populations must lie in [0, 1], got ({self.p_g}, {self.p_e})"
            )
        if abs(self.p_g + self.p_e - 1.0) > DRIFT_RENORM:
            raise InvalidParameterError(
                f"populations must sum to 1 within {DRIFT_RENORM}, "
                f"got sum {self.p_g + self.p_e}"
            )

    @classmethod
    def from_raw(cls, values: Iterable[float]) -> "PopulationVector":
        """Build from possibly drifted raw values.

        Values outside [0, 1] are clamped into it.  Drift up to
        ``DRIFT_RENORM`` is accepted after that, drift up to ``DRIFT_FAIL``
        is also renormalized, anything larger raises ``ConsistencyError``
        since it indicates a logic bug rather than rounding.
        """
        p_g, p_e = (float(v) for v in values)
        overshoot = max(0.0, -p_g, -p_e, p_g - 1.0, p_e - 1.0)
        drift = max(overshoot, abs(p_g + p_e - 1.0))
        if drift > DRIFT_FAIL:
            raise ConsistencyError(
                f"population drift {drift:.3e} exceeds {DRIFT_FAIL}: "
                f"raw values ({p_g}, {p_e})"
            )
        if overshoot > 0.0:  # min and max keep a NaN, which the constructor rejects
            p_g = min(max(p_g, 0.0), 1.0)
            p_e = min(max(p_e, 0.0), 1.0)
        if drift > DRIFT_RENORM:
            total = p_g + p_e
            if total <= 0.0:
                raise ConsistencyError("populations vanished, cannot renormalize")
            p_g, p_e = p_g / total, p_e / total
        return cls(p_g, p_e)

    def as_array(self) -> np.ndarray:
        return np.array([self.p_g, self.p_e])


@dataclass(frozen=True)
class ThermalOpParams:
    """(gap, inverse temperature, interaction strength) of one operation."""

    omega: float
    beta: float
    lam: float

    def __post_init__(self):
        require_descending(omega=self.omega)
        require_descending(beta=self.beta)
        require_unit_interval(lam=self.lam)


@dataclass(frozen=True, eq=False)
class GibbsStochasticMatrix:
    """2x2 column-stochastic matrix with the Gibbs populations as fixed point.

    Entry ``m[i, j]`` is the transition probability from source level ``j``
    to target level ``i``, ordering (ground, excited).
    """

    m: np.ndarray
    omega: float
    beta: float

    def __post_init__(self):
        arr = np.asarray(self.m, dtype=float)
        if arr.shape != (2, 2):
            raise InvalidParameterError(f"expected a 2x2 matrix, got shape {arr.shape}")
        m = _gibbs_stochastic_array(*arr.ravel().tolist(), self.omega, self.beta)
        object.__setattr__(self, "m", m)

    @classmethod
    def _trusted(cls, m: np.ndarray, omega: float, beta: float) -> "GibbsStochasticMatrix":
        """Wrap a read-only matrix from ``_gibbs_stochastic_array``."""
        self = object.__new__(cls)
        self.__dict__.update(m=m, omega=omega, beta=beta)
        return self

    def as_array(self) -> np.ndarray:
        return np.array(self.m)


def require_descending(**values: float) -> None:
    """Require ``v1 > v2 > ... > 0`` in keyword order (one value: ``v > 0``).
    NaN fails the comparisons and bools are rejected, not read as 0 or 1."""
    vals = tuple(values.values())
    for a, b in zip(vals, vals[1:] + (0.0,)):
        if isinstance(a, bool) or not a > b:
            raise InvalidParameterError(f"need {' > '.join(values)} > 0, got {vals}")


def require_unit_interval(**values: float) -> None:
    """Require every value to lie in [0, 1]; NaN and bools fail."""
    for name, v in values.items():
        if isinstance(v, bool) or not 0.0 <= v <= 1.0:
            raise InvalidParameterError(f"{name} must lie in [0, 1], got {v}")


def require_count(n, minimum: int, name: str) -> int:
    """Require an integer ``n >= minimum``; bools are rejected."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < minimum:
        raise InvalidParameterError(f"{name} must be an integer >= {minimum}, got {n!r}")
    return int(n)


def _boltzmann_factor(omega: float, beta: float) -> float:
    """``exp(-beta * omega)``, for ``omega, beta > 0``."""
    if not (omega > 0.0 and beta > 0.0):
        raise InvalidParameterError(
            f"omega and beta must be > 0, got omega={omega}, beta={beta}"
        )
    return math.exp(-beta * omega)


def thermal_population(omega: float, beta: float) -> PopulationVector:
    """Gibbs populations of a qubit with gap ``omega`` at inverse
    temperature ``beta``."""
    q = _boltzmann_factor(omega, beta)
    return PopulationVector(1.0 / (1.0 + q), q / (1.0 + q))


def full_thermalization_lambda(omega: float, beta: float) -> float:
    """Interaction strength at which the operation fully thermalizes the
    qubit; also the Markovianity threshold.  Equals the Gibbs ground-state
    population ``thermal_population(omega, beta).p_g``."""
    return 1.0 / (1.0 + _boltzmann_factor(omega, beta))


def _gibbs_stochastic_array(
    m00: float, m01: float, m10: float, m11: float, omega: float, beta: float
) -> np.ndarray:
    """Read-only 2x2 matrix of the given entries after the checks of
    ``GibbsStochasticMatrix``: entries in [0, 1] within ``STOCHASTIC_TOL``
    (then clipped into it), columns summing to 1 and the Gibbs populations
    at ``(omega, beta)`` a fixed point, both within ``STOCHASTIC_TOL``.
    A NaN entry fails the column sums."""
    entries = (m00, m01, m10, m11)
    lo, hi = min(entries), max(entries)
    if lo < -STOCHASTIC_TOL or hi > 1.0 + STOCHASTIC_TOL:
        raise InvalidParameterError("matrix entries must lie in [0, 1]")
    if lo < 0.0 or hi > 1.0:
        m00, m01, m10, m11 = (min(max(x, 0.0), 1.0) for x in entries)
    cols = (m00 + m10, m01 + m11)
    if not (abs(cols[0] - 1.0) <= STOCHASTIC_TOL and abs(cols[1] - 1.0) <= STOCHASTIC_TOL):
        raise InvalidParameterError(f"columns must sum to 1 within {STOCHASTIC_TOL}, got {cols}")
    q = _boltzmann_factor(omega, beta)
    g_g, g_e = 1.0 / (1.0 + q), q / (1.0 + q)
    residual = max(abs(m00 * g_g + m01 * g_e - g_g), abs(m10 * g_g + m11 * g_e - g_e))
    if residual > STOCHASTIC_TOL:
        raise InvalidParameterError(
            f"Gibbs populations are not a fixed point (residual {residual:.3e})"
        )
    m = np.array([[m00, m01], [m10, m11]])
    m.setflags(write=False)
    return m


def build_map(params: ThermalOpParams) -> GibbsStochasticMatrix:
    """Population map of the thermal operation with the given parameters.

    The entries of ``(1 - lam) * I + lam * [[1 - q, 1], [q, 0]]`` are formed
    as floats in that operation order (``(1 - lam) * 1 == 1 - lam`` and
    ``(1 - lam) * 0 == 0`` exactly, since ``0 <= 1 - lam``), so they are
    bitwise the entries of the numpy expression, signed zeros included.
    They are checked once, by the same code as a user's matrix.
    """
    return _build_map(params.omega, params.beta, params.lam)


def _build_map(omega: float, beta: float, lam: float) -> GibbsStochasticMatrix:
    """``build_map`` on values its caller has checked as ``ThermalOpParams``
    would."""
    q = math.exp(-beta * omega)
    keep = 1.0 - lam
    m = _gibbs_stochastic_array(
        keep + lam * (1.0 - q), 0.0 + lam, 0.0 + lam * q, keep + lam * 0.0, omega, beta
    )
    return GibbsStochasticMatrix._trusted(m, omega, beta)


def eto(omega: float, beta: float) -> GibbsStochasticMatrix:
    """Extremal thermal operation: the ``lam = 1`` member of the family."""
    return build_map(ThermalOpParams(omega, beta, 1.0))


def apply_map(m: GibbsStochasticMatrix, p: PopulationVector) -> PopulationVector:
    """Propagate populations through one thermal operation."""
    return PopulationVector.from_raw(m.m @ p.as_array())


def is_markovian(params: ThermalOpParams) -> bool:
    """Whether the operation is realizable by (time-dependent) Lindblad
    dynamics with the Gibbs state stationary."""
    return params.lam <= full_thermalization_lambda(params.omega, params.beta)


def stationary_population(m: np.ndarray) -> PopulationVector:
    """Unique fixed point of a 2x2 column-stochastic matrix.

    Computed in closed form from the off-diagonal entries,
    ``p_e = m[e,g] / (m[e,g] + m[g,e])``.  Raises ``InvalidParameterError``
    for a non-finite entry or a column sum off 1 by more than
    ``STOCHASTIC_TOL``, and ``DegenerateCycleError`` when the matrix is
    numerically the identity and the fixed point is not unique.
    """
    (stay_g, down), (up, stay_e) = np.asarray(m, dtype=float).tolist()
    cols = (stay_g + up, down + stay_e)  # NaN and inf fail the test below
    if not (abs(cols[0] - 1.0) <= STOCHASTIC_TOL and abs(cols[1] - 1.0) <= STOCHASTIC_TOL):
        raise InvalidParameterError(f"columns must sum to 1 within {STOCHASTIC_TOL}, got {cols}")
    if (
        abs(stay_g - 1.0) < DEGENERACY_TOL
        and abs(down) < DEGENERACY_TOL
        and abs(up) < DEGENERACY_TOL
        and abs(stay_e - 1.0) < DEGENERACY_TOL
    ):
        raise DegenerateCycleError(
            "cycle map is the identity within tolerance; fixed point not unique"
        )
    return PopulationVector.from_raw([down / (up + down), up / (up + down)])


@dataclass(frozen=True)
class WorkStroke:
    """Unitary work stroke: the gap changes from ``omega_in`` to
    ``omega_out`` at frozen populations, keeping the levels (a quench) or
    swapping them (``flip``)."""

    omega_in: float
    omega_out: float
    flip: bool = False

    @property
    def released(self) -> tuple[float, float]:
        """Work released by each source level ``j``: ``E_in[j] - E_out[i]``
        for the level ``i`` it ends on, with level energies ``(0, omega)``."""
        if self.flip:
            return -self.omega_out, self.omega_in
        return 0.0, self.omega_in - self.omega_out

    def apply(self, p: PopulationVector) -> PopulationVector:
        return PopulationVector(p.p_e, p.p_g) if self.flip else p


@dataclass(frozen=True, eq=False)
class Cycle:
    """Engine cycle: heat strokes (Gibbs-stochastic maps) and work strokes
    in order, starting with a heat stroke at point 1, plus the work quantum
    that every work-stroke transition releases a multiple of."""

    strokes: tuple
    quantum: float

    def matrix(self, chi: float = 0.0) -> np.ndarray:
        """Cycle map ``S_k @ ... @ S_1`` with every work-stroke transition
        weighted by ``exp(chi * released work)``; column-stochastic at
        ``chi = 0``.  Work strokes are row scalings and permutations, so
        the only dense products are those between heat strokes."""
        m = None
        for stroke in self.strokes:
            if isinstance(stroke, WorkStroke):
                for j, w in enumerate(stroke.released):
                    if chi and w:
                        m[j] *= np.exp(chi * w)
                if stroke.flip:
                    m = m[::-1]
            elif m is None:
                m = stroke.m.copy()  # owned, so work strokes scale it in place
            else:
                m = stroke.m @ m
        return m

    def steady_state(self) -> PopulationVector:
        """Cyclostationary populations at point 1."""
        return stationary_population(self.matrix())

    def run(self) -> tuple[list[PopulationVector], float, list[float]]:
        """One steady cycle: the populations entering each stroke, the work
        released and the heat absorbed in each heat stroke.

        Points after the last heat stroke are reached backwards from point 1,
        so the cycle closes exactly.  A work stroke entered with excited
        population ``p_e`` releases ``k_g + (k_e - k_g) * p_e`` quanta.
        """
        strokes, n = self.strokes, len(self.strokes)
        last = max(i for i, s in enumerate(strokes) if not isinstance(s, WorkStroke))
        points = [self.steady_state()] * n  # overwritten from point 2 on
        for i in range(1, last + 1):
            prev, p = strokes[i - 1], points[i - 1]
            points[i] = prev.apply(p) if isinstance(prev, WorkStroke) else apply_map(prev, p)
        for i in range(n - 1, last, -1):
            points[i] = strokes[i].apply(points[(i + 1) % n])
        quanta, heats = 0.0, []
        for i, stroke in enumerate(strokes):
            p_in, p_out = points[i], points[(i + 1) % n]
            if isinstance(stroke, WorkStroke):
                k_g, k_e = (w / self.quantum for w in stroke.released)
                quanta += k_g + (k_e - k_g) * p_in.p_e
            else:
                heats.append(stroke.omega * (p_out.p_e - p_in.p_e))
        return points, self.quantum * quanta, heats


def eto_vs_thermalization_scan(
    omega_over_T1: float, t2_over_t1_grid: Sequence[float]
) -> np.ndarray:
    """Excited-state population after one ETO vs. after full thermalization.

    The qubit starts in the thermal state at temperature T1 and a single
    operation at temperature T2 is applied, for each T2 in the grid.
    Returns an array with rows (T2/T1, p_e after ETO, p_e after
    thermalization); T1 = 1 sets the unit.
    """
    if omega_over_T1 <= 0.0:
        raise InvalidParameterError("omega_over_T1 must be > 0")
    grid = np.asarray(list(t2_over_t1_grid), dtype=float)
    if grid.size == 0 or grid.min() <= 0.0:
        raise InvalidParameterError("temperature grid entries must be > 0")
    initial = thermal_population(omega_over_T1, 1.0)
    rows = np.empty((grid.size, 3))
    for i, t2 in enumerate(grid):
        beta2 = 1.0 / t2
        after_eto = apply_map(eto(omega_over_T1, beta2), initial)
        rows[i] = (t2, after_eto.p_e, thermal_population(omega_over_T1, beta2).p_e)
    return rows
