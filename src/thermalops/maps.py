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
the levels at frozen populations while the gap changes.  ``Cycle`` admits
(heat, quench down, heat, quench back) for the Otto engine and (heat,
flip, heat) at one gap for the three-stroke engine, checks when it is
built that the work strokes link the heat maps' gaps, and stores their
checked floats (``Cycle._floats``), all that a config's ``cycle()``
stores; ``Cycle.strokes`` builds the strokes from them when first read.
Everything follows from the floats: the cycle map, its steady state, the
steady cycle (``Cycle.run``: points, work and heats), the work quantum and
the closed-form work (``Cycle.work``) in each heat map's gap, coupling and
``beta_omega``, the exponent of its Boltzmann factor.  Engines form
``beta_omega`` as ``omega / T``, which rounds once and stays finite at a
subnormal ``T``, where ``1 / T`` overflows.

Every value is checked once, where it enters, and 2x2 work is done on
Python floats.  ``ThermalOpParams``, the engine configs and
``PopulationVector.from_raw`` accept float fields in one comparison chain;
other input, and every failure, goes on to the named checks, which build
the message (``require_descending``, ``require_unit_interval``,
``EngineConfig._checked``; the clamp of ``from_raw``).  A value that is
not a ``numbers.Real``, such as a string, None, a numpy complex number or
an array, raises ``InvalidParameterError`` there, as does a scalar or grid
entry that would next be compared with a float (``_require_real``,
``_real_grid``), and so does a record of another type (``_require_type``).
A map is its checked row-major floats ``entries``, its only representation.
A ``GibbsStochasticMatrix`` built from a user's matrix, any 2x2 nested
sequence of reals (``_entries_2x2``), and a map from ``build_map`` pass the
same float checks of their four entries (``_gibbs_stochastic_entries``);
``build_map`` and an engine's ``cycle()`` then wrap what they built without
checking it again (``_unchecked``).  The cycle product, tilted or not
(``_cycle_map``, the one composition of the heat maps), its fixed point,
the steady cycle (``_steady_cycle``, behind ``Cycle.run`` and the
reports) and ``apply_map`` compute on those floats (``_compose``,
``_fixed_point``), which round alike on every platform, where a numpy
2x2 product may use an FMA.

Value types are named tuples: ``PopulationVector``, ``ThermalOpParams``,
``WorkStroke`` and ``CycleReport`` (of both engines) here, and the configs
and records of the other modules.  They compare and hash by value, compare
equal to a plain tuple of their fields and unpack like one.  A checked one
runs its checks in ``__new__``, so ``_replace``, copying and unpickling
check too.  ``GibbsStochasticMatrix`` and ``Cycle`` (and
``microscopic.InducedMap``) compare by identity.  All types are immutable
after construction (assigning a field raises ``AttributeError``) and all
operations are pure functions; a ``Cycle`` keeps what its first calls
return, checking each call's arguments anew.  All is safe for concurrent
read-only use.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .errors import (
    ConsistencyError,
    CountingOverflowError,
    DegenerateCycleError,
    InvalidParameterError,
)

# Probability drift below RENORM is accepted as-is, between RENORM and FAIL
# it is clamped and renormalized, above FAIL it is treated as a logic bug.
DRIFT_RENORM = 1e-12
DRIFT_FAIL = 1e-9

STOCHASTIC_TOL = 1e-12


class _Checked:
    """Mixin of a named tuple whose ``__new__`` checks the fields: ``_make``,
    and so ``_replace``, builds through ``__new__`` too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _Frozen:
    """Base of the types that compare by identity.  A subclass's ``__init__``
    stores the fields named in ``_FIELDS`` in ``__dict__``; assigning or
    deleting an attribute raises ``AttributeError``."""

    _FIELDS: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__name__}({fields})"


class PopulationVector(_Checked, namedtuple("PopulationVector", "p_g p_e")):
    """Ground/excited occupation probabilities of the qubit."""

    __slots__ = ()

    def __new__(cls, p_g: float, p_e: float):
        if not (type(p_g) is float is type(p_e) and 0.0 <= p_g <= 1.0 and 0.0 <= p_e <= 1.0):
            if not (isinstance(p_g, numbers.Real) and isinstance(p_e, numbers.Real)):
                raise InvalidParameterError(f"populations must be real, got {(p_g, p_e)}")
            in_range = 0.0 <= p_g <= 1.0 and 0.0 <= p_e <= 1.0  # NaN fails
            if not in_range or isinstance(p_g, bool) or isinstance(p_e, bool):
                shown = f"({_shown(p_g, str)}, {_shown(p_e, str)})"
                raise InvalidParameterError(f"populations must lie in [0, 1], got {shown}")
        if abs(p_g + p_e - 1.0) > DRIFT_RENORM:
            raise InvalidParameterError(
                f"populations must sum to 1 within {DRIFT_RENORM}, got sum {p_g + p_e}"
            )
        return tuple.__new__(cls, (p_g, p_e))

    @classmethod
    def from_raw(cls, values: Iterable[float]) -> "PopulationVector":
        """Build from possibly drifted raw values.

        A tuple of two floats in [0, 1] whose drift is at most
        ``DRIFT_RENORM`` is returned after that one test.  Other values
        outside [0, 1] are clamped into it.  Drift up to ``DRIFT_RENORM`` is
        accepted after that, drift up to ``DRIFT_FAIL`` is also
        renormalized, anything larger raises ``ConsistencyError`` since it
        indicates a logic bug rather than rounding.  Anything but two real
        values raises ``InvalidParameterError``.

        Renormalizing cannot divide by zero.  It runs only when the drift is
        at most ``DRIFT_FAIL``, so ``p_g + p_e >= 1 - DRIFT_FAIL``, and
        clamping moves each value by at most the overshoot, itself at most
        ``DRIFT_FAIL``; the total is then at least ``1 - 3 DRIFT_FAIL > 0``.
        ``max`` drops a NaN from the drift, and the constructor rejects it.
        """
        if type(values) is tuple and len(values) == 2:  # what the cycle code passes
            p_g, p_e = values
            if (
                type(p_g) is float is type(p_e)
                and 0.0 <= p_g <= 1.0
                and 0.0 <= p_e <= 1.0
                and abs(p_g + p_e - 1.0) <= DRIFT_RENORM
            ):
                return tuple.__new__(cls, values)
        try:
            p_g, p_e = map(_real, values)
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(f"expected two real populations: {exc}") from None
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
            p_g, p_e = p_g / total, p_e / total
        return cls(p_g, p_e)


class ThermalOpParams(_Checked, namedtuple("ThermalOpParams", "omega beta lam")):
    """(gap, inverse temperature, interaction strength) of one operation."""

    __slots__ = ()

    def __new__(cls, omega: float, beta: float, lam: float):
        if not (
            type(omega) is float is type(beta) is type(lam)
            and omega > 0.0
            and beta > 0.0
            and 0.0 <= lam <= 1.0
        ):  # other types, and every failure, go through the named checks
            require_descending(omega=omega)
            require_descending(beta=beta)
            require_unit_interval(lam=lam)
        return tuple.__new__(cls, (omega, beta, lam))


class GibbsStochasticMatrix(_Frozen):
    """2x2 column-stochastic matrix with the Gibbs populations as fixed point.

    Entry ``m[i][j]`` is the transition probability from source level ``j``
    to target level ``i``, ordering (ground, excited), and the Boltzmann
    factor is ``q = exp(-beta_omega)``.  ``entries`` holds the checked
    entries ``(m[0][0], m[0][1], m[1][0], m[1][1])`` as floats; ``m[0][1]``
    is the coupling ``lam``.
    """

    _FIELDS = ("entries", "omega", "beta_omega")

    def __init__(self, m: Sequence[Sequence[float]], omega: float, beta_omega: float):
        _require_real(omega=omega, beta_omega=beta_omega)
        if not (omega > 0.0 and beta_omega >= 0.0):  # NaN fails too
            raise InvalidParameterError(
                f"need omega > 0 and beta_omega >= 0, got {omega}, {beta_omega}"
            )
        entries = _gibbs_stochastic_entries(*_entries_2x2(m), math.exp(-beta_omega))
        self.__dict__.update(entries=entries, omega=omega, beta_omega=beta_omega)


def _unchecked(cls, fields: dict):
    """The ``_Frozen`` type ``cls`` holding ``fields`` that passed its checks."""
    self = object.__new__(cls)
    self.__dict__.update(fields)
    return self


def require_descending(**values: float) -> None:
    """Require ``v1 > v2 > ... > 0`` in keyword order (one value: ``v > 0``).
    NaN fails the comparisons and bools are rejected, not read as 0 or 1; so
    is a value that is not a ``numbers.Real``: a string, None, a complex
    number (numpy's compare with floats) or an array (of one value too), and
    a real that no float holds (``10**400``)."""
    vals = tuple(values.values())
    try:  # a float compared with a later, non-real value may raise
        valid = all(
            (type(a) is float or _is_real(a)) and a > b for a, b in zip(vals, vals[1:] + (0.0,))
        )
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise InvalidParameterError(f"need {' > '.join(values)} > 0, got {_shown(vals)}")


def require_unit_interval(**values: float) -> None:
    """Require every value to lie in [0, 1]; NaN and bools fail, and a value
    that is not a ``numbers.Real`` (a numpy complex number or an array too)
    is not real."""
    for name, v in values.items():
        if type(v) is not float and not isinstance(v, numbers.Real):
            raise InvalidParameterError(f"{name} must be real, got {v!r}")
        if isinstance(v, bool) or not 0.0 <= v <= 1.0:
            raise InvalidParameterError(f"{name} must lie in [0, 1], got {_shown(v, str)}")


def _is_real(v) -> bool:
    """Whether ``v`` is a ``numbers.Real``, not a bool, that a float holds:
    ``float(10**400)`` raises ``OverflowError``."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


def _require_real(**values) -> None:
    """Raise ``InvalidParameterError`` for a value that is not ``_is_real``,
    which comparing it with a float would let raise a bare ``TypeError``,
    read as 0 or 1, or let overflow on the next product."""
    for name, v in values.items():
        if type(v) is not float and not _is_real(v):
            raise InvalidParameterError(f"{name} must be real, got {_shown(v)}")


def _require_type(value, kind: type) -> None:
    """``InvalidParameterError`` unless ``value`` is a ``kind``, not say None or a plain tuple."""
    if not isinstance(value, kind):
        raise InvalidParameterError(f"expected {kind.__name__}, got {type(value).__name__}")


def _shown(v, show=repr) -> str:
    """``show(v)``, where an int with more digits than Python will print
    (``sys.get_int_max_str_digits``), also in a tuple, shows as ``<int of N
    bits>``, so that the message of a rejected value can be formatted."""
    try:
        return show(v)
    except ValueError:
        if type(v) is tuple:
            return f"({', '.join(map(_shown, v))}{',' * (len(v) == 1)})"
        if isinstance(v, int):
            return f"<int of {v.bit_length()} bits>"
        return f"<{type(v).__name__} too long to print>"


def _real_grid(values, name: str) -> list[float]:
    """A grid's entries as floats, each checked by ``_require_real``; a grid
    that is not iterable raises ``InvalidParameterError`` too."""
    try:
        grid = list(values)
    except TypeError:
        message = f"{name} must be iterable, got {type(values).__name__}"
        raise InvalidParameterError(message) from None
    if not all(type(x) is float for x in grid):
        for x in grid:
            _require_real(**{f"{name} entry": x})
        grid = [float(x) for x in grid]
    return grid


def _real(x) -> float:
    """``float(x)`` of a ``numbers.Real``; a string, bytes or complex ``x`` raises
    ``TypeError``, and a real that no float holds (``10**400``) ``ValueError``."""
    if type(x) is not float and not isinstance(x, numbers.Real):
        raise TypeError(f"{x!r} is not real")
    try:
        return float(x)
    except OverflowError as exc:
        raise ValueError(exc) from None


def require_count(n, minimum: int, name: str) -> int:
    """Require an integer ``n >= minimum``: an ``int`` or another
    ``numbers.Integral``, such as a numpy integer, but not a bool.  A plain
    ``int`` skips the ABC check, which costs ten times as much."""
    integral = type(n) is int or not isinstance(n, bool) and isinstance(n, numbers.Integral)
    if not integral or n < minimum:
        raise InvalidParameterError(f"{name} must be an integer >= {minimum}, got {_shown(n)}")
    return int(n)


def _boltzmann_factor(omega: float, beta: float) -> float:
    """``exp(-beta * omega)``, for ``_require_real`` ``omega, beta > 0``."""
    if not (type(omega) is float is type(beta) and omega > 0.0 and beta > 0.0):
        _require_real(omega=omega, beta=beta)
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


def _gibbs_stochastic_entries(
    m00: float, m01: float, m10: float, m11: float, q: float
) -> tuple[float, float, float, float]:
    """The given entries after the checks of ``GibbsStochasticMatrix``:
    entries in [0, 1] within ``STOCHASTIC_TOL`` (then clipped into it),
    columns summing to 1 and the Gibbs populations of the Boltzmann factor
    ``q`` a fixed point, both within ``STOCHASTIC_TOL``.  A NaN entry fails
    the column sums; past them the entries are finite, so the residuals are
    both finite or both NaN, and testing each tests their ``max``."""
    entries = (m00, m01, m10, m11)
    if not (0.0 <= m00 <= 1.0 and 0.0 <= m01 <= 1.0 and 0.0 <= m10 <= 1.0 and 0.0 <= m11 <= 1.0):
        lo, hi = min(entries), max(entries)
        if lo < -STOCHASTIC_TOL or hi > 1.0 + STOCHASTIC_TOL:
            raise InvalidParameterError("matrix entries must lie in [0, 1]")
        if lo < 0.0 or hi > 1.0:
            entries = tuple(min(max(x, 0.0), 1.0) for x in entries)
            m00, m01, m10, m11 = entries
    col_g, col_e = m00 + m10, m01 + m11
    if not (abs(col_g - 1.0) <= STOCHASTIC_TOL and abs(col_e - 1.0) <= STOCHASTIC_TOL):
        raise InvalidParameterError(
            f"columns must sum to 1 within {STOCHASTIC_TOL}, got {(col_g, col_e)}"
        )
    g_g, g_e = 1.0 / (1.0 + q), q / (1.0 + q)
    res_g, res_e = abs(m00 * g_g + m01 * g_e - g_g), abs(m10 * g_g + m11 * g_e - g_e)
    if res_g > STOCHASTIC_TOL or res_e > STOCHASTIC_TOL:
        raise InvalidParameterError(
            f"Gibbs populations are not a fixed point (residual {max(res_g, res_e):.3e})"
        )
    return entries


def build_map(params: ThermalOpParams) -> GibbsStochasticMatrix:
    """Population map of the thermal operation with the given parameters.

    The entries of ``(1 - lam) * I + lam * [[1 - q, 1], [q, 0]]`` are formed
    as floats in that operation order (``(1 - lam) * 1 == 1 - lam`` and
    ``(1 - lam) * 0 == 0`` exactly, since ``0 <= 1 - lam``), so they are
    bitwise the entries of the numpy expression, signed zeros included.
    They are checked once, by the same code as a user's matrix.
    """
    if type(params) is not ThermalOpParams:  # skips a call per map on the usual type
        _require_type(params, ThermalOpParams)
    beta_omega = params.beta * params.omega
    return _heat_map(_map_entries(beta_omega, params.lam), params.omega, beta_omega)


def _heat_map(entries: tuple, omega: float, beta_omega: float) -> GibbsStochasticMatrix:
    """The map of ``_map_entries``' entries, gap and ``beta_omega``, unchecked."""
    fields = {"entries": entries, "omega": omega, "beta_omega": beta_omega}
    return _unchecked(GibbsStochasticMatrix, fields)


def _map_entries(beta_omega: float, lam: float) -> tuple[float, float, float, float]:
    """The checked entries of ``build_map``'s map, with no map around them."""
    q = math.exp(-beta_omega)
    keep = 1.0 - lam
    return _gibbs_stochastic_entries(
        keep + lam * (1.0 - q), 0.0 + lam, 0.0 + lam * q, keep + lam * 0.0, q
    )


def eto(omega: float, beta: float) -> GibbsStochasticMatrix:
    """Extremal thermal operation: the ``lam = 1`` member of the family."""
    return build_map(ThermalOpParams(omega, beta, 1.0))


def apply_map(m: GibbsStochasticMatrix, p: PopulationVector) -> PopulationVector:
    """Propagate populations through one thermal operation."""
    _require_type(m, GibbsStochasticMatrix)
    _require_type(p, PopulationVector)
    stay_g, down, up, stay_e = m.entries
    return PopulationVector.from_raw((stay_g * p.p_g + down * p.p_e, up * p.p_g + stay_e * p.p_e))


def is_markovian(params: ThermalOpParams) -> bool:
    """Whether the operation is realizable by (time-dependent) Lindblad
    dynamics with the Gibbs state stationary."""
    _require_type(params, ThermalOpParams)
    return params.lam <= full_thermalization_lambda(params.omega, params.beta)


def stationary_population(m: Sequence[Sequence[float]]) -> PopulationVector:
    """Unique fixed point of a 2x2 column-stochastic matrix.

    Computed in closed form from the off-diagonal entries,
    ``p_e = m[e,g] / (m[e,g] + m[g,e])``.  Raises ``InvalidParameterError``
    for anything but a real 2x2 matrix, a non-finite entry, an entry outside
    [0, 1] or a column sum off 1 by more than ``STOCHASTIC_TOL``, and
    ``DegenerateCycleError`` when both off-diagonal entries are 0 and the
    fixed point is not unique.
    """
    entries = _entries_2x2(m)
    if any(x < -STOCHASTIC_TOL or x > 1.0 + STOCHASTIC_TOL for x in entries):
        raise InvalidParameterError(f"matrix entries must lie in [0, 1], got {entries}")
    return PopulationVector.from_raw(_fixed_point(*entries))


def _entries_2x2(m) -> list[float]:
    """Row-major entries of a 2x2 nested sequence of reals: lists, tuples or
    a numpy array of a real dtype, whose ``tolist`` gives Python numbers.
    Anything else (ragged, another shape, an entry that is complex, None, a
    string or bytes) raises ``InvalidParameterError``."""
    try:
        rows = tuple(m.tolist() if hasattr(m, "tolist") else m)
        if any(isinstance(row, (bytes, bytearray)) for row in rows):  # they unpack to ints
            raise TypeError(f"{rows!r} has a row of bytes")
        (m00, m01), (m10, m11) = rows
        return [_real(m00), _real(m01), _real(m10), _real(m11)]
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"expected a real 2x2 matrix: {exc}") from None


def _fixed_point(stay_g: float, down: float, up: float, stay_e: float) -> tuple[float, float]:
    """``stationary_population`` of the row-major entries, as ``(p_g, p_e)``."""
    cols = (stay_g + up, down + stay_e)  # NaN and inf fail the test below
    if not (abs(cols[0] - 1.0) <= STOCHASTIC_TOL and abs(cols[1] - 1.0) <= STOCHASTIC_TOL):
        raise InvalidParameterError(f"columns must sum to 1 within {STOCHASTIC_TOL}, got {cols}")
    rate = up + down
    if rate == 0.0:
        raise DegenerateCycleError("cycle map is the identity; fixed point not unique")
    return down / rate, up / rate


def _compose(left: tuple, right: tuple) -> tuple[float, float, float, float]:
    """The 2x2 product ``left @ right`` of row-major entry tuples."""
    a, b, c, d = left
    e, f, g, h = right
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


class WorkStroke(namedtuple("WorkStroke", "omega_in omega_out flip", defaults=(False,))):
    """Unitary work stroke: the gap changes from ``omega_in`` to
    ``omega_out`` at frozen populations, keeping the levels (a quench) or
    swapping them (``flip``)."""

    __slots__ = ()

    @property
    def released(self) -> tuple[float, float]:
        """Work released by each source level ``j``: ``E_in[j] - E_out[i]``
        for the level ``i`` it ends on, with level energies ``(0, omega)``."""
        if self.flip:
            return -self.omega_out, self.omega_in
        return 0.0, self.omega_in - self.omega_out

    def apply(self, p: PopulationVector) -> PopulationVector:
        # a checked vector with its levels swapped needs no second check
        return tuple.__new__(PopulationVector, (p.p_e, p.p_g)) if self.flip else p


_SHAPES = (
    (GibbsStochasticMatrix, WorkStroke, GibbsStochasticMatrix),
    (GibbsStochasticMatrix, WorkStroke, GibbsStochasticMatrix, WorkStroke),
)


class Cycle(_Frozen):
    """Engine cycle: the strokes from point 1, stored as the checked floats
    ``_floats`` (``EngineConfig._cycle_floats``) that the methods read.  A tuple
    other than (hot, quench to the smaller cold gap, cold, quench back) or (hot,
    flip, cold) at one gap raises ``InvalidParameterError`` here.  It keeps
    ``work()`` and the untilted map, fixed point and cell sums behind
    ``fcs._spectral_terms`` once a call returns them; each call checks anew."""

    _FIELDS = ("strokes",)

    def __init__(self, strokes: tuple):
        if not isinstance(strokes, tuple) or tuple(map(type, strokes)) not in _SHAPES:
            raise InvalidParameterError("a cycle is (heat, work, heat) or (heat, work, heat, work)")
        hot, first, cold, *last = strokes
        w_H, w_C = hot.omega, cold.omega
        if last:
            linked = w_H > w_C and (first, last[0]) == (WorkStroke(w_H, w_C), WorkStroke(w_C, w_H))
        else:
            linked = w_H == w_C and first == WorkStroke(w_H, w_C, flip=True)
        if not linked:
            raise InvalidParameterError(
                "work strokes must quench omega_H > omega_C and back, or flip at one gap"
            )
        floats = hot.entries, cold.entries, w_H, w_C, hot.beta_omega, cold.beta_omega, first.flip
        self.__dict__.update(strokes=strokes, _floats=floats)

    @property
    def strokes(self) -> tuple:
        """The tuple passed in, or one built from ``_floats`` when first read and kept."""
        if "strokes" not in self.__dict__:
            hot, cold, w_H, w_C, a, b, flip = self._floats
            strokes = (_heat_map(hot, w_H, a), WorkStroke(w_H, w_C, flip), _heat_map(cold, w_C, b))
            self.__dict__["strokes"] = strokes if flip else (*strokes, WorkStroke(w_C, w_H))
        return self.__dict__["strokes"]

    @property
    def quantum(self) -> float:
        """``omega_H - omega_C`` or ``omega``, the work the first work stroke
        releases from e; every work-stroke transition releases a multiple."""
        _, _, w_H, w_C, _, _, flip = self._floats
        return w_H if flip else w_H - w_C

    def work(self) -> float:
        """Steady work per cycle: the engine's closed form in each heat map's
        gap, exponent ``beta_omega`` and coupling ``m[0, 1]`` (``_cycle_work``)."""
        if "_work" not in self.__dict__:
            self.__dict__["_work"] = _cycle_work(*self._floats)
        return self.__dict__["_work"]

    def tilted(self, chi: float) -> tuple[float, float, float, float]:
        """Cycle map ``S_k @ ... @ S_1`` as row-major floats, with every
        work-stroke transition weighted by ``exp(chi * released work)``.
        Raises ``InvalidParameterError`` for a ``chi`` that is not a finite
        real and ``CountingOverflowError`` when a weight overflows."""
        _require_real(chi=chi)
        if not math.isfinite(chi):
            raise InvalidParameterError(f"counting field must be finite, got {chi}")
        try:
            return _cycle_map(self._floats, chi)
        except OverflowError:
            raise CountingOverflowError(f"exp(chi * work) overflows at chi = {chi}") from None

    def steady_state(self) -> PopulationVector:
        """Cyclostationary populations at point 1: the fixed point of ``_cycle_map``."""
        return PopulationVector.from_raw(_fixed_point(*_cycle_map(self._floats)))

    def run(self) -> tuple:
        """One steady cycle ``(p1, p2, p3, W, Q_H, Q_C)`` (``_steady_cycle``): the
        populations entering the hot, first work and cold strokes, ``work()`` and
        the heats absorbed; the cold stroke ends at p1, which the quench back keeps."""
        return _steady_cycle(self._floats)


def _cycle_map(cycle: tuple, chi: float = 0.0) -> tuple[float, float, float, float]:
    """``Cycle.tilted(chi)`` of a cycle's ``_floats``, unchecked, the one product of its
    heat maps: a work stroke scales the rows of the map before it by ``exp(chi *
    released work)`` and permutes them if it flips.  A quench releases nothing from g."""
    hot, cold, w_H, w_C, _, _, flip = cycle
    a, b, c, d = hot
    if not chi:
        return _compose(cold, (c, d, a, b) if flip else hot)
    if flip:
        s_g, s_e = math.exp(chi * -w_C), math.exp(chi * w_H)
        return _compose(cold, (c * s_e, d * s_e, a * s_g, b * s_g))
    s = math.exp(chi * (w_H - w_C))
    m00, m01, m10, m11 = _compose(cold, (a, b, c * s, d * s))
    s = math.exp(chi * (w_C - w_H))  # the quench back
    return m00, m01, m10 * s, m11 * s


def _steady_cycle(cycle: tuple) -> tuple:
    """``Cycle.run`` of a cycle's ``_floats``, in the operations of the stroke
    walk; ``flip``: three strokes."""
    (stay_g, down, up, stay_e), cold, w_H, w_C, a, b, flip = cycle
    p_g, p_e = p1 = PopulationVector.from_raw(_fixed_point(*_cycle_map(cycle)))
    p2 = PopulationVector.from_raw((stay_g * p_g + down * p_e, up * p_g + stay_e * p_e))
    p3 = tuple.__new__(PopulationVector, (p2.p_e, p2.p_g)) if flip else p2
    Q_H, Q_C = w_H * (p2.p_e - p_e), w_C * (p_e - p3.p_e)
    if flip:  # _cycle_work written out, a call less per report
        return p1, p2, p3, _three_stroke_work(w_H, a, b, down, cold[1]), Q_H, Q_C
    return p1, p2, p3, _otto_work(w_H, w_C, a, b, down, cold[1]), Q_H, Q_C


def _cycle_work(hot: tuple, cold: tuple, w_H, w_C, a, b, flip: bool) -> float:
    """``Cycle.work`` of a cycle's ``_floats``, with the couplings ``m[0][1]``."""
    if flip:
        return _three_stroke_work(w_H, a, b, hot[1], cold[1])
    return _otto_work(w_H, w_C, a, b, hot[1], cold[1])


class CycleReport(namedtuple("CycleReport", "p1 p2 p3 W Q_H Q_C eta")):
    """A steady cycle of either engine: ``Cycle.run`` and the efficiency."""

    __slots__ = ()


def _otto_work(w_H: float, w_C: float, a: float, b: float, l_H: float, l_C: float) -> float:
    """``otto.otto_work`` at gaps ``w_H``, ``w_C`` on checked values, with the
    exponents ``a = w_H / T_H`` and ``b = w_C / T_C``."""
    q_H, q_C = math.exp(-a), math.exp(-b)
    r_H = (1.0 - l_H) - l_H * math.expm1(-a)
    r_C = (1.0 - l_C) - l_C * math.expm1(-b)
    rate = l_C * q_C * r_H + (1.0 - l_C) * l_H * q_H + r_C * l_H + l_C * (1.0 - l_H)  # up + down
    if rate == 0.0:
        raise DegenerateCycleError("cycle map is the identity; fixed point not unique")
    # q_H - q_C as a multiple of the larger q; when that q underflows to 0,
    # a - b may be inf - inf, but the difference is 0.  At a == b (the
    # Carnot point) 0.0 - makes it +0.0, where -q_H * 0.0 would be -0.0.
    if a <= b:
        dq = 0.0 - q_H * math.expm1(a - b) if q_H else 0.0
    else:
        dq = q_C * math.expm1(b - a) if q_C else 0.0
    return (w_H - w_C) * l_H * (l_C * dq / rate)


def _three_stroke_work(omega: float, a: float, b: float, l_H: float, l_C: float) -> float:
    """Three-stroke work on checked values, any couplings, ``a = omega / T_H``,
    ``b = omega / T_C``: heat maps ``x = 2 p_e - 1`` to ``mu x - r`` (``mu =
    (1 - l) - l q``, ``r = -l expm1(-a)``) and the flip to ``-x``, so ``W =
    -omega (r_H + mu_H r_C) / (1 + mu_H mu_C)``.  Only the numerator cancels."""
    r_H, r_C, q_H = -l_H * math.expm1(-a), -l_C * math.expm1(-b), math.exp(-a)
    mu_H = (1.0 - l_H) - l_H * q_H
    if mu_H >= 0.0:  # 1 + mu_H mu_C = (1 - mu_H) + mu_H (1 + mu_C)
        den = l_H * (1.0 + q_H) + mu_H * (2.0 * (1.0 - l_C) + r_C)
    else:  # (1 + mu_H) - mu_H (1 - mu_C)
        den = (2.0 * (1.0 - l_H) + r_H) - mu_H * (l_C * (1.0 + math.exp(-b)))
    if den == 0.0:
        raise DegenerateCycleError("cycle map is the identity; fixed point not unique")
    return -omega * (r_H + mu_H * r_C) / den


def eto_vs_thermalization_scan(
    omega_over_T1: float, t2_over_t1_grid: Sequence[float]
) -> list[list[float]]:
    """Excited-state population after one ETO vs. after full thermalization.

    The qubit starts in the thermal state at temperature T1 and a single
    operation at temperature T2 is applied, for each T2 in the grid.
    Returns rows (T2/T1, p_e after ETO, p_e after thermalization) as lists
    of floats; T1 = 1 sets the unit.
    """
    _require_real(omega_over_T1=omega_over_T1)
    if omega_over_T1 <= 0.0:
        raise InvalidParameterError("omega_over_T1 must be > 0")
    grid = _real_grid(t2_over_t1_grid, "temperature grid")
    if not grid or not all(t2 > 0.0 for t2 in grid):  # NaN fails too
        raise InvalidParameterError("temperature grid entries must be > 0")
    initial = thermal_population(omega_over_T1, 1.0)
    rows = []
    for t2 in grid:
        beta2 = 1.0 / t2
        after_eto = apply_map(eto(omega_over_T1, beta2), initial)
        rows.append([t2, after_eto.p_e, thermal_population(omega_over_T1, beta2).p_e])
    return rows
