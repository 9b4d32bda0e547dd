"""The library's typed boundary: a public callable given one bad argument
raises a ``ThermalOpsError``, not a bare ``TypeError``, ``OverflowError`` or
``AttributeError`` from deep inside, and does not accept it silently.

Each row is a callable, the name of one argument and the bad value put in
place of it in the callable's known-good call; the known-good call must
succeed first.  The rows are a string, None, a one-item list or an
``object()`` where a float goes, a real that no float holds (``10**400``)
where a float, a count or a grid goes, an int with more digits than Python
prints (``10**5000``), whose message must still be formatted, a temperature
so small that the three-stroke gap found rounds to 0 (``1e-323``), one so
small that a gap in its power-of-two unit overflows (``1e-320``), a config
where a cycle goes, None or the other engine's config where an engine's
config goes, a string or None where a population goes, None, a plain
tuple or a string where a map or its parameters go, and a numeric string,
None, a one-item list or an ``object()`` where a scan spec, a Fock
truncation or an induced map goes.  A string choice (a regime, an engine, a
horizon, a JC kind or a suite) is given as an array of two floats, as an
array of its known-good string, which compares item by item, and, for a
suite, as a list.  A value past the known-good call is appended:
``eto_approximation_report`` takes no list of kinds.

The probe covers the whole public surface: every callable of
``thermalops.__all__`` but the error types and the result records that
check nothing, and ``otto_config_at``, the config builder of ``optimize``
that ``bench/checks.py`` reads, has a known-good call, and each of its
arguments in turn, as each of seven junk values (a numeric string, None,
``10**400``, a one-item list, ``object()``, an ``OttoConfig`` and NaN),
must raise a ``ThermalOpsError`` or give a result that holds no inf or NaN.
"""

import cmath
import inspect
import warnings
from fractions import Fraction

import numpy as np
import pytest

import thermalops
from thermalops import (
    Cycle,
    CycleReport,
    FockTruncation,
    GibbsStochasticMatrix,
    InducedMap,
    InvalidParameterError,
    OptimumRecord,
    OttoConfig,
    PopulationVector,
    ScanSpec,
    ThermalOpsError,
    ThermalOpParams,
    ThreeStrokeConfig,
    WorkDistribution,
    WorkStatistics,
    WorkStroke,
    analytic_populations,
    apply_map,
    build_map,
    cumulant_gf,
    enumerate_work_distribution,
    eto,
    eto_approximation_report,
    eto_deviation,
    eto_vs_thermalization_scan,
    fluctuation_curve,
    full_thermalization_lambda,
    induced_population_map,
    intercycle_pcc,
    is_markovian,
    jc_evolution_map,
    jc_unitary,
    maximize_work,
    otto_cycle_report,
    otto_steady_state,
    otto_work,
    pcc_three_stroke_exact,
    scaled_cumulants,
    stationary_population,
    swap_map,
    thermal_population,
    three_stroke_report,
    three_stroke_steady_state,
    tilted_map_otto,
    tilted_map_three_stroke,
    work_at,
    work_efficiency_curve,
    work_moments,
)
from thermalops.maps import _require_real, require_descending, require_unit_interval
from thermalops.optimize import otto_config_at, three_stroke_omega_for_eta
from thermalops.verify import run_suites

HUGE = 10**400
LONG = 10**5000  # past the 4300 digits that str() and repr() of an int allow
TINY = 1e-323  # two subnormal steps: the gap found rounds to 0.0
WIDE = 1e-320  # below 2**-1063: a gap of 1 is 2**1063 of that unit, past the float range
CONFIG = OttoConfig.nonmarkov(1.0, 0.5, 1.0, 0.25)
THREE = ThreeStrokeConfig.nonmarkov(0.3, 1.0, 0.25)
CYCLE = CONFIG.cycle()
PARAMS = ThermalOpParams(1.0, 1.0, 0.5)
MAP = build_map(PARAMS)
TRUNCATION = FockTruncation(30, 1.0, 1.0)
JC = (1.0, 1.0, TRUNCATION, "intensity_dependent")
RECORD_JUNK = ("1.0", None, [1.0], object())
OTTO_TAKERS = (otto_steady_state, otto_cycle_report, otto_work, tilted_map_otto)
THREE_TAKERS = (
    three_stroke_steady_state, three_stroke_report, tilted_map_three_stroke, pcc_three_stroke_exact
)

GOOD = {
    otto_config_at: (0.3, 0.5, 1.0, 1.0, "markov"),
    work_at: (0.3, 0.5, 1.0, 1.0, "markov"),
    ScanSpec: (0.3, 0.5, 1.0, "markov", 1e-3, 20.0),
    fluctuation_curve: (0.3, 0.5, 1.0, "infinite", [1.0]),
    work_efficiency_curve: (0.5, 1.0, "markov", [0.2]),
    three_stroke_omega_for_eta: (0.3, 0.5, 1.0),
    PopulationVector.from_raw: ([0.5, 0.5],),
    PopulationVector: (0.5, 0.5),
    OttoConfig: (2.0, 1.0, 1.0, 0.5, 1.0, 1.0),
    work_moments: (CYCLE, None, 3),
    scaled_cumulants: (CYCLE,),
    intercycle_pcc: (CYCLE, None),
    cumulant_gf: (CYCLE, CYCLE.steady_state(), 3, 0.1),
    eto_approximation_report: (1.0, TRUNCATION, [0.5, 1.0]),
    maximize_work: (ScanSpec(0.3, 0.5, 1.0, "markov", 1e-3, 20.0),),
    swap_map: (TRUNCATION,),
    jc_unitary: JC,
    jc_evolution_map: JC,
    induced_population_map: (jc_unitary(*JC), TRUNCATION),
    eto_deviation: (swap_map(TRUNCATION), TRUNCATION),
    thermal_population: (1.0, 1.0),
    full_thermalization_lambda: (1.0, 1.0),
    FockTruncation: (30, 1.0, 1.0, 1e-10),
    WorkDistribution: (1, 1.0, ((1.0, 1.0),)),
    eto_vs_thermalization_scan: (1.0, [0.5, 2.0]),
    build_map: (PARAMS,),
    apply_map: (eto(1.0, 1.0), PopulationVector(0.5, 0.5)),
    is_markovian: (PARAMS,),
    eto: (1.0, 1.0),
    stationary_population: ([[0.75, 0.5], [0.25, 0.5]],),
    ThermalOpParams: (1.0, 1.0, 0.5),
    GibbsStochasticMatrix: ([MAP.entries[:2], MAP.entries[2:]], MAP.omega, MAP.beta_omega),
    InducedMap: ([[1.0, 0.0], [0.0, 1.0]],),
    Cycle: (CYCLE.strokes,),
    ThreeStrokeConfig: (0.3, 1.0, 0.25, 1.0, 1.0),
    enumerate_work_distribution: (CONFIG, 3),
    **{fn: (CONFIG,) for fn in OTTO_TAKERS},
    analytic_populations: (CONFIG, "nonmarkov"),
    **{fn: (THREE,) for fn in THREE_TAKERS},
    run_suites: ("microscopic-eto",),
}
CHOICES = (
    (work_at, "regime"),
    (ScanSpec, "regime"),
    (otto_config_at, "regime"),
    (analytic_populations, "regime"),
    (work_efficiency_curve, "engine"),
    (fluctuation_curve, "horizon"),
    (jc_evolution_map, "kind"),
    (jc_unitary, "kind"),
    (run_suites, "name"),
)


def _good(fn, name: str):
    """The value of the argument ``name`` in ``fn``'s known-good call."""
    return GOOD[fn][list(inspect.signature(fn).parameters).index(name)]


ROWS = [
    *[
        (otto_config_at, name, value)
        for name in ("eta", "eta_C", "T_H", "omega_H")
        for value in ("0.3", None, HUGE)
    ],
    (work_at, "T_H", HUGE),
    (work_at, "omega_H", HUGE),
    (ScanSpec, "T_H", HUGE),
    (ScanSpec, "omega_hi", HUGE),
    *[(ScanSpec, "omega_hi", value) for value in ("20", None, [20.0], object())],
    (fluctuation_curve, "T_H", HUGE),
    (fluctuation_curve, "omega_H_grid", [HUGE]),
    (fluctuation_curve, "T_H", WIDE),
    (work_efficiency_curve, "T_H", HUGE),
    (work_efficiency_curve, "eta_grid", [HUGE]),
    (three_stroke_omega_for_eta, "T_H", HUGE),
    (three_stroke_omega_for_eta, "T_H", TINY),  # the gap found would be 0.0
    (PopulationVector.from_raw, "values", [HUGE, 0.0]),
    (OttoConfig, "omega_H", HUGE),
    (work_moments, "tmap", CONFIG),
    (work_moments, "p1", "p1"),
    (scaled_cumulants, "tmap", CONFIG),
    (intercycle_pcc, "tmap", CONFIG),
    (intercycle_pcc, "p1", (0.75, 0.25)),
    (cumulant_gf, "tmap", CONFIG),
    (cumulant_gf, "p1", None),
    (eto_approximation_report, "kinds", ("standard",)),
    (build_map, "params", None),
    (build_map, "params", (1.0, 1.0, 0.5)),  # its fields, not the record
    (apply_map, "m", "x"),
    (apply_map, "p", None),
    (is_markovian, "params", None),
    *[(maximize_work, "spec", value) for value in RECORD_JUNK],
    *[
        (fn, "tr", value)
        for fn in (swap_map, jc_unitary, jc_evolution_map, induced_population_map)
        for value in RECORD_JUNK
    ],
    *[(eto_deviation, name, value) for name in ("induced", "tr") for value in RECORD_JUNK],
    *[(eto_approximation_report, "tr", value) for value in RECORD_JUNK],
    *[(fn, "cfg", value) for fn in (*OTTO_TAKERS, analytic_populations) for value in (None, THREE)],
    *[(fn, "cfg", value) for fn in THREE_TAKERS for value in (None, CONFIG)],
    *[
        (fn, name, HUGE)
        for fn in (thermal_population, full_thermalization_lambda)
        for name in ("omega", "beta")
    ],
    (FockTruncation, "n_max", HUGE),
    (WorkDistribution, "n", HUGE),
    (WorkDistribution, "support", HUGE),
    (WorkDistribution, "support", None),
    (WorkDistribution, "support", ((1.0,),)),
    (WorkDistribution, "support", [(1.0, "1.0")]),
    (eto_vs_thermalization_scan, "t2_over_t1_grid", HUGE),
    (fluctuation_curve, "omega_H_grid", HUGE),
    (work_efficiency_curve, "eta_grid", HUGE),
    (eto_approximation_report, "t_grid", HUGE),
    (OttoConfig, "omega_H", LONG),
    (PopulationVector, "p_g", LONG),
    (work_moments, "n", -LONG),
    (work_at, "regime", LONG),
    (fluctuation_curve, "horizon", LONG),
    (work_efficiency_curve, "engine", LONG),
    *[
        (fn, name, value)
        for fn, name in CHOICES
        for value in (np.array([1.0, 2.0]), np.array([_good(fn, name)]))
    ],
    (run_suites, "name", ["all"]),
    (run_suites, "name", LONG),
]


def _row_id(fn, name, value) -> str:
    if isinstance(value, np.ndarray):  # before the comparisons below, item by item
        shown = "str-array" if value.dtype.kind == "U" else "float-array"
    elif value is HUGE and name.endswith("grid"):
        shown = "huge-scalar"  # not iterable
    elif value is LONG or value == -LONG:
        shown = "long"
    elif value is TINY:
        shown = "tiny"
    elif value is WIDE:
        shown = "subnormal"
    else:
        shown = "huge" if value is HUGE or value == [HUGE] else type(value).__name__
    return f"{getattr(fn, '__qualname__', fn.__name__)}-{name}-{shown}"


@pytest.mark.parametrize("fn, name, value", ROWS, ids=[_row_id(*row) for row in ROWS])
def test_one_bad_argument_raises_a_typed_error(fn, name, value):
    args = list(GOOD[fn])
    fn(*args)
    names = list(inspect.signature(fn).parameters)
    position = names.index(name) if name in names else len(args)
    # past the known-good call, Python's own TypeError: too many arguments
    expected = ThermalOpsError if position < len(args) else TypeError
    args[position : position + 1] = [value]
    with pytest.raises(expected):
        fn(*args)


@pytest.mark.parametrize("check", [require_descending, require_unit_interval, _require_real])
def test_an_int_too_long_to_print_is_shown_by_its_size(check):
    with pytest.raises(InvalidParameterError, match=r"got \(?<int of 16610 bits>"):
        check(x=LONG)
    with pytest.raises(InvalidParameterError, match=r"got \(?<Fraction too long to print>"):
        check(x=Fraction(LONG, 3))


def test_values_shown_as_a_tuple_keep_its_form():
    # one value keeps the trailing comma of a one-item tuple
    with pytest.raises(InvalidParameterError) as one:
        require_descending(omega=LONG)
    assert str(one.value) == "need omega > 0, got (<int of 16610 bits>,)"
    with pytest.raises(InvalidParameterError) as two:
        require_descending(omega_H=LONG, omega_C=1.0)
    assert str(two.value) == "need omega_H > omega_C > 0, got (<int of 16610 bits>, 1.0)"

# records the library returns, which check no field: a junk field is kept as given
RESULT_RECORDS = {CycleReport, OptimumRecord, WorkStatistics, WorkStroke}
JUNK = ("1.0", None, HUGE, [1.0], object(), CONFIG, float("nan"))


def _public_callables() -> set:
    """Every callable of ``thermalops.__all__`` but the error and warning types."""
    values = [getattr(thermalops, name) for name in thermalops.__all__]
    errors = {v for v in values if isinstance(v, type) and issubclass(v, Exception)}
    return {v for v in values if callable(v)} - errors


def _finite(value) -> bool:
    """Whether no float in ``value``, its items, values or fields, is inf or NaN."""
    if isinstance(value, (float, complex)):
        return cmath.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.isfinite(value).all())
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    return all(map(_finite, vars(value).values())) if hasattr(value, "__dict__") else True


def test_every_public_callable_has_a_known_good_call():
    assert (_public_callables() - RESULT_RECORDS) | {otto_config_at} <= set(GOOD)


@pytest.mark.parametrize(
    "fn", sorted(GOOD, key=lambda fn: fn.__qualname__), ids=lambda fn: fn.__qualname__
)
def test_any_junk_argument_is_a_typed_error_or_a_finite_result(fn):
    # each argument of the known-good call in turn, as each junk value
    args = GOOD[fn]
    assert _finite(fn(*args))
    for position in range(len(args)):
        for junk in JUNK:
            bad = [*args[:position], junk, *args[position + 1 :]]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    result = fn(*bad)
                except ThermalOpsError:
                    continue
            assert _finite(result), (position, junk)
