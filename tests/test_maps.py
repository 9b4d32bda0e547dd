import copy
import inspect
import math
import pickle
import re
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thermalops
from thermalops import (
    ConsistencyError,
    Cycle,
    DegenerateCycleError,
    FockTruncation,
    GibbsStochasticMatrix,
    InducedMap,
    InvalidParameterError,
    OttoConfig,
    PopulationVector,
    ScanSpec,
    ThermalOpParams,
    ThreeStrokeConfig,
    WorkStroke,
    apply_map,
    build_map,
    cumulant_gf,
    eto,
    eto_approximation_report,
    eto_vs_thermalization_scan,
    fluctuation_curve,
    full_thermalization_lambda,
    intercycle_pcc,
    is_markovian,
    jc_evolution_map,
    otto_steady_state,
    scaled_cumulants,
    stationary_population,
    thermal_population,
    three_stroke_omega_for_eta,
    tilted_map_otto,
    work_at,
    work_efficiency_curve,
    work_moments,
)
from thermalops.maps import (
    DRIFT_FAIL,
    DRIFT_RENORM,
    STOCHASTIC_TOL,
    _entries_2x2,
    _gibbs_stochastic_entries,
    require_count,
    require_descending,
    require_unit_interval,
)

import oracles

LN2 = math.log(2.0)


def matrix(m) -> np.ndarray:
    """A map's checked row-major entries as a 2x2 array."""
    return np.array(m.entries).reshape(2, 2)


def test_no_two_public_names_are_one_object():
    # one name per value: a second public name for an object restates it
    names_by_id = {}
    for name in thermalops.__all__:
        names_by_id.setdefault(id(getattr(thermalops, name)), []).append(name)
    assert [names for names in names_by_id.values() if len(names) > 1] == []


def test_build_map_zero_strength_is_identity():
    m = build_map(ThermalOpParams(1.0, 1.0, 0.0))
    np.testing.assert_allclose(matrix(m), np.eye(2), atol=1e-15)


def test_build_map_eto_at_ln2():
    m = build_map(ThermalOpParams(1.0, LN2, 1.0))
    np.testing.assert_allclose(matrix(m), [[0.5, 1.0], [0.5, 0.0]], atol=1e-15)


def test_build_map_half_strength_at_ln2():
    m = build_map(ThermalOpParams(1.0, LN2, 0.5))
    np.testing.assert_allclose(matrix(m), [[0.75, 0.5], [0.25, 0.5]], atol=1e-15)


@pytest.mark.parametrize(
    "omega,beta,lam",
    [
        (1.0, 1.0, 1.2),
        (1.0, 1.0, -0.1),
        (0.0, 1.0, 0.5),
        (1.0, -2.0, 0.5),
        (-1.0, 1.0, 0.5),
        ("1", 1.0, 0.5),
        (None, 1.0, 0.5),
        (1 + 0j, 1.0, 0.5),
        (np.array([1.0, 2.0]), 1.0, 0.5),  # no "ambiguous truth value" ValueError
        (np.complex128(1 + 1j), 1.0, 0.5),  # numpy orders it; build_map would drop imag
        (np.array([1.0]), 1.0, 0.5),  # a one-value array compares like its value
        (1.0, 1.0, np.complex128(0.5)),
    ],
)
def test_params_validation(omega, beta, lam):
    with pytest.raises(InvalidParameterError):
        ThermalOpParams(omega, beta, lam)


def test_map_entries_and_columns_random():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        params = ThermalOpParams(
            rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0), rng.uniform(0.0, 1.0)
        )
        m = matrix(build_map(params))
        assert m.min() >= 0.0 and m.max() <= 1.0
        np.testing.assert_allclose(m.sum(axis=0), [1.0, 1.0], atol=1e-12)


def test_gibbs_fixed_point_random():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        omega, beta = rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0)
        m = build_map(ThermalOpParams(omega, beta, rng.uniform(0.0, 1.0)))
        g = thermal_population(omega, beta)
        out = apply_map(m, g)
        np.testing.assert_allclose(np.array(out), np.array(g), atol=1e-12)


def test_eto_columns_on_basis_states():
    m = eto(1.0, LN2)
    ground = apply_map(m, PopulationVector(1.0, 0.0))
    np.testing.assert_allclose(np.array(ground), [0.5, 0.5], atol=1e-15)
    # decay from the excited state is deterministic for any (omega, beta)
    excited = apply_map(eto(2.3, 0.7), PopulationVector(0.0, 1.0))
    np.testing.assert_allclose(np.array(excited), [1.0, 0.0], atol=1e-15)


def test_thermal_population_values():
    p = thermal_population(1.0, LN2)
    np.testing.assert_allclose(np.array(p), [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    # asymptotic limits realized at finite exponents
    cold = thermal_population(1.0, 1e3)
    np.testing.assert_allclose(np.array(cold), [1.0, 0.0], atol=1e-3)
    hot = thermal_population(1.0, 1e-6)
    np.testing.assert_allclose(np.array(hot), [0.5, 0.5], atol=1e-3)
    with pytest.raises(InvalidParameterError):
        thermal_population(-1.0, 1.0)
    with pytest.raises(InvalidParameterError, match="must be real"):
        thermal_population("1", 1.0)
    with pytest.raises(InvalidParameterError, match="must be real"):
        thermal_population(np.complex128(1 + 1j), 1.0)
    with pytest.raises(InvalidParameterError, match="must be real"):
        full_thermalization_lambda(np.array([1.0]), 1.0)


def test_eto_limits():
    np.testing.assert_allclose(matrix(eto(1.0, 1e3)), [[1.0, 1.0], [0.0, 0.0]], atol=1e-3)
    np.testing.assert_allclose(matrix(eto(1.0, 1e-6)), [[0.0, 1.0], [1.0, 0.0]], atol=1e-3)


def test_is_markovian_classification():
    assert not is_markovian(ThermalOpParams(1.0, 0.3, 1.0))
    rng = np.random.default_rng(3)
    for _ in range(50):
        assert is_markovian(
            ThermalOpParams(rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0), 0.5)
        )
    # threshold at beta*omega = ln 2 is 2/3
    assert not is_markovian(ThermalOpParams(1.0, LN2, 0.7))
    threshold = full_thermalization_lambda(1.0, LN2)
    assert math.isclose(threshold, 2.0 / 3.0, abs_tol=1e-15)
    for lam in np.linspace(0.0, 1.0, 101):
        assert is_markovian(ThermalOpParams(1.0, LN2, lam)) == (lam <= threshold)


def test_markovian_maps_cannot_invert():
    rng = np.random.default_rng(4)
    for _ in range(500):
        omega, beta = rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0)
        lam = rng.uniform(0.0, 1.0) * full_thermalization_lambda(omega, beta)
        m = build_map(ThermalOpParams(omega, beta, lam))
        p_e = rng.uniform(0.0, 0.5)
        out = apply_map(m, PopulationVector(1.0 - p_e, p_e))
        assert out.p_e <= 0.5 + 1e-12


def test_eto_can_invert_at_small_gap():
    out = apply_map(eto(1.0, 0.5), PopulationVector(1.0, 0.0))
    assert out.p_e > 0.5


def test_population_vector_validation():
    with pytest.raises(InvalidParameterError):
        PopulationVector(0.7, 0.7)
    with pytest.raises(InvalidParameterError):
        PopulationVector(-0.1, 1.1)
    with pytest.raises(InvalidParameterError, match="must be real"):
        PopulationVector("0.5", 0.5)
    with pytest.raises(InvalidParameterError, match="must be real"):
        PopulationVector(np.array([0.5, 0.5]), 0.5)
    with pytest.raises(InvalidParameterError, match="must be real"):
        PopulationVector(np.array([0.5]), np.array([0.5]))
    # small drift renormalizes, large drift is a logic-bug signal
    fixed = PopulationVector.from_raw([0.5 + 4e-11, 0.5 + 4e-11])
    assert math.isclose(fixed.p_g + fixed.p_e, 1.0, abs_tol=1e-12)
    with pytest.raises(ConsistencyError):
        PopulationVector.from_raw([0.5 + 1e-8, 0.5 + 1e-8])


@pytest.mark.parametrize("p_g, p_e", [(0, 1), (1, 0), (Fraction(0), Fraction(1))])
def test_population_vector_accepts_exact_ends_that_are_not_floats(p_g, p_e):
    # the range check of other reals includes both ends, as the float one does
    assert PopulationVector(p_g, p_e) == (p_g, p_e)

@pytest.mark.parametrize(
    "raw, expected",
    [
        ([-1e-13, 1.0 + 1e-13], (0.0, 1.0)),
        ([1.0 + 5e-13, -5e-13], (1.0, 0.0)),
        ([1.0000000000000002, 0.0], (1.0, 0.0)),  # one ulp above 1
        ([0.0, 1.0000000000000002], (0.0, 1.0)),
    ],
)
def test_population_vector_clamps_tiny_overshoots(raw, expected):
    # drift within DRIFT_RENORM is accepted without renormalizing, but values
    # outside [0, 1] are still clamped into it
    p = PopulationVector.from_raw(raw)
    assert (p.p_g, p.p_e) == expected


@settings(max_examples=500)
@given(
    p=st.floats(0.0, 1.0),
    d_g=st.floats(-0.45 * DRIFT_FAIL, 0.45 * DRIFT_FAIL),
    d_e=st.floats(-0.45 * DRIFT_FAIL, 0.45 * DRIFT_FAIL),
    excess=st.floats(1.01, 1e6),
    sign=st.sampled_from([-1.0, 1.0]),
)
@example(p=0.0, d_g=-0.45 * DRIFT_FAIL, d_e=-0.45 * DRIFT_FAIL, excess=1.01, sign=-1.0)
@example(p=1.0, d_g=0.45 * DRIFT_FAIL, d_e=0.45 * DRIFT_FAIL, excess=1.01, sign=1.0)
@example(p=0.5, d_g=-0.45 * DRIFT_FAIL, d_e=-0.45 * DRIFT_FAIL, excess=1e6, sign=-1.0)
def test_from_raw_renormalizes_up_to_drift_fail_and_raises_past_it(p, d_g, d_e, excess, sign):
    # each value within DRIFT_FAIL / 2 of a valid pair keeps the drift within
    # DRIFT_FAIL, so clamping and renormalizing give a checked vector near it
    fixed = PopulationVector.from_raw([p + d_g, (1.0 - p) + d_e])
    assert 0.0 <= fixed.p_g <= 1.0 and 0.0 <= fixed.p_e <= 1.0
    assert abs(fixed.p_g + fixed.p_e - 1.0) <= DRIFT_RENORM
    assert abs(fixed.p_g - p) <= DRIFT_FAIL and abs(fixed.p_e - (1.0 - p)) <= DRIFT_FAIL
    # one value moved past DRIFT_FAIL is a logic bug, not rounding
    with pytest.raises(ConsistencyError, match="exceeds"):
        PopulationVector.from_raw([p + sign * excess * DRIFT_FAIL, 1.0 - p])


def numpy_map(omega: float, beta: float, lam: float) -> np.ndarray:
    """The family as one numpy expression, clipped into [0, 1] as the full
    ``GibbsStochasticMatrix`` check stores it."""
    q = math.exp(-beta * omega)
    m = (1.0 - lam) * np.eye(2) + lam * np.array([[1.0 - q, 1.0], [q, 0.0]])
    return np.clip(m, 0.0, 1.0)


@st.composite
def map_params(draw):
    """beta * omega from 1e-300 to 1e4 (q underflows to 0 beyond ~745),
    split between omega and beta; lam anywhere, at 0, -0.0 and 1, and at
    the Markov threshold and one ulp either side."""
    log_x = draw(st.floats(-300.0, 4.0))
    share = draw(st.floats(0.0, 1.0))
    omega, beta = 10.0 ** (share * log_x), 10.0 ** ((1.0 - share) * log_x)
    threshold = full_thermalization_lambda(omega, beta)
    lam = draw(
        st.one_of(
            st.sampled_from(
                [0.0, -0.0, 1.0, threshold, *(math.nextafter(threshold, x) for x in (0.0, 1.0))]
            ),
            st.floats(0.0, 1.0),
        )
    )
    return omega, beta, lam


@settings(max_examples=500)
@given(map_params())
@example((1.0, 1e4, 1.0))  # q underflows to 0
@example((1.0, 1e-300, -0.0))
@example((1.0, LN2, 2.0 / 3.0))
def test_build_map_is_the_checked_numpy_map(params):
    omega, beta, lam = params
    m = build_map(ThermalOpParams(omega, beta, lam))
    expected = numpy_map(omega, beta, lam)
    assert matrix(m).tobytes() == expected.tobytes()  # bitwise, signed zeros included
    assert type(m.entries) is tuple  # immutable
    assert (m.omega, m.beta_omega) == (omega, beta * omega)
    rebuilt = GibbsStochasticMatrix(matrix(m), omega, beta * omega)
    np.testing.assert_array_equal(matrix(rebuilt), matrix(m))
    assert full_thermalization_lambda(omega, beta) == thermal_population(omega, beta).p_g


def numpy_checked(m: np.ndarray, omega: float, beta: float):
    """The checks of ``GibbsStochasticMatrix`` as numpy reductions: the
    clipped matrix, or None where a check fails."""
    tol = 1e-12
    if m.min() < -tol or m.max() > 1.0 + tol:
        return None
    m = np.clip(m, 0.0, 1.0)
    if np.abs(m.sum(axis=0) - 1.0).max() > tol:
        return None
    gibbs = np.array(thermal_population(omega, beta))
    if np.abs(m @ gibbs - gibbs).max() > tol:
        return None
    return m


# Entry perturbations around the tolerance edges and beyond.
NUDGES = st.sampled_from([0.0, 1e-13, -1e-13, 5e-13, -5e-13, 2e-12, -2e-12, 1e-9, -1e-9, 0.1])


@settings(max_examples=500)
@given(map_params(), st.tuples(NUDGES, NUDGES, NUDGES, NUDGES))
@example((1.0, LN2, 1.0), (-1e-13, 0.0, 1e-13, 0.0))  # clipped back into [0, 1]
@example((1.0, LN2, 0.5), (0.0, 0.0, 0.0, -2e-12))  # entry out of range
@example((1.0, LN2, 0.5), (1e-9, 0.0, 0.0, 0.0))  # column sum off
@example((1.0, LN2, 0.5), (1e-13, -1e-13, -1e-13, 1e-13))  # columns sum to 1, Gibbs off
def test_user_matrix_check_matches_numpy(params, nudges):
    omega, beta, lam = params
    m = matrix(build_map(ThermalOpParams(omega, beta, lam))) + np.reshape(nudges, (2, 2))
    expected = numpy_checked(m, omega, beta)
    if expected is None:
        with pytest.raises(InvalidParameterError):
            GibbsStochasticMatrix(m, omega, beta * omega)
    else:
        checked = GibbsStochasticMatrix(m, omega, beta * omega)
        assert matrix(checked).tobytes() == expected.tobytes()
        assert type(checked.entries) is tuple  # immutable


@pytest.mark.parametrize(
    "m, omega, beta_omega",
    [
        (np.eye(3), 1.0, 1.0),  # not 2x2
        (np.array([[math.nan, 0.0], [0.0, 1.0]]), 1.0, 1.0),
        (np.array([[1.0, math.nan], [0.0, 1.0]]), 1.0, 1.0),
        (np.eye(2), 0.0, 1.0),
        (np.eye(2), 1.0, math.nan),
    ],
    ids=["shape", "nan-first", "nan-later", "omega-0", "beta-nan"],
)
def test_gibbs_stochastic_matrix_rejects_bad_input(m, omega, beta_omega):
    with pytest.raises(InvalidParameterError):
        GibbsStochasticMatrix(m, omega, beta_omega)


def test_gibbs_stochastic_matrix_rejects_non_gibbs():
    with pytest.raises(InvalidParameterError):
        GibbsStochasticMatrix(np.array([[0.9, 0.3], [0.1, 0.7]]), 1.0, LN2)


@pytest.mark.parametrize("m", [[[math.nan, 0.5], [0.5, 0.5]], [[0.9, 0.5], [0.5, 0.5]]])
def test_stationary_population_rejects_non_stochastic_input(m):
    # both have the off-diagonal entries of a valid map, which alone fix p
    with pytest.raises(InvalidParameterError):
        stationary_population(np.array(m))


@pytest.mark.parametrize(
    "m",
    [[[1.2, 0.3], [-0.2, 0.7]], [[0.7, 1.2], [0.3, -0.2]]],
    ids=["negative-off-diagonal", "off-diagonal-above-1"],
)
def test_stationary_population_rejects_an_entry_outside_the_unit_interval(m):
    # the columns sum to 1, so only the entry check rejects these: the
    # first has the fixed point (3, -2), which from_raw reports as an
    # internal ConsistencyError, and the second the in-range (0.8, 0.2)
    with pytest.raises(InvalidParameterError, match=r"entries must lie in \[0, 1\]"):
        stationary_population(np.array(m))


@pytest.mark.parametrize("m", [np.eye(3), [[0.5, 0.5, 0.5, 0.5]], [0.5, 0.5, 0.5, 0.5]])
def test_stationary_population_rejects_a_shape_other_than_2x2(m):
    with pytest.raises(InvalidParameterError, match="2x2"):
        stationary_population(m)


def gibbs_map_at_ln2(m):
    return GibbsStochasticMatrix(m, 1.0, LN2)


@pytest.mark.parametrize("build", [stationary_population, gibbs_map_at_ln2, InducedMap])
@pytest.mark.parametrize(
    "m",
    [
        [[1.0, 0.0], [0.0]],
        [["a", "b"], ["c", "d"]],
        [[0.6 + 0.3j, 0.4], [0.4, 0.6]],
        np.array([[0.6 + 0.3j, 0.4], [0.4, 0.6]]),  # once read as its real part
        np.array([[np.complex128(0.6 + 0.3j), 0.4], [0.4, 0.6]], dtype=object),  # that too
        [["0.75", "0.5"], ["0.25", "0.5"]],  # numpy's float() parsed them
        np.array([[0.75, 0.5], [0.25, 0.5]]).astype(str),
        [[b"0.75", b"0.5"], [b"0.25", b"0.5"]],
        [b"\x01\x00", b"\x00\x01"],  # bytes unpack to ints
    ],
    ids=[
        "ragged",
        "strings",
        "python-complex",
        "complex-array",
        "numpy-complex-in-object-array",
        "numeric-strings",
        "numeric-string-array",
        "numeric-bytes",
        "rows-of-bytes",
    ],
)
def test_a_matrix_that_is_not_real_2x2_is_rejected(build, m):
    with pytest.raises(InvalidParameterError, match="real 2x2"):
        build(m)


@pytest.mark.parametrize(
    "raw",
    [
        [0.2, 0.3, 0.5],
        ["x", 1.0],
        [0.5j, 0.5],
        [np.complex128(0.5 + 0.1j), 0.5],  # float() once dropped the imaginary part
        [np.complex64(0.5), 0.5],
        ["0.5", "0.5"],  # float() parses them
        [b"0.5", 0.5],
        [np.array([0.5]), 0.5],
    ],
    ids=[
        "three-values",
        "string",
        "complex",
        "numpy-complex128",
        "numpy-complex64",
        "numeric-strings",
        "bytes",
        "one-value-array",
    ],
)
def test_from_raw_rejects_anything_but_two_reals(raw):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way
        with pytest.raises(InvalidParameterError, match="two real populations"):
            PopulationVector.from_raw(raw)


def test_stationary_population_of_identity_is_degenerate():
    with pytest.raises(DegenerateCycleError):
        stationary_population(np.eye(2))


def test_a_caller_matrix_past_the_column_tolerance_is_rejected_by_its_sums():
    message = "columns must sum to 1 within 1e-12, got (1.000000000002, 1.0)"
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        stationary_population([[0.5 + 2e-12, 0.5], [0.5, 0.5]])


@pytest.mark.parametrize("eps", [6e-13, 9e-13])
@pytest.mark.parametrize("flip", [False, True], ids=["otto", "three-stroke"])
def test_heat_maps_within_the_column_tolerance_make_a_finite_cycle(eps, flip):
    # each heat map's columns sum to 1 + eps, within STOCHASTIC_TOL, so both
    # pass their checks; the cycle map's columns sum to about 1 + 2 eps, past
    # it, and the cycle still has a steady state, a run and its statistics
    def heat(omega, beta_omega, lam):
        q = math.exp(-beta_omega)
        return GibbsStochasticMatrix(
            [[1.0 - lam * q + eps, lam], [lam * q, 1.0 - lam + eps]], omega, beta_omega
        )

    w_H, w_C = (1.0, 1.0) if flip else (1.0, 0.5)
    hot, cold = heat(w_H, w_H, 0.9), heat(w_C, w_C / 0.25, 0.8)
    strokes = (hot, WorkStroke(w_H, w_C, flip), cold)
    cycle = Cycle(strokes if flip else (*strokes, WorkStroke(w_C, w_H)))
    m00, m01, m10, m11 = cycle.tilted(0.0)
    assert max(m00 + m10, m01 + m11) - 1.0 > STOCHASTIC_TOL
    p1 = cycle.steady_state()
    assert abs(m10 * p1.p_g + m11 * p1.p_e - p1.p_e) <= 2.0 * eps  # fixed within the defect
    run = cycle.run()
    assert run[0] == p1 and run[3] == cycle.work() != 0.0
    stats = work_moments(cycle, p1, 3)
    values = [*run[1], *run[3:], *stats, *scaled_cumulants(cycle), intercycle_pcc(cycle, p1)]
    assert all(math.isfinite(x) for x in values)


@pytest.mark.parametrize(
    "cfg",
    [
        OttoConfig.nonmarkov(1e-310, 0.7e-310, 1e-310, 0.5e-310),
        OttoConfig(3e-310, 2e-310, 2e-310, 1e-310, 0.3, 0.8),
        ThreeStrokeConfig.markov(1e-310, 2e-310, 1e-310),
    ],
    ids=["otto-nonmarkov", "otto-couplings", "three-stroke-markov"],
)
def test_a_heat_map_at_a_subnormal_T_is_rebuilt_from_its_fields(cfg):
    # the map keeps omega / T, which is finite where 1 / T overflows, so its
    # own fields rebuild its entries
    for h, T in ((cfg.cycle().strokes[0], cfg.T_H), (cfg.cycle().strokes[2], cfg.T_C)):
        assert h.beta_omega == h.omega / T and 0.0 < h.entries[2] < 1.0
        assert GibbsStochasticMatrix(matrix(h), h.omega, h.beta_omega).entries == h.entries
def test_scan_fixed_point_at_equal_temperatures():
    rows = eto_vs_thermalization_scan(0.5, [1.0])
    expected = thermal_population(0.5, 1.0).p_e
    np.testing.assert_allclose(rows[0], [1.0, expected, expected], atol=1e-14)


def test_scan_hot_reservoir_inverts_population():
    rows = eto_vs_thermalization_scan(0.5, [1e6])
    assert abs(rows[0][1] - 1.0 / (1.0 + math.exp(-0.5))) < 1e-3  # inversion, ~0.6225
    assert rows[0][1] > 0.5
    assert rows[0][2] < 0.5  # thermalization saturates below 1/2


def test_scan_cold_reservoir_freezes_ground():
    rows = eto_vs_thermalization_scan(0.5, [1e-3])
    assert rows[0][1] < 1e-3 and rows[0][2] < 1e-3


def test_scan_rejects_bad_grid():
    for grid in ([1.0, -2.0], [], [1.0, math.nan], [math.nan, 1.0], np.array([2.0, 0.0])):
        with pytest.raises(InvalidParameterError):
            eto_vs_thermalization_scan(0.5, grid)
    with pytest.raises(InvalidParameterError):
        eto_vs_thermalization_scan(-0.5, [1.0])


def test_scan_rows_are_an_array_of_the_grid():
    # a 2-D table of rows, one per grid point, whose first column is the grid
    rows = eto_vs_thermalization_scan(0.5, np.array([0.5, 2.0]))
    assert [len(row) for row in rows] == [3, 3]
    assert [row[0] for row in rows] == [0.5, 2.0]


SCANS = {
    "eto_vs_thermalization_scan": lambda grid: eto_vs_thermalization_scan(0.5, grid),
    "work_efficiency_curve": lambda grid: work_efficiency_curve(0.5, 1.0, "markov", grid),
    "fluctuation_curve": lambda grid: fluctuation_curve(0.3, 0.5, 1.0, "infinite", grid),
    "eto_approximation_report": lambda grid: eto_approximation_report(
        1.0, FockTruncation(30, 1.0, 1.0), grid
    ),
}


@pytest.mark.parametrize("scan", SCANS.values(), ids=SCANS)
@pytest.mark.parametrize(
    "entry",
    ["0.2", b"0.2", None, 0.2 + 0j, np.complex128(0.2), True],
    ids=["string", "bytes", "None", "complex", "numpy-complex", "bool"],
)
def test_a_scan_grid_entry_that_is_not_real_is_rejected(scan, entry):
    # float(x) once parsed the string and read the bool as 1.0
    assert scan([np.float64(0.2), 0.25]) == scan([0.2, 0.25])
    with pytest.raises(InvalidParameterError, match="must be real"):
        scan([0.25, entry])


OTTO_CYCLE = OttoConfig.nonmarkov(1.0, 0.5, 1.0, 0.5).cycle()
# each call with valid arguments, and the names of the ones checked for a real value
SCALAR_CALLS = [
    (work_at, (0.3, 0.5, 1.0, 1.0, "markov"), ("eta", "eta_C", "T_H", "omega_H")),
    (ScanSpec, (0.3, 0.5, 1.0, "markov"), ("eta", "eta_C", "T_H")),
    (three_stroke_omega_for_eta, (0.3, 0.5, 1.0), ("eta", "eta_C", "T_H")),
    (work_efficiency_curve, (0.5, 1.0, "markov", [0.2]), ("eta_C", "T_H")),
    (fluctuation_curve, (0.3, 0.5, 1.0, "infinite", [1.0]), ("eta", "eta_C")),
    (eto_vs_thermalization_scan, (0.5, [1.0]), ("omega_over_T1",)),
    (jc_evolution_map, (1.0, 1.2, FockTruncation(30, 1.0, 1.0), "standard"), ("J", "t")),
    (cumulant_gf, (OTTO_CYCLE, OTTO_CYCLE.steady_state(), 3, 0.1), ("chi",)),
    (GibbsStochasticMatrix, ([[0.75, 0.5], [0.25, 0.5]], 1.0, LN2), ("omega", "beta_omega")),
]


@pytest.mark.parametrize(
    "fn, args, name",
    [(fn, args, name) for fn, args, names in SCALAR_CALLS for name in names],
    ids=[f"{fn.__name__}-{name}" for fn, _, names in SCALAR_CALLS for name in names],
)
@pytest.mark.parametrize("value", ["0.3", None, 0.3j], ids=["string", "None", "complex"])
def test_a_scalar_that_is_not_real_is_a_parameter_error(fn, args, name, value):
    # each was compared with a float before any check, a bare TypeError
    fn(*args)
    position = inspect.signature(fn).parameters
    bad = list(args)
    bad[list(position).index(name)] = value
    with pytest.raises(InvalidParameterError, match=f"{name} must be real"):
        fn(*bad)


@pytest.mark.parametrize("n", [3, np.int64(3), np.int32(3), np.uint8(3)])
def test_require_count_accepts_python_and_numpy_integers(n):
    got = require_count(n, 1, "n")
    assert got == 3 and type(got) is int


@pytest.mark.parametrize(
    "n", [True, np.True_, 3.0, np.float64(3.0), "3", 0, np.int64(0)],
    ids=["bool", "numpy-bool", "float", "numpy-float", "str", "zero", "numpy-zero"],
)
def test_require_count_rejects_bools_floats_and_small_counts(n):
    with pytest.raises(InvalidParameterError):
        require_count(n, 1, "n")


# One valid instance of every checked config; each float field in turn is
# set to NaN, which must fail at construction rather than later.
VALID_CONFIGS = [
    ThermalOpParams(1.0, 1.0, 0.5),
    OttoConfig(1.0, 0.7, 1.0, 0.5, 1.0, 1.0),
    ThreeStrokeConfig(1.0, 1.0, 0.5, 1.0, 1.0),
    FockTruncation(n_max=30, omega=1.0, beta=1.0),
    ScanSpec(0.3, 0.5, 1.0, "nonmarkov"),
]
NAN_CASES = [
    (cfg, name)
    for cfg in VALID_CONFIGS
    for name, value in zip(cfg._fields, cfg)
    if type(value) is float
]


@pytest.mark.parametrize(
    "cfg,field", NAN_CASES, ids=[f"{type(c).__name__}.{name}" for c, name in NAN_CASES]
)
def test_nan_fields_are_rejected_at_construction(cfg, field):
    with pytest.raises(InvalidParameterError):
        cfg._replace(**{field: math.nan})


@pytest.mark.parametrize(
    "make",
    [
        lambda: OttoConfig("2", 1.0, 1.0, 0.5, 1.0, 1.0),
        lambda: OttoConfig(2.0, 1.0, 1.0, 0.5, 1j, 1.0),
        lambda: ThreeStrokeConfig(None, 1.0, 0.5, 1.0, 1.0),
        lambda: OttoConfig(np.array([2.0]), 1.0, 1.0, 0.5, 1.0, 1.0),
        lambda: OttoConfig(2.0, 1.0, 1.0, 0.5, np.complex128(1.0), 1.0),
        lambda: ThreeStrokeConfig(1.0, 1.0, np.array([0.5]), 1.0, 1.0),
    ],
    ids=[
        "otto-string-gap",
        "otto-complex-coupling",
        "three-stroke-none-gap",
        "otto-one-value-array-gap",
        "otto-numpy-complex-coupling",
        "three-stroke-one-value-array-temperature",
    ],
)
def test_non_real_config_fields_are_rejected_at_construction(make):
    with pytest.raises(InvalidParameterError):
        make()


def test_bools_are_not_read_as_numbers():
    cfg = OttoConfig(1.0, 0.7, 1.0, 0.5, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        cfg._replace(omega_H=True)
    for window_end in ("omega_lo", "omega_hi"):
        with pytest.raises(InvalidParameterError):
            ScanSpec(0.3, 0.5, 1.0, "nonmarkov", **{window_end: True})
    with pytest.raises(InvalidParameterError):
        ThermalOpParams(1.0, 1.0, True)
    with pytest.raises(InvalidParameterError):
        PopulationVector(True, False)  # in range, and sums to 1
    with pytest.raises(InvalidParameterError):
        FockTruncation(n_max=True, omega=1.0, beta=1.0, tail_bound=1.0)
    tmap = tilted_map_otto(cfg)
    with pytest.raises(InvalidParameterError):
        work_moments(tmap, otto_steady_state(cfg), True)


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_map(ThermalOpParams(1.3, 0.7, 0.4)),
        lambda: eto(1.3, 0.7),
        lambda: GibbsStochasticMatrix(np.array([[0.75, 0.5], [0.25, 0.5]]), 1.0, LN2),
    ],
    ids=["build_map", "eto", "user"],
)
def test_copy_and_pickle_keep_the_entries(make):
    gsm = make()
    assert list(vars(gsm)) == ["entries", "omega", "beta_omega"]
    assert type(gsm.entries) is tuple and [type(x) for x in gsm.entries] == [float] * 4
    with pytest.raises(AttributeError):
        gsm.missing
    for clone in (copy.copy(gsm), copy.deepcopy(gsm), pickle.loads(pickle.dumps(gsm))):
        assert [x.hex() for x in clone.entries] == [x.hex() for x in gsm.entries]
        assert (clone.omega, clone.beta_omega) == (gsm.omega, gsm.beta_omega)
        with pytest.raises(AttributeError):
            clone.entries = (1.0, 0.0, 0.0, 1.0)


def test_user_matrix_keeps_its_checks():
    with pytest.raises(InvalidParameterError):
        GibbsStochasticMatrix(np.eye(3), 1.0, 1.0)
    with pytest.raises(AttributeError):
        eto(1.0, 1.0).entries = (1.0, 0.0, 0.0, 1.0)
    clipped = GibbsStochasticMatrix(np.array([[1.0 + 1e-13, 1.0], [-1e-13, 0.0]]), 1.0, 1e4)
    assert clipped.entries == (1.0, 1.0, 0.0, 0.0)
    assert matrix(clipped).tolist() == [[1.0, 1.0], [0.0, 0.0]]


# The rewritten checks against their reference copies in ``oracles``: the
# same value bits, or the same exception type and message.  Values sit at
# and one ulp either side of each tolerance, with signed zeros, NaN, the
# infinities, subnormals, bools, ints and numpy floats among them; a value
# with no order against a float, which the copies let raise a bare
# TypeError or ValueError, now raises InvalidParameterError, and so does
# every call with a value that is not ``oracles.real``, such as a numpy
# complex number or a one-value array, which the copies may accept.
def _ulps(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


TOLERANCES = [v for tol in (DRIFT_RENORM, DRIFT_FAIL, STOCHASTIC_TOL) for v in _ulps(tol)]
OFFSETS = st.sampled_from([0.0, -0.0, *TOLERANCES, *(-t for t in TOLERANCES)])
EDGE_FLOATS = [
    0.0,
    -0.0,
    math.nan,
    math.inf,
    -math.inf,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    0.5,
    *_ulps(1.0),
    2.0,
    -1.0,
    *TOLERANCES,
]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), st.floats(0.0, 1.0))
NON_REAL = [
    "0.5",
    b"0.5",
    None,
    0.5j,
    np.array([0.5, 0.5]),
    np.complex128(0.5 + 0.5j),
    np.complex128(0.5),
    np.array([0.5]),
    np.array(0.5),
]
SCALARS = st.one_of(
    FLOATS,
    st.sampled_from([True, False, 0, 1, 2, -1, np.float64(0.5), np.float64(1.0), *NON_REAL]),
)


def _bits(x):
    if isinstance(x, tuple):
        return tuple(_bits(v) for v in x)
    if isinstance(x, float):
        return type(x), struct.pack(">d", x)
    return type(x), repr(x)


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return "ok", _bits(result)


def assert_same_outcome(new, reference, values=()):
    """``values``: the arguments, where a value that is not real must raise."""
    kind = reference[0]
    untyped = kind != "ok" and not issubclass(kind, thermalops.ThermalOpsError)
    if untyped and issubclass(kind, (TypeError, ValueError)):  # no order against a float
        assert new[0] is InvalidParameterError
    elif not oracles.real(*values):
        assert new[0] is InvalidParameterError
    else:
        assert new == reference


def _near(p: float, d_g: float, d_e: float) -> tuple[float, float]:
    return p + d_g, (1.0 - p) + d_e


RAW_PAIRS = st.one_of(
    st.tuples(SCALARS, SCALARS),
    st.builds(_near, FLOATS, OFFSETS, OFFSETS),
    st.builds(_near, st.floats(0.0, 1.0), st.floats(-2e-9, 2e-9), st.floats(-2e-9, 2e-9)),
)
CONTAINERS = st.sampled_from([tuple, list, iter, lambda v: (*v, 0.5), lambda v: v[:1]])


@settings(max_examples=1500)
@given(RAW_PAIRS, CONTAINERS)
@example((-0.0, 1.0), tuple)
@example((0.5, math.nan), tuple)
@example((-STOCHASTIC_TOL, 1.0 + STOCHASTIC_TOL), tuple)
@example(("x", 0.5), lambda v: (*v, 0.5))
@example(("0.5", "0.5"), list)
@example((b"0.5", 0.5), tuple)
@example((10**400, 0.0), list)
def test_from_raw_and_the_constructor_match_the_reference(pair, container):
    assert_same_outcome(
        _outcome(PopulationVector.from_raw, container(pair)),
        _outcome(oracles.from_raw, container(pair)),
        pair,
    )
    assert_same_outcome(
        _outcome(PopulationVector, *pair), _outcome(oracles.population_vector, *pair), pair
    )


def _gibbs_entries(lam: float, q: float, nudges: tuple) -> tuple:
    keep = 1.0 - lam
    exact = (keep + lam * (1.0 - q), 0.0 + lam, 0.0 + lam * q, keep + lam * 0.0)
    return tuple(x + d for x, d in zip(exact, nudges))


def _shifted(lam: float, q: float, d_g: float, d_e: float, cols: tuple) -> tuple:
    """Map entries with ``d_g`` and ``d_e`` moved down each column, which
    moves the fixed point, and the column sums off 1 by ``cols``."""
    m00, m01, m10, m11 = _gibbs_entries(lam, q, (0.0, 0.0, 0.0, 0.0))
    return m00 - d_g, m01 + d_e, m10 + d_g + cols[0], m11 - d_e + cols[1], q


# the callers pass float entries only (``build_map`` and ``_entries_2x2``)
ENTRY_NUDGES = st.one_of(OFFSETS, st.sampled_from([math.nan, math.inf, -math.inf, 1e-11, -1e-11]))
SHIFTS = st.one_of(OFFSETS, st.floats(-3 * STOCHASTIC_TOL, 3 * STOCHASTIC_TOL))


@settings(max_examples=1500)
@given(
    st.one_of(
        st.builds(
            lambda lam, q, nudges: (*_gibbs_entries(lam, q, nudges), q),
            st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324])),
            st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1.0, math.inf, math.nan])),
            st.tuples(ENTRY_NUDGES, ENTRY_NUDGES, ENTRY_NUDGES, ENTRY_NUDGES),
        ),
        st.builds(
            _shifted,
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
            SHIFTS,
            SHIFTS,
            st.tuples(OFFSETS, OFFSETS),
        ),
        st.tuples(FLOATS, FLOATS, FLOATS, FLOATS, FLOATS),
    )
)
@example((-0.0, 1.0, 1.0, 0.0, 0.0))
@example((1.0, 1.0, -0.0, 0.0, 1.0))
def test_gibbs_stochastic_entries_match_the_reference(args):
    assert_same_outcome(
        _outcome(_gibbs_stochastic_entries, *args),
        _outcome(oracles.gibbs_stochastic_entries, *args),
    )


def _with(fields: tuple, i: int, value) -> tuple:
    return fields[:i] + (value,) + fields[i + 1 :]


def config_fields(valid: tuple):
    n = len(valid)
    return st.one_of(
        st.tuples(*[SCALARS] * n),
        st.permutations(valid).map(tuple),
        st.builds(_with, st.just(valid), st.integers(0, n - 1), SCALARS),
        st.builds(_with, st.permutations(valid).map(tuple), st.integers(0, n - 1), SCALARS),
    )


@settings(max_examples=1000)
@given(
    config_fields((2.0, 1.0, 1.0, 0.5, 0.9, 0.7)),
    config_fields((1.0, 1.0, 0.5, 0.9, 0.7)),
    config_fields((1.0, 0.5, 0.25)),
)
@example((math.inf, 1.0, 1.0, 0.5, 1.0, 1.0), (1.0, math.inf, 0.5, 1.0, 1.0), (math.inf, 1.0, 0.5))
@example((2.0, 1.0, 1.0, 0.5, True, 1.0), (1.0, 1.0, 0.5, 1, 1.0), (1.0, 1.0, False))
@example((10**400, 1.0, 1.0, 0.5, 1.0, 1.0), (10**400, 1.0, 0.5, 1.0, 1.0), (10**400, 1.0, 0.5))
@example((2.0, 1.0, 10**400, 0.5, 1.0, 1.0), (1.0, 10**400, 0.5, 1.0, 1.0), (1.0, 10**400, 0.5))
def test_config_checks_match_the_reference(otto, three, params):
    names = OttoConfig._fields
    assert_same_outcome(
        _outcome(OttoConfig, *otto), _outcome(oracles.engine_config, names, 2, otto), otto
    )
    names = ThreeStrokeConfig._fields
    assert_same_outcome(
        _outcome(ThreeStrokeConfig, *three),
        _outcome(oracles.engine_config, names, 1, three),
        three,
    )
    assert_same_outcome(
        _outcome(ThermalOpParams, *params), _outcome(oracles.thermal_op_params, *params), params
    )
    named = dict(zip("abc", params))
    for new, reference in (
        (require_descending, oracles.require_descending),
        (require_unit_interval, oracles.require_unit_interval),
    ):
        assert_same_outcome(
            _outcome(lambda: new(**named)), _outcome(lambda: reference(**named)), params
        )


# The matrix reader against its numpy reference: 2x2 arrays of float64,
# float32, int and bool, and nested lists and tuples of reals, read as the
# same floats; ragged, 1x4, 3x2 and 3-D input, complex input (numpy's too),
# a huge int and None raise InvalidParameterError in both.  Where numpy read
# an entry that is not a real number, the reader raises: numpy's float()
# parsed numeric strings and bytes, and read a None entry as NaN.
def _four(elements):
    return st.lists(elements, min_size=4, max_size=4)


def _rows(values):
    return [list(values[:2]), list(values[2:])]


def _with_entry(x):
    """2x2 nested lists of ``FLOATS`` with ``x`` at one of the four entries."""
    return st.tuples(_four(FLOATS), st.integers(0, 3)).map(
        lambda t: _rows([*t[0][: t[1]], x, *t[0][t[1] + 1 :]])
    )


ENTRIES = st.one_of(
    FLOATS,
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
REAL_MATRICES = st.one_of(
    _four(FLOATS).map(lambda v: np.array(v).reshape(2, 2)),
    _four(st.floats(width=32)).map(lambda v: np.array(v, dtype=np.float32).reshape(2, 2)),
    _four(st.integers(-(2**63), 2**63 - 1)).map(lambda v: np.array(v).reshape(2, 2)),
    _four(st.booleans()).map(lambda v: np.array(v).reshape(2, 2)),
    _four(ENTRIES).map(_rows),
    _four(ENTRIES).map(lambda v: tuple(map(tuple, _rows(v)))),
)
COMPLEX = st.one_of(st.complex_numbers(), st.complex_numbers().map(np.complex128))
MALFORMED = st.one_of(
    _four(ENTRIES).map(lambda v: [v[:2], v[2:3]]),  # ragged
    _four(ENTRIES).map(lambda v: [v]),  # 1x4
    _four(FLOATS).map(lambda v: np.array(v).reshape(1, 4)),
    st.lists(ENTRIES, min_size=6, max_size=6).map(lambda v: [v[:2], v[2:4], v[4:]]),  # 3x2
    st.lists(FLOATS, min_size=6, max_size=6).map(lambda v: np.array(v).reshape(3, 2)),
    st.lists(FLOATS, min_size=8, max_size=8).map(lambda v: np.array(v).reshape(2, 2, 2)),
    _four(_four(FLOATS)).map(_rows),  # 3-D nested lists
    _four(FLOATS).map(lambda v: np.array(v).reshape(2, 2, 1)),
    _four(COMPLEX).map(_rows),
    _four(COMPLEX).map(lambda v: np.array(v).reshape(2, 2)),
    _with_entry(0.5j),
    _with_entry(10**400),
    st.just(None),
)
NOT_REAL = st.one_of(
    _with_entry(None),
    _four(FLOATS).map(lambda v: _rows([repr(x) for x in v])),
    _four(FLOATS).map(lambda v: _rows([repr(x).encode() for x in v])),
    _four(FLOATS).map(lambda v: np.array(v).reshape(2, 2).astype(str)),
)


def _read(reader, m):
    try:
        return [x.hex() for x in reader(m)]
    except InvalidParameterError:
        return InvalidParameterError


@settings(max_examples=1000)
@given(
    st.one_of(
        st.tuples(st.just("real"), REAL_MATRICES),
        st.tuples(st.just("malformed"), MALFORMED),
        st.tuples(st.just("not-real"), NOT_REAL),
    )
)
@example(("real", [[True, 0], [np.float32(0.1), 2**70]]))
@example(("malformed", [[10**400, 0.0], [0.0, 1.0]]))
@example(("malformed", np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)))
@example(("not-real", [["1", "0"], ["0", "1"]]))
def test_the_matrix_reader_matches_its_numpy_reference(case):
    kind, m = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way
        got, reference = _read(_entries_2x2, m), _read(oracles.entries_2x2, m)
    if kind == "not-real":
        assert got is InvalidParameterError and reference is not InvalidParameterError
    else:
        assert got == reference
        assert (got is InvalidParameterError) == (kind == "malformed")
