import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermalops import (
    ConsistencyError,
    DegenerateCycleError,
    FockTruncation,
    GibbsStochasticMatrix,
    InvalidParameterError,
    OttoConfig,
    PopulationVector,
    ScanSpec,
    ThermalOpParams,
    ThreeStrokeConfig,
    apply_map,
    build_map,
    eto,
    eto_vs_thermalization_scan,
    full_thermalization_lambda,
    is_markovian,
    otto_steady_state,
    stationary_population,
    thermal_population,
    tilted_map_otto,
    work_moments,
)

LN2 = math.log(2.0)


def test_build_map_zero_strength_is_identity():
    m = build_map(ThermalOpParams(1.0, 1.0, 0.0))
    np.testing.assert_allclose(m.m, np.eye(2), atol=1e-15)


def test_build_map_eto_at_ln2():
    m = build_map(ThermalOpParams(1.0, LN2, 1.0))
    np.testing.assert_allclose(m.m, [[0.5, 1.0], [0.5, 0.0]], atol=1e-15)


def test_build_map_half_strength_at_ln2():
    m = build_map(ThermalOpParams(1.0, LN2, 0.5))
    np.testing.assert_allclose(m.m, [[0.75, 0.5], [0.25, 0.5]], atol=1e-15)


@pytest.mark.parametrize(
    "omega,beta,lam",
    [(1.0, 1.0, 1.2), (1.0, 1.0, -0.1), (0.0, 1.0, 0.5), (1.0, -2.0, 0.5), (-1.0, 1.0, 0.5)],
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
        m = build_map(params).m
        assert m.min() >= 0.0 and m.max() <= 1.0
        np.testing.assert_allclose(m.sum(axis=0), [1.0, 1.0], atol=1e-12)


def test_gibbs_fixed_point_random():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        omega, beta = rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0)
        m = build_map(ThermalOpParams(omega, beta, rng.uniform(0.0, 1.0)))
        g = thermal_population(omega, beta)
        out = apply_map(m, g)
        np.testing.assert_allclose(out.as_array(), g.as_array(), atol=1e-12)


def test_eto_columns_on_basis_states():
    m = eto(1.0, LN2)
    ground = apply_map(m, PopulationVector(1.0, 0.0))
    np.testing.assert_allclose(ground.as_array(), [0.5, 0.5], atol=1e-15)
    # decay from the excited state is deterministic for any (omega, beta)
    excited = apply_map(eto(2.3, 0.7), PopulationVector(0.0, 1.0))
    np.testing.assert_allclose(excited.as_array(), [1.0, 0.0], atol=1e-15)


def test_thermal_population_values():
    p = thermal_population(1.0, LN2)
    np.testing.assert_allclose(p.as_array(), [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    # asymptotic limits realized at finite exponents
    cold = thermal_population(1.0, 1e3)
    np.testing.assert_allclose(cold.as_array(), [1.0, 0.0], atol=1e-3)
    hot = thermal_population(1.0, 1e-6)
    np.testing.assert_allclose(hot.as_array(), [0.5, 0.5], atol=1e-3)
    with pytest.raises(InvalidParameterError):
        thermal_population(-1.0, 1.0)


def test_eto_limits():
    np.testing.assert_allclose(eto(1.0, 1e3).m, [[1.0, 1.0], [0.0, 0.0]], atol=1e-3)
    np.testing.assert_allclose(eto(1.0, 1e-6).m, [[0.0, 1.0], [1.0, 0.0]], atol=1e-3)


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
    # small drift renormalizes, large drift is a logic-bug signal
    fixed = PopulationVector.from_raw([0.5 + 4e-11, 0.5 + 4e-11])
    assert math.isclose(fixed.p_g + fixed.p_e, 1.0, abs_tol=1e-12)
    with pytest.raises(ConsistencyError):
        PopulationVector.from_raw([0.5 + 1e-8, 0.5 + 1e-8])


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


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(map_params())
@example((1.0, 1e4, 1.0))  # q underflows to 0
@example((1.0, 1e-300, -0.0))
@example((1.0, LN2, 2.0 / 3.0))
def test_build_map_is_the_checked_numpy_map(params):
    omega, beta, lam = params
    m = build_map(ThermalOpParams(omega, beta, lam))
    expected = numpy_map(omega, beta, lam)
    assert m.m.tobytes() == expected.tobytes()  # bitwise, signed zeros included
    assert not m.m.flags.writeable
    assert (m.omega, m.beta) == (omega, beta)
    np.testing.assert_array_equal(GibbsStochasticMatrix(m.m, omega, beta).m, m.m)
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
    gibbs = thermal_population(omega, beta).as_array()
    if np.abs(m @ gibbs - gibbs).max() > tol:
        return None
    return m


# Entry perturbations around the tolerance edges and beyond.
NUDGES = st.sampled_from([0.0, 1e-13, -1e-13, 5e-13, -5e-13, 2e-12, -2e-12, 1e-9, -1e-9, 0.1])


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(map_params(), st.tuples(NUDGES, NUDGES, NUDGES, NUDGES))
@example((1.0, LN2, 1.0), (-1e-13, 0.0, 1e-13, 0.0))  # clipped back into [0, 1]
@example((1.0, LN2, 0.5), (0.0, 0.0, 0.0, -2e-12))  # entry out of range
@example((1.0, LN2, 0.5), (1e-9, 0.0, 0.0, 0.0))  # column sum off
@example((1.0, LN2, 0.5), (1e-13, -1e-13, -1e-13, 1e-13))  # columns sum to 1, Gibbs off
def test_user_matrix_check_matches_numpy(params, nudges):
    omega, beta, lam = params
    m = build_map(ThermalOpParams(omega, beta, lam)).m + np.reshape(nudges, (2, 2))
    expected = numpy_checked(m, omega, beta)
    if expected is None:
        with pytest.raises(InvalidParameterError):
            GibbsStochasticMatrix(m, omega, beta)
    else:
        checked = GibbsStochasticMatrix(m, omega, beta).m
        assert checked.tobytes() == expected.tobytes()
        assert not checked.flags.writeable


@pytest.mark.parametrize(
    "m, omega, beta",
    [
        (np.eye(3), 1.0, 1.0),  # not 2x2
        (np.array([[math.nan, 0.0], [0.0, 1.0]]), 1.0, 1.0),
        (np.array([[1.0, math.nan], [0.0, 1.0]]), 1.0, 1.0),
        (np.eye(2), 0.0, 1.0),
        (np.eye(2), 1.0, math.nan),
    ],
    ids=["shape", "nan-first", "nan-later", "omega-0", "beta-nan"],
)
def test_gibbs_stochastic_matrix_rejects_bad_input(m, omega, beta):
    with pytest.raises(InvalidParameterError):
        GibbsStochasticMatrix(m, omega, beta)


def test_gibbs_stochastic_matrix_rejects_non_gibbs():
    with pytest.raises(InvalidParameterError):
        GibbsStochasticMatrix(np.array([[0.9, 0.3], [0.1, 0.7]]), 1.0, LN2)


@pytest.mark.parametrize("m", [[[math.nan, 0.5], [0.5, 0.5]], [[0.9, 0.5], [0.5, 0.5]]])
def test_stationary_population_rejects_non_stochastic_input(m):
    # both have the off-diagonal entries of a valid map, which alone fix p
    with pytest.raises(InvalidParameterError):
        stationary_population(np.array(m))


def test_stationary_population_of_identity_is_degenerate():
    with pytest.raises(DegenerateCycleError):
        stationary_population(np.eye(2))


def test_scan_fixed_point_at_equal_temperatures():
    rows = eto_vs_thermalization_scan(0.5, [1.0])
    expected = thermal_population(0.5, 1.0).p_e
    np.testing.assert_allclose(rows[0], [1.0, expected, expected], atol=1e-14)


def test_scan_hot_reservoir_inverts_population():
    rows = eto_vs_thermalization_scan(0.5, [1e6])
    assert abs(rows[0, 1] - 1.0 / (1.0 + math.exp(-0.5))) < 1e-3  # inversion, ~0.6225
    assert rows[0, 1] > 0.5
    assert rows[0, 2] < 0.5  # thermalization saturates below 1/2


def test_scan_cold_reservoir_freezes_ground():
    rows = eto_vs_thermalization_scan(0.5, [1e-3])
    assert rows[0, 1] < 1e-3 and rows[0, 2] < 1e-3


def test_scan_rejects_bad_grid():
    with pytest.raises(InvalidParameterError):
        eto_vs_thermalization_scan(0.5, [1.0, -2.0])
    with pytest.raises(InvalidParameterError):
        eto_vs_thermalization_scan(-0.5, [1.0])


# One valid instance of every config dataclass; each float field in turn is
# set to NaN, which must fail at construction rather than later.
VALID_CONFIGS = [
    ThermalOpParams(1.0, 1.0, 0.5),
    OttoConfig(1.0, 0.7, 1.0, 0.5, 1.0, 1.0),
    ThreeStrokeConfig(1.0, 1.0, 0.5, 1.0, 1.0),
    FockTruncation(n_max=30, omega=1.0, beta=1.0),
    ScanSpec(0.3, 0.5, 1.0, "nonmarkov"),
]
NAN_CASES = [
    (cfg, f.name)
    for cfg in VALID_CONFIGS
    for f in dataclasses.fields(cfg)
    if f.type == "float"
]


@pytest.mark.parametrize(
    "cfg,field", NAN_CASES, ids=[f"{type(c).__name__}.{name}" for c, name in NAN_CASES]
)
def test_nan_fields_are_rejected_at_construction(cfg, field):
    with pytest.raises(InvalidParameterError):
        dataclasses.replace(cfg, **{field: math.nan})


def test_bools_are_not_read_as_numbers():
    cfg = OttoConfig(1.0, 0.7, 1.0, 0.5, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        dataclasses.replace(cfg, omega_H=True)
    with pytest.raises(InvalidParameterError):
        ThermalOpParams(1.0, 1.0, True)
    with pytest.raises(InvalidParameterError):
        FockTruncation(n_max=True, omega=1.0, beta=1.0, tail_bound=1.0)
    tmap = tilted_map_otto(cfg)
    with pytest.raises(InvalidParameterError):
        work_moments(tmap, otto_steady_state(cfg), True)
