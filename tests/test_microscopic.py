import copy
import math
import pickle
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermalops import (
    ConsistencyError,
    FockTruncation,
    InducedMap,
    InvalidParameterError,
    TruncationError,
    eto,
    eto_approximation_report,
    eto_deviation,
    induced_population_map,
    jc_evolution_map,
    jc_unitary,
    swap_map,
)
from thermalops.microscopic import INTENSITY_DEPENDENT, JC_KINDS, STANDARD, _thermal_weights

from oracles import swap_unitary

LN2 = math.log(2.0)


def loose(n_max, beta_omega=1.0):
    return FockTruncation(n_max=n_max, omega=1.0, beta=beta_omega, tail_bound=1.0)


def total_energy(tr):
    """Free Hamiltonian at resonance: omega * (excitations + boson number)."""
    return np.diag([tr.omega * (s + n) for s in (0, 1) for n in range(tr.n_levels)])


def test_truncation_validation():
    with pytest.raises(TruncationError):
        FockTruncation(n_max=12, omega=1.0, beta=1.0)  # tail e^-13 > 1e-10
    with pytest.raises(InvalidParameterError):
        FockTruncation(n_max=-1, omega=1.0, beta=1.0, tail_bound=1.0)
    with pytest.raises(InvalidParameterError):
        FockTruncation(n_max=10, omega=-1.0, beta=1.0, tail_bound=1.0)


def test_truncation_index_is_the_tuple_method():
    # no basis numbering shadows it: index finds a field's position
    assert FockTruncation(2, 1.0, 1.0, 1.0).index(2) == 0


def test_boson_thermal_weights_example():
    weights = _thermal_weights(FockTruncation(2, 1.0, LN2, tail_bound=0.2))
    np.testing.assert_allclose(weights, [4.0 / 7.0, 2.0 / 7.0, 1.0 / 7.0], atol=1e-15)


def test_boson_thermal_vacuum_limit():
    weights = _thermal_weights(FockTruncation(8, 1.0, 200.0))
    np.testing.assert_allclose(weights, [1.0] + [0.0] * 8, atol=1e-12)


def test_boson_thermal_normalization_random():
    rng = np.random.default_rng(25)
    for _ in range(25):
        tr = loose(int(rng.integers(1, 40)), rng.uniform(0.2, 3.0))
        assert math.isclose(np.sum(_thermal_weights(tr)), 1.0, abs_tol=1e-14)


def test_swap_unitary_is_involutive_permutation():
    tr = loose(7)
    u = swap_unitary(tr)
    np.testing.assert_allclose(u @ u, np.eye(tr.dim), atol=1e-15)
    np.testing.assert_allclose(u @ u.T, np.eye(tr.dim), atol=1e-15)


def test_swap_unitary_smallest_case():
    # basis order (g0, g1, e0, e1): |g,1> <-> |e,0>, |g,0> and the boundary
    # vector |e,1> fixed
    tr = loose(1, beta_omega=5.0)
    np.testing.assert_allclose(swap_unitary(tr), np.eye(4)[[0, 2, 1, 3]], atol=1e-15)


def test_swap_commutes_with_total_energy():
    tr = loose(12)
    u = swap_unitary(tr)
    h = total_energy(tr)
    assert np.abs(u @ h - h @ u).max() < 1e-12


def test_jc_evolution_commutes_with_total_energy():
    tr = loose(12)
    h = total_energy(tr)
    for kind in ("intensity_dependent", "standard"):
        u = jc_unitary(0.8, 1.3, tr, kind)
        assert np.abs(u @ h - h @ u).max() < 1e-10
        np.testing.assert_allclose(u @ u.conj().T, np.eye(tr.dim), atol=1e-12)


def test_induced_map_of_identity_is_identity():
    tr = loose(10)
    induced = induced_population_map(np.eye(tr.dim), tr)
    np.testing.assert_allclose(np.array(induced.entries).reshape(2, 2), np.eye(2), atol=1e-14)
    assert induced.column_defect < 1e-12


def test_swap_recovers_eto():
    tr = FockTruncation(60, 1.0, 1.0)
    induced = induced_population_map(swap_unitary(tr), tr)
    assert eto_deviation(induced, tr) < 1e-8
    assert induced.column_defect < 1e-12  # unitarity preserves the trace
    np.testing.assert_allclose(induced.entries, eto(1.0, 1.0).entries, atol=1e-8)


@pytest.mark.parametrize("beta_omega", [1e-3, 0.5, 1.0, 10.0, math.inf])
@pytest.mark.parametrize("n_max", [0, 1, 5, 60, 150])
def test_swap_map_is_the_dense_swap_oracle(n_max, beta_omega):
    tr = loose(n_max, beta_omega)
    dense = induced_population_map(swap_unitary(tr), tr).entries
    floats = swap_map(tr).entries
    assert [type(x) for x in floats] == [float] * 4
    assert max(abs(a - b) for a, b in zip(floats, dense)) <= 2**-52


def test_swap_deviation_decreases_with_truncation():
    devs = [
        eto_deviation(induced_population_map(swap_unitary(loose(n)), loose(n)), loose(n))
        for n in (10, 20, 40, 60)
    ]
    assert all(b <= a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 1e-8


def test_jc_maps_at_zero_time_are_identity():
    tr = loose(15)
    for kind in ("intensity_dependent", "standard"):
        induced = jc_evolution_map(1.0, 0.0, tr, kind)
        np.testing.assert_allclose(np.array(induced.entries).reshape(2, 2), np.eye(2), atol=1e-14)


def test_intensity_dependent_half_rabi_recovers_eto():
    tr = FockTruncation(60, 1.0, 1.0)
    induced = jc_evolution_map(1.0, math.pi / 2.0, tr, "intensity_dependent")
    assert eto_deviation(induced, tr) < 1e-8


def test_standard_jc_never_exact_but_improves_when_colder():
    times = np.linspace(0.05, 3.2, 64)
    minima = []
    for beta_omega in (1.0, 2.0, 4.0):
        tr = loose(60, beta_omega)
        devs = [eto_deviation(jc_evolution_map(1.0, t, tr, "standard"), tr) for t in times]
        minima.append(min(devs))
    assert minima[0] > 1e-3  # visibly imperfect at high temperature
    assert minima[0] > minima[1] > minima[2]


def test_block_propagator_matches_dense_exponential():
    tr = loose(10)
    J, t = 0.7, 1.9
    for kind in ("intensity_dependent", "standard"):
        h = np.zeros((tr.dim, tr.dim))
        for n in range(1, tr.n_levels):
            g = J if kind == "intensity_dependent" else J * math.sqrt(n)
            h[n, tr.n_levels + n - 1] = h[tr.n_levels + n - 1, n] = g
        dense = scipy.linalg.expm(-1j * h * t)
        np.testing.assert_allclose(jc_unitary(J, t, tr, kind), dense, atol=1e-10)


def test_jc_validation():
    tr = loose(5)
    with pytest.raises(InvalidParameterError):
        jc_unitary(1.0, -0.1, tr, "standard")
    with pytest.raises(InvalidParameterError):
        jc_unitary(1.0, 0.1, tr, "dispersive")
    with pytest.raises(InvalidParameterError):
        induced_population_map(np.eye(3), tr)
    bad = [
        (1.0, -0.1, "standard"),
        (1.0, 0.1, "dispersive"),
        (1.0, math.inf, "standard"),
        (1.0, math.nan, "intensity_dependent"),
        (math.inf, 0.0, "standard"),
        (math.nan, 0.1, "intensity_dependent"),
        (1e200, 1e200, "intensity_dependent"),  # J t overflows
        (1e154, 1e154, "standard"),  # J t is finite, J sqrt(5) t is not
    ]
    for J, t, kind in bad:
        for fn in (jc_evolution_map, jc_unitary):
            with pytest.raises(InvalidParameterError):
                fn(J, t, tr, kind)


@pytest.mark.parametrize(
    "u",
    [2.0 * np.eye(4), np.full((4, 4), math.nan), np.diag([math.inf] * 4)],
    ids=["not-unitary", "nan", "inf"],
)
def test_induced_map_rejects_an_evolution_that_loses_the_trace(u):
    with pytest.raises(ConsistencyError, match="unit sum"):
        induced_population_map(u, loose(1))


@pytest.mark.parametrize(
    "u",
    [
        np.full((4, 4), "a"),
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0]],
        np.full((4, 4), "a", dtype=object),
        np.eye(4).astype(str),  # the real part of jc_unitary at t = 0, written out
        np.eye(4).astype(bytes),
        [[str(x) for x in row] for row in np.eye(4)],
        np.eye(4).astype(str).astype(object),
    ],
    ids=[
        "strings",
        "ragged",
        "object-strings",
        "numeric-strings",
        "numeric-bytes",
        "numeric-string-lists",
        "object-numeric-strings",
    ],
)
def test_induced_map_rejects_a_malformed_unitary(u):
    with pytest.raises(InvalidParameterError):
        induced_population_map(u, loose(1))


def test_induced_map_holds_float_entries_through_copy_and_pickle():
    tr = loose(5)
    induced = jc_evolution_map(1.0, 1.2, tr, STANDARD)
    assert list(vars(induced)) == ["entries", "column_defect"]
    assert [type(x) for x in induced.entries] == [float] * 4
    for clone in (copy.deepcopy(induced), pickle.loads(pickle.dumps(induced))):
        assert [x.hex() for x in clone.entries] == [x.hex() for x in induced.entries]
        assert clone.column_defect == induced.column_defect
    array = np.array(induced.entries).reshape(2, 2)
    for m in (array, array.tolist(), tuple(map(tuple, array.tolist()))):
        built = InducedMap(m)
        assert (built.entries, built.column_defect) == (induced.entries, induced.column_defect)
    with pytest.raises(InvalidParameterError):
        InducedMap(np.eye(3))
    with pytest.raises(ConsistencyError, match="unit sum"):
        InducedMap(np.full((2, 2), math.nan))


def test_report_table_shape_and_endpoints():
    tr = loose(30)
    report = eto_approximation_report(1.0, tr, [1.2, 0.0, math.pi / 2.0])
    identity_dev = np.abs(np.eye(2) - np.array(eto(tr.omega, tr.beta).entries).reshape(2, 2)).max()
    for kind in ("intensity_dependent", "standard"):
        rows = report[kind]
        # rows are lists of floats, as the CLI prints them, sorted by Jt
        assert [[type(x) for x in row] for row in rows] == [[float, float]] * 3
        assert [jt for jt, _ in rows] == [0.0, 1.2, math.pi / 2.0]
        # at t = 0 the induced map is the identity, so the deviation is the
        # direct identity-vs-ETO distance
        assert math.isclose(rows[0][1], identity_dev, abs_tol=1e-12)
    assert report["intensity_dependent"][2][1] < 1e-8
    with pytest.raises(InvalidParameterError):
        eto_approximation_report(1.0, tr, [])


def test_zero_temperature_bath_is_the_vacuum():
    # beta = inf once gave the vacuum weight exp(-inf * 0) = nan
    tr = FockTruncation(3, 1.0, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _thermal_weights(tr) == [1.0, 0.0, 0.0, 0.0]
    (row,) = eto_approximation_report(1.0, tr, [math.pi / 2.0])[INTENSITY_DEPENDENT]
    # the swap of the vacuum is the ETO; what is left is cos^2 of the float
    # nearest pi/2, 3.7e-33, the exact model's value at that angle
    assert math.isclose(row[1], math.cos(math.pi / 2.0) ** 2, rel_tol=1e-15)


def mp_jc_map(J, t, tr, kind):
    """Row-major entries of the induced map of the truncated model at the
    float inputs, evaluated with 50 significant digits."""
    with mpmath.workdps(50):
        e = [mpmath.exp(-mpmath.mpf(tr.beta) * tr.omega * n) for n in range(tr.n_levels)]
        total = mpmath.fsum(e)
        w = [v / total for v in e]
        rate = [1 if kind == INTENSITY_DEPENDENT else mpmath.sqrt(n) for n in range(tr.n_levels)]
        s2 = [mpmath.sin(J * r * mpmath.mpf(t)) ** 2 for r in rate]
        sectors = range(1, tr.n_levels)
        return [
            w[0] + mpmath.fsum((1 - s2[n]) * w[n] for n in sectors),
            mpmath.fsum(s2[n] * w[n - 1] for n in sectors),
            mpmath.fsum(s2[n] * w[n] for n in sectors),
            w[-1] + mpmath.fsum((1 - s2[n]) * w[n - 1] for n in sectors),
        ]


# Over 3000 seeded random draws of this domain the worst entry error was
# 3.8e-16 (standard) and 3.6e-16 (intensity-dependent), most of it the
# rounding of the angle J t itself where |sin(2 J t)| is near 1.
@settings(max_examples=150)
@given(
    kind=st.sampled_from(JC_KINDS),
    n_max=st.integers(0, 150),
    beta_omega=st.floats(0.05, 20.0),
    J=st.floats(0.5, 2.0),
    jt=st.one_of(st.sampled_from([0.0, math.pi / 2.0]), st.floats(0.0, 3.2)),
)
@example(kind=STANDARD, n_max=150, beta_omega=0.05, J=1.0, jt=3.2)
@example(kind=INTENSITY_DEPENDENT, n_max=150, beta_omega=0.05, J=1.0, jt=math.pi / 2.0)
def test_sector_map_matches_a_50_digit_evaluation(kind, n_max, beta_omega, J, jt):
    tr = loose(n_max, beta_omega)
    t = jt / J
    m = jc_evolution_map(J, t, tr, kind).entries
    exact = mp_jc_map(J, t, tr, kind)
    assert max(abs(a - b) for a, b in zip(m, exact)) <= 2.0**-51


# J t at rest, at half Rabi (where the intensity-dependent map is the ETO),
# and generic angles where every standard-coupling sector sits elsewhere.
_JT = st.one_of(st.sampled_from([0.0, math.pi / 2.0]), st.floats(0.0, 50.0))


@settings(max_examples=200)
@given(
    kind=st.sampled_from(JC_KINDS),
    n_max=st.integers(0, 120),
    beta_omega=st.floats(0.05, 20.0),
    J=st.floats(0.1, 3.0),
    jt=_JT,
)
@example(kind=STANDARD, n_max=0, beta_omega=1.0, J=1.0, jt=1.2)  # no sector at all
@example(kind=STANDARD, n_max=7, beta_omega=0.05, J=1.0, jt=1.2)  # boundary weight ~ 1/8
@example(kind=INTENSITY_DEPENDENT, n_max=120, beta_omega=0.05, J=1.0, jt=math.pi / 2.0)
def test_closed_form_map_matches_dense_dilation(kind, n_max, beta_omega, J, jt):
    tr = loose(n_max, beta_omega)
    t = jt / J
    closed = jc_evolution_map(J, t, tr, kind)
    dense = induced_population_map(jc_unitary(J, t, tr, kind), tr)
    assert np.abs(np.subtract(closed.entries, dense.entries)).max() <= 1e-15
    assert abs(closed.column_defect - dense.column_defect) <= 1e-15
    assert closed.column_defect <= 1e-12


def joint_state_map(u, tr):
    """The induced map by its definition: evolve the joint density matrix
    ``|s><s| (x) thermal`` densely and sum the diagonal per qubit level."""
    m = np.empty((2, 2))
    for s in (0, 1):
        rho = np.diag(np.kron(np.eye(2)[s], _thermal_weights(tr))).astype(complex)
        diag = np.diag(u @ rho @ u.conj().T).real
        m[:, s] = diag[: tr.n_levels].sum(), diag[tr.n_levels :].sum()
    return m


def test_induced_map_is_the_joint_state_definition():
    rng = np.random.default_rng(2203)
    for n_max in range(1, 81):
        tr = loose(n_max, rng.uniform(0.05, 5.0))
        J, t = rng.uniform(0.1, 3.0), rng.uniform(0.0, 5.0)
        swap = swap_unitary(tr)
        m = np.array(induced_population_map(swap, tr).entries).reshape(2, 2)
        assert (m == joint_state_map(swap, tr)).all()
        z = rng.normal(size=(tr.dim, tr.dim)) + 1j * rng.normal(size=(tr.dim, tr.dim))
        random_u, _ = np.linalg.qr(z)
        jc = [jc_unitary(J, t, tr, kind) for kind in JC_KINDS]
        for u in (*jc, random_u):
            m = np.array(induced_population_map(u, tr).entries).reshape(2, 2)
            assert np.abs(m - joint_state_map(u, tr)).max() <= 1e-15


def test_hot_bath_beyond_the_dense_range():
    # n_max = 5000 would need a 10002 x 10002 complex evolution per column
    tr = FockTruncation(5000, 1.0, 0.005)
    half_rabi = jc_evolution_map(1.0, math.pi / 2.0, tr, INTENSITY_DEPENDENT)
    assert eto_deviation(half_rabi, tr) < 1e-8
    for kind in JC_KINDS:
        induced = jc_evolution_map(1.0, 1.2, tr, kind)
        assert induced.column_defect < 1e-12
        assert min(induced.entries) >= 0.0
