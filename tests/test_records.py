"""Record semantics of the public types.  The value types are named tuples:
equal fields give equal objects with equal hashes, fields cannot be
assigned, copies and pickles are equal, and a checked type checks again in
``_replace``.  ``GibbsStochasticMatrix``, ``Cycle`` and ``InducedMap``
compare by identity and keep every field through a copy or a pickle."""

import copy
import math
import pickle

import numpy as np
import pytest

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
    ThermalOpParams,
    ThreeStrokeConfig,
    WorkDistribution,
    WorkStatistics,
    WorkStroke,
    eto,
)
from thermalops.verify import CheckRecord

LN2 = math.log(2.0)
PV = PopulationVector(0.75, 0.25)
PV_REPR = "PopulationVector(p_g=0.75, p_e=0.25)"

# (build, repr) of one instance of each value type; the reprs are pinned,
# since error texts such as ScanSpec's embed them
VALUE_TYPES = {
    PopulationVector: (lambda: PopulationVector(0.75, 0.25), PV_REPR),
    ThermalOpParams: (
        lambda: ThermalOpParams(1.0, 2.0, 0.5),
        "ThermalOpParams(omega=1.0, beta=2.0, lam=0.5)",
    ),
    WorkStroke: (
        lambda: WorkStroke(1.0, 0.5),
        "WorkStroke(omega_in=1.0, omega_out=0.5, flip=False)",
    ),
    OttoConfig: (
        lambda: OttoConfig(1.0, 0.5, 1.0, 0.25, 1.0, 0.5),
        "OttoConfig(omega_H=1.0, omega_C=0.5, T_H=1.0, T_C=0.25, lambda_H=1.0, lambda_C=0.5)",
    ),
    ThreeStrokeConfig: (
        lambda: ThreeStrokeConfig(0.5, 1.0, 0.25, 1.0, 0.5),
        "ThreeStrokeConfig(omega=0.5, T_H=1.0, T_C=0.25, lambda_H=1.0, lambda_C=0.5)",
    ),
    CycleReport: (
        lambda: CycleReport(PV, PV, PV, 0.25, 0.5, -0.25, 0.5),
        f"CycleReport(p1={PV_REPR}, p2={PV_REPR}, p3={PV_REPR}, "
        "W=0.25, Q_H=0.5, Q_C=-0.25, eta=0.5)",
    ),
    WorkStatistics: (
        lambda: WorkStatistics(10, 0.5, 0.25, 0.5),
        "WorkStatistics(n=10, mean=0.5, variance=0.25, ratio=0.5)",
    ),
    WorkDistribution: (
        lambda: WorkDistribution(1, 0.5, ((-0.5, 0.25), (0.0, 0.5), (0.5, 0.25))),
        "WorkDistribution(n=1, quantum=0.5, support=((-0.5, 0.25), (0.0, 0.5), (0.5, 0.25)))",
    ),
    ScanSpec: (
        lambda: ScanSpec(0.25, 0.5, 1.0, "markov"),
        "ScanSpec(eta=0.25, eta_C=0.5, T_H=1.0, regime='markov', omega_lo=0.001, omega_hi=20.0)",
    ),
    OptimumRecord: (
        lambda: OptimumRecord(1.5, 0.25, True, 58),
        "OptimumRecord(omega_H_star=1.5, W_star=0.25, converged=True, evaluations=58)",
    ),
    FockTruncation: (
        lambda: FockTruncation(2, 1.0, 1.0, 1.0),
        "FockTruncation(n_max=2, omega=1.0, beta=1.0, tail_bound=1.0)",
    ),
    CheckRecord: (
        lambda: CheckRecord("first-law", "otto", 0.5, 1.0),
        "CheckRecord(suite='first-law', check='otto', observed=0.5, bound=1.0)",
    ),
}
CHECKED = [
    PopulationVector,
    ThermalOpParams,
    OttoConfig,
    ThreeStrokeConfig,
    ScanSpec,
    FockTruncation,
    WorkDistribution,
]


IDENTITY_TYPES = {
    GibbsStochasticMatrix: (
        lambda: GibbsStochasticMatrix(np.array([[0.75, 0.5], [0.25, 0.5]]), 1.0, LN2),
        "GibbsStochasticMatrix(entries=(0.75, 0.5, 0.25, 0.5), omega=1.0, "
        "beta_omega=0.6931471805599453)",
    ),
    Cycle: (
        lambda: Cycle((eto(LN2, 1.0), WorkStroke(LN2, LN2, flip=True), eto(LN2, 2.0))),
        "Cycle(strokes=(GibbsStochasticMatrix(entries=(0.5, 1.0, 0.5, 0.0), "
        "omega=0.6931471805599453, beta_omega=0.6931471805599453), "
        "WorkStroke(omega_in=0.6931471805599453, omega_out=0.6931471805599453, flip=True), "
        "GibbsStochasticMatrix(entries=(0.75, 1.0, 0.25, 0.0), "
        "omega=0.6931471805599453, beta_omega=1.3862943611198906)))",
    ),
    InducedMap: (
        lambda: InducedMap(np.array([[0.75, 0.5], [0.25, 0.5]])),
        "InducedMap(entries=(0.75, 0.5, 0.25, 0.5), column_defect=0.0)",
    ),
}


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_types_are_named_tuples(cls):
    build, text = VALUE_TYPES[cls]
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and hash(a) == hash(b)
    assert a == tuple(a) and cls._make(a) == a  # a plain tuple of the fields
    assert repr(a) == text
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], b[0])
    with pytest.raises(AttributeError):
        a.extra = 1.0  # slotted: no instance dict either
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is cls and clone == a and hash(clone) == hash(a)


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_replace_runs_the_checks(cls):
    # every numeric field in turn set to NaN and to True; _replace builds
    # through _make, which the checked types route through __new__
    record = VALUE_TYPES[cls][0]()
    numeric = [name for name, v in zip(record._fields, record) if type(v) in (float, int)]
    assert numeric
    for name in numeric:
        for bad in (math.nan, True):
            with pytest.raises(InvalidParameterError):
                record._replace(**{name: bad})
    assert record._replace() == record


@pytest.mark.parametrize("cls", IDENTITY_TYPES, ids=lambda cls: cls.__name__)
def test_identity_types_keep_their_fields_through_copies(cls):
    build, text = IDENTITY_TYPES[cls]
    a, b = build(), build()
    assert repr(a) == repr(b) == text
    assert a == a and a != b  # by identity
    name = cls._FIELDS[-1]
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(b, name))
    with pytest.raises(AttributeError):
        delattr(a, name)
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is cls and clone is not a and repr(clone) == text
