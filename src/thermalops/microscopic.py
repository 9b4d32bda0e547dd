"""Microscopic dilation of the extremal thermal operation.

The ETO population map is recovered from an energy-preserving unitary on
qubit (x) single bosonic mode: prepare the mode in its thermal state, apply
the excitation-swap unitary

    |g,0> -> |g,0>,   |g,n> <-> |e,n-1>   (n = 1 .. n_max),

trace out the mode, and read the induced map on qubit populations.  The
swap is generated exactly by the intensity-dependent Jaynes-Cummings
coupling ``J (sigma+ E- + sigma- E+)`` with number-normalized ladder
operators (every two-dimensional excitation sector completes half a Rabi
period simultaneously at ``J t = pi/2``), and approximately by the standard
Jaynes-Cummings coupling ``J (sigma+ a + sigma- a+)`` whose sector Rabi
frequencies ``J sqrt(n)`` desynchronize on multi-photon states.

Basis ordering is ``|s, n>`` with the qubit index outer (g block then e
block) and the boson number inner.  The mode is resonant with the qubit
gap, so the free Hamiltonian is constant on every coupled sector and the
evolution is computed in the interaction picture; at the truncation
boundary ``|e, n_max>`` has no partner state and is left invariant, which
keeps the operators exactly unitary at the cost of a map error bounded by
the thermal tail weight.  All couplings conserve excitation number, so the
dynamics splits into 2x2 blocks and the exact exponential is assembled
blockwise (a dense-exponential cross-check lives in the test suite).

The same block structure gives the induced qubit map directly:
``jc_evolution_map`` sums ``w_n cos^2(g_n t)`` and ``w_n sin^2(g_n t)``
over the sectors in O(n_max), which makes hot baths with thousands of Fock
levels cheap.  The dense dilation (``jc_unitary``, ``swap_unitary``,
``JointState``, ``induced_population_map``) handles arbitrary unitaries and
is the oracle the sector sums are tested and verified against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConsistencyError, InvalidParameterError, TruncationError
from .maps import _LazyNumpy, eto, require_count, require_descending

INTENSITY_DEPENDENT = "intensity_dependent"
STANDARD = "standard"
JC_KINDS = (INTENSITY_DEPENDENT, STANDARD)

_STATE_TOL = 1e-10

np = _LazyNumpy(globals())


@dataclass(frozen=True)
class FockTruncation:
    """Truncated single-mode description: keep boson numbers 0 .. n_max."""

    n_max: int
    omega: float  # mode quantum, resonant with the qubit gap
    beta: float
    tail_bound: float = 1e-10

    def __post_init__(self):
        require_count(self.n_max, 0, "n_max")
        require_descending(omega=self.omega)
        require_descending(beta=self.beta)
        require_descending(tail_bound=self.tail_bound)
        if self.tail_weight > self.tail_bound:
            raise TruncationError(
                f"thermal tail weight {self.tail_weight:.3e} beyond n_max={self.n_max} "
                f"exceeds the configured bound {self.tail_bound:.3e}"
            )

    @property
    def tail_weight(self) -> float:
        """Probability mass of the untruncated thermal state above n_max."""
        return math.exp(-self.beta * self.omega * (self.n_max + 1))

    @property
    def n_levels(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return 2 * self.n_levels

    def index(self, qubit: int, n: int) -> int:
        return qubit * self.n_levels + n


def boson_thermal_state(tr: FockTruncation) -> np.ndarray:
    """Diagonal weights of the truncated thermal mode state (renormalized)."""
    n = np.arange(tr.n_levels)
    weights = np.exp(-tr.beta * tr.omega * n)
    return weights / weights.sum()


@dataclass(frozen=True, eq=False)
class JointState:
    """Density matrix on the qubit (x) truncated-mode product space."""

    rho: np.ndarray
    n_max: int

    def validate(self):
        if self.rho.shape != (2 * (self.n_max + 1),) * 2:
            raise ConsistencyError(f"joint state has wrong shape {self.rho.shape}")
        if np.abs(self.rho - self.rho.conj().T).max() > _STATE_TOL:
            raise ConsistencyError("joint state is not Hermitian")
        trace = np.trace(self.rho).real
        if abs(trace - 1.0) > _STATE_TOL:
            raise ConsistencyError(f"joint state trace {trace} differs from 1")
        smallest = np.linalg.eigvalsh(self.rho).min()
        if smallest < -_STATE_TOL:
            raise ConsistencyError(f"joint state has negative eigenvalue {smallest:.3e}")


@dataclass(frozen=True, eq=False)
class InducedMap:
    """Qubit population map extracted from a joint unitary evolution.

    ``column_defect`` records how far the columns fall short of summing to
    one; for the operators built here it is bounded by the truncation tail.
    """

    m: np.ndarray
    column_defect: float


def swap_unitary(tr: FockTruncation) -> np.ndarray:
    """Excitation-swap permutation on the truncated product space.

    An involution commuting with the free Hamiltonian: it permutes states
    within degenerate total-excitation sectors; the unpartnered boundary
    vector ``|e, n_max>`` is held fixed.
    """
    u = np.zeros((tr.dim, tr.dim))
    u[tr.index(0, 0), tr.index(0, 0)] = 1.0
    u[tr.index(1, tr.n_max), tr.index(1, tr.n_max)] = 1.0
    for n in range(1, tr.n_levels):
        u[tr.index(1, n - 1), tr.index(0, n)] = 1.0
        u[tr.index(0, n), tr.index(1, n - 1)] = 1.0
    return u


def induced_population_map(u: np.ndarray, tr: FockTruncation) -> InducedMap:
    """Induced qubit population map of ``rho -> Tr_mode[U rho (x) thermal U+]``.

    Columns are obtained by feeding the qubit basis states through the
    dilation and reading the diagonal of the reduced qubit state.
    """
    u = np.asarray(u)
    if u.shape != (tr.dim, tr.dim):
        raise InvalidParameterError(f"unitary has wrong shape {u.shape}")
    weights = boson_thermal_state(tr)
    m = np.empty((2, 2))
    for src in (0, 1):
        joint = np.zeros((tr.dim, tr.dim), dtype=complex)
        block = slice(src * tr.n_levels, (src + 1) * tr.n_levels)
        joint[block, block] = np.diag(weights)
        evolved = u @ joint @ u.conj().T
        JointState(evolved, tr.n_max).validate()
        diag = np.diag(evolved).real
        m[0, src] = diag[: tr.n_levels].sum()
        m[1, src] = diag[tr.n_levels :].sum()
    defect = float(np.abs(m.sum(axis=0) - 1.0).max())
    return InducedMap(m, defect)


def _check_jc(J: float, t: float, kind: str) -> None:
    if kind not in JC_KINDS:
        raise InvalidParameterError(f"kind must be one of {JC_KINDS}, got {kind!r}")
    if not math.isfinite(J):
        raise InvalidParameterError(f"coupling must be finite, got {J}")
    if not 0.0 <= t < math.inf:
        raise InvalidParameterError(f"time must be finite and >= 0, got {t}")


def _sector_angles(J: float, t: float, tr: FockTruncation, kind: str) -> np.ndarray:
    """Rabi angles ``g_n t`` of the sectors n = 1 .. n_max; sector n couples
    ``|g,n>`` with ``|e,n-1>``."""
    if kind == INTENSITY_DEPENDENT:
        return np.full(tr.n_max, J * t)
    return J * np.sqrt(np.arange(1, tr.n_levels)) * t


def jc_unitary(J: float, t: float, tr: FockTruncation, kind: str) -> np.ndarray:
    """Exact interaction-picture propagator of the resonant JC coupling.

    Assembled from the 2x2 excitation sectors: each pair
    (|g,n>, |e,n-1>) rotates with Rabi angle ``g_n t`` where ``g_n = J``
    for the intensity-dependent coupling and ``J sqrt(n)`` for the standard
    one; ``|g,0>`` and the boundary vector ``|e,n_max>`` are uncoupled.
    """
    _check_jc(J, t, kind)
    u = np.eye(tr.dim, dtype=complex)
    for n, theta in enumerate(_sector_angles(J, t, tr, kind).tolist(), start=1):
        i, j = tr.index(0, n), tr.index(1, n - 1)
        c, s = math.cos(theta), math.sin(theta)
        u[i, i] = c
        u[j, j] = c
        u[i, j] = -1j * s
        u[j, i] = -1j * s
    return u


def jc_evolution_map(J: float, t: float, tr: FockTruncation, kind: str) -> InducedMap:
    """Qubit population map induced by the JC evolution for time ``t``.

    Evaluated per excitation sector: with thermal weights ``w_n`` and
    ``c_n, s_n = cos, sin(g_n t)``, the ground column keeps ``w_0`` and
    ``c_n^2 w_n`` and moves ``s_n^2 w_n``; the excited column moves
    ``s_{n+1}^2 w_n`` and keeps ``c_{n+1}^2 w_n`` plus the boundary weight
    ``w_{n_max}``.  Each entry is summed over the same length-``n_levels``
    array, in the same order, as the diagonal of the dense evolution in
    ``induced_population_map(jc_unitary(...))``, so the two agree bit for bit
    wherever numpy's and the C library's sin and cos round alike.
    """
    _check_jc(J, t, kind)
    w = boson_thermal_state(tr)
    theta = _sector_angles(J, t, tr, kind)
    c, s = np.cos(theta), np.sin(theta)
    ground_stay, ground_move = np.empty(tr.n_levels), np.zeros(tr.n_levels)
    excited_move, excited_stay = np.zeros(tr.n_levels), np.empty(tr.n_levels)
    ground_stay[0] = w[0]
    ground_stay[1:] = (c * w[1:]) * c
    ground_move[:-1] = (s * w[1:]) * s
    excited_move[1:] = (s * w[:-1]) * s
    excited_stay[:-1] = (c * w[:-1]) * c
    excited_stay[-1] = w[-1]
    m = np.array(
        [[ground_stay.sum(), excited_move.sum()], [ground_move.sum(), excited_stay.sum()]]
    )
    defect = float(np.abs(m.sum(axis=0) - 1.0).max())
    if not defect <= _STATE_TOL:
        raise ConsistencyError(f"induced map columns miss unit sum by {defect:.3e}")
    return InducedMap(m, defect)


def eto_deviation(
    induced: InducedMap, tr: FockTruncation, target: np.ndarray | None = None
) -> float:
    """Max-entry deviation of an induced map from the exact ETO at the
    truncation's (omega, beta); ``target`` is that ETO's matrix, if the
    caller already has it."""
    if target is None:
        target = eto(tr.omega, tr.beta).m
    return float(np.abs(induced.m - target).max())


def eto_approximation_report(
    J: float, tr: FockTruncation, t_grid: Sequence[float], kinds: Sequence[str] = JC_KINDS
) -> dict[str, np.ndarray]:
    """Deviation from the ETO along a time grid, per coupling kind.

    Returns, for each kind, rows ``(J*t, max-entry deviation)`` sorted by
    ``J*t``.
    """
    times = np.asarray(list(t_grid), dtype=float)
    if times.size == 0:
        raise InvalidParameterError("time grid must be nonempty")
    times = np.sort(times)
    target = eto(tr.omega, tr.beta).m
    report = {}
    for kind in kinds:
        rows = np.empty((times.size, 2))
        for i, t in enumerate(times):
            rows[i] = (J * t, eto_deviation(jc_evolution_map(J, t, tr, kind), tr, target))
        report[kind] = rows
    return report
