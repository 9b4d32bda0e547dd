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

The same block structure gives the induced qubit map directly, on floats:
``jc_evolution_map`` sums ``w_n cos^2(g_n t)`` and ``w_n sin^2(g_n t)`` over
the sectors in O(n_max), or in O(1) for the intensity-dependent kind, whose
sectors share one angle, and ``swap_map`` sums the weights the swap moves.
The dense pair (``jc_unitary`` and ``induced_population_map``, which reads
the map off ``|U|^2``), the oracle both are tested against, is the only
code of the package that imports numpy, inside the two functions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul
from typing import Callable, Sequence

from .errors import ConsistencyError, InvalidParameterError, TruncationError
from .maps import (
    _Checked,
    _entries_2x2,
    _Frozen,
    _real_grid,
    _require_real,
    _unchecked,
    eto,
    require_count,
    require_descending,
)

INTENSITY_DEPENDENT = "intensity_dependent"
STANDARD = "standard"
JC_KINDS = (INTENSITY_DEPENDENT, STANDARD)

_STATE_TOL = 1e-10


class FockTruncation(_Checked, namedtuple("FockTruncation", "n_max omega beta tail_bound")):
    """Truncated single-mode description: keep boson numbers 0 .. n_max;
    ``omega`` is the mode quantum, resonant with the qubit gap."""

    __slots__ = ()

    def __new__(cls, n_max: int, omega: float, beta: float, tail_bound: float = 1e-10):
        require_count(n_max, 0, "n_max")
        require_descending(omega=omega)
        require_descending(beta=beta)
        require_descending(tail_bound=tail_bound)
        self = tuple.__new__(cls, (n_max, omega, beta, tail_bound))
        if self.tail_weight > tail_bound:
            raise TruncationError(
                f"thermal tail weight {self.tail_weight:.3e} beyond n_max={n_max} "
                f"exceeds the configured bound {tail_bound:.3e}"
            )
        return self

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


def _thermal_weights(tr: FockTruncation) -> list[float]:
    """``exp(-beta omega n)``, n = 0 .. n_max, over their ``math.fsum``; the
    ``n = 0`` term is 1, so ``beta = inf`` is the vacuum, not ``nan``."""
    x = tr.beta * tr.omega
    w = [1.0, *(math.exp(-x * n) for n in range(1, tr.n_levels))]
    total = math.fsum(w)
    return [v / total for v in w]


class InducedMap(_Frozen):
    """Qubit population map extracted from a joint unitary evolution, and how
    far its columns miss unit sum (``column_defect``, at most ``_STATE_TOL``).
    A real 2x2 ``m`` (``maps._entries_2x2``) whose columns pass
    ``_column_defect`` is kept as the row-major floats ``entries``."""

    _FIELDS = ("entries", "column_defect")

    def __init__(self, m: Sequence[Sequence[float]]):
        entries = tuple(_entries_2x2(m))
        self.__dict__.update(entries=entries, column_defect=_column_defect(entries))


def _induced(m: tuple) -> InducedMap:
    """The ``InducedMap`` of row-major entries that pass ``_column_defect``."""
    return _unchecked(InducedMap, {"entries": m, "column_defect": _column_defect(m)})


def _numeric_array(m, expected: str):
    """``m`` as a float array, or complex if it holds a complex number; a
    ragged ``m``, or an entry that is not a number (a string or bytes too),
    raises ``InvalidParameterError``."""
    import numpy as np

    if isinstance(m, np.ndarray) and m.dtype == object:
        m = m.tolist()  # its elements keep their types: a numpy complex one shows
    try:  # complex stays complex: a float conversion would drop the imaginary part
        arr = np.asarray(m)  # float() would parse a string or bytes entry
        if arr.dtype.kind in "OSU" and any(isinstance(x, (str, bytes)) for x in arr.flat):
            raise TypeError("an entry is a string or bytes")
        return np.asarray(arr, dtype=complex if np.iscomplexobj(arr) else float)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged or not numbers
        raise InvalidParameterError(f"expected {expected}: {exc}") from None


def induced_population_map(u, tr: FockTruncation) -> InducedMap:
    """Induced qubit population map of ``rho -> Tr_mode[U rho (x) thermal U+]``.

    ``m[i, s]`` sums the evolved diagonal ``|U[k, (s, n)]|^2 w_n`` over ``n``
    and the block ``k`` of level ``i``; no joint state is formed.  A ragged,
    non-numeric or wrongly shaped ``u`` raises ``InvalidParameterError``, a
    column off unit sum (a non-unitary or non-finite ``u``) ``ConsistencyError``.
    """
    import numpy as np

    u = _numeric_array(u, "a numeric unitary")
    if u.shape != (tr.dim, tr.dim):
        raise InvalidParameterError(f"unitary has wrong shape {u.shape}")
    w = _thermal_weights(tr)
    m = np.empty((2, 2))
    for src in (0, 1):
        diag = np.abs(u[:, src * tr.n_levels : (src + 1) * tr.n_levels]) ** 2 @ w
        m[:, src] = diag[: tr.n_levels].sum(), diag[tr.n_levels :].sum()
    return _induced(tuple(m.ravel().tolist()))


def swap_map(tr: FockTruncation) -> InducedMap:
    """Qubit population map induced by the excitation swap, on floats: every
    weight ``w_n`` changes level but ``w_0`` from g and ``w_{n_max}`` from e."""
    w = _thermal_weights(tr)
    return _induced((w[0], math.fsum(w[:-1]), math.fsum(w[1:]), w[-1]))


def _check_jc(J: float, t: float, tr: FockTruncation, kind: str) -> None:
    if kind not in JC_KINDS:
        raise InvalidParameterError(f"kind must be one of {JC_KINDS}, got {kind!r}")
    if not type(J) is float is type(t):  # a report calls this once per time point
        _require_real(J=J, t=t)
    if not math.isfinite(J):
        raise InvalidParameterError(f"coupling must be finite, got {J}")
    if not 0.0 <= t < math.inf:
        raise InvalidParameterError(f"time must be finite and >= 0, got {t}")
    if not math.isfinite(J * math.sqrt(1 if kind == INTENSITY_DEPENDENT else tr.n_max) * t):
        raise InvalidParameterError(f"Rabi angle overflows at J={J}, t={t}")


def jc_unitary(J: float, t: float, tr: FockTruncation, kind: str):
    """Exact interaction-picture propagator of the resonant JC coupling.

    Assembled from the 2x2 excitation sectors: each pair
    (|g,n>, |e,n-1>) rotates with Rabi angle ``g_n t`` where ``g_n = J``
    for the intensity-dependent coupling and ``J sqrt(n)`` for the standard
    one; ``|g,0>`` and the boundary vector ``|e,n_max>`` are uncoupled.
    """
    import numpy as np

    _check_jc(J, t, tr, kind)
    u = np.eye(tr.dim, dtype=complex)
    for n in range(1, tr.n_levels):
        theta = (J if kind == INTENSITY_DEPENDENT else J * math.sqrt(n)) * t
        i, j = n, tr.n_levels + n - 1  # |g, n> and |e, n - 1>
        c, s = math.cos(theta), math.sin(theta)
        u[i, i] = c
        u[j, j] = c
        u[i, j] = -1j * s
        u[j, i] = -1j * s
    return u


def _sector_kernel(J: float, w: list[float], kind: str) -> Callable[[float], tuple]:
    """The row-major entries of ``jc_evolution_map`` as a function of ``t``,
    for thermal weights ``w``.  The intensity-dependent sectors share the
    angle ``J t``, so their entries are ``c^2`` or ``s^2`` times two weight
    sums formed once, here; the standard kind ``math.fsum``s each entry."""
    if kind == INTENSITY_DEPENDENT:
        from_g, from_e = math.fsum(w[1:]), math.fsum(w[:-1])

        def entries(t: float) -> tuple:
            s, c = math.sin(J * t), math.cos(J * t)
            return w[0] + c * c * from_g, s * s * from_e, s * s * from_g, c * c * from_e + w[-1]

        return entries
    rates, w_g = [J * math.sqrt(n) for n in range(1, len(w))], w[1:]

    def entries(t: float) -> tuple:
        angles = [g * t for g in rates]
        s2, c2 = [s * s for s in map(math.sin, angles)], [c * c for c in map(math.cos, angles)]
        return (
            math.fsum([w[0], *map(mul, c2, w_g)]),
            math.fsum(map(mul, s2, w)),
            math.fsum(map(mul, s2, w_g)),
            math.fsum([*map(mul, c2, w), w[-1]]),
        )

    return entries


def _column_defect(m: tuple) -> float:
    """Column-sum defect of row-major entries; ``ConsistencyError`` past ``_STATE_TOL``."""
    defect = max(abs(m[0] + m[2] - 1.0), abs(m[1] + m[3] - 1.0))
    if not defect <= _STATE_TOL:
        raise ConsistencyError(f"induced map columns miss unit sum by {defect:.3e}")
    return defect


def jc_evolution_map(J: float, t: float, tr: FockTruncation, kind: str) -> InducedMap:
    """Qubit population map induced by the JC evolution for time ``t``.

    Evaluated per excitation sector, on floats: with thermal weights ``w_n``
    and ``c_n, s_n = cos, sin(g_n t)``, the ground column keeps ``w_0`` and
    ``c_n^2 w_n`` and moves ``s_n^2 w_n``; the excited column moves
    ``s_{n+1}^2 w_n`` and keeps ``c_{n+1}^2 w_n`` plus the boundary weight
    ``w_{n_max}``.  The angles are those of ``jc_unitary``, and each entry
    lies within ``2**-51`` of a 50-digit evaluation of the truncated model.
    """
    _check_jc(J, t, tr, kind)
    return _induced(_sector_kernel(J, _thermal_weights(tr), kind)(t))


def _deviation(m: tuple, target: tuple) -> float:
    """Max-entry deviation of row-major entries ``m`` from ``target``."""
    return max(abs(a - b) for a, b in zip(m, target))


def eto_deviation(induced: InducedMap, tr: FockTruncation) -> float:
    """Max-entry deviation of an induced map from the exact ETO at the
    truncation's (omega, beta)."""
    return _deviation(induced.entries, eto(tr.omega, tr.beta).entries)


def eto_approximation_report(
    J: float, tr: FockTruncation, t_grid: Sequence[float], kinds: Sequence[str] = JC_KINDS
) -> dict[str, list[list[float]]]:
    """Deviation from the ETO along a time grid, per coupling kind.

    Returns, for each kind, rows ``[J*t, max-entry deviation]`` sorted by
    ``J*t``.  The weights and the ETO entries are formed once, as floats.
    """
    times = sorted(_real_grid(t_grid, "time grid"))
    if not times:
        raise InvalidParameterError("time grid must be nonempty")
    w, target = _thermal_weights(tr), eto(tr.omega, tr.beta).entries
    report = {}
    for kind in kinds:
        entries, rows = _sector_kernel(J, w, kind), []
        for t in times:
            _check_jc(J, t, tr, kind)
            _column_defect(m := entries(t))
            rows.append([J * t, _deviation(m, target)])
        report[kind] = rows
    return report
