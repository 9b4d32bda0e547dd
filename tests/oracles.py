"""Oracles shared by the tests: one exact model of the engine cycle, which
every exact evaluation of the work, the heats and the counting statistics
calls; the builders the modules share; the dense excitation swap of the
microscopic dilation; the halving ``maximize_work``; reference copies
of the value checks of ``maps`` and ``otto`` as they read before they were
rewritten to test plain floats in one comparison chain; and a reference
copy of the numpy reader of matrix input (``entries_2x2``).  The copies of
the checks raise the same types and messages for real values.  A value with
no order against a float (a string, None, a Python complex number, an array
of several values) makes them raise a bare ``TypeError`` or ``ValueError``;
a numpy complex number or a one-value array compares with a float, and the
copies may accept it.  The checks now raise ``InvalidParameterError`` for
every value that is not ``real``, whatever the copies do with it.  The
reader's copy returns the same floats and raises the same type, with other
messages, except that it parses string and bytes entries."""

import math
import numbers
import warnings
from collections import namedtuple
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from thermalops import ConsistencyError, InvalidParameterError, optimize
from thermalops import OttoConfig, ThreeStrokeConfig
from thermalops.maps import DRIFT_FAIL, DRIFT_RENORM, STOCHASTIC_TOL

EPS = 2.0**-52  # the spacing of binary64 at 1


def otto_config(a, b, lambda_H=1.0, lambda_C=1.0, t_hot=1.0):
    """Otto config with ``beta_H omega_H = a`` and ``beta_C omega_C = b``."""
    t_cold = 0.9 * min(1.0, a / b) * t_hot
    return OttoConfig(a * t_hot, t_cold * b, t_hot, t_cold, lambda_H, lambda_C)


def three_stroke_config(bh, bc, omega=1.0, lambda_H=1.0, lambda_C=1.0):
    """Three-stroke config with ``beta_H omega = bh`` and ``beta_C omega = bc``."""
    return ThreeStrokeConfig(omega, omega / bh, omega / bc, lambda_H, lambda_C)


def three_stroke_config_at(eta, eta_C, T_H):
    """The ETO three-stroke config at the gap ``three_stroke_omega_for_eta``
    finds: the config path that fig4, fig5 and fig6 evaluate without one."""
    omega = optimize.three_stroke_omega_for_eta(eta, eta_C, T_H)
    return ThreeStrokeConfig.nonmarkov(omega, T_H, (1 - eta_C) * T_H)


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def quiet(fn, *args):
    """``fn(*args)`` with every warning ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args)


# --- the exact model of the engine cycle ---


def _series_mul(a, b):
    """Product of two power series, truncated to their common length."""
    return tuple(sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a)))


def _matmul(left, right):
    """``left @ right`` for 2x2 nested lists of truncated power series."""

    def entry(i, j):
        terms = _series_mul(left[i][0], right[0][j]), _series_mul(left[i][1], right[1][j])
        return tuple(map(sum, zip(*terms)))

    return [[entry(i, j) for j in (0, 1)] for i in (0, 1)]


# Cycle.run of the model: the populations (p_g, p_e) entering the hot, first
# work and cold strokes, the work and the heats absorbed
Walk = namedtuple("Walk", "p1 p2 p3 W Q_H Q_C")
# in energy units, with the scaled variance v1 + 2 c / (1 - mu)
Statistics = namedtuple("Statistics", "W variance scaled_variance pcc")


class ExactCycle(NamedTuple):
    """One engine cycle in exact ``Fraction``s or in ``Decimal``s under
    ``ctx``: heat map ``H``, a work stroke, heat map ``C`` and a closing work
    stroke that keeps the levels.  A map is row-major ``(m00, m01, m10,
    m11)``, ``m[i][j]`` the probability of ``j -> i``.  A work stroke
    releases ``k[j]`` quanta from level ``j``; the first swaps the levels if
    ``flip``, and the three-stroke engine's last releases nothing.

    The counting statistics are those of ``fcs``, the 2x2 case of Flindt et
    al., PRL 100, 150601 (2008), each from two formulations that share no
    code past the maps: ``counting_terms`` (a series product) and ``cells``,
    and ``walk`` (the fixed point) and ``path_pcc`` (two-cycle paths)."""

    hot: tuple
    cold: tuple
    gaps: tuple  # (omega_H, omega_C) of the heat strokes
    first: tuple  # quanta released from (g, e)
    flip: bool
    last: tuple
    quantum: object  # of the model's number type
    ctx: Context

    def tilted(self, weight=None):
        """The tilted cycle map ``T_last C T_first H`` as 2x2 power series:
        ``weight(k)`` is the series of the weight of ``k`` quanta, by default
        ``exp(chi k) = (1, k, k^2 / 2)`` truncated after ``chi^2``."""
        num = type(self.quantum)
        weight = weight or (lambda k: (num(1), num(k), num(k * k) / 2))
        with localcontext(self.ctx):
            zero = tuple(num(0) for _ in weight(0))
            H, C = (
                [[(x, *zero[1:]) for x in m[i : i + 2]] for i in (0, 2)]
                for m in (self.hot, self.cold)
            )
            T1, T2 = ([[weight(k[0]), zero], [zero, weight(k[1])]] for k in (self.first, self.last))
            return _matmul(T2, _matmul(C, _matmul(T1[::-1] if self.flip else T1, H)))

    def walk(self) -> Walk:
        """The steady cycle stroke by stroke: ``p1`` is the fixed point of the
        untilted cycle map, ``p2 = H p1``, ``p3`` is ``p2`` after the first
        work stroke, and ``C p3 = p1``.  ``W`` is the work the two work
        strokes release; each heat is its gap times the change of ``p_e``.
        The rate ``up + down`` sums non-negative products, so couplings far
        below ``10^-prec`` keep their digits."""
        one = type(self.quantum)(1)
        (_, down), (up, _) = ((e[0] for e in row) for row in self.tilted(lambda k: (one,)))
        with localcontext(self.ctx):
            p1 = down / (up + down), up / (up + down)
            h00, h01, h10, h11 = self.hot
            p2 = (h00 * p1[0] + h01 * p1[1], h10 * p1[0] + h11 * p1[1])
            p3 = p2[::-1] if self.flip else p2
            quanta = sum(k * p for k, p in zip(self.first + self.last, p2 + p1))
            Q_H, Q_C = self.gaps[0] * (p2[1] - p1[1]), self.gaps[1] * (p1[1] - p3[1])
            return Walk(p1, p2, p3, self.quantum * quanta, Q_H, Q_C)

    def counting_terms(self):
        """``(m, v1, c, 1 - mu)`` in quanta from the coefficients ``M``,
        ``M'`` and ``M''`` of the series: ``p`` is the fixed point of ``M``,
        ``m = 1ᵀM'p``, ``v1 = 1ᵀM''p - m^2`` and ``c = 1ᵀM'M'p - m^2``."""
        tilted = self.tilted()
        with localcontext(self.ctx):
            m0 = [[e[0] for e in row] for row in tilted]
            d1 = [[e[1] for e in row] for row in tilted]
            d2 = [[2 * e[2] for e in row] for row in tilted]
            g = m0[0][1] + m0[1][0]
            p = (m0[0][1] / g, m0[1][0] / g)
            r1 = [d1[0][j] + d1[1][j] for j in range(2)]
            m = r1[0] * p[0] + r1[1] * p[1]
            v1 = sum((d2[0][j] + d2[1][j]) * p[j] for j in range(2)) - m * m
            c = sum(r1[i] * (d1[i][0] * p[0] + d1[i][1] * p[1] - m * p[i]) for i in range(2))
            return m, v1, c, g

    def statistics(self) -> Statistics:
        """``counting_terms`` in energy units, with the intercycle PCC."""
        m, v1, c, g = self.counting_terms()
        with localcontext(self.ctx):
            q2 = self.quantum * self.quantum
            return Statistics(m * self.quantum, v1 * q2, (v1 + 2 * c / g) * q2, c / v1)

    def cells(self):
        """``(v1, c, 1 - mu)`` in quanta as the cell sums of ``fcs``, each
        with the magnitude that bounds its rounding: the sum of the absolute
        pair terms, times those of ``a_g - a_e`` for ``c``.  Cell ``(a, b)``
        is level ``a`` after the hot stroke and ``b`` after the cold one."""
        h, t, (k1, k2) = self.hot, self.cold, (self.first, self.last)
        with localcontext(self.ctx):
            rows = h[2:] + h[:2] if self.flip else h  # after the first work stroke
            m = [t[2 * i] * rows[j] + t[2 * i + 1] * rows[2 + j] for i in (0, 1) for j in (0, 1)]
            g = m[1] + m[2]
            p = (m[1] / g, m[2] / g)
            x = (h[0] * p[0] + h[1] * p[1], h[2] * p[0] + h[3] * p[1])
            ab = [(a, b) for a in (0, 1) for b in (0, 1)]
            cells = [(x[a] * t[2 * b + (a ^ self.flip)], k1[a] + k2[b], b) for a, b in ab]
            pairs = [(i, j) for n, i in enumerate(cells) for j in cells[n + 1 :]]
            v1 = sum(P * Q * (K - L) ** 2 for (P, K, _), (Q, L, _) in pairs)
            # the pairs of a cell ending in g and one ending in e, oriented g to e
            across = [(1 - 2 * e) * P * Q * (K - L) for (P, K, e), (Q, L, f) in pairs if e != f]
            shift = (k2[1] - k2[0]) * (t[3] - t[2]) * (-1 if self.flip else 1)
            gap = -(h[3] - h[2]) * ((k1[1] - k1[0]) + shift)
            gap_scale = (abs(h[3]) + abs(h[2])) * (
                abs(k1[1] - k1[0]) + abs(k2[1] - k2[0]) * (abs(t[3]) + abs(t[2]))
            )
            c_scale = gap_scale * sum(abs(term) for term in across)
            return (v1, v1), (gap * sum(across), c_scale), (g, g)

    def path_pcc(self):
        """The intercycle PCC over the paths of two cycles from the steady
        state, whose weights are those of one-cycle paths: the covariance of
        the two cycles' work over the variance of one, centred."""
        strokes = (self.hot, self.first, self.flip), (self.cold, self.last, False)
        with localcontext(self.ctx):

            def branches(src):
                """(end, probability, work quanta) of every path of one cycle."""
                paths = [(src, type(self.quantum)(1), 0)]
                for heat, k, flip in strokes:
                    paths = [(t, p * heat[2 * t + s], dk) for s, p, dk in paths for t in (0, 1)]
                    paths = [(s ^ flip, p, dk + k[s]) for s, p, dk in paths]
                return paths

            one = {src: branches(src) for src in (0, 1)}
            up = sum(prob for end, prob, _ in one[0] if end == 1)
            down = sum(prob for end, prob, _ in one[1] if end == 0)
            start = (down / (up + down), up / (up + down))
            two = [
                (start[s] * p * p2, k, k2)
                for s in (0, 1)
                for e, p, k in one[s]
                for _, p2, k2 in one[e]
            ]
            mean1 = sum(w * k for w, k, _ in two)
            mean2 = sum(w * k2 for w, _, k2 in two)
            var1 = sum(w * (k - mean1) ** 2 for w, k, _ in two)
            return sum(w * (k - mean1) * (k2 - mean2) for w, k, k2 in two) / var1

    def cumulant_gf(self, p, n, chi):
        """``G_N(chi) = ln(1ᵀ M(chi)^N p)`` by binary powering, with ``chi``
        per unit of work and ``p`` a ``PopulationVector``; decimals only."""
        with localcontext(self.ctx):
            chi, power = Decimal(chi), None
            m = self.tilted(lambda k: ((chi * k * self.quantum).exp(),))
            while n:
                if n & 1:
                    power = m if power is None else _matmul(power, m)
                n >>= 1
                m = _matmul(m, m) if n else m
            (a, b), (c, d) = ((e[0] for e in row) for row in power)
            p_g, p_e = Decimal(p.p_g), Decimal(p.p_e)
            return ((a * p_g + b * p_e) + (c * p_g + d * p_e)).ln()


def config_cycle(cfg, prec=60) -> ExactCycle:
    """The model of a config's binary64 fields at ``prec`` digits: each heat
    map is ``[[1 - l q, l], [l q, 1 - l]]`` with ``q = exp(-omega / T)``."""
    otto, ctx = isinstance(cfg, OttoConfig), Context(prec=prec)
    with localcontext(ctx):
        w_H, w_C = map(Decimal, (cfg.omega_H, cfg.omega_C) if otto else (cfg.omega,) * 2)

        def heat(w, T, lam):
            q, lam = (-w / Decimal(T)).exp(), Decimal(lam)
            return 1 - lam * q, lam, lam * q, 1 - lam

        hot, cold = heat(w_H, cfg.T_H, cfg.lambda_H), heat(w_C, cfg.T_C, cfg.lambda_C)
        if otto:
            return ExactCycle(hot, cold, (w_H, w_C), (0, 1), False, (0, -1), w_H - w_C, ctx)
        return ExactCycle(hot, cold, (w_H, w_C), (-1, 1), True, (0, 0), w_H, ctx)


def float_cycle(cycle, prec=None) -> ExactCycle:
    """The model of a ``Cycle``'s float entries, each read exactly: as
    ``Fraction``s, or as ``Decimal``s for arithmetic at ``prec`` digits."""
    num = Fraction if prec is None else Decimal
    hot, first, cold, *last = cycle.strokes
    quantum = Fraction(cycle.quantum)  # every release is a whole number of quanta
    closing = last[0].released if last else (0.0, 0.0)
    k1, k2 = (tuple(int(Fraction(w) / quantum) for w in r) for r in (first.released, closing))
    maps = (tuple(map(num, m.entries)) for m in (hot, cold))
    gaps = num(hot.omega), num(cold.omega)
    ctx = Context() if prec is None else Context(prec=prec)
    return ExactCycle(*maps, gaps, k1, first.flip, k2, num(cycle.quantum), ctx)


def conditioning(cfg) -> float:
    """Relative condition number of the Otto ``q_H - q_C`` under relative
    errors in ``a = omega_H / T_H`` and ``b = omega_C / T_C``, at 50 digits:
    ``(a q_H + b q_C) / |q_H - q_C|``, ``(a + b) / |a - b|`` as ``a -> b``."""
    with localcontext(Context(prec=50)):
        a = Decimal(cfg.omega_H) / Decimal(cfg.T_H)
        b = Decimal(cfg.omega_C) / Decimal(cfg.T_C)
        q_H, q_C = (-a).exp(), (-b).exp()
        return math.inf if q_H == q_C else float((a * q_H + b * q_C) / abs(q_H - q_C))


def exact_work(cfg, prec=60):
    """``W`` of the walk of the config's model at ``prec`` digits."""
    return config_cycle(cfg, prec).walk().W


def exact_counting_terms(cycle):
    """The cell sums of the cycle's float entries as exact rationals."""
    return float_cycle(cycle).cells()


def exact_work_and_scale(cfg):
    """The three-stroke config's ``W`` at 60 digits and the conditioning
    scale of its closed form ``-omega (r_H + mu_H r_C) / (1 + mu_H mu_C)``,
    ``r = l (1 - q)`` and ``mu = (1 - l) - l q``: the terms it adds, each by
    magnitude, over its denominator.  ``mu`` is a difference, so its two
    terms count too."""
    model = config_cycle(cfg)
    (_, l_H, lq_H, s_H), (_, l_C, lq_C, s_C) = model.hot, model.cold
    with localcontext(model.ctx):
        den = 1 + (s_H - lq_H) * (s_C - lq_C)
        scale = model.quantum * ((l_H - lq_H) + (s_H + lq_H) * (l_C - lq_C)) / den
    return model.walk().W, scale


def swap_unitary(tr):
    """Excitation-swap permutation on the truncated product space, in the
    basis ``|s, n>`` at ``s * n_levels + n``.

    An involution commuting with the free Hamiltonian: it permutes states
    within degenerate total-excitation sectors; the unpartnered boundary
    vector ``|e, n_max>`` is held fixed.
    """
    u = np.zeros((tr.dim, tr.dim))
    u[0, 0] = u[-1, -1] = 1.0  # |g, 0> and |e, n_max>
    for n in range(1, tr.n_levels):
        g, e = n, tr.n_levels + n - 1  # |g, n> and |e, n - 1>
        u[e, g] = u[g, e] = 1.0
    return u


def real(*values) -> bool:
    """Whether every value is a ``numbers.Real`` (bools included), the
    values the reference copies stand for."""
    return all(isinstance(v, numbers.Real) for v in values)


def population_vector(p_g, p_e):
    """The fields ``PopulationVector(p_g, p_e)`` holds, or its raise."""
    in_range = 0.0 <= p_g <= 1.0 and 0.0 <= p_e <= 1.0  # NaN fails
    if not in_range or isinstance(p_g, bool) or isinstance(p_e, bool):
        raise InvalidParameterError(f"populations must lie in [0, 1], got ({p_g}, {p_e})")
    if abs(p_g + p_e - 1.0) > DRIFT_RENORM:
        raise InvalidParameterError(
            f"populations must sum to 1 within {DRIFT_RENORM}, got sum {p_g + p_e}"
        )
    return p_g, p_e


def _real(x) -> float:
    if type(x) is not float and isinstance(x, numbers.Complex) and not isinstance(x, numbers.Real):
        raise TypeError(f"{x!r} is complex")
    return float(x)


def from_raw(values):
    """``PopulationVector.from_raw(values)``: every value converted, the
    drifts taken with ``max``, then the constructor's checks again.  Its
    ``float`` parses a string or bytes and reads a one-value array, which
    ``from_raw`` rejects as not real."""
    try:
        p_g, p_e = map(_real, values)
    except (TypeError, ValueError, OverflowError) as exc:  # float(10**400) overflows
        raise InvalidParameterError(f"expected two real populations: {exc}") from None
    overshoot = max(0.0, -p_g, -p_e, p_g - 1.0, p_e - 1.0)
    drift = max(overshoot, abs(p_g + p_e - 1.0))
    if drift > DRIFT_FAIL:
        raise ConsistencyError(
            f"population drift {drift:.3e} exceeds {DRIFT_FAIL}: "
            f"raw values ({p_g}, {p_e})"
        )
    if overshoot > 0.0:
        p_g = min(max(p_g, 0.0), 1.0)
        p_e = min(max(p_e, 0.0), 1.0)
    if drift > DRIFT_RENORM:
        total = p_g + p_e
        p_g, p_e = p_g / total, p_e / total
    return population_vector(p_g, p_e)


def gibbs_stochastic_entries(m00, m01, m10, m11, q):
    """``maps._gibbs_stochastic_entries``, with ``min``/``max`` over the
    entries and the larger residual taken on every call."""
    entries = (m00, m01, m10, m11)
    lo, hi = min(entries), max(entries)
    if lo < -STOCHASTIC_TOL or hi > 1.0 + STOCHASTIC_TOL:
        raise InvalidParameterError("matrix entries must lie in [0, 1]")
    if lo < 0.0 or hi > 1.0:
        entries = tuple(min(max(x, 0.0), 1.0) for x in entries)
        m00, m01, m10, m11 = entries
    cols = (m00 + m10, m01 + m11)
    if not (abs(cols[0] - 1.0) <= STOCHASTIC_TOL and abs(cols[1] - 1.0) <= STOCHASTIC_TOL):
        raise InvalidParameterError(f"columns must sum to 1 within {STOCHASTIC_TOL}, got {cols}")
    g_g, g_e = 1.0 / (1.0 + q), q / (1.0 + q)
    residual = max(abs(m00 * g_g + m01 * g_e - g_g), abs(m10 * g_g + m11 * g_e - g_e))
    if residual > STOCHASTIC_TOL:
        raise InvalidParameterError(
            f"Gibbs populations are not a fixed point (residual {residual:.3e})"
        )
    return entries


def _overflows(x) -> bool:
    """Whether ``x`` is a real that no float holds: ``float(10**400)`` overflows."""
    if isinstance(x, numbers.Real):
        try:
            float(x)
        except OverflowError:
            return True
    return False


def require_descending(**values):
    vals = tuple(values.values())
    for a, b in zip(vals, vals[1:] + (0.0,)):
        if isinstance(a, bool) or not a > b or _overflows(a):
            raise InvalidParameterError(f"need {' > '.join(values)} > 0, got {vals}")


def require_unit_interval(**values):
    for name, v in values.items():
        if isinstance(v, bool) or not 0.0 <= v <= 1.0:
            raise InvalidParameterError(f"{name} must lie in [0, 1], got {v}")


def thermal_op_params(omega, beta, lam):
    """The fields ``ThermalOpParams(omega, beta, lam)`` holds, or its raise."""
    require_descending(omega=omega)
    require_descending(beta=beta)
    require_unit_interval(lam=lam)
    return omega, beta, lam


def engine_config(names, n_gaps, fields):
    """``EngineConfig._checked`` on ``fields`` named ``names``, of which the
    first ``n_gaps`` are the gaps: the fields, or the raise."""
    cfg = dict(zip(names, fields))
    require_descending(**{name: cfg[name] for name in names[:n_gaps]})
    require_descending(T_H=cfg["T_H"], T_C=cfg["T_C"])
    require_unit_interval(lambda_H=cfg["lambda_H"], lambda_C=cfg["lambda_C"])
    for name in (names[0], "T_H"):
        if cfg[name] == math.inf:
            raise InvalidParameterError(f"{name} must be finite, got inf")
    return tuple(fields)


def numeric_array(m, expected):
    """``maps._numeric_array`` as it read matrix input through numpy, before
    ``maps`` read it in pure Python: its ``float`` parses a string or bytes."""
    if isinstance(m, np.ndarray) and m.dtype == object:
        m = m.tolist()  # its elements keep their types: a numpy complex one shows
    try:  # complex stays complex: a float conversion would drop the imaginary part
        return np.asarray(m, dtype=complex if np.iscomplexobj(m) else float)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged or not numbers
        raise InvalidParameterError(f"expected {expected}: {exc}") from None


def entries_2x2(m):
    """``maps._entries_2x2`` as it read through ``numeric_array``."""
    arr = numeric_array(m, "a real 2x2 matrix")
    if arr.dtype != float or arr.shape != (2, 2):
        raise InvalidParameterError(f"expected a real 2x2 matrix, got {arr.dtype} {arr.shape}")
    return arr.ravel().tolist()


def halving_bracket(pred, lo, hi):
    """The final bracket of plain halving for the point where ``pred`` turns
    false: each midpoint replaces the end whose side it is on, until the
    midpoint rounds onto an end or 2100 halvings are spent."""
    for _ in range(2100):
        mid = 0.5 * lo + 0.5 * hi
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if pred(mid) else (lo, mid)
    return lo, hi


def bisection_maximize_work(spec):
    """``optimize.maximize_work`` as it read before regula falsi: plain
    halving of the window on the sign of the slope of ``ln W``, each gap
    checked on the scans' one loop, ``_otto_scan``, and no warning.  The same
    ``OptimumRecord``; ``evaluations`` counts the window's ends and one per
    halving."""
    slope = optimize._log_work_slope(spec.regime)
    signs = []

    def rising(omega_H):
        (value,) = optimize._otto_scan(*spec[:4], (omega_H,), lambda *g: slope(*g[2:4]))
        signs.append(value > 0.0)
        return signs[-1]

    lo, hi = spec.omega_lo, spec.omega_hi
    if not rising(lo):
        omega_H = lo
    elif rising(hi):
        omega_H = hi
    else:
        lo, hi = halving_bracket(rising, lo, hi)
        omega_H = 0.5 * lo + 0.5 * hi
    W = optimize.work_at(spec.eta, spec.eta_C, spec.T_H, omega_H, spec.regime)
    return optimize.OptimumRecord(omega_H, W, signs[:2] == [True, False], len(signs))
