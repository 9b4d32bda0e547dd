"""Computer-algebra certificates: closed forms of ``src/`` proven as rational
identities in the Boltzmann factors ``q = exp(-beta omega)``, the couplings
and the gaps, each stated once beside its test.

A heat stroke is ``L(l, q) = [[1 - l q, l], [l q, 1 - l]]`` on ``(p_g, p_e)``
(``maps.build_map``); ``l = 1`` is the ETO.  A certificate checks the
algebra, not the floats: each also evaluates its expression in floats and
holds ``src/`` to it, and the numerical tests elsewhere check the rounding.
Tool: SymPy (Meurer et al., PeerJ Comput. Sci. 3, e103, 2017).
"""

import math

import pytest
import sympy as sp

from thermalops import OttoConfig, apply_map, eto, eto_vs_thermalization_scan, thermal_population
from thermalops.maps import _otto_work

q, q_H, q_C, l_H, l_C, p_g, p_e, w_H, w_C = sp.symbols(
    "q q_H q_C l_H l_C p_g p_e w_H w_C", positive=True
)


def heat(coupling, factor):
    """The heat stroke ``L(l, q)``."""
    return sp.Matrix([[1 - coupling * factor, coupling], [coupling * factor, 1 - coupling]])


# the ETO's image of (p_g, p_e): fig1's closed form
ETO_EXCITED = q * p_g
# maps._otto_work's rate, the sum of the off-diagonal entries of L_C L_H
RATE = l_C * q_C * (1 - l_H * q_H) + (1 - l_C) * l_H * q_H + (1 - l_C * q_C) * l_H + l_C * (1 - l_H)
# maps._otto_work: the Otto work per steady cycle at every coupling
OTTO_WORK = (w_H - w_C) * l_H * l_C * (q_H - q_C) / RATE


def test_the_eto_sends_the_ground_population_times_q_to_the_excited_level():
    image = heat(1, q) * sp.Matrix([p_g, p_e])
    assert sp.expand(image[1] - ETO_EXCITED) == 0
    assert sp.expand(image[0] - ((1 - q) * p_g + p_e)) == 0
    # fig1 evaluates the closed form, bit for bit the map applied to the state
    p = thermal_population(0.5, 1.0)
    for t2 in (1e-3, 0.3, 1.0, 7.0, 1e6):
        q_float = math.exp(-0.5 / t2)
        row = eto_vs_thermalization_scan(0.5, [t2])[0]
        assert row[1] == float(ETO_EXCITED.subs({q: q_float, p_g: p.p_g}))
        assert row[1] == apply_map(eto(0.5, 1.0 / t2), p).p_e


def test_the_stroke_walk_gives_the_closed_form_otto_work_at_every_coupling():
    # the walk: p is the fixed point of L_C L_H, the quench keeps the levels,
    # and the work is the energy the hot stroke brings in, W = (w_H - w_C)
    # ((L_H p)_e - p_e), with p_e = up / (up + down) of the cycle map
    hot, cold = heat(l_H, q_H), heat(l_C, q_C)
    cycle = cold * hot
    up, down = cycle[1, 0], cycle[0, 1]
    assert sp.expand(up + down - RATE) == 0
    p = sp.Matrix([down, up]) / (up + down)
    walk = (w_H - w_C) * ((hot * p)[1] - p[1])
    assert sp.simplify(walk - OTTO_WORK) == 0
    values = {w_H: 1.5, w_C: 0.6, q_H: math.exp(-1.5), q_C: math.exp(-0.6 / 0.4)}
    for lam_H, lam_C in ((1.0, 1.0), (0.3, 0.9), (0.8, 0.05)):
        work = float(OTTO_WORK.subs({**values, l_H: lam_H, l_C: lam_C}))
        cfg = OttoConfig(1.5, 0.6, 1.0, 0.4, lam_H, lam_C)
        assert _otto_work(1.5, 0.6, 1.5, 0.6 / 0.4, lam_H, lam_C) == pytest.approx(work, rel=1e-14)
        assert cfg.cycle().work() == pytest.approx(work, rel=1e-14)


def test_the_rate_is_affine_in_each_coupling_with_its_one_sided_ends():
    # so l_H l_C / RATE rises strictly in each coupling: its derivative in
    # l_H is l_C**2 (1 + q_C) / RATE**2, and the same in l_C
    assert sp.diff(RATE, l_H, 2) == 0 and sp.diff(RATE, l_C, 2) == 0
    assert sp.expand(RATE.subs(l_H, 0) - l_C * (1 + q_C)) == 0
    assert sp.expand(RATE.subs(l_C, 0) - l_H * (1 + q_H)) == 0
    ratio = l_H * l_C / RATE
    assert sp.simplify(sp.diff(ratio, l_H) - l_C**2 * (1 + q_C) / RATE**2) == 0
    assert sp.simplify(sp.diff(ratio, l_C) - l_H**2 * (1 + q_H) / RATE**2) == 0
    # the rate is the sum of the off-diagonal entries of the cycle's map
    for lam_H, lam_C in ((1.0, 1.0), (0.3, 0.9), (0.0, 0.7), (0.6, 0.0)):
        cycle = OttoConfig(1.5, 0.6, 1.0, 0.4, lam_H, lam_C).cycle()
        _, down, up, _ = cycle.tilted(0.0)
        values = {q_H: math.exp(-1.5), q_C: math.exp(-0.6 / 0.4), l_H: lam_H, l_C: lam_C}
        assert up + down == pytest.approx(float(RATE.subs(values)), rel=1e-15)
