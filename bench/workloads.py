"""Seeded request streams for the benchmark workloads, and one request's run.

A request is either a ``thermalops.cli.main`` argument vector, whose stdout
is captured, or a README-quickstart sequence of library calls.  The seed
only draws inputs (``--set`` overrides, config parameters, output formats);
nothing is passed to thermalops that a user could not pass.

Requests come in rounds.  Every round holds the same mix of request types,
with stratified draws for the parameters that set a request's cost, shuffled
within the round.  A run of any length therefore sees nearly the same mix on
every seed, which keeps throughput and tail latency comparable across seeds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

OTTO = "otto"
THREE_STROKE = "three_stroke"
THREE_STROKE_ETO = "three_stroke_eto"

# Smallest n_max with thermal tail weight exp(-beta*omega*(n_max + 1)) at or
# below this bound, the micro-report default.
TAIL_BOUND = 1e-10


@dataclass(frozen=True)
class Quickstart:
    """README-quickstart call sequence on one engine configuration.

    ``config`` holds the constructor arguments of ``OttoConfig``
    (omega_H, omega_C, T_H, T_C, lambda_H, lambda_C) or of
    ``ThreeStrokeConfig`` (omega, T_H, T_C, lambda_H, lambda_C).
    """

    engine: str
    config: tuple[float, ...]
    n: int


@dataclass(frozen=True)
class Request:
    argv: Optional[tuple[str, ...]] = None
    quickstart: Optional[Quickstart] = None

    @property
    def label(self) -> str:
        if self.argv is not None:
            return self.argv[0] if self.argv[0] != "verify" else f"verify:{self.argv[2]}"
        return f"quickstart:{self.quickstart.engine}"


def _cli(command: str, fmt: str, **params) -> Request:
    argv = [command, "--format", fmt]
    for key, value in params.items():
        text = repr(float(value)) if isinstance(value, float) else str(value)
        argv += ["--set", f"{key}={text}"]
    return Request(argv=tuple(argv))


def _strata(rng, k: int) -> np.ndarray:
    """One uniform draw from each of ``k`` equal strata of [0, 1), shuffled."""
    return rng.permutation((np.arange(k) + rng.random(k)) / k)


def _table_format(rng) -> str:
    return str(rng.choice(("csv", "json")))


def _gap_scan_round(rng) -> list[Request]:
    eta_C = rng.uniform(0.3, 0.7)
    round_ = [
        _cli(
            "fig4",
            _table_format(rng),
            eta_C=eta_C,
            T_H=rng.uniform(0.5, 2.0),
            eta_min=eta_C * rng.uniform(0.05, 0.4),
            eta_max=eta_C * rng.uniform(0.6, 0.95),
            points=3,
        )
    ]
    for regime, u in zip(("nonmarkov", "markov") * 2, _strata(rng, 4)):
        eta_C = rng.uniform(0.3, 0.7)
        round_.append(
            _cli(
                "sweep",
                _table_format(rng),
                eta=eta_C * rng.uniform(0.1, 0.9),
                eta_C=eta_C,
                T_H=rng.uniform(0.5, 2.0),
                regime=regime,
                omega_lo=10.0 ** rng.uniform(-3.0, -1.0),
                omega_hi=10.0 ** rng.uniform(0.5, 1.5),
                points=50 + int(151 * u),
            )
        )
    return round_


def _window(rng, top_decade: float, points: int) -> dict:
    """fig5/fig6 parameters; the gap window reaches up to 10**top_decade * T_H.

    Beyond the command's default top gap the single-cycle variance underflows
    and ``intercycle_pcc`` rightly refuses the input.
    """
    eta_C = rng.uniform(0.3, 0.7)
    T_H = rng.uniform(0.5, 2.0)
    return dict(
        eta=eta_C * rng.uniform(0.2, 0.8),
        eta_C=eta_C,
        T_H=T_H,
        omega_lo=T_H * 10.0 ** rng.uniform(-3.0, -1.5),
        omega_hi=T_H * 10.0 ** rng.uniform(0.5, top_decade),
        points=points,
    )


def _markov_threshold(omega: float, T: float) -> float:
    return 1.0 / (1.0 + math.exp(-omega / T))


def _quickstart(rng, engine: str, n: int) -> Request:
    """Engine config with couplings between the Markov threshold and 1."""
    if engine == OTTO:
        T_C = rng.uniform(0.3, 0.8)
        omega_H = rng.uniform(0.3, 3.0)
        omega_C = omega_H * (1.0 - (1.0 - T_C) * rng.uniform(0.2, 0.8))
        config = (
            omega_H,
            omega_C,
            1.0,
            T_C,
            rng.uniform(_markov_threshold(omega_H, 1.0), 1.0),
            rng.uniform(_markov_threshold(omega_C, T_C), 1.0),
        )
    else:
        omega = rng.uniform(0.3, 2.0)
        T_C = rng.uniform(0.35, 0.85)
        if engine == THREE_STROKE_ETO:
            lam_H = lam_C = 1.0
        else:
            lam_H = rng.uniform(_markov_threshold(omega, 1.0), 1.0)
            lam_C = rng.uniform(_markov_threshold(omega, T_C), 1.0)
        config = (omega, 1.0, T_C, lam_H, lam_C)
    return Request(quickstart=Quickstart(engine, tuple(float(v) for v in config), n))


QUICKSTART_ENGINES = (OTTO,) * 4 + (THREE_STROKE_ETO,) * 2 + (THREE_STROKE,) * 2


def _counting_stats_round(rng) -> list[Request]:
    points = 10 + (31 * _strata(rng, 3)).astype(int)
    round_ = [
        _cli("fig5", _table_format(rng), horizon=horizon, **_window(rng, math.log10(20.0), p))
        for horizon, p in zip(("single_cycle", "infinite"), points)
    ]
    round_.append(_cli("fig6", _table_format(rng), **_window(rng, 1.0, points[2])))
    # N log-uniform on [1, 1e9], one draw per stratum of the exponent.
    exponents = 9.0 * _strata(rng, len(QUICKSTART_ENGINES))
    for engine, exponent in zip(QUICKSTART_ENGINES, exponents):
        round_.append(_quickstart(rng, engine, max(1, int(round(10.0**exponent)))))
    return round_


def smallest_n_max(beta_omega: float) -> int:
    n_max = max(0, math.ceil(math.log(1.0 / TAIL_BOUND) / beta_omega) - 1)
    while math.exp(-beta_omega * (n_max + 1)) > TAIL_BOUND:
        n_max += 1
    return n_max


DILATION_STRATA = 20


def _dilation_round(rng) -> list[Request]:
    # One point count per round: request cost then follows beta*omega alone,
    # whose strata fix where the tail percentile falls.
    points = int(rng.integers(8, 11))
    round_ = []
    for u in _strata(rng, DILATION_STRATA):
        beta_omega = 0.3 + 2.7 * float(u)
        round_.append(
            _cli(
                "micro-report",
                _table_format(rng),
                beta_omega=beta_omega,
                n_max=smallest_n_max(beta_omega),
                J=rng.uniform(0.5, 2.0),
                points=points,
            )
        )
    return round_


# Suites in a round, fastest to slowest.  The weights put the median inside
# the gibbs-fixed-point block (40-80% of requests) and the 90th percentile in
# the middle of the first-law block (80-100%), not on a boundary between two
# suites, where it would jump between runs.
VERIFY_ROUND = (
    "microscopic-eto",
    "oracle-equivalence",
    "gibbs-fixed-point",
    "gibbs-fixed-point",
    "first-law",
)


def _verify_round(rng) -> list[Request]:
    return [
        Request(argv=("verify", "--suite", suite, "--format", str(rng.choice(("text", "json")))))
        for suite in VERIFY_ROUND
    ]


ROUNDS: dict[str, Callable[[np.random.Generator], list[Request]]] = {
    "gap-scan": _gap_scan_round,
    "counting-stats": _counting_stats_round,
    "dilation": _dilation_round,
    "verify": _verify_round,
}


def _rounds(workload: str, seed: int) -> Iterator[list[Request]]:
    make_round = ROUNDS[workload]
    rng = np.random.default_rng([seed, sorted(ROUNDS).index(workload)])
    while True:
        round_ = make_round(rng)
        yield [round_[i] for i in rng.permutation(len(round_))]


def requests(workload: str, seed: int) -> Iterator[Request]:
    """Endless request stream of ``workload``; the same seed, the same stream."""
    for round_ in _rounds(workload, seed):
        yield from round_


def first_requests(workload: str, seed: int, count: int) -> list[Request]:
    return list(itertools.islice(requests(workload, seed), count))


def first_rounds(workload: str, seed: int, count: int) -> list[Request]:
    """The requests of the first ``count`` rounds of the stream."""
    return [req for round_ in itertools.islice(_rounds(workload, seed), count) for req in round_]


# -- running one request -------------------------------------------------


def run_quickstart(q: Quickstart) -> dict:
    """The README quickstart, through the package namespace."""
    import thermalops as to

    if q.engine == OTTO:
        cfg = to.OttoConfig(*q.config)
        report = to.otto_cycle_report(cfg)
        tmap = to.tilted_map_otto(cfg)
        p1 = to.otto_steady_state(cfg)
    else:
        cfg = to.ThreeStrokeConfig(*q.config)
        report = to.three_stroke_report(cfg)
        tmap = to.tilted_map_three_stroke(cfg)
        p1 = to.three_stroke_steady_state(cfg)
    stats = to.work_moments(tmap, p1, n=q.n)
    mean, var = to.scaled_cumulants(tmap)
    out = {
        "W": report.W,
        "quantum": tmap.quantum,
        "mean": stats.mean,
        "variance": stats.variance,
        "scaled_mean": mean,
        "scaled_variance": var,
        "pcc": to.intercycle_pcc(tmap, p1),
    }
    if q.n <= 12:
        dist = to.enumerate_work_distribution(cfg, q.n)
        out["enum_mean"] = dist.mean()
        out["enum_variance"] = dist.variance()
    return out


def run_request(req: Request):
    """Run one request; returns (exit code, output).

    CLI requests return ``main``'s exit code and the captured stdout;
    quickstart requests return 0 and a dict of the computed quantities.
    Exceptions propagate to the caller, which counts them as failures.
    """
    if req.quickstart is not None:
        return 0, run_quickstart(req.quickstart)
    import thermalops.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = thermalops.cli.main(list(req.argv))
    return code, out.getvalue()


def send(req: Request):
    """One closed-loop request: (exit code or None if it raised, output, seconds)."""
    t0 = time.perf_counter()
    try:
        code, output = run_request(req)
    except (Exception, SystemExit) as exc:
        code, output = None, f"{type(exc).__name__}: {exc}"
    return code, output, time.perf_counter() - t0

