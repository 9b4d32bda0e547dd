"""Tests of the benchmark itself: request streams, checks and tracing.

    python -m pytest bench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, REQUEST, Tracer  # noqa: E402
from workloads import Request, first_requests, run_request  # noqa: E402

# Library warnings (NotAnEngineWarning, overflow at large N) are expected here.
pytestmark = pytest.mark.filterwarnings("ignore")


def ok(req, code, output):
    return checks.classify(req, code, output)[0] == checks.OK


def wrong(req, code, output):
    return checks.classify(req, code, output)[0] == checks.WRONG


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_same_seed_same_requests(workload):
    first = first_requests(workload, 7, 60)
    assert first == first_requests(workload, 7, 60)
    assert first != first_requests(workload, 8, 60)


@pytest.mark.parametrize("workload", sorted(workloads.ROUNDS))
def test_timed_run_size_depends_only_on_seconds(workload):
    from run import timed_rounds

    rounds = timed_rounds(workload, 3)
    assert rounds >= 1
    sizes = {len(workloads.first_rounds(workload, seed, rounds)) for seed in (1, 2, 3)}
    assert len(sizes) == 1
    assert workloads.first_rounds(workload, 5, rounds) == workloads.first_rounds(
        workload, 5, rounds
    )


def test_workloads_draw_different_streams_from_one_seed():
    assert first_requests("gap-scan", 3, 5) != first_requests("counting-stats", 3, 5)


def test_smallest_n_max_meets_tail_bound():
    for beta_omega in np.linspace(0.3, 3.0, 28):
        n = workloads.smallest_n_max(beta_omega)
        assert math.exp(-beta_omega * (n + 1)) <= workloads.TAIL_BOUND
        assert n == 0 or math.exp(-beta_omega * n) > workloads.TAIL_BOUND


def _first(workload, command, fmt="csv"):
    for req in first_requests(workload, 11, 400):
        if req.argv is not None and req.argv[0] == command and fmt in req.argv:
            return req
    raise AssertionError(f"no {command} request")


def _replace_row_value(text, row, col, value):
    """Corrupt one table entry in CSV or JSON output."""
    if text.startswith("{"):
        payload = json.loads(text)
        payload["rows"][row][col] = value
        return json.dumps(payload)
    lines = text.splitlines()
    fields = lines[row + 1].split(",")
    fields[col] = repr(value)
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _fast(req: Request) -> Request:
    """Same request with fewer points, to keep the tests quick."""
    argv = list(req.argv)
    i = argv.index(next(a for a in argv if a.startswith("points=")))
    argv[i] = "points=3" if req.argv[0] != "fig4" else "points=2"
    return Request(argv=tuple(argv))


@pytest.mark.parametrize(
    "workload, command, row, col, value",
    [
        ("gap-scan", "sweep", 1, 1, 0.123),  # W off the closed form
        ("gap-scan", "fig4", 0, 2, 10.0),  # W_markov above W_nonmarkov
        ("counting-stats", "fig5", 0, 2, 0.5),  # single-cycle mean off W
        ("counting-stats", "fig6", -1, 3, 0.1),  # three-stroke PCC off exact
        ("dilation", "micro-report", 2, 2, 1.5),  # deviation above 1
    ],
)
def test_table_checker_rejects_corrupted_output(workload, command, row, col, value):
    req = _fast(_first(workload, command))
    if command == "fig5":
        req = Request(
            argv=tuple(
                "horizon=single_cycle" if a.startswith("horizon=") else a for a in req.argv
            )
        )
    code, output = run_request(req)
    assert ok(req, code, output)
    if row < 0:
        row += len(checks.parse_table(output))
    assert wrong(req, code, _replace_row_value(output, row, col, value))
    corrupted = _replace_row_value(output, row, col, math.nan)
    assert checks.classify(req, code, corrupted)[0] == checks.NONFINITE


def test_verify_checker_rejects_failed_suite():
    req = Request(argv=("verify", "--suite", "microscopic-eto", "--format", "text"))
    code, output = run_request(req)
    assert ok(req, code, output)
    assert wrong(req, code, output.replace("2/2 checks", "1/2 checks"))
    assert checks.classify(req, 2, output)[0] == checks.EXIT
    req_json = Request(argv=("verify", "--suite", "microscopic-eto", "--format", "json"))
    code, output = run_request(req_json)
    assert ok(req_json, code, output)
    assert wrong(req_json, code, output.replace('"ok": true', '"ok": false'))


@pytest.mark.parametrize("engine", [workloads.OTTO, workloads.THREE_STROKE_ETO])
def test_quickstart_checker_rejects_corrupted_output(engine):
    rng = np.random.default_rng(5)
    req = workloads._quickstart(rng, engine, 6)
    code, out = run_request(req)
    assert ok(req, code, out)
    for key, delta in (("mean", 1e-3), ("enum_variance", 1e-3), ("variance", 1e-3)):
        assert wrong(req, code, {**out, key: out[key] * (1.0 + delta)})
    if engine == workloads.THREE_STROKE_ETO:
        assert wrong(req, code, {**out, "pcc": out["pcc"] + 1e-6})
    assert checks.classify(req, code, {**out, "scaled_mean": math.nan})[0] == checks.NONFINITE


def test_large_n_work_moments_fail_as_nonfinite():
    """The known large-N NaN of work_moments is counted, not hidden."""
    q = workloads.Quickstart(workloads.OTTO, (1.0, 0.7, 1.0, 0.5, 1.0, 1.0), 10**9)
    req = Request(quickstart=q)
    code, out = run_request(req)
    assert checks.classify(req, code, out)[0] == checks.NONFINITE


def _traced(reqs):
    outputs = []
    with Tracer() as tracer:
        for i, req in enumerate(reqs):
            tracer.begin_request(i)
            try:
                outputs.append(run_request(req))
            finally:
                tracer.end_request()
    return tracer, outputs


def test_tracing_leaves_cli_stdout_byte_identical():
    reqs = [_fast(_first(w, c, f)) for w, c in (("gap-scan", "fig4"), ("dilation", "micro-report"))
            for f in ("csv", "json")]
    plain = [run_request(r) for r in reqs]
    _, traced = _traced(reqs)
    assert traced == plain
    assert [run_request(r) for r in reqs] == plain  # the wrappers are removed again


def test_self_times_sum_to_at_most_traced_wall_time():
    reqs = [_fast(_first("gap-scan", "fig4")), _fast(_first("counting-stats", "fig6"))]
    reqs += [r for r in first_requests("counting-stats", 2, 11) if r.quickstart][:3]
    tracer, _ = _traced(reqs)
    summary = tracer.summary()
    spans = tracer.spans()
    roots = spans["parent"] < 0
    wall = float((spans["end"][roots] - spans["start"][roots]).sum())
    layer_self = sum(summary[f"{layer}.self_s"] for layer in LAYERS)
    assert 0.0 < layer_self <= wall
    assert layer_self + summary[f"{REQUEST}.self_s"] == pytest.approx(wall, rel=1e-9)
    assert (tracer.self_times()["self"] >= -1e-9).all()
    assert summary["optimize.maximize_work.calls"] == 2 * 2
    assert summary["cli.main.calls"] == 2
    assert len(tracer.optimum_evaluations) == 4


def test_tracer_binds_every_namespace_holding_a_function():
    import thermalops
    import thermalops.maps
    import thermalops.otto

    original = thermalops.maps.build_map
    with Tracer():
        assert thermalops.otto.build_map is thermalops.maps.build_map is thermalops.build_map
        assert thermalops.maps.build_map is not original
    assert thermalops.maps.build_map is original
    assert thermalops.otto.build_map is original

