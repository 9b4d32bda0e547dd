"""thermalops benchmark: one closed-loop client over the CLI and the library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout: the package is imported from ``src/`` next to
this directory; nothing is installed or built.  With ``--trace 0`` the client
sends a fixed list of the workload's seeded requests one after another, sized
to take about ``S`` seconds, and reports the end-to-end metrics.  With ``--trace 1`` it repeats passes over
a fixed list of the same requests for ``S`` seconds, sending each request
once untraced and once traced, and reports the per-layer metrics.  Either
way every output is checked, and the last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the details and provenance, which also go to ``bench/out/``.
"""

import os

# Pin BLAS before numpy loads: the dense products of the dilation workload
# would otherwise depend on how the scheduler places OpenBLAS threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from calibrate import REFERENCE_S, SpeedTrack
from checks import Tally
from tracer import Tracer
from workloads import ROUNDS, first_rounds, send

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

TAIL_PERCENTILE = 90
# Rounds per wall-clock second on the tuning host (see calibrate.py) in its
# slow phase, where the kernel takes about 3.4 ms.  A timed run of S
# seconds sends ceil(S * rate) whole rounds, so for a seed it sends the same
# requests, and gets the same failures, however fast the machine runs.
ROUNDS_PER_SECOND = {"gap-scan": 2.9, "counting-stats": 12.0, "dilation": 2.1, "verify": 1.25}
# A run that is still sending requests after this many seconds stops early,
# so that a much slower program still ends within the 180 s limit per run.
DEADLINE_S = 120.0
SETUP_REPEATS = 11
# Requests per traced pass: whole rounds, so the mix matches the timed runs.
TRACE_ROUNDS = {"gap-scan": 6, "counting-stats": 10, "dilation": 3, "verify": 2}

# Times the import in a fresh interpreter, then probes the calibration kernel
# in that same interpreter, which may run on another CPU than the client.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import thermalops, thermalops.cli\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from calibrate import probe\n"
    "print(t1 - t0, probe())\n"
)


def measure_setup() -> tuple[float, float]:
    """Median import time of ``thermalops`` and its CLI in fresh interpreters.

    Returns (scaled, raw) seconds; each import is scaled by the kernel probe
    of its own interpreter.  The first interpreter is discarded: it may
    compile the bytecode cache.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH)],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        seconds, kernel_s = (float(v) for v in done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_S / kernel_s)
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count OpenBLAS reports, or None if no OpenBLAS is found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_revision": git_revision(),
    }


def timed_rounds(workload: str, seconds: int) -> int:
    return math.ceil(seconds * ROUNDS_PER_SECOND[workload])


def timed_run(args):
    """End-to-end metrics: closed loop over a fixed seeded request list.

    The list is the first ``timed_rounds`` rounds of the seeded stream, so
    ``attempted`` depends only on the workload and S, and ``failed`` only on
    the seed and the program.  Each output is checked as soon as its request
    returns, outside the request's time, so memory holds no outputs and the
    checks do not count as client time.  Timings are scaled to the reference machine speed (see
    ``calibrate``); the raw ones go to the details.
    """
    setup_s, raw_setup_s = measure_setup()
    import thermalops.cli  # noqa: F401  (the client's own import is not timed)

    reqs = first_rounds(args.workload, args.seed, timed_rounds(args.workload, args.seconds))
    tally, speed, raw = Tally(), SpeedTrack(), []
    t0 = time.perf_counter()
    for req in reqs:
        if time.perf_counter() - t0 > DEADLINE_S:
            break
        speed.between_requests(len(raw))
        code, output, seconds = send(req)
        raw.append(seconds)
        tally.add(req, code, output)
    wall_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = [t * speed.factor(i) for i, t in enumerate(raw)]

    def timings(times):
        return (
            statistics.median(times) * 1e3,
            float(np.percentile(times, TAIL_PERCENTILE)) * 1e3,
            len(times) / sum(times),
        )

    p50, tail, rate = timings(scaled)
    metrics = {
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "requests_per_s": (rate, "1/s"),
        "succeeded_fraction": (1.0 - tally.failed / tally.attempted, "fraction"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    raw_p50, raw_tail, raw_rate = timings(raw)
    detail = {
        "tail_percentile": TAIL_PERCENTILE,
        "requests_beyond_tail": sum(t > tail / 1e3 for t in scaled),
        "kernel_median_ms": statistics.median(speed.seconds) * 1e3,
        "raw": {
            "latency_p50_ms": raw_p50,
            "latency_tail_ms": raw_tail,
            "requests_per_s": raw_rate,
            "setup_s": raw_setup_s,
        },
        "client_busy_s": sum(raw),
        "wall_s": wall_s,
        "stopped_at_deadline": len(raw) < len(reqs),
    }
    return tally, metrics, detail, True


def trace_pass(reqs, speed):
    """Send each request once untraced, then once traced.

    Returns the tracer, the traced results, the per-layer metrics and
    whether tracing left every output unchanged.  Per-layer times are raw
    wall times; ``speed`` collects kernel probes to read them against.
    """
    plain, traced = [], []
    with Tracer() as tracer:
        for i, req in enumerate(reqs):
            speed.between_requests(i)
            plain.append(send(req))
            tracer.begin_request(i)
            try:
                traced.append(send(req))
            finally:
                tracer.end_request()
    # Tracing must not change any output.
    identical = all(repr(p[:2]) == repr(t[:2]) for p, t in zip(plain, traced))

    s = tracer.summary()
    evals, converged = tracer.optimum_evaluations, tracer.optimum_converged
    dims = tracer.dense_dims
    ms = lambda key: (s[key] * 1e3, "ms")  # noqa: E731
    count = lambda key: (s[key], "count")  # noqa: E731
    bytes_out = sum(
        len(t[1].encode()) for req, t in zip(reqs, traced) if req.argv and t[0] is not None
    )
    metrics = {
        "cli.main.calls": count("cli.main.calls"),
        "cli.self_ms": ms("cli.self_s"),
        "cli.bytes_out": (bytes_out, "bytes"),
        "optimize.self_ms": ms("optimize.self_s"),
        "optimize.maximize_work.calls": count("optimize.maximize_work.calls"),
        "optimize.work_at.calls": count("optimize.work_at.calls"),
        "optimize.evals_per_optimum": (statistics.mean(evals) if evals else 0.0, "evals"),
        "optimize.converged_fraction": (
            sum(converged) / len(converged) if converged else 0.0,
            "fraction",
        ),
        "otto.self_ms": ms("otto.self_s"),
        "otto.otto_cycle_report.calls": count("otto.otto_cycle_report.calls"),
        "otto.otto_steady_state.calls": count("otto.otto_steady_state.calls"),
        "three_stroke.self_ms": ms("three_stroke.self_s"),
        "three_stroke.three_stroke_report.calls": count("three_stroke.three_stroke_report.calls"),
        "maps.self_ms": ms("maps.self_s"),
        "maps.build_map.calls": count("maps.build_map.calls"),
        "maps.build_map.self_ms": ms("maps.build_map.self_s"),
        "maps.stationary_population.calls": count("maps.stationary_population.calls"),
        "maps.apply_map.calls": count("maps.apply_map.calls"),
        "fcs.self_ms": ms("fcs.self_s"),
        "fcs.work_moments.calls": count("fcs.work_moments.calls"),
        "fcs.work_moments.self_ms": ms("fcs.work_moments.self_s"),
        "fcs.scaled_cumulants.self_ms": ms("fcs.scaled_cumulants.self_s"),
        "fcs.intercycle_pcc.self_ms": ms("fcs.intercycle_pcc.self_s"),
        "fcs.enumerate_work_distribution.self_ms": ms("fcs.enumerate_work_distribution.self_s"),
        "fcs.tilted_map.self_ms": (
            (s["fcs.tilted_map_otto.self_s"] + s["fcs.tilted_map_three_stroke.self_s"]) * 1e3,
            "ms",
        ),
        "fcs.nonfinite_results": (tracer.nonfinite_fcs, "count"),
        "microscopic.self_ms": ms("microscopic.self_s"),
        "microscopic.induced_population_map.calls": count(
            "microscopic.induced_population_map.calls"
        ),
        "microscopic.induced_population_map.self_ms": ms(
            "microscopic.induced_population_map.self_s"
        ),
        "microscopic.jc_unitary.self_ms": ms("microscopic.jc_unitary.self_s"),
        "microscopic.dense_dim_max": (max(dims, default=0), "dim"),
        # Computed, not counted: per call, two joint states each pass through
        # U rho U^+ (two dense complex products, 8 real flops per multiply-add).
        "microscopic.mflop_computed": (sum(32.0 * d**3 for d in dims) / 1e6, "Mflop"),
        "verify.self_ms": ms("verify.self_s"),
        "verify.checks": (tracer.verify_checks, "count"),
        "verify.checks_failed": (tracer.verify_checks_failed, "count"),
        "trace.overhead_s": (sum(t[2] for t in traced) - sum(p[2] for p in plain), "s"),
    }
    return tracer, traced, metrics, identical


def traced_run(args):
    """Per-layer metrics: trace passes over a fixed request list for S seconds.

    The list is the first TRACE_ROUNDS rounds of the seeded stream, so the
    counts repeat exactly for a seed and commit.  Passes repeat until S
    seconds have gone (at least one), and each metric is the lower median
    over passes, a value one pass measured.
    """
    import thermalops.cli  # noqa: F401

    reqs = first_rounds(args.workload, args.seed, TRACE_ROUNDS[args.workload])
    speed = SpeedTrack()
    tracer, traced, first, identical = trace_pass(reqs, speed)
    passes = [first]
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < args.seconds:
        _, again, metrics, ok = trace_pass(reqs, speed)  # only the first pass's spans are kept
        # Every pass must give the same outputs as the first.
        identical &= ok and repr([t[:2] for t in again]) == repr([t[:2] for t in traced])
        passes.append(metrics)
    tally = Tally()
    for req, (code, output, _) in zip(reqs, traced):
        tally.add(req, code, output)
    metrics = {
        key: (statistics.median_low(p[key][0] for p in passes), unit)
        for key, (_, unit) in first.items()
    }
    detail = {
        "passes": len(passes),
        "kernel_median_ms": statistics.median(speed.seconds) * 1e3,
        "traced_wall_s": sum(t[2] for t in traced),
        "spans": len(tracer.span_name),
        "tracing_changed_output": not identical,
        "functions": tracer.summary(),
    }
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}-{args.seed}.npz")
    return tally, metrics, detail, identical


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    if not (SRC / "thermalops" / "__init__.py").is_file():
        print(f"bench: no thermalops source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    warnings.simplefilter("ignore")  # library warnings are not failures

    run = traced_run if args.trace else timed_run
    tally, metrics, detail, consistent = run(args)
    result = {
        "correct": tally.wrong == 0 and consistent,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "provenance": provenance(args),
        "failed_fraction": tally.failed / tally.attempted,
        "outcomes": tally.outcomes,
        "requests_by_type": tally.by_type,
        "failure_reasons": tally.reasons,
        **detail,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in record if k not in ("result", "functions")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
