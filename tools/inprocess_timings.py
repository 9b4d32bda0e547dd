"""Time each CLI command at its defaults inside one interpreter.

    python tools/inprocess_timings.py SRC [--repeats N]
    python tools/inprocess_timings.py SRC BASE [--repeats N]

Prints the line count of each module of the ``thermalops`` package under
the source directory ``SRC`` (such as ``src`` of a checkout) and their
total, as ``wc -l`` counts them.  Then imports ``thermalops`` from
``SRC``, runs every command of ``thermalops.cli.main`` at its default
parameters, then ``verify --suite NAME`` for each suite in
``thermalops.verify.SUITES``, then ``fig5`` at its single-cycle horizon,
which the benchmark's fig5 requests send as often as the default infinite
one, then ``fig5`` and ``fig6`` at ``points=10``, where the one
three-stroke point of a table costs the largest share, and ``fig4`` at
``points=3``, the shape of the benchmark's fig4 requests, whose
three-stroke column is one gap search per row, then ``sweep`` with
``regime=markov``, ``sweep`` as JSON and ``sweep`` as JSON with
``regime=markov``, since the benchmark's sweep requests are half Markov and
half JSON, and the last shape is that of most of the slowest tenth of
its gap-scan requests, then
each table command again with every default passed as
``--set KEY=VALUE``, the shape of the benchmark's requests, so that the
cost of reading the arguments shows, then each command with
``--format=FORMAT`` at its default format, a form that only argparse
reads, then 1000 runs of the README quickstart, each on a config and
cycle built anew, the shape of the benchmark's quickstart requests, then
1000 calls of ``cfg.cycle()`` and of ``otto_cycle_report`` on the
quickstart's config, the config-to-cycle path and the report, which reads
the config's floats without a ``Cycle``, and last 1000 calls of
``Cycle.steady_state`` and of ``Cycle.tilted`` on the default fig5 Otto
cycle at one gap.  A cycle keeps ``work()`` and its cell sums after their
first call, so a quickstart run times that first call and the reads that
follow it; neither ``Cycle.* x1000`` line reads what the cycle keeps, so
both time the full call.  Stdout of the commands is captured and
discarded; a nonzero exit code stops the script.  Import and interpreter
start-up are not counted.

With one tree, each run goes once to warm up and ``N`` times more, and the
best time of each is printed in milliseconds.

With a second tree ``BASE`` (such as ``src`` of the parent commit), both
packages are imported, under two names, and each run goes ``N`` times per
tree after a warm-up of each, the trees alternating run by run and taking
turns at going first.  Each line prints the median of the ``N`` paired
ratios ``SRC / BASE`` of the times and, in brackets, their quartiles; the
line counts of both trees are printed side by side.  A host whose speed
drifts moves both runs of a pair alike, so the ratios resolve a few
percent where the best times of separate runs do not.

``BASE`` is also imported a second time, under a third name, and paired
with itself the same way; each line ends with the median of those A/A
ratios.  Two identical trees can read a few percent apart on some lines,
perhaps because each package's objects sit elsewhere in memory, so a ``SRC
/ BASE`` ratio means something only as far as it stands off its line's A/A
ratio.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import pathlib
import statistics
import sys
import time

COMMANDS = ("fig1", "fig4", "fig5", "fig6", "sweep", "micro-report", "verify")
TABLE_SHAPES = (
    ["fig5", "--set", "horizon=single_cycle"],
    ["fig5", "--set", "points=10"],
    ["fig6", "--set", "points=10"],
    ["fig4", "--set", "points=3"],
    ["sweep", "--set", "regime=markov"],
    ["sweep", "--format", "json"],
    ["sweep", "--format", "json", "--set", "regime=markov"],
)


def load(src: str, name: str):
    """The ``thermalops`` package under ``src``, imported as the package ``name``."""
    path = pathlib.Path(src, "thermalops")
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def line_counts(src: str) -> dict[str, int]:
    """``wc -l`` of each module of the package under ``src``, and the total."""
    counts = {
        path.name: path.read_bytes().count(b"\n")
        for path in sorted(pathlib.Path(src, "thermalops").glob("*.py"))
    }
    return {**counts, "total": sum(counts.values())}


def cli_run(main, argv: list[str]):
    """``main(argv)`` with its stdout discarded, as a call of no arguments."""

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {code}")

    return run


def quickstart(to) -> None:
    """The calls of the README's library quickstart, on the package ``to``."""
    cfg = to.OttoConfig.nonmarkov(omega_H=1.0, omega_C=0.7, T_H=1.0, T_C=0.5)
    to.otto_cycle_report(cfg)
    cycle = cfg.cycle()
    p1 = cycle.steady_state()
    to.work_moments(cycle, p1, n=10)
    to.scaled_cumulants(cycle)
    to.intercycle_pcc(cycle, p1)


def runs(package) -> list:
    """``(label, call)`` of every timed run of one imported tree."""
    cli = importlib.import_module(f"{package.__name__}.cli")
    suites = importlib.import_module(f"{package.__name__}.verify").SUITES
    argvs = [[command] for command in COMMANDS]
    argvs += [["verify", "--suite", name] for name in suites]
    argvs += TABLE_SHAPES
    out = [(" ".join(argv), cli_run(cli.main, argv)) for argv in argvs]
    for name, (defaults, _) in cli.COMMANDS.items():
        sets = [arg for key, value in defaults.items() for arg in ("--set", f"{key}={value}")]
        out.append((f"{name} --set x{len(defaults)}", cli_run(cli.main, [name, *sets])))
    for command in COMMANDS:
        argv = [command, f"--format={'text' if command == 'verify' else 'csv'}"]
        out.append((" ".join(argv), cli_run(cli.main, argv)))
    out.append(("README quickstart x1000", lambda: [quickstart(package) for _ in range(1000)]))
    cfg = package.OttoConfig.nonmarkov(omega_H=1.0, omega_C=0.7, T_H=1.0, T_C=0.5)
    out.append(("cfg.cycle() x1000", lambda: [cfg.cycle() for _ in range(1000)]))
    report = package.otto_cycle_report
    out.append(("otto_cycle_report x1000", lambda: [report(cfg) for _ in range(1000)]))
    optimize = importlib.import_module(f"{package.__name__}.optimize")
    cycle = optimize.otto_config_at(0.3, 0.5, 1.0, 1.0, "nonmarkov").cycle()
    out.append(("Cycle.steady_state x1000", lambda: [cycle.steady_state() for _ in range(1000)]))
    out.append(("Cycle.tilted x1000", lambda: [cycle.tilted(0.1) for _ in range(1000)]))
    return out


def seconds(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def best_ms(call, repeats: int) -> float:
    """Best wall time of ``call()`` over ``repeats`` runs after one warm-up."""
    return 1e3 * min([seconds(call) for _ in range(repeats + 1)][1:])


def paired_ratios(call, base, repeats: int) -> list[float]:
    """``repeats`` ratios of the time of ``call()`` to that of ``base()`` run
    next to it, after a warm-up of each; the two take turns at going first."""
    seconds(call), seconds(base)
    ratios = []
    for i in range(repeats):
        if i % 2:
            t, t_base = seconds(call), seconds(base)
        else:
            t_base, t = seconds(base), seconds(call)
        ratios.append(t / t_base)
    return ratios


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="directory that holds the thermalops package")
    parser.add_argument("base", nargs="?", help="a second such directory to pair SRC with")
    parser.add_argument("--repeats", type=int, default=20, help="timed runs per command")
    args = parser.parse_args()
    if args.base is None:
        for name, lines in line_counts(args.src).items():
            print(f"{name:<34} {lines:9d} lines")
        for label, call in runs(load(args.src, "thermalops")):
            print(f"{label:<34} {best_ms(call, args.repeats):9.3f} ms")
        return
    counts, base_counts = line_counts(args.src), line_counts(args.base)
    for name in sorted({*counts, *base_counts} - {"total"}) + ["total"]:
        print(f"{name:<34} {base_counts.get(name, 0):9d} -> {counts.get(name, 0)} lines")
    trees = zip(
        runs(load(args.src, "thermalops")),
        runs(load(args.base, "thermalops_base")),
        runs(load(args.base, "thermalops_again")),
    )
    for (label, call), (_, base), (_, again) in trees:
        q1, median, q3 = statistics.quantiles(paired_ratios(call, base, args.repeats), n=4)
        aa = statistics.median(paired_ratios(again, base, args.repeats))
        print(f"{label:<34} {median:9.3f} ({q1:.3f}-{q3:.3f}) x base, A/A {aa:.3f}")


if __name__ == "__main__":
    main()
