"""Time each CLI command at its defaults inside one interpreter.

    python tools/inprocess_timings.py SRC [--repeats N]

Prints the line count of each module of the ``thermalops`` package under
the source directory ``SRC`` (such as ``src`` of a checkout) and their
total, as ``wc -l`` counts them.  Then imports ``thermalops`` from ``SRC``,
runs every command of ``thermalops.cli.main`` at its default parameters,
then ``verify --suite NAME`` for each suite in ``thermalops.verify.SUITES``,
then ``fig5`` and ``fig6`` at ``points=10``, where the one three-stroke
point of a table costs the largest share, then each table command again
with every default passed as ``--set KEY=VALUE``, the shape of the
benchmark's requests, so that the cost of reading the arguments shows.
Each runs once to warm up and ``N`` times more, and the best time of each
is printed in milliseconds.  Stdout of the commands is captured and
discarded; a nonzero exit code stops the script.  Import and interpreter
start-up are not counted, so two source trees are compared by running the
script on each in turn, alternating which goes first.
"""

import argparse
import contextlib
import io
import pathlib
import sys
import time

COMMANDS = ("fig1", "fig4", "fig5", "fig6", "sweep", "micro-report", "verify")
SMALL_TABLES = (["fig5", "--set", "points=10"], ["fig6", "--set", "points=10"])


def best_ms(main, argv: list[str], repeats: int) -> float:
    """Best wall time of ``main(argv)`` over ``repeats`` runs after one warm-up."""
    times = []
    for _ in range(repeats + 1):
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = main(argv)
            times.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return 1e3 * min(times[1:])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="directory that holds the thermalops package")
    parser.add_argument("--repeats", type=int, default=20, help="timed runs per command")
    args = parser.parse_args()
    total = 0
    for path in sorted(pathlib.Path(args.src, "thermalops").glob("*.py")):
        lines = path.read_bytes().count(b"\n")
        total += lines
        print(f"{path.name:<34} {lines:9d} lines")
    print(f"{'total':<34} {total:9d} lines")
    sys.path.insert(0, args.src)
    from thermalops.cli import COMMANDS as TABLES
    from thermalops.cli import main as cli_main
    from thermalops.verify import SUITES

    runs = [(" ".join(argv), argv) for argv in [[command] for command in COMMANDS]]
    runs += [(f"verify --suite {name}", ["verify", "--suite", name]) for name in SUITES]
    runs += [(" ".join(argv), argv) for argv in SMALL_TABLES]
    for name, (defaults, _) in TABLES.items():
        sets = [arg for key, value in defaults.items() for arg in ("--set", f"{key}={value}")]
        runs.append((f"{name} --set x{len(defaults)}", [name, *sets]))
    for label, argv in runs:
        print(f"{label:<34} {best_ms(cli_main, argv, args.repeats):9.3f} ms")


if __name__ == "__main__":
    main()
