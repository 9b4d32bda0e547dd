"""Time each CLI command at its defaults inside one interpreter.

    python tools/inprocess_timings.py SRC [--repeats N]

Imports ``thermalops`` from the source directory ``SRC`` (such as ``src``
of a checkout), runs every command of ``thermalops.cli.main`` at its
default parameters once to warm up, then ``N`` times more, and prints the
best time of each in milliseconds.  Stdout of the commands is captured and
discarded; a nonzero exit code stops the script.  Import and interpreter
start-up are not counted, so two source trees are compared by running the
script on each in turn, alternating which goes first.
"""

import argparse
import contextlib
import io
import sys
import time

COMMANDS = ("fig1", "fig4", "fig5", "fig6", "sweep", "micro-report", "verify")


def best_ms(main, command: str, repeats: int) -> float:
    """Best wall time of ``main([command])`` over ``repeats`` runs after one warm-up."""
    times = []
    for _ in range(repeats + 1):
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = main([command])
            times.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"{command} exited with {code}")
    return 1e3 * min(times[1:])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="directory that holds the thermalops package")
    parser.add_argument("--repeats", type=int, default=20, help="timed runs per command")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from thermalops.cli import main as cli_main

    for command in COMMANDS:
        print(f"{command:<13} {best_ms(cli_main, command, args.repeats):9.3f} ms")


if __name__ == "__main__":
    main()
