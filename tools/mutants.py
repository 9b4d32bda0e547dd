"""Sample mutants of named ``thermalops`` modules and report which survive Tier-1.

    python tools/mutants.py MODULE [MODULE ...] [--count N] [--seed S] [--timeout SECONDS]

A mutant changes one operator inside a function of a module under
``src/thermalops``: it swaps ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
``!=``, ``is`` and ``is not``, ``+`` and ``-``, ``*`` and ``/`` or ``and``
and ``or``, drops a ``not``, or turns a ``raise`` into ``pass``.  The sites
are found with ``ast``.  The mutated node, parenthesized, is written over
its own source span, so every other line keeps its text and number.  ``N``
sites of each module (all of them when ``N`` is 0 or at least their number;
default 20) are drawn with ``random.Random(S)`` (default 12345), the same
ones on every run of the same source.

The checkout that holds this script, without ``.git``, is copied once into
a temporary directory, removed at the end; the checkout itself is never
written.  The tests that fail on the unmutated copy are found first and
deselected, so only a test that passes without the mutant can kill it; a
copy whose suite does not run stops the sampler.  The mutants then run one
after another on that copy, each Tier-1 with ``-x``, the mutated module's
own test file first, under a timeout of ``SECONDS`` (default 300).  A run
that fails or times out kills the mutant.

Each survivor is printed as ``file:line`` with its mutation, and marked
``equivalent`` when it is on the allow-list ``EQUIVALENT``: mutants that no
test can kill, because they do not change what the code computes, or
change only a search's path and no result or stated bound, each with its
reason.  The last lines give each module's score: mutants killed
over mutants sampled, with the equivalent survivors left out of both.
Needs only the standard library and the pytest that runs Tier-1.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import random
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = pathlib.Path("src", "thermalops")
SWAPS = {
    ast.Lt: (ast.LtE, "<"),
    ast.LtE: (ast.Lt, "<="),
    ast.Gt: (ast.GtE, ">"),
    ast.GtE: (ast.Gt, ">="),
    ast.Eq: (ast.NotEq, "=="),
    ast.NotEq: (ast.Eq, "!="),
    ast.Is: (ast.IsNot, "is"),
    ast.IsNot: (ast.Is, "is not"),
    ast.Add: (ast.Sub, "+"),
    ast.Sub: (ast.Add, "-"),
    ast.Mult: (ast.Div, "*"),
    ast.Div: (ast.Mult, "/"),
    ast.And: (ast.Or, "and"),
    ast.Or: (ast.And, "or"),
}

# (module, the mutated line, stripped, the swap) -> why no test can kill the
# mutant: each is a fast path, or a guard, whose other branch gives the same
# result at the one value where the swap changes the branch taken, a
# search's step rule that moves only the points the search evaluates, or a
# tolerance check at a value that no float difference it compares can take
_FAST = "takes the slow path, which accepts it and builds the same"
_STALL = (
    "a step onto the midpoint counts as a stall, so the safeguard may halve sooner;"
    " the result and the bound of four steps per halving hold, only the path moves"
)
EQUIVALENT = {
    (
        "maps",
        "if not (type(p_g) is float is type(p_e) and 0.0 <= p_g <= 1.0 and 0.0 <= p_e <= 1.0):",
        "<=  ->  <",
    ): f"PopulationVector: a float population of exactly 0 or 1 {_FAST} vector",
    ("maps", "and 0.0 <= p_g <= 1.0", "<=  ->  <"): (
        f"from_raw: a float population of exactly 0 or 1 {_FAST} vector"
    ),
    ("maps", "and 0.0 <= p_e <= 1.0", "<=  ->  <"): (
        f"from_raw: a float population of exactly 0 or 1 {_FAST} vector"
    ),
    ("maps", "and abs(p_g + p_e - 1.0) <= DRIFT_RENORM", "<=  ->  <"): (
        f"from_raw: a drift of exactly DRIFT_RENORM {_FAST} vector"
    ),
    (
        "maps",
        "if not (0.0 <= m00 <= 1.0 and 0.0 <= m01 <= 1.0"
        " and 0.0 <= m10 <= 1.0 and 0.0 <= m11 <= 1.0):",
        "<=  ->  <",
    ): "_gibbs_stochastic_entries: an entry of exactly 0 or 1 is neither rejected nor clipped",
    (
        "maps",
        "if overshoot > 0.0:  # min and max keep a NaN, which the constructor rejects",
        ">  ->  >=",
    ): "from_raw: at an overshoot of 0 the clamp changes no value, and keeps a NaN",
    ("optimize", "if grid[1] < lo or grid[-2] > hi:", "<  ->  <="): (
        "_logspace: an inner point equal to lo is clamped to itself"
    ),
    ("optimize", "if grid[1] < lo or grid[-2] > hi:", ">  ->  >="): (
        "_logspace: an inner point equal to hi is clamped to itself"
    ),
    ("optimize", "and 0.0 < eta < eta_C < 1.0", "<  ->  <="): (
        "ScanSpec and three_stroke_omega_for_eta: at eta_C <= 1, eta_C = 1 gives T_C = 0,"
        " which fails the chain, so the named checks raise as before (the swaps at"
        " 0 < eta and eta < eta_C are killed)"
    ),
    ("optimize", "and T_H > (1.0 - eta_C) * T_H > 0.0", "*  ->  /"): (
        "ScanSpec: (1 - eta_C) / T_H < T_H needs T_H > 2**-27, where (1 - eta_C) * T_H"
        f" lies in (0, T_H) too; any other spec {_FAST} spec"
    ),
    ("optimize", "and T_H > (1.0 - eta_C) * T_H > 0.0", "-  ->  +"): (
        f"ScanSpec: (1 + eta_C) * T_H is never below T_H, so every spec {_FAST} spec"
    ),
    ("optimize", "and T_H > (T_C := (1.0 - eta_C) * T_H) > 0.0", "-  ->  +"): (
        "three_stroke_omega_for_eta: (1 + eta_C) * T_H is never below T_H, so every"
        f" call {_FAST} T_C"
    ),
    (
        "optimize",
        "if type(eta) is float is type(eta_C) is type(T_H) and 0.0 < eta <= eta_C < 1.0:",
        "<=  ->  <",
    ): f"_otto_scan: at eta = eta_C, a float scan {_FAST} T_C and couplings",
    ("optimize", "stalls = 0 if hi <= mid or lo >= mid else stalls + 1", "<=  ->  <"): (
        f"_bisect: {_STALL}"
    ),
    ("optimize", "stalls = 0 if hi <= mid or lo >= mid else stalls + 1", ">=  ->  >"): (
        f"_bisect: {_STALL}"
    ),
    **{
        (module, f"and 0.0 <= {field} <= 1.0", "<=  ->  <"): (
            f"{config}: a float coupling of exactly 0 or 1 {_FAST} config"
        )
        for module, config in (("otto", "OttoConfig"), ("three_stroke", "ThreeStrokeConfig"))
        for field in ("lambda_H", "lambda_C")
    },
    (
        "otto",
        "if max(abs(self.lambda_H - lam_H), abs(self.lambda_C - lam_C)) > _REGIME_TOL:",
        ">  ->  >=",
    ): (
        "_require_regime: a coupling within 1e-12 of the regime's (1, or in [1/2, 1]) differs"
        " from it by a multiple of 2**-54, never by the float 1e-12, which has bits to 2**-92"
    ),
    ("microscopic", "if not defect <= _STATE_TOL:", "<=  ->  <"): (
        "_column_defect: a column sum within 1e-10 of 1 differs from 1 by a multiple of"
        " 2**-53, never by the float 1e-10, which has bits to 2**-86"
    ),
}


class Mutant:
    """One mutation: the source span it replaces, the text it puts there, the
    operator swapped (``swap``) and the expression before and after it."""

    def __init__(self, module: str, node: ast.AST, text: str, swap: str, detail: str, line: str):
        self.module, self.text, self.swap, self.detail, self.line = module, text, swap, detail, line
        self.span = (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset)
        self.outcome = None

    @property
    def where(self) -> str:
        return f"{PACKAGE / self.module}.py:{self.span[0]}"

    @property
    def reason(self) -> str | None:
        """Why the mutant is equivalent, if it is on the allow-list."""
        return EQUIVALENT.get((self.module, self.line, self.swap))

    def apply(self, source: str) -> str:
        lines = source.splitlines(keepends=True)
        first, col, last, end_col = self.span
        head = "".join(lines[: first - 1]) + lines[first - 1][:col]
        return head + self.text + lines[last - 1][end_col:] + "".join(lines[last:])


def mutants(module: str) -> list[Mutant]:
    """Every mutation of ``module`` inside a function, in source order; none
    inside an f-string, whose nodes carry no usable source span."""
    source = (ROOT / PACKAGE / f"{module}.py").read_text()
    lines = source.splitlines()
    found = []

    def add(node, mutated, swap: str, before, after) -> None:
        text = "pass" if mutated is None else f"({ast.unparse(mutated)})"
        detail = f"{ast.unparse(before)}  ->  {ast.unparse(after)}"
        found.append(Mutant(module, node, text, swap, detail, lines[node.lineno - 1].strip()))

    def visit(node, in_function: bool) -> None:
        if isinstance(node, ast.JoinedStr):
            return
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.Lambda))
        if in_function and isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    new, symbol = SWAPS[type(op)]
                    ops = [*node.ops[:i], new(), *node.ops[i + 1 :]]
                    left, right = operands[i], operands[i + 1 : i + 2]
                    swap = f"{symbol}  ->  {SWAPS[new][1]}"
                    before = ast.Compare(left, [op], right)
                    after = ast.Compare(left, [new()], right)
                    add(node, ast.Compare(node.left, ops, node.comparators), swap, before, after)
        elif in_function and isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
            new, symbol = SWAPS[type(node.op)]
            mutated = type(node)(**{**vars(node), "op": new()})
            add(node, mutated, f"{symbol}  ->  {SWAPS[new][1]}", node, mutated)
        elif in_function and isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            add(node, node.operand, "drop not", node, node.operand)
        elif in_function and isinstance(node, ast.Raise):
            add(node, None, "raise  ->  pass", node, ast.Pass())
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(ast.parse(source), False)
    return found


def sample(modules: list[str], count: int, seed: int) -> list[Mutant]:
    """``count`` mutants of each module (all when ``count`` is 0), seeded."""
    rng = random.Random(seed)
    drawn = []
    for module in modules:
        pool = mutants(module)
        if 0 < count < len(pool):
            pool = sorted(rng.sample(pool, count), key=lambda m: m.span)
        drawn.extend(pool)
    return drawn


def copy_tree(dest: pathlib.Path) -> pathlib.Path:
    """The checkout, without its history and caches, as ``dest``: the tests
    read the README and the benchmark's files too."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", "*.pyc", ".hypothesis", ".pytest_cache")
    return pathlib.Path(shutil.copytree(ROOT, dest, ignore=ignore))


def pytest(tree: pathlib.Path, args: list[str], timeout: float):
    """``python -m pytest`` on the copy ``tree``: its return code (None on a
    timeout) and output."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
    try:
        run = subprocess.run(
            argv, cwd=tree, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, ""
    return run.returncode, run.stdout


def known_failures(tree: pathlib.Path, timeout: float) -> list[str]:
    """The ids of the tests that fail on the unmutated ``tree``."""
    code, out = pytest(tree, ["-rf"], timeout)
    if code is None:
        raise SystemExit("the unmutated suite timed out; raise --timeout")
    if code not in (0, 1):  # 1: tests failed; anything else: the suite did not run
        raise SystemExit(f"the unmutated suite exited with {code}:\n{out[-2000:]}")
    return re.findall(r"^FAILED (.+?)(?: - .*)?$", out, flags=re.MULTILINE)


def killed(tree: pathlib.Path, mutant: Mutant, deselect: list[str], timeout: float) -> str:
    """``"killed"``, ``"timeout"`` or ``"survived"``: Tier-1 with ``-x`` on
    ``tree`` with the mutant written in, which is undone afterwards."""
    path = tree / PACKAGE / f"{mutant.module}.py"
    source = path.read_text()
    own = f"tests/test_{mutant.module}.py"
    files = sorted(str(f.relative_to(tree)) for f in (tree / "tests").glob("test_*.py"))
    files.sort(key=lambda f: f != own)  # pytest runs the files in the order given
    mutated = mutant.apply(source)
    compile(mutated, str(path), "exec")  # a mutant that does not parse is a bug here
    try:
        path.write_text(mutated)
        args = ["-x", *(a for test in deselect for a in ("--deselect", test)), *files]
        code, _ = pytest(tree, args, timeout)
    finally:
        path.write_text(source)
    return "timeout" if code is None else "survived" if code == 0 else "killed"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module names under src/thermalops")
    parser.add_argument("--count", type=int, default=20, help="mutants per module; 0 for all")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per Tier-1 run")
    args = parser.parse_args()
    drawn = sample(args.modules, args.count, args.seed)
    work = pathlib.Path(tempfile.mkdtemp(prefix="mutants-"))
    try:
        tree = copy_tree(work / "tree")
        deselect = known_failures(tree, args.timeout)
        print(f"deselected, failing without a mutant: {deselect or 'none'}", flush=True)
        for m in drawn:
            m.outcome = killed(tree, m, deselect, args.timeout)
            if m.outcome == "survived":
                mark = f"equivalent: {m.reason}" if m.reason else "SURVIVED"
                print(f"{m.where}  {m.detail}  {mark}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for module in args.modules:
        done = [m for m in drawn if m.module == module]
        scored = [m for m in done if not (m.outcome == "survived" and m.reason)]
        dead = sum(m.outcome != "survived" for m in scored)
        timeouts = sum(m.outcome == "timeout" for m in scored)
        print(
            f"{module}: {dead} of {len(scored)} killed ({timeouts} by timeout), "
            f"{len(done) - len(scored)} equivalent survivors left out"
        )


if __name__ == "__main__":
    main()
