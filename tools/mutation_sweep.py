"""Comparison-operator mutation sweep over the safety core and ingest.

Swaps one comparison at a time: an operator (``<``/``<=``, ``>``/``>=``,
``==``/``!=``, ``is``/``is not``), or a comparison passed as a function
(``operator.lt``/``le``, ``gt``/``ge``, as in ``map(lt, xs, ys)``), in:

- every function of ``scentctl/scheduler.py`` (``SchedulerConfig``'s
  validation included);
- ``simulate.replay``, ``simulate._evaluate`` and ``simulate.summarize``;
- ``estimator.classify``;
- ``ingest.parse_samples``, ``reject_artifacts``, ``clean_hr``,
  ``compute_baseline`` and ``window_features``.

Each mutant is written into a scratch copy of the repository, and the
test files of its module run against it with ``pytest -x`` (the loop
test files for the loop modules, ``test_ingest`` for ``ingest``); a
mutant they do not kill runs against the whole suite. A mutant that no test kills is a
survivor. The script prints every mutant's outcome, then the survivors,
each marked with its reason when it is a known equivalent, and exits
non-zero when a survivor is not a known equivalent.

Run from the repository root (about 45 minutes on 2 vCPUs):

    python tools/mutation_sweep.py

The file has no ``test_`` prefix, so pytest does not collect it: the
sweep stays outside the tier-1 suite.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LOOP_TESTS = ("tests/test_scheduler.py", "tests/test_simulate.py",
              "tests/test_config_cli.py", "tests/test_golden.py",
              "tests/test_acceptance.py")

# module path -> (the functions to mutate, None for the whole module;
#                 the test files that run first)
TARGETS = {
    "src/scentctl/scheduler.py": (None, LOOP_TESTS),
    "src/scentctl/simulate.py": (("replay", "_evaluate", "summarize"),
                                 LOOP_TESTS),
    "src/scentctl/estimator.py": (("classify",), LOOP_TESTS),
    "src/scentctl/ingest.py": (("parse_samples", "reject_artifacts",
                                "clean_hr", "compute_baseline",
                                "window_features"),
                               ("tests/test_ingest.py",)),
}
# A test run that takes longer counts as a kill: a mutant can make a loop
# spin forever. The whole suite takes about 2 minutes on 2 vCPUs.
RUN_TIMEOUT_S = 300
DESELECT = (
    # red by design: it would kill every mutant
    "tests/test_acceptance.py::test_a06_smoothing_step_bound_and_convergence",
    # re-runs the goldens on other interpreters; the goldens run here already
    "tests/test_golden.py::test_goldens_reproduce_on_other_interpreters",
)

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
         ast.IsNot: ast.Is}
# comparisons passed as functions (``from operator import lt``)
NAME_SWAPS = {"lt": "le", "le": "lt", "gt": "ge", "ge": "gt"}

# (function, mutated comparison) -> why no test can tell it apart
EQUIVALENT = {
    ("summarize", "left >= 1"):
        "a command awaited once leaves a zero Counter entry, which counts "
        "as absent: a later pop of it still scores a stray",
    ("parse_samples", "n + len(batch) >= len(timestamps)"):
        "it only doubles the columns once more when a batch would fill them "
        "exactly, and the rows never written are cut off at the end",
}


def _sites(tree: ast.Module, names: tuple[str, ...] | None):
    """(function name, shown node, mutate) in source order. ``mutate()``
    swaps one comparison and returns the call that undoes it; the shown
    node is the comparison, or for a comparison passed as a function the
    statement's whole expression (``map(lt, ...)`` alone is ambiguous)."""
    sites = []

    def swap_op(node, i):
        def mutate():
            original = node.ops[i]
            node.ops[i] = SWAPS[type(original)]()
            return lambda: node.ops.__setitem__(i, original)
        return mutate

    def swap_name(node):
        def mutate():
            original = node.id
            node.id = NAME_SWAPS[original]
            return lambda: setattr(node, "id", original)
        return mutate

    def visit(node, func, top):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if names is None or func in names:
            if isinstance(node, ast.Compare):
                sites.extend((func, node, swap_op(node, i))
                             for i, op in enumerate(node.ops)
                             if type(op) in SWAPS)
            elif (isinstance(node, ast.Name) and node.id in NAME_SWAPS
                  and isinstance(node.ctx, ast.Load)):
                sites.append((func, top, swap_name(node)))
        for child in ast.iter_child_nodes(node):
            statement_part = (isinstance(node, ast.stmt)
                              and isinstance(child, ast.expr))
            visit(child, func, child if statement_part else top)

    visit(tree, None, None)
    return sites


def _run_tests(copy: Path, files: tuple[str, ...]) -> tuple[bool, str]:
    """Run ``files`` in ``copy``; True when they all pass, else the
    first failure, or a timeout."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("SCENTCTL_CONFIG", None)
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            *files, *(f"--deselect={test}" for test in DESELECT)]
    try:
        proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, "a timeout"
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode == 0, (failed[0] if failed else proc.stdout[-200:])


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="mutation-sweep-"))
    copy = work / "repo"
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, copy / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, copy / name)

    survivors = []
    try:
        # The mutants are unparsed modules: the unmutated baseline is too.
        for rel in TARGETS:
            source = (ROOT / rel).read_text(encoding="utf-8")
            (copy / rel).write_text(ast.unparse(ast.parse(source)),
                                    encoding="utf-8")
        for files in {files for _, files in TARGETS.values()}:
            passed, detail = _run_tests(copy, files)
            if not passed:
                print(f"the unmutated suite fails ({detail}); no sweep",
                      file=sys.stderr)
                return 2
        count = 0
        for rel, (names, files) in TARGETS.items():
            source = (ROOT / rel).read_text(encoding="utf-8")
            tree = ast.parse(source)
            for func, node, mutate in _sites(tree, names):
                before = ast.unparse(node)
                undo = mutate()
                after = ast.unparse(node)
                (copy / rel).write_text(ast.unparse(tree), encoding="utf-8")
                undo()
                count += 1
                start = time.perf_counter()
                passed, detail = _run_tests(copy, files)
                if passed:
                    passed, detail = _run_tests(copy, ("tests",))
                where = f"{Path(rel).name}:{node.lineno} {func}"
                outcome = "SURVIVED" if passed else f"killed by {detail}"
                print(f"{where}: {before}  ->  {after}: {outcome} "
                      f"({time.perf_counter() - start:.0f} s)", flush=True)
                if passed:
                    survivors.append((where, func, after))
            (copy / rel).write_text(ast.unparse(tree), encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"\n{count} mutants, {len(survivors)} survived")
    unexplained = 0
    for where, func, after in survivors:
        reason = EQUIVALENT.get((func, after))
        unexplained += reason is None
        print(f"  {where}: {after}  "
              f"{'[equivalent: ' + reason + ']' if reason else '[NOT EQUIVALENT]'}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    raise SystemExit(main())
