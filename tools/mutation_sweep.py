"""Comparison-operator mutation sweep over the safety core.

Swaps one comparison operator at a time (``<``/``<=``, ``>``/``>=``,
``==``/``!=``, ``is``/``is not``) in:

- every function of ``scentctl/scheduler.py`` (``SchedulerConfig``'s
  validation included);
- ``simulate._evaluate`` and ``simulate.summarize``;
- ``estimator.classify``.

Each mutant is written into a scratch copy of the repository, and the
loop test files run against it with ``pytest -x``; a mutant they do not
kill runs against the whole suite. A mutant that no test kills is a
survivor. The script prints every mutant's outcome, then the survivors,
each marked with its reason when it is a known equivalent, and exits
non-zero when a survivor is not a known equivalent.

Run from the repository root (about 10 minutes on 2 vCPUs):

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

# module path -> the functions to mutate (None: the whole module)
TARGETS = {
    "src/scentctl/scheduler.py": None,
    "src/scentctl/simulate.py": ("_evaluate", "summarize"),
    "src/scentctl/estimator.py": ("classify",),
}

TEST_FILES = ("tests/test_scheduler.py", "tests/test_simulate.py",
              "tests/test_config_cli.py", "tests/test_golden.py",
              "tests/test_acceptance.py")
DESELECT = (
    # red by design: it would kill every mutant
    "tests/test_acceptance.py::test_a06_smoothing_step_bound_and_convergence",
    # re-runs the goldens on other interpreters; the goldens run here already
    "tests/test_golden.py::test_goldens_reproduce_on_other_interpreters",
)

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
         ast.IsNot: ast.Is}

# (function, mutated comparison) -> why no test can tell it apart
EQUIVALENT = {
    ("summarize", "left >= 1"):
        "a command awaited once leaves a zero Counter entry, which counts "
        "as absent: a later pop of it still scores a stray",
}


def _sites(tree: ast.Module, names: tuple[str, ...] | None):
    """(function name, Compare node, op index) in source order."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Compare)
                and (names is None or func in names)):
            sites.extend((func, node, i) for i, op in enumerate(node.ops)
                         if type(op) in SWAPS)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sites


def _run_tests(copy: Path, files=TEST_FILES) -> tuple[bool, str]:
    """Run ``files`` in ``copy``; True when they all pass, else the
    first failure."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("SCENTCTL_CONFIG", None)
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            *files, *(f"--deselect={test}" for test in DESELECT)]
    proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True,
                          text=True)
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
        passed, detail = _run_tests(copy)
        if not passed:
            print(f"the unmutated suite fails ({detail}); no sweep",
                  file=sys.stderr)
            return 2
        count = 0
        for rel, names in TARGETS.items():
            source = (ROOT / rel).read_text(encoding="utf-8")
            tree = ast.parse(source)
            for func, node, i in _sites(tree, names):
                original = node.ops[i]
                before = ast.unparse(node)
                node.ops[i] = SWAPS[type(original)]()
                after = ast.unparse(node)
                (copy / rel).write_text(ast.unparse(tree), encoding="utf-8")
                node.ops[i] = original
                count += 1
                start = time.perf_counter()
                passed, detail = _run_tests(copy)
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
