"""Operator and constant mutation sweep over the safety core and ingest.

Makes one change at a time:

- swaps a comparison: an operator (``<``/``<=``, ``>``/``>=``,
  ``==``/``!=``, ``is``/``is not``), or a comparison passed as a function
  (``operator.lt``/``le``, ``gt``/``ge``, as in ``map(lt, xs, ys)``);
- swaps an arithmetic operator, augmented assignments included
  (``+``/``-``, ``*``/``/``, ``//``/``/``);
- moves an integer constant by -1 or +1;

in (a function named here with the functions nested in it):

- every function of ``scentctl/scheduler.py`` (``SchedulerConfig``'s
  validation included);
- ``simulate.replay``, the loop's two halves ``simulate.sense`` and
  ``simulate.act``, and ``simulate.summarize``;
- ``estimator.classify``;
- ``ingest._batches``, ``_parse_samples``, ``_drop``, ``reject_artifacts``,
  ``clean_hr``, ``compute_baseline``, ``window_features``,
  ``iter_window_features`` and ``FeatureWindow``'s z-values, ``z_hr``,
  ``z_rmssd`` and ``z_sdnn``.

Each mutant is written into a scratch copy of the repository, and the
test files of its module run against it with ``pytest -x`` (the loop
test files for the loop modules, ``test_ingest`` for ``ingest``); a
mutant they do not kill runs against the whole suite. Both runs take
the ``sweep`` hypothesis profile of ``tests/conftest.py``, which draws
the same examples on every run and does not shrink a failing one, so two
sweeps of one tree agree. A mutant that no test kills is a survivor.
Mutants run in parallel, one scratch copy per CPU this process may use,
at most four. The script prints every mutant's outcome in source order,
then the survivors, each marked with its reason when it is a known
equivalent, and exits non-zero when a survivor is not a known equivalent.

Run from the repository root (about 50 minutes on 2 vCPUs):

    python tools/mutation_sweep.py

The file has no ``test_`` prefix, so pytest does not collect it: the
sweep stays outside the tier-1 suite.
"""

from __future__ import annotations

import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LOOP_TESTS = ("tests/test_scheduler.py", "tests/test_simulate.py",
              "tests/test_config_cli.py", "tests/test_golden.py",
              "tests/test_acceptance.py")

# module path -> (the functions to mutate, None for the whole module;
#                 the test files that run first)
TARGETS = {
    "src/scentctl/scheduler.py": (None, LOOP_TESTS),
    "src/scentctl/simulate.py": (("replay", "sense", "act", "summarize"),
                                 LOOP_TESTS),
    "src/scentctl/estimator.py": (("classify",), LOOP_TESTS),
    "src/scentctl/ingest.py": (("_batches", "_parse_samples", "_drop",
                                "reject_artifacts", "clean_hr",
                                "compute_baseline", "window_features",
                                "iter_window_features",
                                "z_hr", "z_rmssd", "z_sdnn"),
                               ("tests/test_ingest.py",)),
}
# A test run that takes longer counts as a kill: a mutant can make a loop
# spin forever. The whole suite takes about 2 minutes on 2 vCPUs.
RUN_TIMEOUT_S = 300
# Each test run gets this much address space: a mutant can also make a
# buffer grow forever, and it must fail there, not exhaust the host.
RUN_MEMORY_BYTES = 2 << 30
# Test runs at once, one scratch copy each: one per CPU this process may
# use (its affinity, which a cpuset narrows), but never more than this.
MAX_WORKERS = 4
# Sets the limit, then becomes pytest: a subprocess preexec_fn is unsafe
# with the sweep's threads.
_LIMITED_PYTEST = ("import os, resource, sys; "
                   "resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2); "
                   "os.execv(sys.executable, [sys.executable, '-m', 'pytest', *sys.argv[2:]])")
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
# arithmetic operators, of expressions and of augmented assignments
ARITH_SWAPS = {ast.Add: (ast.Sub,), ast.Sub: (ast.Add,), ast.Mult: (ast.Div,),
               ast.Div: (ast.Mult, ast.FloorDiv), ast.FloorDiv: (ast.Div,)}

_FILL = ("the columns' fill value: each row kept is written over it, and "
         "the rows never written are cut off at the end")
_KEPT_FILL = ("the kept column's fill value: every row of the column is "
              "written over by a kept run")
_STAND_IN = ("the stand-in context row's timestamp is never read: the first "
             "row's run starts at 0, and only later rows' timestamps are compared")
# (function, mutated code as shown) -> why no test can tell it apart
EQUIVALENT = {
    ("summarize", "gap_ms / 1000.0 / 300"):
        "int() truncates where // floors, which differ only below zero, and "
        "max(..., 0) maps both to bucket 0",
    ("summarize", "gap_ms // 1000.0"):
        "flooring to whole seconds first gives the same 300 s bucket: "
        "floor(floor(g / 1000) / 300) == floor(g / 300000)",
    ("_parse_samples", "stream.count('\\n') + 2"):
        "the columns get one spare row, which is cut off at the end",
    ("_parse_samples", "array('i', [-1]) * size"): _FILL,
    ("_parse_samples", "array('i', [1]) * size"): _FILL,
    ("_parse_samples", "-2"):
        "the last timestamp kept starts below every timestamp either path "
        "compares with it: the batch gate admits no '-', and the row path "
        "refuses a negative timestamp first",
    ("_drop", "array(view.format, [-1]) * (len(view) - len(dropped))"): _KEPT_FILL,
    ("_drop", "array(view.format, [1]) * (len(view) - len(dropped))"): _KEPT_FILL,
    ("iter_window_features", "iter(context or (ContextSample(-1, True, "
                             "ActivityState.SEDENTARY),))"): _STAND_IN,
    ("iter_window_features", "iter(context or (ContextSample(1, True, "
                             "ActivityState.SEDENTARY),))"): _STAND_IN,
}


def _sites(tree: ast.Module, names: tuple[str, ...] | None):
    """(function name, shown node, mutate) in source order: the sites of
    the functions ``names`` holds and of the functions nested in them, each
    shown under its innermost function's name. ``mutate()``
    makes one change and returns the call that undoes it. The shown node
    is the changed comparison, arithmetic expression or augmented
    assignment; for a comparison passed as a function or a constant it is
    the statement's whole expression, or the statement when the constant
    is that expression (``map(lt, ...)`` or ``1`` alone is ambiguous)."""
    sites = []

    def setter(node, field, value):
        def mutate():
            original = getattr(node, field)
            setattr(node, field, value)
            return lambda: setattr(node, field, original)
        return mutate

    def swap_op(node, i):
        def mutate():
            original = node.ops[i]
            node.ops[i] = SWAPS[type(original)]()
            return lambda: node.ops.__setitem__(i, original)
        return mutate

    def visit(node, func, top, statement, chosen):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
            chosen = chosen or func in names
        if isinstance(node, ast.stmt):
            statement = node
        if chosen:
            if isinstance(node, ast.Compare):
                sites.extend((func, node, swap_op(node, i))
                             for i, op in enumerate(node.ops)
                             if type(op) in SWAPS)
            elif (isinstance(node, ast.Name) and node.id in NAME_SWAPS
                  and isinstance(node.ctx, ast.Load)):
                sites.append((func, top, setter(node, "id", NAME_SWAPS[node.id])))
            elif isinstance(node, (ast.BinOp, ast.AugAssign)):
                sites.extend((func, node, setter(node, "op", swap()))
                             for swap in ARITH_SWAPS.get(type(node.op), ()))
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                shown = statement if top is node else top
                sites.extend((func, shown, setter(node, "value", node.value + step))
                             for step in (-1, 1))
        for child in ast.iter_child_nodes(node):
            statement_part = (isinstance(node, ast.stmt)
                              and isinstance(child, ast.expr))
            visit(child, func, child if statement_part else top, statement,
                  chosen)

    visit(tree, None, None, None, names is None)
    return sites


def _run_tests(copy: Path, files: tuple[str, ...]) -> tuple[bool, str]:
    """Run ``files`` in ``copy``; True when they all pass, else the
    first failure, or a timeout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("SCENTCTL_CONFIG", None)
    argv = [sys.executable, "-c", _LIMITED_PYTEST, str(RUN_MEMORY_BYTES),
            "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-profile=sweep",
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
    workers = min(len(os.sched_getaffinity(0)), MAX_WORKERS)
    copies = [work / f"repo{i}" for i in range(workers)]
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    # The mutants are unparsed modules: the unmutated baseline is too.
    baseline = {rel: ast.unparse(ast.parse((ROOT / rel).read_text(encoding="utf-8")))
                for rel in TARGETS}
    for copy in copies:
        # the suite runs tools/cli_ab.py, which imports bench/gen.py
        for name in ("src", "tests", "tools", "bench"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, copy / name)
        for rel, text in baseline.items():
            (copy / rel).write_text(text, encoding="utf-8")

    # (module, its test files, where, function, before, after, mutant source)
    mutants = []
    for rel, (names, files) in TARGETS.items():
        tree = ast.parse((ROOT / rel).read_text(encoding="utf-8"))
        for func, node, mutate in _sites(tree, names):
            before = ast.unparse(node)
            undo = mutate()
            after = ast.unparse(node)
            mutants.append((rel, files, f"{Path(rel).name}:{node.lineno} {func}",
                            func, before, after, ast.unparse(tree)))
            undo()

    free: queue.Queue[Path] = queue.Queue()
    for copy in copies:
        free.put(copy)

    def run(mutant) -> tuple[bool, str, float]:
        rel, files, *_, text = mutant
        copy = free.get()
        try:
            (copy / rel).write_text(text, encoding="utf-8")
            start = time.perf_counter()
            passed, detail = _run_tests(copy, files)
            if passed:
                passed, detail = _run_tests(copy, ("tests",))
            return passed, detail, time.perf_counter() - start
        finally:
            (copy / rel).write_text(baseline[rel], encoding="utf-8")
            free.put(copy)

    survivors = []
    try:
        for files in {files for _, files in TARGETS.values()}:
            passed, detail = _run_tests(copies[0], files)
            if not passed:
                print(f"the unmutated suite fails ({detail}); no sweep",
                      file=sys.stderr)
                return 2
        with ThreadPoolExecutor(len(copies)) as pool:
            for mutant, (passed, detail, seconds) in zip(mutants,
                                                         pool.map(run, mutants)):
                _, _, where, func, before, after, _ = mutant
                outcome = "SURVIVED" if passed else f"killed by {detail}"
                print(f"{where}: {before}  ->  {after}: {outcome} "
                      f"({seconds:.0f} s)", flush=True)
                if passed:
                    survivors.append((where, func, after))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    count = len(mutants)
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
