"""Run `pipeline.py` in-process and report its timings.

Usage, from the checkout root with ``PYTHONPATH=src``::

    python3 bench/tracer.py --mode plain|traced --report FILE -- ARGS...

``plain`` times ``pipeline.main(ARGS)`` and nothing else. ``traced`` first wraps
every public function and method of every imported ``scentctl`` module,
rebinding each name wherever a module imported it, and ``pipeline.run``
itself, so that each call records a span: name, start and end (ns) and
the index of the span that called it, plus a few counts taken from
arguments and results. Spans stay in memory and are written to FILE when
the run returns.

The program itself is not modified. An import failure is not handled:
it propagates, so the traceback reaches stderr and the exit code is 1.
"""

from __future__ import annotations

import argparse
import enum
import functools
import json
import sys
import time
import types

PACKAGE = "scentctl"


def _rows(fn, args, kwargs, result):
    return {"rows": len(result)}


def _kept(fn, args, kwargs, result):
    return {"in": len(args[0]), "out": len(result)}


def _windows(fn, args, kwargs, result):
    return {"windows": len(result)}


# Span name -> hook(fn, args, kwargs, result) returning the span's counts.
HOOKS = {
    "ingest.parse_samples": _rows,
    "ingest.parse_rr_stream": _rows,
    "ingest.parse_hr_stream": _rows,
    "ingest.parse_context_stream": _rows,
    "ingest.reject_artifacts": _kept,
    "ingest.clean_hr": _kept,
    "ingest.window_features": _windows,
}


class Tracer:
    """Collects spans as ``[name, start_ns, end_ns, parent, attrs]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.hook_errors = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                try:
                    span[4] = hook(fn, args, kwargs, result)
                except Exception:  # a count must never change the program
                    self.hook_errors += 1
            return result
        return traced

    def install(self) -> None:
        """Wrap the package's public functions and methods."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrapped: dict = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
                elif isinstance(obj, type) and not issubclass(obj, enum.Enum):
                    self._wrap_methods(short, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def _wrap_methods(self, short: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(member, types.FunctionType):
                setattr(cls, attr, self.wrap(name, member))
            elif isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self.wrap(name, member.__func__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    t0 = time.perf_counter()
    import pipeline  # imports the scentctl modules it drives
    import_s = time.perf_counter() - t0

    run = pipeline.main
    tracer = Tracer() if opts.mode == "traced" else None
    if tracer is not None:
        tracer.install()
        pipeline.run = tracer.wrap("pipeline.run", pipeline.run)
    t0 = time.perf_counter()
    code = run(argv)
    run_s = time.perf_counter() - t0

    report = {"mode": opts.mode, "import_s": import_s, "run_s": run_s,
              "exit": code}
    if tracer is not None:
        report["hook_errors"] = tracer.hook_errors
        report["spans"] = tracer.spans
    with open(opts.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle, separators=(",", ":"))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
