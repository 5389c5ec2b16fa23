"""Run one riverscape CLI command with every public function wrapped.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 -X importtime bench/trace_cli.py TRACE.json RUN_ID build --radius 5 ...

The command behaves exactly as ``riverscape ...`` would; its exit code is
passed through.  On exit the tracer writes TRACE.json holding

* ``calls``: per qualified name (``module.Class.method``) the call count
  and self time, i.e. time in the function minus time in wrapped callees;
* ``spans``: one record per command and per stage-level call (see
  ``STAGES``), each with its parent span and the shared run id;
* ``counts``: problem-size counts read from arguments and results.

Hot per-call functions are aggregated, never recorded as spans, so the
tracer's memory stays bounded.  Import times come from ``-X importtime``
on stderr and are parsed by the caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

MODULES = ("groups", "labels", "landscapes", "witness", "patterns", "paradox",
           "snapshots", "checking", "cli")

# stage-level calls that get one span each
STAGES = frozenset({
    "groups.ball", "patterns.realize", "paradox.find_doubling",
    "paradox.relabel", "paradox.verify_certificate",
    "snapshots.bundle_pipeline", "snapshots.dump_json",
    "checking.load_snapshot", "checking.check_certificate_dict",
    "landscapes.verify_axioms", "landscapes.components_leq",
})

# trivial leaf helpers called millions of times; left unwrapped, their
# time counts as self time of the caller
UNWRAPPED = frozenset({
    "groups.letter_key", "groups.FreeGroup.length",
    "groups.IntegerGroup.length", "groups.GroupSpec.length",
    "landscapes.RiverLandscape.dist_to_river",
})


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.calls: dict[str, list] = {}
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.sizes: dict[str, list] = {}
        self.distinct: dict[str, set] = {}
        # time spent in wrapped callees, one entry per active wrapped call
        self.stack: list[float] = []
        self.span_stack: list[int] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, qualname: str):
        if qualname in UNWRAPPED:
            return fn
        stats = self.calls.setdefault(qualname, [0, 0.0])
        stack = self.stack
        perf = time.perf_counter
        observe = OBSERVERS.get(qualname)
        stage = qualname in STAGES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open_span(qualname) if stage else None
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                child = stack.pop()
                stats[0] += 1
                stats[1] += end - start - child
                if stack:
                    stack[-1] += end - start
                if span is not None:
                    self.close_span(span, start, end)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def open_span(self, name: str) -> dict:
        span = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self.span_stack[-1] if self.span_stack else None,
            "name": name,
        }
        self.spans.append(span)
        self.span_stack.append(span["id"])
        return span

    def close_span(self, span: dict, start: float, end: float) -> None:
        span["start"] = start
        span["end"] = end
        self.span_stack.pop()

    def install(self, package) -> None:
        """Wrap the public functions and methods defined in each module,
        then rebind every module-level reference to them, so that
        ``from .x import f`` copies are traced as well."""
        replaced: dict[int, object] = {}
        for short in MODULES:
            # __import__, unlike importlib, shows in -X importtime
            __import__(f"{package.__name__}.{short}")
            mod = sys.modules[f"{package.__name__}.{short}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(obj, f"{short}.{name}")
                    replaced[id(obj)] = wrapped
                    setattr(mod, name, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{short}.{name}")
        for mod in [package] + [sys.modules[f"{package.__name__}.{s}"]
                                for s in MODULES]:
            for name, obj in list(vars(mod).items()):
                wrapped = replaced.get(id(obj))
                if wrapped is not None:
                    setattr(mod, name, wrapped)

    def _wrap_class(self, cls, prefix: str) -> None:
        for name, obj in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(obj, staticmethod):
                setattr(cls, name, staticmethod(
                    self.wrap(obj.__func__, f"{prefix}.{name}")))
            elif isinstance(obj, classmethod):
                setattr(cls, name, classmethod(
                    self.wrap(obj.__func__, f"{prefix}.{name}")))
            elif inspect.isfunction(obj):
                setattr(cls, name, self.wrap(obj, f"{prefix}.{name}"))

    def to_dict(self) -> dict:
        counts = dict(self.counts)
        for key, seen in self.distinct.items():
            counts[key] = len(seen)
        return {
            "run": self.run_id,
            "calls": self.calls,
            "spans": self.spans,
            "counts": counts,
            "sizes": self.sizes,
        }


# --- counts read from arguments and results --------------------------------

def _distinct_arg(key: str, position: int):
    def observe(tracer, args, result):
        tracer.distinct.setdefault(key, set()).add(args[position])
    return observe


def _target_size(tracer, args, result):
    tracer.sizes.setdefault("paradox.target_size", []).append(len(args[0]))
    tracer.count("paradox.k_attempts", len(result.attempts))


def _pieces(tracer, args, result):
    tracer.count("paradox.pieces", result.p + result.q)


def _observed(tracer, args, result):
    tracer.count("patterns.distinct_patterns", len(result))


def _uncertified(tracer, args, result):
    tracer.count("landscapes.uncertified", result.uncertified)


def _bytes_written(tracer, args, result):
    tracer.count("snapshots.bytes_written", os.path.getsize(args[1]))


OBSERVERS = {
    "labels.ProperLabelRule.label": _distinct_arg("labels.label_words", 1),
    "landscapes.RiverLandscape.height":
        _distinct_arg("landscapes.height_words", 1),
    "landscapes.TernaryLandscape.height":
        _distinct_arg("landscapes.height_words", 1),
    "landscapes.FractalLandscape.height":
        _distinct_arg("landscapes.height_words", 1),
    "paradox.find_doubling": _target_size,
    "paradox.extract_pieces": _pieces,
    "patterns.observed_patterns": _observed,
    "landscapes.verify_axioms": _uncertified,
    "snapshots.dump_json": _bytes_written,
}


def main() -> int:
    trace_path, run_id, *argv = sys.argv[1:]
    import riverscape

    tracer = Tracer(run_id)
    tracer.install(riverscape)
    from riverscape import cli

    span = tracer.open_span("command:" + (argv[0] if argv else ""))
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        tracer.close_span(span, start, time.perf_counter())
        with open(trace_path, "w") as fh:
            json.dump(tracer.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
