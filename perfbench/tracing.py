"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public functions of every loaded ``stylocloak`` module
from outside the package: each wrapper records one span (name, parent span,
start, end, op) and passes arguments, return values and exceptions through
unchanged.  A function is patched in its defining module and in every other
module that imported the same object by name (``from .zwcodec import
strip_zero_width``), so calls are caught whichever name the caller uses.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import json
import pkgutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

#: Span name for the time a probe spends measuring a call's arguments; it
#: is a child of the caller's span, so probes never inflate a self time.
PROBE = "trace.probe"


@dataclass
class Span:
    name: str
    parent: int | None  # index of the enclosing span in the same list
    start: float
    end: float
    op: int | None  # traced op index; None during set-up
    info: dict | None = None


class Tracer:
    """Collects spans from wrapped functions of one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, probe=None):
        """Return ``fn`` wrapped so that each call records a span.

        ``probe(arguments)`` gets the call's bound arguments (defaults
        applied) and returns a dict stored on the span as ``info``.
        """
        signature = inspect.signature(fn) if probe is not None else None

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            info = None
            if probe is not None:
                began = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                info = probe(bound.arguments)
                self.spans.append(Span(PROBE, parent, began, time.perf_counter(), self.op))
            span = Span(name, parent, 0.0, 0.0, self.op, info)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return functools.wraps(fn)(traced)


def _public_functions(module):
    for attr, value in vars(module).items():
        if (
            inspect.isfunction(value)
            and value.__module__ == module.__name__
            and not attr.startswith("_")
        ):
            yield attr, value


def import_all() -> None:
    """Import every module of ``stylocloak``, so that all can be patched."""
    root = importlib.import_module("stylocloak")
    for info in pkgutil.iter_modules(root.__path__):
        importlib.import_module(f"stylocloak.{info.name}")


@contextlib.contextmanager
def installed(tracer: Tracer, package: str = "stylocloak", probes=None):
    """Patch every public function of the loaded ``package`` modules.

    Span names are ``<module>.<function>`` with the last component of the
    module name.  Every patched attribute is restored on exit.
    """
    probes = probes or {}
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]
    wrappers = {}
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for attr, fn in _public_functions(module):
            name = f"{short}.{attr}"
            wrappers[id(fn)] = (fn, tracer.wrap(name, fn, probes.get(name)))
    patched = []
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        yield tracer
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    The tracer is single-threaded and keeps a stack, so child spans never
    overlap and always end inside their parent.
    """
    result = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            result[span.parent] -= span.end - span.start
    return result


def layer(name: str) -> str:
    """The module part of a span name: ``weaver`` for ``weaver.embed_into_text``."""
    return name.rpartition(".")[0]


def layer_times(spans: list[Span]) -> list[float]:
    """Each span's self time plus that of its descendants in the same layer.

    This is the time the span's layer (module) is busy inside the call: its
    duration minus the child spans of other layers.  Calls a function makes
    to public functions of its own module fold into it, because they do not
    cross a layer boundary.
    """
    times = self_times(spans)
    # A child is appended after its parent, so one pass from the end
    # finishes every child before its parent.
    for index in range(len(spans) - 1, -1, -1):
        parent = spans[index].parent
        if parent is not None and layer(spans[parent].name) == layer(spans[index].name):
            times[parent] += times[index]
    return times


def records(spans: list[Span], op: int | None = None):
    """(op, name, busy_s, info) per span, busy as in :func:`layer_times`.

    ``op`` overrides each span's own op index.
    """
    for span, busy in zip(spans, layer_times(spans)):
        yield (span.op if op is None else op, span.name, busy, span.info)


SPAN_COLUMNS = ["name", "parent", "start", "end", "op", "self_s", "info"]


def span_rows(spans: list[Span]) -> list[list]:
    """Spans with their self times as JSON-ready rows of ``SPAN_COLUMNS``."""
    return [
        [s.name, s.parent, s.start, s.end, s.op, t, s.info]
        for s, t in zip(spans, self_times(spans))
    ]


def spans_from_rows(rows: list[list]) -> list[Span]:
    return [
        Span(name, parent, start, end, op, info)
        for name, parent, start, end, op, _, info in rows
    ]


def dump_spans(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"columns": SPAN_COLUMNS, "spans": span_rows(spans)}, handle)


def _chars(argument: str):
    def probe(arguments):
        return {"chars": len(arguments[argument])}

    return probe


def _reference_key(arguments):
    digest = hashlib.sha256()
    for doc in arguments["reference"].documents:
        digest.update(doc.text.encode("utf-8"))
        digest.update(b"\x00")
    return {"key": digest.hexdigest()}


def _style_model_key(arguments):
    text = arguments["corpus_text"].encode("utf-8")
    return {"key": f"{hashlib.sha256(text).hexdigest()}:{arguments['order']}"}


def _points(arguments):
    return {"points": len(arguments["payload"])}


#: What the per-layer metrics need to know about a call beyond its span.
PROBES = {
    "zwcodec.scan_text": _chars("text"),
    "zwcodec.strip_zero_width": _chars("text"),
    "styloscope.tokenize": _chars("text"),
    "weaver.weave_into_unigram": _points,
    "styloscope.burrows_delta": _reference_key,
    "transforms.train_style_model": _style_model_key,
}


class LayerStats:
    """Per-op sums of calls, busy time and probe values by span name."""

    def __init__(self, rows, n_ops: int):
        self.n_ops = n_ops
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, list[float]] = defaultdict(lambda: [0.0] * n_ops)
        self.chars: dict[str, int] = defaultdict(int)
        self.points = 0
        self.keys: dict[str, list[set]] = defaultdict(lambda: [set() for _ in range(n_ops)])
        for op, name, busy_s, info in rows:
            if op is None or name == PROBE:
                continue
            self.calls[name] += 1
            self.busy[name][op] += busy_s
            if info:
                self.chars[name] += info.get("chars", 0)
                self.points += info.get("points", 0)
                if "key" in info:
                    self.keys[name][op].add(info["key"])

    def calls_per_op(self, name: str) -> float:
        return self.calls.get(name, 0) / self.n_ops

    def busy_per_op(self, name: str) -> float:
        """Median over ops of the op's summed busy time in ``name``."""
        return statistics.median(self.busy[name]) if name in self.busy else 0.0

    def chars_per_s(self, name: str) -> float:
        busy = sum(self.busy[name]) if name in self.busy else 0.0
        return self.chars.get(name, 0) / busy if busy > 0 else 0.0

    def distinct_keys(self, name: str) -> int:
        return sum(len(keys) for keys in self.keys[name]) if name in self.keys else 0
