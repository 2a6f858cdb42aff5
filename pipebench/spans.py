"""In-memory spans around the public functions of each pipeline layer.

The benchmark times the program from outside: it replaces a fixed set of
public functions and methods with wrappers that record one span per call
(name, layer, start, end, parent span, request id) and, for a few of
them, a count taken from the call's result.  Nothing inside ``src/`` is
edited; ``uninstall`` puts every original object back.

A function imported by name into another module (``from x import f``)
is patched at every binding in the loaded ``repro`` modules, so a call
through any of them is seen.  A binding listed in ``OVERRIDES`` gets its
own span name instead: the optimizer's per-pass validator reaches
``differential_check`` through ``repro.validation.passcheck``, and that
call is reported as ``opt.pass_validate``, apart from the benchmark's own
top-level differential check.

Self time is a span's duration minus the part of it that child spans
cover; children may live in another process (a serve worker), because
``time.perf_counter`` reads the system-wide monotonic clock on Linux.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# The layers, named by module, in report order.
LAYERS = (
    "stdlib", "core", "query", "resilience", "bedrock2", "source",
    "validation", "opt", "riscv", "analysis", "serve",
)

# (span name, layer, "module:attribute" or "module:Class.method")
TARGETS = (
    ("stdlib.default_databases", "stdlib", "repro.stdlib:default_databases"),
    ("stdlib.default_engine", "stdlib", "repro.stdlib:default_engine"),
    ("core.derive", "core", "repro.core.engine:Engine.compile_function"),
    ("query.reify", "query", "repro.query.reify:reify"),
    ("resilience.generate", "resilience", "repro.resilience.generator:generate_case"),
    ("bedrock2.interp", "bedrock2", "repro.bedrock2.semantics:Interpreter.call_function"),
    ("bedrock2.serialize", "bedrock2", "repro.bedrock2.serial:encode_function"),
    ("bedrock2.deserialize", "bedrock2", "repro.bedrock2.serial:decode_function"),
    ("bedrock2.wellformed", "bedrock2", "repro.bedrock2.wellformed:check_function"),
    ("bedrock2.c_print", "bedrock2", "repro.bedrock2.c_printer:print_c_function"),
    ("source.eval", "source", "repro.source.evaluator:Evaluator.eval"),
    ("validation.differential", "validation",
     "repro.validation.differential:differential_check"),
    ("validation.run", "validation", "repro.validation.runners:run_function"),
    ("validation.certificate", "validation", "repro.validation.checker:check_certificate"),
    ("opt.optimize", "opt", "repro.core.spec:CompiledFunction.optimize"),
    ("opt.pipeline", "opt", "repro.opt.manager:PassManager.run"),
    ("riscv.compile", "riscv", "repro.riscv.compiler:compile_function"),
    ("analysis.lint", "analysis", "repro.analysis.dataflow:lint_function"),
    ("serve.compile_key", "serve", "repro.serve.fingerprint:compile_key"),
    ("serve.cache.compile", "serve", "repro.serve.cache:CompilationCache.compile"),
    ("serve.cache.lookup", "serve", "repro.serve.cache:CompilationCache.lookup"),
    ("serve.cache.revalidate", "serve", "repro.serve.cache:CompilationCache._revalidate"),
    ("serve.cache.store", "serve", "repro.serve.cache:CompilationCache.store"),
    ("serve.batch", "serve", "repro.serve.batch:run_batch"),
)

# Bindings that get a span name of their own (see the module docstring).
OVERRIDES = (
    ("opt.pass_validate", "validation", "repro.validation.passcheck", "differential_check"),
)

# Every optimizer pass's ``run`` is one ``opt.transform`` span.
PASS_MODULE = "repro.opt.passes"


def _count_ops(recorder, result) -> None:
    recorder.count("bedrock2.ops_executed", result.counts.total())


def _count_trials(recorder, report) -> None:
    recorder.count("validation.trials", report.trials)


def _count_derive(recorder, _result) -> None:
    recorder.count("core.derive_calls")


def _count_lookup(recorder, result) -> None:
    outcome = result[1]
    recorder.count({"hit": "serve.cache.hits", "miss": "serve.cache.misses"}.get(
        outcome, "serve.cache.invalidated"))


COUNTERS: Dict[str, Callable] = {
    "validation.run": _count_ops,
    "validation.differential": _count_trials,
    "opt.pass_validate": _count_trials,
    "core.derive": _count_derive,
    "serve.cache.lookup": _count_lookup,
}

Span = Tuple[str, Optional[str], Optional[str], str, str, float, float]


class Recorder:
    """Spans and counts of one process, kept in memory until ``dump``."""

    def __init__(self, tag: str = "p"):
        self.tag = tag
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    # -- Request context ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid: Optional[str], parent: Optional[str] = None) -> None:
        """Tag the calling thread's next spans with ``rid``; ``parent`` is
        the span (possibly in another process) that caused them."""
        self._local.rid = rid
        self._local.xparent = parent

    def count(self, name: str, n: int = 1) -> None:
        if self.active:
            self.counts[name] += n

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Record one span around the ``with`` body; yields its id (None
        while the recorder is inactive)."""
        if not self.active:
            yield None
            return
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self._close(sid, parent, name, layer, start, time.perf_counter())

    def _open(self) -> Tuple[str, Optional[str]]:
        stack = self._stack()
        sid = f"{self.tag}:{next(self._ids)}"
        parent = stack[-1] if stack else getattr(self._local, "xparent", None)
        stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, layer, start, end) -> None:
        self._stack().pop()
        self.spans.append(
            (sid, parent, getattr(self._local, "rid", None), name, layer, start, end)
        )

    # -- Wrapping -----------------------------------------------------------

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        recorder = self
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            sid, parent = recorder._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(sid, parent, name, layer, start, clock())
            if counter is not None:
                counter(recorder, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every target; the modules they live in must be importable."""
        for name, layer, module_name, attr in OVERRIDES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self.wrap(getattr(module, attr), name, layer))
        for name, layer, target in TARGETS:
            module_name, path = target.split(":")
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, method = path.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self.wrap(cls.__dict__[method], name, layer))
                continue
            original = getattr(module, path)
            wrapper = self.wrap(original, name, layer)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    loaded.__dict__.get(path) is original
                ):
                    self._patch(loaded, path, wrapper)
        passes = importlib.import_module(PASS_MODULE)
        for value in list(vars(passes).values()):
            if (
                isinstance(value, type)
                and issubclass(value, passes.Pass)
                and "run" in value.__dict__
            ):
                self._patch(
                    value, "run", self.wrap(value.__dict__["run"], "opt.transform", "opt")
                )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- Output -------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def load_dump(path: str) -> Tuple[List[Span], Dict[str, int]]:
    with open(path) as fh:
        data = json.load(fh)
    return [tuple(s) for s in data["spans"]], data["counts"]


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def analyze(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Return (inclusive seconds per span name, self seconds per layer)."""
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _rid, _name, _layer, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    inclusive: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    for sid, _parent, _rid, name, layer, start, end in spans:
        inclusive[name] += end - start
        self_time[layer] += (end - start) - _covered(children.get(sid, []), start, end)
    return dict(inclusive), dict(self_time)


def write_trace(path: str, spans: List[Span]) -> None:
    """Write spans as JSON lines, one object per span."""
    keys = ("id", "parent", "request", "name", "layer", "start", "end")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
