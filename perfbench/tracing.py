"""In-memory spans around the program's public functions.

The traced mode wraps, from the benchmark's side, each public function a
workload reaches, including the ones ``cli.main`` reaches for ``equiv``.  A
wrapper replaces the function under every name it is bound to in the
``treepolicy`` modules (``from .vpa import run as vpa_run`` included), so
calls between modules are traced too.  Nothing inside ``src/`` changes.

A span is (name, start_ns, end_ns, parent span index, operation id, size).
``size`` is a per-function count taken from the arguments or the result,
such as the events of a parsed trace, so that per-unit costs can be derived
where the work happens.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from types import GeneratorType

_now = time.perf_counter_ns


def _len_result(args, result):
    return len(result)


def _run_symbols(args, result):
    return len(result) - 1


def _word_symbols(args, result):
    return len(args[2])


def _request_node_policies(args, result):
    return (len(result.word) // 2) * len(args[2])


# (module, function, size function or None).  Span names are
# "<module>.<function>".
TARGETS = (
    ("policy", "parse_policy", None),
    ("regex", "to_dfa", None),
    ("compiler", "compile", None),
    ("compiler", "compile_policy", None),
    ("vpa", "check_well_formed", None),
    ("vpa", "export_vpa", None),
    ("vpa", "run", _run_symbols),
    ("monitor", "extract_monitor", None),
    ("monitor", "emit_filters", None),
    ("monitor", "filter_spec_to_json", None),
    ("monitor", "render_filter_script", None),
    ("monitor", "dist_run", _word_symbols),
    ("nested_word", "parse_trace", _len_result),
    ("nested_word", "build_nested_word", _len_result),
    ("nested_word", "enumerate_rooted", None),
    ("oracle", "sat_policy", None),
    ("mesh_sim", "build_filter_set", None),
    ("mesh_sim", "execute_request", _request_node_policies),
)

NAME, START, END, PARENT, OP, SIZE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self.op = None
        self.enabled = False
        self._restore: list[tuple] = []

    def _enter(self) -> tuple[int, int]:
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        return idx, parent

    def _exit(self, idx, parent, name, t0, size):
        self._open.pop()
        self.spans[idx] = (name, t0, _now(), parent, self.op, size)

    def span(self, name: str, fn, *args):
        """Run fn(*args) inside a span of its own (the operation spans)."""
        if not self.enabled:
            return fn(*args)
        idx, parent = self._enter()
        t0 = _now()
        try:
            return fn(*args)
        finally:
            self._exit(idx, parent, name, t0, None)

    def _wrap(self, name: str, fn, size_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx, parent = tracer._enter()
            t0 = _now()
            result = None
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, GeneratorType):
                    return tracer._generator(name, result)
                return result
            finally:
                size = size_fn(args, result) if size_fn and result is not None else None
                tracer._exit(idx, parent, name, t0, size)

        return wrapper

    def _generator(self, name: str, gen):
        """Time each step of a generator, while tracing is on, as a span of
        its own: one "<name>.next" span per item, and one "<name>.end" for
        the step that finds it exhausted."""
        while True:
            traced = self.enabled
            if traced:
                idx, parent = self._enter()
                t0 = _now()
            step = name + ".next"
            try:
                item = next(gen)
            except StopIteration:
                step = name + ".end"
                return
            finally:
                if traced:
                    self._exit(idx, parent, step, t0, None)
            yield item

    def install(self):
        """Replace every binding of each target in the treepolicy modules."""
        modules = [m for n, m in sys.modules.items()
                   if n == "treepolicy" or n.startswith("treepolicy.")]
        for mod_name, fn_name, size_fn in TARGETS:
            home = sys.modules[f"treepolicy.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, size_fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start_ns": s[START],
                                     "end_ns": s[END], "parent": s[PARENT], "op": s[OP],
                                     "size": s[SIZE]}) + "\n")


class SpanStats:
    """Totals per span name: count, inclusive time, self time, size."""

    def __init__(self, spans, keep=lambda span: True):
        child_time = defaultdict(int)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        self.count = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.size = defaultdict(int)
        for i, s in enumerate(spans):
            if not keep(s):
                continue
            dur = s[END] - s[START]
            self.count[s[NAME]] += 1
            self.total_ns[s[NAME]] += dur
            self.self_ns[s[NAME]] += dur - child_time[i]
            if s[SIZE] is not None:
                self.size[s[NAME]] += s[SIZE]

    def mean(self, name: str, scale: float) -> float:
        """Mean inclusive time per call, in units of ``scale`` ns."""
        n = self.count[name]
        return self.total_ns[name] / n / scale if n else 0.0

    def per(self, name: str, denominator: float, scale: float, self_time=False) -> float:
        total = (self.self_ns if self_time else self.total_ns)[name]
        return total / denominator / scale if denominator else 0.0

    def per_size(self, name: str, scale: float) -> float:
        n = self.size[name]
        return self.total_ns[name] / n / scale if n else 0.0
