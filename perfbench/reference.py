"""A fixed reference workload that measures the machine's speed alongside
the program's.

The host under a small VM changes speed by a third or more for stretches
of tens of seconds, and two runs of the
same code can then differ far more than any bound worth keeping.  So every
timing is scaled to a nominal machine speed:

    reported = measured x NOMINAL_CHUNK_NS / (mean time of the chunks around it)

The reference chunks run interleaved with the timed work, in proportion to
it (``SHARE`` of its CPU time), so they see the same stretches of machine
time.  A chunk is work of the program's kind and none of the program's
code: a small pushdown automaton run over tuples, frozensets and dicts in
pure Python, a 360-deep stack of tuples copied at each push and pop, and a
JSON round trip with a regex scan, in about equal shares of its time.
Across one-second windows each part's speed tracked the workloads' own with
correlation 0.8-0.98, with elasticity 1.0-1.2, 0.87-1.03 and 0.9-1.15
(how much slower the part got per 1% slower workload), so a slow stretch
slows the mix and the workloads alike and the ratio holds.  A change to
the program moves only the measured side.

All times here and in run.py are the thread's CPU time, so time the host or
another process takes the CPU away does not count at all.
"""

from __future__ import annotations

import json
import re
import time

clock = time.thread_time_ns

SHARE = 0.1
WINDOW_CHUNKS = 8
# About the median chunk time on the machine the benchmark was calibrated
# on (a 2-vCPU VM, Python 3.11); reported timings read as on that machine.
NOMINAL_CHUNK_NS = 2_000_000

_SYMBOLS = 11
_STATES = 23
_DELTA = {(q, a): ((q * 5 + a) % _STATES, frozenset({q % 4, a % 3}))
          for q in range(_STATES) for a in range(_SYMBOLS)}
_EVENTS = json.dumps({"events": [{"endpoint": f"S{i % 17}", "kind": "call" if i % 2 else "return",
                                  "n": i} for i in range(150)]})
_ENDPOINT = re.compile(r'"endpoint": "(S\d+)"')


def _automaton() -> int:
    stack: tuple = ()
    q = 0
    seen = set()
    for i in range(1200):
        q, tag = _DELTA[(q, (i * 37) % _SYMBOLS)]
        if i % 4 == 0:
            stack = stack + ((q, tag),)
        elif stack and i % 4 == 2:
            q2, tag2 = stack[-1]
            stack = stack[:-1]
            seen.add((q, q2, tag2 | tag))
        if len(stack) > 40:
            stack = stack[-20:]
    return len(seen)


def _stack_copy() -> int:
    """Push 360 frames and pop them again, copying the stack tuple at each
    step: memory-bound, like a run over a deeply nested word."""
    stack: tuple = ()
    q = 0
    total = 0
    for i in range(360):
        q, tag = _DELTA[(q, (i * 37) % _SYMBOLS)]
        stack = stack + ((q, tag),)
    while stack:
        total += stack[-1][0]
        stack = stack[:-1]
    return total


def _json_regex() -> int:
    doc = json.loads(_EVENTS)
    return len(_ENDPOINT.findall(json.dumps(doc))) + len(doc["events"])


def chunk() -> int:
    """About equal shares of automaton steps, stack copying and JSON/regex."""
    return _automaton() + _stack_copy() + _json_regex() + _json_regex()


EXPECTED = chunk()


class Reference:
    """Reference chunks run in step with a stream of timed work.

    Each piece of work is scaled by the chunks run around it: pieces are
    held until ``WINDOW_CHUNKS`` chunks have run since the last window
    closed, then scaled by those chunks' mean time and appended to the list
    given with them.  A window spans about a sixth of a second of work, far
    shorter than the host's slow and fast stretches."""

    def __init__(self):
        self.work_ns = 0
        self.ref_ns = 0
        self.chunks = 0
        self._held: list[tuple[list, int]] = []
        self._mark = (0, 0)
        self._scale = 1.0

    def _chunk(self) -> None:
        t0 = clock()
        result = chunk()
        self.ref_ns += clock() - t0
        self.chunks += 1
        if result != EXPECTED:
            raise AssertionError(f"reference chunk gave {result}, expected {EXPECTED}")

    def lead(self, ref_ns: float) -> None:
        """Run chunks for about ``ref_ns`` before work of roughly known
        length; they count toward that work's share."""
        start = self.ref_ns
        while self.ref_ns - start < ref_ns:
            self._chunk()

    def follow(self, work_ns: int, sink: list) -> None:
        """Account ``work_ns`` of timed work, run the chunks now due, and
        append the work's time at the nominal speed to ``sink`` once its
        window closes."""
        self.work_ns += work_ns
        while self.ref_ns < SHARE * self.work_ns or self.chunks == self._mark[1]:
            self._chunk()
        self._held.append((sink, work_ns))
        if self.chunks - self._mark[1] >= WINDOW_CHUNKS:
            self.close()

    def close(self) -> None:
        """Close the current window: scale and hand over the held work."""
        ref_ns, chunks = self._mark
        if self.chunks > chunks:
            self._scale = NOMINAL_CHUNK_NS * (self.chunks - chunks) / (self.ref_ns - ref_ns)
        for sink, ns in self._held:
            sink.append(ns * self._scale)
        self._held.clear()
        self._mark = (self.ref_ns, self.chunks)

    def chunk_ns(self) -> float:
        """Mean chunk time over the whole run, as measured."""
        return self.ref_ns / self.chunks
