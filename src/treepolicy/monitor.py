"""Distributed monitor: one transition table per endpoint.

A deterministic complete automaton splits by endpoint.  The ``FilterSpec``
of an endpoint holds that endpoint's call rows as ``on_request`` (state ->
state and pushed symbol) and its return rows as ``on_response`` (state and
popped symbol -> state).  A distributed monitor is the endpoint -> spec
mapping, in alphabet order, and it is the only form of these tables: the
distributed run steps through it, the filter JSON and sidecar scripts
serialize it, and the mesh simulator applies it on each hop.

Running the specs symbol-locally, with the state carried alongside the
request and the pushed stack symbol stored at the hop that pushed it,
reproduces the centralized run configuration-for-configuration.  The
serialized forms list rules in sorted key order, so they are byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .errors import StackUnderflow
from .nested_word import Endpoint, NestedWord, TaggedSymbol
from .vpa import Configuration, Vpa

STATE_HEADER = "x-safetree-state"


@dataclass(frozen=True)
class FilterSpec:
    """Call/return transitions of one endpoint."""

    endpoint: Endpoint
    on_request: dict[str, tuple[str, str]]  # state -> (state, pushed symbol)
    on_response: dict[tuple[str, str], str]  # (state, popped symbol) -> state


DistributedMonitor = dict[Endpoint, FilterSpec]


def extract_monitor(v: Vpa) -> DistributedMonitor:
    m = {e: FilterSpec(e, {}, {}) for e in v.alphabet}
    for (q, e), target in v.delta_call.items():
        m[e].on_request[q] = target
    for (q, g, e), target in v.delta_return.items():
        m[e].on_response[(q, g)] = target
    return m


def dist_step(m: DistributedMonitor, c: Configuration, a: TaggedSymbol) -> Configuration:
    """Apply the symbol's own filter: calls push, returns pop."""
    spec = m[a.endpoint]
    if a.is_call:
        q, s = spec.on_request[c.state]
        return Configuration(q, c.stack + (s,))
    if len(c.stack) == 1:
        raise StackUnderflow(
            f"return from {a.endpoint!r} with empty stack in state {c.state!r}"
        )
    q = spec.on_response[(c.state, c.stack[-1])]
    return Configuration(q, c.stack[:-1])


def dist_run(m: DistributedMonitor, init: Configuration, n: NestedWord) -> Configuration:
    c = init
    for a in n.symbols:
        c = dist_step(m, c, a.symbol)
    return c


# -- filter specifications ----------------------------------------------------


def emit_filters(m: DistributedMonitor) -> list[FilterSpec]:
    """One spec per endpoint, in alphabet order."""
    return list(m.values())


def monitor_from_filters(specs: Iterable[FilterSpec]) -> DistributedMonitor:
    return {spec.endpoint: spec for spec in specs}


def filter_spec_to_json(spec: FilterSpec) -> str:
    doc = {
        "version": 1,
        "endpoint": spec.endpoint,
        "on_request": [
            {"if_state": q, "then_state": dst, "push_local": push}
            for q, (dst, push) in sorted(spec.on_request.items())
        ],
        "on_response": [
            {"if_state": q, "if_local": local, "then_state": dst}
            for (q, local), dst in sorted(spec.on_response.items())
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def filter_spec_from_json(text: str) -> FilterSpec:
    doc = json.loads(text)
    return FilterSpec(
        doc["endpoint"],
        {r["if_state"]: (r["then_state"], r["push_local"]) for r in doc["on_request"]},
        {(r["if_state"], r["if_local"]): r["then_state"] for r in doc["on_response"]},
    )


def render_filter_script(spec: FilterSpec, header: str = STATE_HEADER) -> str:
    """Deterministic sidecar-callback rendering of one filter.

    The ``state`` value travels in the request header; ``local_stack`` is
    request-scoped proxy memory written by OnRequest and read back by
    OnResponse.  Unmatched states fall through to a violation log.
    """
    lines = [f"-- traffic filter for endpoint {spec.endpoint} (header: {header})"]
    lines.append("callback OnRequest() {")
    kw = "if"
    for q, (dst, push) in sorted(spec.on_request.items()):
        lines.append(
            f'  {kw} (state == "{q}") then state = "{dst}"; local_stack = "{push}"'
        )
        kw = "elseif"
    if kw == "if":
        lines.append('  log_violation("no call transition")')
    else:
        lines.append('  else log_violation("no call transition")')
    lines.append("}")
    lines.append("callback OnResponse() {")
    kw = "if"
    for (q, local), dst in sorted(spec.on_response.items()):
        lines.append(
            f'  {kw} (state == "{q}" && local_stack == "{local}") then state = "{dst}"'
        )
        kw = "elseif"
    if kw == "if":
        lines.append('  log_violation("no return transition")')
    else:
        lines.append('  else log_violation("no return transition")')
    lines.append("}")
    return "\n".join(lines) + "\n"
