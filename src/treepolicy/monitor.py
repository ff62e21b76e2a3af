"""Distributed monitor: one transition table per endpoint.

A deterministic complete automaton splits by endpoint.  The ``FilterSpec``
of an endpoint holds that endpoint's call rows as ``on_request`` (state ->
state and pushed symbol) and its return rows as ``on_response`` (state and
popped symbol -> state).  A ``DistributedMonitor`` is the endpoint -> spec
mapping, in alphabet order, plus the integer table its runs step: the
filter JSON and sidecar scripts serialize the specs, and ``dist_run`` walks
the table with ``vpa.walk``, the same walk as the centralized run.  Specs
are read-only.  A monitor extracted from an automaton shares the
automaton's ``Vpa.table``; one read back from filter specs
(``monitor_from_filters``) builds its own from the specs on its first run,
numbering names in sorted order as ``Vpa.table`` does, so a complete spec
set gets the automaton's ids.  A rule missing from the specs raises
``MissingTransition`` naming the endpoint and the state, never a wrong
verdict.

Running the specs symbol-locally, with the state carried alongside the
request and the pushed stack symbol stored at the hop that pushed it,
reproduces the centralized run configuration-for-configuration.  The
serialized forms list rules in sorted key order, so they are byte-stable:
``filter_spec_to_json`` writes through ``vpa.json_document`` the bytes
``json.dumps(indent=2, ensure_ascii=False)`` gives for one object per rule,
and ``render_filter_script`` formats each rule with one template.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .errors import VpaParseError
from .nested_word import Endpoint, IndexedSymbol, NestedWord, TaggedSymbol
from .vpa import (
    BOTTOM, Configuration, Table, Vpa, build_table, json_document, load_document, string_rows, walk,
)

STATE_HEADER = "x-safetree-state"
FILTER_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class FilterSpec:
    """Call/return transitions of one endpoint.  The rule mappings are
    read-only views (``MappingProxyType``), so no edit through a spec can
    leave a monitor's table behind."""

    endpoint: Endpoint
    on_request: Mapping[str, tuple[str, str]]  # state -> (state, pushed symbol)
    on_response: Mapping[tuple[str, str], str]  # (state, popped symbol) -> state

    def __post_init__(self):
        object.__setattr__(self, "on_request", MappingProxyType(self.on_request))
        object.__setattr__(self, "on_response", MappingProxyType(self.on_response))


class DistributedMonitor(dict):
    """Endpoint -> ``FilterSpec``, in alphabet order, and the integer table
    the distributed run steps: the automaton's own table when the monitor
    was extracted from it, else one built from the specs on first use."""

    __slots__ = ("_vpa", "_table")

    def __init__(self, specs: Iterable[tuple[Endpoint, FilterSpec]], vpa: Vpa | None = None):
        super().__init__(specs)
        self._vpa, self._table = vpa, None

    @property
    def table(self) -> Table:
        if self._table is None:
            self._table = self._vpa.table if self._vpa is not None else _spec_table(self)
        return self._table


def _spec_table(m: DistributedMonitor) -> Table:
    """The table of the specs' rules over every state and stack symbol they
    name, and the bottom marker."""
    states, symbols = set(), {BOTTOM}
    for spec in m.values():
        for q, (dst, g) in spec.on_request.items():
            states.update((q, dst))
            symbols.add(g)
        for (q, g), dst in spec.on_response.items():
            states.update((q, dst))
            symbols.add(g)
    calls = (((q, e), rule) for e, spec in m.items() for q, rule in spec.on_request.items())
    returns = (((q, g, e), dst) for e, spec in m.items() for (q, g), dst in spec.on_response.items())
    return build_table(states, symbols, m, calls, returns)


def extract_monitor(v: Vpa) -> DistributedMonitor:
    requests = {e: {} for e in v.alphabet}
    responses = {e: {} for e in v.alphabet}
    for (q, e), target in v.delta_call.items():
        requests[e][q] = target
    for (q, g, e), target in v.delta_return.items():
        responses[e][(q, g)] = target
    specs = ((e, FilterSpec(e, requests[e], responses[e])) for e in v.alphabet)
    return DistributedMonitor(specs, v)


def dist_step(m: DistributedMonitor, c: Configuration, a: TaggedSymbol) -> Configuration:
    """Apply the symbol's own filter: calls push, returns pop."""
    return walk(m.table, c, (IndexedSymbol(a, 1),))


def dist_run(m: DistributedMonitor, init: Configuration, n: NestedWord) -> Configuration:
    """The configuration after the word, starting from ``init``; each step
    is O(1) at any depth.  A rule missing from the specs raises
    ``MissingTransition``, which names it."""
    return walk(m.table, init, n.symbols)


# -- filter specifications ----------------------------------------------------


def emit_filters(m: DistributedMonitor) -> list[FilterSpec]:
    """One spec per endpoint, in alphabet order."""
    return list(m.values())


def monitor_from_filters(specs: Iterable[FilterSpec]) -> DistributedMonitor:
    return DistributedMonitor((spec.endpoint, spec) for spec in specs)


def _sorted_rules(spec: FilterSpec) -> tuple[list[tuple[str, ...]], list[tuple[str, ...]]]:
    """Request rules (state, then, push) and response rules (state, local,
    then), each in the sorted key order every serialized form uses."""
    requests = sorted([(q, dst, push) for q, (dst, push) in spec.on_request.items()])
    responses = sorted([(q, g, dst) for (q, g), dst in spec.on_response.items()])
    return requests, responses


def filter_spec_to_json(spec: FilterSpec) -> str:
    requests, responses = _sorted_rules(spec)
    head = {"version": FILTER_SCHEMA_VERSION, "endpoint": spec.endpoint}
    return json_document(head, {
        "on_request": (("if_state", "then_state", "push_local"), requests),
        "on_response": (("if_state", "if_local", "then_state"), responses),
    })


def filter_spec_from_json(text: str) -> FilterSpec:
    """Read a filter spec back, or raise ``VpaParseError``."""
    doc = load_document(text, FILTER_SCHEMA_VERSION)
    if not isinstance(doc.get("endpoint"), str):
        raise VpaParseError("endpoint must be a string")
    request_rows = string_rows(doc, "on_request", ("if_state", "then_state", "push_local"))
    response_rows = string_rows(doc, "on_response", ("if_state", "if_local", "then_state"))
    on_request = {q: (dst, push) for q, dst, push in request_rows}
    on_response = {(q, local): dst for q, local, dst in response_rows}
    if len(on_request) < len(request_rows) or len(on_response) < len(response_rows):
        raise VpaParseError("a rule key appears more than once")
    return FilterSpec(doc["endpoint"], on_request, on_response)


def render_filter_script(spec: FilterSpec, header: str = STATE_HEADER) -> str:
    """Deterministic sidecar-callback rendering of one filter.

    The ``state`` value travels in the request header; ``local_stack`` is
    request-scoped proxy memory written by OnRequest and read back by
    OnResponse.  Unmatched states fall through to a violation log.
    """
    requests, responses = _sorted_rules(spec)
    on_request = [
        f'(state == "{q}") then state = "{dst}"; local_stack = "{push}"'
        for q, dst, push in requests
    ]
    on_response = [
        f'(state == "{q}" && local_stack == "{g}") then state = "{dst}"'
        for q, g, dst in responses
    ]
    return "".join([
        f"-- traffic filter for endpoint {spec.endpoint} (header: {header})\n",
        "callback OnRequest() {\n", _branches(on_request, "no call transition"), "}\n",
        "callback OnResponse() {\n", _branches(on_response, "no return transition"), "}\n",
    ])


def _branches(rules: list[str], violation: str) -> str:
    """An if/elseif chain over the rules, falling through to a violation log."""
    fallback = f'log_violation("{violation}")\n'
    if not rules:
        return "  " + fallback
    return "  if " + "\n  elseif ".join(rules) + "\n  else " + fallback
