"""Distributed monitor: one transition table per endpoint.

A deterministic complete automaton splits by endpoint.  The ``FilterSpec``
of an endpoint holds its call rules as ``on_request`` (state -> state and
pushed symbol) and its return rules as ``on_response`` (state and popped
symbol -> state), read-only and in sorted key order.  A
``DistributedMonitor`` is the read-only endpoint -> spec mapping plus the
integer table ``dist_run`` walks with ``vpa.walk``, as the centralized run
does.  ``extract_monitor`` copies no rule: its specs read ``Vpa.table`` in
place and its monitor steps that table.  A monitor read back from filter
specs (``monitor_from_filters``) builds its own table from them; a rule
missing there raises ``MissingTransition``, which names it.

Running the specs symbol-locally, with the state carried alongside the
request and the pushed stack symbol stored at the hop that pushed it,
reproduces the centralized run configuration-for-configuration.  The
serialized forms list rules in the specs' order, so they are byte-stable:
``filter_spec_to_json`` writes through ``vpa.json_document`` the bytes
``json.dumps(indent=2, ensure_ascii=False)`` gives for one object per rule,
and ``render_filter_script`` formats each rule with one template.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterable, Mapping
from dataclasses import dataclass
from itertools import compress
from types import MappingProxyType

from .errors import VpaParseError
from .nested_word import Endpoint, NestedWord
from .vpa import (
    BOTTOM, Configuration, Table, Vpa, build_table, json_document, load_document, string_rows, walk,
)

STATE_HEADER = "x-safetree-state"
FILTER_SCHEMA_VERSION = 1


class _TableRules(Mapping):
    """One endpoint's rules read in place from a ``Table``: the call rules
    of ``request[e]`` (state -> state and pushed symbol) or the return
    rules of ``response[e]`` (state and popped symbol -> state).  Keys
    come in id order, which is sorted key order."""

    def __init__(self, t: Table, row: tuple):
        self._t, self._row = t, row

    def items(self):
        return _RuleItems(self)


class _RuleItems(ItemsView):
    """(key, rule) pairs read off the row in one pass, in key order."""

    def __iter__(self):
        return self._mapping._pairs()


class _RequestRules(_TableRules):
    def __getitem__(self, q):
        if (rule := self._row[self._t.state_id[q]]) is None:
            raise KeyError(q)
        return self._t.states[rule[0]], self._t.symbols[rule[1]]

    def __iter__(self):
        return compress(self._t.states, self._row)  # a missing rule is None

    def _pairs(self):
        states, symbols = self._t.states, self._t.symbols
        return ((q, (states[rule[0]], symbols[rule[1]]))
                for q, rule in zip(states, self._row) if rule is not None)

    def __len__(self):
        return len(self._row) - self._row.count(None)


class _ResponseRules(_TableRules):
    def __getitem__(self, key):
        if (dst := self._row[self._t.symbol_id[key[1]]][self._t.state_id[key[0]]]) is None:
            raise KeyError(key)
        return self._t.states[dst]

    def __iter__(self):
        return (key for key, _ in self._pairs())

    def _pairs(self):
        states, symbols = self._t.states, self._t.symbols
        return (((q, g), states[dst]) for q, column in zip(states, zip(*self._row))
                for g, dst in zip(symbols, column) if dst is not None)

    def __len__(self):
        return sum(len(r) - r.count(None) for r in self._row)


@dataclass(frozen=True)
class FilterSpec:
    """Call/return transitions of one endpoint.  Rules read from a table
    are kept as they are; any other mapping is copied once, sorted, so no
    edit through or behind a spec can leave a monitor's table behind."""

    endpoint: Endpoint
    on_request: Mapping[str, tuple[str, str]]  # state -> (state, pushed symbol)
    on_response: Mapping[tuple[str, str], str]  # (state, popped symbol) -> state

    def __post_init__(self):
        for name in ("on_request", "on_response"):
            if not isinstance(rules := getattr(self, name), _TableRules):
                object.__setattr__(self, name, MappingProxyType(dict(sorted(rules.items()))))


class DistributedMonitor(Mapping):
    """Endpoint -> ``FilterSpec``, read-only, and the table ``dist_run``
    steps: the automaton's own when the monitor was extracted from it, else
    one built from the specs on first use.  Two specs for one endpoint are
    a ``VpaParseError``."""

    __slots__ = ("_specs", "_table")

    def __init__(self, specs: Iterable[FilterSpec], table: Table | None = None):
        self._specs, self._table = {}, table
        for spec in specs:
            if self._specs.setdefault(spec.endpoint, spec) is not spec:
                raise VpaParseError(f"two filter specs for endpoint {spec.endpoint!r}")

    def __getitem__(self, e: Endpoint) -> FilterSpec:
        return self._specs[e]

    def __iter__(self):
        return iter(self._specs)

    def __len__(self):
        return len(self._specs)

    @property
    def table(self) -> Table:
        if self._table is None:
            self._table = _spec_table(self)
        return self._table


def _spec_table(m: DistributedMonitor) -> Table:
    """The table of the specs' rules over every state and stack symbol they
    name, and the bottom marker."""
    calls = [((q, e), rule) for e, spec in m.items() for q, rule in spec.on_request.items()]
    returns = [((q, g, e), dst) for e, spec in m.items() for (q, g), dst in spec.on_response.items()]
    states = {x for (q, _), (dst, _) in calls for x in (q, dst)}
    states.update(x for (q, _, _), dst in returns for x in (q, dst))
    symbols = {BOTTOM, *(g for _, (_, g) in calls), *(g for (_, g, _), _ in returns)}
    return build_table(states, symbols, m, calls, returns)


def extract_monitor(v: Vpa) -> DistributedMonitor:
    t = v.table
    specs = (FilterSpec(e, _RequestRules(t, t.request[e]), _ResponseRules(t, t.response[e]))
             for e in v.alphabet)
    return DistributedMonitor(specs, t)


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
    return DistributedMonitor(specs)


def filter_spec_to_json(spec: FilterSpec) -> str:
    requests = [(q, dst, push) for q, (dst, push) in spec.on_request.items()]
    responses = [(q, g, dst) for (q, g), dst in spec.on_response.items()]
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
    on_request = [
        f'(state == "{q}") then state = "{dst}"; local_stack = "{push}"'
        for q, (dst, push) in spec.on_request.items()
    ]
    on_response = [
        f'(state == "{q}" && local_stack == "{g}") then state = "{dst}"'
        for (q, g), dst in spec.on_response.items()
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
