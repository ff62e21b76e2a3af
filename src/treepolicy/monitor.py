"""Distributed monitor: one transition table per endpoint.

A deterministic complete automaton splits by endpoint.  The ``FilterSpec``
of an endpoint holds its call rules as ``on_request`` (state -> state and
pushed symbol) and its return rules as ``on_response`` (state and popped
symbol -> state), each a read-only ``vpa.Rules`` in sorted key order, and
names the automaton's declared reject state (``Vpa.sink``) as ``reject``:
a rule the spec lacks goes there.  A ``DistributedMonitor`` is the
read-only endpoint -> spec mapping plus the integer table ``dist_run``
walks with ``vpa.walk``, as the centralized run does; the table names the
same reject state (``Table.reject``).  ``extract_monitor`` copies no rule
and runs no analysis: its specs hold the automaton's own listing
(``Vpa.rules``), which leaves out the rules equal to the sink's, and its
monitor steps the automaton's table.  A compiled automaton holds no cell
outside the sink's rule that a rooted word cannot read
(``compiler.build``), so its filters list exactly the non-sink cells a
rooted request can read.  Endpoints whose rows the table shares (an
endpoint class of a compiled automaton) share one pair of ``Rules``.  A
monitor read back from filter specs (``monitor_from_filters``) builds its
own table with ``vpa.build_table``, over the states they name and the
sink, each cell starting with the sink's rule; for a compiled automaton
that is the automaton's table.  ``dist_run`` sends a state the specs do
not name to the sink, as a script's fall-through does.  With no
``reject``, a rule missing there raises ``MissingTransition``, which
names it.

Running the specs symbol-locally, with the state carried alongside the
request and the pushed stack symbol stored at the hop that pushed it,
reproduces the centralized run configuration-for-configuration.  The
serialized forms list rules in the specs' order, so they are byte-stable.
``filter_spec_to_json`` writes filter schema version 2: the head as
``json.dumps(indent=2, ensure_ascii=False)`` writes it, from one template,
then each rule as an array on one line (``vpa.json_array_member``);
``filter_spec_from_json`` reads version 2 only.  ``render_filter_script``
writes the rules as two Lua lookup tables, requests keyed by state and
responses by state and then popped symbol, which fixed callbacks index, so
a hop costs one lookup instead of a string comparison per rule; each name
is escaped as a Lua string literal.  Both keep the text of a spec's rules
on its ``Rules`` (``Rules.rendered``), so the specs of a class share it and
only the head lines naming the endpoint and the reject state differ.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import chain

from .errors import VpaParseError
from .nested_word import Endpoint, NestedWord
from .vpa import (
    BOTTOM, Configuration, Rules, Table, Vpa, build_table, json_array_member, json_string, link,
    load_document, reject_member, string_arrays, walk,
)

STATE_HEADER = "x-safetree-state"
FILTER_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class FilterSpec:
    """Call/return transitions of one endpoint; a rule it lacks goes to the
    ``reject`` state (a call also pushes it), or is missing when ``reject``
    is ``None``.  A spec extracted from a compiled automaton lists exactly
    the non-sink cells a rooted request can read at its endpoint.  Its
    rules are ``Rules``: a ``Rules`` given is kept, and any other mapping is
    copied once, sorted, so no edit through or behind a spec can leave a
    monitor's table behind."""

    endpoint: Endpoint
    on_request: Mapping[str, tuple[str, str]]  # state -> (state, pushed symbol)
    on_response: Mapping[tuple[str, str], str]  # (state, popped symbol) -> state
    reject: str | None = None

    def __post_init__(self):
        for name in ("on_request", "on_response"):
            if not isinstance(rules := getattr(self, name), Rules):
                object.__setattr__(self, name, Rules(dict(sorted(rules.items()))))


class DistributedMonitor(Mapping):
    """Endpoint -> ``FilterSpec``, read-only, and the table ``dist_run``
    steps: the automaton's own, or one built from the specs.  For the specs
    of a compiled automaton the two tables are equal.  Two specs for one
    endpoint, different ``reject`` states and rules ``build_table`` refuses
    are a ``VpaParseError``."""

    __slots__ = ("_specs", "_table")

    def __init__(self, specs: Iterable[FilterSpec], table: Table | None = None):
        self._specs = {}
        for spec in specs:
            if self._specs.setdefault(spec.endpoint, spec) is not spec:
                raise VpaParseError(f"two filter specs for endpoint {spec.endpoint!r}")
        rejects = {spec.reject for spec in self._specs.values()}
        if len(rejects) > 1:
            raise VpaParseError(f"filter specs name different reject states: "
                                f"{', '.join(sorted(map(repr, rejects)))}")
        if table is None:
            table = _spec_table(self, rejects.pop() if rejects else None)
        self._table = table

    def __getitem__(self, e: Endpoint) -> FilterSpec:
        return self._specs[e]

    def __iter__(self):
        return iter(self._specs)

    def __len__(self):
        return len(self._specs)

    @property
    def reject(self) -> str | None:
        """The reject state every spec names, which the table names."""
        return self._table.reject

    @property
    def table(self) -> Table:
        return self._table


def _spec_table(m: DistributedMonitor, reject: str | None) -> Table:
    """The table of the specs' rules over the states and stack symbols they
    name, their ``reject`` state and the bottom marker."""
    calls = {(q, e): rule for e, spec in m.items() for q, rule in spec.on_request.items()}
    returns = {(q, g, e): dst for e, spec in m.items() for (q, g), dst in spec.on_response.items()}
    states = {x for (q, _), (dst, _) in calls.items() for x in (q, dst)}
    states.update(x for (q, _, _), dst in returns.items() for x in (q, dst))
    symbols = {BOTTOM, *(g for _, g in calls.values()), *(g for _, g, _ in returns)}
    if reject is not None:
        states.add(reject)
        symbols.add(reject)
    return build_table(states, symbols, m, calls, returns, reject)


def extract_monitor(v: Vpa) -> DistributedMonitor:
    """The automaton's per-endpoint specs, holding its listing
    (``Vpa.rules``), which leaves out the rules into the declared reject
    state (``Vpa.sink``).  For a compiled automaton the cells left are
    those a rooted word can read."""
    return DistributedMonitor((FilterSpec(e, *v.rules[e], v.sink) for e in v.alphabet), v.table)


def dist_run(m: DistributedMonitor, init: Configuration, n: NestedWord) -> Configuration:
    """The configuration after the word, starting from ``init``; each step
    is O(1) at any depth.  A state the monitor does not know takes the
    reject state's step, as a script's fall-through does; without a reject
    state, or for a rule missing from the specs, ``MissingTransition``
    names what is missing."""
    t = m.table
    if m.reject is not None and init.state not in t.state_id:
        init = link(m.reject, init.top, init.below)
    return walk(t, init, n)


# -- filter specifications ----------------------------------------------------


def emit_filters(m: DistributedMonitor) -> list[FilterSpec]:
    """One spec per endpoint, in alphabet order."""
    return list(m.values())


def monitor_from_filters(specs: Iterable[FilterSpec]) -> DistributedMonitor:
    return DistributedMonitor(specs)


def _request_member(rules: Mapping) -> str:
    return json_array_member("on_request", [(q, dst, push) for q, (dst, push) in rules.items()])


def _response_member(rules: Mapping) -> str:
    return json_array_member("on_response", [(q, g, dst) for (q, g), dst in rules.items()])


# What json.dumps(head, indent=2, ensure_ascii=False) writes for a filter's
# three head members, without the closing "\n}"
_FILTER_HEAD = f'{{\n  "version": {FILTER_SCHEMA_VERSION},\n  "endpoint": %s,\n  "reject": %s'


def filter_spec_to_json(spec: FilterSpec) -> str:
    reject = "null" if spec.reject is None else json_string(spec.reject)
    return "".join([_FILTER_HEAD % (json_string(spec.endpoint), reject),
                    spec.on_request.rendered(_request_member),
                    spec.on_response.rendered(_response_member), "\n}\n"])


def filter_spec_from_json(text: str) -> FilterSpec:
    """Read a filter spec of the current schema version back, or raise
    ``VpaParseError``."""
    doc = load_document(text, FILTER_SCHEMA_VERSION)
    if not isinstance(doc.get("endpoint"), str):
        raise VpaParseError("endpoint must be a string")
    reject = reject_member(doc)
    request_rows = string_arrays(doc, "on_request", 3)
    response_rows = string_arrays(doc, "on_response", 3)
    on_request = {q: (dst, push) for q, dst, push in request_rows}
    on_response = {(q, local): dst for q, local, dst in response_rows}
    if len(on_request) < len(request_rows) or len(on_response) < len(response_rows):
        raise VpaParseError("a rule key appears more than once")
    return FilterSpec(doc["endpoint"], on_request, on_response, reject)


# -- sidecar scripts ----------------------------------------------------------

# Backslash, double quote and the control characters (U+0000-U+001F and
# U+007F-U+009F), as Lua writes them in a string: a control character as
# its UTF-8 bytes, each three decimal digits, so no digit after one can
# join the escape
_LUA_ESCAPES = {c: "".join(f"\\{b:03d}" for b in chr(c).encode())
                for c in (*range(32), *range(127, 160))}
_LUA_ESCAPES.update({ord("\\"): "\\\\", ord('"'): '\\"'})
_NEEDS_ESCAPE = re.compile("[%s]" % re.escape("".join(map(chr, _LUA_ESCAPES))))


def _escaped(rows: list[tuple[str, ...]]) -> list[tuple[str, ...]]:
    """The rows with each name escaped for a Lua string literal.  One
    search over all the names finds whether any needs an escape; nearly
    no rows do, and they are returned as they are."""
    if _NEEDS_ESCAPE.search("".join(chain.from_iterable(rows))) is None:
        return rows
    return [tuple(s.translate(_LUA_ESCAPES) for s in row) for row in rows]


# The callbacks: a rule the state (and popped symbol) finds applies; a
# request already in the reject state stays there without logging; any
# other goes to the reject state and logs a violation
_CALLBACKS = """\
callback OnRequest() {
  local rule = on_request[state]
  if rule then state = rule[1]; local_stack = rule[2]
  elseif state == reject then local_stack = reject
  else state = reject; local_stack = reject; log_violation("no call transition")
  end
}
callback OnResponse() {
  local rules = on_response[state]
  local rule = rules and rules[local_stack]
  if rule then state = rule
  elseif state ~= reject then state = reject; log_violation("no return transition")
  end
}
"""

# Without a reject state, a state no rule matches only logs
_CALLBACKS_NO_REJECT = """\
callback OnRequest() {
  local rule = on_request[state]
  if rule then state = rule[1]; local_stack = rule[2]
  else log_violation("no call transition")
  end
}
callback OnResponse() {
  local rules = on_response[state]
  local rule = rules and rules[local_stack]
  if rule then state = rule
  else log_violation("no return transition")
  end
}
"""


def render_filter_script(spec: FilterSpec, header: str = STATE_HEADER) -> str:
    """Deterministic sidecar-callback rendering of one filter.

    The ``state`` value travels in the request header; ``local_stack`` is
    request-scoped proxy memory written by OnRequest and read back by
    OnResponse.  The rules are two lookup tables, ``on_request`` keyed by
    the state and ``on_response`` by the state and then the popped symbol,
    and fixed callbacks index them, so a hop costs one lookup per
    direction.  When the spec names a reject state (``local reject``), a
    request already in it stays there without logging, and one that no
    rule matches goes to it and logs a violation.  A spec extracted from a
    compiled automaton lists exactly the non-sink cells a rooted request
    can read, so a rooted request misses the tables only where the
    automaton goes to the sink.  Every name, the endpoint and the header
    in the head comment too, is written as a Lua string literal.
    """
    [(endpoint, header, reject)] = _escaped([(spec.endpoint, header, spec.reject or "")])
    head = f'-- traffic filter for endpoint "{endpoint}" (header: "{header}")\n'
    if spec.reject is not None:
        head += f'local reject = "{reject}"\n'
    return "".join([head, spec.on_request.rendered(_request_table),
                    spec.on_response.rendered(_response_table),
                    _CALLBACKS_NO_REJECT if spec.reject is None else _CALLBACKS])


def _request_table(rules: Mapping) -> str:
    rows = _escaped([(q, dst, push) for q, (dst, push) in rules.items()])
    return _lua_table("on_request", list(map('["%s"] = {"%s", "%s"}'.__mod__, rows)))


def _response_table(rules: Mapping) -> str:
    cells: dict[str, list[str]] = {}  # in key order, so grouped by state in sorted order
    for q, g, dst in _escaped([(q, g, dst) for (q, g), dst in rules.items()]):
        cells.setdefault(q, []).append(f'["{g}"] = "{dst}"')
    return _lua_table("on_response", [f'["{q}"] = {{{", ".join(row)}}}'
                                      for q, row in cells.items()])


def _lua_table(name: str, rows: list[str]) -> str:
    if not rows:
        return f"local {name} = {{}}\n"
    return f"local {name} = {{\n  " + ",\n  ".join(rows) + "\n}\n"
