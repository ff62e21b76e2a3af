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
serialized forms list rules in the specs' order, so they are byte-stable:
``filter_spec_to_json`` writes the bytes ``json.dumps(indent=2,
ensure_ascii=False)`` gives for one object per rule, its head from one
template, and ``render_filter_script`` formats each rule with one
template.  Both keep the text of a spec's rules on its ``Rules``
(``Rules.rendered``), so the specs of a class share it and only the head
line naming the endpoint differs.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import VpaParseError
from .nested_word import Endpoint, NestedWord
from .vpa import (
    BOTTOM, Configuration, Rules, Table, Vpa, build_table, json_member, json_string, link,
    load_document, reject_member, string_rows, walk,
)

STATE_HEADER = "x-safetree-state"
FILTER_SCHEMA_VERSION = 1


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
    return json_member("on_request", ("if_state", "then_state", "push_local"),
                       [(q, dst, push) for q, (dst, push) in rules.items()])


def _response_member(rules: Mapping) -> str:
    return json_member("on_response", ("if_state", "if_local", "then_state"),
                       [(q, g, dst) for (q, g), dst in rules.items()])


# What json.dumps(head, indent=2, ensure_ascii=False) writes for a filter's
# three head members, without the closing "\n}"
_FILTER_HEAD = f'{{\n  "version": {FILTER_SCHEMA_VERSION},\n  "endpoint": %s,\n  "reject": %s'


def filter_spec_to_json(spec: FilterSpec) -> str:
    reject = "null" if spec.reject is None else json_string(spec.reject)
    return "".join([_FILTER_HEAD % (json_string(spec.endpoint), reject),
                    spec.on_request.rendered(_request_member),
                    spec.on_response.rendered(_response_member), "\n}\n"])


def filter_spec_from_json(text: str) -> FilterSpec:
    """Read a filter spec back, or raise ``VpaParseError``."""
    doc = load_document(text, FILTER_SCHEMA_VERSION)
    if not isinstance(doc.get("endpoint"), str):
        raise VpaParseError("endpoint must be a string")
    reject = reject_member(doc)
    request_rows = string_rows(doc, "on_request", ("if_state", "then_state", "push_local"))
    response_rows = string_rows(doc, "on_response", ("if_state", "if_local", "then_state"))
    on_request = {q: (dst, push) for q, dst, push in request_rows}
    on_response = {(q, local): dst for q, local, dst in response_rows}
    if len(on_request) < len(request_rows) or len(on_response) < len(response_rows):
        raise VpaParseError("a rule key appears more than once")
    return FilterSpec(doc["endpoint"], on_request, on_response, reject)


def render_filter_script(spec: FilterSpec, header: str = STATE_HEADER) -> str:
    """Deterministic sidecar-callback rendering of one filter.

    The ``state`` value travels in the request header; ``local_stack`` is
    request-scoped proxy memory written by OnRequest and read back by
    OnResponse.  When the spec names a reject state, a last branch keeps a
    request that is in it there without logging, and unmatched states fall
    through to it; the fall-through logs a violation.  A spec extracted
    from a compiled automaton lists exactly the non-sink cells a rooted
    request can read, so a rooted request falls through only where the
    automaton goes to the sink.
    """
    return "".join([
        f"-- traffic filter for endpoint {spec.endpoint} (header: {header})\n",
        spec.on_request.rendered(_on_request_script, spec.reject),
        spec.on_response.rendered(_on_response_script, spec.reject),
    ])


def _on_request_script(rules: Mapping, r: str | None) -> str:
    branches = [f'(state == "{q}") then state = "{dst}"; local_stack = "{push}"'
                for q, (dst, push) in rules.items()]
    push_reject = ""
    if r is not None:
        # the sink's own rule, last: a request in it stays there silently
        branches.append(f'(state == "{r}") then state = "{r}"; local_stack = "{r}"')
        push_reject = f'state = "{r}"; local_stack = "{r}"; '
    return f"callback OnRequest() {{\n{_branches(branches, push_reject, 'no call transition')}}}\n"


def _on_response_script(rules: Mapping, r: str | None) -> str:
    branches = [f'(state == "{q}" && local_stack == "{g}") then state = "{dst}"'
                for (q, g), dst in rules.items()]
    to_reject = ""
    if r is not None:
        branches.append(f'(state == "{r}") then state = "{r}"')
        to_reject = f'state = "{r}"; '
    return f"callback OnResponse() {{\n{_branches(branches, to_reject, 'no return transition')}}}\n"


def _branches(rules: list[str], reject: str, violation: str) -> str:
    """An if/elseif chain over the rules, falling through to the reject
    assignments and a violation log."""
    fallback = f'{reject}log_violation("{violation}")\n'
    if not rules:
        return "  " + fallback
    return "  if " + "\n  elseif ".join(rules) + "\n  else " + fallback
