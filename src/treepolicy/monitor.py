"""Distributed monitor: one transition table per endpoint.

A deterministic complete automaton splits by endpoint.  The ``FilterSpec``
of an endpoint holds its call rules as ``on_request`` (state -> state and
pushed symbol) and its return rules as ``on_response`` (state and popped
symbol -> state), read-only and in sorted key order, and names the
automaton's reject sink as ``reject``: a rule the spec lacks goes there.
A ``DistributedMonitor`` is the read-only endpoint -> spec mapping plus the
integer table ``dist_run`` walks with ``vpa.walk``, as the centralized run
does.  ``extract_monitor`` copies no rule: its specs are row views of
``Vpa.table``, and its monitor steps that table.  A filter lists exactly
the non-sink cells a rooted request can read: ``reached_cells`` finds the
cells a rooted word reads with a summary fixpoint, once per monitor when
its specs' rules are first read, and the views leave out the others and
the rules equal to the sink's.  An
automaton without a sink keeps every cell.  Endpoints whose rows the table
shares (an endpoint class of a compiled automaton) share one pair of
views.  A monitor read back from filter specs (``monitor_from_filters``)
builds its own table with ``vpa.build_table``, over the states they name
and the sink, each cell starting with the sink's rule; ``dist_run`` sends
a state they do not name to the sink, as a script's fall-through does.
So it agrees with ``extract_monitor``'s table on every cell a rooted word
reads, and only there.  With no ``reject``, a rule missing there raises
``MissingTransition``, which names it.

Running the specs symbol-locally, with the state carried alongside the
request and the pushed stack symbol stored at the hop that pushed it,
reproduces the centralized run configuration-for-configuration on rooted
words and their prefixes.  The serialized forms list rules in the specs'
order, so they are byte-stable: ``filter_spec_to_json`` writes through
``vpa.json_document`` the bytes ``json.dumps(indent=2,
ensure_ascii=False)`` gives for one object per rule, and
``render_filter_script`` formats each rule with one template.  Both keep
the text of a view's rules on the view (``TableRules.memo``), so the specs
of a class share it and only the head line naming the endpoint differs.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType

from .errors import VpaParseError
from .nested_word import Endpoint, NestedWord
from .vpa import (
    BOTTOM, Configuration, RequestRules, ResponseRules, Table, TableRules, Vpa, build_table,
    json_document, json_member, link, load_document, reject_member, reject_sink, skipped_cells,
    string_rows, walk,
)

STATE_HEADER = "x-safetree-state"
FILTER_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class FilterSpec:
    """Call/return transitions of one endpoint; a rule it lacks goes to the
    ``reject`` state (a call also pushes it), or is missing when ``reject``
    is ``None``.  An extracted spec lists exactly the non-sink cells a
    rooted request can read at its endpoint.  Rules read from a table are
    kept as they are; any other mapping is copied once, sorted, so no edit
    through or behind a spec can leave a monitor's table behind."""

    endpoint: Endpoint
    on_request: Mapping[str, tuple[str, str]]  # state -> (state, pushed symbol)
    on_response: Mapping[tuple[str, str], str]  # (state, popped symbol) -> state
    reject: str | None = None

    def __post_init__(self):
        for name in ("on_request", "on_response"):
            if not isinstance(rules := getattr(self, name), TableRules):
                object.__setattr__(self, name, MappingProxyType(dict(sorted(rules.items()))))


class DistributedMonitor(Mapping):
    """Endpoint -> ``FilterSpec``, read-only, and the table ``dist_run``
    steps: the automaton's own, or one built from the specs.  The
    automaton's table, as ``extract_monitor`` keeps it, agrees with its
    specs on every cell a rooted word reads; the specs leave out the other
    cells.  Two specs for one endpoint, different ``reject`` states and
    rules ``build_table`` refuses are a ``VpaParseError``."""

    __slots__ = ("_specs", "_table", "_reject")

    def __init__(self, specs: Iterable[FilterSpec], table: Table | None = None):
        self._specs = {}
        for spec in specs:
            if self._specs.setdefault(spec.endpoint, spec) is not spec:
                raise VpaParseError(f"two filter specs for endpoint {spec.endpoint!r}")
        rejects = {spec.reject for spec in self._specs.values()}
        if len(rejects) > 1:
            raise VpaParseError(f"filter specs name different reject states: "
                                f"{', '.join(sorted(map(repr, rejects)))}")
        self._reject = rejects.pop() if rejects else None
        self._table = table if table is not None else _spec_table(self)

    def __getitem__(self, e: Endpoint) -> FilterSpec:
        return self._specs[e]

    def __iter__(self):
        return iter(self._specs)

    def __len__(self):
        return len(self._specs)

    @property
    def reject(self) -> str | None:
        """The reject state every spec names."""
        return self._reject

    @property
    def table(self) -> Table:
        return self._table


def _spec_table(m: DistributedMonitor) -> Table:
    """The table of the specs' rules over the states and stack symbols they
    name, the reject state and the bottom marker."""
    calls = {(q, e): rule for e, spec in m.items() for q, rule in spec.on_request.items()}
    returns = {(q, g, e): dst for e, spec in m.items() for (q, g), dst in spec.on_response.items()}
    states = {x for (q, _), (dst, _) in calls.items() for x in (q, dst)}
    states.update(x for (q, _, _), dst in returns.items() for x in (q, dst))
    symbols = {BOTTOM, *(g for _, g in calls.values()), *(g for _, g, _ in returns)}
    if m.reject is not None:
        states.add(m.reject)
        symbols.add(m.reject)
    return build_table(states, symbols, m, calls, returns, m.reject)


def extract_monitor(v: Vpa) -> DistributedMonitor:
    """The automaton's per-endpoint specs, read in place from its table.
    With a reject sink, each lists the cells a rooted word can read
    (``reached_cells``) less the rules into the sink; without one, every
    cell.  The cells are found once, when a spec's rules are first read, so
    a monitor only ``dist_run`` steps never pays for them.  The monitor
    steps the automaton's own table."""
    t = v.table
    sink = reject_sink(v)
    classes: dict[tuple[int, int], list[Endpoint]] = {}  # endpoints sharing their rows
    for e in v.alphabet:
        classes.setdefault((id(t.request[e]), id(t.response[e])), []).append(e)
    rows = [(t.request[members[0]], t.response[members[0]]) for members in classes.values()]

    @cache
    def listed() -> list[tuple[tuple, tuple]]:
        """Each class's listed call cells and return cells."""
        if sink is None:
            calls = range(len(t.states))
            returns = [[(h, i) for h in calls for i in range(len(t.symbols))]] * len(rows)
        else:
            calls, returns = reached_cells(t.state_id[v.initial], rows)
            calls = sorted(calls)
        skip_call, skip_return = skipped_cells(t, sink)
        return [(tuple(h for h in calls if request[h] not in skip_call),
                 tuple(sorted((h, i) for h, i in reached if response[i][h] not in skip_return)))
                for (request, response), reached in zip(rows, returns)]

    specs = {}
    for k, members in enumerate(classes.values()):
        on_request = RequestRules(t, members[0], lambda k=k: listed()[k][0])
        on_response = ResponseRules(t, members[0], lambda k=k: listed()[k][1])
        for e in members:
            specs[e] = FilterSpec(e, on_request, on_response, sink)
    return DistributedMonitor(map(specs.__getitem__, v.alphabet), t)


def reached_cells(initial: int, rows: Sequence[tuple[tuple, tuple]]
                  ) -> tuple[set[int], list[set[tuple[int, int]]]]:
    """The cells of a table a rooted word can read (Alur & Madhusudan,
    "Adding Nesting Structure to Words", JACM 2009): the ids of the states
    a call is made from, and for each (request row, response rows) pair of
    ``rows`` the (state, popped symbol) ids a return is read at.

    W(q0) is the set of states reachable from q0 over any sequence of
    complete child subtrees.  The root call is made from the initial state.
    A call from p that enters q0 and pushes g has its child calls made from
    the states of W(q0), and its return read at (q1, g) for each q1 in
    W(q0); the state it returns to joins W of the subtree around p.  A
    worklist takes each pair (q0, q1 in W(q0)) once, when it is found, and
    relates it to the callers that entered q0 before; a caller found later
    relates itself to the pairs taken before it."""
    requests = [request for request, _ in rows]
    exits: dict[int, set[int]] = {}  # q0 -> W(q0) found so far
    done: dict[int, list[int]] = {}  # q0 -> the states of W(q0) taken off the worklist
    callers: dict[int, set[tuple]] = {}  # q0 -> (q0 around the caller or None, row, pushed)
    returns = [set() for _ in rows]

    def returned(around, c, g, q1):
        returns[c].add((q1, g))
        if around is not None and (q := rows[c][1][g][q1]) not in exits[around]:
            exits[around].add(q)
            todo.append((around, q))

    todo = [(None, initial)]  # the root call is made around nothing
    while todo:
        around, p = todo.pop()
        for c, request in enumerate(requests):
            q0, g = request[p]
            if q0 not in exits:
                exits[q0], done[q0], callers[q0] = {q0}, [], set()
                todo.append((q0, q0))
            if (caller := (around, c, g)) not in callers[q0]:
                callers[q0].add(caller)
                for q1 in done[q0]:
                    returned(*caller, q1)
        if around is not None:
            done[around].append(p)
            for caller in callers[around]:
                returned(*caller, p)
    return {initial}.union(*exits.values()), returns


def dist_run(m: DistributedMonitor, init: Configuration, n: NestedWord) -> Configuration:
    """The configuration after the word, starting from ``init``; each step
    is O(1) at any depth.  A state the monitor does not know takes the
    reject state's step, as a script's fall-through does; without a reject
    state, or for a rule missing from the specs, ``MissingTransition``
    names what is missing."""
    t = m.table
    if m.reject is not None and init.state not in t.state_id:
        init = link(m.reject, init.top, init.below)
    return walk(t, init, n.symbols)


# -- filter specifications ----------------------------------------------------


def emit_filters(m: DistributedMonitor) -> list[FilterSpec]:
    """One spec per endpoint, in alphabet order."""
    return list(m.values())


def monitor_from_filters(specs: Iterable[FilterSpec]) -> DistributedMonitor:
    return DistributedMonitor(specs)


def _rendered(rules: Mapping, render, *args) -> str:
    """``render(rules, *args)``, kept on the rules when they are a table
    view: the specs of an endpoint class share their views, so a class's
    text is made once."""
    if isinstance(rules, TableRules):
        return rules.memo((render, *args), lambda: render(rules, *args))
    return render(rules, *args)


def _request_member(rules: Mapping) -> str:
    return json_member("on_request", ("if_state", "then_state", "push_local"),
                       [(q, dst, push) for q, (dst, push) in rules.items()])


def _response_member(rules: Mapping) -> str:
    return json_member("on_response", ("if_state", "if_local", "then_state"),
                       [(q, g, dst) for (q, g), dst in rules.items()])


def filter_spec_to_json(spec: FilterSpec) -> str:
    head = {"version": FILTER_SCHEMA_VERSION, "endpoint": spec.endpoint, "reject": spec.reject}
    return json_document(head, [_rendered(spec.on_request, _request_member),
                                _rendered(spec.on_response, _response_member)])


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
    through to it; the fall-through logs a violation.  An extracted spec
    lists exactly the non-sink cells a rooted request can read, so a
    rooted request falls through only where the automaton goes to the sink.
    """
    return "".join([
        f"-- traffic filter for endpoint {spec.endpoint} (header: {header})\n",
        _rendered(spec.on_request, _on_request_script, spec.reject),
        _rendered(spec.on_response, _on_response_script, spec.reject),
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
