"""Visibly pushdown automata: representation, runs, serialization.

The stack action is dictated by the symbol's tag: calls push, returns pop.
Automata here are deterministic and complete: the call table is total over
states x endpoints, the return table over states x stack symbols x
endpoints.  The bottom marker is never pushed; a return arriving with only
the bottom marker on the stack raises ``StackUnderflow`` (impossible on
rooted well-matched input).

``Vpa.table`` is an automaton's one rule store (see ``Table``): ids number
names in sorted order.  ``Vpa.from_rules`` is the checked constructor from
string-keyed rules, through ``build_table``.  The unchecked ``walk`` steps
the table for ``final_configuration``, ``run`` and ``dist_run``, reading a
word's integer codes (see ``nested_word``), not its symbol objects; the
checked ``steps`` names the fault a walk hit and builds the items of a
``Run``.  Configurations share their stacks, and automata and
configurations are never changed.

``Vpa.rules`` is the one place rules are read out of a table: for each
endpoint, its call rules and its return rules as two read-only ``Rules``
mappings in sorted key order.  It reads each distinct pair of rows once,
the endpoints of a class share the pair, and the automaton keeps it.
Filter specs hold these mappings (``monitor.extract_monitor``), and
``export_vpa`` lists them, writing JSON or Graphviz DOT, byte-stable:
rules appear in sorted key order (``Vpa.listing``, sorted once per
automaton).  The JSON equals what ``json.dumps(doc, indent=2,
ensure_ascii=False)`` makes of one object per rule.  ``json_member``
writes each table from a row template, escaping each name once, since
``indent`` sends ``json.dumps`` to its pure-Python encoder.

Written automata are default-reject.  A table names its reject state
(``Table.reject``, read as ``Vpa.sink``): the state whose rule
``build_table`` gives every cell no rule names.  The writers leave out
every rule equal to its rule and name it as ``reject``, and ``import_vpa``
and read-back monitors start every cell with that rule.  A table built
without a reject state names none, and its writers list every rule.
Completeness is a property of the automaton in memory, not of files.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

from .errors import MissingTransition, StackUnderflow, VpaParseError
from .nested_word import Endpoint, IndexedSymbol, NestedWord

BOTTOM = "⊥"

State = str
StackSymbol = str

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Vpa:
    """An automaton; equality compares tables, so rule order never counts."""

    states: frozenset[State]
    initial: State
    finals: frozenset[State]
    alphabet: tuple[Endpoint, ...]
    stack_alphabet: frozenset[StackSymbol]  # includes BOTTOM
    table: Table

    @property
    def sink(self) -> State | None:
        """The reject state the table names (``Table.reject``), or ``None``."""
        return self.table.reject

    @cached_property
    def rules(self) -> dict[Endpoint, tuple[Rules, Rules]]:
        """Each endpoint's call rules (state -> (state, pushed symbol)) and
        return rules ((state, popped symbol) -> state), but the sink's: the
        one listing of the table, made on first use and kept on the
        automaton (not a field: equality ignores it).  Each distinct pair of
        rows is read once; the endpoints sharing it share its pair of
        ``Rules``."""
        t, sink = self.table, self.sink
        states, symbols = t.states, t.symbols
        skip_call = skip_return = (None,)
        if sink is not None:
            h = t.state_id[sink]
            skip_call, skip_return = (None, (h, t.symbol_id[sink])), (None, h)
        classes, rules = {}, {}
        for e in self.alphabet:
            request, response = t.request[e], t.response[e]
            if (key := (id(request), id(response))) not in classes:
                classes[key] = (
                    Rules({q: (states[r[0]], symbols[r[1]])
                           for q, r in zip(states, request) if r not in skip_call}),
                    Rules({(q, g): states[r] for q, column in zip(states, zip(*response))
                           for g, r in zip(symbols, column) if r not in skip_return}))
            rules[e] = classes[key]
        return rules

    @cached_property
    def listing(self) -> tuple[list[tuple[str, ...]], list[tuple[str, ...]]]:
        """(from, sym, to, push) for each call rule and (from, pop, sym, to)
        for each return rule of ``rules``, sorted once for both writers."""
        rules = self.rules.items()
        return (sorted((q, e, *rule) for e, (calls, _) in rules for q, rule in calls.items()),
                sorted((q, g, e, dst) for e, (_, returns) in rules
                       for (q, g), dst in returns.items()))

    @classmethod
    def from_rules(cls, states: Iterable[State], initial: State, finals: Iterable[State],
                   alphabet: Iterable[Endpoint], stack_alphabet: Iterable[StackSymbol],
                   delta_call: Mapping, delta_return: Mapping, reject: State | None = None) -> Vpa:
        """The automaton of the rules, complete and well-formed, else a
        ``VpaParseError``; a rule left out goes to the ``reject`` state."""
        states, finals, stack_alphabet = map(frozenset, (states, finals, stack_alphabet))
        if reject is not None and reject in finals:
            raise VpaParseError(f"reject state {reject!r} is final")
        table = build_table(states, stack_alphabet, alphabet, delta_call, delta_return, reject)
        v = cls(states, initial, finals, tuple(alphabet), stack_alphabet, table)
        _refuse(check_well_formed(v).problems)
        return v


class Configuration:
    """A state and a stack, built from the stack tuple (bottom first).

    ``top`` is the top stack symbol and ``below`` the configuration whose
    stack is this one without its top (``None`` when ``top`` is the bottom
    marker); only its stack counts, not its state.  ``stack`` rebuilds the
    tuple in O(depth) and is never needed by a run.  Equality and hashing
    compare the state and the stack contents, with loops rather than
    recursion, so stacks of any depth compare, hash and free safely.
    """

    __slots__ = ("state", "top", "below")

    def __init__(self, state: State, stack: tuple[StackSymbol, ...]):
        if not stack or stack[0] != BOTTOM or BOTTOM in stack[1:]:
            raise ValueError("stack must hold exactly one bottom marker, at position 0")
        below = None
        for s in stack[:-1]:
            below = link(state, s, below)
        self.state, self.top, self.below = state, stack[-1], below

    @property
    def stack(self) -> tuple[StackSymbol, ...]:
        symbols = []
        c = self
        while c is not None:
            symbols.append(c.top)
            c = c.below
        return tuple(reversed(symbols))

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        if self.state != other.state:
            return False
        a, b = self, other
        while a is not b:
            if a is None or b is None or a.top != b.top:
                return False
            a, b = a.below, b.below
        return True

    def __hash__(self):
        return hash((self.state, self.stack))

    def __repr__(self):
        return f"Configuration(state={self.state!r}, stack={self.stack!r})"


_new = object.__new__


def link(state: State, top: StackSymbol, below: Configuration | None) -> Configuration:
    """A configuration from its fields, without the tuple check."""
    c = _new(Configuration)
    c.state, c.top, c.below = state, top, below
    return c


def initial_configuration(v: Vpa) -> Configuration:
    return Configuration(v.initial, (BOTTOM,))


# -- the integer table and the runs that step it -------------------------------


class Table(NamedTuple):
    """The integer form of one automaton's transitions.

    A state's id is its position in ``states`` and a stack symbol's its
    position in ``symbols``, both sorted; ``state_id`` and ``symbol_id``
    invert them.  For endpoint ``e``, ``request[e][h]`` is the state id
    after a call in state ``h`` and the id of the pushed symbol, and
    ``response[e][g][h]`` the state id after a return that pops ``g``.  A
    cell without a rule is ``None``; only a read-back monitor's may be.
    ``reject`` is the state whose rule fills every cell no rule names, or
    ``None``.  Endpoints may share rows: a compiled automaton gives every
    endpoint of a class the very row objects of the class's first member.
    """

    states: tuple[State, ...]
    symbols: tuple[StackSymbol, ...]
    state_id: dict[State, int]
    symbol_id: dict[StackSymbol, int]
    request: dict[Endpoint, tuple[tuple[int, int] | None, ...]]
    response: dict[Endpoint, tuple[tuple[int | None, ...], ...]]
    reject: State | None


def build_table(states: Collection[State], symbols: Collection[StackSymbol],
                alphabet: Iterable[Endpoint], calls: Mapping, returns: Mapping,
                reject: State | None = None) -> Table:
    """The table of the string-keyed rules, naming the ``reject`` state,
    each cell starting with its rule (or ``None``).  ``VpaParseError``
    refuses rules over undeclared names or a reject state, and pushes of the
    bottom marker."""
    states, symbols = tuple(sorted(states)), tuple(sorted(symbols))
    state_id = {q: i for i, q in enumerate(states)}
    symbol_id = {g: i for i, g in enumerate(symbols)}
    call_fill = return_fill = None
    if reject is not None:
        if reject not in state_id:
            raise VpaParseError(f"reject state {reject!r} is not declared")
        if reject not in symbol_id:
            raise VpaParseError(f"reject state {reject!r} is not in the stack alphabet")
        call_fill, return_fill = (state_id[reject], symbol_id[reject]), state_id[reject]
    request = {e: [call_fill] * len(states) for e in alphabet}
    response = {e: [[return_fill] * len(states) for _ in symbols] for e in alphabet}
    problems = []

    def unknown(rule: str, q: State, q2: State, e: Endpoint, g: StackSymbol, verb: str):
        problems.extend(p for bad, p in (
            (q not in state_id or q2 not in state_id, f"{rule} touches unknown state"),
            (e not in request, f"{rule} reads unknown endpoint {e!r}"),
            (g not in symbol_id and g != BOTTOM, f"{rule} {verb} unknown symbol {g!r}")) if bad)

    for (q, e), (q2, g) in calls.items():
        try:
            request[e][state_id[q]] = state_id[q2], symbol_id[g]
        except KeyError:
            unknown(f"call transition ({q!r}, {e!r})", q, q2, e, g, "pushes")
        if g == BOTTOM:
            problems.append(f"call transition ({q!r}, {e!r}) pushes the bottom marker")
    if reject == BOTTOM and any(call_fill in row for row in request.values()):
        problems.append(f"a call into reject state {reject!r} pushes the bottom marker")
    for (q, g, e), q2 in returns.items():
        try:
            response[e][symbol_id[g]][state_id[q]] = state_id[q2]
        except KeyError:
            unknown(f"return transition ({q!r}, {g!r}, {e!r})", q, q2, e, g, "pops")
    _refuse(problems)
    return Table(
        states, symbols, state_id, symbol_id,
        {e: tuple(row) for e, row in request.items()},
        {e: tuple(map(tuple, rows)) for e, rows in response.items()}, reject,
    )


def _refuse(problems: Sequence[str]) -> None:
    """``VpaParseError`` naming the first three problems, if there are any."""
    if problems:
        more = f" (and {len(problems) - 3} more)" if len(problems) > 3 else ""
        raise VpaParseError(f"ill-formed automaton: {'; '.join(problems[:3])}{more}")


class Rules(Mapping):
    """One endpoint's rules, read-only, in sorted key order, over the dict
    given, which nothing else may hold.  ``rendered`` keeps the text made
    from them, so the filter specs sharing them render it once."""

    __slots__ = ("_rules", "_text")

    def __init__(self, rules: dict):
        self._rules, self._text = rules, {}

    def __getitem__(self, key):
        return self._rules[key]

    def __iter__(self):
        return iter(self._rules)

    def __len__(self):
        return len(self._rules)

    def items(self):
        return self._rules.items()

    def rendered(self, render, *args) -> str:
        """``render(self, *args)``, made once per arguments and kept."""
        key = render, *args
        if key not in self._text:
            self._text[key] = render(self, *args)
        return self._text[key]


def walk(t: Table, c: Configuration, word: NestedWord) -> Configuration:
    """The configuration after the word, starting from ``c``.

    The walk steps the word's codes (``NestedWord.coding``).  It first
    resolves the word's rows, one C call per table, into one tuple indexed
    by code: a call's request row, then a return's response rows.  The
    state and the top stack symbol stay ints and the stack below the top a
    list of ints, so a step builds nothing: a call pushes the top and reads
    its row, a return reads its row and pops.  The configuration is
    converted on entry and rebuilt on exit.  The loop checks nothing; a
    lookup that fails, or a missing rule's ``None`` reaching the next
    lookup, sends the walk to ``steps``, whose checked replay over the
    word's symbols names the fault.  The replay's last configuration is the
    result when there is no fault: an enumerated word's coding lists the
    whole alphabet, and a request's the topology's services, which a table
    may not cover.
    """
    names, codes, rows_of = word.coding
    k = len(names)  # calls are coded below k
    try:
        rows = rows_of(t.request) + rows_of(t.response)
        q, top, below = _enter(t, c)
        push, pop = below.append, below.pop
        for a in codes:
            if a < k:
                push(top)
                q, top = rows[a][q]
            else:
                q, top = rows[a][top][q], pop()
        return _leave(t, q, top, below)
    except (KeyError, IndexError, TypeError):
        last = c
        for last in steps(t, c, word.symbols):
            pass
        return last


def _enter(t: Table, c: Configuration) -> tuple[int, int, list[int]]:
    symbol_id = t.symbol_id
    below = []
    d = c.below
    while d is not None:
        below.append(symbol_id[d.top])
        d = d.below
    below.reverse()
    return t.state_id[c.state], symbol_id[c.top], below


def _leave(t: Table, q: int, top: int, below: list[int]) -> Configuration:
    state, symbols = t.states[q], t.symbols
    c = None
    for g in below:
        c = link(state, symbols[g], c)
    return link(state, symbols[top], c)


def steps(t: Table, c: Configuration, symbols: Sequence[IndexedSymbol]) -> Iterator[Configuration]:
    """The configuration after each symbol, starting from ``c``, checking
    every lookup: ``StackUnderflow`` or ``MissingTransition`` names the
    first that fails.  A push links the new configuration to the current
    one and a pop reuses the stack below, so configurations share their
    stacks."""
    states, names, request, response = t.states, t.symbols, t.request, t.response
    try:
        q, top, below = _enter(t, c)
    except KeyError as exc:
        raise MissingTransition(f"no rules for {exc.args[0]!r}") from None
    for a in symbols:
        e = a.symbol.endpoint
        if e not in request:
            raise MissingTransition(f"no rules for endpoint {e!r}")
        if a.is_call:
            if request[e][q] is None:
                raise MissingTransition(f"no call rule at {e!r} for state {states[q]!r}")
            below.append(top)
            q, top = request[e][q]
            c = link(states[q], names[top], c)
        elif not below:
            raise StackUnderflow(f"return from {e!r} with empty stack in state {states[q]!r}")
        elif response[e][top][q] is None:
            raise MissingTransition(
                f"no return rule at {e!r} for state {states[q]!r} / popped {names[top]!r}"
            )
        else:
            q, top = response[e][top][q], below.pop()
            c = link(states[q], c.below.top, c.below.below)
        yield c


def final_configuration(v: Vpa, n: NestedWord, init: Configuration | None = None) -> Configuration:
    """The last configuration of ``run``.  Memory is linear in the nesting
    depth, not in the length of the word."""
    return walk(v.table, init if init is not None else initial_configuration(v), n)


def accepts(v: Vpa, n: NestedWord) -> bool:
    return final_configuration(v, n).state in v.finals


def run(v: Vpa, n: NestedWord, init: Configuration | None = None) -> "Run":
    """The configuration sequence, starting from ``init`` (length |n|+1).

    The walk happens here, so the last configuration is ready; the others,
    and the word's symbols they step, are built the first time one of them
    is read.
    """
    c = init if init is not None else initial_configuration(v)
    t = v.table
    return Run(t, c, n, walk(t, c, n))


class Run(Sequence):
    """The configurations of a run: the initial one, then one after each
    symbol.  The last is the walk's result.  The first time another item
    is read, all of them are built at once by ``steps``, so configurations
    share their stacks.  Compares equal to a list of the same
    configurations.
    """

    __slots__ = ("_table", "_init", "_word", "_last", "_items")
    __hash__ = None

    def __init__(self, t: Table, init: Configuration, word: NestedWord, last: Configuration):
        self._table, self._init, self._word, self._last, self._items = t, init, word, last, None

    def __len__(self) -> int:
        return len(self._word) + 1

    def __getitem__(self, i):
        if i == -1 or i == len(self._word):
            return self._last
        return self._configurations()[i]

    def __iter__(self):
        return iter(self._configurations())

    def __eq__(self, other):
        if isinstance(other, (Run, list)):
            return self._configurations() == list(other)
        return NotImplemented

    def __repr__(self):
        return f"Run({self._configurations()!r})"

    def _configurations(self) -> list[Configuration]:
        if self._items is None:
            self._items = [self._init, *steps(self._table, self._init, self._word.symbols)]
        return self._items


@dataclass(frozen=True)
class WellFormedReport:
    ok: bool
    problems: tuple[str, ...]


def check_well_formed(v: Vpa) -> WellFormedReport:
    """The declared names (the initial and final states, the bottom marker,
    each endpoint once, the names the table numbers) and no ``None`` cell,
    testing each distinct row once; ``build_table`` refuses the rest."""
    t = v.table
    problems = []
    if v.initial not in v.states:
        problems.append(f"initial state {v.initial!r} not in states")
    for q in sorted(v.finals - v.states):
        problems.append(f"final state {q!r} not in states")
    if BOTTOM not in v.stack_alphabet:
        problems.append("stack alphabet lacks the bottom marker")
    for e, n in Counter(v.alphabet).items():
        if n > 1:
            problems.append(f"alphabet names {e!r} more than once")
    names = sorted(v.states), sorted(v.stack_alphabet), list(dict.fromkeys(v.alphabet))
    if (list(t.states), list(t.symbols), list(t.request)) != names:
        problems.append("the table does not number the declared names")
    calls = _holed(t.request, lambda row: None in row)
    returns = _holed(t.response, lambda rows: any(None in row for row in rows))
    problems += [f"missing call transition {(q, e)!r}" for h, q in enumerate(t.states)
                 for e, row in calls if row[h] is None]
    if returns:  # else the states x symbols loop would find nothing
        problems += [f"missing return transition {(q, g, e)!r}" for h, q in enumerate(t.states)
                     for i, g in enumerate(t.symbols) for e, rows in returns if rows[i][h] is None]
    return WellFormedReport(not problems, tuple(problems))


def _holed(rows: Mapping[Endpoint, Sequence], has_hole) -> list[tuple[Endpoint, Sequence]]:
    """The (endpoint, rows) items whose rows ``has_hole``, testing each
    distinct rows object once: the endpoints of a class share theirs."""
    found: dict[int, bool] = {}
    out = []
    for e, r in rows.items():
        if (bad := found.get(id(r))) is None:
            bad = found[id(r)] = has_hole(r)
        if bad:
            out.append((e, r))
    return out


# -- serialization -----------------------------------------------------------


def export_vpa(v: Vpa, fmt: str = "json") -> str:
    if fmt == "json":
        return _export_json(v)
    if fmt == "dot":
        return _export_dot(v)
    raise ValueError(f"unknown format {fmt!r}")


def _export_json(v: Vpa) -> str:
    calls, returns = v.listing
    head = {
        "version": SCHEMA_VERSION,
        "alphabet": list(v.alphabet),
        "states": sorted(v.states),
        "initial": v.initial,
        "finals": sorted(v.finals),
        "stack_alphabet": sorted(v.stack_alphabet),
        "reject": v.sink,
    }
    return json_document(head, [
        json_member("delta_call", ("from", "sym", "to", "push"), calls),
        json_member("delta_return", ("from", "pop", "sym", "to"), returns),
    ])


# json.dumps(s, ensure_ascii=False) without building an encoder per string
json_string = json.JSONEncoder(ensure_ascii=False).encode


def json_document(head: dict, members: Iterable[str]) -> str:
    """``json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"``, byte for
    byte, where ``doc`` is the non-empty ``head`` followed by the members
    ``json_member`` wrote.  Only the head goes through ``json.dumps``."""
    return "".join([json.dumps(head, indent=2, ensure_ascii=False)[:-2],  # without "\n}"
                    *members, "\n}\n"])


def json_member(field: str, keys: tuple[str, ...], rows: Sequence[tuple[str, ...]]) -> str:
    """A document member, with its leading comma, listing for each row in
    the given order the object mapping the keys to the row's strings.  The
    rows share one template with the quoted keys built in, and each
    distinct string is quoted once, by the encoder ``json.dumps`` uses."""
    if not rows:
        return f",\n  {json_string(field)}: []"
    quote = cache(json_string)
    row = "    {\n" + ",\n".join(f"      {json_string(k)}: %s" for k in keys) + "\n    }"
    return "".join([f",\n  {json_string(field)}: [\n",
                    ",\n".join(map(row.__mod__, zip(*[map(quote, col) for col in zip(*rows)]))),
                    "\n  ]"])


def load_document(text: str, version: int) -> dict:
    """A JSON object of the given schema version, or ``VpaParseError``."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise VpaParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise VpaParseError("top level must be an object")
    found = doc.get("version")
    if type(found) is not int or found != version:  # true and 1.0 also equal 1
        raise VpaParseError("missing or unsupported schema version")
    return doc


def string_rows(doc: dict, field: str, keys: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The field's rows, each an object holding a string under every key."""
    error = f"{field} must be a list of objects with string fields {list(keys)}"
    rows = doc.get(field)
    if not isinstance(rows, list):
        raise VpaParseError(error)
    out = []
    for r in rows:
        if not isinstance(r, dict):
            raise VpaParseError(error)
        row = []
        for k in keys:
            if not isinstance(value := r.get(k), str):
                raise VpaParseError(error)
            row.append(value)
        out.append(tuple(row))
    return out


def _strings(doc: dict, field: str) -> list[str]:
    value = doc[field]
    if isinstance(value, list) and all(isinstance(x, str) for x in value):
        return value
    raise VpaParseError(f"{field} must be a list of strings")


def reject_member(doc: dict) -> str | None:
    """The document's ``reject`` member: a string, or ``None`` when it is
    null or absent."""
    reject = doc.get("reject")
    if reject is not None and not isinstance(reject, str):
        raise VpaParseError("reject must be a string or null")
    return reject


def import_vpa(text: str) -> Vpa:
    """Read an exported automaton back; it must be deterministic, complete
    and well-formed, else ``VpaParseError`` names the first problems.  A
    rule the document leaves out goes to its ``reject`` state; without
    one, a missing rule is a problem."""
    doc = load_document(text, SCHEMA_VERSION)
    required = {
        "alphabet", "states", "initial", "finals", "stack_alphabet",
        "delta_call", "delta_return",
    }
    missing = required - set(doc)
    if missing:
        raise VpaParseError(f"missing fields: {sorted(missing)}")
    if not isinstance(doc["initial"], str):
        raise VpaParseError("initial must be a string")
    reject = reject_member(doc)
    calls = string_rows(doc, "delta_call", ("from", "sym", "to", "push"))
    returns = string_rows(doc, "delta_return", ("from", "pop", "sym", "to"))
    delta_call = {(q, e): (q2, s) for q, e, q2, s in calls}
    delta_return = {(q, s, e): q2 for q, s, e, q2 in returns}
    if len(delta_call) < len(calls) or len(delta_return) < len(returns):
        raise VpaParseError("a transition key appears more than once")
    return Vpa.from_rules(
        _strings(doc, "states"), doc["initial"], _strings(doc, "finals"),
        _strings(doc, "alphabet"), _strings(doc, "stack_alphabet"),
        delta_call, delta_return, reject,
    )


def _export_dot(v: Vpa) -> str:
    """Graphviz rendering in the usual convention: doubled circles for
    finals, 'call e / push' on call edges, 'ret e, pop' on return edges.
    The rules into the declared reject state are not drawn; the graph's
    ``comment`` names it.  Each name is escaped once, a backslash before
    each backslash and each double quote; each edge is one template."""
    sink, t = v.sink, v.table
    calls, returns = v.listing
    esc = {s: s.replace("\\", "\\\\").replace('"', '\\"')
           for s in (v.initial, *t.states, *t.symbols, *v.alphabet)}
    lines = ["digraph vpa {", "  rankdir=LR;", "  __start [shape=point];"]
    for q in t.states:
        shape = "doublecircle" if q in v.finals else "circle"
        lines.append(f'  "{esc[q]}" [shape={shape}];')
    lines.append(f'  __start -> "{esc[v.initial]}";')
    if sink is not None:
        lines.append(f'  comment="every rule not drawn goes to {esc[sink]}";')
    lines += [
        f'  "{esc[q]}" -> "{esc[q2]}" [label="call {esc[e]} / {esc[s]}"];' for q, e, q2, s in calls
    ]
    lines += [
        f'  "{esc[q]}" -> "{esc[q2]}" [label="ret {esc[e]}, {esc[s]}", style=dashed];'
        for q, s, e, q2 in returns
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"
