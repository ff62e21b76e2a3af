"""Visibly pushdown automata: representation, runs, serialization.

The stack action is dictated by the symbol's tag: calls push, returns pop.
Automata here are deterministic and complete: the call table is total over
states x endpoints, the return table over states x stack symbols x
endpoints.  The bottom marker is never pushed; a return arriving with only
the bottom marker on the stack raises ``StackUnderflow`` (impossible on
rooted well-matched input).

Configurations share their stacks.  A configuration holds its state, the
top stack symbol and a link to the configuration whose stack lies below
that top; the chain ends at a configuration holding only the bottom marker.
A push links the new configuration to the current one and a pop follows the
link, so a step costs O(1) whatever the depth, and a run is linear in the
length of the word.  Automata and configurations are never changed after
construction; concurrent runs over one automaton are safe.

``export_vpa`` writes JSON or Graphviz DOT, byte-stable: rules appear in
the order of ``sorted(table.items())``, and the JSON equals what
``json.dumps(doc, indent=2, ensure_ascii=False)`` makes of one object per
rule.  ``json_document`` writes it from row templates, escaping each name
once, since ``indent`` sends ``json.dumps`` to its pure-Python encoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import filterfalse, product
from typing import Iterable, Iterator, Mapping

from .errors import StackUnderflow, VpaParseError
from .nested_word import CALL, Endpoint, NestedWord, TaggedSymbol

BOTTOM = "⊥"

State = str
StackSymbol = str

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Vpa:
    states: frozenset[State]
    initial: State
    finals: frozenset[State]
    alphabet: tuple[Endpoint, ...]
    stack_alphabet: frozenset[StackSymbol]  # includes BOTTOM
    delta_call: Mapping[tuple[State, Endpoint], tuple[State, StackSymbol]]
    delta_return: Mapping[tuple[State, StackSymbol, Endpoint], State]


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


def step(v: Vpa, c: Configuration, a: TaggedSymbol) -> Configuration:
    """One transition: a call pushes, a return pops."""
    return next(_configurations(v, c, (a,)))


def _configurations(v: Vpa, c: Configuration, symbols: Iterable[TaggedSymbol]) -> Iterator[Configuration]:
    """The configuration after each symbol, starting from ``c``.  A call
    links the new configuration to the current one; a return takes the stack
    below the current top."""
    delta_call, delta_return = v.delta_call, v.delta_return
    q, top, below = c.state, c.top, c.below
    for a in symbols:
        if a.tag == CALL:
            below = c
            q, top = delta_call[(q, a.endpoint)]
        elif below is None:
            raise StackUnderflow(f"return from {a.endpoint!r} with empty stack in state {q!r}")
        else:
            q = delta_return[(q, top, a.endpoint)]
            top, below = below.top, below.below
        c = link(q, top, below)
        yield c


def run(v: Vpa, n: NestedWord, init: Configuration | None = None) -> list[Configuration]:
    """The configuration sequence, starting from ``init`` (length |n|+1)."""
    c = init if init is not None else initial_configuration(v)
    return [c, *_configurations(v, c, [a.symbol for a in n.symbols])]


def final_configuration(v: Vpa, n: NestedWord, init: Configuration | None = None) -> Configuration:
    """The last configuration of ``run``.  Only the configurations of the
    current stack stay alive, so memory is linear in the nesting depth, not
    in the length of the word."""
    c = init if init is not None else initial_configuration(v)
    for c in _configurations(v, c, (a.symbol for a in n.symbols)):
        pass
    return c


def accepts(v: Vpa, n: NestedWord) -> bool:
    return final_configuration(v, n).state in v.finals


@dataclass(frozen=True)
class WellFormedReport:
    ok: bool
    problems: tuple[str, ...]


def check_well_formed(v: Vpa) -> WellFormedReport:
    """Totality of both transition tables, rules only over declared names
    (states, endpoints, stack symbols), and the no-push-of-bottom rule."""
    problems = []
    if v.initial not in v.states:
        problems.append(f"initial state {v.initial!r} not in states")
    for q in sorted(v.finals - v.states):
        problems.append(f"final state {q!r} not in states")
    if BOTTOM not in v.stack_alphabet:
        problems.append("stack alphabet lacks the bottom marker")
    for q, e in filterfalse(v.delta_call.__contains__, product(sorted(v.states), v.alphabet)):
        problems.append(f"missing call transition ({q!r}, {e!r})")
    alphabet = set(v.alphabet)
    for (q, e), (q2, s) in v.delta_call.items():
        if q not in v.states or q2 not in v.states:
            problems.append(f"call transition ({q!r}, {e!r}) touches unknown state")
        if e not in alphabet:
            problems.append(f"call transition ({q!r}, {e!r}) reads unknown endpoint {e!r}")
        if s == BOTTOM:
            problems.append(f"call transition ({q!r}, {e!r}) pushes the bottom marker")
        elif s not in v.stack_alphabet:
            problems.append(f"call transition ({q!r}, {e!r}) pushes unknown symbol {s!r}")
    keys = product(sorted(v.states), sorted(v.stack_alphabet), v.alphabet)
    for q, s, e in filterfalse(v.delta_return.__contains__, keys):
        problems.append(f"missing return transition ({q!r}, {s!r}, {e!r})")
    for (q, s, e), q2 in v.delta_return.items():
        if q not in v.states or q2 not in v.states:
            problems.append(f"return transition ({q!r}, {s!r}, {e!r}) touches unknown state")
        if e not in alphabet:
            problems.append(f"return transition ({q!r}, {s!r}, {e!r}) reads unknown endpoint {e!r}")
        if s not in v.stack_alphabet:
            problems.append(f"return transition ({q!r}, {s!r}, {e!r}) pops unknown symbol {s!r}")
    return WellFormedReport(not problems, tuple(problems))


# -- serialization -----------------------------------------------------------


def export_vpa(v: Vpa, fmt: str = "json") -> str:
    if fmt == "json":
        return _export_json(v)
    if fmt == "dot":
        return _export_dot(v)
    raise ValueError(f"unknown format {fmt!r}")


def _sorted_rows(v: Vpa) -> tuple[list[tuple[str, ...]], list[tuple[str, ...]]]:
    """Call rows (from, sym, to, push) and return rows (from, pop, sym, to),
    each in the sorted order every writer uses.  Each row leads with its
    table key, and keys are unique, so rows sort as the items would."""
    calls = sorted([(q, e, q2, s) for (q, e), (q2, s) in v.delta_call.items()])
    returns = sorted([(q, s, e, q2) for (q, s, e), q2 in v.delta_return.items()])
    return calls, returns


def _export_json(v: Vpa) -> str:
    calls, returns = _sorted_rows(v)
    head = {
        "version": SCHEMA_VERSION,
        "alphabet": list(v.alphabet),
        "states": sorted(v.states),
        "initial": v.initial,
        "finals": sorted(v.finals),
        "stack_alphabet": sorted(v.stack_alphabet),
    }
    return json_document(head, {
        "delta_call": (("from", "sym", "to", "push"), calls),
        "delta_return": (("from", "pop", "sym", "to"), returns),
    })


# json.dumps(s, ensure_ascii=False) without building an encoder per string
_json_string = json.JSONEncoder(ensure_ascii=False).encode


def json_document(head: dict, tables: dict[str, tuple]) -> str:
    """``json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"``, byte for
    byte, where ``doc`` is the non-empty ``head`` followed by one member per
    table.  A table is (keys, rows); its member lists, for each row in the
    given order, the object mapping the keys to the row's strings.

    Only the head goes through ``json.dumps``.  A table's rows share one
    template with the quoted keys built in, and each distinct string is
    quoted once per call, by the encoder ``json.dumps`` uses.
    """
    quote = cache(_json_string)
    parts = [json.dumps(head, indent=2, ensure_ascii=False)[:-2]]  # without "\n}"
    for field, (keys, rows) in tables.items():
        if not rows:
            parts.append(f",\n  {_json_string(field)}: []")
            continue
        row = "    {\n" + ",\n".join(f"      {_json_string(k)}: %s" for k in keys) + "\n    }"
        parts.append(f",\n  {_json_string(field)}: [\n")
        parts.append(",\n".join(map(row.__mod__, zip(*[map(quote, col) for col in zip(*rows)]))))
        parts.append("\n  ]")
    parts.append("\n}\n")
    return "".join(parts)


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
    rows = doc.get(field)
    if isinstance(rows, list) and all(
        isinstance(r, dict) and all(isinstance(r.get(k), str) for k in keys) for r in rows
    ):
        return [tuple(r[k] for k in keys) for r in rows]
    raise VpaParseError(f"{field} must be a list of objects with string fields {list(keys)}")


def _strings(doc: dict, field: str) -> list[str]:
    value = doc[field]
    if isinstance(value, list) and all(isinstance(x, str) for x in value):
        return value
    raise VpaParseError(f"{field} must be a list of strings")


def import_vpa(text: str) -> Vpa:
    """Read an exported automaton back; it must be deterministic, complete
    and well-formed, else ``VpaParseError`` names the first problems."""
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
    call_rows = string_rows(doc, "delta_call", ("from", "sym", "to", "push"))
    return_rows = string_rows(doc, "delta_return", ("from", "pop", "sym", "to"))
    delta_call = {(q, e): (q2, s) for q, e, q2, s in call_rows}
    delta_return = {(q, s, e): q2 for q, s, e, q2 in return_rows}
    if len(delta_call) < len(call_rows) or len(delta_return) < len(return_rows):
        raise VpaParseError("a transition key appears more than once")
    v = Vpa(
        frozenset(_strings(doc, "states")),
        doc["initial"],
        frozenset(_strings(doc, "finals")),
        tuple(_strings(doc, "alphabet")),
        frozenset(_strings(doc, "stack_alphabet")),
        delta_call,
        delta_return,
    )
    problems = check_well_formed(v).problems
    if problems:
        more = f" (and {len(problems) - 3} more)" if len(problems) > 3 else ""
        raise VpaParseError(f"ill-formed automaton: {'; '.join(problems[:3])}{more}")
    return v


def _export_dot(v: Vpa) -> str:
    """Graphviz rendering in the usual convention: doubled circles for
    finals, 'call e / push' on call edges, 'ret e, pop' on return edges.
    Each name is escaped once; each edge is one template."""
    calls, returns = _sorted_rows(v)
    names = {v.initial, *v.states}.union(*zip(*calls), *zip(*returns))
    esc = {s: s.replace('"', '\\"') for s in names}
    lines = ["digraph vpa {", "  rankdir=LR;", "  __start [shape=point];"]
    for q in sorted(v.states):
        shape = "doublecircle" if q in v.finals else "circle"
        lines.append(f'  "{esc[q]}" [shape={shape}];')
    lines.append(f'  __start -> "{esc[v.initial]}";')
    lines += [
        f'  "{esc[q]}" -> "{esc[q2]}" [label="call {esc[e]} / {esc[s]}"];' for q, e, q2, s in calls
    ]
    lines += [
        f'  "{esc[q]}" -> "{esc[q2]}" [label="ret {esc[e]}, {esc[s]}", style=dashed];'
        for q, s, e, q2 in returns
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"
