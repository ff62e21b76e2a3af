"""Regular expressions over the endpoint alphabet.

Two independent evaluation routes are kept deliberately separate:

* ``to_dfa`` runs the compiler pipeline (Thompson NFA, subset construction,
  Hopcroft minimization, completion with a dead state) and feeds the
  automaton constructions;
* ``derive`` decides membership directly on the syntax tree with Brzozowski
  derivatives, one call per symbol, and serves as the reference route for
  the denotational semantics (``oracle``) and for differential tests.

Sugar nodes (``any``, set literals, complements) desugar against the declared
alphabet before either route runs: each becomes one ``SetLiteral`` over
concrete names, which both routes treat as a single node however wide it is.

The parser keeps trees shallow, since every route walks them recursively: a
written chain ``A + B + ...`` or ``A B ...`` parses to a balanced tree, and a
run of stars written together, ``R**``, parses to one ``Star``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Container, Iterable

from .errors import PolicySyntaxError, UnknownEndpoint
from .nested_word import Endpoint


class Regex:
    """Base class for regex syntax nodes. Nodes are frozen and hashable.
    ``nullable`` says whether the empty word is in the language."""

    __slots__ = ()
    nullable = False


def _stored_hash(node: Regex) -> int:
    return node._hash


def _store(node: Regex, nullable: bool, fields: tuple) -> None:
    """Keep a compound node's nullability and hash on it, each computed
    once from its children's: a derivative walk tests a state and looks it
    up at every step, and the generated hash would rehash the whole tree."""
    object.__setattr__(node, "nullable", nullable)
    object.__setattr__(node, "_hash", hash((type(node), *fields)))


@dataclass(frozen=True)
class Symbol(Regex):
    name: Endpoint


@dataclass(frozen=True)
class Epsilon(Regex):
    nullable = True


@dataclass(frozen=True)
class Empty(Regex):
    pass


@dataclass(frozen=True)
class Union(Regex):
    left: Regex
    right: Regex

    def __post_init__(self):
        _store(self, self.left.nullable or self.right.nullable, (self.left, self.right))

    __hash__ = _stored_hash


@dataclass(frozen=True)
class Concat(Regex):
    left: Regex
    right: Regex

    def __post_init__(self):
        _store(self, self.left.nullable and self.right.nullable, (self.left, self.right))

    __hash__ = _stored_hash


@dataclass(frozen=True)
class Star(Regex):
    inner: Regex

    def __post_init__(self):
        _store(self, True, (self.inner,))

    __hash__ = _stored_hash


# Sugar, resolved against the declared alphabet by desugar().  A SetLiteral
# over concrete names is also the core form every symbol set desugars to.


@dataclass(frozen=True)
class SetLiteral(Regex):
    """One symbol drawn from the given set, e.g. ``{A, B}``."""

    members: frozenset[Endpoint]


@dataclass(frozen=True)
class Complement(Regex):
    """One symbol drawn from the alphabet minus the given set, e.g. ``!A``."""

    members: frozenset[Endpoint]


@dataclass(frozen=True)
class Any(Regex):
    """One arbitrary symbol of the alphabet."""


EPSILON = Epsilon()
EMPTY = Empty()
ANY = Any()

# Bound of the desugaring and derivative caches, each: well above what a
# policy set in use needs (an exhaustive check of one fleet-scale policy
# keeps about a hundred derivatives, the oracle over nine such policies
# about 700), so a process that meets policy after policy stays flat.
CACHE_SIZE = 2048


@functools.lru_cache(maxsize=CACHE_SIZE)
def _desugar(r: Regex, alphabet: tuple[Endpoint, ...]) -> Regex:
    if isinstance(r, (Symbol, Epsilon, Empty)):
        return r
    if isinstance(r, (Union, Concat)):
        left, right = _desugar(r.left, alphabet), _desugar(r.right, alphabet)
        return r if (left, right) == (r.left, r.right) else type(r)(left, right)
    if isinstance(r, Star):
        inner = _desugar(r.inner, alphabet)
        return r if inner == r.inner else Star(inner)
    if isinstance(r, SetLiteral):
        return r
    if isinstance(r, Complement):
        return SetLiteral(frozenset(alphabet) - r.members)
    if isinstance(r, Any):
        return SetLiteral(frozenset(alphabet))
    raise TypeError(f"not a regex node: {r!r}")


def desugar(r: Regex, alphabet: Iterable[Endpoint]) -> Regex:
    """Rewrite sugar nodes into the core syntax over the alphabet: the six
    classic nodes plus ``SetLiteral`` over concrete names.  A node whose
    children desugar to equal trees is kept as it is, not copied."""
    return _desugar(r, tuple(alphabet))


def matches_epsilon(r: Regex) -> bool:
    """True iff the empty word is in the language."""
    return r.nullable


# -- structural matcher (Brzozowski derivatives) ---------------------------


def _mk_union(a: Regex, b: Regex) -> Regex:
    if isinstance(a, Empty):
        return b
    if isinstance(b, Empty):
        return a
    if a == b:
        return a
    return Union(a, b)


def _mk_concat(a: Regex, b: Regex) -> Regex:
    if isinstance(a, Empty) or isinstance(b, Empty):
        return EMPTY
    if isinstance(a, Epsilon):
        return b
    if isinstance(b, Epsilon):
        return a
    return Concat(a, b)


@functools.lru_cache(maxsize=CACHE_SIZE)
def derive(r: Regex, s: Endpoint) -> Regex:
    """The Brzozowski derivative of a core regex by one symbol: a regex for
    the words ``w`` with ``s w`` in the language.  Matching a word is one
    call per symbol from ``desugar(r, alphabet)``."""
    if isinstance(r, Symbol):
        return EPSILON if r.name == s else EMPTY
    if isinstance(r, SetLiteral):
        return EPSILON if s in r.members else EMPTY
    if isinstance(r, (Epsilon, Empty)):
        return EMPTY
    if isinstance(r, Union):
        return _mk_union(derive(r.left, s), derive(r.right, s))
    if isinstance(r, Concat):
        d = _mk_concat(derive(r.left, s), r.right)
        if r.left.nullable:
            d = _mk_union(d, derive(r.right, s))
        return d
    if isinstance(r, Star):
        return _mk_concat(derive(r.inner, s), r)
    raise TypeError(f"derivative needs a core regex, got {r!r}")


# -- parsing ----------------------------------------------------------------
#
# Concrete syntax: endpoint identifiers, juxtaposition for concatenation,
# `+` for union, postfix `*`, `any` (one arbitrary endpoint), `star`
# (= any sequence), `!X` / `!{A,B}` (complement classes), `{A,B}` (set
# literal), `eps`, `empty`, parentheses.  Policy keywords terminate a regex.

RESERVED = {
    "alphabet", "start", "match", "all-path", "all-children", "exists-child",
    "then", "call-seq", "any", "star", "eps", "empty",
}

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789-")


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "keyword", or a punctuation literal
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            word = text[i:j]
            kind = "keyword" if word in RESERVED else "ident"
            tokens.append(Token(kind, word, i))
            i = j
            continue
        if c in "(){},;+*!:":
            tokens.append(Token(c, c, i))
            i += 1
            continue
        raise PolicySyntaxError(f"unexpected character {c!r} at offset {i}")
    return tokens


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise PolicySyntaxError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise PolicySyntaxError(f"expected {want!r}, found {tok.text!r} at offset {tok.pos}")
        return tok


# Tokens that can begin a regex atom; used to detect juxtaposition.
_ATOM_STARTERS = {"ident", "(", "{", "!"}
_ATOM_KEYWORDS = {"any", "star", "eps", "empty"}


def parse_name_set(ts: TokenStream, alphabet: Container[Endpoint]) -> frozenset[Endpoint]:
    """The names of a set literal up to its closing brace, the opening
    brace already read; each must be in the alphabet."""
    names = []
    while True:
        tok = ts.expect("ident")
        if tok.text not in alphabet:
            raise UnknownEndpoint(f"endpoint {tok.text!r} not in declared alphabet")
        names.append(tok.text)
        nxt = ts.next()
        if nxt.kind == "}":
            return frozenset(names)
        if nxt.kind != ",":
            raise PolicySyntaxError(f"expected ',' or '}}' at offset {nxt.pos}")


def _parse_atom(ts: TokenStream, alphabet: frozenset[Endpoint]) -> Regex:
    tok = ts.next()
    if tok.kind == "ident":
        if tok.text not in alphabet:
            raise UnknownEndpoint(f"endpoint {tok.text!r} not in declared alphabet")
        return Symbol(tok.text)
    if tok.kind == "keyword":
        if tok.text == "eps":
            return EPSILON
        if tok.text == "empty":
            return EMPTY
        if tok.text == "any":
            return ANY
        if tok.text == "star":
            return Star(ANY)
        raise PolicySyntaxError(f"keyword {tok.text!r} cannot start a regex atom")
    if tok.kind == "(":
        inner = _parse_union(ts, alphabet)
        ts.expect(")")
        return inner
    if tok.kind == "{":
        return SetLiteral(parse_name_set(ts, alphabet))
    if tok.kind == "!":
        nxt = ts.next()
        if nxt.kind == "ident":
            if nxt.text not in alphabet:
                raise UnknownEndpoint(f"endpoint {nxt.text!r} not in declared alphabet")
            return Complement(frozenset({nxt.text}))
        if nxt.kind == "{":
            return Complement(parse_name_set(ts, alphabet))
        raise PolicySyntaxError(f"expected endpoint or set after '!' at offset {tok.pos}")
    raise PolicySyntaxError(f"unexpected token {tok.text!r} at offset {tok.pos}")


def _parse_postfix(ts: TokenStream, alphabet: frozenset[Endpoint]) -> Regex:
    node = _parse_atom(ts, alphabet)
    starred = False
    while (tok := ts.peek()) is not None and tok.kind == "*":  # (R*)* = R*
        ts.next()
        starred = True
    return Star(node) if starred else node


def _starts_atom(tok: Token | None) -> bool:
    if tok is None:
        return False
    if tok.kind in _ATOM_STARTERS:
        return True
    return tok.kind == "keyword" and tok.text in _ATOM_KEYWORDS


def _balanced(node: type, terms: list[Regex]) -> Regex:
    """Join a chain of terms into a tree of logarithmic depth, split at
    ceil(n/2), so a chain up to three terms long nests to the left."""
    if len(terms) == 1:
        return terms[0]
    k = (len(terms) + 1) // 2
    return node(_balanced(node, terms[:k]), _balanced(node, terms[k:]))


def _parse_concat(ts: TokenStream, alphabet: frozenset[Endpoint]) -> Regex:
    terms = [_parse_postfix(ts, alphabet)]
    while _starts_atom(ts.peek()):
        terms.append(_parse_postfix(ts, alphabet))
    return _balanced(Concat, terms)


def _parse_union(ts: TokenStream, alphabet: frozenset[Endpoint]) -> Regex:
    terms = [_parse_concat(ts, alphabet)]
    while (tok := ts.peek()) is not None and tok.kind == "+":
        ts.next()
        terms.append(_parse_concat(ts, alphabet))
    return _balanced(Union, terms)


def parse_regex_tokens(ts: TokenStream, alphabet: Iterable[Endpoint]) -> Regex:
    return _parse_union(ts, frozenset(alphabet))


def parse_regex(text: str, alphabet: Iterable[Endpoint]) -> Regex:
    ts = TokenStream(tokenize(text))
    try:
        node = parse_regex_tokens(ts, alphabet)
    except RecursionError:
        raise PolicySyntaxError("regex nests too deeply") from None
    if ts.peek() is not None:
        tok = ts.peek()
        raise PolicySyntaxError(f"trailing input {tok.text!r} at offset {tok.pos}")
    return node


def format_regex(r: Regex) -> str:
    """Canonical text for a regex node; reparsing yields the same tree."""

    def fmt(node: Regex) -> str:
        if isinstance(node, Symbol):
            return node.name
        if isinstance(node, Epsilon):
            return "eps"
        if isinstance(node, Empty):
            return "empty"
        if isinstance(node, Any):
            return "any"
        if isinstance(node, SetLiteral):
            return "{" + ", ".join(sorted(node.members)) + "}"
        if isinstance(node, Complement):
            if len(node.members) == 1:
                return "!" + next(iter(node.members))
            return "!{" + ", ".join(sorted(node.members)) + "}"
        if isinstance(node, Union):
            return f"({fmt(node.left)} + {fmt(node.right)})"
        if isinstance(node, Concat):
            return f"({fmt(node.left)} {fmt(node.right)})"
        if isinstance(node, Star):
            if isinstance(node.inner, Star):  # a run of stars would parse as one
                return f"({fmt(node.inner)})*"
            return f"{fmt(node.inner)}*"
        raise TypeError(f"not a regex node: {node!r}")

    return fmt(r)


# -- DFA pipeline -----------------------------------------------------------


@dataclass(frozen=True)
class Dfa:
    """Deterministic complete automaton over the endpoint alphabet.

    States are consecutive ints with 0 initial, numbered breadth-first from
    the initial state in alphabet order, so equal languages over equal
    alphabets produce identical structures.
    """

    n_states: int
    initial: int
    finals: frozenset[int]
    transition: dict[tuple[int, Endpoint], int]
    alphabet: tuple[Endpoint, ...]

    @property
    def states(self) -> range:
        return range(self.n_states)


class _Nfa:
    """Thompson construction scratchpad: eps edges plus labeled edges."""

    def __init__(self):
        self.n = 0
        self.eps: list[list[int]] = []
        self.edges: list[dict[Endpoint, list[int]]] = []

    def new_state(self) -> int:
        self.n += 1
        self.eps.append([])
        self.edges.append({})
        return self.n - 1

    def add_eps(self, a: int, b: int):
        self.eps[a].append(b)

    def add_edge(self, a: int, s: Endpoint, b: int):
        self.edges[a].setdefault(s, []).append(b)

    def build(self, r: Regex) -> tuple[int, int]:
        """Return (entry, exit) states for the fragment of ``r``."""
        if isinstance(r, Empty):
            return self.new_state(), self.new_state()
        if isinstance(r, Epsilon):
            a = self.new_state()
            b = self.new_state()
            self.add_eps(a, b)
            return a, b
        if isinstance(r, Symbol):
            a = self.new_state()
            b = self.new_state()
            self.add_edge(a, r.name, b)
            return a, b
        if isinstance(r, SetLiteral):
            a = self.new_state()
            b = self.new_state()
            for name in sorted(r.members):
                self.add_edge(a, name, b)
            return a, b
        if isinstance(r, Union):
            # A written chain ``A + B + ...`` is a tree of unions; its symbols
            # share one fragment, one labeled edge each.
            a = self.new_state()
            b = self.new_state()
            todo = [r]
            while todo:
                node = todo.pop()
                if isinstance(node, Union):
                    todo += (node.right, node.left)
                elif isinstance(node, Symbol):
                    self.add_edge(a, node.name, b)
                else:
                    a1, b1 = self.build(node)
                    self.add_eps(a, a1)
                    self.add_eps(b1, b)
            return a, b
        if isinstance(r, Concat):
            a1, b1 = self.build(r.left)
            a2, b2 = self.build(r.right)
            self.add_eps(b1, a2)
            return a1, b2
        if isinstance(r, Star):
            a1, b1 = self.build(r.inner)
            a = self.new_state()
            b = self.new_state()
            self.add_eps(a, a1)
            self.add_eps(a, b)
            self.add_eps(b1, a1)
            self.add_eps(b1, b)
            return a, b
        raise TypeError(f"NFA construction needs a core regex, got {r!r}")

    def closure(self, states: Iterable[int]) -> frozenset[int]:
        seen = set(states)
        todo = list(seen)
        while todo:
            q = todo.pop()
            for t in self.eps[q]:
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return frozenset(seen)


def _subset_construction(nfa: _Nfa, entry: int, exit_: int, alphabet: tuple[Endpoint, ...]):
    start = nfa.closure([entry])
    subsets = {start: 0}
    order = [start]
    trans: dict[tuple[int, Endpoint], int] = {}
    i = 0
    while i < len(order):
        cur = order[i]
        for s in alphabet:
            nxt = set()
            for q in cur:
                nxt.update(nfa.edges[q].get(s, ()))
            nxt = nfa.closure(nxt)
            if nxt not in subsets:
                subsets[nxt] = len(order)
                order.append(nxt)
            trans[(subsets[cur], s)] = subsets[nxt]
        i += 1
    finals = frozenset(idx for sub, idx in subsets.items() if exit_ in sub)
    return len(order), finals, trans


def _hopcroft(n: int, finals: frozenset[int], trans: dict, alphabet: tuple[Endpoint, ...]):
    """Partition states into equivalence classes; returns state -> class id."""
    non_finals = frozenset(range(n)) - finals
    partition = [s for s in (finals, non_finals) if s]
    work = [s for s in (finals, non_finals) if s]
    preimage: dict[tuple[Endpoint, int], set[int]] = {}
    for (q, s), t in trans.items():
        preimage.setdefault((s, t), set()).add(q)
    while work:
        splitter = work.pop()
        for s in alphabet:
            x = set()
            for t in splitter:
                x |= preimage.get((s, t), set())
            new_partition = []
            for block in partition:
                inter = block & x
                diff = block - x
                if inter and diff:
                    new_partition.extend((inter, diff))
                    if block in work:
                        work.remove(block)
                        work.extend((inter, diff))
                    else:
                        work.append(inter if len(inter) <= len(diff) else diff)
                else:
                    new_partition.append(block)
            partition = new_partition
    class_of = {}
    for cid, block in enumerate(partition):
        for q in block:
            class_of[q] = cid
    return class_of


def to_dfa(r: Regex, alphabet: Iterable[Endpoint]) -> Dfa:
    """Minimal complete DFA with language exactly L(r) over the alphabet."""
    alpha = tuple(alphabet)
    if not alpha:
        raise ValueError("empty alphabet")
    core = desugar(r, alpha)
    nfa = _Nfa()
    entry, exit_ = nfa.build(core)
    n, finals, trans = _subset_construction(nfa, entry, exit_, alpha)
    # Subset construction over total edge sets is already complete (the empty
    # subset acts as the dead state), so minimize directly.
    class_of = _hopcroft(n, finals, trans, alpha)
    # Relabel classes breadth-first from the initial class, alphabet order.
    rep = {}  # class id -> its lowest state
    for q in range(n):
        rep.setdefault(class_of[q], q)
    start_class = class_of[0]
    relabel = {start_class: 0}
    order = [start_class]
    new_trans = {}
    i = 0
    while i < len(order):
        q = rep[order[i]]
        for s in alpha:
            nxt = class_of[trans[(q, s)]]
            if nxt not in relabel:
                relabel[nxt] = len(order)
                order.append(nxt)
            new_trans[(i, s)] = relabel[nxt]
        i += 1
    new_finals = frozenset(relabel[class_of[q]] for q in finals)
    return Dfa(len(order), 0, new_finals, new_trans, alpha)
