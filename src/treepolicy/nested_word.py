"""Service trees as nested words.

A synchronous request/response trace is a sequence of tagged call/return
events.  Matching each call with its return turns the flat sequence into a
nested word: the linear view of an ordered service tree.  This module holds
the word representation, the matching relation, the tree-shaped derived sets
(paths, children, subtrees) that policy semantics are defined over, and a
deterministic enumerator of all rooted well-matched words up to a size bound.

All values are immutable after construction and safe to share between
concurrent tasks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import IndexOutOfRange, MalformedTrace, NotRooted

Endpoint = str

CALL = "call"
RET = "ret"

NEG_INF = -math.inf
POS_INF = math.inf


@dataclass(frozen=True)
class TaggedSymbol:
    """One trace event: a request to or a response from an endpoint."""

    tag: str  # CALL or RET
    endpoint: Endpoint

    def __post_init__(self):
        if self.tag not in (CALL, RET):
            raise ValueError(f"bad tag {self.tag!r}")
        if not self.endpoint:
            raise ValueError("empty endpoint name")

    @property
    def is_call(self) -> bool:
        return self.tag == CALL


def call(endpoint: Endpoint) -> TaggedSymbol:
    return TaggedSymbol(CALL, endpoint)


def ret(endpoint: Endpoint) -> TaggedSymbol:
    return TaggedSymbol(RET, endpoint)


@dataclass(frozen=True, slots=True)
class IndexedSymbol:
    """A tagged symbol at a 1-based position within a word.

    ``build_nested_word`` makes these through ``_indexed``, which fills the
    slots without the dataclass ``__init__`` and its index check: a word has
    one per event, and the positions it assigns start at 1.
    """

    symbol: TaggedSymbol
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("index must be >= 1")

    @property
    def tag(self) -> str:
        return self.symbol.tag

    @property
    def endpoint(self) -> Endpoint:
        return self.symbol.endpoint

    @property
    def is_call(self) -> bool:
        return self.symbol.tag == CALL


_new = object.__new__
_set_symbol = IndexedSymbol.symbol.__set__
_set_index = IndexedSymbol.index.__set__


def _indexed(symbol: TaggedSymbol, index: int) -> IndexedSymbol:
    a = _new(IndexedSymbol)
    _set_symbol(a, symbol)
    _set_index(a, index)
    return a


# A path is a chain of call symbols from the root down to one call.
Path = tuple[IndexedSymbol, ...]


class MatchingRelation:
    """Pairs each call index with its return index.

    Pending calls pair with +inf, orphan returns with -inf.  The relation is
    functional in both coordinates, edges go forward, and edges never cross.
    """

    __slots__ = ("_pairs", "_by_call", "_by_ret")

    def __init__(self, pairs: Iterable[tuple[float, float]], _validate: bool = True):
        pairs = frozenset((i, j) for i, j in pairs)
        by_call: dict[float, float] = {}
        by_ret: dict[float, float] = {}
        for i, j in pairs:
            if i != NEG_INF:
                if i in by_call:
                    raise ValueError(f"index {i} occurs in two pairs")
                by_call[i] = j
            if j != POS_INF:
                if j in by_ret:
                    raise ValueError(f"index {j} occurs in two pairs")
                by_ret[j] = i
        self._pairs = pairs
        self._by_call = by_call
        self._by_ret = by_ret
        if _validate:
            self._check_shape()

    def _check_shape(self):
        for i, j in self._pairs:
            if i != NEG_INF and j != POS_INF and not i < j:
                raise ValueError(f"edge ({i}, {j}) does not go forward")
        finite = [(i, j) for i, j in self._pairs]
        for i, j in finite:
            for i2, j2 in finite:
                if i == NEG_INF or i2 == NEG_INF:
                    continue
                if i < i2:
                    # well-nested (j2 < j) or disjoint (j < i2); anything else crosses
                    if not (j2 < j or j < i2):
                        raise ValueError(f"edges ({i},{j}) and ({i2},{j2}) cross")

    @property
    def pairs(self) -> frozenset[tuple[float, float]]:
        return self._pairs

    def return_of(self, call_index: int) -> float:
        """Index of the matched return, or +inf when pending."""
        return self._by_call[call_index]

    def call_of(self, ret_index: int) -> float:
        """Index of the matched call, or -inf when orphaned."""
        return self._by_ret[ret_index]

    def __eq__(self, other):
        return isinstance(other, MatchingRelation) and self._pairs == other._pairs

    def __hash__(self):
        return hash(self._pairs)

    def __repr__(self):
        body = ", ".join(f"({i},{j})" for i, j in sorted(self._pairs))
        return f"MatchingRelation({{{body}}})"


class NestedWord:
    """A word of consecutively indexed call/return symbols plus its matching.

    Slices keep their original indices so that the matching restriction can
    be read off literally; ``first_index`` is therefore not always 1.
    """

    __slots__ = ("symbols", "matching")

    def __init__(self, symbols: Sequence[IndexedSymbol], matching: MatchingRelation):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("empty nested word")
        for a, b in zip(symbols, symbols[1:]):
            if b.index != a.index + 1:
                raise ValueError("indices must be consecutive")
        self.symbols = symbols
        self.matching = matching

    # -- basic shape ------------------------------------------------------

    @property
    def first_index(self) -> int:
        return self.symbols[0].index

    @property
    def last_index(self) -> int:
        return self.symbols[-1].index

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other):
        return (
            isinstance(other, NestedWord)
            and self.symbols == other.symbols
            and self.matching == other.matching
        )

    def __hash__(self):
        return hash((self.symbols, self.matching))

    def __repr__(self):
        body = " ".join(
            ("<" + s.endpoint if s.is_call else s.endpoint + ">") for s in self.symbols
        )
        return f"NestedWord({body!r}, {self.matching!r})"

    def at(self, index: int) -> IndexedSymbol:
        if not self.first_index <= index <= self.last_index:
            raise IndexOutOfRange(f"index {index} outside [{self.first_index}, {self.last_index}]")
        return self.symbols[index - self.first_index]

    def calls(self) -> tuple[IndexedSymbol, ...]:
        return tuple(a for a in self.symbols if a.is_call)

    def call_sequence(self) -> tuple[Endpoint, ...]:
        """Endpoints of all call symbols in index order (depth-first order)."""
        return tuple(a.endpoint for a in self.symbols if a.is_call)

    # -- predicates -------------------------------------------------------

    def is_well_matched(self) -> bool:
        return all(i != NEG_INF and j != POS_INF for i, j in self.matching.pairs)

    def is_rooted(self) -> bool:
        return (
            self.is_well_matched()
            and (self.first_index, self.last_index) in self.matching.pairs
        )

    def _require_rooted(self):
        if not self.is_rooted():
            raise NotRooted("operation requires a rooted well-matched word")

    # -- slicing ----------------------------------------------------------

    def sub_word(self, i: int, i2: int) -> "NestedWord":
        """The sub-nested word over indices ``i..i2`` (inclusive).

        The matching is restricted in three clauses: pairs inside the window
        are kept; calls whose return falls outside become pending (+inf);
        returns whose call falls outside become orphaned (-inf).
        """
        if not (self.first_index <= i < i2 <= self.last_index):
            raise IndexOutOfRange(f"bad slice [{i}, {i2}]")
        symbols = self.symbols[i - self.first_index : i2 - self.first_index + 1]
        pairs = []
        for p, q in self.matching.pairs:
            if i <= p and q <= i2:
                pairs.append((p, q))
            elif i <= p <= i2 and q > i2:
                pairs.append((p, POS_INF))
            elif i <= q <= i2 and p < i:
                pairs.append((NEG_INF, q))
        return NestedWord(symbols, MatchingRelation(pairs, _validate=False))

    # -- tree structure ---------------------------------------------------

    def path_to(self, a_m: IndexedSymbol) -> Path:
        """Chain of calls from the root to ``a_m``: the calls at or before
        ``a_m`` whose matched return lies strictly after it."""
        m = a_m.index
        picked = []
        for a in self.symbols:
            if a.index > m:
                break
            if a.is_call and self.matching.return_of(a.index) > m:
                picked.append(a)
        return tuple(picked)

    def seq(self) -> tuple[Path, ...]:
        """All root-to-call paths, ordered by terminal call index."""
        self._require_rooted()
        return tuple(self.path_to(a) for a in self.symbols if a.is_call)

    def seq_leaf(self) -> tuple[Path, ...]:
        """The subset of ``seq`` whose terminal call is a leaf (its return
        is the immediately following symbol)."""
        self._require_rooted()
        out = []
        for a in self.symbols:
            if a.is_call and self.matching.return_of(a.index) == a.index + 1:
                out.append(self.path_to(a))
        return tuple(out)

    def children(self) -> tuple[IndexedSymbol, ...]:
        """Calls that are direct children of the root, in call order."""
        self._require_rooted()
        root = self.symbols[0]
        out = []
        for a in self.symbols:
            if a.is_call and a.index != root.index:
                if self.path_to(a) == (root, a):
                    out.append(a)
        return tuple(out)

    def subtrees(self) -> tuple["NestedWord", ...]:
        """Rooted slices under each child of the root, in child order."""
        self._require_rooted()
        out = []
        for child in self.children():
            x = self.matching.return_of(child.index)
            out.append(self.sub_word(child.index, int(x)))
        return tuple(out)


def calls_projection(path: Path) -> tuple[Endpoint, ...]:
    """Drop tags and indices, keeping the endpoint of every call in the path."""
    return tuple(a.endpoint for a in path)


def build_nested_word(events: Sequence[TaggedSymbol]) -> NestedWord:
    """Reconstruct the matching relation from bracket order.

    A return must match the innermost open call; a differing endpoint is a
    hard error (synchronous request/response nesting leaves no other
    reading).  Unmatched calls pair with +inf, orphan returns with -inf.
    """
    if not events:
        raise MalformedTrace("empty trace")
    pairs: list[tuple[float, float]] = []
    open_calls: list[tuple[int, Endpoint]] = []
    symbols = []
    for pos, ev in enumerate(events, start=1):
        symbols.append(_indexed(ev, pos))
        if ev.tag == CALL:
            open_calls.append((pos, ev.endpoint))
        else:
            if open_calls:
                i, ep = open_calls.pop()
                if ep != ev.endpoint:
                    raise MalformedTrace(
                        f"return from {ev.endpoint!r} at position {pos} does not close "
                        f"the open call to {ep!r} at position {i}"
                    )
                pairs.append((i, pos))
            else:
                pairs.append((NEG_INF, pos))
    for i, _ep in open_calls:
        pairs.append((i, POS_INF))
    return NestedWord(symbols, MatchingRelation(pairs, _validate=False))


# -- trace file format ----------------------------------------------------
#
# JSON Lines, one event per line: {"tag": "call"|"ret", "endpoint": "<name>"}.
# The line order is the index order, starting at 1.


def serialize_trace(word_or_events: NestedWord | Sequence[TaggedSymbol]) -> str:
    if isinstance(word_or_events, NestedWord):
        events: Iterable[TaggedSymbol] = (a.symbol for a in word_or_events.symbols)
    else:
        events = word_or_events
    lines = [json.dumps({"tag": ev.tag, "endpoint": ev.endpoint}) for ev in events]
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> list[TaggedSymbol]:
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise MalformedTrace(f"line {lineno}: not valid JSON ({exc})") from None
        if not isinstance(obj, dict) or set(obj) != {"tag", "endpoint"}:
            raise MalformedTrace(f'line {lineno}: expected {{"tag", "endpoint"}}')
        if obj["tag"] not in (CALL, RET):
            raise MalformedTrace(f"line {lineno}: bad tag {obj['tag']!r}")
        if not isinstance(obj["endpoint"], str) or not obj["endpoint"]:
            raise MalformedTrace(f"line {lineno}: bad endpoint")
        events.append(TaggedSymbol(obj["tag"], obj["endpoint"]))
    if not events:
        raise MalformedTrace("empty trace")
    return events


# -- enumeration ----------------------------------------------------------

# A labeled ordered tree is (label, (child, ...)); rooted well-matched words
# are exactly the serializations of these trees.
_Tree = tuple[Endpoint, tuple]


def _forests(n_nodes: int, alphabet: tuple[Endpoint, ...]) -> Iterator[tuple[_Tree, ...]]:
    if n_nodes == 0:
        yield ()
        return
    for first_size in range(1, n_nodes + 1):
        for first in _trees(first_size, alphabet):
            for rest in _forests(n_nodes - first_size, alphabet):
                yield (first,) + rest


def _trees(n_nodes: int, alphabet: tuple[Endpoint, ...]) -> Iterator[_Tree]:
    for label in alphabet:
        for children in _forests(n_nodes - 1, alphabet):
            yield (label, children)


def tree_to_events(tree: _Tree) -> list[TaggedSymbol]:
    """The tree's call/return events, depth first; open calls wait on a
    stack, so any depth serializes."""
    label, children = tree
    events = [call(label)]
    open_calls = [(label, iter(children))]
    while open_calls:
        label, children = open_calls[-1]
        child = next(children, None)
        if child is None:
            open_calls.pop()
            events.append(ret(label))
        else:
            events.append(call(child[0]))
            open_calls.append((child[0], iter(child[1])))
    return events


def word_from_tree(tree: _Tree) -> NestedWord:
    return build_nested_word(tree_to_events(tree))


def enumerate_rooted(alphabet: Iterable[Endpoint], max_calls: int) -> Iterator[NestedWord]:
    """Every rooted well-matched word with at most ``max_calls`` calls,
    exactly once, in a deterministic order (call count, then shape/labels)."""
    alpha = tuple(alphabet)
    if not alpha or max_calls < 1:
        raise ValueError("need a non-empty alphabet and max_calls >= 1")
    for n in range(1, max_calls + 1):
        for tree in _trees(n, alpha):
            yield word_from_tree(tree)
