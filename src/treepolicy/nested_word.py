"""Service trees as nested words.

A synchronous request/response trace is a sequence of tagged call/return
events.  Matching each call with its return turns the flat sequence into a
nested word: the linear view of an ordered service tree.  This module holds
the word representation, the matching relation, the JSONL trace format and
a deterministic enumerator of all rooted well-matched words up to a size
bound.  The tree-shaped derived sets that policy semantics are defined over
(paths, children, subtrees as sub-words) are test references, kept in
``tests/reference.py``; the oracle reads them in place.

The matching is stored once, as a partner array: each position holds the
index of the symbol it is matched with, or +inf/-inf when it is a pending
call or an orphan return.  The predicates and every reader of a word read
that array.

The enumerator builds tree sizes' event tuples from the smaller sizes' and
turns each tuple into a word directly: positions share one indexed symbol
per (event, position), and the partner array is filled in one stack pass.
Its caches live only as long as one enumeration.

All values are immutable after construction and safe to share between
concurrent tasks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import getitem
from typing import Iterable, Iterator, Sequence

from .errors import MalformedTrace

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

    ``build_nested_word``, ``enumerate_rooted`` and the mesh simulator make
    these through ``_indexed``, which fills the slots without the dataclass
    ``__init__`` and its index check: a word has one per event, and the
    positions they assign start at 1.
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
    """The matching of a word as one partner array.

    For the symbol at index ``first + k``, ``partner[k]`` is the index of its
    matched return (for a call) or of its matched call (for a return); a
    pending call holds +inf and an orphan return -inf.  So a call's partner
    lies after it and a return's before it.
    """

    __slots__ = ("first", "partner")

    def __init__(self, first: int, partner: Sequence[float]):
        self.first = first
        self.partner = tuple(partner)

    def __eq__(self, other):
        return (
            isinstance(other, MatchingRelation)
            and self.first == other.first
            and self.partner == other.partner
        )

    def __hash__(self):
        return hash((self.first, self.partner))

    def __repr__(self):
        return f"MatchingRelation({self.first}, {self.partner})"


class NestedWord:
    """A word of consecutively indexed call/return symbols plus its matching.

    A word need not start at index 1: a slice of a word keeps its indices,
    so that the matching restriction can be read off literally, and the
    oracle reads such slices as they are.
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

    # -- predicates -------------------------------------------------------

    def is_well_matched(self) -> bool:
        partner = self.matching.partner
        return POS_INF not in partner and NEG_INF not in partner

    def is_rooted(self) -> bool:
        return self.is_well_matched() and self.matching.partner[0] == self.last_index


_set_symbols = NestedWord.symbols.__set__
_set_matching = NestedWord.matching.__set__


def build_nested_word(events: Sequence[TaggedSymbol]) -> NestedWord:
    """Reconstruct the matching relation from bracket order.

    A return must match the innermost open call; a differing endpoint is a
    hard error (synchronous request/response nesting leaves no other
    reading).  Unmatched calls pair with +inf, orphan returns with -inf.
    """
    if not events:
        raise MalformedTrace("empty trace")
    partner: list[float] = []
    open_calls: list[tuple[int, Endpoint]] = []
    symbols = []
    for pos, ev in enumerate(events, start=1):
        symbols.append(_indexed(ev, pos))
        if ev.tag == CALL:
            open_calls.append((pos, ev.endpoint))
            partner.append(POS_INF)
        elif open_calls:
            i, ep = open_calls.pop()
            if ep != ev.endpoint:
                raise MalformedTrace(
                    f"return from {ev.endpoint!r} at position {pos} does not close "
                    f"the open call to {ep!r} at position {i}"
                )
            partner[i - 1] = pos
            partner.append(i)
        else:
            partner.append(NEG_INF)
    return NestedWord(symbols, MatchingRelation(1, partner))


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
    """The trace's events.  An event is one of two tags on one endpoint, so
    lines repeat; each distinct line is decoded and checked once."""
    events = []
    parsed: dict[str, TaggedSymbol] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        ev = parsed.get(line)
        if ev is None:
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
            ev = parsed[line] = TaggedSymbol(obj["tag"], obj["endpoint"])
        events.append(ev)
    if not events:
        raise MalformedTrace("empty trace")
    return events


# -- enumeration ----------------------------------------------------------


def enumerate_rooted(alphabet: Iterable[Endpoint], max_calls: int) -> Iterator[NestedWord]:
    """Every rooted well-matched word with at most ``max_calls`` calls,
    exactly once, in a deterministic order (call count, then shape/labels).

    A tree of n calls is a labeled call around a forest of n - 1 calls, and
    a forest is a first tree followed by a smaller forest, so each size's
    event tuples are built by concatenating the smaller sizes'.  Sizes up
    to ``max_calls - 2`` are built once and kept; the two largest stream,
    since keeping them would hold a share of the output in memory.  The
    words share one ``IndexedSymbol`` per (event, position), and their
    partner arrays are filled in one stack pass, without
    ``build_nested_word``'s checks: a serialized tree is rooted and well
    matched by construction.
    """
    alpha = tuple(alphabet)
    if not alpha or max_calls < 1:
        raise ValueError("need a non-empty alphabet and max_calls >= 1")
    brackets = [(call(e), ret(e)) for e in alpha]
    indexed = [{ev: _indexed(ev, pos) for pair in brackets for ev in pair}
               for pos in range(1, 2 * max_calls + 1)]
    trees: list[list[tuple]] = [[]]  # trees[k]: event tuples of the k-call trees
    forests: list[list[tuple]] = [[()]]  # forests[k]: the same for k-call forests

    def tree_events(k: int) -> Iterable[tuple]:
        if k < len(trees):
            return trees[k]
        return ((c,) + f + (r,) for c, r in brackets for f in forest_events(k - 1))

    def forest_events(k: int) -> Iterable[tuple]:
        if k < len(forests):
            return forests[k]
        return (t + f for first in range(1, k + 1)
                for t in tree_events(first) for f in forest_events(k - first))

    for n in range(1, max_calls + 1):
        if n < max_calls - 1:
            trees.append(list(tree_events(n)))
            forests.append(list(forest_events(n)))
        for events in tree_events(n):
            yield _rooted_word(tuple(map(getitem, indexed, events)))


def _rooted_word(symbols: tuple[IndexedSymbol, ...]) -> NestedWord:
    """The nested word of a serialized tree's symbols, positions from 1."""
    partner = [0] * len(symbols)
    open_calls = []
    for pos, a in enumerate(symbols, start=1):
        if a.symbol.tag == CALL:
            open_calls.append(pos)
        else:
            i = open_calls.pop()
            partner[i - 1] = pos
            partner[pos - 1] = i
    return trusted_word(symbols, partner)


def trusted_word(symbols: tuple[IndexedSymbol, ...], partner: Sequence[int]) -> NestedWord:
    """The nested word of ``symbols`` with the partner array ``partner``,
    built without ``NestedWord``'s checks.  The caller vouches for both: the
    symbols' positions run from 1 without a gap, and ``partner`` is their
    matching, as a stack pass over the same symbols would fill it."""
    w = _new(NestedWord)
    _set_symbols(w, symbols)
    _set_matching(w, MatchingRelation(1, partner))
    return w
