"""Service trees as nested words.

A synchronous request/response trace is a sequence of tagged call/return
events.  Matching each call with its return turns the flat sequence into a
nested word: the linear view of an ordered service tree.  This module holds
the word representation, the matching relation, the JSONL trace format and
a deterministic enumerator of all rooted well-matched words up to a size
bound.  The tree-shaped derived sets that policy semantics are defined over
(paths, children, subtrees as sub-words) are test references, kept in
``tests/reference.py``; the oracle reads them in place.

A word is its coding and its matching (Alur & Madhusudan, "Adding Nesting
Structure to Words", JACM 2009).  The coding (``Coding``) lists the word's
endpoints and holds one small int per symbol that names an endpoint and
says call or return; automaton runs and the oracle step these codes.  The
matching is stored once, as a partner array: each position holds the index
of the symbol it is matched with, or +inf/-inf when it is a pending call or
an orphan return.  ``build_nested_word``, ``enumerate_rooted`` and the mesh
simulator fill only these two.  A word's ``symbols``, one ``IndexedSymbol``
per event, are made from the codes the first time they are read, and kept:
the checked replay that names a run's fault reads them, and so do the
tests.

The enumerator builds tree sizes' event tuples from the smaller sizes' and
turns each tuple into a word directly.  The events are codes, so each
tuple is its word's code list, and the partner array is filled in one stack
pass.  Its caches live only as long as one enumeration.

All values are immutable after construction, but for a word's symbols,
which are made at most once from the word's own codes; two tasks that read
them at the same time store equal tuples.  So words too are safe to share
between concurrent tasks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import count
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

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
    """A tagged symbol at a 1-based position within a word."""

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


# A word's coding: (endpoints, codes, rows).  With K endpoints, the code of
# a call to endpoints[k] is k and that of a return from it K + k.  ``rows``
# is ``itemgetter(*endpoints)``: one C call maps a per-endpoint table to
# the word's rows, so ``rows(request) + rows(response)`` is indexed by code.
Coding = tuple[tuple[Endpoint, ...], Sequence[int], Callable[[dict], tuple]]


def coder(endpoints: Iterable[Endpoint]) -> tuple[tuple[Endpoint, ...], Callable[[dict], tuple],
                                                  dict[Endpoint, int], dict[Endpoint, int]]:
    """A coding's endpoints, the distinct ones in first-seen order, its
    rows getter, and each endpoint's call and return code.  A lone endpoint
    is listed twice, so that the rows getter returns a tuple."""
    names = tuple(dict.fromkeys(endpoints))
    calls = {e: k for k, e in enumerate(names)}
    if len(names) == 1:
        names *= 2
    return names, itemgetter(*names), calls, {e: k + len(names) for e, k in calls.items()}


def _events_by_code(names: tuple[Endpoint, ...]) -> list[TaggedSymbol]:
    return [*map(call, names), *map(ret, names)]


class NestedWord:
    """A word of consecutively indexed call/return symbols plus its matching.

    The word is ``coding`` (its ``Coding``: endpoints, one code per symbol,
    rows getter) and ``matching``.  The builders vouch for both: the codes
    are the coding's, and the partner array is their matching, as a stack
    pass over the same symbols fills it.  A word need not start at index 1:
    a slice of a word keeps its indices, so that the matching restriction
    can be read off literally, and the oracle reads such slices as they
    are.  Equality and hashing compare the events, not the codes, so words
    coded in different endpoint orders are equal when their events are.
    """

    __slots__ = ("coding", "matching", "_symbols")

    def __init__(self, coding: Coding, matching: MatchingRelation):
        self.coding = coding
        self.matching = matching
        self._symbols = None

    @property
    def symbols(self) -> tuple[IndexedSymbol, ...]:
        """The word's events at their positions, made from the codes on
        the first read and kept."""
        if self._symbols is None:
            names, codes, _ = self.coding
            events = map(_events_by_code(names).__getitem__, codes)
            self._symbols = tuple(map(IndexedSymbol, events, count(self.matching.first)))
        return self._symbols

    # -- basic shape ------------------------------------------------------

    @property
    def first_index(self) -> int:
        return self.matching.first

    @property
    def last_index(self) -> int:
        return self.matching.first + len(self.coding[1]) - 1

    def __len__(self) -> int:
        return len(self.coding[1])

    def _endpoints(self) -> tuple[Endpoint, ...]:
        """The endpoint of each symbol; with the partner array, which tells
        calls (partner after) from returns (partner before), the events."""
        names, codes, _ = self.coding
        return tuple(map((names + names).__getitem__, codes))

    def __eq__(self, other):
        return (
            isinstance(other, NestedWord)
            and self.matching == other.matching
            and self._endpoints() == other._endpoints()
        )

    def __hash__(self):
        return hash((self.matching, self._endpoints()))

    def __repr__(self):
        names, codes, _ = self.coding
        k = len(names)
        body = " ".join("<" + names[c] if c < k else names[c - k] + ">" for c in codes)
        return f"NestedWord({body!r}, {self.matching!r})"

    # -- predicates -------------------------------------------------------

    def is_well_matched(self) -> bool:
        partner = self.matching.partner
        return POS_INF not in partner and NEG_INF not in partner

    def is_rooted(self) -> bool:
        return self.is_well_matched() and self.matching.partner[0] == self.last_index


_endpoint = attrgetter("endpoint")


def build_nested_word(events: Sequence[TaggedSymbol]) -> NestedWord:
    """Reconstruct the matching relation from bracket order.

    A return must match the innermost open call; a differing endpoint is a
    hard error (synchronous request/response nesting leaves no other
    reading).  Unmatched calls pair with +inf, orphan returns with -inf.
    The loop that places each symbol appends its code.
    """
    if not events:
        raise MalformedTrace("empty trace")
    names, rows, call_code, return_code = coder(map(_endpoint, events))
    partner: list[float] = []
    open_calls: list[tuple[int, Endpoint]] = []
    codes = []
    for pos, ev in enumerate(events, start=1):
        e = ev.endpoint
        if ev.tag == CALL:
            codes.append(call_code[e])
            open_calls.append((pos, e))
            partner.append(POS_INF)
            continue
        codes.append(return_code[e])
        if open_calls:
            i, ep = open_calls.pop()
            if ep != e:
                raise MalformedTrace(
                    f"return from {e!r} at position {pos} does not close "
                    f"the open call to {ep!r} at position {i}"
                )
            partner[i - 1] = pos
            partner.append(i)
        else:
            partner.append(NEG_INF)
    return NestedWord((names, codes, rows), MatchingRelation(1, partner))


# -- trace file format ----------------------------------------------------
#
# JSON Lines, one event per line: {"tag": "call"|"ret", "endpoint": "<name>"}.
# The line order is the index order, starting at 1.


def serialize_trace(word_or_events: NestedWord | Sequence[TaggedSymbol]) -> str:
    if isinstance(word_or_events, NestedWord):
        names, codes, _ = word_or_events.coding
        events: Iterable[TaggedSymbol] = map(_events_by_code(names).__getitem__, codes)
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
    since keeping them would hold a share of the output in memory.  An
    event is a code of the alphabet's coding, so an event tuple is its
    word's code list, and the words share the coding's endpoints.  Their
    partner arrays are filled in one stack pass, without
    ``build_nested_word``'s checks: a serialized tree is rooted and well
    matched by construction.
    """
    alpha = tuple(alphabet)
    if not alpha or max_calls < 1:
        raise ValueError("need a non-empty alphabet and max_calls >= 1")
    names, rows, call_code, return_code = coder(alpha)
    first_return = len(names)
    brackets = [(call_code[e], return_code[e]) for e in alpha]
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
        for codes in tree_events(n):
            partner = [0] * len(codes)
            open_calls = []
            for pos, c in enumerate(codes, start=1):
                if c < first_return:
                    open_calls.append(pos)
                else:
                    i = open_calls.pop()
                    partner[i - 1] = pos
                    partner[pos - 1] = i
            yield NestedWord((names, codes, rows), MatchingRelation(1, partner))
