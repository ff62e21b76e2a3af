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

A word also carries a coding (``Coding``), which is what automaton runs
step: its distinct endpoints, and one small int per symbol that names an
endpoint and says call or return.  ``build_nested_word`` and
``enumerate_rooted`` fill it as they build the word; any other word
(``NestedWord(...)``, the mesh simulator's ``trusted_word``) is coded on
its first run, by ``NestedWord.code``.

The enumerator builds tree sizes' event tuples from the smaller sizes' and
turns each tuple into a word directly.  The events are codes, so each
tuple is its word's code list; positions share one indexed symbol per
(code, position), and the partner array is filled in one stack pass.  Its
caches live only as long as one enumeration.

All values are immutable after construction, but for a word's coding,
which is made at most once from the word's own symbols; two tasks that
code one word at the same time store equal codings.  So words too are
safe to share between concurrent tasks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import attrgetter, getitem, itemgetter
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


# A word's coding: (endpoints, codes, rows).  With K endpoints, the code of
# a call to endpoints[k] is k and that of a return from it K + k.  ``rows``
# is ``itemgetter(*endpoints)``: one C call maps a per-endpoint table to
# the word's rows, so ``rows(request) + rows(response)`` is indexed by code.
Coding = tuple[tuple[Endpoint, ...], Sequence[int], Callable[[dict], tuple]]


def _coder(endpoints: Iterable[Endpoint]) -> tuple[tuple[Endpoint, ...], dict[Endpoint, int],
                                                   dict[Endpoint, int]]:
    """A coding's endpoints, the distinct ones in first-seen order, and each
    one's call and return code.  A lone endpoint is listed twice, so that
    their ``itemgetter`` returns a tuple."""
    names = tuple(dict.fromkeys(endpoints))
    calls = {e: k for k, e in enumerate(names)}
    if len(names) == 1:
        names *= 2
    return names, calls, {e: k + len(names) for e, k in calls.items()}


class NestedWord:
    """A word of consecutively indexed call/return symbols plus its matching.

    A word need not start at index 1: a slice of a word keeps its indices,
    so that the matching restriction can be read off literally, and the
    oracle reads such slices as they are.  ``coding`` is the word's
    ``Coding``, or ``None`` until ``code`` makes it; equality and hashing
    ignore it.
    """

    __slots__ = ("symbols", "matching", "coding")

    def __init__(self, symbols: Sequence[IndexedSymbol], matching: MatchingRelation):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("empty nested word")
        for a, b in zip(symbols, symbols[1:]):
            if b.index != a.index + 1:
                raise ValueError("indices must be consecutive")
        self.symbols = symbols
        self.matching = matching
        self.coding = None

    def code(self) -> Coding:
        """The word's coding, made from its symbols and kept on the word."""
        events = [a.symbol for a in self.symbols]
        names, calls, returns = _coder(map(_endpoint, events))
        codes = [(calls if ev.tag == CALL else returns)[ev.endpoint] for ev in events]
        self.coding = names, codes, itemgetter(*names)
        return self.coding

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
_set_coding = NestedWord.coding.__set__
_endpoint = attrgetter("endpoint")


def build_nested_word(events: Sequence[TaggedSymbol]) -> NestedWord:
    """Reconstruct the matching relation from bracket order.

    A return must match the innermost open call; a differing endpoint is a
    hard error (synchronous request/response nesting leaves no other
    reading).  Unmatched calls pair with +inf, orphan returns with -inf.
    The word comes coded: the loop that places each symbol appends its code.
    """
    if not events:
        raise MalformedTrace("empty trace")
    names, call_code, return_code = _coder(map(_endpoint, events))
    partner: list[float] = []
    open_calls: list[tuple[int, Endpoint]] = []
    symbols = []
    codes = []
    for pos, ev in enumerate(events, start=1):
        symbols.append(_indexed(ev, pos))
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
    return trusted_word(tuple(symbols), partner, (names, codes, itemgetter(*names)))


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
    since keeping them would hold a share of the output in memory.  An
    event is a code of the alphabet's coding, so an event tuple is its
    word's code list.  The words share the coding's endpoints and one
    ``IndexedSymbol`` per (code, position), and their partner arrays are
    filled in one stack pass, without ``build_nested_word``'s checks: a
    serialized tree is rooted and well matched by construction.
    """
    alpha = tuple(alphabet)
    if not alpha or max_calls < 1:
        raise ValueError("need a non-empty alphabet and max_calls >= 1")
    names, call_code, return_code = _coder(alpha)
    first_return = len(names)
    brackets = [(call_code[e], return_code[e]) for e in alpha]
    symbol_of = [*map(call, names), *map(ret, names)]  # by code
    indexed = [[_indexed(s, pos) for s in symbol_of] for pos in range(1, 2 * max_calls + 1)]
    rows = itemgetter(*names)
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
            yield trusted_word(tuple(map(getitem, indexed, codes)), partner, (names, codes, rows))


def trusted_word(symbols: tuple[IndexedSymbol, ...], partner: Sequence[int],
                 coding: Coding | None = None) -> NestedWord:
    """The nested word of ``symbols`` with the partner array ``partner``,
    built without ``NestedWord``'s checks.  The caller vouches for both: the
    symbols' positions run from 1 without a gap, and ``partner`` is their
    matching, as a stack pass over the same symbols would fill it.  So it
    does for ``coding``, if it gives one; else the word is coded on its
    first run."""
    w = _new(NestedWord)
    _set_symbols(w, symbols)
    _set_matching(w, MatchingRelation(1, partner))
    _set_coding(w, coding)
    return w
