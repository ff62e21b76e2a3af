"""Reference decision procedure for policies on nested words.

Evaluates the set-comprehension semantics directly over paths and subtrees,
with regex membership decided by the derivative matcher.  Nothing here
touches the automaton pipeline, so this module is the independent ground
truth that compiled automata are tested against.  It is not a monitor.

Subtrees are read in place: the one at position ``k`` of the word runs from
that call to its return at ``partner[k] - first_index`` (Alur & Madhusudan,
"Adding Nesting Structure to Words", JACM 2009), so no slice is built and
rootedness is checked once, at each public entry.  Paths are matched in one
walk: each open call holds the derivative of the regex by its path's call
projection, taken from its parent's by one symbol (Owens, Reppy & Turon,
"Regular-expression derivatives re-examined", JFP 2009).  A call whose
derivative is empty or already nullable ends its path, so its subtree is
skipped.  The tests pin this module to the literal definitions over
slices (paths, leaf paths and child subtrees as sub-words), which
``tests/reference.py`` keeps.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from . import regex as rx
from .errors import NotRooted
from .nested_word import CALL, Endpoint, NestedWord, Path
from .policy import (
    AllChildren,
    AllPath,
    CallSeq,
    ExistsChild,
    Hierarchical,
    InnerPolicy,
    Policy,
    start_anchor_regex,
)


def _require_rooted(n: NestedWord) -> None:
    if not n.is_rooted():
        raise NotRooted("operation requires a rooted well-matched word")


def _first_matches(n: NestedWord, k: int, core: rx.Regex) -> Iterator[Path]:
    """Shortest-match paths of the core regex that start at the call at
    position ``k``, ordered by terminal call index."""
    symbols, partner, first = n.symbols, n.matching.partner, n.first_index
    path: list = []
    states = [core]  # one per open call on the path
    end = int(partner[k]) - first
    while k < end:
        a = symbols[k]
        if a.symbol.tag == CALL:
            state = rx.derive(states[-1], a.symbol.endpoint)
            if state.nullable:
                yield (*path, a)
            if state.nullable or type(state) is rx.Empty:
                # no extension of a matched or dead path is a first match
                k = int(partner[k]) - first  # on to the call's return
            else:
                path.append(a)
                states.append(state)
        else:
            path.pop()
            states.pop()
        k += 1


def _children(n: NestedWord, k: int) -> Iterator[int]:
    """Positions of the child calls of the call at position ``k``: the first
    follows it, and each next one follows the return of the one before."""
    partner, first = n.matching.partner, n.first_index
    end = int(partner[k]) - first
    c = k + 1
    while c < end:
        yield c
        c = int(partner[c]) - first + 1


def _leaf_paths_match(n: NestedWord, k: int, core: rx.Regex) -> bool:
    """Does every leaf path of every child subtree of the call at position
    ``k`` match the core regex, each path starting at the child?  True
    without children."""
    symbols = n.symbols
    states = [core]
    for j in range(k + 1, int(n.matching.partner[k]) - n.first_index):
        a = symbols[j]
        if a.symbol.tag == CALL:
            state = rx.derive(states[-1], a.symbol.endpoint)
            if type(state) is rx.Empty:  # every call has a leaf below it
                return False
            states.append(state)
        else:
            if symbols[j - 1].symbol.tag == CALL and not states[-1].nullable:
                return False
            states.pop()
    return True


def _sat(n: NestedWord, k: int, p: InnerPolicy, alpha: tuple[Endpoint, ...]) -> bool:
    """Does the subtree at position ``k`` satisfy the inner policy?"""
    first = n.first_index
    if isinstance(p, CallSeq):
        end = int(n.matching.partner[k]) - first
        calls = [a.symbol.endpoint for a in n.symbols[k:end] if a.symbol.tag == CALL]
        return rx.matches(p.reg, calls, alpha)
    if isinstance(p, AllPath):
        core = rx.desugar(p.reg2, alpha)
        return any(
            _leaf_paths_match(n, path[-1].index - first, core)
            for path in _first_matches(n, k, rx.desugar(p.reg1, alpha))
        )
    if isinstance(p, AllChildren):
        return any(
            all(_sat(n, c, p.child, alpha) for c in _children(n, path[-1].index - first))
            for path in _first_matches(n, k, rx.desugar(p.reg, alpha))
        )
    if isinstance(p, ExistsChild):
        # the subpolicies take distinct children in order: each takes the
        # first child left in the one shared iterator that it holds on, since
        # an earlier choice never rules out a later one
        for path in _first_matches(n, k, rx.desugar(p.reg, alpha)):
            children = _children(n, path[-1].index - first)
            if all(any(_sat(n, c, q, alpha) for c in children) for q in p.subpolicies):
                return True
        return False
    raise TypeError(f"not an inner policy: {p!r}")


def first_match(n: NestedWord, reg: rx.Regex, alphabet: Iterable[Endpoint]) -> tuple[Path, ...]:
    """Paths whose call projection matches ``reg`` with no matching proper
    prefix (the shortest-match paths), ordered by terminal call index.  The
    empty prefix does not count."""
    _require_rooted(n)
    return tuple(_first_matches(n, 0, rx.desugar(reg, alphabet)))


def sat_hierarchical(n: NestedWord, p: Hierarchical, alphabet: Iterable[Endpoint]) -> bool:
    if not isinstance(p, (AllPath, AllChildren, ExistsChild)):
        raise TypeError(f"not a hierarchical policy: {p!r}")
    _require_rooted(n)
    return _sat(n, 0, p, tuple(alphabet))


def sat_linear(n: NestedWord, p: CallSeq, alphabet: Iterable[Endpoint]) -> bool:
    _require_rooted(n)
    return _sat(n, 0, p, tuple(alphabet))


def sat_policy(n: NestedWord, pol: Policy, alphabet: Iterable[Endpoint]) -> bool:
    """Every first-encounter subtree rooted in the start set satisfies the
    inner policy; vacuously true when no start endpoint is reachable."""
    _require_rooted(n)
    alpha, first = tuple(alphabet), n.first_index
    anchor = rx.desugar(start_anchor_regex(pol.start_set), alpha)
    return all(
        _sat(n, path[-1].index - first, pol.inner, alpha)
        for path in _first_matches(n, 0, anchor)
    )
