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
skipped.  The walks read the word's codes (``NestedWord.coding``): with K
endpoints, a call is a code below K and ``endpoints[code]`` is its
endpoint.  Each policy regex is desugared over the alphabet once per public
call (``_cores``).  The tests pin this module to the literal definitions
over slices (paths, leaf paths and child subtrees as sub-words), which
``tests/reference.py`` keeps.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from . import regex as rx
from .errors import NotRooted
from .nested_word import Endpoint, NestedWord, Path
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

# A policy regex's core form over the alphabet, made once per public call.
Cores = Callable[[rx.Regex], rx.Regex]


def _require_rooted(n: NestedWord) -> None:
    if not n.is_rooted():
        raise NotRooted("operation requires a rooted well-matched word")


def _cores(alphabet: Iterable[Endpoint]) -> Cores:
    """Each regex's ``rx.desugar`` over the alphabet, made on its first use
    and kept by identity, so the alphabet is hashed once per regex, not once
    per subtree."""
    alpha = tuple(alphabet)
    made: dict[int, rx.Regex] = {}

    def core(r: rx.Regex) -> rx.Regex:
        c = made.get(id(r))
        if c is None:
            c = made[id(r)] = rx.desugar(r, alpha)
        return c

    return core


def _first_matches(n: NestedWord, k: int, core: rx.Regex) -> Iterator[int]:
    """The terminal positions of the shortest-match paths of the core regex
    that start at the call at position ``k``, in order."""
    names, codes, _ = n.coding
    calls = len(names)  # calls are coded below it
    partner, first = n.matching.partner, n.first_index
    states = [core]  # one per open call on the path
    end = int(partner[k]) - first
    while k < end:
        c = codes[k]
        if c < calls:
            state = rx.derive(states[-1], names[c])
            if state.nullable:
                yield k
            if state.nullable or type(state) is rx.Empty:
                # no extension of a matched or dead path is a first match
                k = int(partner[k]) - first  # on to the call's return
            else:
                states.append(state)
        else:
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
    names, codes, _ = n.coding
    calls = len(names)
    states = [core]
    for j in range(k + 1, int(n.matching.partner[k]) - n.first_index):
        c = codes[j]
        if c < calls:
            state = rx.derive(states[-1], names[c])
            if type(state) is rx.Empty:  # every call has a leaf below it
                return False
            states.append(state)
        else:
            if codes[j - 1] < calls and not states[-1].nullable:
                return False
            states.pop()
    return True


def _sat(n: NestedWord, k: int, p: InnerPolicy, core: Cores) -> bool:
    """Does the subtree at position ``k`` satisfy the inner policy?"""
    if isinstance(p, CallSeq):
        names, codes, _ = n.coding
        calls = len(names)
        state = core(p.reg)
        for c in codes[k:int(n.matching.partner[k]) - n.first_index]:
            if c < calls:
                state = rx.derive(state, names[c])
                if type(state) is rx.Empty:
                    return False
        return state.nullable
    if isinstance(p, AllPath):
        leaf = core(p.reg2)
        return any(_leaf_paths_match(n, j, leaf) for j in _first_matches(n, k, core(p.reg1)))
    if isinstance(p, AllChildren):
        return any(
            all(_sat(n, c, p.child, core) for c in _children(n, j))
            for j in _first_matches(n, k, core(p.reg))
        )
    if isinstance(p, ExistsChild):
        # the subpolicies take distinct children in order: each takes the
        # first child left in the one shared iterator that it holds on, since
        # an earlier choice never rules out a later one
        for j in _first_matches(n, k, core(p.reg)):
            children = _children(n, j)
            if all(any(_sat(n, c, q, core) for c in children) for q in p.subpolicies):
                return True
        return False
    raise TypeError(f"not an inner policy: {p!r}")


def first_match(n: NestedWord, reg: rx.Regex, alphabet: Iterable[Endpoint]) -> tuple[Path, ...]:
    """Paths whose call projection matches ``reg`` with no matching proper
    prefix (the shortest-match paths), ordered by terminal call index.  The
    empty prefix does not count.  A path is the calls still open at its
    terminal call: those whose return lies after it."""
    _require_rooted(n)
    symbols, partner, first = n.symbols, n.matching.partner, n.first_index
    return tuple(tuple(symbols[i] for i in range(j + 1) if partner[i] - first >= j)
                 for j in _first_matches(n, 0, rx.desugar(reg, alphabet)))


def sat_hierarchical(n: NestedWord, p: Hierarchical, alphabet: Iterable[Endpoint]) -> bool:
    if not isinstance(p, (AllPath, AllChildren, ExistsChild)):
        raise TypeError(f"not a hierarchical policy: {p!r}")
    _require_rooted(n)
    return _sat(n, 0, p, _cores(alphabet))


def sat_linear(n: NestedWord, p: CallSeq, alphabet: Iterable[Endpoint]) -> bool:
    _require_rooted(n)
    return _sat(n, 0, p, _cores(alphabet))


def sat_policy(n: NestedWord, pol: Policy, alphabet: Iterable[Endpoint]) -> bool:
    """Every first-encounter subtree rooted in the start set satisfies the
    inner policy; vacuously true when no start endpoint is reachable."""
    _require_rooted(n)
    core = _cores(alphabet)
    return all(_sat(n, j, pol.inner, core)
               for j in _first_matches(n, 0, core(start_anchor_regex(pol.start_set))))
