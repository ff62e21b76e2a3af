"""Reference decision procedure for policies on nested words.

Evaluates the set-comprehension semantics directly over paths and subtrees,
with regex membership decided by the derivative matcher.  Nothing here
touches the automaton pipeline, so this module is the independent ground
truth that compiled automata are tested against.  It is not a monitor.

Paths are matched in one walk over the word: each open call holds the
derivative of the regex by its path's call projection, taken from its
parent's by one symbol (Owens, Reppy & Turon, "Regular-expression
derivatives re-examined", JFP 2009).  A call whose derivative is empty
or already nullable ends its path, so its subtree is skipped.  The tests
pin both walks to the literal definitions over ``seq`` and ``seq_leaf``,
which they keep as references.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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


def first_match(n: NestedWord, reg: rx.Regex, alphabet: Iterable[Endpoint]) -> tuple[Path, ...]:
    """Paths whose call projection matches ``reg`` with no matching proper
    prefix (the shortest-match paths), ordered by terminal call index.  The
    empty prefix does not count."""
    if not n.is_rooted():
        raise NotRooted("operation requires a rooted well-matched word")
    symbols, partner, first = n.symbols, n.matching.partner, n.first_index
    out = []
    path: list = []
    states = [rx.desugar(reg, alphabet)]  # one per open call on the path
    k, end = 0, len(symbols)
    while k < end:
        a = symbols[k]
        if a.symbol.tag == CALL:
            state = rx.derive(states[-1], a.symbol.endpoint)
            if state.nullable:
                out.append((*path, a))
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
    return tuple(out)


def _leaf_paths_match(n: NestedWord, call_index: int, core: rx.Regex) -> bool:
    """Does every leaf path of every child subtree of the call match the
    core regex, each path starting at the child?  True without children."""
    symbols, first = n.symbols, n.first_index
    states = [core]
    for k in range(call_index - first + 1, int(n.matching.return_of(call_index)) - first):
        a = symbols[k]
        if a.symbol.tag == CALL:
            state = rx.derive(states[-1], a.symbol.endpoint)
            if type(state) is rx.Empty:  # every call has a leaf below it
                return False
            states.append(state)
        else:
            if symbols[k - 1].symbol.tag == CALL and not states[-1].nullable:
                return False
            states.pop()
    return True


def _matched_subtree(n: NestedWord, path: Path) -> NestedWord:
    """Slice rooted at the path's terminal call (its matched return exists
    on every rooted well-matched word)."""
    a_i = path[-1]
    x = n.matching.return_of(a_i.index)
    return n.sub_word(a_i.index, int(x))


def sat_hierarchical(n: NestedWord, p: Hierarchical, alphabet: Iterable[Endpoint]) -> bool:
    alpha = tuple(alphabet)
    if isinstance(p, AllPath):
        core = rx.desugar(p.reg2, alpha)
        return any(
            _leaf_paths_match(n, path[-1].index, core) for path in first_match(n, p.reg1, alpha)
        )
    if isinstance(p, AllChildren):
        for path in first_match(n, p.reg, alpha):
            sub = _matched_subtree(n, path)
            if all(sat_hierarchical(t, p.child, alpha) for t in sub.subtrees()):
                return True
        return False
    if isinstance(p, ExistsChild):
        for path in first_match(n, p.reg, alpha):
            sub = _matched_subtree(n, path)
            if _ordered_selection(sub.subtrees(), p.subpolicies, alpha):
                return True
        return False
    raise TypeError(f"not a hierarchical policy: {p!r}")


def _ordered_selection(
    subtrees: Sequence[NestedWord],
    subpolicies: Sequence[Hierarchical],
    alphabet: tuple[Endpoint, ...],
) -> bool:
    """Can subpolicies p1..pk be matched to distinct subtrees in
    left-to-right order?"""

    def go(j: int, pos: int) -> bool:
        if j == len(subpolicies):
            return True
        for t_idx in range(pos, len(subtrees)):
            if sat_hierarchical(subtrees[t_idx], subpolicies[j], alphabet):
                if go(j + 1, t_idx + 1):
                    return True
        return False

    return go(0, 0)


def sat_linear(n: NestedWord, p: CallSeq, alphabet: Iterable[Endpoint]) -> bool:
    if not n.is_rooted():
        raise NotRooted("linear policies are evaluated on rooted words")
    return rx.matches(p.reg, n.call_sequence(), tuple(alphabet))


def sat_inner(n: NestedWord, p: InnerPolicy, alphabet: Iterable[Endpoint]) -> bool:
    if isinstance(p, CallSeq):
        return sat_linear(n, p, alphabet)
    return sat_hierarchical(n, p, alphabet)


def sat_policy(n: NestedWord, pol: Policy, alphabet: Iterable[Endpoint]) -> bool:
    """Every first-encounter subtree rooted in the start set satisfies the
    inner policy; vacuously true when no start endpoint is reachable."""
    alpha = tuple(alphabet)
    anchor = start_anchor_regex(pol.start_set)
    for path in first_match(n, anchor, alpha):
        sub = _matched_subtree(n, path)
        if not sat_inner(sub, pol.inner, alpha):
            return False
    return True
