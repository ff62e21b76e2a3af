"""Compile policies into deterministic, complete visibly pushdown automata.

Each policy form has its own construction.  The three hierarchical forms
(all-path, all-children, exists-child) share one match search, ``_Search``:
simulate the match regex's DFA on call symbols while pushing the pre-call
DFA state, so that return symbols can backtrack the simulation and retry
other branches; once the shortest match is found, the construction hands
the subtree to its inner check (a second DFA for leaf-path constraints, or
embedded sub-automata), and the search records the verdict in absorbing
satisfied/rejected bookkeeping states.

A construction writes no table: it states its cells as functions of its
parts (``Construction``).  ``call(e, q)`` is the call cell of state ``q`` at
endpoint ``e`` and ``ret(e, g, q)`` the return cell that pops ``g``; both
are total over the declared ``states`` and ``symbols``, and a cell that no
transition family names holds the reject state's rule.  A sub-automaton is
embedded under a name prefix (``c.``, ``c1.``, ``in.``), which keeps state
spaces disjoint, and a cell of an embedded state is the sub-construction's
cell, renamed, so no sub-automaton is ever written out.

``build`` gives a construction its table.  It runs the summary fixpoint
``reached_cells`` from the initial state and reads each cell through a
lookup that computes it on first read and keeps it, so the cells computed
are those a rooted word can read.  It hands them, as string-keyed rules,
to ``Vpa.from_rules`` with ``rej`` as the declared reject state, so every
other cell takes ``rej``'s rule and ``vpa.build_table`` is the one table
builder; a rule it refuses is a ``CompilerInternalError``.  The result is
complete, every rooted word (and forest of them) runs as on the
construction's dense table, and the cells outside the reject state's rule
are exactly those a filter lists, so the written automaton and its
filters agree.  The fixpoint runs once per policy.  Declared state counts
follow from the parts, as the analytic bound assumes.  ``_doomed_states``
then finds the states that cannot reach a final state.

``compile_policy`` compiles over endpoint classes (D'Antoni & Alur,
"Symbolic Visibly Pushdown Automata", CAV 2014): endpoints that no set the
policy names tells apart (``policy.endpoint_classes``) have the same
transitions, so the DFAs, the constructions and the build run over one
representative per class, its first member.  ``_share_rows`` then expands
the table to the whole alphabet by sharing rows: every endpoint reads the
very row objects of its class's representative.  ``to_dfa`` numbers states
breadth-first in alphabet order, and a representative comes first in its
class, so the state names are those a compile over every name would give.
The constructions work over any alphabet; only ``compile_policy`` narrows
it.  A document builds each distinct (regex, alphabet) DFA once (``_dfa``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from operator import itemgetter
from typing import Sequence

from . import regex as rx
from .errors import CompilerInternalError, EpsilonMatchRegex, VpaParseError
from .nested_word import Endpoint
from .policy import (
    AllChildren,
    AllPath,
    CallSeq,
    ExistsChild,
    InnerPolicy,
    Policy,
    PolicyDocument,
    depth,
    endpoint_classes,
    fanout,
    header_bits,
    start_anchor_regex,
)
from .vpa import BOTTOM, Vpa

# Conventional role names within one construction; embedding renames them.
BEG = "beg"
END = "end"
SAT = "sat"
REJ = "rej"
EXISTS = "exists"


def _aug(state: str) -> str:
    return f"aug({state})"


@dataclass(frozen=True)
class _DfaFrag:
    """A minimal DFA relabeled with string state names for embedding."""

    states: frozenset[str]
    initial: str
    finals: frozenset[str]
    nonfinals: frozenset[str]
    delta: dict[tuple[str, Endpoint], str]


def _frag(d: rx.Dfa, tag: str) -> _DfaFrag:
    name = {q: f"{tag}{q}" for q in d.states}
    finals = frozenset(name[q] for q in d.finals)
    delta = {(name[q], s): name[t] for (q, s), t in d.transition.items()}
    states = frozenset(name.values())
    return _DfaFrag(states, name[d.initial], finals, states - finals, delta)


def _require_no_epsilon(d: rx.Dfa):
    if d.initial in d.finals:
        raise EpsilonMatchRegex("match regex must not accept the empty string")


def _embed(prefix: str, names) -> frozenset[str]:
    """The prefixed names, but the bottom marker, which is never pushed."""
    return frozenset(prefix + x for x in names if x != BOTTOM)


class Construction:
    """An automaton stated cell by cell over its parts.

    ``call(e, q)`` is the state after a call to ``e`` in state ``q`` and the
    symbol it pushes; ``ret(e, g, q)`` the state after a return from ``e``
    in state ``q`` that pops ``g``.  Both are total over the declared
    ``states`` and ``symbols`` (the stack symbols, the bottom marker among
    them) and hold the reject state's rule wherever no family of
    transitions names the cell.  Every construction starts in ``beg``,
    accepts in ``end`` alone and rejects in ``rej``, whose calls push it."""

    alphabet: tuple[Endpoint, ...]
    states: frozenset[str]  # declared, as cached properties; the build reads neither
    symbols: frozenset[str]


# -- linear sequence construction --------------------------------------------


class SeqConstruction(Construction):
    """Run the regex DFA over call symbols only; returns keep the state.
    The root's return (recognized by its begin-marker stack symbol) accepts
    iff the DFA sits in a final state."""

    def __init__(self, d: rx.Dfa):
        self.alphabet, self.a1 = d.alphabet, _frag(d, "a")

    def call(self, e, q):
        # c-sim: each state pushes itself, the root call the begin marker
        a1 = self.a1
        if q == BEG:
            return a1.delta[(a1.initial, e)], BEG
        if q in a1.states:
            return a1.delta[(q, e)], q
        return REJ, REJ

    def ret(self, e, g, q):
        a1 = self.a1
        if q in a1.states:
            if g == BEG:  # r-accept
                return END if q in a1.finals else REJ
            if g in a1.states:  # r-skip
                return q
        return REJ

    @cached_property
    def states(self):
        return frozenset({BEG, END, REJ, *self.a1.states})

    @cached_property
    def symbols(self):
        return self.states | {BOTTOM}  # the whole state set doubles as the stack alphabet


# -- the match search shared by the hierarchical forms ----------------------


class _Search(Construction):
    """The families all-path, all-children and exists-child share: search
    for the shortest root path whose calls A1 (the match DFA) accepts,
    pushing pre-call A1 states so that returns backtrack the search, and
    record the verdict.  ``done`` is the state in which a matched subtree
    completes accepted.  Its return pops the A1 state ``g`` below the
    matched node: if A1 steps from ``g`` to a final state on the returned
    endpoint, that node was the match and the policy is satisfied;
    otherwise the search resumes in ``g``.  With ``leaf`` (all-path and
    all-children), a matched node without children satisfies the match, at
    the root too, and a root return while still searching keeps its A1
    state, which does not accept.  A subclass states the cells of the
    matched subtree, ``inside_call`` and ``inside_ret``."""

    leaf = True

    def __init__(self, d: rx.Dfa, done: str):
        _require_no_epsilon(d)
        self.alphabet, self.a1, self.done = d.alphabet, _frag(d, "a"), done

    def call(self, e, q):
        a1 = self.a1
        if q == BEG:  # c1: simulate A1 while searching for the matched path
            return a1.delta[(a1.initial, e)], BEG
        if q in a1.nonfinals:
            return a1.delta[(q, e)], q
        if q == SAT:  # c3: absorbing bookkeeping states
            return SAT, SAT
        if q == REJ or q == END:
            return REJ, REJ
        return self.inside_call(e, q)

    def ret(self, e, g, q):
        a1 = self.a1
        if q in a1.nonfinals or q == REJ:
            if g in a1.nonfinals:  # r-back: backtrack A1; a rejected subtree resumes the search
                return g
            return q if g == BEG and self.leaf and q != REJ else REJ  # r-leaf
        if q == SAT:  # r-sat, r-root
            return END if g == BEG else REJ if g == BOTTOM else SAT
        if q in a1.finals:  # r-leaf; without it, backtracking out of the matched node
            if g in a1.nonfinals:
                return SAT if self.leaf else g
            return END if g == BEG and self.leaf else REJ
        if q == self.done:
            if g in a1.nonfinals:  # r-done: the matched subtree completed accepted
                return SAT if a1.delta[(g, e)] in a1.finals else g
            if g == BEG:  # r-root
                return END
        return self.inside_ret(e, g, q)

    @cached_property
    def states(self):
        return frozenset({BEG, END, SAT, REJ, *self.a1.states})

    @cached_property
    def symbols(self):
        return frozenset({BEG, SAT, REJ, BOTTOM, *self.a1.nonfinals})


# -- all-path construction ----------------------------------------------------


class AllPathConstruction(_Search):
    """Find the shortest path matching the first regex (its DFA d1 is A1,
    pushing pre-call states for backtracking), then check every leaf path
    of the matched subtree against the second (d2 is A2, with augmented
    copies of A2 states used as resume points after each completed child).
    The matched subtree is done in A2's augmented initial state."""

    def __init__(self, d1: rx.Dfa, d2: rx.Dfa):
        self.a2 = a2 = _frag(d2, "b")
        self.base = {_aug(q): q for q in a2.states}  # an augmented state's A2 state
        super().__init__(d1, _aug(a2.initial))

    def inside_call(self, e, q):
        # c2: simulate A2 inside the matched subtree, pushing augmented states
        b = self.a2.initial if q in self.a1.finals else self.base.get(q, q)
        return self.a2.delta[(b, e)], _aug(b)

    def inside_ret(self, e, g, q):
        # r3: backtrack A2 within the matched subtree: a child returns to the
        # augmented state its parent pushed if A2 accepted its leaf path or
        # the child was itself resumed; popping an A1 state in any state but
        # done resumes the search
        if g in self.base:
            return g if q in self.a2.finals or q in self.base else REJ
        if g in self.a1.nonfinals and (q in self.a2.states or q in self.base):
            return g
        return REJ

    @cached_property
    def states(self):
        return super().states | self.a2.states | self.base.keys()

    @cached_property
    def symbols(self):
        return super().symbols | self.base.keys()


# -- all-children construction ------------------------------------------------


class AllChildrenConstruction(_Search):
    """Find the shortest path matching d, then run the child automaton on
    every child subtree of the matched node, restarting it from its initial
    behaviour each time it accepts; one failing subtree rejects.  The
    subtree is done in the child's final state."""

    def __init__(self, d: rx.Dfa, child: Construction):
        self.child = child
        super().__init__(d, "c." + END)

    def inside_call(self, e, q):
        # c2: the child's transitions; the matched node and the child's
        # accept state both behave like the child's initial state on calls
        x = BEG if q == self.done or q in self.a1.finals else q[2:]
        dst, push = self.child.call(e, x)
        return "c." + dst, "c." + push

    def inside_ret(self, e, g, q):
        if q != self.done and q.startswith("c."):
            if g in self.a1.nonfinals:  # r2: A1 backtracking out of an unfinished child
                return g
            if g.startswith("c."):
                # r1: a child subtree completing in a non-accepting child state
                # rejects (recognized by the child's begin marker on the stack)
                t = self.child.ret(e, g[2:], q[2:])
                return REJ if g == "c." + BEG and t != END else "c." + t
        return REJ

    @cached_property
    def states(self):
        return super().states | _embed("c.", self.child.states)

    @cached_property
    def symbols(self):
        return super().symbols | _embed("c.", self.child.symbols)


# -- exists-child construction ------------------------------------------------


class ExistsConstruction(_Search):
    """Find the shortest path matching d, then thread the sub-automata
    over the matched node's child subtrees: each accepted subtree advances
    to the next sub-automaton, each rejected subtree retries the current
    one on the following sibling.  The subtree is done in the last
    sub-automaton's final state; once it is, the run coasts in the exists
    marker."""

    leaf = False

    def __init__(self, d: rx.Dfa, subpolicies: Sequence[Construction]):
        assert subpolicies, "exists-child needs at least one subpolicy"
        self.subs = {f"c{i}": v for i, v in enumerate(subpolicies, start=1)}
        self.next = dict(zip(self.subs, list(self.subs)[1:]))
        super().__init__(d, f"c{len(subpolicies)}.{END}")

    def inside_call(self, e, q):
        if q == EXISTS or q == self.done:  # c3
            return EXISTS, EXISTS
        if q in self.a1.finals:  # c1: the matched node hands over to the first sub-automaton
            head, x = "c1", BEG
        else:
            # c2: sub-automata transitions; an accept state behaves like the
            # next sub-automaton's initial state
            head, _, x = q.partition(".")
            if x == END:
                head, x = self.next[head], BEG
        dst, push = self.subs[head].call(e, x)
        return f"{head}.{dst}", f"{head}.{push}"

    def inside_ret(self, e, g, q):
        a1 = self.a1
        if q == EXISTS:  # r3: the exists marker, like the done state, satisfies the match
            if g in a1.nonfinals:
                return SAT if a1.delta[(g, e)] in a1.finals else REJ
            return END if g == BEG else REJ if g == BOTTOM else EXISTS
        head, dot, x = q.partition(".")
        if not dot:
            return REJ
        if g in a1.nonfinals:  # r2: A1 backtracking out of the sub-automata
            return g
        sub, _, y = g.partition(".")
        if sub != head:
            return REJ
        # r1: a subtree failing the current sub-policy resets to that
        # sub-policy's initial state
        t = self.subs[head].ret(e, y, x)
        return f"{head}.{BEG if y == BEG and t != END else t}"

    @cached_property
    def states(self):
        return super().states.union({EXISTS}, *(_embed(h + ".", v.states)
                                                for h, v in self.subs.items()))

    @cached_property
    def symbols(self):
        return super().symbols.union({EXISTS}, *(_embed(h + ".", v.symbols)
                                                 for h, v in self.subs.items()))


# -- start construction --------------------------------------------------------


class StartConstruction(Construction):
    """Anchor the inner automaton at first-encounter start endpoints.

    The anchor DFA (that of ``start_anchor_regex``) recognizes paths ending
    at a start endpoint with no earlier start endpoint; reaching its final
    state coincides with an S-node's call, which jumps straight into the
    inner automaton's post-initial behaviour while pushing the pre-call
    anchor state.  The matching return resumes the anchor from that popped
    state if the inner automaton would accept, and rejects otherwise.  The
    anchor DFA's final states and the inner automaton's initial/final states
    are fused away.
    """

    def __init__(self, anchor: rx.Dfa, inner: Construction):
        self.alphabet, self.a1, self.inner = anchor.alphabet, _frag(anchor, "a"), inner

    def call(self, e, q):
        a1 = self.a1
        if q == BEG or q in a1.nonfinals:
            # c1: simulate the anchor DFA; on reaching an S endpoint, enter the
            # inner automaton instead.  The root call steps the anchor from
            # its initial state and pushes the begin marker; a deeper call
            # pushes its source state.
            t = a1.delta[(a1.initial if q == BEG else q, e)]
            if t in a1.finals:
                t, push = self.inner.call(e, BEG)
                assert push == BEG, "inner automaton must push its begin marker first"
                t = "in." + t
            return t, q
        if q.startswith("in."):  # c2: inner transitions between its middle states
            dst, push = self.inner.call(e, q[3:])
            return "in." + dst, "in." + push
        return REJ, REJ

    def ret(self, e, g, q):
        a1 = self.a1
        if q in a1.nonfinals:
            if g in a1.nonfinals:  # r2: anchor backtracking
                return g
            # r1: acceptance at the root's return, the anchor still scanning
            return END if g == BEG and q == a1.delta[(a1.initial, e)] else REJ
        if not q.startswith("in."):
            return REJ
        if g.startswith("in."):  # r3: inner returns between its middle states
            return "in." + self.inner.ret(e, g[3:], q[3:])
        # r1/r2: the S subtree completed; it accepts if the inner automaton
        # would, at the root, or else resuming the anchor from the popped
        # state (the initial one included: a deeper call from it pushes it)
        if g == BEG:
            t, anchor = END, a1.delta[(a1.initial, e)]
        elif g in a1.nonfinals:
            t, anchor = g, a1.delta[(g, e)]
        else:
            return REJ
        return t if anchor in a1.finals and self.inner.ret(e, BEG, q[3:]) == END else REJ

    @cached_property
    def states(self):
        return frozenset({BEG, END, REJ, *self.a1.nonfinals}) | _embed(
            "in.", self.inner.states - {BEG, END})

    @cached_property
    def symbols(self):
        # the symbols some call pushes: no call here pushes the inner
        # automaton's begin marker, since the entering call pushes the
        # anchor's state, and none pushes its final state
        return frozenset({BEG, REJ, BOTTOM, *self.a1.nonfinals}) | _embed(
            "in.", self.inner.symbols - {BEG, END})


# -- reachability: reached cells, the build and doomed states ------------------


def reached_cells(initial, rows: Sequence[tuple]) -> tuple[set, list[set[tuple]]]:
    """The cells of a table a rooted word can read (Alur & Madhusudan,
    "Adding Nesting Structure to Words", JACM 2009): the states a call is
    made from, and for each (request row, response rows) pair of ``rows``
    the (state, popped symbol) pairs a return is read at.  A request row
    maps a state to its target and pushed symbol, and response rows map a
    popped symbol to a row of targets: a table's rows read by id, or
    ``build``'s lookups read by name, each cell read when it is reached.

    W(q0) is the set of states reachable from q0 over any sequence of
    complete child subtrees.  The root call is made from the initial state.
    A call from p that enters q0 and pushes g has its child calls made from
    the states of W(q0), and its return read at (q1, g) for each q1 in
    W(q0); the state it returns to joins W of the subtree around p.  A
    worklist takes each pair (q0, q1 in W(q0)) once, when it is found, and
    relates it to the callers that entered q0 before; a caller found later
    relates itself to the pairs taken before it."""
    requests = [request for request, _ in rows]
    exits: dict = {}  # q0 -> W(q0) found so far
    done: dict = {}  # q0 -> the states of W(q0) taken off the worklist
    callers: dict = {}  # q0 -> (q0 around the caller or None, row, pushed)
    returns = [set() for _ in rows]

    def returned(around, c, g, q1):
        returns[c].add((q1, g))
        if around is not None and (q := rows[c][1][g][q1]) not in exits[around]:
            exits[around].add(q)
            todo.append((around, q))

    todo = [(None, initial)]  # the root call is made around nothing
    while todo:
        around, p = todo.pop()
        for c, request in enumerate(requests):
            q0, g = request[p]
            if q0 not in exits:
                exits[q0], done[q0], callers[q0] = {q0}, [], set()
                todo.append((q0, q0))
            if (caller := (around, c, g)) not in callers[q0]:
                callers[q0].add(caller)
                for q1 in done[q0]:
                    returned(*caller, q1)
        if around is not None:
            done[around].append(p)
            for caller in callers[around]:
                returned(*caller, p)
    return {initial}.union(*exits.values()), returns


class _Cells(dict):
    """A row of cells, each computed by ``cell`` on first read and kept."""

    __slots__ = ("cell",)

    def __init__(self, cell):
        super().__init__()
        self.cell = cell

    def __missing__(self, key):
        value = self[key] = self.cell(key)
        return value


def build(c: Construction) -> Vpa:
    """The automaton of ``c`` restricted to the cells a rooted word can read
    (``reached_cells``), every other cell taking the rule of ``rej``, its
    declared reject state.

    Only the reached cells are computed, each once, and ``Vpa.from_rules``
    builds the table from them.  The automaton keeps the states calls are
    made from, the targets of the reached return cells, and ``rej``; the
    symbols the reached calls push, the bottom marker and ``rej``.  A
    rooted word, or a prefix of one, reads only reached cells, so it runs
    through the configurations it has over every cell of ``c``.  So does a
    forest: the root's return goes to ``end`` or to ``rej``, whose calls go
    to ``rej`` in both.  Cells ``from_rules`` refuses, such as a call
    pushing the bottom marker, are a ``CompilerInternalError``."""
    rows = [(_Cells(partial(c.call, e)), _Cells(lambda g, e=e: _Cells(partial(c.ret, e, g))))
            for e in c.alphabet]
    sources, returns = reached_cells(BEG, rows)
    calls, rets = {}, {}
    for e, (request, response), cells in zip(c.alphabet, rows, returns):
        calls.update(((h, e), request[h]) for h in sources)
        rets.update(((h, g, e), response[g][h]) for h, g in cells)
    states = {*sources, *rets.values(), REJ}
    symbols = {BOTTOM, REJ, *(g for _, g in calls.values())}
    try:
        return Vpa.from_rules(states, BEG, {END} & states, c.alphabet, symbols, calls, rets, REJ)
    except VpaParseError as exc:
        raise CompilerInternalError(f"compiled automaton refused: {exc}") from None


def _doomed_states(v: Vpa) -> frozenset[str]:
    """The states from which no run reaches a final state, whatever the
    stack: a backward fixpoint from the finals over ``v.table``'s call
    cells and its return cells that pop a symbol other than the bottom
    marker, which a rooted word never pops (Alur & Madhusudan, "Visibly
    Pushdown Languages", STOC 2004).  The set is closed under those cells.
    Rows that endpoints share are read once."""
    t = v.table
    bottom = t.symbol_id[BOTTOM]
    targets = {tuple(map(itemgetter(0), row))  # each row of target ids, once
               for row in {id(row): row for row in t.request.values()}.values()}
    for rows in {id(rows): rows for rows in t.response.values()}.values():
        targets.update(rows[:bottom], rows[bottom + 1:])
    sources = [[] for _ in t.states]
    for h, successors in enumerate(zip(*targets)):
        for q in set(successors):
            sources[q].append(h)
    alive, todo = set(), [t.state_id[q] for q in v.finals]
    while todo:
        if (q := todo.pop()) not in alive:
            alive.add(q)
            todo += sources[q]
    return frozenset(q for h, q in enumerate(t.states) if h not in alive)


# -- whole-policy compilation ---------------------------------------------------


# Bounded like the regex caches, but lower than rx.CACHE_SIZE: holding 2,048
# DFAs, and the regexes keying them, raised a long compile loop's peak RSS by
# 3.5 MB, and 128 hold several documents' worth.
@lru_cache(maxsize=128)
def _dfa(r: rx.Regex, alphabet: tuple[Endpoint, ...]) -> rx.Dfa:
    """``rx.to_dfa``, built once per distinct (regex, alphabet) pair: the
    policies of a document repeat their regexes.  Callers share the DFA
    and never change it."""
    return rx.to_dfa(r, alphabet)


def compile_inner(inner: InnerPolicy, alphabet: Sequence[Endpoint]
                  ) -> tuple[Construction, dict[str, rx.Dfa]]:
    """Compile an inner policy bottom-up; returns the construction and the
    component DFAs keyed by their position in the policy tree."""
    alpha = tuple(alphabet)
    if isinstance(inner, CallSeq):
        d = _dfa(inner.reg, alpha)
        return SeqConstruction(d), {"seq": d}
    if isinstance(inner, AllPath):
        d1, d2 = _dfa(inner.reg1, alpha), _dfa(inner.reg2, alpha)
        return AllPathConstruction(d1, d2), {"match": d1, "leaves": d2}
    if isinstance(inner, AllChildren):
        child, child_dfas = compile_inner(inner.child, alpha)
        dfas = {"match": _dfa(inner.reg, alpha)}
        dfas.update({f"child.{k}": d for k, d in child_dfas.items()})
        return AllChildrenConstruction(dfas["match"], child), dfas
    if isinstance(inner, ExistsChild):
        subs = []
        dfas = {"match": _dfa(inner.reg, alpha)}
        for i, sub in enumerate(inner.subpolicies, start=1):
            v, sub_dfas = compile_inner(sub, alpha)
            subs.append(v)
            dfas.update({f"sub{i}.{k}": d for k, d in sub_dfas.items()})
        return ExistsConstruction(dfas["match"], subs), dfas
    raise TypeError(f"not an inner policy: {inner!r}")


@dataclass(frozen=True)
class Metrics:
    depth: int
    fanout: int
    max_dfa_states: int
    state_count: int
    header_bits: int


@dataclass(frozen=True)
class CompilationArtifacts:
    policy_id: str
    policy: Policy
    vpa: Vpa
    component_dfas: dict[str, rx.Dfa]  # over the endpoint classes' first members
    metrics: Metrics
    reject_states: frozenset[str]  # doomed: no final state reachable (``_doomed_states``)


def compile_policy(policy: Policy, alphabet: Sequence[Endpoint],
                   policy_id: str = "pol0") -> CompilationArtifacts:
    """Compile over one representative per endpoint class, then give every
    endpoint its representative's rows (``_share_rows``)."""
    alpha = tuple(alphabet)
    classes = endpoint_classes(policy, alpha)
    reps = tuple(c[0] for c in classes)
    dfas = {"start": _dfa(start_anchor_regex(policy.start_set), reps)}
    inner, inner_dfas = compile_inner(policy.inner, reps)
    dfas.update({f"inner.{k}": d for k, d in inner_dfas.items()})
    vpa = _share_rows(build(StartConstruction(dfas["start"], inner)), classes, alpha)
    metrics = Metrics(
        depth=depth(policy),
        fanout=fanout(policy),
        # one component DFA per regex of the policy, the start anchor's too
        max_dfa_states=max(d.n_states for d in dfas.values()),
        state_count=len(vpa.states),
        header_bits=header_bits(len(vpa.states)),
    )
    return CompilationArtifacts(
        policy_id=policy_id,
        policy=policy,
        vpa=vpa,
        component_dfas=dfas,
        metrics=metrics,
        reject_states=_doomed_states(vpa),
    )


def _share_rows(v: Vpa, classes: Sequence[Sequence[Endpoint]],
                alphabet: tuple[Endpoint, ...]) -> Vpa:
    """``v``, built over the classes' first members, over the whole
    alphabet: each endpoint's request row and response rows are the very
    objects of its class's first member, keyed in alphabet order."""
    first = {e: c[0] for c in classes for e in c}
    t = v.table
    table = t._replace(request={e: t.request[first[e]] for e in alphabet},
                       response={e: t.response[first[e]] for e in alphabet})
    return Vpa(v.states, v.initial, v.finals, alphabet, v.stack_alphabet, table)


def compile(doc: PolicyDocument) -> list[CompilationArtifacts]:  # noqa: A001
    return [
        compile_policy(pol, doc.alphabet, policy_id=f"pol{i}")
        for i, pol in enumerate(doc.policies)
    ]


def check_state_bound(a: CompilationArtifacts) -> bool:
    """State count against the analytic bound (k+1)^d * (R+5)."""
    m = a.metrics
    return m.state_count <= (m.fanout + 1) ** m.depth * (m.max_dfa_states + 5)
