"""Compile policies into deterministic, complete visibly pushdown automata.

Each policy form has its own construction.  The three hierarchical forms
(all-path, all-children, exists-child) share one match search,
``_match_search``: simulate the match regex's DFA on call symbols while
pushing the pre-call DFA state, so that return symbols can backtrack the
simulation and retry other branches; once the shortest match is found, the
construction hands the subtree to its inner check (a second DFA for
leaf-path constraints, or embedded sub-automata), and the search records
the verdict in absorbing satisfied/rejected bookkeeping states.

Each construction writes the cells of its ``vpa.Table`` family by family.
Families state behaviour and must never disagree on a cell (a disagreement
is a compiler bug and raises).  ``_Build.finish`` alone sends every cell no
family wrote to the reject state, which makes tables complete.

Sub-automata are embedded by prefix-renaming every state and stack symbol,
which keeps state spaces disjoint; their rows are then read by id.

``compile_policy`` applies one pass after the constructions, ``_prune``:
the summary fixpoint ``reached_cells`` finds the cells a rooted word can
read, every other cell takes the reject sink's rule, and the states and
stack symbols no reached cell names go.  The result is still complete,
every rooted word runs as before, and the cells outside the sink's rule
are exactly those a filter lists, so the written automaton and its filters
agree.  The fixpoint runs here only, once per policy.  The constructions
themselves stay unpruned, so their state counts follow from their parts.
``_doomed_states`` then finds the states that cannot reach a final state.

``compile_policy`` compiles over endpoint classes (D'Antoni & Alur,
"Symbolic Visibly Pushdown Automata", CAV 2014): endpoints that no set the
policy names tells apart (``policy.endpoint_classes``) have the same
transitions, so the DFAs, the constructions and the prune pass run over one
representative per class, its first member.  ``_share_rows`` then expands
the table to the whole alphabet by sharing rows: every endpoint reads the
very row objects of its class's representative.  ``to_dfa`` numbers states
breadth-first in alphabet order, and a representative comes first in its
class, so the state names are those a compile over every name would give.
The constructions work over any alphabet; only ``compile_policy`` narrows it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Collection, Sequence

from . import regex as rx
from .errors import CompilerInternalError, EpsilonMatchRegex
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
from .vpa import BOTTOM, Table, Vpa, check_well_formed

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

    states: tuple[str, ...]
    initial: str
    finals: frozenset[str]
    nonfinals: tuple[str, ...]
    delta: dict[tuple[str, Endpoint], str]


def _frag(d: rx.Dfa, tag: str) -> _DfaFrag:
    name = {q: f"{tag}{q}" for q in d.states}
    states = tuple(name[q] for q in d.states)
    finals = frozenset(name[q] for q in d.finals)
    delta = {(name[q], s): name[t] for (q, s), t in d.transition.items()}
    return _DfaFrag(
        states,
        name[d.initial],
        finals,
        tuple(q for q in states if q not in finals),
        delta,
    )


class _Build:
    """Accumulates transition families into the cells of one ``Table``, each
    ``None`` until written, with conflict detection.

    Families must agree wherever they overlap.  Tuples whose source state
    or stack symbol falls outside the automaton are silently dropped (the
    source rules quantify over larger sets); destinations must always land
    inside.  ``finish`` sends every cell no family wrote to the reject
    state; it is the only place a default reject rule comes from.
    """

    def __init__(self, states: set[str], initial: str, final: str, reject: str,
                 alphabet: Sequence[Endpoint], gamma: set[str]):
        self.initial, self.final, self.reject = initial, final, reject
        self.alphabet, self.gamma = tuple(alphabet), gamma  # gamma: pushable symbols, not BOTTOM
        self.states, self.symbols = tuple(sorted(states)), tuple(sorted({*gamma, BOTTOM}))
        self.state_id = {q: i for i, q in enumerate(self.states)}
        self.symbol_id = {g: i for i, g in enumerate(self.symbols)}
        self.request = {e: [None] * len(states) for e in self.alphabet}
        self.response = {e: [[None] * len(states) for _ in self.symbols] for e in self.alphabet}

    def call(self, family: str, src: str, sym: str, dst: str, push: str):
        if (h := self.state_id.get(src)) is not None:
            assert dst in self.state_id, f"{family}: call target {dst!r} unknown"
            assert push in self.gamma, f"{family}: pushes undeclared symbol {push!r}"
            self._write(family, self.request[sym], h, (self.state_id[dst], self.symbol_id[push]))

    def ret(self, family: str, src: str, pop: str, sym: str, dst: str):
        if (h := self.state_id.get(src)) is not None and pop in self.gamma:
            assert dst in self.state_id, f"{family}: return target {dst!r} unknown"
            self._write(family, self.response[sym][self.symbol_id[pop]], h, self.state_id[dst])

    def copy(self, family: str, v: Vpa, skip_call=None, skip_return=None, reset=None):
        """``call`` and ``ret`` for the embedded ``v``'s rules, read by id,
        but those from ``skip_call`` and ``skip_return``; with ``reset``, a
        return popping ``v``'s initial state into a non-final one goes there."""
        t = v.table
        ids = [self.state_id.get(q) for q in t.states]
        pushed = [self.symbol_id[g] if g in self.gamma else None for g in t.symbols]
        resets = [k if q in v.finals else self.state_id.get(reset) for q, k in zip(t.states, ids)]
        for e, row in t.request.items():
            for h, (q, g) in enumerate(row):
                if ids[h] is not None and t.states[h] != skip_call:
                    assert ids[q] is not None and pushed[g] is not None, family
                    self._write(family, self.request[e], ids[h], (ids[q], pushed[g]))
        for e, rows in t.response.items():
            for g, row in enumerate(rows):
                targets = resets if reset and t.symbols[g] == v.initial else ids
                for h, q in enumerate(row):
                    if ids[h] is not None and pushed[g] is not None and t.states[h] != skip_return:
                        assert targets[q] is not None, family
                        self._write(family, self.response[e][pushed[g]], ids[h], targets[q])

    def calls_like(self, family: str, sources: Collection[str], v: Vpa):
        """Each of ``sources`` calls as the embedded ``v``'s initial state."""
        for s in self.alphabet:
            dst, push = v.delta_call[(v.initial, s)]
            for q in sources:
                self.call(family, q, s, dst, push)

    def _write(self, family: str, row: list, h: int, cell):
        """Write ``cell`` into ``row[h]``, which must be unwritten or hold it."""
        if row[h] is None:
            row[h] = cell
        elif row[h] != cell:  # a return cell is a state, a call cell a state and a push
            kind, name = ("return", self.states.__getitem__) if type(cell) is int else (
                "call", lambda c: (self.states[c[0]], self.symbols[c[1]]))
            raise CompilerInternalError(
                f"{family}: {kind} conflict at {self.states[h]!r}: {name(row[h])} vs {name(cell)}")

    def finish(self) -> Vpa:
        """Send the unwritten cells to the reject state and freeze."""
        assert self.reject in self.gamma
        r = self.state_id[self.reject]  # fill.get(cell, cell): the reject rule for None
        call_fill, return_fill = {None: (r, self.symbol_id[self.reject])}, {None: r}
        # Rows pass through a list: a tuple built from a list is allocated at its size, so
        # the interpreter reuses freed tuples instead of parking one per freed row.
        table = Table(
            self.states, self.symbols, self.state_id, self.symbol_id,
            {e: tuple([*map(call_fill.get, row, row)]) for e, row in self.request.items()},
            {e: tuple(tuple([*map(return_fill.get, row, row)]) for row in rows)
             for e, rows in self.response.items()},
        )
        return Vpa(frozenset(self.states), self.initial, frozenset({self.final}), self.alphabet,
                   frozenset(self.symbols), table)


def _rename_vpa(v: Vpa, prefix: str) -> Vpa:
    # Only the name tuples change: prefixed, ASCII names keep their order.
    t = v.table
    states = tuple(prefix + q for q in t.states)
    symbols = tuple(g if g == BOTTOM else prefix + g for g in t.symbols)
    table = t._replace(states=states, symbols=symbols,
                       state_id={q: i for i, q in enumerate(states)},
                       symbol_id={g: i for i, g in enumerate(symbols)})
    return Vpa(frozenset(states), prefix + v.initial, frozenset(prefix + q for q in v.finals),
               v.alphabet, frozenset(symbols), table)


def _single_final(v: Vpa) -> str:
    assert len(v.finals) == 1
    return next(iter(v.finals))


def _require_no_epsilon(d: rx.Dfa):
    if d.initial in d.finals:
        raise EpsilonMatchRegex("match regex must not accept the empty string")


# -- linear sequence construction --------------------------------------------


def compile_callseq(d: rx.Dfa) -> Vpa:
    """Run the regex DFA over call symbols only; returns keep the state.
    The root's return (recognized by its begin-marker stack symbol) accepts
    iff the DFA sits in a final state."""
    alpha = d.alphabet
    a1 = _frag(d, "a")
    states = {BEG, END, REJ, *a1.states}
    gamma = set(states)  # the whole state set doubles as the stack alphabet
    b = _Build(states, BEG, END, REJ, alpha, gamma)

    for s in alpha:
        b.call("c-sim", BEG, s, a1.delta[(a1.initial, s)], BEG)
        for q in a1.states:
            b.call("c-sim", q, s, a1.delta[(q, s)], q)

    for s in alpha:
        for f in a1.finals:
            b.ret("r-accept", f, BEG, s, END)
        for q in a1.states:
            for g in a1.states:
                b.ret("r-skip", q, g, s, q)

    return b.finish()


# -- the match search shared by the hierarchical forms ----------------------


def _match_search(b: _Build, a1: _DfaFrag, done: str):
    """The families all-path, all-children and exists-child share: search
    for the shortest root path whose calls A1 (the match DFA) accepts,
    pushing pre-call A1 states so that returns backtrack the search, and
    record the verdict.  ``done`` is the state in which a matched subtree
    completes accepted.  Its return pops the A1 state ``g`` below the
    matched node: if A1 steps from ``g`` to a final state on the returned
    endpoint, that node was the match and the policy is satisfied;
    otherwise the search resumes in ``g``."""
    for s in b.alphabet:
        # c1: simulate A1 while searching for the matched path.
        b.call("c1", BEG, s, a1.delta[(a1.initial, s)], BEG)
        for q in a1.nonfinals:
            b.call("c1", q, s, a1.delta[(q, s)], q)
        # c3: absorbing bookkeeping states.
        b.call("c3", SAT, s, SAT, SAT)
        b.call("c3", REJ, s, REJ, REJ)
        b.call("c3", END, s, REJ, REJ)
        for g in a1.nonfinals:
            # r-back: backtrack A1; a rejected subtree resumes the search.
            for q in (REJ, *a1.nonfinals):
                b.ret("r-back", q, g, s, g)
            # r-done: the matched subtree completed accepted.
            b.ret("r-done", done, g, s, SAT if a1.delta[(g, s)] in a1.finals else g)
        for g in b.gamma - {BEG}:
            b.ret("r-sat", SAT, g, s, SAT)
        # r-root: acceptance at the root's return.
        b.ret("r-root", SAT, BEG, s, END)
        b.ret("r-root", done, BEG, s, END)


def _leaf_match(b: _Build, a1: _DfaFrag):
    """All-path and all-children: a matched node without children satisfies
    the match, at the root too; a root return while still searching keeps
    its A1 state, which does not accept."""
    for s in b.alphabet:
        for f in a1.finals:
            for g in a1.nonfinals:
                b.ret("r-leaf", f, g, s, SAT)
            b.ret("r-leaf", f, BEG, s, END)
        for q in a1.nonfinals:
            b.ret("r-leaf", q, BEG, s, q)


# -- all-path construction ----------------------------------------------------


def compile_allpath(d1: rx.Dfa, d2: rx.Dfa) -> Vpa:
    """Find the shortest path matching the first regex (its DFA d1 is A1,
    pushing pre-call states for backtracking), then check every leaf path
    of the matched subtree against the second (d2 is A2, with augmented
    copies of A2 states used as resume points after each completed child).
    The matched subtree is done in A2's augmented initial state."""
    _require_no_epsilon(d1)
    alpha = d1.alphabet
    a1 = _frag(d1, "a")
    a2 = _frag(d2, "b")
    augs = {q: _aug(q) for q in a2.states}
    done = augs[a2.initial]

    states = {BEG, END, SAT, REJ, *a1.states, *a2.states, *augs.values()}
    gamma = {BEG, SAT, REJ, *a1.nonfinals, *augs.values()}
    b = _Build(states, BEG, END, REJ, alpha, gamma)
    _match_search(b, a1, done)
    _leaf_match(b, a1)

    # c2: simulate A2 inside the matched subtree, pushing augmented states.
    for s in alpha:
        for f in a1.finals:
            b.call("c2", f, s, a2.delta[(a2.initial, s)], augs[a2.initial])
        for q in a2.states:
            b.call("c2", q, s, a2.delta[(q, s)], augs[q])
            b.call("c2", augs[q], s, a2.delta[(q, s)], augs[q])

    # r3: backtrack A2 within the matched subtree: a child returns to the
    # augmented state its parent pushed if A2 accepted its leaf path or the
    # child was itself resumed; popping an A1 state in any state but done
    # resumes the search.
    for s in alpha:
        for g in augs.values():
            for q in (*a2.finals, *augs.values()):
                b.ret("r3", q, g, s, g)
        for g in a1.nonfinals:
            for q in (*a2.states, *augs.values()):
                if q != done:
                    b.ret("r3", q, g, s, g)

    return b.finish()


# -- all-children construction ------------------------------------------------


def compile_allchildren(d: rx.Dfa, child: Vpa) -> Vpa:
    """Find the shortest path matching d, then run the child automaton on
    every child subtree of the matched node, restarting it from its initial
    behaviour each time it accepts; one failing subtree rejects.  The
    subtree is done in the child's final state."""
    _require_no_epsilon(d)
    alpha = d.alphabet
    a1 = _frag(d, "a")
    c = _rename_vpa(child, "c.")
    cbeg = c.initial
    cend = _single_final(c)
    cgamma = c.stack_alphabet - {BOTTOM}

    states = {BEG, END, SAT, REJ, *c.states, *a1.states}
    gamma = set(cgamma) | {BEG, SAT, REJ, *a1.nonfinals}
    b = _Build(states, BEG, END, REJ, alpha, gamma)
    _match_search(b, a1, cend)
    _leaf_match(b, a1)

    # c2/r1: child transitions, except that a child subtree completing in a
    # non-accepting child state rejects (recognized by the child's begin
    # marker on the stack); the matched node and the child's accept state
    # both behave like the child's initial state on calls.
    b.copy("c2/r1", c, skip_call=cend, skip_return=cend, reset=REJ)
    b.calls_like("c2", (*a1.finals, cend), c)

    # r2: A1 backtracking out of an unfinished child.
    for s in alpha:
        for g in a1.nonfinals:
            for q in c.states - {cend}:
                b.ret("r2", q, g, s, g)

    return b.finish()


# -- exists-child construction ------------------------------------------------


def compile_exists(d: rx.Dfa, subpolicies: Sequence[Vpa]) -> Vpa:
    """Find the shortest path matching d, then thread the sub-automata
    over the matched node's child subtrees: each accepted subtree advances
    to the next sub-automaton, each rejected subtree retries the current
    one on the following sibling.  The subtree is done in the last
    sub-automaton's final state."""
    _require_no_epsilon(d)
    assert subpolicies, "exists-child needs at least one subpolicy"
    alpha = d.alphabet
    a1 = _frag(d, "a")
    subs = [_rename_vpa(v, f"c{i + 1}.") for i, v in enumerate(subpolicies)]
    k = len(subs)
    begs = [v.initial for v in subs]
    ends = [_single_final(v) for v in subs]
    gammas = [v.stack_alphabet - {BOTTOM} for v in subs]
    all_sub_states = set().union(*(v.states for v in subs))

    states = {BEG, END, REJ, EXISTS, SAT, *a1.states, *all_sub_states}
    gamma = {BEG, REJ, EXISTS, SAT, *a1.nonfinals}.union(*gammas)
    b = _Build(states, BEG, END, REJ, alpha, gamma)
    _match_search(b, a1, ends[k - 1])

    # c1: the matched node hands over to the first sub-automaton.
    b.calls_like("c1", a1.finals, subs[0])

    # c2/r1: sub-automata transitions with retry: a subtree failing the
    # current sub-policy resets to that sub-policy's initial state; an
    # accept state behaves like the next sub-automaton's initial state.
    for i, v in enumerate(subs):
        b.copy("c2/r1", v, skip_call=ends[i], reset=begs[i])
        if i + 1 < k:
            b.calls_like("c2", (ends[i],), subs[i + 1])

    # c3: once all k subtrees are found the run coasts in the exists marker.
    for s in alpha:
        b.call("c3", ends[k - 1], s, EXISTS, EXISTS)
        b.call("c3", EXISTS, s, EXISTS, EXISTS)

    # r2: A1 backtracking out of the sub-automata and out of the matched node.
    backtracking = (*(all_sub_states - {ends[k - 1]}), *a1.finals)
    for s in alpha:
        for g in a1.nonfinals:
            for q in backtracking:
                b.ret("r2", q, g, s, g)

    # r3: the exists marker, like the done state, satisfies the match.
    for s in alpha:
        for g in a1.nonfinals:
            if a1.delta[(g, s)] in a1.finals:
                b.ret("r3", EXISTS, g, s, SAT)
        for g in gamma - set(a1.nonfinals) - {BEG}:
            b.ret("r3", EXISTS, g, s, EXISTS)
        b.ret("r3", EXISTS, BEG, s, END)

    return b.finish()


# -- start construction --------------------------------------------------------


def compile_start(anchor: rx.Dfa, inner: Vpa) -> Vpa:
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
    alpha = anchor.alphabet
    a1 = _frag(anchor, "a")
    inn = _rename_vpa(inner, "in.")
    ibeg = inn.initial
    iend = _single_final(inn)
    imid = inn.states - {ibeg} - inn.finals

    states = {BEG, END, REJ, *a1.nonfinals, *imid}
    gamma = states - {END}
    b = _Build(states, BEG, END, REJ, alpha, gamma)

    def inner_initial_call(s: Endpoint) -> tuple[str, str]:
        dst, push = inn.delta_call[(ibeg, s)]
        assert push == ibeg, "inner automaton must push its begin marker first"
        return dst, push

    def inner_accepting_return(q: str, s: Endpoint) -> bool:
        return inn.delta_return[(q, ibeg, s)] == iend

    # c1: simulate the anchor DFA; on reaching an S endpoint, enter the
    # inner automaton instead.  The root call steps the anchor from its
    # initial state and pushes the begin marker; a deeper call pushes its
    # source state.
    sources = ((a1.initial, BEG), *((q, q) for q in a1.nonfinals))
    for s in alpha:
        for q, src in sources:
            t = a1.delta[(q, s)]
            if t in a1.finals:
                t, _ = inner_initial_call(s)
            b.call("c1", src, s, t, src)

    # c2/r3: inner transitions between its middle states (``_Build`` drops
    # those from the fused initial and final states).
    b.copy("c2/r3", inn)
    for s in alpha:
        b.call("c-rej", REJ, s, REJ, REJ)

    # r1: acceptance at the root's return (anchor still scanning, or the
    # root itself was the S node and its subtree satisfied the inner check).
    for s in alpha:
        t = a1.delta[(a1.initial, s)]
        if t not in a1.finals:
            b.ret("r1", t, BEG, s, END)
        else:
            for q in imid:
                if inner_accepting_return(q, s):
                    b.ret("r1", q, BEG, s, END)

    # r2: anchor backtracking, and resuming the anchor from the popped state
    # (the initial one included: a deeper call from it pushes it) when an S
    # subtree completes successfully.
    for s in alpha:
        for q in a1.nonfinals:
            for g in a1.nonfinals:
                b.ret("r2", q, g, s, g)
        for g in a1.nonfinals:
            if a1.delta[(g, s)] in a1.finals:
                for q in imid:
                    if inner_accepting_return(q, s):
                        b.ret("r2", q, g, s, g)

    return b.finish()


# -- reachability: reached cells, pruning and doomed states --------------------


def reached_cells(initial: int, rows: Sequence[tuple[tuple, tuple]]
                  ) -> tuple[set[int], list[set[tuple[int, int]]]]:
    """The cells of a table a rooted word can read (Alur & Madhusudan,
    "Adding Nesting Structure to Words", JACM 2009): the ids of the states
    a call is made from, and for each (request row, response rows) pair of
    ``rows`` the (state, popped symbol) ids a return is read at.

    W(q0) is the set of states reachable from q0 over any sequence of
    complete child subtrees.  The root call is made from the initial state.
    A call from p that enters q0 and pushes g has its child calls made from
    the states of W(q0), and its return read at (q1, g) for each q1 in
    W(q0); the state it returns to joins W of the subtree around p.  A
    worklist takes each pair (q0, q1 in W(q0)) once, when it is found, and
    relates it to the callers that entered q0 before; a caller found later
    relates itself to the pairs taken before it."""
    requests = [request for request, _ in rows]
    exits: dict[int, set[int]] = {}  # q0 -> W(q0) found so far
    done: dict[int, list[int]] = {}  # q0 -> the states of W(q0) taken off the worklist
    callers: dict[int, set[tuple]] = {}  # q0 -> (q0 around the caller or None, row, pushed)
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


def _prune(v: Vpa) -> Vpa:
    """``v`` restricted to the cells a rooted word can read
    (``reached_cells``), every other cell taking the reject sink's rule.

    It keeps the states calls are made from, the targets of the reached
    return cells, and ``rej``; the symbols the reached calls push, the
    bottom marker and ``rej``.  The result is complete and well-formed, and
    a rooted word, or a prefix of one, reads only reached cells, so its run
    is the same, configuration for configuration.  So is a forest's: the
    root's return goes to ``end`` or to ``rej``, whose calls go to ``rej``
    in both automata."""
    t = v.table
    rows = [(t.request[e], t.response[e]) for e in v.alphabet]
    sources, returns = reached_cells(t.state_id[v.initial], rows)
    states, symbols = {*sources, t.state_id[REJ]}, {t.symbol_id[BOTTOM], t.symbol_id[REJ]}
    for (request, response), cells in zip(rows, returns):
        symbols.update(request[h][1] for h in sources)
        states.update(response[g][h] for h, g in cells)
    kept, kept_symbols = sorted(states), sorted(symbols)  # old ids, in sorted name order
    new = {h: i for i, h in enumerate(kept)}
    new_symbol = {g: i for i, g in enumerate(kept_symbols)}
    r = new[t.state_id[REJ]]
    call_sink = r, new_symbol[t.symbol_id[REJ]]
    table_request, table_response = {}, {}
    for e, (request, response), cells in zip(v.alphabet, rows, returns):
        calls = [call_sink] * len(kept)
        for h in sources:
            q, g = request[h]
            calls[new[h]] = new[q], new_symbol[g]
        rets = [[r] * len(kept) for _ in kept_symbols]
        for h, g in cells:
            rets[new_symbol[g]][new[h]] = new[response[g][h]]
        table_request[e], table_response[e] = tuple(calls), tuple(map(tuple, rets))
    names = tuple(t.states[h] for h in kept)
    symbol_names = tuple(t.symbols[g] for g in kept_symbols)
    table = Table(names, symbol_names, {q: i for i, q in enumerate(names)},
                  {g: i for i, g in enumerate(symbol_names)}, table_request, table_response)
    return Vpa(frozenset(names), v.initial, v.finals & frozenset(names), v.alphabet,
               frozenset(symbol_names), table)


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


def compile_inner(inner: InnerPolicy, alphabet: Sequence[Endpoint]) -> tuple[Vpa, dict[str, rx.Dfa]]:
    """Compile an inner policy bottom-up; returns the automaton and the
    component DFAs keyed by their position in the policy tree."""
    alpha = tuple(alphabet)
    if isinstance(inner, CallSeq):
        d = rx.to_dfa(inner.reg, alpha)
        return compile_callseq(d), {"seq": d}
    if isinstance(inner, AllPath):
        d1, d2 = rx.to_dfa(inner.reg1, alpha), rx.to_dfa(inner.reg2, alpha)
        return compile_allpath(d1, d2), {"match": d1, "leaves": d2}
    if isinstance(inner, AllChildren):
        child_vpa, child_dfas = compile_inner(inner.child, alpha)
        dfas = {"match": rx.to_dfa(inner.reg, alpha)}
        dfas.update({f"child.{k}": d for k, d in child_dfas.items()})
        return compile_allchildren(dfas["match"], child_vpa), dfas
    if isinstance(inner, ExistsChild):
        sub_vpas = []
        dfas = {"match": rx.to_dfa(inner.reg, alpha)}
        for i, sub in enumerate(inner.subpolicies, start=1):
            v, sub_dfas = compile_inner(sub, alpha)
            sub_vpas.append(v)
            dfas.update({f"sub{i}.{k}": d for k, d in sub_dfas.items()})
        return compile_exists(dfas["match"], sub_vpas), dfas
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
    dfas = {"start": rx.to_dfa(start_anchor_regex(policy.start_set), reps)}
    inner_vpa, inner_dfas = compile_inner(policy.inner, reps)
    dfas.update({f"inner.{k}": d for k, d in inner_dfas.items()})
    vpa = _share_rows(_prune(compile_start(dfas["start"], inner_vpa)), classes, alpha)
    report = check_well_formed(vpa)
    if not report.ok:
        raise CompilerInternalError(
            f"compiled automaton is not well-formed: {report.problems[:3]}"
        )
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
