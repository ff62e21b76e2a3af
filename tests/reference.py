"""The definitions the tests compare against.

The library computes each concept once, the fast way: the oracle walks a
word's partner array in place, the enumerator fills partner arrays in one
stack pass, and runs, filters and writers read integer tables.  The
functions here restate the same concepts the plain way, read off their
definitions: the tree-shaped sets the policy semantics are defined over
(paths, children and subtrees of a service tree, as nested words and their
sub-words; Alur & Madhusudan, "Adding Nesting Structure to Words", JACM
2009), the policy semantics over those sets, automaton steps looked up by
name, a mesh request that steps every header at every hop, and artifacts
written one dict or one line per rule.  The tests compare the library
against them.

This is test code: nothing in ``src/`` may import it.
"""

from __future__ import annotations

import json
import re
import unicodedata
from typing import NamedTuple

from treepolicy import compiler, mesh_sim, monitor
from treepolicy import nested_word as nw
from treepolicy import regex as rx
from treepolicy.errors import NotRooted, StackUnderflow, TreePolicyError
from treepolicy.policy import AllChildren, AllPath, CallSeq, start_anchor_regex
from treepolicy.vpa import BOTTOM, Vpa, link

# -- regex membership ----------------------------------------------------------


def matches(r: rx.Regex, word, alphabet) -> bool:
    """Membership by repeated derivation; independent of the DFA pipeline."""
    state = rx.desugar(r, alphabet)
    for s in word:
        state = rx.derive(state, s)
        if isinstance(state, rx.Empty):
            return False
    return state.nullable


# -- nested words: the matching, sub-words and the tree views ------------------


def return_of(w: nw.NestedWord, call_index: int) -> float:
    """Index of the call's matched return, or +inf when pending."""
    return w.matching.partner[call_index - w.first_index]


def call_of(w: nw.NestedWord, ret_index: int) -> float:
    """Index of the return's matched call, or -inf when orphaned."""
    return w.matching.partner[ret_index - w.first_index]


def pairs(w: nw.NestedWord) -> frozenset[tuple[float, float]]:
    """Each call with its partner, +inf when pending, and each orphan
    return as ``(-inf, index)``."""
    m = w.matching
    return frozenset((i, j) if j > i else (nw.NEG_INF, i)
                     for i, j in enumerate(m.partner, start=m.first) if j > i or j == nw.NEG_INF)


class IndexOutOfRange(TreePolicyError):
    """A slice index falls outside the word's index range."""


def sub_word(w: nw.NestedWord, i: int, i2: int) -> nw.NestedWord:
    """The sub-nested word over indices ``i..i2`` (inclusive), keeping its
    indices.

    The matching is restricted in three clauses: pairs inside the window
    are kept; calls whose return falls outside become pending (+inf);
    returns whose call falls outside become orphaned (-inf).
    """
    if not (w.first_index <= i < i2 <= w.last_index):
        raise IndexOutOfRange(f"bad slice [{i}, {i2}]")
    lo, hi = i - w.first_index, i2 - w.first_index + 1
    partner = [
        j if i <= j <= i2 else nw.POS_INF if j > i2 else nw.NEG_INF
        for j in w.matching.partner[lo:hi]
    ]
    names, codes, rows = w.coding
    return nw.NestedWord((names, codes[lo:hi], rows), nw.MatchingRelation(i, partner))


def recode(w: nw.NestedWord, endpoints) -> nw.NestedWord:
    """The same word coded over ``endpoints``, which hold the word's own in
    any order."""
    names, codes, _ = w.coding
    k = len(names)
    new_names, rows, call_code, return_code = nw.coder(endpoints)
    codes = [call_code[names[c]] if c < k else return_code[names[c - k]] for c in codes]
    return nw.NestedWord((new_names, codes, rows), w.matching)


def _require_rooted(w: nw.NestedWord):
    if not w.is_rooted():
        raise NotRooted("operation requires a rooted well-matched word")


# The path to a call a_m is the chain of calls at or before a_m whose matched
# return lies after it: on a rooted word, the calls still open when a_m is
# read, a_m included.


def seq(w: nw.NestedWord) -> tuple[nw.Path, ...]:
    """All root-to-call paths, ordered by terminal call index."""
    _require_rooted(w)
    out = []
    open_paths: list[nw.Path] = [()]
    for a in w.symbols:
        if a.is_call:
            path = open_paths[-1] + (a,)
            open_paths.append(path)
            out.append(path)
        else:
            open_paths.pop()
    return tuple(out)


def seq_leaf(w: nw.NestedWord) -> tuple[nw.Path, ...]:
    """The paths of ``seq`` whose terminal call is a leaf (its return is
    the immediately following symbol)."""
    return tuple(p for p in seq(w) if return_of(w, p[-1].index) == p[-1].index + 1)


def children(w: nw.NestedWord) -> tuple[nw.IndexedSymbol, ...]:
    """Calls that are direct children of the root, in call order: the first
    follows the root, and each next one follows the return of the one
    before."""
    _require_rooted(w)
    out = []
    nxt = w.first_index + 1
    for a in w.symbols[1:-1]:
        if a.index == nxt:
            out.append(a)
            nxt = return_of(w, nxt) + 1
    return tuple(out)


def subtree(w: nw.NestedWord, i: int) -> nw.NestedWord:
    """The rooted slice from the call at index ``i`` to its return."""
    return sub_word(w, i, return_of(w, i))


def subtrees(w: nw.NestedWord) -> tuple[nw.NestedWord, ...]:
    """Rooted slices under each child of the root, in child order."""
    return tuple(subtree(w, c.index) for c in children(w))


# A labeled ordered tree is (label, (child, ...)); rooted well-matched words
# are exactly the serializations of these trees.


def tree_to_events(tree) -> list[nw.TaggedSymbol]:
    """The tree's call/return events, depth first; open calls wait on a
    stack, so any depth serializes."""
    label, kids = tree
    events = [nw.call(label)]
    open_calls = [(label, iter(kids))]
    while open_calls:
        label, kids = open_calls[-1]
        child = next(kids, None)
        if child is None:
            open_calls.pop()
            events.append(nw.ret(label))
        else:
            events.append(nw.call(child[0]))
            open_calls.append((child[0], iter(child[1])))
    return events


def _reference_forests(n_nodes, alphabet):
    if n_nodes == 0:
        yield ()
        return
    for first_size in range(1, n_nodes + 1):
        for first in _reference_trees(first_size, alphabet):
            for rest in _reference_forests(n_nodes - first_size, alphabet):
                yield (first,) + rest


def _reference_trees(n_nodes, alphabet):
    for label in alphabet:
        for kids in _reference_forests(n_nodes - 1, alphabet):
            yield (label, kids)


def reference_enumerate_rooted(alphabet, max_calls):
    """The enumerator as recursive tree generators, each tree serialized
    and rebuilt through ``build_nested_word``'s checks."""
    for n in range(1, max_calls + 1):
        for tree in _reference_trees(n, alphabet):
            yield nw.build_nested_word(tree_to_events(tree))


# -- the policy semantics over paths and slices --------------------------------


def reference_first_match(n, reg, alphabet):
    """``first_match`` read off its definition: each path of ``seq`` whose
    call projection matches, with no matching non-empty proper prefix."""
    out = []
    for path in seq(n):
        word = tuple(a.endpoint for a in path)
        if not matches(reg, word, alphabet):
            continue
        if any(matches(reg, word[:j], alphabet) for j in range(1, len(word))):
            continue
        out.append(path)
    return tuple(out)


def reference_all_path(n, p, alphabet):
    """All-path read off its definition: under some first match, every
    leaf path of every child subtree matches ``reg2``."""
    return any(
        all(
            matches(p.reg2, tuple(a.endpoint for a in leaf_path), alphabet)
            for t in subtrees(subtree(n, path[-1].index))
            for leaf_path in seq_leaf(t)
        )
        for path in reference_first_match(n, p.reg1, alphabet)
    )


def reference_sat_inner(n, p, alphabet):
    """An inner policy on a rooted slice: each first match's subtree is
    sliced out, and its children are the slices of ``subtrees``."""
    if isinstance(p, CallSeq):
        return matches(p.reg, tuple(a.endpoint for a in n.symbols if a.is_call), alphabet)
    if isinstance(p, AllPath):
        return reference_all_path(n, p, alphabet)
    kids = [
        subtrees(subtree(n, path[-1].index)) for path in reference_first_match(n, p.reg, alphabet)
    ]
    if isinstance(p, AllChildren):
        return any(all(reference_sat_inner(t, p.child, alphabet) for t in ts) for ts in kids)
    return any(reference_ordered_selection(ts, p.subpolicies, alphabet) for ts in kids)


def reference_ordered_selection(trees, subpolicies, alphabet):
    """Can the subpolicies take distinct subtrees in left-to-right order?
    Tried by backtracking over every choice."""
    if not subpolicies:
        return True
    return any(
        reference_sat_inner(t, subpolicies[0], alphabet)
        and reference_ordered_selection(trees[i + 1 :], subpolicies[1:], alphabet)
        for i, t in enumerate(trees)
    )


def reference_sat_policy(n, pol, alphabet):
    """``sat_policy`` read off its definition over slices: every
    start-anchored first match's subtree satisfies the inner policy."""
    anchor = start_anchor_regex(pol.start_set)
    return all(
        reference_sat_inner(subtree(n, path[-1].index), pol.inner, alphabet)
        for path in reference_first_match(n, anchor, alphabet)
    )


# -- DFAs ----------------------------------------------------------------------


def dfa_accepts(d: rx.Dfa, word) -> bool:
    state = d.initial
    for s in word:
        state = d.transition[(state, s)]
    return state in d.finals


def dead_dfa_states(d: rx.Dfa) -> set[int]:
    """States of ``d`` from which no final state is reachable."""
    reverse: dict[int, set[int]] = {q: set() for q in d.states}
    for (q, _s), t in d.transition.items():
        reverse[t].add(q)
    alive = set(d.finals)
    todo = list(alive)
    while todo:
        q = todo.pop()
        for p in reverse[q]:
            if p not in alive:
                alive.add(p)
                todo.append(p)
    return set(d.states) - alive


def callseq_reject_states(art) -> set[str]:
    """The reject set of a ``call-seq`` policy by the sequence DFA: its
    linear run advances on calls and never backtracks, so the reject
    bookkeeping states and the DFA's dead states are doomed."""
    dead = dead_dfa_states(art.component_dfas["inner.seq"])
    return {compiler.REJ, f"in.{compiler.REJ}", *(f"in.a{q}" for q in dead)} & art.vpa.states


# -- steppers ------------------------------------------------------------------
#
# The runs step an integer table by id; these look each rule up by name,
# in the rule dicts read off the table below or in a filter spec's rules,
# one configuration object per symbol.


def delta_call(v: Vpa) -> dict:
    """Every call rule by name, (state, endpoint) -> (state, pushed
    symbol), in sorted key order; a cell without a rule is left out."""
    t = v.table
    calls = {}
    for e, row in t.request.items():
        for h, cell in enumerate(row):
            if cell is not None:
                calls[(t.states[h], e)] = (t.states[cell[0]], t.symbols[cell[1]])
    return dict(sorted(calls.items()))


def delta_return(v: Vpa) -> dict:
    """Every return rule by name, (state, popped symbol, endpoint) ->
    state, in sorted key order; a cell without a rule is left out."""
    t = v.table
    returns = {}
    for e, rows in t.response.items():
        for i, row in enumerate(rows):
            for h, cell in enumerate(row):
                if cell is not None:
                    returns[(t.states[h], t.symbols[i], e)] = t.states[cell]
    return dict(sorted(returns.items()))


def reference_configurations(v: Vpa, c, symbols):
    """The configuration after each tagged symbol, starting from ``c``,
    looked up by name in ``delta_call``/``delta_return``."""
    calls, returns = delta_call(v), delta_return(v)
    q, top, below = c.state, c.top, c.below
    for a in symbols:
        if a.tag == nw.CALL:
            below = c
            q, top = calls[(q, a.endpoint)]
        elif below is None:
            raise StackUnderflow(f"return from {a.endpoint!r} with empty stack in state {q!r}")
        else:
            q = returns[(q, top, a.endpoint)]
            top, below = below.top, below.below
        c = link(q, top, below)
        yield c


def reference_dist_walk(m, c, symbols):
    """The configuration after the tagged symbols, starting from ``c``,
    looked up in each endpoint's filter spec; a rule the spec lacks goes to
    its reject state, if it names one."""
    q, top, below = c.state, c.top, c.below
    for a in symbols:
        spec = m[a.endpoint]
        sink = spec.reject
        if a.tag == nw.CALL:
            below = link(q, top, below)
            q, top = spec.on_request[q] if q in spec.on_request or sink is None else (sink, sink)
        elif below is None:
            raise StackUnderflow(f"return from {a.endpoint!r} with empty stack in state {q!r}")
        else:
            key = (q, top)
            q = spec.on_response[key] if key in spec.on_response or sink is None else sink
            top, below = below.top, below.below
    return link(q, top, below)


class ReferenceRequest(NamedTuple):
    codes: list[int]
    partner: list[int]
    outcomes: dict[str, mesh_sim.Outcome]
    transitions: dict[str, int]
    hops: list[tuple]  # per node: (service, headers at its call, headers at its return)


def reference_request(t: mesh_sim.Topology, root, filters,
                      mode=mesh_sim.MODE_LOG) -> ReferenceRequest:
    """``mesh_sim.execute_request`` without its plan, hop rows or memo:
    every node steps each policy's header once through ``table.request``
    on the way in and once through ``table.response`` on the way out, and
    the first call that enters a policy's reject header stops an
    early-block request."""
    _names, _rows, call_code, return_code = nw.coder(t.services)
    headers = [pf.initial for pf in filters]
    codes, partner, hops = [], [], []
    blocked: dict[str, int] = {}
    calls = 0
    open_calls = []  # (service, headers at the call, pushed symbols, call position, children left)
    svc = root
    while True:
        if svc is not None:
            calls += 1
            codes.append(call_code[svc])
            partner.append(0)
            at_call = tuple(headers)
            pushed = []
            for k, pf in enumerate(filters):
                headers[k], g = pf.table.request[svc][headers[k]]
                pushed.append(g)
            if mode == mesh_sim.MODE_EARLY_BLOCK:
                blocked = {pf.policy_id: calls for pf, h in zip(filters, headers)
                           if h in pf.reject_headers}
            open_calls.append((svc, at_call, pushed, len(codes), iter(t.children(svc))))
        done, at_call, pushed, at, children = open_calls[-1]
        svc = None if blocked else next(children, None)
        if svc is None:
            open_calls.pop()
            codes.append(return_code[done])
            partner[at - 1] = len(codes)
            partner.append(at)
            hops.append((done, at_call, tuple(headers)))
            for k, pf in enumerate(filters):
                headers[k] = pf.table.response[done][pushed[k]][headers[k]]
            if not open_calls:
                break
    outcomes = {
        pf.policy_id: mesh_sim.Outcome("blocked", position=blocked[pf.policy_id])
        if pf.policy_id in blocked
        else mesh_sim.Outcome("accept" if h in pf.finals else "violation", pf.table.states[h])
        for pf, h in zip(filters, headers)
    }
    return ReferenceRequest(codes, partner, outcomes, dict.fromkeys(outcomes, 2 * calls), hops)


def reference_reached_cells(v: Vpa) -> tuple[set, set]:
    """The call cells ``(state, endpoint)`` and return cells ``(state,
    popped, endpoint)`` a rooted word can read, by name and by repeated
    sweeps to a fixpoint.  ``W[q0]`` holds the states reachable from ``q0``
    over complete child subtrees; a sweep grows every ``W[q0]`` by one
    more subtree from each of its states, for every endpoint, and the
    sweeps stop when one adds nothing."""
    alphabet, delta, delta_ret = v.alphabet, delta_call(v), delta_return(v)
    W = {delta[(v.initial, e)][0]: set() for e in alphabet}
    changed = True
    while changed:
        changed = False
        for q0 in list(W):
            if q0 not in W[q0]:
                W[q0].add(q0)
                changed = True
            for q1 in list(W[q0]):
                for e in alphabet:
                    q, g = delta[(q1, e)]
                    if q not in W:
                        W[q] = set()
                        changed = True
                    for q2 in list(W[q]):
                        if (after := delta_ret[(q2, g, e)]) not in W[q0]:
                            W[q0].add(after)
                            changed = True
    sources = {v.initial}.union(*W.values())
    calls = {(p, e) for p in sources for e in alphabet}
    returns = {(q1, g, e) for p, e in calls for q0, g in (delta[(p, e)],) for q1 in W[q0]}
    return calls, returns


def dense_automaton(c: compiler.Construction) -> Vpa:
    """The construction with every declared cell evaluated: the automaton
    it states, before the build leaves out the cells no rooted word reads."""
    calls = {(q, e): c.call(e, q) for q in c.states for e in c.alphabet}
    returns = {(q, g, e): c.ret(e, g, q) for q in c.states for g in c.symbols for e in c.alphabet}
    return Vpa.from_rules(c.states, compiler.BEG, {compiler.END}, c.alphabet, c.symbols,
                          calls, returns)


def reference_build(v: Vpa) -> Vpa:
    """``v`` restricted to the cells a rooted word can read: the states
    those cells name and ``rej``, the symbols their calls push, the bottom
    marker and ``rej``, with every other cell going to ``rej``."""
    calls, returns = reference_reached_cells(v)
    delta, delta_ret = delta_call(v), delta_return(v)
    rej = compiler.REJ
    states = {rej, *(q for q, _ in calls), *(delta_ret[k] for k in returns)}
    symbols = {rej, BOTTOM, *(delta[k][1] for k in calls)}
    return Vpa.from_rules(states, v.initial, v.finals & states, v.alphabet, symbols,
                          {k: delta[k] for k in calls},
                          {k: delta_ret[k] for k in returns}, reject=rej)


def reference_filter_rules(v: Vpa, sink) -> tuple[dict, dict]:
    """The call and return rules a compiled automaton's artifacts list:
    those at the cells a rooted word can read other than the sink's."""
    calls, returns = reference_reached_cells(v)
    delta, delta_ret = delta_call(v), delta_return(v)
    return ({k: delta[k] for k in calls if delta[k] != (sink, sink)},
            {k: delta_ret[k] for k in returns if delta_ret[k] != sink})


# -- writers -------------------------------------------------------------------
#
# Each builds its document the plain way: one dict per rule through
# ``json.dumps(indent=2, ensure_ascii=False)``, one quoted label per DOT
# edge, one branch per script rule, leaving out the rules into the
# automaton's declared reject state.


def reference_sink(v: Vpa):
    """The least non-final state whose every rule stays in it, a call
    pushing its name, or ``None``: a scan of the rules by name, which a
    compiled automaton's declared reject state must match."""
    delta, delta_ret = delta_call(v), delta_return(v)
    for s in sorted(v.states - v.finals):
        if s in v.stack_alphabet and all(
            delta[(s, e)] == (s, s)
            and all(delta_ret[(s, g, e)] == s for g in v.stack_alphabet)
            for e in v.alphabet
        ):
            return s
    return None


def explicit_rules(v: Vpa) -> tuple[dict, dict]:
    """The call and return rules other than the declared reject state's."""
    sink = v.sink
    return (
        {k: r for k, r in delta_call(v).items() if sink is None or r != (sink, sink)},
        {k: r for k, r in delta_return(v).items() if sink is None or r != sink},
    )


def reference_vpa_json(v: Vpa) -> str:
    calls, returns = explicit_rules(v)
    doc = {
        "version": 1,
        "alphabet": list(v.alphabet),
        "states": sorted(v.states),
        "initial": v.initial,
        "finals": sorted(v.finals),
        "stack_alphabet": sorted(v.stack_alphabet),
        "reject": v.sink,
        "delta_call": [
            {"from": q, "sym": e, "to": q2, "push": s}
            for (q, e), (q2, s) in sorted(calls.items())
        ],
        "delta_return": [
            {"from": q, "pop": s, "sym": e, "to": q2}
            for (q, s, e), q2 in sorted(returns.items())
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def reference_filter_json(spec: monitor.FilterSpec) -> str:
    """The head as ``json.dumps(indent=2, ensure_ascii=False)`` writes it,
    then each rule as ``json.dumps`` writes its array, one per line."""
    head = {"version": 2, "endpoint": spec.endpoint, "reject": spec.reject}
    lines = json.dumps(head, indent=2, ensure_ascii=False).split("\n")[:-1]
    lines[-1] += ","
    members = [
        ("on_request", [[q, dst, push] for q, (dst, push) in sorted(spec.on_request.items())]),
        ("on_response", [[q, local, dst] for (q, local), dst in sorted(spec.on_response.items())]),
    ]
    for i, (name, rows) in enumerate(members):
        comma = "," if i < len(members) - 1 else ""
        if not rows:
            lines.append(f'  "{name}": []{comma}')
            continue
        lines.append(f'  "{name}": [')
        lines += [f"    {json.dumps(row, ensure_ascii=False)}," for row in rows]
        lines[-1] = lines[-1][:-1]
        lines.append(f"  ]{comma}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def reference_dot(v: Vpa) -> str:
    lines = ["digraph vpa {", "  rankdir=LR;"]
    lines.append("  __start [shape=point];")
    for q in sorted(v.states):
        shape = "doublecircle" if q in v.finals else "circle"
        lines.append(f"  {_dot_quote(q)} [shape={shape}];")
    lines.append(f"  __start -> {_dot_quote(v.initial)};")
    if (sink := v.sink) is not None:
        lines.append(f"  comment={_dot_quote('every rule not drawn goes to ' + sink)};")
    calls, returns = explicit_rules(v)
    for (q, e), (q2, s) in sorted(calls.items()):
        label = f"call {e} / {s}"
        lines.append(f"  {_dot_quote(q)} -> {_dot_quote(q2)} [label={_dot_quote(label)}];")
    for (q, s, e), q2 in sorted(returns.items()):
        label = f"ret {e}, {s}"
        lines.append(
            f"  {_dot_quote(q)} -> {_dot_quote(q2)} [label={_dot_quote(label)}, style=dashed];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def lua_quote(s: str) -> str:
    """A Lua string literal: a backslash before each backslash and double
    quote, and each control character as the three-digit escapes of its
    UTF-8 bytes."""
    out = []
    for ch in s:
        if ch in '\\"':
            out.append("\\" + ch)
        elif unicodedata.category(ch) == "Cc":
            out += [f"\\{b:03d}" for b in ch.encode()]
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


SCRIPT_CALLBACKS = {
    True: """\
callback OnRequest() {
  local rule = on_request[state]
  if rule then state = rule[1]; local_stack = rule[2]
  elseif state == reject then local_stack = reject
  else state = reject; local_stack = reject; log_violation("no call transition")
  end
}
callback OnResponse() {
  local rules = on_response[state]
  local rule = rules and rules[local_stack]
  if rule then state = rule
  elseif state ~= reject then state = reject; log_violation("no return transition")
  end
}
""",
    False: """\
callback OnRequest() {
  local rule = on_request[state]
  if rule then state = rule[1]; local_stack = rule[2]
  else log_violation("no call transition")
  end
}
callback OnResponse() {
  local rules = on_response[state]
  local rule = rules and rules[local_stack]
  if rule then state = rule
  else log_violation("no return transition")
  end
}
""",
}  # keyed by whether the script names a reject state


def _lua_table(name: str, rows: list[str]) -> list[str]:
    if not rows:
        return [f"local {name} = {{}}"]
    return [f"local {name} = {{", *(f"  {r}," for r in rows[:-1]), f"  {rows[-1]}", "}"]


def reference_script(spec: monitor.FilterSpec, header: str) -> str:
    """The head comment, the reject state, the two lookup tables (response
    rules grouped by state, in sorted order) and the fixed callbacks."""
    q = lua_quote
    lines = [f"-- traffic filter for endpoint {q(spec.endpoint)} (header: {q(header)})"]
    if spec.reject is not None:
        lines.append(f"local reject = {q(spec.reject)}")
    requests = [f"[{q(state)}] = {{{q(dst)}, {q(push)}}}"
                for state, (dst, push) in sorted(spec.on_request.items())]
    by_state: dict[str, list[str]] = {}
    for (state, local), dst in sorted(spec.on_response.items()):
        by_state.setdefault(state, []).append(f"[{q(local)}] = {q(dst)}")
    responses = [f"[{q(state)}] = {{{', '.join(cells)}}}" for state, cells in by_state.items()]
    lines += _lua_table("on_request", requests) + _lua_table("on_response", responses)
    return "\n".join(lines) + "\n" + SCRIPT_CALLBACKS[spec.reject is not None]


_LUA_STRING = r'"(?:[^"\\\n]|\\.)*"'


def _lua_unquote(literal: str) -> str:
    """The string a literal ``lua_quote`` writes stands for, its escapes
    read as UTF-8 bytes (a lone surrogate passing through); any other
    escape is refused."""
    body, out, i = literal[1:-1], bytearray(), 0
    while i < len(body):
        if body[i] != "\\":
            out += body[i].encode("utf-8", "surrogatepass")
            i += 1
        elif body[i + 1] in '\\"':
            out += body[i + 1].encode()
            i += 2
        elif re.fullmatch("[0-9]{3}", body[i + 1:i + 4]) and int(body[i + 1:i + 4]) < 256:
            out.append(int(body[i + 1:i + 4]))
            i += 4
        else:
            raise ValueError(f"escape at {i} in {literal!r}")
    return out.decode("utf-8", "surrogatepass")


def read_script(text: str) -> tuple[monitor.FilterSpec, str]:
    """The filter spec and the header name a table-form sidecar script
    holds, read line by line; a line out of place, a repeated key or
    callbacks other than the fixed ones raise ``ValueError``."""
    lines = text.split("\n")
    s = _LUA_STRING
    head = re.fullmatch(rf"-- traffic filter for endpoint ({s}) \(header: ({s})\)", lines[0])
    if head is None:
        raise ValueError(f"head {lines[0]!r}")
    endpoint, header = map(_lua_unquote, head.groups())
    at, reject = 1, None
    if m := re.fullmatch(rf"local reject = ({s})", lines[at]):
        at, reject = at + 1, _lua_unquote(m[1])

    def table(name: str) -> list[str]:
        nonlocal at
        if lines[at] == f"local {name} = {{}}":
            at += 1
            return []
        if lines[at] != f"local {name} = {{":
            raise ValueError(f"line {at + 1}: {lines[at]!r}")
        end = lines.index("}", at)
        body = lines[at + 1:end]
        if not body or not all(line.startswith("  ") for line in body) \
                or not all(line.endswith(",") for line in body[:-1]) or body[-1].endswith(","):
            raise ValueError(f"table {name} at line {at + 1}")
        at = end + 1
        return [line[2:-1] for line in body[:-1]] + [body[-1][2:]]

    on_request, on_response = {}, {}
    for row in table("on_request"):
        m = re.fullmatch(rf"\[({s})\] = \{{({s}), ({s})\}}", row)
        if m is None or (state := _lua_unquote(m[1])) in on_request:
            raise ValueError(f"request row {row!r}")
        on_request[state] = _lua_unquote(m[2]), _lua_unquote(m[3])
    states = set()
    for row in table("on_response"):
        m = re.fullmatch(rf"\[({s})\] = \{{(.*)\}}", row)
        if m is None or (state := _lua_unquote(m[1])) in states:
            raise ValueError(f"response row {row!r}")
        states.add(state)
        cells = re.findall(rf"\[({s})\] = ({s})", m[2])
        if ", ".join(f"[{g}] = {dst}" for g, dst in cells) != m[2]:
            raise ValueError(f"response row {row!r}")
        for g, dst in cells:
            if (state, _lua_unquote(g)) in on_response:
                raise ValueError(f"response row {row!r}")
            on_response[state, _lua_unquote(g)] = _lua_unquote(dst)
    if "\n".join(lines[at:]) != SCRIPT_CALLBACKS[reject is not None]:
        raise ValueError("callbacks differ from the fixed ones")
    return monitor.FilterSpec(endpoint, on_request, on_response, reject), header
