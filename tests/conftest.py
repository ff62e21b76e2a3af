"""Shared helpers: reference words, hand-built automata, random trees."""

from __future__ import annotations

import gc
import random
import time

import pytest

from treepolicy import compiler, nested_word as nw, regex as rx
from treepolicy.errors import StackUnderflow
from treepolicy.policy import Policy, start_anchor_regex
from treepolicy.vpa import BOTTOM, Vpa, link


def events_from_str(text: str) -> list[nw.TaggedSymbol]:
    """Compact trace notation: "<P <D D> P>" means call P, call D, ret D, ret P."""
    events = []
    for token in text.split():
        if token.startswith("<"):
            events.append(nw.call(token[1:]))
        elif token.endswith(">"):
            events.append(nw.ret(token[:-1]))
        else:
            raise ValueError(f"bad token {token!r}")
    return events


def word_from_str(text: str) -> nw.NestedWord:
    return nw.build_nested_word(events_from_str(text))


@pytest.fixture
def payment_word() -> nw.NestedWord:
    """P calls D twice; each D calls E once. Ten symbols, five matched pairs."""
    return word_from_str("<P <D <E E> D> <D <E E> D> P>")


def complete_with_sink(states, initial, finals, alphabet, stack_alphabet,
                       delta_call, delta_return, sink: str = "sink") -> Vpa:
    """The automaton of the given rules, with every missing transition
    filled through an explicit non-final sink state.

    Hand-drawn automata usually omit reject transitions; this restores the
    deterministic-and-complete form the rest of the toolkit assumes.
    """
    states = set(states) | {sink}
    stack_alphabet = set(stack_alphabet) | {BOTTOM, sink}
    delta_call = dict(delta_call)
    delta_return = dict(delta_return)
    for q in states:
        for e in alphabet:
            delta_call.setdefault((q, e), (sink, sink))
    for q in states:
        for s in stack_alphabet:
            for e in alphabet:
                delta_return.setdefault((q, s, e), sink)
    return Vpa.from_rules(states, initial, finals, alphabet, stack_alphabet,
                          delta_call, delta_return)


def wide_policy_text(n: int = 3000) -> str:
    """``call-seq star`` over ``n`` names: its symbol sets are that wide."""
    names = ["S0"] + [f"N{i}" for i in range(n - 1)]
    return f"alphabet {', '.join(names)};\nstart {{S0}}: call-seq star;\n"


def raw_automaton(pol: Policy, alphabet) -> Vpa:
    """The automaton ``compile_policy`` builds before its prune pass: the
    inner automaton anchored at the start set by ``compile_start``."""
    alpha = tuple(alphabet)
    inner, _ = compiler.compile_inner(pol.inner, alpha)
    return compiler.compile_start(rx.to_dfa(start_anchor_regex(pol.start_set), alpha), inner)


def two_state_vpa() -> Vpa:
    """Hand-built two-state automaton over one endpoint: q0 --call Appt/q0--> q1,
    q1 --ret Appt, q0--> q0; q0 initial and final.  Sink-completed."""
    return complete_with_sink(
        states=frozenset({"q0", "q1"}),
        initial="q0",
        finals=frozenset({"q0"}),
        alphabet=("Appt",),
        stack_alphabet=frozenset({BOTTOM, "q0"}),
        delta_call={("q0", "Appt"): ("q1", "q0")},
        delta_return={("q1", "q0", "Appt"): "q0"},
    )


def payment_chain_vpa() -> Vpa:
    """Hand-built chain automaton: start --call P/q_P--> q_P --call D/q_D--> q_D
    --call E/q_DL--> q_DL, with the matching pops walking back.  Start is both
    initial and final.  Sink-completed."""
    return complete_with_sink(
        states=frozenset({"start", "q_P", "q_D", "q_DL"}),
        initial="start",
        finals=frozenset({"start"}),
        alphabet=("P", "D", "E"),
        stack_alphabet=frozenset({BOTTOM, "q_P", "q_D", "q_DL"}),
        delta_call={
            ("start", "P"): ("q_P", "q_P"),
            ("q_P", "D"): ("q_D", "q_D"),
            ("q_D", "E"): ("q_DL", "q_DL"),
        },
        delta_return={
            ("q_DL", "q_DL", "E"): "q_D",
            ("q_D", "q_D", "D"): "q_P",
            ("q_P", "q_P", "P"): "start",
        },
    )


def random_tree(rng: random.Random, n_calls: int, alphabet: tuple[str, ...]):
    """A labeled ordered tree with exactly n_calls nodes (not uniform, fine
    for coverage)."""
    label = rng.choice(alphabet)
    if n_calls == 1:
        return (label, ())
    remaining = n_calls - 1
    sizes = []
    while remaining > 0:
        k = rng.randint(1, remaining)
        sizes.append(k)
        remaining -= k
    return (label, tuple(random_tree(rng, k, alphabet) for k in sizes))


def random_rooted_word(rng: random.Random, max_calls: int, alphabet: tuple[str, ...]) -> nw.NestedWord:
    tree = random_tree(rng, rng.randint(1, max_calls), alphabet)
    return nw.build_nested_word(nw.tree_to_events(tree))


def chain_word(depth: int, alphabet, seed: int = 0, closed: bool = True) -> nw.NestedWord:
    """``depth`` nested calls with seeded labels, closed by their returns."""
    rng = random.Random(seed)
    labels = [rng.choice(alphabet) for _ in range(depth)]
    events = [nw.call(x) for x in labels]
    if closed:
        events += [nw.ret(x) for x in reversed(labels)]
    return nw.build_nested_word(events)


def cpu_per_symbol(fn, word: nw.NestedWord, repeats: int) -> float:
    """The least thread CPU time per symbol of ``fn(word)`` over the repeats.

    The garbage collector is paused while timing: a full collection walks
    every object the test process holds, so one landing in a single run
    would charge it for the heap that other tests left behind.
    """
    best = float("inf")
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.thread_time()
            fn(word)
            best = min(best, time.thread_time() - t0)
    finally:
        if collecting:
            gc.enable()
    return best / len(word)


# -- reference steppers ---------------------------------------------------------
#
# The runs step an integer table by id; these look each rule up by name,
# through the automaton's ``delta_*`` views or a filter spec's rules, one
# configuration object per symbol, as the reference model.


def reference_configurations(v: Vpa, c, symbols):
    """The configuration after each tagged symbol, starting from ``c``,
    looked up by name in ``delta_call``/``delta_return``."""
    q, top, below = c.state, c.top, c.below
    for a in symbols:
        if a.tag == nw.CALL:
            below = c
            q, top = v.delta_call[(q, a.endpoint)]
        elif below is None:
            raise StackUnderflow(f"return from {a.endpoint!r} with empty stack in state {q!r}")
        else:
            q = v.delta_return[(q, top, a.endpoint)]
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


def reference_reached_cells(v: Vpa) -> tuple[set, set]:
    """The call cells ``(state, endpoint)`` and return cells ``(state,
    popped, endpoint)`` a rooted word can read, by name and by repeated
    sweeps to a fixpoint.  ``W[q0]`` holds the states reachable from ``q0``
    over complete child subtrees; a sweep grows every ``W[q0]`` by one
    more subtree from each of its states, for every endpoint, and the
    sweeps stop when one adds nothing."""
    alphabet = v.alphabet
    W = {v.delta_call[(v.initial, e)][0]: set() for e in alphabet}
    changed = True
    while changed:
        changed = False
        for q0 in list(W):
            if q0 not in W[q0]:
                W[q0].add(q0)
                changed = True
            for q1 in list(W[q0]):
                for e in alphabet:
                    q, g = v.delta_call[(q1, e)]
                    if q not in W:
                        W[q] = set()
                        changed = True
                    for q2 in list(W[q]):
                        if (after := v.delta_return[(q2, g, e)]) not in W[q0]:
                            W[q0].add(after)
                            changed = True
    sources = {v.initial}.union(*W.values())
    calls = {(p, e) for p in sources for e in alphabet}
    returns = {(q1, g, e) for p, e in calls for q0, g in (v.delta_call[(p, e)],) for q1 in W[q0]}
    return calls, returns


def reference_filter_rules(v: Vpa, sink) -> tuple[dict, dict]:
    """The call and return rules a compiled automaton's artifacts list:
    those at the cells a rooted word can read other than the sink's."""
    calls, returns = reference_reached_cells(v)
    return ({k: v.delta_call[k] for k in calls if v.delta_call[k] != (sink, sink)},
            {k: v.delta_return[k] for k in returns if v.delta_return[k] != sink})
