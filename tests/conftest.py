"""Shared helpers: fixture words, hand-built automata, random trees.  The
reference definitions the tests compare against are in ``reference.py``."""

from __future__ import annotations

import gc
import importlib
import random
import sys
import time
from pathlib import Path

import pytest

from treepolicy import compiler, nested_word as nw, regex as rx
from treepolicy.policy import Policy, start_anchor_regex
from treepolicy.vpa import BOTTOM, Vpa

from reference import dense_automaton, tree_to_events

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str):
    """A module of the benchmark in ``perfbench/``, imported without
    writing bytecode there."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))


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
    going to an explicit non-final sink state, its declared reject state.

    Hand-drawn automata usually omit reject transitions; this restores the
    deterministic-and-complete form the rest of the toolkit assumes.
    """
    return Vpa.from_rules(set(states) | {sink}, initial, finals, alphabet,
                          set(stack_alphabet) | {BOTTOM, sink}, delta_call, delta_return, sink)


def wide_policy_text(n: int = 3000) -> str:
    """``call-seq star`` over ``n`` names: its symbol sets are that wide."""
    names = ["S0"] + [f"N{i}" for i in range(n - 1)]
    return f"alphabet {', '.join(names)};\nstart {{S0}}: call-seq star;\n"


def raw_construction(pol: Policy, alphabet) -> compiler.Construction:
    """The construction ``compile_policy`` builds from, over every name:
    the inner construction anchored at the start set by ``compiler.StartConstruction``."""
    alpha = tuple(alphabet)
    inner, _ = compiler.compile_inner(pol.inner, alpha)
    return compiler.StartConstruction(rx.to_dfa(start_anchor_regex(pol.start_set), alpha), inner)


def raw_automaton(pol: Policy, alphabet) -> Vpa:
    """Every declared cell of ``raw_construction``, evaluated."""
    return dense_automaton(raw_construction(pol, alphabet))


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
    return nw.build_nested_word(tree_to_events(tree))


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
