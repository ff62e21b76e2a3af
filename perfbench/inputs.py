"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of its seed.  The program under test
only ever sees the generated texts (policy documents, JSONL traces,
topologies).  The generators use the program only for its data types:
topology objects, trace events and their JSONL serialization, and nested
words for the checks.

Policy sets are varied by *relabeling*: the endpoint names of each policy
body are permuted among the document's alphabet.  A relabeled policy has an
isomorphic automaton, so its work and its artifact sizes are the same as the
original's while its text, regexes and DFAs are new.  This keeps every
figure steady across seeds and keeps a cache keyed on policy text from
turning repeated rounds into lookups.
"""

from __future__ import annotations

import hashlib
import random
import re

from treepolicy import corpus, mesh_sim
from treepolicy import nested_word as nw

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Synthetic policies of nesting depth 2-3 over the full alphabet.  Slots
# A-D are filled with distinct endpoint names chosen by the seed.  There are
# sixteen so that a compile round (9 corpus + 16) holds 25 operations: the
# median and the 90th percentile then fall mid-way into a latency group
# rather than on the edge between two.
SYNTHETIC_TEMPLATES = (
    "start {A}: call-seq A (!B)*;",
    "start {A, B}: call-seq (!{C, D})*;",
    "start {A}: call-seq A ((B + C) D)* star;",
    "start star: call-seq (!A)* (A (!B)*)*;",
    "start {A}: match (A) all-path (star B);",
    "start star: match (any) all-path ((!A)* (A + eps));",
    "start {A}: match (A B) all-path ((C D + !C) star);",
    "start {A, C}: match (any) all-path ((!{B, D})*);",
    "start {A}: match (A) all-children (match (star B) all-path (star));",
    "start {A, B}: match (any) exists-child (match (C) all-path (eps));",
    "start {A}: match (A) exists-child (match ((!B)* C) all-path (star D));",
    "start {A, B}: match (any) all-children (match (C) all-path ((!D)*));",
    "start {A}: match (A star B) exists-child (match (star C) all-path (star));",
    "start star: match (A) all-children (match (any) all-path (B + eps));",
    "start {A}: match (A) exists-child (match (B) all-path (C*));",
    "start {B}: match (B any) all-children (match (star A) all-path (C star));",
)

SLOTS = ("A", "B", "C", "D")


def split_document(text: str) -> tuple[str, tuple[str, ...], str]:
    """(alphabet line, alphabet, policy lines) of a policy document."""
    head, body = text.split("\n", 1)
    names = tuple(n.strip() for n in head[len("alphabet "):].rstrip(";").split(","))
    return head, names, body


def _rename(body: str, mapping: dict[str, str]) -> str:
    return _NAME.sub(lambda m: mapping.get(m.group(0), m.group(0)), body)


def relabel(text: str, rng: random.Random) -> str:
    """The document with its policy bodies' endpoint names permuted."""
    head, names, body = split_document(text)
    perm = list(names)
    rng.shuffle(perm)
    return head + "\n" + _rename(body, dict(zip(names, perm)))


def full_alphabet() -> tuple[str, ...]:
    return tuple(n.strip() for n in corpus.FULL_ALPHABET.split(","))


def synthetic_policies(rng: random.Random) -> list[tuple[str, str]]:
    """(name, document text) for every template, slots filled from the seed."""
    alpha = full_alphabet()
    head = "alphabet " + ", ".join(alpha) + ";"
    out = []
    for i, template in enumerate(SYNTHETIC_TEMPLATES):
        mapping = dict(zip(SLOTS, rng.sample(alpha, len(SLOTS))))
        out.append((f"synthetic-{i:02d}", head + "\n" + _rename(template, mapping) + "\n"))
    return out


def compile_set(seed: int) -> list[tuple[str, str]]:
    """The compile-corpus policy set: nine full-corpus documents plus the
    synthetic sweep."""
    rng = random.Random(f"compile-set/{seed}")
    docs = [(e.name, e.full) for e in corpus.CORPUS]
    return docs + synthetic_policies(rng)


def union_document() -> str:
    """The nine full-corpus policies in one document over the union of
    their alphabets, so that one trace or topology can be checked against
    all of them."""
    names: list[str] = []
    bodies = []
    for e in corpus.CORPUS:
        _head, alpha, body = split_document(e.full)
        names.extend(n for n in alpha if n not in names)
        bodies.append(body)
    return "alphabet " + ", ".join(names) + ";\n" + "".join(bodies)


def union_alphabet() -> tuple[str, ...]:
    return split_document(union_document())[1]


# -- traces -------------------------------------------------------------------


def random_tree_events(rng: random.Random, n_calls: int, alphabet) -> list[nw.TaggedSymbol]:
    """A random recursive tree with exactly ``n_calls`` nodes: node i hangs
    under a uniformly chosen earlier node, so depth grows like log n and
    fan-out varies.  Labels are uniform over the alphabet."""
    labels = [rng.choice(alphabet) for _ in range(n_calls)]
    children: list[list[int]] = [[] for _ in range(n_calls)]
    for i in range(1, n_calls):
        children[rng.randrange(i)].append(i)
    events = []
    stack = [(0, False)]
    while stack:
        node, closing = stack.pop()
        if closing:
            events.append(nw.ret(labels[node]))
            continue
        events.append(nw.call(labels[node]))
        stack.append((node, True))
        stack.extend((c, False) for c in reversed(children[node]))
    return events


def chain_events(depth: int, variant: int, alphabet) -> list[nw.TaggedSymbol]:
    """A chain of ``depth`` nested calls with seeded labels.  Its seed is
    the pair (depth, variant), not the run's seed, so its oracle verdicts
    can be stored (see deep_verdicts.json)."""
    rng = random.Random(f"deep-chain/{depth}/{variant}")
    labels = [rng.choice(alphabet) for _ in range(depth)]
    return [nw.call(x) for x in labels] + [nw.ret(x) for x in reversed(labels)]


# Shallow trees and deep chains of one check-traces round.  19 + 6 = 25
# operations: the median sits two-thirds into the shallow group and the
# 90th percentile just past the middle of the deep group.
SHALLOW_CALLS = tuple(20 + round(i * 280 / 18) for i in range(19))
DEEP_DEPTHS = (250, 350, 450, 600, 750, 900)
DEEP_VARIANTS = 3


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_traces(seed: int) -> list[dict]:
    """One round of traces: the generated events and their JSONL text."""
    rng = random.Random(f"check-traces/{seed}")
    alpha = union_alphabet()
    traces = []
    for n in SHALLOW_CALLS:
        events = random_tree_events(rng, n, alpha)
        traces.append({"kind": "shallow", "text": nw.serialize_trace(events), "events": events})
    for depth in DEEP_DEPTHS:
        variant = rng.randrange(DEEP_VARIANTS)
        events = chain_events(depth, variant, alpha)
        traces.append({"kind": "deep", "text": nw.serialize_trace(events), "events": events,
                       "depth": depth, "variant": variant})
    rng.shuffle(traces)
    return traces


# -- topologies ---------------------------------------------------------------

# One mesh-sim round runs every topology once in log mode and once in early
# block mode.  Unrolled request sizes are spaced evenly so that latencies
# form a continuum rather than a few groups.
TOPOLOGY_NODES = tuple(20 + 10 * i for i in range(18))

# Call-sequence policies of the corpus, as (start endpoint, forbidden
# endpoint).  Start endpoints appear only where a topology plants a
# violation, so exactly the planted requests are blocked.
CALLSEQ_VIOLATIONS = (("Beta", "DbV1"), ("TestV2", "ObfV1"), ("TestV2", "LabV1"), ("FrontEU", "Db"))
CALLSEQ_STARTS = frozenset(start for start, _bad in CALLSEQ_VIOLATIONS)


def _unrolled(behavior: dict, svc: str, memo: dict) -> int:
    if svc not in memo:
        memo[svc] = 1 + sum(_unrolled(behavior, c, memo) for c in behavior[svc])
    return memo[svc]


def random_topology(rng: random.Random, n_nodes: int, alphabet, violation=None) -> mesh_sim.Topology:
    """An acyclic call script over a seeded ordering of the services whose
    request unrolls to exactly ``n_nodes`` nodes.

    Each service but the first calls one to three later services.  The root
    (first in the ordering) is then given children until the unrolled size
    is exact, topping up with calls to the last service, a leaf.  With a
    ``violation`` (start, forbidden), the forbidden endpoint is that leaf,
    and the root's first child is the start endpoint calling it: early block
    stops the request at its third node, and in log mode it violates.
    """
    order = [s for s in alphabet if s not in CALLSEQ_STARTS]
    rng.shuffle(order)
    if violation:
        start, bad = violation
        order.remove(bad)
        order.append(bad)
    behavior: dict[str, tuple[str, ...]] = {order[-1]: ()}
    for i in range(len(order) - 2, 0, -1):
        behavior[order[i]] = tuple(rng.choice(order[i + 1:]) for _ in range(rng.randint(1, 3)))
    root, leaf = order[0], order[-1]
    services = list(order)
    budget = n_nodes - 1
    if violation:
        behavior[start] = (bad,)
        services.append(start)
        budget -= 2
    memo: dict[str, int] = {}
    kids: list[str] = []
    for _ in range(4 * len(order)):
        fitting = [c for c in order[1:] if 1 < _unrolled(behavior, c, memo) <= budget]
        if not fitting:
            break
        child = rng.choice(fitting)
        kids.insert(rng.randrange(len(kids) + 1), child)
        budget -= _unrolled(behavior, child, memo)
    kids.extend([leaf] * budget)
    if violation:
        kids.insert(0, start)
    behavior[root] = tuple(kids)
    topo = mesh_sim.Topology(tuple(services), behavior, (root,))
    assert topo.node_count(root) == n_nodes
    return topo


def mesh_topologies(seed: int) -> list[mesh_sim.Topology]:
    """Every other topology plants a call-sequence violation."""
    rng = random.Random(f"mesh-sim/{seed}")
    alpha = union_alphabet()
    topos = [random_topology(rng, n, alpha, rng.choice(CALLSEQ_VIOLATIONS) if i % 2 else None)
             for i, n in enumerate(TOPOLOGY_NODES)]
    rng.shuffle(topos)
    return topos


def random_word(rng: random.Random, max_calls: int, alphabet) -> nw.NestedWord:
    return nw.build_nested_word(random_tree_events(rng, rng.randint(3, max_calls), alphabet))
