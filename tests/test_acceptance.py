"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The soundness
differential is exhaustive over every rooted well-matched word with up to
six calls per corpus policy and dominates the runtime (a few minutes).
"""

import random

from treepolicy import compiler, mesh_sim, monitor, nested_word as nw, oracle
from treepolicy.corpus import corpus_documents
from treepolicy.policy import format_policy, parse_policy
from treepolicy.vpa import (
    BOTTOM,
    Configuration,
    accepts,
    check_well_formed,
    export_vpa,
    import_vpa,
    initial_configuration,
    run,
)

from conftest import payment_chain_vpa, random_rooted_word, two_state_vpa, word_from_str
from reference import read_script
from test_compiler import random_policy

EXHAUSTIVE_MAX_CALLS = 6
RANDOM_WORDS_PER_POLICY = 10_000
RANDOM_WORD_MAX_CALLS = 20
SEEDED_VIOLATING_WORKLOADS = 1_000


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {status}: {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def compiled_corpus(variant: str):
    out = {}
    for name, doc in corpus_documents(variant).items():
        out[name] = (doc, compiler.compile(doc))
    return out


def test_c1_soundness_differential():
    """Compiled-automaton acceptance equals the denotational verdict on
    every rooted well-matched word with <= 6 calls, for every corpus policy."""
    words_checked = 0
    mismatches = 0
    for name, (doc, artifacts) in compiled_corpus("small").items():
        for pol, art in zip(doc.policies, artifacts):
            for word in nw.enumerate_rooted(doc.alphabet, EXHAUSTIVE_MAX_CALLS):
                words_checked += 1
                want = oracle.sat_policy(word, pol, doc.alphabet)
                got = accepts(art.vpa, word)
                if want != got:
                    mismatches += 1
                    print(f"  mismatch [{name}]: {[(a.tag, a.endpoint) for a in word.symbols]}")
    report(
        "soundness differential (corpus, exhaustive <= 6 calls)",
        mismatches == 0,
        f"{words_checked} word/policy pairs, {mismatches} mismatches",
    )


def test_c2_distributed_equals_centralized():
    """Final configurations of the distributed and centralized runs are
    identical: exhaustively <= 6 calls, plus 10^4 random words per policy
    with <= 20 calls.  The distributed monitor is the one read back from
    the emitted filter JSON, so it steps a table of its own; the monitor
    read back from the emitted sidecar scripts has the same table."""
    mismatches = 0
    compared = 0
    scripts_differ = []
    rng = random.Random(20_24)
    for name, (doc, artifacts) in compiled_corpus("small").items():
        for art in artifacts:
            specs = monitor.emit_filters(monitor.extract_monitor(art.vpa))
            mon = monitor.monitor_from_filters(
                monitor.filter_spec_from_json(monitor.filter_spec_to_json(s)) for s in specs
            )
            assert mon.table is not art.vpa.table
            from_scripts = monitor.monitor_from_filters(
                read_script(monitor.render_filter_script(s))[0] for s in specs
            )
            if from_scripts.table != mon.table:
                scripts_differ.append(f"{name}/{art.policy_id}")
            init = initial_configuration(art.vpa)
            for word in nw.enumerate_rooted(doc.alphabet, EXHAUSTIVE_MAX_CALLS):
                compared += 1
                if run(art.vpa, word, init)[-1] != monitor.dist_run(mon, init, word):
                    mismatches += 1
            for _ in range(RANDOM_WORDS_PER_POLICY):
                word = random_rooted_word(rng, RANDOM_WORD_MAX_CALLS, doc.alphabet)
                compared += 1
                if run(art.vpa, word, init)[-1] != monitor.dist_run(mon, init, word):
                    mismatches += 1
    report(
        "distributed run equals centralized run",
        mismatches == 0 and not scripts_differ,
        f"{compared} runs compared, {mismatches} mismatches; "
        f"script tables differing from the JSON ones: {scripts_differ}",
    )


def test_c3_golden_runs():
    """The two-state automaton's documented run is reproduced exactly, and
    the hand-encoded chain automaton sorts the reference word from its
    mutants."""
    v2 = two_state_vpa()
    golden = run(v2, word_from_str("<Appt Appt>"))
    expected = [
        Configuration("q0", (BOTTOM,)),
        Configuration("q1", (BOTTOM, "q0")),
        Configuration("q0", (BOTTOM,)),
    ]
    chain = payment_chain_vpa()
    payment = word_from_str("<P <D <E E> D> <D <E E> D> P>")
    ok = (
        golden == expected
        and accepts(chain, payment)
        and not accepts(chain, word_from_str("<P <D <D D> D> P>"))
        and not accepts(chain, word_from_str("<P <E E> P>"))
    )
    report("golden runs (two-state run, chain accept/reject)", ok)


def test_c4_state_bound():
    """State counts stay within (k+1)^d * (R+5) for the corpus and for 100
    random policies of nesting depth <= 4."""
    failures = []
    for variant in ("small", "full"):
        for name, (doc, artifacts) in compiled_corpus(variant).items():
            for art in artifacts:
                if not compiler.check_state_bound(art):
                    failures.append(f"{name}/{variant}")
    rng = random.Random(4242)
    alphabet = ("A", "B", "C")
    for i in range(100):
        pol = random_policy(rng, alphabet, depth_budget=4)
        art = compiler.compile_policy(pol, alphabet, policy_id=f"rand{i}")
        if not compiler.check_state_bound(art):
            failures.append(f"random#{i}")
    report("complexity bound (corpus + 100 random policies)", not failures, str(failures))


def test_c5_header_compactness():
    """Every corpus policy over its fleet-scale alphabet fits the monitor
    state into at most 8 header bits."""
    worst = 0
    offenders = []
    for name, (doc, artifacts) in compiled_corpus("full").items():
        for art in artifacts:
            worst = max(worst, art.metrics.header_bits)
            if art.metrics.header_bits > 8:
                offenders.append((name, art.metrics.header_bits))
    report("header compactness (<= 8 bits, fleet-scale alphabets)", not offenders,
           f"worst {worst} bits")


def test_c6_well_formedness():
    """Every compiled automaton is deterministic and complete; no rooted
    well-matched input ever underflows the stack."""
    problems = []
    for variant in ("small", "full"):
        for name, (doc, artifacts) in compiled_corpus(variant).items():
            for art in artifacts:
                rep = check_well_formed(art.vpa)
                if not rep.ok:
                    problems.append((name, variant, rep.problems[:2]))
    # runs over every word up to 4 calls: StackUnderflow would raise here
    for name, (doc, artifacts) in compiled_corpus("small").items():
        for art in artifacts:
            for word in nw.enumerate_rooted(doc.alphabet, 4):
                run(art.vpa, word)
    report("well-formedness and underflow-freedom", not problems, str(problems))


def test_c7_simulator_scaling():
    """Monitor transitions per request equal exactly twice the node count on
    every depth 2-5 x fanout 1-4 topology, and four simultaneous policies
    multiply the per-request work by exactly four."""
    alpha = tuple("ABCDEF")
    one = compiler.compile(parse_policy("alphabet A, B, C, D, E, F;\nstart {A}: call-seq star;\n"))
    four = compiler.compile(parse_policy(
        "alphabet A, B, C, D, E, F;\n"
        "start {A}: call-seq star;\n"
        "start {B}: match (B) all-path (star);\n"
        "start star: call-seq star;\n"
        "start {C}: match (C) all-children (match (D) all-path (star));\n"
    ))
    bad = []
    sizes = []
    for depth in range(2, 6):
        for fanout in range(1, 5):
            topo = mesh_sim.generate_topology(depth, fanout, alpha)
            nodes = topo.node_count(topo.entrypoints[0])
            sizes.append(nodes)
            rep1 = mesh_sim.run_workload(topo, 2, one)
            rep4 = mesh_sim.run_workload(topo, 2, four)
            if dict(rep1.per_hop_ops) != {2 * nodes: 2}:
                bad.append(("one", depth, fanout))
            if dict(rep4.per_hop_ops) != {8 * nodes: 2}:
                bad.append(("four", depth, fanout))
    ok = not bad and min(sizes) == 3 and max(sizes) == 1365
    report("simulator work scaling (2 x nodes; x4 for 4 policies)", ok,
           f"nodes {min(sizes)}..{max(sizes)}")


def _random_layered_topology(rng: random.Random, services, force_bad: bool):
    """Random acyclic behavior over ordered services; optionally guarantee a
    reachable call to the forbidden endpoint (the last service)."""
    behavior = {}
    for i, svc in enumerate(services):
        later = services[i + 1 :]
        n_children = rng.randint(0, 2) if later else 0
        behavior[svc] = tuple(rng.choice(later) for _ in range(n_children))
    topo_try = dict(behavior)
    if force_bad:
        # splice the forbidden endpoint under a service reachable from the root
        reachable = []
        stack = [services[0]]
        while stack:
            svc = stack.pop()
            reachable.append(svc)
            stack.extend(topo_try[svc])
        host = rng.choice([s for s in reachable if s != services[-1]])
        children = list(topo_try[host])
        children.insert(rng.randint(0, len(children)), services[-1])
        topo_try[host] = tuple(children)
    return mesh_sim.Topology(tuple(services), topo_try, (services[0],))


def test_c8_early_block_soundness():
    """On seeded violating workloads every blocked request's hypothetical
    completion is rejected centrally, and no accepted request is blocked."""
    services = ("Root", "Mid", "Leaf", "Aux", "Bad")
    doc = parse_policy(
        "alphabet Root, Mid, Leaf, Aux, Bad;\n"
        "start {Root}: call-seq Root (!Bad)*;\n"
    )
    art = compiler.compile(doc)[0]
    pf = mesh_sim.build_filter_set(art)
    rng = random.Random(88)
    blocked_count = 0
    unsound = []
    for i in range(SEEDED_VIOLATING_WORKLOADS):
        topo = _random_layered_topology(rng, services, force_bad=True)
        res = mesh_sim.execute_request(topo, "Root", [pf], mode=mesh_sim.MODE_EARLY_BLOCK)
        out = res.outcomes[art.policy_id]
        if out.kind != "blocked":
            unsound.append(f"#{i}: violating workload not blocked ({out.kind})")
            continue
        blocked_count += 1
        full = mesh_sim.execute_request(topo, "Root", [pf], mode=mesh_sim.MODE_LOG)
        if accepts(art.vpa, full.word):
            unsound.append(f"#{i}: blocked a word the automaton accepts")
    # complement: accepting workloads must never block
    for i in range(200):
        topo = _random_layered_topology(rng, services[:-1] + ("Bad",), force_bad=False)
        res = mesh_sim.execute_request(topo, "Root", [pf], mode=mesh_sim.MODE_EARLY_BLOCK)
        out = res.outcomes[art.policy_id]
        central = accepts(
            art.vpa, mesh_sim.execute_request(topo, "Root", [pf], mode=mesh_sim.MODE_LOG).word
        )
        if central and out.kind == "blocked":
            unsound.append(f"accepting workload #{i} was blocked")
    report(
        "early-block soundness (seeded workloads)",
        not unsound,
        f"{blocked_count} blocked, {len(unsound)} unsound",
    )


def test_c9_round_trips():
    """Automaton JSON, policy pretty-printing, and trace serialization all
    round-trip losslessly across the corpus."""
    bad = []
    for variant in ("small", "full"):
        for name, (doc, artifacts) in compiled_corpus(variant).items():
            if parse_policy(format_policy(doc)) != doc:
                bad.append(f"policy {name}/{variant}")
            for art in artifacts:
                if import_vpa(export_vpa(art.vpa, "json")) != art.vpa:
                    bad.append(f"vpa {name}/{variant}")
    for name, doc in corpus_documents("small").items():
        for word in nw.enumerate_rooted(doc.alphabet, 3):
            if nw.build_nested_word(nw.parse_trace(nw.serialize_trace(word))) != word:
                bad.append(f"trace {name}")
                break
    report("round trips (automata, policies, traces)", not bad, str(bad))
