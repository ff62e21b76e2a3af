"""Topology generation, monitored execution, workload accounting, blocking."""

import dataclasses
import gc
import json
import random
import re
import tracemalloc
from collections import Counter

import pytest

from treepolicy import compiler, mesh_sim, oracle
from treepolicy.corpus import CORPUS
from treepolicy.errors import ConfigError
from treepolicy.nested_word import build_nested_word
from treepolicy.policy import parse_policy
from treepolicy.vpa import accepts, final_configuration, run

from reference import reference_request

HOSPITAL = mesh_sim.Topology(
    ("F", "P", "D", "E"),
    {"F": ("P",), "P": ("D", "D"), "D": ("E",), "E": ()},
    ("F",),
)

LOGGING_POLICY = "alphabet F, P, D, E;\nstart {P}: match (P) all-path ((D E star) + (!D)*);\n"


def artifacts_for(text):
    return compiler.compile(parse_policy(text))


def chain_topology(n):
    names = tuple(f"S{i}" for i in range(n))
    behavior = {a: (b,) for a, b in zip(names, names[1:])}
    behavior[names[-1]] = ()
    return mesh_sim.Topology(names, behavior, (names[0],))


@pytest.fixture(scope="module")
def union_corpus():
    """The nine full-corpus policies compiled over the union of their
    alphabets, so every policy monitors every service."""
    docs = [parse_policy(e.full) for e in CORPUS]
    policies = [pol for doc in docs for pol in doc.policies]
    alphabet = tuple(dict.fromkeys(x for doc in docs for x in doc.alphabet))
    arts = [compiler.compile_policy(p, alphabet, policy_id=f"pol{i}") for i, p in enumerate(policies)]
    return alphabet, arts


def random_topology(rng, services, max_nodes=300):
    """An acyclic call script over a shuffled service order, rooted at the
    first service, whose request unrolls to at most ``max_nodes`` nodes."""
    while True:
        order = list(services)
        rng.shuffle(order)
        behavior = {}
        for i, svc in enumerate(order):
            later = order[i + 1 : i + 6]
            n = rng.randint(2, 4) if i == 0 else rng.choice((0, 1, 1, 2, 3))
            behavior[svc] = tuple(rng.choice(later) for _ in range(n if later else 0))
        topo = mesh_sim.Topology(tuple(order), behavior, (order[0],))
        if topo.node_count(order[0]) <= max_nodes:
            return topo


def unrolled_counts(topo, root):
    """How often each service occurs in the tree a request to ``root``
    unrolls to, by walking that tree."""
    counts = Counter()
    todo = [root]
    while todo:
        svc = todo.pop()
        counts[svc] += 1
        todo.extend(topo.children(svc))
    return counts


def assert_matches_reference(topo, root, filters):
    for mode in (mesh_sim.MODE_LOG, mesh_sim.MODE_EARLY_BLOCK):
        res = mesh_sim.execute_request(topo, root, filters, mode=mode)
        ref = reference_request(topo, root, filters, mode)
        assert res.word.coding[1] == ref.codes, mode
        assert list(res.word.matching.partner) == ref.partner, mode
        assert res.outcomes == ref.outcomes, mode
        assert res.transitions == ref.transitions, mode


class CountingRow(tuple):
    """A row that counts its reads under its ``key``."""

    def __getitem__(self, i):
        self.reads[self.key] += 1
        return tuple.__getitem__(self, i)


def counting_hops(pf, services, reads):
    """``pf`` with a counting hop row, and counting response rows in its
    cells, of its own for each service, keyed by direction, policy and
    service."""

    def counting(key, row):
        row = CountingRow(row)
        row.key, row.reads = key, reads
        return row

    hops = {}
    for svc in services:
        response = ("response", pf.policy_id, svc)
        cells = [None if c is None else (c[0], counting(response, c[1]), c[2])
                 for c in pf.hops[svc]]
        hops[svc] = counting(("request", pf.policy_id, svc), cells)
    pf = dataclasses.replace(pf)
    object.__setattr__(pf, "hops", hops)  # as PolicyFilterSet.__post_init__ sets it
    return pf


class TestTopology:
    def test_node_counts(self):
        alpha = tuple("ABCDEF")
        assert mesh_sim.generate_topology(5, 4, alpha).node_count("A") == 1365
        assert mesh_sim.generate_topology(2, 1, alpha).node_count("A") == 3
        assert mesh_sim.generate_topology(4, 2, alpha).node_count("A") == 31
        assert HOSPITAL.node_count("D") == 2
        with pytest.raises(KeyError):
            HOSPITAL.node_count("Z")
        # the counts are not a field, so equality and repr ignore them
        fields = [f.name for f in dataclasses.fields(HOSPITAL)]
        assert fields == ["services", "behavior", "entrypoints"]

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            mesh_sim.generate_topology(1, 2, ("A", "B"))
        with pytest.raises(ValueError):
            mesh_sim.generate_topology(3, 5, ("A", "B", "C", "D"))

    def test_cycle_rejected(self):
        with pytest.raises(ConfigError):
            mesh_sim.Topology(("A", "B"), {"A": ("B",), "B": ("A",)}, ("A",))

    def test_unknown_child_rejected(self):
        with pytest.raises(ConfigError):
            mesh_sim.Topology(("A",), {"A": ("B",)}, ("A",))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match=r"services listed twice: \['A'\]"):
            mesh_sim.Topology(("A", "B", "A"), {"A": ("B",)}, ("A",))
        with pytest.raises(ConfigError, match=r"entrypoints listed twice: \['B'\]"):
            mesh_sim.Topology(("A", "B"), {"A": ("B",)}, ("B", "A", "B"))
        doc = json.loads(mesh_sim.topology_to_json(HOSPITAL))
        doc["services"].append("F")
        with pytest.raises(ConfigError, match="listed twice"):
            mesh_sim.topology_from_json(json.dumps(doc))

    def test_revisited_services(self):
        # a service is memoized when some request reaches it more than once
        rng = random.Random(7)
        services = tuple("ABCDEFGHIJ")
        for _ in range(200):
            topo = random_topology(rng, services)
            roots = (topo.entrypoints[0], *rng.sample(topo.services[1:], rng.randint(0, 3)))
            topo = mesh_sim.Topology(topo.services, topo.behavior, roots)
            want = {svc for root in roots
                    for svc, n in unrolled_counts(topo, root).items() if n > 1}
            assert mesh_sim._revisited(topo) == want
        # two callers, one reached from each entrypoint: no request repeats D
        topo = mesh_sim.Topology(("B", "C", "D"), {"B": ("D",), "C": ("D",)}, ("B", "C"))
        assert mesh_sim._revisited(topo) == set()
        topo = mesh_sim.Topology(("A", "B", "C", "D"), {"A": ("B", "C"), "B": ("D",), "C": ("D",)},
                                 ("B", "C"))
        assert mesh_sim._revisited(topo) == set()
        topo = dataclasses.replace(topo, entrypoints=("A",))
        assert mesh_sim._revisited(topo) == {"D"}
        assert mesh_sim._revisited(chain_topology(20_000)) == set()

    def test_json_round_trip(self):
        text = mesh_sim.topology_to_json(HOSPITAL)
        assert mesh_sim.topology_from_json(text) == HOSPITAL

    def test_behavior_edits_after_construction_change_nothing(self):
        behavior = {"F": ("P",), "P": ["D", "D"], "D": ("E",), "E": ()}
        topo = mesh_sim.Topology(HOSPITAL.services, behavior, HOSPITAL.entrypoints)
        behavior["P"].append("D")
        behavior["D"] = ()
        assert topo == HOSPITAL and topo.node_count("F") == 6
        filters = [mesh_sim.build_filter_set(artifacts_for(LOGGING_POLICY)[0])]
        res = mesh_sim.execute_request(topo, "F", filters)
        calls = tuple(a.endpoint for a in res.word.symbols if a.is_call)
        assert calls == ("F", "P", "D", "E", "D", "E")
        assert res.outcomes["pol0"].kind == "accept"
        with pytest.raises(TypeError):
            topo.behavior["E"] = ("F",)

    def test_deep_chain_checks_and_counts(self):
        topo = chain_topology(20_000)
        assert topo.node_count("S0") == 20_000
        with pytest.raises(ConfigError, match="cycle through 'S0'"):
            mesh_sim.Topology(topo.services, {**topo.behavior, "S19999": ("S0",)}, ("S0",))


class TestExecuteRequest:
    def test_hospital_accepts(self):
        arts = artifacts_for(LOGGING_POLICY)
        res = mesh_sim.execute_request(HOSPITAL, "F", [mesh_sim.build_filter_set(arts[0])])
        assert res.outcomes["pol0"].kind == "accept"
        assert res.word.is_rooted()

    def test_removed_calls_violate(self):
        arts = artifacts_for(LOGGING_POLICY)
        broken = mesh_sim.Topology(
            ("F", "P", "D", "E"), {"F": ("P",), "P": ("D", "D"), "D": (), "E": ()}, ("F",)
        )
        res = mesh_sim.execute_request(broken, "F", [mesh_sim.build_filter_set(arts[0])])
        assert res.outcomes["pol0"].kind == "violation"
        doc = parse_policy(LOGGING_POLICY)
        assert not oracle.sat_policy(res.word, doc.policies[0], doc.alphabet)

    def test_early_block_stops_subtree(self):
        arts = artifacts_for("alphabet Beta, DbV1, DbV2;\nstart {Beta}: call-seq Beta (!DbV1)*;\n")
        topo = mesh_sim.Topology(
            ("Beta", "DbV1", "DbV2"),
            {"Beta": ("DbV2", "DbV1", "DbV2"), "DbV1": (), "DbV2": ()},
            ("Beta",),
        )
        pf = mesh_sim.build_filter_set(arts[0])
        res = mesh_sim.execute_request(topo, "Beta", [pf], mode=mesh_sim.MODE_EARLY_BLOCK)
        out = res.outcomes["pol0"]
        assert out.kind == "blocked"
        assert out.position == 3  # the DbV1 call, third in call order
        # the trailing sibling never executed and the word stays rooted
        calls = tuple(a.endpoint for a in res.word.symbols if a.is_call)
        assert calls == ("Beta", "DbV2", "DbV1")
        assert res.word.is_rooted()
        # hypothetical completion is rejected by the centralized automaton
        full = mesh_sim.execute_request(topo, "Beta", [pf], mode=mesh_sim.MODE_LOG)
        assert not accepts(arts[0].vpa, full.word)

    def test_missing_service_filter_rejected(self):
        pf = mesh_sim.build_filter_set(artifacts_for(LOGGING_POLICY)[0])
        request = {svc: row for svc, row in pf.table.request.items() if svc != "D"}
        table = pf.table._replace(request=request)
        with pytest.raises(ConfigError, match=r"policy pol0 lacks filters for \['D'\]"):
            mesh_sim.execute_request(HOSPITAL, "F", [dataclasses.replace(pf, table=table)])

    def test_missing_rule_rejected(self):
        art = artifacts_for(LOGGING_POLICY)[0]
        pf = mesh_sim.build_filter_set(art)
        word = mesh_sim.execute_request(HOSPITAL, "F", [pf]).word
        # the state before the first E call, the fourth symbol; E is a leaf,
        # so its return comes next
        before = run(art.vpa, word)[3].state
        t = pf.table
        assert t is art.vpa.table
        h = t.state_id[before]
        then, pushed = t.request["E"][h]

        request = list(t.request["E"])
        request[h] = None
        table = t._replace(request={**t.request, "E": tuple(request)})
        message = f"policy pol0: no on_request rule at 'E' for state '{before}'"
        with pytest.raises(ConfigError, match=re.escape(message)):
            mesh_sim.execute_request(HOSPITAL, "F", [dataclasses.replace(pf, table=table)])

        response = [list(r) for r in t.response["E"]]
        response[pushed][then] = None
        table = t._replace(response={**t.response, "E": tuple(map(tuple, response))})
        message = (
            f"policy pol0: no on_response rule at 'E' for state '{t.states[then]}' "
            f"/ local '{t.symbols[pushed]}'"
        )
        with pytest.raises(ConfigError, match=re.escape(message)):
            mesh_sim.execute_request(HOSPITAL, "F", [dataclasses.replace(pf, table=table)])

    def test_hop_agrees_with_central_run(self, union_corpus):
        # every policy's monitored outcome against the central automaton on
        # the word the request emitted, in both modes
        alphabet, arts = union_corpus
        filters = [mesh_sim.build_filter_set(a) for a in arts]
        # one hop row per endpoint class (31 in all), not one per endpoint
        assert sum(len({id(row) for row in pf.hops.values()}) for pf in filters) == 31
        rng = random.Random(2024)
        blocked = 0
        for _ in range(40):
            topo = random_topology(rng, alphabet)
            root = topo.entrypoints[0]
            log = mesh_sim.execute_request(topo, root, filters, mode=mesh_sim.MODE_LOG)
            early = mesh_sim.execute_request(topo, root, filters, mode=mesh_sim.MODE_EARLY_BLOCK)
            assert len(log.word) == 2 * topo.node_count(root)
            for res in (log, early):
                # the request's word is coded over the plan's coding and
                # builds no symbols
                assert res.word.coding[0] == topo.services and res.word._symbols is None
                # the word filled as the request ran is the one its events make
                rebuilt = build_nested_word([a.symbol for a in res.word.symbols])
                assert res.word == rebuilt
                assert res.word.matching.partner == rebuilt.matching.partner
                for art in arts:
                    out = res.outcomes[art.policy_id]
                    assert res.transitions[art.policy_id] == len(res.word)  # 2 x nodes
                    if out.kind == "blocked":
                        assert res is early
                        assert not accepts(art.vpa, log.word)
                        blocked += 1
                    else:
                        final = final_configuration(art.vpa, res.word).state
                        assert out.final_state == final
                        assert (out.kind == "accept") == accepts(art.vpa, res.word)
        assert blocked

    def test_agrees_with_memo_free_reference(self, union_corpus):
        # codes, partner arrays, outcomes (blocked positions included) and
        # transition counts against a request that steps each policy's
        # table at every hop, in both modes
        alphabet, arts = union_corpus
        filters = [mesh_sim.build_filter_set(a) for a in arts]
        rng = random.Random(2024)
        for _ in range(40):
            topo = random_topology(rng, alphabet)
            assert_matches_reference(topo, topo.entrypoints[0], filters)
        for depth in range(2, 6):
            for fanout in range(1, 5):
                topo = mesh_sim.generate_topology(depth, fanout, alphabet)
                assert_matches_reference(topo, topo.entrypoints[0], filters)
        topo = chain_topology(20_000)
        doc = parse_policy(f"alphabet {', '.join(topo.services)};\nstart {{S0}}: call-seq star;\n")
        assert_matches_reference(topo, "S0", [mesh_sim.build_filter_set(compiler.compile(doc)[0])])

    def test_rows_read_once_per_distinct_header_vector(self, union_corpus):
        # 1,365 nodes over 6 services: a hop row is read at most once per
        # distinct (service, header vector) the request meets, and a response
        # row once per distinct (service, vector at the call, vector at the
        # return), not once per node
        alphabet, arts = union_corpus
        topo = mesh_sim.generate_topology(5, 4, alphabet)
        root = topo.entrypoints[0]
        reads = Counter()
        plain = [mesh_sim.build_filter_set(a) for a in arts]
        filters = [counting_hops(pf, topo.services, reads) for pf in plain]
        for mode in (mesh_sim.MODE_LOG, mesh_sim.MODE_EARLY_BLOCK):
            reads.clear()
            res = mesh_sim.execute_request(topo, root, filters, mode=mode)
            ref = reference_request(topo, root, plain, mode)
            assert res.outcomes == ref.outcomes
            at_call = Counter(svc for svc, _ in {hop[:2] for hop in ref.hops})
            at_return = Counter(svc for svc, _, _ in set(ref.hops))
            if mode == mesh_sim.MODE_LOG:
                assert len(ref.hops) == 1365 and sum(at_return.values()) == 28
            for pf in filters:
                for svc in topo.services:
                    assert reads["request", pf.policy_id, svc] <= at_call[svc], (mode, svc)
                    assert reads["response", pf.policy_id, svc] <= at_return[svc], (mode, svc)
            assert res.transitions_total == 2 * len(ref.hops) * len(filters)

    def test_oversized_request_refused(self, monkeypatch):
        filters = [mesh_sim.build_filter_set(artifacts_for(LOGGING_POLICY)[0])]
        monkeypatch.setattr(mesh_sim, "MAX_REQUEST_NODES", 6)  # HOSPITAL unrolls to 6
        assert mesh_sim.execute_request(HOSPITAL, "F", filters).transitions_total == 12
        monkeypatch.setattr(mesh_sim, "MAX_REQUEST_NODES", 5)
        with pytest.raises(ConfigError, match="'F' unrolls to 6 nodes, more than 5"):
            mesh_sim.execute_request(HOSPITAL, "F", filters)

    def test_non_entrypoint_rejected(self):
        arts = artifacts_for(LOGGING_POLICY)
        with pytest.raises(ConfigError):
            mesh_sim.execute_request(HOSPITAL, "P", [mesh_sim.build_filter_set(arts[0])])


class TestWorkload:
    def test_transition_accounting(self):
        arts = artifacts_for(LOGGING_POLICY)
        report = mesh_sim.run_workload(HOSPITAL, 200, arts)
        assert report.requests_total == 200
        assert report.nodes_per_tree == {"F": 6}
        assert dict(report.per_hop_ops) == {12: 200}  # 2 transitions per node
        assert report.transitions_total == 200 * 12
        assert not report.violations

    def test_four_policies_quadruple_work(self):
        text = (
            "alphabet F, P, D, E;\n"
            "start {P}: match (P) all-path ((D E star) + (!D)*);\n"
            "start {F}: call-seq F star;\n"
            "start {D}: match (D) all-path (E star);\n"
            "start star: call-seq star;\n"
        )
        arts = artifacts_for(text)
        assert len(arts) == 4
        report = mesh_sim.run_workload(HOSPITAL, 10, arts)
        assert dict(report.per_hop_ops) == {4 * 12: 10}
        clean = {"transitions": 10 * 12, "violations": 0, "blocks": 0}
        assert report.per_policy == {f"pol{i}": clean for i in range(4)}
        # add a policy that D violates and block early: each request stops
        # at D, the third node, which leaves the first policy's P subtree
        # without its E
        arts = artifacts_for(text + "start {F}: call-seq F (!D)*;\n")
        report = mesh_sim.run_workload(HOSPITAL, 10, arts, mode=mesh_sim.MODE_EARLY_BLOCK)
        stopped = {"transitions": 10 * 6, "violations": 0, "blocks": 0}
        assert report.per_policy == {
            "pol0": {**stopped, "violations": 10},
            **{f"pol{i}": stopped for i in (1, 2, 3)},
            "pol4": {**stopped, "blocks": 10},
        }
        assert json.loads(report.to_json())["per_policy"] == report.per_policy

    def test_fixed_cost_paid_once(self, monkeypatch):
        # a workload codes its topology's services once and checks filter
        # coverage once, not once per request
        counts = Counter()

        def counting(name):
            fn = getattr(mesh_sim, name)

            def counted(*args):
                counts[name] += 1
                return fn(*args)

            return counted

        for name in ("coder", "_check_coverage"):
            monkeypatch.setattr(mesh_sim, name, counting(name))
        report = mesh_sim.run_workload(HOSPITAL, 50, artifacts_for(LOGGING_POLICY))
        assert report.requests_total == 50 and report.transitions_total == 50 * 12
        assert counts == {"coder": 1, "_check_coverage": 1}

    def test_nodes_per_tree_per_entrypoint(self):
        # requests cycle through the entrypoints, which unroll to 1 and 3 nodes
        topo = mesh_sim.Topology(("A", "B"), {"A": ("B", "B")}, ("B", "A"))
        arts = artifacts_for("alphabet A, B;\nstart star: call-seq star;\n")
        report = mesh_sim.run_workload(topo, 4, arts)
        assert report.nodes_per_tree == {"B": 1, "A": 3}
        assert dict(report.per_hop_ops) == {2: 2, 6: 2}
        assert json.loads(report.to_json())["nodes_per_tree"] == {"B": 1, "A": 3}

    def test_zero_requests(self):
        arts = artifacts_for(LOGGING_POLICY)
        report = mesh_sim.run_workload(HOSPITAL, 0, arts)
        assert report.requests_total == 0
        assert not report.violations and not report.blocked

    def test_violations_recorded(self):
        arts = artifacts_for("alphabet F, P, D, E;\nstart {F}: call-seq F (!D)*;\n")
        report = mesh_sim.run_workload(HOSPITAL, 3, arts)
        assert len(report.violations) == 3
        assert report.violations[0]["policy"] == "pol0"
        assert report.per_policy == {"pol0": {"transitions": 36, "violations": 3, "blocks": 0}}

    def test_deep_chain(self):
        # ten times past the recursion limit; with no policy the walk, the
        # call-graph checks and the word are all that run
        report = mesh_sim.run_workload(chain_topology(20_000), 2, [])
        assert report.requests_total == 2
        assert report.nodes_per_tree == {"S0": 20_000}
        assert not report.violations and not report.blocked and report.per_policy == {}

    def test_wide_policy_on_deep_chain_in_bounded_memory(self):
        # 20,000 names in two endpoint classes, {S0} and the rest: each class
        # compiles once and its endpoints share its rows, so the tables hold
        # two columns, not 20,000 (rows per endpoint traced 72.5 MB in this test)
        topo = chain_topology(20_000)
        doc = parse_policy(f"alphabet {', '.join(topo.services)};\nstart {{S0}}: call-seq star;\n")
        collecting = gc.isenabled()
        gc.disable()  # a collection would walk every object the test process holds
        tracemalloc.start()
        try:
            arts = compiler.compile(doc)
            filters = mesh_sim.build_filter_set(arts[0])
            compiled_peak = tracemalloc.get_traced_memory()[1]
            report = mesh_sim.run_workload(topo, 1, arts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            if collecting:
                gc.enable()
        assert len({id(row) for row in filters.table.request.values()}) == 2
        assert len({id(row) for row in filters.hops.values()}) == 2
        assert report.nodes_per_tree == {"S0": 20_000} and not report.violations
        assert report.per_policy == {"pol0": {"transitions": 40_000, "violations": 0, "blocks": 0}}
        # measured: 1.7 MB to compile and build the filters, 13.7 MB with the run
        assert compiled_peak < 5e6 and peak < 25e6, (compiled_peak, peak)

    def test_three_way_agreement(self):
        # monitored verdict == centralized automaton == denotational semantics
        rng = random.Random(99)
        doc = parse_policy(LOGGING_POLICY)
        arts = compiler.compile(doc)
        filters = [mesh_sim.build_filter_set(arts[0])]
        services = ("F", "P", "D", "E")
        for _ in range(60):
            behavior = {}
            for i, svc in enumerate(services):
                # children only from strictly later services keeps it acyclic
                later = services[i + 1 :]
                n = rng.randint(0, 2) if later else 0
                behavior[svc] = tuple(rng.choice(later) for _ in range(n))
            topo = mesh_sim.Topology(services, behavior, ("F",))
            res = mesh_sim.execute_request(topo, "F", filters)
            monitored = res.outcomes["pol0"].kind == "accept"
            central = accepts(arts[0].vpa, res.word)
            denot = oracle.sat_policy(res.word, doc.policies[0], doc.alphabet)
            assert monitored == central == denot


class TestScaling:
    def test_work_is_twice_nodes_for_every_shape(self):
        alpha = tuple("ABCDEF")
        policy_text = "alphabet A, B, C, D, E, F;\nstart {A}: call-seq star;\n"
        arts = artifacts_for(policy_text)
        for depth in range(2, 6):
            for fanout in range(1, 5):
                topo = mesh_sim.generate_topology(depth, fanout, alpha)
                nodes = topo.node_count(topo.entrypoints[0])
                report = mesh_sim.run_workload(topo, 2, arts)
                assert dict(report.per_hop_ops) == {2 * nodes: 2}, (depth, fanout)
