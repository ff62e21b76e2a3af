"""Topology generation, monitored execution, workload accounting, blocking."""

import random

import pytest

from treepolicy import compiler, mesh_sim, oracle
from treepolicy.errors import ConfigError
from treepolicy.policy import parse_policy
from treepolicy.vpa import accepts

HOSPITAL = mesh_sim.Topology(
    ("F", "P", "D", "E"),
    {"F": ("P",), "P": ("D", "D"), "D": ("E",), "E": ()},
    ("F",),
)

LOGGING_POLICY = "alphabet F, P, D, E;\nstart {P}: match (P) all-path ((D E star) + (!D)*);\n"


def artifacts_for(text):
    return compiler.compile(parse_policy(text))


class TestTopology:
    def test_node_counts(self):
        alpha = tuple("ABCDEF")
        assert mesh_sim.generate_topology(5, 4, alpha).node_count("A") == 1365
        assert mesh_sim.generate_topology(2, 1, alpha).node_count("A") == 3
        assert mesh_sim.generate_topology(4, 2, alpha).node_count("A") == 31

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

    def test_json_round_trip(self):
        text = mesh_sim.topology_to_json(HOSPITAL)
        assert mesh_sim.topology_from_json(text) == HOSPITAL


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
        assert res.word.call_sequence() == ("Beta", "DbV2", "DbV1")
        assert res.word.is_rooted()
        # hypothetical completion is rejected by the centralized automaton
        full = mesh_sim.execute_request(topo, "Beta", [pf], mode=mesh_sim.MODE_LOG)
        assert not accepts(arts[0].vpa, full.word)

    def test_non_entrypoint_rejected(self):
        arts = artifacts_for(LOGGING_POLICY)
        with pytest.raises(ConfigError):
            mesh_sim.execute_request(HOSPITAL, "P", [mesh_sim.build_filter_set(arts[0])])


class TestWorkload:
    def test_transition_accounting(self):
        arts = artifacts_for(LOGGING_POLICY)
        report = mesh_sim.run_workload(HOSPITAL, 200, arts)
        assert report.requests_total == 200
        assert report.nodes_per_tree == 6
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
