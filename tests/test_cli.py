"""End-to-end command behaviour and exit codes."""

import dataclasses
import gc
import json
import math
import time
import tracemalloc

import pytest

from treepolicy import cli, compiler, mesh_sim, monitor
from treepolicy.errors import CompilerInternalError
from treepolicy import nested_word as nw
from treepolicy.corpus import CORPUS
from treepolicy.policy import parse_policy
from treepolicy.vpa import BOTTOM, final_configuration

from conftest import events_from_str, wide_policy_text, word_from_str

POLICY = "alphabet F, P, D, E;\nstart {P}: match (P {D}) all-path ({E} star);\n"
GOOD_TRACE = "<F <P <D <E E> D> <D <E E> D> P> F>"
BAD_TRACE = "<F <P <D <F F> D> P> F>"
HOSPITAL = mesh_sim.Topology(
    ("F", "P", "D", "E"), {"F": ("P",), "P": ("D", "D"), "D": ("E",), "E": ()}, ("F",)
)


@pytest.fixture
def policy_file(tmp_path):
    p = tmp_path / "policy.stp"
    p.write_text(POLICY, encoding="utf-8")
    return str(p)


def trace_file(tmp_path, compact: str) -> str:
    p = tmp_path / "trace.jsonl"
    p.write_text(nw.serialize_trace(events_from_str(compact)), encoding="utf-8")
    return str(p)


class TestCompile:
    def test_corpus_compiles(self, tmp_path, capsys):
        for entry in CORPUS:
            src = tmp_path / f"{entry.name}.stp"
            src.write_text(entry.small, encoding="utf-8")
            out = tmp_path / entry.name
            assert cli.main(["compile", str(src), str(out)]) == 0
            assert (out / "pol0.vpa.json").exists()
            assert (out / "pol0.dot").exists()
            metrics = json.loads((out / "pol0.metrics.json").read_text())
            assert "header_bits" in metrics and metrics["state_bound_holds"]
        capsys.readouterr()

    def test_empty_policy_file(self, tmp_path, capsys):
        src = tmp_path / "empty.stp"
        src.write_text("", encoding="utf-8")
        assert cli.main(["compile", str(src), str(tmp_path / "out")]) == 2
        capsys.readouterr()


class TestCheck:
    def test_accepting_trace(self, tmp_path, policy_file, capsys):
        t = trace_file(tmp_path, GOOD_TRACE)
        assert cli.main(["check", policy_file, t]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["accepted"] == {"pol0": True}

    def test_rejecting_trace(self, tmp_path, policy_file, capsys):
        t = trace_file(tmp_path, BAD_TRACE)
        assert cli.main(["check", policy_file, t]) == 1
        capsys.readouterr()

    def test_malformed_trace(self, tmp_path, policy_file, capsys):
        t = tmp_path / "bad.jsonl"
        t.write_text('{"tag": "call", "endpoint": "P"}\n{"tag": "ret", "endpoint": "D"}\n')
        assert cli.main(["check", policy_file, str(t)]) == 2
        capsys.readouterr()

    def test_modes_agree(self, tmp_path, policy_file, capsys):
        for compact in (GOOD_TRACE, BAD_TRACE):
            t = trace_file(tmp_path, compact)
            central = cli.main(["check", policy_file, t, "--mode", "central"])
            dist = cli.main(["check", policy_file, t, "--mode", "dist"])
            assert central == dist
        capsys.readouterr()

    def test_deep_chain_modes_agree(self, tmp_path, policy_file, capsys):
        # a step is O(1), so a 20,000-deep chain checks in well under a second
        labels = ["F", "P"] * 5_000 + ["P", "D"] * 5_000
        events = [nw.call(x) for x in labels] + [nw.ret(x) for x in reversed(labels)]
        t = tmp_path / "deep.jsonl"
        t.write_text(nw.serialize_trace(events), encoding="utf-8")
        central = cli.main(["check", policy_file, str(t), "--mode", "central"])
        dist = cli.main(["check", policy_file, str(t), "--mode", "dist"])
        assert central == dist and central in (0, 1)
        capsys.readouterr()

    @pytest.mark.parametrize("mode", ["central", "dist"])
    def test_broken_emitted_filter_is_internal_error(self, tmp_path, policy_file, capsys,
                                                     monkeypatch, mode):
        # the distributed side is the table the emitted filters make up, so
        # a filter that disagrees with the automaton is caught
        real = monitor.emit_filters

        def broken(m):
            specs = real(m)
            p = next(s for s in specs if s.endpoint == "P")
            states = sorted({dst for dst, _ in p.on_request.values()})
            wrong = {q: (states[(states.index(dst) + 1) % len(states)], push)
                     for q, (dst, push) in p.on_request.items()}
            return [monitor.FilterSpec("P", wrong, s.on_response, s.reject) if s is p else s
                    for s in specs]

        monkeypatch.setattr(monitor, "emit_filters", broken)
        t = trace_file(tmp_path, GOOD_TRACE)
        assert cli.main(["check", policy_file, t, "--mode", mode]) == 3
        assert "centralized and distributed runs disagree on pol0" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["central", "dist"])
    def test_deleted_emitted_rule_is_internal_error(self, tmp_path, policy_file, capsys,
                                                    monkeypatch, mode):
        # a rule left out of a filter reads as a call into the reject sink,
        # so deleting one the trace takes is caught, not read as a violation
        v = compiler.compile(parse_policy(POLICY))[0].vpa
        used = final_configuration(v, word_from_str("<F")).state  # where the trace calls P
        real = monitor.emit_filters

        def broken(m):
            specs = real(m)
            p = next(s for s in specs if s.endpoint == "P")
            assert p.reject is not None and used in p.on_request
            kept = {q: rule for q, rule in p.on_request.items() if q != used}
            return [monitor.FilterSpec("P", kept, s.on_response, s.reject) if s is p else s
                    for s in specs]

        monkeypatch.setattr(monitor, "emit_filters", broken)
        t = trace_file(tmp_path, GOOD_TRACE)
        assert cli.main(["check", policy_file, t, "--mode", mode]) == 3
        assert "centralized and distributed runs disagree on pol0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "oracle"])
    def test_deeply_nested_json_line_is_usage_error(self, tmp_path, policy_file, capsys, command):
        t = tmp_path / "hostile.jsonl"
        t.write_text("[" * 200_000 + "\n")
        assert cli.main([command, policy_file, str(t)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_stdin_trace(self, tmp_path, policy_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(nw.serialize_trace(events_from_str(GOOD_TRACE)))
        )
        assert cli.main(["check", policy_file, "-"]) == 0
        capsys.readouterr()

    def test_flat_trace_memory_per_event(self, tmp_path, capsys, monkeypatch):
        # one root with 10,000 leaf children against the full-corpus
        # ab-testing document, under tracemalloc.  The whole command peaks
        # while parsing, when the file's text and its split lines are held
        # together: 136-139 B per event (measured).  From the parse's return
        # on (the word, compiling and both runs) it peaks at 62-65 B per
        # event; a word that also held an IndexedSymbol per event peaked
        # there at 129 B.
        text = next(e.full for e in CORPUS if e.name == "ab-testing")
        alpha = parse_policy(text).alphabet
        events = [nw.call("Beta")]
        for i in range(10_000):
            events += (nw.call(alpha[i % len(alpha)]), nw.ret(alpha[i % len(alpha)]))
        events.append(nw.ret("Beta"))
        policy, trace = tmp_path / "ab.stp", tmp_path / "flat.jsonl"
        policy.write_text(text, encoding="utf-8")
        trace.write_text(nw.serialize_trace(events), encoding="utf-8")
        n = len(events)
        del events
        parse, parsed = cli.parse_trace, []

        def parse_then_reset(text):
            out = parse(text)
            parsed.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return out

        monkeypatch.setattr(cli, "parse_trace", parse_then_reset)
        collecting = gc.isenabled()
        gc.disable()  # a collection would walk every object the test process holds
        tracemalloc.start()
        try:
            code = cli.main(["check", str(policy), str(trace)])
            after_parse = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            if collecting:
                gc.enable()
        assert code == 1  # the leaves reach DbV1 under Beta
        assert json.loads(capsys.readouterr().out)["accepted"] == {"pol0": False}
        whole = max(parsed[0], after_parse)
        assert whole / n < 170 and after_parse / n < 90, (whole / n, after_parse / n)


class TestOracleCmd:
    def test_agrees_with_check(self, tmp_path, policy_file, capsys):
        for compact, code in ((GOOD_TRACE, 0), (BAD_TRACE, 1)):
            t = trace_file(tmp_path, compact)
            assert cli.main(["oracle", policy_file, t]) == code
            assert cli.main(["check", policy_file, t]) == code
        capsys.readouterr()

    def test_epsilon_policy_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "eps.stp"
        src.write_text("alphabet T;\nstart {T}: match eps all-path star;\n")
        t = trace_file(tmp_path, "<T T>")
        assert cli.main(["oracle", str(src), t]) == 2
        capsys.readouterr()


@pytest.fixture
def wide_policy_file(tmp_path):
    p = tmp_path / "wide.stp"
    p.write_text(wide_policy_text())
    return str(p)


class TestWideAlphabet:
    # each symbol set is one regex node, so the oracle's derivatives do not
    # recurse once per name

    def test_oracle(self, tmp_path, wide_policy_file, capsys):
        t = trace_file(tmp_path, "<S0 <N7 <N2998 N2998> N7> S0>")
        assert cli.main(["oracle", wide_policy_file, t]) == 0
        assert json.loads(capsys.readouterr().out)["accepted"] == {"pol0": True}

    def test_equiv(self, wide_policy_file, capsys):
        args = ["equiv", wide_policy_file, "--alphabet", "S0,N7", "--max-calls", "2"]
        assert cli.main(args) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["agreement"] and out["words_checked"] == 6


def _chain(op: str, n: int) -> str:
    return op.join(["A", "B"] * (n // 2))


# Each document is 3,000 terms long or deep, three times the recursion limit.
DEEP_REGEX = {
    "union-chain": f"call-seq ({_chain(' + ', 3000)})*",
    "match-union-chain": f"match ({_chain(' + ', 3000)}) all-path star",
    "concat-chain": f"call-seq {_chain(' ', 3000)}",
    "star-run": "call-seq A B" + "*" * 3000,
    "parentheses": "call-seq " + "(" * 3000 + "A B" + ")" * 3000,
    "parentheses-200": "call-seq " + "(" * 200 + "A B*" + ")" * 200,
}


class TestDeepRegex:
    # chains parse to balanced trees and star runs to one star, so no regex
    # route recurses once per term; only nesting written as parentheses is
    # as deep as it is written, and past the recursion limit it is a usage
    # error, never a crash

    @pytest.mark.parametrize(
        "command,name,code",
        [
            ("check", "union-chain", 0),
            ("oracle", "union-chain", 0),
            ("format", "union-chain", 0),
            ("check", "match-union-chain", 0),
            ("oracle", "match-union-chain", 0),
            ("oracle", "concat-chain", 1),
            ("format", "concat-chain", 0),
            ("check", "star-run", 0),
            ("check", "parentheses", 2),
            ("check", "parentheses-200", 0),
        ],
    )
    def test_exit_code(self, tmp_path, capsys, command, name, code):
        src = tmp_path / "deep.stp"
        src.write_text(f"alphabet A, B;\nstart {{A}}: {DEEP_REGEX[name]};\n")
        args = [command, str(src)]
        if command != "format":
            args.append(trace_file(tmp_path, "<A <B B> A>"))
        assert cli.main(args) == code
        assert "Traceback" not in capsys.readouterr().err


class TestEquiv:
    def test_small_agreement(self, policy_file, capsys):
        assert cli.main(["equiv", policy_file, "--max-calls", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["agreement"] and out["words_checked"] > 0

    @pytest.mark.parametrize("n", ["0", "-1", "x"])
    def test_non_positive_max_calls_is_usage_error(self, policy_file, capsys, n):
        assert cli.main(["equiv", policy_file, "--max-calls", n]) == 2
        assert capsys.readouterr().out == ""

    def test_repeated_alphabet_name_is_usage_error(self, policy_file, capsys):
        # an empty selection is one empty name, not the whole alphabet
        for names, message in (("P,P", "repeated"), ("", "alphabet: ['']")):
            assert cli.main(["equiv", policy_file, "--alphabet", names, "--max-calls", "2"]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and message in captured.err

    def test_builds_no_monitor(self, policy_file, capsys, monkeypatch):
        # the oracle is the check; a monitor extracted from the automaton
        # steps the automaton's own table, so comparing with it adds nothing
        calls = []
        real = monitor.extract_monitor

        def counting(v):
            calls.append(v)
            return real(v)

        monkeypatch.setattr(monitor, "extract_monitor", counting)
        assert cli.main(["equiv", policy_file, "--max-calls", "3"]) == 0
        assert calls == []
        capsys.readouterr()

    def test_injected_mutation_found(self, policy_file, capsys, monkeypatch):
        real = compiler.compile_policy

        def sabotaged(policy, alphabet, policy_id="pol0"):
            art = real(policy, alphabet, policy_id)
            # accept the reject state
            broken = dataclasses.replace(art.vpa, finals=art.vpa.finals | {"rej"})
            return type(art)(
                art.policy_id, art.policy, broken, art.component_dfas,
                art.metrics, art.reject_states,
            )

        monkeypatch.setattr(compiler, "compile_policy", sabotaged)
        assert cli.main(["equiv", policy_file, "--max-calls", "3"]) == 1
        captured = capsys.readouterr()
        # the counterexample on stdout replays as a trace
        events = nw.parse_trace(captured.out)
        assert events, "expected a counterexample trace"


class TestSimulate:
    def test_hospital_run(self, tmp_path, policy_file, capsys):
        topo = mesh_sim.Topology(
            ("F", "P", "D", "E"), {"F": ("P",), "P": ("D", "D"), "D": ("E",), "E": ()}, ("F",)
        )
        tf = tmp_path / "topo.json"
        tf.write_text(mesh_sim.topology_to_json(topo))
        assert cli.main(["simulate", str(tf), policy_file, "--requests", "200"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["requests_total"] == 200
        assert report["violations"] == []

    def test_violating_topology(self, tmp_path, policy_file, capsys):
        # P never calls D, so no path matches the required pattern
        topo = mesh_sim.Topology(
            ("F", "P", "D", "E"), {"F": ("P",), "P": ("E",), "D": (), "E": ()}, ("F",)
        )
        tf = tmp_path / "topo.json"
        tf.write_text(mesh_sim.topology_to_json(topo))
        assert cli.main(["simulate", str(tf), policy_file, "--requests", "3"]) == 1
        capsys.readouterr()

    def test_zero_requests(self, tmp_path, policy_file, capsys):
        # a run of no requests would report clean without checking anything
        topo = mesh_sim.Topology(("F", "P", "D", "E"), {"F": ("P",)}, ("F",))
        tf = tmp_path / "topo.json"
        tf.write_text(mesh_sim.topology_to_json(topo))
        for n in ("0", "-3"):
            assert cli.main(["simulate", str(tf), policy_file, "--requests", n]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("behavior", {"F": 5}),
            ("behavior", ["F"]),
            ("behavior", {"F": ["P", 3]}),
            ("services", "FPDE"),
            ("services", [1, 2]),
            ("entrypoints", "F"),
            ("version", True),  # equal to 1 in Python, but not an integer
            ("version", 1.0),
        ],
    )
    def test_mistyped_topology_is_usage_error(self, tmp_path, policy_file, capsys, field, value):
        doc = json.loads(mesh_sim.topology_to_json(HOSPITAL))
        doc[field] = value
        tf = tmp_path / "topo.json"
        tf.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(tf), policy_file, "--requests", "1"]) == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("field,name", [("services", "P"), ("entrypoints", "F")])
    def test_name_listed_twice_is_usage_error(self, tmp_path, policy_file, capsys, field, name):
        doc = json.loads(mesh_sim.topology_to_json(HOSPITAL))
        doc[field].append(name)
        tf = tmp_path / "topo.json"
        tf.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(tf), policy_file, "--requests", "1"]) == 2
        assert f"{field} listed twice: [{name!r}]" in capsys.readouterr().err

    def test_deeply_nested_topology_is_usage_error(self, tmp_path, policy_file, capsys):
        tf = tmp_path / "topo.json"
        tf.write_text("[" * 200_000)
        assert cli.main(["simulate", str(tf), policy_file, "--requests", "1"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_deep_topology_runs(self, tmp_path, capsys):
        # a chain three times the recursion limit: the call-graph checks,
        # the request walk and the 2,999-symbol start-anchor set all run
        # without recursing that deep
        names = [f"S{i}" for i in range(3000)]
        src = tmp_path / "chain.stp"
        src.write_text(f"alphabet {', '.join(names)};\nstart {{S0}}: call-seq star;\n")
        doc = {
            "version": 1,
            "services": names,
            "behavior": {a: [b] for a, b in zip(names, names[1:])},
            "entrypoints": ["S0"],
        }
        tf = tmp_path / "topo.json"
        tf.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(tf), str(src), "--requests", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == [] and report["blocked"] == []
        assert report["nodes_per_tree"] == {"S0": 3000}
        assert report["per_policy"] == {"pol0": {"transitions": 6000, "violations": 0, "blocks": 0}}


    def test_exponential_topology_is_usage_error(self, tmp_path, capsys):
        # 40 services, each calling the next twice: 2^40 - 1 nodes a request
        names = [f"S{i}" for i in range(40)]
        src = tmp_path / "chain.stp"
        src.write_text(f"alphabet {', '.join(names)};\nstart {{S0}}: call-seq star;\n")
        doc = {
            "version": 1,
            "services": names,
            "behavior": {a: [b, b] for a, b in zip(names, names[1:])},
            "entrypoints": ["S0"],
        }
        tf = tmp_path / "topo.json"
        tf.write_text(json.dumps(doc))
        t0 = time.thread_time()
        assert cli.main(["simulate", str(tf), str(src), "--requests", "1"]) == 2
        assert time.thread_time() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'S0' unrolls to 1099511627775 nodes, more than 1000000" in captured.err


class TestEmitFilters:
    def test_deterministic_bytes(self, tmp_path, policy_file, capsys):
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        assert cli.main(["emit-filters", policy_file, str(out1)]) == 0
        assert cli.main(["emit-filters", policy_file, str(out2)]) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        assert files1 == sorted(p.name for p in out2.iterdir())
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        capsys.readouterr()

    def test_filter_files_exist_per_endpoint(self, tmp_path, policy_file, capsys):
        out = tmp_path / "filters"
        assert cli.main(["emit-filters", policy_file, str(out)]) == 0
        for svc in ("F", "P", "D", "E"):
            assert (out / f"pol0.{svc}.filter.json").exists()
            assert (out / f"pol0.{svc}.filter.lua").exists()
        capsys.readouterr()

    def test_summary_counts_what_was_written(self, tmp_path, capsys):
        src = tmp_path / "two.stp"
        src.write_text(POLICY + "start {F}: call-seq F P;\n", encoding="utf-8")
        out = tmp_path / "filters"
        assert cli.main(["emit-filters", str(src), str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert [p["policy_id"] for p in summary["policies"]] == ["pol0", "pol1"]
        for p in summary["policies"]:
            files = sorted(out.glob(f"{p['policy_id']}.*"))
            assert len(files) == 8
            assert p["bytes"] == sum(f.stat().st_size for f in files)
            rules = [r for f in files if f.suffix == ".json"
                     for field in ("on_request", "on_response")
                     for r in json.loads(f.read_text(encoding="utf-8"))[field]]
            assert p["rules"] == len(rules) > 0


class TestExitCodes:
    def test_compiler_internal_error_exits_3(self, tmp_path, policy_file, capsys, monkeypatch):
        def broken(policy, alphabet, policy_id="pol0"):
            raise CompilerInternalError("call conflict")

        monkeypatch.setattr(compiler, "compile_policy", broken)
        assert cli.main(["compile", policy_file, str(tmp_path / "out")]) == 3
        assert "internal error: call conflict" in capsys.readouterr().err

    def test_bottom_push_exits_3(self, tmp_path, policy_file, capsys, monkeypatch):
        # a deeper anchor call that pushes the bottom marker makes rules the
        # table builder refuses, as it would refuse the written document:
        # compile writes nothing and check runs nothing
        call = compiler.StartConstruction.call

        def pushes_bottom(self, e, q):
            dst, push = call(self, e, q)
            return (dst, BOTTOM) if q in self.a1.nonfinals else (dst, push)

        monkeypatch.setattr(compiler.StartConstruction, "call", pushes_bottom)
        out = tmp_path / "out"
        assert cli.main(["compile", policy_file, str(out)]) == 3
        assert list(out.iterdir()) == []
        assert cli.main(["check", policy_file, trace_file(tmp_path, GOOD_TRACE)]) == 3
        for err in capsys.readouterr().err.splitlines():
            assert err.startswith("internal error: ") and "pushes the bottom marker" in err

    def test_unexpected_exception_exits_3_with_traceback(self, tmp_path, policy_file, capsys,
                                                         monkeypatch):
        def broken(policy, alphabet, policy_id="pol0"):
            raise KeyError("boom")

        monkeypatch.setattr(compiler, "compile_policy", broken)
        t = trace_file(tmp_path, GOOD_TRACE)
        assert cli.main(["check", policy_file, t]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "KeyError: 'boom'" in err


def rooted_word_count(labels: int, max_calls: int) -> int:
    """Trees of c nodes over m labels: Catalan(c - 1) * m^c."""
    return sum(math.comb(2 * (c - 1), c - 1) // c * labels**c for c in range(1, max_calls + 1))


def test_parser_reuse_carries_nothing_over(tmp_path, capsys):
    path = tmp_path / "two.stp"
    path.write_text("alphabet A, B;\nstart {A}: call-seq star;\n", encoding="utf-8")
    assert cli.main(["equiv", str(path), "--alphabet", "A", "--max-calls", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["words_checked"] == rooted_word_count(1, 2)
    assert cli.main(["equiv", str(path)]) == 0  # the whole alphabet, the default bound
    assert json.loads(capsys.readouterr().out)["words_checked"] == rooted_word_count(2, 6)
    assert cli.main(["equiv", str(path), "--max-calls", "0"]) == 2
    capsys.readouterr()
    assert cli.main(["format", str(path)]) == 0
    reused = capsys.readouterr()
    assert cli.build_parser() is cli.build_parser()
    cli.build_parser.cache_clear()
    assert cli.main(["format", str(path)]) == 0
    assert capsys.readouterr() == reused


class TestUsage:
    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert cli.main(["check", "no-such.stp", "no-such.jsonl"]) == 2
        capsys.readouterr()

    def test_format_round_trip(self, tmp_path, policy_file, capsys):
        assert cli.main(["format", policy_file]) == 0
        text = capsys.readouterr().out
        p2 = tmp_path / "canonical.stp"
        p2.write_text(text, encoding="utf-8")
        assert cli.main(["format", str(p2)]) == 0
        assert capsys.readouterr().out == text
