"""Monitor extraction, single-step and run equivalence, filter emission."""

import dataclasses
import gc
import json
import random
import re

import pytest

from treepolicy import compiler, monitor, nested_word as nw
from treepolicy.corpus import corpus_documents
from treepolicy.errors import MissingTransition, StackUnderflow, TreePolicyError, VpaParseError
from treepolicy.policy import parse_policy
from treepolicy.vpa import (
    BOTTOM, Configuration, Rules, final_configuration, initial_configuration, run, walk,
)

from conftest import (
    chain_word,
    complete_with_sink,
    cpu_per_symbol,
    payment_chain_vpa,
    random_rooted_word,
    raw_automaton,
    two_state_vpa,
    word_from_str,
)
import reference as ref
from reference import reference_filter_rules, reference_reached_cells
from test_compiler import random_policy
from test_golden import RANDOM_ALPHABET
from test_vpa import random_automata, random_policies


class TestExtract:
    def test_chain_request_transition(self):
        mon = monitor.extract_monitor(payment_chain_vpa())
        assert mon["P"].on_request["start"] == ("q_P", "q_P")

    def test_two_state_response_transition(self):
        mon = monitor.extract_monitor(two_state_vpa())
        assert mon["Appt"].on_response[("q1", "q0")] == "q0"

    def test_table_keys_are_alphabet(self):
        v = payment_chain_vpa()
        mon = monitor.extract_monitor(v)
        assert tuple(mon) == v.alphabet

    def test_specs_are_read_only(self):
        # the monitor steps a table built from the specs once, so a spec
        # that could change would leave the table behind; extracted and
        # read-back specs hold one type of rules
        extracted = monitor.extract_monitor(payment_chain_vpa())["P"]
        readback = monitor.filter_spec_from_json(monitor.filter_spec_to_json(extracted))
        for spec in (extracted, readback):
            assert type(spec.on_request) is type(spec.on_response) is Rules
            with pytest.raises(TypeError):
                spec.on_request["start"] = ("sink", "sink")
            with pytest.raises(TypeError):
                spec.on_response[("q_P", "q_P")] = "sink"

    def test_spec_copies_plain_mappings(self):
        # a spec copies the dicts it is built from, so editing them later
        # changes neither the spec nor a monitor that has already run
        v = payment_chain_vpa()
        dicts = [(s.endpoint, dict(s.on_request), dict(s.on_response))
                 for s in monitor.emit_filters(monitor.extract_monitor(v))]
        specs = [monitor.FilterSpec(e, req, resp) for e, req, resp in dicts]
        m = monitor.monitor_from_filters(specs)
        init, word = initial_configuration(v), word_from_str("<P P>")
        before = monitor.dist_run(m, init, word)
        next(req for e, req, _ in dicts if e == "P")["start"] = ("sink", "sink")
        assert m["P"].on_request["start"] == ("q_P", "q_P")
        assert monitor.dist_run(monitor.monitor_from_filters(specs), init, word) == before
        assert monitor.dist_run(m, init, word) == before == init

    def test_monitor_is_read_only(self):
        v = payment_chain_vpa()
        for m in (monitor.extract_monitor(v),
                  monitor.monitor_from_filters(monitor.emit_filters(monitor.extract_monitor(v)))):
            init, word = initial_configuration(v), word_from_str("<P P>")
            before = monitor.dist_run(m, init, word)
            spec = m["P"]
            sunk = monitor.FilterSpec("P", dict(spec.on_request, start=("sink", "sink")),
                                      spec.on_response)
            with pytest.raises(TypeError):
                m["P"] = sunk
            with pytest.raises(AttributeError):
                m.update({"P": sunk})
            with pytest.raises(AttributeError):
                m.pop("P")
            assert m["P"] is spec
            assert monitor.dist_run(m, init, word) == before == init


class TestDistributedRun:
    def test_two_state_golden(self):
        v = two_state_vpa()
        mon = monitor.extract_monitor(v)
        n = word_from_str("<Appt Appt>")
        init = Configuration("q0", (BOTTOM,))
        c1 = walk(mon.table, init, nw.build_nested_word([nw.call("Appt")]))
        assert c1 == Configuration("q1", (BOTTOM, "q0"))
        c2 = walk(mon.table, c1, nw.build_nested_word([nw.ret("Appt")]))
        assert c2 == Configuration("q0", (BOTTOM,))
        assert monitor.dist_run(mon, init, n) == init

    def test_underflow(self):
        mon = monitor.extract_monitor(two_state_vpa())
        with pytest.raises(StackUnderflow):
            walk(mon.table, Configuration("q0", (BOTTOM,)), nw.build_nested_word([nw.ret("Appt")]))

    def test_step_equals_central_step_pointwise(self):
        rng = random.Random(13)
        for doc in corpus_documents("small").values():
            art = compiler.compile(doc)[0]
            v = art.vpa
            # read back, so the two walks step two tables
            mon = monitor.monitor_from_filters(monitor.emit_filters(monitor.extract_monitor(v)))
            for _ in range(50):
                n = random_rooted_word(rng, 10, doc.alphabet)
                c = initial_configuration(v)
                for a in n.symbols:
                    central = walk(v.table, c, nw.build_nested_word([a.symbol]))
                    dist = walk(mon.table, c, nw.build_nested_word([a.symbol]))
                    assert central == dist
                    c = central

    def test_final_configurations_equal(self):
        rng = random.Random(14)
        for doc in corpus_documents("small").values():
            art = compiler.compile(doc)[0]
            mon = monitor.extract_monitor(art.vpa)
            for _ in range(200):
                n = random_rooted_word(rng, 15, doc.alphabet)
                init = initial_configuration(art.vpa)
                assert monitor.dist_run(mon, init, n) == run(art.vpa, n, init)[-1]


    def test_final_configuration_is_a_value(self):
        v = payment_chain_vpa()
        mon = monitor.extract_monitor(v)
        init = initial_configuration(v)
        reached = monitor.dist_run(mon, init, word_from_str("<P <D"))
        built = Configuration("q_D", (BOTTOM, "q_P", "q_D"))
        assert reached == built and hash(reached) == hash(built)
        assert reached == run(v, word_from_str("<P <D"))[-1]


class TestDeepDistributedRuns:
    def test_hundred_thousand_deep_chain(self):
        art = compiler.compile(corpus_documents("small")["data-compliance"])[0]
        mon = monitor.extract_monitor(art.vpa)
        init = initial_configuration(art.vpa)
        depth = 100_000
        word = chain_word(depth, art.vpa.alphabet, closed=False)
        deepest = monitor.dist_run(mon, init, word)
        assert len(deepest.stack) == depth + 1
        central = run(art.vpa, word)[-1]
        assert deepest == central and hash(deepest) == hash(central)
        del deepest, central
        gc.collect()
        closed = chain_word(depth, art.vpa.alphabet)
        assert monitor.dist_run(mon, init, closed) == run(art.vpa, closed)[-1]

    def test_time_is_linear_in_depth(self):
        art = compiler.compile(corpus_documents("small")["data-compliance"])[0]
        mon = monitor.extract_monitor(art.vpa)
        init = initial_configuration(art.vpa)
        shallow = chain_word(2_000, art.vpa.alphabet)
        deep = chain_word(32_000, art.vpa.alphabet)
        go = lambda word: monitor.dist_run(mon, init, word)  # noqa: E731
        ratio = cpu_per_symbol(go, deep, 2) / cpu_per_symbol(go, shallow, 10)
        # an O(depth) step makes this about 16
        assert ratio < 4, ratio


class TestFilterSpecs:
    def test_chain_request_rule(self):
        mon = monitor.extract_monitor(payment_chain_vpa())
        specs = {s.endpoint: s for s in monitor.emit_filters(mon)}
        then_state, push_local = specs["P"].on_request["start"]
        assert then_state == "q_P"
        assert push_local == "q_P"
        assert specs["P"].on_response[("q_P", "q_P")] == "start"

    def test_rule_counts_match_tables(self):
        # the per-endpoint tables partition the automaton's tables, less
        # the rules into the reject sink
        v = payment_chain_vpa()
        specs = monitor.emit_filters(monitor.extract_monitor(v))
        calls = {k: r for k, r in ref.delta_call(v).items() if r != ("sink", "sink")}
        returns = {k: r for k, r in ref.delta_return(v).items() if r != "sink"}
        assert sum(len(spec.on_request) for spec in specs) == len(calls) == 3
        assert sum(len(spec.on_response) for spec in specs) == len(returns) == 3
        for spec in specs:
            assert spec.reject == "sink"
            for q, target in spec.on_request.items():
                assert calls[(q, spec.endpoint)] == target
            for (q, g), target in spec.on_response.items():
                assert returns[(q, g, spec.endpoint)] == target

    def test_rule_counts_equal_the_rules_listed(self):
        # len counts the rules iteration lists, in the reference's dicts
        # and in each spec's ``Rules``
        automata = [a.vpa for variant in ("small", "full")
                    for doc in corpus_documents(variant).values() for a in compiler.compile(doc)]
        rng, alpha = random.Random(2024), ("A", "B", "C")
        automata += [compiler.compile_policy(random_policy(rng, alpha, 4), alpha).vpa
                     for _ in range(40)]
        for v in automata:
            listings = [ref.delta_call(v), ref.delta_return(v)]
            for spec in monitor.extract_monitor(v).values():
                listings += [spec.on_request, spec.on_response]
            for rules in listings:
                assert len(rules) == sum(1 for _ in rules)

    def test_reconstruction_is_extensionally_equal(self):
        for doc in corpus_documents("small").values():
            art = compiler.compile(doc)[0]
            mon = monitor.extract_monitor(art.vpa)
            rebuilt = monitor.monitor_from_filters(monitor.emit_filters(mon))
            assert tuple(rebuilt) == art.vpa.alphabet
            for e in art.vpa.alphabet:
                assert rebuilt[e].on_request == mon[e].on_request
                assert rebuilt[e].on_response == mon[e].on_response

    def test_replay_through_filters_matches_dist_run(self):
        rng = random.Random(15)
        doc = corpus_documents("small")["data-compliance"]
        art = compiler.compile(doc)[0]
        mon = monitor.extract_monitor(art.vpa)
        rebuilt = monitor.monitor_from_filters(monitor.emit_filters(mon))
        for _ in range(200):
            n = random_rooted_word(rng, 12, doc.alphabet)
            init = initial_configuration(art.vpa)
            assert monitor.dist_run(rebuilt, init, n) == monitor.dist_run(mon, init, n)

    def test_json_round_trip(self):
        vpas = [payment_chain_vpa()]
        for doc in corpus_documents("full").values():
            vpas.extend(art.vpa for art in compiler.compile(doc))
        for v in vpas:
            for spec in monitor.emit_filters(monitor.extract_monitor(v)):
                assert monitor.filter_spec_from_json(monitor.filter_spec_to_json(spec)) == spec


    def test_not_json_rejected(self):
        with pytest.raises(TreePolicyError):
            monitor.filter_spec_from_json("pfff {")

    @pytest.mark.parametrize("field", ["version", "endpoint", "on_request", "on_response"])
    def test_missing_field_rejected(self, field):
        spec = monitor.extract_monitor(payment_chain_vpa())["P"]
        doc = json.loads(monitor.filter_spec_to_json(spec))
        del doc[field]
        with pytest.raises(TreePolicyError):
            monitor.filter_spec_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("endpoint", 7),
            ("on_request", {"start": "q_P"}),
            ("on_request", [["start", "q_P", None]]),
            ("on_response", [["q_P", "q_P"]]),
            ("reject", 7),
            ("reject", ["sink"]),
            # a version-1 row, an object
            ("on_request", [{"if_state": "start", "then_state": "q_P", "push_local": "q_P"}]),
            ("on_response", [["q_P", "q_P", "start", "start"]]),
        ],
    )
    def test_mistyped_field_rejected(self, field, value):
        spec = monitor.extract_monitor(payment_chain_vpa())["P"]
        doc = json.loads(monitor.filter_spec_to_json(spec))
        doc[field] = value
        with pytest.raises(TreePolicyError):
            monitor.filter_spec_from_json(json.dumps(doc))

    @pytest.mark.parametrize("version", [True, 1.0, 2.0])
    def test_version_must_be_the_integer(self, version):
        spec = monitor.extract_monitor(payment_chain_vpa())["P"]
        doc = json.loads(monitor.filter_spec_to_json(spec))
        doc["version"] = version
        with pytest.raises(TreePolicyError, match="schema version"):
            monitor.filter_spec_from_json(json.dumps(doc))

    def test_version_1_rejected(self):
        # the object rows version 1 wrote are not read
        spec = monitor.extract_monitor(payment_chain_vpa())["P"]
        doc = {
            "version": 1, "endpoint": "P", "reject": "sink",
            "on_request": [{"if_state": q, "then_state": dst, "push_local": push}
                           for q, (dst, push) in spec.on_request.items()],
            "on_response": [{"if_state": q, "if_local": g, "then_state": dst}
                            for (q, g), dst in spec.on_response.items()],
        }
        with pytest.raises(VpaParseError, match="missing or unsupported schema version"):
            monitor.filter_spec_from_json(json.dumps(doc, indent=2))

    def test_repeated_rule_key_rejected(self):
        spec = monitor.extract_monitor(payment_chain_vpa())["P"]
        doc = json.loads(monitor.filter_spec_to_json(spec))
        doc["on_request"].append([doc["on_request"][0][0], "sink", "sink"])
        with pytest.raises(TreePolicyError, match="more than once"):
            monitor.filter_spec_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field", ["on_request", "version", "endpoint"])
    def test_repeated_member_rejected(self, field):
        # json.loads alone would keep the last of the two members
        spec = monitor.extract_monitor(payment_chain_vpa())["P"]
        text = monitor.filter_spec_to_json(spec)
        doc = json.loads(text)
        other = {"on_request": [], "version": 2, "endpoint": "D"}[field]
        repeated = text.replace("\n}\n", f",\n  {json.dumps(field)}: {json.dumps(other)}\n}}\n")
        assert json.loads(repeated) == dict(doc, **{field: other})
        with pytest.raises(VpaParseError, match=f"document repeats member {field!r}"):
            monitor.filter_spec_from_json(repeated)

    def test_different_reject_states_rejected(self):
        v = payment_chain_vpa()
        texts = [monitor.filter_spec_to_json(s) for s in monitor.emit_filters(monitor.extract_monitor(v))]
        for other in ("start", None):
            doc = json.loads(texts[0])
            doc["reject"] = other
            with pytest.raises(VpaParseError, match="different reject states"):
                monitor.monitor_from_filters(
                    map(monitor.filter_spec_from_json, [json.dumps(doc), *texts[1:]]))


class TestMissingRule:
    """A rule deleted from a filter spec read back from JSON goes to the
    reject state the specs name; with none named, the missing rule is
    named, never a crash or a verdict."""

    @staticmethod
    def _without(endpoint, field, rule, keep_reject=False):
        v = payment_chain_vpa()
        texts = []
        for spec in monitor.emit_filters(monitor.extract_monitor(v)):
            doc = json.loads(monitor.filter_spec_to_json(spec))
            assert doc["reject"] == "sink"
            if not keep_reject:
                doc["reject"] = None
            if spec.endpoint == endpoint:
                kept = [r for r in doc[field] if r[:len(rule)] != list(rule)]
                assert len(kept) == len(doc[field]) - 1
                doc[field] = kept
            texts.append(json.dumps(doc))
        m = monitor.monitor_from_filters(monitor.filter_spec_from_json(t) for t in texts)
        return m, initial_configuration(v)

    def test_missing_request_rule(self):
        m, init = self._without("D", "on_request", ("q_P",))
        message = "no call rule at 'D' for state 'q_P'"
        with pytest.raises(MissingTransition, match=re.escape(message)):
            monitor.dist_run(m, init, word_from_str("<P <D D> P>"))
        # the rule is only missing where the run needs it
        assert monitor.dist_run(m, init, word_from_str("<P P>")) == init

    @pytest.mark.parametrize("trace", ["<P <D D> P>", "<P <D D>"])
    def test_missing_response_rule(self, trace):
        # in the middle of the word, and as its last symbol
        m, init = self._without("D", "on_response", ("q_D", "q_D"))
        message = "no return rule at 'D' for state 'q_D' / popped 'q_D'"
        with pytest.raises(MissingTransition, match=re.escape(message)) as err:
            monitor.dist_run(m, init, word_from_str(trace))
        assert isinstance(err.value, TreePolicyError)
        c = monitor.dist_run(m, init, word_from_str("<P <D"))
        with pytest.raises(MissingTransition, match=re.escape(message)):
            walk(m.table, c, nw.build_nested_word([nw.ret("D")]))

    @pytest.mark.parametrize("field,rule", [
        ("on_request", ("q_P",)),
        ("on_response", ("q_D", "q_D")),
    ])
    def test_deleted_rule_goes_to_reject(self, field, rule):
        m, init = self._without("D", field, rule, keep_reject=True)
        assert m.reject == "sink"
        reached = monitor.dist_run(m, init, word_from_str("<P <D D> P>"))
        assert reached == Configuration("sink", (BOTTOM,))
        assert monitor.dist_run(m, init, word_from_str("<P P>")) == init

    def test_unknown_names(self):
        v = payment_chain_vpa()
        specs = monitor.emit_filters(monitor.extract_monitor(v))
        m = monitor.monitor_from_filters(s for s in specs if s.endpoint != "P")
        # only P's rules name "start"; the others name "q_P"
        with pytest.raises(MissingTransition, match="no rules for endpoint 'P'"):
            monitor.dist_run(m, Configuration("q_P", (BOTTOM,)), word_from_str("<P P>"))
        # a state no spec names takes the reject state's step, as a
        # script's fall-through does; with no reject state it is named
        nowhere = Configuration("nowhere", (BOTTOM,))
        for known in (m, monitor.extract_monitor(v)):
            assert monitor.dist_run(known, nowhere, word_from_str("<D D>")) == Configuration("sink", (BOTTOM,))
        dense = monitor.monitor_from_filters(
            dataclasses.replace(s, reject=None) for s in specs if s.endpoint != "P")
        with pytest.raises(MissingTransition, match="no rules for 'nowhere'"):
            monitor.dist_run(dense, nowhere, word_from_str("<D D>"))

    def test_initial_state_with_only_reject_rules(self):
        # every rule of the initial state goes to the sink, so no written
        # rule names it, and the read-back table does not hold it
        v = complete_with_sink({"q"}, "q", {"q"}, ("A",), {BOTTOM}, {}, {})
        specs = monitor.emit_filters(monitor.extract_monitor(v))
        assert [(s.reject, len(s.on_request), len(s.on_response)) for s in specs] == [("sink", 0, 0)]
        m = monitor.monitor_from_filters(
            monitor.filter_spec_from_json(monitor.filter_spec_to_json(s)) for s in specs)
        assert "q" not in m.table.state_id
        init = initial_configuration(v)
        for trace in ("<A A>", "<A <A A> A>", "<A A> <A A>"):
            word = word_from_str(trace)
            assert monitor.dist_run(m, init, word) == run(v, word, init)[-1]


class TestBottomMarker:
    @pytest.mark.parametrize("where", ["rule push", "reject"])
    def test_read_back_filters_never_push_it(self, where):
        # filters whose calls push the bottom marker would end <A <B B> A>
        # away from the central run's state, so reading them back is
        # refused, as import_vpa refuses such an automaton document
        doc = parse_policy("alphabet A, B;\nstart {A}: call-seq A B;\n")
        v = compiler.compile(doc)[0].vpa
        assert final_configuration(v, word_from_str("<A <B B> A>")).state == compiler.END
        specs = monitor.emit_filters(monitor.extract_monitor(v))
        if where == "rule push":
            specs = [dataclasses.replace(s, on_request={q: (dst, BOTTOM) for q, (dst, _) in
                                                        s.on_request.items()}) for s in specs]
        else:
            specs = [dataclasses.replace(s, reject=BOTTOM) for s in specs]
        texts = [monitor.filter_spec_to_json(s) for s in specs]
        with pytest.raises(VpaParseError, match="bottom marker"):
            monitor.monitor_from_filters(map(monitor.filter_spec_from_json, texts))


class TestRepeatedEndpoint:
    def test_two_specs_for_one_endpoint_rejected(self):
        # the filter files emit-filters writes for a two-policy document
        doc = parse_policy("alphabet A, B;\nstart {A}: call-seq A B*;\nstart {B}: call-seq B;\n")
        texts = [monitor.filter_spec_to_json(spec) for art in compiler.compile(doc)
                 for spec in monitor.emit_filters(monitor.extract_monitor(art.vpa))]
        assert len(texts) == 4
        with pytest.raises(VpaParseError, match="two filter specs for endpoint 'A'"):
            monitor.monitor_from_filters(map(monitor.filter_spec_from_json, texts))


class TestRenderScript:
    def test_chain_filter_structure(self):
        mon = monitor.extract_monitor(payment_chain_vpa())
        spec = next(s for s in monitor.emit_filters(mon) if s.endpoint == "P")
        script = monitor.render_filter_script(spec)
        assert "callback OnRequest()" in script
        assert "callback OnResponse()" in script
        assert 'local on_request = {\n  ["start"] = {"q_P", "q_P"}\n}\n' in script
        assert 'local on_response = {\n  ["q_P"] = {["q_P"] = "start"}\n}\n' in script
        # the callbacks index the tables: no rule is a branch of its own
        assert "state ==" not in script.replace("state == reject", "")

    def test_sink_branch_stays_silent(self):
        mon = monitor.extract_monitor(payment_chain_vpa())
        spec = next(s for s in monitor.emit_filters(mon) if s.endpoint == "P")
        script = monitor.render_filter_script(spec)
        assert 'local reject = "sink"\n' in script
        request, response = script.split("callback OnResponse()")
        # the sink keeps a request in it without logging; only a request
        # that no rule matches moves into the sink and logs
        assert ("  if rule then state = rule[1]; local_stack = rule[2]\n"
                "  elseif state == reject then local_stack = reject\n"
                '  else state = reject; local_stack = reject; log_violation("no call transition")\n'
                ) in request
        assert ("  if rule then state = rule\n"
                '  elseif state ~= reject then state = reject; log_violation("no return transition")\n'
                ) in response
        assert script.count("log_violation") == 2

    def test_empty_rules_fall_through(self):
        spec = monitor.FilterSpec("X", {}, {})
        script = monitor.render_filter_script(spec)
        assert script.count("log_violation") == 2
        assert "local on_request = {}\nlocal on_response = {}\n" in script
        assert "reject" not in script

    def test_names_are_escaped(self):
        # names a spec read back from JSON may hold: each stays inside its
        # string literal, and the head comment stays on its line
        spec = monitor.FilterSpec("E\n-- \\x", {'q"': ('q"', "g\x00")},
                                  {('q"', "g\x00"): "r\\\"", ("r\t", "g"): 'q"'}, "r\\\"")
        spec = monitor.filter_spec_from_json(monitor.filter_spec_to_json(spec))
        script = monitor.render_filter_script(spec, header="h\r\n1\x85")
        assert script.startswith('-- traffic filter for endpoint "E\\010-- \\\\x" '
                                 '(header: "h\\013\\0101\\194\\133")\n')
        assert 'local reject = "r\\\\\\""\n' in script
        assert '  ["q\\""] = {"q\\"", "g\\000"}\n' in script
        assert all(c.isprintable() for line in script.split("\n") for c in line)
        assert ref.read_script(script) == (spec, "h\r\n1\x85")

    def test_deterministic_bytes(self):
        doc = corpus_documents("small")["data-proxy"]
        art = compiler.compile(doc)[0]
        mon = monitor.extract_monitor(art.vpa)
        first = [monitor.render_filter_script(s) for s in monitor.emit_filters(mon)]
        second = [monitor.render_filter_script(s) for s in monitor.emit_filters(mon)]
        assert first == second


def _automata():
    """The full-corpus automata and the 140 seeded random policies'."""
    for name, doc in corpus_documents("full").items():
        for art in compiler.compile(doc):
            yield f"full/{name}/{art.policy_id}", art.vpa
    yield from random_automata()


def _raw_automata():
    """The automata of ``_automata``'s policies with every declared cell of
    their constructions, before the build leaves out the unreached ones."""
    for name, doc in corpus_documents("full").items():
        for i, pol in enumerate(doc.policies):
            yield f"raw/full/{name}/pol{i}", raw_automaton(pol, doc.alphabet)
    for label, pol in random_policies():
        yield f"raw/{label}", raw_automaton(pol, RANDOM_ALPHABET)


class TestReachedCells:
    """Filters list the cells a rooted word can read, less the rules into
    the reject sink, and nothing a rooted word reads is lost."""

    def test_worklist_equals_repeated_sweeps(self):
        # on the compiled automata and on the constructions' dense tables
        for label, v in (*_automata(), *_raw_automata()):
            t = v.table
            rows = [(t.request[e], t.response[e]) for e in v.alphabet]
            calls, returns = compiler.reached_cells(t.state_id[v.initial], rows)
            got = ({(t.states[h], e) for h in calls for e in v.alphabet},
                   {(t.states[h], t.symbols[i], e)
                    for e, cells in zip(v.alphabet, returns) for h, i in cells})
            assert got == reference_reached_cells(v), label

    def test_filters_list_exactly_the_read_cells_outside_the_sink(self):
        for label, v in _automata():
            specs = monitor.emit_filters(monitor.extract_monitor(v))
            assert specs[0].reject == "rej", label
            listed = ({(q, s.endpoint): r for s in specs for q, r in s.on_request.items()},
                      {(q, g, s.endpoint): r for s in specs for (q, g), r in s.on_response.items()})
            assert listed == reference_filter_rules(v, "rej"), label

    def test_found_once_per_compile(self, monkeypatch):
        # compile_policy runs the fixpoint once; extracting, stepping and
        # writing the filters run none
        calls = []
        real = compiler.reached_cells
        monkeypatch.setattr(compiler, "reached_cells", lambda *a: calls.append(a) or real(*a))
        doc = corpus_documents("full")["data-compliance"]
        v = compiler.compile(doc)[0].vpa
        assert len(calls) == 1 and len(doc.policies) == 1
        mon = monitor.extract_monitor(v)
        word = random_rooted_word(random.Random(3), 12, doc.alphabet)
        assert monitor.dist_run(mon, initial_configuration(v), word) == run(v, word)[-1]
        texts = [monitor.filter_spec_to_json(s) for s in monitor.emit_filters(mon)]
        assert len(texts) == len(doc.alphabet)
        assert sum(len(s.on_request) + len(s.on_response) for s in mon.values()) == 334
        assert len(calls) == 1 and not hasattr(monitor, "reached_cells")

    def test_read_back_filters_step_like_the_central_run(self):
        # the written JSON read back; rooted words and their prefixes,
        # which leave calls pending
        rng = random.Random(13)
        words = 0
        for label, v in _automata():
            readback = monitor.monitor_from_filters(
                monitor.filter_spec_from_json(monitor.filter_spec_to_json(s))
                for s in monitor.emit_filters(monitor.extract_monitor(v)))
            init = initial_configuration(v)
            for _ in range(60):
                word = random_rooted_word(rng, 12, v.alphabet)
                central = run(v, word, init)
                assert monitor.dist_run(readback, init, word) == central[-1], label
                k = rng.randrange(1, len(word.symbols))
                prefix = nw.build_nested_word([a.symbol for a in word.symbols[:k]])
                assert monitor.dist_run(readback, init, prefix) == central[k], label
                words += 1
        assert words == 60 * 149

    def test_corpus_filters_are_ascii(self):
        # no filter names the bottom marker or any other non-ASCII name
        texts = [render(spec) for variant in ("small", "full")
                 for doc in corpus_documents(variant).values() for art in compiler.compile(doc)
                 for spec in monitor.emit_filters(monitor.extract_monitor(art.vpa))
                 for render in (monitor.filter_spec_to_json, monitor.render_filter_script)]
        assert len(texts) == 2 * 131
        assert all(text.isascii() for text in texts)
