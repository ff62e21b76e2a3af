"""Automaton runs, stack discipline, well-formedness, serialization."""

import dataclasses
import gc
import json
import random
import re
import tracemalloc

import pytest

from treepolicy import compiler, mesh_sim, monitor, nested_word as nw, oracle, vpa
from treepolicy.corpus import corpus_documents
from treepolicy.errors import MissingTransition, StackUnderflow, TreePolicyError, VpaParseError
from treepolicy.policy import parse_policy
from treepolicy.vpa import (
    BOTTOM,
    Configuration,
    Rules,
    Vpa,
    accepts,
    build_table,
    check_well_formed,
    export_vpa,
    final_configuration,
    import_vpa,
    initial_configuration,
    run,
    steps,
    walk,
)

from conftest import (
    chain_word,
    complete_with_sink,
    cpu_per_symbol,
    payment_chain_vpa,
    perfbench_module,
    random_rooted_word,
    two_state_vpa,
    wide_policy_text,
    word_from_str,
)
import reference as ref
from reference import call_of, reference_configurations, reference_dist_walk, reference_filter_rules
from test_compiler import random_policy
from test_golden import RANDOM_ALPHABET, RANDOM_SEEDS
from test_mesh_sim import random_topology


class TestStep:
    def test_two_state_push(self):
        v = two_state_vpa()
        c = walk(v.table, Configuration("q0", (BOTTOM,)), nw.build_nested_word([nw.call("Appt")]))
        assert c == Configuration("q1", (BOTTOM, "q0"))

    def test_two_state_pop(self):
        v = two_state_vpa()
        pop = nw.build_nested_word([nw.ret("Appt")])
        c = walk(v.table, Configuration("q1", (BOTTOM, "q0")), pop)
        assert c == Configuration("q0", (BOTTOM,))

    def test_chain_push(self):
        v = payment_chain_vpa()
        c = walk(v.table, Configuration("start", (BOTTOM,)), nw.build_nested_word([nw.call("P")]))
        assert c == Configuration("q_P", (BOTTOM, "q_P"))

    def test_underflow(self):
        v = two_state_vpa()
        with pytest.raises(StackUnderflow):
            walk(v.table, Configuration("q0", (BOTTOM,)), nw.build_nested_word([nw.ret("Appt")]))


class TestRun:
    def test_two_state_golden_run(self):
        v = two_state_vpa()
        n = word_from_str("<Appt Appt>")
        configs = run(v, n)
        assert configs == [
            Configuration("q0", (BOTTOM,)),
            Configuration("q1", (BOTTOM, "q0")),
            Configuration("q0", (BOTTOM,)),
        ]

    def test_empty_like_run_is_init(self):
        v = two_state_vpa()
        init = initial_configuration(v)
        # a run is a fold over the symbols; with none consumed it is just init
        assert run(v, word_from_str("<Appt Appt>"), init)[0] == init

    def test_chain_accepts_payment_word(self, payment_word):
        v = payment_chain_vpa()
        configs = run(v, payment_word)
        assert configs[-1] == Configuration("start", (BOTTOM,))
        assert accepts(v, payment_word)

    def test_chain_rejects_wrong_shape(self):
        v = payment_chain_vpa()
        # E directly under P: lands in the sink via completion
        assert not accepts(v, word_from_str("<P <E E> P>"))
        # D calls D instead of E
        assert not accepts(v, word_from_str("<P <D <D D> D> P>"))

    def test_stack_mirrors_matching(self):
        v = payment_chain_vpa()
        rng = random.Random(5)
        for _ in range(100):
            n = random_rooted_word(rng, 8, ("P", "D", "E"))
            configs = run(v, n)
            assert configs[-1].stack == (BOTTOM,)
            # the symbol popped at each return is the one its matched call pushed
            for a in n.symbols:
                if not a.is_call:
                    i = int(call_of(n, a.index))
                    pushed = configs[i].stack[-1]
                    popped = configs[a.index - 1].stack[-1]
                    assert pushed == popped

    def test_deterministic(self, payment_word):
        v = payment_chain_vpa()
        assert run(v, payment_word) == run(v, payment_word)

    def test_final_configuration_is_last_of_run(self):
        v = payment_chain_vpa()
        rng = random.Random(6)
        words = [random_rooted_word(rng, 8, ("P", "D", "E")) for _ in range(50)]
        words.append(chain_word(3_000, ("P", "D", "E"), closed=False))
        for n in words:
            configs = run(v, n)
            assert final_configuration(v, n) == configs[-1]
            assert final_configuration(v, n, configs[0]) == configs[-1]
            assert accepts(v, n) == (configs[-1].state in v.finals)


class TestConfiguration:
    def test_built_equals_reached(self, payment_word):
        v = payment_chain_vpa()
        configs = run(v, payment_word)
        assert configs[1] == Configuration("q_P", (BOTTOM, "q_P"))
        assert hash(configs[1]) == hash(Configuration("q_P", (BOTTOM, "q_P")))
        for c in configs:
            built = Configuration(c.state, c.stack)
            assert built == c and c == built
            assert hash(built) == hash(c)

    def test_unequal(self):
        c = Configuration("q1", (BOTTOM, "q0"))
        assert c != Configuration("q0", (BOTTOM, "q0"))
        assert c != Configuration("q1", (BOTTOM,))
        assert c != Configuration("q1", (BOTTOM, "q1"))
        assert c != Configuration("q1", (BOTTOM, "q0", "q0"))
        assert c != ("q1", (BOTTOM, "q0"))
        assert len({c, Configuration("q1", (BOTTOM, "q0")), Configuration("q1", (BOTTOM,))}) == 2

    @pytest.mark.parametrize(
        "stack", [(), ("q0",), ("q0", BOTTOM), (BOTTOM, BOTTOM), (BOTTOM, "q0", BOTTOM)]
    )
    def test_malformed_stack(self, stack):
        with pytest.raises(ValueError):
            Configuration("q0", stack)

    def test_stack_and_repr(self):
        c = Configuration("q1", (BOTTOM, "a", "b"))
        assert c.stack == (BOTTOM, "a", "b")
        assert c.top == "b" and c.below.stack == (BOTTOM, "a")
        assert repr(c) == f"Configuration(state='q1', stack=('{BOTTOM}', 'a', 'b'))"

    def test_pop_shares_the_stack_below(self):
        v = payment_chain_vpa()
        configs = run(v, word_from_str("<P <D D> P>"))
        # after <D D> the stack is the one <P left: the same cell, not a copy
        assert configs[3].below is configs[1].below


class TestDeepRuns:
    def test_hundred_thousand_deep_chain(self):
        art = compiler.compile(corpus_documents("small")["data-compliance"])[0]
        depth = 100_000
        word = chain_word(depth, art.vpa.alphabet, closed=False)
        configs = run(art.vpa, word)
        deepest = configs[-1]
        assert len(deepest.stack) == depth + 1
        built = Configuration(deepest.state, deepest.stack)
        assert built == deepest and hash(built) == hash(deepest)
        assert configs[-2] != deepest
        del configs, deepest, built
        gc.collect()
        # the closed chain runs back down to the bottom marker
        assert run(art.vpa, chain_word(depth, art.vpa.alphabet))[-1].stack == (BOTTOM,)

    def test_time_is_linear_in_depth(self):
        art = compiler.compile(corpus_documents("small")["data-compliance"])[0]
        shallow = chain_word(2_000, art.vpa.alphabet)
        deep = chain_word(32_000, art.vpa.alphabet)
        go = lambda word: run(art.vpa, word)  # noqa: E731
        ratio = cpu_per_symbol(go, deep, 2) / cpu_per_symbol(go, shallow, 10)
        # an O(depth) step makes this about 16
        assert ratio < 4, ratio


    def test_verdict_memory_is_linear_in_depth(self):
        art = compiler.compile(corpus_documents("small")["data-compliance"])[0]
        alpha = art.vpa.alphabet
        # a root with 99,999 leaf children: 100,000 calls, nesting depth 2
        events = [nw.call(alpha[0])]
        for i in range(99_999):
            x = alpha[i % len(alpha)]
            events += (nw.call(x), nw.ret(x))
        events.append(nw.ret(alpha[0]))
        word = nw.build_nested_word(events)
        del events
        tracemalloc.start()
        try:
            verdict = accepts(art.vpa, word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # keeping every configuration, as run does, takes over 10 MB here
        assert peak < 1_000_000, peak
        assert verdict == (run(art.vpa, word)[-1].state in art.vpa.finals)


class TestRunSequence:
    def test_sequence_contract(self, payment_word):
        v = payment_chain_vpa()
        init = initial_configuration(v)
        want = [init, *reference_configurations(v, init, [a.symbol for a in payment_word.symbols])]
        configs = run(v, payment_word, init)
        assert len(configs) == len(payment_word) + 1 == len(want)
        assert configs[0] == init and configs[-1] == want[-1]
        for i in range(-len(want), len(want)):
            assert configs[i] == want[i]
        with pytest.raises(IndexError):
            configs[len(want)]
        assert list(configs) == want and [*iter(configs)] == want
        assert configs == want and want == configs and configs[2:5] == want[2:5]
        assert configs != want[:-1] and configs != tuple(want)
        assert run(v, payment_word) == run(v, payment_word)
        assert run(v, payment_word) != run(v, word_from_str("<P P>"))

    def test_last_is_computed_without_the_others(self):
        art = compiler.compile(corpus_documents("small")["data-compliance"])[0]
        word = chain_word(100_000, art.vpa.alphabet)
        run(art.vpa, word_from_str(f"<{art.vpa.alphabet[0]} {art.vpa.alphabet[0]}>"))  # the table
        gc.collect()
        tracemalloc.start()
        try:
            last = run(art.vpa, word)[-1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # keeping all 200,001 configurations takes over 10 MB here
        assert peak < 2_000_000, peak
        assert last == final_configuration(art.vpa, word) and last.stack == (BOTTOM,)


def _both_corpora():
    for variant in ("small", "full"):
        for name, doc in corpus_documents(variant).items():
            for art in compiler.compile(doc):
                yield f"{variant}/{name}/{art.policy_id}", doc.alphabet, art.vpa


class TestTableWalk:
    """Every run over the integer table against the string-dict reference."""

    @staticmethod
    def _readback(v):
        specs = monitor.emit_filters(monitor.extract_monitor(v))
        return monitor.monitor_from_filters(
            monitor.filter_spec_from_json(monitor.filter_spec_to_json(s)) for s in specs
        )

    def _agree(self, v, readback, init, events):
        word = nw.build_nested_word(events)
        want = [init, *reference_configurations(v, init, events)]
        assert final_configuration(v, word, init) == want[-1]
        assert run(v, word, init) == want
        assert monitor.dist_run(readback, init, word) == want[-1]
        assert reference_dist_walk(readback, init, events) == want[-1]
        for c, a, after in zip(want, events, want[1:]):
            assert walk(v.table, c, nw.build_nested_word([a])) == after
            assert walk(readback.table, c, nw.build_nested_word([a])) == after

    @pytest.mark.parametrize("seed", [0, 1])
    def test_corpora_agree_with_the_reference(self, seed):
        rng = random.Random(seed)
        for label, alphabet, v in _both_corpora():
            readback = self._readback(v)
            assert readback.table == v.table, label
            init = initial_configuration(v)
            for _ in range(6):
                events = [a.symbol for a in random_rooted_word(rng, 12, alphabet).symbols]
                k = rng.randrange(1, len(events))
                # rooted; pending calls; a non-bottom initial stack
                self._agree(v, readback, init, events)
                self._agree(v, readback, init, events[:k])
                middle = list(reference_configurations(v, init, events[:k]))[-1]
                self._agree(v, readback, middle, events[k:])
                # orphan returns: the suffix closes the root, which it lacks
                suffix = nw.build_nested_word(events[k:])
                for go in (
                    lambda: final_configuration(v, suffix, init),
                    lambda: run(v, suffix, init),
                    lambda: monitor.dist_run(readback, init, suffix),
                    lambda: list(reference_configurations(v, init, events[k:])),
                    lambda: reference_dist_walk(readback, init, events[k:]),
                ):
                    with pytest.raises(StackUnderflow):
                        go()


class TestCodedWalk:
    """``walk`` steps a word's codes and ends where the checked ``steps``
    over the word's symbols ends, or raises the fault ``steps`` names,
    whichever builder made the word and whichever table it steps."""

    @staticmethod
    def _agree(t, c, word):
        try:
            want = [c, *steps(t, c, word.symbols)][-1]
        except TreePolicyError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                walk(t, c, word)
        else:
            assert walk(t, c, word) == want

    @staticmethod
    def _words(rng, art, alphabet):
        """Words over the alphabet from each builder: ``build_nested_word``,
        ``enumerate_rooted``, a mesh-sim request in both modes, a word
        coded over the alphabet reversed, and a slice, the last with
        pending calls or orphan returns too."""
        words = [random_rooted_word(rng, 10, alphabet) for _ in range(2)]
        words += rng.sample(list(nw.enumerate_rooted(alphabet, 2)), 3)
        topo = random_topology(rng, alphabet, max_nodes=30)
        filters = [mesh_sim.build_filter_set(art)]
        for mode in (mesh_sim.MODE_LOG, mesh_sim.MODE_EARLY_BLOCK):
            words.append(mesh_sim.execute_request(topo, topo.entrypoints[0], filters, mode=mode).word)
        w = words[0]
        i = rng.randrange(1, len(w))
        words += [ref.recode(w, alphabet[::-1]), ref.sub_word(w, i, rng.randint(i + 1, len(w)))]
        return words

    def test_walk_equals_the_checked_steps(self):
        rng = random.Random(25)
        arts = [(doc.alphabet, a) for variant in ("small", "full")
                for doc in corpus_documents(variant).values() for a in compiler.compile(doc)]
        arts += [(RANDOM_ALPHABET, compiler.compile_policy(pol, RANDOM_ALPHABET))
                 for _, pol in random_policies()]
        assert len(arts) == 158
        for alphabet, art in arts:
            v = art.vpa
            readback = TestTableWalk._readback(v)
            init = initial_configuration(v)
            for word in self._words(rng, art, alphabet):
                # every builder fills codes and partners only
                assert word._symbols is None
                # from the initial configuration and from one with open calls
                opened = final_configuration(v, random_rooted_word(rng, 4, alphabet), init)
                opened = final_configuration(v, nw.build_nested_word([nw.call(alphabet[0])]), opened)
                for t in (v.table, readback.table):
                    self._agree(t, init, word)
                    self._agree(t, opened, word)

    # a table over A alone, with one call rule, and the faults its walks meet
    FAULTS = [
        ("<A <Z Z> A>", MissingTransition, "no rules for endpoint 'Z'"),
        ("<A A>", MissingTransition, "no return rule at 'A' for state 'q1' / popped 'q0'"),
        ("<A <A A> A>", MissingTransition, "no call rule at 'A' for state 'q1'"),
        ("A>", StackUnderflow, "return from 'A' with empty stack in state 'q0'"),
    ]

    @staticmethod
    def _faulty_table():
        t = build_table({"q0", "q1"}, {BOTTOM, "q0"}, ("A",), {("q0", "A"): ("q1", "q0")}, {})
        return t, Configuration("q0", (BOTTOM,))

    def test_faults_keep_their_messages(self):
        def kinds(text):
            w = word_from_str(text)
            # recoded over an endpoint the table lacks, the walk's rows fail
            # at once, and the replay still names the word's own fault
            return [w, ref.recode(w, ("Y", "Z", "A"))] + [
                x for x in nw.enumerate_rooted(("A", "Z"), 2) if x == w]

        t, init = self._faulty_table()
        for text, fault, message in self.FAULTS:
            words = kinds(text)
            assert len(words) == (2 if text == "A>" else 3)
            for word in words:
                with pytest.raises(fault, match=re.escape(message)):
                    walk(t, init, word)
        # an enumerated word's coding lists the whole alphabet; the table
        # lacks Z, which only the words that read Z run into
        v = two_state_vpa()
        for word in nw.enumerate_rooted(("Appt", "Z"), 2):
            self._agree(v.table, initial_configuration(v), word)

    def test_fast_paths_build_no_symbols(self):
        # a word's symbols are made on their first read; no run, no
        # rootedness check, no oracle verdict and no request reads them
        rng = random.Random(27)
        for variant in ("small", "full"):
            for doc in corpus_documents(variant).values():
                art = compiler.compile(doc)[0]
                v, alphabet = art.vpa, doc.alphabet
                readback = TestTableWalk._readback(v)
                init = initial_configuration(v)
                topo = random_topology(rng, alphabet, max_nodes=30)
                filters = [mesh_sim.build_filter_set(art)]
                words = [random_rooted_word(rng, 8, alphabet), *nw.enumerate_rooted(alphabet[:2], 2)]
                for mode in (mesh_sim.MODE_LOG, mesh_sim.MODE_EARLY_BLOCK):
                    words.append(mesh_sim.execute_request(
                        topo, topo.entrypoints[0], filters, mode=mode).word)
                for word in words:
                    assert len(word) >= 2 and word.is_rooted()
                    last = run(v, word)[-1]
                    assert last == final_configuration(v, word) == monitor.dist_run(readback, init, word)
                    oracle.sat_policy(word, doc.policies[0], alphabet)
                    assert word._symbols is None
        # a fault sends the walk to the checked replay, which reads the
        # symbols to name it
        t, init = self._faulty_table()
        for text, fault, message in self.FAULTS:
            word = word_from_str(text)
            with pytest.raises(fault, match=re.escape(message)):
                walk(t, init, word)
            assert word._symbols is not None


def random_policies():
    """The 140 seeded random policies the compiler tests draw."""
    for seed, count in RANDOM_SEEDS.items():
        rng = random.Random(seed)
        for i in range(count):
            yield f"random/{seed}/{i}", random_policy(rng, RANDOM_ALPHABET, depth_budget=4)


def random_automata():
    """The automata of ``random_policies``."""
    for label, pol in random_policies():
        yield label, compiler.compile_policy(pol, RANDOM_ALPHABET).vpa


class TestDefaultReject:
    """The written artifacts leave out the rules into the declared reject
    state, and every reader fills them back: the in-memory automaton stays
    complete.  A compiled automaton declares ``rej``, the only sink it has,
    and holds its rule at every cell no rooted word reads, so its artifacts
    list exactly the cells a rooted word reads outside that rule."""

    def test_declared_reject_is_the_only_sink(self):
        # a compiled automaton declares rej, and a scan of its rules finds
        # no other sink: no rooted word pops the bottom marker, so the
        # (X, bottom) return cell of a state X is never reached and keeps
        # rej's rule, and no state but rej keeps every one of its rules
        inputs = perfbench_module("inputs")
        texts = [text for seed in range(1, 14) for _, text in inputs.compile_set(seed)]
        texts.append(inputs.union_document())
        automata = [v for _, _, v in _both_corpora()] + [v for _, v in random_automata()]
        automata += [art.vpa for text in texts for art in compiler.compile(parse_policy(text))]
        assert len(automata) == 492
        for v in automata:
            assert v.table.reject == v.sink == ref.reference_sink(v) == "rej"

    def test_artifacts_fill_back(self):
        automata = [(label, v) for label, _, v in _both_corpora()] + list(random_automata())
        assert len(automata) == 158
        for label, v in automata:
            sink = v.sink
            assert sink == "rej", label
            text = export_vpa(v, "json")
            assert import_vpa(text) == v, label
            doc = json.loads(text)
            filters = [json.loads(monitor.filter_spec_to_json(spec))
                       for spec in monitor.emit_filters(monitor.extract_monitor(v))]
            readback = monitor.monitor_from_filters(
                monitor.filter_spec_from_json(json.dumps(f)) for f in filters)
            assert readback.table == v.table, label
            # no written rule enters the sink; every other cell is written
            calls, returns = doc["delta_call"], doc["delta_return"]
            requests = [r for f in filters for r in f["on_request"]]
            responses = [r for f in filters for r in f["on_response"]]
            assert sink not in {r["to"] for r in calls + returns}, label
            assert sink not in {r["then_state"] for r in requests + responses}, label
            explicit_calls = sum(r != (sink, sink) for r in ref.delta_call(v).values())
            explicit_returns = sum(r != sink for r in ref.delta_return(v).values())
            assert len(calls) == explicit_calls and len(returns) == explicit_returns, label
            listed_calls, listed_returns = reference_filter_rules(v, sink)
            assert (len(requests), len(responses)) == (len(listed_calls), len(listed_returns)), label

    def test_documents_list_the_read_cells(self):
        # the automaton document lists the rules filters list (TestReachedCells):
        # those at the cells a rooted word can read, outside the sink's rule
        automata = [(label, v) for label, _, v in _both_corpora()] + list(random_automata())
        assert len(automata) == 158
        for label, v in automata:
            doc = json.loads(export_vpa(v, "json"))
            written = ({(r["from"], r["sym"]): (r["to"], r["push"]) for r in doc["delta_call"]},
                       {(r["from"], r["pop"], r["sym"]): r["to"] for r in doc["delta_return"]})
            assert written == reference_filter_rules(v, "rej"), label

    def test_no_sink(self):
        # an automaton that declares no reject state is written in full
        v = Vpa.from_rules({"q"}, "q", {"q"}, ("E",), {BOTTOM, "q"},
                           {("q", "E"): ("q", "q")}, {("q", g, "E"): "q" for g in (BOTTOM, "q")})
        assert v.sink is None
        doc = json.loads(export_vpa(v, "json"))
        assert doc["reject"] is None and len(doc["delta_return"]) == 2
        spec = monitor.extract_monitor(v)["E"]
        assert spec.reject is None and len(spec.on_request) == 1 and len(spec.on_response) == 2
        assert import_vpa(export_vpa(v, "json")) == v


class TestWellFormed:
    def test_sink_completed_passes(self):
        assert check_well_formed(two_state_vpa()).ok
        assert check_well_formed(payment_chain_vpa()).ok

    def test_missing_call_reported(self):
        v = two_state_vpa()
        delta_call = dict(ref.delta_call(v))
        del delta_call[("q1", "Appt")]
        missing = re.escape("missing call transition ('q1', 'Appt')")
        with pytest.raises(VpaParseError, match=missing):
            Vpa.from_rules(v.states, v.initial, v.finals, v.alphabet, v.stack_alphabet,
                           delta_call, ref.delta_return(v))
        # the same hole in a table, as check_well_formed sees it
        t = v.table
        row = list(t.request["Appt"])
        row[t.state_id["q1"]] = None
        broken = dataclasses.replace(v, table=t._replace(request={"Appt": tuple(row)}))
        report = check_well_formed(broken)
        assert not report.ok
        assert any("('q1', 'Appt')" in p for p in report.problems)

    def test_rules_outside_the_alphabets_reported(self):
        v = two_state_vpa()
        delta_call = {**ref.delta_call(v), ("q0", "Zed"): ("q1", "q0")}
        delta_return = {
            **ref.delta_return(v), ("q1", "q0", "Zed"): "q0", ("q1", "nowhere", "Appt"): "q0",
        }
        with pytest.raises(VpaParseError) as err:
            Vpa.from_rules(v.states, v.initial, v.finals, v.alphabet, v.stack_alphabet,
                           delta_call, delta_return)
        problems = (
            "call transition ('q0', 'Zed') reads unknown endpoint 'Zed'",
            "return transition ('q1', 'q0', 'Zed') reads unknown endpoint 'Zed'",
            "return transition ('q1', 'nowhere', 'Appt') pops unknown symbol 'nowhere'",
        )
        assert str(err.value) == "ill-formed automaton: " + "; ".join(problems)

    def test_bottom_push_reported(self):
        v = two_state_vpa()
        delta_call = dict(ref.delta_call(v))
        delta_call[("q0", "Appt")] = ("q1", BOTTOM)
        with pytest.raises(VpaParseError, match="pushes the bottom marker"):
            Vpa.from_rules(v.states, v.initial, v.finals, v.alphabet, v.stack_alphabet,
                           delta_call, ref.delta_return(v))


class TestOneStore:
    """The table is the automaton's only rule store; ``Vpa.rules`` is the
    one listing of it, which filter specs and writers share."""

    def test_no_rule_dict_fields(self):
        names = [f.name for f in dataclasses.fields(Vpa)]
        assert names == ["states", "initial", "finals", "alphabet", "stack_alphabet", "table"]
        assert not [n for n in names if n.startswith("delta_")]

    def test_rule_order_does_not_matter(self):
        v = payment_chain_vpa()
        calls, returns = list(ref.delta_call(v).items()), list(ref.delta_return(v).items())
        w = Vpa.from_rules(v.states, v.initial, v.finals, v.alphabet, v.stack_alphabet,
                           dict(reversed(calls)), dict(reversed(returns)), v.sink)
        assert list(ref.delta_call(w).items()) == calls
        assert w == v and w.table == v.table
        u = complete_with_sink(
            {"q0", "q1"}, "q0", {"q0"}, ("Appt",), {BOTTOM, "q0"},
            {("q0", "Appt"): ("q1", "q0")}, {("q1", "q0", "Appt"): "q0"})
        assert u == two_state_vpa() and u.table == two_state_vpa().table

    def test_listing_made_once_and_held_by_every_spec_of_a_class(self, monkeypatch):
        # compiling, writing JSON and DOT, extracting the filters and
        # writing each one's JSON and script read the table's rules once:
        # one pair of ``Rules`` per distinct pair of rows, which every spec
        # of that endpoint class holds
        made = []

        class Counted(Rules):
            def __init__(self, rules):
                made.append(self)
                super().__init__(rules)

        monkeypatch.setattr(vpa, "Rules", Counted)
        compilations = [(f"{variant}/{name}", lambda doc=doc: compiler.compile(doc))
                        for variant in ("small", "full")
                        for name, doc in corpus_documents(variant).items()]
        compilations += [(label, lambda pol=pol: [compiler.compile_policy(pol, RANDOM_ALPHABET)])
                         for label, pol in random_policies()]
        automata = 0
        for label, compile_ in compilations:
            made.clear()
            listed = []
            for art in compile_():
                v, automata = art.vpa, automata + 1
                export_vpa(v, "json"), export_vpa(v, "dot")
                for spec in monitor.emit_filters(monitor.extract_monitor(v)):
                    monitor.filter_spec_to_json(spec), monitor.render_filter_script(spec)
                    request, response = v.rules[spec.endpoint]
                    assert spec.on_request is request and spec.on_response is response, label
                t = v.table
                classes = {(id(t.request[e]), id(t.response[e])) for e in v.alphabet}
                pairs = {id(pair): pair for pair in v.rules.values()}.values()
                assert len(pairs) == len(classes), label
                listed += [r for pair in pairs for r in pair]
            assert sorted(map(id, made)) == sorted(map(id, listed)), label
        assert automata == 158

    def test_json_lists_the_complete_rules(self):
        automata = [(label, v) for label, _, v in _both_corpora()] + list(random_automata())
        assert len(automata) == 158
        for label, v in automata:
            text = export_vpa(v, "json")
            assert import_vpa(text) == v, label
            doc = json.loads(text)
            r = doc["reject"]
            calls = {(q, e): (r, r) for q in doc["states"] for e in doc["alphabet"]}
            calls.update(((c["from"], c["sym"]), (c["to"], c["push"])) for c in doc["delta_call"])
            returns = {(q, g, e): r for q in doc["states"] for g in doc["stack_alphabet"]
                       for e in doc["alphabet"]}
            returns.update(((c["from"], c["pop"], c["sym"]), c["to"]) for c in doc["delta_return"])
            assert dict(ref.delta_call(v)) == calls, label
            assert dict(ref.delta_return(v)) == returns, label
            assert (len(ref.delta_call(v)) == len(calls)
                    and len(ref.delta_return(v)) == len(returns)), label


class TestSerialization:
    def test_json_round_trip(self):
        for v in (two_state_vpa(), payment_chain_vpa()):
            assert import_vpa(export_vpa(v, "json")) == v

    def test_version_required(self):
        v = two_state_vpa()
        text = export_vpa(v, "json").replace('"version": 1,', "")
        with pytest.raises(VpaParseError):
            import_vpa(text)

    def test_not_json(self):
        with pytest.raises(VpaParseError):
            import_vpa("pfff {")

    @pytest.mark.parametrize("version", [True, 1.0, "1", None])
    def test_version_must_be_the_integer(self, version):
        doc = json.loads(export_vpa(two_state_vpa(), "json"))
        doc["version"] = version
        with pytest.raises(VpaParseError, match="schema version"):
            import_vpa(json.dumps(doc))

    @pytest.mark.parametrize(
        "field,row",
        [
            ("delta_call", {"from": "q0", "sym": "Zed", "to": "q1", "push": "q0"}),
            ("delta_return", {"from": "q1", "pop": "q0", "sym": "Zed", "to": "q0"}),
            ("delta_return", {"from": "q1", "pop": "nowhere", "sym": "Appt", "to": "q0"}),
        ],
    )
    def test_rule_outside_the_alphabets_rejected_at_load(self, field, row):
        # such a rule once loaded, and extract_monitor then raised KeyError
        doc = json.loads(export_vpa(two_state_vpa(), "json"))
        doc[field].append(row)
        with pytest.raises(VpaParseError, match="unknown (endpoint|symbol)"):
            import_vpa(json.dumps(doc))

    def test_ill_formed_rejected_at_load(self):
        # without a reject state, a rule the document leaves out is missing
        doc = json.loads(export_vpa(two_state_vpa(), "json"))
        doc["reject"] = None
        dropped = doc["delta_call"].pop(0)
        with pytest.raises(VpaParseError, match="missing call transition") as err:
            import_vpa(json.dumps(doc))
        assert repr(dropped["from"]) in str(err.value)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("states", "q0"),
            ("initial", ["q0"]),
            ("finals", [1]),
            ("delta_call", [{"from": "q0", "sym": "Appt", "to": "q1"}]),
            ("delta_return", [["q1", "q0", "Appt", "q0"]]),
        ],
    )
    def test_mistyped_field_rejected(self, field, value):
        doc = json.loads(export_vpa(two_state_vpa(), "json"))
        doc[field] = value
        with pytest.raises(VpaParseError):
            import_vpa(json.dumps(doc))

    def test_repeated_transition_key_rejected(self):
        doc = json.loads(export_vpa(two_state_vpa(), "json"))
        doc["delta_call"].append(dict(doc["delta_call"][0], to="sink"))
        with pytest.raises(VpaParseError, match="more than once"):
            import_vpa(json.dumps(doc))

    def test_repeated_alphabet_name_rejected(self):
        v = two_state_vpa()
        repeated = dataclasses.replace(v, alphabet=("Appt", "Appt"))
        assert check_well_formed(repeated).problems == ("alphabet names 'Appt' more than once",)
        doc = json.loads(export_vpa(v, "json"))
        doc["alphabet"] = ["Appt", "Appt"]
        with pytest.raises(VpaParseError, match="alphabet names 'Appt' more than once"):
            import_vpa(json.dumps(doc))

    def test_dot_labels(self):
        dot = export_vpa(two_state_vpa(), "dot")
        assert '"call Appt / q0"' in dot
        assert '"ret Appt, q0"' in dot
        # finals render doubled
        assert '"q0" [shape=doublecircle];' in dot
        assert '"q1" [shape=circle];' in dot

    @pytest.mark.parametrize("reject,message", [
        (7, "reject must be a string or null"),
        (["sink"], "reject must be a string or null"),
        ("nowhere", "reject state 'nowhere' is not declared"),
        ("q0", "reject state 'q0' is final"),
        ("q1", "reject state 'q1' is not in the stack alphabet"),
    ])
    def test_bad_reject_rejected_at_load(self, reject, message):
        doc = json.loads(export_vpa(two_state_vpa(), "json"))
        assert doc["reject"] == "sink"
        doc["reject"] = reject
        with pytest.raises(VpaParseError, match=re.escape(message)):
            import_vpa(json.dumps(doc))

    @pytest.mark.parametrize("reject", [None, "sink"])
    def test_dense_document_reads_the_same(self, reject):
        # every rule listed, as documents without a reject state hold them:
        # with or without the member, the cells are the ones written, and
        # without it the automaton declares no reject and lists every rule
        v = payment_chain_vpa()
        doc = json.loads(export_vpa(v, "json"))
        del doc["reject"]
        if reject is not None:
            doc["reject"] = reject
        doc["delta_call"] = [{"from": q, "sym": e, "to": q2, "push": g}
                             for (q, e), (q2, g) in sorted(ref.delta_call(v).items())]
        doc["delta_return"] = [{"from": q, "pop": g, "sym": e, "to": q2}
                               for (q, g, e), q2 in sorted(ref.delta_return(v).items())]
        w = import_vpa(json.dumps(doc))
        assert w.table._replace(reject=v.sink) == v.table and w.sink == reject
        if reject is None:
            assert json.loads(export_vpa(w, "json")) == dict(doc, reject=None)
        else:
            assert w == v

    def test_json_export_memory(self):
        # 2,000 endpoints keep the JSON over 1 MB with the reject sink's
        # rules left out; the automaton's table is built at compile time,
        # so the peak counts the export alone
        v = compiler.compile(parse_policy(wide_policy_text(2000)))[0].vpa
        tracemalloc.start()
        try:
            text = export_vpa(v, "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one dict per row through json.dumps(indent=2) peaked at 13.3 MB
        assert len(text) > 1_000_000
        assert peak < 8_000_000, peak

    def test_json_deterministic(self):
        v = payment_chain_vpa()
        assert export_vpa(v, "json") == export_vpa(v, "json")
