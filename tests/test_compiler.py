"""Construction-by-construction differential tests against the semantics,
plus structural invariants and the analytic state bound."""

import functools
import gc
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepolicy import compiler, nested_word as nw, oracle, regex as rx
from treepolicy.corpus import corpus_documents
from treepolicy.errors import EpsilonMatchRegex
from treepolicy.monitor import extract_monitor
from treepolicy.policy import (
    AllChildren,
    AllPath,
    CallSeq,
    ExistsChild,
    Policy,
    depth,
    endpoint_classes,
    fanout,
    header_bits,
    parse_policy,
    start_anchor_regex,
)
from treepolicy.vpa import BOTTOM, accepts, check_well_formed, run

from conftest import random_rooted_word, raw_automaton, raw_construction, word_from_str
import reference as ref
from reference import (
    callseq_reject_states, dense_automaton, matches, reference_build, reference_reached_cells,
)
from test_regex import random_regex


# compile_policy's artifacts, kept for the tests that read the same policies
compiled = functools.cache(compiler.compile_policy)


def assert_matches_oracle(vpa, sat, alphabet, max_calls=5, ctx=""):
    for word in nw.enumerate_rooted(alphabet, max_calls):
        want = sat(word)
        got = accepts(vpa, word)
        assert want == got, (ctx, [(a.tag, a.endpoint) for a in word.symbols], want, got)


def inner_of(text):
    return parse_policy(text).policies[0].inner


def counting(c):
    """``c``, its ``call`` and ``ret`` recording each cell they compute."""
    computed = []
    call, ret = c.call, c.ret
    c.call = lambda e, q: computed.append((q, e)) or call(e, q)
    c.ret = lambda e, g, q: computed.append((q, g, e)) or ret(e, g, q)
    return c, computed


class TestBuild:
    """``build``'s contract: it computes the cells a rooted word can read,
    each once and no other, and gives every other cell the reject sink's
    rule."""

    def test_unwritten_keys_complete_to_reject(self):
        # call-seq of A over A, B: the DFA's initial state a0 is never entered,
        # since beg steps the DFA from it
        alpha = ("A", "B")
        c = compiler.SeqConstruction(rx.to_dfa(rx.Symbol("A"), alpha))
        v = compiler.build(c)
        beg, end, rej = compiler.BEG, compiler.END, compiler.REJ
        assert c.states == {beg, end, rej, "a0", "a1", "a2"}
        assert v.states == {beg, end, rej, "a1", "a2"}
        assert v.stack_alphabet == {BOTTOM, beg, rej, "a1", "a2"}
        assert ref.delta_call(v)[(beg, "A")] == ("a1", beg)
        assert ref.delta_return(v)[("a1", beg, "A")] == end
        assert ref.delta_return(v)[("a2", beg, "A")] == rej
        # read by no rooted word: the sink's rule
        assert ref.delta_call(v)[(end, "A")] == (rej, rej)
        assert ref.delta_return(v)[("a1", rej, "B")] == rej
        assert ref.delta_return(v)[("a1", BOTTOM, "A")] == rej
        assert len(ref.delta_call(v)) == 5 * 2 and len(ref.delta_return(v)) == 5 * 5 * 2
        assert accepts(v, word_from_str("<A A>")) and not accepts(v, word_from_str("<B B>"))

    def test_only_reached_cells_are_computed(self):
        for pol, alphabet in TestEndpointClasses().policies():
            c, computed = counting(raw_construction(pol, alphabet))
            compiler.build(c)
            dense = dense_automaton(raw_construction(pol, alphabet))
            calls, returns = reference_reached_cells(dense)
            assert len(computed) == len(set(computed)), pol
            assert set(computed) == calls | returns, pol

    def test_build_equals_the_dense_cells_it_reaches(self):
        # the build over every name, and compile_policy's over the classes
        for pol, alphabet in TestEndpointClasses().policies():
            want = reference_build(dense_automaton(raw_construction(pol, alphabet)))
            assert compiler.build(raw_construction(pol, alphabet)) == want, pol
            assert compiled(pol, alphabet).vpa == want, pol

    def test_embedded_cells_are_the_sub_constructions(self):
        # an embedded state's cells are its sub-construction's, renamed, but
        # that its final state calls as the next initial state, and a return
        # popping the begin marker into a state other than the final one
        # resets: all-children rejects, exists-child retries the sub-policy
        beg, end = compiler.BEG, compiler.END
        alpha = ("T", "O", "L")
        d = rx.to_dfa(rx.parse_regex("T", alpha), alpha)
        subs = [compiler.compile_inner(inner_of(f"alphabet T, O, L;\nstart {{T}}: {text};\n"),
                                       alpha)[0]
                for text in ("match (O) all-children (match (L) all-path (eps))",
                             "match (L) all-path (star)")]
        # (construction, [(prefix, sub, reset, next prefix, returns from the final state)])
        cases = [(compiler.AllChildrenConstruction(d, subs[0]),
                  [("c.", subs[0], compiler.REJ, "c.", False)]),
                 (compiler.ExistsConstruction(d, subs),
                  [("c1.", subs[0], "c1.beg", "c2.", True),
                   ("c2.", subs[1], "c2.beg", None, True)])]
        for c, embedded in cases:
            for prefix, sub, reset, after, from_end in embedded:
                assert {prefix + q for q in sub.states} <= c.states
                assert {prefix + g for g in sub.symbols - {BOTTOM}} <= c.symbols
                for e, q in itertools.product(alpha, sub.states):
                    dst, push = sub.call(e, q)
                    if q != end:
                        assert c.call(e, prefix + q) == (prefix + dst, prefix + push)
                    elif after is not None:
                        assert c.call(e, prefix + q) == c.call(e, after + beg)
                    for g in sub.symbols - {BOTTOM} if q != end or from_end else ():
                        t = sub.ret(e, g, q)
                        want = prefix + t if g != beg or t == end else reset
                        assert c.ret(e, prefix + g, prefix + q) == want, (prefix, q, g, e)


def nested_exists_document(k: int, names=("A", "B", "C")) -> str:
    """``P = match (star B) all-path (star)`` with P replaced ``k`` times by
    ``match (A) exists-child (P) then (P)``, under ``start {A}``: the states
    double with each level, and the cells of a dense table quadruple."""
    a, b, c = names
    p = f"match (star {b}) all-path (star)"
    for _ in range(k):
        p = f"match ({a}) exists-child ({p}) then ({p})"
    return f"alphabet {a}, {b}, {c};\nstart {{{a}}}: {p};\n"


class TestNestedExists:
    """A small document whose dense table is large: the build's cost must
    follow the states it keeps, not the dense table's cells."""

    def test_cells_computed_grow_linearly_in_the_states(self):
        ratios = []
        for k in range(3, 7):
            pol = parse_policy(nested_exists_document(k)).policies[0]
            c, computed = counting(raw_construction(pol, ("A", "B", "C")))
            v = compiler.build(c)
            assert v == compiler.compile_policy(pol, ("A", "B", "C")).vpa
            ratios.append(len(computed) / len(v.states))
        # 92, 188, 380 and 764 states; 551 to 4,527 cells computed, against
        # 15,180 to 1,024,524 return cells in the dense pruned tables
        assert max(ratios) < 6.5 and max(ratios) <= 1.1 * min(ratios), ratios

    def test_six_levels_compile_small_and_fast(self):
        # each compile reads fresh names, so that it builds its own DFAs
        docs = [parse_policy(nested_exists_document(6, (f"A{i}", f"B{i}", f"C{i}")))
                for i in range(4)]
        best = float("inf")
        collecting = gc.isenabled()
        gc.disable()
        try:
            for doc in docs[:3]:
                t0 = time.process_time()
                art = compiler.compile(doc)[0]
                best = min(best, time.process_time() - t0)
        finally:
            if collecting:
                gc.enable()
        assert art.metrics.state_count == 764
        assert best < 0.2, best  # 1.28 s when every dense cell was written
        tracemalloc.start()
        try:
            compiler.compile(docs[3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 34e6, peak  # 68.7 MB when every dense cell was written


class TestCallSeq:
    def test_singleton_sequence(self):
        v = compiler.build(compiler.SeqConstruction(rx.to_dfa(rx.Symbol("A"), ("A",))))
        assert accepts(v, word_from_str("<A A>"))
        assert not accepts(v, word_from_str("<A <A A> A>"))

    def test_accepts_payment_sequence(self, payment_word):
        reg = rx.parse_regex("P star D star", ("P", "D", "E"))
        v = compiler.build(compiler.SeqConstruction(rx.to_dfa(reg, ("P", "D", "E"))))
        assert accepts(v, payment_word)

    def test_state_count(self):
        reg = rx.parse_regex("A B*", ("A", "B"))
        d = rx.to_dfa(reg, ("A", "B"))
        assert len(compiler.SeqConstruction(d).states) == d.n_states + 3

    def test_exhaustive_oracle_agreement(self):
        rng = random.Random(101)
        alpha = ("A", "B")
        for i in range(20):
            reg = random_regex(rng, alpha, depth=3)
            v = compiler.build(compiler.SeqConstruction(rx.to_dfa(reg, alpha)))
            assert check_well_formed(v).ok
            sat = lambda word: matches(
                reg, tuple(a.endpoint for a in word.symbols if a.is_call), alpha)
            assert_matches_oracle(v, sat, alpha, max_calls=5, ctx=f"callseq #{i}")


class TestAllPath:
    def test_epsilon_match_rejected(self):
        with pytest.raises(EpsilonMatchRegex):
            compiler.AllPathConstruction(
                rx.to_dfa(rx.Star(rx.Symbol("A")), ("A",)), rx.to_dfa(rx.EPSILON, ("A",))
            )

    def test_payment_subtree(self, payment_word):
        alpha = ("P", "D", "E")
        reg1 = rx.parse_regex("P {D}", alpha)
        reg2 = rx.parse_regex("{E} star", alpha)
        d1, d2 = rx.to_dfa(reg1, alpha), rx.to_dfa(reg2, alpha)
        v = compiler.build(compiler.AllPathConstruction(d1, d2))
        assert accepts(v, payment_word)

    def test_vacuous_single_pair(self):
        v = compiler.build(compiler.AllPathConstruction(rx.to_dfa(rx.Symbol("A"), ("A",)),
                                                    rx.to_dfa(rx.EMPTY, ("A",))))
        assert accepts(v, word_from_str("<A A>"))

    @pytest.mark.parametrize(
        "reg1,reg2",
        [
            ("A", "B"),
            ("A B", "C star"),
            ("{A, B}", "(!C)*"),
            ("A (!A)*", "B + C"),
            ("star A", "star"),
            ("A + B C", "eps"),
        ],
    )
    def test_exhaustive_oracle_agreement(self, reg1, reg2):
        alpha = ("A", "B", "C")
        r1, r2 = rx.parse_regex(reg1, alpha), rx.parse_regex(reg2, alpha)
        v = compiler.build(compiler.AllPathConstruction(rx.to_dfa(r1, alpha), rx.to_dfa(r2, alpha)))
        assert check_well_formed(v).ok
        p = AllPath(r1, r2)
        sat = lambda w: oracle.sat_hierarchical(w, p, alpha)
        assert_matches_oracle(v, sat, alpha, max_calls=5, ctx=f"allpath {reg1} / {reg2}")


class TestAllChildren:
    ALPHA = ("T", "A", "P")

    def _compile(self, text):
        inner = inner_of(text)
        return inner, compiler.build(compiler.compile_inner(inner, self.ALPHA)[0])

    def test_resource_pricing_shape(self):
        inner, v = self._compile(
            "alphabet T, A, P;\n"
            "start {T}: match (T) all-children (match (star P) all-path (star));\n"
        )
        assert accepts(v, word_from_str("<T <A <P P> A> <A <P P> A> T>"))
        assert not accepts(v, word_from_str("<T <A <P P> A> <A A> T>"))

    def test_vacuous_leaf(self):
        inner, v = self._compile(
            "alphabet T, A, P;\nstart {T}: match (A) all-children (match (P) all-path (star));\n"
        )
        assert accepts(v, word_from_str("<A A>"))

    @pytest.mark.parametrize(
        "text",
        [
            "start {T}: match (T) all-children (match (star P) all-path (star));",
            "start {T}: match (T A*) all-children (match (A + P) all-path (P star + eps));",
            "start {T}: match ({T, A}) all-children (match (A) all-children (match (P) all-path (star)));",
        ],
    )
    def test_exhaustive_oracle_agreement(self, text):
        inner, v = self._compile(f"alphabet T, A, P;\n{text}\n")
        assert check_well_formed(v).ok
        sat = lambda w: oracle.sat_hierarchical(w, inner, self.ALPHA)
        assert_matches_oracle(v, sat, self.ALPHA, max_calls=5, ctx=text)


class TestExistsChild:
    ALPHA = ("T", "O", "L")

    def _compile(self, text):
        inner = inner_of(text)
        return inner, compiler.build(compiler.compile_inner(inner, self.ALPHA)[0])

    def test_compliance_ordering(self):
        inner, v = self._compile(
            "alphabet T, O, L;\n"
            "start {T}: match (T) exists-child (match (O) all-path (eps))"
            " then (match (L) all-path (eps));\n"
        )
        assert accepts(v, word_from_str("<T <O O> <L L> T>"))
        assert not accepts(v, word_from_str("<T <L L> <O O> T>"))

    def test_single_subpolicy_minimal_witness(self):
        inner, v = self._compile(
            "alphabet T, O, L;\nstart {T}: match (T) exists-child (match (O) all-path (star));\n"
        )
        assert accepts(v, word_from_str("<T <O O> T>"))
        assert not accepts(v, word_from_str("<T T>"))

    @pytest.mark.parametrize(
        "text",
        [
            "start {T}: match (T) exists-child (match (O) all-path (eps)) then (match (L) all-path (eps));",
            "start {T}: match (T) exists-child (match (O + L) all-path (star));",
            "start {T}: match (star T) exists-child (match ((!L)* O) exists-child (match (star L) all-path (star)));",
            "start {T}: match (T) exists-child (match (O) all-path (star)) then (match (O) all-path (star)) then (match (L) all-path (star));",
        ],
    )
    def test_exhaustive_oracle_agreement(self, text):
        inner, v = self._compile(f"alphabet T, O, L;\n{text}\n")
        assert check_well_formed(v).ok
        sat = lambda w: oracle.sat_hierarchical(w, inner, self.ALPHA)
        assert_matches_oracle(v, sat, self.ALPHA, max_calls=5, ctx=text)


class TestStart:
    def test_vacuous_word(self):
        doc = parse_policy("alphabet F, P;\nstart {P}: call-seq P;\n")
        art = compiler.compile(doc)[0]
        assert accepts(art.vpa, word_from_str("<F F>"))

    def test_wrapped_callseq(self):
        doc = parse_policy("alphabet F, P, D, E;\nstart {P}: call-seq P (D E)*;\n")
        art = compiler.compile(doc)[0]
        assert accepts(art.vpa, word_from_str("<F <P <D <E E> D> <D <E E> D> P> F>"))
        assert not accepts(art.vpa, word_from_str("<F <P <D D> P> F>"))

    def test_first_encounter_barrier(self):
        doc = parse_policy("alphabet A, B, C;\nstart {A}: call-seq A B (A C + eps);\n")
        art = compiler.compile(doc)[0]
        # outer subtree satisfies; the nested A alone would not
        assert accepts(art.vpa, word_from_str("<A <B B> <A <C C> A> A>"))

    def test_nested_violation_detected(self):
        doc = parse_policy("alphabet A, B, C;\nstart {A}: call-seq A (!C)*;\n")
        art = compiler.compile(doc)[0]
        assert not accepts(art.vpa, word_from_str("<A <B B> <A <C C> A> A>"))

    def test_start_symbol_at_root_and_below(self):
        doc = parse_policy("alphabet F, P;\nstart {P}: call-seq P F*;\n")
        art = compiler.compile(doc)[0]
        assert accepts(art.vpa, word_from_str("<P <F F> P>"))  # root in start set
        assert accepts(art.vpa, word_from_str("<F <P <F F> P> F>"))
        assert not accepts(art.vpa, word_from_str("<P <P P> P>"))  # nested P inside

    def test_multi_symbol_start_set(self):
        doc = parse_policy("alphabet A, B, C;\nstart {A, B}: call-seq (A + B) C*;\n")
        art = compiler.compile(doc)[0]
        assert accepts(art.vpa, word_from_str("<C <A <C C> A> <B B> C>"))
        assert not accepts(art.vpa, word_from_str("<C <A <B B> A> C>"))


class TestCompileDocument:
    def test_corpus_compiles_well_formed(self):
        for variant in ("small", "full"):
            for name, doc in corpus_documents(variant).items():
                for art in compiler.compile(doc):
                    assert check_well_formed(art.vpa).ok, (name, variant)
                    assert compiler.check_state_bound(art), (name, variant)

    def test_metrics_fields(self):
        doc = parse_policy("alphabet Beta, DbV1, DbV2;\nstart {Beta}: call-seq Beta (!DbV1)*;\n")
        art = compiler.compile(doc)[0]
        m = art.metrics
        assert m.state_count == len(art.vpa.states)
        assert m.header_bits == (m.state_count - 1).bit_length()
        assert m.depth == 2 and m.fanout == 2

    def test_reject_absorbs_on_calls(self):
        # structurally: every call from a reject-flavoured absorbing state
        # stays inside the absorbing set
        for name, doc in corpus_documents("small").items():
            for art in compiler.compile(doc):
                v = art.vpa
                delta_call = ref.delta_call(v)
                absorbing = {q for q in v.states if q.endswith("rej")}
                for q in absorbing:
                    for e in v.alphabet:
                        dst, _ = delta_call[(q, e)]
                        assert dst in absorbing, (name, q, e)

    def test_component_dfas_positions(self):
        docs = corpus_documents("small")
        art = compiler.compile(docs["data-proxy"])[0]
        assert "start" in art.component_dfas
        assert "inner.match" in art.component_dfas
        assert "inner.sub1.match" in art.component_dfas
        assert "inner.sub1.sub1.match" in art.component_dfas
        assert "inner.sub1.sub1.leaves" in art.component_dfas


class TestStateBound:
    def test_base_cases(self):
        # the constructions' declared states
        alpha = ("A", "B")
        reg = rx.parse_regex("A B*", alpha)
        d = rx.to_dfa(reg, alpha)
        seq = compiler.SeqConstruction(d)
        assert len(seq.states) == d.n_states + 3 <= 2 * (d.n_states + 5)
        r2 = rx.parse_regex("star", alpha)
        d2 = rx.to_dfa(r2, alpha)
        ap = compiler.AllPathConstruction(d, d2)  # a2 and aug(a2) states besides the search's
        assert len(ap.states) == d.n_states + 2 * d2.n_states + 4
        assert len(ap.states) <= 3 * (max(d.n_states, d2.n_states) + 5)

    def test_random_policies_within_bound(self):
        rng = random.Random(2024)
        alpha = ("A", "B", "C")
        for i in range(100):
            pol = random_policy(rng, alpha, depth_budget=4)
            art = compiler.compile_policy(pol, alpha, policy_id=f"rand{i}")
            assert compiler.check_state_bound(art), (i, pol)
            assert check_well_formed(art.vpa).ok


class TestRandomPolicySoundness:
    """Seeded random policies exercise combinator interactions the corpus
    does not (deep exists-under-exists, all-children of all-children, ...)."""

    def test_exhaustive_agreement_small_words(self):
        rng = random.Random(555)
        alpha = ("A", "B", "C")
        for i in range(40):
            pol = random_policy(rng, alpha, depth_budget=4)
            art = compiler.compile_policy(pol, alpha, policy_id=f"rand{i}")
            for word in nw.enumerate_rooted(alpha, 4):
                want = oracle.sat_policy(word, pol, alpha)
                got = accepts(art.vpa, word)
                assert want == got, (i, pol, [(a.tag, a.endpoint) for a in word.symbols])


def forests(rng: random.Random, words, n: int) -> list[nw.NestedWord]:
    """``n`` concatenations of two or three of the rooted ``words``."""
    return [nw.build_nested_word([a.symbol for w in rng.choices(words, k=rng.randint(2, 3))
                                  for a in w.symbols]) for _ in range(n)]


class TestPrune:
    """``compile_policy`` builds only the cells a rooted word can read:
    every rooted word and every forest of them must run through the same
    configurations as on the construction's every cell."""

    RANDOM_SEEDS = {2024: 100, 555: 40}  # the seeds and counts drawn above

    @staticmethod
    @functools.cache
    def automata(pol, alphabet):
        """The dense and the built automaton of a policy."""
        return raw_automaton(pol, alphabet), compiled(pol, alphabet).vpa

    def assert_same_runs(self, pol, alphabet, words, ctx=""):
        raw, pruned = self.automata(pol, alphabet)
        assert pruned.states <= raw.states and pruned.stack_alphabet <= raw.stack_alphabet
        for word in words:
            assert run(pruned, word) == run(raw, word), (
                ctx, pol, [(a.tag, a.endpoint) for a in word.symbols])

    def test_runs_unchanged_on_small_words(self):
        # every rooted word up to the size, and 30 forests of them per policy
        picks = random.Random(7)
        for variant, max_calls in (("small", 4), ("full", 3)):
            for name, doc in corpus_documents(variant).items():
                words = list(nw.enumerate_rooted(doc.alphabet, max_calls))
                for pol in doc.policies:
                    self.assert_same_runs(pol, doc.alphabet, words + forests(picks, words, 30),
                                          (variant, name))
        alpha = ("A", "B", "C")
        words = list(nw.enumerate_rooted(alpha, 4))
        for seed, count in self.RANDOM_SEEDS.items():
            rng = random.Random(seed)
            for i in range(count):
                pol = random_policy(rng, alpha, depth_budget=4)
                self.assert_same_runs(pol, alpha, words + forests(picks, words, 30), (seed, i))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_runs_unchanged_on_full_corpus_words(self, seed):
        rng = random.Random(seed)
        for name, doc in corpus_documents("full").items():
            word = random_rooted_word(rng, 20, doc.alphabet)
            forest = forests(rng, [word, random_rooted_word(rng, 8, doc.alphabet)], 1)
            for pol in doc.policies:
                self.assert_same_runs(pol, doc.alphabet, [word, *forest], name)

    def test_anchor_states_are_the_anchor_dfas_nonfinal_states(self):
        # besides its own markers and the inner automaton's states, the start
        # construction has the anchor DFA's non-final states and no other:
        # none exists only for the prune to drop
        for variant in ("small", "full"):
            for name, doc in corpus_documents(variant).items():
                for pol, art in zip(doc.policies, compiler.compile(doc)):
                    d = art.component_dfas["start"]
                    raw = raw_construction(pol, doc.alphabet).states
                    inner = {q for q in raw if q.startswith("in.")}
                    anchor = raw - inner - {compiler.BEG, compiler.END, compiler.REJ}
                    assert anchor == {f"a{q}" for q in d.states if q not in d.finals}, (
                        variant, name)
        full = [a for doc in corpus_documents("full").values() for a in compiler.compile(doc)]
        # 149 states and 38 header bits before pruning; 117 states and 35
        # bits when the prune kept every cell over the reached states and
        # pushed symbols, not only the cells a rooted word reads; the same
        # when the build computed only those
        assert sum(a.metrics.state_count for a in full) == 105
        assert sum(a.metrics.header_bits for a in full) == 35


def union_document():
    """The nine full-corpus policies over the union of their alphabets."""
    docs = corpus_documents("full").values()
    alphabet = tuple(dict.fromkeys(x for doc in docs for x in doc.alphabet))
    return [pol for doc in docs for pol in doc.policies], alphabet


def full_alphabet_artifacts(pol, alphabet):
    """What ``compile_policy`` gives, built over every name of the alphabet:
    the built automaton, its metrics and its reject states, computed on
    that full-name automaton."""
    alpha = tuple(alphabet)
    anchor = rx.to_dfa(start_anchor_regex(pol.start_set), alpha)
    inner, dfas = compiler.compile_inner(pol.inner, alpha)
    vpa = compiler.build(compiler.StartConstruction(anchor, inner))
    n = len(vpa.states)
    metrics = compiler.Metrics(depth(pol), fanout(pol),
                               max(d.n_states for d in (anchor, *dfas.values())), n, header_bits(n))
    return vpa, metrics, compiler._doomed_states(vpa)


class TestEndpointClasses:
    """``compile_policy`` compiles over one representative per endpoint
    class and shares its rows with the rest of the class; the result must
    be what a compile over every name gives."""

    def test_classes_split_by_every_named_set(self):
        doc = parse_policy(
            "alphabet A, B, C, D, E, F;\n"
            "start {B, D, F}: match (A any) all-children (match C all-path (!{C, E})*);\n"
            "start star: call-seq star;\n")
        assert endpoint_classes(doc.policies[0], doc.alphabet) == (
            ("A",), ("B", "D", "F"), ("C",), ("E",))
        assert endpoint_classes(doc.policies[1], doc.alphabet) == (doc.alphabet,)
        assert endpoint_classes(doc.policies[0], ("F", "E", "B")) == (("F", "B"), ("E",))

    # classes whose members interleave, so that the representatives' order
    # decides the DFA's state numbering
    INTERLEAVED = ("alphabet A, B, C, D;\n"
                   "start {B}: call-seq {A, C} B star;\n"
                   "start {B, D}: match ({A, C} B) all-path (!{B, D})*;\n")

    def policies(self):
        doc = parse_policy(self.INTERLEAVED)
        yield from ((pol, doc.alphabet) for pol in doc.policies)
        for variant in ("small", "full"):
            for doc in corpus_documents(variant).values():
                yield from ((pol, doc.alphabet) for pol in doc.policies)
        policies, alphabet = union_document()
        yield from ((pol, alphabet) for pol in policies)
        for seed, count in TestPrune.RANDOM_SEEDS.items():
            rng = random.Random(seed)
            for _ in range(count):
                yield random_policy(rng, ("A", "B", "C"), depth_budget=4), ("A", "B", "C")

    def test_compile_equals_full_alphabet_build(self):
        for pol, alphabet in self.policies():
            art = compiled(pol, alphabet)
            assert (art.vpa, art.metrics, art.reject_states) == full_alphabet_artifacts(
                pol, alphabet), (pol, alphabet)
            reps = tuple(c[0] for c in endpoint_classes(pol, alphabet))
            assert all(d.alphabet == reps for d in art.component_dfas.values())

    def test_endpoints_of_a_class_share_rows_and_rules(self):
        for pol, alphabet in self.policies():
            v = compiled(pol, alphabet).vpa
            t, mon, classes = v.table, extract_monitor(v), endpoint_classes(pol, alphabet)
            assert list(t.request) == list(alphabet)
            for members in classes:
                rep = members[0]
                for e in members:
                    assert t.request[e] is t.request[rep] and t.response[e] is t.response[rep]
                    assert mon[e].on_request is mon[rep].on_request
                    assert mon[e].on_response is mon[rep].on_response
            assert len({id(row) for row in t.request.values()}) == len(classes)
            assert len({id(rows) for rows in t.response.values()}) == len(classes)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_a_word_and_its_image_over_representatives_agree(self, seed):
        # the premise of compiling over classes, tested on the oracle
        rng = random.Random(seed)
        for doc in corpus_documents("full").values():
            word = random_rooted_word(rng, 12, doc.alphabet)
            for pol in doc.policies:
                rep = {e: c[0] for c in endpoint_classes(pol, doc.alphabet) for e in c}
                image = nw.build_nested_word([
                    (nw.call if a.tag == nw.CALL else nw.ret)(rep[a.endpoint]) for a in word.symbols])
                assert oracle.sat_policy(word, pol, doc.alphabet) == oracle.sat_policy(
                    image, pol, doc.alphabet), (pol, [(a.tag, a.endpoint) for a in word.symbols])

    def test_full_corpus_agrees_with_oracle_over_representatives(self):
        # every rooted word over one representative per class stands for
        # all words over the full alphabet that map onto it
        pairs = 0
        for name, doc in corpus_documents("full").items():
            for pol, art in zip(doc.policies, compiler.compile(doc)):
                reps = [c[0] for c in endpoint_classes(pol, doc.alphabet)]
                for word in nw.enumerate_rooted(reps, 5):
                    assert oracle.sat_policy(word, pol, doc.alphabet) == accepts(art.vpa, word), (
                        name, [(a.tag, a.endpoint) for a in word.symbols])
                    pairs += 1
        assert pairs == 98_598


class TestDoomedStates:
    """``reject_states`` are the states from which no final state can be
    reached: a call into one may block a request, for every policy form."""

    def test_no_accepted_word_calls_into_a_reject_state(self):
        # every small-corpus rooted word of at most five calls
        accepted = blocked = 0
        for name, doc in corpus_documents("small").items():
            arts = compiler.compile(doc)
            for word in nw.enumerate_rooted(doc.alphabet, 5):
                after_calls = [i + 1 for i, a in enumerate(word.symbols) if a.tag == nw.CALL]
                for pol, art in zip(doc.policies, arts):
                    configurations = run(art.vpa, word)
                    entered = any(configurations[i].state in art.reject_states for i in after_calls)
                    if oracle.sat_policy(word, pol, doc.alphabet):
                        assert not entered, (name, [(a.tag, a.endpoint) for a in word.symbols])
                        accepted += 1
                    else:
                        blocked += entered
        # of the 46,928 violations, 9,348 reached a reject state at a call
        # when only call-seq policies had reject states
        assert (accepted, blocked) == (35_493, 25_794)

    def test_hierarchical_corpus_policies_block(self):
        for variant in ("small", "full"):
            hierarchical = [(name, art) for name, doc in corpus_documents(variant).items()
                            for art in compiler.compile(doc)
                            if not isinstance(art.policy.inner, CallSeq)]
            assert len(hierarchical) == 6
            for name, art in hierarchical:
                assert compiler.REJ in art.reject_states, (variant, name)

    def test_call_seq_blocking_is_kept(self):
        callseq = 0
        for pol, alphabet in TestEndpointClasses().policies():
            art = compiled(pol, alphabet)
            if isinstance(pol.inner, CallSeq):
                assert callseq_reject_states(art) <= art.reject_states, (pol, alphabet)
                callseq += 1
        assert callseq == 45  # 1 hand-written, 3 per corpus, 3 in the union, 35 random

    def test_doomed_states_are_closed_under_successors(self):
        for pol, alphabet in TestEndpointClasses().policies():
            art = compiled(pol, alphabet)
            v, doomed = art.vpa, art.reject_states
            for (q, _e), (dst, _push) in ref.delta_call(v).items():
                assert q not in doomed or dst in doomed, (pol, q)
            for (q, g, _e), dst in ref.delta_return(v).items():
                assert q not in doomed or g == BOTTOM or dst in doomed, (pol, q, g)


def random_match_regex(rng: random.Random, alphabet) -> rx.Regex:
    node = random_regex(rng, alphabet, depth=2)
    if rx.matches_epsilon(node):
        # anchor with a symbol so the match expression stays legal
        node = rx.Concat(rx.Symbol(rng.choice(alphabet)), node)
    return node


def random_inner(rng: random.Random, alphabet, depth_budget: int):
    forms = ["allpath"] if depth_budget <= 1 else ["allpath", "allchildren", "exists"]
    form = rng.choice(forms)
    if form == "allpath":
        return AllPath(random_match_regex(rng, alphabet), random_regex(rng, alphabet, depth=2))
    if form == "allchildren":
        return AllChildren(
            random_match_regex(rng, alphabet), random_inner(rng, alphabet, depth_budget - 1)
        )
    subs = tuple(
        random_inner(rng, alphabet, depth_budget - 1) for _ in range(rng.randint(1, 3))
    )
    return ExistsChild(random_match_regex(rng, alphabet), subs)


def random_policy(rng: random.Random, alphabet, depth_budget: int) -> Policy:
    start = frozenset(rng.sample(list(alphabet), rng.randint(1, len(alphabet))))
    if rng.random() < 0.25:
        return Policy(start, CallSeq(random_regex(rng, alphabet, depth=2)))
    return Policy(start, random_inner(rng, alphabet, depth_budget - 1))
