"""Parser, derivative matcher, DFA pipeline, and their agreement."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepolicy import compiler, oracle, regex as rx
from treepolicy.corpus import CORPUS
from treepolicy.errors import PolicySyntaxError, UnknownEndpoint
from treepolicy.policy import parse_policy
from treepolicy.vpa import accepts

from conftest import random_rooted_word
from reference import dfa_accepts, matches

PDE = ("P", "D", "E")


class TestParse:
    def test_concat_star(self):
        assert rx.parse_regex("P D*", PDE) == rx.Concat(rx.Symbol("P"), rx.Star(rx.Symbol("D")))

    def test_eps(self):
        assert rx.parse_regex("eps", PDE) == rx.EPSILON

    def test_complement_desugars(self):
        node = rx.parse_regex("(!D)*", PDE)
        assert node == rx.Star(rx.Complement(frozenset({"D"})))
        assert rx.desugar(node, PDE) == rx.Star(rx.SetLiteral(frozenset({"E", "P"})))

    def test_core_syntax_desugars_to_itself(self):
        rx._desugar.cache_clear()  # else an equal tree desugared earlier comes back
        node = rx.parse_regex("(P D* + E) P", PDE)
        assert rx.desugar(node, PDE) is node
        # only the path down to a sugar node is rebuilt
        sugared = rx.parse_regex("(E P* + D) !P", PDE)
        out = rx.desugar(sugared, PDE)
        assert out == rx.Concat(sugared.left, rx.SetLiteral(frozenset({"D", "E"})))
        assert out.left is sugared.left

    def test_union_precedence(self):
        # union binds loosest: "P D + E" is (P D) + E
        assert rx.parse_regex("P D + E", PDE) == rx.Union(
            rx.Concat(rx.Symbol("P"), rx.Symbol("D")), rx.Symbol("E")
        )

    def test_set_literal_and_star_keyword(self):
        assert rx.parse_regex("{P, D}", PDE) == rx.SetLiteral(frozenset({"P", "D"}))
        assert rx.parse_regex("star", PDE) == rx.Star(rx.ANY)

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEndpoint):
            rx.parse_regex("Q", PDE)
        with pytest.raises(UnknownEndpoint):
            rx.parse_regex("!{P, Q}", PDE)

    def test_syntax_errors(self):
        for bad in ["", "(P", "P +", "* P", "{P", "!"]:
            with pytest.raises(PolicySyntaxError):
                rx.parse_regex(bad, PDE)

    def test_chains_parse_balanced(self):
        p, d, e = (rx.Symbol(x) for x in PDE)
        # a chain of up to three terms nests to the left
        assert rx.parse_regex("P + D + E", PDE) == rx.Union(rx.Union(p, d), e)
        assert rx.parse_regex("P D E P", PDE) == rx.Concat(rx.Concat(p, d), rx.Concat(e, p))
        assert rx.parse_regex("P + D + E + P + D", PDE) == rx.Union(
            rx.Union(rx.Union(p, d), e), rx.Union(p, d)
        )

    def test_star_run_folds(self):
        d = rx.Symbol("D")
        assert rx.parse_regex("D***", PDE) == rx.Star(d)
        assert rx.parse_regex("(D*)*", PDE) == rx.Star(rx.Star(d))

    def test_nested_stars_round_trip(self):
        node = rx.Symbol("D")
        for _ in range(4):
            node = rx.Star(node)
            assert rx.parse_regex(rx.format_regex(node), PDE) == node

    def test_deep_nesting_is_syntax_error(self):
        with pytest.raises(PolicySyntaxError):
            rx.parse_regex("(" * 3000 + "P" + ")" * 3000, PDE)

    def test_format_round_trip(self):
        rng = random.Random(5)
        for _ in range(300):
            node = random_regex(rng, PDE, depth=4)
            text = rx.format_regex(node)
            assert rx.parse_regex(text, PDE) == node


class TestMatchesEpsilon:
    def test_star(self):
        assert rx.matches_epsilon(rx.Star(rx.Symbol("P")))

    def test_symbol(self):
        assert not rx.matches_epsilon(rx.Symbol("P"))

    def test_concat_star_symbol(self):
        # nullable(left) and not nullable(right)
        node = rx.parse_regex("P* D", PDE)
        assert not rx.matches_epsilon(node)
        assert rx.matches_epsilon(rx.parse_regex("P* D*", PDE))

    def test_agrees_with_matcher(self):
        rng = random.Random(9)
        for _ in range(200):
            node = random_regex(rng, PDE, depth=4)
            assert rx.matches_epsilon(node) == matches(node, (), PDE)


class TestDfa:
    def test_empty_language(self):
        d = rx.to_dfa(rx.EMPTY, PDE)
        assert d.n_states == 1 and not d.finals

    def test_any_star(self):
        d = rx.to_dfa(rx.Star(rx.ANY), PDE)
        assert d.n_states == 1 and d.finals == frozenset({0})

    def test_p_then_d_star_has_three_states(self):
        d = rx.to_dfa(rx.parse_regex("P D*", ("P", "D")), ("P", "D"))
        assert d.n_states == 3  # start, accept loop, dead

    def test_acceptance_examples(self):
        d = rx.to_dfa(rx.parse_regex("P D*", PDE), PDE)
        assert dfa_accepts(d, ("P",))
        assert dfa_accepts(d, ("P", "D", "D"))
        assert not dfa_accepts(d, ())
        assert not dfa_accepts(d, ("D",))

    def test_complete_and_deterministic(self):
        rng = random.Random(17)
        for _ in range(100):
            node = random_regex(rng, PDE, depth=4)
            d = rx.to_dfa(node, PDE)
            assert set(d.transition) == {(q, s) for q in d.states for s in PDE}
            assert all(t in d.states for t in d.transition.values())

    def test_minimal(self):
        # no two distinct states may be equivalent: check with an
        # independent partition-refinement pass over the output
        rng = random.Random(23)
        for _ in range(150):
            node = random_regex(rng, PDE, depth=4)
            d = rx.to_dfa(node, PDE)
            assert _count_moore_classes(d) == d.n_states

    def test_deterministic_output(self):
        node = rx.parse_regex("(P + D E)* !P", PDE)
        assert rx.to_dfa(node, PDE) == rx.to_dfa(node, PDE)


def _count_moore_classes(d: rx.Dfa) -> int:
    """Independent partition refinement: the number of distinguishable states."""
    sig = {q: int(q in d.finals) for q in d.states}
    while True:
        canon = {}
        new_sig = {}
        for q in d.states:
            key = (sig[q], tuple(sig[d.transition[(q, s)]] for s in d.alphabet))
            canon.setdefault(key, len(canon))
            new_sig[q] = canon[key]
        if len(set(new_sig.values())) == len(set(sig.values())):
            return len(set(new_sig.values()))
        sig = new_sig


def random_regex(rng: random.Random, alphabet, depth: int) -> rx.Regex:
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(6)
        if choice == 0:
            return rx.Symbol(rng.choice(alphabet))
        if choice == 1:
            return rx.EPSILON
        if choice == 2:
            return rx.EMPTY
        if choice == 3:
            return rx.ANY
        k = rng.randint(1, len(alphabet))
        members = frozenset(rng.sample(list(alphabet), k))
        return rx.SetLiteral(members) if choice == 4 else rx.Complement(members)
    op = rng.randrange(3)
    if op == 0:
        return rx.Union(random_regex(rng, alphabet, depth - 1), random_regex(rng, alphabet, depth - 1))
    if op == 1:
        return rx.Concat(random_regex(rng, alphabet, depth - 1), random_regex(rng, alphabet, depth - 1))
    return rx.Star(random_regex(rng, alphabet, depth - 1))


class TestTwoRouteAgreement:
    """The DFA route and the derivative route must decide identically."""

    def test_exhaustive_small_words(self):
        rng = random.Random(31)
        alphabet = ("A", "B", "C")
        words = [
            w
            for length in range(6)
            for w in itertools.product(alphabet, repeat=length)
        ]
        for _ in range(60):
            node = random_regex(rng, alphabet, depth=4)
            d = rx.to_dfa(node, alphabet)
            for w in words:
                assert dfa_accepts(d, w) == matches(node, w, alphabet), (
                    rx.format_regex(node),
                    w,
                )

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**62), st.lists(st.sampled_from(["A", "B"]), max_size=7))
    def test_agreement_property(self, seed, word):
        node = random_regex(random.Random(seed), ("A", "B"), depth=4)
        d = rx.to_dfa(node, ("A", "B"))
        assert dfa_accepts(d, tuple(word)) == matches(node, tuple(word), ("A", "B"))


class TestDesugar:
    def test_complement_single_symbols(self):
        for members in [{"P"}, {"P", "D"}, {"P", "D", "E"}]:
            node = rx.Complement(frozenset(members))
            for s in PDE:
                assert matches(node, (s,), PDE) == (s not in members)
            assert not matches(node, (), PDE)

    def test_any_is_one_symbol(self):
        for s in PDE:
            assert matches(rx.ANY, (s,), PDE)
        assert not matches(rx.ANY, (), PDE)
        assert not matches(rx.ANY, ("P", "P"), PDE)


class TestCaches:
    def test_bounded_across_policies(self):
        # a process meeting policy after policy keeps at most CACHE_SIZE
        # desugared regexes and derivatives: here 50 relabelings of the full
        # corpus ask for more than that (about 2,500 and 2,800 distinct ones)
        rx.derive.cache_clear()
        rx._desugar.cache_clear()
        rng = random.Random(7)
        name = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")
        for _ in range(50):
            for entry in CORPUS:
                head, body = entry.full.split(";", 1)
                names = parse_policy(entry.full).alphabet
                perm = dict(zip(names, rng.sample(names, len(names))))
                doc = parse_policy(head + ";" + name.sub(lambda m: perm.get(m[0], m[0]), body))
                for pol, art in zip(doc.policies, compiler.compile(doc)):
                    for _ in range(4):
                        word = random_rooted_word(rng, 10, doc.alphabet)
                        assert oracle.sat_policy(word, pol, doc.alphabet) == accepts(art.vpa, word)
        for cached in (rx.derive, rx._desugar):
            info = cached.cache_info()
            assert info.misses > info.maxsize >= info.currsize, info
