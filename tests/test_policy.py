"""Policy parsing, validation, pretty-printing, structural metrics."""

import pytest

from treepolicy import regex as rx
from treepolicy.compiler import compile_inner, compile_policy
from treepolicy.corpus import CORPUS, corpus_documents
from treepolicy.errors import EpsilonMatchRegex, PolicySyntaxError, UnknownEndpoint
from treepolicy.policy import (
    AllPath,
    CallSeq,
    ExistsChild,
    depth,
    fanout,
    format_policy,
    parse_policy,
)


class TestParse:
    def test_allpath_form(self):
        doc = parse_policy("alphabet P, D, E;\nstart {P}: match (P {D}) all-path ({E})*;\n")
        assert doc.alphabet == ("P", "D", "E")
        (pol,) = doc.policies
        assert pol.start_set == frozenset({"P"})
        assert isinstance(pol.inner, AllPath)
        assert pol.inner.reg1 == rx.Concat(rx.Symbol("P"), rx.SetLiteral(frozenset({"D"})))
        assert pol.inner.reg2 == rx.Star(rx.SetLiteral(frozenset({"E"})))

    def test_callseq_form(self):
        doc = parse_policy("alphabet Beta, Appt_v1, Appt_v2;\nstart {Beta}: call-seq Beta (!Appt_v1)*;\n")
        (pol,) = doc.policies
        assert isinstance(pol.inner, CallSeq)
        assert pol.inner.reg == rx.Concat(
            rx.Symbol("Beta"), rx.Star(rx.Complement(frozenset({"Appt_v1"})))
        )

    def test_epsilon_match_rejected(self):
        with pytest.raises(EpsilonMatchRegex):
            parse_policy("alphabet T;\nstart {T}: match eps all-path star;\n")
        with pytest.raises(EpsilonMatchRegex):
            parse_policy("alphabet T;\nstart {T}: match (T*) all-children match T all-path star;\n")

    def test_callseq_not_nested(self):
        with pytest.raises(PolicySyntaxError):
            parse_policy("alphabet T;\nstart {T}: match T all-children call-seq T;\n")

    def test_start_star(self):
        doc = parse_policy("alphabet A, B;\nstart star: call-seq star;\n")
        assert doc.policies[0].start_set == frozenset({"A", "B"})

    def test_unknown_start_endpoint(self):
        with pytest.raises(UnknownEndpoint):
            parse_policy("alphabet A;\nstart {B}: call-seq star;\n")

    def test_multiple_policies(self):
        doc = parse_policy(
            "alphabet A, B;\n"
            "start {A}: call-seq A star;\n"
            "start {B}: match (B) all-path (star);\n"
        )
        assert len(doc.policies) == 2

    def test_exists_child_chain(self):
        doc = parse_policy(
            "alphabet T, O, L;\n"
            "start {T}: match (T) exists-child (match (O) all-path (eps))"
            " then (match (L) all-path (eps));\n"
        )
        inner = doc.policies[0].inner
        assert isinstance(inner, ExistsChild)
        assert len(inner.subpolicies) == 2
        assert all(isinstance(s, AllPath) for s in inner.subpolicies)

    def test_comments_ignored(self):
        doc = parse_policy("# a comment\nalphabet A; # trailing\nstart {A}: call-seq A;\n")
        assert len(doc.policies) == 1

    def test_empty_document(self):
        with pytest.raises(PolicySyntaxError):
            parse_policy("")
        with pytest.raises(PolicySyntaxError):
            parse_policy("alphabet A;")


class TestPrettyPrint:
    def test_round_trip_corpus(self):
        for variant in ("small", "full"):
            for name, doc in corpus_documents(variant).items():
                assert parse_policy(format_policy(doc)) == doc, (name, variant)

    def test_round_trip_multi(self):
        doc = parse_policy(
            "alphabet A, B, C;\n"
            "start {A, C}: match (A (!B)*) exists-child (match ({A, B}) all-children"
            " (match (any) all-path (A + eps)));\n"
            "start star: call-seq (A B)* C;\n"
        )
        assert parse_policy(format_policy(doc)) == doc


def _inner(text: str):
    return parse_policy(text).policies[0].inner


def _max_dfa_states(inner, alpha):
    return max(d.n_states for d in compile_inner(inner, alpha)[1].values())


class TestMetrics:
    def test_depth_examples(self):
        doc = parse_policy("alphabet A;\nstart {A}: call-seq A;\n")
        assert depth(doc.policies[0].inner) == 1
        assert depth(doc.policies[0]) == 2

    def test_depth_data_proxy(self):
        docs = corpus_documents("small")
        pol = docs["data-proxy"].policies[0]
        assert depth(pol.inner) == 3  # triple nesting
        assert depth(pol) == 4

    def test_depth_matches_nesting_levels(self):
        # hierarchical corpus entries and their published nesting levels
        expected = {
            "update-logging": 2,
            "data-compliance": 2,
            "data-proxy": 3,
            "encryption": 1,
            "data-vault": 1,
            "resource-pricing": 2,
        }
        docs = corpus_documents("small")
        for name, levels in expected.items():
            assert depth(docs[name].policies[0].inner) == levels, name

    def test_fanout_examples(self):
        assert fanout(_inner("alphabet A;\nstart {A}: match (A) all-path (star);\n")) == 2
        assert fanout(_inner("alphabet A;\nstart {A}: call-seq A;\n")) == 1
        two_leaf = _inner(
            "alphabet A, B;\nstart {A}: match (A) exists-child"
            " (match (A) all-path (star)) then (match (B) all-path (star));\n"
        )
        assert fanout(two_leaf) == 1 + max(2, 2)

    def test_max_dfa_states(self):
        alpha = ("P", "D", "E")
        inner = _inner("alphabet P, D, E;\nstart {P}: match (P D) all-path (star);\n")
        d1 = rx.to_dfa(rx.parse_regex("P D", alpha), alpha)
        d2 = rx.to_dfa(rx.parse_regex("star", alpha), alpha)
        assert _max_dfa_states(inner, alpha) == max(d1.n_states, d2.n_states)

    def test_callseq_max_dfa_states_is_its_regex(self):
        alpha = ("A", "B")
        inner = _inner("alphabet A, B;\nstart {A}: call-seq A B* A;\n")
        d = rx.to_dfa(rx.parse_regex("A B* A", alpha), alpha)
        assert _max_dfa_states(inner, alpha) == d.n_states

    def test_policy_level_includes_anchor(self):
        alpha = ("A", "B")
        pol = parse_policy("alphabet A, B;\nstart {A}: call-seq star;\n").policies[0]
        # the inner regex alone compiles to a single state; the start
        # wrapper's anchor automaton contributes its own size
        assert _max_dfa_states(pol.inner, alpha) == 1
        assert compile_policy(pol, alpha).metrics.max_dfa_states == 2


class TestCorpus:
    def test_every_entry_parses_in_both_variants(self):
        assert len(CORPUS) == 9
        for variant in ("small", "full"):
            docs = corpus_documents(variant)
            assert len(docs) == 9
            for doc in docs.values():
                assert doc.policies

    def test_small_alphabets_are_small(self):
        for name, doc in corpus_documents("small").items():
            assert 3 <= len(doc.alphabet) <= 5, name
