"""Denotational semantics: shortest-match paths, the three satisfaction
relations, scope anchoring."""

import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treepolicy import nested_word as nw
from treepolicy import oracle
from treepolicy import regex as rx
from treepolicy.corpus import corpus_documents
from treepolicy.errors import NotRooted
from treepolicy.policy import AllPath, parse_policy

from conftest import random_rooted_word, word_from_str
from reference import reference_all_path, reference_first_match, reference_sat_policy, subtrees
from test_compiler import random_policy

PDE = ("P", "D", "E")


def reg(text, alphabet=PDE):
    return rx.parse_regex(text, alphabet)


def inner_of(text):
    return parse_policy(text).policies[0].inner


def policy_of(text):
    return parse_policy(text).policies[0]


class TestFirstMatch:
    def test_shortest_match_excludes_extensions(self, payment_word):
        got = oracle.first_match(payment_word, reg("P D*"), PDE)
        assert [tuple(a.endpoint for a in p) for p in got] == [("P",)]

    def test_empty_regex(self, payment_word):
        assert oracle.first_match(payment_word, rx.EMPTY, PDE) == ()

    def test_both_branches_match(self, payment_word):
        got = oracle.first_match(payment_word, reg("P D"), PDE)
        assert {tuple(a.index for a in p) for p in got} == {(1, 2), (1, 6)}

    # rootedness is checked once, at each public entry
    @pytest.mark.parametrize(
        "entry", ["first_match", "sat_hierarchical", "sat_linear", "sat_policy"]
    )
    def test_not_rooted(self, entry):
        n = nw.build_nested_word([nw.call("P"), nw.call("D")])
        all_path = "alphabet P, D, E;\nstart {P}: match (P) all-path (star);\n"
        call_seq = "alphabet P, D, E;\nstart {P}: call-seq P D;\n"
        arg = {
            "first_match": reg("P"),
            "sat_hierarchical": inner_of(all_path),
            "sat_linear": inner_of(call_seq),
            "sat_policy": policy_of(call_seq),
        }[entry]
        with pytest.raises(NotRooted):
            getattr(oracle, entry)(n, arg, PDE)


class TestAllPath:
    def test_payment_word_satisfies(self, payment_word):
        p = inner_of("alphabet P, D, E;\nstart {P}: match (P D*) all-path (star);\n")
        assert oracle.sat_hierarchical(payment_word, p, PDE)

    def test_vacuous_on_leaf(self):
        n = word_from_str("<P P>")
        p = inner_of("alphabet P, D, E;\nstart {P}: match (P) all-path (empty);\n")
        assert oracle.sat_hierarchical(n, p, PDE)

    def test_leaf_constraint(self, payment_word):
        p = inner_of("alphabet P, D, E;\nstart {P}: match (P {D}) all-path ({E} star);\n")
        assert oracle.sat_hierarchical(payment_word, p, PDE)
        # the sole D additionally calls P first -> a leaf path starts with P
        mutated = word_from_str("<P <D <P P> <E E> D> P>")
        assert not oracle.sat_hierarchical(mutated, p, PDE)
        # with a second healthy D branch the existential match retries there
        two_branch = word_from_str("<P <D <P P> <E E> D> <D <E E> D> P>")
        assert oracle.sat_hierarchical(two_branch, p, PDE)

    def test_retry_other_branch(self):
        p = inner_of("alphabet P, D, E;\nstart {P}: match (P D) all-path (E star);\n")
        # first D's subtree fails (leaf D has child P), second D's succeeds
        n = word_from_str("<P <D <P P> D> <D <E E> D> P>")
        assert oracle.sat_hierarchical(n, p, PDE)


class TestAllChildren:
    def test_every_child_checked(self):
        p = inner_of(
            "alphabet T, A, P;\n"
            "start {T}: match (T) all-children (match (star P) all-path (star));\n"
        )
        alpha = ("T", "A", "P")
        good = word_from_str("<T <A <P P> A> <A <P P> A> T>")
        bad = word_from_str("<T <A <P P> A> <A A> T>")
        assert oracle.sat_hierarchical(good, p, alpha)
        assert not oracle.sat_hierarchical(bad, p, alpha)

    def test_vacuous_without_children(self):
        p = inner_of("alphabet A;\nstart {A}: match (A) all-children (match (A) all-path (empty));\n")
        assert oracle.sat_hierarchical(word_from_str("<A A>"), p, ("A",))


class TestExistsChild:
    ALPHA = ("T", "O", "L")
    P = (
        "alphabet T, O, L;\n"
        "start {T}: match (T) exists-child (match (O) all-path (eps))"
        " then (match (L) all-path (eps));\n"
    )

    def test_order_respected(self):
        p = inner_of(self.P)
        assert oracle.sat_hierarchical(word_from_str("<T <O O> <L L> T>"), p, self.ALPHA)
        assert not oracle.sat_hierarchical(word_from_str("<T <L L> <O O> T>"), p, self.ALPHA)

    def test_intervening_children_allowed(self):
        p = inner_of(self.P)
        n = word_from_str("<T <L L> <O O> <T T> <L L> T>")
        assert oracle.sat_hierarchical(n, p, self.ALPHA)

    def test_single_subpolicy(self):
        p = inner_of("alphabet T, O, L;\nstart {T}: match (T) exists-child (match (O) all-path (star));\n")
        assert oracle.sat_hierarchical(word_from_str("<T <O O> T>"), p, self.ALPHA)
        assert not oracle.sat_hierarchical(word_from_str("<T T>"), p, self.ALPHA)


class TestCallSeq:
    def test_payment_sequence(self, payment_word):
        p = inner_of("alphabet P, D, E;\nstart {P}: call-seq P (D E)*;\n")
        assert oracle.sat_linear(payment_word, p, PDE)

    def test_single_pair(self):
        p = inner_of("alphabet A;\nstart {A}: call-seq A;\n")
        assert oracle.sat_linear(word_from_str("<A A>"), p, ("A",))

    def test_interleaved_stars(self, payment_word):
        p = inner_of("alphabet P, D, E;\nstart {P}: call-seq P star D star;\n")
        assert oracle.sat_linear(payment_word, p, PDE)

    def test_rejects(self, payment_word):
        p = inner_of("alphabet P, D, E;\nstart {P}: call-seq P D* ;\n")
        assert not oracle.sat_linear(payment_word, p, PDE)


class TestStartPolicy:
    def test_vacuous_when_start_absent(self):
        pol = policy_of("alphabet F, P, D;\nstart {P}: call-seq empty;\n")
        n = word_from_str("<F <D D> F>")
        assert oracle.sat_policy(n, pol, ("F", "P", "D"))

    def test_nested_subtree_checked(self):
        alpha = ("F", "P", "D", "E")
        pol = policy_of("alphabet F, P, D, E;\nstart {P}: match (P {D}) all-path ({E} star);\n")
        n = word_from_str("<F <P <D <E E> D> <D <E E> D> P> F>")
        assert oracle.sat_policy(n, pol, alpha)
        bad = word_from_str("<F <P <D <F F> D> P> F>")
        assert not oracle.sat_policy(bad, pol, alpha)

    def test_first_encounter_barrier(self):
        # outer A's subtree must satisfy the sequence; the nested A is not
        # independently checked (it would fail alone)
        alpha = ("A", "B", "C")
        pol = policy_of("alphabet A, B, C;\nstart {A}: call-seq A B (A C + eps);\n")
        n = word_from_str("<A <B B> <A <C C> A> A>")
        assert oracle.sat_policy(n, pol, alpha)

    def test_inner_start_violation_counts_inside_outer(self):
        alpha = ("A", "B", "C")
        pol = policy_of("alphabet A, B, C;\nstart {A}: call-seq A (!C)*;\n")
        n = word_from_str("<A <B B> <A <C C> A> A>")
        assert not oracle.sat_policy(n, pol, alpha)

    def test_sibling_subtrees_each_checked(self):
        alpha = ("F", "A", "B")
        pol = policy_of("alphabet F, A, B;\nstart {A}: call-seq A B*;\n")
        good = word_from_str("<F <A <B B> A> <A A> F>")
        bad = word_from_str("<F <A <B B> A> <A <F F> A> F>")
        assert oracle.sat_policy(good, pol, alpha)
        assert not oracle.sat_policy(bad, pol, alpha)


class TestProperties:
    def test_vacuity_property(self):
        rng = random.Random(77)
        pol = policy_of("alphabet A, B, S;\nstart {S}: call-seq empty;\n")
        for _ in range(100):
            n = random_rooted_word(rng, 8, ("A", "B"))  # never contains S
            assert oracle.sat_policy(n, pol, ("A", "B", "S"))

    def test_round_trip_stability(self):
        rng = random.Random(78)
        pol = policy_of("alphabet A, B;\nstart {A}: match (A) all-path (B star + eps);\n")
        for _ in range(100):
            n = random_rooted_word(rng, 7, ("A", "B"))
            rebuilt = nw.build_nested_word(nw.parse_trace(nw.serialize_trace(n)))
            assert oracle.sat_policy(n, pol, ("A", "B")) == oracle.sat_policy(
                rebuilt, pol, ("A", "B")
            )

    def test_exists_order_flips_on_permutation(self):
        alpha = ("T", "O", "L")
        p = inner_of(TestExistsChild.P)
        ordered = word_from_str("<T <O O> <L L> T>")
        swapped = word_from_str("<T <L L> <O O> T>")
        assert oracle.sat_hierarchical(ordered, p, alpha)
        assert not oracle.sat_hierarchical(swapped, p, alpha)


# -- the path walks against the literal definitions ------------------------

ABC = ("A", "B", "C")
# every rooted word of <= 4 calls, and the child subtrees of each: slices
# whose first index is not 1
WALKED_WORDS = [
    w for word in nw.enumerate_rooted(ABC, 4) for w in (word, *subtrees(word))
]

_names = st.frozensets(st.sampled_from(ABC))
REGEXES = st.recursive(
    st.one_of(
        st.sampled_from([rx.EPSILON, rx.EMPTY, rx.ANY]),
        st.sampled_from(ABC).map(rx.Symbol),
        _names.map(rx.SetLiteral),
        _names.map(rx.Complement),
    ),
    lambda inner: st.one_of(
        st.builds(rx.Union, inner, inner),
        st.builds(rx.Concat, inner, inner),
        st.builds(rx.Star, inner),
    ),
    max_leaves=6,
)


@settings(max_examples=40, deadline=None)
@given(REGEXES, REGEXES)
@example(rx.EPSILON, rx.EMPTY)
@example(rx.Star(rx.ANY), rx.EPSILON)
@example(rx.Union(rx.Symbol("A"), rx.EPSILON), rx.Star(rx.Complement(frozenset({"A"}))))
@example(rx.Concat(rx.Star(rx.Symbol("A")), rx.SetLiteral(frozenset({"B", "C"}))),
         rx.Concat(rx.Star(rx.ANY), rx.Symbol("C")))
def test_path_walks_equal_literal_definitions(reg1, reg2):
    p = AllPath(reg1, reg2)
    for n in WALKED_WORDS:
        assert oracle.first_match(n, reg1, ABC) == reference_first_match(n, reg1, ABC)
        assert oracle.sat_hierarchical(n, p, ABC) == reference_all_path(n, p, ABC)


# the child slices starting at index 3 or later of the rooted words of <= 5
# calls over A, B (520); the shortest such slices that hold a node with a
# following sibling need 5 calls, and only there does a subtree window that
# ignores the first index overrun into that sibling
LATE_SLICES = [
    t for word in nw.enumerate_rooted(("A", "B"), 5)
    for t in subtrees(word) if t.first_index >= 3
]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32).map(
    lambda seed: random_policy(random.Random(seed), ABC, depth_budget=4)))
@example(parse_policy("alphabet A, B, C;\nstart {B}: call-seq B;\n").policies[0])
def test_in_place_reading_equals_slices(pol):
    for n in (*WALKED_WORDS, *LATE_SLICES):
        assert oracle.sat_policy(n, pol, ABC) == reference_sat_policy(n, pol, ABC), (pol, n)


# -- the oracle's verdicts, pinned -----------------------------------------

# SHA-256 over one byte per (word, policy), b"1" where sat_policy holds:
# every rooted word of <= 4 calls per small-corpus document and of <= 3
# calls per full-corpus document, in corpus order (35,771 pairs).
VERDICTS_SHA256 = "537f7acfa78a9a1ff93cb79ef560ca0a0e31803836192b49b34fab8ef058edec"


def test_corpus_verdicts_pinned():
    h = hashlib.sha256()
    for variant, max_calls in (("small", 4), ("full", 3)):
        for doc in corpus_documents(variant).values():
            for word in nw.enumerate_rooted(doc.alphabet, max_calls):
                for pol in doc.policies:
                    h.update(b"1" if oracle.sat_policy(word, pol, doc.alphabet) else b"0")
    assert h.hexdigest() == VERDICTS_SHA256
