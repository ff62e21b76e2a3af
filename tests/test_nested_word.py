"""Word reconstruction, tree-shaped derived sets, slicing, enumeration."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepolicy import compiler, mesh_sim, nested_word as nw
from treepolicy.corpus import corpus_documents
from treepolicy.errors import MalformedTrace, NotRooted

import reference as ref
from conftest import random_rooted_word, word_from_str
from test_mesh_sim import random_topology


def endpoints(path):
    return [a.endpoint for a in path]


def indices(path):
    return [a.index for a in path]


def n_calls(w):
    return sum(a.is_call for a in w.symbols)


class TestBuild:
    def test_single_pair(self):
        n = nw.build_nested_word([nw.call("P"), nw.ret("P")])
        assert ref.pairs(n) == frozenset({(1, 2)})
        assert [a.index for a in n.symbols] == [1, 2]

    def test_payment_word_matching(self, payment_word):
        assert ref.pairs(payment_word) == frozenset(
            {(1, 10), (2, 5), (3, 4), (6, 9), (7, 8)}
        )

    def test_mismatched_bracket(self):
        with pytest.raises(MalformedTrace):
            nw.build_nested_word([nw.call("A"), nw.ret("B")])

    def test_pending_and_orphans(self):
        n = nw.build_nested_word([nw.ret("A"), nw.call("B")])
        assert ref.pairs(n) == frozenset({(-math.inf, 1), (2, math.inf)})

    def test_empty_trace(self):
        with pytest.raises(MalformedTrace):
            nw.build_nested_word([])


class TestIndexedSymbol:
    def test_fields_and_views(self):
        a = nw.IndexedSymbol(nw.call("P"), 3)
        assert (a.symbol, a.index) == (nw.call("P"), 3)
        assert (a.tag, a.endpoint, a.is_call) == (nw.CALL, "P", True)
        b = nw.IndexedSymbol(nw.ret("P"), 4)
        assert (b.tag, b.endpoint, b.is_call) == (nw.RET, "P", False)
        assert [f.name for f in dataclasses.fields(a)] == ["symbol", "index"]

    def test_built_equals_constructed(self, payment_word):
        for pos, a in enumerate(payment_word.symbols, start=1):
            made = nw.IndexedSymbol(a.symbol, pos)
            assert type(a) is nw.IndexedSymbol
            assert a.index == pos
            assert made == a and hash(made) == hash(a) and repr(made) == repr(a)

    def test_value_equality(self):
        a = nw.IndexedSymbol(nw.call("P"), 1)
        assert a == nw.IndexedSymbol(nw.call("P"), 1)
        assert len({a, nw.IndexedSymbol(nw.call("P"), 1)}) == 1
        assert a != nw.IndexedSymbol(nw.call("P"), 2)
        assert a != nw.IndexedSymbol(nw.ret("P"), 1)
        assert a != (nw.call("P"), 1)

    def test_immutable(self, payment_word):
        for a in (payment_word.symbols[0], nw.IndexedSymbol(nw.call("P"), 1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                a.index = 2
            with pytest.raises(dataclasses.FrozenInstanceError):
                a.symbol = nw.ret("P")
            assert a.index == 1 and a.symbol == nw.call("P")

    @pytest.mark.parametrize("index", [0, -1])
    def test_index_below_one_rejected(self, index):
        with pytest.raises(ValueError):
            nw.IndexedSymbol(nw.call("P"), index)


class TestPredicates:
    def test_payment_word_rooted(self, payment_word):
        assert payment_word.is_well_matched()
        assert payment_word.is_rooted()

    def test_all_pending_calls(self):
        n = nw.build_nested_word([nw.call("A"), nw.call("B")])
        assert not n.is_well_matched()
        assert not n.is_rooted()

    def test_well_matched_but_not_rooted(self):
        n = word_from_str("<A A> <B B>")
        assert n.is_well_matched()
        assert not n.is_rooted()

    def test_tree_ops_require_rooted(self):
        n = word_from_str("<A A> <B B>")
        for op in (ref.seq, ref.seq_leaf, ref.children, ref.subtrees):
            with pytest.raises(NotRooted):
                op(n)


class TestSubWord:
    def test_first_subtree_slice(self, payment_word):
        sub = ref.sub_word(payment_word, 2, 5)
        assert [a.index for a in sub.symbols] == [2, 3, 4, 5]
        assert ref.pairs(sub) == frozenset({(2, 5), (3, 4)})

    def test_identity_slice(self, payment_word):
        assert ref.sub_word(payment_word, 1, 10) == payment_word

    def test_dangling_slice(self, payment_word):
        # indices 3..6: pair (3,4) interior; a5 loses its call; a6 loses its return
        sub = ref.sub_word(payment_word, 3, 6)
        assert ref.pairs(sub) == frozenset(
            {(3, 4), (-math.inf, 5), (6, math.inf)}
        )

    def test_bad_range(self, payment_word):
        with pytest.raises(ref.IndexOutOfRange):
            ref.sub_word(payment_word, 0, 3)
        with pytest.raises(ref.IndexOutOfRange):
            ref.sub_word(payment_word, 5, 5)

    def test_slice_against_bruteforce_restriction(self):
        rng = random.Random(42)
        for _ in range(200):
            n = random_rooted_word(rng, 6, ("A", "B"))
            lo, hi = n.first_index, n.last_index
            i = rng.randint(lo, hi - 1)
            j = rng.randint(i + 1, hi)
            sub = ref.sub_word(n, i, j)
            expect = set()
            for p, q in ref.pairs(n):
                if i <= p and q <= j:
                    expect.add((p, q))
                elif i <= p <= j < q:
                    expect.add((p, math.inf))
                elif p < i <= q <= j:
                    expect.add((-math.inf, q))
            assert ref.pairs(sub) == frozenset(expect)


class TestPaths:
    def test_payment_word_paths(self, payment_word):
        got = {tuple(indices(p)) for p in ref.seq(payment_word)}
        # the four branching paths plus the trivial root path
        assert got == {(1,), (1, 2), (1, 2, 3), (1, 6), (1, 6, 7)}

    def test_single_pair_paths(self):
        n = word_from_str("<A A>")
        assert [indices(p) for p in ref.seq(n)] == [[1]]

    def test_binary_tree_paths(self):
        n = word_from_str("<A <A A> <A A> A>")
        lengths = sorted(len(p) for p in ref.seq(n))
        assert lengths == [1, 2, 2]

    def test_payment_leaf_paths(self, payment_word):
        got = {tuple(endpoints(p)) for p in ref.seq_leaf(payment_word)}
        assert got == {("P", "D", "E")}
        assert {tuple(indices(p)) for p in ref.seq_leaf(payment_word)} == {(1, 2, 3), (1, 6, 7)}

    def test_chain_leaf_path(self):
        n = word_from_str("<A <B <C C> B> A>")
        leaf_paths = ref.seq_leaf(n)
        assert len(leaf_paths) == 1
        assert endpoints(leaf_paths[0]) == ["A", "B", "C"]

    def test_leaf_paths_subset_of_paths(self):
        rng = random.Random(3)
        for _ in range(100):
            n = random_rooted_word(rng, 7, ("A", "B"))
            paths = set(ref.seq(n))
            leaf_paths = ref.seq_leaf(n)
            leaf_calls = [
                a for a in n.symbols
                if a.is_call and ref.return_of(n, a.index) == a.index + 1
            ]
            assert len(leaf_paths) == len(leaf_calls)
            assert set(leaf_paths) <= paths


class TestChildrenSubtrees:
    def test_payment_children(self, payment_word):
        assert [a.index for a in ref.children(payment_word)] == [2, 6]

    def test_single_pair_children(self):
        assert ref.children(word_from_str("<A A>")) == ()

    def test_slice_children(self, payment_word):
        sub = ref.sub_word(payment_word, 2, 5)
        assert [a.index for a in ref.children(sub)] == [3]

    def test_payment_subtrees(self, payment_word):
        subs = ref.subtrees(payment_word)
        assert [s.first_index for s in subs] == [2, 6]
        assert subs[0] == ref.sub_word(payment_word, 2, 5)
        assert subs[1] == ref.sub_word(payment_word, 6, 9)

    def test_subtrees_rooted_and_partition(self):
        rng = random.Random(11)
        for _ in range(150):
            n = random_rooted_word(rng, 8, ("A", "B", "C"))
            covered = []
            for sub in ref.subtrees(n):
                assert sub.is_rooted()
                covered.extend(range(sub.first_index, sub.last_index + 1))
            assert sorted(covered) == list(range(n.first_index + 1, n.last_index))


def bruteforce_pairs(n):
    """Each call paired with the first symbol after which the word from the
    call on is balanced; valid on rooted words."""
    pairs = set()
    for k, a in enumerate(n.symbols):
        if a.is_call:
            depth = 0
            for b in n.symbols[k:]:
                depth += 1 if b.is_call else -1
                if depth == 0:
                    pairs.add((a.index, b.index))
                    break
    return pairs


def words_and_subtrees(rng, count):
    """Seeded random rooted words and, recursively, every subtree of each."""
    todo = [random_rooted_word(rng, 10, ("A", "B", "C")) for _ in range(count)]
    while todo:
        n = todo.pop()
        yield n
        todo.extend(ref.subtrees(n))


class TestTreeViewsAgainstDefinitions:
    def test_views_match_definitions(self):
        for n in words_and_subtrees(random.Random(2024), 150):
            pairs = bruteforce_pairs(n)
            assert ref.pairs(n) == frozenset(pairs)
            ret = dict(pairs)
            for i, j in pairs:
                assert ref.return_of(n, i) == j and ref.call_of(n, j) == i
            # the definition: the path to a_m is the calls at or before a_m
            # whose return lies after it
            calls = [a for a in n.symbols if a.is_call]
            paths = tuple(
                tuple(a for a in calls if a.index <= m.index < ret[a.index]) for m in calls
            )
            assert ref.seq(n) == paths
            assert ref.seq_leaf(n) == tuple(p for p in paths if ret[p[-1].index] == p[-1].index + 1)
            assert ref.children(n) == tuple(p[-1] for p in paths if len(p) == 2)

    def test_equal_windows_have_equal_relations(self):
        rng = random.Random(7)
        for _ in range(150):
            n = random_rooted_word(rng, 10, ("A", "B", "C"))
            i = rng.randint(n.first_index, n.last_index - 1)
            j = rng.randint(i + 1, n.last_index)
            a, b = ref.sub_word(n, i, j), ref.sub_word(n, i, j)
            assert a.matching == b.matching and hash(a.matching) == hash(b.matching)
            assert a == b and hash(a) == hash(b)
            i2 = rng.randint(n.first_index, n.last_index - 1)
            other = ref.sub_word(n, i2, rng.randint(i2 + 1, n.last_index))
            assert (other.matching == a.matching) == (ref.pairs(other) == ref.pairs(a))
            for t in ref.subtrees(n):
                again = ref.sub_word(n, t.first_index, t.last_index)
                assert again.matching == t.matching and hash(again.matching) == hash(t.matching)
        # two windows of pending calls alike in all but where they start
        chain = word_from_str("<A <A <A A> A> A>")
        assert ref.sub_word(chain, 1, 2).matching != ref.sub_word(chain, 2, 3).matching


class TestCallsProjection:
    def test_payment_projection(self, payment_word):
        path = ref.seq(payment_word)[2]
        assert tuple(a.endpoint for a in path) == ("P", "D", "E")

    def test_single_call(self):
        n = word_from_str("<A A>")
        assert tuple(a.endpoint for a in ref.seq(n)[0]) == ("A",)

    def test_length_preserved(self, payment_word):
        for p in ref.seq(payment_word):
            assert len(tuple(a.endpoint for a in p)) == len(p)


class TestEnumeration:
    def test_exactly_two_calls_one_label(self):
        words = [w for w in nw.enumerate_rooted(("A",), 2) if n_calls(w) == 2]
        assert len(words) == 1

    def test_exactly_three_calls_two_labels(self):
        words = [w for w in nw.enumerate_rooted(("A", "B"), 3) if n_calls(w) == 3]
        assert len(words) == 16

    def test_single_call(self):
        words = list(nw.enumerate_rooted(("A",), 1))
        assert len(words) == 1
        assert words[0].is_rooted()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_catalan_counts(self, m):
        # trees with c nodes over m labels: Catalan(c-1) * m^c
        alphabet = tuple("ABC"[:m])
        seen = list(nw.enumerate_rooted(alphabet, 5))
        assert len(seen) == len(set(seen)), "words must be distinct"
        by_calls = {}
        for w in seen:
            assert w.is_rooted()
            by_calls.setdefault(n_calls(w), 0)
            by_calls[n_calls(w)] += 1
        for c in range(1, 6):
            catalan = math.comb(2 * (c - 1), c - 1) // c
            assert by_calls[c] == catalan * m**c

    def test_deep_tree_serializes(self):
        depth = 5_000
        tree = ("B", ())
        for _ in range(depth - 1):
            tree = ("A", (tree,))
        inner = [nw.call("B"), nw.ret("B")]
        outer = depth - 1
        assert ref.tree_to_events(tree) == [nw.call("A")] * outer + inner + [nw.ret("A")] * outer

    def test_deterministic_order(self):
        first = [w for w in nw.enumerate_rooted(("A", "B"), 4)]
        second = [w for w in nw.enumerate_rooted(("A", "B"), 4)]
        assert first == second


@pytest.mark.parametrize("labels", ["A", "AB", "ABC"])
def test_enumeration_equals_recursive_reference(labels):
    for max_calls in range(1, 6):
        got = list(nw.enumerate_rooted(tuple(labels), max_calls))
        want = list(ref.reference_enumerate_rooted(tuple(labels), max_calls))
        assert got == want
        assert [w.matching.partner for w in got] == [w.matching.partner for w in want]


class TestCodedWords:
    """A word is its codes and its partner array.  Its symbols, made from the
    codes on their first read, are the events it was built from, and its
    equality and hash do not depend on the order its coding lists its
    endpoints in."""

    @staticmethod
    def _words(rng):
        """Words from every builder over both corpora: ``build_nested_word``,
        ``enumerate_rooted``, requests in both modes, and slices of each."""
        words = []
        for variant in ("small", "full"):
            for doc in corpus_documents(variant).values():
                alphabet = doc.alphabet
                words += [random_rooted_word(rng, 10, alphabet) for _ in range(3)]
                words += rng.sample(list(nw.enumerate_rooted(alphabet[:3], 3)), 4)
                topo = random_topology(rng, alphabet, max_nodes=40)
                filters = [mesh_sim.build_filter_set(compiler.compile(doc)[0])]
                for mode in (mesh_sim.MODE_LOG, mesh_sim.MODE_EARLY_BLOCK):
                    words.append(mesh_sim.execute_request(
                        topo, topo.entrypoints[0], filters, mode=mode).word)
        for w in list(words):
            i = rng.randrange(1, len(w))
            words.append(ref.sub_word(w, i, rng.randint(i + 1, len(w))))
        return words

    def test_symbols_rebuild_the_word(self):
        rng = random.Random(27)
        words = self._words(rng)
        assert len(words) == 2 * 18 * 9
        for w in words:
            events = [a.symbol for a in w.symbols]
            assert [a.index for a in w.symbols] == list(range(w.first_index, w.last_index + 1))
            assert len(events) == len(w)
            rebuilt = nw.build_nested_word(events)
            # a slice keeps its indices; the same events from 1 shift them
            shift = w.first_index - 1
            assert rebuilt.matching.partner == tuple(
                j if math.isinf(j) else j - shift for j in w.matching.partner)
            if not shift:
                assert rebuilt == w and hash(rebuilt) == hash(w) and repr(rebuilt) == repr(w)
            assert nw.serialize_trace(w) == nw.serialize_trace(events)

    def test_equality_ignores_the_endpoint_order(self):
        rng = random.Random(28)
        words = self._words(rng)
        changed = 0
        for w in words:
            other = ref.recode(w, ("Unused", *reversed(w.coding[0])))
            changed += list(other.coding[1]) != list(w.coding[1])
            assert other == w and hash(other) == hash(w) and repr(other) == repr(w)
            assert other.symbols == w.symbols
        assert changed > len(words) // 2
        assert word_from_str("<A A>") != word_from_str("<B B>")
        assert word_from_str("<A <B B> A>") != word_from_str("<A <A A> A>")
        assert word_from_str("<A A>") != word_from_str("A> <A")

    def test_enumerated_equals_built_in_first_seen_order(self):
        alphabet = ("C", "A", "B")  # enumerated words are coded in this order
        recoded = 0
        for w in nw.enumerate_rooted(alphabet, 3):
            built = nw.build_nested_word([a.symbol for a in w.symbols])
            assert built == w and hash(built) == hash(w)
            assert built.matching.partner == w.matching.partner
            recoded += built.coding[0] != w.coding[0]
        assert recoded


class TestTraceFormat:
    def test_round_trip(self, payment_word):
        text = nw.serialize_trace(payment_word)
        rebuilt = nw.build_nested_word(nw.parse_trace(text))
        assert rebuilt == payment_word

    def test_format_shape(self):
        text = nw.serialize_trace([nw.call("P"), nw.ret("P")])
        assert text.splitlines() == [
            '{"tag": "call", "endpoint": "P"}',
            '{"tag": "ret", "endpoint": "P"}',
        ]

    def test_parse_rejects_garbage(self):
        with pytest.raises(MalformedTrace):
            nw.parse_trace("not json\n")
        with pytest.raises(MalformedTrace):
            nw.parse_trace('{"tag": "call"}\n')
        with pytest.raises(MalformedTrace):
            nw.parse_trace('{"tag": "jump", "endpoint": "A"}\n')

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**62), st.integers(min_value=1, max_value=10))
    def test_round_trip_property(self, seed, size):
        rng = random.Random(seed)
        n = random_rooted_word(rng, size, ("A", "B", "C"))
        assert nw.build_nested_word(nw.parse_trace(nw.serialize_trace(n))) == n
