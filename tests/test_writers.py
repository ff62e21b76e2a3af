"""The templated artifact writers against the straightforward ones.

Each reference writer in ``reference.py`` builds the document the plain way:
one dict per automaton rule through ``json.dumps(indent=2,
ensure_ascii=False)``, one ``json.dumps`` array per filter rule, one quoted
label per DOT edge, one table row per script state, leaving out the rules
into the automaton's declared reject state.  The writers must give the same
bytes on hand-built automata and filter specs whose names hold quotes,
backslashes, control characters and non-ASCII text, and on empty tables.
Every script reads back (``reference.read_script``) to the rules, reject
state, endpoint and header it was rendered from.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from treepolicy import compiler, monitor
from treepolicy.corpus import corpus_documents
from treepolicy.vpa import BOTTOM, Vpa, export_vpa, import_vpa

from reference import (
    explicit_rules,
    read_script,
    reference_dot,
    reference_filter_json,
    reference_script,
    reference_vpa_json,
)

NAMES = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\n\t/é⊥€𝄞'), st.characters()), max_size=4)


@st.composite
def vpas(draw) -> Vpa:
    """A deterministic complete automaton over drawn names; the alphabet may
    be empty, and then both tables are.  Perhaps one drawn state is made a
    reject sink, which the automaton declares: non-final, pushed, and kept
    by each of its rules."""
    states = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    alphabet = draw(st.lists(NAMES, max_size=3, unique=True))
    pushed = draw(st.lists(NAMES.filter(lambda s: s != BOTTOM), min_size=1, max_size=3, unique=True))
    sink = draw(st.sampled_from([None, *(q for q in states if q != BOTTOM)]))
    if sink is not None and sink not in pushed:
        pushed.append(sink)
    stack_alphabet = [BOTTOM, *pushed]
    state = st.sampled_from(states)
    delta_call = {
        (q, e): (sink, sink) if q == sink else (draw(state), draw(st.sampled_from(pushed)))
        for q in states for e in alphabet
    }
    delta_return = {
        (q, s, e): sink if q == sink else draw(state)
        for q in states for s in stack_alphabet for e in alphabet
    }
    finals = [q for q in draw(st.lists(state, unique=True)) if q != sink]
    return Vpa.from_rules(states, draw(state), finals, alphabet, stack_alphabet,
                          delta_call, delta_return, sink)


@st.composite
def filter_specs(draw) -> monitor.FilterSpec:
    on_request = draw(st.dictionaries(NAMES, st.tuples(NAMES, NAMES), max_size=5))
    on_response = draw(st.dictionaries(st.tuples(NAMES, NAMES), NAMES, max_size=5))
    return monitor.FilterSpec(draw(NAMES), on_request, on_response, draw(st.none() | NAMES))


@settings(max_examples=200, deadline=None)
@given(vpas())
def test_vpa_writers_equal_reference(v):
    text = export_vpa(v, "json")
    assert text == reference_vpa_json(v)
    assert import_vpa(text) == v
    assert export_vpa(v, "dot") == reference_dot(v)


@settings(max_examples=200, deadline=None)
@given(filter_specs(), NAMES)
def test_filter_writers_equal_reference(spec, header):
    text = monitor.filter_spec_to_json(spec)
    assert text == reference_filter_json(spec)
    assert monitor.filter_spec_from_json(text) == spec
    script = monitor.render_filter_script(spec, header=header)
    assert script == reference_script(spec, header)
    assert read_script(script) == (spec, header)


@settings(max_examples=200, deadline=None)
@given(vpas(), NAMES)
def test_extracted_specs_equal_reference(v, header):
    # an extracted spec reads the automaton's table in place and lists
    # every rule but the declared sink's: only the compiler drops unread cells
    specs = monitor.emit_filters(monitor.extract_monitor(v))
    texts = [monitor.filter_spec_to_json(s) for s in specs]
    calls, returns = explicit_rules(v)
    for spec, text in zip(specs, texts):
        e = spec.endpoint
        assert spec.reject == v.sink
        assert dict(spec.on_request) == {q: r for (q, a), r in calls.items() if a == e}
        assert dict(spec.on_response) == {
            (q, g): r for (q, g, a), r in returns.items() if a == e
        }
        assert (len(spec.on_request), len(spec.on_response)) == (
            len(dict(spec.on_request)), len(dict(spec.on_response)))
        assert text == reference_filter_json(spec)
        assert monitor.filter_spec_from_json(text) == spec
        assert monitor.render_filter_script(spec, header=header) == reference_script(spec, header)
    readback = monitor.monitor_from_filters(map(monitor.filter_spec_from_json, texts))
    assert list(readback.values()) == specs
    assert monitor.monitor_from_filters(specs).table is not v.table


def test_corpus_scripts_read_back():
    # every corpus filter, in both encodings, as emit-filters names its header
    specs = 0
    for variant in ("small", "full"):
        for doc in corpus_documents(variant).values():
            for art in compiler.compile(doc):
                header = f"{monitor.STATE_HEADER}-{art.policy_id}"
                for spec in monitor.emit_filters(monitor.extract_monitor(art.vpa)):
                    specs += 1
                    script = monitor.render_filter_script(spec, header=header)
                    assert read_script(script) == (spec, header), spec.endpoint
                    assert spec.reject == art.vpa.sink == "rej"
    assert specs == 131


def test_empty_tables():
    spec = monitor.FilterSpec("X", {}, {})
    assert monitor.filter_spec_to_json(spec) == reference_filter_json(spec)
    assert monitor.render_filter_script(spec) == reference_script(spec, monitor.STATE_HEADER)
    assert read_script(monitor.render_filter_script(spec)) == (spec, monitor.STATE_HEADER)
    v = Vpa.from_rules({"q"}, "q", (), (), {BOTTOM}, {}, {})
    assert export_vpa(v, "json") == reference_vpa_json(v)
    assert '"delta_call": [],\n  "delta_return": []\n}\n' in export_vpa(v, "json")


def _dot_strings_close(line: str) -> bool:
    """Whether every quoted string on a DOT line closes, reading a backslash
    and the character after it as one pair."""
    inside = escaped = False
    for ch in line:
        if escaped:
            escaped = False
        elif inside and ch == "\\":
            escaped = True
        elif ch == '"':
            inside = not inside
    return not inside


def test_dot_escapes_backslashes():
    q = "a\\"
    v = Vpa.from_rules({q}, q, {q}, ("E",), {BOTTOM, q},
                       {(q, "E"): (q, q)}, {(q, g, "E"): q for g in (BOTTOM, q)})
    dot = export_vpa(v, "dot")
    assert '  "a\\\\" [shape=doublecircle];' in dot.splitlines()
    assert all(_dot_strings_close(line) for line in dot.splitlines())
    assert dot == reference_dot(v)
