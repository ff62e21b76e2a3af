"""Property: every command exits 0, 1 or 2 on any input, never with a traceback.

Documents, traces and topologies are drawn small enough to compile in
milliseconds, plus regex shapes that are long or deep by data alone: union
chains and star runs of up to 1,500 terms and parentheses nested up to 400.
Each input may then be mangled by a few random edits.  The automaton and
filter readers get exported documents with members replaced, dropped or
trimmed, their ``reject`` member among them, and may only refuse them with
``VpaParseError``.  Nothing here starts a thread or a process.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treepolicy import cli, monitor
from treepolicy import nested_word as nw
from treepolicy.errors import TreePolicyError, VpaParseError
from treepolicy.vpa import export_vpa, import_vpa, initial_configuration

from conftest import payment_chain_vpa, two_state_vpa, word_from_str
from reference import tree_to_events

NAMES = ("A", "B", "C")
# tokens an edit may splice into a document: punctuation, keywords and a
# name outside every alphabet
DOC_TOKENS = (";", ",", ":", "(", ")", "{", "}", "*", "+", "!", "#", " match ", " then ",
              " call-seq ", " all-path ", " eps ", "Z", "\n")
BAD_LINES = ("", "[", '"x"', "{}", '{"tag": "call"}', '{"tag": "jump", "endpoint": "A"}',
             '{"tag": "call", "endpoint": ""}', '{"tag": "ret", "endpoint": 5}',
             '{"tag": "call", "endpoint": "Z"}', '{"tag": "ret", "endpoint": "A", "x": 1}')
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(allow_nan=False, width=16),
    st.sampled_from(NAMES + ("Z", "")),
    st.lists(st.sampled_from(NAMES + ("Z",)), max_size=3),
    st.dictionaries(st.sampled_from(NAMES), st.integers(0, 3), max_size=2),
)


def _maybe(edit):
    """No edits half of the time, else one or two."""
    return st.one_of(st.just([]), st.lists(edit, min_size=1, max_size=2))


def _chain(op: str, names: tuple[str, ...], n: int) -> str:
    return "(" + op.join(names[i % len(names)] for i in range(n)) + ")"


@st.composite
def regexes(draw, names):
    atoms = st.sampled_from(
        list(names) + ["any", "star", "eps", "empty", "{" + ", ".join(names) + "}", "!" + names[0]]
    )
    small = st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(" ".join),
            st.tuples(inner, inner).map(" + ".join),
            inner.map(lambda r: f"({r})*"),
            inner.map(lambda r: f"({r})"),
        ),
        max_leaves=6,
    )
    kind = draw(st.sampled_from(["small", "concat", "union", "stars", "parens"]))
    if kind == "concat":
        return _chain(" ", names, draw(st.integers(1, 8)))
    if kind == "union":
        return _chain(" + ", names, draw(st.integers(1, 1_500))) + draw(st.sampled_from(["", "*"]))
    r = draw(small)
    if kind == "stars":
        return f"({r})" + "*" * draw(st.integers(1, 1_500))
    if kind == "parens":
        n = draw(st.integers(1, 400))
        return "(" * n + r + ")" * n
    return r


@st.composite
def hierarchical(draw, names, depth):
    # a match regex must not accept the empty word; a leading name rules
    # that out, so most drawn policies get past validation
    reg = draw(st.sampled_from(names * 3 + ("",))) + " " + draw(regexes(names))
    form = draw(st.sampled_from(["all-path"] if depth == 1 else
                                ["all-path", "all-children", "exists-child"]))
    if form == "all-path":
        return f"match {reg} all-path {draw(regexes(names))}"
    if form == "all-children":
        return f"match {reg} all-children ({draw(hierarchical(names, depth - 1))})"
    subs = draw(st.lists(hierarchical(names, depth - 1), min_size=1, max_size=2))
    return f"match {reg} exists-child " + " then ".join(f"({s})" for s in subs)


def _edit(text: str, edits) -> str:
    for pos, cut, token in edits:
        pos %= len(text) + 1
        text = text[:pos] + token + text[pos + cut:]
    return text


@st.composite
def documents(draw, names):
    policies = []
    for _ in range(draw(st.integers(1, 2))):
        start = draw(st.sets(st.sampled_from(names), min_size=1))
        start_text = draw(st.sampled_from(["star", "{" + ", ".join(sorted(start)) + "}"]))
        if draw(st.booleans()):
            inner = f"call-seq {draw(regexes(names))}"
        else:
            inner = draw(hierarchical(names, draw(st.integers(1, 2))))
        policies.append(f"start {start_text}: {inner};\n")
    text = f"alphabet {', '.join(names)};\n" + "".join(policies)
    edits = draw(_maybe(
        st.tuples(st.integers(0, 10**6), st.integers(0, 3), st.sampled_from(DOC_TOKENS + ("",)))
    ))
    return _edit(text, edits)


@st.composite
def traces(draw, names):
    n = draw(st.integers(1, 12))
    labels = draw(st.lists(st.sampled_from(names), min_size=n, max_size=n))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    children = [[] for _ in range(n)]
    for i, p in enumerate(parents, start=1):
        children[p].append(i)

    def tree(i):
        return (labels[i], tuple(tree(c) for c in children[i]))

    lines = nw.serialize_trace(tree_to_events(tree(0))).splitlines()
    for op, at, bad in draw(_maybe(
        st.tuples(st.sampled_from(["drop", "repeat", "swap", "replace"]),
                  st.integers(0, 100), st.sampled_from(BAD_LINES))
    )):
        if not lines:
            break
        i = at % len(lines)
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            lines[i], lines[-1] = lines[-1], lines[i]
        else:
            lines[i] = bad
    return "\n".join(lines) + "\n"


@st.composite
def topologies(draw):
    services = draw(st.lists(st.sampled_from(("A", "B", "Z")), min_size=1, max_size=3, unique=True))
    order = {s: k for k, s in enumerate(services)}
    behavior = {}
    for s in services:
        later = [t for t in services if order[t] > order[s]]  # acyclic unless mistyped
        if later:
            behavior[s] = draw(st.lists(st.sampled_from(later), max_size=3))
    doc = {"version": 1, "services": services, "behavior": behavior,
           "entrypoints": draw(st.lists(st.sampled_from(services), min_size=1, max_size=2))}
    for field in draw(_maybe(st.sampled_from(sorted(doc) + ["extra"]))):
        doc[field] = draw(JSON_VALUES)
    return json.dumps(doc)


@st.composite
def mangled(draw, doc: dict, names: list[str]) -> dict:
    """``doc`` with up to two members replaced by a drawn value or a name
    from ``names``, dropped, or with a rule list cut short."""
    doc = dict(doc)
    for field in draw(_maybe(st.sampled_from(sorted(doc) + ["reject"]))):
        how = draw(st.sampled_from(["value", "name", "drop", "cut"]))
        if how == "value":
            doc[field] = draw(JSON_VALUES)
        elif how == "name":
            doc[field] = draw(st.sampled_from(names))
        elif how == "drop":
            doc.pop(field, None)
        elif isinstance(doc.get(field), list):
            doc[field] = doc[field][:draw(st.integers(0, len(doc[field])))]
    return doc


@st.composite
def artifact_documents(draw):
    """An exported automaton and its filter specs, as JSON objects, each
    perhaps mangled."""
    v = draw(st.sampled_from([two_state_vpa(), payment_chain_vpa()]))
    names = sorted(v.states) + ["nowhere"]
    vpa_doc = draw(mangled(json.loads(export_vpa(v, "json")), names))
    filter_docs = [draw(mangled(json.loads(monitor.filter_spec_to_json(spec)), names))
                   for spec in monitor.emit_filters(monitor.extract_monitor(v))]
    return v, vpa_doc, filter_docs


ALPHABETS = st.integers(1, 3).map(lambda k: NAMES[:k])


def _run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


# about 40 ms an example: some 30 s for the three properties together
FUZZ = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                           HealthCheck.function_scoped_fixture],
)


def _write(path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestFuzzCli:
    @settings(FUZZ, max_examples=250)
    @given(case=ALPHABETS.flatmap(lambda names: st.tuples(documents(names), traces(names))),
           command=st.sampled_from([["check"], ["check", "--mode", "dist"], ["oracle"]]))
    def test_trace_commands(self, tmp_path, case, command):
        doc, trace = case
        policy = _write(tmp_path / "policy.stp", doc)
        trace_path = _write(tmp_path / "trace.jsonl", trace)
        code, err = _run([command[0], policy, trace_path] + command[1:])
        assert code in (0, 1, 2) and "Traceback" not in err, err

    @settings(FUZZ, max_examples=150)
    @given(doc=ALPHABETS.flatmap(documents), command=st.sampled_from([["format"], ["equiv", "--max-calls", "2"]]))
    def test_document_commands(self, tmp_path, doc, command):
        policy = _write(tmp_path / "policy.stp", doc)
        code, err = _run([command[0], policy] + command[1:])
        assert code in (0, 1, 2) and "Traceback" not in err, err

    @settings(FUZZ, max_examples=250)
    @given(doc=ALPHABETS.flatmap(documents), topology=topologies(), mode=st.sampled_from(["log", "early_block"]))
    def test_simulate(self, tmp_path, doc, topology, mode):
        policy = _write(tmp_path / "policy.stp", doc)
        topo = _write(tmp_path / "topo.json", topology)
        code, err = _run(["simulate", topo, policy, "--requests", "2", "--mode", mode])
        assert code in (0, 1, 2) and "Traceback" not in err, err

    @settings(FUZZ, max_examples=200)
    @given(case=artifact_documents())
    def test_artifact_readers(self, case):
        v, vpa_doc, filter_docs = case
        try:
            import_vpa(json.dumps(vpa_doc))
        except VpaParseError:
            pass
        try:
            m = monitor.monitor_from_filters(
                monitor.filter_spec_from_json(json.dumps(d)) for d in filter_docs)
        except VpaParseError:
            return
        for trace in ("<P <D D> P>", "<Appt Appt>"):
            try:
                monitor.dist_run(m, initial_configuration(v), word_from_str(trace))
            except TreePolicyError:
                pass
