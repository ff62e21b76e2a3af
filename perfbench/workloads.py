"""The four workloads: set-up, operations and the checks of their outputs.

Each workload builds its inputs from the run's seed, performs the program's
set-up once per set-up repetition, and then hands out rounds of operations.
A round is always the same list of operations over the same kind of input,
so every run attempts whole rounds.  Each operation is a thunk that calls
the program's public functions and returns what the program produced; the
workload's ``check`` judges that output right after the operation, outside
its timer, against the reference oracle, a closed form, or a property the
method must have.  A check never compares against stored automaton output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Any, Callable

import inputs
from treepolicy import cli, compiler, corpus, mesh_sim, monitor, oracle, policy, vpa
from treepolicy import nested_word as nw

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str  # "shallow" or "deep": which per-symbol layer metrics it feeds
    units: int  # units of work, for work_per_s
    run: Callable[[], Any]
    data: Any = None  # what the check needs to know about the input


SIZE_KEYS = ("vpa_states", "header_bits", "filter_rules", "filter_bytes")


def emit(a):
    """Filter specs of one compiled policy, with the JSON texts and sidecar
    scripts that ``emit-filters`` writes for them."""
    specs = monitor.emit_filters(monitor.extract_monitor(a.vpa))
    header = f"{monitor.STATE_HEADER}-{a.policy_id}"
    return (specs, [monitor.filter_spec_to_json(s) for s in specs],
            [monitor.render_filter_script(s, header=header) for s in specs])


def sizes_of(a, specs, texts) -> dict[str, int]:
    return {
        "vpa_states": a.metrics.state_count,
        "header_bits": a.metrics.header_bits,
        "filter_rules": sum(len(s.on_request) + len(s.on_response) for s in specs),
        "filter_bytes": sum(len(t.encode("utf-8")) for t in texts),
    }


def total(sizes) -> dict[str, int]:
    sizes = list(sizes)
    return {key: sum(s[key] for s in sizes) for key in SIZE_KEYS}


def artifact_sizes(artifacts) -> dict[str, int]:
    """Sizes of compiled automata and of their emitted filters."""
    parts = []
    for a in artifacts:
        specs, filters, scripts = emit(a)
        parts.append(sizes_of(a, specs, filters + scripts))
    return total(parts)


def _compile_set(text: str):
    doc = policy.parse_policy(text)
    return doc, compiler.compile(doc)


class Workload:
    name = ""
    setup_reps = 5

    def setup(self, rep: int) -> None:
        """One repetition of the program's set-up.  The first runs before
        any operation and is the one the operations use; the others run
        between rounds and are only timed."""
        raise NotImplementedError

    def round_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, output) -> str | None:
        """None when the output is right, else what is wrong with it."""
        raise NotImplementedError

    def sizes(self) -> dict[str, int]:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Per-layer figures the workload counts from operation outputs."""
        return {}


# -- compile-corpus -----------------------------------------------------------

EXHAUSTIVE_CALLS = 2  # every rooted word up to this many calls ...
SAMPLE_WORDS = 6  # ... plus this many seeded words of 3..SAMPLE_MAX_CALLS calls
SAMPLE_MAX_CALLS = 12
MAX_HEADER_BITS = 8


def compile_to_artifacts(text: str):
    """Policy text to deployable artifacts, as ``compile`` and
    ``emit-filters`` produce them (held in memory, not written)."""
    doc = policy.parse_policy(text)
    out = []
    for a in compiler.compile(doc):
        vpa_json = vpa.export_vpa(a.vpa, "json")
        dot = vpa.export_vpa(a.vpa, "dot")
        bound_holds = compiler.check_state_bound(a)
        specs, filters, scripts = emit(a)
        out.append({"artifact": a, "vpa_json": vpa_json, "dot": dot, "bound_holds": bound_holds,
                    "specs": specs, "filters": filters, "scripts": scripts})
    return doc, out


class CompileCorpus(Workload):
    """Nine full-corpus documents and sixteen synthetic ones, each taken from
    text to automaton JSON and DOT, filter specs and sidecar scripts.  Every
    round and every set-up pass compiles a fresh relabeling of the set."""

    name = "compile-corpus"

    def __init__(self, seed: int):
        self.seed = seed
        self.policy_set = inputs.compile_set(seed)
        self.corpus_names = {e.name for e in corpus.CORPUS}
        self._words: dict[tuple, list] = {}
        self._sizes: dict[str, dict[str, int]] = {}

    def _relabeled(self, tag: str) -> list[tuple[str, str]]:
        rng = random.Random(f"compile-corpus/{self.seed}/{tag}")
        return [(name, inputs.relabel(text, rng)) for name, text in self.policy_set]

    def setup(self, rep: int) -> None:
        for _name, text in self._relabeled(f"setup{rep}"):
            compile_to_artifacts(text)

    def round_ops(self, index: int) -> list[Op]:
        return [Op("shallow", 1, lambda t=text: compile_to_artifacts(t), name)
                for name, text in self._relabeled(f"round{index}")]

    def _sample_words(self, alphabet: tuple) -> list:
        if alphabet not in self._words:
            rng = random.Random(f"compile-words/{self.seed}/{','.join(alphabet)}")
            words = list(nw.enumerate_rooted(alphabet, EXHAUSTIVE_CALLS))
            words += [inputs.random_word(rng, SAMPLE_MAX_CALLS, alphabet)
                      for _ in range(SAMPLE_WORDS)]
            self._words[alphabet] = words
        return self._words[alphabet]

    def check(self, op: Op, output) -> str | None:
        doc, outs = output
        if len(outs) != len(doc.policies):
            return "artifact count differs from policy count"
        for pol, out in zip(doc.policies, outs):
            a = out["artifact"]
            if not out["bound_holds"] or not compiler.check_state_bound(a):
                return f"{op.data}: state bound violated"
            if op.data in self.corpus_names and a.metrics.header_bits > MAX_HEADER_BITS:
                return f"{op.data}: {a.metrics.header_bits} header bits"
            readback = monitor.monitor_from_filters(
                monitor.filter_spec_from_json(t) for t in out["filters"])
            init = vpa.initial_configuration(a.vpa)
            for word in self._sample_words(doc.alphabet):
                central = vpa.run(a.vpa, word, init)[-1]
                if monitor.dist_run(readback, init, word) != central:
                    return f"{op.data}: filters read back disagree with the automaton"
                if (central.state in a.vpa.finals) != oracle.sat_policy(word, pol, doc.alphabet):
                    return f"{op.data}: verdict differs from the oracle"
        if op.data not in self._sizes:
            self._sizes[op.data] = total(sizes_of(o["artifact"], o["specs"], o["filters"] + o["scripts"])
                                         for o in outs)
        return None

    def sizes(self) -> dict[str, int]:
        """Sizes over the policy set, each policy counted once (relabelings
        of one policy have the same sizes)."""
        if len(self._sizes) != len(self.policy_set):
            return {}
        return total(self._sizes.values())


# -- the nine corpus policies over their union alphabet -----------------------


class UnionSetup(Workload):
    """Set-up shared by check-traces and mesh-sim: parse and compile the
    nine full-corpus policies over their union alphabet.  The first
    repetition compiles the document itself and is kept; the others compile
    relabelings, so that no repetition can reuse another's work."""

    def __init__(self, seed: int):
        self.seed = seed
        self.text = inputs.union_document()
        self.doc = None
        self.artifacts = []

    def _text_for(self, rep: int) -> str:
        if rep == 0:
            return self.text
        return inputs.relabel(self.text, random.Random(f"{self.name}/{self.seed}/setup{rep}"))

    def sizes(self) -> dict[str, int]:
        return artifact_sizes(self.artifacts)


def _oracle_verdicts(word, doc) -> list[bool]:
    return [oracle.sat_policy(word, pol, doc.alphabet) for pol in doc.policies]


class RunMismatch(Exception):
    pass


class CheckTraces(UnionSetup):
    """Seeded JSONL traces, each checked against the nine policies in
    central and distributed mode as ``check`` does, with compilation and
    monitor extraction done in set-up."""

    name = "check-traces"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.traces = inputs.check_traces(seed)
        stored = json.loads((HERE / "deep_verdicts.json").read_text(encoding="utf-8"))
        if stored["policy_document_sha256"] != inputs.digest(self.text):
            raise SystemExit("deep_verdicts.json was made for another policy document; "
                             "run perfbench/regen_deep_verdicts.py")
        by_chain = {(c["depth"], c["variant"]): c for c in stored["chains"]}
        self.expected: dict[int, list[bool]] = {}
        for i, t in enumerate(self.traces):
            if t["kind"] != "deep":
                continue
            entry = by_chain.get((t["depth"], t["variant"]))
            if entry is None or entry["sha256"] != inputs.digest(t["text"]):
                raise SystemExit(f"no stored verdicts for deep chain {t['depth']}/{t['variant']}; "
                                 "run perfbench/regen_deep_verdicts.py")
            self.expected[i] = entry["verdicts"]
        self.monitors = []

    def setup(self, rep: int) -> None:
        doc, artifacts = _compile_set(self._text_for(rep))
        monitors = [monitor.extract_monitor(a.vpa) for a in artifacts]
        if rep == 0:
            self.doc, self.artifacts, self.monitors = doc, artifacts, monitors

    def check_trace(self, text: str):
        """What ``check`` does after compiling: load the word, run it
        centrally and through the distributed monitor, compare, judge."""
        events = nw.parse_trace(text)
        unknown = {e.endpoint for e in events} - set(self.doc.alphabet)
        if unknown:
            raise ValueError(f"trace endpoints not in policy alphabet: {sorted(unknown)}")
        word = nw.build_nested_word(events)
        if not word.is_rooted():
            raise ValueError("trace is not a rooted well-matched service tree")
        verdicts = []
        for a, mon in zip(self.artifacts, self.monitors):
            init = vpa.initial_configuration(a.vpa)
            central = vpa.run(a.vpa, word, init)[-1]
            dist = monitor.dist_run(mon, init, word)
            if central != dist:
                raise RunMismatch(f"central and distributed runs disagree on {a.policy_id}")
            verdicts.append(central.state in a.vpa.finals)
        return word, verdicts

    def round_ops(self, index: int) -> list[Op]:
        return [Op(t["kind"], len(t["events"]), lambda text=t["text"]: self.check_trace(text), i)
                for i, t in enumerate(self.traces)]

    def check(self, op: Op, output) -> str | None:
        _word, verdicts = output
        if op.data not in self.expected:
            # The oracle's word is built from the generated events, not from
            # the program's parse of the trace text.
            word = nw.build_nested_word(self.traces[op.data]["events"])
            self.expected[op.data] = _oracle_verdicts(word, self.doc)
        if verdicts != self.expected[op.data]:
            return f"trace {op.data}: verdicts differ from the oracle"
        return None


class MeshSim(UnionSetup):
    """Seeded tree-shaped topologies executed one request at a time with
    all nine policies monitored, each with its own header; every topology
    runs once in log mode and once in early-block mode per round."""

    name = "mesh-sim"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.topologies = [(t, t.entrypoints[0], t.node_count(t.entrypoints[0]))
                           for t in inputs.mesh_topologies(seed)]
        self.filters = []
        self._verdicts: dict[tuple, list[bool]] = {}
        self._log_words: dict[int, Any] = {}
        self._transitions = 0
        self._requests = 0
        self._blocked_nodes = 0
        self._skipped_nodes = 0

    def setup(self, rep: int) -> None:
        doc, artifacts = _compile_set(self._text_for(rep))
        filters = [mesh_sim.build_filter_set(a) for a in artifacts]
        if rep == 0:
            self.doc, self.artifacts, self.filters = doc, artifacts, filters

    def round_ops(self, index: int) -> list[Op]:
        ops = []
        for i, (topo, root, nodes) in enumerate(self.topologies):
            for mode in (mesh_sim.MODE_LOG, mesh_sim.MODE_EARLY_BLOCK):
                ops.append(Op("shallow", 0, lambda t=topo, r=root, m=mode:
                              mesh_sim.execute_request(t, r, self.filters, mode=m),
                              (i, mode, nodes)))
        return ops

    def _oracle(self, word) -> list[bool]:
        key = tuple(a.symbol for a in word.symbols)
        if key not in self._verdicts:
            self._verdicts[key] = _oracle_verdicts(word, self.doc)
        return self._verdicts[key]

    def check(self, op: Op, result) -> str | None:
        index, mode, nodes = op.data
        executed = len(result.word) // 2
        op.units = executed
        self._requests += 1
        self._transitions += result.transitions_total
        want = self._oracle(result.word)
        blocked = []
        for pf, ok in zip(self.filters, want):
            outcome = result.outcomes[pf.policy_id]
            if outcome.kind == "blocked":
                blocked.append(pf.policy_id)
            elif outcome.kind != ("accept" if ok else "violation"):
                return f"topology {index} {mode}: {pf.policy_id} {outcome.kind}, oracle says {ok}"
        if mode == mesh_sim.MODE_LOG:
            if blocked:
                return f"topology {index}: log mode blocked"
            if executed != nodes or result.transitions_total != 2 * nodes * len(self.filters):
                return f"topology {index}: {result.transitions_total} transitions for {nodes} nodes"
            self._log_words[index] = result.word
            return None
        if blocked:
            self._blocked_nodes += nodes
            self._skipped_nodes += nodes - executed
            full = self._oracle(self._log_words[index])
            for pf, ok in zip(self.filters, full):
                if pf.policy_id in blocked and ok:
                    return f"topology {index}: {pf.policy_id} blocked a request the oracle accepts"
        return None

    def counters(self) -> dict[str, float]:
        return {
            "mesh_sim.transitions_per_request": self._transitions / self._requests if self._requests else 0.0,
            "mesh_sim.nodes_skipped_share": (self._skipped_nodes / self._blocked_nodes
                                             if self._blocked_nodes else 0.0),
        }


# -- equiv-exhaustive ---------------------------------------------------------

EQUIV_MAX_CALLS = 3


def rooted_word_count(k: int, max_calls: int) -> int:
    """Rooted well-matched words over k endpoints with 1..max_calls calls:
    sum over n of Catalan(n-1) * k^n (ordered trees times labelings)."""
    return sum(comb(2 * (n - 1), n - 1) // n * k ** n for n in range(1, max_calls + 1))


class EquivExhaustive(Workload):
    """``treepolicy equiv --max-calls 3`` run in-process on each small-corpus
    policy, relabeled afresh every round."""

    name = "equiv-exhaustive"
    setup_reps = 21  # its set-up lasts tens of milliseconds

    def __init__(self, seed: int):
        self.seed = seed
        self.entries = [(e.name, e.small) for e in corpus.CORPUS]
        self.artifacts = []

    def _relabeled(self, tag: str) -> list[tuple[str, str]]:
        rng = random.Random(f"equiv/{self.seed}/{tag}")
        docs = [(name, inputs.relabel(text, rng)) for name, text in self.entries]
        rng.shuffle(docs)
        return docs

    def setup(self, rep: int) -> None:
        artifacts = []
        for _name, text in self._relabeled(f"setup{rep}"):
            _doc, arts = _compile_set(text)
            for a in arts:
                monitor.extract_monitor(a.vpa)
            artifacts.extend(arts)
        if rep == 0:
            self.artifacts = artifacts

    @staticmethod
    def run_equiv(text: str):
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["equiv", "-", "--max-calls", str(EQUIV_MAX_CALLS)])
        finally:
            sys.stdin = stdin
        return code, out.getvalue(), err.getvalue()

    def round_ops(self, index: int) -> list[Op]:
        ops = []
        for name, text in self._relabeled(f"round{index}"):
            k = len(inputs.split_document(text)[1])
            words = rooted_word_count(k, EQUIV_MAX_CALLS)
            ops.append(Op("shallow", words, lambda t=text: self.run_equiv(t), (name, words)))
        return ops

    def check(self, op: Op, output) -> str | None:
        name, words = op.data
        code, out, err = output
        if code != 0:
            return f"{name}: equiv exited {code}: {err.strip()[:200]}"
        report = json.loads(out)
        if report.get("agreement") is not True or report.get("policies") != 1:
            return f"{name}: {report}"
        if report.get("words_checked") != words:
            return f"{name}: {report.get('words_checked')} words checked, closed form {words}"
        return None

    def sizes(self) -> dict[str, int]:
        return artifact_sizes(self.artifacts)


WORKLOADS = {w.name: w for w in (CompileCorpus, CheckTraces, MeshSim, EquivExhaustive)}
