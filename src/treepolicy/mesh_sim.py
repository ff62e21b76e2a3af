"""Mesh-style execution simulator with header-carried monitor state.

Services are deterministic call scripts: a topology maps each service to the
ordered list of services it calls, and a request unrolls that script into a
service tree.  Every simulated hop applies the policy's distributed monitor
-- the same per-endpoint ``FilterSpec`` tables that ``emit-filters`` writes
-- to a state header: ``on_request`` on the way in (storing the pushed
symbol locally) and ``on_response`` on the way out.  The emitted trace is
the request's rooted well-matched word, so centralized and denotational
verdicts can be replayed against the monitored outcome.

Each request owns its header values and hop-local storage; policies are
monitored independently, one header per policy.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .compiler import CompilationArtifacts
from .errors import ConfigError
from .monitor import STATE_HEADER, DistributedMonitor, extract_monitor
from .nested_word import Endpoint, NestedWord, TaggedSymbol, build_nested_word, call, ret

MODE_LOG = "log"
MODE_EARLY_BLOCK = "early_block"


@dataclass(frozen=True)
class Topology:
    services: tuple[Endpoint, ...]
    behavior: dict[Endpoint, tuple[Endpoint, ...]]
    entrypoints: tuple[Endpoint, ...]

    def __post_init__(self):
        known = set(self.services)
        for svc, children in self.behavior.items():
            if svc not in known:
                raise ConfigError(f"behavior references unknown service {svc!r}")
            for c in children:
                if c not in known:
                    raise ConfigError(f"{svc!r} calls unknown service {c!r}")
        for e in self.entrypoints:
            if e not in known:
                raise ConfigError(f"entrypoint {e!r} not a service")
        self._check_acyclic()

    def _check_acyclic(self):
        colors: dict[Endpoint, int] = {}

        def visit(svc: Endpoint):
            colors[svc] = 1
            for c in self.behavior.get(svc, ()):
                state = colors.get(c, 0)
                if state == 1:
                    raise ConfigError(f"call graph cycle through {c!r}")
                if state == 0:
                    visit(c)
            colors[svc] = 2

        for svc in self.services:
            if colors.get(svc, 0) == 0:
                visit(svc)

    def children(self, svc: Endpoint) -> tuple[Endpoint, ...]:
        return self.behavior.get(svc, ())

    def node_count(self, root: Endpoint) -> int:
        return 1 + sum(self.node_count(c) for c in self.children(root))


def generate_topology(depth: int, fanout: int, alphabet: Sequence[Endpoint]) -> Topology:
    """Complete tree-shaped call script: one service per level, each calling
    the next level ``fanout`` times; unrolls to (f^(d+1)-1)/(f-1) nodes."""
    if not 2 <= depth <= 5:
        raise ValueError("depth must be within 2..5")
    if not 1 <= fanout <= 4:
        raise ValueError("fanout must be within 1..4")
    alpha = tuple(alphabet)
    if not alpha:
        raise ValueError("empty alphabet")

    def level_name(i: int) -> Endpoint:
        return alpha[i] if i < len(alpha) else f"{alpha[i % len(alpha)]}{i}"

    names = [level_name(i) for i in range(depth + 1)]
    behavior = {names[i]: tuple([names[i + 1]] * fanout) for i in range(depth)}
    behavior[names[depth]] = ()
    return Topology(tuple(names), behavior, (names[0],))


def topology_to_json(t: Topology) -> str:
    doc = {
        "version": 1,
        "services": list(t.services),
        "behavior": {svc: list(children) for svc, children in t.behavior.items()},
        "entrypoints": list(t.entrypoints),
    }
    return json.dumps(doc, indent=2) + "\n"


def topology_from_json(text: str) -> Topology:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"topology is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise ConfigError("topology must be an object with version 1")
    try:
        behavior = doc["behavior"]
        if not isinstance(behavior, dict):
            raise ConfigError("topology behavior must be an object")
        return Topology(
            _names(doc["services"], "services"),
            {svc: _names(children, f"behavior of {svc!r}") for svc, children in behavior.items()},
            _names(doc["entrypoints"], "entrypoints"),
        )
    except KeyError as exc:
        raise ConfigError(f"topology lacks field {exc}") from None


def _names(value, what: str) -> tuple[Endpoint, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"topology {what} must be a list of service names")
    return tuple(value)


# -- per-policy filter sets -----------------------------------------------------


@dataclass(frozen=True)
class PolicyFilterSet:
    """Everything a sidecar fleet needs to monitor one policy: the
    distributed monitor, the canonical state numbering for the header
    encoding, and the verdict/blocking state sets."""

    policy_id: str
    header_name: str
    state_order: tuple[str, ...]
    header_values: dict[str, str]  # state -> its index in state_order, as text
    initial: str
    finals: frozenset[str]
    reject_states: frozenset[str]
    blockable: bool
    monitor: DistributedMonitor

    def encode(self, state: str) -> str:
        return self.header_values[state]

    def decode(self, header_value: str) -> str:
        return self.state_order[int(header_value)]


def build_filter_set(artifact: CompilationArtifacts) -> PolicyFilterSet:
    return PolicyFilterSet(
        policy_id=artifact.policy_id,
        header_name=f"{STATE_HEADER}-{artifact.policy_id}",
        state_order=artifact.state_order,
        header_values={q: str(i) for i, q in enumerate(artifact.state_order)},
        initial=artifact.vpa.initial,
        finals=artifact.vpa.finals,
        reject_states=artifact.reject_states,
        blockable=bool(artifact.reject_states),
        monitor=extract_monitor(artifact.vpa),
    )


@dataclass(frozen=True)
class Outcome:
    kind: str  # "accept" | "violation" | "blocked"
    final_state: str | None = None
    position: int | None = None  # call-order index of the blocked node


@dataclass
class RequestResult:
    word: NestedWord
    outcomes: dict[str, Outcome]
    transitions: dict[str, int]  # per policy

    @property
    def transitions_total(self) -> int:
        return sum(self.transitions.values())


def execute_request(
    t: Topology,
    root: Endpoint,
    filters: Sequence[PolicyFilterSet],
    mode: str = MODE_LOG,
) -> RequestResult:
    """Synchronous depth-first execution of the root's call script.

    On each hop the incoming header drives the endpoint's on_request rule
    (the pushed symbol stays hop-local); the unwind applies on_response.  In
    early-block mode a blockable policy whose call transition enters an
    absorbing reject state stops the request: the offending subtree never
    executes, open calls unwind normally, so the trace stays rooted.
    """
    if root not in t.entrypoints:
        raise ConfigError(f"{root!r} is not an entrypoint")
    if mode not in (MODE_LOG, MODE_EARLY_BLOCK):
        raise ValueError(f"unknown mode {mode!r}")
    for pf in filters:
        missing = [svc for svc in t.services if svc not in pf.monitor]
        if missing:
            raise ConfigError(f"policy {pf.policy_id} lacks filters for {missing}")

    events: list[TaggedSymbol] = []
    headers = {pf.policy_id: pf.encode(pf.initial) for pf in filters}
    transitions = {pf.policy_id: 0 for pf in filters}
    blocked_at: dict[str, int] = {}
    state = {"calls": 0, "aborted": False}

    def visit(svc: Endpoint):
        state["calls"] += 1
        position = state["calls"]
        events.append(call(svc))
        local_store = {}
        for pf in filters:
            current = pf.decode(headers[pf.policy_id])
            rule = pf.monitor[svc].on_request.get(current)
            if rule is None:
                raise ConfigError(
                    f"policy {pf.policy_id}: no on_request rule at {svc!r} for state {current!r}"
                )
            then_state, push_local = rule
            headers[pf.policy_id] = pf.encode(then_state)
            local_store[pf.policy_id] = push_local
            transitions[pf.policy_id] += 1
            if (
                mode == MODE_EARLY_BLOCK
                and pf.blockable
                and pf.policy_id not in blocked_at
                and then_state in pf.reject_states
            ):
                blocked_at[pf.policy_id] = position
                state["aborted"] = True
        if not state["aborted"]:
            for child in t.children(svc):
                visit(child)
                if state["aborted"]:
                    break
        events.append(ret(svc))
        for pf in filters:
            current = pf.decode(headers[pf.policy_id])
            local = local_store[pf.policy_id]
            then_state = pf.monitor[svc].on_response.get((current, local))
            if then_state is None:
                raise ConfigError(
                    f"policy {pf.policy_id}: no on_response rule at {svc!r} "
                    f"for state {current!r} / local {local!r}"
                )
            headers[pf.policy_id] = pf.encode(then_state)
            transitions[pf.policy_id] += 1

    visit(root)
    word = build_nested_word(events)
    outcomes = {}
    for pf in filters:
        if pf.policy_id in blocked_at:
            outcomes[pf.policy_id] = Outcome("blocked", position=blocked_at[pf.policy_id])
        else:
            final = pf.decode(headers[pf.policy_id])
            if final in pf.finals:
                outcomes[pf.policy_id] = Outcome("accept", final_state=final)
            else:
                outcomes[pf.policy_id] = Outcome("violation", final_state=final)
    return RequestResult(word, outcomes, transitions)


@dataclass
class SimReport:
    requests_total: int = 0
    nodes_per_tree: int = 0
    violations: list[dict] = field(default_factory=list)
    blocked: list[dict] = field(default_factory=list)
    per_hop_ops: Counter = field(default_factory=Counter)  # transitions/request -> count
    transitions_total: int = 0

    def to_json(self) -> str:
        doc = {
            "version": 1,
            "requests_total": self.requests_total,
            "nodes_per_tree": self.nodes_per_tree,
            "violations": self.violations,
            "blocked": self.blocked,
            "per_hop_ops": {str(k): v for k, v in sorted(self.per_hop_ops.items())},
            "transitions_total": self.transitions_total,
        }
        return json.dumps(doc, indent=2) + "\n"


def run_workload(
    t: Topology,
    n_requests: int,
    artifacts: Iterable[CompilationArtifacts],
    mode: str = MODE_LOG,
) -> SimReport:
    """Execute a workload, every policy monitored independently with its
    own header, and aggregate the outcome and per-request work counts."""
    filters = [build_filter_set(a) for a in artifacts]
    report = SimReport()
    if not t.entrypoints:
        raise ConfigError("topology has no entrypoints")
    report.nodes_per_tree = t.node_count(t.entrypoints[0])
    for i in range(n_requests):
        root = t.entrypoints[i % len(t.entrypoints)]
        result = execute_request(t, root, filters, mode=mode)
        report.requests_total += 1
        report.per_hop_ops[result.transitions_total] += 1
        report.transitions_total += result.transitions_total
        for policy_id, outcome in result.outcomes.items():
            if outcome.kind == "violation":
                report.violations.append(
                    {"policy": policy_id, "request": i, "final_state": outcome.final_state}
                )
            elif outcome.kind == "blocked":
                report.blocked.append(
                    {"policy": policy_id, "request": i, "position": outcome.position}
                )
    return report

