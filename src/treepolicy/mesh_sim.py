"""Mesh-style execution simulator with header-carried monitor state.

Services are deterministic call scripts: a topology maps each service to the
ordered list of services it calls, and a request unrolls that script into a
service tree.  Every simulated hop steps one state header per policy with
that policy's integer transition table, ``Vpa.table``, which the central
and distributed runs step and extracted ``FilterSpec``s read, and which
``build_filter_set`` stores as it is.  The header is an integer, the
state's position in ``Table.states``.  On the way in, the endpoint's
hop row (``PolicyFilterSet.hops``) maps it to the next header and the
response row of the pushed stack symbol, which stays at the hop; on the way
out, that response row maps it again.  The emitted trace is the request's
rooted well-matched word, so centralized and denotational verdicts can be
replayed against the monitored outcome.

What a topology fixes is computed once per topology and set of filters: a
plan holding one coding over the topology's services (see ``nested_word``),
and each service's call and return code, its children, every policy's
hop row and whether one request can reach it more than once, made after
checking that every policy has filters for every service.  A request's
word is that coding, the codes the request appends and its partner array;
it builds no symbol objects.  Each request owns its header values and
hop-local storage; policies are monitored independently, one header per
policy.  A request steps the vector of all headers at once, and keeps
each step it takes at a service it can reach again in a memo that lives
for that request: a (service, header vector) pair met again reads no row.
A request's ``transitions`` still counts the modelled sidecar steps, two
per node and policy, not the row reads.  Call graphs and requests are
walked with explicit stacks, so a call chain of any depth runs.  A
topology unrolls exponentially in its depth, so ``execute_request``
refuses every request that unrolls to more than ``MAX_REQUEST_NODES``
nodes, and ``run_workload`` checks each entrypoint before anything runs.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from operator import contains, getitem, is_, itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .compiler import CompilationArtifacts
from .errors import ConfigError
from .nested_word import Endpoint, MatchingRelation, NestedWord, coder
from .vpa import Table

MODE_LOG = "log"
MODE_EARLY_BLOCK = "early_block"

MAX_REQUEST_NODES = 1_000_000  # per request


@dataclass(frozen=True)
class Topology:
    """A call script.  Construction copies ``behavior`` into a read-only
    mapping of tuples, so later edits to the caller's dict or lists change
    nothing here, and walks the call graph once, refusing a cycle and
    counting the nodes a request to each service unrolls to.  The counts
    and the request plan (``_plan``) are not fields, so equality and
    ``repr`` ignore them."""

    services: tuple[Endpoint, ...]
    behavior: Mapping[Endpoint, tuple[Endpoint, ...]]
    entrypoints: tuple[Endpoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "behavior", MappingProxyType(
            {svc: tuple(children) for svc, children in self.behavior.items()}))
        known = set(self.services)
        for what, names in (("service", self.services), ("entrypoint", self.entrypoints)):
            if len(set(names)) != len(names):
                twice = [n for n, k in Counter(names).items() if k > 1]
                raise ConfigError(f"{what}s listed twice: {twice}")
        for svc, children in self.behavior.items():
            if svc not in known:
                raise ConfigError(f"behavior references unknown service {svc!r}")
            for c in children:
                if c not in known:
                    raise ConfigError(f"{svc!r} calls unknown service {c!r}")
        for e in self.entrypoints:
            if e not in known:
                raise ConfigError(f"entrypoint {e!r} not a service")
        # Depth-first search with the open path on an explicit stack, so a
        # call chain of any length is checked and counted; a service's count
        # is stored after its callees'.
        sizes: dict[Endpoint, int] = {}
        open_path: set[Endpoint] = set()
        for start in self.services:
            if start in sizes:
                continue
            open_path.add(start)
            path = [(start, iter(self.children(start)))]
            while path:
                svc, children = path[-1]
                for c in children:
                    if c in open_path:
                        raise ConfigError(f"call graph cycle through {c!r}")
                    if c not in sizes:
                        open_path.add(c)
                        path.append((c, iter(self.children(c))))
                        break
                else:
                    sizes[svc] = 1 + sum(sizes[c] for c in self.children(svc))
                    open_path.remove(svc)
                    path.pop()
        object.__setattr__(self, "_sizes", sizes)
        object.__setattr__(self, "_plan", None)

    def children(self, svc: Endpoint) -> tuple[Endpoint, ...]:
        return self.behavior.get(svc, ())

    def node_count(self, root: Endpoint) -> int:
        """Nodes of the service tree a request to ``root`` unrolls to."""
        return self._sizes[root]


def _check_request_size(t: Topology, root: Endpoint):
    size = t.node_count(root)
    if size > MAX_REQUEST_NODES:
        raise ConfigError(
            f"a request to {root!r} unrolls to {size} nodes, more than {MAX_REQUEST_NODES}"
        )


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
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"topology is not valid JSON: {exc}") from None
    version = doc.get("version") if isinstance(doc, dict) else None
    if type(version) is not int or version != 1:  # true and 1.0 also equal 1
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
    """Everything a sidecar fleet needs to monitor one policy.

    ``table`` is the automaton's own integer table (``Vpa.table``), whose
    rows each extracted ``FilterSpec`` reads.  The header is an integer: a
    state's header value is its position in ``table.states``, and a pushed
    stack symbol's id its position in ``table.symbols``.  ``initial``,
    ``finals`` and ``reject_headers`` are header values; the latter are the
    doomed states (``CompilationArtifacts.reject_states``), from which no
    final state is reachable: in early-block mode a call that enters one
    stops the request.

    ``hops`` is made from ``table`` on construction, so a copy with another
    table (``dataclasses.replace``) has its own.  For endpoint ``e``,
    ``hops[e][h]`` is the next header after a call in state ``h``, the
    response row of the pushed symbol and the pushed symbol's id, or
    ``None`` where the request cell is ``None``.  A hop is thus one lookup
    per direction.  Endpoints whose request and response rows are the same
    objects (an endpoint class) share one hop row.
    """

    policy_id: str
    initial: int
    finals: frozenset[int]
    reject_headers: frozenset[int]
    table: Table
    hops: dict[Endpoint, tuple[tuple[int, tuple, int] | None, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        t = self.table
        made: dict[tuple[int, int], tuple] = {}
        hops = {}
        for e, request in t.request.items():
            response = t.response[e]
            key = id(request), id(response)
            row = made.get(key)
            if row is None:
                row = made[key] = tuple(
                    None if cell is None else (cell[0], response[cell[1]], cell[1])
                    for cell in request)
            hops[e] = row
        object.__setattr__(self, "hops", hops)


def build_filter_set(artifact: CompilationArtifacts) -> PolicyFilterSet:
    """The policy's filters: the automaton's table, stored as it is, its
    hop rows, and its initial, final and reject states as header values."""
    vpa = artifact.vpa
    t = vpa.table
    return PolicyFilterSet(
        policy_id=artifact.policy_id,
        initial=t.state_id[vpa.initial],
        finals=frozenset(t.state_id[q] for q in vpa.finals),
        reject_headers=frozenset(t.state_id[q] for q in artifact.reject_states),
        table=t,
    )


class Outcome(NamedTuple):
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


_first = itemgetter(0)
_second = itemgetter(1)


def _check_coverage(t: Topology, filters: Sequence[PolicyFilterSet]):
    for pf in filters:
        if not pf.hops.keys() >= t._sizes.keys():  # _sizes has every service
            missing = [svc for svc in t.services if svc not in pf.hops]
            raise ConfigError(f"policy {pf.policy_id} lacks filters for {missing}")


def _revisited(t: Topology) -> set[Endpoint]:
    """The services that one request can reach more than once: a callee of
    such a service, or a service with two call sites that one entrypoint
    reaches.  ``reach`` holds, per service, the entrypoints reaching it as
    bits; ``t._sizes`` lists callees before callers, so its reverse visits
    every caller before its callees."""
    reach = dict.fromkeys(t.services, 0)
    for i, e in enumerate(t.entrypoints):
        reach[e] |= 1 << i
    revisited: set[Endpoint] = set()
    for svc in reversed(t._sizes):
        r = reach[svc]
        for c in t.children(svc):
            if r & reach[c] or svc in revisited:
                revisited.add(c)
            reach[c] |= r
    return revisited


def _plan(t: Topology, filters: Sequence[PolicyFilterSet]) -> tuple[dict[Endpoint, tuple],
                                                                     tuple[Endpoint, ...], Callable]:
    """Per service: its call and return code, its children, every policy's
    hop row, in filter order, and whether one request can reach it more
    than once (``_revisited``); and the coding's endpoints and rows getter,
    one coding over ``t.services``.  The plan is kept on the topology with
    the filter sets it was made for, which it holds, so that no other
    object can take their identity; other filter sets get a new plan."""
    made = t._plan
    if made is not None and len(made[0]) == len(filters) and all(map(is_, made[0], filters)):
        return made[1]
    _check_coverage(t, filters)
    names, rows, call_code, return_code = coder(t.services)
    revisited = _revisited(t)
    plan = {svc: (call_code[svc], return_code[svc], t.children(svc),
                  tuple([pf.hops[svc] for pf in filters]), svc in revisited)
            for svc in t.services}
    object.__setattr__(t, "_plan", (tuple(filters), (plan, names, rows)))
    return plan, names, rows


def execute_request(
    t: Topology,
    root: Endpoint,
    filters: Sequence[PolicyFilterSet],
    mode: str = MODE_LOG,
) -> RequestResult:
    """Synchronous depth-first execution of the root's call script.

    On a hop every policy's header picks its cell of the endpoint's hop
    row: the next header, and the response row of the pushed symbol, which
    stays hop-local; the unwind maps the header through that response row.
    The topology's plan (``_plan``) is made on the first request with these
    filter sets.  A service the request can reach more than once keeps
    each step in a memo that lives for this request only: a call maps
    (call code, header vector) to the next headers, the pushed response
    rows and the early-block stop, and its return maps the header vector
    it meets to the headers after the return.  A repeated pair reads no
    row; a service reached once steps every header as it goes and stores
    nothing.  A cell without a rule is a ``ConfigError`` naming the policy,
    endpoint and state, and is never stored.  In early-block mode a policy
    whose call transition enters a doomed state, one of its
    ``reject_headers``, stops the request: the offending subtree never
    executes, open calls unwind normally, so the trace stays rooted.  Open
    calls wait on an explicit stack, so a call chain of any depth runs, and
    the word's codes and matching are filled on the way.  ``transitions``
    counts the modelled sidecar steps, two per executed node and policy,
    not the row reads.  A request that unrolls to more than
    ``MAX_REQUEST_NODES`` nodes is a ``ConfigError``.
    """
    if root not in t.entrypoints:
        raise ConfigError(f"{root!r} is not an entrypoint")
    _check_request_size(t, root)
    if mode not in (MODE_LOG, MODE_EARLY_BLOCK):
        raise ValueError(f"unknown mode {mode!r}")
    plan, names, rows_of = _plan(t, filters)
    rejects = tuple(pf.reject_headers for pf in filters) if mode == MODE_EARLY_BLOCK else ()

    codes: list[int] = []
    partner: list[int] = []  # 0 until the call's return is placed
    headers = tuple(pf.initial for pf in filters)
    # (call code, headers) -> (headers after, response rows, hop cells,
    # blocking policies, returns), for services the request can revisit;
    # returns maps the headers met at the return to the headers after it
    memo: dict[tuple, tuple] = {}
    blocked_at: dict[str, int] = {}
    calls = 0
    # (return code, response rows, hop cells, call position, children left,
    # returns or None)
    open_calls: list[tuple] = []
    svc: Endpoint | None = root
    while True:
        if svc is not None:
            calls += 1
            call_code, return_code, children, rows, revisited = plan[svc]
            at = len(codes) + 1
            codes.append(call_code)
            partner.append(0)
            step = memo.get((call_code, headers)) if revisited else None
            if step is None:
                cells = tuple(map(getitem, rows, headers))
                try:
                    after = tuple(map(_first, cells))
                except TypeError:  # a None cell: no request rule
                    k = cells.index(None)
                    pf = filters[k]
                    raise ConfigError(
                        f"policy {pf.policy_id}: no on_request rule at {svc!r} "
                        f"for state {pf.table.states[headers[k]]!r}"
                    ) from None
                stops = ()
                if any(map(contains, rejects, after)):
                    stops = tuple(pf.policy_id for pf, stop, h in zip(filters, rejects, after)
                                  if h in stop)
                responses = tuple(map(_second, cells))
                if revisited:
                    returns = {}
                    memo[call_code, headers] = after, responses, cells, stops, returns
                else:
                    returns = None
            else:
                after, responses, cells, stops, returns = step
            headers = after
            if stops:
                blocked_at = dict.fromkeys(stops, calls)
            open_calls.append((return_code, responses, cells, at, iter(children), returns))
        return_code, responses, cells, at, children, returns = open_calls[-1]
        svc = None if blocked_at else next(children, None)
        if svc is None:
            open_calls.pop()
            pos = len(codes) + 1
            codes.append(return_code)
            partner[at - 1] = pos
            partner.append(at)
            after = None if returns is None else returns.get(headers)
            if after is None:
                after = tuple(map(getitem, responses, headers))
                if None in after:
                    k = after.index(None)
                    pf = filters[k]
                    raise ConfigError(
                        f"policy {pf.policy_id}: no on_response rule at "
                        f"{names[return_code - len(names)]!r} "
                        f"for state {pf.table.states[headers[k]]!r} "
                        f"/ local {pf.table.symbols[cells[k][2]]!r}"
                    )
                if returns is not None:
                    returns[headers] = after
            headers = after
            if not open_calls:
                break

    word = NestedWord((names, codes, rows_of), MatchingRelation(1, partner))
    outcomes = {
        pf.policy_id: Outcome("blocked", position=blocked_at[pf.policy_id])
        if pf.policy_id in blocked_at
        else Outcome("accept" if h in pf.finals else "violation", pf.table.states[h])
        for pf, h in zip(filters, headers)
    }
    # every executed node steps every policy once on the way in, once out
    return RequestResult(word, outcomes, dict.fromkeys(outcomes, 2 * calls))


@dataclass
class SimReport:
    requests_total: int = 0
    nodes_per_tree: dict[Endpoint, int] = field(default_factory=dict)  # per entrypoint
    violations: list[dict] = field(default_factory=list)
    blocked: list[dict] = field(default_factory=list)
    per_hop_ops: Counter = field(default_factory=Counter)  # transitions/request -> count
    transitions_total: int = 0
    # policy id -> {"transitions": n, "violations": n, "blocks": n}
    per_policy: dict[str, dict[str, int]] = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "version": 1,
            "requests_total": self.requests_total,
            "nodes_per_tree": self.nodes_per_tree,
            "violations": self.violations,
            "blocked": self.blocked,
            "per_hop_ops": {str(k): v for k, v in sorted(self.per_hop_ops.items())},
            "transitions_total": self.transitions_total,
            "per_policy": self.per_policy,
        }
        return json.dumps(doc, indent=2) + "\n"


def run_workload(
    t: Topology,
    n_requests: int,
    artifacts: Iterable[CompilationArtifacts],
    mode: str = MODE_LOG,
) -> SimReport:
    """Execute a workload, every policy monitored independently with its
    own header, and aggregate the outcome and per-request work counts,
    in total and per policy.  A topology with an entrypoint whose request
    unrolls to more than ``MAX_REQUEST_NODES`` nodes is a ``ConfigError``,
    raised before anything runs."""
    if not t.entrypoints:
        raise ConfigError("topology has no entrypoints")
    for root in t.entrypoints:
        _check_request_size(t, root)
    filters = [build_filter_set(a) for a in artifacts]
    _plan(t, filters)
    report = SimReport()
    report.per_policy = {
        pf.policy_id: {"transitions": 0, "violations": 0, "blocks": 0} for pf in filters
    }
    report.nodes_per_tree = {root: t.node_count(root) for root in t.entrypoints}
    for i in range(n_requests):
        root = t.entrypoints[i % len(t.entrypoints)]
        result = execute_request(t, root, filters, mode=mode)
        report.requests_total += 1
        report.per_hop_ops[result.transitions_total] += 1
        report.transitions_total += result.transitions_total
        for policy_id, outcome in result.outcomes.items():
            counts = report.per_policy[policy_id]
            counts["transitions"] += result.transitions[policy_id]
            if outcome.kind == "violation":
                counts["violations"] += 1
                report.violations.append(
                    {"policy": policy_id, "request": i, "final_state": outcome.final_state}
                )
            elif outcome.kind == "blocked":
                counts["blocks"] += 1
                report.blocked.append(
                    {"policy": policy_id, "request": i, "position": outcome.position}
                )
    return report

