"""Policy AST, concrete syntax, validation, and structural metrics.

A policy document declares a closed endpoint alphabet and one or more
policies.  Each policy anchors an inner constraint at a start set: the inner
constraint is checked on every subtree rooted at a start endpoint that has no
start-endpoint ancestor.  Inner constraints are either hierarchical
(match/all-path, match/all-children, match/exists-child) or a linear
constraint on the depth-first call sequence (call-seq).

Grammar (``#`` starts a comment)::

    document   := alphabet_decl policy+
    alphabet   := "alphabet" NAME ("," NAME)* ";"
    policy     := "start" ("{" NAME ("," NAME)* "}" | "star") ":" inner ";"
    inner      := hier | "call-seq" regex
    hier       := "match" regex "all-path" regex
               |  "match" regex "all-children" sub
               |  "match" regex "exists-child" sub ("then" sub)*
    sub        := hier | "(" hier ")"

Regexes extend to the next policy keyword; see the regex module for their
syntax.  ``match`` regexes must not accept the empty string.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union as TUnion

from . import regex as rx
from .errors import EpsilonMatchRegex, PolicySyntaxError
from .nested_word import Endpoint


@dataclass(frozen=True)
class AllPath:
    """match reg1 all-path reg2: some shortest path from the root matches
    reg1, and in the matched node's subtrees every root-to-leaf call
    sequence matches reg2."""

    reg1: rx.Regex
    reg2: rx.Regex


@dataclass(frozen=True)
class AllChildren:
    """match reg all-children p: some shortest path matches reg and every
    child subtree of the matched node satisfies p."""

    reg: rx.Regex
    child: "Hierarchical"


@dataclass(frozen=True)
class ExistsChild:
    """match reg exists-child p1 then ... then pk: some shortest path
    matches reg and the matched node has subtrees satisfying p1..pk in
    left-to-right order."""

    reg: rx.Regex
    subpolicies: tuple["Hierarchical", ...]


@dataclass(frozen=True)
class CallSeq:
    """call-seq reg: the depth-first sequence of calls matches reg."""

    reg: rx.Regex


Hierarchical = TUnion[AllPath, AllChildren, ExistsChild]
InnerPolicy = TUnion[AllPath, AllChildren, ExistsChild, CallSeq]


@dataclass(frozen=True)
class Policy:
    start_set: frozenset[Endpoint]
    inner: InnerPolicy


@dataclass(frozen=True)
class PolicyDocument:
    alphabet: tuple[Endpoint, ...]
    policies: tuple[Policy, ...]


# -- parsing ----------------------------------------------------------------


def _parse_alphabet(ts: rx.TokenStream) -> tuple[Endpoint, ...]:
    ts.expect("keyword", "alphabet")
    names = [ts.expect("ident").text]
    while True:
        tok = ts.next()
        if tok.kind == ";":
            break
        if tok.kind != ",":
            raise PolicySyntaxError(f"expected ',' or ';' at offset {tok.pos}")
        names.append(ts.expect("ident").text)
    if len(set(names)) != len(names):
        raise PolicySyntaxError("duplicate endpoint in alphabet declaration")
    return tuple(names)


def _parse_start_set(ts: rx.TokenStream, alphabet: tuple[Endpoint, ...]) -> frozenset[Endpoint]:
    tok = ts.next()
    if tok.kind == "keyword" and tok.text == "star":
        return frozenset(alphabet)
    if tok.kind == "{":
        return rx.parse_name_set(ts, alphabet)
    raise PolicySyntaxError(f"expected '{{' or 'star' after 'start' at offset {tok.pos}")


def _require_no_epsilon(reg: rx.Regex, where: str):
    if rx.matches_epsilon(reg):
        raise EpsilonMatchRegex(f"the {where} regex must not match the empty string")


def _parse_hierarchical(ts: rx.TokenStream, alphabet: tuple[Endpoint, ...]) -> Hierarchical:
    tok = ts.peek()
    if tok is not None and tok.kind == "(":
        ts.next()
        inner = _parse_hierarchical(ts, alphabet)
        ts.expect(")")
        return inner
    ts.expect("keyword", "match")
    reg = rx.parse_regex_tokens(ts, alphabet)
    _require_no_epsilon(reg, "match")
    tok = ts.next()
    if tok.kind == "keyword" and tok.text == "all-path":
        reg2 = rx.parse_regex_tokens(ts, alphabet)
        return AllPath(reg, reg2)
    if tok.kind == "keyword" and tok.text == "all-children":
        return AllChildren(reg, _parse_hierarchical(ts, alphabet))
    if tok.kind == "keyword" and tok.text == "exists-child":
        subs = [_parse_hierarchical(ts, alphabet)]
        while True:
            nxt = ts.peek()
            if nxt is not None and nxt.kind == "keyword" and nxt.text == "then":
                ts.next()
                subs.append(_parse_hierarchical(ts, alphabet))
            else:
                return ExistsChild(reg, tuple(subs))
    raise PolicySyntaxError(
        f"expected 'all-path', 'all-children' or 'exists-child', found {tok.text!r} at offset {tok.pos}"
    )


def _parse_inner(ts: rx.TokenStream, alphabet: tuple[Endpoint, ...]) -> InnerPolicy:
    tok = ts.peek()
    if tok is not None and tok.kind == "keyword" and tok.text == "call-seq":
        ts.next()
        return CallSeq(rx.parse_regex_tokens(ts, alphabet))
    return _parse_hierarchical(ts, alphabet)


def parse_policy(text: str) -> PolicyDocument:
    """Parse and validate a policy document."""
    try:
        return _parse_document(rx.TokenStream(rx.tokenize(text)))
    except RecursionError:
        raise PolicySyntaxError("policy nests too deeply") from None


def _parse_document(ts: rx.TokenStream) -> PolicyDocument:
    if ts.peek() is None:
        raise PolicySyntaxError("empty policy document")
    alphabet = _parse_alphabet(ts)
    policies = []
    while ts.peek() is not None:
        ts.expect("keyword", "start")
        start_set = _parse_start_set(ts, alphabet)
        ts.expect(":")
        inner = _parse_inner(ts, alphabet)
        ts.expect(";")
        policies.append(Policy(start_set, inner))
    if not policies:
        raise PolicySyntaxError("document declares no policies")
    return PolicyDocument(alphabet, tuple(policies))


# -- pretty printing ---------------------------------------------------------


def _format_inner(p: InnerPolicy) -> str:
    if isinstance(p, CallSeq):
        return f"call-seq {rx.format_regex(p.reg)}"
    if isinstance(p, AllPath):
        return f"match {rx.format_regex(p.reg1)} all-path {rx.format_regex(p.reg2)}"
    if isinstance(p, AllChildren):
        return f"match {rx.format_regex(p.reg)} all-children ({_format_inner(p.child)})"
    if isinstance(p, ExistsChild):
        subs = " then ".join(f"({_format_inner(s)})" for s in p.subpolicies)
        return f"match {rx.format_regex(p.reg)} exists-child {subs}"
    raise TypeError(f"not an inner policy: {p!r}")


def format_policy(doc: PolicyDocument) -> str:
    """Canonical text for a document; reparsing yields the same AST."""
    lines = ["alphabet " + ", ".join(doc.alphabet) + ";"]
    for pol in doc.policies:
        start = "{" + ", ".join(sorted(pol.start_set)) + "}"
        lines.append(f"start {start}: {_format_inner(pol.inner)};")
    return "\n".join(lines) + "\n"


# -- structural metrics (complexity-bound inputs) ----------------------------


def depth(p: TUnion[Policy, InnerPolicy]) -> int:
    """Nesting depth: start and each hierarchical wrapper add one level."""
    if isinstance(p, Policy):
        return 1 + depth(p.inner)
    if isinstance(p, (AllPath, CallSeq)):
        return 1
    if isinstance(p, AllChildren):
        return 1 + depth(p.child)
    if isinstance(p, ExistsChild):
        return 1 + max(depth(s) for s in p.subpolicies)
    raise TypeError(f"not a policy node: {p!r}")


def fanout(p: TUnion[Policy, InnerPolicy]) -> int:
    """Maximum immediate sub-expression count along the nesting."""
    if isinstance(p, Policy):
        return 1 + fanout(p.inner)
    if isinstance(p, AllPath):
        return 2
    if isinstance(p, CallSeq):
        return 1
    if isinstance(p, AllChildren):
        return 1 + fanout(p.child)
    if isinstance(p, ExistsChild):
        k = len(p.subpolicies)
        return 1 + max([k] + [fanout(s) for s in p.subpolicies])
    raise TypeError(f"not a policy node: {p!r}")


def endpoint_classes(policy: Policy,
                     alphabet: Sequence[Endpoint]) -> tuple[tuple[Endpoint, ...], ...]:
    """The alphabet split by membership in every set the policy names: its
    start set and each symbol, ``{..}`` and ``!..`` of its regexes, nested
    policies included (``any`` splits nothing).  No regex of the policy
    and no start-set test tells apart two endpoints of one class.  Classes
    come in alphabet order, each listing its members in alphabet order;
    a class's representative is its first member."""
    sets = {policy.start_set: None}
    todo: list = [policy.inner]
    while todo:
        node = todo.pop()
        if isinstance(node, CallSeq):
            todo.append(node.reg)
        elif isinstance(node, AllPath):
            todo += (node.reg1, node.reg2)
        elif isinstance(node, AllChildren):
            todo += (node.reg, node.child)
        elif isinstance(node, ExistsChild):
            todo += (node.reg, *node.subpolicies)
        elif isinstance(node, (rx.Union, rx.Concat)):
            todo += (node.left, node.right)
        elif isinstance(node, rx.Star):
            todo.append(node.inner)
        elif isinstance(node, rx.Symbol):
            sets[frozenset({node.name})] = None
        elif isinstance(node, (rx.SetLiteral, rx.Complement)):
            sets[node.members] = None
    classes: dict[tuple[bool, ...], list[Endpoint]] = {}
    for e in alphabet:
        classes.setdefault(tuple(e in s for s in sets), []).append(e)
    return tuple(map(tuple, classes.values()))


@functools.lru_cache(maxsize=rx.CACHE_SIZE)
def start_anchor_regex(start_set: frozenset[Endpoint]) -> rx.Regex:
    """Paths ending at a start endpoint with no earlier start endpoint:
    the shortest-match targets of ``any* S``.  One tree per start set, so
    the oracle, which asks for it on every word, meets the regex caches'
    entry for it by identity rather than comparing a fresh tree."""
    return rx.Concat(rx.Star(rx.ANY), rx.SetLiteral(frozenset(start_set)))


def header_bits(state_count: int) -> int:
    """Bits needed to carry one automaton state in a request header."""
    return math.ceil(math.log2(state_count))
