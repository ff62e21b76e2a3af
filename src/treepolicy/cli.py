"""Command-line front door.

Exit codes are stable and machine-consumable: 0 ok/accept, 1
violation/reject, 2 usage or parse error, 3 internal invariant failure or
crash.  Reports go to stdout as JSON; diagnostics go to stderr.  A trace
argument of ``-`` reads JSON Lines from stdin.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from pathlib import Path

from . import compiler, mesh_sim, monitor, oracle
from .errors import CompilerInternalError, TreePolicyError
from .nested_word import build_nested_word, enumerate_rooted, parse_trace, serialize_trace
from .policy import PolicyDocument, format_policy, parse_policy
from .vpa import accepts, export_vpa, final_configuration, initial_configuration

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _load_document(path: str) -> PolicyDocument:
    return parse_policy(_read_text(path))


def _load_word(path: str, doc: PolicyDocument):
    events = parse_trace(_read_text(path))
    unknown = sorted({e.endpoint for e in events} - set(doc.alphabet))
    if unknown:
        raise TreePolicyError(f"trace endpoints not in policy alphabet: {unknown}")
    word = build_nested_word(events)
    if not word.is_rooted():
        raise TreePolicyError("trace is not a rooted well-matched service tree")
    return word


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_compile(args) -> int:
    doc = _load_document(args.policy_file)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = []
    for artifact in compiler.compile(doc):
        base = out_dir / artifact.policy_id
        base.with_suffix(".vpa.json").write_text(export_vpa(artifact.vpa, "json"), encoding="utf-8")
        base.with_suffix(".dot").write_text(export_vpa(artifact.vpa, "dot"), encoding="utf-8")
        m = artifact.metrics
        metrics = {
            "version": 1,
            "policy_id": artifact.policy_id,
            "depth": m.depth,
            "fanout": m.fanout,
            "max_dfa_states": m.max_dfa_states,
            "state_count": m.state_count,
            "header_bits": m.header_bits,
            "state_bound_holds": compiler.check_state_bound(artifact),
        }
        base.with_suffix(".metrics.json").write_text(
            json.dumps(metrics, indent=2) + "\n", encoding="utf-8"
        )
        index.append(metrics)
    _emit({"version": 1, "policies": index})
    return EXIT_OK


def cmd_check(args) -> int:
    doc = _load_document(args.policy_file)
    word = _load_word(args.trace_file, doc)
    verdicts = {}
    for artifact in compiler.compile(doc):
        central = final_configuration(artifact.vpa, word)
        # the distributed side steps the table the emitted filters make up,
        # not the automaton's own
        filters = monitor.emit_filters(monitor.extract_monitor(artifact.vpa))
        dist = monitor.dist_run(
            monitor.monitor_from_filters(filters), initial_configuration(artifact.vpa), word
        )
        if central != dist:
            print(
                f"internal error: centralized and distributed runs disagree "
                f"on {artifact.policy_id}",
                file=sys.stderr,
            )
            return EXIT_INTERNAL
        final = central if args.mode == "central" else dist
        verdicts[artifact.policy_id] = final.state in artifact.vpa.finals
    _emit({"version": 1, "mode": args.mode, "accepted": verdicts})
    return EXIT_OK if all(verdicts.values()) else EXIT_VIOLATION


def cmd_oracle(args) -> int:
    doc = _load_document(args.policy_file)
    word = _load_word(args.trace_file, doc)
    verdicts = {
        f"pol{i}": oracle.sat_policy(word, pol, doc.alphabet)
        for i, pol in enumerate(doc.policies)
    }
    _emit({"version": 1, "accepted": verdicts})
    return EXIT_OK if all(verdicts.values()) else EXIT_VIOLATION


def cmd_equiv(args) -> int:
    doc = _load_document(args.policy_file)
    alphabet = doc.alphabet
    if args.alphabet is not None:
        chosen = tuple(s.strip() for s in args.alphabet.split(","))
        unknown = sorted(set(chosen) - set(doc.alphabet))
        if unknown:
            raise TreePolicyError(f"--alphabet names outside the document alphabet: {unknown}")
        repeated = sorted({s for s in chosen if chosen.count(s) > 1})
        if repeated:
            raise TreePolicyError(f"--alphabet names repeated: {repeated}")
        alphabet = chosen
    artifacts = compiler.compile(doc)
    checked = 0
    for word in enumerate_rooted(alphabet, args.max_calls):
        checked += 1
        for i, artifact in enumerate(artifacts):
            want = oracle.sat_policy(word, doc.policies[i], doc.alphabet)
            got = accepts(artifact.vpa, word)
            if want != got:
                print(
                    f"disagreement on {artifact.policy_id}: oracle={want} automaton={got}; "
                    f"counterexample trace follows on stdout",
                    file=sys.stderr,
                )
                sys.stdout.write(serialize_trace(word))
                return EXIT_VIOLATION
    _emit({"version": 1, "words_checked": checked, "policies": len(artifacts), "agreement": True})
    return EXIT_OK


def cmd_simulate(args) -> int:
    doc = _load_document(args.policy_file)
    topology = mesh_sim.topology_from_json(_read_text(args.topology_file))
    artifacts = compiler.compile(doc)
    report = mesh_sim.run_workload(topology, args.requests, artifacts, mode=args.mode)
    sys.stdout.write(report.to_json())
    clean = not report.violations and not report.blocked
    return EXIT_OK if clean else EXIT_VIOLATION


def cmd_emit_filters(args) -> int:
    doc = _load_document(args.policy_file)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written, sizes = [], []
    for artifact in compiler.compile(doc):
        mon = monitor.extract_monitor(artifact.vpa)
        header = f"{monitor.STATE_HEADER}-{artifact.policy_id}"
        rules = size = 0
        for spec in monitor.emit_filters(mon):
            stem = f"{artifact.policy_id}.{spec.endpoint}"
            for suffix, text in ((".filter.json", monitor.filter_spec_to_json(spec)),
                                 (".filter.lua", monitor.render_filter_script(spec, header=header))):
                data = text.encode("utf-8")
                (out_dir / f"{stem}{suffix}").write_bytes(data)
                size += len(data)
            rules += len(spec.on_request) + len(spec.on_response)
            written.append(stem)
        sizes.append({"policy_id": artifact.policy_id, "rules": rules, "bytes": size})
    _emit({"version": 1, "filters": written, "policies": sizes})
    return EXIT_OK


def cmd_format(args) -> int:
    sys.stdout.write(format_policy(_load_document(args.policy_file)))
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it
    and fills a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="treepolicy",
        description="Compile service call-tree policies, check traces, extract mesh filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile policies to automata (JSON/DOT/metrics)")
    p.add_argument("policy_file")
    p.add_argument("out_dir")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("check", help="run the monitor over a JSONL trace")
    p.add_argument("policy_file")
    p.add_argument("trace_file", help="trace path or - for stdin")
    p.add_argument("--mode", choices=["central", "dist"], default="central")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("oracle", help="denotational verdict over a JSONL trace")
    p.add_argument("policy_file")
    p.add_argument("trace_file", help="trace path or - for stdin")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("equiv", help="exhaustive oracle-vs-automaton differential")
    p.add_argument("policy_file")
    p.add_argument("--max-calls", type=_positive_int, default=6)
    p.add_argument("--alphabet", help="comma-separated subset of the document alphabet")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("simulate", help="run a monitored workload over a topology")
    p.add_argument("topology_file")
    p.add_argument("policy_file")
    p.add_argument("--requests", type=_positive_int, default=200)
    p.add_argument("--mode", choices=[mesh_sim.MODE_LOG, mesh_sim.MODE_EARLY_BLOCK],
                   default=mesh_sim.MODE_LOG)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("emit-filters", help="write filter specs and sidecar scripts")
    p.add_argument("policy_file")
    p.add_argument("out_dir")
    p.set_defaults(fn=cmd_emit_filters)

    p = sub.add_parser("format", help="reprint a policy document canonically")
    p.add_argument("policy_file")
    p.set_defaults(fn=cmd_format)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except CompilerInternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (TreePolicyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # a crash must not read as a violation
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
