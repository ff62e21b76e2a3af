"""Benchmark of treepolicy: compiling, trace checking, mesh simulation and
``equiv``, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.
One process, one thread, one closed-loop client: an operation starts only
when the previous one has finished.  Timings are CPU time scaled to a
nominal machine speed by reference.py.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The same object is saved under ``perfbench/out/``, and a
traced run also writes its spans there.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from reference import SHARE, Reference, clock
from tracing import OP, SpanStats, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WALL_FACTOR = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "vpa_states": "states",
    "header_bits": "bits",
    "filter_rules": "rules",
    "filter_bytes": "bytes",
}

PER_LAYER_UNITS = {
    "policy.parse_ms": "ms",
    "regex.to_dfa_calls": "count",
    "regex.to_dfa_ms": "ms",
    "compiler.construct_ms": "ms",
    "vpa.well_formed_ms": "ms",
    "vpa.export_ms": "ms",
    "monitor.extract_ms": "ms",
    "monitor.emit_ms": "ms",
    "nested_word.parse_us_per_event": "us",
    "nested_word.build_us_per_event": "us",
    "vpa.run_ns_per_symbol_shallow": "ns",
    "monitor.dist_run_ns_per_symbol_shallow": "ns",
    "vpa.run_ns_per_symbol_deep": "ns",
    "monitor.dist_run_ns_per_symbol_deep": "ns",
    "mesh_sim.build_filter_set_ms": "ms",
    "mesh_sim.hop_us": "us",
    "mesh_sim.transitions_per_request": "count",
    "mesh_sim.nodes_skipped_share": "share",
    "nested_word.enumerate_us_per_word": "us",
    "oracle.sat_us_per_word": "us",
    "monitor.extract_calls": "count",
    "trace.overhead_pct": "%",
}


def _import_program():
    if not (SRC / "treepolicy" / "__init__.py").is_file():
        sys.exit(f"error: no treepolicy package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import treepolicy

    if Path(treepolicy.__file__).resolve().parent != (SRC / "treepolicy").resolve():
        sys.exit(f"error: imported treepolicy from {treepolicy.__file__}, not from {SRC}")


class Phase:
    """Closed-loop measurement of whole rounds of operations."""

    def __init__(self):
        self.nominal_ns: list[float] = []  # at the reference speed
        self.busy_ns = 0
        self.check_ns = 0
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.deep_ops: set[tuple[int, int]] = set()

    def work_per_s(self) -> float:
        """As measured."""
        return self.units / (self.busy_ns / 1e9)

    def nominal_work_per_s(self) -> float:
        return self.units / (sum(self.nominal_ns) / 1e9)


class SetupReps:
    """Timed repetitions of the program's set-up.  The first runs before
    the timed phase; the others are spread over it, between rounds, so that
    their median spans the run rather than its first seconds.  Reference
    chunks bracket each one (see reference.py)."""

    def __init__(self, workload, tracer, traced: bool):
        self.workload = workload
        self.tracer = tracer
        self.traced = traced
        self.times: list[float] = []  # as measured
        self.nominal_ns: list[float] = []  # at the reference speed
        self.reference = Reference()

    def run(self) -> None:
        gc.collect()
        # The reference chunks bracket the repetition: about half run before
        # it, sized by the previous repetition, and the rest after it.
        self.reference.lead(SHARE / 2 * self.times[-1] * 1e9 if self.times else 0)
        self.tracer.op = "setup"
        self.tracer.enabled = self.traced
        t0 = clock()
        self.workload.setup(len(self.times))
        t1 = clock()
        self.tracer.enabled = False
        self.times.append((t1 - t0) / 1e9)
        self.reference.follow(t1 - t0, self.nominal_ns)
        self.reference.close()

    def catch_up(self, share_done: float) -> None:
        """Run the repetitions due once ``share_done`` of the phase is over."""
        reps = self.workload.setup_reps
        while len(self.times) < reps and len(self.times) <= share_done * reps:
            self.run()


def measure(workload, tracer, seconds: float, setups: SetupReps, phases: list[Phase],
            reference: Reference) -> None:
    """Run whole rounds until the operations have been busy for ``seconds``
    of CPU time, or until ``WALL_FACTOR`` times that has passed on the wall
    clock, should the host withhold the CPU for long.  Round i is measured
    into phases[i % len(phases)]; with two phases the odd rounds are traced,
    so both phases see the same stretches of machine time.  Each output is checked right after its operation, outside its
    timer and with tracing off; then the reference chunks due run.  An
    operation is identified by (round, position)."""
    budget = seconds * 1e9
    wall_end = time.monotonic() + WALL_FACTOR * seconds
    index = 0
    while index < len(phases) or (sum(p.busy_ns for p in phases) < budget
                                  and time.monotonic() < wall_end):
        phase = phases[index % len(phases)]
        traced = index % len(phases) == 1
        for position, op in enumerate(workload.round_ops(index)):
            if op.kind == "deep":
                phase.deep_ops.add((index, position))
            tracer.op = (index, position)
            tracer.enabled = traced
            output, error = None, None
            t0 = clock()
            try:
                output = tracer.span("op." + op.kind, op.run)
            except Exception as exc:  # an operation that raises has failed
                error = f"raised {exc!r}\n{traceback.format_exc()}"
            t1 = clock()
            tracer.enabled = False
            if error is None:
                try:
                    error = workload.check(op, output)
                except Exception as exc:
                    error = f"check raised {exc!r}\n{traceback.format_exc()}"
            phase.check_ns += clock() - t1
            phase.busy_ns += t1 - t0
            phase.attempted += 1
            if error is None:
                phase.units += op.units
            else:
                phase.failed += 1
                if phase.failed <= 3:
                    print(f"operation failed ({workload.name}, round {index}): {error}",
                          file=sys.stderr)
            del output
            reference.follow(t1 - t0, phase.nominal_ns)
        phase.rounds += 1
        index += 1
        setups.catch_up(sum(p.busy_ns for p in phases) / budget)
    setups.catch_up(1.0)
    reference.close()


def percentile(values, q: int) -> float:
    """The q-th percentile (exclusive method of statistics.quantiles)."""
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(spans, deep_ops: set, counters: dict, overhead_pct: float) -> dict:
    every = SpanStats(spans)
    shallow = SpanStats(spans, keep=lambda s: s[OP] not in deep_ops)
    deep = SpanStats(spans, keep=lambda s: s[OP] in deep_ops)
    in_ops = SpanStats(spans, keep=lambda s: s[OP] != "setup")
    policies = every.count["compiler.compile_policy"]
    ops = sum(in_ops.count[k] for k in ("op.shallow", "op.deep"))
    emit_ns = sum(every.total_ns[k] for k in (
        "monitor.emit_filters", "monitor.filter_spec_to_json", "monitor.render_filter_script"))
    metrics = {
        "policy.parse_ms": every.mean("policy.parse_policy", 1e6),
        "regex.to_dfa_calls": every.count["regex.to_dfa"] / policies if policies else 0.0,
        "regex.to_dfa_ms": every.per("regex.to_dfa", policies, 1e6),
        "compiler.construct_ms": every.per("compiler.compile_policy", policies, 1e6, self_time=True),
        "vpa.well_formed_ms": every.per("vpa.check_well_formed", policies, 1e6),
        "vpa.export_ms": every.per("vpa.export_vpa", policies, 1e6),
        "monitor.extract_ms": every.mean("monitor.extract_monitor", 1e6),
        "monitor.emit_ms": (emit_ns / every.count["monitor.emit_filters"] / 1e6
                            if every.count["monitor.emit_filters"] else 0.0),
        "nested_word.parse_us_per_event": every.per_size("nested_word.parse_trace", 1e3),
        "nested_word.build_us_per_event": every.per_size("nested_word.build_nested_word", 1e3),
        "vpa.run_ns_per_symbol_shallow": shallow.per_size("vpa.run", 1),
        "monitor.dist_run_ns_per_symbol_shallow": shallow.per_size("monitor.dist_run", 1),
        "vpa.run_ns_per_symbol_deep": deep.per_size("vpa.run", 1),
        "monitor.dist_run_ns_per_symbol_deep": deep.per_size("monitor.dist_run", 1),
        "mesh_sim.build_filter_set_ms": every.mean("mesh_sim.build_filter_set", 1e6),
        "mesh_sim.hop_us": every.per_size("mesh_sim.execute_request", 1e3),
        "mesh_sim.transitions_per_request": 0.0,
        "mesh_sim.nodes_skipped_share": 0.0,
        "nested_word.enumerate_us_per_word": every.mean("nested_word.enumerate_rooted.next", 1e3),
        "oracle.sat_us_per_word": every.mean("oracle.sat_policy", 1e3),
        "monitor.extract_calls": in_ops.count["monitor.extract_monitor"] / ops if ops else 0.0,
        "trace.overhead_pct": overhead_pct,
    }
    metrics.update(counters)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["compile-corpus", "check-traces", "mesh-sim", "equiv-exhaustive"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)  # input generation, not timed
    tracer = Tracer()
    traced = bool(args.trace)
    if traced:
        tracer.install()
    setups = SetupReps(workload, tracer, traced)
    setups.run()
    gc.collect()
    reference = Reference()
    if traced:
        # Rounds alternate untraced and traced: the difference in throughput
        # is the tracing overhead.
        phases = [Phase(), Phase()]
        measure(workload, tracer, args.seconds, setups, phases, reference)
        tracer.uninstall()
        untraced, traced_phase = phases
        overhead = 100.0 * (untraced.work_per_s() / traced_phase.work_per_s() - 1.0)
        values = layer_metrics(tracer.spans, traced_phase.deep_ops, workload.counters(), overhead)
        units = PER_LAYER_UNITS
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        phase = Phase()
        phases = [phase]
        measure(workload, tracer, args.seconds, setups, phases, reference)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "setup_s": statistics.median(setups.nominal_ns) / 1e9,
            "work_per_s": phase.nominal_work_per_s(),
            "op_ms_p50": statistics.median(phase.nominal_ns) / 1e6,
            "op_ms_p90": percentile(phase.nominal_ns, 90) / 1e6,
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"{args.workload}: as measured, set-up {statistics.median(setups.times):.4f} s, "
              f"{phase.work_per_s():.2f} units/s; reference chunk {reference.chunk_ns() / 1e6:.4f} ms "
              f"in the operations, {setups.reference.chunk_ns() / 1e6:.4f} ms in set-up",
              file=sys.stderr)
        values.update(workload.sizes())
        units = END_TO_END_UNITS
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"{args.workload}: set-up repetitions {[round(t, 4) for t in setups.times]} s; "
          f"{sum(p.rounds for p in phases)} rounds, {attempted} operations busy "
          f"{sum(p.busy_ns for p in phases) / 1e9:.2f} s, checks "
          f"{sum(p.check_ns for p in phases) / 1e9:.2f} s", file=sys.stderr)
    if attempted < 100:
        print(f"warning: only {attempted} operations; a 90th percentile needs 100",
              file=sys.stderr)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    line = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
