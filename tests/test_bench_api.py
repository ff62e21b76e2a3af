"""The program names and call shapes the benchmark in ``perfbench/`` uses.

The benchmark wraps public functions by name and calls them from its
workloads; a refactor that renames or reshapes one loses that layer's
numbers or the workload, and only the benchmark run would show it.  These
tests import the benchmark's modules and run one cheap operation of each
workload.  Nothing is written under ``perfbench/``.
"""

import importlib

import pytest

from conftest import perfbench_module


@pytest.fixture(scope="module")
def bench():
    return perfbench_module("tracing"), perfbench_module("workloads")


def test_traced_targets_resolve(bench):
    tracing, _ = bench
    for module, name, _size in tracing.TARGETS:
        target = getattr(importlib.import_module(f"treepolicy.{module}"), name, None)
        assert callable(target), f"{module}.{name}"


def test_cheapest_operation_of_each_workload_runs_and_checks(bench):
    _, workloads = bench
    for name, workload in workloads.WORKLOADS.items():
        w = workload(7)
        w.setup(0)
        op = min(w.round_ops(0), key=lambda o: o.units)
        assert w.check(op, op.run()) is None, name


def test_one_mesh_sim_round_runs_and_checks(bench):
    # The cheapest operation above is always a log-mode request, so the
    # early-block path runs only here: a whole round, in round order, since
    # an early-block check compares against the log-mode word before it.
    _, workloads = bench
    w = workloads.WORKLOADS["mesh-sim"](7)
    w.setup(0)
    ops = w.round_ops(0)
    assert len(ops) == 36
    for op in ops:
        assert w.check(op, op.run()) is None, op.data
    assert w.counters()["mesh_sim.nodes_skipped_share"] > 0  # some request was blocked
