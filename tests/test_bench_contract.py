"""The program API that bench/ relies on.

bench/run.py imports bench/tracing.py and bench/workloads.py, which
reach into rankone by name.  These tests load both files by path and
run a few units of two workloads in this process, so that a renamed or
reshaped function fails here rather than only in a benchmark run.
"""

import importlib.util
import math
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def load(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports references

    def load(name):
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


def run_units(workloads, name, seed, units, tracer=None):
    """set-up, then prepare, run and check each unit as bench/run.py does;
    returns the records and the run-level check failures."""
    wl = workloads.WORKLOADS[name]()
    try:
        wl.setup(seed)
        records = []
        for u in range(units):
            arg = wl.prepare(u)
            if tracer is not None:
                tracer.install()
                tracer.begin(u)
            try:
                out = wl.run(arg)
            finally:
                if tracer is not None:
                    tracer.end()
                    tracer.uninstall()
            rec = wl.check(u, arg, out)
            assert wl.stratum(rec) in wl.mix
            records.append(rec)
        return records, wl.final_checks(records)
    finally:
        wl.close()


def test_trace_targets_resolve(load):
    tracing = load("tracing")
    for owner, attr, name, _ in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), name


@pytest.mark.parametrize("name,units", [("approx_trivial", 4), ("adversary_ran", 60)])
def test_workload_units_pass_their_checks(load, monkeypatch, tmp_path, name, units):
    workloads = load("workloads")
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    records, fails = run_units(workloads, name, 5, units)
    assert len(records) == units
    assert fails == []


def test_traced_approx_trivial_counters(load, monkeypatch, tmp_path):
    # the per-layer counts a unit of approx_trivial reports: one phase-1
    # query and 51 in phase 2, all of phase 2 in one batch, and 10,020
    # line points in the bracket (10 lines on 801 grid points, the best
    # point of the line scan and 200 samples)
    tracing = load("tracing")
    workloads = load("workloads")
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    tracer = tracing.Tracer()
    units = 3
    records, fails = run_units(workloads, "approx_trivial", 1, units, tracer)
    assert fails == []
    m = tracer.metrics(units, 0.0, [1.0] * units)
    assert m["tensor.queries_per_unit"] == 52
    assert m["tensor.evaluate_batch_calls"] == 1
    assert m["univariate.piecewise_eval_points"] == 10_020
    assert m["univariate.pieces_built"] == 1
    assert m["search.found_per_call"] == 1.0
    assert all(math.isfinite(v) for v in m.values())
