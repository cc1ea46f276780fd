"""In-memory spans around the program's public functions and methods.

A ``Tracer`` replaces each traced function at every name where the
program looks it up (module globals of ``rankone.*`` and class
attributes), records one span per call, and puts the originals back on
``uninstall``.  Spans are ``[name, start, end, parent, unit]`` with
``parent`` the index of the enclosing span; they stay in memory until
``write`` at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from types import ModuleType
from typing import Callable, Dict, List

import numpy as np

from rankone import (adversary, cli, dispersion, pipeline, recovery, rng,
                     search, tensor, univariate)

ROOT_SPAN = "unit"
SETUP_UNIT = "setup"


def _found(counts, args, result):
    counts["phase1_calls"] += 1
    counts["found"] += bool(result.found)


def _one_query(counts, args, result):
    counts["queries"] += 1


def _batch_queries(counts, args, result):
    counts["queries"] += len(result)


def _pieces(counts, args, result):
    counts["pieces"] += result.pieces


def _eval_points(counts, args, result):
    counts["eval_points"] += int(np.size(args[1]))


# (owner, attribute, span name, counter).  A module owner means: the
# function defined there, replaced under every rankone module global
# that refers to it.
TARGETS = [
    (search, "plan", "search.plan", None),
    (pipeline, "run_pipeline", "pipeline.run_pipeline", None),
    (pipeline.ExperimentConfig, "make_tensor", "pipeline.make_tensor", None),
    (univariate, "polynomial_factor", "univariate.polynomial_factor", None),
    (search, "search_uniform_single", "search.phase1", _found),
    (search, "search_uniform_multi", "search.phase1", _found),
    (tensor.QueryOracle, "evaluate", "tensor.evaluate", _one_query),
    (tensor.QueryOracle, "evaluate_batch", "tensor.evaluate_batch", _batch_queries),
    (recovery, "recover", "recovery.recover", None),
    (univariate, "interpolate_line", "univariate.interpolate_line", _pieces),
    (univariate.PiecewisePolynomial, "__call__", "univariate.piecewise_eval",
     _eval_points),
    (tensor, "sup_distance_bound", "tensor.sup_distance_bound", None),
    (adversary, "fool_randomized", "adversary.harness", None),
    (cli, "cmd_approx", "cli.cmd_approx", None),
    (dispersion, "uniform_pointset", "dispersion.uniform_pointset", None),
    (rng, "spawn", "rng.spawn", None),
    (dispersion, "exact_dispersion", "dispersion.exact_dispersion", None),
]

# Per-unit self time of each span name, reported as "<metric>".  The
# self time of cmd_approx is what it does besides run_pipeline: config
# parsing and writing trials.csv and summary.json.
TIME_METRICS = {
    "pipeline.run_pipeline": "pipeline.run_pipeline_ms",
    "pipeline.make_tensor": "pipeline.make_tensor_ms",
    "univariate.polynomial_factor": "univariate.polynomial_factor_ms",
    "search.phase1": "search.phase1_ms",
    "tensor.evaluate": "tensor.evaluate_ms",
    "tensor.evaluate_batch": "tensor.evaluate_batch_ms",
    "recovery.recover": "recovery.recover_ms",
    "univariate.interpolate_line": "univariate.interpolate_line_ms",
    "univariate.piecewise_eval": "univariate.piecewise_eval_ms",
    "tensor.sup_distance_bound": "tensor.sup_distance_bound_ms",
    "adversary.harness": "adversary.harness_ms",
    "adversary.strategy": "adversary.strategy_ms",
    "cli.cmd_approx": "cli.serialize_ms",
    "dispersion.uniform_pointset": "dispersion.uniform_pointset_ms",
    "rng.spawn": "rng.spawn_ms",
    "dispersion.exact_dispersion": "dispersion.exact_dispersion_ms",
    ROOT_SPAN: "trace.unaccounted_ms",
}


def _rankone_modules() -> List[ModuleType]:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "rankone" or n.startswith("rankone."))]


class Tracer:
    """Records spans while installed.  ``targets`` may be extended with
    (owner, attr, name, counter) entries of the benchmark's own."""

    def __init__(self):
        self.targets = list(TARGETS)
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.unit = None
        self._saved = []

    def install(self):
        for owner, attr, name, counter in self.targets:
            if isinstance(owner, ModuleType):
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, counter)
                for mod in _rankone_modules():
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
            else:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn: Callable, counter) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else None, self.unit]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if counter is not None:
                counter(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin(self, unit, name: str = ROOT_SPAN):
        """Open a root span for one unit (or for set-up)."""
        self.unit = unit
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, None, unit])

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()
        self.unit = None

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        dur = np.array([end - start for _, start, end, _, _ in self.spans])
        return dur - child

    def metrics(self, units: int, import_s: float,
                scales: List[float]) -> Dict[str, float]:
        """Per-layer metrics: mean self ms and counts per traced unit,
        each unit's times scaled by ``scales[unit]``; set-up layers in
        unscaled ms per set-up."""
        own = self.self_times()
        per_unit: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        plan_setup = 0.0
        for (name, _, _, _, unit), t in zip(self.spans, own):
            if unit == SETUP_UNIT:
                if name == "search.plan":
                    plan_setup += t
                continue
            per_unit[name] += t * scales[unit]
            calls[name] += 1
        out = {"setup.import_ms": import_s * 1e3,
               "search.plan_ms": plan_setup * 1e3}
        for name, metric in TIME_METRICS.items():
            out[metric] = per_unit[name] * 1e3 / units
        c = self.counts
        out["search.found_per_call"] = (c["found"] / c["phase1_calls"]
                                        if c["phase1_calls"] else 0.0)
        out["tensor.queries_per_unit"] = c["queries"] / units
        out["tensor.evaluate_batch_calls"] = calls["tensor.evaluate_batch"] / units
        out["univariate.pieces_built"] = c["pieces"] / units
        out["univariate.piecewise_eval_points"] = c["eval_points"] / units
        out["rng.spawn_calls"] = calls["rng.spawn"] / units
        return out

    def write(self, path, origin: float):
        """One JSON line per span, times in ms from ``origin``."""
        own = self.self_times()
        with open(path, "w") as fh:
            for (name, start, end, parent, unit), t in zip(self.spans, own):
                fh.write(json.dumps({
                    "name": name, "start_ms": (start - origin) * 1e3,
                    "end_ms": (end - origin) * 1e3, "self_ms": t * 1e3,
                    "parent": parent, "unit": unit}) + "\n")
