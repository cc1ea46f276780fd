"""The benchmark's workloads.

A workload builds its inputs and plan in ``setup``, makes the input of
unit ``u`` in ``prepare`` (untimed), runs one unit in ``run`` (timed),
checks that unit's outputs in ``check`` (untimed, raises ``CheckFailed``)
and checks the run as a whole in ``final_checks`` (untimed).  Unit
inputs are pure functions of the run seed and the unit index.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

import rankone.adversary
import rankone.cli
import rankone.dispersion
import rankone.search
from rankone.pipeline import ExperimentConfig
from rankone.recovery import RecoveryConfig, recover
from rankone.tensor import QueryOracle, sup_distance_bound
from rankone.univariate import block_chebyshev_nodes

import references as ref

OUT = Path(__file__).resolve().parent / "out"


class CheckFailed(Exception):
    """A unit's outputs broke one of the benchmark's checks."""


def unit_seed(workload: str, seed: int, u: int) -> int:
    """63-bit seed of unit ``u``, a pure function of (workload, seed, u)."""
    h = hashlib.blake2b(f"{workload}:{seed}:{u}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little") >> 1


def require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


class Workload:
    name = ""
    block = 1        # units per throughput block
    tail_pct = 50.0  # percentile reported as unit_tail_ms
    trace_round = 1  # units per pass of the traced run
    mix = {"unit": 1.0}  # expected share of each stratum of units

    def setup(self, seed: int):
        self.seed = seed

    def prepare(self, u: int):
        return unit_seed(self.name, self.seed, u)

    def run(self, arg):
        raise NotImplementedError

    def check(self, u: int, arg, out) -> Any:
        raise NotImplementedError

    def stratum(self, record) -> Any:
        """The key in ``mix`` of a unit that passed its check."""
        return "unit"

    def final_checks(self, records: List[Any]) -> List[str]:
        return []

    def trace_targets(self) -> list:
        """Tracer targets that exist only after set-up."""
        return []

    def close(self):
        pass


class ApproxTrivial(Workload):
    """``rankone approx --out`` on shifted_smooth, r=5, M=10, d=10,
    eps=0.1 (M <= r! eps): one trial per call."""

    name = "approx_trivial"
    block = 50
    tail_pct = 90.0
    trace_round = 100
    r, M, d, eps = 5, 10.0, 10, 0.1
    spot_checks = 3
    work = sink = None

    def setup(self, seed: int):
        super().setup(seed)
        OUT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="approx-", dir=OUT))
        self.config = self.work / "experiment.json"
        self.config.write_text(json.dumps({
            "r": self.r, "M": self.M, "d": self.d, "eps": self.eps,
            "family": "shifted_smooth", "strategy": "plan", "trials": 1,
            "seed": 0, "grid": 801, "samples": 200}))
        self.out = self.work / "out"
        self.sink = open(os.devnull, "w")
        self.plan = rankone.search.plan(self.r, self.M, self.d, self.eps)
        # recover's rule: m = floor((n2 - 1) / d) nodes per line, rounded
        # down to whole blocks of r, plus the center query
        m = (self.plan.n2 - 1) // self.d
        self.q2 = 1 + self.d * self.r * (m // self.r)

    def prepare(self, u: int):
        s = super().prepare(u)
        return s, ["approx", "--config", str(self.config), "--out",
                   str(self.out), "--seed", str(s)]

    def run(self, arg):
        with contextlib.redirect_stdout(self.sink):
            return rankone.cli.main(arg[1])

    def check(self, u, arg, rc):
        require(rc == 0, f"exit code {rc}")
        with open(self.out / "trials.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads((self.out / "summary.json").read_text())
        require(len(rows) == 1, f"{len(rows)} rows in trials.csv")
        row = rows[0]
        upper, lower = float(row["error_upper"]), float(row["error_lower"])
        require(row["found"] == "true", "no nonzero point found")
        require(row["queries_phase1"] == "1", f"phase-1 queries {row['queries_phase1']}")
        require(row["queries_phase2"] == str(self.q2),
                f"phase-2 queries {row['queries_phase2']} != {self.q2}")
        require(0.0 <= lower <= upper <= self.eps,
                f"error bracket [{lower}, {upper}] vs eps {self.eps}")
        require(summary["plan"]["regime"] == "trivial_M_small"
                and summary["plan"]["n1"] == 1
                and summary["plan"]["n2"] == self.plan.n2, "summary plan")
        require(summary["trials"] == 1 and summary["found"] == 1
                and summary["eps_success"] == 1
                and summary["max_error_upper"] == upper
                and summary["config"]["seed"] == arg[0],
                "summary.json disagrees with trials.csv")
        return arg[0], upper

    def final_checks(self, records):
        """On the first few trials, recover at a z* drawn by the benchmark
        and compare with the trial's tensor."""
        fails = []
        nodes = block_chebyshev_nodes((self.plan.n2 - 1) // self.d, self.r)
        for s, _ in records[:self.spot_checks]:
            cfg = ExperimentConfig.from_dict({
                "r": self.r, "M": self.M, "d": self.d, "eps": self.eps,
                "family": "shifted_smooth", "trials": 1, "seed": s})
            t = cfg.make_tensor(0)
            gen = np.random.default_rng([self.seed, s])
            # A interpolates each axis line at its nodes, so A(z*) = f(z*)
            # exactly (up to rounding) only when every z*_i is a node
            z = nodes[gen.integers(0, nodes.size, self.d)]
            a = recover(QueryOracle(t), z, RecoveryConfig(r=self.r, budget_n2=self.plan.n2))
            if not ref.agrees(float(a(z)), t.value(z)):
                fails.append(f"A(z*) = {a(z)!r} != f(z*) = {t.value(z)!r}")
            z = gen.random(self.d)
            a = recover(QueryOracle(t), z, RecoveryConfig(r=self.r, budget_n2=self.plan.n2))
            upper, _ = sup_distance_bound(t, a.line_interpolants, a.center_value,
                                          grid=801, samples=200, seed=s)
            X = gen.random((10_000, self.d))
            err = float(np.max(np.abs(t.value_batch(X) - a(X))))
            if not err <= upper:
                fails.append(f"max |f - A| = {err!r} > sup_distance_bound upper {upper!r}")
        return fails

    def close(self):
        if self.sink is not None:
            self.sink.close()
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)


class AdversaryRan(Workload):
    """One trial of ``rankone adversary --mode ran --strategy
    uniform-recover`` with d=10, r=1, n=512."""

    name = "adversary_ran"
    block = 100
    tail_pct = 99.0
    trace_round = 200
    d, r, n = 10, 1, 512

    def setup(self, seed: int):
        super().setup(seed)
        self.plan = rankone.search.plan(self.r, 2.0 ** self.r * math.factorial(self.r),
                                        self.d, 0.5)
        _, self.strategy = rankone.cli._adversary_strategy("uniform-recover", self.d)
        # the search spends n // 2 uniform draws; each hits the hidden
        # orthant with probability 2^-d.  A trial that hits recovers and
        # costs about 25 times one that does not, so throughput is taken
        # at this mix rather than at the run's own share of hits.
        self.p_hit = 1.0 - (1.0 - 2.0 ** -self.d) ** (self.n // 2)
        self.mix = {True: self.p_hit, False: 1.0 - self.p_hit}

    def stratum(self, record):
        return record[1]

    def trace_targets(self):
        return [(self, "strategy", "adversary.strategy", None)]

    def run(self, s):
        zero = []

        def strategy(oracle, sub_seed):
            out = self.strategy(oracle, sub_seed)
            zero.append(out is None)
            return out

        report = rankone.adversary.fool_randomized(strategy, self.d, self.r,
                                                   self.n, 1, s)
        return float(report.trial_errors[0]), zero

    def check(self, u, s, out):
        err, zero = out
        require(len(zero) == 1, "strategy not called once")
        require(math.isfinite(err) and err >= 0.0, f"error {err}")
        require(not zero[0] or err == 1.0, f"zero output with error {err!r} != 1")
        return err, not zero[0]

    def final_checks(self, records):
        fails = []
        if self.plan.regime != "intractable" or self.n > self.plan.n1 // 2:
            fails.append(f"plan {self.plan.regime} n1={self.plan.n1}")
        if not records:
            return fails
        errs = np.array([e for e, _ in records])
        hits = sum(h for _, h in records)
        sq = errs ** 2
        rms = math.sqrt(sq.mean())
        se = sq.std(ddof=1) / math.sqrt(len(sq)) if len(sq) > 1 else 0.0
        ci = rms - math.sqrt(max(sq.mean() - 3 * se, 0.0))
        if not rms >= math.sqrt(2.0) / 2.0 - ci:
            fails.append(f"RMS {rms} < sqrt(2)/2 - {ci}")
        if not ref.within_sigma(hits, len(records), self.p_hit):
            fails.append(f"hit rate {hits}/{len(records)} vs {self.p_hit:.4f} +- 3 sigma")
        return fails


class Dispersion(Workload):
    """``uniform_pointset(n, d, seed)`` then ``exact_dispersion``."""

    d = 2
    V = 0.5

    def setup(self, seed: int):
        super().setup(seed)
        self.plan = rankone.search.plan(1, 2.0, self.d, 0.5, V=self.V,
                                        prefer_deterministic=True)

    def run(self, s):
        ps = rankone.dispersion.uniform_pointset(self.n, self.d, s)
        return ps, rankone.dispersion.exact_dispersion(ps)

    def check(self, u, s, out):
        ps, res = out
        pts = ps.points
        require(pts.shape == (self.n, self.d), f"point set shape {pts.shape}")
        box = res.witness_box
        require(ref.witness_ok(pts, res.value, box.lower, box.upper),
                f"witness box {box} does not hold value {res.value!r}")
        keep = pts if u < self.references else None
        return res.value, keep

    def final_checks(self, records):
        fails = []
        for value, pts in records[:self.references]:
            want = self.reference(pts)
            if not ref.agrees(value, want):
                fails.append(f"dispersion {value!r} != reference {want!r}")
        return fails


class Dispersion2D(Dispersion):
    name = "dispersion_2d"
    block = 12
    tail_pct = 90.0
    trace_round = 30
    references = 3
    V_check = 0.3

    def setup(self, seed: int):
        super().setup(seed)
        # n is the planner's deterministic point count for V = 0.5 in d = 2
        self.n = self.plan.n1

    def reference(self, pts):
        return ref.max_gap_dispersion_2d(pts)

    def final_checks(self, records):
        fails = super().final_checks(records)
        if self.n != 301:
            fails.append(f"plan gives n = {self.n}, not 301")
        if records:
            good = sum(v <= self.V_check for v, _ in records)
            bound = rankone.dispersion.disp_probability_bound(self.n, self.d, self.V_check)
            if not ref.at_least(good, len(records), bound):
                fails.append(f"{good}/{len(records)} sets with dispersion <= "
                             f"{self.V_check}, bound {bound}")
        return fails


class Dispersion3D(Dispersion):
    name = "dispersion_3d"
    d = 3
    # the exhaustive d >= 3 search is guarded at (n+2)^6 <= 1e9.  At
    # n = 16 a set costs 70 to 400 ms and a run holds too few sets for a
    # steady median; n = 12 costs about 50 ms
    n = 12
    block = 40
    tail_pct = 90.0
    trace_round = 20
    references = 10

    def reference(self, pts):
        return ref.brute_force_dispersion_3d(pts)


WORKLOADS: Dict[str, type] = {w.name: w for w in (
    ApproxTrivial, AdversaryRan, Dispersion2D, Dispersion3D)}
