"""Benchmark of the rankone two-phase pipeline, lower-bound harness and
exact dispersion.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see bench/README.md) for S seconds in this process,
on the sources under src/ next to this directory.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones of a traced run, whose spans are
written to bench/out/.
"""

import time

T_START = time.perf_counter()

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 9


def import_program() -> float:
    """Import numpy and rankone from src/; return the seconds it took."""
    if not (SRC / "rankone" / "__init__.py").is_file():
        sys.exit(f"bench: no rankone sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import rankone
    import rankone.cli  # noqa: F401
    took = time.perf_counter() - t0
    if Path(rankone.__file__).resolve().parent != SRC / "rankone":
        sys.exit(f"bench: rankone imported from {rankone.__file__}, not {SRC}")
    return took


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def setup_time(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter to the end of the
    workload's set-up."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
        try:
            line = p.stdout.readline()
            t1 = time.perf_counter()
            p.stdout.read()
            rc = p.wait(timeout=60)
        except BaseException:
            p.kill()
            raise
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe failed (exit {rc}): {line!r}")
    return t1 - t0


class Units:
    """Runs units of a workload, timing each, counting failures and
    sampling host speed between them."""

    def __init__(self, wl, speed):
        self.wl, self.speed = wl, speed
        self.times, self.span, self.ok, self.records = [], [], [], []
        self.strata = []  # stratum of each unit that passed, else None
        self.failed = 0

    def run(self, u: int, tracer=None, keep=True):
        wl = self.wl
        self.speed.tick()
        arg = wl.prepare(u)
        good = True
        if tracer is not None:
            tracer.begin(len(self.times))
        t0 = time.perf_counter()
        try:
            out = wl.run(arg)
        except Exception:
            good = False
            traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end()
        stratum = None
        if good:
            try:
                rec = wl.check(u, arg, out)
                stratum = wl.stratum(rec)
                if keep:
                    self.records.append(rec)
            except Exception as exc:
                good = False
                print(f"unit {u}: {exc!r}", file=sys.stderr)
        self.failed += not good
        self.strata.append(stratum)
        self.span.append((t0, t1))
        self.times.append(t1 - t0)
        self.ok.append(good)

    def scales(self):
        """Host-speed factor of every unit run so far (samples once more
        so that the last units have a sample after them)."""
        self.speed.sample()
        return [self.speed.scale(t0, t1) for t0, t1 in self.span]


def final_checks(wl, records):
    """The workload's run-level checks; one that raises counts as failed."""
    try:
        return wl.final_checks(records)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return [f"run-level check raised {exc!r}"]


def block_rate(mix, times, strata):
    """Units completed per second in one block, at the workload's
    expected mix: the share of units that passed over the mix-weighted
    mean time of a passing unit.  None if a stratum is missing."""
    mean = 0.0
    for key, weight in mix.items():
        own = [t for t, s in zip(times, strata) if s == key]
        if not own:
            return None
        mean += weight * sum(own) / len(own)
    return sum(s is not None for s in strata) / len(strata) / mean


def end_to_end(wl, args, import_s, speed):
    import numpy as np

    # set-up is timed in fresh processes spread over the run, between
    # blocks: its level drifts over seconds, though it barely follows the
    # host-speed kernel.  One more process goes first, untimed, so that
    # every timed one finds the byte code compiled.
    setup_time(wl.name, args.seed)
    setup = []
    units = Units(wl, speed)
    start = time.perf_counter()
    u = 0
    while u == 0 or time.perf_counter() < start + args.seconds:
        if len(setup) * args.seconds < SETUP_PROBES * (time.perf_counter() - start):
            setup.append(setup_time(wl.name, args.seed))
        for _ in range(wl.block):  # whole blocks of distinct units
            units.run(u)
            u += 1
    while len(setup) < SETUP_PROBES:
        setup.append(setup_time(wl.name, args.seed))
    scales = units.scales()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fails = final_checks(wl, units.records)
    times = [t * s for t, s in zip(units.times, scales)]
    good = [t for t, ok in zip(times, units.ok) if ok] or [float("nan")]
    rates = [block_rate(wl.mix, times[b:b + wl.block], units.strata[b:b + wl.block])
             for b in range(0, len(times), wl.block)]
    rates = [r for r in rates if r is not None] or [float("nan")]
    metrics = {
        "throughput_per_s": (statistics.median(rates), "1/s"),
        "unit_p50_ms": (statistics.median(good) * 1e3, "ms"),
        "unit_tail_ms": (float(np.percentile(good, wl.tail_pct)) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    extra = {"import_s": import_s, "tail_pct": wl.tail_pct, "block": wl.block,
             "setup_s": setup, "unit_raw_s": units.times,
             "unit_scale": scales, "unit_ok": units.ok}
    return units, fails, metrics, extra


def traced(wl, args, import_s, speed):
    """Trace the set-up, then alternate untraced (A) and traced (B)
    passes over the same round of units until the time is up; per-layer
    metrics come from the B passes, the tracing overhead from B against
    A.  Unit times and self times are scaled by host speed."""
    from tracing import SETUP_UNIT, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin(SETUP_UNIT, "setup")
        wl.setup(args.seed)
        tracer.end()
    finally:
        tracer.uninstall()
    tracer.targets += wl.trace_targets()
    units = Units(wl, speed)
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < 2 or i % 2 or time.perf_counter() < deadline:
        if i % 2:
            tracer.install()
        try:
            for u in range(wl.trace_round):
                units.run(u, tracer if i % 2 else None, keep=(i == 0))
        finally:
            tracer.uninstall()
        i += 1
    scales = units.scales()
    fails = final_checks(wl, units.records)
    n = wl.trace_round
    passes = [sum(t * s for t, s in zip(units.times[k:k + n], scales[k:k + n]))
              for k in range(0, len(units.times), n)]
    metrics = tracer.metrics(n * (i // 2), import_s, scales)
    metrics["trace.overhead_pct"] = 100.0 * statistics.median(
        b / a - 1.0 for a, b in zip(passes[0::2], passes[1::2]))
    unit_of = {"search.found_per_call": "ratio", "trace.overhead_pct": "%"}
    out = {k: (v, "ms" if k.endswith("_ms") else unit_of.get(k, "count"))
           for k, v in metrics.items()}
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(trace_path, T_START)
    extra = {"import_s": import_s, "pass_s": passes, "round": n,
             "trace_file": trace_path.name}
    return units, fails, out, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    from hostspeed import HostSpeed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    try:
        if args.setup_probe:
            wl.setup(args.seed)
            print("ready", flush=True)
            return 0
        speed = HostSpeed()
        if args.trace:
            units, fails, metrics, extra = traced(wl, args, import_s, speed)
        else:
            wl.setup(args.seed)
            units, fails, metrics, extra = end_to_end(wl, args, import_s, speed)
    finally:
        wl.close()
    for f in fails:
        print(f"check failed: {f}", file=sys.stderr)
    result = {
        "correct": not fails and len(units.records) > 0,
        "attempted": len(units.times),
        "failed": units.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(dict(
        result, workload=args.workload, seed=args.seed, seconds=args.seconds,
        checks_failed=fails, kernel_s=speed.samples, **extra)) + "\n")
    print(f"{args.workload} seed={args.seed}: {result['attempted']} units, "
          f"{result['failed']} failed, checks {'ok' if not fails else 'FAILED'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
