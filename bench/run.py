"""Benchmark for weakhopf: one workload per process, one thread, a closed loop.

Run from the repository root:

    python3 bench/run.py --workload universe --seed 1 --seconds 20 --trace 0

The run imports ``weakhopf`` from ``./src``, builds the workload's inputs
from the seed (several times, to time set-up), then runs whole passes back to
back until ``--seconds`` have been measured.  Every result is checked against
a known answer.  With ``--trace 1`` one more pass runs with the outside-in
tracer installed and the per-layer metrics are reported; the spans are
written to ``.bench_out/`` when the run ends.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Metric names and units
come from ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from tracer import Tracer
from workloads import WORKLOADS

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
MODULES = ("fields", "linalg", "ir", "report", "identities", "algebra", "bialgebra",
           "groupoid", "crossed", "cleft", "equivalence", "presentation", "cli")


def import_fresh() -> SimpleNamespace:
    """Import weakhopf from ./src as a cold process would, dropping any copy
    already loaded, so that set-up can be timed more than once."""
    for name in [n for n in sys.modules if n == "weakhopf" or n.startswith("weakhopf.")]:
        del sys.modules[name]
    importlib.import_module("weakhopf")
    wh = SimpleNamespace(**{m: importlib.import_module("weakhopf." + m) for m in MODULES})
    if not os.path.abspath(wh.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: weakhopf was imported from {wh.cli.__file__}, not from ./src")
    return wh


def tree_digest(top: str) -> dict:
    """sha256 of every file under top, bytecode caches aside."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, top)] = hashlib.sha256(fh.read()).hexdigest()
    return out


class SpeedProbe:
    """Machine speed, sampled while the workload runs.

    This box shares its cores with other tenants.  Its speed drifts by tens
    of percent within minutes, and single probes a second apart can differ
    by a factor of two.  Every INTERVAL seconds a SIGALRM
    handler times a fixed pure-Python snippet that never changes with the
    program.  A factor is the mean probe time over PROBE_REF_S: above 1 the
    machine ran slower than the reference.  Time spent in the handler is
    subtracted from every measured interval.
    """

    INTERVAL = 0.1
    PROBE_REF_S = 0.002

    def __init__(self):
        self.at: list = []  # perf_counter at each probe
        self.took: list = []  # seconds each probe took
        self.spent = 0.0

    def _handler(self, signum, frame):
        # A collection of the workload's heap must not land in the probe.
        collecting = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        _probe_work()
        d = time.perf_counter() - t
        if collecting:
            gc.enable()
        self.at.append(t)
        self.took.append(d)
        self.spent += time.perf_counter() - t

    def sample(self):
        self._handler(None, None)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Speed factor over the probes taken between start and end; if
        there is none, the probe nearest to that interval."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if lo == hi:
            near = [i for i in (lo - 1, lo) if 0 <= i < len(self.at)]
            lo = min(near, key=lambda i: min(abs(self.at[i] - start), abs(self.at[i] - end)))
            hi = lo + 1
        return statistics.fmean(self.took[lo:hi]) / self.PROBE_REF_S


def _probe_work():
    table: dict = {}
    acc = Fraction(0)
    for i in range(2500):
        key = ((i * 7919) % 613, i & 7)
        table[key] = table.get(key, 0) + (i * i) % 7
        if i % 16 == 0:
            acc += Fraction(i % 11 + 1, i % 13 + 1)
    return acc


def settle():
    """Start the next item from the same collector state, whatever ran before.

    Collect every garbage cycle, freeze the survivors and empty the oldest
    generation: the item's collections then see only the objects it makes,
    as in a fresh process.  Without this the peak RSS of ``pipeline`` swings
    between about 280 and 335 MB with where the one full collection of dual
    S3's invert_cocycle stage lands, which shifts with anything else alive.
    """
    gc.unfreeze()
    gc.collect()
    gc.freeze()
    gc.collect()


def run_pass(plan, probe: SpeedProbe, tracer=None):
    """Run every item once.  Durations exclude probe time and the untimed
    ``settle`` before each item; ``speed`` is the probe factor over the pass
    and ``factors`` the probe factor over each item."""
    clock = time.perf_counter
    durations, spans, values = [], [], []
    probe.sample()
    first_probe = probe.at[-1]
    start, spent0, settling = clock(), probe.spent, 0.0
    for i, item in enumerate(plan.items):
        if tracer is not None:
            tracer.item = i
        t, spent = clock(), probe.spent
        settle()
        settling += clock() - t - (probe.spent - spent)
        t, spent = clock(), probe.spent
        try:
            value = item.run()
        except Exception as exc:  # counted as a failed item by the oracle
            value = exc
        end = clock()
        durations.append(end - t - (probe.spent - spent))
        spans.append((t, end))
        values.append(value)
    wall = clock() - start - (probe.spent - spent0) - settling
    gc.unfreeze()
    probe.sample()
    return SimpleNamespace(wall=wall, durations=durations, plan=plan,
                           speed=probe.factor(first_probe, probe.at[-1]),
                           factors=[probe.factor(t, end) for t, end in spans], outcome=plan.verify(values))


def q_over_f7(passes) -> float:
    """Time of the Q items over time of their F_7 twins; 0 when a workload
    has no such pairs."""
    q = f7 = 0.0
    for p in passes:
        for item, d in zip(p.plan.items, p.durations):
            if item.tag == "Q":
                q += d
            elif item.tag == "F7":
                f7 += d
    return q / f7 if f7 else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "weakhopf", "__init__.py")):
        print("error: no weakhopf sources under ./src; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    setup_fn, plan_fn = WORKLOADS[args.workload]
    before = tree_digest(SRC)
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        probe = SpeedProbe()
        setup_times = []
        for k in range(SETUP_REPEATS):
            probe.sample()
            t = time.perf_counter()
            wh = import_fresh()
            os.makedirs(os.path.join(workdir, f"setup{k}"))
            state = setup_fn(wh, args.seed, os.path.join(workdir, f"setup{k}"))
            took = time.perf_counter() - t
            probe.sample()
            setup_times.append((took, probe.factor(probe.at[-2], probe.at[-1])))

        passes = []
        traced = tracer = None
        with probe:
            measured_from = time.perf_counter()
            while not passes or time.perf_counter() - measured_from < args.seconds:
                plan = plan_fn(state, os.path.join(workdir, f"pass{len(passes)}"))
                passes.append(run_pass(plan, probe))
        if args.trace:
            # No probe interrupts here: spans must cover only the program.
            tracer = Tracer(vars(wh))
            tracer.install()
            plan = plan_fn(state, os.path.join(workdir, "traced"))
            traced = run_pass(plan, probe, tracer)
        tree_ok = tree_digest(SRC) == before
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    everything = passes + ([traced] if traced else [])
    attempted = sum(len(p.durations) for p in everything)
    failed = sum(len(p.outcome.failed) for p in everything)
    mismatches = [m for p in everything for m in p.outcome.mismatches]
    for m in mismatches[:20]:
        print(f"MISMATCH {m}")
    if not tree_ok:
        print("MISMATCH the run changed files under src/")
    correct = not mismatches and failed == 0 and tree_ok

    # Times are reported at the reference machine speed (see SpeedProbe);
    # the raw figures are printed alongside.  The host's speed swings within
    # a second, so each item is scaled by the probes taken while it ran.
    walls = [p.wall / p.speed for p in passes]
    samples = [d / f for p in passes for item, d, f in zip(p.plan.items, p.durations, p.factors)
               if item.latency]
    cuts = statistics.quantiles(samples, n=10, method="inclusive")
    computed = {
        "setup_s": statistics.median(t / f for t, f in setup_times),
        "wall_s": statistics.median(walls),
        "checks_per_s": sum(p.outcome.checks for p in passes) / sum(walls),
        "item_p50_ms": statistics.median(samples) * 1e3,
        "item_p90_ms": cuts[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es), "
          f"{len(passes[0].durations)} items per pass, {len(samples)} latency samples")
    print(f"verdict_mismatches {len(mismatches)}  failed_ratio {failed / attempted:.6f} "
          f"({failed} of {attempted} items)  tree_unchanged {tree_ok}")
    print(f"checks per pass {passes[0].outcome.checks}; raw pass walls "
          + " ".join(f"{p.wall:.3f}s" for p in passes)
          + "; speed factors " + " ".join(f"{p.speed:.3f}" for p in passes)
          + f" ({len(probe.took)} probes); raw setup {statistics.median(t for t, _ in setup_times):.4f}s")

    for note in passes[0].outcome.notes:
        print(note)

    if args.trace:
        computed.update(trace_metrics(args, tracer, traced, passes))
        names = spec["per_layer"]
    else:
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in names}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def trace_metrics(args, tracer: Tracer, traced, passes) -> dict:
    agg = tracer.aggregate()
    untraced_wall = statistics.median(p.wall for p in passes)  # raw, as the traced pass
    covered = tracer.top_level_time()
    agg["fields.q_over_f7"] = q_over_f7(passes)
    agg["trace.overhead_ratio"] = traced.wall / untraced_wall
    agg["trace.unattributed_s"] = traced.wall - covered
    labels = [item.label for item in traced.plan.items]
    top = tracer.top_checks(labels)
    self_times = sorted(((k[:-7], v) for k, v in agg.items() if k.endswith(".self_s") and v),
                        key=lambda kv: -kv[1])

    print(f"traced wall {traced.wall:.3f}s (untraced {untraced_wall:.3f}s); "
          f"self time by layer, largest first:")
    for name, v in self_times:
        print(f"  {name:48s} {v:9.3f}s")
    print(f"  {'sum of self times':48s} {sum(v for _, v in self_times):9.3f}s")
    print(f"  {'unattributed':48s} {agg['trace.unattributed_s']:9.3f}s")
    print("ten most expensive checks (ir.check_identity time):")
    for label, v in top:
        print(f"  {label:48s} {v:9.3f}s")

    os.makedirs(OUT_ROOT, exist_ok=True)
    path = os.path.join(OUT_ROOT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "traced_wall_s": traced.wall, "untraced_wall_s": untraced_wall,
            "metrics": agg, "top_checks": top, "items": labels,
            "span_fields": ["name", "start", "end", "parent", "item", "label"],
            "spans": tracer.spans,
        }, fh)
    print(f"spans: {os.path.relpath(path, ROOT)} ({len(tracer.spans)} spans)")
    return agg


if __name__ == "__main__":
    sys.exit(main())
