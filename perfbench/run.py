"""Wall-clock benchmark of the simulator's public entry points.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ms-compare --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --pin            # re-pin the counter digests

One caller drives one workload as a closed loop: back-to-back calls into
``run_trace`` / ``run_transactions`` / ``run_cluster``, each call on its
own seeded input and a fresh stack.  Every time reported is rescaled to
the host's reference speed (``reference.py``): a fixed pure-Python job is
timed right before and right after each call, and the call's times are
multiplied by ``reference.NOMINAL_S`` over the job's mean time.  A run
has two phases:

1. untraced calls, which give every end-to-end timing;
2. pairs of one untraced and one traced call on the same input, which
   give the tracing overhead and (with ``--trace 1``) the per-layer split
   derived from the traced call's spans.

Every call's outputs are checked, including a digest of its integer
counters against the values pinned in ``digests.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (in page accesses) and the metrics — end-to-end ones with
``--trace 0``, per-layer ones with ``--trace 1``.  The exit code is 0 when
every check passed, 1 when one failed, and 2 when the program under test
cannot be imported.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"

#: Distinct inputs per workload; call ``i`` of base seed ``b`` replays
#: input ``(b * 7919 + i) % INPUT_POOL``, whose digest is pinned.
INPUT_POOL = 512
#: Untraced calls per run at least: the 90th percentile then has at
#: least ten samples beyond it.
MIN_CALLS = 100
#: Untraced/traced pairs per run at least.
MIN_PAIRS = 3
#: Share of ``--seconds`` spent in the untraced phase.
UNTRACED_SHARE = {0: 0.7, 1: 0.4}
#: The untraced phase stops here even below MIN_CALLS, so that a very
#: slow commit still ends within the benchmark's time limit.
MAX_UNTRACED_S = 120.0
#: Allowed gap between the layers' summed self time and the traced
#: call's wall time, as a share of the wall time.
SELF_CHECK_TOLERANCE = 0.01
#: Environment switches of the program that would change what is
#: measured; the benchmark fixes them by clearing them.
PROGRAM_ENV = ("REPRO_FAULTS", "REPRO_SANITIZE", "REPRO_TABLE", "REPRO_WORKERS")

END_TO_END_UNITS = {
    "accesses_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "trace_overhead": "ratio",
}

PER_LAYER_UNITS = {
    "engine.self_s": "s",
    "engine.leg_baseline_s": "s",
    "engine.leg_ace_s": "s",
    "engine.leg_acepf_s": "s",
    "policies.calls": "count",
    "policies.self_s": "s",
    "core.ace.self_s": "s",
    "core.writer.batches": "count",
    "core.writer.pages_per_batch": "pages",
    "core.writer.self_s": "s",
    "core.evictor.self_s": "s",
    "core.reader.self_s": "s",
    "prefetch.calls": "count",
    "prefetch.self_s": "s",
    "prefetch.useful_ratio": "ratio",
    "prefetch.pages_prefetched": "pages",
    "storage.read_batches": "count",
    "storage.write_batches": "count",
    "storage.mean_write_batch": "pages",
    "storage.self_s": "s",
    "bufferpool.self_s": "s",
    "bufferpool.hit_ratio": "ratio",
    "bufferpool.dirty_evict_ratio": "ratio",
    "bufferpool.evictions": "pages",
    "bufferpool.build_s": "s",
    "bufferpool.wal.log_calls": "count",
    "bufferpool.wal.flush_calls": "count",
    "bufferpool.wal.self_s": "s",
    "bufferpool.wal.pages_written": "pages",
    "bufferpool.recovery.audit_s": "s",
    "cluster.router.split_s": "s",
    "cluster.replication.self_s": "s",
    "cluster.merge_s": "s",
    "cluster.ops_imbalance": "ratio",
    "cluster.fanout_s": "s",
    "workloads.gen_s": "s",
}

LEG_METRICS = {
    "baseline": "engine.leg_baseline_s",
    "ace": "engine.leg_ace_s",
    "ace+pf": "engine.leg_acepf_s",
}

#: Span name of the benchmark's own input-generation step.
INPUT_SPAN = "perfbench.make_input"


def input_seed(base_seed: int, index: int) -> int:
    return (base_seed * 7919 + index) % INPUT_POOL


@dataclasses.dataclass
class CallRecord:
    """One entry-point call: its timings, outcome and check failures."""

    seed: int
    setup_s: float
    wall_s: float
    #: ``reference.NOMINAL_S`` over the reference job's mean wall time
    #: around the call: multiply a wall time by it to rescale it.
    speed: float
    accesses: int
    outcome: object
    failures: list[str]
    digest: str | None
    #: Per-layer values, for traced calls only.
    layers: dict[str, float] | None = None
    #: ``(setup_batch, call_batch)`` span batches of a traced call.
    batches: tuple | None = None


class Bench:
    """The closed loop over one workload and its accounting."""

    def __init__(self, cells, spans, cell, pinned: list[str] | None) -> None:
        self.cells = cells
        self.spans = spans
        self.cell = cell
        self.pinned = pinned
        self.recorder = spans.Recorder()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, seed: int, traced: bool = False, tamper=None) -> CallRecord:
        """Set up and run one call; ``tamper`` edits the outcome before
        it is checked (the smoke test's fault injection)."""
        cell = self.cell
        tracing = None
        make_input = cell.make_input
        if traced:
            tracing = self.spans.install(self.recorder)
            make_input = self.recorder.wrap(make_input, INPUT_SPAN, "workloads")
        try:
            # Collect the previous call's garbage outside the timers, so
            # a call does not pay for the collections its predecessors
            # made necessary.
            gc.collect()
            start = time.perf_counter()
            data = make_input(seed)
            state = cell.build(data)
            setup_s = time.perf_counter() - start
            setup_batch = self.recorder.take() if traced else None
            failures: list[str] = []
            outcome = None
            gc.collect()
            reference_s = reference.timed()
            start = time.perf_counter()
            try:
                outcome = cell.call(data, state)
            except Exception:
                failures.append(traceback.format_exc())
            wall_s = time.perf_counter() - start
            call_batch = self.recorder.take() if traced else None
            reference_s = (reference_s + reference.timed()) / 2
        finally:
            if tracing is not None:
                tracing.uninstall()
        digest = None
        if outcome is not None:
            if tamper is not None:
                tamper(outcome)
            failures += cell.check(data, state, outcome)
            digest = self.cells.digest(outcome)
            if self.pinned is not None and digest != self.pinned[seed]:
                failures.append(
                    f"counter digest {digest} != pinned {self.pinned[seed]}"
                )
        record = CallRecord(seed, setup_s, wall_s,
                            reference.NOMINAL_S / reference_s,
                            cell.accesses(data), outcome, failures, digest)
        if traced:
            record.batches = (setup_batch, call_batch)
            if outcome is not None:
                setup = self.spans.summarize(self.recorder, *setup_batch)
                call = self.spans.summarize(self.recorder, *call_batch)
                record.layers = {
                    name: value * record.speed
                    if PER_LAYER_UNITS[name] == "s" else value
                    for name, value in self.layer_values(
                        setup, call, outcome).items()
                }
                covered = call.main_self_s
                if abs(covered - wall_s) > SELF_CHECK_TOLERANCE * wall_s:
                    failures.append(
                        f"self-check: layers' self time {covered:.6f}s vs "
                        f"traced call wall {wall_s:.6f}s"
                    )
        self.attempted += record.accesses
        if failures:
            self.failed += record.accesses
            self.failures += [f"{cell.name} input {seed}: {f}" for f in failures]
        return record

    def layer_values(self, setup, call, outcome) -> dict[str, float]:
        """Per-layer values of one traced call from the span summaries of
        its set-up and call, plus counters read off its outputs."""

        def inclusive(*names):
            return sum(
                summary.inclusive_s.get(name, 0.0)
                for summary in (setup, call)
                for name in names
            )

        flush = "repro.core.writer.Writer.flush"
        batches = call.name_calls.get(flush, 0)
        runs = outcome.runs
        buffer_total = {
            name: sum(getattr(run.buffer, name) for run in runs)
            for name in ("hits", "misses", "evictions", "dirty_evictions",
                         "prefetch_hits", "prefetch_issued")
        }
        reads = sum(run.device.read_batches for run in runs)
        write_batches = sum(run.device.write_batches for run in runs)
        writes = sum(run.device.writes for run in runs)
        cluster = outcome.cluster
        return {
            "engine.self_s": call.self_s.get("engine", 0.0),
            "policies.calls": call.calls.get("policies", 0),
            "policies.self_s": call.self_s.get("policies", 0.0),
            "core.ace.self_s": call.self_s.get("core.ace", 0.0),
            "core.writer.batches": batches,
            "core.writer.pages_per_batch": (
                call.work.get(flush, 0) / batches if batches else 0.0
            ),
            "core.writer.self_s": call.self_s.get("core.writer", 0.0),
            "core.evictor.self_s": call.self_s.get("core.evictor", 0.0),
            "core.reader.self_s": call.self_s.get("core.reader", 0.0),
            "prefetch.calls": call.calls.get("prefetch", 0),
            "prefetch.self_s": call.self_s.get("prefetch", 0.0),
            "prefetch.useful_ratio": _ratio(
                buffer_total["prefetch_hits"], buffer_total["prefetch_issued"]
            ),
            "prefetch.pages_prefetched": buffer_total["prefetch_issued"],
            "storage.read_batches": reads,
            "storage.write_batches": write_batches,
            "storage.mean_write_batch": _ratio(writes, write_batches),
            "storage.self_s": call.self_s.get("storage", 0.0),
            "bufferpool.self_s": call.self_s.get("bufferpool", 0.0),
            "bufferpool.hit_ratio": _ratio(
                buffer_total["hits"],
                buffer_total["hits"] + buffer_total["misses"],
            ),
            "bufferpool.dirty_evict_ratio": _ratio(
                buffer_total["dirty_evictions"], buffer_total["evictions"]
            ),
            "bufferpool.evictions": buffer_total["evictions"],
            "bufferpool.build_s": inclusive(*self.spans.STACK_BUILDS),
            "bufferpool.wal.log_calls": call.name_calls.get(
                "repro.bufferpool.wal.WriteAheadLog.log_update", 0
            ),
            "bufferpool.wal.flush_calls": call.name_calls.get(
                "repro.bufferpool.wal.WriteAheadLog.flush", 0
            ),
            "bufferpool.wal.self_s": call.self_s.get("bufferpool.wal", 0.0),
            "bufferpool.wal.pages_written": sum(
                run.wal_pages_written for run in runs
            ),
            "bufferpool.recovery.audit_s": inclusive(
                "repro.bufferpool.recovery.audit_committed"
            ),
            "cluster.router.split_s": inclusive(
                "repro.cluster.router.ShardRouter.split"
            ),
            "cluster.replication.self_s": call.self_s.get(
                "cluster.replication", 0.0
            ),
            "cluster.merge_s": inclusive("repro.cluster.engine._assemble"),
            "cluster.ops_imbalance": (
                cluster.ops_imbalance if cluster is not None else 0.0
            ),
            "workloads.gen_s": inclusive(INPUT_SPAN),
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (the
    cluster's worker processes), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run(cells, spans, workload: str, base_seed: int, seconds: float,
        trace: int, pinned: list[str] | None):
    """Drive one workload for ``seconds``; returns the result object and
    the run's description."""
    bench = Bench(cells, spans, cells.WORKLOADS[workload], pinned)
    started = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - started

    # Warm-up call: imports, first-touch allocations.  Checked, not timed.
    bench.call(input_seed(base_seed, 0))
    untraced: list[CallRecord] = []
    while (
        elapsed() < UNTRACED_SHARE[trace] * seconds or len(untraced) < MIN_CALLS
    ) and elapsed() < MAX_UNTRACED_S:
        untraced.append(bench.call(input_seed(base_seed, len(untraced))))
    peak_rss_mb = _peak_rss_mb()

    pairs: list[tuple[CallRecord, CallRecord]] = []
    while elapsed() < seconds or len(pairs) < MIN_PAIRS:
        seed = untraced[len(pairs) % len(untraced)].seed
        plain = bench.call(seed)
        traced = bench.call(seed, traced=True)
        if plain.digest != traced.digest:
            bench.failed += traced.accesses
            bench.failures.append(
                f"input {seed}: traced digest {traced.digest} != "
                f"untraced {plain.digest}"
            )
        pairs.append((plain, traced))

    walls = [record.wall_s * record.speed for record in untraced]
    metrics = {
        "accesses_per_s": sum(record.accesses for record in untraced)
        / sum(walls),
        "call_p50_ms": statistics.median(walls) * 1e3,
        "call_p90_ms": statistics.quantiles(walls, n=10)[8] * 1e3,
        "setup_s": statistics.median(
            record.setup_s * record.speed for record in untraced
        ),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - bench.failed / bench.attempted,
        "trace_overhead": sum(traced.wall_s * traced.speed for _, traced in pairs)
        / sum(plain.wall_s * plain.speed for plain, _ in pairs),
    }
    raw_walls = [record.wall_s for record in untraced]
    speeds = [record.speed for record in untraced]
    units = END_TO_END_UNITS
    if trace:
        metrics = layer_metrics(untraced, pairs)
        units = PER_LAYER_UNITS
        _write_spans(bench, workload, base_seed, pairs[0][1])
    description = {
        "workload": workload,
        "seed": base_seed,
        "seconds": seconds,
        "trace": trace,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cluster_workers": cells.ClusterR1.workers,
        "untraced_calls": len(untraced),
        "traced_pairs": len(pairs),
        "call_p90_ms": "90th percentile of the untraced call walls "
                       "(statistics.quantiles, n=10, exclusive method)",
        "raw_call_p50_ms": statistics.median(raw_walls) * 1e3,
        "raw_call_p90_ms": statistics.quantiles(raw_walls, n=10)[8] * 1e3,
        "speed_p10_p50_p90": [
            statistics.quantiles(speeds, n=10)[i] for i in (0, 4, 8)
        ],
        "failures": bench.failures[:5],
    }
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, description


def layer_metrics(untraced, pairs) -> dict[str, float]:
    """Per-layer metrics: medians over the traced calls, except the legs
    and the fan-out, which are medians over the untraced calls."""
    traced = [record.layers for _, record in pairs if record.layers]
    metrics = {
        name: statistics.median(values[name] for values in traced)
        if traced else 0.0
        for name in PER_LAYER_UNITS
        if name not in LEG_METRICS.values() and name != "cluster.fanout_s"
    }
    for variant, name in LEG_METRICS.items():
        legs = [
            record.outcome.legs[variant] * record.speed
            for record in untraced
            if record.outcome is not None and variant in record.outcome.legs
        ]
        metrics[name] = statistics.median(legs) if legs else 0.0
    fanout = [
        (record.wall_s - max(record.outcome.cluster.replay_wall_s))
        * record.speed
        for record in untraced
        if record.outcome is not None and record.outcome.cluster is not None
    ]
    metrics["cluster.fanout_s"] = statistics.median(fanout) if fanout else 0.0
    return metrics


def _write_spans(bench: Bench, workload: str, seed: int, record) -> None:
    """Write the spans of one traced call (set-up and call) as JSON lines:
    a header with the call id and the span-name table, then one row per
    span."""
    recorder = bench.recorder
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as handle:
        header = {
            "call": record.seed,
            "names": recorder.names,
            "layers": recorder.layers,
            "row": ["phase", "pid", "id", "parent", "name", "start_ns",
                    "end_ns", "work"],
        }
        handle.write(json.dumps(header) + "\n")
        for phase, (spans, workers) in zip(("setup", "call"), record.batches):
            for pid, batch in [(recorder.pid, spans)] + workers:
                for index, (name, start, end, parent, work) in enumerate(batch):
                    row = [phase, pid, index, parent, name, start, end, work]
                    handle.write(json.dumps(row) + "\n")


def pin(cells, spans, workloads) -> int:
    """Recompute the pinned counter digest of every input in the pool."""
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for workload in workloads:
        bench = Bench(cells, spans, cells.WORKLOADS[workload], None)
        digests = []
        for seed in range(INPUT_POOL):
            record = bench.call(seed)
            if record.failures:
                print("\n".join(bench.failures), file=sys.stderr)
                return 1
            digests.append(record.digest)
        pinned[workload] = digests
        print(f"pinned {workload}: {INPUT_POOL} inputs", file=sys.stderr)
    DIGESTS.write_text(json.dumps(pinned, indent=0) + "\n")
    return 0


def load_program():
    """Import the program under test from ``src/`` next to this directory."""
    sys.path.insert(0, str(ROOT / "src"))
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)
    import cells
    import spans

    return cells, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name (required to run)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the counter digests and exit")
    args = parser.parse_args(argv)
    try:
        cells, spans = load_program()
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload is not None and args.workload not in cells.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(cells.WORKLOADS)}")
    if args.pin:
        return pin(cells, spans, [args.workload] if args.workload
                   else list(cells.WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required")
    pinned = json.loads(DIGESTS.read_text())[args.workload]
    result, description = run(cells, spans, args.workload, args.seed,
                              args.seconds, args.trace, pinned)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"run": description, "result": result}, indent=2) + "\n"
    )
    for failure in description["failures"]:
        print(failure, file=sys.stderr)
    print(json.dumps({"run": description}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
