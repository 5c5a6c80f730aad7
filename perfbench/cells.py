"""The benchmark's workloads: inputs, stacks, entry-point calls and checks.

Each workload is one closed-loop cell.  A call gets its own seeded input
(:meth:`make_input`) and a fresh stack (:meth:`build`); those two steps
are the set-up.  :meth:`call` is the only timed step: it goes through the
public entry point (``run_trace``, ``run_transactions`` or
``run_cluster``) and returns an :class:`Outcome`.  :meth:`check` holds the
output checks.  Entry points are looked up on their modules at call time,
so the traced run sees the wrapped versions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time

from repro.bench import runner
from repro.cluster import engine as cluster_engine
from repro.engine import executor
from repro.storage.profiles import PCIE_SSD
from repro.workloads import synthetic
from repro.workloads import tpcc

#: The paper-replication execution model: 30 us of CPU per access.
OPTIONS = executor.ExecutionOptions(cpu_us_per_op=30.0)

#: Page space of the MS traces (ms-compare and cluster-r1).
MS_PAGES = 20_000


@dataclasses.dataclass
class Outcome:
    """What one entry-point call returned, plus its per-leg wall times."""

    #: One RunMetrics per leg (the merged metrics for a cluster call).
    runs: list
    #: Wall seconds of each variant's engine call, keyed by variant.
    legs: dict[str, float]
    #: Integers pinned by the digest beyond the RunMetrics counters.
    extra: list[int]
    #: The cluster call's metrics, for the cluster-only layer metrics.
    cluster: object | None = None


def run_counters(run) -> list[int]:
    """Every integer counter of a RunMetrics, in a fixed order."""
    values = [run.ops, run.transactions, run.new_order_transactions,
              run.wal_pages_written]
    for stats in (run.buffer, run.device):
        for field in dataclasses.fields(stats):
            value = getattr(stats, field.name)
            if isinstance(value, int) and not isinstance(value, bool):
                values.append(value)
    for size, count in sorted(run.device.write_batch_size_histogram.items()):
        values += [size, count]
    return values


def digest(outcome: Outcome) -> str:
    """Digest of the call's integer counters: any change in simulated
    behaviour changes it."""
    values = [run_counters(run) for run in outcome.runs] + [outcome.extra]
    blob = json.dumps(values, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def generic_failures(run) -> list[str]:
    """Accounting identities every run must satisfy."""
    buffer = run.buffer
    failures = []
    if buffer.hits + buffer.misses != run.ops:
        failures.append(f"{run.label}: hits + misses != ops")
    if buffer.read_requests + buffer.write_requests != run.ops:
        failures.append(f"{run.label}: read + write requests != ops")
    if buffer.evictions != buffer.clean_evictions + buffer.dirty_evictions:
        failures.append(f"{run.label}: evictions != clean + dirty")
    return failures


def _stack(variant: str, num_pages: int, **overrides):
    return runner.build_stack(
        runner.StackConfig(
            profile=PCIE_SSD,
            policy="lru",
            variant=variant,
            num_pages=num_pages,
            options=OPTIONS,
            sanitize=False,
            **overrides,
        )
    )


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


class MsCompare:
    """The paper's Fig. 8 cell: one MS trace through LRU baseline, ACE and
    ACE with prefetching, each on its own fresh stack."""

    name = "ms-compare"
    variants = ("baseline", "ace", "ace+pf")
    ops = 10_000

    def make_input(self, seed: int):
        return synthetic.generate_trace(synthetic.MS, MS_PAGES, self.ops, seed=seed)

    def accesses(self, trace) -> int:
        return len(self.variants) * len(trace)

    def build(self, trace):
        return [_stack(variant, MS_PAGES) for variant in self.variants]

    def call(self, trace, managers) -> Outcome:
        runs = []
        legs = {}
        for variant, manager in zip(self.variants, managers):
            run, legs[variant] = _timed(
                executor.run_trace, manager, trace, options=OPTIONS
            )
            runs.append(run)
        return Outcome(runs, legs, [])

    def check(self, trace, managers, outcome: Outcome) -> list[str]:
        baseline, ace, _ = outcome.runs
        failures = [f for run in outcome.runs for f in generic_failures(run)]
        failures += [
            f"{run.label}: ops != trace length"
            for run in outcome.runs
            if run.ops != len(trace)
        ]
        # Paper invariants: ACE without prefetching evicts in the same
        # virtual order, so it misses exactly as often, and batched
        # write-back makes it faster in simulated time.
        if ace.buffer.misses != baseline.buffer.misses:
            failures.append("ace misses differ from baseline misses")
        if not ace.elapsed_us < baseline.elapsed_us:
            failures.append("ace elapsed_us is not below baseline's")
        return failures


class TpccWal:
    """The TPC-C standard mix on an ACE stack with a write-ahead log whose
    footprint fits the pool: no evictions, a WAL flush per commit."""

    name = "tpcc-wal"
    warehouses = 10
    row_scale = 0.1
    transactions = 500
    pool_fraction = 0.3

    def make_input(self, seed: int):
        workload = tpcc.TPCCWorkload(
            warehouses=self.warehouses, row_scale=self.row_scale, seed=seed
        )
        return workload.total_pages, list(
            workload.transaction_stream(self.transactions)
        )

    def accesses(self, tpcc_input) -> int:
        return sum(len(requests) for _, requests in tpcc_input[1])

    def build(self, tpcc_input):
        return _stack(
            "ace",
            tpcc_input[0],
            pool_fraction=self.pool_fraction,
            with_wal=True,
        )

    def call(self, tpcc_input, manager) -> Outcome:
        run, wall = _timed(
            executor.run_transactions, manager, tpcc_input[1], options=OPTIONS
        )
        return Outcome([run], {"ace": wall}, [manager.wal.lsn, manager.wal.durable_lsn])

    def check(self, tpcc_input, manager, outcome: Outcome) -> list[str]:
        (run,) = outcome.runs
        failures = generic_failures(run)
        if run.transactions != self.transactions:
            failures.append(f"transactions {run.transactions} != {self.transactions}")
        if run.ops != self.accesses(tpcc_input):
            failures.append("ops != requests in the stream")
        if manager.wal.durable_lsn != manager.wal.lsn:
            failures.append("WAL not durable after the last commit")
        return failures


class ClusterR1:
    """An MS trace through ``run_cluster``: 4 hash shards, each a primary
    plus one replica with synchronous WAL shipping, on ACE.  Split, worker
    spawn, pickling, replay, shipping, audit and merge are all inside the
    call."""

    name = "cluster-r1"
    ops = 10_000
    shards = 4
    #: Two worker processes, never more than the host has CPUs.
    workers = min(2, os.cpu_count() or 1)

    def make_input(self, seed: int):
        return synthetic.generate_trace(synthetic.MS, MS_PAGES, self.ops, seed=seed)

    def accesses(self, trace) -> int:
        return len(trace)

    def build(self, trace):
        return cluster_engine.ClusterConfig(
            profile=PCIE_SSD,
            policy="lru",
            variant="ace",
            num_pages=MS_PAGES,
            num_shards=self.shards,
            options=OPTIONS,
            replication_factor=1,
        )

    def call(self, trace, config) -> Outcome:
        metrics = cluster_engine.run_cluster(config, trace, workers=self.workers)
        summary = metrics.replication
        extra = list(metrics.per_shard_ops) + [summary.final_epoch]
        for report in summary.per_shard:
            extra += [
                len(report.failovers),
                report.node_crashes,
                report.attempted_accesses,
                report.shipped_records,
                report.committed_updates,
                report.lost_updates,
                report.phantom_pages,
            ]
        return Outcome([metrics.merged], {}, extra, cluster=metrics)

    def check(self, trace, config, outcome: Outcome) -> list[str]:
        (merged,) = outcome.runs
        failures = generic_failures(merged)
        summary = outcome.cluster.replication
        if summary is None or not summary.ok:
            failures.append("replication audit failed (lost updates or phantoms)")
        if merged.ops != len(trace):
            failures.append(f"merged ops {merged.ops} != trace length {len(trace)}")
        return failures


WORKLOADS = {cell.name: cell for cell in (MsCompare(), TpccWal(), ClusterR1())}
