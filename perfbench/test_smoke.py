"""Smoke test of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json

import pytest

import run

CELLS, SPANS = run.load_program()
MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PINNED = json.loads(run.DIGESTS.read_text())


def _short_run(monkeypatch, workload: str, trace: int):
    monkeypatch.setattr(run, "MIN_CALLS", 3)
    monkeypatch.setattr(run, "MIN_PAIRS", 1)
    return run.run(CELLS, SPANS, workload, 5, 0.0, trace, PINNED[workload])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(monkeypatch, trace, section):
    result, description = _short_run(monkeypatch, "tpcc-wal", trace)
    assert result["correct"], description["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {entry["name"]: entry["unit"] for entry in MANIFEST[section]}
    printed = {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert printed == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert description["untraced_calls"] >= 3


def test_tampered_counter_counts_as_failed():
    bench = run.Bench(CELLS, SPANS, CELLS.WORKLOADS["ms-compare"],
                      PINNED["ms-compare"])
    clean = bench.call(7)
    assert not clean.failures and bench.failed == 0

    def tamper(outcome):
        outcome.runs[1].buffer.dirty_evictions += 1

    tampered = bench.call(7, tamper=tamper)
    assert tampered.failures
    assert bench.failed == tampered.accesses
    assert bench.attempted == clean.accesses + tampered.accesses
    # ok_frac is 1 - failed / attempted.
    assert 1.0 - bench.failed / bench.attempted == pytest.approx(0.5)


@pytest.mark.parametrize("workload", sorted(CELLS.WORKLOADS))
def test_traced_and_untraced_digests_match(workload):
    bench = run.Bench(CELLS, SPANS, CELLS.WORKLOADS[workload], PINNED[workload])
    plain = bench.call(11)
    traced = bench.call(11, traced=True)
    assert not bench.failures, bench.failures
    assert plain.digest == traced.digest == PINNED[workload][11]
    # The traced call recorded spans in every layer it went through, and
    # the tracing is gone again afterwards.
    assert traced.layers["bufferpool.self_s"] > 0
    assert traced.layers["policies.calls"] > 0
    assert SPANS._ACTIVE is None
    assert bench.call(11).batches is None
