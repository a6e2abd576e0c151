"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest bench/test_smoke.py

Runs every workload once untraced and once traced, checks that the printed
metric names and units are those of BENCHMARK.json, and that wrong outputs
and a reused worker are caught.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == run.WORKLOADS


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_declared_metrics(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}


def test_trace_sees_no_rank_calls_on_vd():
    metrics = bench("vd", 1)["metrics"]
    assert metrics["decomposability.is_vertex_decomposable.calls"]["value"] > 0
    assert all(metrics[f"fields.{f}.calls"]["value"] == 0
               for f in ("rank_gf2", "rank_modp", "rank_rational"))


def test_corrupted_betti_entry_is_a_failure():
    import worker
    import workloads
    from whiskers import BettiTable

    items = workloads.betti_items("3:0", 0.05)
    results = [item.call() for item in items]
    assert workloads.betti_check(items, results) == [None] * len(items)
    digests = "".join(worker.digest(workloads.betti_digest(i, r))
                      for i, r in zip(items, results))

    table = results[0]
    (i, j), value = min(table.entries.items())
    results[0] = BettiTable(table.field, {**table.entries, (i, j): value + 1},
                            table.module)
    problems = workloads.betti_check(items, results)
    # the cross-check cannot tell which table is wrong: it fails the pair
    assert [k for k, p in enumerate(problems) if p] == [0, 1]

    record = {
        "seed": "3:0", "labels": [item.label for item in items],
        "problems": {}, "digests": "".join(
            worker.digest(workloads.betti_digest(i, r))
            for i, r in zip(items, results))}
    attempted, failed, checked, reasons = run.count_failures(
        "betti", [record], {"betti": {"3:0": digests}})
    assert (attempted, failed, checked) == (len(items), 1, len(items))
    assert "digest differs" in reasons[0]


def test_worker_refuses_a_second_pass():
    import worker
    worker.run_pass("cli", "3:0", "t", 0.05, False)
    with pytest.raises(RuntimeError, match="only one pass"):
        worker.run_pass("cli", "3:1", "t", 0.05, False)
