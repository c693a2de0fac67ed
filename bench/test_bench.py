"""Tests of the benchmark's own code.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run_bench  # noqa: E402
import tracing  # noqa: E402
from responder import serve  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_workload_emits_every_named_metric(workload, trace):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run_bench.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                               "--trace", str(trace), "--tiny"])
    assert code == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [s["name"] for s in specs]
    for spec in specs:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert isinstance(result["metrics"][spec["name"]]["value"], (int, float))
    if not trace:
        # the table above the result line gives every metric its sample count
        for spec in specs:
            row = next(line for line in lines if line.split()[:1] == [spec["name"]])
            assert row.split()[-1].startswith("n=")


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, None, 1.0],    # 1 s of aggregated hot children
        ["a", 1.0, 4.0, 0, 0.0],
        ["b", 3.0, 6.0, 0, 0.5],           # overlaps a: the union covers 1..6
        ["a.child", 2.0, 3.0, 1, 0.0],
        ["late", 9.5, 12.0, 0, 0.0],       # runs past root's end: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([3.5, 2.0, 2.5, 1.0, 2.5])
    assert tracing.uncovered_time(spans, 13.0) == pytest.approx(3.0)


def test_tracer_charges_hot_calls_to_the_enclosing_span():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.hot_call("machine.step", lambda: None)

    def body():
        leaf()
        leaf()

    outer = tracer.span("valuation.outer", body)
    outer()
    (name, start, end, parent, hot_s), = tracer.spans
    assert (name, parent) == ("valuation.outer", None)
    assert (end - start, hot_s) == (5.0, 2.0)
    assert tracing.self_times(tracer.spans) == [3.0]
    assert tracer.hot[("machine.step", "valuation.outer", "")] == [2, 2.0, 2.0]


def test_shares_use_the_attempted_count_as_denominator():
    report = {
        "environments": [
            {"values": {"random": {"episodes": 8, "failed": 2},
                        "ext": {"episodes": 10, "failed": 0}}},
        ],
        "external_timeout_warnings": {"ext": 3},
    }
    share, attempted = run_bench.failed_share(report)
    assert attempted == 20 and share == pytest.approx(2 / 20)
    assert run_bench.timeout_share(report, requested=300) == pytest.approx(3 / 300)
    assert run_bench.timeout_share(report, requested=0) == 0.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert run_bench.tail_percentile([1.0] * 10) is None
    pct, value = run_bench.tail_percentile([float(i) for i in range(20)])
    assert (pct, value) == (50.0, 9.0)


def test_responder_answers_the_protocol():
    messages = [{"type": "hello", "spaces": {"actions": 3}}, {"type": "reset"},
                {"type": "percept"}, {"type": "percept"}, {"type": "bye"},
                {"type": "percept"}]
    replies = []
    count = serve([json.dumps(m) for m in messages], replies.append, random.Random(1))
    assert count == 2
    assert replies[0] == {"type": "ready"}
    assert [r["type"] for r in replies[1:]] == ["action", "action"]
    assert all(0 <= r["a"] < 3 for r in replies[1:])
