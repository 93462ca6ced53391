"""Tests of the end-to-end benchmark's own machinery.

Run with ``pytest benchmarks/e2e`` from the repository root. None of
them launches the benchmark itself (``run.py --smoke`` does that).
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import compare
import workload
from stats import (
    RssSampler,
    bare_launch_s,
    closed_loop,
    process_tree,
    summarize,
    tree_rss_bytes,
)
from workload import WORKLOADS, layer_table, matches, reference_of

ROOT = Path(__file__).resolve().parents[2]


def test_p75_at_n40_has_exactly_ten_samples_beyond_it():
    values = [float(v) for v in range(40)]
    random.Random(0).shuffle(values)
    s = summarize(values)
    assert s["n"] == 40
    assert sum(v > s["p75"] for v in values) == 10
    assert s["median"] == 19.5


_TREE = r"""
import subprocess, sys, time
blob = b"x" * (40 << 20)
child = subprocess.Popen(
    [sys.executable, "-c",
     "import time; b = b'y' * (40 << 20); print('up', flush=True); "
     "time.sleep(60)"],
    stdout=subprocess.PIPE, text=True)
child.stdout.readline()
print(child.pid, flush=True)
time.sleep(60)
"""


def test_rss_sampler_counts_descendants():
    root = subprocess.Popen(
        [sys.executable, "-c", _TREE], stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        child = int(root.stdout.readline())
        assert child in process_tree(root.pid)
        alone = tree_rss_bytes(child)
        total = tree_rss_bytes(root.pid)
        # each process holds a 40 MiB buffer; the tree holds both
        assert alone > 40 << 20
        assert total > alone + (40 << 20)
        sampler = RssSampler(interval=0.01)
        sampler.start(root.pid)
        deadline = time.monotonic() + 10
        while len(sampler.samples) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        sampler.stop()
        assert max(sampler.samples) >= total * 0.9
    finally:
        os.killpg(root.pid, signal.SIGKILL)
        root.wait(timeout=10)


@pytest.fixture(scope="module")
def adam_reference():
    from repro.cli import _seeded_inputs
    from repro.runtime.executor import Executor
    from repro.workloads.adam import AdamWorkload

    sched = AdamWorkload.build(64, 2).schedules()["fuse(RS-Adam-AG)"]
    inputs = _seeded_inputs(sched.program, 0)
    result = Executor().run_lowered(sched, inputs, allow_downcast=True)
    return reference_of(result, sched.program)


def result_of(reference):
    """A fresh ProgramResult holding copies of the reference arrays."""
    from repro.runtime.executor import ProgramResult

    parts = {"out": {}, "state": {}}
    for key, arr in reference.items():
        kind, name = key.split(".", 1)
        parts[kind][name] = np.array(arr, copy=True)
    return ProgramResult(parts["out"], parts["state"])


def test_corrupted_output_counts_as_failed_step(adam_reference):
    calls = []

    def step():
        result = result_of(adam_reference)
        calls.append(1)
        if len(calls) == 2:
            result.output(result.output_names[0]).flat[0] += 1
        return result

    loop = closed_loop(
        step, lambda r: matches(r, adam_reference, None), count=4
    )
    assert (loop.attempted, loop.failed) == (4, 1)
    assert len(loop.times) == 3
    assert loop.errors == ["output check failed"]


def test_tolerance_check_accepts_rounding_and_rejects_errors(adam_reference):
    result = result_of(adam_reference)
    # an FP32 optimizer moment: FP16 would round the nudge away
    arr = result.tensor_state("m")
    assert arr.dtype == np.float32
    arr *= np.asarray(1 + 1e-7, dtype=arr.dtype)
    assert not matches(result, adam_reference, None)
    assert matches(result, adam_reference, (1e-5, 1e-7))
    arr *= np.asarray(1.01, dtype=arr.dtype)
    assert not matches(result, adam_reference, (1e-5, 1e-7))


def test_raising_step_is_counted_and_loop_runs_on():
    def step():
        raise RuntimeError("rank 1 died\ntraceback lines")

    loop = closed_loop(step, lambda r: True, count=2)
    assert (loop.attempted, loop.failed, loop.times) == (2, 2, [])
    assert loop.errors[0] == "RuntimeError: rank 1 died"


def test_reference_alternates_with_every_call():
    order = []
    loop = closed_loop(
        lambda: order.append("step"), lambda r: True, count=3,
        reference=lambda: order.append("ref") or 0.5,
    )
    assert order == ["ref", "step"] * 3
    assert loop.reference == [0.5] * 3
    assert bare_launch_s() > 0


def test_layer_table_subtracts_nested_spans():
    from repro.observe import SpanEvent

    events = [
        SpanEvent("pick_regret", "benchmark", 0.0, 1.0, "main", "main"),
        SpanEvent("run_spmd", "repro.runtime.executor", 0.1, 0.6, "main", "main"),
        SpanEvent("run_lowered", "repro.runtime.executor", 0.8, 0.1, "main", "main"),
        SpanEvent("k", "kernel", 0.0, 0.5, "rank0", "kernels"),
        SpanEvent("p", "publish", 0.1, 0.2, "rank0", "comm", {"bytes": 64}),
    ]
    rows = {(r["module"], r["call"]): r for r in layer_table(events)}
    assert rows[("benchmark", "pick_regret")]["self_s"] == pytest.approx(0.3)
    assert rows[("repro.runtime.executor", "run_spmd")]["self_s"] == (
        pytest.approx(0.6)
    )
    kernel = rows[("repro.runtime.spmd[ranks]", "kernel")]
    assert kernel["self_s"] == pytest.approx(0.3)
    assert rows[("repro.runtime.spmd[ranks]", "publish")]["bytes"] == 64


def test_step_trace_averages_rank_times_and_counts_compiles():
    from repro.observe import InstantEvent, SpanEvent

    events = [
        SpanEvent("run_spmd", "repro.runtime.executor", 0.0, 1.0, "main", "main"),
        SpanEvent("k", "kernel", 0.1, 0.4, "rank0", "kernels"),
        SpanEvent("k", "kernel", 0.1, 0.2, "rank1", "kernels"),
        SpanEvent("w", "wait", 0.5, 0.1, "rank1", "comm"),
        SpanEvent("p", "publish", 0.6, 0.0, "rank0", "comm", {"bytes": 8}),
        SpanEvent("p", "publish", 0.6, 0.0, "rank1", "comm", {"bytes": 8}),
        InstantEvent("hit:abc", "compile", 0.0, "rank0", "kernels",
                     {"seconds": 0.02}),
        InstantEvent("compile:abc", "compile", 0.0, "rank1", "kernels",
                     {"seconds": 0.2}),
    ]
    trace = workload.StepTrace.of(events)
    assert trace.kernel_s == pytest.approx(0.3)
    assert trace.wait_s == pytest.approx(0.05)
    assert trace.rank_load_s == pytest.approx(0.11)
    assert (trace.publishes, trace.bytes_published) == (2, 16)
    assert trace.compiles == 1


def test_compare_verdicts():
    a = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(a, [1.03, 1.04, 1.02, 1.03, 1.05], "lower", 0.1)[1] == "ok"
    assert compare.verdict(a, [1.20, 1.21, 1.19, 1.22, 1.20], "lower", 0.1)[1] == "regressed"
    # throughput: lower is worse
    assert compare.verdict(a, [0.80, 0.81, 0.79, 0.80, 0.82], "higher", 0.1)[1] == "regressed"
    wide = [0.6, 0.8, 1.0, 1.2, 1.4]
    assert compare.verdict(a, wide, "lower", 0.1)[1] == "unresolved"
    # a wide spread is no excuse when every run of B is better
    assert compare.verdict([2.0, 3.0, 4.0], [1.0, 1.5, 1.9], "lower", 0.1)[1] == "ok"
    assert compare.verdict(a, [], "lower", 0.1)[1] == "unresolved"


def test_compare_exits_nonzero_on_regression(tmp_path):
    for side, value in (("a", 1.0), ("b", 2.0)):
        (tmp_path / side).mkdir()
        for seed in range(3):
            doc = {
                "workload": "attn_mp_small", "trace": 0,
                "metrics": {"step_per_bare_launch": {
                    "value": value + seed * 1e-3, "unit": "ratio",
                }},
            }
            (tmp_path / side / f"r{seed}.json").write_text(json.dumps(doc))
    args = [str(tmp_path / "a"), str(tmp_path / "b")]
    assert compare.main(args) == 1
    assert compare.main(args[::-1]) == 0


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
