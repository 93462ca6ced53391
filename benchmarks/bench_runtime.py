"""Numeric runtime performance: the lowered interpreter's wall time.

``Executor.run_lowered`` is the one in-process interpreter and the
correctness oracle every transformation is verified against, so its
wall-clock bounds how large the equivalence tests and end-to-end
benchmarks can run. This benchmark times it on each workload's original
*and* optimized schedules at 16–64 simulated ranks: rank-major storage
(one stacked ``(num_ranks, *shape)`` array per tensor), collectives as
single numpy expressions, replicated math computed once via stride-0
views, overlap members run whole and in order (as the generated
module runs them; chunked execution is bit-identical to whole
execution).

Every schedule is checked bit-identical (``np.array_equal`` on all
program outputs and final tensor states) to the workload's ``original``
schedule, and its overlap groups are counted from its lowering
(``len(sched.lowered().chunk_loops())``). Every timed run is untraced.

Emits ``BENCH_runtime.json`` at the repo root: per workload and
schedule, the median wall time of ``--repeats`` runs. The regression
gate caps the GPT-3-scale Adam step at 64 ranks
(``acceptance.adam_gpt3_64ranks_step_s``) and requires at least three
overlap schedules (with at least one chunk loop) to have run and
matched their original bit for bit.

Usage::

    PYTHONPATH=src:. python benchmarks/bench_runtime.py          # full
    PYTHONPATH=src:. python benchmarks/bench_runtime.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
from typing import Callable, Dict, Tuple

import numpy as np

from benchmarks._common import save_report, table
from repro.core.tensor import Tensor
from repro.runtime import Executor
from repro.workloads.adam import AdamWorkload
from repro.workloads.attention import AttentionWorkload
from repro.workloads.lamb import LambWorkload
from repro.workloads.moe import MoEWorkload
from repro.workloads.pipeline import PipelineWorkload

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(_ROOT, "BENCH_runtime.json")

def _cast_inputs(program, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Pre-cast inputs to each tensor's dtype (placement stays silent)."""
    dtypes = {t.name: t.dtype.to_numpy() for t in program.inputs}
    return {
        name: np.asarray(value, dtype=dtypes[name])
        for name, value in inputs.items()
    }


def _optimizer_inputs(rng, n: int, N: int) -> Dict[str, np.ndarray]:
    return dict(
        g=rng.randn(n, N) * 0.1,
        p=rng.randn(N),
        m=rng.randn(N) * 0.01,
        v=np.abs(rng.randn(N)) * 0.01,
        lr=0.01,
        t=3.0,
    )


def workload_suite(smoke: bool) -> Dict[str, Tuple[Callable, Callable]]:
    """name -> (workload builder, input builder).

    The GPT-3-scale Adam entry keeps 64 ranks even in smoke mode (the
    rank count, not the element count, is what rank-major execution
    amortizes); other workloads span 16–64 ranks.
    """
    if smoke:
        sizes = {
            "adam_gpt3_64ranks": (64, 2**16),
            "adam_16ranks": (16, 2**16),
            "lamb_16ranks": (16, 2**14),
            "attention_16ranks": (2, 64, 256, 16),
            "moe_16ranks": (8, 32, 128, 16),
            "pipeline_32ranks": (2, 32, 128, 32),
        }
    else:
        sizes = {
            # a GPT-3 layer-scale parameter bucket (hidden 12288): 2M
            # elements, the full 64-rank data-parallel group
            "adam_gpt3_64ranks": (64, 2**21),
            "adam_16ranks": (16, 2**20),
            "lamb_16ranks": (16, 2**18),
            "attention_16ranks": (4, 256, 1024, 16),
            "moe_16ranks": (16, 128, 512, 16),
            "pipeline_32ranks": (4, 128, 512, 32),
        }

    def adam(n, N):
        rng = np.random.RandomState(0xADA)
        return AdamWorkload.build(N, n), _optimizer_inputs(rng, n, N)

    def lamb(n, N):
        rng = np.random.RandomState(0x1A8)
        return LambWorkload.build(N, n), _optimizer_inputs(rng, n, N)

    def attention(batch, seq, hidden, n):
        rng = np.random.RandomState(0xA77)
        wl = AttentionWorkload.build(batch, seq, hidden, n)
        inputs = {
            "w": rng.randn(hidden, hidden),
            "b": rng.randn(hidden),
            "in": rng.randn(batch, seq, hidden),
            "r": rng.randn(batch, seq, hidden),
        }
        return wl, inputs

    def moe(C, M, F, n):
        rng = np.random.RandomState(0x30E)
        wl = MoEWorkload.build(C, M, F, world_size=n)
        inputs = {
            "x": rng.randn(n, n, C, M),
            "w1": rng.randn(n, M, F),
            "w2": rng.randn(n, F, M),
        }
        return wl, inputs

    def pipeline(batch, seq, hidden, n):
        rng = np.random.RandomState(0x919)
        wl = PipelineWorkload.build(batch, seq, hidden, world_size=n)
        inputs = {
            "in": rng.randn(n // 2, batch, seq, hidden),
            "b": rng.randn(hidden),
            "r": rng.randn(batch, seq, hidden),
        }
        return wl, inputs

    builders = {
        "adam_gpt3_64ranks": adam,
        "adam_16ranks": adam,
        "lamb_16ranks": lamb,
        "attention_16ranks": attention,
        "moe_16ranks": moe,
        "pipeline_32ranks": pipeline,
    }
    return {
        name: (lambda f=fn, a=sizes[name]: f(*a))
        for name, fn in builders.items()
    }


def _assert_equal_results(got, want, label: str) -> None:
    """``got`` ≡ ``want`` bitwise: outputs by position, states by name."""
    (got_prog, got_res), (want_prog, want_res) = got, want
    assert len(got_prog.outputs) == len(want_prog.outputs), label
    for o, w in zip(got_prog.outputs, want_prog.outputs):
        assert np.array_equal(
            got_res.output(o.name), want_res.output(w.name)
        ), f"{label}: output {o.name} differs from the original schedule"
    for t in want_prog.inputs:
        if isinstance(t, Tensor):
            assert np.array_equal(
                got_res.tensor_state(t.name), want_res.tensor_state(t.name)
            ), f"{label}: state {t.name} differs from the original schedule"


def _time_lowered(sched, inputs, repeats: int):
    """(median seconds, result) over ``repeats`` untraced runs."""
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = Executor().run_lowered(sched, inputs)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def run_workload(name: str, build: Callable, repeats: int) -> dict:
    from repro.core.transforms import Schedule

    wl, raw_inputs = build()
    schedules = {"original": Schedule(wl.program)}
    schedules.update(wl.schedules())
    entry = {
        "num_ranks": wl.program.inputs[0].group.world_size,
        "schedules": {},
    }
    original = None
    for sched_name, sched in schedules.items():
        inputs = _cast_inputs(sched.program, raw_inputs)
        seconds, result = _time_lowered(sched, inputs, repeats)
        if original is None:
            original = (sched.program, result)
        _assert_equal_results(
            (sched.program, result), original, f"{name}/{sched_name}"
        )
        entry["schedules"][sched_name] = {
            "lowered_s": seconds,
            "chunk_loops": len(sched.lowered().chunk_loops()),
        }
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes for CI; same code paths and checks",
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    report = {
        "mode": "smoke" if args.smoke else "full",
        "statistic": f"median of {args.repeats} runs",
        "equal_outputs": True,  # every schedule below is array_equal-asserted
        "workloads": {},
    }
    rows = []
    for name, build in workload_suite(args.smoke).items():
        entry = run_workload(name, build, args.repeats)
        report["workloads"][name] = entry
        for sched_name, timing in entry["schedules"].items():
            rows.append([
                name,
                entry["num_ranks"],
                sched_name,
                f"{timing['lowered_s'] * 1e3:.1f}",
                timing["chunk_loops"],
            ])
    # every schedule in the report ran and was array_equal-asserted
    overlapped = sum(
        1
        for entry in report["workloads"].values()
        for timing in entry["schedules"].values()
        if timing["chunk_loops"] > 0
    )
    report["schedules_with_chunk_loops"] = overlapped
    # the Adam *step* as written (Figure 6a): replicated optimizer math
    # over the full 64-rank data-parallel group
    adam_s = report["workloads"]["adam_gpt3_64ranks"]["schedules"][
        "original"
    ]["lowered_s"]
    report["acceptance"] = {"adam_gpt3_64ranks_step_s": adam_s}

    lines = table(
        ["workload", "ranks", "schedule", "lowered ms", "chunk loops"],
        rows,
    )
    lines.append("")
    lines.append(
        f"GPT-3-scale Adam step @ 64 ranks: {adam_s * 1e3:.1f} ms "
        f"({report['statistic']}); {overlapped} overlap schedules; "
        f"every schedule bit-identical to its original"
    )
    save_report("bench_runtime", lines)
    with open(JSON_PATH, "w") as f:
        json.dump(report, f, indent=2)
    print(f"\nwrote {JSON_PATH}")
    assert overlapped >= 1, (
        "no schedule with a chunk loop ran under the lowered interpreter"
    )


if __name__ == "__main__":
    main()
