"""Table 3: lines of code and autotuner time.

Paper: generated CUDA for each schedule is far larger than the CoCoNet
program (e.g. Adam: 16-220 generated lines vs 12-18 DSL lines; the
overlapped model-parallel schedule is ~2k lines), and the autotuner
explores each workload's schedule space in ~9-12 seconds.

We measure the same three quantities for the reproduction: generated
lines of the per-rank Python module (the stand-in for the per-GPU CUDA
program; every rank process runs this module), DSL program+schedule
lines, and autotuner wall-clock (our candidates are costed by the DES
rather than executed on GPUs, so tuning takes milliseconds — both
numbers are reported).
"""

from __future__ import annotations

import pytest

from benchmarks._common import save_report, table
from repro.cluster import Cluster
from repro.core.autotuner import Autotuner
from repro.core.codegen import CodeGenerator
from repro.workloads.adam import AdamWorkload
from repro.workloads.attention import AttentionWorkload
from repro.workloads.lamb import LambWorkload
from repro.workloads.pipeline import PipelineWorkload

PAPER = {
    "AR-Adam": (16, 12), "RS-Adam-AG": (24, 16), "fuse(RS-Adam-AG)": (150, 17),
    "AR-LAMB": (80, 15), "RS-LAMB-AG": (140, 17), "fuse(RS-LAMB-AG)": (220, 18),
    "MM-AR-C": (20, 10), "MM-RS-C-AG": (140, 13),
    "ol(MM,fuse(RS-C-AG))": (2000, 14),
    "AR-P2P-C-AG": (20, 10), "RS-P2P-C-AG": (140, 13),
    "ol(RS,fuse(P2P-C),AG)": (2000, 14),
}
PAPER_AUTOTUNER_SECONDS = {"adam": 9, "lamb": 10, "model": 12, "pipeline": 11}


def _measure(schedules):
    rows = []
    for name, sched in schedules.items():
        gen = CodeGenerator().generate(sched)
        rows.append((name, gen.loc(), sched.dsl_line_count()))
    return rows


def run_table3():
    out = {}
    out["adam"] = _measure(AdamWorkload.build(2**20, 256).schedules())
    out["lamb"] = _measure(LambWorkload.build(2**20, 256).schedules())
    att = AttentionWorkload.build(8, 1024, 3072, 16)
    out["model"] = _measure(
        {
            "MM-AR-C": att.schedule_mm_ar_c(),
            "MM-RS-C-AG": AttentionWorkload.build(
                8, 1024, 3072, 16
            ).schedule_gshard(),
            "ol(MM,fuse(RS-C-AG))": AttentionWorkload.build(
                8, 1024, 3072, 16
            ).schedule_coconet(),
        }
    )
    pipe = lambda: PipelineWorkload.build(  # noqa: E731
        2, 2048, 12288, world_size=32, num_groups=2
    )
    out["pipeline"] = _measure(
        {
            "AR-P2P-C-AG": pipe().schedule_ar_c_p2p_ag(),
            "RS-P2P-C-AG": pipe().schedule_gshard(),
            "ol(RS,fuse(P2P-C),AG)": pipe().schedule_coconet(),
        }
    )
    # autotuner wall-clock per workload family
    tune_times = {
        "adam": Autotuner(Cluster(16)).tune(
            AdamWorkload.build(2**20, 256).program
        ).elapsed_seconds,
        "lamb": Autotuner(Cluster(16)).tune(
            LambWorkload.build(2**20, 256).program
        ).elapsed_seconds,
        "model": Autotuner(Cluster(1)).tune(
            AttentionWorkload.build(8, 1024, 3072, 16).program
        ).elapsed_seconds,
        "pipeline": Autotuner(Cluster(2)).tune(
            PipelineWorkload.build(
                2, 2048, 12288, world_size=32, num_groups=2
            ).program
        ).elapsed_seconds,
    }
    return out, tune_times


def report(measured, tune_times) -> str:
    rows = []
    for family, entries in measured.items():
        for name, gen_loc, dsl_loc in entries:
            paper_gen, paper_dsl = PAPER.get(name, ("-", "-"))
            rows.append(
                [family, name, gen_loc, dsl_loc, paper_gen, paper_dsl]
            )
    lines = ["Table 3 — generated vs DSL lines of code", ""]
    lines += table(
        ["family", "schedule", "generated LoC", "DSL LoC",
         "paper CUDA LoC", "paper DSL LoC"],
        rows,
    )
    lines.append("")
    lines.append("autotuner wall-clock (ours: DES-costed candidates):")
    for family, t in tune_times.items():
        lines.append(
            f"  {family:10s} {t * 1e3:8.1f} ms   "
            f"(paper: {PAPER_AUTOTUNER_SECONDS[family]} s, real kernels)"
        )
    return save_report("table3", lines)


@pytest.fixture(scope="module")
def measured():
    return run_table3()


class TestTable3:
    def test_generated_exceeds_dsl_everywhere(self, measured):
        # the central claim: a few DSL lines expand to much more code
        rows, _ = measured
        for entries in rows.values():
            for name, gen_loc, dsl_loc in entries:
                assert gen_loc > dsl_loc, name

    def test_fused_generates_more_than_unfused(self, measured):
        rows, _ = measured
        adam = {name: g for name, g, _ in rows["adam"]}
        assert adam["fuse(RS-Adam-AG)"] > adam["AR-Adam"]

    def test_lamb_larger_than_adam(self, measured):
        rows, _ = measured
        adam = {name: g for name, g, _ in rows["adam"]}
        lamb = {name: g for name, g, _ in rows["lamb"]}
        assert lamb["fuse(RS-LAMB-AG)"] > adam["fuse(RS-Adam-AG)"]

    def test_overlap_is_largest_model_parallel_kernel(self, measured):
        rows, _ = measured
        model = {name: g for name, g, _ in rows["model"]}
        assert model["ol(MM,fuse(RS-C-AG))"] == max(model.values())

    def test_dsl_programs_stay_small(self, measured):
        # our printer emits one line per elementary op, so DSL counts
        # run a little above the paper's compound-expression counts
        rows, _ = measured
        for entries in rows.values():
            for name, _, dsl_loc in entries:
                assert dsl_loc <= 50, name

    def test_autotuner_fast(self, measured):
        _, tune_times = measured
        for family, t in tune_times.items():
            assert t < 30.0, family  # paper: seconds; ours: far less

    def test_report(self, measured):
        rows, tune_times = measured
        assert "Table 3" in report(rows, tune_times)


def test_benchmark_table3(benchmark):
    benchmark.pedantic(run_table3, rounds=1, iterations=1)
