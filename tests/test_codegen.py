"""Tests for the code generator: the emitted per-rank module and LoC
accounting. Execution parity of generated modules against the lowered
interpreter lives in tests/test_spmd.py."""

import pytest

from repro.core import FP32
from repro.core.codegen import CodeGenerator, GeneratedSpmdProgram, count_loc
from repro.core.codegen import device as dev
from repro.errors import CodegenError
from repro.workloads.adam import AdamWorkload
from repro.workloads.attention import AttentionWorkload


class TestDeviceLibrary:
    def test_slice_bounds(self):
        assert dev.slice_bounds(8, 1, 4) == (2, 4)


class TestDifferentialExecution:
    """The emitted overlap orchestration; its execution is held
    bit-identical to run_lowered by tests/test_spmd.py."""

    def test_generated_overlap_runs_producer_in_chunk_order(self):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        sched = wl.schedule_coconet()
        gen = CodeGenerator().generate(sched)
        # the GEMM publishes its chunks from a producer stream while
        # the consuming collective ingests them
        assert "comm.begin_chunked(" in gen.source
        assert "comm.start_stream(" in gen.source
        assert "comm.join_streams(_producer)" in gen.source


class TestLoCAccounting:
    def test_count_loc_ignores_blanks_and_comments(self):
        src = "a = 1\n\n# comment\nb = 2\n   # indented comment\n"
        assert count_loc(src) == 2

    def test_fused_generates_more_code_than_unfused(self):
        # Table 3's key relationship
        wl1 = AdamWorkload.build(32, 4, grad_dtype=FP32)
        unfused = CodeGenerator().generate(wl1.schedule_ar_opt())
        wl2 = AdamWorkload.build(32, 4, grad_dtype=FP32)
        fused = CodeGenerator().generate(wl2.schedule_fused())
        assert fused.loc() > 0 and unfused.loc() > 0
        assert fused.kernel_loc is not None

    def test_overlap_generates_most_code(self):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        locs = {}
        for name in ("megatron", "mm_ar_c", "coconet"):
            wl2 = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
            sched = getattr(wl2, f"schedule_{name}")()
            locs[name] = CodeGenerator().generate(sched).loc()
        assert locs["coconet"] > locs["mm_ar_c"]

    def test_generated_loc_exceeds_dsl_loc(self):
        # "lines of generated code ... are significantly more than the
        # implementation in CoCoNet" (Table 3)
        wl = AdamWorkload.build(32, 4, grad_dtype=FP32)
        sched = wl.schedule_fused()
        gen = CodeGenerator().generate(sched)
        assert gen.loc() > sched.dsl_line_count()

    def test_kernel_sources_partition_named_kernels(self):
        wl = AdamWorkload.build(32, 4, grad_dtype=FP32)
        sched = wl.schedule_fused()
        gen = CodeGenerator().generate(sched)
        plan_names = {k.name for k in sched.plan().kernels}
        assert plan_names <= set(gen.kernel_sources)


class TestValidation:
    def test_one_module_flavour(self):
        with pytest.raises(CodegenError, match="target"):
            CodeGenerator(target="sim")
        gen = CodeGenerator().generate(AdamWorkload.build(32, 4).program)
        assert isinstance(gen, GeneratedSpmdProgram)
        assert gen.target == "spmd"
        assert "def run_rank(comm, inputs):" in gen.source

    def test_generated_module_is_importable_source(self):
        wl = AdamWorkload.build(32, 4, grad_dtype=FP32)
        gen = CodeGenerator().generate(wl.schedule_ar_opt())
        compile(gen.source, "<check>", "exec")  # no syntax errors
