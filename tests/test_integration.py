"""End-to-end integration tests: the full toolchain composed.

Each test exercises a realistic path a downstream user takes:
autotune → compile → register → execute, across the three parallelism
styles, verifying numerics at every hand-off.
"""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import FP32
from repro.core.autotuner import Autotuner
from repro.core.transforms import Schedule
from repro.frontend.integration import DistributedModule
from repro.perf import ProgramCostModel
from repro.runtime import Executor
from repro.workloads.adam import AdamWorkload, adam_reference
from repro.workloads.attention import AttentionWorkload
from repro.workloads.pipeline import PipelineWorkload


@pytest.fixture
def rng():
    return np.random.RandomState(77)


class TestAutotuneCompileExecute:
    def test_every_tuned_candidate_is_executable(self, rng):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32, dropout_seed=2)
        result = Autotuner(Cluster(1)).tune(wl.program)
        inputs = {
            "w": rng.randn(16, 16), "b": rng.randn(16),
            "in": rng.randn(4, 8, 16), "r": rng.randn(4, 8, 16),
        }
        ref = Executor().run_lowered(wl.program, inputs)
        ref_out = ref.output(wl.program.outputs[0].name)
        for cand in result.candidates:
            res = Executor().run_lowered(cand.schedule.program, inputs)
            out = res.output(cand.schedule.program.outputs[0].name)
            np.testing.assert_allclose(out, ref_out, rtol=1e-6,
                                       err_msg=cand.name)

    def test_adam_tuned_schedule_runs_through_frontend(self, rng):
        wl = AdamWorkload.build(32, 4, grad_dtype=FP32)
        result = Autotuner(Cluster(16)).tune(wl.program)
        dist = DistributedModule()
        fn = dist.register(result.best.schedule, name="tuned_adam")
        inputs = dict(
            g=rng.randn(4, 32) * 0.1, p=rng.randn(32),
            m=rng.randn(32) * 0.01, v=np.abs(rng.randn(32)) * 0.01,
            lr=0.01, t=1.0,
        )
        got = fn(inputs)
        p_ref, m_ref, v_ref = adam_reference(
            inputs["g"], inputs["p"], inputs["m"], inputs["v"], 0.01, 1.0
        )
        np.testing.assert_allclose(got.tensor_state("p"), p_ref, rtol=1e-5)

    def test_pipeline_tuned_schedule_correct(self, rng):
        wl = PipelineWorkload.build(
            2, 8, 16, world_size=8, num_groups=2, dtype=FP32, dropout_seed=3
        )
        result = Autotuner(Cluster(2)).tune(wl.program)
        inputs = {
            "in": rng.randn(4, 2, 8, 16), "b": rng.randn(16),
            "r": rng.randn(2, 8, 16),
        }
        ref = Executor().run_lowered(wl.program, inputs)
        ref_out = ref.output(wl.program.outputs[0].name)
        best_prog = result.best.schedule.program
        got = Executor().run_lowered(best_prog, inputs)
        np.testing.assert_allclose(
            got.output(best_prog.outputs[0].name), ref_out, rtol=1e-6
        )


class TestMultiStepTraining:
    def test_three_steps_match_reference_exactly(self, rng):
        """State (p, m, v) threads correctly across compiled steps."""
        n, N = 4, 48
        wl = AdamWorkload.build(N, n, grad_dtype=FP32)
        dist = DistributedModule()
        fn = dist.register(wl.schedule_fused(), name="adam3")
        p = rng.randn(N)
        m = np.zeros(N)
        v = np.zeros(N)
        rp, rm, rv = p.copy(), m.copy(), v.copy()
        for step in range(1, 4):
            g = rng.randn(n, N) * 0.1
            res = fn(dict(g=g, p=p, m=m, v=v, lr=0.005, t=float(step)))
            p = res.tensor_state("p")
            m = res.tensor_state("m")
            v = res.tensor_state("v")
            rp, rm, rv = adam_reference(g, rp, rm, rv, 0.005, float(step))
        np.testing.assert_allclose(p, rp, rtol=1e-4)
        np.testing.assert_allclose(m, rm, rtol=1e-4)
        np.testing.assert_allclose(v, rv, rtol=1e-4)

    def test_interpreter_and_compiled_agree_across_steps(self, rng):
        """Adam state threads across real rank launches bit-exactly."""
        n, N = 4, 32
        wl = AdamWorkload.build(N, n, grad_dtype=FP32)
        sched = wl.schedule_gshard()
        ex = Executor()
        state = dict(p=rng.randn(N), m=np.zeros(N), v=np.zeros(N))
        for step in range(1, 3):
            inputs = dict(
                g=rng.randn(n, N) * 0.1, lr=0.01, t=float(step), **state
            )
            r_i = ex.run_lowered(sched, inputs, allow_downcast=True)
            r_c = ex.run_spmd(
                sched, inputs, protocol="LL", allow_downcast=True
            )
            for k in state:
                np.testing.assert_array_equal(
                    r_c.tensor_state(k), r_i.tensor_state(k),
                    err_msg=f"step {step}: {k}",
                )
                state[k] = r_c.tensor_state(k)


class TestCostModelConsistency:
    def test_better_schedules_are_not_worse_at_scale(self):
        """The autotuner's ranking is self-consistent: its best schedule
        never loses to the default at the tuned size."""
        for exp in (12, 24):
            wl = AdamWorkload.build(2**exp, 256)
            result = Autotuner(Cluster(16)).tune(wl.program)
            default = next(
                c for c in result.candidates if c.name == "default"
            )
            assert result.best.time <= default.time

    def test_breakdown_sums_bound_makespan(self):
        wl = AttentionWorkload.build(8, 1024, 3072, 16)
        sched = wl.schedule_coconet()
        pcm = ProgramCostModel(Cluster(1))
        total = pcm.time(sched)
        parts = pcm.kernel_breakdown(sched)
        # overlap means the makespan is below the sum but at least the max
        assert max(parts.values()) <= total <= sum(parts.values()) * 1.05

    def test_schedules_rank_consistently_across_sizes(self):
        """CoCoNet >= GShard >= Megatron at every model-parallel size."""
        for batch in (4, 8, 16):
            times = {}
            for name in ("megatron", "gshard", "coconet"):
                wl = AttentionWorkload.build(batch, 1024, 3072, 16)
                sched = getattr(wl, f"schedule_{name}")()
                times[name] = ProgramCostModel(Cluster(1)).time(sched)
            assert times["coconet"] < times["gshard"] < times["megatron"]
