"""The serialized-artifact layer: one portable IR for every backend.

:mod:`repro.core.artifact` turns a :class:`LoweredProgram` into a
schema-versioned JSON document. These tests pin the contract:

* **round-trip fidelity** — for every workload × schedule,
  ``loads(dumps(x))`` reconstructs a program whose re-serialized payload
  is byte-identical, that executes bit-identically to the live object on
  ``run_lowered``, and that the DES cost model prices to the *same*
  makespan;
* **real-process parity** — deserialized artifacts drive ``run_spmd``
  (4 real ranks) bit-identically to the live schedule, and the
  generated SPMD module ships its artifact to the rank workers;
* **identity** — ``content_hash`` is invariant under dict reordering
  and across processes; ``structural_hash`` *is* the autotuner's dedup
  signature; elastic recovery memoizes re-lowered artifacts on it;
* **the golden files** — committed schema-v1 artifacts under
  ``tests/golden/`` must keep loading, executing and hashing the same
  forever: they are the forward-compatibility promise newer schema
  versions must not break.
"""

import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.cluster import Cluster
from repro.core import FP32, artifact
from repro.core.artifact import Artifact, ArtifactError
from repro.core.autotuner import Autotuner
from repro.core.codegen import CodeGenerator
from repro.core.tensor import Tensor
from repro.core.transforms import Schedule
from repro.errors import CoCoNetError
from repro.perf.program_cost import ProgramCostModel
from repro.runtime import Executor, FaultPlan
from repro.workloads.adam import AdamWorkload
from repro.workloads.attention import AttentionWorkload
from repro.workloads.lamb import LambWorkload
from repro.workloads.moe import MoEWorkload
from repro.workloads.pipeline import PipelineWorkload

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_ADAM = os.path.join(GOLDEN_DIR, "adam_fused.repro.json")
GOLDEN_MOE = os.path.join(GOLDEN_DIR, "moe_overlapped.repro.json")

#: the committed goldens' recorded identities — regenerating the files
#: (``python benchmarks/bench_artifact.py --regen-goldens``) must
#: reproduce these exactly, and any schema bump must keep loading them
GOLDEN_HASHES = {
    GOLDEN_ADAM: (
        "sha256:66a18ac91e350cae3a32a8b04ee460d251602a3fcbb"
        "3e2b8f178eea453b643cb",
        "sha256:2a3b679e498ac5bf285ae122f2429dbde3f95895eb9"
        "3e3cdb110d5efd5202c63",
    ),
    GOLDEN_MOE: (
        "sha256:0b859f8b6ddce8a62813beb3a3b108ff4317c9e4bde"
        "a31213b5ffe355722400a",
        "sha256:78a77a4f80dd26cd636ab6ef6c52c78762be10f8876"
        "254e0b46f960a2da320bc",
    ),
}


@pytest.fixture
def rng():
    return np.random.RandomState(0xA27F)


def optimizer_inputs(rng, n=4, N=64):
    return dict(
        g=rng.randn(n, N) * 0.1,
        p=rng.randn(N),
        m=rng.randn(N) * 0.01,
        v=np.abs(rng.randn(N)) * 0.01,
        lr=0.01,
        t=3.0,
    )


def attention_inputs(rng, hidden=16, batch=4, seq=8):
    return {
        "w": rng.randn(hidden, hidden),
        "b": rng.randn(hidden),
        "in": rng.randn(batch, seq, hidden),
        "r": rng.randn(batch, seq, hidden),
    }


def moe_inputs(rng, ws=4, capacity=3, model_dim=6, ffn_dim=8):
    return {
        "x": rng.randn(ws, ws, capacity, model_dim),
        "w1": rng.randn(ws, model_dim, ffn_dim),
        "w2": rng.randn(ws, ffn_dim, model_dim),
    }


def assert_artifact_parity(sched, inputs):
    """loads(dumps(sched)) ≡ sched: payload, execution, predicted cost."""
    program = sched.program if isinstance(sched, Schedule) else sched
    art = artifact.loads(artifact.dumps(sched))
    # lossless: re-serializing the reconstruction is byte-identical
    assert artifact.to_payload(art.lowered()) == art.payload
    assert artifact.content_hash(artifact.to_payload(art.lowered())) == \
        art.content_hash
    ex = Executor()
    live = ex.run_lowered(sched, inputs, allow_downcast=True)
    again = ex.run_lowered(art, inputs, allow_downcast=True)
    for o in program.outputs:
        np.testing.assert_array_equal(
            again.output(o.name), live.output(o.name), err_msg=o.name
        )
    for t in program.inputs:
        if isinstance(t, Tensor):
            np.testing.assert_array_equal(
                again.tensor_state(t.name),
                live.tensor_state(t.name),
                err_msg=f"state {t.name}",
            )
    # the cost model prices both identically
    model = ProgramCostModel(Cluster(1))
    assert model.time(art) == model.time(sched)


class TestRoundTrip:
    """Every workload × original/named schedules, lowered interpreter."""

    def test_adam_all_schedules(self, rng):
        wl = AdamWorkload.build(64, 4)
        inputs = optimizer_inputs(rng)
        assert_artifact_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_artifact_parity(sched, inputs)

    def test_lamb_all_schedules(self, rng):
        wl = LambWorkload.build(64, 4)
        inputs = optimizer_inputs(rng)
        assert_artifact_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_artifact_parity(sched, inputs)

    def test_attention_all_schedules(self, rng):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32,
                                     dropout_seed=6)
        inputs = attention_inputs(rng)
        assert_artifact_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_artifact_parity(sched, inputs)

    def test_moe_all_schedules(self, rng):
        wl = MoEWorkload.build(3, 6, 8, world_size=4, dtype=FP32)
        inputs = moe_inputs(rng)
        assert_artifact_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_artifact_parity(sched, inputs)
        assert_artifact_parity(wl.schedule_hierarchical(node_size=2),
                               inputs)

    def test_pipeline_all_schedules(self, rng):
        wl = PipelineWorkload.build(
            2, 8, 16, world_size=8, num_groups=2, dtype=FP32,
            dropout_seed=5,
        )
        inputs = {
            "in": rng.randn(4, 2, 8, 16),
            "b": rng.randn(16),
            "r": rng.randn(2, 8, 16),
        }
        assert_artifact_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_artifact_parity(sched, inputs)

    def test_autotuned_schedule(self, rng):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32,
                                     dropout_seed=6)
        result = Autotuner(Cluster(1)).tune(wl.program)
        assert_artifact_parity(result.best.schedule,
                               attention_inputs(rng))


class TestSpmdFromArtifact:
    """Deserialized artifacts drive real rank processes bit-identically."""

    def test_adam_fused_4_ranks(self, rng):
        sched = AdamWorkload.build(64, 4).schedule_fused()
        inputs = optimizer_inputs(rng)
        art = artifact.loads(artifact.dumps(sched))
        ex = Executor()
        oracle = ex.run_lowered(sched, inputs, allow_downcast=True)
        res = ex.run_spmd(art, inputs, allow_downcast=True)
        for name in oracle.output_names:
            np.testing.assert_array_equal(
                res.output(name), oracle.output(name), err_msg=name
            )

    def test_moe_overlapped_4_ranks(self, rng):
        sched = MoEWorkload.build(
            3, 6, 8, world_size=4, dtype=FP32
        ).schedule_overlapped()
        inputs = moe_inputs(rng)
        art = artifact.loads(artifact.dumps(sched))
        ex = Executor()
        oracle = ex.run_lowered(sched, inputs, allow_downcast=True)
        res = ex.run_spmd(art, inputs, allow_downcast=True)
        for name in oracle.output_names:
            np.testing.assert_array_equal(
                res.output(name), oracle.output(name), err_msg=name
            )

    def test_generated_module_ships_its_artifact(self, monkeypatch):
        # run() hands the serialized artifact to spmd.launch so rank
        # workers rebuild their module from the portable IR, not from
        # pickled live objects
        from repro.runtime import spmd as spmd_mod

        gen = CodeGenerator(target="spmd").generate(
            AdamWorkload.build(64, 4).schedule_fused()
        )
        seen = {}

        def fake_launch(source, program, inputs, **kwargs):
            seen.update(kwargs, source=source)
            return "launched"

        monkeypatch.setattr(spmd_mod, "launch", fake_launch)
        assert gen.run({}) == "launched"
        text = seen["artifact_text"]
        assert text is not None
        shipped = artifact.loads(text)
        assert shipped.program.name == "adam"
        assert seen["protocol"] == "Simple"


class TestHashes:
    """content_hash: canonical identity. structural_hash: dedup key."""

    def test_structural_hash_is_the_tuner_dedup_signature(self):
        sched = AdamWorkload.build(64, 4).schedule_fused()
        art = artifact.loads(artifact.dumps(sched))
        assert (
            Autotuner(Cluster(1))._plan_signature(sched)
            == art.structural_hash
        )

    def test_rebuilt_schedule_keeps_the_golden_structural_hash(self):
        # generated value names drift with a global counter, but the
        # name-free structural hash of a freshly built schedule must
        # still match what the golden recorded when it was written
        sched = AdamWorkload.build(64, 4).schedule_fused()
        assert (
            artifact.structural_hash(sched.lowered())
            == GOLDEN_HASHES[GOLDEN_ADAM][1]
        )
        # the moe golden was written at the workload's default dtype
        sched = MoEWorkload.build(
            3, 6, 8, world_size=4
        ).schedule_overlapped()
        assert (
            artifact.structural_hash(sched.lowered())
            == GOLDEN_HASHES[GOLDEN_MOE][1]
        )

    def test_hashes_stable_across_processes(self):
        # two fresh interpreters serialize the same workload to the
        # same content hash — no id()/set ordering leaks into the file.
        # The recipe mirrors the golden's exactly: generated names carry
        # a process-global counter, so the content hash is reproducible
        # only from the same build sequence in a fresh process.
        script = (
            "from repro.core import artifact\n"
            "from repro.workloads.adam import AdamWorkload\n"
            "sched = AdamWorkload.build(64, 4).schedules()"
            "['fuse(RS-Adam-AG)']\n"
            "a = artifact.as_artifact(sched)\n"
            "print(a.content_hash); print(a.structural_hash)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(GOLDEN_DIR), os.pardir, "src"
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            ).stdout.splitlines()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0][0] == GOLDEN_HASHES[GOLDEN_ADAM][0]
        assert runs[0][1] == GOLDEN_HASHES[GOLDEN_ADAM][1]

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_content_hash_ignores_dict_order(self, seed):
        def shuffled(obj, r):
            if isinstance(obj, dict):
                items = list(obj.items())
                r.shuffle(items)
                return {k: shuffled(v, r) for k, v in items}
            if isinstance(obj, list):
                return [shuffled(v, r) for v in obj]
            return obj

        with open(GOLDEN_ADAM) as f:
            payload = json.load(f)["payload"]
        reordered = shuffled(payload, random.Random(seed))
        assert artifact.content_hash(reordered) == \
            artifact.content_hash(payload)

    @given(indent=st.sampled_from([None, 1, 2, 4]))
    @settings(max_examples=8, deadline=None)
    def test_dumps_loads_fixpoint(self, indent):
        art = artifact.load(GOLDEN_ADAM)
        again = artifact.loads(art.dumps(indent=indent))
        assert again == art  # content-hash equality
        assert again.dumps() == art.dumps()
        assert again.structural_hash == art.structural_hash


class TestGoldenFiles:
    """Committed v1 artifacts: the forward-compatibility promise."""

    @pytest.mark.parametrize("path", [GOLDEN_ADAM, GOLDEN_MOE])
    def test_loads_hashes_and_executes(self, path):
        art = artifact.load(path)
        assert art.schema_version == 1
        content, structural = GOLDEN_HASHES[path]
        assert art.content_hash == content
        assert art.structural_hash == structural
        # the reconstruction executes and re-serializes losslessly
        assert artifact.to_payload(art.lowered()) == art.payload
        from repro.cli import _seeded_inputs

        inputs = _seeded_inputs(art.program, seed=0)
        res = Executor().run_lowered(art, inputs, allow_downcast=True)
        assert res.output_names

    def test_golden_run_matches_raw_dfg_oracle(self):
        # the artifact's lowered execution agrees with running the
        # reconstructed program unscheduled, one kernel per expression
        from repro.cli import _seeded_inputs

        art = artifact.load(GOLDEN_ADAM)
        inputs = _seeded_inputs(art.program, seed=0)
        ex = Executor()
        low = ex.run_lowered(art, inputs, allow_downcast=True)
        dfg = ex.run_lowered(art.program, inputs, allow_downcast=True)
        for name in low.output_names:
            np.testing.assert_array_equal(
                low.output(name), dfg.output(name), err_msg=name
            )


class TestElasticArtifactCache:
    """Recovery memoizes re-lowered artifacts on (structural hash, ws)."""

    def _relower(self, rng_seed, N=56):
        def relower(ws):
            wl = AdamWorkload.build(N, ws)
            rng = np.random.RandomState(rng_seed)
            return wl.program, dict(
                g=rng.randn(ws, N) * 0.1,
                p=rng.randn(N),
                m=rng.randn(N) * 0.01,
                v=np.abs(rng.randn(N)) * 0.01,
                lr=0.01,
                t=3.0,
            )
        return relower

    def test_second_recovery_hits_the_cache(self):
        ex = Executor()
        relower = self._relower(5)
        kwargs = dict(
            allow_downcast=True, soft_timeout=0.5, timeout=30.0,
            elastic=True, relower=relower,
        )

        def recover():
            rng = np.random.RandomState(5)
            return ex.run_spmd(
                AdamWorkload.build(56, 8).program,
                dict(
                    g=rng.randn(8, 56) * 0.1,
                    p=rng.randn(56),
                    m=rng.randn(56) * 0.01,
                    v=np.abs(rng.randn(56)) * 0.01,
                    lr=0.01,
                    t=3.0,
                ),
                fault_plan=FaultPlan(seed=11).die(3, at_site="g"),
                **kwargs,
            )

        first = recover()
        assert first.elastic["world_size"] == 7
        assert first.elastic["artifact_cache"] == "miss"
        assert ex.elastic_cache_misses == 1
        assert ex.elastic_cache_hits == 0

        second = recover()
        assert second.elastic["artifact_cache"] == "hit"
        assert ex.elastic_cache_hits == 1
        assert ex.elastic_cache_misses == 1
        for name in first.output_names:
            np.testing.assert_array_equal(
                second.output(name), first.output(name), err_msg=name
            )


class TestErrors:
    def _golden_doc(self):
        with open(GOLDEN_ADAM) as f:
            return json.load(f)

    def test_rejects_unknown_schema_version(self):
        doc = self._golden_doc()
        doc["schema_version"] = 99
        with pytest.raises(ArtifactError, match="schema version 99"):
            artifact.loads(json.dumps(doc))

    def test_lowering_unknown_version_names_supported_ones(self):
        art = Artifact(
            schema_version=42, payload={}, content_hash="x",
            structural_hash="y",
        )
        with pytest.raises(ArtifactError, match=r"reads \[1\]"):
            art.lowered()

    def test_detects_payload_tampering(self):
        doc = self._golden_doc()
        doc["payload"]["program"]["name"] = "edited"
        with pytest.raises(ArtifactError, match="content hash mismatch"):
            artifact.loads(json.dumps(doc))

    def test_rejects_foreign_documents(self):
        with pytest.raises(ArtifactError, match="not a coconet"):
            artifact.loads(json.dumps({"format": "something-else"}))
        with pytest.raises(ArtifactError, match="not valid JSON"):
            artifact.loads("{nope")
        with pytest.raises(ArtifactError, match="schema_version"):
            artifact.loads(json.dumps(
                {"format": artifact.FORMAT, "schema_version": "one"}
            ))

    def test_launch_index_reports_unknown_kernels(self):
        low = AdamWorkload.build(64, 4).schedule_fused().lowered()
        first = low.launches()[0]
        assert low.launch_of(first.name) is first
        with pytest.raises(CoCoNetError, match="no launch for kernel"):
            low.launch_of("no-such-kernel")


class TestCli:
    """repro-run against the committed goldens (in-process)."""

    def _digest(self, out):
        for line in out.splitlines():
            if line.startswith("digest:"):
                return line.split()[-1]
        raise AssertionError(f"no digest line in {out!r}")

    def test_describe(self, capsys):
        assert cli_main(["describe", GOLDEN_ADAM]) == 0
        out = capsys.readouterr().out
        assert "artifact: adam (schema v1)" in out
        assert GOLDEN_HASHES[GOLDEN_ADAM][0] in out

    def test_hash_verifies(self, capsys):
        assert cli_main(["hash", GOLDEN_MOE]) == 0
        out = capsys.readouterr().out
        assert GOLDEN_HASHES[GOLDEN_MOE][0] in out
        assert "verified" in out

    def test_cost(self, capsys):
        assert cli_main(["cost", GOLDEN_ADAM, "--nodes", "1"]) == 0
        assert "makespan" in capsys.readouterr().out

    def test_run_digest_is_deterministic(self, capsys):
        assert cli_main(["run", GOLDEN_ADAM, "--seed", "7"]) == 0
        first = self._digest(capsys.readouterr().out)
        assert cli_main(["run", GOLDEN_ADAM, "--seed", "7"]) == 0
        assert self._digest(capsys.readouterr().out) == first

    def test_spmd_backend_matches_lowered_digest(self, capsys):
        assert cli_main(["run", GOLDEN_ADAM]) == 0
        lowered = self._digest(capsys.readouterr().out)
        assert cli_main(["run", GOLDEN_ADAM, "--backend", "spmd"]) == 0
        assert self._digest(capsys.readouterr().out) == lowered

    def test_missing_file_is_a_clean_error(self, capsys):
        assert cli_main(["describe", "/no/such/artifact.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_backend_choices(self, capsys):
        # lowered is the one in-process interpreter; there is no
        # separate DFG backend to select
        with pytest.raises(SystemExit):
            cli_main(["run", GOLDEN_ADAM, "--backend", "dfg"])
        assert "invalid choice" in capsys.readouterr().err
