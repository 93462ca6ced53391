"""The serialized-artifact layer: one portable IR for every backend.

:mod:`repro.core.artifact` turns a :class:`LoweredProgram` into a
schema-versioned JSON document. These tests pin the contract:

* **round-trip fidelity** — for every workload × schedule,
  ``loads(dumps(x))`` reconstructs a program whose re-serialized payload
  is byte-identical, that executes bit-identically to the live object on
  ``run_lowered``, and that the DES cost model prices to the *same*
  makespan;
* **real-process parity** — deserialized artifacts drive ``run_spmd``
  (4 real ranks) bit-identically to the live schedule, and generate
  the same module text as the live schedule;
* **identity** — ``content_hash`` is invariant under dict reordering
  and across processes; ``structural_hash`` *is* the autotuner's dedup
  signature; elastic recovery memoizes re-lowered artifacts on it;
  two programs that differ in any field of any op but a generated
  name differ in both hashes (or generate the same modules);
* **the golden files** — committed schema-v1 artifacts under
  ``tests/golden/`` must keep loading, executing and hashing the same
  forever: they are the forward-compatibility promise newer schema
  versions must not break. Payloads and content hashes are pinned
  forever. Structural hashes were re-pinned once, when every op field
  entered the structural key; a document that recorded the older hash
  still loads with it.
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
from repro.core import (
    BF16, FP16, FP32, FP64, GROUP, INT32, INT64, RANK, AllGather, AllReduce,
    AllToAll, Binary, Broadcast, Cast, Conv2D, Dropout, Execute, GroupRank,
    Local, MatMul, Norm, Reduce, ReduceScatter, ReduceTensor, Replicated,
    Scalar, Send, Slice, Sliced, Unary, Update, artifact, ops, world,
)
from repro.core.artifact import Artifact, ArtifactError
from repro.core.autotuner import Autotuner
from repro.core.codegen import CodeGenerator
from repro.core.ops import BINARY_OPS, REDUCTION_OPS, UNARY_OPS, AllToAllPhase
from repro.core.process_group import ProcessGroup, split_world
from repro.core.tensor import Expr, Tensor
from repro.core.transforms import Schedule
from repro.errors import CoCoNetError
from repro.perf.program_cost import ProgramCostModel
from repro.runtime import Executor, FaultPlan
from repro.serve import ScheduleCache
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
        "sha256:1f8fba2b584b32881616a670567d027875e4fc3e2b0"
        "99c6506e37cf1f3353da5",
    ),
    GOLDEN_MOE: (
        "sha256:0b859f8b6ddce8a62813beb3a3b108ff4317c9e4bde"
        "a31213b5ffe355722400a",
        "sha256:78f5fb809f41a672f4a433c28c81f599ac8593e7044"
        "9872a6909e28c73e853f0",
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

    @pytest.mark.parametrize("target", ["spmd", "native"])
    def test_loaded_artifact_generates_the_live_module(self, target):
        # the parent generates every rank's module, from a live schedule
        # or from a loaded artifact; both give the same text
        for sched in (
            AdamWorkload.build(64, 4).schedule_fused(),
            AttentionWorkload.build(
                4, 8, 16, 4, dtype=FP32, dropout_seed=6
            ).schedule_coconet(),
            MoEWorkload.build(
                3, 6, 8, world_size=4, dtype=FP32
            ).schedule_overlapped(),
        ):
            live = CodeGenerator(target=target).generate(sched)
            loaded = CodeGenerator(target=target).generate(
                artifact.loads(artifact.dumps(sched))
            )
            assert loaded.source == live.source, sched.program.name
            assert loaded.c_source == live.c_source, sched.program.name
            assert (live.c_source is not None) == (target == "native")

    def test_update_of_an_input_nothing_else_reads(self):
        # the target is read by its Update only, so it is serialized
        # after the Update that names it
        ws = world(2)
        p = Tensor(FP32, (8,), Replicated, ws, name="p")
        g = Tensor(FP32, (8,), Replicated, ws, name="g")
        prog = Execute("upd", [p, g], [Update(p, Binary("+", g, 1.0))])
        text = artifact.dumps(prog)
        art = artifact.loads(text)
        assert artifact.dumps(art.lowered()) == text
        rs = np.random.RandomState(3)
        inputs = {"p": rs.randn(8), "g": rs.randn(8)}
        ex = Executor()
        live = ex.run_lowered(prog, inputs, allow_downcast=True)
        for res in (
            ex.run_lowered(art, inputs, allow_downcast=True),
            ex.run_spmd(art, inputs, allow_downcast=True),
        ):
            for name in live.output_names:
                np.testing.assert_array_equal(
                    res.output(name), live.output(name), err_msg=name
                )
            np.testing.assert_array_equal(
                res.tensor_state("p"), live.tensor_state("p")
            )


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

    def test_conv2d_stride_and_padding_enter_the_structural_hash(
        self, tmp_path
    ):
        # each pair differs in one field its byte counts cannot see: both
        # convolutions map (1,2,6,6) * (3,2,3,3) to (1,3,4,4), so only
        # stride and padding tell them apart; then an equal-byte shape,
        # an equal-byte dtype, Replicated against Local, and an
        # AllGather without and with a writeback
        from repro.cli import _seeded_inputs

        def conv(stride, padding):
            x = _leaf("x", (1, 2, 6, 6))
            k = _leaf("k", (3, 2, 3, 3))
            c = Conv2D(x, k, stride=stride, padding=padding, name="c")
            return Execute("p", [x, k], [c])

        def relu(shape=(8, 4), dtype=FP32, layout=Replicated):
            x = _leaf("x", shape, layout, dtype)
            return Execute("p", [x], [Unary("relu", x, name="c")])

        def gather(writeback):
            x, p = _leaf("x", layout=Sliced(0)), _leaf("p")
            ag = AllGather(x, name="c")
            if writeback:
                ag.writeback = p
            return Execute("p", [x, p], [ag])

        pairs = {
            "conv2d stride and padding": (conv(1, 0), conv(2, 2)),
            "equal-byte shape": (relu((8, 4)), relu((4, 8))),
            "equal-byte dtype": (relu((8,)), relu((16,), FP16)),
            "Replicated and Local": (relu(), relu(layout=Local)),
            "AllGather writeback": (gather(False), gather(True)),
        }
        collided = []
        ex = Executor()
        for i, (case, (first, second)) in enumerate(pairs.items()):
            tuner = Autotuner(
                Cluster(1),
                schedule_cache=ScheduleCache(str(tmp_path / str(i))),
            )
            assert not tuner.tune(first).cached
            result = tuner.tune(second)
            if result.cached or artifact.structural_hash(
                Schedule(first).lowered()
            ) == artifact.structural_hash(Schedule(second).lowered()):
                collided.append(case)
                continue
            inputs = _seeded_inputs(second, seed=0)
            tuned = ex.run_lowered(
                result.best.schedule, inputs, allow_downcast=True
            )
            plain = ex.run_lowered(second, inputs, allow_downcast=True)
            np.testing.assert_array_equal(
                tuned.output("c"), plain.output("c"), err_msg=case
            )
            for t in second.inputs:
                np.testing.assert_array_equal(
                    tuned.tensor_state(t.name), plain.tensor_state(t.name),
                    err_msg=case,
                )
        assert collided == []

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



# ---------------------------------------------------------------------------
# Every field of every op enters the identity (field mutations).
# ---------------------------------------------------------------------------

_W2 = world(2)


def _leaf(name, shape=(4, 8), layout=Replicated, dtype=FP32, group=_W2):
    rank = None if layout.is_replicated else RANK
    return Tensor(dtype, shape, layout, group, rank, name=name)


def _build_allgather():
    x = _leaf("x", layout=Sliced(0))
    p = _leaf("p")
    ag = AllGather(x, name="ag")
    ag.writeback = p
    return Execute("prog", [x, p], [], [ag]), ag


def _build_send():
    g0, _ = split_world(4, 2)
    x = _leaf("x", group=g0)
    send = Send(x, GroupRank(GROUP + 1, RANK), name="send")
    return Execute("prog", [x], [send]), send


def _build_update():
    p, g = _leaf("p"), _leaf("g")
    upd = Update(p, Binary("+", g, 1.0, name="b"), name="upd")
    return Execute("prog", [p, g], [upd]), upd


def _unary_program(make, layout=Replicated, shape=(4, 8)):
    def build():
        x = _leaf("x", shape=shape, layout=layout)
        op = make(x)
        return Execute("prog", [x], [op]), op
    return build


def _build_tensor():
    x = _leaf("x")
    return Execute("prog", [x], [Unary("relu", x, name="u")]), x


def _build_const():
    x = _leaf("x")
    b = Binary("+", x, 2.0, name="b")
    c = b.inputs[1]
    c.name = "c"
    return Execute("prog", [x], [b]), c


def _build_scalar():
    x, s = _leaf("x"), Scalar(FP32, name="s", group=_W2)
    return Execute("prog", [x, s], [Binary("*", x, s, name="b")]), s


def _build_two_operand(make, a_shape, b_shape):
    def build():
        a, b = _leaf("a", shape=a_shape), _leaf("b", shape=b_shape)
        op = make(a, b)
        return Execute("prog", [a, b], [op]), op
    return build


#: one built instance of every concrete Expr class, in a program of its
#: own; every name is explicit, so two builds serialize alike
_BUILDERS = {
    "Tensor": _build_tensor,
    "Scalar": _build_scalar,
    "Const": _build_const,
    "AllReduce": _unary_program(
        lambda x: AllReduce("+", x, name="op"), layout=Local),
    "ReduceScatter": _unary_program(
        lambda x: ReduceScatter("+", x, name="op"), layout=Local),
    "AllGather": _build_allgather,
    "Reduce": _unary_program(
        lambda x: Reduce("+", x, root=0, name="op"), layout=Local),
    "Broadcast": _unary_program(lambda x: Broadcast(x, name="op")),
    "AllToAll": _unary_program(
        lambda x: AllToAll(x, name="op"), layout=Local),
    "AllToAllPhase": _unary_program(
        lambda x: AllToAllPhase(x, 0, "intra", 2, name="op"),
        layout=Local),
    "Send": _build_send,
    "MatMul": _build_two_operand(
        lambda a, b: MatMul(a, b, name="op"), (4, 8), (8, 8)),
    "Conv2D": _build_two_operand(
        lambda x, k: Conv2D(x, k, stride=1, padding=0, name="op"),
        (1, 2, 6, 6), (3, 2, 3, 3)),
    "Binary": _build_two_operand(
        lambda a, b: Binary("+", a, b, name="op"), (4, 8), (4, 8)),
    "Unary": _unary_program(lambda x: Unary("relu", x, name="op")),
    "Dropout": _unary_program(lambda x: Dropout(x, 0.1, seed=7, name="op")),
    "Cast": _unary_program(lambda x: Cast(FP16, x, name="op")),
    "Slice": _unary_program(lambda x: Slice(x, 0, name="op")),
    "Norm": _unary_program(lambda x: Norm(x, name="op")),
    "ReduceTensor": _unary_program(
        lambda x: ReduceTensor("+", x, name="op")),
    "Update": _build_update,
}

#: equal-byte stand-ins for a dtype
_SAME_WIDTH = {FP16: BF16, BF16: FP16, FP32: INT32, INT32: FP32,
               FP64: INT64, INT64: FP64}

#: the other legal values of a string field
_CHOICES = {"reduction": REDUCTION_OPS, "phase": ("intra", "inter")}


def _mutated(e, f):
    """Another value for field ``f`` of ``e``: the same bytes wherever a
    change can keep them."""
    v = getattr(e, f)
    if f == "dtype":
        return _SAME_WIDTH[v]
    if f == "shape":
        # the same element count
        return tuple(reversed(v)) if len(set(v)) > 1 else v + (1,)
    if f == "layout":
        if v.is_sliced:
            return Sliced(v.dim + 1) if v.dim + 1 < len(e.shape) \
                else Replicated
        return Local if v.is_replicated else Replicated
    if f == "group":
        return ProcessGroup(v.start, v.size, 2 * v.world_size)
    if f == "inputs":
        if len(v) > 1:
            return tuple(reversed(v))
        other = v[0] if v else e
        return (_leaf("spare", other.shape, other.layout, other.dtype,
                      other.group),)
    if isinstance(v, Expr):  # a link
        return _leaf("spare", v.shape, v.layout, v.dtype, v.group)
    if isinstance(v, GroupRank):
        return GroupRank(GROUP + (v.group_offset + 1), RANK)
    if isinstance(v, bool):
        return not v
    if isinstance(v, str):
        choices = _CHOICES.get(f) or next(
            c for c in (BINARY_OPS, UNARY_OPS) if v in c
        )
        return next(c for c in choices if c != v)
    if isinstance(v, (int, float)):
        return v + 1 if isinstance(v, int) else v / 2
    raise AssertionError(
        f"{type(e).__name__}.{f}: no mutation for a {type(v).__name__}; "
        f"classify the new field in artifact._fields"
    )


def _mutation_cases():
    for tag, build in _BUILDERS.items():
        _, e = build()
        for f in vars(e):
            if f not in artifact._EXCLUDED:
                yield pytest.param(tag, f, id=f"{tag}.{f}")


def _identity(prog):
    """(content hash, structural hash, schedule-cache key) of ``prog``."""
    art = artifact.as_artifact(Schedule(prog))
    return (
        art.content_hash, art.structural_hash,
        Autotuner(Cluster(1)).cache_key(prog),
    )


def _modules(prog):
    return [
        (gen.source, gen.c_source)
        for gen in (
            CodeGenerator(target=t).generate(Schedule(prog))
            for t in ("spmd", "native")
        )
    ]


class TestEveryFieldEntersTheKey:
    """Two programs that differ in one field of one op differ in their
    content hash, and in their structural hash and schedule-cache key
    unless they generate byte-identical modules."""

    def test_every_op_class_is_registered(self):
        concrete = {
            name for name, cls in vars(ops).items()
            if isinstance(cls, type) and issubclass(cls, Expr)
            and cls.__module__ == ops.__name__ and "__init__" in vars(cls)
        }
        assert concrete <= set(artifact._EXPR_TYPES)
        assert set(_BUILDERS) == set(artifact._EXPR_TYPES)

    @pytest.mark.parametrize("tag,field", list(_mutation_cases()))
    def test_field_mutation_changes_the_identity(self, tag, field):
        prog, _ = _BUILDERS[tag]()
        mutated_prog, e = _BUILDERS[tag]()
        assert type(e).__name__ == tag
        value = _mutated(e, field)
        setattr(e, field, value)
        # a new leaf the mutation links is declared by both programs
        spares = tuple(
            x for x in (value if isinstance(value, tuple) else (value,))
            if isinstance(x, Tensor) and x.name == "spare"
        )
        prog = Execute(
            "prog", prog.inputs + tuple(
                _leaf("spare", x.shape, x.layout, x.dtype, x.group)
                for x in spares
            ), prog.outputs, prog.effects,
        )
        mutated_prog = Execute(
            "prog", mutated_prog.inputs + spares, mutated_prog.outputs,
            mutated_prog.effects,
        )
        before, after = _identity(prog), _identity(mutated_prog)
        assert after[0] != before[0], "content hash"
        if after[1] == before[1] or after[2] == before[2]:
            assert _modules(mutated_prog) == _modules(prog), (
                "equal keys, different modules"
            )

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

    def test_a_document_with_an_older_structural_hash_loads(
        self, tmp_path, capsys
    ):
        # the Adam golden as written before every op field entered the
        # structural key: it loads with the hash it recorded and runs as
        # the golden does, and ``repro-run hash`` names today's hash
        from repro.cli import _seeded_inputs

        recorded = (
            "sha256:2a3b679e498ac5bf285ae122f2429dbde3f95895eb9"
            "3e3cdb110d5efd5202c63"
        )
        with open(GOLDEN_ADAM) as f:
            doc = json.load(f)
        doc["structural_hash"] = recorded
        path = str(tmp_path / "adam_fused.repro.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        old, golden = artifact.load(path), artifact.load(GOLDEN_ADAM)
        assert old.structural_hash == recorded
        assert old.content_hash == GOLDEN_HASHES[GOLDEN_ADAM][0]
        inputs = _seeded_inputs(old.program, seed=0)
        ex = Executor()
        ran = ex.run_lowered(old, inputs, allow_downcast=True)
        want = ex.run_lowered(golden, inputs, allow_downcast=True)
        for name in want.output_names:
            np.testing.assert_array_equal(
                ran.output(name), want.output(name), err_msg=name
            )
        for t in golden.program.inputs:
            if isinstance(t, Tensor):
                np.testing.assert_array_equal(
                    ran.tensor_state(t.name), want.tensor_state(t.name),
                    err_msg=t.name,
                )
        assert cli_main(["hash", path]) == 1
        assert GOLDEN_HASHES[GOLDEN_ADAM][1] in capsys.readouterr().err

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


class TestElasticRelower:
    """Every recovery runs the schedule its ``relower`` returned."""

    def test_second_recovery_runs_its_own_relower(self):
        N = 56

        def inputs(ws):
            rng = np.random.RandomState(5)
            return dict(
                g=rng.randn(ws, N) * 0.1,
                p=rng.randn(N),
                m=rng.randn(N) * 0.01,
                v=np.abs(rng.randn(N)) * 0.01,
                lr=0.01,
                t=3.0,
            )

        schedules = []

        def relower(ws):
            wl = AdamWorkload.build(N, ws)
            schedules.append(
                wl.schedule_fused() if schedules else wl.program
            )
            return schedules[-1], inputs(ws)

        def recover(ex):
            return ex.run_spmd(
                AdamWorkload.build(N, 8).program, inputs(8),
                fault_plan=FaultPlan(seed=11).die(3, at_site="g"),
                allow_downcast=True, soft_timeout=0.5, timeout=30.0,
                elastic=True, relower=relower,
            )

        with Executor() as ex:
            first = recover(ex)
            second = recover(ex)
        assert first.elastic["world_size"] == second.elastic["world_size"] == 7
        # the unfused program, then the fused schedule's gathered output
        assert first.output_names == ["p_"]
        assert second.output_names == ["ag_p_"]
        for result, scheduled in zip((first, second), schedules):
            expected = Executor().run_lowered(
                scheduled, inputs(7), allow_downcast=True
            )
            for name in expected.output_names:
                np.testing.assert_array_equal(
                    result.output(name), expected.output(name),
                    err_msg=name,
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

    @pytest.mark.parametrize("bounds", [
        [[0, 2], [2, 3]],  # one element short of the extent (4)
        [[0, 1], [2, 4]],  # a gap
        [[1, 2], [2, 4]],  # starts past 0
        [[0, 4]],          # one chunk of two
    ], ids=["short", "gap", "offset", "missing"])
    def test_rejects_chunk_bounds_that_do_not_tile(self, bounds):
        with open(GOLDEN_MOE) as f:
            doc = json.load(f)
        loop = next(
            i for i in doc["payload"]["instructions"]
            if i["kind"] == "chunk_loop"
        )
        member = next(e for e in loop["entries"] if e["bounds"])
        assert member["bounds"] == [[0, 2], [2, 4]]
        member["bounds"] = bounds
        doc["content_hash"] = artifact.content_hash(doc["payload"])
        art = artifact.loads(json.dumps(doc))
        with pytest.raises(ArtifactError, match="do not cut"):
            art.lowered()
        # raised while generating the module, before any rank starts
        with pytest.raises(ArtifactError, match="do not cut"):
            Executor().run_spmd(art, {})

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
