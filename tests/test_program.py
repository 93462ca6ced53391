"""Tests for the Execute construct and Program queries."""

import pytest

from repro.core import (
    FP32,
    RANK,
    AllReduce,
    Execute,
    Local,
    Replicated,
    Scalar,
    Tensor,
    Update,
    world,
)
from repro.errors import CoCoNetError
from tests.conftest import build_attention_program


class TestValidation:
    def test_undeclared_input_rejected(self):
        W = world(4)
        a = Tensor(FP32, (8,), Local, W, RANK, name="a")
        ar = AllReduce("+", a)
        with pytest.raises(CoCoNetError, match="undeclared input"):
            Execute("p", [], [ar])

    def test_duplicate_input_names_rejected(self):
        W = world(4)
        a = Tensor(FP32, (8,), Replicated, W, name="x")
        b = Tensor(FP32, (8,), Replicated, W, name="x")
        with pytest.raises(CoCoNetError, match="duplicate"):
            Execute("p", [a, b], [a + b])

    def test_scalar_inputs_allowed(self):
        W = world(4)
        a = Tensor(FP32, (8,), Replicated, W, name="a")
        s = Scalar(FP32, name="lr", group=W)
        prog = Execute("p", [a, s], [a * s])
        assert len(prog.inputs) == 2


class TestQueries:
    def test_operations_in_topo_order(self):
        prog, h = build_attention_program()
        ops = prog.operations
        assert ops.index(h["layer"]) < ops.index(h["allreduce"])
        assert ops.index(h["allreduce"]) < ops.index(h["out"])

    def test_comm_and_compute_partition(self):
        prog, h = build_attention_program()
        assert prog.comm_ops == [h["allreduce"]]
        assert h["layer"] in prog.compute_ops

    def test_find_by_name(self):
        prog, h = build_attention_program()
        assert prog.find("sum") is h["allreduce"]
        assert prog.find("w") is h["w"]

    def test_find_missing_raises(self):
        prog, _ = build_attention_program()
        with pytest.raises(KeyError):
            prog.find("nothing")

    def test_updated_tensors(self):
        W = world(4)
        p = Tensor(FP32, (8,), Replicated, W, name="p")
        u = Update(p, p * 0.9, name="u")
        prog = Execute("decay", [p], [u])
        # the input tensors Update ops write in place, in program order
        updated = [e.target for e in prog.operations if isinstance(e, Update)]
        assert updated == [p]

    def test_effects_are_roots(self):
        W = world(4)
        p = Tensor(FP32, (8,), Replicated, W, name="p")
        u = Update(p, p * 0.9, name="u")
        side = Update(p, p * 0.5, name="side")
        prog = Execute("p", [p], [u], effects=[side])
        assert side in prog.operations


class TestPrinting:
    def test_pretty_contains_declarations_and_ops(self):
        prog, _ = build_attention_program()
        text = prog.pretty()
        assert "Tensor w(FP32" in text
        assert 'AllReduce("+", layer)' in text
        assert "Dropout(sum_b, 0.1)" in text
        assert "Execute attn(" in text

    def test_pretty_renders_infix_binary(self):
        prog, _ = build_attention_program()
        assert "drop + r" in prog.pretty()

    def test_dsl_line_count_counts_every_line(self):
        prog, _ = build_attention_program()
        assert prog.dsl_line_count() == len(prog.pretty().splitlines())

    def test_repr(self):
        prog, _ = build_attention_program()
        assert "Program('attn'" in repr(prog)
