"""Tests for DFG traversal and rewriting."""

import pytest

from repro.core import (
    FP32,
    RANK,
    AllReduce,
    Binary,
    Dropout,
    Local,
    Replicated,
    Sliced,
    Tensor,
    Update,
    world,
)
from repro.core import dfg
from repro.errors import TransformError


@pytest.fixture
def W():
    return world(4)


def chain(W):
    a = Tensor(FP32, (8,), Local, W, RANK, name="a")
    ar = AllReduce("+", a, name="ar")
    b = Binary("*", ar, ar, name="sq")
    c = Binary("+", b, 1.0, name="plus1")
    return a, ar, b, c


class TestTopological:
    def test_inputs_before_users(self, W):
        a, ar, b, c = chain(W)
        order = dfg.topological([c])
        assert order.index(a) < order.index(ar) < order.index(b)
        assert order.index(b) < order.index(c)

    def test_shared_nodes_visited_once(self, W):
        a, ar, b, c = chain(W)
        order = dfg.topological([c, b])
        assert len([e for e in order if e is ar]) == 1

    def test_reachable(self, W):
        a, ar, b, c = chain(W)
        assert ar in dfg.reachable([b])
        assert c not in dfg.reachable([b])


class TestUsersMap:
    def test_users(self, W):
        a, ar, b, c = chain(W)
        users = dfg.users_map([c])
        assert users[ar] == [b, b]  # both operands of sq
        assert users[b] == [c]
        assert users[c] == []


class TestCloneAndRewrite:
    def test_clone_preserves_dropout_seed(self, W):
        x = Tensor(FP32, (8,), Replicated, W, name="x")
        d = Dropout(x, 0.5, seed=123, name="d")
        clone = dfg.clone_with_inputs(d, (x,))
        assert clone.seed == 123
        assert clone.prob == 0.5

    def test_clone_reinfers_layout(self, W):
        # a clone with a sliced input becomes sliced
        x = Tensor(FP32, (8,), Replicated, W, name="x")
        d = Dropout(x, 0.5, name="d")
        xs = Tensor(FP32, (8,), Sliced(0), W, RANK, name="xs")
        clone = dfg.clone_with_inputs(d, (xs,))
        assert clone.layout == Sliced(0)

    def test_clone_leaf_rejects_inputs(self, W):
        x = Tensor(FP32, (8,), Replicated, W)
        with pytest.raises(TransformError):
            dfg.clone_with_inputs(x, (x,))

    def test_rewrite_substitutes_downstream(self, W):
        a, ar, b, c = chain(W)
        replacement = Binary("*", ar, 2.0, name="dbl")
        (new_c,), memo = dfg.rewrite([c], {b: replacement})
        assert memo[b] is replacement
        assert new_c is not c
        assert new_c.inputs[0] is replacement

    def test_rewrite_shares_untouched_nodes(self, W):
        a, ar, b, c = chain(W)
        (new_c,), memo = dfg.rewrite([c], {})
        assert new_c is c

    def test_rewrite_update_target_via_leaf_map(self, W):
        p = Tensor(FP32, (8,), Replicated, W, name="p")
        u = Update(p, p * 0.5, name="u")
        p2 = Tensor(FP32, (8,), Sliced(0), W, RANK, name="p")
        # remap the target; the value expression reads the new tensor too
        (new_u,), memo = dfg.rewrite([u], {p: p2}, leaf_map={p: p2})
        assert new_u.target is p2


class TestRegionAnalysis:
    def test_region_live_outs_external_use(self, W):
        a, ar, b, c = chain(W)
        outs = dfg.region_live_outs([b], [c])
        assert outs == [b]

    def test_region_live_outs_program_output(self, W):
        a, ar, b, c = chain(W)
        outs = dfg.region_live_outs([b, c], [c])
        assert outs == [c]

    def test_region_live_outs_updates_always_live(self, W):
        p = Tensor(FP32, (8,), Replicated, W, name="p")
        u = Update(p, p * 0.5, name="u")
        out = Binary("+", u, 1.0, name="out")
        live = dfg.region_live_outs([u, out], [out])
        assert u in live and out in live

    def test_input_leaves_excludes_consts(self, W):
        a, ar, b, c = chain(W)
        leaves = dfg.input_leaves([c])
        assert leaves == [a]
