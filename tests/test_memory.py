"""Tests for training-memory plans and Table 4's batch limits."""

import pytest

from repro.workloads.models import (
    BERT_1_2B,
    BERT_3_9B,
    BERT_336M,
    COCONET_PLAN,
    NV_BERT_PLAN,
    PYTORCH_DDP_PLAN,
    ZERO_ADAM_PLAN,
    ZERO_LAMB_PLAN,
    max_micro_batch,
)


class TestMemoryPlans:
    def test_baseline_state_replicated(self):
        s = NV_BERT_PLAN.state_bytes(BERT_1_2B, 256)
        assert s == pytest.approx(18 * 1.2e9, rel=0.01)

    def test_coconet_state_mostly_sliced(self):
        s = COCONET_PLAN.state_bytes(BERT_1_2B, 256)
        # 4 B/param replicated + 12/256 B/param sliced
        assert s == pytest.approx((4 + 12 / 256) * 1.2e9, rel=0.01)

    def test_zero_lamb_cannot_partition(self):
        adam = ZERO_ADAM_PLAN.state_bytes(BERT_1_2B, 256)
        lamb = ZERO_LAMB_PLAN.state_bytes(BERT_1_2B, 256)
        assert lamb > 2 * adam


class TestTable4BatchMatrix:
    """The micro-batch columns of Table 4."""

    def test_adam_336m_all_fit_32(self):
        for plan in (NV_BERT_PLAN, PYTORCH_DDP_PLAN, ZERO_ADAM_PLAN,
                     COCONET_PLAN):
            assert max_micro_batch(BERT_336M, plan, 256, cap=32) == 32

    def test_adam_1_2b(self):
        assert max_micro_batch(BERT_1_2B, NV_BERT_PLAN, 256, cap=32) == 8
        assert max_micro_batch(BERT_1_2B, PYTORCH_DDP_PLAN, 256, cap=32) == 8
        assert max_micro_batch(BERT_1_2B, ZERO_ADAM_PLAN, 256, cap=32) == 32
        assert max_micro_batch(BERT_1_2B, COCONET_PLAN, 256, cap=32) == 32

    def test_adam_3_9b_baselines_oom(self):
        assert max_micro_batch(BERT_3_9B, NV_BERT_PLAN, 256) is None
        assert max_micro_batch(BERT_3_9B, PYTORCH_DDP_PLAN, 256) is None
        assert max_micro_batch(BERT_3_9B, ZERO_ADAM_PLAN, 256, cap=32) == 8
        assert max_micro_batch(BERT_3_9B, COCONET_PLAN, 256, cap=32) == 8

    def test_lamb_336m_coconet_doubles_batch(self):
        assert max_micro_batch(BERT_336M, NV_BERT_PLAN, 256, cap=256) == 64
        assert max_micro_batch(BERT_336M, ZERO_LAMB_PLAN, 256, cap=256) == 64
        assert max_micro_batch(BERT_336M, COCONET_PLAN, 256, cap=256) == 128

    def test_lamb_3_9b_only_coconet_fits(self):
        assert max_micro_batch(BERT_3_9B, ZERO_LAMB_PLAN, 256) is None
        assert max_micro_batch(BERT_3_9B, COCONET_PLAN, 256, cap=256) == 8

    def test_cap_respected(self):
        assert max_micro_batch(BERT_336M, COCONET_PLAN, 256, cap=4) == 4

    def test_more_ranks_shrink_sliced_state(self):
        small = COCONET_PLAN.state_bytes(BERT_3_9B, 16)
        large = COCONET_PLAN.state_bytes(BERT_3_9B, 256)
        assert large < small
