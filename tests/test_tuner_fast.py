"""Tests for the fast autotuner stack: incremental search, plan-
signature dedup, memoized cost evaluation, and lower-bound pruning.

The invariant everything here guards: the optimizations change how fast
the search runs, never what it returns. The executable specification
is the unoptimized search, rebuilt here: every candidate's move script
replayed from a fresh root and timed by an unmemoized cost model on the
O(n²) ready-scan engine (``tests/des_oracle.py``).

``tests/golden/tuner_times.json`` pins the exact ``repr`` of every
candidate's predicted time over the ``_suite()`` workloads, so a
refactor of the cost model cannot move a number unnoticed. A pricing
change that is meant to move them bumps ``COST_MODEL_VERSION`` and
re-records the file with ``PYTHONPATH=src:. python -m
tests.test_tuner_fast``.
"""

import json
import os

import pytest

from repro.cluster import Cluster
from repro.core.autotuner import Autotuner
from repro.core.transforms import Schedule
from repro.observe import MetricsRegistry
from repro.perf import Engine, ProgramCostModel
from repro.perf.program_cost import COST_MODEL_VERSION
from repro.workloads.adam import AdamWorkload
from repro.workloads.attention import AttentionWorkload
from repro.workloads.lamb import LambWorkload
from repro.workloads.moe import MoEWorkload
from tests.des_oracle import ReferenceEngine, UnmemoizedCostModel


def _suite():
    return [
        (AdamWorkload.build(2**18, 16), Cluster(1)),
        (LambWorkload.build(2**18, 16), Cluster(1)),
        (AttentionWorkload.build(4, 256, 1024, 16), Cluster(1)),
        (MoEWorkload.build(128, 512, 2048, 32), Cluster(2)),
    ]


GOLDEN_TIMES = os.path.join(
    os.path.dirname(__file__), "golden", "tuner_times.json"
)


def _tuned_times():
    """{program name: {candidate name: repr(predicted time)}}."""
    return {
        wl.program.name: {
            c.name: repr(c.time)
            for c in Autotuner(cluster, prune=False).tune(
                wl.program
            ).candidates
        }
        for wl, cluster in _suite()
    }


def _replay(tuner, program, moves):
    """Rebuild a candidate from the root, one move at a time."""
    sched = tuner._fresh(program)
    for m in moves:
        tuner._apply(sched, m)
    return sched


class TestPinnedTimes:
    def test_candidate_times_match_the_golden(self):
        with open(GOLDEN_TIMES) as f:
            golden = json.load(f)
        if golden["cost_model_version"] != COST_MODEL_VERSION:
            pytest.skip(
                "COST_MODEL_VERSION changed: re-record the pinned times"
            )
        assert _tuned_times() == golden["times"]


class TestMemoizedCostModel:
    def test_cached_matches_uncached_bitwise_on_all_workloads(self):
        # memoization returns the stored float, so agreement must be
        # exact, not approximate
        for wl, cluster in _suite():
            cached = ProgramCostModel(cluster)
            uncached = UnmemoizedCostModel(cluster)
            for name, sched in wl.schedules().items():
                assert cached.time(sched) == uncached.time(sched), (
                    wl.program.name, name
                )

    def test_cached_matches_uncached_across_tuned_candidates(self):
        wl = MoEWorkload.build(128, 512, 2048, 16)
        result = Autotuner(Cluster(1), prune=False).tune(wl.program)
        cached = ProgramCostModel(Cluster(1))
        uncached = UnmemoizedCostModel(Cluster(1))
        for c in result.candidates:
            assert cached.time(c.schedule) == uncached.time(c.schedule)
            assert cached.time(c.schedule) == c.time

    def test_memo_is_populated(self):
        wl, cluster = _suite()[0]
        pcm = ProgramCostModel(cluster)
        pcm.time(wl.schedule_fused())
        assert any(
            key[0] in ("collective", "ring_sweep") for key in pcm._table
        )

    def test_evaluate_prunes_with_cutoff(self):
        wl, cluster = _suite()[0]
        pcm = ProgramCostModel(cluster)
        sched = wl.schedule_gshard()
        exact = pcm.evaluate(sched)
        assert not exact.pruned
        # an impossible cutoff forces the lower-bound exit
        pruned = pcm.evaluate(sched, cutoff=exact.time / 1e6)
        assert pruned.pruned
        assert pruned.time <= exact.time  # a true lower bound

    def test_evaluate_without_cutoff_matches_time(self):
        wl, cluster = _suite()[2]
        pcm = ProgramCostModel(cluster)
        sched = wl.schedule_coconet()
        assert pcm.evaluate(sched).time == pcm.time(sched)


class TestIncrementalMatchesBaseline:
    @pytest.mark.parametrize("idx", range(4))
    def test_same_candidates_same_times(self, idx):
        wl, cluster = _suite()[idx]
        tuner = Autotuner(cluster, prune=False)
        fast = tuner.tune(wl.program)
        oracle = UnmemoizedCostModel(cluster, engine=ReferenceEngine())
        times = []
        for c in fast.candidates:
            if c.name == "default":  # the program before the fusion pre-pass
                replayed = Schedule(wl.program)
            else:
                replayed = _replay(tuner, wl.program, c.moves)
            assert tuner._plan_signature(replayed) == (
                tuner._plan_signature(c.schedule)
            ), c.name
            times.append(oracle.time(replayed))
            assert times[-1] == c.time, c.name
        best = fast.candidates[times.index(min(times))]
        assert best.name == fast.best.name
        assert min(times) == fast.best.time

    @pytest.mark.parametrize("idx", range(4))
    def test_pruning_preserves_the_best(self, idx):
        wl, cluster = _suite()[idx]
        pruned = Autotuner(cluster).tune(wl.program)
        unpruned = Autotuner(cluster, prune=False).tune(wl.program)
        assert pruned.best.name == unpruned.best.name
        assert pruned.best.time == unpruned.best.time
        # a pruned candidate records a lower bound, never an
        # overestimate below the winner
        for c in pruned.candidates:
            if c.pruned:
                assert c.time >= pruned.best.time

    def test_best_is_never_a_pruned_candidate(self):
        wl, cluster = _suite()[3]
        result = Autotuner(cluster).tune(wl.program)
        assert not result.best.pruned


class TestPlanSignatureDedup:
    """Regression for the historical ``tuple(sorted(script))`` key,
    which treated move scripts as order-insensitive and silently
    skipped order-dependent schedules."""

    ORDER_A = (
        ("split", "avg"), ("reorder", "ag_avg"), ("arfuse", "rs_avg"),
    )
    ORDER_B = (
        ("split", "avg"), ("arfuse", "rs_avg"), ("reorder", "ag_avg"),
    )

    def test_orderings_collide_under_the_old_key(self):
        assert tuple(sorted(self.ORDER_A)) == tuple(sorted(self.ORDER_B))

    def test_orderings_produce_different_plans(self):
        tuner = Autotuner(Cluster(1))
        prog = AdamWorkload.build(2**18, 16).program
        sig_a = tuner._plan_signature(_replay(tuner, prog, self.ORDER_A))
        sig_b = tuner._plan_signature(_replay(tuner, prog, self.ORDER_B))
        assert sig_a != sig_b

    def test_both_orderings_are_explored(self):
        wl = AdamWorkload.build(2**18, 16)
        result = Autotuner(Cluster(1)).tune(wl.program)
        names = [c.name for c in result.candidates]
        assert "split(avg) ; reorder(ag_avg) ; arfuse(rs_avg)" in names
        assert "split(avg) ; arfuse(rs_avg) ; reorder(ag_avg)" in names

    def test_order_dependent_schedules_time_differently(self):
        # the two orderings are not cosmetic: they cost differently,
        # so skipping one silently changed tuning results
        wl = AdamWorkload.build(2**22, 16)
        result = Autotuner(Cluster(1), prune=False).tune(wl.program)
        by_name = {c.name: c.time for c in result.candidates}
        t_a = by_name["split(avg) ; reorder(ag_avg) ; arfuse(rs_avg)"]
        t_b = by_name["split(avg) ; arfuse(rs_avg) ; reorder(ag_avg)"]
        assert t_a != t_b

    def test_signature_is_replay_path_independent(self):
        # fork-per-move and root replay create different numbers of
        # auto-named intermediates; the structural signature must not
        # see the difference
        tuner = Autotuner(Cluster(1))
        prog = AdamWorkload.build(2**18, 16).program
        replayed = _replay(tuner, prog, self.ORDER_A)
        sched = tuner._fresh(prog)
        for m in self.ORDER_A:
            child = sched.fork()
            tuner._apply(child, m)
            sched = child
        assert tuner._plan_signature(sched) == (
            tuner._plan_signature(replayed)
        )


class TestScheduleFork:
    def test_fork_isolates_parent_from_child_moves(self):
        tuner = Autotuner(Cluster(1))
        prog = AdamWorkload.build(2**18, 16).program
        parent = tuner._fresh(prog)
        sig_before = tuner._plan_signature(parent)
        child = parent.fork()
        tuner._apply(child, ("split", "avg"))
        assert tuner._plan_signature(parent) == sig_before
        assert tuner._plan_signature(child) != sig_before
        assert len(parent.steps) < len(child.steps)

    def test_fork_clones_blocks(self):
        wl = AttentionWorkload.build(4, 256, 1024, 16)
        sched = Schedule(wl.program)
        from repro.core.transforms import ComputationFuse

        sched.fuse(*wl.compute_ops, policy=ComputationFuse)
        forked = sched.fork()
        assert len(forked._blocks) == len(sched._blocks)
        assert forked._blocks[0] is not sched._blocks[0]
        assert forked._blocks[0].members == sched._blocks[0].members

    def test_forked_schedule_times_identically(self):
        wl = MoEWorkload.build(128, 512, 2048, 16)
        sched = wl.schedule_overlapped()
        pcm = ProgramCostModel(Cluster(1))
        assert pcm.time(sched.fork()) == pcm.time(sched)


class TestBaselineMode:
    def test_default_uses_heap_engine_and_memo(self):
        assert type(ProgramCostModel(Cluster(1)).engine) is Engine
        metrics = MetricsRegistry()
        wl, cluster = _suite()[0]
        Autotuner(cluster, metrics=metrics).tune(wl.program)
        assert metrics.get("cost_model.memo_hits") > 0


if __name__ == "__main__":
    with open(GOLDEN_TIMES, "w") as f:
        json.dump(
            {"cost_model_version": COST_MODEL_VERSION,
             "times": _tuned_times()},
            f, indent=1, sort_keys=True,
        )
        f.write("\n")
