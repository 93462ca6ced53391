"""Tests for timeline rendering, utilization and critical path."""

import pytest

from repro.cluster import Cluster
from repro.core import FP16, RANK, AllReduce, Execute, MatMul, Sliced, Tensor, world
from repro.core.transforms import Schedule
from repro.perf import Engine, ProgramCostModel, Task
from repro.perf.timeline import render_gantt, resource_utilization


def critical_path(timeline, tasks):
    """One chain of tasks whose spans cover the makespan end to end.

    Walks back from the task finishing last through the dependency (or
    same-resource predecessor) that determined its start time.
    """
    if not timeline.spans:
        return []
    by_name = {t.name: t for t in tasks}
    current = max(timeline.spans, key=lambda n: timeline.spans[n][1])
    path = [current]
    while True:
        task = by_name[current]
        start = timeline.start(current)
        if start <= 0.0:
            break
        blocker = None
        # a dependency that finishes exactly when we start
        for d in task.deps:
            if abs(timeline.end(d) - start) < 1e-12:
                blocker = d
                break
        if blocker is None:
            # otherwise the previous occupant of our resource
            candidates = [
                t.name
                for t in tasks
                if t.resource == task.resource
                and t.name in timeline.spans
                and abs(timeline.end(t.name) - start) < 1e-12
                and t.name != current
            ]
            blocker = candidates[0] if candidates else None
        if blocker is None:
            break
        path.append(blocker)
        current = blocker
    path.reverse()
    return path


@pytest.fixture
def simple_timeline():
    tasks = [
        Task("produce", "compute", 2.0),
        Task("consume", "network", 3.0, ("produce",)),
        Task("other", "compute", 1.0, ("produce",)),
    ]
    return Engine().run(tasks), tasks


class TestGantt:
    def test_renders_all_resources(self, simple_timeline):
        tl, tasks = simple_timeline
        text = render_gantt(tl, tasks)
        assert "compute" in text and "network" in text

    def test_header_has_makespan(self, simple_timeline):
        tl, tasks = simple_timeline
        assert "makespan" in render_gantt(tl, tasks)

    def test_empty_timeline(self):
        from repro.perf.engine import Timeline

        assert "empty" in render_gantt(Timeline(), [])

    def test_max_rows(self, simple_timeline):
        tl, tasks = simple_timeline
        text = render_gantt(tl, tasks, max_rows=1)
        assert text.count("|") == 2  # one row only

    def test_width_respected(self, simple_timeline):
        tl, tasks = simple_timeline
        for line in render_gantt(tl, tasks, width=40).splitlines()[1:]:
            assert len(line.split("|")[1]) == 40


class TestUtilization:
    def test_busy_fractions(self, simple_timeline):
        tl, tasks = simple_timeline
        util = resource_utilization(tl, tasks)
        # makespan 5.0: compute busy 3.0, network busy 3.0
        assert util["compute"] == pytest.approx(3.0 / 5.0)
        assert util["network"] == pytest.approx(3.0 / 5.0)

    def test_overlap_uses_resources_simultaneously(self):
        """§3.4's goal measured: overlapping raises joint utilization."""
        def build():
            W = world(16)
            a = Tensor(FP16, (16384, 12288), Sliced(1), W, RANK, name="a")
            w = Tensor(FP16, (12288, 3072), Sliced(0), W, RANK, name="w")
            mm = MatMul(a, w, name="mm")
            ar = AllReduce("+", mm, name="ar")
            return Execute("p", [a, w], [ar]), mm, ar

        cluster = Cluster(1)
        prog, mm, ar = build()
        pcm = ProgramCostModel(cluster)
        tl_seq, tasks_seq = pcm.timeline(prog)
        util_seq = resource_utilization(tl_seq, tasks_seq)

        prog2, mm2, ar2 = build()
        sched = Schedule(prog2)
        sched.overlap(mm2, ar2)
        tl_ovl, tasks_ovl = ProgramCostModel(cluster).timeline(sched)
        util_ovl = resource_utilization(tl_ovl, tasks_ovl)
        fabric_seq = max(
            v for k, v in util_seq.items() if k.startswith("fabric")
        )
        fabric_ovl = max(
            v for k, v in util_ovl.items() if k.startswith("fabric")
        )
        assert fabric_ovl > fabric_seq


class TestCriticalPath:
    def test_follows_dependency_chain(self, simple_timeline):
        tl, tasks = simple_timeline
        path = critical_path(tl, tasks)
        assert path == ["produce", "consume"]

    def test_resource_serialization_in_path(self):
        tasks = [
            Task("a", "r", 2.0),
            Task("b", "r", 3.0),
        ]
        tl = Engine().run(tasks)
        path = critical_path(tl, tasks)
        assert path == ["a", "b"]

    def test_empty(self):
        from repro.perf.engine import Timeline

        assert critical_path(Timeline(), []) == []

    def test_path_spans_makespan(self, simple_timeline):
        tl, tasks = simple_timeline
        path = critical_path(tl, tasks)
        assert tl.end(path[-1]) == pytest.approx(tl.makespan)
        assert tl.start(path[0]) == pytest.approx(0.0)
