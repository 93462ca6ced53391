"""The unified tracing & metrics layer (:mod:`repro.observe`).

Four fronts:

* the typed event schema and :class:`Tracer` recording primitives,
* Perfetto ``trace_event`` export — including a hypothesis round-trip
  property (arbitrary typed events export to a schema-valid document
  that survives JSON serialization) and span-nesting checks against the
  lowering's dependency edges on a real measured run,
* the per-rank trace rings in the launch's shared memory: merge at 4
  real SPMD ranks on the tracer's clock, wrap-around/drop accounting,
  and the faulty-teardown harvest (a rank dying mid-collective leaves a
  mergeable timeline and structured error context, with no
  shared-memory leak and no file),
* predicted-vs-measured alignment and the autotuner/cost-model metrics
  flowing through the same registry.
"""

import json
import mmap
import os
import sys
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import FP32
from repro.core.autotuner import Autotuner
from repro.core.codegen import CodeGenerator
from repro.core.transforms import Schedule
from repro.observe import (
    CounterEvent,
    InstantEvent,
    MetricsRegistry,
    SpanEvent,
    Tracer,
    compare_timelines,
    describe_events,
    export,
    merge_rank_traces,
    validate,
    write_trace,
)
from repro.observe.ring import KIND_KERNEL, KIND_PUBLISH, TraceRing
from repro.perf.engine import Task, Timeline
from repro.runtime import Executor, FaultPlan
from repro.runtime.rank import SpmdWorkerError
from repro.runtime.spmd import RankPool
from repro.workloads.adam import AdamWorkload
from repro.workloads.attention import AttentionWorkload
from repro.workloads.moe import MoEWorkload
from tests.spmd_leaks import spmd_segments, watch_sends


@pytest.fixture
def rng():
    return np.random.RandomState(0x59D0)


def optimizer_inputs(rng, n=4, N=64):
    return dict(
        g=rng.randn(n, N) * 0.1,
        p=rng.randn(N),
        m=rng.randn(N) * 0.01,
        v=np.abs(rng.randn(N)) * 0.01,
        lr=0.01,
        t=3.0,
    )


def adam_relower(ws):
    """An elastic recovery's ``relower``: Adam at ``ws`` ranks."""
    return AdamWorkload.build(64, ws).program, optimizer_inputs(
        np.random.RandomState(1), n=ws
    )


def attention_inputs(rng, hidden=16, batch=4, seq=8):
    return {
        "w": rng.randn(hidden, hidden),
        "b": rng.randn(hidden),
        "in": rng.randn(batch, seq, hidden),
        "r": rng.randn(batch, seq, hidden),
    }


class TestTracer:
    def test_span_records_interval_on_track(self):
        tr = Tracer()
        with tr.span("work", cat="launch", tid="s0", step=3):
            pass
        (ev,) = tr.events
        assert isinstance(ev, SpanEvent)
        assert (ev.name, ev.cat, ev.pid, ev.tid) == (
            "work", "launch", "main", "s0"
        )
        assert ev.dur >= 0 and ev.end == ev.ts + ev.dur
        assert ev.args == {"step": 3}

    def test_now_is_perf_counter_less_the_epoch(self):
        tracer = Tracer()
        before = time.perf_counter() - tracer.epoch
        now = tracer.now()
        after = time.perf_counter() - tracer.epoch
        assert 0.0 <= before <= now <= after

    def test_span_records_even_when_body_raises(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("x")
        assert [e.name for e in tr.events] == ["boom"]

    def test_complete_instant_counter_and_filters(self):
        tr = Tracer(pid="rank0")
        tr.complete("k", ts=1.0, dur=0.5, cat="kernel", tid="kernels")
        tr.instant("pack", cat="pack", args={"buckets": 2})
        tr.counter("bytes_published", 128.0)
        assert [type(e) for e in tr.events] == [
            SpanEvent, InstantEvent, CounterEvent
        ]
        assert [e.name for e in tr.spans()] == ["k"]
        assert tr.spans(cat="kernel")[0].pid == "rank0"
        assert tr.spans(cat="nope") == []

    def test_describe_events_lists_spans_in_start_order(self):
        tr = Tracer()
        tr.complete("later", ts=2.0, dur=1.0, tid="s1")
        tr.complete("earlier", ts=0.5, dur=0.25, tid="s0")
        text = describe_events(tr.events)
        assert text.index("earlier") < text.index("later")
        assert "[main/s0]" in text
        assert describe_events(tr.events, limit=1).count("\n") == 0


class TestMetricsRegistry:
    def test_inc_set_get_snapshot(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 2)
        m.set("b", 0.5)
        assert m.get("a") == 3
        assert "a" in m and "zzz" not in m
        snap = m.snapshot()
        assert snap == {"a": 3, "b": 0.5}
        snap["a"] = 99  # snapshot is a copy
        assert m.get("a") == 3

    def test_merge_and_describe(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("shared", 1)
        b.inc("shared", 2)
        b.set("only_b", 7)
        a.merge(b)
        assert a.get("shared") == 3 and a.get("only_b") == 7
        assert "shared" in a.describe()


# -- Perfetto export -----------------------------------------------------

_names = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=1, max_size=12,
)
_times = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
_events = st.one_of(
    st.builds(
        SpanEvent, name=_names, cat=_names, ts=_times, dur=_times,
        pid=_names, tid=_names,
        args=st.dictionaries(_names, st.integers(), max_size=2),
    ),
    st.builds(
        InstantEvent, name=_names, cat=_names, ts=_times,
        pid=_names, tid=_names,
    ),
    st.builds(
        CounterEvent, name=_names, ts=_times,
        value=st.floats(allow_nan=False, allow_infinity=False),
        pid=_names, tid=_names,
    ),
)


class TestPerfettoExport:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(_events, max_size=20))
    def test_export_roundtrip_is_schema_valid(self, events):
        doc = json.loads(json.dumps(export(events)))
        assert validate(doc) == []
        timed = [e for e in doc["traceEvents"] if e["ph"] in ("X", "i", "C")]
        # one trace_event per typed event, names preserved
        assert [e["name"] for e in timed] == [e.name for e in events]

    def test_validate_flags_broken_documents(self):
        assert validate({}) == ["traceEvents missing or not a list"]
        doc = export([SpanEvent("k", "kernel", 0.0, 1.0, "main", "s0")])
        doc["traceEvents"][-1]["dur"] = -1.0
        assert any("bad dur" in p for p in validate(doc))
        doc = export([SpanEvent("k", "kernel", 0.0, 1.0, "main", "s0")])
        doc["traceEvents"] = [
            e for e in doc["traceEvents"] if e["ph"] != "M"
        ]
        assert any("metadata" in p for p in validate(doc))

    def test_write_trace_produces_loadable_file(self, tmp_path, rng):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        tracer = Tracer()
        Executor().run_lowered(
            wl.schedule_coconet(), attention_inputs(rng),
            allow_downcast=True, tracer=tracer,
        )
        path = tmp_path / "run.trace.json"
        write_trace(tracer.events, str(path))
        doc = json.loads(path.read_text())
        assert validate(doc) == []
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_launch_spans_respect_dependency_edges(self, rng):
        """Every dep edge carried in a launch span's args holds on the
        measured timeline: the dependency ends before the user starts.
        An overlap group's members each record one launch span, in the
        loop's entry order."""
        moe_inputs = {
            "x": rng.randn(4, 4, 3, 6),
            "w1": rng.randn(4, 6, 8),
            "w2": rng.randn(4, 8, 6),
        }
        cases = [
            (Schedule(AdamWorkload.build(64, 4).program),
             optimizer_inputs(rng), 0),
            (AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
             .schedule_coconet(), attention_inputs(rng), 1),
            (MoEWorkload.build(3, 6, 8, world_size=4, dtype=FP32)
             .schedule_overlapped(), moe_inputs, 1),
        ]
        for sched, inputs, num_loops in cases:
            tracer = Tracer()
            Executor().run_lowered(
                sched, inputs, allow_downcast=True, tracer=tracer,
            )
            spans = tracer.spans(cat="launch")
            by_name = {e.name: e for e in spans}
            checked = 0
            for ev in spans:
                for dep in ev.args.get("deps", ()):
                    if dep in by_name:
                        assert by_name[dep].end <= ev.ts + 1e-9, (
                            f"{dep} must finish before {ev.name} starts"
                        )
                        checked += 1
            assert checked > 0
            loops = sched.lowered().chunk_loops()
            assert len(loops) == num_loops
            names = [e.name for e in spans]
            for loop in loops:
                members = list(loop.member_names)
                assert [n for n in names if n in members] == members


# -- trace rings and SPMD merge ------------------------------------------

def _ring(capacity=8):
    """A ring over a fresh zeroed in-memory buffer."""
    return TraceRing(bytearray(TraceRing.nbytes(capacity)), capacity=capacity)


class TestTraceRing:
    def test_append_records_roundtrip(self):
        buf = bytearray(TraceRing.nbytes(8))
        ring = TraceRing(buf, capacity=8)
        ring.append(KIND_PUBLISH, ts=100, dur=5, nbytes=64, seq=2,
                    site="g0x4", name="avg")
        ring.close()
        # a second ring over the same bytes reads what the first wrote
        reader = TraceRing(buf, capacity=8)
        assert reader.count == 1 and reader.dropped == 0
        (rec,) = reader.records()
        assert int(rec["kind"]) == KIND_PUBLISH
        assert (int(rec["ts"]), int(rec["dur"]), int(rec["nbytes"]),
                int(rec["seq"])) == (100, 5, 64, 2)
        assert rec["site"] == b"g0x4" and rec["name"] == b"avg"
        reader.close()

    def test_wraparound_keeps_newest_and_counts_drops(self):
        ring = _ring(capacity=4)
        for i in range(6):
            ring.append(KIND_KERNEL, ts=i, dur=1, seq=i)
        assert ring.count == 6 and ring.dropped == 2
        recs = ring.records()
        assert [int(r["seq"]) for r in recs] == [2, 3, 4, 5]
        ring.close()

    def test_rings_at_offsets_share_one_buffer(self):
        size = TraceRing.nbytes(4)
        buf = bytearray(3 * size)
        rings = [TraceRing(buf, r * size, capacity=4) for r in range(3)]
        for r, ring in enumerate(rings):
            for i in range(r + 1):
                ring.append(KIND_KERNEL, ts=i, dur=1, seq=r)
        assert [ring.count for ring in rings] == [1, 2, 3]
        assert [
            {int(rec["seq"]) for rec in ring.records()} for ring in rings
        ] == [{0}, {1}, {2}]

    def test_merge_places_records_on_the_tracer_clock(self):
        tracer = Tracer()
        ring = _ring()
        start = time.perf_counter_ns()
        ring.append(KIND_PUBLISH, ts=start, dur=1_000_000,
                    nbytes=32, seq=0, site="g0x4", name="avg")
        events = merge_rank_traces(
            [ring, _ring()], tracer.epoch, tracer.metrics
        )
        spans = [e for e in events if isinstance(e, SpanEvent)]
        (ev,) = spans
        # the record's perf_counter reading, less the tracer's epoch
        assert ev.ts == pytest.approx(start / 1e9 - tracer.epoch, abs=1e-6)
        assert 0.0 <= ev.ts <= tracer.now()
        assert ev.pid == "rank0" and ev.cat == "publish"
        assert ev.args["site"] == "g0x4" and ev.args["bytes"] == 32
        counters = [e for e in events if isinstance(e, CounterEvent)]
        assert counters and counters[0].name == "bytes_published"
        assert tracer.metrics.get("spmd.rank0.bytes_published") == 32
        # the empty ring is tagged, not silently skipped
        instants = [e for e in events if isinstance(e, InstantEvent)]
        assert any(
            e.name == "ring-empty" and e.pid == "rank1" for e in instants
        )
        assert tracer.metrics.get("spmd.rank1.ring_empty") == 1
        assert tracer.metrics.get("spmd.rank1.bytes_published") == 0

    def test_status_markers_are_stamped_at_the_merge(self):
        tracer = Tracer()
        wrapped = _ring(capacity=2)
        for _ in range(3):
            wrapped.append(KIND_KERNEL, ts=time.perf_counter_ns(), dur=1)
        before = tracer.now()
        events = merge_rank_traces([_ring(), wrapped], tracer.epoch)
        after = tracer.now()
        markers = {
            e.name: e for e in events if isinstance(e, InstantEvent)
        }
        assert set(markers) == {"ring-empty", "ring-truncated"}
        assert all(before <= e.ts <= after for e in markers.values())

    def test_record_format_is_pinned(self):
        # numpy's RECORD_DTYPE wrote these 112 bytes before the ring
        # became a struct: five little-endian int64s, then the site key
        # and the name NUL-padded to 24 and 48 bytes, truncated, with
        # non-ASCII replaced. A C writer must keep this format.
        buf = bytearray(TraceRing.nbytes(2))
        ring = TraceRing(buf, capacity=2)
        ring.append(
            KIND_PUBLISH, ts=1_700_000_000_123_456_789, dur=250_000,
            nbytes=4096, seq=3, site="g0x4:abcdefghijklmnopqrstuvw",
            name="chunk3 of allreduce \u00b5 " + "z" * 40,
        )
        assert buf[:8] == (1).to_bytes(8, "little")
        assert buf[8:120].hex() == (
            "0100000000000000" "15cd853dfe9c9717" "90d0030000000000"
            "0010000000000000" "0300000000000000"
            "673078343a6162636465666768696a6b6c6d6e6f70717273"
            "6368756e6b33206f6620616c6c726564756365203f207a7a"
            "7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a"
        )
        (rec,) = ring.records()
        assert rec["site"] == b"g0x4:abcdefghijklmnopqrs"
        assert rec["name"] == b"chunk3 of allreduce ? " + b"z" * 26

    def test_threads_sharing_a_ring_lose_no_record(self):
        # an overlap schedule's producer stream appends publish records
        # while the main thread appends waits and reduces
        ring = TraceRing(bytearray(TraceRing.nbytes()))
        per_thread = 10_000

        def append(name):
            for i in range(per_thread):
                ring.append(KIND_KERNEL, ts=i, dur=1, seq=i, name=name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=append, args=(name,))
                for name in ("a", "b")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert ring.count == 2 * per_thread
        assert sorted(
            (rec["name"], int(rec["seq"])) for rec in ring.records()
        ) == [(n, i) for n in (b"a", b"b") for i in range(per_thread)]

    def test_close_releases_the_mapping(self):
        with mmap.mmap(-1, TraceRing.nbytes(4)) as buf:
            ring = TraceRing(buf, capacity=4)
            ring.append(KIND_KERNEL, ts=1, dur=1)
            ring.close()
        # the mapping closed: the ring's arrays no longer pin it
        assert buf.closed


class TestSpmdTracing:
    """Per-rank timelines from real processes, merged by the parent."""

    def test_four_rank_run_merges_per_rank_timelines(self, rng):
        wl = AdamWorkload.build(64, 4)
        tracer = Tracer()
        Executor().run_spmd(
            wl.program, optimizer_inputs(rng), allow_downcast=True,
            tracer=tracer,
        )
        spans = tracer.spans()
        assert {e.pid for e in spans} >= {f"rank{r}" for r in range(4)}
        assert {e.cat for e in spans} >= {
            "kernel", "publish", "reduce", "wait"
        }
        # the fused allreduce publishes the same gradient bytes per rank
        snap = tracer.metrics.snapshot()
        published = [
            snap[f"spmd.rank{r}.bytes_published"] for r in range(4)
        ]
        assert len(set(published)) == 1 and published[0] > 0
        counters = [
            e for e in tracer.events if isinstance(e, CounterEvent)
        ]
        assert {e.pid for e in counters} == {f"rank{r}" for r in range(4)}
        assert validate(export(tracer.events)) == []

    @pytest.mark.skipif(
        sys.platform != "linux", reason="/proc/self/fd is Linux-only"
    )
    def test_faulty_rank_teardown_still_harvests_trace(
        self, tmp_path, rng, monkeypatch
    ):
        """A rank dying mid-collective leaves its ring merged into the
        observer, a structured error context, and no shared-memory leak
        or file."""
        wl = AdamWorkload.build(64, 4)
        gen = CodeGenerator(target="spmd").generate(wl.program)
        source = gen.source.replace(
            '"""collective kernel: avg"""',
            '"""collective kernel: avg"""\n'
            "    if comm.rank == 1:\n"
            "        raise RuntimeError('injected kernel fault')",
            1,
        )
        assert "injected kernel fault" in source
        gen.source = source
        # a launch that wrote a file would leave it under tmp_path
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        tracer = Tracer()
        before = set(spmd_segments())
        with RankPool() as pool:
            with pytest.raises(SpmdWorkerError, match="rank 1") as err:
                pool.launch(
                    gen, optimizer_inputs(rng), allow_downcast=True,
                    timeout=30.0, observer=tracer,
                )
        assert err.value.context["rank"] == 1
        assert err.value.context["op"] == "avg"
        assert "op 'avg'" in str(err.value)
        assert set(spmd_segments()) == before
        # merged in the launch's teardown, from shared memory
        assert list(tmp_path.iterdir()) == []
        for r in range(4):
            assert tracer.metrics.get(f"spmd.rank{r}.events") > 0

        spans = [e for e in tracer.events if isinstance(e, SpanEvent)]
        # every rank's, and the parent's placement before the failure
        assert {e.pid for e in spans} == {f"rank{r}" for r in range(4)} | {
            tracer.pid
        }
        assert [e.name for e in spans if e.pid == tracer.pid] == ["place"]
        # the failing rank's kernel span was recorded on the way out
        rank1_kernels = [
            e.name for e in spans if e.pid == "rank1" and e.cat == "kernel"
        ]
        assert "avg" in rank1_kernels
        # the survivors' blocked waits are visible too
        assert any(
            e.cat == "wait" and e.pid != "rank1" for e in spans
        )

    @pytest.mark.parametrize("target", ["spmd", "native"])
    def test_rank_events_lie_between_spec_send_and_return(
        self, target, rng, monkeypatch
    ):
        """Rank records are merged on the tracer's clock: none is drawn
        before the parent sent the first spec, or after the launch."""
        from repro.core.codegen import native

        if target == "native" and not native.available():
            pytest.skip("no C compiler on PATH")
        tracer = Tracer()
        sent = []
        watch_sends(monkeypatch, lambda: sent.append(tracer.now()))
        wl = AdamWorkload.build(64, 4)
        with Executor() as ex:
            for _ in range(2):
                first = len(tracer.events)
                sent.clear()
                ex.run_spmd(
                    wl.schedule_fused(), optimizer_inputs(rng),
                    allow_downcast=True, tracer=tracer,
                    codegen_target=target,
                )
                returned = tracer.now()
                ranked = [
                    e for e in tracer.events[first:]
                    if str(e.pid).startswith("rank")
                ]
                assert {e.pid for e in ranked} == {
                    f"rank{r}" for r in range(4)
                }
                assert min(e.ts for e in ranked) >= sent[0]
                assert max(
                    e.ts + getattr(e, "dur", 0.0) for e in ranked
                ) <= returned

    def test_recovery_rank_events_follow_its_spec_send(
        self, rng, monkeypatch
    ):
        """An elastic recovery's rank tracks are merged on the tracer's
        clock too: after the recovery's own first spec send."""
        tracer = Tracer()
        sends = []  # (tracer time, events merged so far) per spec
        watch_sends(
            monkeypatch,
            lambda: sends.append((tracer.now(), len(tracer.events))),
        )
        with Executor() as ex:
            res = ex.run_spmd(
                AdamWorkload.build(64, 4).program, optimizer_inputs(rng),
                allow_downcast=True, tracer=tracer, timeout=30.0,
                soft_timeout=0.5, elastic=True, relower=adam_relower,
                fault_plan=FaultPlan(seed=11).die(1, at_site="g"),
            )
        returned = tracer.now()
        assert res.elastic["world_size"] == 3
        # the failed launch sent 4 specs and merged its rings before
        # the recovery sent its first
        sent, merged = sends[4]
        assert merged > sends[3][1]
        recovery = [
            e for e in tracer.events[merged:]
            if str(e.pid).startswith("rank")
        ]
        assert {e.pid for e in recovery} == {"rank0", "rank1", "rank2"}
        assert sent <= min(e.ts for e in recovery)
        assert max(e.ts for e in recovery) <= returned

    @pytest.mark.skipif(
        sys.platform != "linux", reason="/proc/self/fd is Linux-only"
    )
    def test_traced_launch_opens_no_fd_but_sockets_and_segments(
        self, rng, monkeypatch
    ):
        """While the ranks run, the parent holds its rank sockets and
        the pool's two memfds: no trace file, directory or mapping."""

        def links():
            out = set()
            for fd in os.listdir("/proc/self/fd"):
                try:
                    out.add(os.readlink(f"/proc/self/fd/{fd}"))
                except OSError:
                    continue
            return out

        before = links()
        opened = set()
        watch_sends(monkeypatch, lambda: opened.update(links() - before))
        with Executor() as ex:
            ex.run_spmd(
                AdamWorkload.build(64, 4).program, optimizer_inputs(rng),
                allow_downcast=True, tracer=Tracer(),
            )
        assert opened, "no spec was sent"
        assert {
            link for link in opened if not link.startswith("socket:")
        } == {"/memfd:spmd-data (deleted)", "/memfd:spmd-flags (deleted)"}

    def test_traced_launches_write_no_file(self, tmp_path, rng, monkeypatch):
        """A traced launch, a failed traced launch and an elastic traced
        recovery create nothing in the temporary directory, not even
        while the ranks run."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        seen = []
        watch_sends(monkeypatch, lambda: seen.extend(tmp_path.iterdir()))
        die = FaultPlan(seed=11).die(1, at_site="g")
        tracer = Tracer()
        wl = AdamWorkload.build(64, 4)
        with Executor() as ex:
            ex.run_spmd(
                wl.program, optimizer_inputs(rng), allow_downcast=True,
                tracer=tracer,
            )
            with pytest.raises(SpmdWorkerError):
                ex.run_spmd(
                    wl.program, optimizer_inputs(rng), allow_downcast=True,
                    tracer=tracer, fault_plan=die, timeout=30.0,
                )
            res = ex.run_spmd(
                wl.program, optimizer_inputs(rng), allow_downcast=True,
                tracer=tracer, fault_plan=die, timeout=30.0,
                soft_timeout=0.5, elastic=True, relower=adam_relower,
            )
        assert res.elastic["world_size"] == 3
        assert seen == [] and list(tmp_path.iterdir()) == []
        # the dead rank's marker was harvested from shared memory
        assert any(
            isinstance(e, InstantEvent) and e.name == "die"
            for e in tracer.events
        )


# -- predicted vs measured -----------------------------------------------

class TestCompare:
    def test_chunk_spans_fold_into_base_kernel(self):
        # the DES prices an overlap member as chunk tasks ``mm#c<n>``;
        # the interpreter measures it as one whole launch
        tl = Timeline(spans={
            "mm#c0": (0.0, 1e-3), "mm#c1": (1e-3, 2e-3),
            "ghost": (0.0, 1e-3),
        })
        events = [
            SpanEvent("mm", "launch", 0.0, 4e-3, "main", "s0"),
            SpanEvent("extra", "launch", 0.0, 1e-3, "main", "s0"),
            SpanEvent("ignored", "comm", 0.0, 1e-3, "main", "s0"),
        ]
        cmp = compare_timelines(tl, events)
        row = cmp.row("mm")
        assert row.predicted == pytest.approx(2e-3)
        assert row.spans == 1
        assert row.ratio == pytest.approx(2.0)
        assert row.log_error == pytest.approx(1.0)
        assert cmp.only_predicted == ["ghost"]
        assert cmp.only_measured == ["extra"]

    def test_zero_prediction_gives_inf_ratio(self):
        tl = Timeline(spans={"k": (0.0, 0.0)})
        cmp = compare_timelines(
            tl, [SpanEvent("k", "launch", 0.0, 1.0, "main", "s0")]
        )
        assert cmp.row("k").ratio == float("inf")
        assert "inf" in cmp.describe()

    def test_top_mispredictions_ranked_by_log_error(self):
        tl = Timeline(spans={
            "good": (0.0, 1e-3), "over": (0.0, 8e-3), "under": (0.0, 1e-3),
        })
        events = [
            SpanEvent("good", "launch", 0.0, 1e-3, "main", "s0"),
            SpanEvent("over", "launch", 0.0, 1e-3, "main", "s0"),
            SpanEvent("under", "launch", 0.0, 16e-3, "main", "s0"),
        ]
        cmp = compare_timelines(tl, events)
        # 16x underestimate beats 8x overestimate beats 1x
        assert [r.name for r in cmp.top_mispredictions(3)] == [
            "under", "over", "good"
        ]
        assert "misprediction" in cmp.describe()

    def test_timeline_to_events_speaks_the_event_schema(self):
        tasks = [
            Task("a", "gpu:0", 1e-3),
            Task("b", "nic:0", 2e-3, deps=("a",)),
        ]
        from repro.perf.engine import Engine

        tl = Engine().run(tasks)
        events = tl.to_events(tasks)
        assert [e.name for e in events] == ["a", "b"]
        assert all(e.cat == "predicted" for e in events)
        assert events[1].tid == "nic:0"
        assert events[1].args["deps"] == ["a"]
        assert validate(export(events)) == []

    def test_measured_run_aligns_with_cost_model(self, rng):
        from repro.perf.program_cost import ProgramCostModel

        wl = AdamWorkload.build(64, 4)
        sched = Schedule(wl.program)
        tracer = Tracer()
        Executor().run_lowered(
            sched, optimizer_inputs(rng), allow_downcast=True,
            tracer=tracer,
        )
        timeline, _ = ProgramCostModel(Cluster(1)).timeline(sched)
        cmp = compare_timelines(timeline, tracer.events)
        assert cmp.rows, "no ops aligned between DES and measured trace"
        assert all(r.measured > 0 and r.predicted > 0 for r in cmp.rows)


class TestTunerMetrics:
    def test_autotuner_counters_flow_through_registry(self):
        metrics = MetricsRegistry()
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32,
                                     dropout_seed=6)
        result = Autotuner(Cluster(1), metrics=metrics).tune(wl.program)
        assert result.metrics is metrics
        snap = metrics.snapshot()
        assert snap["tuner.candidates"] >= 1
        assert snap["tuner.candidates"] == len(result.candidates)
        assert snap.get("tuner.dedup_hits", 0) >= 0
        assert 0.0 <= snap["cost_model.memo_hit_rate"] <= 1.0

    def test_untracked_tune_has_no_registry(self):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32,
                                     dropout_seed=6)
        result = Autotuner(Cluster(1)).tune(wl.program)
        assert result.metrics is None
