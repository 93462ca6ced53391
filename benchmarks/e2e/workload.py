"""One workload of the end-to-end benchmark, run in a process of its own.

``run.py`` starts this file with one JSON argument and reads the lines
it prints that start with ``E2E `` (a JSON message each); every other
line passes through. Each process is one user's training script: it
builds the DSL program, tunes it through a fresh schedule cache (as
``repro-serve tune`` does), serializes the tuned schedule with
``artifact.dumps`` / ``loads``, and runs steps with
``Executor.run_spmd(artifact, inputs, codegen_target="native")``,
which spawns one process per rank and runs compiled kernels.

Modes (``cfg["mode"]``):

* ``setup`` — set up on cold caches and run the first step, then send
  ``setup`` (``run.py`` times set-up from process start to that
  message), and check the step against the ``run_lowered`` oracle.
* ``loop`` — the same, then warm up and run the timed closed loop
  between ``loop_start`` and ``loop_end`` (``run.py`` samples memory
  in that window). A bare launch of two interpreters
  (``stats.bare_launch_s``) goes before every step.
* ``traced`` — the per-layer pass: the same set-up with a span around
  every layer call, the tuner's pick measured against the workload's
  named schedules, then steps with ``run_spmd(tracer=...)`` alternating
  with untraced ones. Writes one Perfetto file.

Every step's outputs and final tensor states are checked against the
oracle: bit for bit on elementwise-only programs, within the
documented BLAS tolerance where the program has GEMMs.

Spawned rank processes import this file again as ``__mp_main__``, so
module level holds only standard-library imports and definitions.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

PREFIX = "E2E "
WORLD_SIZE = 2
#: rendezvous timeout of one launch; a step of any workload here takes
#: under 3 s, so a hang fails the step long before run.py's deadline
STEP_TIMEOUT = 30.0
WARMUP_STEPS = 2
SMOKE_STEPS = 5
REGRET_ROUNDS = 3


# ---------------------------------------------------------------------------
# The workloads.
# ---------------------------------------------------------------------------


def _attention(world_size: int, smoke: bool):
    from repro.workloads.attention import AttentionWorkload

    batch, seq, hidden = (2, 16, 64) if smoke else (4, 64, 256)
    return AttentionWorkload.build(batch, seq, hidden, world_size)


def _adam(full: int, smoke_size: int):
    def build(world_size: int, smoke: bool):
        from repro.workloads.adam import AdamWorkload

        return AdamWorkload.build(smoke_size if smoke else full, world_size)

    return build


def _moe(world_size: int, smoke: bool):
    from repro.core.dtypes import FP32
    from repro.workloads.moe import MoEWorkload

    capacity, model_dim, ffn_dim = (32, 32, 64) if smoke else (512, 512, 2048)
    # FP32: numpy's FP16 GEMMs have no BLAS path, which would make the
    # run_lowered oracle several seconds long
    return MoEWorkload.build(
        capacity=capacity, model_dim=model_dim, ffn_dim=ffn_dim,
        world_size=world_size, dtype=FP32,
    )


@dataclass(frozen=True)
class Workload:
    """How to build a workload and how its outputs are checked.

    ``build(world_size, smoke)`` returns the workload object (with
    ``.program`` and ``.schedules()``). ``tol`` is ``(rtol, atol)`` for
    programs whose GEMMs go to BLAS, or ``None`` for bit-identity.
    ``elastic`` workloads lose rank 1 in every step and must recover at
    the smaller world size.
    """

    build: Callable
    tol: Optional[Tuple[float, float]]
    elastic: bool = False


WORKLOADS: Dict[str, Workload] = {
    "attn_mp_small": Workload(_attention, tol=(1e-2, 1e-3)),
    "adam_dp_large": Workload(_adam(1 << 22, 1 << 12), tol=None),
    "moe_ep_overlap": Workload(_moe, tol=(1e-5, 1e-7)),
    "adam_dp_elastic": Workload(
        _adam(1 << 16, 1 << 10), tol=None, elastic=True
    ),
}

def emit(event: str, **fields) -> None:
    print(PREFIX + json.dumps({"event": event, **fields}), flush=True)


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------


def reference_of(result, program) -> Dict[str, object]:
    """Every output and final tensor state of a result, by key."""
    from repro.core.tensor import Tensor

    ref = {f"out.{n}": result.output(n) for n in result.output_names}
    for t in program.inputs:
        if isinstance(t, Tensor):
            ref[f"state.{t.name}"] = result.tensor_state(t.name)
    return ref


def matches(result, reference, tol) -> bool:
    """Does ``result`` reproduce every array of ``reference``?"""
    import numpy as np

    from repro.errors import ExecutionError

    outputs = [k for k in reference if k.startswith("out.")]
    if len(result.output_names) != len(outputs):
        return False
    for key, want in reference.items():
        kind, name = key.split(".", 1)
        try:
            have = (
                result.output(name) if kind == "out"
                else result.tensor_state(name)
            )
        except ExecutionError:
            return False
        have, want = np.asarray(have), np.asarray(want)
        if have.shape != want.shape or have.dtype != want.dtype:
            return False
        if tol is None:
            if have.tobytes() != want.tobytes():
                return False
        elif not np.allclose(
            have.astype(np.float64), want.astype(np.float64),
            rtol=tol[0], atol=tol[1],
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# Traces: per-step layer totals and the per-layer self-time table.
# ---------------------------------------------------------------------------


class _Layer:
    """Times one call into a layer; records a span when tracing."""

    def __init__(self, tracer, name: str, cat: str) -> None:
        self.tracer, self.name, self.cat = tracer, name, cat
        self.seconds = 0.0

    def __enter__(self) -> "_Layer":
        if self.tracer is not None:
            self.ts = self.tracer.now()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self.t0
        if self.tracer is not None:
            self.tracer.complete(
                self.name, self.ts, self.seconds, cat=self.cat
            )


@dataclass
class StepTrace:
    """Rank-side totals of one traced step, from its merged ring events.

    Times are per-rank means over the ranks that took part (on the
    elastic workload: both ranks of the failed launch and the survivor
    of the recovery); counts and bytes are totals over the ranks.
    """

    kernel_s: float = 0.0
    wait_s: float = 0.0
    rank_load_s: float = 0.0
    publishes: int = 0
    bytes_published: int = 0
    compiles: int = 0

    @classmethod
    def of(cls, events) -> "StepTrace":
        from repro.observe import InstantEvent, SpanEvent

        out = cls()
        ranks = {e.pid for e in events if str(e.pid).startswith("rank")}
        n = max(1, len(ranks))
        for e in events:
            if isinstance(e, SpanEvent):
                if e.cat == "kernel":
                    out.kernel_s += e.dur / n
                elif e.cat == "wait":
                    out.wait_s += e.dur / n
                elif e.cat == "publish":
                    out.publishes += 1
                    out.bytes_published += int(e.args.get("bytes", 0))
            elif isinstance(e, InstantEvent) and e.cat == "compile":
                out.rank_load_s += float(e.args.get("seconds", 0.0)) / n
                if not e.name.startswith("hit:"):
                    out.compiles += 1
        return out


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_table(events) -> List[Dict[str, object]]:
    """Self time, count and bytes per layer, largest self time first.

    Host spans are keyed by the module (``cat``) and call (``name``)
    they time; rank spans from the per-rank rings are keyed by their
    record kind under ``repro.runtime.spmd[ranks]``. A span's self time
    is its duration minus the part of it that spans nested inside it,
    in the same process, cover.
    """
    from repro.observe import SpanEvent

    by_pid: Dict[str, List] = {}
    for e in events:
        if isinstance(e, SpanEvent):
            by_pid.setdefault(str(e.pid), []).append(e)
    rows: Dict[Tuple[str, str], Dict[str, object]] = {}
    for pid, spans in by_pid.items():
        spans.sort(key=lambda e: (e.ts, -e.dur))
        on_rank = pid.startswith("rank")
        for i, span in enumerate(spans):
            inner = []
            for j in range(i + 1, len(spans)):
                other = spans[j]
                if other.ts >= span.end:
                    break
                if other.end <= span.end:
                    inner.append((other.ts, other.end))
            key = (
                ("repro.runtime.spmd[ranks]", span.cat) if on_rank
                else (span.cat, span.name)
            )
            row = rows.setdefault(key, {
                "module": key[0], "call": key[1], "count": 0,
                "self_s": 0.0, "total_s": 0.0, "bytes": 0,
            })
            row["count"] += 1
            row["self_s"] += max(0.0, span.dur - _covered(inner))
            row["total_s"] += span.dur
            row["bytes"] += int(span.args.get("bytes", 0))
    return sorted(rows.values(), key=lambda r: -r["self_s"])


# ---------------------------------------------------------------------------
# One user's session: set-up, then steps.
# ---------------------------------------------------------------------------


class Session:
    """Build, tune, serialize, then run steps of one workload."""

    def __init__(self, cfg: Dict, tracer=None) -> None:
        self.cfg = cfg
        self.spec = WORKLOADS[cfg["workload"]]
        self.seed = int(cfg["seed"])
        self.smoke = bool(cfg.get("smoke"))
        self.tracer = tracer
        #: seconds of each set-up layer call, by span name
        self.timings: Dict[str, float] = {}
        self.reference = None

    def layer(self, name: str, cat: str) -> _Layer:
        return _Layer(self.tracer, name, cat)

    def timed(self, name: str, cat: str, fn):
        """Call ``fn()`` as one set-up layer call; keep its time."""
        with self.layer(name, cat) as lay:
            out = fn()
        self.timings[name] = lay.seconds
        return out

    def setup(self) -> None:
        from repro.cli import _seeded_inputs
        from repro.cluster.topology import Cluster
        from repro.core import artifact
        from repro.core.autotuner import Autotuner
        from repro.observe.metrics import MetricsRegistry
        from repro.runtime.executor import Executor
        from repro.serve.cache import ScheduleCache

        self.tune_metrics = MetricsRegistry()
        self.cluster = Cluster(1)
        self.cache = ScheduleCache(self.cfg["schedule_cache"])
        self.workload = self.timed(
            "workloads.build", "repro.workloads",
            lambda: self.spec.build(WORLD_SIZE, self.smoke),
        )
        tuner = Autotuner(
            self.cluster, schedule_cache=self.cache,
            metrics=self.tune_metrics if self.tracer else None,
        )
        self.tuned = self.timed(
            "autotuner.tune", "repro.core.autotuner",
            lambda: tuner.tune(self.workload.program),
        )
        record = self.cache.get(*self.tuned.cache_key)
        text = self.timed(
            "artifact.dumps", "repro.core.artifact", record.artifact.dumps
        )
        self.art = self.timed(
            "artifact.loads", "repro.core.artifact",
            lambda: artifact.loads(text),
        )
        self.artifact_bytes = len(text.encode())

        # input generation is the benchmark's, not the user path's:
        # run.py subtracts it from the set-up time
        t0 = time.perf_counter()
        self.inputs = _seeded_inputs(self.art.program, self.seed)
        self.input_s = time.perf_counter() - t0
        self.ex = Executor()
        self.run_kw: Dict[str, object] = {}
        if self.spec.elastic:
            from repro.runtime.faults import FaultPlan

            self.run_kw = dict(
                fault_plan=FaultPlan(seed=self.seed).die(1, at_site="g"),
                elastic=True, relower=self.relower,
            )

    def relower(self, world_size: int):
        """The workload re-tuned for ``world_size``, with its inputs."""
        from repro.cli import _seeded_inputs
        from repro.core.autotuner import Autotuner

        program = self.spec.build(world_size, self.smoke).program
        tuned = Autotuner(self.cluster, schedule_cache=self.cache).tune(
            program
        )
        art = self.cache.get(*tuned.cache_key).artifact
        return art, _seeded_inputs(art.program, self.seed)

    def compute_reference(self) -> None:
        """The ``run_lowered`` oracle every step must match."""
        if self.spec.elastic:
            # a step recovers at the survivors' world size
            art, inputs = self.relower(WORLD_SIZE - 1)
        else:
            art, inputs = self.art, self.inputs
        result = self.timed(
            "executor.run_lowered", "repro.runtime.executor",
            lambda: self.ex.run_lowered(art, inputs, allow_downcast=True),
        )
        self.reference = reference_of(result, art.program)

    def step(self, tracer=None):
        """One training step on the user's path.

        With ``tracer``, ``run_spmd`` records the ranks' ring buffers
        and merges them into it, on the elastic recovery path too.
        """
        result = self.ex.run_spmd(
            self.art, self.inputs, allow_downcast=True,
            timeout=STEP_TIMEOUT, codegen_target="native", tracer=tracer,
            **self.run_kw,
        )
        if self.spec.elastic:
            recovered = getattr(result, "elastic", None) or {}
            if recovered.get("world_size") != WORLD_SIZE - 1:
                raise RuntimeError("the step did not lose a rank and recover")
        return result

    def traced_step(self):
        """``(result, StepTrace)`` of one step with the tracer on."""
        first = len(self.tracer.events)
        with self.layer("executor.run_spmd", "repro.runtime.executor"):
            result = self.step(self.tracer)
        return result, StepTrace.of(self.tracer.events[first:])

    def check(self, result) -> bool:
        return matches(result, self.reference, self.spec.tol)


# ---------------------------------------------------------------------------
# The modes.
# ---------------------------------------------------------------------------


def environment() -> Dict[str, object]:
    """The machine and toolchain a result was measured on."""
    import platform

    import numpy

    from repro.core.codegen import native

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    toolchain = native.toolchain_report()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": toolchain["cc_version"],
        # the library's file name names the BLAS build
        "blas": toolchain["blas"] and os.path.basename(toolchain["blas"]),
    }


def _set_up(cfg: Dict):
    """Set up and run the checked first step; ``(session, errors)``.

    ``setup`` goes out the moment the first step returns, before the
    oracle runs, so ``run.py``'s set-up time ends there.
    """
    from stats import timed_call

    session = Session(cfg)
    session.setup()
    _, result, error = timed_call(session.step, lambda r: True)
    emit("setup", input_s=session.input_s)
    session.compute_reference()
    if error is None and not session.check(result):
        error = "output check failed"
    return session, [error] if error else []


def run_setup(cfg: Dict) -> None:
    _, errors = _set_up(cfg)
    emit("done", attempted=1, failed=len(errors), errors=errors)


def run_loop(cfg: Dict) -> None:
    from stats import bare_launch_s, closed_loop

    session, errors = _set_up(cfg)
    # each step alternates with a bare launch, which run.py divides by
    loop = dict(reference=bare_launch_s)
    warm = closed_loop(
        session.step, session.check,
        count=1 if session.smoke else WARMUP_STEPS, **loop,
    )
    emit("loop_start")
    if session.smoke:
        loop["count"] = SMOKE_STEPS
    else:
        loop["seconds"] = float(cfg["seconds"])
    timed = closed_loop(session.step, session.check, **loop)
    emit("loop_end")
    emit(
        "done",
        attempted=1 + warm.attempted + timed.attempted,
        failed=len(errors) + warm.failed + timed.failed,
        errors=(errors + warm.errors + timed.errors)[:5],
        times=timed.times,
        bare_launch=timed.reference,
        pick=session.tuned.best.name,
        env=environment(),
    )


def _pick_regret(session: Session, rounds: int):
    """Rank-body times of the tuner's pick and the named schedules.

    Returns ``(pick, bodies, attempted, errors)``; ``bodies`` maps a
    schedule to the rank-body seconds of its clean launches. Launches
    run round-robin, so drift spreads over every schedule alike.
    """
    from repro.core.artifact import Artifact
    from repro.core.lower import lower

    arts = {
        name: Artifact.from_lowered(lower(sched, cluster=session.cluster))
        for name, sched in session.workload.schedules().items()
    }
    pick = next(
        (n for n, a in arts.items()
         if a.structural_hash == session.art.structural_hash),
        None,
    )
    if pick is None:
        pick = f"tuned:{session.tuned.best.name}"
        arts[pick] = session.art
    # schedules name their outputs differently, so each launch is
    # checked against run_lowered of its own schedule (healthy, at the
    # full world size, on the elastic workload too)
    references = {
        name: reference_of(
            session.ex.run_lowered(art, session.inputs, allow_downcast=True),
            art.program,
        )
        for name, art in arts.items()
    }
    bodies: Dict[str, List[float]] = {name: [] for name in arts}
    attempted, errors = 0, []
    with session.layer("autotuner.pick_regret", "benchmark"):
        for _ in range(rounds):
            for name, art in arts.items():
                attempted += 1
                try:
                    result = session.ex.run_spmd(
                        art, session.inputs, allow_downcast=True,
                        timeout=STEP_TIMEOUT, codegen_target="native",
                    )
                except Exception as exc:  # noqa: BLE001 - counted
                    errors.append(f"{name}: {type(exc).__name__}")
                    continue
                if not matches(result, references[name], session.spec.tol):
                    errors.append(f"{name}: output check failed")
                    continue
                bodies[name].append(result.spmd_seconds)
    return pick, bodies, attempted, errors


def _median(values) -> Tuple[Optional[float], int]:
    """``(median, sample count)`` of ``values``."""
    values = list(values)
    return (statistics.median(values) if values else None), len(values)


def _ratio(num, den) -> Optional[float]:
    return num / den if num is not None and den else None


def run_traced(cfg: Dict) -> None:
    from repro.core.codegen import CodeGenerator, native
    from repro.core.lower import ChunkLoop, lower
    from repro.observe import Tracer, validate, write_trace

    from stats import timed_call

    tracer = Tracer()
    session = Session(cfg, tracer=tracer)
    session.setup()
    # calls the user path makes inside run_spmd and the rank processes,
    # made here once each so every layer is timed on its own
    lowered = session.timed(
        "lower.lower", "repro.core.lower",
        lambda: lower(session.tuned.best.schedule, cluster=session.cluster),
    )
    gen = session.timed(
        "codegen.generate", "repro.core.codegen",
        lambda: CodeGenerator(target="native").generate(session.art),
    )
    session.timed(
        "native.load_kernels", "repro.core.codegen.native",
        lambda: native.load_kernels(gen.c_source),
    )
    session.compute_reference()

    smoke = session.smoke
    pick, bodies, attempted, errors = _pick_regret(
        session, 1 if smoke else REGRET_ROUNDS
    )
    failed = len(errors)
    problems: List[str] = []
    medians = {n: statistics.median(b) for n, b in bodies.items() if b}
    if pick not in medians:
        problems.append("the tuner's pick never ran cleanly")

    # untraced and traced steps alternate, each going first in every
    # other pair, so drift hits both alike; the first pair warms up
    untraced: List[Tuple[float, object]] = []
    traced: List[StepTrace] = []
    ratios: List[float] = []
    pairs = 0
    deadline = time.perf_counter() + float(cfg["seconds"])
    while (pairs < 4) if smoke else (
        pairs < 4 or time.perf_counter() < deadline
    ):
        plain = (session.step, session.check)
        with_tracer = (
            session.traced_step, lambda out: session.check(out[0])
        )
        runs = {}
        for name, (run, check) in (
            (("plain", plain), ("traced", with_tracer)) if pairs % 2 == 0
            else (("traced", with_tracer), ("plain", plain))
        ):
            dt, out, error = timed_call(run, check)
            attempted += 1
            if error is not None:
                errors.append(f"{name}: {error}")
                failed += 1
            else:
                runs[name] = (dt, out)
        if pairs and len(runs) == 2:
            untraced.append(runs["plain"])
            dt, (_, info) = runs["traced"]
            traced.append(info)
            ratios.append(dt / runs["plain"][0])
        pairs += 1

    os.makedirs(os.path.dirname(cfg["trace_out"]), exist_ok=True)
    problems.extend(
        f"perfetto: {p}"
        for p in validate(write_trace(tracer.events, cfg["trace_out"]))[:5]
    )
    warm_compiles = sum(i.compiles for i in traced)
    if warm_compiles:
        problems.append(f"{warm_compiles} kernel compiles on warm steps")
    dropped = int(tracer.metrics.get("spmd.events_dropped"))
    if dropped:
        problems.append(f"{dropped} trace-ring records dropped")

    pick_body = medians.get(pick)
    n_pick = len(bodies.get(pick, ()))
    t = session.timings
    reg = session.tune_metrics
    candidates = reg.get("tuner.candidates")
    # (value, sample count): one call for each set-up layer, the pick's
    # launches for pick quality, the paired steps for the rest
    metrics = {
        "workloads.build_s": (t["workloads.build"], 1),
        "autotuner.tune_s": (t["autotuner.tune"], 1),
        "autotuner.candidates": (candidates, 1),
        "autotuner.candidates_per_s": (candidates / t["autotuner.tune"], 1),
        "autotuner.pruned": (reg.get("tuner.pruned"), 1),
        "autotuner.dedup_hits": (reg.get("tuner.dedup_hits"), 1),
        "autotuner.pick_regret": (
            _ratio(pick_body, min(medians.values(), default=None)), n_pick,
        ),
        "perf.memo_hit_rate": (reg.get("cost_model.memo_hit_rate"), 1),
        "perf.predicted_over_measured": (
            _ratio(session.tuned.best.time, pick_body), n_pick,
        ),
        "lower.lower_s": (t["lower.lower"], 1),
        "lower.instructions": (len(lowered.instructions), 1),
        "lower.chunk_loops": (
            sum(isinstance(i, ChunkLoop) for i in lowered.instructions), 1,
        ),
        "artifact.dumps_s": (t["artifact.dumps"], 1),
        "artifact.loads_s": (t["artifact.loads"], 1),
        "artifact.bytes": (session.artifact_bytes, 1),
        "codegen.generate_s": (t["codegen.generate"], 1),
        "codegen.module_lines": (len(gen.source.splitlines()), 1),
        "native.compile_s": (t["native.load_kernels"], 1),
        "native.c_lines": (len((gen.c_source or "").splitlines()), 1),
        "native.rank_load_s": _median(i.rank_load_s for i in traced),
        "executor.run_lowered_s": (t["executor.run_lowered"], 1),
        # launch figures come from the untraced steps, the user's path
        # as it runs without a tracer
        "spmd.launch_s": _median(dt for dt, _ in untraced),
        "spmd.rank_body_s": _median(r.spmd_seconds for _, r in untraced),
        "spmd.launch_overhead_s": _median(
            dt - r.spmd_seconds for dt, r in untraced
        ),
        "spmd.rank_skew": _median(
            max(r.spmd_rank_seconds.values())
            / min(r.spmd_rank_seconds.values())
            for _, r in untraced
        ),
        "spmd.kernel_s": _median(i.kernel_s for i in traced),
        "spmd.wait_s": _median(i.wait_s for i in traced),
        "spmd.publishes": _median(i.publishes for i in traced),
        "spmd.bytes_published": _median(i.bytes_published for i in traced),
        # median of per-pair ratios: robust to drift across the loop
        "observe.overhead_ratio": _median(ratios),
    }
    details: Dict[str, object] = {
        "pick": session.tuned.best.name,
        "predicted_step_s": session.tuned.best.time,
        "rank_body_medians_s": medians,
        "paired_steps": len(ratios),
    }
    if session.spec.elastic:
        recovery = [r.elastic["recovery_seconds"] for _, r in untraced]
        details["elastic.recovery_s"] = _median(recovery)[0]
        details["elastic.failed_launch_s"] = _median(
            dt - s for (dt, _), s in zip(untraced, recovery)
        )[0]
    emit(
        "done",
        attempted=attempted,
        failed=failed,
        errors=errors[:5],
        problems=problems,
        metrics=metrics,
        table=layer_table(tracer.events),
        details=details,
        env=environment(),
    )


MODES = {"setup": run_setup, "loop": run_loop, "traced": run_traced}


def main(argv: List[str]) -> int:
    cfg = json.loads(argv[1])
    MODES[cfg["mode"]](cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
