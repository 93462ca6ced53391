"""End-to-end benchmark: time to first step, step cost and memory.

Drives the user's real path — build the DSL program, tune it through a
fresh schedule cache, serialize it as an artifact, then run steps with
``Executor.run_spmd(artifact, inputs, codegen_target="native")`` (one
OS process per rank, compiled kernels) — on four 2-rank workloads, and
checks every step's outputs against the ``run_lowered`` oracle.

Each workload runs in processes of its own (``workload.py``), on cold
kernel and schedule caches in a fresh work directory, with one BLAS
thread per process: two ranks then fit two cores, and no in-process
memo leaks between workloads. The load is a closed loop with one
client.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0              # every workload
    python3 benchmarks/e2e/run.py --workload attn_mp_small --seed 3
    python3 benchmarks/e2e/run.py --trace 1             # per-layer pass
    python3 benchmarks/e2e/run.py --smoke               # tiny shapes

``--trace 0`` (the default) reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the traced pass and reports
the per-layer metrics, prints a per-layer self-time
table and writes one Perfetto trace per workload. One JSON document per
workload and run goes to ``--out``; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every step passed its output check.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

from stats import RssSampler, proc_table, summarize  # noqa: E402
from workload import PREFIX, WORKLOADS  # noqa: E402

#: fresh processes whose time to first step gives ``setup_s``
SETUP_SAMPLES = 5
#: one run (one workload) must end within 180 s
RUN_DEADLINE_S = 170.0


# ---------------------------------------------------------------------------
# Workload processes.
# ---------------------------------------------------------------------------


def _group_alive(pgid: int) -> bool:
    """Has the group a member that has not ended? Zombies have ended."""
    return any(
        pgrp == pgid and state != "Z"
        for state, _, pgrp in proc_table().values()
    )


def _end_group(pgid: int) -> None:
    """Wait until every process of a child's group has ended.

    Rank processes and the shared-memory resource tracker normally end
    with the child; whatever remains after a grace period is killed.
    Orphans that ended stay zombies until init reaps them.
    """
    for sig in (None, signal.SIGKILL):
        if sig is not None:
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                return
        end = time.monotonic() + 5.0
        while time.monotonic() < end:
            if not _group_alive(pgid):
                return
            time.sleep(0.02)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(
    cfg: Dict, work: Path, deadline: float,
    sampler: Optional[RssSampler] = None,
):
    """Run ``workload.py`` once; ``(exit code, {event: message})``.

    Each message gains ``at``: seconds from process start to its
    arrival. ``sampler``, when given, samples the child's process tree
    between its ``loop_start`` and ``loop_end`` messages.
    """
    dirs = {name: work / name for name in ("tmp", "kernels", "schedules")}
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)
    cfg = dict(cfg, schedule_cache=str(dirs["schedules"]))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
        TMPDIR=str(dirs["tmp"]), REPRO_KERNEL_CACHE=str(dirs["kernels"]),
        REPRO_SCHEDULE_CACHE=str(dirs["schedules"]),
    )
    messages: Dict[str, Dict] = {}
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), json.dumps(cfg)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    watchdog = threading.Timer(
        max(1.0, deadline - time.perf_counter()), _kill_group, (proc.pid,)
    )
    watchdog.start()
    try:
        for line in proc.stdout:
            if not line.startswith(PREFIX):
                sys.stderr.write(line)
                continue
            msg = json.loads(line[len(PREFIX):])
            msg["at"] = time.perf_counter() - t0
            messages[msg["event"]] = msg
            if sampler is not None and msg["event"] == "loop_start":
                sampler.start(proc.pid)
            elif sampler is not None and msg["event"] == "loop_end":
                sampler.stop()
    finally:
        if proc.poll() is None and sys.exc_info()[0] is not None:
            _kill_group(proc.pid)
        proc.wait()
        watchdog.cancel()
        if sampler is not None:
            sampler.stop()
        _end_group(proc.pid)
    return proc.returncode, messages


# ---------------------------------------------------------------------------
# The two passes.
# ---------------------------------------------------------------------------


def with_units(values: Dict, declared: List[Dict]):
    """``(metrics, problems)``: measured values in declared order.

    ``values`` maps a metric name to ``(value, sample count)``;
    ``declared`` is the ``BENCHMARK.json`` list for the pass. A metric
    declared but not measured, or measured but not declared, is a
    problem.
    """
    metrics, problems = {}, []
    for m in declared:
        value, n = values.get(m["name"], (None, 0))
        if value is not None and not math.isfinite(value):
            value = None
        if m["name"] not in values:
            problems.append(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"], "n": n}
    names = {m["name"] for m in declared}
    problems += [f"metric {k} is not in BENCHMARK.json"
                 for k in values if k not in names]
    return metrics, problems


def measure(name: str, args, work: Path, deadline: float) -> Dict:
    """End-to-end metrics of one workload (``--trace 0``)."""
    base = dict(
        workload=name, seed=args.seed, seconds=args.seconds,
        smoke=args.smoke,
    )
    sampler = RssSampler()
    setup_s: List[float] = []
    attempted = failed = 0
    errors: List[str] = []
    loop: Optional[Dict] = None
    samples = 1 if args.smoke else SETUP_SAMPLES
    # the set-up-only processes go first, so the last process, which
    # goes on to the timed loop, starts on a machine that is not idle
    for i in range(samples):
        mode = "loop" if i == samples - 1 else "setup"
        code, msgs = run_child(
            dict(base, mode=mode), work / f"{mode}{i}", deadline,
            sampler if mode == "loop" else None,
        )
        done = msgs.get("done")
        if code != 0 or done is None:
            attempted += 1
            failed += 1
            errors.append(f"{mode} process exited with code {code}")
            continue
        setup_s.append(msgs["setup"]["at"] - msgs["setup"]["input_s"])
        attempted += done["attempted"]
        failed += done["failed"]
        errors += done["errors"]
        if mode == "loop":
            loop = done
    times = loop["times"] if loop else []
    bare = loop["bare_launch"] if loop else []
    rss = sampler.samples
    values = {
        "setup_s": (
            statistics.median(setup_s) if setup_s else None, len(setup_s)
        ),
        # a shared virtual machine changes speed under the benchmark, by
        # up to 1.9x for seconds to minutes at a time, and steps follow;
        # a bare launch timed between the steps follows too, so their
        # ratio holds still (the step seconds stay in ``details``). The
        # ratio of means spread least across runs, below the ratio of
        # medians and the median of per-step ratios.
        "step_per_bare_launch": (
            statistics.fmean(times) / statistics.fmean(bare)
            if times and bare else None,
            len(times),
        ),
        # the sampled maximum depends on whether a 50 ms sample lands on
        # a rank's start-up; the 95th percentile does not
        "rss_p95_mb": (
            statistics.quantiles(rss, n=20)[-1] / 1e6
            if len(rss) > 1 else None,
            len(rss),
        ),
    }
    return {
        "attempted": attempted, "failed": failed, "errors": errors[:5],
        "problems": [], "values": values,
        "samples": {
            "setup_s": setup_s, "step_s": times, "bare_launch_s": bare,
        },
        "details": {
            "pick": loop and loop["pick"],
            "step_s": summarize(times) if times else None,
            "step_s_min": min(times) if times else None,
            "bare_launch_s": summarize(bare) if bare else None,
            "rss_max_mb": max(rss) / 1e6 if rss else None,
        },
        "env": loop and loop["env"],
    }


def measure_traced(name: str, args, work: Path, deadline: float) -> Dict:
    """Per-layer metrics of one workload (``--trace 1``)."""
    trace_out = Path(args.out) / f"{name}.trace.json"
    code, msgs = run_child(
        dict(
            workload=name, seed=args.seed, seconds=args.seconds,
            smoke=args.smoke, mode="traced", trace_out=str(trace_out),
        ),
        work / "traced", deadline,
    )
    done = msgs.get("done")
    if code != 0 or done is None:
        return {
            "attempted": 1, "failed": 1, "problems": [], "values": {},
            "errors": [f"traced process exited with code {code}"],
        }
    return {
        "attempted": done["attempted"], "failed": done["failed"],
        "errors": done["errors"], "problems": done["problems"],
        "values": {k: tuple(v) for k, v in done["metrics"].items()},
        "table": done["table"],
        "details": done["details"],
        "env": done["env"],
        "trace_file": trace_out.name,
    }


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def _commit() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(name: str, doc: Dict) -> None:
    print(f"\n== {name}  seed {doc['seed']}  "
          f"(pick: {(doc.get('details') or {}).get('pick')})")
    for row in doc.get("table") or ():
        print(f"  {row['module']:<28} {row['call']:<24} "
              f"{row['count']:>6}  self {row['self_s']:>10.6f} s  "
              f"total {row['total_s']:>10.6f} s  {row['bytes']:>12} B")
    for metric, m in doc["metrics"].items():
        print(f"  {metric:<30} {_fmt(m['value']):>14} {m['unit']:<6} "
              f"n={m['n']}")
    print(f"  {'failed / attempted':<30} {doc['failed']:>8} / "
          f"{doc['attempted']}")
    for line in doc["errors"] + doc["problems"]:
        print(f"  ! {line}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), default=None,
        help="run one workload (default: all, one after another)",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="input and fault-plan seed (default 0)")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="length of the timed loop (default: run_seconds of "
             "BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: run the traced per-layer pass instead",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny shapes, one set-up sample and 5 steps",
    )
    parser.add_argument(
        "--out", default=str(HERE / "results" / "latest"),
        help="directory for result JSON and Perfetto files",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # an installed package comes with its bytecode; without it every
    # rank would compile repro from source at every launch, and with
    # PYTHONDONTWRITEBYTECODE set Python never caches it by itself
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), maxlevels=0, quiet=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    traced = bool(args.trace)
    declared = spec["per_layer" if traced else "end_to_end"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    work_root = HERE / ".work" / f"run-{os.getpid()}"
    docs: Dict[str, Dict] = {}
    try:
        for name in names:
            deadline = time.perf_counter() + RUN_DEADLINE_S
            work = work_root / name
            doc = (measure_traced if traced else measure)(
                name, args, work, deadline
            )
            metrics, problems = with_units(doc.pop("values"), declared)
            doc["problems"] += problems
            doc = {
                "workload": name, "seed": args.seed, "trace": int(traced),
                "smoke": args.smoke, "seconds": args.seconds,
                "commit": _commit(),
                "correct": doc["failed"] == 0 and not doc["problems"],
                "metrics": metrics,
                **doc,
            }
            docs[name] = doc
            stem = f"{name}.seed{args.seed}" + (".traced" if traced else "")
            with open(out / f"{stem}.json", "w") as f:
                json.dump(doc, f, indent=1)
            print_report(name, doc)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    def key(name, metric):
        return metric if len(names) == 1 else f"{name}.{metric}"

    line = {
        "correct": all(d["correct"] for d in docs.values()),
        "attempted": sum(d["attempted"] for d in docs.values()),
        "failed": sum(d["failed"] for d in docs.values()),
        "metrics": {
            key(name, metric): {"value": m["value"], "unit": m["unit"]}
            for name, d in docs.items()
            for metric, m in d["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
