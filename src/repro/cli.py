"""``repro-run``: execute, inspect, price or hash a saved artifact, and
tune workloads into the persistent schedule cache.

Every tuned schedule in this reproduction serializes to one portable
JSON file (:mod:`repro.core.artifact`); this CLI makes that file a
shippable unit of work, in the style of the DaCe playground scripts —
save a schedule once, then ``describe`` / ``run`` / ``cost`` / ``hash``
it anywhere without the originating Python objects:

.. code-block:: console

   $ repro-run describe tests/golden/adam_fused.repro.json
   $ repro-run run tests/golden/adam_fused.repro.json --backend spmd
   $ repro-run cost tests/golden/moe_overlapped.repro.json --nodes 1
   $ repro-run hash tests/golden/adam_fused.repro.json

``tune`` runs the autotuner on a named workload through the schedule
cache (:mod:`repro.serve`; ``$REPRO_SCHEDULE_CACHE`` picks the
directory), so the second identical command is a cache hit that
evaluates no candidate; ``cache`` inspects or empties that directory:

.. code-block:: console

   $ repro-run tune --workload adam --set num_elements=1048576 \\
         --set world_size=16 --save adam.repro.json
   $ repro-run cache stats
   $ repro-run cache clear

Installed via ``[project.scripts]``; in a source checkout (CI does not
pip-install the package) use ``PYTHONPATH=src python -m repro.cli``.

``run`` seeds deterministic inputs from the artifact's own interface
record (tensor shapes, dtypes, layouts) and prints a SHA-256 digest
over all outputs and final tensor states, so two machines can compare
a run with one string.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict, Sequence

from repro.errors import CoCoNetError


def _seeded_inputs(program, seed: int) -> Dict[str, object]:
    """Deterministic inputs derived from the program interface.

    Tensors get strictly positive scaled normals (optimizer programs
    feed some inputs to rsqrt, which a zero or negative second moment
    would break); scalars draw from [0.5, 2.0). Local tensors take the
    group-size-leading global shape the executor's placement expects.
    """
    import numpy as np

    from repro.core.tensor import Scalar, Tensor

    rng = np.random.RandomState(seed)
    inputs: Dict[str, object] = {}
    for t in program.inputs:
        if isinstance(t, Tensor):
            if t.layout.is_local:
                shape = (t.group.size,) + t.per_rank_shape()
            else:
                shape = t.shape
            # strictly positive: optimizer second moments feed rsqrt
            inputs[t.name] = np.abs(rng.standard_normal(shape)) * 0.1 + 0.01
        elif isinstance(t, Scalar):
            inputs[t.name] = float(rng.uniform(0.5, 2.0))
    return inputs


def _digest(result) -> str:
    """SHA-256 over every output and tensor state, in name order."""
    h = hashlib.sha256()
    for name in result.output_names:
        arr = result.output(name)
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    states = getattr(result, "_tensor_states", {})
    for name in sorted(states):
        arr = states[name]
        h.update(name.encode())
        h.update(arr.tobytes())
    return "sha256:" + h.hexdigest()


def _cmd_describe(args) -> int:
    from repro.core import artifact

    art = artifact.load(args.artifact)
    print(art.describe())
    return 0


def _cmd_run(args) -> int:
    import time

    from repro.core import artifact
    from repro.runtime.executor import Executor

    art = artifact.load(args.artifact)
    program = art.program
    inputs = _seeded_inputs(program, args.seed)
    repeat = max(1, args.repeat)

    def one_run(ex):
        if args.backend == "lowered":
            return ex.run_lowered(art, inputs, allow_downcast=True)
        if args.backend == "spmd":
            return ex.run_spmd(
                art, inputs, allow_downcast=True, timeout=args.timeout
            )
        if args.backend == "native":
            return ex.run_spmd(
                art, inputs, allow_downcast=True, timeout=args.timeout,
                codegen_target="native",
            )
        # pragma: no cover - argparse choices guard this
        raise CoCoNetError(f"unknown backend {args.backend!r}")

    print(f"program:  {program.name}")
    print(f"backend:  {args.backend}")
    print(f"seed:     {args.seed}")
    result = None
    with Executor() as ex:
        for i in range(repeat):
            t0 = time.perf_counter()
            result = one_run(ex)
            wall = time.perf_counter() - t0
            if repeat > 1:
                # per-iteration wall-clock next to the digest: iteration
                # 1 of a native run includes the one-time kernel compile
                # and the segments' creation, so the cold-vs-warm gap is
                # visible in one invocation
                print(f"iter {i + 1}: {wall:.6f}s  {_digest(result)}")
    for name in result.output_names:
        arr = result.output(name)
        print(f"output {name}: dtype={arr.dtype} shape={tuple(arr.shape)}")
    print(f"digest:   {_digest(result)}")
    return 0


def _cmd_cost(args) -> int:
    from repro.cluster.topology import Cluster
    from repro.core import artifact
    from repro.perf.program_cost import ProgramCostModel

    art = artifact.load(args.artifact)
    model = ProgramCostModel(Cluster(args.nodes))
    makespan = model.time(art)
    print(f"program:  {art.program.name}")
    print(f"cluster:  {args.nodes} node(s)")
    print(f"makespan: {makespan:.6e} s (predicted)")
    return 0


def _cmd_hash(args) -> int:
    from repro.core import artifact

    art = artifact.load(args.artifact)
    # load() already verified the recorded content hash; recompute the
    # structural hash from the reconstructed program as a deep check
    recomputed = artifact.structural_hash(art.lowered())
    print(f"content hash:    {art.content_hash}")
    print(f"structural hash: {art.structural_hash}")
    if art.structural_hash and recomputed != art.structural_hash:
        print(
            f"WARNING: recorded structural hash does not match the "
            f"reconstructed program ({recomputed})",
            file=sys.stderr,
        )
        return 1
    print("verified: content + structural hashes match the payload")
    return 0


#: ``repro-run tune`` workloads: name -> (class in :mod:`repro.workloads`,
#: shape parameters in ``build`` order, ``build``'s dtype keyword).
TUNE_WORKLOADS = {
    "adam": ("AdamWorkload", ("num_elements", "world_size"), "grad_dtype"),
    "lamb": ("LambWorkload", ("num_elements", "world_size"), "grad_dtype"),
    "moe": (
        "MoEWorkload",
        ("capacity", "model_dim", "ffn_dim", "world_size"),
        "dtype",
    ),
    "attention": (
        "AttentionWorkload", ("batch", "seq", "hidden", "world_size"), "dtype",
    ),
}


def _parse_params(pairs: Sequence[str]) -> Dict[str, int]:
    params = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise CoCoNetError(f"--set takes name=value pairs, got {pair!r}")
        try:
            params[name.strip()] = int(value)
        except ValueError:
            raise CoCoNetError(
                f"--set values must be integers, got {pair!r}"
            ) from None
    return params


def build_workload(workload: str, params: Dict[str, int], dtype: str):
    """The DSL program of a :data:`TUNE_WORKLOADS` entry at a shape."""
    import repro.workloads
    from repro.core.dtypes import dtype_by_name

    if workload not in TUNE_WORKLOADS:
        raise CoCoNetError(
            f"unknown workload {workload!r}; known: {sorted(TUNE_WORKLOADS)}"
        )
    cls_name, names, dtype_kw = TUNE_WORKLOADS[workload]
    missing = [n for n in names if n not in params]
    extra = [n for n in params if n not in names]
    if missing or extra:
        raise CoCoNetError(
            f"workload {workload!r} takes parameters {names}; "
            f"missing {missing}, unexpected {extra}"
        )
    cls = getattr(repro.workloads, cls_name)
    return cls.build(
        *(params[n] for n in names), **{dtype_kw: dtype_by_name(dtype)}
    ).program


def _cmd_tune(args) -> int:
    import time

    from repro.cluster.topology import Cluster
    from repro.core.artifact import Artifact
    from repro.core.autotuner import Autotuner
    from repro.observe.metrics import MetricsRegistry
    from repro.serve.cache import ScheduleCache

    if args.nodes < 1:
        raise CoCoNetError("--nodes must be >= 1")
    params = _parse_params(args.set or ())
    program = build_workload(args.workload, params, args.dtype)
    cluster = Cluster(args.nodes)
    metrics = MetricsRegistry()
    t0 = time.perf_counter()
    result = Autotuner(
        cluster, metrics=metrics, schedule_cache=ScheduleCache()
    ).tune(program)
    elapsed = time.perf_counter() - t0
    shape = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    print(f"workload:   {args.workload}({shape}) {args.dtype} "
          f"nodes={args.nodes}")
    print(f"key:        {result.cache_key[0]} @ {result.cache_key[1]}")
    print(f"cache:      {'hit' if result.cached else 'miss'}")
    print(f"evaluated:  {metrics.get('tuner.candidates'):.0f} candidates")
    print(f"schedule:   {result.best.name}")
    print(f"predicted:  {result.best.time * 1e6:.1f} us")
    print(f"elapsed:    {elapsed * 1e3:.2f} ms")
    if args.save:
        art = result.best.schedule
        if not isinstance(art, Artifact):
            art = Artifact.from_lowered(art.lowered(cluster=cluster))
        art.save(args.save)
        print(f"artifact:   saved to {args.save}")
    return 0


def _cmd_cache(args) -> int:
    from repro.serve.cache import ScheduleCache

    cache = ScheduleCache()
    if args.action == "clear":
        print(f"removed {cache.clear()} cached schedule(s)")
        return 0
    stats = cache.stats()
    print(f"cache dir: {cache.path}")
    print(f"entries:   {stats['serve.cache.entries']:.0f} "
          f"({stats['serve.cache.bytes']:.0f} bytes)")
    for path in cache.entries():
        try:
            with open(path) as f:
                doc = json.load(f)
            print(f"  {doc['structural_hash'][:23]}… @ {doc['topology']}: "
                  f"{doc['schedule_name']} "
                  f"({doc['predicted_time'] * 1e6:.1f} us predicted)")
        except (OSError, ValueError, KeyError):
            print(f"  {path}: unreadable record")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description=(
            "Execute, inspect, price or hash a saved CoCoNet lowered-"
            "program artifact (*.repro.json), or tune a workload into "
            "the schedule cache."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "describe", help="print schema, hashes, interface and instructions"
    )
    p.add_argument("artifact", help="path to a saved artifact")
    p.set_defaults(fn=_cmd_describe)

    p = sub.add_parser(
        "run", help="execute the artifact with seeded inputs; print a digest"
    )
    p.add_argument("artifact", help="path to a saved artifact")
    p.add_argument(
        "--backend",
        choices=("lowered", "spmd", "native"),
        default="lowered",
        help="lowered interpreter (default), one real OS process per "
        "rank, or per-rank processes with compiled C kernels",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="input RNG seed (default 0)",
    )
    p.add_argument(
        "--timeout", type=float, default=60.0,
        help="spmd rendezvous timeout in seconds (default 60); a "
        "native run compiles its kernels before the deadline starts",
    )
    p.add_argument(
        "--repeat", type=int, default=1,
        help="run N iterations, printing per-iteration wall-clock "
        "alongside the output digest (default 1)",
    )
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "cost", help="predicted makespan from the DES cost model"
    )
    p.add_argument("artifact", help="path to a saved artifact")
    p.add_argument(
        "--nodes", type=int, default=1,
        help="cluster size in nodes (default 1)",
    )
    p.set_defaults(fn=_cmd_cost)

    p = sub.add_parser(
        "hash", help="print and verify the content and structural hashes"
    )
    p.add_argument("artifact", help="path to a saved artifact")
    p.set_defaults(fn=_cmd_hash)

    p = sub.add_parser(
        "tune",
        help="tune a workload through the schedule cache "
        "($REPRO_SCHEDULE_CACHE); a repeat is a cache hit",
    )
    p.add_argument("--workload", required=True,
                   help=" | ".join(TUNE_WORKLOADS))
    p.add_argument(
        "--set", action="append", metavar="NAME=VALUE",
        help="workload shape parameter (repeatable), e.g. "
        "--set num_elements=1048576 --set world_size=16",
    )
    p.add_argument("--dtype", default="FP16",
                   help="tensor dtype (default FP16)")
    p.add_argument("--nodes", type=int, default=1,
                   help="cluster size in nodes (default 1)")
    p.add_argument("--save", default=None,
                   help="also save the tuned schedule as an artifact")
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser(
        "cache", help="list or empty the schedule cache"
    )
    p.add_argument("action", choices=("stats", "clear"))
    p.set_defaults(fn=_cmd_cache)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CoCoNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout consumer went away (e.g. `repro-run describe | head`);
        # silence the interpreter's flush-on-exit complaint and follow
        # the Unix convention of exiting quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
