"""The persistent schedule cache and its front end, ``repro-run tune``.

* ``ScheduleCache`` round trips, corrupt/truncated/tampered records
  (deleted + counted, never raised), key-field mismatches, records
  removed by another process mid-listing, and concurrent
  cross-process writers of the same pair;
* the ``Autotuner(schedule_cache=...)`` hook: cold tune writes a
  record, warm tune is a cache hit with the same winner, and the
  artifact-backed cached candidate executes bit-identically to the
  freshly searched schedule;
* tune requests: bad workloads, shapes, ``--set`` pairs, dtypes and
  node counts are rejected, and a request's cache key is the same in
  a fresh interpreter;
* ``repro-run tune`` / ``repro-run cache``: a miss, then a hit in a
  fresh process that evaluates no candidate, stats, clear, error exits,
  every workload in the table, and the saved artifact's ``repro-run
  run`` digest against a freshly tuned schedule's.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import (
    TUNE_WORKLOADS,
    _digest,
    _parse_params,
    _seeded_inputs,
    build_workload,
)
from repro.cli import main as run_cli_main
from repro.cluster import Cluster
from repro.core.artifact import structural_hash
from repro.core.autotuner import Autotuner
from repro.core.transforms import Schedule
from repro.errors import CoCoNetError
from repro.observe.metrics import MetricsRegistry
from repro.perf.program_cost import COST_MODEL_VERSION
from repro.runtime.executor import Executor
from repro.serve import CachedSchedule, ScheduleCache
from repro.workloads.adam import AdamWorkload

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def tune_into(cache, num_elements=64, world_size=4, nodes=1, depth=2):
    """Cold-tune a small Adam program through the cache hook."""
    program = AdamWorkload.build(num_elements, world_size).program
    return Autotuner(
        Cluster(nodes), max_depth=depth, schedule_cache=cache
    ).tune(program)


@pytest.fixture(scope="module")
def record_text(tmp_path_factory):
    """JSON text of one valid cache record (tuned once per module)."""
    cache = ScheduleCache(str(tmp_path_factory.mktemp("seedcache")))
    result = tune_into(cache)
    with open(cache.record_path(*result.cache_key)) as f:
        return f.read()


def install(cache, text):
    """Drop valid record ``text`` into ``cache``; returns (key, path)."""
    doc = json.loads(text)
    key = (doc["structural_hash"], doc["topology"])
    os.makedirs(cache.path, exist_ok=True)
    path = cache.record_path(*key)
    with open(path, "w") as f:
        f.write(text)
    return key, path


def cache_key(program, nodes=1, depth=2):
    """The (structural_hash, topology) pair the tuner files a program under."""
    cluster = Cluster(nodes)
    return (
        structural_hash(Schedule(program).lowered(cluster=cluster)),
        f"{cluster.signature()}/max_depth={depth}"
        f"/cost_model={COST_MODEL_VERSION}",
    )


class TestScheduleCache:
    def test_roundtrip_and_counters(self, tmp_path, record_text):
        cache = ScheduleCache(str(tmp_path))
        key, _ = install(cache, record_text)
        rec = cache.get(*key)
        assert isinstance(rec, CachedSchedule)
        assert (rec.structural_hash, rec.topology) == key
        assert rec.artifact.program is not None
        assert rec.predicted_time > 0
        assert cache.metrics.get("serve.cache.hits") == 1
        assert len(cache) == 1

    def test_missing_record_is_a_counted_miss(self, tmp_path):
        cache = ScheduleCache(str(tmp_path))
        assert cache.get("no-such-hash", "DGX-2x16/nodes1") is None
        assert cache.metrics.get("serve.cache.misses") == 1
        assert cache.metrics.get("serve.cache.corrupt") == 0

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda text: "not json at all {",
            lambda text: text[: len(text) // 2],  # truncated writer crash
            lambda text: "{}",
            lambda text: json.dumps(
                {**json.loads(text), "format": "something-else"}
            ),
            lambda text: json.dumps(
                {**json.loads(text), "schema_version": 999}
            ),
        ],
        ids=["garbage", "truncated", "empty-doc", "bad-format", "bad-schema"],
    )
    def test_corrupt_record_deleted_and_missed(
        self, tmp_path, record_text, mangle
    ):
        cache = ScheduleCache(str(tmp_path))
        key, path = install(cache, record_text)
        with open(path, "w") as f:
            f.write(mangle(record_text))
        assert cache.get(*key) is None
        assert not os.path.exists(path), "corrupt record must be deleted"
        assert cache.metrics.get("serve.cache.corrupt") == 1
        assert cache.metrics.get("serve.cache.misses") == 1
        # and the miss is clean: a re-put serves again
        install(cache, record_text)
        assert cache.get(*key) is not None

    def test_tampered_artifact_payload_is_corrupt(
        self, tmp_path, record_text
    ):
        # flip a byte inside the embedded artifact: content-hash
        # verification must catch it and read as a miss, not serve it
        cache = ScheduleCache(str(tmp_path))
        doc = json.loads(record_text)
        doc["artifact"]["payload"]["program"] = dict(
            doc["artifact"]["payload"]["program"], name="evil"
        )
        key, path = install(cache, json.dumps(doc))
        assert cache.get(*key) is None
        assert cache.metrics.get("serve.cache.corrupt") == 1
        assert not os.path.exists(path)

    def test_key_field_mismatch_is_corrupt(self, tmp_path, record_text):
        # a record renamed onto the wrong key must not be served
        cache = ScheduleCache(str(tmp_path))
        doc = json.loads(record_text)
        other = ("f" * 64, doc["topology"])
        path = cache.record_path(*other)
        os.makedirs(cache.path, exist_ok=True)
        with open(path, "w") as f:
            f.write(record_text)
        assert cache.get(*other) is None
        assert cache.metrics.get("serve.cache.corrupt") == 1

    def test_clear_and_stats(self, tmp_path, record_text):
        cache = ScheduleCache(str(tmp_path))
        install(cache, record_text)
        stats = cache.stats()
        assert stats["serve.cache.entries"] == 1
        assert stats["serve.cache.bytes"] > 0
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.clear() == 0

    def test_entries_removed_mid_listing_are_skipped(
        self, tmp_path, record_text, monkeypatch
    ):
        # another process's clear() can remove a record between
        # listdir and stat: stats must skip it rather than fail
        cache = ScheduleCache(str(tmp_path))
        install(cache, record_text)
        listed = cache.entries
        ghost = os.path.join(str(tmp_path), "gone.json")
        monkeypatch.setattr(cache, "entries", lambda: listed() + [ghost])
        stats = cache.stats()
        assert stats["serve.cache.entries"] == 1
        assert stats["serve.cache.bytes"] > 0

    def test_concurrent_cross_process_writers(self, tmp_path):
        # two fresh interpreters race to tune the same signature into
        # one directory: both must succeed, and the survivor must be a
        # loadable record for the request's key.
        script = (
            "import sys\n"
            "from repro.cluster import Cluster\n"
            "from repro.core.autotuner import Autotuner\n"
            "from repro.serve import ScheduleCache\n"
            "from repro.workloads.adam import AdamWorkload\n"
            "cache = ScheduleCache(sys.argv[1])\n"
            "program = AdamWorkload.build(64, 4).program\n"
            "r = Autotuner(Cluster(1), max_depth=2,"
            " schedule_cache=cache).tune(program)\n"
            "print(r.best.name, r.best.time)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        outs = [p.communicate() for p in procs]
        assert all(p.returncode == 0 for p in procs), outs
        # deterministic search: both report the same winner
        assert outs[0][0] == outs[1][0]
        cache = ScheduleCache(str(tmp_path))
        assert len(cache) == 1
        key = cache_key(AdamWorkload.build(64, 4).program)
        assert cache.get(*key) is not None


class TestAutotunerCacheHook:
    def test_cold_then_warm(self, tmp_path):
        cache = ScheduleCache(str(tmp_path))
        cold = tune_into(cache)
        assert not cold.cached
        assert cold.cache_key is not None
        assert len(cache) == 1
        warm = tune_into(cache)
        assert warm.cached
        assert warm.cache_key == cold.cache_key
        assert warm.best.name == cold.best.name
        assert warm.best.time == cold.best.time
        # the hit came back as an Artifact-backed candidate (the tuned
        # schedule's own structural hash, not the request key's)
        assert warm.best.schedule.structural_hash.startswith("sha256:")

    def test_search_depth_splits_records(self, tmp_path):
        # a record tuned at one depth answers the same depth only; a
        # different depth misses and runs a full search
        cache = ScheduleCache(str(tmp_path))
        cold = tune_into(cache, depth=2)
        warm = tune_into(cache, depth=2)
        assert warm.cached and warm.cache_key == cold.cache_key
        metrics = MetricsRegistry()
        deeper = Autotuner(
            Cluster(1), max_depth=3, metrics=metrics, schedule_cache=cache
        ).tune(AdamWorkload.build(64, 4).program)
        assert not deeper.cached
        assert deeper.cache_key != cold.cache_key
        assert deeper.cache_key[0] == cold.cache_key[0]
        assert metrics.get("tuner.cache_misses") == 1
        assert metrics.get("tuner.candidates") == len(deeper.candidates) > 1
        assert len(cache) == 2

    def test_record_from_an_older_cost_model_misses(self, tmp_path):
        # a record filed before the cost model's version joined the key
        # (the unsliced Adam pick of the old pricing) never answers
        import dataclasses

        cache = ScheduleCache(str(tmp_path))
        cold = tune_into(cache)
        rec = cache.get(*cold.cache_key)
        old_topology = cold.cache_key[1].rsplit("/cost_model=", 1)[0]
        os.remove(cache.record_path(*cold.cache_key))
        cache.put(dataclasses.replace(rec, topology=old_topology))
        assert cache.get(cold.cache_key[0], old_topology) is not None
        metrics = MetricsRegistry()
        again = Autotuner(
            Cluster(1), max_depth=2, metrics=metrics, schedule_cache=cache
        ).tune(AdamWorkload.build(64, 4).program)
        assert not again.cached
        assert again.cache_key == cold.cache_key
        assert metrics.get("tuner.cache_misses") == 1
        assert len(cache) == 2

    def test_topology_splits_records(self, tmp_path):
        cache = ScheduleCache(str(tmp_path))
        one = tune_into(cache, nodes=1)
        two = tune_into(cache, nodes=2)
        assert one.cache_key != two.cache_key
        assert len(cache) == 2
        assert not two.cached  # different topology missed the nodes1 record

    def test_cached_candidate_executes_identically(self, tmp_path):
        cache = ScheduleCache(str(tmp_path))
        fresh = tune_into(cache)
        served = tune_into(cache)
        assert served.cached
        program = AdamWorkload.build(64, 4).program
        ex = Executor()
        inputs = _seeded_inputs(program, seed=3)
        a = ex.run_lowered(
            fresh.best.schedule, inputs, allow_downcast=True
        )
        b = ex.run_lowered(
            served.best.schedule, inputs, allow_downcast=True
        )
        assert _digest(a) == _digest(b)


ADAM_TUNE = [
    "tune", "--workload", "adam",
    "--set", "num_elements=64", "--set", "world_size=4",
]


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    """Point ``$REPRO_SCHEDULE_CACHE`` at a fresh directory."""
    path = str(tmp_path / "cache")
    monkeypatch.setenv("REPRO_SCHEDULE_CACHE", path)
    return path


class TestTuneRequest:
    """A tune request is a workload name, integer ``--set`` shape
    parameters, a dtype and a node count; its cache key is the
    ``(structural_hash, topology)`` pair of the program it builds."""

    def test_validation(self):
        with pytest.raises(CoCoNetError):
            build_workload("nope", {"num_elements": 64}, "FP16")
        with pytest.raises(CoCoNetError):  # missing param
            build_workload("adam", {"num_elements": 64}, "FP16")
        with pytest.raises(CoCoNetError):
            build_workload(
                "adam",
                {"num_elements": 64, "world_size": 4, "bogus": 1},
                "FP16",
            )
        with pytest.raises(CoCoNetError):
            build_workload(
                "adam", {"num_elements": 64, "world_size": 4}, "FP13"
            )
        with pytest.raises(CoCoNetError):
            _parse_params(["num_elements"])
        with pytest.raises(CoCoNetError):
            _parse_params(["num_elements=x"])
        assert _parse_params(["num_elements=64", " world_size =4"]) == {
            "num_elements": 64, "world_size": 4,
        }
        with pytest.raises(CoCoNetError):
            Cluster(0)

    def test_request_key_stable_across_processes(self):
        params = {"num_elements": 64, "world_size": 4}
        script = (
            "from repro.cli import build_workload\n"
            "from repro.cluster import Cluster\n"
            "from repro.core.autotuner import Autotuner\n"
            "program = build_workload('adam', "
            + json.dumps(params)
            + ", 'FP16')\n"
            "print(*Autotuner(Cluster(1), max_depth=2)"
            ".cache_key(program))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, check=True,
        ).stdout.split()
        assert tuple(out) == cache_key(
            build_workload("adam", params, "FP16")
        )


class TestServeCLI:
    def test_tune_then_hit_then_stats_clear(
        self, tmp_path, cache_env, capsys
    ):
        saved = str(tmp_path / "tuned.json")
        assert run_cli_main(ADAM_TUNE + ["--save", saved]) == 0
        out = capsys.readouterr().out
        assert "cache:      miss" in out
        assert os.path.exists(saved)

        # the same command in a fresh interpreter is a hit that
        # evaluates no candidate
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli"] + ADAM_TUNE,
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "cache:      hit" in proc.stdout
        assert "evaluated:  0 candidates" in proc.stdout

        assert run_cli_main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert cache_env in out
        assert "entries:   1" in out

        assert run_cli_main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert len(ScheduleCache(cache_env)) == 0

    def test_errors_exit_1(self, cache_env, capsys):
        for argv in (
            ["tune", "--workload", "bogus", "--set", "x=1"],
            ["tune", "--workload", "adam", "--set", "num_elements"],
            ["tune", "--workload", "adam", "--set", "num_elements=x",
             "--set", "world_size=4"],
            ["tune", "--workload", "adam", "--set", "num_elements=64"],
            ADAM_TUNE + ["--dtype", "FP13"],
            ADAM_TUNE + ["--nodes", "0"],
        ):
            assert run_cli_main(argv) == 1, argv
            assert "error:" in capsys.readouterr().err
        assert len(ScheduleCache(cache_env)) == 0

    def test_every_workload_builds(self):
        small = {
            "num_elements": 64, "world_size": 4, "capacity": 3,
            "model_dim": 6, "ffn_dim": 8, "batch": 2, "seq": 4,
            "hidden": 8,
        }
        keys = set()
        for name, (_, params, _) in TUNE_WORKLOADS.items():
            program = build_workload(
                name, {p: small[p] for p in params}, "FP16"
            )
            keys.add(cache_key(program))
        assert len(keys) == len(TUNE_WORKLOADS)  # distinct programs

    def test_cli_digest_identity(self, tmp_path, cache_env, capsys):
        """The saved artifact reproduces the freshly tuned digest
        through ``repro-run run``."""
        served_path = str(tmp_path / "served.json")
        assert run_cli_main(ADAM_TUNE + ["--save", served_path]) == 0
        assert run_cli_main(ADAM_TUNE + ["--save", served_path]) == 0
        assert "cache:      hit" in capsys.readouterr().out

        fresh = Autotuner(Cluster(1)).tune(AdamWorkload.build(64, 4).program)
        from repro.core.artifact import Artifact

        fresh_path = str(tmp_path / "fresh.json")
        Artifact.from_lowered(
            fresh.best.schedule.lowered(cluster=Cluster(1))
        ).save(fresh_path)

        digests = []
        for path in (served_path, fresh_path):
            assert run_cli_main(["run", path, "--seed", "5"]) == 0
            out = capsys.readouterr().out
            digests.append(
                [ln for ln in out.splitlines() if "digest" in ln]
            )
        assert digests[0] == digests[1]
