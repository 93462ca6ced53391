"""The CI benchmark-regression gate (benchmarks/check_regression.py).

Verifies the property the CI wiring relies on: an injected perf
regression in a fresh ``BENCH_*.json`` makes the gate exit non-zero,
while reports within tolerance pass; ``--update-baselines`` records
intentional shifts.
"""

import json
import os
import sys

import pytest

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "benchmarks"),
)
import check_regression as cr  # noqa: E402


def write(path, payload):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f)
    return path


@pytest.fixture
def env(tmp_path):
    baselines = tmp_path / "baselines"
    fresh = tmp_path / "BENCH_x.json"
    write(
        str(baselines / "BENCH_x.json"),
        {
            "tolerance": 0.10,
            "checks": [
                {"path": "equal_outputs", "equals": True},
                {"path": "acceptance.speedup", "min": 2.0},
                {"path": "overhead", "max": 1.2},
            ],
        },
    )
    return baselines, fresh


def run_main(fresh, baselines, *extra):
    return cr.main([str(fresh), "--baselines", str(baselines), *extra])


class TestGate:
    def test_passes_within_tolerance(self, env):
        baselines, fresh = env
        write(
            str(fresh),
            {"equal_outputs": True,
             "acceptance": {"speedup": 1.85},  # >= 2.0 * 0.9
             "overhead": 1.3},                 # <= 1.2 * 1.1
        )
        assert run_main(fresh, baselines) == 0

    def test_fails_on_injected_speedup_regression(self, env):
        baselines, fresh = env
        write(
            str(fresh),
            {"equal_outputs": True,
             "acceptance": {"speedup": 1.5},   # < 2.0 * 0.9 → regression
             "overhead": 1.0},
        )
        assert run_main(fresh, baselines) == 1

    def test_fails_on_overhead_cap(self, env):
        baselines, fresh = env
        write(
            str(fresh),
            {"equal_outputs": True,
             "acceptance": {"speedup": 3.0},
             "overhead": 1.4},                 # > 1.2 * 1.1 → regression
        )
        assert run_main(fresh, baselines) == 1

    def test_fails_on_equals_mismatch(self, env):
        baselines, fresh = env
        write(
            str(fresh),
            {"equal_outputs": False,           # numerics diverged
             "acceptance": {"speedup": 3.0},
             "overhead": 1.0},
        )
        assert run_main(fresh, baselines) == 1

    def test_fails_on_missing_metric_path(self, env):
        baselines, fresh = env
        write(str(fresh), {"equal_outputs": True, "overhead": 1.0})
        assert run_main(fresh, baselines) == 1

    def test_fails_on_missing_baseline_or_report(self, env, tmp_path):
        baselines, fresh = env
        write(
            str(tmp_path / "BENCH_unknown.json"),
            {"equal_outputs": True},
        )
        assert cr.main(
            [str(tmp_path / "BENCH_unknown.json"),
             "--baselines", str(baselines)]
        ) == 1
        assert cr.main(
            [str(tmp_path / "BENCH_never_written.json"),
             "--baselines", str(baselines)]
        ) == 1

    def test_tolerance_override(self, env):
        baselines, fresh = env
        write(
            str(fresh),
            {"equal_outputs": True,
             "acceptance": {"speedup": 1.5},
             "overhead": 1.0},
        )
        # 50% tolerance turns the 2.0 floor into 1.0
        assert run_main(fresh, baselines, "--tolerance", "0.5") == 0


class TestMalformedInputs:
    """Broken JSON and unrefreshable baselines fail with a message,
    not a traceback."""

    def test_malformed_fresh_report(self, env, capsys):
        baselines, fresh = env
        with open(str(fresh), "w") as f:
            f.write("{not json")
        assert run_main(fresh, baselines) == 1
        assert "not valid JSON" in capsys.readouterr().out

    def test_malformed_baseline(self, env, capsys):
        baselines, fresh = env
        write(str(fresh), {"equal_outputs": True})
        with open(str(baselines / "BENCH_x.json"), "w") as f:
            f.write("]")
        assert run_main(fresh, baselines) == 1
        assert "not valid JSON" in capsys.readouterr().out

    def test_missing_baseline_explains_how_to_create_one(
        self, env, tmp_path, capsys
    ):
        baselines, _ = env
        fresh = write(
            str(tmp_path / "BENCH_new.json"), {"equal_outputs": True}
        )
        assert cr.main([fresh, "--baselines", str(baselines)]) == 1
        out = capsys.readouterr().out
        assert "no committed baseline" in out
        assert "commit one" in out

    def test_update_with_unresolvable_path_fails_cleanly(
        self, env, capsys
    ):
        baselines, fresh = env
        # the fresh report lacks acceptance.speedup, so refreshing the
        # floor from it must fail as a gate message, not a GateError
        write(str(fresh), {"equal_outputs": True, "overhead": 1.0})
        assert run_main(fresh, baselines, "--update-baselines") == 1
        assert "cannot refresh baseline" in capsys.readouterr().out


class TestRatioChecks:
    def test_ratio_floor(self, tmp_path):
        baselines = tmp_path / "baselines"
        write(
            str(baselines / "BENCH_r.json"),
            {"tolerance": 0.0,
             "checks": [{"path_num": "a", "path_den": "b", "min": 1.5}]},
        )
        fresh = write(str(tmp_path / "BENCH_r.json"), {"a": 3.0, "b": 1.0})
        assert cr.main([fresh, "--baselines", str(baselines)]) == 0
        fresh = write(str(tmp_path / "BENCH_r.json"), {"a": 1.0, "b": 1.0})
        assert cr.main([fresh, "--baselines", str(baselines)]) == 1


class TestByteCaps:
    """max_bytes: a hard, tolerance-free cap on deterministic sizes."""

    @pytest.fixture
    def size_env(self, tmp_path):
        baselines = tmp_path / "baselines"
        write(
            str(baselines / "BENCH_sz.json"),
            {"tolerance": 0.50,  # must NOT soften the byte cap
             "checks": [{"path": "sizes.adam_bytes",
                         "max_bytes": 1000}]},
        )
        return baselines, tmp_path / "BENCH_sz.json"

    def test_at_the_cap_passes(self, size_env):
        baselines, fresh = size_env
        write(str(fresh), {"sizes": {"adam_bytes": 1000}})
        assert run_main(fresh, baselines) == 0

    def test_one_byte_over_fails_despite_tolerance(self, size_env, capsys):
        baselines, fresh = size_env
        write(str(fresh), {"sizes": {"adam_bytes": 1001}})
        assert run_main(fresh, baselines) == 1
        assert "GREW" in capsys.readouterr().out

    def test_update_snaps_cap_to_fresh_size(self, size_env):
        baselines, fresh = size_env
        write(str(fresh), {"sizes": {"adam_bytes": 1234}})
        assert run_main(fresh, baselines, "--update-baselines") == 0
        with open(baselines / "BENCH_sz.json") as f:
            updated = json.load(f)
        # exact, no margin: serialized sizes are deterministic
        assert updated["checks"][0]["max_bytes"] == 1234
        assert run_main(fresh, baselines) == 0


class TestUpdateBaselines:
    def test_update_rewrites_floors_from_fresh(self, env):
        baselines, fresh = env
        write(
            str(fresh),
            {"equal_outputs": True,
             "acceptance": {"speedup": 4.0},
             "overhead": 0.9},
        )
        assert run_main(fresh, baselines, "--update-baselines") == 0
        with open(baselines / "BENCH_x.json") as f:
            updated = json.load(f)
        by_path = {c.get("path"): c for c in updated["checks"]}
        assert by_path["acceptance.speedup"]["min"] == pytest.approx(
            4.0 * cr.UPDATE_FLOOR_MARGIN
        )
        assert by_path["overhead"]["max"] == pytest.approx(
            0.9 * cr.UPDATE_CAP_MARGIN
        )
        assert by_path["equal_outputs"]["equals"] is True
        # and the refreshed baseline gates the same fresh report green
        assert run_main(fresh, baselines) == 0


class TestCommittedBaselines:
    """The baselines shipped in the repo stay well-formed."""

    def test_baseline_files_parse_and_have_checks(self):
        assert os.path.isdir(cr.BASELINE_DIR)
        names = [f for f in os.listdir(cr.BASELINE_DIR)
                 if f.endswith(".json")]
        assert {
            "BENCH_runtime.json", "BENCH_tuner.json", "BENCH_moe.json",
            "BENCH_spmd.json", "BENCH_faults.json", "BENCH_artifact.json",
        } <= set(names)
        for name in names:
            with open(os.path.join(cr.BASELINE_DIR, name)) as f:
                baseline = json.load(f)
            assert baseline["checks"], name
            for check in baseline["checks"]:
                assert (
                    "path" in check
                    or ("path_num" in check and "path_den" in check)
                ), (name, check)
                assert (
                    "min" in check or "max" in check
                    or "max_bytes" in check or "equals" in check
                ), (name, check)
