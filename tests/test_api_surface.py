"""The public API stays importable and coherent: everything the README
and the examples use must be exported where documented."""

import importlib
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro import errors


class TestPackageLayout:
    SUBPACKAGES = [
        "repro.core",
        "repro.core.transforms",
        "repro.core.codegen",
        "repro.cluster",
        "repro.nccl",
        "repro.perf",
        "repro.runtime",
        "repro.scattered",
        "repro.workloads",
        "repro.baselines",
        "repro.frontend",
    ]

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_imports(self, name):
        assert importlib.import_module(name) is not None

    def test_version(self):
        assert repro.__version__


class TestCoreExports:
    def test_all_names_resolve(self):
        core = importlib.import_module("repro.core")
        for name in core.__all__:
            assert hasattr(core, name), name

    def test_paper_vocabulary_present(self):
        # the paper's Table-1 vocabulary is the public surface
        core = importlib.import_module("repro.core")
        for name in (
            "AllReduce", "AllGather", "ReduceScatter", "Reduce",
            "Broadcast", "Send", "MatMul", "Conv2D", "Dropout", "Tanh",
            "ReLU", "Norm", "ReduceTensor", "Sqrt", "Pow", "Update",
            "Tensor", "Scalar", "Execute", "Sliced", "Replicated",
            "Local", "RANK", "GROUP", "GroupRank",
        ):
            assert name in core.__all__, name

    def test_paper_names_import_from_the_package(self):
        from repro.core import AllReduce, ChunkLoop, Execute, FP16, Tensor

        assert ChunkLoop.__module__ == "repro.core.lower"
        assert AllReduce.__module__ == "repro.core.ops"
        assert Execute.__module__ == "repro.core.program"
        assert Tensor.__module__ == "repro.core.tensor"
        assert FP16.name == "FP16"

    def test_lower_is_the_module_before_and_after_its_import(self):
        # the package resolves its exports lazily: ``lower`` is not one
        # of them, so it always names the submodule, and importing the
        # package imports neither the lowering nor the transformations
        child = textwrap.dedent("""
            import sys, types
            import repro.core
            assert "lower" not in repro.core.__all__
            assert not {"repro.core.lower", "repro.core.transforms"} & set(
                sys.modules
            )
            from repro.core import lower
            assert isinstance(lower, types.ModuleType), lower
            import repro.core.lower
            from repro.core import lower as again
            assert again is lower is sys.modules["repro.core.lower"]
        """)
        env = dict(
            os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
        )
        subprocess.run(
            [sys.executable, "-c", child], env=env, check=True, timeout=120,
        )

    def test_transform_policies_present(self):
        t = importlib.import_module("repro.core.transforms")
        for name in (
            "Schedule", "ARSplitRSAG", "ARSplitReduceBroadcast",
            "ComputationFuse", "AllReduceFuse", "SendFuse",
        ):
            assert hasattr(t, name), name


class TestErrorHierarchy:
    def test_all_errors_derive_from_base(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if (
                isinstance(obj, type)
                and issubclass(obj, Exception)
                and obj is not errors.CoCoNetError
            ):
                assert issubclass(obj, errors.CoCoNetError), name

    def test_catching_base_catches_all(self):
        from repro.core import FP16, Replicated, Tensor, world

        with pytest.raises(errors.CoCoNetError):
            Tensor(FP16, (7,), __import__(
                "repro.core.layout", fromlist=["Sliced"]
            ).Sliced(0), world(4), None)


class TestWorkloadsSurface:
    def test_workload_classes_exported(self):
        w = importlib.import_module("repro.workloads")
        for name in (
            "AdamWorkload", "LambWorkload", "AttentionWorkload",
            "PipelineWorkload", "ModelConfig", "BERT_336M", "GPT3_175B",
        ):
            assert hasattr(w, name), name

    def test_baselines_exported(self):
        b = importlib.import_module("repro.baselines")
        for name in (
            "FUSED_ADAM", "FUSED_LAMB", "NVBertStrategy",
            "PyTorchDDPStrategy", "ZeROStrategy", "CoCoNetStrategy",
        ):
            assert hasattr(b, name), name
