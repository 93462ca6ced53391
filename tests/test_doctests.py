"""The public-API docstring examples actually run.

Every module whose docs carry ``>>>`` examples is executed here with
:mod:`doctest`, so the examples in the schedule-cache/artifact/
autotuner/device-library/metrics docs are code the suite guarantees,
not prose that can rot.
(CI's docs job additionally runs ``pytest --doctest-modules`` over the
same list.)
"""

import doctest

import pytest

import repro.cluster.topology
import repro.core.artifact
import repro.core.autotuner
import repro.core.codegen.device
import repro.observe.metrics
import repro.serve.cache

MODULES = [
    repro.cluster.topology,
    repro.core.artifact,
    repro.core.autotuner,
    repro.core.codegen.device,
    repro.observe.metrics,
    repro.serve.cache,
]


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_module_doctests(module):
    failures, tests = doctest.testmod(module, verbose=False)
    assert tests > 0, f"{module.__name__} lost its docstring examples"
    assert failures == 0
