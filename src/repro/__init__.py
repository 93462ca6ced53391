"""repro — a reproduction of CoCoNet (ASPLOS 2022).

CoCoNet breaks the abstraction barrier between computation and
communication in distributed machine-learning workloads with (i) a DSL
expressing both as first-class operations over distributed tensors,
(ii) four semantics-preserving transformations (split / reorder / fuse /
overlap), and (iii) a compiler generating jointly optimized kernels.

Subpackages:

* :mod:`repro.core` — the DSL, transformations, autotuner, code generator.
* :mod:`repro.cluster` — parametric hardware model (V100 / DGX-2 / IB).
* :mod:`repro.nccl` — simulated NCCL: protocols, channels, ring algorithms.
* :mod:`repro.perf` — discrete-event performance model.
* :mod:`repro.runtime` — numeric multi-rank executor (correctness oracle).
* :mod:`repro.scattered` — scattered-tensor bucketing.
* :mod:`repro.workloads` — Adam/LAMB, model- and pipeline-parallel programs.
* :mod:`repro.baselines` — NV-BERT / PyTorch-DDP / ZeRO / Megatron / GShard.
"""

__version__ = "1.0.0"


def lazy_exports(package: str, exports):
    """A module ``__getattr__`` for ``package``: public name ``n`` is
    ``package.<exports[n]>.n``, imported on first access, so importing
    one submodule does not import its siblings, nor ``importlib``
    until the first lookup."""

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        import importlib

        module = importlib.import_module(f"{package}.{exports[name]}")
        return getattr(module, name)

    return __getattr__
