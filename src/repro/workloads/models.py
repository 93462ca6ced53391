"""Model configurations and training-memory accounting (Tables 4 & 5).

The paper trains BERT at 336M / 1.2B / 3.9B parameters and runs
inference on GPT-2 8.3B and GPT-3 175B. Per-rank memory in
mixed-precision training:

* FP16 weights (2 B/param) and FP16 gradients (2 B/param);
* FP32 master weights + Adam/LAMB moments (4+4+4 = 12 B/param) —
  *replicated* in the baselines, *sliced across ranks* in ZeRO and in
  CoCoNet's fuse(RS-Opt-AG) schedules ("the fused schedule distributes
  memory of optimizer state among all GPUs", §6.1.2);
* activations proportional to the micro-batch size;
* implementation-specific buffers (NV BERT's contiguous gradient
  buffer; PyTorch DDP's 25 MB buckets).

The largest micro-batch that fits the 32 GB V100 reproduces the batch
columns of Table 4, and with them the throughput advantage of the
memory-saving schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.gpu import GPU, TESLA_V100

GiB = 1024**3


@dataclass(frozen=True)
class ModelConfig:
    """A transformer model as used in the evaluation."""

    name: str
    num_layers: int
    hidden: int
    seq_length: int
    num_params: int
    #: activation bytes per sample per rank during training (calibrated
    #: to the micro-batch limits the paper reports; see EXPERIMENTS.md)
    activation_bytes_per_sample: int
    #: number of parameter tensors (360 for BERT — Table 2)
    num_tensors: int = 360

    @property
    def param_bytes_fp16(self) -> int:
        return 2 * self.num_params

    def flops_per_sample(self) -> float:
        """Forward+backward FLOPs per training sample (~6 · P · tokens)."""
        return 6.0 * self.num_params * self.seq_length


#: BERT-Large scaled configurations from NVIDIA's BERT scripts /
#: Megatron-LM, as used in §6.1.2.
BERT_336M = ModelConfig(
    name="BERT 336M", num_layers=24, hidden=1024, seq_length=512,
    num_params=336_000_000, activation_bytes_per_sample=230_000_000,
)
BERT_1_2B = ModelConfig(
    name="BERT 1.2B", num_layers=24, hidden=2048, seq_length=512,
    num_params=1_200_000_000, activation_bytes_per_sample=820_000_000,
)
BERT_3_9B = ModelConfig(
    name="BERT 3.9B", num_layers=48, hidden=2560, seq_length=512,
    num_params=3_900_000_000, activation_bytes_per_sample=1_300_000_000,
)
GPT2_8_3B = ModelConfig(
    name="GPT-2 8.3B", num_layers=72, hidden=3072, seq_length=1024,
    num_params=8_300_000_000, activation_bytes_per_sample=520_000_000,
    num_tensors=1000,
)
GPT3_175B = ModelConfig(
    name="GPT-3 175B", num_layers=96, hidden=12288, seq_length=2048,
    num_params=175_000_000_000, activation_bytes_per_sample=4_200_000_000,
    num_tensors=1200,
)


@dataclass(frozen=True)
class TrainingMemoryPlan:
    """How one implementation lays out training state on each rank."""

    name: str
    #: bytes per parameter held replicated on every rank
    replicated_bytes_per_param: float
    #: bytes per parameter sliced across the world (divided by world size)
    sliced_bytes_per_param: float
    #: fixed extra buffer bytes (e.g. DDP's communication buckets)
    fixed_buffer_bytes: int = 0

    def state_bytes(self, config: ModelConfig, world_size: int) -> int:
        p = config.num_params
        return int(
            p * self.replicated_bytes_per_param
            + p * self.sliced_bytes_per_param / world_size
            + self.fixed_buffer_bytes
        )


#: weights(2) + grads(2) + master/momentum/velocity fp32 (12) replicated,
#: plus a contiguous fp16 gradient buffer for the single AllReduce.
NV_BERT_PLAN = TrainingMemoryPlan("NV BERT", 16.0 + 2.0, 0.0)
#: DDP keeps a flattened bucket view of every gradient alongside the
#: originals ("PyTorch's DDP requires extra memory", §7).
PYTORCH_DDP_PLAN = TrainingMemoryPlan(
    "PyTorch DDP", 16.0 + 2.0, 0.0,
    fixed_buffer_bytes=2 * 25 * 1024 * 1024,
)
#: ZeRO partitions optimizer state; its gradient working buffer is
#: transient and reuses the gradient allocation.
ZERO_ADAM_PLAN = TrainingMemoryPlan("ZeRO", 4.0, 12.0)
#: ZeRO cannot partition LAMB state (§6.1.2) — fully replicated.
ZERO_LAMB_PLAN = TrainingMemoryPlan("ZeRO", 16.0 + 2.0, 0.0)
#: CoCoNet's scattered-tensor fused schedule: no contiguous copy, state
#: sliced across ranks.
COCONET_PLAN = TrainingMemoryPlan("CoCoNet", 4.0, 12.0)


def max_micro_batch(
    config: ModelConfig,
    plan: TrainingMemoryPlan,
    world_size: int,
    gpu: GPU = TESLA_V100,
    cap: Optional[int] = None,
) -> Optional[int]:
    """Largest power-of-two micro-batch that fits, or None for OOM.

    ``cap`` bounds the search (e.g. the global batch divided by the
    world size caps the useful micro-batch for Adam's 8192 global
    batch on 256 GPUs at 32).
    """
    state = plan.state_bytes(config, world_size)
    budget = gpu.memory_bytes - state
    if budget < config.activation_bytes_per_sample:
        return None
    batch = 1
    limit = cap if cap is not None else 1 << 20
    while (
        batch * 2 <= limit
        and (batch * 2) * config.activation_bytes_per_sample <= budget
    ):
        batch *= 2
    return batch
