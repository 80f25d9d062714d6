"""The benchmark's workloads: geometry, model, recipe and block sizes."""

from __future__ import annotations

from dataclasses import dataclass, replace

from patchshift.data import TaskSpec
from patchshift.model import ModelConfig


@dataclass(frozen=True)
class Workload:
    name: str
    task: TaskSpec
    config: ModelConfig
    batch: int  # clips per train step; a timed train block is one step
    lr: float
    momentum: float
    eval_clips: int  # clips per evaluate call; a timed inference block is one call
    check_clips: int  # clips checked against the reference forward


# T=8 on an 8x8 grid, 32 windows per block, patch- and channel-shift blocks:
# the window loop, relpos rebuilds and index moves dominate.
_LARGE = Workload(
    name="large",
    task=TaskSpec(task="direction4", frames=16, height=32, width=32,
                  train_count=16, val_count=8),
    config=ModelConfig(depth=4, dim=64, heads=4, window=(4, 4), pattern="B4",
                       variant="combined", classes=4, frames=16, height=32,
                       width=32, tubelet_t=2, tubelet_s=4),
    batch=2, lr=0.01, momentum=0.9,
    eval_clips=2, check_clips=2,
)

WORKLOADS = {
    w.name: w
    for w in (
        # Criterion-6 geometry: tiny tensors and two windows per block, so
        # per-op dispatch, tape records and the per-clip loop dominate.
        Workload(
            name="crit6",
            task=TaskSpec(task="reversal2", frames=6, height=8, width=8,
                          train_count=256, val_count=64),
            config=ModelConfig(depth=2, dim=32, heads=2, window=(2, 2), pattern="bayerA",
                               variant="patch_only", classes=2, frames=6, height=8,
                               width=8, tubelet_t=3, tubelet_s=4),
            batch=256, lr=0.02, momentum=0.9,
            eval_clips=64, check_clips=16,
        ),
        _LARGE,
        # The patch shift runs as identity moves: large against it is the
        # TPS overhead, and it bypasses any patch-shift optimisation.
        replace(
            _LARGE,
            name="large_noshift",
            config=replace(_LARGE.config, pattern="none"),
        ),
    )
}
