"""Temporal patch-shift self-attention, built from scratch on a tiny tape.

Shifting part of each frame's patches to neighboring frames before windowed
spatial attention (and shifting back after) turns a per-frame attention
stack into sparse spatiotemporal attention at linear-in-T cost.  This
package holds the pattern DSL, the shift and attention operators with exact
gradients, a brute-force oracle, a MAC/memory profiler, synthetic tasks
that only temporal models can solve, and a CLI around all of it.
"""

from .attention import AttentionParams, WindowLayout, patch_shift_attention, relpos_index, window_mhsa
from .data import TASKS, SyntheticSample, TaskSpec, gen_dataset, load_dataset, save_dataset, split_dataset
from .errors import ContractError, ShapeError
from .model import (
    VARIANTS,
    Model,
    ModelConfig,
    encoder_block,
    evaluate,
    load_checkpoint,
    pack_params,
    save_checkpoint,
    train_step,
    tubelet_embed,
    unpack_params,
)
from .oracle import (
    COMPLEXITY_KINDS,
    ComplexityReport,
    complexity_estimate,
    count_macs,
    gather_sets,
    joint_attention,
    mac_profile,
    oracle_attention,
)
from .patterns import (
    PatternMetrics,
    ShiftPattern,
    build_pattern,
    builtin_names,
    format_pattern_text,
    parse_pattern_text,
    pattern_hash,
    pattern_metrics,
    resolve_pattern,
    tile_offsets,
)
from .shifts import (
    ShiftDirection,
    channel_selection,
    channel_shift,
    generic_shift,
    patch_selection,
    patch_shift,
    source_frames,
)
from .tensor import (
    Grads,
    Tape,
    Tensor,
    add,
    affine,
    cross_entropy,
    gather,
    gelu,
    grad_check,
    layer_norm,
    matmul,
    mean,
    reshape,
    scale,
    softmax,
    transpose,
)

__version__ = "0.1.0"
