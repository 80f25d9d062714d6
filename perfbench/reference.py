"""Reference forward pass, computed apart from the program's tensor code.

Plain numpy does the tubelet fold (reshape and transpose, not the program's
gather index), LayerNorm, the feed-forward block, the channel roll, pooling
and the head.  Every attention goes through ``oracle.oracle_attention``,
which loops over query/key pairs and looks the bias up by hand.  The shift
mode of each block is derived here from the variant, not taken from
``ModelConfig.block_modes``.
"""

from __future__ import annotations

import math

import numpy as np

from patchshift import oracle, patterns
from patchshift.tensor import Tensor

LN_EPS = 1e-6
_NONE = patterns.build_pattern("none")


def block_mode(variant: str, block: int) -> str:
    """Shift mode of a block: shifts sit on even blocks; combined alternates."""
    if variant == "avgpool" or block % 2:
        return "none"
    if variant == "patch_only":
        return "tps"
    if variant == "channel_only":
        return "tcs"
    return "tps" if (block // 2) % 2 == 0 else "tcs"


def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * g + b


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def _roll_channels(x, m: int, sign: int):
    """Channels [0, m) come from frame t - sign, [m, 2m) from t + sign."""
    out = x.copy()
    out[..., :m] = np.roll(x[..., :m], sign, axis=0)
    out[..., m : 2 * m] = np.roll(x[..., m : 2 * m], -sign, axis=0)
    return out


def reference_logits(model, video: np.ndarray) -> np.ndarray:
    """Class logits of one (F, H, W, 3) clip under the model's parameters."""
    cfg = model.config
    p = {name: t.data for name, t in model.params.items()}
    t_len, gh, gw = cfg.token_extents()
    s, k = cfg.tubelet_t, cfg.tubelet_s
    folded = (np.asarray(video).reshape(t_len, s, gh, k, gw, k, 3)
              .transpose(0, 2, 4, 1, 3, 5, 6).reshape(t_len, gh, gw, -1))
    z = folded @ p["embed.w"].T + p["embed.b"] + p["embed.pos"]
    layout = cfg.layout()
    m = int(round(cfg.dim * cfg.channel_ratio / 2))
    for i in range(cfg.depth):
        pre = f"block{i}."
        x = _layer_norm(z, p[pre + "ln1.g"], p[pre + "ln1.b"])
        params = model.attention_params(i)
        mode = block_mode(cfg.variant, i)
        if mode == "tps":
            att = oracle.oracle_attention(Tensor(x), model.pattern, layout, params)
        elif mode == "tcs":
            shifted = _roll_channels(x, m, 1)
            att = oracle.oracle_attention(Tensor(shifted), _NONE, layout, params)
            att = _roll_channels(att, m, -1)
        else:
            att = oracle.oracle_attention(Tensor(x), _NONE, layout, params)
        h = z + att
        y = _layer_norm(h, p[pre + "ln2.g"], p[pre + "ln2.b"])
        f = _gelu(y @ p[pre + "ffn.w1"].T + p[pre + "ffn.b1"])
        z = h + f @ p[pre + "ffn.w2"].T + p[pre + "ffn.b2"]
    return z.mean(axis=(0, 1, 2)) @ p["head.w"].T + p["head.b"]
