"""Checks of the program's outputs that every benchmark run makes.

Each check takes what the program produced and what it should have been
produced from (parameters, config, inputs) and recomputes the expectation
on its own.  A check returns a ``Check``; none of them raises on a mismatch.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from patchshift import model as pm
from patchshift import oracle, patterns, shifts
from patchshift.tensor import Tensor

from .reference import reference_logits

LOGIT_RTOL = 1e-9
FIRST_LOSS_TOL = 1e-12
FD_EPS = 1e-3
FD_RTOL = 1e-6


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def first_loss(loss: float, classes: int) -> Check:
    """With a zero head every logit is 0, so the loss is exactly ln(classes)."""
    err = abs(loss - math.log(classes))
    return Check("first_loss", err <= FIRST_LOSS_TOL, f"|loss - ln {classes}| = {err:.3g}")


def _mean_loss(model, params, batch) -> float:
    net = pm.Model(model.config, params, model.pattern)
    total = 0.0
    for video, label in batch:
        z = net.logits(None, Tensor(video)).data
        top = z.max()
        total += top + math.log(np.exp(z - top).sum()) - z[label]
    return total / len(batch)


def update_direction(model, before: dict, after: dict, lr: float, batch, direction: dict) -> Check:
    """(before - after) / lr along a direction equals the loss's central difference.

    Holds for the first SGD step, where the update is lr times the mean
    gradient (momentum has no history yet).  The direction is scaled to unit
    length, and the central differences with steps FD_EPS and FD_EPS / 2 are
    Richardson-extrapolated, which cancels their leading error term.  The
    error is taken relative to the derivative, or to its typical size along a
    random unit direction (gradient norm / sqrt(parameter count)) when the
    drawn direction happens to be nearly orthogonal to the gradient.
    """
    norm = math.sqrt(sum(float((u * u).sum()) for u in direction.values()))
    unit = {n: u / norm for n, u in direction.items()}
    grad = {n: (before[n].data - after[n].data) / lr for n in unit}
    analytic = sum(float(np.vdot(grad[n], u)) for n, u in unit.items())

    def central(h):
        def loss(step):
            return _mean_loss(model, {n: Tensor(t.data + step * unit[n]) for n, t in before.items()}, batch)

        return (loss(h) - loss(-h)) / (2 * h)

    numeric = (4 * central(FD_EPS / 2) - central(FD_EPS)) / 3
    grad_norm = math.sqrt(sum(float((g * g).sum()) for g in grad.values()))
    typical = grad_norm / math.sqrt(sum(g.size for g in grad.values()))
    err = float(abs(analytic - numeric) / max(abs(numeric), typical, 1e-300))
    return Check("update_direction", err <= FD_RTOL,
                 f"update/lr . u = {analytic:.9g}, central difference {numeric:.9g}, "
                 f"relative error {err:.3g}")


def reference_forward(model, videos, logits) -> tuple[Check, list[np.ndarray]]:
    """Program logits against the reference forward, relative to the largest logit."""
    refs = [reference_logits(model, v) for v in videos]
    worst = 0.0
    for ref, got in zip(refs, logits):
        worst = max(worst, float(np.abs(ref - got).max() / max(np.abs(ref).max(), 1e-300)))
    nonzero = all(np.abs(ref).max() > 0 for ref in refs)
    return (Check("reference_forward", worst <= LOGIT_RTOL and nonzero,
                  f"max relative logit error {worst:.3g} over {len(refs)} clips"), refs)


def hit_count(refs, labels, hits: int) -> Check:
    """evaluate's hit count against argmax of the reference logits."""
    expected = sum(int(np.argmax(r) == y) for r, y in zip(refs, labels))
    return Check("hit_count", hits == expected, f"evaluate {hits} hits, reference {expected}")


def patch_shift_roundtrip(tokens: Tensor, shifted: Tensor, grid: np.ndarray) -> Check:
    """Inverse patch shift of the forward-shifted tokens restores them bit-exactly."""
    back = shifts.patch_shift(None, shifted, grid, shifts.ShiftDirection.INVERSE)
    moved = not np.array_equal(shifted.data, tokens.data) or not np.any(grid)
    ok = np.array_equal(back.data, tokens.data) and moved
    return Check("patch_shift_roundtrip", ok, f"restored bit-exactly: {ok}")


def channel_shift_roundtrip(tokens: Tensor, shifted: Tensor, ratio: float) -> Check:
    """Inverse channel shift of the forward-shifted tokens restores them bit-exactly."""
    back = shifts.channel_shift(None, shifted, ratio, shifts.ShiftDirection.INVERSE)
    ok = np.array_equal(back.data, tokens.data) and not np.array_equal(shifted.data, tokens.data)
    return Check("channel_shift_roundtrip", ok, f"restored bit-exactly: {ok}")


def checkpoint_roundtrip(saved_logits, loaded_logits) -> Check:
    ok = all(np.array_equal(a, b) for a, b in zip(saved_logits, loaded_logits))
    return Check("checkpoint_roundtrip", ok, f"logits bit-identical after load: {ok}")


def closed_form_macs(config) -> dict[str, int]:
    """Forward MACs of one clip, by mac_profile label, from the config alone."""
    t_len, gh, gw = config.token_extents()
    sites, d = t_len * gh * gw, config.dim
    est = oracle.complexity_estimate("patchshift", n_patches=gh * gw, t_frames=t_len,
                                     dim=d, heads=config.heads, window=config.window)
    embed = sites * config.token_dim_in() * d
    ffn = 2 * sites * d * pm.FFN_RATIO * d
    head = d * config.classes
    return {
        "proj": config.depth * est.projection_macs,
        "score": config.depth * est.score_macs,
        "agg": config.depth * est.aggregate_macs,
        "affine": embed + config.depth * ffn + head,
    }


def macs(config, profile) -> Check:
    expected = closed_form_macs(config)
    got = {label: int(profile.get(label, 0)) for label in expected}
    extra = set(profile) - set(expected)
    return Check("macs", got == expected and not extra, f"measured {dict(profile)}, closed form {expected}")


def score_elements(config, per_clip: float) -> Check:
    """Softmax elements inside window attention against the closed-form buffer."""
    t_len, gh, gw = config.token_extents()
    est = oracle.complexity_estimate("patchshift", n_patches=gh * gw, t_frames=t_len,
                                     dim=config.dim, heads=config.heads, window=config.window)
    expected = config.depth * config.heads * est.buffer_elements
    return Check("score_elements", per_clip == expected,
                 f"measured {per_clip} per clip, closed form {expected}")


def shift_grid(model) -> np.ndarray:
    """The model's pattern tiled over its token grid."""
    _, gh, gw = model.config.token_extents()
    return patterns.tile_offsets(model.pattern, gh, gw)
