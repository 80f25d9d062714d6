"""Span tracing of patchshift from the outside, by wrapping its functions.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper that opens a span around the call.  Names are bound at import
(``from .tensor import gather`` in ``shifts``), so the wrapper is written
into every ``patchshift`` module that holds the original object, not only the
module that defines it.  ``Tape.emit`` is wrapped too, so that each recorded
backward closure becomes a span of its own (``<primitive>.bwd``), and
``Tape.backward`` becomes the ``tensor.backward`` span.

Spans keep their self time: the span's duration minus the time its child
spans cover.  Totals per span name and counters are kept in memory; the
first ``SPAN_CAP`` raw spans (id, parent, name, start, end) are kept as a
sample.  ``dump`` writes everything once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

SPAN_CAP = 20_000
TRACED_MODULES = ("tensor", "shifts", "attention", "model", "data", "oracle")

# Primitive tensor operations; transpose and swap_last are compositions.
PRIMITIVES = (
    "affine", "matmul", "add", "scale", "reshape", "gather", "stack",
    "softmax", "layer_norm", "gelu", "mean", "cross_entropy",
)


def _matmul_name(args, kwargs) -> str:
    label = kwargs.get("label", args[3] if len(args) > 3 else "matmul")
    return f"tensor.matmul.{label}"


def _block_name(args, kwargs) -> str:
    mode = kwargs["mode"] if "mode" in kwargs else args[4]
    return f"model.encoder_block.{mode}"


_NAMERS = {"tensor.matmul": _matmul_name, "model.encoder_block": _block_name}


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open frames: [name, start, child_s, id]
        self.totals: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        self._next_id += 1
        frame = [name, 0.0, 0.0, self._next_id]
        self.stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        name, start, child, span_id = frame
        dur = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += dur - child
        tot[2] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[3] if parent else 0, name, start, end))

    def span(self, fn, name: str):
        """fn wrapped in a span of a fixed name (used for backward closures)."""

        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        return traced

    def _wrap(self, fn, base: str, hook=None):
        namer = _NAMERS.get(base)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(namer(args, kwargs) if namer else base)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if hook is not None:
                hook(args, out)
            return out

        return traced

    # -- counters at layer boundaries -----------------------------------------

    def _hooks(self):
        counts = self.counts

        def softmax(args, out):
            if self.stack and self.stack[-1][0] == "attention.window_mhsa":
                counts["attention.score_elements"] += out.size

        def patch_shift(args, out):
            counts["shifts.patch_shift.bytes"] += out.data.nbytes

        def mac_profile(args, out):
            counts["oracle.mac_profile.runs"] += 1
            for label, macs in out.items():
                counts[f"oracle.macs.{label}"] += macs

        return {
            "tensor.softmax": softmax,
            "shifts.patch_shift": patch_shift,
            "oracle.mac_profile": mac_profile,
        }

    # -- installing and removing the wrappers ----------------------------------

    def install(self) -> None:
        """Wrap the public functions of the traced modules and Tape's methods."""
        from patchshift import tensor

        hooks = self._hooks()
        wrapped = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"patchshift.{short}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = self._wrap(obj, name, hooks.get(name))
        for name, module in list(sys.modules.items()):
            if name != "patchshift" and not name.startswith("patchshift."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._set(module, attr, wrapped[id(obj)])

        tape_cls = tensor.Tape
        emit, backward = tape_cls.emit, tape_cls.backward
        tracer = self

        def traced_emit(tape, out_arr, inputs, bwd, fwd):
            if not tape._record:
                return emit(tape, out_arr, inputs, bwd, fwd)
            prim = tracer.stack[-1][0] if tracer.stack else "tensor.unknown"
            out = emit(tape, out_arr, inputs, tracer.span(bwd, prim + ".bwd"), fwd)
            tracer.counts["tensor.tape_records"] += 1
            tracer.counts["tensor.tape_bytes"] += out.data.nbytes
            return out

        self._set(tape_cls, "emit", traced_emit)
        self._set(tape_cls, "backward", self._wrap(backward, "tensor.backward"))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- phases and output -------------------------------------------------------

    def take(self) -> dict:
        """Totals and counters so far, then start afresh (raw spans are kept)."""
        phase = {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "counts": dict(self.counts),
        }
        self.totals.clear()
        self.counts.clear()
        return phase

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["span_fields"] = ["id", "parent", "name", "start_s", "end_s"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)


def calls(phase: dict, name: str) -> int:
    return phase["totals"].get(name, [0, 0.0, 0.0])[0]


def self_s(phase: dict, name: str) -> float:
    return phase["totals"].get(name, [0, 0.0, 0.0])[1]


def layer_metrics(setup: dict, check: dict, timed: dict, fwd_clips: int, train_clips: int) -> dict:
    """The per-layer metrics of BENCHMARK.json, as name -> (value, unit).

    ``timed`` covers whole rounds of training and inference.  Backward-side
    figures are per trained clip; the other ``_per_clip`` figures are per
    forwarded clip (every trained or inferred clip is forwarded once).
    """
    counts = timed["counts"]

    def ms(name, clips, phase=timed):
        return (self_s(phase, name) * 1e3 / clips, "ms")

    def fwd_ms(name):
        return ms(name, fwd_clips)

    ops = sum(c[0] for n, c in timed["totals"].items()
              if n.startswith("tensor.") and n.split(".")[1] in PRIMITIVES
              and not n.endswith(".bwd"))
    out = {
        "tensor.ops_per_clip": (ops / fwd_clips, "count"),
        "tensor.tape_records_per_clip": (counts.get("tensor.tape_records", 0) / train_clips, "count"),
        "tensor.tape_bytes_per_clip": (counts.get("tensor.tape_bytes", 0) / train_clips, "bytes"),
        "tensor.backward.ms_per_clip": ms("tensor.backward", train_clips),
        "tensor.gather.bwd_ms_per_clip": ms("tensor.gather.bwd", train_clips),
        "tensor.gather.calls_per_clip": (calls(timed, "tensor.gather") / fwd_clips, "count"),
        "tensor.gather.fwd_ms_per_clip": fwd_ms("tensor.gather"),
    }
    for name in ("matmul.proj", "matmul.score", "matmul.agg", "affine", "softmax",
                 "layer_norm", "gelu"):
        out[f"tensor.{name}.ms_per_clip"] = fwd_ms(f"tensor.{name}")
    out["shifts.patch_shift.ms_per_clip"] = fwd_ms("shifts.patch_shift")
    out["shifts.patch_shift.bytes_per_clip"] = (
        counts.get("shifts.patch_shift.bytes", 0) / fwd_clips, "bytes")
    out["shifts.channel_shift.ms_per_clip"] = fwd_ms("shifts.channel_shift")
    out["attention.patch_shift_attention.self_ms_per_clip"] = fwd_ms("attention.patch_shift_attention")
    for name in ("window_mhsa", "relpos_index"):
        out[f"attention.{name}.calls_per_clip"] = (calls(timed, f"attention.{name}") / fwd_clips, "count")
        out[f"attention.{name}.ms_per_clip"] = fwd_ms(f"attention.{name}")
    out["attention.score_elements_per_clip"] = (
        counts.get("attention.score_elements", 0) / fwd_clips, "count")
    out["model.tubelet_embed.ms_per_clip"] = fwd_ms("model.tubelet_embed")
    for mode in ("tps", "tcs", "none"):
        out[f"model.encoder_block.{mode}.ms_per_clip"] = fwd_ms(f"model.encoder_block.{mode}")
    out["model.train_step.self_ms_per_clip"] = ms("model.train_step", train_clips)
    for name in ("model.save_checkpoint", "model.load_checkpoint", "data.gen_dataset"):
        out[f"{name}.ms"] = ms(name, 1, setup)
    runs = max(check["counts"].get("oracle.mac_profile.runs", 0), 1)
    for label in ("proj", "score", "agg", "affine"):
        out[f"oracle.macs_per_clip.{label}"] = (
            check["counts"].get(f"oracle.macs.{label}", 0) / runs, "count")
    return out
