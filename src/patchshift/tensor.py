"""Dense float64 tensors with an explicit, auditable reverse-mode tape.

Every operation that participates in gradients is one of a small set of
primitives.  Each primitive pushes a record (inputs, output, backward rule,
forward replay closure) onto an explicit ``Tape``; gradients come from a
single reverse sweep over the records.  Replaying a tape reproduces every
forward value bit-exactly, which is what the determinism tests lean on.

The elementwise rules (softmax, layer norm, GELU, cross-entropy) fill only
the buffers they return or keep, with in-place ufuncs applied in the
operation order of the textbook expressions, so their values stay bit-equal
to those expressions.  A backward rule never writes into its incoming
gradient (``add`` hands one array to both inputs) nor into what the forward
pass saved.

The tape also tallies forward multiply-accumulate counts per label, so a
forward pass can be profiled without touching the math.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Sequence

import numpy as np

from .errors import ContractError, NonFiniteError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "Grads",
    "affine",
    "matmul",
    "add",
    "scale",
    "reshape",
    "gather",
    "transpose",
    "softmax",
    "layer_norm",
    "gelu",
    "mean",
    "cross_entropy",
    "grad_check",
]


class Tensor:
    """Immutable dense value grid, 64-bit floats in row-major order."""

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        arr = np.array(data, dtype=np.float64, order="C")
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor holds non-finite values")
        arr.flags.writeable = False
        self.data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Fast path for freshly computed op outputs: no defensive copy.
        out = cls.__new__(cls)
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)  # keeps 0-d shape () intact
        if not np.isfinite(arr).all():
            raise NonFiniteError("operation produced non-finite values")
        if arr.flags.writeable:
            arr.flags.writeable = False
        out.data = arr
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class _Record:
    __slots__ = ("out", "inputs", "backward", "forward")

    def __init__(self, out, inputs, backward, forward) -> None:
        self.out = out
        self.inputs = inputs
        self.backward = backward
        self.forward = forward


class Tape:
    """Ordered record of primitive applications.

    ``backward`` runs one reverse sweep and returns exact gradients of a
    scalar output with respect to any recorded tensor.  ``macs`` holds the
    forward multiply-accumulate tally, keyed by the label each matrix
    product was issued under.  Passing ``record=False`` keeps the MAC tally
    but skips gradient records (cheap profiling-only forwards).
    """

    def __init__(self, record: bool = True) -> None:
        self.records: list[_Record] = []
        self.macs: Counter[str] = Counter()
        self._record = record

    def add_macs(self, label: str, count: int) -> None:
        self.macs[label] += count

    def emit(self, out_arr, inputs, backward, forward) -> Tensor:
        out = Tensor._wrap(out_arr)
        if self._record:
            self.records.append(_Record(out, tuple(inputs), backward, forward))
        return out

    def backward(self, output: Tensor) -> "Grads":
        """Reverse sweep from a scalar output. Returns a Grads lookup.

        A record's output gradient is complete once the record has run (every
        consumer comes later on the tape), so it is dropped there; only the
        gradients of leaves, tensors no record produced, are kept.
        """
        if output.data.size != 1:
            raise ContractError(
                f"backward needs a scalar output, got shape {output.shape}"
            )
        table: dict[int, tuple[Tensor, np.ndarray]] = {
            id(output): (output, np.ones_like(output.data))
        }
        for rec in reversed(self.records):
            entry = table.pop(id(rec.out), None)
            if entry is None:
                continue
            grads = rec.backward(entry[1])
            for tensor, g in zip(rec.inputs, grads):
                if g is None:
                    continue
                acc = table.get(id(tensor))
                table[id(tensor)] = (tensor, g if acc is None else acc[1] + g)
        return Grads(table)

    def replay_matches(self) -> bool:
        """Recompute every record's forward value; True iff all bit-equal."""
        return all(np.array_equal(rec.forward(), rec.out.data) for rec in self.records)


class Grads:
    """Leaf gradient lookup keyed by tensor identity; zeros for untouched tensors."""

    def __init__(self, table: dict[int, tuple[Tensor, np.ndarray]]) -> None:
        self._table = table  # holding each tensor keeps its id unique

    def __getitem__(self, t: Tensor) -> np.ndarray:
        entry = self._table.get(id(t))
        if entry is None:
            return np.zeros(t.shape)
        return entry[1]


def _as_axes(axes, ndim: int) -> tuple[int, ...]:
    if isinstance(axes, int):
        axes = (axes,)
    norm = tuple(sorted(a % ndim for a in axes))
    if len(set(norm)) != len(norm):
        raise ContractError(f"duplicate axes {axes}")
    return norm


# ---------------------------------------------------------------------------
# primitives


def affine(tape: Tape | None, x: Tensor, w: Tensor, b: Tensor, label: str = "affine") -> Tensor:
    """y[..., o] = sum_i x[..., i] * w[o, i] + b[o]."""
    if w.ndim != 2 or b.ndim != 1:
        raise ShapeError(f"affine wants w (out,in) and b (out,), got {w.shape} and {b.shape}")
    out_dim, in_dim = w.shape
    if x.shape[-1] != in_dim or b.shape[0] != out_dim:
        raise ShapeError(
            f"affine mismatch: x {x.shape} vs w {w.shape} vs b {b.shape}"
        )
    xd, wd, bd = x.data, w.data, b.data
    x2 = xd.reshape(-1, in_dim)

    def forward():
        # one (m, in) @ (in, out) product over every leading row, bias in place
        y = x2 @ wd.T
        y += bd
        return y.reshape(*xd.shape[:-1], out_dim)

    y = forward()
    if tape is None:
        return Tensor._wrap(y)
    tape.add_macs(label, x.size * out_dim)

    def backward(g):
        g2 = g.reshape(-1, out_dim)
        dx = (g2 @ wd).reshape(xd.shape)
        dw = g2.T @ x2
        db = g2.sum(axis=0)
        return dx, dw, db

    return tape.emit(y, (x, w, b), backward, forward)


def matmul(tape: Tape | None, a: Tensor, b: Tensor, label: str = "matmul") -> Tensor:
    """Batched matrix product with equal leading dims: (..., n, m) @ (..., m, k)."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul wants >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul mismatch: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    y = ad @ bd
    if tape is None:
        return Tensor._wrap(y)
    tape.add_macs(label, a.size * b.shape[-1])

    def backward(g):
        da = g @ bd.swapaxes(-1, -2)
        db = ad.swapaxes(-1, -2) @ g
        return da, db

    return tape.emit(y, (a, b), backward, lambda: ad @ bd)


def add(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add mismatch: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    y = ad + bd
    if tape is None:
        return Tensor._wrap(y)
    return tape.emit(y, (a, b), lambda g: (g, g), lambda: ad + bd)


def scale(tape: Tape | None, x: Tensor, c: float) -> Tensor:
    """Multiply every element by the python scalar c."""
    c = float(c)
    xd = x.data
    y = xd * c
    if tape is None:
        return Tensor._wrap(y)
    return tape.emit(y, (x,), lambda g: (g * c,), lambda: xd * c)


def reshape(tape: Tape | None, x: Tensor, shape: Sequence[int]) -> Tensor:
    """Row-major reshape; element order is untouched."""
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    xd = x.data
    y = xd.reshape(shape)
    if tape is None:
        return Tensor._wrap(y)
    return tape.emit(
        y, (x,), lambda g: (g.reshape(xd.shape),), lambda: xd.reshape(shape)
    )


def gather(tape: Tape | None, x: Tensor, flat_index: np.ndarray, out_shape: Sequence[int]) -> Tensor:
    """out.flat[i] = x.flat[flat_index[i]].

    The workhorse behind every index move in the package: temporal shifts,
    window partition/merge, the tubelet position broadcast, bias-table
    lookup.  Indices may repeat; the adjoint scatter-adds, so for a
    bijection the backward pass is exactly the inverse permutation.
    """
    out_shape = tuple(int(s) for s in out_shape)
    idx = np.asarray(flat_index, dtype=np.int64).ravel()
    if idx.size != math.prod(out_shape):
        raise ShapeError(f"gather index count {idx.size} != target size {out_shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.size):
        raise ContractError("gather index out of range")
    xd = x.data
    y = xd.reshape(-1)[idx].reshape(out_shape)
    if tape is None:
        return Tensor._wrap(y)

    def backward(g):
        dx = np.zeros(xd.size)
        np.add.at(dx, idx, g.ravel())
        return (dx.reshape(xd.shape),)

    return tape.emit(
        y, (x,), backward, lambda: xd.reshape(-1)[idx].reshape(out_shape)
    )


def transpose(tape: Tape | None, x: Tensor, axes: Sequence[int]) -> Tensor:
    """Axis permutation; the adjoint is the inverse permutation."""
    axes = tuple(int(a) for a in axes)
    if sorted(a % x.ndim for a in axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose axes {axes} invalid for shape {x.shape}")
    xd = x.data
    y = xd.transpose(axes)
    if tape is None:
        return Tensor._wrap(y)
    inverse = [0] * x.ndim
    for i, a in enumerate(axes):
        inverse[a % x.ndim] = i
    return tape.emit(
        y, (x,), lambda g: (g.transpose(inverse),), lambda: xd.transpose(axes)
    )


def _softmax_raw(arr: np.ndarray, axis: int) -> np.ndarray:
    e = arr - arr.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax(tape: Tape | None, x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along one axis; rows sum to 1 exactly up to rounding."""
    xd = x.data
    y = _softmax_raw(xd, axis)
    if tape is None:
        return Tensor._wrap(y)

    def backward(g):
        dx = g * y
        inner = dx.sum(axis=axis, keepdims=True)
        np.subtract(g, inner, out=dx)
        dx *= y
        return (dx,)

    return tape.emit(y, (x,), backward, lambda: _softmax_raw(xd, axis))


def layer_norm(tape: Tape | None, x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the trailing axis to zero mean / unit variance, then scale+shift."""
    if eps <= 0:
        raise ContractError(f"layer_norm eps must be positive, got {eps}")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm params must be ({d},), got {gamma.shape} and {beta.shape}"
        )
    xd, gd, bd = x.data, gamma.data, beta.data

    def forward():
        """(y, xhat, inv): the output and what backward keeps."""
        xhat = xd - xd.mean(axis=-1, keepdims=True)
        y = xhat * xhat
        inv = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + eps)
        xhat *= inv
        np.multiply(xhat, gd, out=y)
        y += bd
        return y, xhat, inv

    y, xhat, inv = forward()
    if tape is None:
        return Tensor._wrap(y)

    def backward(g):
        t = g * xhat
        dgamma = t.reshape(-1, d).sum(axis=0)
        dbeta = g.reshape(-1, d).sum(axis=0)
        dx = g * gd
        m1 = dx.mean(axis=-1, keepdims=True)
        np.multiply(dx, xhat, out=t)
        m2 = t.mean(axis=-1, keepdims=True)
        dx -= m1
        np.multiply(xhat, m2, out=t)
        dx -= t
        dx *= inv
        return dx, dgamma, dbeta

    return tape.emit(y, (x, gamma, beta), backward, lambda: forward()[0])


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


def _gelu_raw(xd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(y, th): 0.5 x (1 + tanh(u)) with u = c (x + k x^3), and th = tanh(u)."""
    th = xd * xd
    th *= xd
    th *= _GELU_K
    th += xd
    th *= _GELU_C
    np.tanh(th, out=th)
    y = th + 1.0
    y *= xd
    y *= 0.5
    return y, th


def gelu(tape: Tape | None, x: Tensor) -> Tensor:
    """Smooth gating nonlinearity (tanh form) for the feed-forward blocks."""
    xd = x.data
    y, th = _gelu_raw(xd)
    if tape is None:
        return Tensor._wrap(y)

    def backward(g):
        # dy/dx = 0.5 (1 + th) + 0.5 x (1 - th^2) c (1 + 3 k x^2)
        dx = xd * xd
        dx *= 3 * _GELU_K
        dx += 1.0
        dx *= _GELU_C
        t = th * th
        np.subtract(1.0, t, out=t)
        t *= 0.5
        t *= xd
        dx *= t
        np.add(th, 1.0, out=t)
        t *= 0.5
        dx += t
        dx *= g
        return (dx,)

    return tape.emit(y, (x,), backward, lambda: _gelu_raw(xd)[0])


def mean(tape: Tape | None, x: Tensor, axes) -> Tensor:
    """Arithmetic mean over the given axes."""
    axes = _as_axes(axes, x.ndim)
    xd = x.data
    y = xd.mean(axis=axes)
    count = math.prod(xd.shape[a] for a in axes)
    if tape is None:
        return Tensor._wrap(y)

    def backward(g):
        g_exp = np.expand_dims(g, axes)
        return (np.broadcast_to(g_exp, xd.shape) / count,)

    return tape.emit(y, (x,), backward, lambda: xd.mean(axis=axes))


def cross_entropy(tape: Tape | None, logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under row softmax."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy wants (batch, classes) logits, got {logits.shape}")
    n, c = logits.shape
    lab = np.asarray(labels, dtype=np.int64).ravel()
    if lab.size != n:
        raise ShapeError(f"{lab.size} labels for {n} logit rows")
    if lab.size and (lab.min() < 0 or lab.max() >= c):
        raise ContractError(f"label out of range [0, {c})")
    ld = logits.data

    def forward():
        m = ld.max(axis=1, keepdims=True)
        lse = m.squeeze(1) + np.log(np.exp(ld - m).sum(axis=1))
        return np.array((lse - ld[np.arange(n), lab]).mean())

    y = forward()
    if tape is None:
        return Tensor._wrap(y)

    def backward(g):
        p = _softmax_raw(ld, 1)
        p[np.arange(n), lab] -= 1.0
        p *= float(g)
        p /= n
        return (p,)

    return tape.emit(y, (logits,), backward, forward)


# ---------------------------------------------------------------------------
# gradient verification


def grad_check(f: Callable[[Tape | None, Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Compare tape gradients of a scalar function against central differences.

    Returns max over coordinates of |analytic - numeric| / max(1, |analytic|).
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ContractError(f"grad_check eps must lie in [1e-7, 1e-3], got {eps}")
    tape = Tape()
    y = f(tape, x)
    if y.data.size != 1:
        raise ContractError(f"grad_check needs a scalar function, got shape {y.shape}")
    analytic = tape.backward(y)[x]

    numeric = np.empty(x.size)
    base = np.array(x.data)
    for i in range(x.size):
        xp = base.copy()
        xp.flat[i] += eps
        fp = f(None, Tensor(xp)).item()
        xm = base.copy()
        xm.flat[i] -= eps
        fm = f(None, Tensor(xm)).item()
        numeric[i] = (fp - fm) / (2.0 * eps)
    numeric = numeric.reshape(x.shape)

    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(rel.max()) if rel.size else 0.0
