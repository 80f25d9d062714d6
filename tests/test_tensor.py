"""Primitive forward values, gradient checks, and tape determinism."""

import math

import numpy as np
import pytest

from patchshift.errors import ContractError, ShapeError
from patchshift.tensor import (
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


class TestTensor:
    def test_holds_float64_copy(self):
        src = np.arange(6, dtype=np.float32).reshape(2, 3)
        t = Tensor(src)
        assert t.data.dtype == np.float64
        src[0, 0] = 99.0
        assert t.data[0, 0] == 0.0

    def test_immutable(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ContractError):
            Tensor([1.0, bad])

    def test_item_wants_single_element(self):
        assert Tensor([[3.5]]).item() == 3.5
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24


class TestForwardValues:
    def test_affine_matches_manual(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 3)))
        w = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=4))
        y = affine(None, x, w, b)
        np.testing.assert_allclose(y.data, x.data @ w.data.T + b.data, atol=1e-15)

    def test_affine_on_leading_clip_axes(self):
        # (2, 3, 4, 5): two leading clip axes over rows of 5 features
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 4, 5))
        w = Tensor(rng.normal(size=(6, 5)))
        b = Tensor(rng.normal(size=6))
        want = x @ w.data.T + b.data
        tape = Tape()
        y = affine(tape, Tensor(x), w, b)
        assert y.shape == (2, 3, 4, 6)
        assert np.abs(y.data - want).max() <= 1e-13 * np.abs(want).max()
        assert tape.replay_matches()
        for arg in range(3):
            def f(tape, t, arg=arg):
                args = [Tensor(x), w, b]
                args[arg] = t
                return mean(tape, gelu(tape, affine(tape, *args)), (0, 1, 2, 3))
            assert grad_check(f, [Tensor(x), w, b][arg]) < 1e-7

    def test_affine_shape_errors(self):
        x = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            affine(None, x, Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))
        with pytest.raises(ShapeError):
            affine(None, x, Tensor(np.zeros((4, 3))), Tensor(np.zeros(5)))

    def test_matmul_batched(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(2, 3, 4)))
        b = Tensor(rng.normal(size=(2, 4, 5)))
        np.testing.assert_allclose(matmul(None, a, b).data, a.data @ b.data, atol=1e-15)

    def test_matmul_rejects_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(None, Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
        with pytest.raises(ShapeError):
            matmul(None, Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))

    def test_add_and_scale(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([10.0, 20.0])
        np.testing.assert_array_equal(add(None, a, b).data, [11.0, 22.0])
        np.testing.assert_array_equal(scale(None, a, -2.0).data, [-2.0, -4.0])
        with pytest.raises(ShapeError):
            add(None, a, Tensor([1.0, 2.0, 3.0]))

    def test_reshape_row_major(self):
        t = Tensor(np.arange(6.0))
        y = reshape(None, t, (2, 3))
        np.testing.assert_array_equal(y.data, [[0, 1, 2], [3, 4, 5]])
        with pytest.raises(ShapeError):
            reshape(None, t, (4, 2))

    def test_gather_basic_and_bounds(self):
        t = Tensor(np.arange(6.0))
        y = gather(None, t, np.array([5, 0, 5]), (3,))
        np.testing.assert_array_equal(y.data, [5.0, 0.0, 5.0])
        with pytest.raises(ContractError):
            gather(None, t, np.array([6]), (1,))
        with pytest.raises(ShapeError):
            gather(None, t, np.array([0, 1]), (3,))

    def test_transpose_and_swap_last(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        np.testing.assert_array_equal(
            transpose(None, x, (2, 0, 1)).data, x.data.transpose(2, 0, 1)
        )

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        y = softmax(None, Tensor(rng.normal(size=5)))
        assert abs(y.data.sum() - 1.0) < 1e-12
        assert (y.data > 0).all()

    def test_softmax_shift_invariant_and_stable(self):
        x = np.array([1.0, 2.0, 3.0])
        big = softmax(None, Tensor(x + 1000.0)).data
        np.testing.assert_allclose(big, softmax(None, Tensor(x)).data, atol=1e-12)
        assert np.isfinite(big).all()

    def test_layer_norm_normalizes(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(3.0, 2.0, size=(6, 8)))
        y = layer_norm(None, x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(y.data.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.data.std(axis=-1), 1.0, atol=1e-3)

    def test_layer_norm_already_normalized_is_identity(self):
        # x = [-1, 1] has zero mean, unit variance: gamma 1 / beta 0 keep it.
        x = Tensor([[-1.0, 1.0]])
        y = layer_norm(None, x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(y.data, [[-1.0, 1.0]], atol=1e-6)

    def test_gelu_fixed_points(self):
        y = gelu(None, Tensor([0.0, 100.0, -100.0]))
        np.testing.assert_allclose(y.data, [0.0, 100.0, 0.0], atol=1e-12)

    def test_mean_axes(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4))
        np.testing.assert_allclose(
            mean(None, x, (0, 2)).data, x.data.mean(axis=(0, 2)), atol=1e-15
        )
        assert mean(None, x, (0, 1, 2)).data.shape == ()
        with pytest.raises(ContractError):
            mean(None, x, (0, 0))

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((3, 4)))
        y = cross_entropy(None, logits, [0, 1, 3])
        np.testing.assert_allclose(y.data, np.log(4.0), atol=1e-12)

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(ContractError):
            cross_entropy(None, Tensor(np.zeros((2, 3))), [0, 3])
        with pytest.raises(ShapeError):
            cross_entropy(None, Tensor(np.zeros(3)), [0])


_rng = np.random.default_rng(99)
_W4X3 = Tensor(_rng.normal(size=(4, 3)))
_B4 = Tensor(_rng.normal(size=4))
_M3X5 = Tensor(_rng.normal(size=(3, 5)))
_G3 = Tensor(_rng.normal(1.0, 0.3, size=3))
_BE3 = Tensor(_rng.normal(size=3))
_DUP_IDX = np.array([0, 0, 7, 3, 7])

# name -> (input shape, scalar function of one tensor)
SCALAR_FUNCS = {
    "affine": ((4, 3), lambda tape, x: mean(tape, affine(tape, x, _W4X3, _B4), (0, 1))),
    "matmul": ((4, 3), lambda tape, x: mean(tape, matmul(tape, x, _M3X5), (0, 1))),
    "softmax_dot": ((4, 3), lambda tape, x: mean(
        tape, matmul(tape, softmax(tape, x), _M3X5), (0, 1))),
    "layer_norm": ((4, 3), lambda tape, x: mean(
        tape, layer_norm(tape, x, _G3, _BE3), (0, 1))),
    "gelu": ((4, 3), lambda tape, x: mean(tape, gelu(tape, x), (0, 1))),
    "gather_dup": ((8,), lambda tape, x: mean(
        tape, gather(tape, x, _DUP_IDX, (5,)), (0,))),
    "cross_entropy": ((3, 4), lambda tape, x: cross_entropy(tape, x, [1, 0, 2])),
}


class TestGradients:
    @pytest.mark.parametrize("name", sorted(SCALAR_FUNCS))
    def test_primitive_grad_matches_finite_differences(self, name):
        shape, func = SCALAR_FUNCS[name]
        rng = np.random.default_rng(sum(map(ord, name)))
        x = Tensor(rng.uniform(-1.0, 1.0, size=shape))
        err = grad_check(func, x)
        assert err < 1e-6, f"{name}: rel err {err}"

    def test_mean_full_reduction_grad(self):
        x = Tensor(np.random.default_rng(5).normal(size=(3, 2, 2, 4)))
        tape = Tape()
        y = mean(tape, x, (0, 1, 2, 3))
        assert y.data.shape == ()
        g = tape.backward(y)[x]
        np.testing.assert_allclose(g, np.full(x.shape, 1.0 / x.size), atol=1e-15)

    def test_gather_backward_scatter_adds_duplicates(self):
        x = Tensor(np.zeros(4))
        tape = Tape()
        y = gather(tape, x, np.array([2, 2, 2]), (3,))
        s = mean(tape, y, (0,))
        g = tape.backward(s)[x]
        np.testing.assert_allclose(g, [0.0, 0.0, 1.0, 0.0], atol=1e-15)

    def test_permutation_gather_backward_is_inverse_permutation(self):
        rng = np.random.default_rng(6)
        perm = rng.permutation(7)
        x = Tensor(rng.normal(size=7))
        w = rng.normal(size=7)
        tape = Tape()
        y = gather(tape, x, perm, (7,))
        # weighted sum via affine against a fixed row vector
        s = mean(tape, matmul(tape, reshape(tape, y, (1, 7)), Tensor(w[:, None])), (0, 1))
        g = tape.backward(s)[x]
        expected = np.zeros(7)
        expected[perm] = w / 1.0
        np.testing.assert_allclose(g, expected, atol=1e-15)

    def test_transpose_backward_is_inverse_transpose(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        w = rng.normal(size=(4, 2, 3))
        tape = Tape()
        y = transpose(tape, x, (2, 0, 1))
        assert len(tape.records) == 1  # one native record, no index array
        s = mean(tape, matmul(tape, reshape(tape, y, (1, 24)), Tensor(w.reshape(24, 1))), (0, 1))
        g = tape.backward(s)[x]
        np.testing.assert_array_equal(g, w.transpose(1, 2, 0))

    def test_two_block_composition_grad(self):
        # A deeper composite touching most primitives at once.
        rng = np.random.default_rng(7)
        w1 = Tensor(rng.normal(scale=0.5, size=(6, 4)))
        b1 = Tensor(rng.normal(scale=0.5, size=6))
        w2 = Tensor(rng.normal(scale=0.5, size=(2, 6)))
        b2 = Tensor(rng.normal(scale=0.5, size=2))
        g3 = Tensor(np.ones(4))
        be3 = Tensor(np.zeros(4))

        def f(tape, x):
            h = layer_norm(tape, x, g3, be3)
            h = gelu(tape, affine(tape, h, w1, b1))
            logits = affine(tape, h, w2, b2)
            return cross_entropy(tape, logits, [0, 1, 1])

        x = Tensor(rng.uniform(-1.0, 1.0, size=(3, 4)))
        assert grad_check(f, x) < 1e-6

    def test_grads_zero_for_untouched_tensor(self):
        x = Tensor([1.0, 2.0])
        other = Tensor([3.0, 4.0])
        tape = Tape()
        y = mean(tape, scale(tape, x, 2.0), (0,))
        grads = tape.backward(y)
        assert isinstance(grads, Grads)
        np.testing.assert_array_equal(grads[other], np.zeros(2))

    def test_backward_rejects_non_scalar(self):
        tape = Tape()
        y = scale(tape, Tensor([1.0, 2.0]), 2.0)
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_grad_check_eps_bounds(self):
        with pytest.raises(ContractError):
            grad_check(lambda tape, x: mean(tape, x, (0,)), Tensor([1.0]), eps=1e-2)


# Textbook forms of the elementwise rules, written as plain expressions: the
# in-place kernels must match them bit for bit.
def _ref_softmax(x, g, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)
    inner = (g * y).sum(axis=axis, keepdims=True)
    return y, (y * (g - inner),)


def _ref_layer_norm(x, g, gamma, beta, eps=1e-6):
    d = x.shape[-1]
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    y = xhat * gamma + beta
    dgamma = (g * xhat).reshape(-1, d).sum(axis=0)
    dbeta = g.reshape(-1, d).sum(axis=0)
    dxhat = g * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return y, (inv * (dxhat - m1 - xhat * m2), dgamma, dbeta)


def _ref_gelu(x, g):
    c = math.sqrt(2.0 / math.pi)
    th = np.tanh(c * (x + 0.044715 * (x * x * x)))
    y = 0.5 * x * (1.0 + th)
    du = c * (1.0 + 3 * 0.044715 * x**2)
    return y, (g * (0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * du),)


def _ref_cross_entropy(x, g, labels):
    n = x.shape[0]
    m = x.max(axis=1, keepdims=True)
    lse = m.squeeze(1) + np.log(np.exp(x - m).sum(axis=1))
    p = np.exp(x - m)
    p = p / p.sum(axis=1, keepdims=True)
    p[np.arange(n), labels] -= 1.0
    return np.array((lse - x[np.arange(n), labels]).mean()), (float(g) * p / n,)


_G5 = Tensor(_rng.normal(1.0, 0.3, size=5))
_BE5 = Tensor(_rng.normal(size=5))
_LABELS = [0, 4, 2, 2]

# name -> (input shape, primitive on one tensor, textbook (value, grads) of x and g)
KERNELS = {
    "gelu": ((3, 4, 5), gelu, _ref_gelu),
    "layer_norm": ((3, 4, 5), lambda tape, x: layer_norm(tape, x, _G5, _BE5),
                   lambda x, g: _ref_layer_norm(x, g, _G5.data, _BE5.data)),
    "softmax": ((3, 4, 5), lambda tape, x: softmax(tape, x, axis=1),
                lambda x, g: _ref_softmax(x, g, 1)),
    "mean": ((3, 4, 5), lambda tape, x: mean(tape, x, (0, 2)), None),
    "cross_entropy": ((4, 5), lambda tape, x: cross_entropy(tape, x, _LABELS),
                      lambda x, g: _ref_cross_entropy(x, g, _LABELS)),
}


class TestKernels:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_backward_writes_neither_g_nor_saved_arrays(self, name):
        # add hands one g object to both of its inputs, so a rule that wrote
        # into g, its output or its saved forward arrays would corrupt others.
        shape, func, _ = KERNELS[name]
        rng = np.random.default_rng(sum(map(ord, name)))
        tape = Tape()
        y = func(tape, Tensor(rng.normal(size=shape)))
        rec = tape.records[-1]
        saved = [c.cell_contents for c in rec.backward.__closure__
                 if isinstance(c.cell_contents, np.ndarray)]
        assert saved
        kept = [a.copy() for a in saved] + [rec.out.data.copy()]
        g = rng.normal(size=y.shape)
        g_before = g.copy()
        first = [a.copy() for a in rec.backward(g)]
        second = rec.backward(g)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
            assert not np.shares_memory(b, g)
        assert np.array_equal(g, g_before)
        for a, b in zip(saved + [rec.out.data], kept):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 1e4])
    @pytest.mark.parametrize("name", sorted(n for n in KERNELS if KERNELS[n][2]))
    def test_bit_equal_to_textbook_form(self, name, scale):
        shape, func, ref = KERNELS[name]
        rng = np.random.default_rng(sum(map(ord, name)) + int(scale))
        x = rng.normal(size=shape) * scale
        x.flat[:3] = [0.0, -40.0, 40.0]
        tape = Tape()
        y = func(tape, Tensor(x))
        g = rng.normal(size=y.shape)
        want_y, want_grads = ref(x, g)
        assert np.array_equal(y.data, want_y)
        grads = tape.records[-1].backward(g)
        assert len(grads) == len(want_grads)
        for got, want in zip(grads, want_grads):
            assert np.array_equal(got, want)
        assert tape.replay_matches()


class TestTape:
    def test_replay_is_bit_exact(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(5, 3)))
        b = Tensor(rng.normal(size=5))
        tape = Tape()
        y = softmax(tape, affine(tape, x, w, b))
        mean(tape, layer_norm(tape, y, Tensor(np.ones(5)), Tensor(np.zeros(5))), (0, 1))
        assert len(tape.records) == 4
        assert tape.replay_matches()

    def test_backward_keeps_exact_leaf_gradients_only(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(5, 4)))
        b = Tensor(rng.normal(size=5))
        tape = Tape()
        h = affine(tape, x, w, b)
        y = add(tape, gelu(tape, h), h)  # h feeds two records
        t = transpose(tape, y, (1, 0))
        s = cross_entropy(tape, reshape(tape, t, (5, 3)), [0, 2, 1, 1, 0])

        # Reference sweep that keeps every gradient, intermediates included.
        table = {id(s): np.ones_like(s.data)}
        for rec in reversed(tape.records):
            g_out = table.get(id(rec.out))
            if g_out is None:
                continue
            for tensor, g in zip(rec.inputs, rec.backward(g_out)):
                acc = table.get(id(tensor))
                table[id(tensor)] = g if acc is None else acc + g

        grads = tape.backward(s)
        for leaf in (x, w, b):
            assert np.abs(table[id(leaf)]).max() > 0
            assert np.array_equal(grads[leaf], table[id(leaf)])
        for inner in (h, y, t):  # dropped once their records ran
            assert np.abs(table[id(inner)]).max() > 0
            assert not grads[inner].any()

    def test_same_inputs_same_outputs(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(3, 3))
        runs = []
        for _ in range(2):
            tape = Tape()
            y = softmax(tape, matmul(tape, Tensor(data), Tensor(data.T)))
            runs.append(y.data)
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_record_false_keeps_macs_only(self):
        tape = Tape(record=False)
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((4, 3)))
        affine(tape, x, w, Tensor(np.zeros(4)), label="proj")
        assert tape.records == []
        assert tape.macs["proj"] == 2 * 3 * 4

    def test_mac_labels_accumulate(self):
        tape = Tape()
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((3, 5)))
        matmul(tape, a, b, label="score")
        matmul(tape, a, b, label="score")
        assert tape.macs["score"] == 2 * (a.size * 5)

    def test_non_finite_result_raises(self):
        big = Tensor(np.full(3, 1e308))
        with np.errstate(over="ignore"), pytest.raises(ContractError):
            add(None, big, big)
