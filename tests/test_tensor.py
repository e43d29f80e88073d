"""Tensor-core tests: every fast path is checked against a slow loop-nest
oracle, every backward pass against central finite differences."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maskprune.errors import ShapeError
from maskprune.tensor import (
    Tensor,
    col2im,
    conv2d_backward,
    conv2d_forward,
    conv_output_hw,
    hadamard,
    im2col,
    matmul,
    reduce_sum,
)


def matmul_oracle(a, b):
    """Triple-loop matrix product, the reference the fast path must match."""
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def conv_oracle(x, w, bias, stride, padding):
    """Direct six-deep convolution loop, no im2col tricks."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ho, wo = conv_output_hw(h, wd, kh, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, cout, ho, wo))
    for b in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = bias[co]
                    for ci in range(cin):
                        patch = xp[b, ci, i * stride:i * stride + kh,
                                   j * stride:j * stride + kw]
                        acc += (patch * w[co, ci]).sum()
                    out[b, co, i, j] = acc
    return out


# (input NCHW, kernel OIHW, stride, padding) beyond the square and 8x7 cases;
# Cout != Cin throughout
SHAPE_CASES = {
    "shortcut-1x1-s2": ((2, 4, 8, 8), (6, 4, 1, 1), 2, 0),
    "odd-7x9-s2-p1": ((2, 3, 7, 9), (5, 3, 3, 3), 2, 1),
    "odd-7x9-s2-p0": ((3, 2, 7, 9), (1, 2, 3, 3), 2, 0),
    "odd-9x7-s1-p1": ((2, 2, 9, 7), (3, 2, 3, 3), 1, 1),
}


class TestBasicOps:
    def test_tensor_wraps_and_copies(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.shape == (2, 2) and t.data.dtype == np.float64
        c = t.copy()
        c.data[0, 0] = 99.0
        assert t.data[0, 0] == 1.0

    def test_hadamard_matches_numpy(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        assert_allclose(hadamard(Tensor(a), Tensor(b)).data, a * b, rtol=0, atol=0)

    def test_hadamard_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            hadamard(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
        assert "(2, 3)" in str(err.value) and "(3, 2)" in str(err.value)

    def test_matmul_against_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 7)))
            b = rng.normal(size=(a.shape[1], rng.integers(1, 7)))
            assert_allclose(matmul(Tensor(a), Tensor(b)).data, matmul_oracle(a, b),
                            rtol=1e-13, atol=1e-13)

    def test_matmul_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_reduce_sum_axes(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4))
        assert_allclose(reduce_sum(Tensor(x), (0, 2)).data, x.sum(axis=(0, 2)))
        with pytest.raises(ShapeError):
            reduce_sum(Tensor(x), (0, 0))
        with pytest.raises(ShapeError):
            reduce_sum(Tensor(x), (3,))


class TestConvGeometry:
    def test_output_hw_formula(self):
        # floor((H + 2p - K)/s) + 1
        assert conv_output_hw(32, 32, 3, 3, 1, 1) == (32, 32)
        assert conv_output_hw(28, 28, 5, 5, 1, 0) == (24, 24)
        assert conv_output_hw(10, 8, 3, 3, 2, 1) == (5, 4)

    def test_degenerate_output_rejected(self):
        with pytest.raises(ShapeError):
            conv2d_forward(Tensor(np.zeros((1, 1, 2, 2))),
                           Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros(1)), 1, 0)

    def test_im2col_col2im_adjoint(self):
        # <im2col(x), y> == <x, col2im(y)> makes col2im the exact transpose,
        # which is what the backward pass relies on
        rng = np.random.default_rng(7)
        cases = [((2, 3, 6, 6), (1, 3, 3, 3), 1, 1), *SHAPE_CASES.values()]
        for x_shape, (_, _, kh, kw), stride, padding in cases:
            x = rng.normal(size=x_shape)
            cols = im2col(x, kh, kw, stride=stride, padding=padding)
            y = rng.normal(size=cols.shape)
            lhs = float((cols * y).sum())
            back = col2im(y, x.shape, kh, kw, stride=stride, padding=padding)
            assert back.shape == x.shape
            rhs = float((x * back).sum())
            assert_allclose(lhs, rhs, rtol=1e-12)

    def test_im2col_layout_is_channel_major(self):
        # row (c*Kh + i)*Kw + j, column (n*Ho + y)*Wo + x holds the padded
        # input at channel c, row y*stride + i, column x*stride + j: the
        # contract between conv2d_forward's cache and conv2d_backward(cols=)
        rng = np.random.default_rng(5)
        n, cin, h, w, k, stride, padding = 2, 3, 7, 9, 3, 2, 1
        x = rng.normal(size=(n, cin, h, w))
        cols = im2col(x, k, k, stride, padding)
        ho, wo = conv_output_hw(h, w, k, k, stride, padding)
        assert cols.shape == (cin * k * k, n * ho * wo)
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        for c, i, j, b, y, xx in itertools.product(range(cin), range(k), range(k),
                                                   range(n), range(ho), range(wo)):
            assert cols[(c * k + i) * k + j, (b * ho + y) * wo + xx] == \
                xp[b, c, y * stride + i, xx * stride + j]


class TestConvForward:
    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", [
        pytest.param((2, 3, 8, 7), (4, 3, 3, 3), stride, padding, id=f"{stride}-{padding}")
        for stride, padding in [(1, 0), (1, 1), (2, 1), (2, 0)]
    ] + [pytest.param(*case, id=name) for name, case in SHAPE_CASES.items()])
    def test_matches_loop_oracle(self, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(17)
        x = rng.normal(size=x_shape)
        w = rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[0])
        got = conv2d_forward(Tensor(x), Tensor(w), Tensor(b), stride, padding)
        want = conv_oracle(x, w, b, stride, padding)
        assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)

    def test_kernel_larger_than_padded_input_rejected(self):
        with pytest.raises(ShapeError):
            conv2d_forward(Tensor(np.zeros((1, 2, 4, 4))),
                           Tensor(np.zeros((3, 2, 7, 7))), Tensor(np.zeros(3)), 1, 1)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            conv2d_forward(Tensor(np.zeros((1, 3, 8, 8))),
                           Tensor(np.zeros((4, 2, 3, 3))), Tensor(np.zeros(4)), 1, 1)


def _num_grad(f, x, h=1e-6):
    """Central finite differences of a scalar function, entry by entry."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f()
        flat[i] = keep - h
        down = f()
        flat[i] = keep
        gf[i] = (up - down) / (2 * h)
    return g


class TestConvBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        # fixed projection makes the loss a smooth scalar of every input
        proj = rng.normal(size=conv2d_forward(Tensor(x), Tensor(w), Tensor(b), 1, 1).shape)

        def loss():
            out = conv2d_forward(Tensor(x), Tensor(w), Tensor(b), 1, 1)
            return float((out.data * proj).sum())

        gx, gw, gb = conv2d_backward(Tensor(x), Tensor(w), Tensor(proj), 1, 1)
        assert_allclose(gx.data, _num_grad(loss, x), rtol=1e-6, atol=1e-8)
        assert_allclose(gw.data, _num_grad(loss, w), rtol=1e-6, atol=1e-8)
        assert_allclose(gb.data, _num_grad(loss, b), rtol=1e-6, atol=1e-8)

    def test_strided_gradients(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(2, 2, 3, 3))
        b = rng.normal(size=2)
        proj = rng.normal(size=conv2d_forward(Tensor(x), Tensor(w), Tensor(b), 2, 1).shape)

        def loss():
            out = conv2d_forward(Tensor(x), Tensor(w), Tensor(b), 2, 1)
            return float((out.data * proj).sum())

        gx, gw, gb = conv2d_backward(Tensor(x), Tensor(w), Tensor(proj), 2, 1)
        assert_allclose(gx.data, _num_grad(loss, x), rtol=1e-6, atol=1e-8)
        assert_allclose(gw.data, _num_grad(loss, w), rtol=1e-6, atol=1e-8)
        assert_allclose(gb.data, _num_grad(loss, b), rtol=1e-6, atol=1e-8)

    def test_cached_cols_give_same_answer(self):
        rng = np.random.default_rng(31)
        cases = [((2, 3, 6, 6), (4, 3, 3, 3), 1, 1), *SHAPE_CASES.values()]
        for x_shape, w_shape, stride, padding in cases:
            x = rng.normal(size=x_shape)
            w = rng.normal(size=w_shape)
            b = rng.normal(size=w_shape[0])
            out, cols = conv2d_forward(Tensor(x), Tensor(w), Tensor(b), stride, padding,
                                       return_cache=True)
            g = rng.normal(size=out.shape)
            with_cache = conv2d_backward(Tensor(x), Tensor(w), Tensor(g), stride, padding,
                                         cols=cols)
            without = conv2d_backward(Tensor(x), Tensor(w), Tensor(g), stride, padding)
            for a, c in zip(with_cache, without):
                assert_allclose(a.data, c.data, rtol=0, atol=0)

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding",
                             list(SHAPE_CASES.values()), ids=list(SHAPE_CASES))
    def test_gradients_match_finite_differences_on_shapes(self, x_shape, w_shape, stride,
                                                         padding):
        rng = np.random.default_rng(37)
        x = rng.normal(size=x_shape)
        w = rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[0])
        proj = rng.normal(size=conv2d_forward(Tensor(x), Tensor(w), Tensor(b), stride,
                                              padding).shape)

        def loss():
            out = conv2d_forward(Tensor(x), Tensor(w), Tensor(b), stride, padding)
            return float((out.data * proj).sum())

        gx, gw, gb = conv2d_backward(Tensor(x), Tensor(w), Tensor(proj), stride, padding)
        assert_allclose(gx.data, _num_grad(loss, x), rtol=1e-6, atol=1e-8)
        assert_allclose(gw.data, _num_grad(loss, w), rtol=1e-6, atol=1e-8)
        assert_allclose(gb.data, _num_grad(loss, b), rtol=1e-6, atol=1e-8)
