"""Layer-level tests.

The backward passes are all validated against central finite differences of
the actual forward computation, and the mask-gradient accumulator against the
hand-derivable scalar case plus a finite-difference probe of the mask itself.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from maskprune.errors import DataError
from maskprune.layers import (
    BatchNorm2d,
    Flatten,
    GlobalAvgPool,
    MaskedConv2d,
    MaskedLinear,
    MaxPool2d,
    ReLU,
    _apply_channel_gate,
    sgd_step,
    softmax_cross_entropy,
)
from maskprune.tensor import Tensor



def make_conv(cin, cout, k, stride=1, padding=0, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(scale=0.3, size=(cout, cin, k, k))
    b = rng.normal(scale=0.1, size=cout)
    return MaskedConv2d(w, b, stride=stride, padding=padding, apply_gate=False)


def make_linear(nin, nout, seed=0):
    rng = np.random.default_rng(seed)
    return MaskedLinear(rng.normal(scale=0.3, size=(nout, nin)),
                        rng.normal(scale=0.1, size=nout), apply_gate=False)


def numgrad(f, x, h=1e-5):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + h
        up = f()
        x[idx] = old - h
        dn = f()
        x[idx] = old
        g[idx] = (up - dn) / (2 * h)
        it.iternext()
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def reference_relu(x):
    """ReLU with a masked-select backward (``np.where``): the kernel ReLU
    replaced.  Returns the output and a backward function."""
    mask = x > 0
    return np.maximum(x, 0.0), lambda g: np.where(mask, g, 0.0)


def reference_maxpool(x, k):
    """Max pooling whose tap index and backward use masked copies
    (``np.copyto(where=)``): the kernels MaxPool2d replaced.  Returns the
    output and a backward function."""
    ho, wo = x.shape[2] // k, x.shape[3] // k
    taps = [np.s_[:, :, i:ho * k:k, j:wo * k:k] for i in range(k) for j in range(k)]
    out = x[taps[0]].copy()
    idx = np.zeros(out.shape, dtype=np.int64)
    for t, view in enumerate(taps[1:], 1):
        better = x[view] > out
        np.maximum(out, x[view], out=out)
        np.copyto(idx, t, where=better)

    def backward(g):
        gx = np.zeros(x.shape)
        for t, view in enumerate(taps):
            np.copyto(gx[view], g, where=idx == t)
        return gx

    return out, backward


class TestMaskedConv2d:
    def test_forward_is_plain_convolution_when_gates_open(self):
        rng = np.random.default_rng(0)
        conv = make_conv(3, 4, 3, stride=1, padding=1, seed=1)
        x = rng.normal(size=(2, 3, 6, 6))
        out = conv.forward(Tensor(x))
        # independent check through the free function
        from maskprune.tensor import conv2d_forward
        want = conv2d_forward(Tensor(x), Tensor(conv.weight.data * conv.mask),
                              Tensor(conv.bias.data), 1, 1)
        assert_allclose(out.data, want.data, rtol=0, atol=0)

    def test_weight_and_input_gradients(self):
        rng = np.random.default_rng(5)
        conv = make_conv(2, 3, 3, stride=1, padding=1, seed=2)
        x = rng.normal(size=(2, 2, 5, 5))
        proj = rng.normal(size=(2, 3, 5, 5))

        def loss():
            return float((conv.forward(Tensor(x.copy())).data * proj).sum())

        conv.forward(Tensor(x))
        gx = conv.backward(Tensor(proj))
        assert rel_err(gx.data, numgrad(loss, x)) <= 1e-5
        assert rel_err(conv.weight.grad, numgrad(loss, conv.weight.data)) <= 1e-5
        assert rel_err(conv.bias.grad, numgrad(loss, conv.bias.data)) <= 1e-5

    def test_mask_gradient_scalar_example(self):
        # one 1x1 conv, one pixel: y = m*w*x, loss = y^2/2.
        # x=2, w=3, m=1 -> y=6, dloss/dm = y*w*x = 36
        conv = make_conv(1, 1, 1, stride=1, padding=0, seed=0)
        conv.weight.data[:] = 3.0
        conv.bias.data[:] = 0.0
        x = np.full((1, 1, 1, 1), 2.0)
        out = conv.forward(Tensor(x))
        assert out.data.reshape(()) == 6.0
        conv.backward(Tensor(out.data.copy()))      # dloss/dy = y
        assert_allclose(conv.mask_grad.reshape(()), 36.0, rtol=0, atol=0)
        assert conv.mask_samples == 1

    def test_mask_gradient_equals_weight_grad_times_weight(self):
        rng = np.random.default_rng(9)
        conv = make_conv(3, 5, 3, stride=1, padding=1, seed=3)
        x = rng.normal(size=(4, 3, 6, 6))
        g = rng.normal(size=(4, 5, 6, 6))
        conv.forward(Tensor(x))
        conv.backward(Tensor(g))
        # with an all-ones mask, grad wrt masked weights == grad wrt weights
        assert_allclose(conv.mask_grad, conv.weight.grad * conv.weight.data,
                        rtol=0, atol=1e-10)

    def test_mask_gradient_finite_difference_probe(self):
        rng = np.random.default_rng(13)
        conv = make_conv(2, 2, 3, stride=1, padding=1, seed=4)
        x = rng.normal(size=(2, 2, 4, 4))
        proj = rng.normal(size=(2, 2, 4, 4))
        conv.forward(Tensor(x))
        conv.backward(Tensor(proj))
        got = conv.mask_grad.copy()

        def loss():
            return float((conv.forward(Tensor(x)).data * proj).sum())

        # probe a handful of mask entries directly
        for idx in [(0, 0, 0, 0), (1, 1, 2, 2), (0, 1, 1, 0)]:
            h = 1e-6
            conv.mask[idx] = 1 + h
            up = loss()
            conv.mask[idx] = 1 - h
            dn = loss()
            conv.mask[idx] = 1.0
            assert abs((up - dn) / (2 * h) - got[idx]) <= 1e-5 * max(1.0, abs(got[idx]))

    def test_mask_grad_accumulates_across_batches(self):
        rng = np.random.default_rng(21)
        conv = make_conv(2, 3, 3, stride=1, padding=1, seed=5)
        total = np.zeros_like(conv.mask_grad)
        for _ in range(3):
            x = rng.normal(size=(2, 2, 5, 5))
            g = rng.normal(size=(2, 3, 5, 5))
            conv.forward(Tensor(x))
            conv.backward(Tensor(g))
            total += conv.weight.grad * conv.weight.data
        assert_allclose(conv.mask_grad, total, rtol=0, atol=1e-10)
        assert conv.mask_samples == 6

    def test_gate_gradient_when_applied(self):
        rng = np.random.default_rng(33)
        conv = make_conv(2, 3, 3, stride=1, padding=1, seed=6)
        conv.apply_gate = True
        conv.gate[:] = rng.uniform(0.2, 0.9, size=3)
        x = rng.normal(size=(2, 2, 4, 4))
        proj = rng.normal(size=(2, 3, 4, 4))
        conv.forward(Tensor(x))
        conv.backward(Tensor(proj))
        got = conv.gate_grad.copy()

        def loss():
            return float((conv.forward(Tensor(x)).data * proj).sum())

        assert rel_err(got, numgrad(loss, conv.gate)) <= 1e-5

    @pytest.mark.parametrize("shape", [(2, 3, 4, 4), (5, 3)])
    def test_open_gate_returns_equal_values(self, shape):
        rng = np.random.default_rng(12)
        x = rng.normal(size=shape)
        x.flat[0] = -0.0
        gated = _apply_channel_gate(x, np.ones(3))
        want = x * np.ones(3).reshape((1, 3) + (1,) * (x.ndim - 2))
        assert np.array_equal(gated, want)
        assert np.array_equal(np.signbit(gated), np.signbit(want))

    def test_backward_without_input_gradient(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 2, 6, 6))
        g = rng.normal(size=(2, 3, 6, 6))
        full, skip = make_conv(2, 3, 3, padding=1, seed=3), make_conv(2, 3, 3, padding=1, seed=3)
        for conv in (full, skip):
            conv.apply_gate = True
            conv.gate[:] = [0.5, 1.0, 0.0]
            conv.forward(Tensor(x))
        assert full.backward(Tensor(g)) is not None
        assert skip.backward(Tensor(g), input_grad=False) is None
        for a, b in ((full.weight.grad, skip.weight.grad), (full.bias.grad, skip.bias.grad),
                     (full.mask_grad, skip.mask_grad), (full.gate_grad, skip.gate_grad)):
            assert np.array_equal(a, b)

    def test_eval_forward_keeps_no_columns_and_backward_matches_train_path(self):
        rng = np.random.default_rng(35)
        x = rng.normal(size=(2, 3, 7, 9))
        g = rng.normal(size=(2, 4, 4, 5))
        grads = []
        for train in (True, False):
            conv = make_conv(3, 4, 3, stride=2, padding=1, seed=7)
            conv.apply_gate = True
            conv.gate[:] = [1.0, 0.5, 0.0, 0.25]
            conv.forward(Tensor(x), train=train)
            assert (conv._cache[2] is None) == (not train)
            gx = conv.backward(Tensor(g))
            grads.append((gx.data, conv.weight.grad, conv.bias.grad, conv.gate_grad,
                          conv.mask_grad))
        for a, b in zip(*grads):
            assert_allclose(a, b, rtol=0, atol=0)


class TestMaskedLinear:
    def test_gradients(self):
        rng = np.random.default_rng(41)
        lin = make_linear(6, 4, seed=7)
        x = rng.normal(size=(3, 6))
        proj = rng.normal(size=(3, 4))

        def loss():
            return float((lin.forward(Tensor(x)).data * proj).sum())

        lin.forward(Tensor(x))
        gx = lin.backward(Tensor(proj))
        assert rel_err(gx.data, numgrad(loss, x)) <= 1e-5
        assert rel_err(lin.weight.grad, numgrad(loss, lin.weight.data)) <= 1e-5
        assert rel_err(lin.bias.grad, numgrad(loss, lin.bias.data)) <= 1e-5

    def test_mask_gradient_identity(self):
        rng = np.random.default_rng(43)
        lin = make_linear(5, 3, seed=8)
        x = rng.normal(size=(4, 5))
        g = rng.normal(size=(4, 3))
        lin.forward(Tensor(x))
        lin.backward(Tensor(g))
        assert_allclose(lin.mask_grad, lin.weight.grad * lin.weight.data,
                        rtol=0, atol=1e-10)
        assert lin.mask_samples == 4


class TestBatchNorm:
    def test_train_mode_gradients(self):
        rng = np.random.default_rng(51)
        bn = BatchNorm2d(3)
        bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=3)
        bn.beta.data[:] = rng.normal(size=3)
        x = rng.normal(size=(4, 3, 3, 3))
        proj = rng.normal(size=(4, 3, 3, 3))

        def loss():
            return float((bn.forward(Tensor(x), train=True, update_stats=False).data
                          * proj).sum())

        bn.forward(Tensor(x), train=True, update_stats=False)
        gx = bn.backward(Tensor(proj))
        # batch statistics couple every example, so the tolerance is looser
        assert rel_err(gx.data, numgrad(loss, x)) <= 1e-4
        assert rel_err(bn.gamma.grad, numgrad(loss, bn.gamma.data)) <= 1e-4
        assert rel_err(bn.beta.grad, numgrad(loss, bn.beta.data)) <= 1e-4

    def test_running_stats_update_and_eval(self):
        rng = np.random.default_rng(53)
        bn = BatchNorm2d(2)
        x = rng.normal(loc=3.0, scale=2.0, size=(8, 2, 4, 4))
        bn.forward(Tensor(x), train=True)
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        assert_allclose(bn.running_mean, 0.9 * 0 + 0.1 * mean, rtol=1e-12)
        assert_allclose(bn.running_var, 0.9 * 1 + 0.1 * var, rtol=1e-12)
        out = bn.forward(Tensor(x), train=False)
        want = (x - bn.running_mean[:, None, None]) / np.sqrt(
            bn.running_var[:, None, None] + bn.eps)
        assert_allclose(out.data, want * bn.gamma.data[:, None, None]
                        + bn.beta.data[:, None, None], rtol=1e-12)

    def test_update_mask_freezes_chosen_channels(self):
        rng = np.random.default_rng(55)
        bn = BatchNorm2d(3)
        x = rng.normal(size=(4, 3, 2, 2))
        bn.forward(Tensor(x), train=True, update_mask=np.array([True, False, True]))
        assert bn.running_mean[1] == 0.0 and bn.running_var[1] == 1.0
        assert bn.running_mean[0] != 0.0

    def test_eval_mode_gradients_use_running_stats(self):
        rng = np.random.default_rng(57)
        bn = BatchNorm2d(2)
        bn.running_mean[:] = rng.normal(size=2)
        bn.running_var[:] = rng.uniform(0.5, 2.0, size=2)
        x = rng.normal(size=(3, 2, 3, 3))
        proj = rng.normal(size=(3, 2, 3, 3))

        def loss():
            return float((bn.forward(Tensor(x), train=False).data * proj).sum())

        bn.forward(Tensor(x), train=False)
        gx = bn.backward(Tensor(proj))
        assert rel_err(gx.data, numgrad(loss, x)) <= 1e-5

    def test_train_mode_gradients_with_frozen_channel(self):
        rng = np.random.default_rng(59)
        bn = BatchNorm2d(3)
        bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=3)
        bn.beta.data[:] = rng.normal(size=3)
        x = rng.normal(loc=1.0, scale=2.0, size=(8, 3, 3, 4))
        proj = rng.normal(size=x.shape)
        frozen = np.array([True, False, True])

        def loss():
            return float((bn.forward(Tensor(x), train=True, update_mask=frozen).data
                          * proj).sum())

        bn.forward(Tensor(x), train=True, update_mask=frozen)
        gx = bn.backward(Tensor(proj))
        gamma_grad, beta_grad = bn.gamma.grad, bn.beta.grad
        assert rel_err(gx.data, numgrad(loss, x)) <= 1e-4
        assert rel_err(gamma_grad, numgrad(loss, bn.gamma.data)) <= 1e-4
        assert rel_err(beta_grad, numgrad(loss, bn.beta.data)) <= 1e-4
        # every forward above refreshed the running estimates but channel 1's
        assert bn.running_mean[1] == 0.0 and bn.running_var[1] == 1.0
        assert bn.running_mean[0] != 0.0 and bn.running_var[2] != 1.0

    def test_train_batch_of_one_rejected(self):
        bn = BatchNorm2d(2)
        with pytest.raises(DataError):
            bn.forward(Tensor(np.zeros((1, 2, 3, 3))), train=True)


class TestPoolingAndActivation:
    def test_relu_gradient(self):
        rng = np.random.default_rng(61)
        relu = ReLU()
        # keep inputs away from the kink so finite differences are clean
        x = rng.normal(size=(3, 4))
        x[np.abs(x) < 0.05] += 0.1
        proj = rng.normal(size=(3, 4))

        def loss():
            return float((relu.forward(Tensor(x)).data * proj).sum())

        relu.forward(Tensor(x))
        gx = relu.backward(Tensor(proj))
        assert rel_err(gx.data, numgrad(loss, x)) <= 1e-6

    def test_maxpool_forward_and_gradient(self):
        rng = np.random.default_rng(63)
        pool = MaxPool2d(2)
        x = rng.normal(size=(2, 2, 4, 4))
        out = pool.forward(Tensor(x))
        want = x.reshape(2, 2, 2, 2, 2, 2).max(axis=(3, 5))
        assert_allclose(out.data, want, rtol=0, atol=0)
        proj = rng.normal(size=out.shape)

        def loss():
            return float((pool.forward(Tensor(x)).data * proj).sum())

        gx = pool.backward(Tensor(proj))
        assert rel_err(gx.data, numgrad(loss, x)) <= 1e-6

    def test_maxpool_ties_route_gradient_to_first_element(self):
        pool = MaxPool2d(2)
        x = np.zeros((1, 2, 4, 4))
        x[0, 1] = 3.0                      # channel 1: equal-valued windows
        x[0, 1, 2, 3] = 5.0                # ...except one with a clear maximum
        out = pool.forward(Tensor(x))
        assert_allclose(out.data[0, 1], [[3.0, 3.0], [3.0, 5.0]], rtol=0, atol=0)
        g = np.arange(1.0, 9.0).reshape(1, 2, 2, 2)
        gx = pool.backward(Tensor(g)).data
        want = np.zeros_like(x)
        want[:, :, ::2, ::2] = g           # top-left of each window
        want[0, 1, 2, 2] = 0.0
        want[0, 1, 2, 3] = g[0, 1, 1, 1]
        assert_allclose(gx, want, rtol=0, atol=0)

    def test_relu_matches_masked_select_reference(self):
        rng = np.random.default_rng(62)
        # exact zeros and negatives sit on the kink the reference selects at
        x = rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], size=(3, 4, 5, 5))
        g = rng.normal(size=x.shape)
        relu = ReLU()
        want, backward = reference_relu(x)
        assert np.array_equal(relu.forward(Tensor(x)).data, want)
        assert np.array_equal(relu.backward(Tensor(g)).data, backward(g))

    @pytest.mark.parametrize("shape,k", [((2, 3, 6, 6), 2), ((2, 3, 7, 5), 2),
                                         ((1, 2, 9, 10), 3)])
    def test_maxpool_matches_masked_select_reference(self, shape, k):
        rng = np.random.default_rng(64)
        # few distinct values: all-negative windows, exact-zero and positive ties
        x = rng.integers(-2, 3, size=shape).astype(float)
        pool = MaxPool2d(k)
        out = pool.forward(Tensor(x)).data
        want, backward = reference_maxpool(x, k)
        assert np.array_equal(out, want)
        g = rng.normal(size=out.shape)
        assert np.array_equal(pool.backward(Tensor(g)).data, backward(g))

    def test_relu_passes_nan_forward(self):
        out = ReLU().forward(Tensor(np.array([[-1.0, np.nan, 2.0]])))
        assert out.data[0, 0] == 0.0 and np.isnan(out.data[0, 1]) and out.data[0, 2] == 2.0

    def test_maxpool_drops_remainder(self):
        x = np.arange(2 * 1 * 5 * 5, dtype=float).reshape(2, 1, 5, 5)
        out = MaxPool2d(2).forward(Tensor(x))
        assert out.shape == (2, 1, 2, 2)
        # odd sizes: the trailing row and column get zero gradient
        rng = np.random.default_rng(65)
        pool = MaxPool2d(2)
        x = rng.normal(size=(2, 3, 7, 5))
        out = pool.forward(Tensor(x))
        assert_allclose(out.data, x[:, :, :6, :4].reshape(2, 3, 3, 2, 2, 2).max(axis=(3, 5)),
                        rtol=0, atol=0)
        proj = rng.normal(size=out.shape)
        gx = pool.backward(Tensor(proj)).data
        assert not gx[:, :, 6, :].any() and not gx[:, :, :, 4].any()

        def loss():
            return float((pool.forward(Tensor(x)).data * proj).sum())

        assert rel_err(gx, numgrad(loss, x)) <= 1e-6

    def test_global_avg_pool(self):
        rng = np.random.default_rng(67)
        gap = GlobalAvgPool()
        x = rng.normal(size=(2, 3, 4, 5))
        out = gap.forward(Tensor(x))
        assert_allclose(out.data, x.mean(axis=(2, 3)), rtol=1e-15)
        proj = rng.normal(size=(2, 3))

        def loss():
            return float((gap.forward(Tensor(x)).data * proj).sum())

        gx = gap.backward(Tensor(proj))
        assert rel_err(gx.data, numgrad(loss, x)) <= 1e-7

    def test_flatten_round_trip(self):
        rng = np.random.default_rng(69)
        fl = Flatten()
        x = rng.normal(size=(2, 3, 4, 4))
        out = fl.forward(Tensor(x))
        assert out.shape == (2, 48)
        back = fl.backward(Tensor(out.data))
        assert_allclose(back.data, x, rtol=0, atol=0)


class TestSoftmaxCrossEntropy:
    def test_loss_value_uniform(self):
        logits = Tensor(np.zeros((4, 10)))
        loss, _ = softmax_cross_entropy(logits, np.array([0, 3, 5, 9]))
        assert_allclose(loss, np.log(10.0), rtol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(71)
        z = rng.normal(size=(5, 7))
        y = rng.integers(0, 7, size=5)

        def loss():
            return softmax_cross_entropy(Tensor(z), y)[0]

        _, g = softmax_cross_entropy(Tensor(z), y)
        assert rel_err(g.data, numgrad(loss, z)) <= 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(73)
        z = rng.normal(size=(3, 5)) * 50
        y = np.array([0, 2, 4])
        l1, _ = softmax_cross_entropy(Tensor(z), y)
        l2, _ = softmax_cross_entropy(Tensor(z + 1000.0), y)
        assert_allclose(l1, l2, rtol=1e-9)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(DataError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestSgdStep:
    def test_velocity_and_update_rule(self):
        lin = make_linear(3, 2, seed=9)
        w0 = lin.weight.data.copy()
        lin.weight.grad = np.ones_like(w0)
        lin.bias.grad = np.zeros_like(lin.bias.data)
        sgd_step(lin, lr=0.1, momentum=0.9, weight_decay=0.0)
        # first step: v = grad -> w -= lr * v
        assert_allclose(lin.weight.data, w0 - 0.1, rtol=1e-15)
        lin.weight.grad = np.ones_like(w0)
        lin.bias.grad = np.zeros_like(lin.bias.data)
        sgd_step(lin, lr=0.1, momentum=0.9, weight_decay=0.0)
        # second step: v = 0.9 * 1 + 1 = 1.9
        assert_allclose(lin.weight.data, w0 - 0.1 - 0.19, rtol=1e-12)

    def test_weight_decay_enters_velocity(self):
        lin = make_linear(2, 2, seed=10)
        w0 = lin.weight.data.copy()
        lin.weight.grad = np.zeros_like(w0)
        lin.bias.grad = np.zeros_like(lin.bias.data)
        sgd_step(lin, lr=1.0, momentum=0.0, weight_decay=0.01)
        assert_allclose(lin.weight.data, w0 - 0.01 * w0, rtol=1e-12)

    def test_frozen_channels_stay_put(self):
        lin = make_linear(4, 3, seed=11)
        lin.gate[:] = np.array([1.0, 1e-6, 1.0])   # row 1 is below delta_freeze
        w0 = lin.weight.data.copy()
        b0 = lin.bias.data.copy()
        lin.weight.grad = np.ones_like(w0)
        lin.bias.grad = np.ones_like(b0)
        sgd_step(lin, lr=0.5, momentum=0.9, weight_decay=0.0, delta_freeze=1e-3)
        assert_allclose(lin.weight.data[1], w0[1], rtol=0, atol=0)
        assert_allclose(lin.bias.data[1], b0[1], rtol=0, atol=0)
        assert (lin.weight.velocity[1] == 0).all()  # no velocity build-up either
        assert not np.allclose(lin.weight.data[0], w0[0])
