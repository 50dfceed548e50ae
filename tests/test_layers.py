"""Layer semantics: convolution, linear, pooling, GRL, init."""

import numpy as np
import pytest

from m2dan import layers as L
from m2dan import tensor as T
from m2dan.errors import InvalidShape, InvalidSpec, ShapeMismatch, UnsupportedKernel
from m2dan.layers import GrlCoeff, LayerDef, ParamSet, init_params
from m2dan.tensor import Tensor


def t(arr, rg=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=rg)


def setup_function(_):
    T.reset_tape()


# ---------------------------------------------------------------- conv2d


def test_conv_1x1_identity_kernel():
    x = t(np.arange(16.0).reshape(1, 1, 4, 4))
    w = t(np.ones((1, 1, 1, 1)))
    b = t(np.zeros(1))
    out = L.conv2d(x, w, b)
    assert np.array_equal(out.data, x.data)


def test_conv_3x3_ones_on_constant_image():
    # zero padding: corners see 4 ones, edges 6, center 9
    x = t(np.ones((1, 1, 3, 3)))
    w = t(np.ones((1, 1, 3, 3)))
    b = t(np.zeros(1))
    out = L.conv2d(x, w, b).data[0, 0]
    assert out.tolist() == [[4, 6, 4], [6, 9, 6], [4, 6, 4]]


def test_conv_preserves_spatial_size():
    rng = np.random.default_rng(0)
    x = t(rng.normal(size=(2, 3, 8, 8)))
    w = t(rng.normal(size=(5, 3, 5, 5)))
    b = t(rng.normal(size=5))
    assert L.conv2d(x, w, b).shape == (2, 5, 8, 8)


def test_conv_same_padding_all_supported_kernels():
    rng = np.random.default_rng(1)
    for k in (1, 3, 5):
        for size in (1, 2, 3, 8, 16):
            x = t(rng.normal(size=(1, 2, size, size)))
            w = t(rng.normal(size=(3, 2, k, k)))
            b = t(np.zeros(3))
            assert L.conv2d(x, w, b).shape == (1, 3, size, size)


def test_conv_rejects_even_kernel_and_bad_channels():
    x = t(np.ones((1, 2, 4, 4)))
    with pytest.raises(UnsupportedKernel):
        L.conv2d(x, t(np.ones((1, 2, 2, 2))), t(np.zeros(1)))
    with pytest.raises(ShapeMismatch):
        L.conv2d(x, t(np.ones((1, 3, 3, 3))), t(np.zeros(1)))
    with pytest.raises(ShapeMismatch):
        L.conv2d(x, t(np.ones((2, 2, 3, 3))), t(np.zeros(1)))


def naive_conv(x, w, b):
    # independent oracle: direct loop cross-correlation over the padded input
    n, _, h, wd = x.shape
    cout, _, k, _ = w.shape
    p = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((n, cout, h, wd))
    for i in range(n):
        for co in range(cout):
            for r in range(h):
                for c in range(wd):
                    out[i, co, r, c] = np.sum(xp[i, :, r : r + k, c : c + k] * w[co]) + b[co]
    return out


def naive_conv_grads(x, w, g):
    # adjoint of naive_conv's loop: each output pixel scatters its gradient
    # back onto the input window and the kernel that produced it
    n, _, h, wd = x.shape
    cout, _, k, _ = w.shape
    p = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for i in range(n):
        for co in range(cout):
            for r in range(h):
                for c in range(wd):
                    gxp[i, :, r : r + k, c : c + k] += g[i, co, r, c] * w[co]
                    gw[co] += g[i, co, r, c] * xp[i, :, r : r + k, c : c + k]
    return gxp[:, :, p : p + h, p : p + wd], gw, g.sum(axis=(0, 2, 3))


def test_conv_matches_naive_loops():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 5, 5))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    got = L.conv2d(t(x), t(w), t(b)).data
    assert np.allclose(got, naive_conv(x, w, b), atol=1e-12)


def check_conv_against_naive_loops(k, cin, cout, h, wd, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(3, cin, h, wd)), requires_grad=True)
    w = Tensor(rng.normal(size=(cout, cin, k, k)), requires_grad=True)
    b = Tensor(rng.normal(size=cout), requires_grad=True)
    g = rng.normal(size=(3, cout, h, wd))
    out = L.conv2d(x, w, b)
    assert np.allclose(out.data, naive_conv(x.data, w.data, b.data), atol=1e-12)
    T.mul(out, T.constant(g)).sum().backward()
    want_x, want_w, want_b = naive_conv_grads(x.data, w.data, g)
    assert np.allclose(x.grad, want_x, atol=1e-12)
    assert np.allclose(w.grad, want_w, atol=1e-12)
    assert np.allclose(b.grad, want_b, atol=1e-12)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("cin,cout", [(4, 2), (2, 4)])
@pytest.mark.parametrize("size", [1, 2, 5, 8])  # k=5 pads 2: wider than a 1x1 image
def test_conv_forward_and_gradients_match_naive_loops(k, cin, cout, size):
    check_conv_against_naive_loops(k, cin, cout, size, size, seed=[k, cin, size])


# a tap's column offset depends on the image width, so height and width must
# not be interchangeable; k=7 pads 3, more than the width of the narrow shapes
@pytest.mark.parametrize("k", [1, 3, 5, 7])
@pytest.mark.parametrize("h,wd", [(3, 7), (6, 2), (1, 4), (5, 1), (2, 9)])
def test_conv_on_non_square_images_matches_naive_loops(k, h, wd):
    check_conv_against_naive_loops(k, 3, 2, h, wd, seed=[k, h, wd])


def test_conv_1x1_taps_are_the_input_itself():
    # a 1x1 kernel needs no unrolling: its only tap is a view of the input
    x = np.random.default_rng(2).normal(size=(2, 3, 4, 5))
    assert np.shares_memory(L._row_taps(x, 1), x)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv_input_without_grad_still_trains_kernel(k):
    # the first extractor conv sees images, which never require gradients
    rng = np.random.default_rng(k)
    x = t(rng.normal(size=(3, 1, 8, 8)))
    w = Tensor(rng.normal(size=(4, 1, k, k)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    g = rng.normal(size=(3, 4, 8, 8))
    T.mul(L.conv2d(x, w, b), T.constant(g)).sum().backward()
    _, want_w, want_b = naive_conv_grads(x.data, w.data, g)
    assert x.grad is None
    assert np.allclose(w.grad, want_w, atol=1e-12)
    assert np.allclose(b.grad, want_b, atol=1e-12)


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    wgt = T.constant(rng.normal(size=(2, 3, 4, 4)))

    def wrt_x(v):
        return T.mul(L.conv2d(v, w, b), wgt).sum()

    def wrt_w(v):
        return T.mul(L.conv2d(x, v, b), wgt).sum()

    def wrt_b(v):
        return T.mul(L.conv2d(x, w, v), wgt).sum()

    assert T.grad_check(wrt_x, x).passed
    assert T.grad_check(wrt_w, w).passed
    assert T.grad_check(wrt_b, b).passed


# ---------------------------------------------------------------- linear


def test_linear_example():
    out = L.linear(t([[1.0, 2.0]]), t([[1.0], [1.0]]), t([3.0]))
    assert out.data.tolist() == [[6.0]]


def test_linear_identity():
    x = t(np.arange(6.0).reshape(2, 3))
    out = L.linear(x, t(np.eye(3)), t(np.zeros(3)))
    assert np.array_equal(out.data, x.data)


def test_linear_shape_errors():
    with pytest.raises(ShapeMismatch):
        L.linear(t([[1.0, 2.0]]), t([[1.0]]), t([0.0]))
    with pytest.raises(ShapeMismatch):
        L.linear(t([[1.0]]), t([[1.0]]), t([0.0, 0.0]))


def test_linear_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    wgt = T.constant(rng.normal(size=(4, 2)))
    assert T.grad_check(lambda v: T.mul(L.linear(v, w, b), wgt).sum(), x).passed
    assert T.grad_check(lambda v: T.mul(L.linear(x, v, b), wgt).sum(), w).passed
    assert T.grad_check(lambda v: T.mul(L.linear(x, w, v), wgt).sum(), b).passed


# ---------------------------------------------------------------- pooling


def test_global_avg_pool_constant_map():
    x = t(np.full((2, 3, 4, 4), 7.0))
    assert np.array_equal(L.global_avg_pool(x).data, np.full((2, 3), 7.0))


def test_global_avg_pool_example():
    x = t(np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(1, 1, 2, 2))
    assert L.global_avg_pool(x).data.tolist() == [[4.0]]


def test_global_avg_pool_backward():
    x = Tensor(np.arange(8.0).reshape(1, 2, 2, 2), requires_grad=True)
    L.global_avg_pool(x).sum().backward()
    assert np.allclose(x.grad, 0.25)


def test_avg_pool2_halves_and_averages():
    x = t(np.arange(16.0).reshape(1, 1, 4, 4))
    out = L.avg_pool2(x)
    assert out.shape == (1, 1, 2, 2)
    assert out.data[0, 0].tolist() == [[2.5, 4.5], [10.5, 12.5]]
    with pytest.raises(InvalidShape):
        L.avg_pool2(t(np.ones((1, 1, 3, 4))))


def test_avg_pool2_gradient():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
    wgt = T.constant(rng.normal(size=(2, 2, 2, 2)))
    assert T.grad_check(lambda v: T.mul(L.avg_pool2(v), wgt).sum(), x).passed


def test_avg_pool2_backward_spreads_a_quarter_exactly():
    g = np.random.default_rng(6).normal(size=(2, 3, 4, 6))
    L.avg_pool2(Tensor(np.zeros((2, 3, 8, 12)), requires_grad=True))
    (g_x,) = T.active_tape().ops[-1].backward_fn(g)
    assert np.array_equal(g_x, np.kron(g, np.ones((2, 2))) * 0.25)


# ---------------------------------------------------------------- GRL


def test_grl_forward_bit_exact_identity():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    out = L.grl(x, GrlCoeff("constant", 0.03))
    assert np.array_equal(out.data, x.data)
    assert out.data is x.data  # no copy at all


def test_grl_backward_scales_by_minus_alpha():
    for alpha in (0.0, 0.03, 0.3):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        wgt = T.constant([2.0, 5.0, -1.0])
        T.reset_tape()
        T.mul(L.grl(x, GrlCoeff("constant", alpha)), wgt).sum().backward()
        assert np.max(np.abs(x.grad - (-alpha) * wgt.data)) < 1e-12


def test_grl_ramp_schedule():
    c = GrlCoeff("ramp", 0.3, ramp_length=100)
    assert c.value_at(0) == 0.0
    assert c.value_at(50) == pytest.approx(0.15)
    assert c.value_at(100) == 0.3
    assert c.value_at(10_000) == 0.3  # capped at alpha
    with pytest.raises(InvalidSpec):
        GrlCoeff("ramp", 0.3)
    with pytest.raises(InvalidSpec):
        GrlCoeff("constant", -0.1)


# ---------------------------------------------------------------- params


def test_param_set_paths_sorted_and_grouped():
    ps = ParamSet()
    ps.add("gy.fc1.weight", Tensor(np.zeros(3), requires_grad=True))
    ps.add("gf.block1.weight", Tensor(np.zeros(3), requires_grad=True))
    ps.add("gd.fc1.weight", Tensor(np.zeros(3), requires_grad=True))
    assert ps.paths() == ["gd.fc1.weight", "gf.block1.weight", "gy.fc1.weight"]
    assert [p for p, _ in ps.group("gy")] == ["gy.fc1.weight"]
    with pytest.raises(InvalidSpec):
        ps.add("gy.fc1.weight", Tensor(np.zeros(3), requires_grad=True))
    with pytest.raises(InvalidSpec):
        ps.add("heads.fc1.weight", Tensor(np.zeros(3), requires_grad=True))


def test_init_params_reproducible_and_zero_bias():
    defs = [
        LayerDef("gf.block1", "conv", 1, 8, 3),
        LayerDef("gy.fc1", "linear", 96, 64),
    ]
    a = init_params(defs, seed=42)
    b = init_params(list(reversed(defs)), seed=42)  # order must not matter
    for path in a.paths():
        assert np.array_equal(a[path].data, b[path].data)
    assert np.all(a["gf.block1.bias"].data == 0)
    assert np.all(a["gy.fc1.bias"].data == 0)
    c = init_params(defs, seed=43)
    assert not np.array_equal(a["gf.block1.weight"].data, c["gf.block1.weight"].data)


def test_init_params_he_variance():
    # one wide layer gives enough draws to estimate the variance
    defs = [LayerDef("gf.big", "conv", 8, 64, 5)]
    ps = init_params(defs, seed=0)
    w = ps["gf.big.weight"].data
    assert w.size >= 10_000
    fan_in = 8 * 5 * 5
    var = w.var()
    assert abs(var - 2.0 / fan_in) < 0.2 * (2.0 / fan_in)
    assert abs(w.mean()) < 0.005


def test_layer_def_validation():
    with pytest.raises(InvalidSpec):
        LayerDef("gf.a", "conv", 1, 8, 4)  # even kernel
    with pytest.raises(InvalidSpec):
        LayerDef("gf.a", "dense", 1, 8)
    with pytest.raises(InvalidSpec):
        LayerDef("gf.a", "linear", 0, 8)
