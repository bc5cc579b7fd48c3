"""Reverse-mode gradients checked against central finite differences,
plus tape semantics, shape errors, and the CTNS file round trip."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coopforge import tensor as T
from coopforge.tensor import (
    Graph,
    Tensor,
    ShapeError,
    CtnsError,
    backward,
    grad_check,
    numeric_grad,
    load_ctns,
    save_ctns,
)


from util import check_op, leaf


# ---------------------------------------------------------------------------
# Elementwise and reduction ops
# ---------------------------------------------------------------------------


class TestElementwiseGrads:
    def test_add_broadcast(self):
        rng = np.random.default_rng(0)
        a = leaf(rng.normal(size=(3, 4)))
        b = leaf(rng.normal(size=(4,)))
        check_op(lambda: (a + b).sum(), {"a": a, "b": b})

    def test_sub_broadcast(self):
        rng = np.random.default_rng(1)
        a = leaf(rng.normal(size=(2, 3)))
        b = leaf(rng.normal(size=(2, 1)))
        check_op(lambda: T.sub(a, b).square().sum(), {"a": a, "b": b})

    def test_mul_broadcast_scalar(self):
        rng = np.random.default_rng(2)
        a = leaf(rng.normal(size=(5,)))
        b = leaf(rng.normal(size=()))
        check_op(lambda: (a * b).sum(), {"a": a, "b": b})

    def test_neg(self):
        a = leaf([[1.0, -2.0], [3.0, -4.0]])
        check_op(lambda: T.neg(a).sum(), {"a": a})

    def test_leaky_relu_both_regions(self):
        a = leaf([-2.0, -0.5, 0.5, 2.0])
        check_op(lambda: T.leaky_relu(a, slope=0.2).sum(), {"a": a})
        out = T.leaky_relu(Tensor([-1.0, 1.0]), slope=0.2)
        np.testing.assert_array_equal(out.data, [-0.2, 1.0])

    def test_abs_away_from_zero(self):
        a = leaf([-3.0, -1.0, 2.0, 4.0])
        check_op(lambda: a.abs().sum(), {"a": a})

    def test_square(self):
        rng = np.random.default_rng(3)
        a = leaf(rng.normal(size=(4, 2)))
        check_op(lambda: a.square().sum(), {"a": a})

    def test_sum_axis_keepdims(self):
        rng = np.random.default_rng(4)
        a = leaf(rng.normal(size=(3, 4, 2)))
        check_op(lambda: T.tensor_sum(a, axis=1, keepdims=True).square().sum(), {"a": a})

    def test_mean_axis(self):
        rng = np.random.default_rng(5)
        a = leaf(rng.normal(size=(3, 4)))
        check_op(lambda: a.mean(axis=0).square().sum(), {"a": a})
        assert T.tensor_mean(Tensor([2.0, 4.0])).item() == pytest.approx(3.0)

    def test_reshape(self):
        rng = np.random.default_rng(6)
        a = leaf(rng.normal(size=(2, 6)))
        check_op(lambda: a.reshape(3, 4).square().sum(), {"a": a})

    def test_narrow_gradient_lands_in_the_slice(self):
        # (n, k+1, C, H, W) frames, the past k=2 of 3 taken: the last frame
        # of each clip gets zero gradient, the sliced ones get the weights
        rng = np.random.default_rng(9)
        a = leaf(rng.normal(size=(2, 3, 1, 2, 2)))
        w = rng.uniform(0.5, 1.5, size=(2, 2, 1, 2, 2))
        with Graph() as g:
            out = T.narrow(a, 1, 0, 2)
            total = (out * Tensor(w)).sum()
        grad = backward(g, total, {"a": a})["a"]
        np.testing.assert_array_equal(out.data, a.data[:, :2])
        np.testing.assert_array_equal(grad[:, :2], w)
        assert not grad[:, 2].any()
        w_last = rng.uniform(0.5, 1.5, size=(2, 3, 1, 2, 1))
        check_op(lambda: (T.narrow(a, -1, 1, 1) * Tensor(w_last)).sum(), {"a": a})

    def test_narrow_of_constant_records_nothing(self):
        with Graph() as g:
            out = T.narrow(Tensor(np.ones((3, 4))), 0, 1, 2)
        assert len(g) == 0 and not out.requires_grad

    def test_narrow_rejects_out_of_range(self):
        a = Tensor(np.ones((3, 4)))
        for axis, start, length in ((2, 0, 1), (1, 3, 2), (0, -1, 1), (0, 0, 0)):
            with pytest.raises(ShapeError):
                T.narrow(a, axis, start, length)

    def test_sq_norm_matches_manual(self):
        rng = np.random.default_rng(8)
        a = leaf(rng.normal(size=(3, 2)))
        assert a.sq_norm().item() == pytest.approx(float((a.data**2).sum()))
        check_op(lambda: a.sq_norm(), {"a": a})

    def test_l1_norm(self):
        a = leaf([-1.5, 2.0, -0.25])
        assert a.l1_norm().item() == pytest.approx(3.75)
        check_op(lambda: a.l1_norm(), {"a": a})


class TestLeakyReluKernel:
    """The branch-free kernels equal the select on a >= 0, byte for byte."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_select_on_every_value(self, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array([0.0, -0.0, tiny, -tiny, -2 * tiny, np.inf, -np.inf], dtype=dtype)  # 0.2 * -2 tiny underflows to -0.0
        rng = np.random.default_rng(40)
        # the special values as inputs under finite gradients, then as gradients under finite inputs
        a = np.concatenate([special, rng.standard_normal(200 + special.size).astype(dtype)])
        g = np.concatenate([rng.standard_normal(200 + special.size).astype(dtype), special])
        assert dtype(0.2) * a[4] == 0 and np.signbit(dtype(0.2) * a[4])
        x = Tensor(a, requires_grad=True)
        with Graph() as graph:
            out = T.leaky_relu(x, 0.2)
        (node,) = graph.nodes
        fwd_ref = np.where(a >= 0, a, 0.2 * a)
        bwd_ref = np.where(a >= 0, g, 0.2 * g)
        (bwd,) = node.bwd(g)
        assert out.dtype == dtype and out.data.tobytes() == fwd_ref.tobytes()
        assert bwd.dtype == dtype and bwd.tobytes() == bwd_ref.tobytes()

    @pytest.mark.parametrize("slope", [-0.1, 0.0, 1.5, float("nan")])
    def test_rejects_a_slope_outside_its_range(self, slope):
        with pytest.raises(ValueError, match="slope"):
            T.leaky_relu(Tensor([1.0, -1.0]), slope)


class TestMatmulGrads:
    def test_matmul(self):
        rng = np.random.default_rng(9)
        a = leaf(rng.normal(size=(3, 4)))
        b = leaf(rng.normal(size=(4, 2)))
        check_op(lambda: (a @ b).square().sum(), {"a": a, "b": b})

    def test_matmul_shape_error(self):
        a, b = Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4)))
        with pytest.raises(ShapeError, match="matmul"):
            T.matmul(a, b)
        with pytest.raises(ShapeError, match="matmul"):
            T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


class TestLinear:
    @pytest.mark.parametrize("n", [1, 3])
    def test_equals_matmul_then_add_bitwise(self, n):
        # float32, with signed zeros in every operand and in the output gradient
        rng = np.random.default_rng(10)
        x, w, b, c = (rng.normal(size=s).astype(np.float32) for s in ((n, 4), (4, 3), (3,), (n, 3)))
        x[0, 1] = w[2, 0] = b[1] = c[0, 2] = -0.0
        params = {"x": leaf(x, np.float32), "w": leaf(w, np.float32), "b": leaf(b, np.float32)}
        results = []
        for dense in (lambda: T.linear(params["x"], params["w"], params["b"]), lambda: params["x"] @ params["w"] + params["b"]):
            with Graph() as g:
                out = dense()
                loss = (out * c).sum()
            results.append([out.data] + list(backward(g, loss, params).values()))
        for got, want in zip(*results):
            assert got.dtype == want.dtype == np.float32 and got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_shape_error(self):
        x, w = Tensor(np.ones((3, 4))), Tensor(np.ones((4, 2)))
        with pytest.raises(ShapeError, match="linear"):
            T.linear(x, w, Tensor(np.ones(3)))
        with pytest.raises(ShapeError, match="linear"):
            T.linear(x, Tensor(np.ones((3, 2))), Tensor(np.ones(2)))


class TestChannelAffine:
    def test_identity_at_unit_params(self):
        x = Tensor(np.random.default_rng(10).normal(size=(2, 3, 4, 4)))
        out = T.channel_affine(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_grads(self):
        rng = np.random.default_rng(11)
        x = leaf(rng.normal(size=(2, 3, 2, 2)))
        gain = leaf(rng.normal(size=(3,)))
        bias = leaf(rng.normal(size=(3,)))
        check_op(
            lambda: T.channel_affine(x, gain, bias).square().sum(),
            {"x": x, "gain": gain, "bias": bias},
        )

    def test_shape_error(self):
        with pytest.raises(ShapeError, match="channel_affine"):
            T.channel_affine(Tensor(np.ones((1, 3, 2, 2))), Tensor(np.ones(2)), Tensor(np.zeros(3)))


# ---------------------------------------------------------------------------
# Convolutions: forward against a naive loop oracle, backward against FD
# ---------------------------------------------------------------------------


def conv2d_naive(x, w, b, stride, pad):
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, f, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for fi in range(f):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[ni, fi, i, j] = (patch * w[fi]).sum() + (b[fi] if b is not None else 0.0)
    return out


def conv2d_transpose_naive(x, w, b, stride, pad, out_pad):
    n, cin, h, wd = x.shape
    _, cout, kh, kw = w.shape
    ho = (h - 1) * stride - 2 * pad + kh + out_pad
    wo = (wd - 1) * stride - 2 * pad + kw + out_pad
    buf = np.zeros((n, cout, ho + 2 * pad, wo + 2 * pad), dtype=x.dtype)
    for ni in range(n):
        for ci in range(cin):
            for i in range(h):
                for j in range(wd):
                    buf[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw] += (
                        x[ni, ci, i, j] * w[ci]
                    )
    out = buf[:, :, pad : pad + ho, pad : pad + wo]
    if b is not None:
        out = out + b.reshape(1, cout, 1, 1)
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_forward_matches_naive(self, stride, pad):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 3, 6, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad)
        np.testing.assert_allclose(got.data, conv2d_naive(x, w, b, stride, pad), rtol=1e-12)

    def test_grads(self):
        rng = np.random.default_rng(13)
        x = leaf(rng.normal(size=(2, 2, 5, 5)))
        w = leaf(rng.normal(size=(3, 2, 3, 3)))
        b = leaf(rng.normal(size=(3,)))
        check_op(
            lambda: T.conv2d(x, w, b, stride=2, pad=1).square().sum(),
            {"x": x, "w": w, "b": b},
            rtol=1e-5,
            atol=1e-7,
        )

    def test_no_bias(self):
        rng = np.random.default_rng(14)
        x = leaf(rng.normal(size=(1, 2, 4, 4)))
        w = leaf(rng.normal(size=(2, 2, 3, 3)))
        check_op(lambda: T.conv2d(x, w, stride=1, pad=1).square().sum(), {"x": x, "w": w}, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize(
        "x_shape, w_shape, stride, pad",
        [
            ((1, 4, 6, 6), (2, 4, 7, 7), 1, 3),
            # (6 + 2 - 3) % 2 == 1: the last input row and column sit past every window
            ((1, 3, 6, 6), (2, 3, 3, 3), 2, 1),
            # pad >= k leaves no room ahead of g for the gather: dx is scattered
            ((1, 4, 4, 4), (2, 4, 3, 3), 1, 3),
        ],
        ids=["7x7-s1", "3x3-s2-uneven", "3x3-pad3-scatter"],
    )
    def test_grads_narrowing(self, x_shape, w_shape, stride, pad):
        # fewer output than input channels: dx is gathered, or scattered when pad >= k
        rng = np.random.default_rng(21)
        x = leaf(rng.normal(size=x_shape))
        w = leaf(rng.normal(size=w_shape))
        b = leaf(rng.normal(size=w_shape[:1]))
        check_op(
            lambda: T.conv2d(x, w, b, stride=stride, pad=pad).square().sum(),
            {"x": x, "w": w, "b": b},
            rtol=1e-5,
            atol=1e-7,
        )

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match="conv2d"):
            T.conv2d(Tensor(np.ones((1, 3, 8, 8))), Tensor(np.ones((4, 2, 3, 3))))
        with pytest.raises(ShapeError, match="conv2d"):
            T.conv2d(Tensor(np.ones((1, 2, 2, 2))), Tensor(np.ones((4, 2, 5, 5))))


class TestConv2dTranspose:
    @pytest.mark.parametrize("stride,pad,out_pad", [(1, 0, 0), (2, 1, 1), (2, 0, 0), (3, 1, 2)])
    def test_forward_matches_naive(self, stride, pad, out_pad):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, 3, 4, 4))
        for cout in (2, 5):  # 3 -> 5 channels takes the gather branch
            w = rng.normal(size=(3, cout, 3, 3))
            b = rng.normal(size=cout)
            got = T.conv2d_transpose(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad, out_pad=out_pad)
            np.testing.assert_allclose(
                got.data, conv2d_transpose_naive(x, w, b, stride, pad, out_pad), rtol=1e-12, err_msg=f"cout={cout}"
            )

    def test_doubles_spatial_size(self):
        # k3 s2 p1 op1: 8 -> 16, the upsampling configuration used by the
        # image translator's decoder.
        x = Tensor(np.zeros((1, 4, 8, 8)))
        w = Tensor(np.zeros((4, 2, 3, 3)))
        out = T.conv2d_transpose(x, w, stride=2, pad=1, out_pad=1)
        assert out.shape == (1, 2, 16, 16)

    def test_grads(self):
        rng = np.random.default_rng(16)
        x = leaf(rng.normal(size=(1, 3, 3, 3)))
        w = leaf(rng.normal(size=(3, 2, 3, 3)))
        b = leaf(rng.normal(size=(2,)))
        check_op(
            lambda: T.conv2d_transpose(x, w, b, stride=2, pad=1, out_pad=1).square().sum(),
            {"x": x, "w": w, "b": b},
            rtol=1e-5,
            atol=1e-7,
        )

    def test_adjoint_of_conv2d(self):
        # <conv(x, w), y> == <x, conv_T(y, w)>: with shared im2col layout the
        # transpose op with the same (F, C, kh, kw) kernel is the exact
        # adjoint, out_pad chosen so shapes align.
        rng = np.random.default_rng(17)
        x = rng.normal(size=(1, 3, 8, 8))
        for f in (5, 2):  # a 2 -> 3 channel transpose takes the gather branch
            w = rng.normal(size=(f, 3, 3, 3))
            y = rng.normal(size=(1, f, 4, 4))
            cx = T.conv2d(Tensor(x), Tensor(w), stride=2, pad=1).data
            cty = T.conv2d_transpose(Tensor(y), Tensor(w), stride=2, pad=1, out_pad=1).data
            assert cty.shape == x.shape
            np.testing.assert_allclose((cx * y).sum(), (x * cty).sum(), rtol=1e-10, err_msg=f"f={f}")

    def test_out_pad_must_be_less_than_stride(self):
        with pytest.raises(ShapeError, match="out_pad"):
            T.conv2d_transpose(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))), stride=1, out_pad=1)


# (name, op, x, w, stride, pad, out_pad) of every conv layer shape the image
# translator, scorer and predictor run on 16x16 frames
NETWORK_LAYERS = [
    ("enc0", "conv2d", (2, 1, 16, 16), (16, 1, 7, 7), 1, 3, 0),
    ("enc1", "conv2d", (2, 16, 16, 16), (32, 16, 3, 3), 2, 1, 0),
    ("res", "conv2d", (2, 32, 8, 8), (32, 32, 3, 3), 1, 1, 0),
    ("dec0", "conv2d_transpose", (2, 32, 8, 8), (32, 16, 3, 3), 2, 1, 1),
    ("dec1", "conv2d", (2, 16, 16, 16), (1, 16, 7, 7), 1, 3, 0),
    ("scorer0", "conv2d", (2, 1, 16, 16), (32, 1, 5, 5), 2, 2, 0),
    ("pred2", "conv2d", (2, 16, 16, 16), (1, 16, 3, 3), 1, 1, 0),
]
CONV_LAYERS = [layer for layer in NETWORK_LAYERS if layer[1] == "conv2d"]


class TestNetworkLayerShapes:
    @pytest.mark.parametrize("layer", NETWORK_LAYERS, ids=[layer[0] for layer in NETWORK_LAYERS])
    def test_forward_matches_naive(self, layer):
        _, op, x_shape, w_shape, stride, pad, out_pad = layer
        rng = np.random.default_rng(22)
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        if op == "conv2d":
            b = rng.normal(size=w_shape[0])
            got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad)
            want = conv2d_naive(x, w, b, stride, pad)
        else:
            b = rng.normal(size=w_shape[1])
            got = T.conv2d_transpose(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad, out_pad=out_pad)
            want = conv2d_transpose_naive(x, w, b, stride, pad, out_pad)
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("layer", NETWORK_LAYERS, ids=[layer[0] for layer in NETWORK_LAYERS])
    def test_float32_stays_float32(self, layer):
        _, op, x_shape, w_shape, stride, pad, out_pad = layer
        rng = np.random.default_rng(23)
        kwargs = dict(stride=stride, pad=pad) if op == "conv2d" else dict(stride=stride, pad=pad, out_pad=out_pad)
        b_size = w_shape[0] if op == "conv2d" else w_shape[1]
        params = {
            "x": leaf(rng.normal(size=x_shape), np.float32),
            "w": leaf(rng.normal(size=w_shape), np.float32),
            "b": leaf(rng.normal(size=b_size), np.float32),
        }
        with Graph() as g:
            out = T.OPS[op](params["x"], params["w"], params["b"], **kwargs)
            total = out.square().sum()
        (node,) = [n for n in g.nodes if n.op == op]
        assert out.dtype == np.float32
        assert all(grad.dtype == np.float32 for grad in node.bwd(np.ones(out.shape, np.float32)))
        assert all(grad.dtype == np.float32 for grad in backward(g, total, params).values())

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layer", CONV_LAYERS, ids=[layer[0] for layer in CONV_LAYERS])
    def test_blocked_forward_is_bitwise_one_block(self, layer, dtype, bias):
        # untaped and frozen-weight forwards build their columns in blocks of
        # whole images; a taped forward whose weight needs a gradient keeps
        # them, in one block. Every output byte must agree.
        _, _, x_shape, w_shape, stride, pad, _ = layer
        c, h, wd = x_shape[1:]
        f, _, kh, kw = w_shape
        ho, wo = (h + 2 * pad - kh) // stride + 1, (wd + 2 * pad - kw) // stride + 1
        per = max(1, T._COL_BLOCK // (ho * wo * kh * kw * c))
        n = max(45, 2 * per + 1)  # at least three blocks; the last is partial unless a block is one image
        rng = np.random.default_rng(24)
        x = rng.normal(size=(n, c, h, wd)).astype(dtype)
        w = rng.normal(size=w_shape).astype(dtype)
        b = Tensor(rng.normal(size=f).astype(dtype)) if bias else None

        def forward(x_grad, w_grad, taped):
            xt, wt = Tensor(x, requires_grad=x_grad), Tensor(w, requires_grad=w_grad)
            if not taped:
                return T.conv2d(xt, wt, b, stride=stride, pad=pad).data
            with Graph() as g:
                out = T.conv2d(xt, wt, b, stride=stride, pad=pad)
            assert len(g) == 1
            return out.data

        one_block = forward(False, True, True)
        for got in (forward(False, False, False), forward(True, False, True)):
            assert got.dtype == one_block.dtype == dtype
            assert got.tobytes() == one_block.tobytes()
        if dtype == np.float64:
            ends = [0, n - 1]  # the first block's first frame and the last block's last
            want = conv2d_naive(x[ends], w, b.data if bias else None, stride, pad)
            np.testing.assert_allclose(one_block[ends], want, rtol=1e-12, atol=1e-12)


class TestUnreadGradients:
    """Ops skip the gradients of inputs that need none, bit for bit otherwise."""

    CASES = {
        "matmul": (lambda a, b, c: T.matmul(a, b), ((3, 4), (4, 2), None)),
        "linear": (lambda x, w, b: T.linear(x, w, b), ((3, 4), (4, 2), (2,))),
        "conv2d": (
            lambda x, w, b: T.conv2d(x, w, b, stride=2, pad=1),
            ((2, 2, 5, 5), (3, 2, 3, 3), (3,)),
        ),
        "conv2d_narrowing": (
            lambda x, w, b: T.conv2d(x, w, b, stride=2, pad=1),
            ((2, 3, 5, 5), (2, 3, 3, 3), (2,)),
        ),
        "conv2d_transpose": (
            lambda x, w, b: T.conv2d_transpose(x, w, b, stride=2, pad=1, out_pad=1),
            ((2, 3, 3, 3), (3, 2, 3, 3), (2,)),
        ),
        "conv2d_transpose_widening": (
            lambda x, w, b: T.conv2d_transpose(x, w, b, stride=2, pad=1, out_pad=1),
            ((2, 2, 3, 3), (2, 3, 3, 3), (3,)),
        ),
    }

    @staticmethod
    def _grads(op, arrays, needs):
        inputs = [Tensor(a, requires_grad=r) if a is not None else None for a, r in zip(arrays, needs)]
        with Graph() as g:
            out = op(*inputs)
        (node,) = g.nodes
        return node.bwd(np.linspace(-1.0, 1.0, out.size).reshape(out.shape))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_each_requires_grad_combination(self, name):
        op, shapes = self.CASES[name]
        rng = np.random.default_rng(19)
        arrays = [rng.normal(size=s) if s is not None else None for s in shapes]
        n_in = sum(s is not None for s in shapes)
        full = self._grads(op, arrays, (True,) * 3)
        for needs in itertools.product((False, True), repeat=n_in):
            if not any(needs):
                continue  # nothing is recorded
            got = self._grads(op, arrays, needs + (False,) * (3 - n_in))
            assert len(got) == n_in
            for need, g, ref in zip(needs, got, full):
                if need:
                    assert g.dtype == ref.dtype and g.shape == ref.shape and g.tobytes() == ref.tobytes(), (name, needs)
                else:
                    assert g is None, (name, needs)

    def test_pad_matches_numpy(self):
        # _pad takes channels-last (N, H, W, C) arrays
        a = np.random.default_rng(20).normal(size=(2, 4, 5, 3)).astype(np.float32)
        got = T._pad(a, 2)
        assert got.dtype == a.dtype
        np.testing.assert_array_equal(got, np.pad(a, ((0, 0), (2, 2), (2, 2), (0, 0))))
        assert T._pad(a, 0) is a  # no copy at pad 0


# ---------------------------------------------------------------------------
# Tape semantics
# ---------------------------------------------------------------------------


class TestTape:
    def test_tensor_keeps_no_gradient_buffer(self):
        assert Tensor.__slots__ == ("data", "requires_grad")

    def test_unreached_and_frozen_leaves_get_zeros(self):
        a, b = leaf([1.0, 2.0]), leaf([3.0, 4.0])
        frozen = Tensor(np.array([5.0, 6.0]))
        with Graph() as g:
            out = (a * frozen).sum()
        grads = backward(g, out, {"a": a, "b": b, "frozen": frozen})
        np.testing.assert_array_equal(grads["a"], frozen.data)
        np.testing.assert_array_equal(grads["b"], np.zeros(2))
        np.testing.assert_array_equal(grads["frozen"], np.zeros(2))

    def test_no_recording_outside_graph(self):
        a = leaf([1.0, 2.0])
        out = (a * 2.0).sum()
        assert not out.requires_grad

    def test_reused_tensor_accumulates(self):
        # d/da of (a*a + a) at a=3 is 2a+1 = 7.
        a = leaf(3.0)
        with Graph() as g:
            out = a * a + a
        assert backward(g, out, {"a": a})["a"] == pytest.approx(7.0)

    def test_repeated_backward_returns_fresh_gradients(self):
        # nothing carries over between passes: each returns 2a
        a = leaf([1.0, 2.0])
        for _ in range(2):
            with Graph() as g:
                out = a.square().sum()
            np.testing.assert_allclose(backward(g, out, {"a": a})["a"], 2 * a.data)

    def test_detach_blocks_gradient(self):
        a = leaf(2.0)
        with Graph() as g:
            out = a * a.detach()
        assert backward(g, out, {"a": a})["a"] == pytest.approx(2.0)  # only the live factor

    def test_backward_requires_scalar(self):
        a = leaf([1.0, 2.0])
        with Graph() as g:
            out = a * 2.0
        with pytest.raises(ShapeError, match="scalar"):
            backward(g, out, {"a": a})

    def test_diamond_graph(self):
        # f = (a+a) * (a*a):  f = 2a^3, f' = 6a^2.
        a = leaf(2.0)
        with Graph() as g:
            out = (a + a) * (a * a)
        assert backward(g, out, {"a": a})["a"] == pytest.approx(24.0)

    def test_nested_graphs_record_innermost(self):
        a = leaf(1.0)
        with Graph() as outer:
            _ = a * 2.0
            with Graph() as inner:
                _ = a * 3.0
        assert len(outer) == 1 and len(inner) == 1

    def test_constant_inputs_skip_recording(self):
        x = Tensor([1.0, 2.0])
        with Graph() as g:
            _ = (x * 2.0).sum()
        assert len(g) == 0

    @pytest.mark.parametrize("through_reshape", [False, True], ids=["direct", "reshaped"])
    def test_no_two_keys_share_memory(self, through_reshape):
        # add hands one array to both inputs, and reshape hands each a view
        # of it; every key, the same leaf under two keys included, gets its own
        a, b = leaf(np.ones((2, 3))), leaf(np.ones((2, 3)))
        with Graph() as g:
            out = (a.reshape(6) + b.reshape(6)).sum() if through_reshape else (a + b).sum()
        grads = backward(g, out, {"a": a, "b": b, "a again": a})
        for k1, k2 in itertools.combinations(grads, 2):
            assert not np.shares_memory(grads[k1], grads[k2]), (k1, k2)
        grads["a"][0, 0] = 7.0
        np.testing.assert_array_equal(grads["b"], np.ones((2, 3)))
        np.testing.assert_array_equal(grads["a again"], np.ones((2, 3)))

    def test_requested_intermediate_gets_zeros(self):
        a = leaf([1.0, 2.0])
        with Graph() as g:
            mid = a * 3.0
            out = mid.sum()
        grads = backward(g, out, {"a": a, "mid": mid})
        np.testing.assert_array_equal(grads["a"], [3.0, 3.0])
        np.testing.assert_array_equal(grads["mid"], np.zeros(2))

    def test_root_that_is_a_requested_leaf_gets_ones(self):
        a = leaf(2.5)
        grads = backward(Graph(), a, {"a": a})
        assert grads["a"].dtype == np.float64 and grads["a"] == 1.0

    def test_float32_leaf_sums_float64_contributions_then_rounds_once(self):
        # 1 + 2**-24 rounds to 1 in float32, so rounding each contribution
        # would lose the 2**-23 that their float64 sum carries
        a = leaf(np.ones(2), dtype=np.float32)
        w1, w2 = Tensor(np.full(2, 1.0 + 2.0**-24)), Tensor(np.full(2, 2.0**-24))
        with Graph() as g:
            out = (a * w1).sum() + (a * w2).sum()
        grad = backward(g, out, {"a": a})["a"]
        assert grad.dtype == np.float32
        np.testing.assert_array_equal(grad, (w1.data + w2.data).astype(np.float32))
        assert grad[0] == np.float32(1.0 + 2.0**-23)


class TestApplyRegistry:
    def test_every_listed_op_differentiates(self):
        # One smoke gradient through each catalog entry that takes tensors.
        rng = np.random.default_rng(18)
        a = leaf(rng.normal(size=(2, 2)) + 3.0)  # keep abs away from 0
        b = leaf(rng.normal(size=(2, 2)) + 3.0)
        x4 = leaf(rng.normal(size=(1, 2, 4, 4)))
        w4 = leaf(rng.normal(size=(2, 2, 3, 3)))
        wt4 = leaf(rng.normal(size=(2, 2, 3, 3)))
        gain = leaf(np.ones(2))
        bias = leaf(np.zeros(2))
        cases = {
            "add": lambda: T.OPS["add"](a, b).sum(),
            "sub": lambda: T.OPS["sub"](a, b).sum(),
            "mul": lambda: T.OPS["mul"](a, b).sum(),
            "neg": lambda: T.OPS["neg"](a).sum(),
            "matmul": lambda: T.OPS["matmul"](a, b).sum(),
            "linear": lambda: T.OPS["linear"](a, b, bias).square().sum(),
            "leaky_relu": lambda: T.OPS["leaky_relu"](a).sum(),
            "abs": lambda: T.OPS["abs"](a).sum(),
            "square": lambda: T.OPS["square"](a).sum(),
            "sum": lambda: T.OPS["sum"](a),
            "mean": lambda: T.OPS["mean"](a),
            "reshape": lambda: T.OPS["reshape"](a, (4,)).sum(),
            "narrow": lambda: T.OPS["narrow"](a, 1, 1, 1).sum(),
            "sq_norm": lambda: T.OPS["sq_norm"](a),
            "l1_norm": lambda: T.OPS["l1_norm"](a),
            "channel_affine": lambda: T.OPS["channel_affine"](x4, gain, bias).square().sum(),
            "conv2d": lambda: T.OPS["conv2d"](x4, w4, stride=1, pad=1).square().sum(),
            "conv2d_transpose": lambda: T.OPS["conv2d_transpose"](x4, wt4, stride=2, pad=1, out_pad=1).square().sum(),
        }
        assert set(cases) == set(T.OPS)
        params = {"a": a, "b": b, "x4": x4, "w4": w4, "wt4": wt4, "gain": gain, "bias": bias}
        for name, build in cases.items():
            with Graph() as g:
                out = build()
            got = sum(float(np.abs(grad).sum()) for grad in backward(g, out, params).values())
            assert np.isfinite(got), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_result_is_a_contiguous_float_array(self, dtype):
        # ops wrap their results unchecked; this is the invariant that relies on
        rng = np.random.default_rng(18)

        def t(*shape):
            return leaf(rng.normal(size=shape) + 3.0, dtype)

        a, b, row, x4, w4 = t(2, 3), t(2, 3), t(3), t(1, 2, 4, 4), t(2, 2, 3, 3)
        cases = {
            "add": [T.add(a, b), T.add(a, row), T.add(a, 1.0), T.add(2.0, a)],
            "sub": [T.sub(a, row), 1.0 - a, T.sub(a.sum(), b.sum())],
            "mul": [T.mul(a, b), T.mul(a, 0.5), T.mul(a.sum(), b.sum())],
            "neg": [T.neg(a), T.neg(a.sum())],
            "matmul": [T.matmul(a, t(3, 2))],
            "linear": [T.linear(a, t(3, 2), t(2))],
            "leaky_relu": [T.leaky_relu(a), T.leaky_relu(a.sum())],
            "abs": [T.absval(a), T.absval(a.sum())],
            "square": [T.square(a), T.square(a.sum())],
            "sum": [a.sum(), a.sum(axis=0), a.sum(axis=1, keepdims=True)],
            "mean": [a.mean(), a.mean(axis=1)],
            "reshape": [a.reshape(3, 2), t(1).reshape(())],
            "narrow": [T.narrow(a, 1, 1, 1)],
            "sq_norm": [T.sq_norm(a), T.sq_norm(a, axis=1)],
            "l1_norm": [T.l1_norm(a), T.l1_norm(a, axis=1)],
            "channel_affine": [T.channel_affine(x4, t(2), t(2))],
            "conv2d": [T.conv2d(x4, w4, t(2), stride=2, pad=1)],
            "conv2d_transpose": [T.conv2d_transpose(x4, w4, t(2), stride=2, pad=1, out_pad=1)],
        }
        assert set(cases) == set(T.OPS)
        for name, outs in cases.items():
            for out in outs:
                data = out.data
                assert type(data) is np.ndarray and data.dtype == dtype and data.flags.c_contiguous, name


# ---------------------------------------------------------------------------
# grad_check utility
# ---------------------------------------------------------------------------


class TestGradCheck:
    def test_numeric_grad_matches_closed_form(self):
        # d/dx sum(x^3) = 3x^2; central differences of a cubic are off by
        # exactly step^2, a one-sided difference would be off by 3*x*step.
        x = np.random.default_rng(18).normal(size=(3, 4))
        before = x.copy()
        step = 1e-3
        num = numeric_grad(lambda: float(np.sum(x**3)), x, step)
        np.testing.assert_allclose(num, 3 * before**2 + step**2, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(x, before)

    def test_clean_model_passes(self):
        rng = np.random.default_rng(19)
        w = leaf(rng.normal(size=(3, 2)))
        x = Tensor(rng.normal(size=(4, 3)).astype(np.float64))

        def loss():
            return T.leaky_relu(x @ w).square().sum()

        report = grad_check({"w": w}, loss)
        assert report.max_rel_error < 1e-6

    def test_detects_wrong_gradient(self):
        # A loss whose recorded backward is deliberately broken via detach
        # mismatch: analytic grad sees one factor, numeric sees both.
        a = leaf(1.5)

        def loss():
            return a * a.detach()

        report = grad_check({"a": a}, loss)
        assert report.max_rel_error > 0.3


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


small_arrays = st.integers(2, 5).flatmap(
    lambda n: st.lists(st.floats(-10, 10, width=32), min_size=n, max_size=n)
)


class TestProperties:
    @given(small_arrays)
    @settings(max_examples=50, deadline=None)
    def test_sum_linearity(self, xs):
        a = Tensor(np.array(xs, dtype=np.float64))
        lhs = T.tensor_sum(a * 3.0).item()
        rhs = 3.0 * T.tensor_sum(a).item()
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(small_arrays)
    @settings(max_examples=50, deadline=None)
    def test_abs_nonnegative_and_even(self, xs):
        a = Tensor(np.array(xs, dtype=np.float64))
        assert (a.abs().data >= 0).all()
        np.testing.assert_array_equal(a.abs().data, T.neg(a).abs().data)

    @given(small_arrays)
    @settings(max_examples=50, deadline=None)
    def test_square_matches_mul(self, xs):
        a = Tensor(np.array(xs, dtype=np.float64))
        np.testing.assert_array_equal(a.square().data, (a * a).data)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_reshape_round_trip(self, r, c, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(r, c)))
        back = a.reshape(r * c).reshape(r, c)
        np.testing.assert_array_equal(back.data, a.data)


# ---------------------------------------------------------------------------
# CTNS file format
# ---------------------------------------------------------------------------


class TestCtns:
    def test_header_layout(self, tmp_path):
        p = tmp_path / "t.ctns"
        save_ctns(Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)), p)
        raw = p.read_bytes()
        assert raw[:4] == b"CTNS"
        assert raw[4] == 1  # version
        assert raw[5] == 1  # dtype code: float32
        assert raw[6] == 2  # rank
        assert np.frombuffer(raw[7:15], dtype="<u4").tolist() == [2, 3]
        assert len(raw) == 15 + 6 * 4

    def test_bit_exact_round_trip_f32(self, tmp_path):
        rng = np.random.default_rng(20)
        arr = rng.normal(size=(3, 4, 5)).astype(np.float32)
        arr[0, 0, 0] = np.float32(1e-38)  # subnormal-adjacent value survives
        p = tmp_path / "t.ctns"
        save_ctns(Tensor(arr), p)
        back = load_ctns(p)
        assert back.data.dtype == np.float32
        assert back.data.tobytes() == arr.tobytes()

    def test_round_trip_f64(self, tmp_path):
        arr = np.random.default_rng(21).normal(size=(7,))
        p = tmp_path / "t.ctns"
        save_ctns(arr, p)
        back = load_ctns(p)
        assert back.data.dtype == np.float64
        assert back.data.tobytes() == arr.tobytes()

    def test_rank_zero(self, tmp_path):
        p = tmp_path / "s.ctns"
        save_ctns(np.float32(2.5), p)
        back = load_ctns(p)
        assert back.shape == () and back.item() == 2.5

    @pytest.mark.parametrize(
        "mutate,offset_word",
        [
            (lambda b: b"XTNS" + b[4:], "offset 0"),
            (lambda b: b[:4] + bytes([9]) + b[5:], "offset 4"),
            (lambda b: b[:5] + bytes([7]) + b[6:], "offset 5"),
            (lambda b: b[:-3], "mismatch"),
            (lambda b: b + b"\x00\x00", "mismatch"),
        ],
    )
    def test_malformed_rejected_with_offset(self, tmp_path, mutate, offset_word):
        p = tmp_path / "t.ctns"
        save_ctns(Tensor(np.ones((2, 2), dtype=np.float32)), p)
        p.write_bytes(mutate(p.read_bytes()))
        with pytest.raises(CtnsError, match=offset_word):
            load_ctns(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "t.ctns"
        p.write_bytes(b"CTNS\x01")
        with pytest.raises(CtnsError, match="truncated"):
            load_ctns(p)
