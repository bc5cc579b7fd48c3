"""Dense tensors with reverse-mode automatic differentiation on a recorded tape.

Float32 is the training precision; float64 is used for gradient checking.
Ops record onto the innermost active ``Graph`` (a tape) whenever any input
requires a gradient; with no active graph everything runs in eval mode.

Convolutions take and return NCHW arrays but run a channels-last im2col:
one copy per call into columns ordered (kh, kw, C). One adjoint kernel is
both ``conv2d``'s input gradient and ``conv2d_transpose``'s forward: it
gathers when the convolution it is the adjoint of narrows the channels
(F < C), and scatters through col2im otherwise.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor",
    "Graph",
    "ShapeError",
    "backward",
    "OPS",
    "narrow",
    "conv2d",
    "conv2d_transpose",
    "channel_affine",
    "leaky_relu",
    "matmul",
    "grad_check",
    "numeric_grad",
    "GradCheckReport",
    "save_ctns",
    "load_ctns",
    "CtnsError",
]


class ShapeError(ValueError):
    """Raised when operand shapes are invalid for an op."""


def _shape_err(op, *shapes):
    return ShapeError(f"{op}: incompatible shapes " + " vs ".join(str(s) for s in shapes))


_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """A dense multi-dimensional float array, optionally recorded for gradients.

    ``data`` is a row-major numpy array (float32 or float64). Ops on a tensor
    with ``requires_grad`` record onto the active tape; ``backward`` returns
    the gradients of the leaves it is asked for.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        # ascontiguousarray promotes 0-d to 1-d; rank-0 is already contiguous
        self.data = np.ascontiguousarray(arr) if arr.ndim else arr

        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor of shape {self.shape} is not a scalar")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.requires_grad = False
        return out

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_coerce(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def abs(self):
        return absval(self)

    def square(self):
        return square(self)

    def sq_norm(self, axis=None):
        return sq_norm(self, axis=axis)

    def l1_norm(self, axis=None):
        return l1_norm(self, axis=axis)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def _coerce(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------


class _Node:
    __slots__ = ("op", "inputs", "out", "bwd")

    def __init__(self, op, inputs, out, bwd):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.bwd = bwd


_active_graphs: list["Graph"] = []


class Graph:
    """Tape of operation records, appended in execution order.

    Execution order is topological by construction: a tensor exists before
    any op can consume it. Used as a context manager; a fresh graph is made
    per training iteration and discarded afterwards.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Graph":
        _active_graphs.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _active_graphs.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self.nodes)


def _record(op: str, inputs: tuple, out: Tensor, bwd) -> Tensor:
    if _active_graphs and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _active_graphs[-1].nodes.append(_Node(op, inputs, out, bwd))
    return out


def backward(graph: Graph, root: Tensor, wrt: dict) -> dict[object, np.ndarray]:
    """d(root)/d(leaf) for every leaf in ``wrt``, under the same keys.

    One map from tensor to gradient, seeded with ones at the root, sums each
    contribution to a tensor that requires a gradient in reverse tape order,
    popping a node's entry when the walk reaches it. A sum keeps its
    contributions' dtype and is cast once to the leaf's, not one by one; on
    every program path they already have the leaf's dtype, so both agree.
    Unreached leaves, leaves without ``requires_grad`` and tensors this graph
    produced get zeros. No two keys share memory.
    """
    if root.data.size != 1:
        raise ShapeError(f"backward: root must be scalar, got shape {root.shape}")
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(graph.nodes):
        g = grads.pop(id(node.out), None)
        if g is not None:
            for inp, gi in zip(node.inputs, node.bwd(g)):
                if gi is not None and inp.requires_grad:
                    key = id(inp)
                    grads[key] = grads[key] + gi if key in grads else gi
    out, handed = {}, set()
    for k, t in wrt.items():
        g = grads.get(id(t)) if t.requires_grad else None
        g = np.zeros_like(t.data) if g is None else np.asarray(g, dtype=t.dtype)
        base = id(g if g.base is None else g.base)
        out[k] = g.copy() if base in handed else g
        handed.add(base)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Operator catalog
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a = _coerce(a, getattr(b, "dtype", np.float32))
    b = _coerce(b, a.dtype)
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise _shape_err("add", a.shape, b.shape) from None

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record("add", (a, b), out, bwd)


def sub(a, b) -> Tensor:
    a = _coerce(a, getattr(b, "dtype", np.float32))
    b = _coerce(b, a.dtype)
    try:
        out = Tensor(a.data - b.data)
    except ValueError:
        raise _shape_err("sub", a.shape, b.shape) from None

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record("sub", (a, b), out, bwd)


def mul(a, b) -> Tensor:
    a = _coerce(a, getattr(b, "dtype", np.float32))
    b = _coerce(b, a.dtype)
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise _shape_err("mul", a.shape, b.shape) from None
    ad, bd = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

    return _record("mul", (a, b), out, bwd)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    return _record("neg", (a,), out, lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise _shape_err("matmul", a.shape, b.shape)
    out = Tensor(a.data @ b.data)
    ad, bd = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def bwd(g):
        return (g @ bd.T if need_a else None), (ad.T @ g if need_b else None)

    return _record("matmul", (a, b), out, bwd)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    """max(a, slope * a) forward; the backward multiplies in a 1.0/slope map.

    Both equal the select on ``a >= 0`` bit for bit on every value (signed
    zeros, subnormals whose product underflows, infinities, NaN) while the
    slope, in ``a``'s dtype, lies in (0, 1]; at 0, 0 * inf is NaN.
    """
    ad = a.data
    s = ad.dtype.type(slope)
    if not 0 < s <= 1:
        raise ValueError(f"leaky_relu: slope must lie in (0, 1], got {slope}")
    out = Tensor(np.maximum(ad, s * ad))

    def bwd(g):
        return (g * np.maximum(ad >= 0, g.dtype.type(slope)),)

    return _record("leaky_relu", (a,), out, bwd)


def absval(a: Tensor) -> Tensor:
    out = Tensor(np.abs(a.data))
    sign = np.sign(a.data)
    return _record("abs", (a,), out, lambda g: (g * sign,))


def square(a: Tensor) -> Tensor:
    out = Tensor(a.data * a.data)
    ad = a.data
    return _record("square", (a,), out, lambda g: (2.0 * g * ad,))


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    shape, nd = a.shape, a.ndim

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g.reshape((1,) * nd), shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _record("sum", (a,), out, bwd)


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.size if axis is None else np.prod([a.shape[ax] for ax in np.atleast_1d(axis)])
    s = tensor_sum(a, axis=axis, keepdims=keepdims)
    return mul(s, 1.0 / float(n))


def reshape(a: Tensor, shape) -> Tensor:
    try:
        out = Tensor(a.data.reshape(shape))
    except ValueError:
        raise _shape_err("reshape", a.shape, tuple(shape)) from None
    orig = a.shape
    return _record("reshape", (a,), out, lambda g: (g.reshape(orig),))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Entries ``start .. start+length-1`` of ``axis``; every other axis is kept whole.

    The backward pass writes the output gradient into those entries of a
    zero array of the input's shape.
    """
    if not -a.ndim <= axis < a.ndim:
        raise _shape_err("narrow(axis)", a.shape, (axis,))
    axis %= a.ndim
    if start < 0 or length < 1 or start + length > a.shape[axis]:
        raise _shape_err("narrow", a.shape, (axis, start, length))
    index = (slice(None),) * axis + (slice(start, start + length),)
    out = Tensor(a.data[index])
    shape = a.shape

    def bwd(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[index] = g
        return (full,)

    return _record("narrow", (a,), out, bwd)


def sq_norm(a: Tensor, axis=None) -> Tensor:
    """Squared L2 norm: sum of squares over ``axis`` (all axes by default)."""
    return tensor_sum(square(a), axis=axis)


def l1_norm(a: Tensor, axis=None) -> Tensor:
    """L1 norm: sum of absolute values over ``axis``."""
    return tensor_sum(absval(a), axis=axis)


def channel_affine(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-channel affine y[n,c,...] = x[n,c,...] * gain[c] + bias[c].

    Stands in for instance/batch normalization at batch size 1: the
    normalizing statistics are frozen at identity and only the learnable
    affine remains.
    """
    if x.ndim < 2 or gain.shape != (x.shape[1],) or bias.shape != (x.shape[1],):
        raise _shape_err("channel_affine", x.shape, gain.shape, bias.shape)
    cshape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    out = Tensor(x.data * gain.data.reshape(cshape) + bias.data.reshape(cshape))
    xd = x.data
    reduce_axes = (0,) + tuple(range(2, x.ndim))

    def bwd(g):
        return (
            g * gain.data.reshape(cshape),
            (g * xd).sum(axis=reduce_axes),
            g.sum(axis=reduce_axes),
        )

    return _record("channel_affine", (x, gain, bias), out, bwd)


# -- convolution ------------------------------------------------------------
# NCHW arrays are viewed as NHWC and kernels as (F, kh, kw, C), matching the
# (kh, kw, C) column order, so C is the innermost axis of every im2col copy,
# scatter-add and GEMM.


def _nhwc(a: np.ndarray) -> np.ndarray:
    return a.transpose(0, 2, 3, 1)


def _nchw(a: np.ndarray) -> np.ndarray:
    return a.transpose(0, 3, 1, 2)


def _pad(a: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two spatial axes of an NHWC array by ``pad`` on each side (``a`` itself at 0)."""
    if not pad:
        return a
    n, h, w, c = a.shape
    out = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=a.dtype)
    out[:, pad : pad + h, pad : pad + w] = a
    return out


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int):
    """im2col on an already-padded NHWC array -> (N*Ho*Wo, kh*kw*C), Ho, Wo."""
    n, h, w, c = xp.shape
    ho, wo = (h - kh) // stride + 1, (w - kw) // stride + 1
    sn, sh, sw, sc = xp.strides
    # a read-only (N, Ho, Wo, kh, kw, C) window view; the reshape is the one copy
    win = np.lib.stride_tricks.as_strided(
        xp, (n, ho, wo, kh, kw, c), (sn, stride * sh, stride * sw, sh, sw, sc), writeable=False
    )
    return win.reshape(n * ho * wo, kh * kw * c), ho, wo


def _col2im(cols: np.ndarray, shape: tuple, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Adjoint of ``_im2col``: scatter-add (N*Ho*Wo, kh*kw*C) columns into a
    zero NHWC array of the padded ``shape``."""
    img = np.zeros(shape, dtype=cols.dtype)
    cols = cols.reshape(shape[0], ho, wo, kh, kw, shape[3])
    for ki in range(kh):
        for kj in range(kw):
            img[:, ki : ki + stride * ho : stride, kj : kj + stride * wo : stride] += cols[:, :, :, ki, kj]
    return img


def _conv_adjoint(g: np.ndarray, wmat: np.ndarray, h: int, wd: int, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Adjoint in x of correlating an NHWC x of spatial size (h, wd) with the (F, kh*kw*C)
    kernel ``wmat``: maps the (N, Ho, Wo, F) NHWC array ``g`` to (N, h, wd, C). With F < C
    (and pad below the kernel size) it gathers, a full correlation of the stride-dilated g
    with the flipped kernel in one GEMM over kh*kw*F columns instead of kh*kw scatter-adds of
    C channels; otherwise it scatters through col2im, since gathering would build the wider
    columns, and crops the pad margin."""
    n, ho, wo, f = g.shape
    c = wmat.shape[1] // (kh * kw)
    if f < c and pad < min(kh, kw):
        # kh-1-pad zeros ahead of g; the buffer's extent makes the output h
        # whatever remainder the stride left behind the last window
        top, left = kh - 1 - pad, kw - 1 - pad
        gp = np.zeros((n, h + kh - 1, wd + kw - 1, f), dtype=g.dtype)
        gp[:, top : top + stride * ho : stride, left : left + stride * wo : stride] = g
        wflip = wmat.reshape(f, kh, kw, c)[:, ::-1, ::-1].transpose(1, 2, 0, 3).reshape(kh * kw * f, c)
        return (_im2col(gp, kh, kw, 1)[0] @ wflip).reshape(n, h, wd, c)
    img = _col2im(g.reshape(n * ho * wo, f) @ wmat, (n, h + 2 * pad, wd + 2 * pad, c), kh, kw, stride, ho, wo)
    return img[:, pad : pad + h, pad : pad + wd]


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution (cross-correlation), NCHW layout, square stride/pad.

    x: (N, C, H, W); w: (F, C, kh, kw); b: (F,) or None.
    """
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise _shape_err("conv2d", x.shape, w.shape)
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    if h + 2 * pad < kh or wd + 2 * pad < kw:
        raise _shape_err("conv2d", x.shape, w.shape)
    if b is not None and b.shape != (f,):
        raise _shape_err("conv2d(bias)", b.shape, (f,))
    cols, ho, wo = _im2col(_pad(_nhwc(x.data), pad), kh, kw, stride)
    wmat = _nhwc(w.data).reshape(f, kh * kw * c)
    out_mat = cols @ wmat.T
    if b is not None:
        out_mat = out_mat + b.data
    out = Tensor(_nchw(out_mat.reshape(n, ho, wo, f)))
    # gradients nobody reads (data inputs, frozen weights) are never computed
    need_x, need_w = x.requires_grad, w.requires_grad
    need_b = b is not None and b.requires_grad

    def bwd(g):
        gmat = _nhwc(g).reshape(n * ho * wo, f)
        dw = _nchw((gmat.T @ cols).reshape(f, kh, kw, c)) if need_w else None
        dx = _nchw(_conv_adjoint(gmat.reshape(n, ho, wo, f), wmat, h, wd, kh, kw, stride, pad)) if need_x else None
        if b is None:
            return dx, dw
        return dx, dw, (gmat.sum(axis=0) if need_b else None)

    inputs = (x, w) if b is None else (x, w, b)
    return _record("conv2d", inputs, out, bwd)


def conv2d_transpose(
    x: Tensor,
    w: Tensor,
    b: Tensor | None = None,
    stride: int = 1,
    pad: int = 0,
    out_pad: int = 0,
) -> Tensor:
    """Transposed 2-D convolution, NCHW layout: the adjoint in x of ``conv2d`` with kernel ``w``.

    x: (N, Cin, H, W); w: (Cin, Cout, kh, kw); output spatial size is
    (H-1)*stride - 2*pad + kh + out_pad.
    """
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[0]:
        raise _shape_err("conv2d_transpose", x.shape, w.shape)
    if out_pad >= stride:
        raise _shape_err("conv2d_transpose(out_pad)", (out_pad,), (stride,))
    n, cin, h, wd = x.shape
    _, cout, kh, kw = w.shape
    ho = (h - 1) * stride - 2 * pad + kh + out_pad
    wo = (wd - 1) * stride - 2 * pad + kw + out_pad
    if ho <= 0 or wo <= 0:
        raise _shape_err("conv2d_transpose", x.shape, w.shape)
    if b is not None and b.shape != (cout,):
        raise _shape_err("conv2d_transpose(bias)", b.shape, (cout,))
    xmat = _nhwc(x.data).reshape(n * h * wd, cin)
    wmat = _nhwc(w.data).reshape(cin, kh * kw * cout)
    out_arr = _conv_adjoint(xmat.reshape(n, h, wd, cin), wmat, ho, wo, kh, kw, stride, pad)
    if b is not None:
        out_arr = out_arr + b.data
    out = Tensor(_nchw(out_arr))
    need_x, need_w = x.requires_grad, w.requires_grad
    need_b = b is not None and b.requires_grad

    def bwd(g):
        gcols, gh, gw = _im2col(_pad(_nhwc(g), pad), kh, kw, stride)  # (n*h*wd, kh*kw*cout)
        assert (gh, gw) == (h, wd)
        dx = _nchw((gcols @ wmat.T).reshape(n, h, wd, cin)) if need_x else None
        dw = _nchw((xmat.T @ gcols).reshape(cin, kh, kw, cout)) if need_w else None
        if b is None:
            return dx, dw
        return dx, dw, (g.sum(axis=(0, 2, 3)) if need_b else None)

    inputs = (x, w) if b is None else (x, w, b)
    return _record("conv2d_transpose", inputs, out, bwd)


OPS = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "neg": neg,
    "matmul": matmul,
    "leaky_relu": leaky_relu,
    "abs": absval,
    "square": square,
    "sum": tensor_sum,
    "mean": tensor_mean,
    "reshape": reshape,
    "narrow": narrow,
    "sq_norm": sq_norm,
    "l1_norm": l1_norm,
    "channel_affine": channel_affine,
    "conv2d": conv2d,
    "conv2d_transpose": conv2d_transpose,
}


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    per_param: dict


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-6)


def numeric_grad(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences, in float64, of the scalar ``f()`` with respect
    to the contiguous array ``x`` it reads; each coordinate moves in place and is restored."""
    grad = np.zeros(x.shape)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def grad_check(params, loss_fn, step: float = 1e-3) -> GradCheckReport:
    """Compare reverse-mode gradients of ``loss_fn`` against ``numeric_grad``.

    ``params`` is a dict name -> Tensor (float64 recommended); ``loss_fn``
    takes no arguments, reads the current parameter values and returns a
    scalar Tensor. It must be deterministic.
    """
    if not isinstance(params, dict):
        params = {f"p{i}": p for i, p in enumerate(params)}
    with Graph() as g:
        loss = loss_fn()
    analytic = backward(g, loss, params)

    per_param = {}
    worst = ("", 0.0)
    for name, p in params.items():
        numeric = numeric_grad(lambda: loss_fn().item(), p.data, step).reshape(-1).tolist()
        err = max([0.0] + [_rel_err(float(a), n) for a, n in zip(analytic[name].reshape(-1), numeric)])
        per_param[name] = err
        if err >= worst[1]:
            worst = (name, err)
    return GradCheckReport(max_rel_error=worst[1], worst_param=worst[0], per_param=per_param)


# ---------------------------------------------------------------------------
# CTNS tensor file format
# ---------------------------------------------------------------------------

_CTNS_MAGIC = b"CTNS"
_CTNS_VERSION = 1
_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_FOR = {np.dtype("float32"): 1, np.dtype("float64"): 2}


class CtnsError(ValueError):
    """Malformed CTNS file; message carries the byte offset of the fault."""


def save_ctns(tensor, path) -> None:
    """Write a tensor to the raw CTNS format (bit-exact round trip)."""
    arr = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor)
    if arr.dtype not in _CODE_FOR:
        raise CtnsError(f"unsupported dtype {arr.dtype} (offset 5)")
    if arr.ndim:
        arr = np.ascontiguousarray(arr)
    with open(path, "wb") as fh:
        fh.write(_CTNS_MAGIC)
        fh.write(struct.pack("<BBB", _CTNS_VERSION, _CODE_FOR[arr.dtype], arr.ndim))
        for ext in arr.shape:
            fh.write(struct.pack("<I", ext))
        fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes(order="C"))


def load_ctns(path) -> Tensor:
    """Read a CTNS file back into a Tensor (requires_grad=False)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _CTNS_MAGIC:
        raise CtnsError(f"{path}: bad magic (offset 0)")
    if len(raw) < 7:
        raise CtnsError(f"{path}: truncated header (offset {len(raw)})")
    version, code, rank = struct.unpack_from("<BBB", raw, 4)
    if version != _CTNS_VERSION:
        raise CtnsError(f"{path}: unsupported version {version} (offset 4)")
    if code not in _DTYPE_CODES:
        raise CtnsError(f"{path}: unknown dtype code {code} (offset 5)")
    off = 7
    if len(raw) < off + 4 * rank:
        raise CtnsError(f"{path}: truncated extents (offset {len(raw)})")
    shape = struct.unpack_from(f"<{rank}I", raw, off) if rank else ()
    off += 4 * rank
    dtype = _DTYPE_CODES[code]
    count = int(np.prod(shape)) if rank else 1
    expected = off + count * dtype.itemsize
    if len(raw) != expected:
        raise CtnsError(f"{path}: payload size mismatch (offset {min(len(raw), expected)})")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=off).reshape(shape)
    return Tensor(data.astype(dtype.newbyteorder("=")))
