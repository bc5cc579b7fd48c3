"""Helpers shared across test modules."""

import numpy as np

from coopforge.objectives import cycle_loss
from coopforge.tensor import Graph, Tensor, backward, numeric_grad


def leaf(arr, dtype=np.float64):
    return Tensor(np.asarray(arr, dtype=dtype), requires_grad=True)


def check_op(build, params, rtol=1e-6, atol=1e-9):
    """Backprop through build() and compare each leaf grad to finite differences."""
    with Graph() as g:
        out = build()
    grads = backward(g, out, params)
    for name, p in params.items():
        num = numeric_grad(lambda: build().item(), p.data)
        np.testing.assert_allclose(grads[name], num, rtol=rtol, atol=atol, err_msg=name)


def assert_params_view_vector(net):
    """Each parameter of ``net`` is its own stretch of ``net.vector``, in ``params`` order."""
    offset = 0
    for k, p in net.params.items():
        assert p.data.base is net.vector, f"{net.name}.{k}"
        assert p.data.ctypes.data == net.vector.ctypes.data + offset * net.vector.itemsize, f"{net.name}.{k}"
        offset += p.data.size
    assert offset == net.vector.size, net.name


def round_trip_loss(g_xy, g_yx, x, y):
    """``cycle_loss`` on translations made here, one forward per direction."""
    x_moved = g_yx.forward(Tensor(np.asarray(y)))
    y_moved = g_xy.forward(Tensor(np.asarray(x)))
    return cycle_loss(g_xy, g_yx, x, y, x_moved, y_moved)


class AddConstant:
    """Minimal translator stub: adds a fixed offset, no parameters."""

    def __init__(self, offset: float, name: str = "stub"):
        self.offset = float(offset)
        self.name = name
        self.params: dict = {}

    def forward(self, x: Tensor) -> Tensor:
        return x + self.offset
