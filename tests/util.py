"""Helpers shared across test modules."""

import numpy as np

from coopforge.objectives import cycle_loss
from coopforge.tensor import Graph, Tensor, backward


def leaf(arr, dtype=np.float64):
    return Tensor(np.asarray(arr, dtype=dtype), requires_grad=True)


def fd_grad(f, x: np.ndarray, step=1e-6) -> np.ndarray:
    """Central finite differences of scalar f() wrt array x (in place)."""
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * step)
    return g


def check_op(build, params, rtol=1e-6, atol=1e-9):
    """Backprop through build() and compare each leaf grad to FD."""
    for p in params.values():
        p.zero_grad()
    with Graph() as g:
        out = build()
    backward(g, out)
    for name, p in params.items():
        num = fd_grad(lambda: build().item(), p.data)
        np.testing.assert_allclose(p.grad, num, rtol=rtol, atol=atol, err_msg=name)


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
