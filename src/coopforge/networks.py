"""Network definitions: per-domain scorers f, each its domain's energy model
E(x) = -f(x) + ||x||^2 / 2 with the unit Gaussian reference, cross-domain
translators, and the temporal predictor used for frame sequences. A
``ScorerPair`` scores both domains' batches as one stacked batch.

All parameters are float32 leaves initialized from named counter-based
streams, so two constructions with the same (seed, name) are identical. A
network built with seed ``None`` draws nothing: its Gaussian-initialized
parameters start at zero, for a caller about to load stored values.
Every network the trainer builds records one sample's shape as ``in_shape``.
Its parameters are views of one flat ``vector``, rebound only by ``load``.
Translators start as the exact identity map: every path that could perturb
the input ends in a zero-initialized layer, which keeps early training
stable at batch size 1.
"""

from __future__ import annotations

import numpy as np

from . import rng
from . import tensor as T
from .tensor import Tensor

__all__ = [
    "Net",
    "Scorer",
    "PointScorer",
    "ImageScorer",
    "ZeroScorer",
    "ScorerPair",
    "PointTranslator",
    "ImageTranslator",
    "TemporalPredictor",
    "build_scorer",
    "build_translator",
]


class Net:
    """Parameter bookkeeping shared by every network.

    ``params`` maps dotted names to requires_grad leaves; insertion order is
    the canonical parameter order for optimizers and checkpoints. ``vector``
    holds every parameter in that order, and each ``params[k].data`` is a
    view of it.
    """

    def __init__(self, name: str, seed: int | None, dtype=np.float32):
        self.name = name
        self.seed = None if seed is None else int(seed)
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {}
        self._vector: np.ndarray | None = None

    @property
    def vector(self) -> np.ndarray:
        """The flat parameter vector, packed by one concatenation on the first read."""
        if self._vector is None:
            parts = [p.data.ravel() for p in self.params.values()]
            self.load(np.concatenate(parts) if parts else np.zeros(0, self.dtype))
        return self._vector

    def load(self, vector: np.ndarray) -> None:
        """Make ``vector`` (taken, not copied) the parameters: each
        ``params[k].data`` becomes its reshaped view of it, in ``params`` order."""
        size = sum(p.data.size for p in self.params.values())
        if vector.shape != (size,) or vector.dtype != self.dtype:
            raise ValueError(f"{self.name}: got a {vector.dtype} vector of shape {vector.shape}, the network needs {self.dtype} ({size},)")
        offset = 0
        for p in self.params.values():
            n = p.data.size
            p.data = vector[offset : offset + n].reshape(p.data.shape)
            offset += n
        self._vector = vector

    def _gaussian(self, local: str, shape: tuple, fan_in: int) -> Tensor:
        if self.seed is None:
            return self._zeros(local, shape)
        g = rng.init_stream(self.seed, f"{self.name}.{local}")
        arr = (g.standard_normal(size=shape) / np.sqrt(fan_in)).astype(self.dtype)
        return self._register(local, arr)

    def _zeros(self, local: str, shape: tuple) -> Tensor:
        return self._register(local, np.zeros(shape, dtype=self.dtype))

    def _ones(self, local: str, shape: tuple) -> Tensor:
        return self._register(local, np.ones(shape, dtype=self.dtype))

    def _register(self, local: str, arr: np.ndarray) -> Tensor:
        t = Tensor(arr, requires_grad=True)
        self.params[local] = t
        return t


# ---------------------------------------------------------------------------
# Score functions f(x; theta)
# ---------------------------------------------------------------------------


class Scorer(Net):
    """A score function f, (n, ...) -> (n,), owning its energy E(x) = -f(x) + ||x||^2 / 2."""

    def score_grad(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f(x) and d(sum_i f(x_i))/dx with parameters frozen, by a throwaway tape.

        Scorers with a closed form override this; theirs must equal it bitwise.
        """
        leaf = Tensor(x, requires_grad=True)
        frozen = [p for p in self.params.values() if p.requires_grad]
        for p in frozen:
            p.requires_grad = False
        try:
            with T.Graph() as g:
                scores = self.forward(leaf)
                total = scores.sum()
            return scores.data, T.backward(g, total, {"x": leaf})["x"]
        finally:
            for p in frozen:
                p.requires_grad = True

    def energy_each(self, x: Tensor) -> Tensor:
        """Per-sample energies: (n, ...) -> (n,)."""
        ref = T.sq_norm(x, axis=tuple(range(1, x.ndim))) * 0.5
        return T.neg(self.forward(x)) + ref

    def energy_sum(self, x: Tensor) -> Tensor:
        """Total energy of a batch on the tape; ``energy_grad`` equals its input gradient bitwise."""
        return self.energy_each(x).sum()

    def energy_grad(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f(x) and dE/dx = x - df/dx for a batch, parameters frozen, from one pass."""
        scores, g = self.score_grad(x)
        return scores, x - g

    def energy_values(self, x: np.ndarray) -> np.ndarray:
        """Per-sample energies in eval mode (no tape, plain arrays in/out)."""
        return self.energy_each(Tensor(np.asarray(x))).data

    @staticmethod
    def energy_of_scores(x: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """``energy_values(x)`` bit for bit, from the scores f(x) a pass already computed."""
        return -scores + (x * x).sum(axis=tuple(range(1, x.ndim))) * x.dtype.type(0.5)


class PointScorer(Scorer):
    """MLP score function for point clouds: (n, dim) -> (n,); ``in_shape`` is (dim,)."""

    def __init__(self, dim: int = 2, hidden: tuple = (128, 128), seed: int = 0, name: str = "score", dtype=np.float32):
        super().__init__(name, seed, dtype)
        self.in_shape = (dim,)
        widths = (dim,) + tuple(hidden) + (1,)
        self.depth = len(widths) - 1
        for i, (fi, fo) in enumerate(zip(widths[:-1], widths[1:])):
            self._gaussian(f"w{i}", (fi, fo), fan_in=fi)
            self._zeros(f"b{i}", (fo,))

    def forward(self, x: Tensor) -> Tensor:
        h = x
        for i in range(self.depth):
            h = T.linear(h, self.params[f"w{i}"], self.params[f"b{i}"])
            if i < self.depth - 1:
                h = T.leaky_relu(h, 0.2)
        return h.reshape(h.shape[0])

    def score_grad(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The closed form of ``_mlp_score_grad``, bitwise the tape's."""
        p, layers = self.params, range(self.depth)
        return _mlp_score_grad(x, [p[f"w{i}"].data for i in layers], [p[f"b{i}"].data for i in layers])


def _mlp_score_grad(x: np.ndarray, weights: list, biases: list) -> tuple[np.ndarray, np.ndarray]:
    """``PointScorer.score_grad``: closed-form backprop of a ones column, in the tape's op order and kernels.

    That column's product with the output layer's weights, ones @ w.T, is
    w.T in every row, save that the BLAS sum turns -0.0 into +0.0. So the
    backward starts from w.T's one row, broadcast by the first mask
    product; the next BLAS product drops a zero's sign as well. At depth 1
    that row is the gradient: adding it to zeros gives the n rows and the +0.0.

    Leading axes broadcast: a (k, n, d) batch with weights (k, in, out) and
    biases (k, 1, out) runs k scorers at once, slice j bitwise as scorer j alone.
    """
    pre = []
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if i < len(weights) - 1:
            pre.append(h)
            h = np.maximum(h, h.dtype.type(0.2) * h)
    scores = h.reshape(h.shape[:-1])
    g = weights[-1].swapaxes(-1, -2)
    if not pre:
        return scores, np.zeros_like(x) + g
    for a, w in zip(reversed(pre), reversed(weights[:-1])):
        g = (g * np.maximum(a >= 0, g.dtype.type(0.2))) @ w.swapaxes(-1, -2)
    return scores, g


class ImageScorer(Scorer):
    """Convolutional score function for NCHW images: (n, C, H, W) -> (n,).

    Defaults are desk scale; passing widths=(64, 128, 256, 512),
    filters=(3, 4, 4, 4), strides=(1, 2, 2, 2), dense=100 reproduces the
    published still-image architecture, and widths=(64, 128, 256),
    filters=(5, 3, 3), strides=(2, 2, 1), dense=10 the per-frame one.
    """

    def __init__(
        self,
        in_shape: tuple = (1, 16, 16),
        widths: tuple = (32, 64, 128),
        filters: tuple = (5, 3, 3),
        strides: tuple = (2, 2, 1),
        dense: int = 64,
        seed: int = 0,
        name: str = "score",
        dtype=np.float32,
    ):
        if not (len(widths) == len(filters) == len(strides)):
            raise ValueError("widths, filters, strides must have equal length")
        super().__init__(name, seed, dtype)
        self.in_shape = tuple(in_shape)
        self.filters = tuple(filters)
        self.strides = tuple(strides)
        self.pads = tuple(k // 2 for k in filters)
        c, h, w = in_shape
        chans = (c,) + tuple(widths)
        for i, (ci, co, k) in enumerate(zip(chans[:-1], chans[1:], filters)):
            self._gaussian(f"conv{i}.w", (co, ci, k, k), fan_in=ci * k * k)
            self._zeros(f"conv{i}.b", (co,))
            h = (h + 2 * self.pads[i] - k) // strides[i] + 1
            w = (w + 2 * self.pads[i] - k) // strides[i] + 1
            if h <= 0 or w <= 0:
                raise T.ShapeError(f"{name}: spatial size collapsed at conv{i}")
        self.flat = chans[-1] * h * w
        self._gaussian("fc0.w", (self.flat, dense), fan_in=self.flat)
        self._zeros("fc0.b", (dense,))
        self._gaussian("fc1.w", (dense, 1), fan_in=dense)
        self._zeros("fc1.b", (1,))

    def forward(self, x: Tensor) -> Tensor:
        h = x
        for i in range(len(self.filters)):
            h = T.conv2d(
                h,
                self.params[f"conv{i}.w"],
                self.params[f"conv{i}.b"],
                stride=self.strides[i],
                pad=self.pads[i],
            )
            h = T.leaky_relu(h, 0.2)
        h = h.reshape(h.shape[0], self.flat)
        h = T.leaky_relu(T.linear(h, self.params["fc0.w"], self.params["fc0.b"]), 0.2)
        out = T.linear(h, self.params["fc1.w"], self.params["fc1.b"])
        return out.reshape(out.shape[0])


class ZeroScorer(Scorer):
    """f(x) = 0 with no parameters.

    Under a zero score the energy reduces to the reference term alone, so
    Langevin dynamics must sample the reference Gaussian: the basis of the
    sampler stationarity check.
    """

    def __init__(self, name: str = "zero", dtype=np.float32):
        super().__init__(name, seed=0, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return Tensor(np.zeros(x.shape[0], dtype=x.dtype))

    def score_grad(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(x.shape[0], dtype=x.dtype), np.zeros_like(x)


class ScorerPair(Scorer):
    """Two scorers as one on a stacked batch [x; y]: ``first`` scores the
    first half of the rows and ``second`` the second, each bit for bit as
    on its own.

    It owns no parameters and reads the scorers' when it is built, so it is
    stale once either one loads new ones. Two ``PointScorer``s of one layout
    run as one closed form on weights stacked as (2, in, out); any other
    pair scores each half on its own and concatenates the results.
    """

    def __init__(self, first: Scorer, second: Scorer):
        super().__init__(f"{first.name}+{second.name}", seed=None, dtype=first.dtype)
        self.halves = (first, second)
        self._stacked = None
        layouts = [[(k, p.data.shape, p.data.dtype) for k, p in s.params.items()] for s in self.halves]
        if isinstance(first, PointScorer) and isinstance(second, PointScorer) and layouts[0] == layouts[1]:
            a, b, layers = first.params, second.params, range(first.depth)
            self._stacked = (
                [np.stack([a[f"w{i}"].data, b[f"w{i}"].data]) for i in layers],
                [np.stack([a[f"b{i}"].data, b[f"b{i}"].data])[:, None] for i in layers],
            )

    def _half(self, x: np.ndarray) -> int:
        """The number of rows in each half of a stacked batch."""
        if len(x) % 2:
            raise T.ShapeError(f"{self.name}: a stacked batch needs an even number of rows, got {len(x)}")
        return len(x) // 2

    def score_grad(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self._half(x)
        if self._stacked is None:
            (fx, gx), (fy, gy) = self.halves[0].score_grad(x[:n]), self.halves[1].score_grad(x[n:])
            return np.concatenate([fx, fy]), np.concatenate([gx, gy])
        scores, grad = _mlp_score_grad(x.reshape((2, n) + x.shape[1:]), *self._stacked)
        return scores.reshape(2 * n), grad.reshape(x.shape)

    def energy_values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        n = self._half(x)
        return np.concatenate([self.halves[0].energy_values(x[:n]), self.halves[1].energy_values(x[n:])])


# ---------------------------------------------------------------------------
# Translators
# ---------------------------------------------------------------------------


class PointTranslator(Net):
    """Residual MLP mapping point clouds between domains: (n, d) -> (n, d).

    ``in_shape`` is (d,). Each block adds a two-layer correction whose
    output layer starts at zero, so the map is the identity at initialization.
    """

    def __init__(self, dim: int = 2, hidden: int = 64, blocks: int = 2, seed: int = 0, name: str = "gen", dtype=np.float32):
        super().__init__(name, seed, dtype)
        self.in_shape = (dim,)
        self.blocks = blocks
        for i in range(blocks):
            self._gaussian(f"block{i}.w0", (dim, hidden), fan_in=dim)
            self._zeros(f"block{i}.b0", (hidden,))
            self._zeros(f"block{i}.w1", (hidden, dim))
            self._zeros(f"block{i}.b1", (dim,))

    def forward(self, x: Tensor) -> Tensor:
        h = x
        for i in range(self.blocks):
            inner = T.leaky_relu(T.linear(h, self.params[f"block{i}.w0"], self.params[f"block{i}.b0"]), 0.2)
            h = h + T.linear(inner, self.params[f"block{i}.w1"], self.params[f"block{i}.b1"])
        return h


class ImageTranslator(Net):
    """Residual encoder/decoder for NCHW images, identity at initialization.

    Layout: 7x7 stem, strided 3x3 downsample, ``blocks`` residual blocks,
    transposed 3x3 upsample, 7x7 output projection. The output projection
    and every residual block's second conv start at zero and the whole stack
    sits under a global input skip, so the initial map is exactly x -> x.
    Per-channel affines stand in for instance norm at batch size 1
    (statistics frozen at identity, learnable gain/bias kept). Passing
    base=64, blocks=9 reproduces the published translator layout.
    """

    def __init__(self, in_shape: tuple = (1, 16, 16), base: int = 16, blocks: int = 2, seed: int = 0, name: str = "gen", dtype=np.float32):
        c, h, w = in_shape
        if h % 2 or w % 2:
            raise T.ShapeError(f"{name}: spatial dims must be even for down/upsample, got {in_shape}")
        super().__init__(name, seed, dtype)
        self.in_shape = tuple(in_shape)
        self.base = base
        self.blocks = blocks
        self._gaussian("enc0.w", (base, c, 7, 7), fan_in=c * 49)
        self._zeros("enc0.b", (base,))
        self._ones("enc0.gain", (base,))
        self._zeros("enc0.bias", (base,))
        self._gaussian("enc1.w", (2 * base, base, 3, 3), fan_in=base * 9)
        self._zeros("enc1.b", (2 * base,))
        self._ones("enc1.gain", (2 * base,))
        self._zeros("enc1.bias", (2 * base,))
        for i in range(blocks):
            self._gaussian(f"res{i}.w0", (2 * base, 2 * base, 3, 3), fan_in=2 * base * 9)
            self._zeros(f"res{i}.b0", (2 * base,))
            self._ones(f"res{i}.gain0", (2 * base,))
            self._zeros(f"res{i}.bias0", (2 * base,))
            self._zeros(f"res{i}.w1", (2 * base, 2 * base, 3, 3))
            self._zeros(f"res{i}.b1", (2 * base,))
            self._ones(f"res{i}.gain1", (2 * base,))
            self._zeros(f"res{i}.bias1", (2 * base,))
        self._gaussian("dec0.w", (2 * base, base, 3, 3), fan_in=2 * base * 9)
        self._zeros("dec0.b", (base,))
        self._ones("dec0.gain", (base,))
        self._zeros("dec0.bias", (base,))
        self._zeros("dec1.w", (c, base, 7, 7))
        self._zeros("dec1.b", (c,))

    def _affine(self, h: Tensor, tag: str) -> Tensor:
        return T.channel_affine(h, self.params[f"{tag}.gain"], self.params[f"{tag}.bias"])

    def forward(self, x: Tensor) -> Tensor:
        p = self.params
        h = T.conv2d(x, p["enc0.w"], p["enc0.b"], stride=1, pad=3)
        h = T.leaky_relu(self._affine(h, "enc0"), 0.2)
        h = T.conv2d(h, p["enc1.w"], p["enc1.b"], stride=2, pad=1)
        h = T.leaky_relu(self._affine(h, "enc1"), 0.2)
        for i in range(self.blocks):
            inner = T.conv2d(h, p[f"res{i}.w0"], p[f"res{i}.b0"], stride=1, pad=1)
            inner = T.leaky_relu(
                T.channel_affine(inner, p[f"res{i}.gain0"], p[f"res{i}.bias0"]), 0.2
            )
            inner = T.conv2d(inner, p[f"res{i}.w1"], p[f"res{i}.b1"], stride=1, pad=1)
            inner = T.channel_affine(inner, p[f"res{i}.gain1"], p[f"res{i}.bias1"])
            h = h + inner
        h = T.conv2d_transpose(h, p["dec0.w"], p["dec0.b"], stride=2, pad=1, out_pad=1)
        h = T.leaky_relu(self._affine(h, "dec0"), 0.2)
        delta = T.conv2d(h, p["dec1.w"], p["dec1.b"], stride=1, pad=3)
        return x + delta


class TemporalPredictor(Net):
    """Predicts the next frame from the k previous ones.

    ``forward(past)`` takes each clip's k past frames, (n, k, C, H, W), and
    returns the last of them plus a correction of their (n, k*C, H, W)
    channel stack. The correction's output conv starts at zero, so the
    initial prediction is a frame hold.
    """

    def __init__(self, in_shape: tuple = (1, 16, 16), k: int = 2, base: int = 16, seed: int = 0, name: str = "pred", dtype=np.float32):
        super().__init__(name, seed, dtype)
        c = in_shape[0]
        self.in_shape = tuple(in_shape)
        self.k = int(k)
        self._gaussian("conv0.w", (base, k * c, 3, 3), fan_in=k * c * 9)
        self._zeros("conv0.b", (base,))
        self._gaussian("conv1.w", (base, base, 3, 3), fan_in=base * 9)
        self._zeros("conv1.b", (base,))
        self._zeros("conv2.w", (c, base, 3, 3))
        self._zeros("conv2.b", (c,))

    def forward(self, past: Tensor) -> Tensor:
        p = self.params
        k, c = self.k, self.in_shape[0]
        if past.ndim != 5 or past.shape[1:3] != (k, c):
            raise T.ShapeError(f"{self.name}: past frames must be (n, {k}, {c}, H, W), got shape {past.shape}")
        context = past.reshape((past.shape[0], k * c) + past.shape[3:])
        # narrowed ahead of the convolutions: tape order fixes the order of gradient sums
        last = T.narrow(context, 1, (k - 1) * c, c)
        h = T.leaky_relu(T.conv2d(context, p["conv0.w"], p["conv0.b"], stride=1, pad=1), 0.2)
        h = T.leaky_relu(T.conv2d(h, p["conv1.w"], p["conv1.b"], stride=1, pad=1), 0.2)
        delta = T.conv2d(h, p["conv2.w"], p["conv2.b"], stride=1, pad=1)
        return last + delta


# ---------------------------------------------------------------------------
# Factories keyed by data shape
# ---------------------------------------------------------------------------


def build_scorer(shape: tuple, seed: int | None, name: str) -> Scorer:
    """Scorer for samples of ``shape``: (d,) -> point MLP, (C,H,W) -> conv net."""
    if len(shape) == 1:
        return PointScorer(dim=shape[0], seed=seed, name=name)
    if len(shape) == 3:
        return ImageScorer(in_shape=shape, seed=seed, name=name)
    raise T.ShapeError(f"no scorer for sample shape {shape}")


def build_translator(shape: tuple, seed: int | None, name: str) -> Net:
    """Translator for samples of ``shape``; identity map at initialization."""
    if len(shape) == 1:
        return PointTranslator(dim=shape[0], seed=seed, name=name)
    if len(shape) == 3:
        return ImageTranslator(in_shape=shape, seed=seed, name=name)
    raise T.ShapeError(f"no translator for sample shape {shape}")
