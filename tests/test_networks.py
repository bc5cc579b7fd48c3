"""Network contracts: identity initialization, seeded determinism, energy
formula against a hand-rolled numpy oracle, and end-to-end gradient checks."""

import tracemalloc

import numpy as np
import pytest

from coopforge import tensor as T
from coopforge.networks import (
    ImageScorer,
    ImageTranslator,
    PointScorer,
    PointTranslator,
    Scorer,
    ScorerPair,
    TemporalPredictor,
    ZeroScorer,
    build_scorer,
    build_translator,
)
from coopforge.tensor import Tensor, grad_check
from util import assert_params_view_vector


class TestIdentityInit:
    def test_point_translator_is_identity(self):
        net = PointTranslator(dim=2, hidden=8, seed=3, name="g")
        x = Tensor(np.random.default_rng(0).normal(size=(7, 2)).astype(np.float32))
        np.testing.assert_array_equal(net.forward(x).data, x.data)

    def test_image_translator_is_identity(self):
        net = ImageTranslator(in_shape=(2, 8, 8), base=4, blocks=2, seed=1, name="g")
        x = Tensor(np.random.default_rng(1).normal(size=(2, 2, 8, 8)).astype(np.float32))
        np.testing.assert_array_equal(net.forward(x).data, x.data)

    def test_temporal_predictor_holds_last_frame(self):
        net = TemporalPredictor(in_shape=(1, 8, 8), k=2, base=4, seed=2, name="r")
        past = Tensor(np.random.default_rng(2).normal(size=(3, 2, 1, 8, 8)).astype(np.float32))
        np.testing.assert_array_equal(net.forward(past).data, past.data[:, -1])

    def test_image_translator_rejects_odd_sizes(self):
        with pytest.raises(T.ShapeError, match="even"):
            ImageTranslator(in_shape=(1, 15, 16))


class TestSeededInit:
    def test_same_seed_same_params(self):
        a = PointScorer(seed=5, name="s")
        b = PointScorer(seed=5, name="s")
        assert list(a.params) == list(b.params)
        assert a.vector.tobytes() == b.vector.tobytes()

    def test_name_separates_streams(self):
        a = PointScorer(seed=5, name="s_x")
        b = PointScorer(seed=5, name="s_y")
        assert not np.array_equal(a.params["w0"].data, b.params["w0"].data)

    def test_fan_in_scaling(self):
        net = PointScorer(dim=2, hidden=(512, 512), seed=0, name="s")
        # std ~ 1/sqrt(fan_in); wide layers make the sample std tight
        w1 = net.params["w1"].data
        assert w1.std() == pytest.approx(1.0 / np.sqrt(512), rel=0.15)

    def test_biases_zero(self):
        net = ImageScorer(seed=7, name="s")
        for k, p in net.params.items():
            if k.endswith(".b"):
                assert not p.data.any(), k


class TestParameterVector:
    NETS = {
        "point": lambda: PointScorer(hidden=(8, 8), seed=1, name="s"),
        "image": lambda: ImageTranslator(in_shape=(1, 8, 8), base=4, blocks=1, seed=1, name="g"),
        "temporal": lambda: TemporalPredictor(in_shape=(1, 8, 8), k=2, base=4, seed=1, name="r"),
    }

    @pytest.mark.parametrize("kind", NETS)
    def test_first_read_packs_the_parameters_in_order(self, kind):
        net = self.NETS[kind]()
        before = [p.data.copy() for p in net.params.values()]
        assert net.vector.dtype == np.float32
        assert net.vector.tobytes() == b"".join(a.tobytes() for a in before)
        assert_params_view_vector(net)
        assert net.vector is net.vector

    def test_load_rejects_another_length_or_dtype(self):
        net = PointTranslator(dim=2, hidden=4, blocks=1, seed=0, name="g_xy")
        kept = net.vector
        for bad in (np.zeros(kept.size + 1, np.float32), np.zeros(kept.size, np.float64), np.zeros((1, kept.size), np.float32)):
            with pytest.raises(ValueError, match=rf"g_xy: got a {bad.dtype} vector of shape \({bad.shape[0]},"):
                net.load(bad)
        assert net.vector is kept
        assert_params_view_vector(net)

    def test_zero_scorer_vector_is_empty(self):
        vector = ZeroScorer().vector
        assert vector.shape == (0,) and vector.dtype == np.float32


class TestEnergyModel:
    def test_formula_against_numpy_oracle(self):
        # Replicate the MLP forward with raw numpy and assemble the energy
        # by hand; the scorer must agree to float32 precision.
        net = PointScorer(dim=2, hidden=(8, 8), seed=11, name="s", dtype=np.float64)
        x = np.random.default_rng(3).normal(size=(6, 2))

        def lrelu(v):
            return np.where(v >= 0, v, 0.2 * v)

        p = {k: t.data for k, t in net.params.items()}
        h = lrelu(x @ p["w0"] + p["b0"])
        h = lrelu(h @ p["w1"] + p["b1"])
        f = (h @ p["w2"] + p["b2"]).reshape(-1)
        expected = -f + (x**2).sum(axis=1) / 2
        np.testing.assert_allclose(net.energy_values(x), expected, rtol=1e-12)

    def test_zero_scorer_energy_is_pure_reference(self):
        x = np.random.default_rng(4).normal(size=(5, 3)).astype(np.float32)
        np.testing.assert_allclose(ZeroScorer().energy_values(x), (x**2).sum(axis=1) / 2, rtol=1e-6)

    def test_energy_sum_matches_each(self):
        net = PointScorer(dim=2, hidden=(4,), seed=12, name="s")
        x = Tensor(np.random.default_rng(5).normal(size=(4, 2)).astype(np.float32))
        total = net.energy_sum(x).item()
        assert total == pytest.approx(float(net.energy_each(x).data.sum()), rel=1e-6)

    def test_image_scorer_shape(self):
        net = ImageScorer(in_shape=(1, 16, 16), seed=0, name="s")
        x = Tensor(np.zeros((3, 1, 16, 16), dtype=np.float32))
        assert net.forward(x).shape == (3,)


def _tape_input_grad(fn, x: np.ndarray) -> np.ndarray:
    leaf = Tensor(x, requires_grad=True)
    with T.Graph() as g:
        total = fn(leaf)
    return T.backward(g, total, {"x": leaf})["x"]


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestInputGradients:
    """Closed-form input gradients equal the tape's, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 5, 7])
    @pytest.mark.parametrize("hidden", [(), (5, 4), (128, 128)])
    def test_point_scorer_matches_tape(self, hidden, n, dtype):
        net = PointScorer(dim=2, hidden=hidden, seed=31, name="s", dtype=dtype)
        rng = np.random.default_rng(10)
        for p in net.params.values():  # nonzero biases, both leaky-ReLU regions
            p.data += (0.3 * rng.standard_normal(p.shape)).astype(dtype)
        net.params[f"w{net.depth - 1}"].data[0, 0] = -0.0  # the tape's BLAS sums make it +0.0
        x = (2.0 * rng.standard_normal((n, 2))).astype(dtype)
        tape = _tape_input_grad(lambda t: net.forward(t).sum(), x)
        scores, grad = net.score_grad(x)
        assert _bitwise_equal(scores, net.forward(Tensor(x)).data)
        assert _bitwise_equal(grad, tape)

    def test_zero_scorer_is_zero(self):
        x = np.random.default_rng(11).normal(size=(3, 1, 4, 4)).astype(np.float32)
        scores, grad = ZeroScorer().score_grad(x)
        assert _bitwise_equal(scores, np.zeros(3, dtype=np.float32))
        assert _bitwise_equal(grad, np.zeros_like(x))

    @pytest.mark.parametrize(
        "make, shape",
        [
            (lambda dt: PointScorer(dim=2, hidden=(8, 8), seed=32, name="s", dtype=dt), (6, 2)),
            (lambda dt: ImageScorer(in_shape=(1, 8, 8), widths=(2, 3), filters=(3, 3), strides=(2, 1),
                                    dense=4, seed=33, name="s", dtype=dt), (2, 1, 8, 8)),
            (lambda dt: ZeroScorer(dtype=dt), (4, 3)),
        ],
        ids=["point", "image", "zero"],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_energy_grad_matches_tape_of_energy_sum(self, make, shape, dtype):
        scorer = make(dtype)
        x = np.random.default_rng(12).normal(size=shape).astype(dtype)
        assert _bitwise_equal(scorer.energy_grad(x)[1], _tape_input_grad(scorer.energy_sum, x))


class TestScorerPair:
    """A pair scores its stacked batch [x; y] as its two scorers alone, byte for byte."""

    @staticmethod
    def _point(hidden, dtype, seed):
        net = PointScorer(dim=2, hidden=hidden, seed=seed, name=f"s{seed}", dtype=dtype)
        rng = np.random.default_rng(seed)
        for p in net.params.values():  # nonzero biases, both leaky-ReLU regions
            p.data += (0.3 * rng.standard_normal(p.shape)).astype(dtype)
        last = net.params[f"w{net.depth - 1}"].data
        last[0, 0] = -0.0  # turned +0.0 by the depth-1 sum and the backward's BLAS products
        if net.depth > 1:
            net.params["w0"].data[:, 1] = -0.0  # a unit whose pre-activations are signed zeros
            net.params["b0"].data[1] = -0.0
        return net

    @staticmethod
    def _assert_pair_is_each_alone(pair, x, y):
        first, second = pair.halves
        (fx, gx), (fy, gy) = first.score_grad(x), second.score_grad(y)
        scores, grad = pair.score_grad(np.concatenate([x, y]))
        assert _bitwise_equal(scores, np.concatenate([fx, fy]))
        assert _bitwise_equal(grad, np.concatenate([gx, gy]))
        energies = pair.energy_values(np.concatenate([x, y]))
        assert _bitwise_equal(energies, np.concatenate([first.energy_values(x), second.energy_values(y)]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 3, 200])
    @pytest.mark.parametrize("hidden", [(), (128,), (128, 128)], ids=["depth1", "depth2", "depth3"])
    def test_point_pair_is_one_stacked_closed_form(self, hidden, n, dtype):
        pair = ScorerPair(self._point(hidden, dtype, 51), self._point(hidden, dtype, 52))
        assert pair._stacked is not None and not pair.params
        rng = np.random.default_rng(53)
        x, y = ((2.0 * rng.standard_normal((n, 2))).astype(dtype) for _ in range(2))
        self._assert_pair_is_each_alone(pair, x, y)

    @pytest.mark.parametrize(
        "make, shape",
        [
            (lambda s: ImageScorer(in_shape=(1, 16, 16), seed=s, name=f"s{s}"), (3, 1, 16, 16)),
            (lambda s: PointScorer(dim=2, hidden=(8, 8 + s % 2), seed=s, name=f"s{s}"), (3, 2)),
            (lambda s: ZeroScorer() if s % 2 else PointScorer(dim=2, hidden=(8,), seed=s, name="s"), (3, 2)),
        ],
        ids=["image", "point-other-widths", "point-and-zero"],
    )
    def test_other_pairs_concatenate_each_half(self, make, shape):
        pair = ScorerPair(make(54), make(55))
        assert pair._stacked is None
        rng = np.random.default_rng(56)
        x, y = (rng.normal(size=shape).astype(np.float32) for _ in range(2))
        self._assert_pair_is_each_alone(pair, x, y)

    def test_odd_batch_is_refused(self):
        pair = ScorerPair(PointScorer(seed=1, name="a"), PointScorer(seed=2, name="b"))
        with pytest.raises(T.ShapeError, match="a\\+b: a stacked batch needs an even number of rows, got 3"):
            pair.score_grad(np.zeros((3, 2), np.float32))


def _select_leaky_relu(a, slope=0.2):
    """The select-on-sign activation that the branch-free kernels replaced."""
    mask = a.data >= 0
    out = Tensor(np.where(mask, a.data, slope * a.data))
    return T._record("leaky_relu", (a,), out, lambda g: (np.where(mask, g, slope * g),))


class TestActivationKernel:
    """Networks at the dot recipe's shapes give the select's bits, forward and backward."""

    def test_image_scorer_input_grad(self, monkeypatch):
        net = ImageScorer(in_shape=(1, 16, 16), seed=41, name="ebm_y")
        x = np.random.default_rng(41).normal(size=(12, 1, 16, 16)).astype(np.float32)
        branch_free = net.score_grad(x)[1]
        monkeypatch.setattr(T, "leaky_relu", _select_leaky_relu)
        assert _bitwise_equal(branch_free, net.score_grad(x)[1])

    def test_image_translator_parameter_grads(self, monkeypatch):
        net = ImageTranslator(in_shape=(1, 16, 16), seed=42, name="g_xy")
        rng = np.random.default_rng(42)
        net.load(net.vector + (0.1 * rng.standard_normal(net.vector.shape)).astype(np.float32))
        x = Tensor(rng.uniform(size=(3, 1, 16, 16)).astype(np.float32))
        target = rng.uniform(size=(3, 1, 16, 16)).astype(np.float32)

        def grads():
            with T.Graph() as g:
                loss = T.sub(net.forward(x), target).square().sum()
            return T.backward(g, loss, net.params)

        branch_free = grads()
        monkeypatch.setattr(T, "leaky_relu", _select_leaky_relu)
        select = grads()
        assert all(_bitwise_equal(branch_free[k], select[k]) for k in net.params)


class TestGradientsThroughNetworks:
    """grad_check at float64 on miniature instances of each architecture."""

    def test_point_scorer_energy(self):
        net = PointScorer(dim=2, hidden=(5, 4), seed=21, name="s", dtype=np.float64)
        x = Tensor(np.random.default_rng(6).normal(size=(3, 2)))
        report = grad_check(net.params, lambda: net.energy_sum(x))
        assert report.max_rel_error < 1e-4, report

    def test_image_scorer_energy(self):
        net = ImageScorer(
            in_shape=(1, 8, 8), widths=(2, 3), filters=(3, 3), strides=(2, 2), dense=4,
            seed=22, name="s", dtype=np.float64,
        )
        x = Tensor(np.random.default_rng(7).normal(size=(2, 1, 8, 8)))
        report = grad_check(net.params, lambda: net.energy_sum(x))
        assert report.max_rel_error < 1e-4, report

    def test_point_translator_loss(self):
        net = PointTranslator(dim=2, hidden=6, blocks=2, seed=23, name="g", dtype=np.float64)
        # Perturb away from identity so zero-init layers get nonzero grads
        for p in net.params.values():
            p.data += np.random.default_rng(8).normal(size=p.data.shape) * 0.1
        x = Tensor(np.random.default_rng(9).normal(size=(4, 2)))
        tgt = np.random.default_rng(10).normal(size=(4, 2))
        report = grad_check(net.params, lambda: T.sub(net.forward(x), tgt).square().sum())
        assert report.max_rel_error < 1e-4, report

    def test_image_translator_loss(self):
        net = ImageTranslator(in_shape=(1, 4, 4), base=2, blocks=1, seed=24, name="g", dtype=np.float64)
        for p in net.params.values():
            p.data += np.random.default_rng(11).normal(size=p.data.shape) * 0.1
        x = Tensor(np.random.default_rng(12).normal(size=(2, 1, 4, 4)))
        tgt = np.random.default_rng(13).normal(size=(2, 1, 4, 4))
        # step small enough that bias perturbations cannot push any
        # pre-activation across the leaky_relu kink
        report = grad_check(net.params, lambda: T.sub(net.forward(x), tgt).square().sum(), step=1e-5)
        assert report.max_rel_error < 1e-4, report

    def test_temporal_predictor_loss(self):
        net = TemporalPredictor(in_shape=(1, 4, 4), k=2, base=2, seed=25, name="r", dtype=np.float64)
        for p in net.params.values():
            p.data += np.random.default_rng(14).normal(size=p.data.shape) * 0.1
        rng_ = np.random.default_rng(15)
        past = Tensor(rng_.normal(size=(2, 2, 1, 4, 4)))
        tgt = rng_.normal(size=(2, 1, 4, 4))
        report = grad_check(
            net.params, lambda: T.sub(net.forward(past), tgt).square().sum(), step=1e-5
        )
        assert report.max_rel_error < 1e-4, report


class TestFactoriesAndScale:
    def test_build_by_shape(self):
        for build, shape, cls in (
            (build_scorer, (2,), PointScorer),
            (build_scorer, (1, 16, 16), ImageScorer),
            (build_translator, (2,), PointTranslator),
            (build_translator, (3, 16, 16), ImageTranslator),
        ):
            net = build(shape, 0, "n")
            assert isinstance(net, cls) and net.in_shape == shape
            # scorers are the energy models; translators have no energy
            assert isinstance(net, Scorer) == (build is build_scorer)
        with pytest.raises(T.ShapeError):
            build_scorer((2, 2), 0, "s")

    def test_published_scale_constructs(self):
        # Still-image scorer: four convs 64/128/256/512, filters 3/4/4/4,
        # strides 1/2/2/2, 100-unit head; translator: 9 residual blocks at
        # base 64; per-frame scorer: 64/128/256 with filters 5/3/3.
        s = ImageScorer(
            in_shape=(3, 32, 32), widths=(64, 128, 256, 512),
            filters=(3, 4, 4, 4), strides=(1, 2, 2, 2), dense=100,
            seed=0, name="s",
        )
        g = ImageTranslator(in_shape=(3, 32, 32), base=64, blocks=9, seed=0, name="g")
        fs = ImageScorer(
            in_shape=(3, 32, 32), widths=(64, 128, 256),
            filters=(5, 3, 3), strides=(2, 2, 1), dense=10,
            seed=0, name="fs",
        )
        x = Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
        assert s.forward(x).shape == (1,)
        assert fs.forward(x).shape == (1,)
        np.testing.assert_array_equal(g.forward(x).data, x.data)

    def test_temporal_predictor_channel_check(self):
        net = TemporalPredictor(in_shape=(1, 8, 8), k=2, seed=0, name="r")
        # a wrong k, a wrong C, and channel-stacked context instead of frames
        for shape in ((1, 3, 1, 8, 8), (1, 2, 2, 8, 8), (1, 2, 8, 8)):
            with pytest.raises(T.ShapeError, match=r"past frames must be \(n, 2, 1, H, W\)"):
                net.forward(Tensor(np.zeros(shape, dtype=np.float32)))


class TestForwardMemory:
    def test_eval_translator_forward_on_eval_batch(self):
        # An eval-mode forward builds no column matrix for the whole batch: the
        # translator's 16 -> 1 output projection alone would copy 30,720 x 784
        # floats (96 MB) at 120 frames.
        net = build_translator((1, 16, 16), 0, "g_xy")
        x = Tensor(np.random.default_rng(7).uniform(size=(120, 1, 16, 16)).astype(np.float32))
        tracemalloc.start()
        try:
            net.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MiB"
