"""Loss contracts: closed-form examples, naive loop oracles, antisymmetry
and symmetry properties, and finite-difference gradient checks."""

import numpy as np
import pytest

from coopforge import tensor as T
from coopforge.networks import (
    PointScorer,
    PointTranslator,
    Scorer,
    TemporalPredictor,
)
from coopforge.objectives import (
    LossWeights,
    clip_frames,
    combine_sequence_losses,
    cycle_loss,
    ebm_grad,
    image_objective,
    sequence_objective,
    spatiotemporal_loss,
    teach_loss,
    temporal_loss,
)
from coopforge.tensor import Tensor, grad_check, numeric_grad
from util import AddConstant, round_trip_loss


class LinearScorer(Scorer):
    """f(x; theta) = x . theta, so df/dtheta = x."""

    def __init__(self, dim: int, dtype=np.float64):
        super().__init__("linear", seed=0, dtype=dtype)
        self._zeros("theta", (dim, 1))

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.params["theta"]
        return out.reshape(out.shape[0])


class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.lambda_cyc, w.lambda1, w.lambda2) == (9.0, 9.0, 9.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="lambda1"):
            LossWeights(lambda1=-0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["lambda_cyc", "lambda1", "lambda2"])
    def test_non_finite_rejected(self, field, value):
        # a nan weight fails every `> 0` test and would silently drop its term
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LossWeights(**{field: value})


class TestEbmGrad:
    def test_linear_energy_closed_form(self):
        # f = theta.x with data {1, 3} and synth {0, 2}: the gradient is
        # mean(data) - mean(synth) = 2 - 1 = 1.
        grads = ebm_grad(LinearScorer(1), np.array([[1.0], [3.0]]), np.array([[0.0], [2.0]]))
        assert grads["theta"].reshape(()) == 1.0

    def test_identical_batches_zero(self):
        net = PointScorer(dim=2, hidden=(8,), seed=1, name="s")
        batch = np.random.default_rng(0).normal(size=(4, 2)).astype(np.float32)
        grads = ebm_grad(net, batch, batch)
        for k, g in grads.items():
            assert not g.any(), k

    def test_antisymmetry_exact(self):
        net = PointScorer(dim=2, hidden=(8,), seed=2, name="s")
        rng_ = np.random.default_rng(1)
        a = rng_.normal(size=(3, 2)).astype(np.float32)
        b = rng_.normal(size=(5, 2)).astype(np.float32)
        fwd = ebm_grad(net, a, b)
        rev = ebm_grad(net, b, a)
        for k in fwd:
            np.testing.assert_array_equal(fwd[k], -rev[k])

    def test_matches_finite_differences(self):
        net = PointScorer(dim=2, hidden=(6, 5), seed=3, name="s", dtype=np.float64)
        rng_ = np.random.default_rng(2)
        data = rng_.normal(size=(4, 2))
        synth = rng_.normal(size=(3, 2))
        grads = ebm_grad(net, data, synth)

        def objective():
            d = net.forward(Tensor(data)).data.mean()
            s = net.forward(Tensor(synth)).data.mean()
            return d - s

        for name, p in net.params.items():
            num = numeric_grad(objective, p.data, step=1e-5)
            rel = np.abs(grads[name] - num) / np.maximum.reduce(
                [np.abs(grads[name]), np.abs(num), np.full_like(num, 1e-6)]
            )
            assert rel.max() < 1e-4, name

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ebm_grad(LinearScorer(1), np.zeros((0, 1)), np.ones((2, 1)))


class TestTeachLoss:
    def test_exact_fit_zero(self):
        g = PointTranslator(dim=2, seed=5, name="g")  # identity at init
        batch = np.random.default_rng(4).normal(size=(4, 2)).astype(np.float32)
        assert teach_loss(g.forward(Tensor(batch)), batch).item() == 0.0

    def test_unit_offset_gives_dimension(self):
        # G(y) - target = 1 in every coordinate -> squared norm = D.
        g = AddConstant(1.0)
        y = np.zeros((1, 7), dtype=np.float32)
        assert teach_loss(g.forward(Tensor(y)), np.zeros_like(y)).item() == 7.0

    def test_matches_naive_loop(self):
        g = PointTranslator(dim=2, hidden=8, seed=6, name="g")
        for p in g.params.values():
            p.data += np.random.default_rng(5).normal(size=p.data.shape).astype(np.float32) * 0.3
        rng_ = np.random.default_rng(6)
        src = rng_.normal(size=(5, 2)).astype(np.float32)
        tgt = rng_.normal(size=(5, 2)).astype(np.float32)
        total = 0.0
        for i in range(5):
            out_i = g.forward(Tensor(src[i : i + 1])).data[0]
            total += float(((tgt[i] - out_i) ** 2).sum())
        expected = total / 5
        assert teach_loss(g.forward(Tensor(src)), tgt).item() == pytest.approx(expected, rel=1e-6)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal"):
            teach_loss(np.zeros((3, 2)), np.zeros((2, 2)))

    def test_targets_receive_no_gradient(self):
        g = PointTranslator(dim=2, seed=7, name="g")
        src = np.zeros((2, 2), dtype=np.float32)
        tgt = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        with T.Graph() as graph:
            loss = teach_loss(g.forward(Tensor(src)), tgt)
        assert not T.backward(graph, loss, {"tgt": tgt})["tgt"].any()

    def test_gradient_matches_fd(self):
        g = PointTranslator(dim=2, hidden=5, blocks=1, seed=8, name="g", dtype=np.float64)
        for p in g.params.values():
            p.data += np.random.default_rng(7).normal(size=p.data.shape) * 0.2
        src = np.random.default_rng(8).normal(size=(3, 2))
        tgt = np.random.default_rng(9).normal(size=(3, 2))
        report = grad_check(g.params, lambda: teach_loss(g.forward(Tensor(src)), tgt), step=1e-5)
        assert report.max_rel_error < 1e-4, report


class TestCycleLoss:
    def test_identity_translators_zero(self):
        g1 = PointTranslator(dim=2, seed=9, name="gxy")
        g2 = PointTranslator(dim=2, seed=10, name="gyx")
        rng_ = np.random.default_rng(10)
        x = rng_.normal(size=(4, 2)).astype(np.float32)
        y = rng_.normal(size=(3, 2)).astype(np.float32)
        assert round_trip_loss(g1, g2, x, y).item() == 0.0

    def test_exact_inverses_zero(self):
        # dyadic inputs so (x + 1) - 1 round-trips without rounding residue
        plus, minus = AddConstant(1.0), AddConstant(-1.0)
        x = np.array([[0.5, -0.25, 1.75, 0.0, 2.0]], dtype=np.float32)
        y = np.array([[1.25, -0.5, 0.75, -2.0, 0.5]], dtype=np.float32)
        assert round_trip_loss(plus, minus, x, y).item() == 0.0

    def test_one_sided_offset_gives_2d(self):
        # Forward adds 1, backward is identity: each direction contributes
        # an L1 of D on a single example, total 2D.
        plus, ident = AddConstant(1.0), AddConstant(0.0)
        x = np.zeros((1, 6), dtype=np.float32)
        y = np.zeros((1, 6), dtype=np.float32)
        assert round_trip_loss(plus, ident, x, y).item() == 12.0

    def test_swap_symmetry_exact(self):
        g1 = PointTranslator(dim=2, hidden=6, seed=13, name="gxy")
        g2 = PointTranslator(dim=2, hidden=6, seed=14, name="gyx")
        for g, s in ((g1, 15), (g2, 16)):
            for p in g.params.values():
                p.data += np.random.default_rng(s).normal(size=p.data.shape).astype(np.float32) * 0.2
        x = np.random.default_rng(17).normal(size=(3, 2)).astype(np.float32)
        y = np.random.default_rng(18).normal(size=(4, 2)).astype(np.float32)
        assert round_trip_loss(g1, g2, x, y).item() == round_trip_loss(g2, g1, y, x).item()

    def test_nonnegative_and_zero_only_at_inverses(self):
        plus, shifted = AddConstant(1.0), AddConstant(-0.5)
        x = np.zeros((1, 4), dtype=np.float32)
        val = round_trip_loss(plus, shifted, x, x).item()
        assert val > 0

    def test_empty_rejected(self):
        g = AddConstant(0.0)
        with pytest.raises(ValueError, match="non-empty"):
            cycle_loss(g, g, np.zeros((0, 2)), np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((0, 2)))

    def test_gradient_matches_fd(self):
        g1 = PointTranslator(dim=2, hidden=4, blocks=1, seed=19, name="gxy", dtype=np.float64)
        g2 = PointTranslator(dim=2, hidden=4, blocks=1, seed=20, name="gyx", dtype=np.float64)
        for g, s in ((g1, 21), (g2, 22)):
            for p in g.params.values():
                p.data += np.random.default_rng(s).normal(size=p.data.shape) * 0.2
        x = np.random.default_rng(23).normal(size=(2, 2))
        y = np.random.default_rng(24).normal(size=(2, 2))
        params = {f"a.{k}": v for k, v in g1.params.items()}
        params.update({f"b.{k}": v for k, v in g2.params.items()})
        report = grad_check(params, lambda: round_trip_loss(g1, g2, x, y), step=1e-5)
        assert report.max_rel_error < 1e-4, report


def _random_clips(rng_, n, k, shape=(1, 8, 8)):
    return rng_.normal(size=(n, k + 1) + shape).astype(np.float32)


def _translate_clips(g, clips):
    """G of every frame of (n, k+1, C, H, W) clips, in clip order."""
    return g.forward(Tensor(clip_frames(clips)))


class TestTemporalLoss:
    def test_frame_hold_on_constant_clips_zero(self):
        r = TemporalPredictor(in_shape=(1, 8, 8), k=2, base=4, seed=25, name="r")
        clip = np.ones((3, 3, 1, 8, 8), dtype=np.float32) * 0.7
        assert temporal_loss(r, clip).item() == 0.0

    def test_matches_naive_loop(self):
        r = TemporalPredictor(in_shape=(1, 8, 8), k=2, base=4, seed=26, name="r")
        for p in r.params.values():
            p.data += np.random.default_rng(27).normal(size=p.data.shape).astype(np.float32) * 0.1
        clips = _random_clips(np.random.default_rng(28), n=4, k=2)
        total = 0.0
        for i in range(4):
            pred = r.forward(Tensor(clips[i, :2][None])).data[0]
            total += float(np.abs(clips[i, 2] - pred).sum())
        assert temporal_loss(r, clips).item() == pytest.approx(total / 4, rel=1e-5)

    def test_short_clip_rejected(self):
        r = TemporalPredictor(in_shape=(1, 8, 8), k=2, seed=29, name="r")
        with pytest.raises(ValueError, match="k"):
            temporal_loss(r, np.zeros((2, 2, 1, 8, 8), dtype=np.float32))

    def test_bad_rank_rejected(self):
        r = TemporalPredictor(in_shape=(1, 8, 8), k=2, seed=30, name="r")
        with pytest.raises(T.ShapeError):
            temporal_loss(r, np.zeros((2, 3, 8, 8), dtype=np.float32))


class TestSpatiotemporalLoss:
    def test_identity_nets_constant_clips_zero(self):
        g1 = PointTranslator(dim=2, seed=31, name="gxy")  # unused direction
        del g1
        gi = lambda s, nm: __import__("coopforge.networks", fromlist=["ImageTranslator"]).ImageTranslator(
            in_shape=(1, 8, 8), base=2, blocks=1, seed=s, name=nm
        )
        g_fwd, g_back = gi(32, "gxy"), gi(33, "gyx")
        r = TemporalPredictor(in_shape=(1, 8, 8), k=2, base=2, seed=34, name="r")
        clips = np.full((2, 3, 1, 8, 8), 0.3, dtype=np.float32)
        assert spatiotemporal_loss(_translate_clips(g_fwd, clips), r, g_back, clips).item() == 0.0

    def test_matches_naive_loop(self):
        from coopforge.networks import ImageTranslator

        g_fwd = ImageTranslator(in_shape=(1, 8, 8), base=2, blocks=1, seed=35, name="gxy")
        g_back = ImageTranslator(in_shape=(1, 8, 8), base=2, blocks=1, seed=36, name="gyx")
        r = TemporalPredictor(in_shape=(1, 8, 8), k=2, base=2, seed=37, name="r")
        for net, s in ((g_fwd, 38), (g_back, 39), (r, 40)):
            for p in net.params.values():
                p.data += np.random.default_rng(s).normal(size=p.data.shape).astype(np.float32) * 0.05
        clips = _random_clips(np.random.default_rng(41), n=3, k=2)
        total = 0.0
        for i in range(3):
            moved = [g_fwd.forward(Tensor(clips[i, t][None])).data[0] for t in range(2)]
            pred = r.forward(Tensor(np.stack(moved)[None]))
            back = g_back.forward(pred).data[0]
            total += float(np.abs(clips[i, 2] - back).sum())
        got = spatiotemporal_loss(_translate_clips(g_fwd, clips), r, g_back, clips).item()
        assert got == pytest.approx(total / 3, rel=1e-4)

    def test_short_clip_rejected(self):
        from coopforge.networks import ImageTranslator

        g = ImageTranslator(in_shape=(1, 8, 8), base=2, blocks=1, seed=42, name="g")
        r = TemporalPredictor(in_shape=(1, 8, 8), k=2, seed=43, name="r")
        with pytest.raises(ValueError, match="k"):
            moved = np.zeros((2, 1, 8, 8), dtype=np.float32)
            spatiotemporal_loss(moved, r, g, np.zeros((1, 2, 1, 8, 8), dtype=np.float32))

    def test_translation_count_must_match_clips(self):
        from coopforge.networks import ImageTranslator

        g = ImageTranslator(in_shape=(1, 8, 8), base=2, blocks=1, seed=42, name="g")
        r = TemporalPredictor(in_shape=(1, 8, 8), k=2, seed=43, name="r")
        clips = np.zeros((2, 3, 1, 8, 8), dtype=np.float32)
        with pytest.raises(T.ShapeError, match="6 translated frames"):
            spatiotemporal_loss(np.zeros((3, 1, 8, 8), dtype=np.float32), r, g, clips)


class TestSequenceObjective:
    def test_weighted_sum_arithmetic(self):
        # All six components 1 with both lambdas 9: 1+1+9*2+9*2 = 38.
        one = Tensor(np.float32(1.0))
        total = combine_sequence_losses(one, one, one, one, one, one, LossWeights())
        assert total.item() == 38.0

    def test_all_zero_components(self):
        zero = Tensor(np.float32(0.0))
        total = combine_sequence_losses(zero, zero, zero, zero, zero, zero, LossWeights())
        assert total.item() == 0.0

    @staticmethod
    def _miniature():
        """Perturbed translators and predictors on 8x8 frames, two 3-frame
        clips per domain, their recorded translations and random targets."""
        from coopforge.networks import ImageTranslator

        shape = (1, 8, 8)
        g_xy = ImageTranslator(in_shape=shape, base=2, blocks=1, seed=44, name="gxy")
        g_yx = ImageTranslator(in_shape=shape, base=2, blocks=1, seed=45, name="gyx")
        r_x = TemporalPredictor(in_shape=shape, k=2, base=2, seed=46, name="rx")
        r_y = TemporalPredictor(in_shape=shape, k=2, base=2, seed=47, name="ry")
        for net, s in ((g_xy, 48), (g_yx, 49), (r_x, 50), (r_y, 51)):
            for p in net.params.values():
                p.data += np.random.default_rng(s).normal(size=p.data.shape).astype(np.float32) * 0.05
        rng_ = np.random.default_rng(52)
        x_clips, y_clips = _random_clips(rng_, 2, 2), _random_clips(rng_, 2, 2)
        frames = lambda n: rng_.normal(size=(n,) + shape).astype(np.float32)
        x_moved, x_targets = _translate_clips(g_yx, y_clips), frames(6)
        y_moved, y_targets = _translate_clips(g_xy, x_clips), frames(6)
        return g_xy, g_yx, r_x, r_y, x_clips, y_clips, x_moved, y_moved, x_targets, y_targets

    @staticmethod
    def _components(g_xy, g_yx, r_x, r_y, x_clips, y_clips, x_moved, y_moved, x_targets, y_targets, w):
        return combine_sequence_losses(
            teach_loss(x_moved, x_targets),
            teach_loss(y_moved, y_targets),
            temporal_loss(r_x, x_clips),
            temporal_loss(r_y, y_clips),
            spatiotemporal_loss(y_moved, r_y, g_yx, x_clips),
            spatiotemporal_loss(x_moved, r_x, g_xy, y_clips),
            w,
        )

    def test_matches_component_recomputation(self):
        # with no cycle weight: exactly the six weighted components
        mini = self._miniature()
        w = LossWeights(lambda_cyc=0.0, lambda1=9.0, lambda2=9.0)
        assert sequence_objective(*mini, w).item() == self._components(*mini, w).item()

    def test_adds_weighted_cycle_term_last(self):
        # a positive cycle weight adds lambda_cyc * cycle over the clips' frames
        # after the six components: same ops, same order, same value
        mini = self._miniature()
        g_xy, g_yx, _, _, x_clips, y_clips, x_moved, y_moved, _, _ = mini
        w = LossWeights(lambda_cyc=9.0, lambda1=9.0, lambda2=9.0)
        frames = lambda clips: clips.reshape((-1,) + clips.shape[2:])
        cycle = cycle_loss(g_xy, g_yx, frames(x_clips), frames(y_clips), x_moved, y_moved)
        assert sequence_objective(*mini, w).item() == (self._components(*mini, w) + 9.0 * cycle).item()

    def test_gradients_reach_all_four_nets(self):
        shape = (1, 4, 4)
        from coopforge.networks import ImageTranslator

        g_xy = ImageTranslator(in_shape=shape, base=2, blocks=1, seed=53, name="gxy")
        g_yx = ImageTranslator(in_shape=shape, base=2, blocks=1, seed=54, name="gyx")
        r_x = TemporalPredictor(in_shape=shape, k=2, base=2, seed=55, name="rx")
        r_y = TemporalPredictor(in_shape=shape, k=2, base=2, seed=56, name="ry")
        rng_ = np.random.default_rng(57)
        for net in (g_xy, g_yx, r_x, r_y):
            for p in net.params.values():
                p.data += rng_.normal(size=p.data.shape).astype(np.float32) * 0.05
        x_clips = rng_.normal(size=(1, 3) + shape).astype(np.float32)
        y_clips = rng_.normal(size=(1, 3) + shape).astype(np.float32)
        frames = lambda n: rng_.normal(size=(n,) + shape).astype(np.float32)
        with T.Graph() as g:
            x_moved, x_targets = _translate_clips(g_yx, y_clips), frames(3)
            y_moved, y_targets = _translate_clips(g_xy, x_clips), frames(3)
            total = sequence_objective(
                g_xy, g_yx, r_x, r_y, x_clips, y_clips, x_moved, y_moved, x_targets, y_targets, LossWeights()
            )
        for net in (g_xy, g_yx, r_x, r_y):
            got = sum(float(np.abs(grad).sum()) for grad in T.backward(g, total, net.params).values())
            assert got > 0, net.name


def _eval(g, batch) -> np.ndarray:
    return g.forward(Tensor(np.ascontiguousarray(batch))).data


def _image_objective_separate_forwards(g_xy, g_yx, x, y, x_targets, y_targets, w) -> float:
    """The image objective with its own translator forward for every term."""
    teach = ((x_targets - _eval(g_yx, y)) ** 2).sum() / len(y) + ((y_targets - _eval(g_xy, x)) ** 2).sum() / len(x)
    cycle = np.abs(x - _eval(g_yx, _eval(g_xy, x))).sum() / len(x)
    cycle += np.abs(y - _eval(g_xy, _eval(g_yx, y))).sum() / len(y)
    return teach + w.lambda_cyc * cycle


def _spatiotemporal_frame_by_frame(g_fwd, r, g_back, clips) -> float:
    moved = [_eval(g_fwd, clips[:, t]) for t in range(r.k)]  # one forward per past frame
    pred = r.forward(Tensor(np.stack(moved, axis=1))).data
    return np.abs(clips[:, r.k] - _eval(g_back, pred)).sum() / len(clips)


def _sequence_objective_separate_forwards(g_xy, g_yx, r_x, r_y, x_clips, y_clips, x_targets, y_targets, w) -> float:
    """The sequence objective with separate forwards for teaching, for each
    past frame and for each leg of the cycle term."""
    x, y = x_clips.reshape((-1,) + x_clips.shape[2:]), y_clips.reshape((-1,) + y_clips.shape[2:])
    teach = ((x_targets - _eval(g_yx, y)) ** 2).sum() / len(x_targets)
    teach += ((y_targets - _eval(g_xy, x)) ** 2).sum() / len(y_targets)
    tp = temporal_loss(r_x, x_clips).item() + temporal_loss(r_y, y_clips).item()
    st = _spatiotemporal_frame_by_frame(g_xy, r_y, g_yx, x_clips)
    st += _spatiotemporal_frame_by_frame(g_yx, r_x, g_xy, y_clips)
    cycle = np.abs(x - _eval(g_yx, _eval(g_xy, x))).sum() / len(x)
    cycle += np.abs(y - _eval(g_xy, _eval(g_yx, y))).sum() / len(y)
    return teach + w.lambda1 * tp + w.lambda2 * st + w.lambda_cyc * cycle


class TestSharedTranslations:
    """One recorded translation per direction gives the objective that
    separate forwards per term give: only the evaluation order changed."""

    @staticmethod
    def _perturb(net, seed):
        rng_ = np.random.default_rng(seed)
        for p in net.params.values():
            p.data += rng_.normal(size=p.data.shape) * 0.1
        return net

    def test_image_objective_equals_separate_forwards(self):
        g_xy = self._perturb(PointTranslator(dim=2, hidden=6, seed=60, name="gxy", dtype=np.float64), 61)
        g_yx = self._perturb(PointTranslator(dim=2, hidden=6, seed=62, name="gyx", dtype=np.float64), 63)
        rng_ = np.random.default_rng(64)
        x, y, x_t, y_t = (rng_.normal(size=(5, 2)) for _ in range(4))
        w = LossWeights()
        with T.Graph():
            got = image_objective(g_xy, g_yx, x, y, g_yx.forward(Tensor(y)), g_xy.forward(Tensor(x)), x_t, y_t, w)
        want = _image_objective_separate_forwards(g_xy, g_yx, x, y, x_t, y_t, w)
        assert got.item() == pytest.approx(want, rel=1e-12)

    def test_sequence_objective_equals_separate_forwards(self):
        from coopforge.networks import ImageTranslator

        shape, f64 = (1, 4, 4), dict(dtype=np.float64)
        g_xy = self._perturb(ImageTranslator(in_shape=shape, base=2, blocks=1, seed=65, name="gxy", **f64), 66)
        g_yx = self._perturb(ImageTranslator(in_shape=shape, base=2, blocks=1, seed=67, name="gyx", **f64), 68)
        r_x = self._perturb(TemporalPredictor(in_shape=shape, k=2, base=2, seed=69, name="rx", **f64), 70)
        r_y = self._perturb(TemporalPredictor(in_shape=shape, k=2, base=2, seed=71, name="ry", **f64), 72)
        rng_ = np.random.default_rng(73)
        x_clips, y_clips = rng_.normal(size=(2, 3) + shape), rng_.normal(size=(2, 3) + shape)
        x_t, y_t = rng_.normal(size=(6,) + shape), rng_.normal(size=(6,) + shape)
        w = LossWeights(lambda1=9.0, lambda2=9.0)
        with T.Graph():
            x_moved, y_moved = _translate_clips(g_yx, y_clips), _translate_clips(g_xy, x_clips)
            got = sequence_objective(g_xy, g_yx, r_x, r_y, x_clips, y_clips, x_moved, y_moved, x_t, y_t, w)
        want = _sequence_objective_separate_forwards(g_xy, g_yx, r_x, r_y, x_clips, y_clips, x_t, y_t, w)
        assert got.item() == pytest.approx(want, rel=1e-12)
