"""Loss functions and the energy-model gradient estimator.

The estimator follows the contrastive maximum-likelihood form: observed
batches push parameters to raise f, synthesized batches to lower it. All
losses, its surrogate included, return scalar tensors so they can be
recorded on a tape and differentiated; revision targets are always treated
as constants.

The translator losses take translated batches, not sources: the trainer
translates each batch once, on the iteration's tape, and every term that
needs G_xy(x) or G_yx(y) reads that one recorded output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .networks import Net, Scorer, TemporalPredictor
from .tensor import Graph, Tensor, backward

__all__ = [
    "LossWeights",
    "ebm_grad",
    "ebm_surrogate",
    "teach_loss",
    "cycle_loss",
    "temporal_loss",
    "spatiotemporal_loss",
    "clip_frames",
    "combine_sequence_losses",
    "image_objective",
    "sequence_objective",
]


@dataclass(frozen=True)
class LossWeights:
    """Weights of the composite objectives.

    ``lambda_cyc`` scales the cycle term of both objectives; ``lambda1``
    and ``lambda2`` scale the temporal and spatiotemporal terms in the
    sequence objective. All published values are 9.
    """

    lambda_cyc: float = 9.0
    lambda1: float = 9.0
    lambda2: float = 9.0

    def __post_init__(self):
        for field in ("lambda_cyc", "lambda1", "lambda2"):
            value = getattr(self, field)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{field} must be finite and non-negative, got {value}")


def _constant(batch) -> Tensor:
    if isinstance(batch, Tensor):
        return batch.detach()
    return Tensor(np.asarray(batch))


def _tensor(batch) -> Tensor:
    """A translated batch as given: a recorded output keeps its place on the tape."""
    return batch if isinstance(batch, Tensor) else Tensor(np.asarray(batch))


def ebm_surrogate(model: Scorer, data_batch, synth_batch) -> tuple[Tensor, Tensor]:
    """mean f(data) - mean f(synth): the scalar whose gradient is the
    energy model's ascent direction, and f(synth), the synthesized batch's
    scores it recorded. Both batches are constants, so only the score
    network's parameters receive gradient; the Gaussian reference term
    carries none.
    """
    data = _constant(data_batch)
    synth = _constant(synth_batch)
    if data.shape[0] == 0 or synth.shape[0] == 0:
        raise ValueError("ebm_surrogate: batches must be non-empty")
    data_mean = model.forward(data).mean()
    synth_scores = model.forward(synth)
    return data_mean - synth_scores.mean(), synth_scores


def ebm_grad(model: Scorer, data_batch, synth_batch) -> dict[str, np.ndarray]:
    """Ascent direction on the data log-likelihood of the energy model:
    per parameter of f, the gradient of ``ebm_surrogate``. Swapping the two
    batches negates the result exactly.
    """
    with Graph() as g:
        surrogate, _ = ebm_surrogate(model, data_batch, synth_batch)
    return backward(g, surrogate, model.params)


def teach_loss(moved, targets) -> Tensor:
    """Regression of a translator's output onto revised targets.

    (1/n) sum_i ||target_i - moved_i||^2 with ``moved`` = G(sources);
    targets are constants, so the gradient reaches only the translator.
    """
    out = _tensor(moved)
    tgt = _constant(targets)
    if out.shape[0] != tgt.shape[0] or out.shape[0] == 0:
        raise ValueError(
            f"teach_loss: need equal non-empty batches, got {out.shape[0]} translations, {tgt.shape[0]} targets"
        )
    diff = T.sub(tgt, out)
    return diff.sq_norm() * (1.0 / out.shape[0])


def cycle_loss(g_xy: Net, g_yx: Net, x_batch, y_batch, x_moved, y_moved) -> Tensor:
    """Round-trip consistency in both directions, L1 per sample.

    ``y_moved`` = G_xy(x_batch) and ``x_moved`` = G_yx(y_batch), so this is
    (1/n) sum ||x - G_yx(G_xy(x))||_1 + (1/m) sum ||y - G_xy(G_yx(y))||_1.
    """
    x = _constant(x_batch)
    y = _constant(y_batch)
    if x.shape[0] == 0 or y.shape[0] == 0:
        raise ValueError("cycle_loss: batches must be non-empty")
    x_round = g_yx.forward(_tensor(y_moved))
    y_round = g_xy.forward(_tensor(x_moved))
    term_x = T.sub(x, x_round).l1_norm() * (1.0 / x.shape[0])
    term_y = T.sub(y, y_round).l1_norm() * (1.0 / y.shape[0])
    return term_x + term_y


def image_objective(
    g_xy: Net, g_yx: Net, x_batch, y_batch, x_moved, y_moved, x_targets, y_targets, w: LossWeights
) -> Tensor:
    """Joint objective of the two translators on unpaired batches.

    With x_moved = G_yx(y_batch) and y_moved = G_xy(x_batch):
    teach(x_moved -> x_targets) + teach(y_moved -> y_targets)
    + lambda_cyc * cycle(x_batch, y_batch); the cycle term is left out of
    the tape when its weight is zero.
    """
    loss = teach_loss(x_moved, x_targets) + teach_loss(y_moved, y_targets)
    if w.lambda_cyc > 0:
        loss = loss + w.lambda_cyc * cycle_loss(g_xy, g_yx, x_batch, y_batch, x_moved, y_moved)
    return loss


def _split_clips(clips, k: int) -> tuple[np.ndarray, Tensor]:
    """Validate (n, k+1, C, H, W) clips; return them and their future frames."""
    arr = np.asarray(clips.data if isinstance(clips, Tensor) else clips)
    if arr.ndim != 5:
        raise T.ShapeError(f"clips must be (n, k+1, C, H, W), got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("clip batch must be non-empty")
    if arr.shape[1] != k + 1:
        raise ValueError(f"clips of length {arr.shape[1]} incompatible with k = {k} (need k+1)")
    return arr, Tensor(np.ascontiguousarray(arr[:, k]))


def clip_frames(clips) -> np.ndarray:
    """Every frame of (n, k+1, C, H, W) clips in clip order, (n*(k+1), C, H, W):
    the batch order of every translation the sequence losses read."""
    arr = np.asarray(clips.data if isinstance(clips, Tensor) else clips)
    return arr.reshape((-1,) + arr.shape[2:])


def temporal_loss(r: TemporalPredictor, clips) -> Tensor:
    """Next-frame prediction error: mean over clips of
    ||x_{t+k} - R(x_t, ..., x_{t+k-1})||_1."""
    clips, future = _split_clips(clips, r.k)
    pred = r.forward(Tensor(clips[:, : r.k]))
    n = future.shape[0]
    return T.sub(future, pred).l1_norm() * (1.0 / n)


def spatiotemporal_loss(moved, r_other: TemporalPredictor, g_back: Net, clips) -> Tensor:
    """Round-trip prediction error through the other domain.

    ``moved`` is G_fwd of every frame of ``clips`` in clip order,
    (n*(k+1), C, H, W). Its k past frames per clip predict the next
    translated frame through ``r_other``, ``g_back`` translates that back,
    and it is compared to the true next frame: mean over clips of
    ||x_{t+k} - G_back(R_other(G_fwd(x_t..x_{t+k-1})))||_1.
    """
    k = r_other.k
    _, future = _split_clips(clips, k)
    n, frame = future.shape[0], future.shape[1:]
    moved = _tensor(moved)
    if moved.shape != (n * (k + 1),) + frame:
        raise T.ShapeError(
            f"spatiotemporal_loss: need {n * (k + 1)} translated frames of {frame}, got {moved.shape}"
        )
    pred_back = g_back.forward(r_other.forward(T.narrow(moved.reshape((n, k + 1) + frame), 1, 0, k)))
    return T.sub(future, pred_back).l1_norm() * (1.0 / n)


def combine_sequence_losses(
    teach_yx: Tensor,
    teach_xy: Tensor,
    tp_x: Tensor,
    tp_y: Tensor,
    st_x: Tensor,
    st_y: Tensor,
    w: LossWeights,
) -> Tensor:
    """Weighted sum of the six sequence components:
    teach_yx + teach_xy + lambda1 (tp_x + tp_y) + lambda2 (st_x + st_y).

    The teaching terms enter unweighted; e.g. all components equal to 1
    with both lambdas 9 gives 1 + 1 + 9*2 + 9*2 = 38.
    """
    return (teach_yx + teach_xy) + w.lambda1 * (tp_x + tp_y) + w.lambda2 * (st_x + st_y)


def sequence_objective(
    g_xy: Net, g_yx: Net, r_x: TemporalPredictor, r_y: TemporalPredictor,
    x_clips, y_clips, x_moved, y_moved, x_targets, y_targets, w: LossWeights,
) -> Tensor:
    """Joint objective of translators and temporal predictors on sequences.

    ``x_clips``/``y_clips`` are (n, k+1, C, H, W) windows from each domain;
    x_moved = G_yx of every frame of ``y_clips`` in clip order is taught onto
    ``x_targets``, and y_moved = G_xy of ``x_clips``'s frames onto
    ``y_targets``. The six terms of ``combine_sequence_losses`` come first,
    then lambda_cyc * cycle over the clips' frames, left out of the tape
    when its weight is zero.
    """
    teach_yx = teach_loss(x_moved, x_targets)
    teach_xy = teach_loss(y_moved, y_targets)
    tp_x = temporal_loss(r_x, x_clips)
    tp_y = temporal_loss(r_y, y_clips)
    st_x = spatiotemporal_loss(y_moved, r_y, g_yx, x_clips)
    st_y = spatiotemporal_loss(x_moved, r_x, g_xy, y_clips)
    loss = combine_sequence_losses(teach_yx, teach_xy, tp_x, tp_y, st_x, st_y, w)
    if w.lambda_cyc > 0:
        cycle = cycle_loss(g_xy, g_yx, clip_frames(x_clips), clip_frames(y_clips), x_moved, y_moved)
        loss = loss + w.lambda_cyc * cycle
    return loss
