"""Held-out evaluation: metrics rows, refinement scores and sample grids.

Eval datasets and eval-time revision noise shift the training seeds by one
constant, so they never share streams with training. ``state`` and ``cfg``
arguments are a trainer's TrainState and TrainConfig; the training loop and
the command line share these functions, so both write the same rows.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from .domains import DomainDataset, DomainDescriptor, generate, save_ppm, with_count
from .langevin import LangevinConfig, revise
from .metrics import FeatureMap, cycle_error, default_feature_map, frechet_distance
from .networks import Net, Scorer
from .tensor import ShapeError, Tensor

__all__ = [
    "eval_descriptor",
    "eval_langevin",
    "evaluate",
    "held_out_sets",
    "rasterize_points",
    "refinement_scores",
    "run_translator",
    "translate_sequence",
    "write_grid",
]

_EVAL_SEED_SHIFT = 9973


def run_translator(net: Net, batch: np.ndarray) -> np.ndarray:
    """Translate outside any recording graph (eval-mode forward)."""
    return net.forward(Tensor(np.ascontiguousarray(batch))).data


def translate_sequence(batch: np.ndarray, g: Net, p: Scorer, cfg: LangevinConfig) -> np.ndarray:
    """Translate a batch, then revise it by Langevin dynamics.

    An (n, d) point batch or (n, C, H, W) frames (a sequence's T frames) in,
    the same shape out; steps = 0 returns the pure translator output. A
    non-finite translation raises ``LangevinDiverged`` at any step count.
    """
    arr = np.asarray(batch)
    if arr.ndim not in (2, 4) or arr.shape[0] == 0:
        raise ShapeError(f"expected a non-empty (n, d) point batch or (n, C, H, W) frames, got shape {arr.shape}")
    return revise(run_translator(g, arr), p, cfg)[0]


def eval_descriptor(desc: DomainDescriptor, cfg) -> DomainDescriptor:
    """The held-out twin of a training descriptor: eval_samples examples, shifted seed."""
    return replace(with_count(desc, cfg.eval_samples), seed=desc.seed + _EVAL_SEED_SHIFT)


def held_out_sets(desc_x: DomainDescriptor, desc_y: DomainDescriptor, cfg) -> tuple[DomainDataset, np.ndarray, np.ndarray, FeatureMap]:
    """The held-out X dataset, the eval batches of both held-out twins
    (sequences flattened into frames) and the feature map that scores them."""
    ds_x, ds_y = generate(eval_descriptor(desc_x, cfg)), generate(eval_descriptor(desc_y, cfg))
    eval_x, eval_y = (np.ascontiguousarray(ds.examples.reshape((-1,) + ds.sample_shape)) for ds in (ds_x, ds_y))
    return ds_x, eval_x, eval_y, default_feature_map(ds_x.sample_shape)


def eval_langevin(cfg) -> LangevinConfig:
    """The training sampler with its noise seed shifted off the training streams."""
    return replace(cfg.langevin, seed=cfg.langevin.seed + _EVAL_SEED_SHIFT)


def evaluate(state, eval_x: np.ndarray, eval_y: np.ndarray, fm: FeatureMap) -> tuple[dict, np.ndarray]:
    """Held-out scores and the translation to_y = G_xy(eval_x) they read,
    with to_x = G_yx(eval_y): ``fd_x`` compares to_y with eval_y,
    ``fd_y`` compares to_x with eval_x, and ``cycle_err`` is
    ``metrics.cycle_error`` of the round trips G_yx(to_y) and G_xy(to_x).
    Four translator forwards in eval mode; nothing is recorded.
    """
    to_y = run_translator(state.g_xy, eval_x)
    to_x = run_translator(state.g_yx, eval_y)
    scores = {
        "fd_x": frechet_distance(to_y, eval_y, fm),
        "fd_y": frechet_distance(to_x, eval_x, fm),
        "cycle_err": cycle_error(eval_x, run_translator(state.g_yx, to_y), eval_y, run_translator(state.g_xy, to_x)),
    }
    return scores, to_y


def refinement_scores(state, eval_x: np.ndarray, eval_y: np.ndarray, cfg, fm: FeatureMap) -> dict:
    """Fréchet distances before and after revising the translated batches.

    The margin fd_init - fd_revised measures what the energy models add on
    top of the raw translators; revision noise is keyed by the shifted eval
    seed, so repeated calls at the same state agree bitwise.
    """
    lng = eval_langevin(cfg)
    to_y = run_translator(state.g_xy, eval_x)
    to_x = run_translator(state.g_yx, eval_y)
    return {
        "fd_init_x": frechet_distance(to_y, eval_y, fm),
        "fd_init_y": frechet_distance(to_x, eval_x, fm),
        "fd_revised_x": frechet_distance(revise(to_y, state.ebm_y, lng)[0], eval_y, fm),
        "fd_revised_y": frechet_distance(revise(to_x, state.ebm_x, lng)[0], eval_x, fm),
    }


def rasterize_points(points: np.ndarray, side: int = 64, extent: float = 3.0) -> np.ndarray:
    """Scatter plot as a (side, side) intensity image on [-extent, extent]^2."""
    canvas = np.zeros((side, side), dtype=np.float32)
    scaled = (points + extent) / (2.0 * extent) * (side - 1)
    idx = np.clip(np.round(scaled).astype(int), 0, side - 1)
    canvas[side - 1 - idx[:, 1], idx[:, 0]] = 1.0
    return canvas


def write_grid(state, eval_x: np.ndarray, cfg, path: Path, kind: str) -> None:
    """Input | translated | revised triptych, rows of samples, display-clamped."""
    frames = eval_x if kind == "points" else eval_x[:6] if kind == "images" else eval_x[:6, 0]
    moved = run_translator(state.g_xy, frames)
    revised, _ = revise(moved, state.ebm_y, eval_langevin(cfg))
    if kind == "points":
        grid = np.concatenate([rasterize_points(p) for p in (frames, moved, revised)], axis=1)
    else:
        rows = [np.concatenate(trio, axis=2) for trio in zip(frames, moved, revised)]
        grid = np.clip(np.concatenate(rows, axis=1), 0.0, 1.0)
    save_ppm(grid, path)
