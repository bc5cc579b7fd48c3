"""Finite-step Langevin revision: gradient-plus-noise walks toward an
energy model, used to refine translator outputs into MCMC teaching targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .networks import Scorer

__all__ = ["LangevinConfig", "LangevinDiverged", "revise", "energy_grad"]

_DIVERGENCE_LIMIT = 1e6
_NOISE_BLOCK = 1024  # steps of noise drawn per chain at a time


@dataclass(frozen=True)
class LangevinConfig:
    """Revision schedule: l steps of x <- x - (d^2/2) dE/dx + eta d U.

    ``steps`` is l; ``step_size`` is the paper's delta (0.002 for images,
    0.02 for point and sequence runs); ``noise_scale`` is eta in [0, 1],
    where 1 is the faithful sampler and 0 a deterministic descent used for
    exact tests. ``seed`` keys the per-chain noise streams.
    """

    steps: int
    step_size: float
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be non-negative, got {self.steps}")
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size must be finite and positive, got {self.step_size}")
        if not 0.0 <= self.noise_scale <= 1.0:
            raise ValueError(f"noise_scale must lie in [0, 1], got {self.noise_scale}")


class LangevinDiverged(RuntimeError):
    """Chain state left the trusted region or went non-finite."""


def energy_grad(model: Scorer, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scores f(x) and dE/dx of the scorer's energy for a batch, parameters
    frozen, no graph retained."""
    return model.energy_grad(x)


def _check_state(x: np.ndarray, step: int) -> None:
    peak = float(np.abs(x).max())  # NaN and inf propagate through max
    if not np.isfinite(peak):
        raise LangevinDiverged(f"non-finite state at step {step}")
    if peak > _DIVERGENCE_LIMIT:
        raise LangevinDiverged(f"state magnitude {peak:.3e} exceeds {_DIVERGENCE_LIMIT:.0e} at step {step}")


def revise(x0: np.ndarray, model: Scorer, cfg: LangevinConfig, chain_offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Run ``cfg.steps`` Langevin steps on the energy of ``model`` from each row of ``x0``.

    Returns the revised batch and each chain's starting energy, equal bit for
    bit to ``model.energy_values(x0)``. The energies are read off the scores
    of the first step's ``energy_grad``; only when no step runs (steps = 0 or
    an empty batch) are they a forward of their own.

    The input is never mutated. Chain i draws from the stream keyed
    (cfg.seed, chain_offset + i), so results are bitwise independent of how
    chains are grouped into batches, up to floating-point reassociation in
    batched network evaluation. With steps = 0 or an empty batch the
    output equals x0. The batch may be a ``ScorerPair``'s stacked rows
    [x; y]: each half then walks on its own scorer's energy and keeps the
    streams it would draw alone from its own offset, and the divergence
    check covers every row of both after every step.
    """
    x0 = np.asarray(x0)
    if x0.dtype not in (np.float32, np.float64):
        x0 = x0.astype(np.float32)
    if not np.isfinite(x0).all():
        raise LangevinDiverged("non-finite state at step 0 (initial batch)")
    x = x0.copy()
    if cfg.steps == 0 or x.size == 0:
        return x, model.energy_values(x)
    n = x.shape[0]
    half_sq = 0.5 * cfg.step_size * cfg.step_size
    noise_coef = cfg.noise_scale * cfg.step_size
    gens = [rng.chain_stream(cfg.seed, chain_offset + i) for i in range(n)]
    sample_shape = x.shape[1:]
    energies = None
    done = 0
    while done < cfg.steps:
        block = min(_NOISE_BLOCK, cfg.steps - done)
        if noise_coef != 0.0:
            noise = np.stack(
                [g.standard_normal((block,) + sample_shape, dtype=x.dtype) for g in gens]
            )
            noise *= noise_coef  # in place: a scaled copy would double the block's peak memory
        else:
            noise = None  # eta = 0: deterministic descent, no draws needed
        for j in range(block):
            scores, grad = energy_grad(model, x)
            if energies is None:  # the first step: x is still x0
                energies = model.energy_of_scores(x, scores)
            if noise is None:
                x += -half_sq * grad
            else:
                x += -half_sq * grad + noise[:, j]
            _check_state(x, done + j + 1)
        done += block
    return x, energies
