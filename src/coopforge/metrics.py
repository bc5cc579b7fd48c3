"""Evaluation metrics for translated sample sets.

Everything here is pure and gradient-free: inputs are plain arrays,
outputs are floats or small result records. Feature extraction goes
through an explicit `FeatureMap`, so every reported number names the map
it was computed under; distances from different maps are not comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import PURPOSE_METRIC, stream

__all__ = [
    "FeatureMap",
    "ModeCoverage",
    "cycle_error",
    "default_feature_map",
    "frechet_distance",
    "mode_coverage",
    "psnr",
]

_RIDGE = 1e-6
_PSNR_CAP_DB = 100.0
_KINDS = ("identity", "projection")


@dataclass(frozen=True)
class FeatureMap:
    """Deterministic map from raw samples to flat feature vectors.

    kind "identity" flattens samples as-is, and "projection" applies a
    fixed seeded Gaussian projection down to `dim` features. Comparisons
    are only meaningful when both sides go through the same map instance.
    """

    kind: str
    dim: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown feature map kind {self.kind!r}")
        if self.kind == "projection" and self.dim < 1:
            raise ValueError("projection feature map needs dim >= 1")

    def apply(self, samples) -> np.ndarray:
        """Map a batch (n, ...) to float64 features (n, d)."""
        arr = np.asarray(samples, dtype=np.float64)
        if arr.ndim < 2 or arr.shape[0] == 0:
            raise ValueError(f"expected a non-empty sample batch, got shape {arr.shape}")
        flat = arr.reshape(arr.shape[0], -1)
        if self.kind == "identity":
            return flat
        return flat @ self._projection(flat.shape[1])

    def _projection(self, in_dim: int) -> np.ndarray:
        # Keyed by both dims so the same seed serves inputs of any size.
        gen = stream(self.seed, PURPOSE_METRIC, a=in_dim, b=self.dim)
        w = gen.standard_normal((in_dim, self.dim), dtype=np.float64)
        return w / np.sqrt(in_dim)


def default_feature_map(sample_shape: tuple[int, ...]) -> FeatureMap:
    """Identity for low-dimensional points, seeded 16-dim projection for images."""
    if len(sample_shape) == 1:
        return FeatureMap("identity")
    return FeatureMap("projection", dim=16, seed=0)


def frechet_distance(set_a, set_b, fm: FeatureMap) -> float:
    """Fréchet distance between Gaussian fits of two feature sets.

    ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^{1/2}) with 1/(n-1)
    covariances. Both covariances carry a 1e-6 ridge (applied before the
    square root and kept in the trace terms, so identical sets score 0);
    the root's trace comes from the symmetric eigendecomposition of the
    symmetrized product with negative eigenvalues clipped at zero.
    """
    fa = fm.apply(set_a)
    fb = fm.apply(set_b)
    if fa.shape[1] != fb.shape[1]:
        raise ValueError(f"feature widths differ: {fa.shape[1]} vs {fb.shape[1]}")
    d = fa.shape[1]
    for side, f in (("first", fa), ("second", fb)):
        if f.shape[0] < d + 1:
            raise ValueError(
                f"{side} set has {f.shape[0]} samples; {d}-dim features need at least {d + 1}"
            )
    mu_gap = fa.mean(axis=0) - fb.mean(axis=0)
    cov_a = np.cov(fa, rowvar=False).reshape(d, d) + _RIDGE * np.eye(d)
    cov_b = np.cov(fb, rowvar=False).reshape(d, d) + _RIDGE * np.eye(d)
    prod = cov_a @ cov_b
    evals = np.linalg.eigvalsh(0.5 * (prod + prod.T))
    root_trace = np.sqrt(np.clip(evals, 0.0, None)).sum()
    value = mu_gap @ mu_gap + np.trace(cov_a) + np.trace(cov_b) - 2.0 * root_trace
    return max(float(value), 0.0)


def psnr(a, b, peak: float) -> float:
    """Peak signal-to-noise ratio in dB; identical inputs hit the 100 dB cap."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.size == 0:
        raise ValueError("cannot score empty arrays")
    if not peak > 0:
        raise ValueError("peak must be positive")
    mse = float(np.mean((x - y) ** 2))
    if mse == 0.0:
        return _PSNR_CAP_DB
    return float(10.0 * np.log10(peak * peak / mse))


@dataclass(frozen=True, eq=False)
class ModeCoverage:
    """Fraction of samples captured by each known generator mode."""

    fractions: np.ndarray
    uncaptured: float


def mode_coverage(samples, mode_centers, capture_radius: float) -> ModeCoverage:
    """Assign each sample to its nearest center; count it if within radius.

    Every sample lands in exactly one bucket (nearest mode, or uncaptured),
    so the fractions plus the uncaptured share account for the whole set.
    """
    pts = np.asarray(samples, dtype=np.float64)
    centers = np.asarray(mode_centers, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"expected a non-empty (n, d) sample array, got {pts.shape}")
    if centers.ndim != 2 or centers.shape[0] == 0:
        raise ValueError(f"expected (m, d) mode centers, got {centers.shape}")
    if centers.shape[1] != pts.shape[1]:
        raise ValueError(f"centers are {centers.shape[1]}-dim but samples are {pts.shape[1]}-dim")
    if not capture_radius > 0:
        raise ValueError("capture_radius must be positive")
    dist = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2)
    nearest = dist.argmin(axis=1)
    captured = dist[np.arange(len(pts)), nearest] <= capture_radius
    counts = np.bincount(nearest[captured], minlength=len(centers))
    fractions = counts.astype(np.float64) / len(pts)
    uncaptured = float(np.count_nonzero(~captured)) / len(pts)
    return ModeCoverage(fractions=fractions, uncaptured=uncaptured)


def cycle_error(set_x, back_x, set_y, back_y) -> float:
    """Mean L1 round-trip error over both directions, in the inputs' dtype:
    sum_i ||x_i - back_x_i||_1 / n + sum_j ||y_j - back_y_j||_1 / m, where
    back_x = G_yx(G_xy(set_x)) and back_y = G_xy(G_yx(set_y)).
    """
    terms = []
    for name, data, back in (("set_x", set_x, back_x), ("set_y", set_y, back_y)):
        data, back = np.asarray(data), np.asarray(back)
        if data.ndim == 0 or len(data) == 0:
            raise ValueError(f"cycle error needs non-empty sets on both sides, {name} has shape {data.shape}")
        if back.shape != data.shape:
            raise ValueError(f"the round trip of {name} has shape {back.shape}, but {name} has {data.shape}")
        gap = np.abs(data - back)
        terms.append(gap.sum() * gap.dtype.type(1.0 / len(data)))
    return float(terms[0] + terms[1])
