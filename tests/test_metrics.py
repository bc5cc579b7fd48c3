"""Metric checks: closed-form oracles, naive loop oracles, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopforge.evaluation import run_translator
from coopforge.metrics import (
    FeatureMap,
    cycle_error,
    default_feature_map,
    frechet_distance,
    mode_coverage,
    psnr,
)
from coopforge.networks import PointTranslator
from coopforge.tensor import Tensor

RIDGE = 1e-6


class Affine:
    """Translator stub: elementwise scale then shift."""

    def __init__(self, scale: float, shift: float):
        self.scale = float(scale)
        self.shift = float(shift)
        self.params: dict = {}

    def forward(self, x: Tensor) -> Tensor:
        return x * self.scale + self.shift


# ---------------------------------------------------------------- FeatureMap


def test_identity_features_flatten():
    arr = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    feats = FeatureMap("identity").apply(arr)
    np.testing.assert_array_equal(feats, arr.reshape(2, 12))
    assert feats.dtype == np.float64


def test_projection_shape_and_determinism():
    fm = FeatureMap("projection", dim=5, seed=11)
    x = np.random.default_rng(0).standard_normal((7, 30))
    f1 = fm.apply(x)
    f2 = fm.apply(x)
    assert f1.shape == (7, 5)
    np.testing.assert_array_equal(f1, f2)
    other = FeatureMap("projection", dim=5, seed=12).apply(x)
    assert np.abs(f1 - other).max() > 1e-3


def test_projection_is_linear():
    fm = FeatureMap("projection", dim=3, seed=2)
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((2, 4, 10))
    np.testing.assert_allclose(fm.apply(a + b), fm.apply(a) + fm.apply(b), rtol=1e-12, atol=1e-12)


def test_feature_map_validation():
    with pytest.raises(ValueError):
        FeatureMap("vgg")
    with pytest.raises(ValueError):
        FeatureMap("projection", dim=0)
    with pytest.raises(ValueError):
        FeatureMap("identity").apply(np.zeros((0, 3)))


def test_default_feature_map_dispatch():
    assert default_feature_map((2,)).kind == "identity"
    fm = default_feature_map((1, 16, 16))
    assert fm.kind == "projection" and fm.dim == 16


# ---------------------------------------------------------------- Fréchet


def test_frechet_identical_sets_zero():
    s = np.random.default_rng(3).standard_normal((40, 3))
    assert frechet_distance(s, s, FeatureMap("identity")) <= 1e-8


def test_frechet_point_masses_one_dim():
    # mu 0 vs 1, both sample variances exactly 2 (n=2, ddof=1):
    # distance = (mu gap)^2 + (sqrt(2) - sqrt(2))^2 = 1
    a = np.array([[-1.0], [1.0]])
    b = np.array([[0.0], [2.0]])
    assert abs(frechet_distance(a, b, FeatureMap("identity")) - 1.0) <= 1e-8


def _cross(c: float, d: float, mu) -> np.ndarray:
    # four points whose sample covariance is exactly diag(2c^2/3, 2d^2/3)
    base = np.array([[c, 0.0], [-c, 0.0], [0.0, d], [0.0, -d]])
    return base + np.asarray(mu)


def test_frechet_diagonal_closed_form():
    c1, d1, mu1 = 0.9, 0.4, (0.25, -1.5)
    c2, d2, mu2 = 1.3, 0.7, (-0.5, 0.75)
    got = frechet_distance(_cross(c1, d1, mu1), _cross(c2, d2, mu2), FeatureMap("identity"))
    va = np.array([2 * c1 * c1 / 3, 2 * d1 * d1 / 3]) + RIDGE
    vb = np.array([2 * c2 * c2 / 3, 2 * d2 * d2 / 3]) + RIDGE
    dmu = np.subtract(mu1, mu2)
    oracle = float(dmu @ dmu + ((np.sqrt(va) - np.sqrt(vb)) ** 2).sum())
    assert abs(got - oracle) <= 1e-8


def test_frechet_symmetry_and_permutation_invariance():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((30, 4))
    b = rng.standard_normal((30, 4)) * 1.6 - 0.4
    fm = FeatureMap("identity")
    ref = frechet_distance(a, b, fm)
    assert abs(ref - frechet_distance(b, a, fm)) <= 1e-10
    shuffled = frechet_distance(a[rng.permutation(30)], b[rng.permutation(30)], fm)
    assert abs(ref - shuffled) <= 1e-8


def test_frechet_through_projection_map():
    fm = FeatureMap("projection", dim=4, seed=0)
    rng = np.random.default_rng(9)
    imgs = rng.random((12, 1, 6, 6))
    assert frechet_distance(imgs, imgs, fm) <= 1e-8
    far = imgs + 5.0
    assert frechet_distance(imgs, far, fm) > 1.0


def test_frechet_small_sets_rejected():
    fm = FeatureMap("identity")
    pts = np.zeros((2, 2))
    with pytest.raises(ValueError, match="at least 3"):
        frechet_distance(pts, np.zeros((8, 2)), fm)
    with pytest.raises(ValueError, match="at least 3"):
        frechet_distance(np.zeros((8, 2)), pts, fm)


def test_frechet_width_mismatch_rejected():
    fm = FeatureMap("identity")
    with pytest.raises(ValueError, match="widths differ"):
        frechet_distance(np.zeros((5, 2)), np.zeros((5, 3)), fm)


# ---------------------------------------------------------------- PSNR


def test_psnr_twenty_db():
    a = np.zeros((10, 10))
    b = np.full((10, 10), 0.1)
    assert math.isclose(psnr(a, b, peak=1.0), 20.0, rel_tol=1e-12)


def test_psnr_identical_caps_at_100():
    a = np.random.default_rng(0).random((4, 4))
    assert psnr(a, a.copy(), peak=1.0) == 100.0


def test_psnr_unit_mse_is_zero_db():
    a = np.zeros(16)
    b = np.ones(16)
    assert psnr(a, b, peak=1.0) == 0.0


def test_psnr_monotone_in_mse():
    base = np.random.default_rng(5).random((8, 8))
    delta = np.random.default_rng(6).standard_normal((8, 8))
    values = [psnr(base, base + k * 0.05 * delta, peak=1.0) for k in range(1, 6)]
    assert all(hi > lo for hi, lo in zip(values, values[1:]))


def test_psnr_validation():
    with pytest.raises(ValueError, match="shape"):
        psnr(np.zeros(3), np.zeros(4), peak=1.0)
    with pytest.raises(ValueError, match="peak"):
        psnr(np.zeros(3), np.ones(3), peak=0.0)
    with pytest.raises(ValueError, match="empty"):
        psnr(np.zeros(0), np.zeros(0), peak=1.0)


# ---------------------------------------------------------------- mode coverage


def _octagon(radius: float = 2.0) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(8) / 8
    return np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)


def test_mode_coverage_equal_counts():
    centers = _octagon()
    samples = np.repeat(centers, 5, axis=0)
    cov = mode_coverage(samples, centers, capture_radius=0.3)
    np.testing.assert_array_equal(cov.fractions, np.full(8, 0.125))
    assert cov.uncaptured == 0.0


def test_mode_coverage_collapse_signature():
    centers = _octagon()
    samples = np.repeat(centers[3:4], 12, axis=0)
    cov = mode_coverage(samples, centers, capture_radius=0.3)
    expect = np.zeros(8)
    expect[3] = 1.0
    np.testing.assert_array_equal(cov.fractions, expect)
    assert cov.uncaptured == 0.0


def test_mode_coverage_uncaptured_share():
    centers = _octagon()
    near = np.repeat(centers[0:1], 6, axis=0)
    far = np.full((6, 2), 50.0)
    cov = mode_coverage(np.concatenate([near, far]), centers, capture_radius=0.5)
    assert cov.fractions[0] == 0.5
    assert cov.uncaptured == 0.5


def test_mode_coverage_counts_nearest_only():
    centers = np.array([[0.0, 0.0], [1.0, 0.0]])
    # within radius of both centers, strictly nearer the second
    samples = np.array([[0.6, 0.0]] * 4)
    cov = mode_coverage(samples, centers, capture_radius=2.0)
    np.testing.assert_array_equal(cov.fractions, [0.0, 1.0])


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
    st.floats(min_value=0.05, max_value=5.0),
)
def test_mode_coverage_fractions_partition(n, seed, radius):
    samples = np.random.default_rng(seed).standard_normal((n, 2)) * 2.0
    cov = mode_coverage(samples, _octagon(), capture_radius=radius)
    assert (cov.fractions >= 0.0).all()
    total = cov.fractions.sum() + cov.uncaptured
    assert abs(total - 1.0) <= 1e-12
    assert cov.fractions.sum() <= 1.0 + 1e-12
    if cov.uncaptured == 0.0:
        assert abs(cov.fractions.sum() - 1.0) <= 1e-12


def test_mode_coverage_validation():
    centers = _octagon()
    with pytest.raises(ValueError, match="non-empty"):
        mode_coverage(np.zeros((0, 2)), centers, 1.0)
    with pytest.raises(ValueError, match="dim"):
        mode_coverage(np.zeros((4, 3)), centers, 1.0)
    with pytest.raises(ValueError, match="radius"):
        mode_coverage(np.zeros((4, 2)), centers, 0.0)


# ---------------------------------------------------------------- cycle error


def round_trips(fwd, back, x, y):
    """(back(fwd(x)), fwd(back(y))) of two translators or stubs, in eval mode."""
    return run_translator(back, run_translator(fwd, x)), run_translator(fwd, run_translator(back, y))


def test_cycle_error_identity_translators():
    g1 = PointTranslator(dim=2, seed=0, name="gxy")
    g2 = PointTranslator(dim=2, seed=1, name="gyx")
    rng = np.random.default_rng(2)
    x = rng.standard_normal((10, 2), dtype=np.float32)
    y = rng.standard_normal((12, 2), dtype=np.float32)
    back_x, back_y = round_trips(g1, g2, x, y)
    assert cycle_error(x, back_x, y, back_y) == 0.0


def test_cycle_error_exact_inverse_pair():
    # dyadic params and inputs keep every float op exact
    fwd = Affine(2.0, 0.75)
    back = Affine(0.5, -0.375)
    rng = np.random.default_rng(4)
    x = np.round(rng.uniform(-2, 2, (9, 3)) * 4) / 4
    y = np.round(rng.uniform(-2, 2, (7, 3)) * 4) / 4
    back_x, back_y = round_trips(fwd, back, x, y)
    assert cycle_error(x, back_x, y, back_y) <= 1e-6


def test_cycle_error_naive_loop_oracle():
    fwd = Affine(1.5, 0.25)
    back = Affine(0.8, -0.6)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 3))
    y = rng.standard_normal((5, 3))

    def round_trip(v, first, second):
        return second.scale * (first.scale * v + first.shift) + second.shift

    total_x = sum(abs(xi - round_trip(xi, fwd, back)) for row in x for xi in row) / len(x)
    total_y = sum(abs(yj - round_trip(yj, back, fwd)) for row in y for yj in row) / len(y)
    back_x, back_y = round_trips(fwd, back, x, y)
    got = cycle_error(x, back_x, y, back_y)
    assert math.isclose(got, total_x + total_y, rel_tol=1e-9)


def test_cycle_error_empty_rejected():
    g = Affine(1.0, 0.0)
    x, y = np.zeros((0, 2)), np.zeros((3, 2))
    back_x, back_y = round_trips(g, g, x, y)
    with pytest.raises(ValueError, match="non-empty"):
        cycle_error(x, back_x, y, back_y)


def test_cycle_error_round_trip_shape_mismatch_rejected():
    x, y = np.zeros((4, 2)), np.zeros((3, 2))
    with pytest.raises(ValueError, match=r"round trip of set_y has shape \(3, 3\), but set_y has \(3, 2\)"):
        cycle_error(x, x.copy(), y, np.zeros((3, 3)))
