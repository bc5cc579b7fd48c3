"""Dataset generator contracts: statistical oracles at fixed seeds, bitwise
regeneration from descriptors, and the PPM/CTNS file formats."""

import inspect
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coopforge.domains import (
    DomainDescriptor,
    PpmError,
    centroids,
    descriptor_line,
    dot_trajectories,
    expected_shape_area,
    gen_moving_dot,
    gen_ring,
    gen_shapes,
    generate,
    load_ppm,
    parse_descriptor,
    ring_mode_centers,
    ring_mode_std,
    save_ppm,
)


class TestRing:
    def test_single_gaussian_mean_bound(self):
        # modes=1, radius=0: a plain standard Gaussian; the sample mean obeys
        # the 4-sigma bound 4/sqrt(n) per coordinate.
        n = 4096
        ds = gen_ring(n, modes=1, radius=0.0, mode_std=1.0, seed=0)
        assert ds.kind == "points" and ds.examples.shape == (n, 2)
        assert (np.abs(ds.examples.mean(axis=0)) < 4.0 / np.sqrt(n)).all()
        assert ds.examples.std() == pytest.approx(1.0, rel=0.05)

    def test_determinism(self):
        a = gen_ring(256, modes=8, radius=1.6, mode_std=0.15, seed=7)
        b = gen_ring(256, modes=8, radius=1.6, mode_std=0.15, seed=7)
        np.testing.assert_array_equal(a.examples, b.examples)

    def test_seed_changes_data(self):
        a = gen_ring(64, seed=1)
        b = gen_ring(64, seed=2)
        assert not np.array_equal(a.examples, b.examples)

    def test_mode_histogram_near_uniform(self):
        n, modes = 4096, 8
        ds = gen_ring(n, modes=modes, radius=1.6, mode_std=0.15, seed=3)
        centers = ring_mode_centers(ds.descriptor)
        d = np.linalg.norm(ds.examples[:, None, :] - centers[None], axis=2)
        counts = np.bincount(d.argmin(axis=1), minlength=modes)
        assert (np.abs(counts - n / modes) <= 0.2 * n / modes).all(), counts

    def test_rotation_scale_transform(self):
        base = gen_ring(128, modes=8, radius=1.6, mode_std=0.15, rotation=0.0, scale=1.0, seed=11)
        moved = gen_ring(128, modes=8, radius=1.6, mode_std=0.15, rotation=np.pi / 2, scale=2.0, seed=11)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        np.testing.assert_allclose(moved.examples, 2.0 * base.examples @ rot.T, atol=1e-5)

    def test_mode_centers_square_case(self):
        desc = gen_ring(4, modes=4, radius=1.0, mode_std=0.1, seed=0).descriptor
        centers = ring_mode_centers(desc)
        np.testing.assert_allclose(
            centers, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-12
        )
        assert ring_mode_std(desc) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError, match="modes"):
            gen_ring(10, modes=0)
        with pytest.raises(ValueError, match="mode_std"):
            gen_ring(10, mode_std=0.0)
        with pytest.raises(ValueError, match="radius"):
            gen_ring(10, radius=-1.0)
        with pytest.raises(ValueError, match="n must"):
            gen_ring(0)

    @pytest.mark.parametrize(
        "key, value", [("radius", np.nan), ("mode_std", np.nan), ("scale", np.nan), ("rotation", np.inf), ("radius", -np.inf)]
    )
    def test_non_finite_parameter_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite, got {value}"):
            gen_ring(10, **{key: value})
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            generate(parse_descriptor(f"ring n=10 {key}={value} seed=0"))


class TestShapes:
    @pytest.mark.parametrize("kind,palette", [("square", "bright"), ("disk", "dark")])
    def test_values_in_unit_range(self, kind, palette):
        ds = gen_shapes(32, side=16, shape_kind=kind, palette=palette, seed=4)
        assert ds.examples.min() >= 0.0 and ds.examples.max() <= 1.0
        assert ds.examples.shape == (32, 1, 16, 16)

    def test_determinism(self):
        a = gen_shapes(16, side=16, seed=5)
        b = gen_shapes(16, side=16, seed=5)
        np.testing.assert_array_equal(a.examples, b.examples)

    def test_square_areas_are_perfect_squares_in_range(self):
        side = 16
        ds = gen_shapes(64, side=side, shape_kind="square", palette="bright", seed=6)
        allowed = {ext * ext for ext in range(side // 4, side // 2 + 1)}
        for img in ds.examples[:, 0]:
            area = int((img > 0.5).sum())  # bright fg >= 0.7, bg <= 0.15
            assert area in allowed

    def test_mean_area_matches_size_law(self):
        # Closed-form expectation over the uniform integer size law; the
        # empirical mean over 512 draws must land within 10%.
        ds = gen_shapes(512, side=16, shape_kind="disk", palette="bright", seed=7)
        expected = expected_shape_area(ds.descriptor)
        areas = (ds.examples[:, 0] > 0.5).sum(axis=(1, 2))
        assert areas.mean() == pytest.approx(expected, rel=0.10)

    def test_dark_palette_inverts_foreground(self):
        ds = gen_shapes(8, side=16, shape_kind="square", palette="dark", seed=8)
        for img in ds.examples[:, 0]:
            area = int((img < 0.5).sum())  # dark fg <= 0.3 on bg >= 0.85
            assert area > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="side"):
            gen_shapes(4, side=7)
        with pytest.raises(ValueError, match="shape_kind"):
            gen_shapes(4, shape_kind="triangle")
        with pytest.raises(ValueError, match="palette"):
            gen_shapes(4, palette="neon")


class TestMovingDot:
    def test_static_sequences_constant(self):
        ds = gen_moving_dot(3, length=6, side=16, motion_style="static", seed=9)
        assert ds.kind == "sequences"
        for seq in ds.examples:
            for t in range(1, 6):
                np.testing.assert_array_equal(seq[t], seq[0])

    def test_determinism(self):
        a = gen_moving_dot(4, length=5, side=16, seed=10)
        b = gen_moving_dot(4, length=5, side=16, seed=10)
        np.testing.assert_array_equal(a.examples, b.examples)

    def test_centroids_match_rounded_trajectory(self):
        # Symmetric sprites at integer positions have exactly integer
        # centroids, so extraction recovers round(trajectory) exactly and
        # stays within half a pixel of the continuous motion.
        ds = gen_moving_dot(5, length=8, side=20, appearance="hollow", seed=11)
        traj = dot_trajectories(ds.descriptor)
        got = centroids(ds.examples)
        np.testing.assert_array_equal(got, np.round(traj))
        assert np.abs(got - traj).max() <= 0.5

    def test_bounce_keeps_sprite_inside(self):
        ds = gen_moving_dot(6, length=64, side=16, seed=12)
        traj = dot_trajectories(ds.descriptor)
        assert traj.min() >= 4.0 and traj.max() <= 11.0

    def test_appearances_differ(self):
        a = gen_moving_dot(2, length=3, side=16, appearance="solid", motion_style="static", seed=13)
        b = gen_moving_dot(2, length=3, side=16, appearance="hollow", motion_style="static", seed=13)
        assert not np.array_equal(a.examples, b.examples)
        # same seed, same motion law: trajectories identical
        np.testing.assert_array_equal(
            dot_trajectories(a.descriptor), dot_trajectories(b.descriptor)
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            gen_moving_dot(2, length=1)
        with pytest.raises(ValueError, match="appearance"):
            gen_moving_dot(2, appearance="striped")
        with pytest.raises(ValueError, match="side"):
            gen_moving_dot(2, side=8)


class TestCentroids:
    def test_single_lit_pixel(self):
        frame = np.zeros((1, 7, 7), dtype=np.float32)
        frame[0, 2, 5] = 1.0
        np.testing.assert_array_equal(centroids(frame), [2.0, 5.0])

    def test_all_dark_falls_back_to_center(self):
        frame = np.zeros((1, 9, 9), dtype=np.float32)
        np.testing.assert_array_equal(centroids(frame), [4.0, 4.0])

    def test_batched_shapes(self):
        frames = np.zeros((4, 3, 1, 8, 8), dtype=np.float32)
        frames[..., 2, 6] = 1.0
        out = centroids(frames)
        assert out.shape == (4, 3, 2)
        assert (out == [2.0, 6.0]).all()


class TestDescriptors:
    @pytest.mark.parametrize(
        "ds",
        [
            gen_ring(32, modes=8, radius=1.6, mode_std=0.15, rotation=0.392699, scale=0.55, seed=21),
            gen_shapes(8, side=16, shape_kind="disk", palette="dark", seed=22),
            gen_moving_dot(3, length=5, side=16, appearance="hollow", seed=23),
        ],
        ids=["ring", "shapes", "moving_dot"],
    )
    def test_line_round_trip_and_bitwise_regeneration(self, ds):
        line = descriptor_line(ds.descriptor)
        back = parse_descriptor(line)
        assert back == ds.descriptor
        regen = generate(back)
        np.testing.assert_array_equal(regen.examples, ds.examples)

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError, match="unknown generator"):
            DomainDescriptor("spirals", {}, 0)
        with pytest.raises(ValueError, match="unknown generator"):
            parse_descriptor("spirals n=5 seed=0")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown descriptor key"):
            parse_descriptor("ring n=5 wobble=2 seed=0")
        with pytest.raises(ValueError, match="unknown parameters"):
            generate(DomainDescriptor("ring", {"n": 5, "wobble": 2}, 0))

    def test_missing_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            parse_descriptor("ring n=5")

    @pytest.mark.parametrize(
        "fn, call",
        [
            # integer arguments of float parameters are stored as floats: radius=1 -> 1.0
            (gen_ring, dict(n=5, modes=3, radius=1, mode_std=1, rotation=0, scale=2, seed=4)),
            (gen_shapes, dict(n=2, side=8, shape_kind="disk", palette="dark", seed=5)),
            (gen_moving_dot, dict(n_seqs=2, length=3, side=16, appearance="hollow", motion_style="static", seed=6)),
            (gen_ring, dict(n=5, seed=7)),
        ],
        ids=["ring", "shapes", "moving_dot", "ring-defaults"],
    )
    def test_descriptor_holds_every_signature_parameter(self, fn, call):
        hints = get_type_hints(fn)
        signature = inspect.signature(fn).parameters
        desc = fn(**call).descriptor
        assert list(desc.params) == [k for k in signature if k != "seed"]
        for key, value in desc.params.items():
            expected = call.get(key, signature[key].default)
            assert type(value) is hints[key] and value == expected, key
        assert desc.seed == call["seed"]

    @pytest.mark.parametrize("line, key", [("ring n=5 n=7 modes=3 seed=1", "n"), ("ring n=5 modes=3 seed=1 seed=2", "seed")])
    def test_repeated_key_rejected(self, line, key):
        with pytest.raises(ValueError, match=f"'{key}' given twice"):
            parse_descriptor(line)

    @pytest.mark.parametrize(
        "line, key, typ",
        [("ring n=abc seed=0", "n", "int"), ("ring n=5 radius=wide seed=0", "radius", "float"), ("ring n=5 seed=x", "seed", "int")],
    )
    def test_bad_value_names_key_and_type(self, line, key, typ):
        with pytest.raises(ValueError, match=f"key '{key}' expects {typ}"):
            parse_descriptor(line)


class TestPpm:
    def test_header_layout_exact(self, tmp_path):
        p = tmp_path / "z.ppm"
        save_ppm(np.zeros((2, 2), dtype=np.float32), p)
        assert p.read_bytes() == b"P5\n2 2\n255\n" + bytes(4)

    def test_half_quantizes_to_128(self, tmp_path):
        p = tmp_path / "h.ppm"
        save_ppm(np.full((1, 1, 1), 0.5, dtype=np.float32), p)
        assert p.read_bytes()[-1] == 128

    def test_p5_round_trip_bit_exact(self, tmp_path):
        rng_ = np.random.default_rng(24)
        img = rng_.uniform(0, 1, size=(1, 5, 4)).astype(np.float32)
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        save_ppm(img, p1)
        save_ppm(load_ppm(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_p6_round_trip_bit_exact(self, tmp_path):
        rng_ = np.random.default_rng(25)
        img = rng_.uniform(0, 1, size=(3, 4, 6)).astype(np.float32)
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        save_ppm(img, p1)
        loaded = load_ppm(p1)
        assert loaded.shape == (3, 4, 6)
        save_ppm(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @given(st.lists(st.floats(0.0, 1.0, width=32), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_quantization_error_bound(self, vals):
        import tempfile
        from pathlib import Path

        img = np.array(vals, dtype=np.float32).reshape(1, 2, 2)
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "q.ppm"
            save_ppm(img, p)
            back = load_ppm(p).data
        assert np.abs(back - img).max() <= 1.0 / 510.0 + 1e-7

    def test_comment_in_header_tolerated(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P5\n# a comment\n2 1\n255\n\x00\xff")
        img = load_ppm(p).data
        np.testing.assert_allclose(img[0, 0], [0.0, 1.0])

    @pytest.mark.parametrize(
        "raw,match",
        [
            (b"P4\n1 1\n255\n\x00", "magic"),
            (b"P5\n1 1\n254\n\x00", "maxval"),
            (b"P5\n2 2\n255\n\x00\x00", "mismatch"),
            (b"P5\n2 2\n255\n" + bytes(9), "mismatch"),
            (b"P5\n1 1", "truncated"),
            (b"P5\nx 1\n255\n\x00", "unexpected byte"),
        ],
    )
    def test_malformed_rejected_with_offset(self, tmp_path, raw, match):
        p = tmp_path / "bad.ppm"
        p.write_bytes(raw)
        with pytest.raises(PpmError, match=match):
            load_ppm(p)

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(PpmError, match=r"\[0, 1\]"):
            save_ppm(np.full((1, 2, 2), 1.5, dtype=np.float32), tmp_path / "x.ppm")

    def test_bad_shape_rejected(self, tmp_path):
        with pytest.raises(PpmError, match="image must be"):
            save_ppm(np.zeros((2, 2, 2), dtype=np.float32), tmp_path / "x.ppm")
