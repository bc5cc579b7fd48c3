"""Procedural two-domain benchmark data and dataset/image file formats.

Every dataset is a pure function of its descriptor (generator name,
parameters, seed): checkpoints and logs store the one-line descriptor and
regenerate the arrays bitwise instead of persisting them. The two domains
of a benchmark come from independent calls with different seeds and sizes,
so nothing is paired by construction.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import get_type_hints

import numpy as np

from . import rng
from .tensor import Tensor

__all__ = [
    "DomainDescriptor",
    "DomainDataset",
    "gen_ring",
    "gen_shapes",
    "gen_moving_dot",
    "expected_shape_area",
    "generate",
    "with_count",
    "descriptor_line",
    "parse_descriptor",
    "ring_mode_centers",
    "ring_mode_std",
    "dot_trajectories",
    "centroids",
    "save_ppm",
    "load_ppm",
    "PpmError",
]


@dataclass(frozen=True)
class DomainDescriptor:
    """Generator name, its keyword parameters, and the seed."""

    name: str
    params: dict
    seed: int

    def __post_init__(self):
        if self.name not in _GENERATORS:
            raise ValueError(f"unknown generator {self.name!r}; known: {sorted(_GENERATORS)}")


@dataclass
class DomainDataset:
    """Generated examples plus the descriptor that reproduces them.

    ``examples`` is one array: (n, 2) for points, (n, C, H, W) for images,
    (n, T, C, H, W) for sequences.
    """

    kind: str
    examples: np.ndarray
    descriptor: DomainDescriptor

    @property
    def sample_shape(self) -> tuple:
        if self.kind == "sequences":
            return tuple(self.examples.shape[2:])
        return tuple(self.examples.shape[1:])

    def __len__(self) -> int:
        return self.examples.shape[0]


# ---------------------------------------------------------------------------
# Point rings
# ---------------------------------------------------------------------------


def gen_ring(
    n: int,
    modes: int = 8,
    radius: float = 1.6,
    mode_std: float = 0.15,
    rotation: float = 0.0,
    scale: float = 1.0,
    seed: int = 0,
) -> DomainDataset:
    """Equal-weight Gaussian mixture on a ring of ``modes`` centers.

    A point is scale * Rot(rotation) @ (center_j + mode_std * N(0, I)) with
    j uniform. radius = 0 collapses all centers to the origin (a single
    Gaussian blob). rotation and scale let a second call with another seed
    define a structurally related counterpart domain.
    """
    for key, val in (("radius", radius), ("mode_std", mode_std), ("rotation", rotation), ("scale", scale)):
        if not np.isfinite(val):
            raise ValueError(f"{key} must be finite, got {val}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if mode_std <= 0:
        raise ValueError(f"mode_std must be > 0, got {mode_std}")
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    desc = _describe("ring", locals())
    g = rng.dataset_stream(seed)
    centers = _ring_centers(modes, radius)
    which = g.integers(0, modes, size=n)
    noise = g.standard_normal(size=(n, 2)) * mode_std
    pts = centers[which] + noise
    rot = _rotation_matrix(rotation)
    pts = (scale * (pts @ rot.T)).astype(np.float32)
    return DomainDataset("points", pts, desc)


def _ring_centers(modes: int, radius: float) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(modes) / modes
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _rotation_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def ring_mode_centers(desc: DomainDescriptor) -> np.ndarray:
    """Effective (modes, 2) centers after the domain's rotation and scale."""
    p = desc.params
    rot = _rotation_matrix(p["rotation"])
    return p["scale"] * (_ring_centers(p["modes"], p["radius"]) @ rot.T)


def ring_mode_std(desc: DomainDescriptor) -> float:
    """Effective per-mode standard deviation after scaling."""
    return desc.params["scale"] * desc.params["mode_std"]


# ---------------------------------------------------------------------------
# Shape images
# ---------------------------------------------------------------------------

_PALETTES = {
    # (foreground low, high), (background low, high); all inside [0, 1]
    "bright": ((0.7, 1.0), (0.0, 0.15)),
    "dark": ((0.0, 0.3), (0.85, 1.0)),
}


def gen_shapes(
    n: int,
    side: int = 16,
    shape_kind: str = "square",
    palette: str = "bright",
    seed: int = 0,
) -> DomainDataset:
    """Grayscale images of one randomly placed and sized shape each.

    Size law: the shape extent L (square side, disk diameter) is a uniform
    integer in [side//4, side//2]; position is uniform among placements that
    keep the shape fully inside. Foreground and background levels are
    uniform in the palette's ranges, so values stay in [0, 1].
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if side < 8:
        raise ValueError(f"side must be >= 8, got {side}")
    if shape_kind not in ("square", "disk"):
        raise ValueError(f"shape_kind must be square or disk, got {shape_kind!r}")
    if palette not in _PALETTES:
        raise ValueError(f"palette must be one of {sorted(_PALETTES)}, got {palette!r}")
    desc = _describe("shapes", locals())
    g = rng.dataset_stream(seed)
    (fg_lo, fg_hi), (bg_lo, bg_hi) = _PALETTES[palette]
    lo, hi = side // 4, side // 2
    imgs = np.empty((n, 1, side, side), dtype=np.float32)
    for i in range(n):
        extent = int(g.integers(lo, hi + 1))
        row = int(g.integers(0, side - extent + 1))
        col = int(g.integers(0, side - extent + 1))
        bg = g.uniform(bg_lo, bg_hi)
        fg = g.uniform(fg_lo, fg_hi)
        img = np.full((side, side), bg, dtype=np.float32)
        mask = _shape_mask(shape_kind, extent, row, col, side)
        img[mask] = fg
        imgs[i, 0] = img
    return DomainDataset("images", imgs, desc)


def _shape_mask(kind: str, extent: int, row: int, col: int, side: int) -> np.ndarray:
    if kind == "square":
        mask = np.zeros((side, side), dtype=bool)
        mask[row : row + extent, col : col + extent] = True
        return mask
    # disk inscribed in the extent x extent box: center at box middle,
    # radius extent/2, pixel centers within the radius are foreground
    cy, cx = row + (extent - 1) / 2.0, col + (extent - 1) / 2.0
    r = extent / 2.0
    yy, xx = np.mgrid[0:side, 0:side]
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r


def expected_shape_area(desc: DomainDescriptor) -> float:
    """Exact expected foreground pixel count under the documented size law."""
    p = desc.params
    side = p["side"]
    lo, hi = side // 4, side // 2
    areas = []
    for extent in range(lo, hi + 1):
        # placement does not change area; enumerate one placement
        areas.append(_shape_mask(p["shape_kind"], extent, 0, 0, side).sum())
    return float(np.mean(areas))


# ---------------------------------------------------------------------------
# Moving-dot sequences
# ---------------------------------------------------------------------------

_SPRITES = {
    # name -> (radius band lo, hi): pixels whose center distance d from the
    # sprite center satisfies lo <= d <= hi are lit. Both are symmetric, so
    # the intensity centroid sits exactly on the (integer) sprite center.
    "solid": (0.0, 2.0),
    "hollow": (2.5, 3.5),
}
_SPRITE_MARGIN = 4  # largest sprite extent; keeps sprites fully inside


def gen_moving_dot(
    n_seqs: int,
    length: int = 12,
    side: int = 16,
    appearance: str = "solid",
    motion_style: str = "bounce",
    seed: int = 0,
) -> DomainDataset:
    """Sequences of one sprite moving under a shared bouncing law.

    Appearance (sprite shape) differs between domains while the motion law
    does not, so translation quality and motion preservation are separately
    measurable. Frames are (n, T, 1, side, side) in [0, 1]; sprites render
    at integer positions (rounded from the continuous trajectory), keeping
    intensity centroids within half a pixel of the true trajectory.
    """
    if n_seqs < 1:
        raise ValueError(f"n_seqs must be >= 1, got {n_seqs}")
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    if side < 4 * _SPRITE_MARGIN:
        raise ValueError(f"side must be >= {4 * _SPRITE_MARGIN}, got {side}")
    if appearance not in _SPRITES:
        raise ValueError(f"appearance must be one of {sorted(_SPRITES)}, got {appearance!r}")
    if motion_style not in ("bounce", "static"):
        raise ValueError(f"motion_style must be bounce or static, got {motion_style!r}")
    desc = _describe("moving_dot", locals())
    traj = dot_trajectories(desc)
    lo_band, hi_band = _SPRITES[appearance]
    frames = np.zeros((n_seqs, length, 1, side, side), dtype=np.float32)
    yy, xx = np.mgrid[0:side, 0:side]
    for i in range(n_seqs):
        for t in range(length):
            cy, cx = np.round(traj[i, t]).astype(int)
            d2 = (yy - cy) ** 2 + (xx - cx) ** 2
            mask = (d2 >= lo_band * lo_band) & (d2 <= hi_band * hi_band)
            frames[i, t, 0][mask] = 1.0
    return DomainDataset("sequences", frames, desc)


def dot_trajectories(desc: DomainDescriptor) -> np.ndarray:
    """Continuous (n, T, 2) trajectories the sprite renderer rounds from.

    Recomputable from the descriptor alone; used as the motion oracle.
    """
    p = desc.params
    n, length, side = p["n_seqs"], p["length"], p["side"]
    g = rng.dataset_stream(desc.seed)
    lo = float(_SPRITE_MARGIN)
    hi = float(side - 1 - _SPRITE_MARGIN)
    traj = np.zeros((n, length, 2))
    for i in range(n):
        pos = g.uniform(lo, hi, size=2)
        vel = g.uniform(-2.0, 2.0, size=2)
        if p["motion_style"] == "static":
            vel[:] = 0.0
        for t in range(length):
            traj[i, t] = pos
            pos = pos + vel
            for axis in range(2):
                if pos[axis] < lo:
                    pos[axis] = 2 * lo - pos[axis]
                    vel[axis] = -vel[axis]
                elif pos[axis] > hi:
                    pos[axis] = 2 * hi - pos[axis]
                    vel[axis] = -vel[axis]
    return traj


def centroids(frames: np.ndarray) -> np.ndarray:
    """Intensity-weighted (row, col) centroid of each frame.

    Accepts (..., C, H, W); channels are summed. All-dark frames map to the
    frame center.
    """
    arr = np.asarray(frames, dtype=np.float64)
    mass = arr.sum(axis=-3)
    h, w = mass.shape[-2:]
    total = mass.sum(axis=(-1, -2))
    rows = (mass.sum(axis=-1) * np.arange(h)).sum(axis=-1)
    cols = (mass.sum(axis=-2) * np.arange(w)).sum(axis=-1)
    safe = np.where(total > 0, total, 1.0)
    out = np.stack([rows / safe, cols / safe], axis=-1)
    fallback = np.array([(h - 1) / 2.0, (w - 1) / 2.0])
    return np.where(total[..., None] > 0, out, fallback)


# ---------------------------------------------------------------------------
# Descriptor text form and regeneration
# ---------------------------------------------------------------------------

_GENERATORS = {"ring": gen_ring, "shapes": gen_shapes, "moving_dot": gen_moving_dot}


def _schema(fn) -> dict[str, type]:
    """Descriptor keys of a generator: its parameters but ``seed``, in order, typed by annotation."""
    hints = get_type_hints(fn)
    return {key: hints[key] for key in inspect.signature(fn).parameters if key != "seed"}


# generator name -> {key: type}, read once from the signatures
_SCHEMAS = {name: _schema(fn) for name, fn in _GENERATORS.items()}


def _describe(name: str, args: dict) -> DomainDescriptor:
    """The descriptor of a generator call, from its arguments (its ``locals()``)."""
    return DomainDescriptor(name, {key: typ(args[key]) for key, typ in _SCHEMAS[name].items()}, args["seed"])


def generate(desc: DomainDescriptor) -> DomainDataset:
    """Re-run the descriptor's generator; output is bitwise reproducible."""
    unknown = set(desc.params) - set(_SCHEMAS[desc.name])
    if unknown:
        raise ValueError(f"{desc.name}: unknown parameters {sorted(unknown)}")
    return _GENERATORS[desc.name](seed=desc.seed, **desc.params)


def with_count(desc: DomainDescriptor, count: int) -> DomainDescriptor:
    """The same descriptor with its example count (``n`` or ``n_seqs``) set to ``count``."""
    params = dict(desc.params)
    for key in ("n", "n_seqs"):
        if key in params:
            params[key] = count
    return replace(desc, params=params)


def descriptor_line(desc: DomainDescriptor) -> str:
    """One-line text form: name, key=value pairs in signature order, seed."""
    parts = [desc.name]
    for key in _SCHEMAS[desc.name]:
        if key in desc.params:
            val = desc.params[key]
            parts.append(f"{key}={val!r}" if isinstance(val, str) else f"{key}={val}")
    parts.append(f"seed={desc.seed}")
    return " ".join(parts)


def parse_descriptor(line: str) -> DomainDescriptor:
    """Inverse of descriptor_line; round-trips exactly. Keys may not repeat."""
    tokens = line.split()
    if not tokens:
        raise ValueError("empty descriptor line")
    name = tokens[0]
    if name not in _GENERATORS:
        raise ValueError(f"unknown generator {name!r} in descriptor line")
    types = {**_SCHEMAS[name], "seed": int}
    params: dict = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ValueError(f"malformed descriptor token {tok!r}")
        key, val = tok.split("=", 1)
        if key not in types:
            raise ValueError(f"{name}: unknown descriptor key {key!r}")
        if key in params:
            raise ValueError(f"{name}: descriptor key {key!r} given twice")
        typ = types[key]
        try:
            params[key] = val.strip("'\"") if typ is str else typ(val)
        except ValueError:
            raise ValueError(f"{name}: descriptor key {key!r} expects {typ.__name__}, got {val!r}") from None
    if "seed" not in params:
        raise ValueError("descriptor line missing seed")
    seed = params.pop("seed")
    return DomainDescriptor(name, params, seed)


# ---------------------------------------------------------------------------
# PPM image files (binary P5 grayscale / P6 color, maxval 255)
# ---------------------------------------------------------------------------


class PpmError(ValueError):
    """Malformed PPM file; message carries the byte offset of the fault."""


def _quantize(values: np.ndarray) -> np.ndarray:
    # round half up: 0.5 -> 128
    return np.floor(values * 255.0 + 0.5).astype(np.uint8)


def save_ppm(image, path) -> None:
    """Write a [0,1] image as binary PPM: (H,W) or (1,H,W) -> P5, (3,H,W) -> P6."""
    arr = image.data if isinstance(image, Tensor) else np.asarray(image)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[0] not in (1, 3):
        raise PpmError(f"image must be (H,W), (1,H,W) or (3,H,W), got {arr.shape}")
    if not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > 1.0:
        raise PpmError("image values must lie in [0, 1]")
    c, h, w = arr.shape
    magic = b"P5" if c == 1 else b"P6"
    header = magic + f"\n{w} {h}\n255\n".encode()
    payload = _quantize(arr.transpose(1, 2, 0)).tobytes()
    with open(path, "wb") as fh:
        fh.write(header + payload)


def load_ppm(path) -> Tensor:
    """Read a binary P5/P6 file back to a float32 (C,H,W) tensor in [0,1]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] not in (b"P5", b"P6"):
        raise PpmError(f"{path}: bad magic (offset 0)")
    channels = 1 if raw[:2] == b"P5" else 3
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        if pos >= len(raw):
            raise PpmError(f"{path}: truncated header (offset {pos})")
        ch = raw[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(raw) and raw[pos : pos + 1].isdigit():
                pos += 1
            fields.append(int(raw[start:pos]))
        else:
            raise PpmError(f"{path}: unexpected byte in header (offset {pos})")
    w, h, maxval = fields
    if maxval != 255:
        raise PpmError(f"{path}: unsupported maxval {maxval} (offset {pos - len(str(maxval))})")
    if pos >= len(raw) or not raw[pos : pos + 1].isspace():
        raise PpmError(f"{path}: expected whitespace after maxval (offset {pos})")
    pos += 1  # single whitespace byte after maxval
    expected = pos + w * h * channels
    if len(raw) != expected:
        raise PpmError(f"{path}: payload size mismatch (offset {min(len(raw), expected)})")
    data = np.frombuffer(raw, dtype=np.uint8, offset=pos).reshape(h, w, channels)
    return Tensor((data.transpose(2, 0, 1) / 255.0).astype(np.float32))
