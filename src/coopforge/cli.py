"""Command-line front end: dataset generation, training, translation, eval.

Runs are described by a plain key=value config file (``#`` starts a comment)
whose keys mirror the training inputs; any key can be overridden on the
command line with ``--key value``. Every command exits 0 exactly when all of
its artifacts were written, and prints a one-line cause on failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domains import (
    DomainDescriptor,
    descriptor_line,
    generate,
    load_ppm,
    parse_descriptor,
    ring_mode_centers,
    ring_mode_std,
    save_ppm,
    with_count,
)
from .evaluation import eval_descriptor, eval_frames, evaluate, rasterize_points, run_translator, translate_sequence
from .langevin import LangevinConfig, revise
from .metrics import default_feature_map, mode_coverage, psnr
from .objectives import LossWeights
from .rng import PURPOSE_DATA, stream
from .tensor import load_ctns, save_ctns
from .trainer import TrainConfig, load_checkpoint, train

__all__ = ["RunConfig", "CONFIG_SPEC", "build_parser", "main"]


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


_REQUIRED = object()

# key -> (converter, default); _REQUIRED means the config must supply it.
CONFIG_SPEC: dict = {
    "iterations": (int, _REQUIRED),
    "langevin_steps": (int, 15),
    "step_size": (float, 0.02),
    "noise_scale": (float, 1.0),
    "lr_theta_x": (float, 2e-4),
    "lr_theta_y": (float, 2e-4),
    "lr_alpha_x": (float, 2e-4),
    "lr_alpha_y": (float, 2e-4),
    "batch": (int, 1),
    "lambda_cyc": (float, 9.0),
    "lambda1": (float, 9.0),
    "lambda2": (float, 9.0),
    "k": (int, 2),
    "seed": (int, 0),
    "eval_every": (int, 100),
    "checkpoint_every": (int, 500),
    "eval_samples": (int, 200),
    "reference_scale": (float, 1.0),
    "sequence_cycle": (_parse_bool, False),
    "domain_x": (str, _REQUIRED),
    "domain_y": (str, _REQUIRED),
    "out": (str, _REQUIRED),
}


def _strip_comment(line: str) -> str:
    # a '#' opens a comment at line start or after whitespace, so descriptor
    # values containing '#' in other positions would survive
    for i, ch in enumerate(line):
        if ch == "#" and (i == 0 or line[i - 1] in " \t"):
            return line[:i]
    return line


@dataclass(frozen=True)
class RunConfig:
    """One training run, as read from a key=value file."""

    iterations: int
    langevin_steps: int
    step_size: float
    noise_scale: float
    lr_theta_x: float
    lr_theta_y: float
    lr_alpha_x: float
    lr_alpha_y: float
    batch: int
    lambda_cyc: float
    lambda1: float
    lambda2: float
    k: int
    seed: int
    eval_every: int
    checkpoint_every: int
    eval_samples: int
    reference_scale: float
    sequence_cycle: bool
    domain_x: str
    domain_y: str
    out: str

    @classmethod
    def parse_text(cls, text: str, overrides: dict | None = None) -> "RunConfig":
        """Parse config text; ``overrides`` (key -> raw string) wins over it."""
        raw: dict[str, str] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = _strip_comment(line).strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"config line {lineno}: expected key=value, got {body!r}")
            key, value = body.split("=", 1)
            key, value = key.strip(), value.strip()
            if key not in CONFIG_SPEC:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            if key in raw:
                raise ValueError(f"config line {lineno}: duplicate key {key!r}")
            raw[key] = value
        for key, value in (overrides or {}).items():
            if key not in CONFIG_SPEC:
                raise ValueError(f"unknown config key {key!r}")
            raw[key] = value
        kwargs = {}
        for key, (convert, default) in CONFIG_SPEC.items():
            if key in raw:
                try:
                    kwargs[key] = convert(raw[key])
                except ValueError as err:
                    raise ValueError(f"config key {key}: {err}") from None
            elif default is _REQUIRED:
                raise ValueError(f"config key {key!r} is required")
            else:
                kwargs[key] = default
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise FileNotFoundError(f"config file {path} not found")
        return cls.parse_text(path.read_text(), overrides)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            iterations=self.iterations,
            langevin=LangevinConfig(self.langevin_steps, self.step_size, self.noise_scale, seed=self.seed),
            batch=self.batch,
            lr_theta_x=self.lr_theta_x,
            lr_theta_y=self.lr_theta_y,
            lr_alpha_x=self.lr_alpha_x,
            lr_alpha_y=self.lr_alpha_y,
            weights=LossWeights(self.lambda_cyc, self.lambda1, self.lambda2),
            k=self.k,
            seed=self.seed,
            eval_every=self.eval_every,
            checkpoint_every=self.checkpoint_every,
            eval_samples=self.eval_samples,
            reference_scale=self.reference_scale,
            sequence_cycle=self.sequence_cycle,
        )

    def descriptors(self) -> tuple[DomainDescriptor, DomainDescriptor]:
        return parse_descriptor(self.domain_x), parse_descriptor(self.domain_y)


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _tile(frames: np.ndarray, columns: int = 8) -> np.ndarray:
    """Row-major (n, C, H, W) -> single (C, rows*H, cols*W) canvas."""
    n, c, h, w = frames.shape
    cols = min(columns, n)
    rows = (n + cols - 1) // cols
    canvas = np.zeros((c, rows * h, cols * w), dtype=np.float64)
    for i in range(n):
        r, q = divmod(i, cols)
        canvas[:, r * h : (r + 1) * h, q * w : (q + 1) * w] = frames[i]
    return np.clip(canvas, 0.0, 1.0)


def _preview(examples: np.ndarray, kind: str) -> np.ndarray:
    if kind == "points":
        return rasterize_points(examples)
    if kind == "images":
        return _tile(examples[:16])
    return _tile(examples[0])  # sequences: the first clip, frame by frame


def _read_sample(path: Path) -> np.ndarray:
    if path.suffix == ".ppm":
        return load_ppm(path).data
    if path.suffix == ".ctns":
        return load_ctns(path).data
    raise ValueError(f"unsupported input {path}: expected .ppm or .ctns")


def _write_like(src: Path, sample: np.ndarray, out_dir: Path) -> Path:
    dest = out_dir / src.name
    if src.suffix == ".ppm":
        save_ppm(np.clip(sample, 0.0, 1.0), dest)
    else:
        save_ctns(sample, dest)
    return dest


def _translate_batch(batch: np.ndarray, g, model, lng: LangevinConfig) -> np.ndarray:
    moved = run_translator(g, batch)
    return moved if lng.steps == 0 else revise(moved, model, lng)


def _collect_overrides(args: argparse.Namespace) -> dict:
    return {k: v for k in CONFIG_SPEC if (v := getattr(args, k, None)) is not None}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    desc = parse_descriptor(args.descriptor)
    ds = generate(desc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_ctns(ds.examples, out / "examples.ctns")
    (out / "descriptor.txt").write_text(descriptor_line(desc) + "\n")
    save_ppm(_preview(ds.examples, ds.kind), out / "preview.ppm")
    print(f"wrote {len(ds)} {ds.kind} examples to {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    run = RunConfig.from_file(args.config, _collect_overrides(args))
    desc_x, desc_y = run.descriptors()
    state, metrics_path = train(run.train_config(), desc_x, desc_y, run.out, resume_from=args.resume)
    print(f"wrote {metrics_path}")
    print(metrics_path.read_text().strip().splitlines()[-1])
    return 0


def cmd_translate(args: argparse.Namespace) -> int:
    state, cfg, _, _ = load_checkpoint(args.checkpoint)
    if args.direction == "x2y":
        g, model = state.g_xy, state.ebm_y
    else:
        g, model = state.g_yx, state.ebm_x
    lng = LangevinConfig(
        steps=cfg.langevin.steps if args.langevin_steps is None else args.langevin_steps,
        step_size=cfg.langevin.step_size if args.step_size is None else args.step_size,
        noise_scale=cfg.langevin.noise_scale if args.noise_scale is None else args.noise_scale,
        seed=cfg.langevin.seed if args.seed is None else args.seed,
    )
    in_path = Path(args.input)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if in_path.is_dir():
        files = sorted(p for p in in_path.iterdir() if p.suffix in (".ppm", ".ctns"))
        if not files:
            raise ValueError(f"no .ppm or .ctns inputs in {in_path}")
        frames = np.stack([_read_sample(p) for p in files])
        moved = translate_sequence(frames, g, model, lng)
        for src, frame in zip(files, moved):
            written.append(_write_like(src, frame, out))
    elif in_path.suffix == ".ppm":
        image = _read_sample(in_path)
        moved = _translate_batch(image[None], g, model, lng)[0]
        written.append(_write_like(in_path, moved, out))
    else:
        arr = _read_sample(in_path)
        if arr.ndim in (1, 3):  # one point / one image
            moved = _translate_batch(arr[None], g, model, lng)[0]
        elif arr.ndim in (2, 4):  # point batch / frame stack
            moved = _translate_batch(arr, g, model, lng)
        elif arr.ndim == 5:  # batch of sequences
            moved = np.stack([translate_sequence(seq, g, model, lng) for seq in arr])
        else:
            raise ValueError(f"cannot translate rank-{arr.ndim} input {in_path}")
        written.append(_write_like(in_path, moved, out))

    print(f"wrote {len(written)} translated file(s) to {out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    state, cfg, desc_x, desc_y = load_checkpoint(args.checkpoint)
    ds_x = generate(eval_descriptor(desc_x, cfg))
    ds_y = generate(eval_descriptor(desc_y, cfg))
    eval_x, eval_y = eval_frames(ds_x), eval_frames(ds_y)
    fm = default_feature_map(ds_x.sample_shape)
    scores = evaluate(state, eval_x, eval_y, cfg, fm)

    mode_min = mode_unc = float("nan")
    if desc_y.name == "ring":
        cov = mode_coverage(run_translator(state.g_xy, eval_x), ring_mode_centers(desc_y), 3.0 * ring_mode_std(desc_y))
        mode_min, mode_unc = float(cov.fractions.min()), cov.uncaptured

    pair_psnr = float("nan")
    if ds_x.kind == "sequences" and _motion_paired(desc_x, desc_y):
        translated = run_translator(state.g_xy, eval_x)
        pair_psnr = float(np.mean([psnr(t, y, 1.0) for t, y in zip(translated, eval_y)]))

    row = {
        "fd_x": scores["fd_x"],
        "fd_y": scores["fd_y"],
        "cycle_err": scores["cycle_err"],
        "mode_min": mode_min,
        "mode_uncaptured": mode_unc,
        "psnr": pair_psnr,
    }
    out = Path(args.out) if args.out else Path(args.checkpoint)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "eval.csv"
    csv_path.write_text(",".join(row) + "\n" + ",".join(repr(float(v)) for v in row.values()) + "\n")
    for key, value in row.items():
        print(f"{key}={value!r}")
    print(f"wrote {csv_path}")
    return 0


def _motion_paired(desc_x: DomainDescriptor, desc_y: DomainDescriptor) -> bool:
    """Same trajectories on both sides: appearance may differ, nothing else."""
    px = {k: v for k, v in desc_x.params.items() if k != "appearance"}
    py = {k: v for k, v in desc_y.params.items() if k != "appearance"}
    return desc_x.seed == desc_y.seed and px == py


def cmd_sample(args: argparse.Namespace) -> int:
    state, cfg, desc_x, desc_y = load_checkpoint(args.checkpoint)
    desc = desc_x if args.domain == "x" else desc_y
    model = state.ebm_x if args.domain == "x" else state.ebm_y
    shape = generate(with_count(desc, 3)).sample_shape
    lng = LangevinConfig(
        steps=cfg.langevin.steps if args.steps is None else args.steps,
        step_size=cfg.langevin.step_size if args.step_size is None else args.step_size,
        noise_scale=cfg.langevin.noise_scale if args.noise_scale is None else args.noise_scale,
        seed=args.seed,
    )
    gen = stream(args.seed, PURPOSE_DATA, a=args.count, b=0)
    x0 = (cfg.reference_scale * gen.standard_normal((args.count,) + shape)).astype(np.float32)
    samples = revise(x0, model, lng)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_ctns(samples, out / "samples.ctns")
    grid = rasterize_points(samples) if samples.ndim == 2 else _tile(samples)
    save_ppm(grid, out / "samples.ppm")
    print(f"wrote {args.count} samples to {out}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coopforge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a procedural dataset from a descriptor line")
    p.add_argument("descriptor", help='e.g. "ring n=200 modes=8 radius=1.6 mode_std=0.18 rotation=0.0 scale=1.0 seed=1"')
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="run the training loop from a config file")
    p.add_argument("config", help="key=value config file")
    p.add_argument("--resume", default=None, metavar="CKPT", help="checkpoint directory to continue from")
    for key in CONFIG_SPEC:
        p.add_argument(f"--{key}", default=None, metavar="VALUE", help=f"override config key {key}")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("translate", help="translate files with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help=".ctns/.ppm file, or a directory of frames")
    p.add_argument("--direction", required=True, choices=("x2y", "y2x"))
    p.add_argument("--langevin-steps", type=int, default=None, help="revision steps (0 = raw translator output)")
    p.add_argument("--step-size", type=float, default=None)
    p.add_argument("--noise-scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help="revision noise seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("eval", help="score a checkpoint against held-out data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None, help="directory for eval.csv (default: the checkpoint)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="draw from one energy model, starting at its reference")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--domain", required=True, choices=("x", "y"))
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--step-size", type=float, default=None)
    p.add_argument("--noise-scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
