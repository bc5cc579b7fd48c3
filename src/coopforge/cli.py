"""Command-line front end: dataset generation, training, translation, eval.

Runs are described by a plain key=value config file (``#`` starts a comment)
whose keys are read off the fields of ``RunConfig`` and of the ``TrainConfig``
it holds; any key can be overridden on the command line with ``--key value``.
Every command exits 0 exactly when all of its artifacts were written, and
prints a one-line cause on failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

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
)
from .evaluation import evaluate, held_out_sets, rasterize_points, translate_sequence
from .langevin import LangevinConfig, revise
from .metrics import mode_coverage, psnr
from .rng import PURPOSE_DATA, stream
from .tensor import ShapeError, load_ctns, save_ctns
from .trainer import TrainConfig, config_from_dict, load_checkpoint, train

__all__ = ["RunConfig", "build_parser", "main"]


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


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

    train: TrainConfig
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
            if key not in _CONFIG_KEYS:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            if key in raw:
                raise ValueError(f"config line {lineno}: duplicate key {key!r}")
            raw[key] = value
        for key, value in (overrides or {}).items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            raw[key] = value
        tree: dict = {}
        for key, (path, convert, default) in _CONFIG_KEYS.items():
            if key in raw:
                try:
                    value = convert(raw[key])
                except ValueError as err:
                    raise ValueError(f"config key {key}: {err}") from None
            elif default is MISSING:
                raise ValueError(f"config key {key!r} is required")
            else:
                value = default
            node = tree
            for name in path[:-1]:
                node = node.setdefault(name, {})
            node[path[-1]] = value
        tree["train"]["langevin"]["seed"] = tree["train"]["seed"]  # the run seed keys the noise too
        return config_from_dict(cls, tree)

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise FileNotFoundError(f"config file {path} not found")
        return cls.parse_text(path.read_text(), overrides)

    def descriptors(self) -> tuple[DomainDescriptor, DomainDescriptor]:
        return parse_descriptor(self.domain_x), parse_descriptor(self.domain_y)


# A scalar field under RunConfig is set by the key of its own name, except the
# sampler's steps (key langevin_steps) and seed (no key: the run seed sets it).
_KEY_OF = {("train", "langevin", "steps"): "langevin_steps", ("train", "langevin", "seed"): None}
_CONVERTERS = {int: int, float: float, bool: _parse_bool, str: str}


def _leaves(cls, path=(), defaults=None):
    """(key, path, type, default or MISSING) of each scalar field under ``cls``;
    a nested dataclass reads its defaults off its owner's default instance."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        default = f.default if defaults is None else getattr(defaults, f.name)
        if is_dataclass(hints[f.name]):
            yield from _leaves(hints[f.name], path + (f.name,), None if default is MISSING else default)
        else:
            yield _KEY_OF.get(path + (f.name,), f.name), path + (f.name,), hints[f.name], default


# key -> (path under RunConfig, converter, default or MISSING)
_CONFIG_KEYS = {key: (path, _CONVERTERS[kind], default) for key, path, kind, default in _leaves(RunConfig) if key}


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


def _given(args: argparse.Namespace, names) -> dict:
    """name -> value of each of these flags that was given on the command line."""
    return {k: v for k in names if (v := getattr(args, k)) is not None}


_SAMPLER_FLAGS = [f.name for f in fields(LangevinConfig)]  # the dests of translate's and sample's sampler flags


def _add_sampler_flags(p: argparse.ArgumentParser) -> None:
    """A flag per sampler config key (every sampler field but the seed), spelled like the key."""
    for key, (path, convert, _) in _CONFIG_KEYS.items():
        if path[:2] == ("train", "langevin"):
            doc = f"Langevin {path[-1]} (default: the checkpoint's)"
            p.add_argument("--" + key.replace("_", "-"), dest=path[-1], type=convert, default=None, help=doc)


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
    run = RunConfig.from_file(args.config, _given(args, _CONFIG_KEYS))
    desc_x, desc_y = run.descriptors()
    state, metrics_path = train(run.train, desc_x, desc_y, run.out, resume_from=args.resume)
    print(f"wrote {metrics_path}")
    print(metrics_path.read_text().strip().splitlines()[-1])
    return 0


def cmd_translate(args: argparse.Namespace) -> int:
    state, cfg, _, _ = load_checkpoint(args.checkpoint)
    if args.direction == "x2y":
        g, model = state.g_xy, state.ebm_y
    else:
        g, model = state.g_yx, state.ebm_x
    lng = replace(cfg.langevin, **_given(args, _SAMPLER_FLAGS))
    in_path = Path(args.input)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if in_path.is_dir():
        files = sorted(p for p in in_path.iterdir() if p.suffix in (".ppm", ".ctns"))
        if not files:
            raise ValueError(f"no .ppm or .ctns inputs in {in_path}")
        frames = [_read_sample(p) for p in files]
        for path, frame in zip(files, frames):
            if frame.shape != frames[0].shape:
                raise ShapeError(f"{path} has shape {frame.shape}, but {files[0]} has {frames[0].shape}")
        moved = translate_sequence(np.stack(frames), g, model, lng)
        written = [_write_like(src, frame, out) for src, frame in zip(files, moved)]
    else:
        arr = _read_sample(in_path)
        if arr.ndim in (1, 3):  # one point / one image
            moved = translate_sequence(arr[None], g, model, lng)[0]
        elif arr.ndim == 5 and len(arr):  # batch of sequences, each revised on its own chains
            moved = np.stack([translate_sequence(seq, g, model, lng) for seq in arr])
        else:  # point batch / frame stack; translate_sequence rejects other ranks and empty batches
            moved = translate_sequence(arr, g, model, lng)
        written = [_write_like(in_path, moved, out)]

    print(f"wrote {len(written)} translated file(s) to {out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    state, cfg, desc_x, desc_y = load_checkpoint(args.checkpoint)
    ds_x, eval_x, eval_y, fm = held_out_sets(desc_x, desc_y, cfg)
    scores, to_y = evaluate(state, eval_x, eval_y, fm)

    mode_min = mode_unc = float("nan")
    if desc_y.name == "ring":
        cov = mode_coverage(to_y, ring_mode_centers(desc_y), 3.0 * ring_mode_std(desc_y))
        mode_min, mode_unc = float(cov.fractions.min()), cov.uncaptured

    pair_psnr = float("nan")
    if ds_x.kind == "sequences" and _motion_paired(desc_x, desc_y):
        pair_psnr = float(np.mean([psnr(t, y, 1.0) for t, y in zip(to_y, eval_y)]))

    row = {**scores, "mode_min": mode_min, "mode_uncaptured": mode_unc, "psnr": pair_psnr}
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
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    state, cfg, _, _ = load_checkpoint(args.checkpoint)
    model = state.ebm_x if args.domain == "x" else state.ebm_y
    lng = replace(cfg.langevin, **_given(args, _SAMPLER_FLAGS))
    gen = stream(args.seed, PURPOSE_DATA, a=args.count, b=0)
    x0 = (model.reference_scale * gen.standard_normal((args.count,) + model.scorer.in_shape)).astype(np.float32)
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


def _add_gen(sub) -> None:
    p = sub.add_parser("gen", help="generate a procedural dataset from a descriptor line")
    p.add_argument("descriptor", help='e.g. "ring n=200 modes=8 radius=1.6 mode_std=0.18 rotation=0.0 scale=1.0 seed=1"')
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)


def _add_train(sub) -> None:
    p = sub.add_parser("train", help="run the training loop from a config file")
    p.add_argument("config", help="key=value config file")
    p.add_argument("--resume", default=None, metavar="CKPT", help="checkpoint directory to continue from")
    for key in _CONFIG_KEYS:
        p.add_argument(f"--{key}", default=None, metavar="VALUE", help=f"override config key {key}")
    p.set_defaults(func=cmd_train)


def _add_translate(sub) -> None:
    p = sub.add_parser("translate", help="translate files with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help=".ctns/.ppm file, or a directory of frames")
    p.add_argument("--direction", required=True, choices=("x2y", "y2x"))
    _add_sampler_flags(p)
    p.add_argument("--seed", type=int, default=None, help="revision noise seed (default: the checkpoint's)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_translate)


def _add_eval(sub) -> None:
    p = sub.add_parser("eval", help="score a checkpoint against held-out data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None, help="directory for eval.csv (default: the checkpoint)")
    p.set_defaults(func=cmd_eval)


def _add_sample(sub) -> None:
    p = sub.add_parser("sample", help="draw from one energy model, starting at its reference")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--domain", required=True, choices=("x", "y"))
    p.add_argument("--count", type=int, default=64)
    _add_sampler_flags(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the starting draws and the chain noise")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)


_COMMANDS = {"gen": _add_gen, "train": _add_train, "translate": _add_translate, "eval": _add_eval, "sample": _add_sample}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with only ``command``'s subparser, or with every one if ``command`` names none.

    Either way the usage line lists every command.
    """
    parser = argparse.ArgumentParser(prog="coopforge", description=__doc__.splitlines()[0])
    one = command in _COMMANDS
    sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}" if one else None)
    for name, add in _COMMANDS.items():
        if not one or name == command:
            add(sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
