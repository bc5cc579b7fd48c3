"""Bitwise output gate: this checkout and a parent checkout must write the same files.

    python3 scripts/same_outputs.py --parent /path/to/parent/checkout

Each side trains in its own subprocess, with ``PYTHONPATH=<side>/src`` and
``COOPFORGE_THREADS=1`` set before numpy loads, using the recipes of this
checkout's ``perfbench/recipes.py`` at seed 5:

- ring: the ring recipe, 200 iterations, ``eval_every=50``;
- dot: the moving-dot recipe, 12 iterations, ``eval_every=4``;
- dot_no_cycle: the same dot run with ``sequence_cycle=False``;
- shapes: a 4-iteration run on the shapes pair at the dot recipe's sampler.

Each run also writes ``state.json`` from the state ``train`` returns: the
clock and, per network, the sha256 of its parameters and of each Adam
moment, every digest taken over the bytes in ``params`` order.
``coopforge eval`` then runs on each final checkpoint, ``coopforge
translate --direction x2y`` with the checkpoint's own sampler on the first
held-out X example, written with ``save_ctns``, and ``coopforge sample
--domain y --count 8`` with the default sampler. On the dot run,
``translate`` also runs on the whole held-out X frame stack (its 120
frames in one ``.ctns``), so the gate covers translator and scorer
convolutions whose forwards build their columns in several blocks. Every
file a side wrote is hashed, ``metrics.csv`` with its ``seconds`` column
dropped.

The script prints each file that differs and exits 1 if any do. A file
found on one side only whose hash equals that of a file found on the other
side only prints as ``moved: <parent path> -> <change path>``. A ``.json``
file that differs is followed by each dotted key whose value differs, as
``<key>: <parent value> -> <change value>``, ``absent`` standing for a key
that side does not have. A ``metrics.csv`` that differs is followed by each
column whose values differ, other than ``seconds``, as ``<column>: <k> of
<n> rows differ, first at iter <i>: <parent value> -> <change value>``.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 5
SIDES = ("parent", "change")


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a.tobytes())
    return digest.hexdigest()


def state_digest(state) -> dict:
    """The clock and per network the digests of its parameters and moments."""
    nets = {}
    for name, net in state.nets().items():
        m, v = state.opt[name]
        nets[name] = {"params": _sha256(p.data for p in net.params.values()), "m": _sha256([m]), "v": _sha256([v])}
    return {"t": state.t, "nets": nets}


def run_side(out: str) -> None:
    """Train every run under ``out`` and record its final state, then eval
    its final checkpoint, translate one held-out example with it (on the
    dot run also the whole held-out frame stack) and sample from its Y model.

    Called in a side's subprocess after ``import coopforge``, so the BLAS
    thread cap is in place before numpy loads.
    """
    from dataclasses import replace

    import recipes
    from coopforge.cli import main
    from coopforge.domains import DomainDescriptor, generate
    from coopforge.evaluation import eval_descriptor
    from coopforge.tensor import save_ctns
    from coopforge.trainer import train

    shapes_x = DomainDescriptor("shapes", {"n": 12, "side": 16, "shape_kind": "square", "palette": "bright"}, seed=1)
    shapes_y = DomainDescriptor("shapes", {"n": 12, "side": 16, "shape_kind": "disk", "palette": "dark"}, seed=2)
    dot = replace(recipes.DOT_CONFIG, eval_every=4)
    runs = {
        "ring": (replace(recipes.RING_CONFIG, eval_every=50), 200, recipes.RING_X, recipes.RING_Y),
        "dot": (dot, 12, recipes.DOT_X, recipes.DOT_Y),
        "dot_no_cycle": (replace(dot, sequence_cycle=False), 12, recipes.DOT_X, recipes.DOT_Y),
        "shapes": (replace(recipes.DOT_CONFIG, eval_every=2, eval_samples=20), 4, shapes_x, shapes_y),
    }
    for name, (cfg, iterations, desc_x, desc_y) in runs.items():
        cfg, run_dir = recipes.seeded(cfg, SEED, iterations), Path(out) / name
        state, _ = train(cfg, desc_x, desc_y, run_dir)
        (run_dir / "state.json").write_text(json.dumps(state_digest(state), indent=1, sort_keys=True))
        ckpt, held_out = str(run_dir / f"ckpt_{state.t}"), generate(eval_descriptor(desc_x, cfg))
        # (input array, input file, output directory) of each translate request
        requests = [(held_out.examples[0], "held_out.ctns", "translated")]
        if name == "dot":
            frames = held_out.examples.reshape((-1,) + held_out.sample_shape)
            requests.append((frames, "held_out_frames.ctns", "translated_frames"))
        commands = [["eval", "--checkpoint", ckpt]]
        for example, in_name, out_name in requests:
            save_ctns(example, run_dir / in_name)
            commands.append(["translate", "--checkpoint", ckpt, "--input", str(run_dir / in_name), "--direction", "x2y", "--out", str(run_dir / out_name)])
        commands.append(["sample", "--checkpoint", ckpt, "--domain", "y", "--count", "8", "--out", str(run_dir / "sampled")])
        for args in commands:
            if main(args) != 0:
                raise RuntimeError(f"coopforge {args[0]} failed on {name}")


def _metrics_rows(path: Path) -> list[list[str]]:
    """The header and rows of a metrics.csv, its ``seconds`` column dropped."""
    lines = [row.split(",") for row in path.read_text().splitlines()]
    drop = lines[0].index("seconds")
    return [[v for i, v in enumerate(row) if i != drop] for row in lines]


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "metrics.csv":
        data = "\n".join(",".join(row) for row in _metrics_rows(path)).encode()
    return hashlib.sha256(data).hexdigest()


def hash_side(checkout: Path, out: Path) -> dict:
    env = {**os.environ, "COOPFORGE_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join([str(checkout / "src"), str(ROOT / "perfbench"), str(ROOT / "scripts")])
    code = f"import coopforge, same_outputs; same_outputs.run_side({str(out)!r})"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: the run in {checkout} failed:\n{proc.stderr}")
    return {str(p.relative_to(out)): _digest(p) for p in sorted(out.rglob("*")) if p.is_file()}


def _moves(hashes: dict) -> dict[str, str]:
    """Parent-only file -> a change-only file with the same hash."""
    unclaimed: dict[str, list[str]] = {}
    for name in sorted(hashes["change"].keys() - hashes["parent"].keys()):
        unclaimed.setdefault(hashes["change"][name], []).append(name)
    moves = {}
    for name in sorted(hashes["parent"].keys() - hashes["change"].keys()):
        if unclaimed.get(hashes["parent"][name]):
            moves[name] = unclaimed[hashes["parent"][name]].pop(0)
    return moves


def _leaves(value, key: str = "") -> dict:
    """Dotted key -> value of every non-object leaf of a JSON document."""
    if not (isinstance(value, dict) and value):
        return {key: value}
    out = {}
    for k, sub in value.items():
        out.update(_leaves(sub, f"{key}.{k}" if key else k))
    return out


def _json_changes(parent: Path, change: Path) -> list[str]:
    """One ``key: parent value -> change value`` line per differing dotted key."""
    old, new = (_leaves(json.loads(p.read_text())) for p in (parent, change))
    lines = []
    for key in sorted(old.keys() | new.keys()):
        was, now = (json.dumps(side[key]) if key in side else "absent" for side in (old, new))
        if was != now:
            lines.append(f"{key}: {was} -> {now}")
    return lines


def _csv_changes(parent: Path, change: Path) -> list[str]:
    """One line per metrics.csv column whose values differ, with its first difference."""
    (old_header, *old_rows), (new_header, *new_rows) = (_metrics_rows(p) for p in (parent, change))
    if old_header != new_header or len(old_rows) != len(new_rows):
        return [f"layout: {len(old_rows)} rows of {old_header} -> {len(new_rows)} rows of {new_header}"]
    lines = []
    for col, name in enumerate(old_header):
        rows = [(old[0], old[col], new[col]) for old, new in zip(old_rows, new_rows) if old[col] != new[col]]
        if rows:
            it, was, now = rows[0]
            lines.append(f"{name}: {len(rows)} of {len(old_rows)} rows differ, first at iter {it}: {was} -> {now}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent coopforge checkout")
    args = parser.parse_args(argv)
    checkouts = {"parent": Path(args.parent).resolve(), "change": ROOT}
    if not (checkouts["parent"] / "src" / "coopforge" / "__init__.py").is_file():
        sys.exit(f"error: no coopforge checkout at {checkouts['parent']}")
    with tempfile.TemporaryDirectory() as tmp:
        outs = {side: Path(tmp) / side for side in SIDES}
        hashes = {side: hash_side(checkouts[side], outs[side]) for side in SIDES}
        names = sorted(hashes["parent"].keys() | hashes["change"].keys())
        differ = [name for name in names if hashes["parent"].get(name) != hashes["change"].get(name)]
        moves = _moves(hashes)
        for name in differ:
            where = [side for side in SIDES if name in hashes[side]]
            if name in moves:
                print(f"moved: {name} -> {moves[name]}")
            elif len(where) == 2:
                print(f"differs: {name}")
                lines = []
                if name.endswith(".json"):
                    lines = _json_changes(outs["parent"] / name, outs["change"] / name)
                elif name.endswith("metrics.csv"):
                    lines = _csv_changes(outs["parent"] / name, outs["change"] / name)
                for line in lines:
                    print(f"  {line}")
            elif name not in moves.values():
                print(f"only in {where[0]}: {name}")
    print(f"{len(names)} files compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
