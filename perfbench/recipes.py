"""The training recipes the benchmark runs.

They are defined here, not imported from ``tests/conftest.py``, so the
benchmark does not depend on the test suite. ``drift_from_tests`` compares
them with the acceptance recipes, so a change to either shows.
"""

from __future__ import annotations

import importlib.util
from dataclasses import replace
from pathlib import Path

from coopforge.domains import DomainDescriptor
from coopforge.langevin import LangevinConfig
from coopforge.trainer import TrainConfig

# Criterion 5: the 8-mode ring pair, target rotated by 0.15 rad and shrunk to 0.6x.
RING_X = DomainDescriptor(
    "ring", {"n": 2000, "modes": 8, "radius": 1.6, "mode_std": 0.18, "rotation": 0.0, "scale": 1.0}, seed=1
)
RING_Y = DomainDescriptor(
    "ring", {"n": 2000, "modes": 8, "radius": 1.6, "mode_std": 0.18, "rotation": 0.15, "scale": 0.6}, seed=2
)

# Criterion 7: solid vs hollow sprites under the same bouncing motion.
DOT_X = DomainDescriptor(
    "moving_dot", {"n_seqs": 40, "length": 12, "side": 16, "appearance": "solid", "motion_style": "bounce"}, seed=11
)
DOT_Y = DomainDescriptor(
    "moving_dot", {"n_seqs": 40, "length": 12, "side": 16, "appearance": "hollow", "motion_style": "bounce"}, seed=12
)

RING_CONFIG = TrainConfig(
    iterations=5000,
    langevin=LangevinConfig(steps=15, step_size=0.02, noise_scale=1.0, seed=0),
    eval_every=250,
    checkpoint_every=250,
    eval_samples=200,
)

DOT_CONFIG = TrainConfig(
    iterations=1500,
    langevin=LangevinConfig(steps=5, step_size=0.02, noise_scale=1.0, seed=0),
    eval_every=500,
    checkpoint_every=1500,
    eval_samples=10,
    k=2,
    sequence_cycle=True,
)


def seeded(cfg: TrainConfig, seed: int, iterations: int) -> TrainConfig:
    """The recipe run for ``iterations`` with every stream keyed by ``seed``."""
    return replace(cfg, iterations=iterations, seed=seed, langevin=replace(cfg.langevin, seed=seed))


def held_out(desc: DomainDescriptor, n_seqs: int) -> DomainDescriptor:
    """Clips of the same domain from a dataset seed the training set never uses."""
    return replace(desc, params={**desc.params, "n_seqs": n_seqs}, seed=desc.seed + 7919)


def drift_from_tests(root: Path) -> list[str] | None:
    """Names whose value differs from ``tests/conftest.py``; None if it cannot be read."""
    path = root / "tests" / "conftest.py"
    if not path.is_file():
        return None
    spec = importlib.util.spec_from_file_location("_acceptance_recipes", path)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError:
        return None
    pairs = {
        "RING_BENCH_X": (module.RING_BENCH_X, RING_X),
        "RING_BENCH_Y": (module.RING_BENCH_Y, RING_Y),
        "DOT_BENCH_X": (module.DOT_BENCH_X, DOT_X),
        "DOT_BENCH_Y": (module.DOT_BENCH_Y, DOT_Y),
        "ring_benchmark_config()": (module.ring_benchmark_config(), RING_CONFIG),
        "dot_benchmark_config()": (module.dot_benchmark_config(), DOT_CONFIG),
    }
    return [name for name, (theirs, ours) in pairs.items() if theirs != ours]
