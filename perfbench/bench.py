"""Workloads, the timing loop and the correctness checks of the benchmark.

Every workload is one process with one client in a closed loop: the next
step starts when the previous one has returned. A step is one training
iteration (``ring-train``, ``dot-train``) or one ``coopforge translate``
request (``dot-translate``).

Training workloads call ``coopforge.trainer.train`` repeatedly, each time
from scratch for a fixed number of iterations, until the run has lasted
``seconds`` and holds enough steps. Every repetition computes the same
thing, so the final metrics row and the per-step counts do not depend on
how fast the machine is. The time from a ``train`` call to its first
iteration is one set-up sample; from the first iteration to the return of
``train`` is timed, so in-loop evaluation, checkpoints and the final grid
count against ``steps_per_s`` but not against ``step_ms``.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from coopforge import cli, trainer
from coopforge.domains import generate
from coopforge.metrics import default_feature_map, frechet_distance
from coopforge.tensor import load_ctns, save_ctns

import machine
import recipes
from tracer import NETWORKS, Tracer


ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    name: str
    iterations: int  # per train() call; for dot-translate, of the checkpoint build
    min_steps: int = 100  # so that ten step times lie beyond p90
    setups: int = 3  # dot-translate: checkpoint builds per run


# Why each workload is here: README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ring-train", iterations=250),  # the recipe evaluates and checkpoints every 250
        Workload("dot-train", iterations=50),
        Workload("dot-translate", iterations=4),
    )
}

# Longest a run keeps starting new work, so that it ends well within 180 s.
_DEADLINE_S = 140.0

# The per-layer table, per traced step; ".ms" is self time.
PER_LAYER = (
    "tensor.backward.ms", "tensor.backward.calls", "tensor.tape_nodes",
    "tensor.conv2d.ms", "tensor.conv2d.calls", "tensor.conv2d.mflop",
    "tensor.conv2d_transpose.ms", "tensor.conv2d_transpose.calls", "tensor.conv2d_transpose.mflop",
    "tensor.matmul.ms", "tensor.matmul.calls",
    "tensor.load_ctns.ms", "tensor.load_ctns.calls",
    "tensor.save_ctns.ms", "tensor.save_ctns.calls",
    "langevin.revise.ms", "langevin.energy_grad.ms", "langevin.energy_grad.calls", "langevin.chain_steps",
    *(f"networks.{cls}.forward.{kind}" for cls in NETWORKS for kind in ("ms", "calls")),
    *(f"objectives.{fn}.ms" for fn in ("ebm_grad", "teach_loss", "cycle_loss", "temporal_loss", "spatiotemporal_loss")),
    "trainer.adam_step.ms", "trainer.adam_step.calls",
    "trainer.save_checkpoint.ms", "trainer.load_checkpoint.ms", "trainer.rollbacks",
    "domains.generate.ms", "domains.generate.calls",
    "metrics.frechet_distance.ms", "metrics.cycle_error.ms",
    "rng.chain_stream.ms", "rng.chain_stream.calls",
    "cli.main.ms",
)
_SPAN_KEY = {"trainer.rollbacks": "trainer.rollback.calls"}


def unit(metric: str) -> str:
    """Unit of any metric this benchmark reports, read from its name."""
    fixed = {
        "setup_s": "s",
        "steps_per_s": "1/s",
        "peak_rss_mb": "MB",
        "fd_final": "fd",
        "error_rate": "ratio",
        "trace.overhead_pct": "%",
    }
    metric = metric.removeprefix("raw.")
    if metric in fixed:
        return fixed[metric]
    if metric.startswith("step_ms.") or metric.endswith(".ms"):
        return "ms"
    if metric.endswith(".mflop"):
        return "Mflop"
    return "count"


@dataclass
class Outcome:
    """What one run measured and whether every check passed."""

    step_times: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    timed_s: dict[bool, float] = field(default_factory=lambda: {False: 0.0, True: 0.0})  # by traced
    steps: dict[bool, int] = field(default_factory=lambda: {False: 0, True: 0})
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    fd_final: float = math.nan
    stopped_early: bool = False
    meter: machine.SpeedMeter = field(default_factory=machine.SpeedMeter)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 10 else max(values)


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


# ---------------------------------------------------------------------------
# Training workloads
# ---------------------------------------------------------------------------


class _StepClock:
    """Stands in for the trainer's iteration function: times and checks each call."""

    def __init__(self, outcome: Outcome, tracer: Tracer | None):
        self.outcome = outcome
        self.tracer = tracer
        self.traced = False
        self.first_start: float | None = None
        self.patched: list[tuple[str, object]] = []

    def install(self) -> None:
        for name in ("train_iteration", "train_sequence_iteration"):
            original = getattr(trainer, name)
            self.patched.append((name, original))
            setattr(trainer, name, self._wrap(name, original))

    def uninstall(self) -> None:
        for name, original in self.patched:
            setattr(trainer, name, original)
        self.patched.clear()

    def _wrap(self, name: str, fn):
        spanned = self.tracer.wrap(f"trainer.{name}", fn) if self.tracer else fn
        outcome = self.outcome

        def step(state, *args, **kwargs):
            expected = state.t + 1
            if self.traced:
                self.tracer.step = outcome.attempted
            outcome.attempted += 1
            start = time.perf_counter()
            if self.first_start is None:
                self.first_start = start
            try:
                result = (spanned if self.traced else fn)(state, *args, **kwargs)
            except Exception as err:
                outcome.fail(f"iteration {expected}: {type(err).__name__}: {err}")
                raise
            outcome.step_times.append(time.perf_counter() - start)
            outcome.steps[self.traced] += 1
            if state.t != expected or not _finite(state.last.values()):
                outcome.fail(f"iteration {expected}: clock {state.t} or non-finite stats {state.last}")
            outcome.meter.maybe_sample(self.traced)
            return result

        return step


def _check_run_dir(out: Path, state, n: int, cfg) -> tuple[list[str], float]:
    """Problems with a finished train() output directory, and its final fd."""
    problems = []
    lines = (out / "metrics.csv").read_text().splitlines() if (out / "metrics.csv").is_file() else []
    rows = [dict(zip(lines[0].split(","), map(float, line.split(",")))) for line in lines[1:]] if lines else []
    expected_rows = -(-n // cfg.eval_every)
    if len(rows) != expected_rows:
        problems.append(f"metrics.csv has {len(rows)} rows, expected {expected_rows}")
    if not rows or rows[-1].get("iter") != n or not _finite(rows[-1].values()):
        problems.append(f"last metrics row is {rows[-1] if rows else None}")
    for name in (f"ckpt_{n}/manifest.json", "grid_final.ppm"):
        if not (out / name).is_file():
            problems.append(f"missing {name}")
    if state.t != n:
        problems.append(f"state clock {state.t}, expected {n}")
    for group, params in state.groups().items():
        for key, p in params.items():
            if not np.isfinite(p.data).all():
                problems.append(f"non-finite parameter {group}.{key}")
    fd = 0.5 * (rows[-1]["fd_x"] + rows[-1]["fd_y"]) if rows else math.nan
    return problems, fd


def _train_workload(wl: Workload, seed: int, seconds: float, tracer: Tracer | None, run_dir: Path, outcome: Outcome, origin: float) -> None:
    if wl.name == "ring-train":
        desc_x, desc_y, cfg = recipes.RING_X, recipes.RING_Y, recipes.seeded(recipes.RING_CONFIG, seed, wl.iterations)
    else:
        desc_x, desc_y, cfg = recipes.DOT_X, recipes.DOT_Y, recipes.seeded(recipes.DOT_CONFIG, seed, wl.iterations)
    clock = _StepClock(outcome, tracer)
    clock.install()
    fds = []
    try:
        rep = 0
        while True:
            out = run_dir / f"rep{rep}"
            # a traced run alternates traced and untraced repetitions
            clock.traced = tracer is not None and rep % 2 == 0
            if clock.traced:
                tracer.step = None
                tracer.install()
            clock.first_start = None
            metered = outcome.meter.spent
            called = time.perf_counter()
            try:
                state, _ = trainer.train(cfg, desc_x, desc_y, out)
            except Exception:
                outcome.errors.append(traceback.format_exc(limit=3))
                return
            finally:
                ended = time.perf_counter()
                if clock.traced:
                    tracer.uninstall()
                    tracer.step = None
            outcome.setups.append(clock.first_start - called)
            outcome.timed_s[clock.traced] += ended - clock.first_start - (outcome.meter.spent - metered)
            problems, fd = _check_run_dir(out, state, wl.iterations, cfg)
            for problem in problems:
                outcome.fail(f"repetition {rep}: {problem}")
            fds.append(fd)
            shutil.rmtree(out)
            rep += 1
            timed = sum(outcome.timed_s.values())
            if timed >= seconds and len(outcome.step_times) >= wl.min_steps and rep >= 2:
                break
            if time.perf_counter() - origin + timed / rep > _DEADLINE_S:
                outcome.stopped_early = True
                break
    finally:
        clock.uninstall()
    if len({repr(fd) for fd in fds}) != 1:
        outcome.fail(f"repetitions disagree on the final metrics row: {fds}")
    outcome.fd_final = fds[0]


# ---------------------------------------------------------------------------
# Translate workload
# ---------------------------------------------------------------------------


def _build_translate_inputs(wl: Workload, seed: int, build: Path) -> tuple[Path, list[Path], np.ndarray, np.ndarray]:
    """Train and checkpoint a dot model; write the request clips of X."""
    cfg = recipes.seeded(recipes.DOT_CONFIG, seed, wl.iterations)
    trainer.train(cfg, recipes.DOT_X, recipes.DOT_Y, build / "run")
    clips = generate(recipes.held_out(recipes.DOT_X, cfg.eval_samples)).examples
    frames_y = generate(recipes.held_out(recipes.DOT_Y, cfg.eval_samples)).examples
    requests = build / "requests"
    requests.mkdir()
    inputs = []
    for i, clip in enumerate(clips):
        inputs.append(requests / f"clip{i}.ctns")
        save_ctns(clip, inputs[-1])
    return build / "run" / f"ckpt_{wl.iterations}", inputs, clips, frames_y.reshape((-1,) + frames_y.shape[2:])


def _check_translation(code: int, out_file: Path, clip: np.ndarray, earlier: np.ndarray | None) -> str | None:
    """What is wrong with one translate request's result, if anything."""
    if code != 0:
        return f"exit code {code}"
    if not out_file.is_file():
        return f"missing output {out_file.name}"
    moved = load_ctns(out_file).data
    if moved.shape != clip.shape or not np.isfinite(moved).all():
        return f"output shape {moved.shape} or non-finite values"
    if earlier is not None and earlier.tobytes() != moved.tobytes():
        return "output differs from the first translation of the same clip"
    return None


def _translate_workload(wl: Workload, seed: int, seconds: float, tracer: Tracer | None, run_dir: Path, outcome: Outcome, origin: float) -> None:
    for b in range(wl.setups):
        build = run_dir / f"build{b}"
        start = time.perf_counter()
        ckpt, inputs, clips, frames_y = _build_translate_inputs(wl, seed, build)
        outcome.setups.append(time.perf_counter() - start)
        outcome.meter.sample()
        if b + 1 < wl.setups:
            shutil.rmtree(build)

    out_dir = run_dir / "translated"
    out_dir.mkdir()
    order = np.random.default_rng(seed).permutation(len(inputs))
    first: dict[int, np.ndarray] = {}
    traced_main = tracer.wrap("cli.main", cli.main) if tracer else None
    sink = open(os.devnull, "w")
    begin = None
    metered = outcome.meter.spent
    try:
        while True:
            i = outcome.attempted
            clip = int(order[i % len(order)])
            out_file = out_dir / inputs[clip].name
            out_file.unlink(missing_ok=True)
            argv = ["translate", "--checkpoint", str(ckpt), "--direction", "x2y",
                    "--input", str(inputs[clip]), "--out", str(out_dir)]
            traced = tracer is not None and i % 2 == 0
            if traced:
                tracer.step = i
                tracer.install()
            outcome.attempted += 1
            start = time.perf_counter()
            begin = start if begin is None else begin
            with contextlib.redirect_stdout(sink):
                code = (traced_main if traced else cli.main)(argv)
            took = time.perf_counter() - start
            if traced:
                tracer.uninstall()
                tracer.step = None
            outcome.step_times.append(took)
            outcome.steps[traced] += 1
            outcome.timed_s[traced] += took
            problem = _check_translation(code, out_file, clips[clip], first.get(clip))
            if problem:
                outcome.fail(f"request {i} (clip {clip}): {problem}")
            elif clip not in first:
                first[clip] = load_ctns(out_file).data
            outcome.meter.maybe_sample(traced)
            wall = time.perf_counter() - begin
            if wall >= seconds and outcome.attempted >= max(wl.min_steps, len(order)):
                break
            if time.perf_counter() - origin > _DEADLINE_S:
                outcome.stopped_early = True
                break
    finally:
        sink.close()
    if tracer is None:
        outcome.timed_s[False] = time.perf_counter() - begin - (outcome.meter.spent - metered)
    if len(first) == len(inputs):
        moved = np.concatenate([first[c] for c in range(len(inputs))])
        outcome.fd_final = frechet_distance(moved, frames_y, default_feature_map(frames_y.shape[1:]))
    else:
        outcome.fail(f"only {len(first)} of {len(inputs)} clips translated")


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    outcome: Outcome
    metrics: dict[str, float]
    facts: dict
    run_dir: Path

    @property
    def correct(self) -> bool:
        return self.outcome.failed == 0 and not self.outcome.errors and self.outcome.attempted > 0


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float, runs_root: Path, wl: Workload | None = None) -> Result:
    """Run one workload once and return its metrics (per-layer ones if ``trace``)."""
    wl = wl or WORKLOADS[workload]
    origin = time.perf_counter()
    run_dir = runs_root / workload / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tracer = Tracer() if trace else None
    outcome = Outcome()
    outcome.meter.sample()
    watch = machine.Watch()
    body = _translate_workload if workload == "dot-translate" else _train_workload
    body(wl, seed, seconds, tracer, run_dir, outcome, origin)
    facts = {"timed_phase": watch.stop()}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    facts.update(machine.facts())
    facts["recipe_drift_from_tests"] = recipes.drift_from_tests(ROOT)
    facts["stopped_early"] = outcome.stopped_early

    times = outcome.step_times or [math.nan]
    timed = sum(outcome.timed_s.values())
    raw = {
        "setup_s": import_s + (statistics.median(outcome.setups) if outcome.setups else math.nan),
        "step_ms.p50": 1e3 * statistics.median(times),
        "step_ms.p90": 1e3 * _p90(times),
        "steps_per_s": len(outcome.step_times) / timed if timed > 0 else math.nan,
    }
    speed = outcome.meter.factor
    metrics = {
        "setup_s": speed() * raw["setup_s"],
        "step_ms.p50": speed() * raw["step_ms.p50"],
        "step_ms.p90": speed(_p90) * raw["step_ms.p90"],
        "steps_per_s": raw["steps_per_s"] / speed(statistics.fmean),
        "peak_rss_mb": peak_rss_mb,
        "error_rate": outcome.failed / max(outcome.attempted, 1),
        "fd_final": outcome.fd_final,
        **{f"raw.{name}": value for name, value in raw.items()},
    }
    ref = outcome.meter.samples
    facts["reference_ms"] = {
        "median": 1e3 * statistics.median(ref), "min": 1e3 * min(ref), "max": 1e3 * max(ref), "samples": len(ref),
    }
    facts["speed_factor"] = speed()
    facts["step_samples"] = len(outcome.step_times)
    # the machine's speed drifts within a run; these medians show by how much
    facts["p50_ms_per_100_steps"] = [
        round(1e3 * statistics.median(outcome.step_times[i : i + 100]), 3)
        for i in range(0, len(outcome.step_times) - 99, 100)
    ]
    facts["setup_samples"] = outcome.setups
    if tracer is not None:
        traced, untraced = outcome.steps[True], outcome.steps[False]
        # each half at the nominal machine speed, so drift between halves cancels
        sps = {
            k: outcome.steps[k] / outcome.timed_s[k] / speed(statistics.fmean, k) if outcome.timed_s[k] > 0 else math.nan
            for k in (True, False)
        }
        per_step = tracer.per_step(traced) if traced else {}
        metrics = {name: per_step.get(_SPAN_KEY.get(name, name), 0.0) if traced else math.nan for name in PER_LAYER}
        metrics["trace.overhead_pct"] = 100.0 * (1.0 - sps[True] / sps[False]) if untraced else math.nan
        facts["steps_per_s_traced"], facts["steps_per_s_untraced"] = sps[True], sps[False]
        facts["traced_steps"], facts["untraced_steps"] = traced, untraced
        tracer.write(run_dir / "spans.jsonl.gz", origin)
    for child in run_dir.iterdir():
        if child.is_dir():
            shutil.rmtree(child)
    return Result(workload, seed, trace, outcome, metrics, facts, run_dir)
