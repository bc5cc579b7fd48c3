"""Outside-in span tracing of coopforge's public functions.

The tracer replaces a function everywhere a coopforge module holds it by
name, so a call is seen no matter which module makes it: ``trainer``
imports the ``objectives`` functions by name, ``cli`` imports
``load_checkpoint`` by name, and ``Tensor.__matmul__`` looks ``matmul`` up
in ``tensor``'s own namespace. Methods are replaced on their class.

Spans (name, start, end, parent, step) are kept in memory and written out
when the run ends. A span's self time is its duration minus the time its
direct child spans cover; calls are strictly nested on one thread, so the
children never overlap.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute) for functions.
FUNCTIONS = (
    ("tensor.backward", "coopforge.tensor", "backward"),
    ("tensor.conv2d", "coopforge.tensor", "conv2d"),
    ("tensor.conv2d_transpose", "coopforge.tensor", "conv2d_transpose"),
    ("tensor.matmul", "coopforge.tensor", "matmul"),
    ("tensor.load_ctns", "coopforge.tensor", "load_ctns"),
    ("tensor.save_ctns", "coopforge.tensor", "save_ctns"),
    ("rng.chain_stream", "coopforge.rng", "chain_stream"),
    ("langevin.revise", "coopforge.langevin", "revise"),
    ("langevin.energy_grad", "coopforge.langevin", "energy_grad"),
    ("objectives.ebm_grad", "coopforge.objectives", "ebm_grad"),
    ("objectives.teach_loss", "coopforge.objectives", "teach_loss"),
    ("objectives.cycle_loss", "coopforge.objectives", "cycle_loss"),
    ("objectives.temporal_loss", "coopforge.objectives", "temporal_loss"),
    ("objectives.spatiotemporal_loss", "coopforge.objectives", "spatiotemporal_loss"),
    ("trainer.adam_step", "coopforge.trainer", "adam_step"),
    ("trainer.save_checkpoint", "coopforge.trainer", "save_checkpoint"),
    ("trainer.load_checkpoint", "coopforge.trainer", "load_checkpoint"),
    # every rollback precedes a TrainPhaseError; counted, not timed
    ("trainer.rollback", "coopforge.trainer", "_rollback"),
    ("domains.generate", "coopforge.domains", "generate"),
    ("metrics.frechet_distance", "coopforge.metrics", "frechet_distance"),
    ("metrics.cycle_error", "coopforge.metrics", "cycle_error"),
)

NETWORKS = ("PointScorer", "ImageScorer", "PointTranslator", "ImageTranslator", "TemporalPredictor")
# (span name, module, class, method) for methods.
METHODS = tuple((f"networks.{cls}.forward", "coopforge.networks", cls, "forward") for cls in NETWORKS)


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _tape_nodes(args, kwargs):
    return {"tensor.tape_nodes": len(_arg(args, kwargs, 0, "graph", ()))}


def _conv2d_mflop(args, kwargs):
    """Forward multiply-adds of one conv2d call, computed from its shapes."""
    x, w = args[0].shape, args[1].shape
    stride, pad = _arg(args, kwargs, 3, "stride", 1), _arg(args, kwargs, 4, "pad", 0)
    ho = (x[2] + 2 * pad - w[2]) // stride + 1
    wo = (x[3] + 2 * pad - w[3]) // stride + 1
    return {"tensor.conv2d.mflop": 2e-6 * x[0] * ho * wo * w[0] * w[1] * w[2] * w[3]}


def _conv2d_transpose_mflop(args, kwargs):
    """Forward multiply-adds of one conv2d_transpose call (input pixels x kernel)."""
    x, w = args[0].shape, args[1].shape
    return {"tensor.conv2d_transpose.mflop": 2e-6 * x[0] * x[2] * x[3] * w[0] * w[1] * w[2] * w[3]}


def _chain_steps(args, kwargs):
    x0, cfg = args[0], _arg(args, kwargs, 2, "cfg", None)
    return {"langevin.chain_steps": len(x0) * cfg.steps}


COUNTER_NAMES = ("tensor.tape_nodes", "tensor.conv2d.mflop", "tensor.conv2d_transpose.mflop", "langevin.chain_steps")

COUNTERS = {
    "tensor.backward": _tape_nodes,
    "tensor.conv2d": _conv2d_mflop,
    "tensor.conv2d_transpose": _conv2d_transpose_mflop,
    "langevin.revise": _chain_steps,
}


class Tracer:
    """Records spans around coopforge calls while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, step]
        self.counts: Counter = Counter()  # counter name -> amount, over step spans
        self.step: int | None = None
        self._stack: list[int] = []
        self._patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every place a target is bound."""
        modules = [m for n, m in sys.modules.items() if n == "coopforge" or n.startswith("coopforge.")]
        plan = []
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original, COUNTERS.get(name))
            for owner in modules:
                for key, value in vars(owner).items():
                    if value is original:
                        plan.append((owner, key, original, wrapper))
        for name, module, cls, method in METHODS:
            owner = getattr(sys.modules[module], cls)
            original = vars(owner)[method]
            plan.append((owner, method, original, self.wrap(name, original)))
        return plan

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def wrap(self, name: str, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.step]
            spans.append(span)
            if counter is not None and self.step is not None:
                counts.update(counter(args, kwargs))
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def per_step(self, steps: int) -> dict[str, float]:
        """Self ms and calls of every span name, and every counter, per step.

        Only spans that belong to a step count; set-up runs with ``step`` None.
        """
        if steps < 1:
            raise ValueError("per-step figures need at least one traced step")
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms = defaultdict(float)
        calls = Counter()
        for index, (name, start, end, _, step) in enumerate(self.spans):
            if step is not None:
                self_ms[name] += 1e3 * (end - start - child[index])
                calls[name] += 1
        names = [f[0] for f in FUNCTIONS] + [m[0] for m in METHODS] + sorted(set(calls))
        out = {}
        for name in dict.fromkeys(names):
            out[f"{name}.ms"] = self_ms[name] / steps
            out[f"{name}.calls"] = calls[name] / steps
        for key in COUNTER_NAMES:
            out[key] = self.counts[key] / steps
        return out

    def write(self, path, origin: float) -> None:
        """Spans as gzip'd JSON lines, times in seconds from ``origin``."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, step in self.spans:
                fh.write(json.dumps([name, round(start - origin, 7), round(end - origin, 7), parent, step]) + "\n")
