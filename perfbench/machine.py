"""The machine's speed during a run, and facts about the machine.

The speed of the machines this runs on drifts by up to 2x over seconds to
minutes, with CPU time tracking wall time and no steal: a ``ring-train``
step takes 9 ms in one minute and 16 ms in the next. ``SpeedMeter`` times
a fixed workload that no coopforge change can touch, interleaved with the
steps, so that a run can report its times at one fixed machine speed.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

_PIN_VARS = ("COOPFORGE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_ticks() -> list[int] | None:
    """Machine-wide user..steal ticks from the first line of /proc/stat."""
    try:
        first = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    return [int(v) for v in first[1:9]]


def _thread_count() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


REFERENCE_MS = 4.0  # nominal duration of one reference workload; the scale of adjusted times


class SpeedMeter:
    """Times a fixed reference workload at most every ``interval`` seconds.

    The reference has two halves of about equal time. One is a hand-written
    three-layer MLP forward and backward on 8x64 arrays: numpy dispatch and
    small GEMMs. The other is a 3x3 convolution of a 16-channel 16x16 batch
    by im2col, GEMM and a col2im scatter-add. When the machine slows down,
    dispatch slows more than convolution does. With both halves, the
    reference lies between the dispatch-bound and the conv-bound workloads.
    """

    def __init__(self, interval: float = 0.25) -> None:
        rng = np.random.default_rng(0)
        self._weights = [(0.1 * rng.standard_normal((64, 64))).astype(np.float32) for _ in range(3)]
        self._x = rng.standard_normal((8, 64)).astype(np.float32)
        self._image = rng.standard_normal((3, 16, 18, 18)).astype(np.float32)  # padded
        self._kernel = (0.1 * rng.standard_normal((32, 16 * 9))).astype(np.float32)
        self.interval = interval
        self.samples: list[float] = []
        self.tags: list[object] = []  # what the run was doing around each sample
        self.spent = 0.0  # wall seconds spent in the reference, to leave out of timed phases
        self._last = -math.inf

    def _reference(self) -> None:
        for _ in range(40):
            h, pre = self._x, []
            for w in self._weights:
                z = h @ w
                pre.append(z)
                h = np.maximum(z, np.float32(0.2) * z)
            g = np.ones_like(h)
            for w, z in zip(reversed(self._weights), reversed(pre)):
                g = (g * np.where(z > 0, np.float32(1.0), np.float32(0.2))) @ w.T
        for _ in range(2):
            win = np.lib.stride_tricks.sliding_window_view(self._image, (3, 3), axis=(2, 3))
            cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5).reshape(3 * 256, 16 * 9))
            grad = ((cols @ self._kernel.T) @ self._kernel).reshape(3, 16, 16, 16, 3, 3)
            image = np.zeros_like(self._image)
            for i in range(3):
                for j in range(3):
                    image[:, :, i : i + 16, j : j + 16] += grad[..., i, j].transpose(0, 3, 1, 2)

    def sample(self, tag: object = None) -> None:
        start = time.perf_counter()
        self._reference()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        self.tags.append(tag)
        self.spent += self._last - start

    def maybe_sample(self, tag: object = None) -> None:
        if time.perf_counter() - self._last >= self.interval:
            self.sample(tag)

    def factor(self, statistic=statistics.median, tag: object = all) -> float:
        """Multiply a time statistic by this to get it at the nominal machine speed.

        ``statistic`` should be the one the time was taken with, so that a run
        whose steps are half fast and half slow meets a reference that is too.
        With ``tag``, only the samples taken with that tag count.
        """
        samples = [s for s, t in zip(self.samples, self.tags) if tag is all or t == tag]
        return REFERENCE_MS / (1e3 * statistic(samples)) if samples else math.nan


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


class Watch:
    """Machine-wide CPU ticks and process CPU time over one interval."""

    def __init__(self) -> None:
        self.ticks = _cpu_ticks()
        self.cpu = time.process_time()
        self.wall = time.perf_counter()

    def stop(self) -> dict:
        end = _cpu_ticks()
        wall = time.perf_counter() - self.wall
        out = {"process_cpu_over_wall": (time.process_time() - self.cpu) / wall if wall > 0 else None}
        if self.ticks and end:
            delta = [b - a for a, b in zip(self.ticks, end)]
            total = sum(delta)
            out["steal_ticks"] = delta[7]
            out["steal_pct"] = 100.0 * delta[7] / total if total else 0.0
        return out


def facts() -> dict:
    """Static facts: cores, versions, thread pinning, and BLAS's real thread count."""
    a = np.ones((256, 256))
    a @ a  # BLAS starts its worker threads, if any, on the first GEMM
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "env": {var: os.environ.get(var) for var in _PIN_VARS},
        "threads_after_gemm": _thread_count(),
    }
