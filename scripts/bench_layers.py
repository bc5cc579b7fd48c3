"""Per-layer convolution, dense, activation and Adam benchmark at the moving-dot recipe's call census.

    python3 scripts/bench_layers.py --out layers.json
    python3 scripts/bench_layers.py --src /path/to/other/checkout/src --out other.json

The census is read from the program itself: ``conv2d``,
``conv2d_transpose``, the dense ops ``matmul`` and ``linear``,
``leaky_relu`` and ``trainer.adam_step`` are counted during a 3-iteration
and a 1-iteration dot run (``perfbench/recipes.py``), and the difference
over two iterations is what one training iteration calls. The 1-iteration
run minus one iteration is what a run calls outside its iterations (the
final eval on the whole held-out frame batch, and the grid), reported as
per-run keys. An op the timed package does not have is not counted. A
convolution is keyed by its op, input and kernel shapes, stride, pads,
bias, dtype, which inputs need a gradient and whether a tape records it; a
dense op by its op, input and weight shapes, dtype, which inputs need a
gradient (``need_b`` is false without a bias) and whether a tape records
it; an activation by its op, input shape, dtype, whether its input needs a
gradient and whether a tape records it; an Adam step by its parameter
vector's shape and dtype (one key per network size, never taped). Each key
counts its forward calls and the backward calls the tape made.

Every key is then timed on seeded inputs: the forward (on a tape when the
census saw one) and the recorded backward; an Adam step's forward is one
``adam_step`` call at step 1,000. One repeat times every key
once, so each repeat also gives per-iteration and per-run totals, the sums
of call count times time: forward, backward, both, and both per op. The
output holds, per key and for the totals, the median and quartiles over the
repeats, plus the machine facts. BLAS is pinned to one thread before numpy
loads.
"""

import os
import sys

_PIN_VARS = ("COOPFORGE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules:
    sys.exit("error: numpy was loaded before the BLAS thread count could be pinned")
for _var in _PIN_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CONVS = ("conv2d", "conv2d_transpose")
DENSE = ("matmul", "linear")
OPS = CONVS + DENSE + ("leaky_relu", "adam_step")
NAMES = {
    **dict.fromkeys(CONVS, ("op", "x", "w", "stride", "pad", "out_pad", "bias", "dtype", "need_x", "need_w", "need_b", "taped")),
    **dict.fromkeys(DENSE, ("op", "x", "w", "dtype", "need_x", "need_w", "need_b", "taped")),
    "leaky_relu": ("op", "x", "dtype", "need_x", "taped"),
    "adam_step": ("op", "x", "dtype", "taped"),
}
SCOPES = {"iter": "dot iteration", "run": "dot run outside its iterations"}  # what each census counts calls per
REPEATS = 41  # timed passes over the whole census
INNER = 5  # calls per key per pass


def _activation_key(T, op, a, slope=0.2) -> tuple:
    return (op, tuple(a.shape), a.dtype.name, a.requires_grad, bool(T._active_graphs) and a.requires_grad)


def _conv_key(T, op, x, w, b=None, **kwargs) -> tuple:
    needs = (x.requires_grad, w.requires_grad, b is not None and b.requires_grad)
    return (
        op,
        tuple(x.shape),
        tuple(w.shape),
        kwargs.get("stride", 1),
        kwargs.get("pad", 0),
        kwargs.get("out_pad", 0),
        b is not None,
        x.dtype.name,
        *needs,
        bool(T._active_graphs) and any(needs),
    )


def _dense_key(T, op, x, w, b=None) -> tuple:
    needs = (x.requires_grad, w.requires_grad, b is not None and b.requires_grad)
    return (op, tuple(x.shape), tuple(w.shape), x.dtype.name, *needs, bool(T._active_graphs) and any(needs))


def _adam_key(T, op, param, *args) -> tuple:
    return (op, tuple(param.shape), param.dtype.name, False)


_KEYS = {**dict.fromkeys(CONVS, _conv_key), **dict.fromkeys(DENSE, _dense_key), "leaky_relu": _activation_key, "adam_step": _adam_key}


def _difference(a: dict, b: dict, scale: float = 1.0) -> dict:
    """(fwd, bwd) calls of a minus those of b, times ``scale``, by key; keys at zero dropped."""
    out = {}
    for key in sorted(set(a) | set(b)):
        fwd, bwd = ((a.get(key, (0, 0))[i] - b.get(key, (0, 0))[i]) * scale for i in (0, 1))
        if fwd or bwd:
            out[key] = (fwd, bwd)
    return out


def census(T, trainer, recipes) -> tuple[dict, dict]:
    """Forward and backward calls by call key: per dot training iteration,
    and per run outside its iterations."""
    counts = {"fwd": Counter(), "bwd": Counter()}
    owners = {op: trainer if op == "adam_step" else T for op in OPS}
    originals = {op: getattr(owners[op], op) for op in OPS if hasattr(owners[op], op)}

    def counting(op):
        def wrapped(*args, **kwargs):
            key = _KEYS[op](T, op, *args, **kwargs)
            counts["fwd"][key] += 1
            out = originals[op](*args, **kwargs)
            graphs = T._active_graphs
            if isinstance(out, T.Tensor) and out.requires_grad and graphs and graphs[-1].nodes[-1].out is out:
                node = graphs[-1].nodes[-1]
                bwd = node.bwd

                def counted_bwd(g):
                    counts["bwd"][key] += 1
                    return bwd(g)

                node.bwd = counted_bwd
            return out

        return wrapped

    def run(iterations):
        counts["fwd"].clear()
        counts["bwd"].clear()
        cfg = recipes.seeded(recipes.DOT_CONFIG, 0, iterations)
        with tempfile.TemporaryDirectory() as out:
            trainer.train(cfg, recipes.DOT_X, recipes.DOT_Y, Path(out))
        return {key: (counts["fwd"][key], counts["bwd"][key]) for key in set(counts["fwd"]) | set(counts["bwd"])}

    for op in originals:
        setattr(owners[op], op, counting(op))
    try:
        one, three = run(1), run(3)
    finally:
        for op, fn in originals.items():
            setattr(owners[op], op, fn)
    per_iter = _difference(three, one, 0.5)
    return per_iter, _difference(one, per_iter)


def _inputs(T, trainer, np, key, seed):
    """The op and its arguments for one timed call; an activation runs at the
    networks' slope 0.2, an Adam step at rate 2e-4 as step 1,000."""
    rng = np.random.default_rng(seed)
    if key[0] == "adam_step":
        _, xs, dtype, _ = key
        param, grad, m = (rng.normal(size=xs).astype(dtype) for _ in range(3))
        v = (1e-3 * rng.random(size=xs)).astype(dtype)
        return trainer.adam_step, (param, grad, (m, v), 2e-4, 1000), {}
    if key[0] == "leaky_relu":
        _, xs, dtype, need_x, _ = key
        return T.leaky_relu, (T.Tensor(rng.normal(size=xs).astype(dtype), requires_grad=need_x), 0.2), {}
    if key[0] in DENSE:
        op, xs, ws, dtype, need_x, need_w, need_b, _ = key
        x = T.Tensor(rng.normal(size=xs).astype(dtype), requires_grad=need_x)
        w = T.Tensor((0.1 * rng.normal(size=ws)).astype(dtype), requires_grad=need_w)
        if op == "matmul":
            return T.matmul, (x, w), {}
        return T.linear, (x, w, T.Tensor(rng.normal(size=ws[1]).astype(dtype), requires_grad=need_b)), {}
    op, xs, ws, stride, pad, out_pad, has_b, dtype, need_x, need_w, need_b, _ = key
    x = T.Tensor(rng.normal(size=xs).astype(dtype), requires_grad=need_x)
    w = T.Tensor((0.1 * rng.normal(size=ws)).astype(dtype), requires_grad=need_w)
    f = ws[0] if op == "conv2d" else ws[1]
    b = T.Tensor(rng.normal(size=f).astype(dtype), requires_grad=need_b) if has_b else None
    kwargs = {"stride": stride, "pad": pad}
    if op == "conv2d_transpose":
        kwargs["out_pad"] = out_pad
    return getattr(T, op), (x, w, b), kwargs


def time_key(T, trainer, np, key, inner: int) -> tuple[float, float]:
    """Mean ms of one forward and of one recorded backward, over ``inner`` calls."""
    fn, args, kwargs = _inputs(T, trainer, np, key, seed=0)
    recorded = key[-1]
    start = time.perf_counter()
    for _ in range(inner):
        if recorded:
            with T.Graph() as graph:
                out = fn(*args, **kwargs)
        else:
            out = fn(*args, **kwargs)
    fwd = (time.perf_counter() - start) / inner
    if not recorded:
        return 1e3 * fwd, 0.0
    (node,) = graph.nodes
    g = np.random.default_rng(1).normal(size=out.shape).astype(out.dtype)
    start = time.perf_counter()
    for _ in range(inner):
        node.bwd(g)
    bwd = (time.perf_counter() - start) / inner
    return 1e3 * fwd, 1e3 * bwd


def _quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": q1, "p50": q2, "p75": q3}


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the coopforge package to time")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "coopforge" / "__init__.py").is_file():
        sys.exit(f"error: no coopforge package under {src}")
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]

    import numpy as np

    import machine
    import recipes
    from coopforge import tensor as T
    from coopforge import trainer

    censuses = dict(zip(SCOPES, census(T, trainer, recipes)))
    keys = sorted(set().union(*censuses.values()))
    for key in keys:  # warm-up: first calls allocate and fault in memory
        time_key(T, trainer, np, key, 1)
    samples = {key: ([], []) for key in keys}
    totals = {scope: {kind: [] for kind in ("fwd", "bwd", "all") + OPS} for scope in SCOPES}
    for _ in range(REPEATS):
        times = {key: time_key(T, trainer, np, key, INNER) for key in keys}
        for key, (fwd, bwd) in times.items():
            samples[key][0].append(fwd)
            samples[key][1].append(bwd)
        for scope, calls in censuses.items():
            run = dict.fromkeys(totals[scope], 0.0)
            for key, (n_fwd, n_bwd) in calls.items():
                fwd, bwd = times[key]
                run["fwd"] += n_fwd * fwd
                run["bwd"] += n_bwd * bwd
                run[key[0]] += n_fwd * fwd + n_bwd * bwd
            run["all"] = run["fwd"] + run["bwd"]
            for kind, value in run.items():
                totals[scope][kind].append(value)

    def layers(scope):
        out = []
        for key, (n_fwd, n_bwd) in censuses[scope].items():
            fwd, bwd = samples[key]
            out.append(
                {
                    **dict(zip(NAMES[key[0]], key)),
                    f"fwd_calls_per_{scope}": n_fwd,
                    f"bwd_calls_per_{scope}": n_bwd,
                    "fwd_ms": _quartiles(fwd),
                    "bwd_ms": _quartiles(bwd) if n_bwd else None,
                }
            )
        return out

    report = {
        "src": str(src),
        "repeats": REPEATS,
        "inner": INNER,
        "ms_per_iter": {kind: _quartiles(v) for kind, v in totals["iter"].items()},
        "layers": layers("iter"),
        "ms_per_run": {kind: _quartiles(v) for kind, v in totals["run"].items()},
        "per_run_layers": layers("run"),
        "machine": {**machine.facts(), "cpu": _cpu_model(), "platform": platform.platform()},
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for scope, what in SCOPES.items():
        ms = report[f"ms_per_{scope}"]
        by_op = ", ".join(f"{op} {ms[op]['p50']:.2f}" for op in OPS)
        total = ms["all"]
        print(f"{len(censuses[scope])} call keys; ms per {what} p50 {total['p50']:.2f} (p25 {total['p25']:.2f}, p75 {total['p75']:.2f}; {by_op})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
