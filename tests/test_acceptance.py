"""Acceptance gate: every shipped guarantee checked end to end.

Each test registers one PASS/FAIL line on the scoreboard that pytest prints
in its terminal summary, so a full run reads as a checklist. The heavy
training runs are session-scoped fixtures in conftest.py; everything else
is computed inline at 64-bit precision where exactness is claimed.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    DOT_BENCH_X,
    DOT_BENCH_Y,
    RING_BENCH_X,
    RING_BENCH_Y,
    record,
)
from coopforge import tensor as T
from coopforge.domains import (
    centroids,
    generate,
    load_ppm,
    ring_mode_centers,
    ring_mode_std,
    save_ppm,
)
from coopforge.langevin import LangevinConfig, revise
from coopforge.metrics import FeatureMap, frechet_distance, mode_coverage, psnr
from coopforge.networks import (
    ImageTranslator,
    PointScorer,
    PointTranslator,
    TemporalPredictor,
    ZeroScorer,
    build_translator,
)
from coopforge.objectives import (
    LossWeights,
    combine_sequence_losses,
    ebm_grad,
    ebm_surrogate,
    image_objective,
    sequence_objective,
    teach_loss,
)
from coopforge.evaluation import (
    eval_descriptor as _eval_descriptor,
    eval_langevin as _eval_langevin,
    refinement_scores,
    run_translator as _run_translator,
    translate_sequence,
)
from coopforge.tensor import Tensor, grad_check, load_ctns, save_ctns
from coopforge.trainer import init_state, load_checkpoint, train
from util import AddConstant, round_trip_loss


# ---------------------------------------------------------------------------
# 1. Gradient fidelity: every operator and every composite loss, checked
#    against central finite differences at 64-bit precision.
# ---------------------------------------------------------------------------


def _leaf(rng_, shape, keep_off_kinks=False):
    arr = rng_.standard_normal(shape)
    if keep_off_kinks:
        # |x| >= 0.5 so no finite-difference step crosses abs/relu corners
        arr = np.where(arr >= 0, arr + 0.5, arr - 0.5)
    return Tensor(arr, requires_grad=True)


def _weighted_sum(t: Tensor, w: np.ndarray) -> Tensor:
    # Asymmetric weights stop opposite-sign gradient errors from cancelling
    return T.OPS["mul"](t, Tensor(w)).sum()


def _operator_cases(rng_):
    """One finite-difference case per entry in the operator catalog."""
    w = lambda shape: rng_.uniform(0.5, 1.5, size=shape)

    a, b = _leaf(rng_, (3, 2)), _leaf(rng_, (3, 2))
    k1 = _leaf(rng_, (3, 2), keep_off_kinks=True)
    k2 = _leaf(rng_, (4,), keep_off_kinks=True)
    k3 = _leaf(rng_, (2, 3), keep_off_kinks=True)
    c = _leaf(rng_, (2, 6))
    m1, m2 = _leaf(rng_, (3, 4)), _leaf(rng_, (4, 2))
    ca_x, ca_g, ca_b = _leaf(rng_, (2, 3, 5)), _leaf(rng_, (3,)), _leaf(rng_, (3,))
    cv_x, cv_w, cv_b = _leaf(rng_, (2, 2, 5, 5)), _leaf(rng_, (3, 2, 3, 3)), _leaf(rng_, (3,))
    ct_x, ct_w, ct_b = _leaf(rng_, (2, 3, 3, 3)), _leaf(rng_, (3, 2, 3, 3)), _leaf(rng_, (2,))

    w32, w23, w34 = w((3, 2)), w((2, 3)), w((3, 4))
    wmm = w((3, 2))
    wca, wcv, wct = w((2, 3, 5)), w((3, 3, 3)), w((2, 6, 6))
    nw, wnw = _leaf(rng_, (2, 3, 4)), w((2, 2, 4))
    li_x, li_w, li_b = _leaf(rng_, (3, 4)), _leaf(rng_, (4, 2)), _leaf(rng_, (2,))

    return {
        "add": ({"a": a, "b": b}, lambda: _weighted_sum(a + b, w32)),
        "sub": ({"a": a, "b": b}, lambda: _weighted_sum(T.OPS["sub"](a, b), w32)),
        "mul": ({"a": a, "b": b}, lambda: _weighted_sum(T.OPS["mul"](a, b), w32)),
        "neg": ({"a": a}, lambda: _weighted_sum(-a, w32)),
        "abs": ({"k": k1}, lambda: _weighted_sum(T.OPS["abs"](k1), w32)),
        "square": ({"a": a}, lambda: _weighted_sum(a.square(), w32)),
        "leaky_relu": ({"k": k3}, lambda: _weighted_sum(T.leaky_relu(k3, 0.2), w23)),
        "sum": ({"a": a}, lambda: a.sum()),
        "mean": ({"a": a}, lambda: a.mean()),
        "sq_norm": ({"a": a}, lambda: a.sq_norm()),
        "l1_norm": ({"k": k2}, lambda: k2.l1_norm()),
        "reshape": ({"c": c}, lambda: _weighted_sum(c.reshape(3, 4), w34)),
        "narrow": ({"n": nw}, lambda: _weighted_sum(T.narrow(nw, 1, 1, 2), wnw)),
        "matmul": ({"m1": m1, "m2": m2}, lambda: _weighted_sum(T.matmul(m1, m2), wmm)),
        "linear": ({"x": li_x, "w": li_w, "b": li_b}, lambda: _weighted_sum(T.linear(li_x, li_w, li_b), wmm)),
        "channel_affine": (
            {"x": ca_x, "g": ca_g, "b": ca_b},
            lambda: _weighted_sum(T.channel_affine(ca_x, ca_g, ca_b), wca),
        ),
        "conv2d": (
            {"x": cv_x, "w": cv_w, "b": cv_b},
            lambda: _weighted_sum(T.conv2d(cv_x, cv_w, cv_b, stride=2, pad=1), (wcv[None] * np.ones((2, 1, 1, 1)))),
        ),
        "conv2d_transpose": (
            {"x": ct_x, "w": ct_w, "b": ct_b},
            lambda: _weighted_sum(
                T.conv2d_transpose(ct_x, ct_w, ct_b, stride=2, pad=1, out_pad=1),
                (wct[None] * np.ones((2, 1, 1, 1))),
            ),
        ),
    }


def _perturbed(net, seed):
    # Zero-initialized layers need a nudge or their gradients vanish
    rng_ = np.random.default_rng(seed)
    for p in net.params.values():
        p.data += rng_.normal(size=p.data.shape) * 0.1
    return net


def _composite_loss_cases():
    """Finite-difference cases for every composite objective, on miniatures."""
    rng_ = np.random.default_rng(200)
    f64 = dict(dtype=np.float64)

    scorer = PointScorer(dim=2, hidden=(5, 4), seed=51, name="s", **f64)
    pts = Tensor(rng_.normal(size=(3, 2)))

    g_xy = _perturbed(PointTranslator(dim=2, hidden=6, blocks=2, seed=52, name="gxy", **f64), 1)
    g_yx = _perturbed(PointTranslator(dim=2, hidden=6, blocks=2, seed=53, name="gyx", **f64), 2)
    src = rng_.normal(size=(4, 2))
    tgt = rng_.normal(size=(4, 2))
    xb, yb = rng_.normal(size=(4, 2)), rng_.normal(size=(4, 2))
    both = {f"xy.{k}": v for k, v in g_xy.params.items()}
    both.update({f"yx.{k}": v for k, v in g_yx.params.items()})
    weights = LossWeights()

    shape = (1, 2, 2)
    gs_xy = _perturbed(ImageTranslator(in_shape=shape, base=2, blocks=1, seed=54, name="hxy", **f64), 3)
    gs_yx = _perturbed(ImageTranslator(in_shape=shape, base=2, blocks=1, seed=55, name="hyx", **f64), 4)
    r_x = _perturbed(TemporalPredictor(in_shape=shape, k=2, base=2, seed=56, name="rx", **f64), 5)
    r_y = _perturbed(TemporalPredictor(in_shape=shape, k=2, base=2, seed=57, name="ry", **f64), 6)
    # Central differences need every leaky-ReLU and |.| input farther from its
    # corner than the 1e-5 step reaches; with these draws the nearest sits
    # 4.8e-4 away.
    seq_rng = np.random.default_rng(201)
    x_clips, y_clips = seq_rng.normal(size=(1, 3) + shape), seq_rng.normal(size=(1, 3) + shape)
    x_targets, y_targets = seq_rng.normal(size=(3,) + shape), seq_rng.normal(size=(3,) + shape)

    def sequence_loss():
        # one translation per direction of every clip frame, as the trainer records it;
        # lambda_cyc = 9 keeps the cycle term, as in the dot recipe (sequence_cycle on)
        x_moved = gs_yx.forward(Tensor(y_clips.reshape((3,) + shape)))
        y_moved = gs_xy.forward(Tensor(x_clips.reshape((3,) + shape)))
        return sequence_objective(
            gs_xy, gs_yx, r_x, r_y, x_clips, y_clips, x_moved, y_moved, x_targets, y_targets, weights
        )
    seq_params = {}
    for tag, net in (("gxy", gs_xy), ("gyx", gs_yx), ("rx", r_x), ("ry", r_y)):
        seq_params.update({f"{tag}.{k}": v for k, v in net.params.items()})

    # The root the trainer descends: both translations recorded, the
    # objective on them, minus each energy model's surrogate. Revisions are
    # constants of the root, drawn here once near the translations.
    ebm_x = _perturbed(PointScorer(dim=2, hidden=(5, 4), seed=59, name="ex", **f64), 8)
    ebm_y = _perturbed(PointScorer(dim=2, hidden=(5, 4), seed=60, name="ey", **f64), 9)
    x_tilde = g_yx.forward(Tensor(yb)).data + 0.1 * rng_.normal(size=(4, 2))
    y_tilde = g_xy.forward(Tensor(xb)).data + 0.1 * rng_.normal(size=(4, 2))

    def root():
        x_moved, y_moved = g_yx.forward(Tensor(yb)), g_xy.forward(Tensor(xb))
        loss = image_objective(g_xy, g_yx, xb, yb, x_moved, y_moved, x_tilde, y_tilde, weights)
        return loss - ebm_surrogate(ebm_x, xb, x_tilde)[0] - ebm_surrogate(ebm_y, yb, y_tilde)[0]
    root_params = dict(both)
    for tag, net in (("ex", ebm_x), ("ey", ebm_y)):
        root_params.update({f"{tag}.{k}": v for k, v in net.params.items()})

    return {
        "energy": (scorer.params, lambda: scorer.energy_sum(pts), 1e-3),
        "teach": (g_yx.params, lambda: teach_loss(g_yx.forward(Tensor(src)), tgt), 1e-3),
        "cycle": (both, lambda: round_trip_loss(g_xy, g_yx, xb, yb), 1e-3),
        "image_objective": (
            both,
            lambda: image_objective(
                g_xy, g_yx, xb, yb, g_yx.forward(Tensor(yb)), g_xy.forward(Tensor(xb)), tgt, src, weights
            ),
            1e-3,
        ),
        "sequence_objective": (seq_params, sequence_loss, 1e-5),
        "root": (root_params, root, 1e-3),
    }


def _energy_input_gradient_error() -> float:
    """Closed-form energy input gradient (the one Langevin uses) against the
    tape's reverse mode, as the same relative error grad_check reports."""
    rng_ = np.random.default_rng(300)
    scorer = _perturbed(PointScorer(dim=2, hidden=(5, 4), seed=58, name="s", dtype=np.float64), 7)
    x = rng_.normal(size=(3, 2))
    leaf = Tensor(x, requires_grad=True)
    with T.Graph() as g:
        total = scorer.energy_sum(leaf)
    tape = T.backward(g, total, {"x": leaf})["x"]
    _, closed = scorer.energy_grad(x)
    scale = np.maximum(np.maximum(np.abs(closed), np.abs(tape)), 1e-6)
    return float(np.max(np.abs(closed - tape) / scale))


def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    worst_name, worst = "", 0.0
    cases = dict(_operator_cases(np.random.default_rng(100)))
    for name, (params, fn) in cases.items():
        report = grad_check(params, fn)
        if report.max_rel_error > worst:
            worst_name, worst = f"op {name}", report.max_rel_error
    for name, (params, fn, step) in _composite_loss_cases().items():
        report = grad_check(params, fn, step=step)
        if report.max_rel_error > worst:
            worst_name, worst = f"loss {name}", report.max_rel_error
    err = _energy_input_gradient_error()
    if err > worst:
        worst_name, worst = "energy input gradient", err
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    record(
        1,
        ok,
        f"max relative gradient error {worst:.2e} ({worst_name}) over "
        f"{len(cases)} operators, 6 composite losses and the energy input gradient, budget 1e-4; {elapsed:.1f}s < 60s",
    )
    assert ok


def test_criterion_1_composite_cases_stay_off_kinks(monkeypatch):
    """Every leaky-ReLU and |.| input of the composite cases sits farther from
    its corner than the case's finite-difference step: a central difference
    straddling a kink reads a correct gradient as wrong."""
    nearest = []
    for name in ("leaky_relu", "absval"):
        def spy(a, *args, _op=getattr(T, name), **kwargs):
            nearest.append(float(np.abs(a.data).min()))
            return _op(a, *args, **kwargs)

        monkeypatch.setattr(T, name, spy)
    for name, (_, fn, step) in _composite_loss_cases().items():
        nearest.clear()
        fn()
        assert nearest, name
        assert min(nearest) > step, f"{name}: an input sits {min(nearest):.1e} from its corner, within step {step:.0e}"


# ---------------------------------------------------------------------------
# 2. Sampler stationarity: with a zero score network the chain must hold the
#    unit reference Gaussian over a long horizon.
# ---------------------------------------------------------------------------


def test_criterion_2_langevin_stationarity():
    t0 = time.perf_counter()
    model = ZeroScorer(dtype=np.float64)
    chains = np.random.default_rng(1005).standard_normal((1000, 2))
    out, _ = revise(chains, model, LangevinConfig(steps=20000, step_size=0.01, noise_scale=1.0, seed=5))
    var = out.var(axis=0, ddof=1)
    mean = out.mean(axis=0)
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(np.abs(var - 1.0) < 0.05) and np.all(np.abs(mean) < 0.05)) and elapsed < 60.0
    record(
        2,
        ok,
        f"1000 chains x 20000 steps: variance {var.round(4).tolist()} within 5% of 1, "
        f"mean {mean.round(4).tolist()} within 0.05 of 0; {elapsed:.1f}s < 60s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. Deterministic descent: without noise and with a small enough step the
#    reference energy never increases, chain by chain, step by step.
# ---------------------------------------------------------------------------


def test_criterion_3_noise_free_energy_descent():
    model = ZeroScorer(dtype=np.float64)
    step = 0.45  # step^2 = 0.2025 <= s^2/4
    x = np.random.default_rng(1006).normal(size=(64, 2)) * 3.0
    energy = model.energy_values(x)
    violations = 0
    for _ in range(200):
        x, _ = revise(x, model, LangevinConfig(steps=1, step_size=step, noise_scale=0.0))
        nxt = model.energy_values(x)
        violations += int(np.count_nonzero(nxt > energy))
        energy = nxt
    ok = violations == 0
    record(3, ok, f"64 chains x 200 noise-free steps at step 0.45: {violations} energy increases (exact check)")
    assert ok


# ---------------------------------------------------------------------------
# 4. Loss identities, all exact.
# ---------------------------------------------------------------------------


def test_criterion_4_loss_identities():
    g = build_translator((2,), seed=61, name="g")
    batch = np.random.default_rng(30).normal(size=(5, 2)).astype(np.float32)
    teach_zero = teach_loss(g.forward(Tensor(batch)), batch.copy()).item()

    # Quarter-integer data stays exact under +0.5 / -0.5 round trips
    x = (np.random.default_rng(31).integers(-8, 8, size=(6, 2)) / 4.0).astype(np.float32)
    y = (np.random.default_rng(32).integers(-8, 8, size=(6, 2)) / 4.0).astype(np.float32)
    cyc_zero = round_trip_loss(AddConstant(0.5), AddConstant(-0.5), x, y).item()

    one = Tensor(np.float32(1.0))
    total = combine_sequence_losses(one, one, one, one, one, one, LossWeights()).item()

    model = PointScorer(dim=2, hidden=(6, 5), seed=62, name="s")
    a = np.random.default_rng(33).normal(size=(4, 2)).astype(np.float32)
    b = np.random.default_rng(34).normal(size=(4, 2)).astype(np.float32)
    fwd = ebm_grad(model, a, b)
    swapped = ebm_grad(model, b, a)
    antisymmetric = all(np.array_equal(fwd[k], -swapped[k]) for k in fwd)

    ok = teach_zero == 0.0 and cyc_zero == 0.0 and total == 38.0 and antisymmetric
    record(
        4,
        ok,
        f"teach at exact fit = {teach_zero}; cycle for inverse pair = {cyc_zero}; "
        f"sequence example = {total} (want 38.0); gradient antisymmetry under batch swap = {antisymmetric}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. Ring benchmark: distance collapse, full mode coverage, cycle fidelity,
#    and sampler refinement, all from one budgeted run.
# ---------------------------------------------------------------------------


def _ring_eval_sets(run):
    ex = generate(_eval_descriptor(RING_BENCH_X, run.cfg)).examples
    ey = generate(_eval_descriptor(RING_BENCH_Y, run.cfg)).examples
    return ex, ey


def test_criterion_5_ring_benchmark(ring_run):
    fm = FeatureMap("identity")
    eval_x, eval_y = _ring_eval_sets(ring_run)

    fresh = init_state(ring_run.cfg, generate(RING_BENCH_X), generate(RING_BENCH_Y))
    fd_start = frechet_distance(_run_translator(fresh.g_xy, eval_x), eval_y, fm)
    final = ring_run.last_row()
    fd_ok = final["fd_x"] <= 0.2 * fd_start

    translated = _run_translator(ring_run.state.g_xy, eval_x)
    radius = 3.0 * ring_mode_std(RING_BENCH_Y)
    cov = mode_coverage(translated, ring_mode_centers(RING_BENCH_Y), radius)
    cov_ok = bool(cov.fractions.min() >= 0.05)

    cyc_ok = final["cycle_err"] <= 0.1

    last_ten = ring_run.checkpoints()[-10:]
    inits, revs = [], []
    for path in last_ten:
        state, cfg, _, _ = load_checkpoint(path)
        scores = refinement_scores(state, eval_x, eval_y, cfg, fm)
        inits.append((scores["fd_init_x"] + scores["fd_init_y"]) / 2.0)
        revs.append((scores["fd_revised_x"] + scores["fd_revised_y"]) / 2.0)
    refine_ok = float(np.mean(revs)) <= float(np.mean(inits))

    time_ok = ring_run.seconds < 300.0
    ok = fd_ok and cov_ok and cyc_ok and refine_ok and time_ok
    record(
        5,
        ok,
        f"fd {final['fd_x']:.4f} <= 20% of start {fd_start:.4f}; "
        f"worst mode coverage {cov.fractions.min():.3f} >= 0.05 over 8 modes; "
        f"cycle {final['cycle_err']:.4f} <= 0.1; "
        f"revised {np.mean(revs):.4f} <= unrevised {np.mean(inits):.4f} over last 10 evals; "
        f"{ring_run.seconds:.0f}s < 300s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. Revision-depth ablation: more sampler steps may not end up worse than
#    a single step on the same benchmark.
# ---------------------------------------------------------------------------


def test_criterion_6_revision_depth_ablation(ring_run, ring_run_l1):
    deep = ring_run.last_row()["fd_x"]
    shallow = ring_run_l1.last_row()["fd_x"]
    ok = deep <= shallow
    record(6, ok, f"final distance {deep:.4f} with 15 revision steps <= {shallow:.4f} with 1 step")
    assert ok


# ---------------------------------------------------------------------------
# 7. Sequence benchmark: translated clips must keep the input motion while
#    moving the per-frame appearance to the target domain.
# ---------------------------------------------------------------------------

_PATCH_HALF = 4  # sprites span at most 7x7, so a 9x9 crop always contains one


def _sprite_patches(frames: np.ndarray) -> np.ndarray:
    """Centroid-centered crops, one per frame; position-invariant appearance."""
    cents = np.round(centroids(frames)).astype(int)
    side = frames.shape[-1]
    lo, hi = _PATCH_HALF, side - 1 - _PATCH_HALF
    out = []
    for frame, (r, c) in zip(frames, cents.reshape(-1, 2)):
        r, c = int(np.clip(r, lo, hi)), int(np.clip(c, lo, hi))
        out.append(frame[0, r - _PATCH_HALF : r + _PATCH_HALF + 1, c - _PATCH_HALF : c + _PATCH_HALF + 1])
    return np.stack(out)


def _appearance_distance(frames: np.ndarray, prototype: np.ndarray) -> float:
    """Mean distance from each frame's sprite patch to a domain prototype."""
    gaps = _sprite_patches(frames) - prototype
    return float(np.mean(np.sqrt((gaps**2).sum(axis=(1, 2)))))


def test_criterion_7_sequence_benchmark(dot_run):
    cfg = dot_run.cfg
    eval_x = generate(_eval_descriptor(DOT_BENCH_X, cfg)).examples
    eval_y = generate(_eval_descriptor(DOT_BENCH_Y, cfg)).examples
    frame_shape = eval_x.shape[2:]

    prototype = _sprite_patches(eval_y.reshape((-1,) + frame_shape)).mean(axis=0)
    lng = _eval_langevin(cfg)
    moved = np.stack(
        [translate_sequence(seq, dot_run.state.g_xy, dot_run.state.ebm_y, lng) for seq in eval_x]
    )

    flat_in = eval_x.reshape((-1,) + frame_shape)
    flat_out = moved.reshape((-1,) + frame_shape)
    r = float(np.corrcoef(centroids(flat_in).ravel(), centroids(flat_out).ravel())[0, 1])

    raw = _appearance_distance(flat_in, prototype)
    translated = _appearance_distance(flat_out, prototype)
    ratio = raw / translated

    detail = (
        f"centroid correlation {r:.4f} (need > 0.9); appearance distance {raw:.3f} -> {translated:.3f} "
        f"({ratio:.2f}x reduction, need 2x); {dot_run.seconds:.0f}s (need < 600s)"
    )
    ok = r > 0.9 and ratio >= 2.0 and dot_run.seconds < 600.0
    record(7, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 8. Reproducibility: bit-identical reruns and exact checkpoint resume. The
#    wall-clock column is the one documented exception, so comparisons drop
#    the final field of each row.
# ---------------------------------------------------------------------------


def _rows_without_wall_time(run) -> list[str]:
    return [row.rsplit(",", 1)[0] for row in run.metrics_rows()]


def test_criterion_8_reproducibility(ring_run, ring_run_repeat, tmp_path):
    rows_a = _rows_without_wall_time(ring_run)
    rows_b = _rows_without_wall_time(ring_run_repeat)
    header_a = ring_run.metrics_path.read_text().splitlines()[0]
    header_b = ring_run_repeat.metrics_path.read_text().splitlines()[0]
    rerun_ok = rows_a == rows_b and header_a == header_b and len(rows_a) == 20

    middle = ring_run.out_dir / "ckpt_2500"
    state, _ = train(ring_run.cfg, RING_BENCH_X, RING_BENCH_Y, tmp_path, resume_from=middle)
    resumed = {
        f"{group}.{name}": leaf.data
        for group, params in state.groups().items()
        for name, leaf in params.items()
    }
    original = {
        f"{group}.{name}": leaf.data
        for group, params in ring_run.state.groups().items()
        for name, leaf in params.items()
    }
    params_ok = set(resumed) == set(original) and all(
        np.array_equal(resumed[k], original[k]) for k in original
    )
    tail = [row.rsplit(",", 1)[0] for row in Path(tmp_path, "metrics.csv").read_text().strip().splitlines()[1:]]
    rows_ok = tail == rows_a[-len(tail) :]

    ok = rerun_ok and params_ok and rows_ok
    record(
        8,
        ok,
        f"rerun rows identical minus wall time: {rerun_ok} (20 rows); "
        f"resume from iteration 2500 matches bit for bit: params {params_ok}, rows {rows_ok}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. Metric and container exactness.
# ---------------------------------------------------------------------------


def test_criterion_9_metric_exactness(tmp_path):
    twenty = psnr(np.zeros((10, 10)), np.full((10, 10), 0.1), peak=1.0)
    psnr_ok = math.isclose(twenty, 20.0, rel_tol=1e-12)

    # mean gap 1 and equal variances: squared distance is exactly 1
    a = np.array([[-1.0], [1.0]])
    b = np.array([[0.0], [2.0]])
    fd = frechet_distance(a, b, FeatureMap("identity"))
    fd_ok = abs(fd - 1.0) <= 1e-8

    arr = np.random.default_rng(40).standard_normal((3, 4, 5)).astype(np.float32)
    ct = tmp_path / "t.ctns"
    save_ctns(Tensor(arr), ct)
    ctns_ok = load_ctns(ct).data.tobytes() == arr.tobytes()

    img = (np.random.default_rng(41).integers(0, 256, size=(3, 6, 7)) / 255.0).astype(np.float32)
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    save_ppm(img, p1)
    save_ppm(load_ppm(p1), p2)
    ppm_ok = p1.read_bytes() == p2.read_bytes()

    ok = psnr_ok and fd_ok and ctns_ok and ppm_ok
    record(
        9,
        ok,
        f"PSNR at MSE 0.01 = {twenty} dB (want 20); 1-D distance off by {abs(fd - 1.0):.1e} (budget 1e-8); "
        f"container round trips bit-exact: tensors {ctns_ok}, images {ppm_ok}",
    )
    assert ok
