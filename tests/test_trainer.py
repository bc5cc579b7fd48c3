"""Trainer checks: optimizer oracles, phase semantics, checkpoint fidelity."""

import dataclasses
import json
import math
import re
import sys

import numpy as np
import pytest

from conftest import dot_benchmark_config, ring_benchmark_config
from coopforge import cli, objectives, rng, trainer
from coopforge.domains import DomainDescriptor, generate
from coopforge.evaluation import refinement_scores, run_translator, translate_sequence
from coopforge.langevin import LangevinConfig, revise
from coopforge.objectives import (
    LossWeights,
    clip_frames,
    ebm_grad,
    ebm_surrogate,
    image_objective,
    sequence_objective,
    spatiotemporal_loss,
    temporal_loss,
)
from coopforge.networks import ImageTranslator, PointTranslator
from coopforge.rng import data_stream
from coopforge.tensor import Graph, ShapeError, Tensor, backward, load_ctns, save_ctns
from coopforge.trainer import (
    METRICS_HEADER,
    TrainConfig,
    TrainPhaseError,
    adam_step,
    config_from_dict,
    init_state,
    load_checkpoint,
    save_checkpoint,
    train,
    train_iteration,
    train_sequence_iteration,
)
from util import assert_params_view_vector

RING_X = DomainDescriptor(
    "ring", {"n": 64, "modes": 8, "radius": 1.6, "mode_std": 0.15, "rotation": 0.0, "scale": 1.0}, seed=1
)
RING_Y = DomainDescriptor(
    "ring", {"n": 64, "modes": 8, "radius": 1.6, "mode_std": 0.15, "rotation": 0.4, "scale": 0.6}, seed=2
)
DOT_X = DomainDescriptor(
    "moving_dot", {"n_seqs": 10, "length": 6, "side": 16, "appearance": "solid", "motion_style": "static"}, seed=3
)
DOT_Y = DomainDescriptor(
    "moving_dot", {"n_seqs": 10, "length": 6, "side": 16, "appearance": "hollow", "motion_style": "static"}, seed=4
)


def ring_cfg(**over) -> TrainConfig:
    base = dict(
        iterations=4,
        langevin=LangevinConfig(steps=5, step_size=0.02, seed=0),
        eval_every=2,
        checkpoint_every=2,
        eval_samples=50,
    )
    base.update(over)
    return TrainConfig(**base)


def dot_cfg(**over) -> TrainConfig:
    base = dict(
        iterations=2,
        langevin=LangevinConfig(steps=3, step_size=0.02, seed=0),
        eval_every=1,
        checkpoint_every=10,
        eval_samples=6,
    )
    base.update(over)
    return TrainConfig(**base)


def all_params(state) -> dict:
    return {f"{n}.{k}": p.data.copy() for n, net in state.nets().items() for k, p in net.params.items()}


def all_moments(state) -> dict:
    return {g: (m.copy(), v.copy()) for g, (m, v) in state.opt.items()}


def flat_params(net) -> np.ndarray:
    return np.concatenate([p.data.ravel() for p in net.params.values()])


def replayed_batches(state, dsx, dsy, cfg) -> tuple[np.ndarray, np.ndarray]:
    """The (x, y) batches the iteration at ``state.t`` draws from the trainer's
    streams: one example per domain, or the frames of one clip per domain."""
    from coopforge.trainer import _sample_clips

    def draw(data, phase):
        gen = data_stream(cfg.seed, state.t, phase=phase)
        if state.r_x is None:
            return data[gen.integers(0, len(data), size=1)]
        return clip_frames(_sample_clips(data, gen, cfg.k))

    return draw(dsx.examples, 1), draw(dsy.examples, 0)


# ---------------------------------------------------------------- adam_step


def test_adam_first_step_bias_correction():
    p = np.zeros(4)
    g = np.ones(4)
    new, (m, v) = adam_step(p, g, (np.zeros(4), np.zeros(4)), rate=2e-4, t=1)
    # bias correction makes m_hat = v_hat = 1, so the move is -rate/(1+eps)
    np.testing.assert_allclose(new, -2e-4, rtol=1e-6)
    np.testing.assert_allclose(m, 0.1)
    np.testing.assert_allclose(v, 0.001)


def test_adam_zero_gradient_is_identity():
    p = np.array([1.5, -2.0])
    new, (m, v) = adam_step(p, np.zeros(2), (np.zeros(2), np.zeros(2)), rate=0.1, t=1)
    np.testing.assert_array_equal(new, p)
    np.testing.assert_array_equal(m, 0.0)
    np.testing.assert_array_equal(v, 0.0)


def test_adam_three_step_hand_trace():
    # independent scalar recomputation with plain Python floats
    rate, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    grads = [1.0, -2.0, 0.5]
    p_ref, m_ref, v_ref = 0.5, 0.0, 0.0
    for step, g in enumerate(grads, start=1):
        m_ref = b1 * m_ref + (1 - b1) * g
        v_ref = b2 * v_ref + (1 - b2) * g * g
        m_hat = m_ref / (1 - b1**step)
        v_hat = v_ref / (1 - b2**step)
        p_ref = p_ref - rate * m_hat / (math.sqrt(v_hat) + eps)

    p = np.array([0.5])
    mom = (np.zeros(1), np.zeros(1))
    for step, g in enumerate(grads, start=1):
        p, mom = adam_step(p, np.array([g]), mom, rate=rate, t=step)
    assert abs(p[0] - p_ref) <= 1e-10


def test_adam_does_not_mutate_inputs():
    p = np.ones(3)
    g = np.full(3, 2.0)
    m, v = np.zeros(3), np.zeros(3)
    adam_step(p, g, (m, v), rate=0.1, t=1)
    np.testing.assert_array_equal(p, 1.0)
    np.testing.assert_array_equal(m, 0.0)
    np.testing.assert_array_equal(v, 0.0)


def test_adam_validation():
    with pytest.raises(ShapeError):
        adam_step(np.zeros(3), np.zeros(4), (np.zeros(3), np.zeros(3)), rate=0.1, t=1)
    with pytest.raises(ValueError, match="starts at 1"):
        adam_step(np.zeros(3), np.zeros(3), (np.zeros(3), np.zeros(3)), rate=0.1, t=0)


# ---------------------------------------------------------------- config & state


def test_config_validation():
    with pytest.raises(ValueError):
        ring_cfg(iterations=0)
    with pytest.raises(ValueError):
        ring_cfg(lr=0.0)
    with pytest.raises(ValueError):
        ring_cfg(k=0)
    with pytest.raises(ValueError):
        ring_cfg(eval_samples=2)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "name", ["lr", "lr_theta_x", "lr_theta_y", "lr_alpha_x", "lr_alpha_y", "batch", "reference_scale"]
)
def test_config_rejects_non_finite_rates(name, value):
    if name != "lr":
        # older configs carried four per-network rates (now merged into lr), a
        # batch size and a reference scale (now fixed at one pair and the unit
        # reference): a stored config still carrying one is refused, and lr
        # itself takes the check
        stale = {**dataclasses.asdict(ring_cfg()), name: value}
        with pytest.raises(ValueError, match=rf"TrainConfig has no fields \['{name}'\]"):
            config_from_dict(TrainConfig, stale)
        name = "lr"
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ring_cfg(**{name: value})


def test_init_state_points():
    state = init_state(ring_cfg(), generate(RING_X), generate(RING_Y))
    assert state.t == 0
    assert state.r_x is None and state.r_y is None
    assert set(state.opt) == {"ebm_x", "ebm_y", "g_xy", "g_yx"}
    for gname, params in state.groups().items():
        # an (m, v) pair of zero float32 vectors, each as long as all parameters together
        size = sum(p.data.size for p in params.values())
        assert len(state.opt[gname]) == 2
        for moment in state.opt[gname]:
            assert moment.shape == (size,) and moment.dtype == np.float32
            assert not moment.any()


def test_init_state_sequences_has_predictors():
    state = init_state(dot_cfg(), generate(DOT_X), generate(DOT_Y))
    assert state.r_x is not None and state.r_y is not None
    assert "r_x" in state.opt and "r_y" in state.opt


def test_init_state_rejects_mismatched_domains():
    with pytest.raises(ValueError, match="kinds differ"):
        init_state(ring_cfg(), generate(RING_X), generate(DOT_Y))


# ---------------------------------------------------------------- train_iteration


def test_iteration_is_bitwise_reproducible():
    cfg = ring_cfg()
    dsx, dsy = generate(RING_X), generate(RING_Y)
    runs = []
    for _ in range(2):
        state = init_state(cfg, dsx, dsy)
        train_iteration(state, dsx.examples, dsy.examples, cfg)
        runs.append(all_params(state))
    for k in runs[0]:
        np.testing.assert_array_equal(runs[0][k], runs[1][k], err_msg=k)


def test_alpha_phase_noop_with_identity_revision():
    # steps = 0 keeps targets equal to translator outputs; with the cycle
    # term off the translator gradient is identically zero
    cfg = ring_cfg(langevin=LangevinConfig(steps=0, step_size=0.02, seed=0), weights=LossWeights(lambda_cyc=0))
    dsx, dsy = generate(RING_X), generate(RING_Y)
    state = init_state(cfg, dsx, dsy)
    g_before = {k: p.data.copy() for k, p in state.g_xy.params.items()}
    g_before.update({"yx." + k: p.data.copy() for k, p in state.g_yx.params.items()})
    e_before = {k: p.data.copy() for k, p in state.ebm_x.params.items()}
    train_iteration(state, dsx.examples, dsy.examples, cfg)
    for k, p in state.g_xy.params.items():
        np.testing.assert_array_equal(p.data, g_before[k], err_msg=k)
    for k, p in state.g_yx.params.items():
        np.testing.assert_array_equal(p.data, g_before["yx." + k], err_msg=k)
    # the energy phase still learns: data and synthesis batches differ
    assert any(not np.array_equal(p.data, e_before[k]) for k, p in state.ebm_x.params.items())


def test_iteration_advances_clock_and_stats():
    cfg = ring_cfg()
    dsx, dsy = generate(RING_X), generate(RING_Y)
    state = init_state(cfg, dsx, dsy)
    train_iteration(state, dsx.examples, dsy.examples, cfg)
    assert state.t == 1
    assert set(state.last) == {"energy_init", "energy_revised", "teach_loss"}
    assert all(np.isfinite(v) for v in state.last.values())


@pytest.mark.parametrize(
    "step, pair, make_cfg",
    [(train_iteration, (RING_X, RING_Y), ring_cfg), (train_sequence_iteration, (DOT_X, DOT_Y), dot_cfg)],
    ids=["points", "sequences"],
)
def test_adam_step_count_is_the_clock(monkeypatch, step, pair, make_cfg):
    # each iteration steps every network exactly once, on all its parameters
    # as one vector, and always as Adam step number state.t + 1
    cfg = make_cfg()
    dsx, dsy = generate(pair[0]), generate(pair[1])
    state = init_state(cfg, dsx, dsy)
    calls = []
    real = trainer.adam_step

    def spy(param, grad, moments, rate, t):
        calls.append((param.tobytes(), t, state.t))
        return real(param, grad, moments, rate, t)

    monkeypatch.setattr(trainer, "adam_step", spy)
    for it in range(3):
        before = {name: flat_params(net).tobytes() for name, net in state.nets().items()}
        calls.clear()
        step(state, dsx.examples, dsy.examples, cfg)
        assert state.t == it + 1
        assert sorted(param for param, _, _ in calls) == sorted(before.values())
        assert all(t == clock + 1 == it + 1 for _, t, clock in calls)
        # every parameter is a view of its network's one new vector
        for net in state.nets().values():
            assert all(p.data.base is net.vector for p in net.params.values()), net.name


@pytest.mark.parametrize(
    "step, pair, make_cfg",
    [(train_iteration, (RING_X, RING_Y), ring_cfg), (train_sequence_iteration, (DOT_X, DOT_Y), dot_cfg)],
    ids=["points", "sequences"],
)
def test_flat_adam_matches_per_parameter_steps(monkeypatch, step, pair, make_cfg):
    # Adam is elementwise: one step per network on the concatenated vector
    # gives bitwise the parameters and moments of one step per tensor
    cfg = make_cfg()
    dsx, dsy = generate(pair[0]), generate(pair[1])
    flat, ref = init_state(cfg, dsx, dsy), init_state(cfg, dsx, dsy)
    for _ in range(3):
        step(flat, dsx.examples, dsy.examples, cfg)

    moments = {}

    def per_parameter(state, net, grads, rate, phase):
        for k, p in state.groups()[net].items():
            zero = np.zeros_like(p.data)
            p.data, moments[net, k] = adam_step(p.data, grads[k], moments.get((net, k), (zero, zero)), rate, state.t + 1)

    monkeypatch.setattr(trainer, "_apply_adam", per_parameter)
    for _ in range(3):
        step(ref, dsx.examples, dsy.examples, cfg)
    assert all_params(flat).keys() == all_params(ref).keys()
    for k, a in all_params(ref).items():
        assert all_params(flat)[k].tobytes() == a.tobytes(), k
    for name, net in ref.nets().items():
        for i, slot in enumerate(("m", "v")):
            expected = np.concatenate([moments[name, k][i].ravel() for k in net.params])
            assert flat.opt[name][i].tobytes() == expected.tobytes(), (name, slot)


def test_iteration_rejects_empty_data():
    cfg = ring_cfg()
    dsx, dsy = generate(RING_X), generate(RING_Y)
    state = init_state(cfg, dsx, dsy)
    with pytest.raises(ValueError, match="non-empty"):
        train_iteration(state, dsx.examples[:0], dsy.examples, cfg)


def test_divergence_rolls_back_and_tags_phase():
    # a huge step size makes the reference pull alternate and explode
    cfg = ring_cfg(langevin=LangevinConfig(steps=15, step_size=50.0, seed=0))
    dsx, dsy = generate(RING_X), generate(RING_Y)
    state = init_state(cfg, dsx, dsy)
    train_iteration(state, dsx.examples, dsy.examples, ring_cfg())  # one clean step first
    before = all_params(state)
    with pytest.raises(TrainPhaseError) as err:
        train_iteration(state, dsx.examples, dsy.examples, cfg)
    assert err.value.phase == "langevin_x"
    after = all_params(state)
    for k in before:
        np.testing.assert_array_equal(before[k], after[k], err_msg=k)
    assert state.t == 1


@pytest.mark.parametrize(
    "step, pair, make_cfg",
    [(train_iteration, (RING_X, RING_Y), ring_cfg), (train_sequence_iteration, (DOT_X, DOT_Y), dot_cfg)],
    ids=["points", "sequences"],
)
def test_failed_objective_rolls_back_committed_energy_updates(monkeypatch, step, pair, make_cfg):
    # both energy models step before the translators, so a translator step
    # that fails the objective phase must also undo ebm_x/ebm_y and their moments
    cfg = make_cfg()
    dsx, dsy = generate(pair[0]), generate(pair[1])
    state = init_state(cfg, dsx, dsy)
    step(state, dsx.examples, dsy.examples, cfg)  # one clean step: non-zero moments
    params, moments = all_params(state), all_moments(state)
    stepped, seen = [], {}
    real = trainer.adam_step

    def nan_for_g_xy(param, grad, slot, rate, t):
        name = next(n for n, net in state.nets().items() if net.vector is param)
        stepped.append(name)
        new, slot = real(param, grad, slot, rate, t)
        if name == "g_xy":
            seen.update(all_params(state))
            new = np.full_like(new, np.nan)
        return new, slot

    monkeypatch.setattr(trainer, "adam_step", nan_for_g_xy)
    with pytest.raises(TrainPhaseError) as err:
        step(state, dsx.examples, dsy.examples, cfg)
    assert err.value.phase == "objective"
    assert "g_xy." in str(err.value)
    assert stepped == ["ebm_x", "ebm_y", "g_xy"]
    for net in ("ebm_x", "ebm_y"):
        assert any(not np.array_equal(seen[k], params[k]) for k in params if k.startswith(net + "."))
    after = all_params(state)
    assert set(after) == set(params)
    for k in params:
        assert after[k].tobytes() == params[k].tobytes(), k
    restored = all_moments(state)
    assert set(restored) == set(moments)
    for g, (m, v) in moments.items():
        assert restored[g][0].tobytes() == m.tobytes(), g
        assert restored[g][1].tobytes() == v.tobytes(), g
    assert state.t == 1


@pytest.mark.parametrize(
    "step, pair, make_cfg",
    [(train_iteration, (RING_X, RING_Y), ring_cfg), (train_sequence_iteration, (DOT_X, DOT_Y), dot_cfg)],
    ids=["points", "sequences"],
)
def test_energy_step_matches_replayed_estimator(step, pair, make_cfg):
    # each energy model takes one Adam step on -ebm_grad of the replayed data
    # and revisions at the iteration's start parameters; the trainer reads
    # it from the single backward pass of the objective minus both surrogates
    cfg = make_cfg()
    dsx, dsy = generate(pair[0]), generate(pair[1])
    state, twin = init_state(cfg, dsx, dsy), init_state(cfg, dsx, dsy)
    for s in (state, twin):
        step(s, dsx.examples, dsy.examples, cfg)  # one clean step: non-zero moments
    step(state, dsx.examples, dsy.examples, cfg)

    t = twin.t
    x_data, y_data = replayed_batches(twin, dsx, dsy, cfg)
    n = len(y_data)
    x_tilde = revise(run_translator(twin.g_yx, y_data), twin.ebm_x, cfg.langevin, chain_offset=2 * t * n)
    y_tilde = revise(run_translator(twin.g_xy, x_data), twin.ebm_y, cfg.langevin, chain_offset=(2 * t + 1) * n)
    for name, data, synth in (("ebm_x", x_data, x_tilde), ("ebm_y", y_data, y_tilde)):
        model = getattr(twin, name)
        grads = ebm_grad(model, data, synth)
        ascent = -np.concatenate([grads[k].ravel() for k in model.params])
        vector, (m, v) = adam_step(model.scorer.vector, ascent, twin.opt[name], cfg.lr, t + 1)
        assert state.nets()[name].vector.tobytes() == vector.tobytes(), name
        assert state.opt[name][0].tobytes() == m.tobytes(), name
        assert state.opt[name][1].tobytes() == v.tobytes(), name


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "step, pair, make_cfg",
    [(train_iteration, (RING_X, RING_Y), ring_cfg), (train_sequence_iteration, (DOT_X, DOT_Y), dot_cfg)],
    ids=["points", "sequences"],
)
def test_non_finite_energy_gradient_fails_its_phase(monkeypatch, step, pair, make_cfg, value):
    # any non-finite gradient entry fails the energy model's own step before
    # Adam runs, names the parameter, and the iteration rolls back
    cfg = make_cfg()
    dsx, dsy = generate(pair[0]), generate(pair[1])
    state = init_state(cfg, dsx, dsy)
    step(state, dsx.examples, dsy.examples, cfg)
    params, moments = all_params(state), all_moments(state)
    name, target = list(state.ebm_x.params.items())[1]
    real = trainer.backward

    def poisoned(graph, root, wrt):
        grads = real(graph, root, wrt)
        for key, p in wrt.items():
            if p is target:
                grads[key].flat[0] = value
        return grads

    monkeypatch.setattr(trainer, "backward", poisoned)
    with pytest.raises(TrainPhaseError) as err:
        step(state, dsx.examples, dsy.examples, cfg)
    assert err.value.phase == "ebm_x"
    assert f"ebm_x.{name} " in str(err.value)
    for k in params:
        assert all_params(state)[k].tobytes() == params[k].tobytes(), k
    for g, (m, v) in moments.items():
        assert state.opt[g][0].tobytes() == m.tobytes(), g
        assert state.opt[g][1].tobytes() == v.tobytes(), g
    assert state.t == 1


def test_ring_iteration_takes_one_backward_and_no_ebm_grad(monkeypatch):
    # the objective and both energy surrogates share one tape and one pass;
    # ring scorers take their Langevin input gradients without the tape
    calls = []
    real_backward, real_ebm_grad = trainer.backward, objectives.ebm_grad

    def counted(*args, **kwargs):
        calls.append(1)
        return real_backward(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("ebm_grad called")

    for module_name, module in list(sys.modules.items()):
        if module_name == "coopforge" or module_name.startswith("coopforge."):
            for attr, value in list(vars(module).items()):
                if value is real_backward:
                    monkeypatch.setattr(module, attr, counted)
                elif value is real_ebm_grad:
                    monkeypatch.setattr(module, attr, refuse)
    cfg = ring_cfg()
    dsx, dsy = generate(RING_X), generate(RING_Y)
    state = init_state(cfg, dsx, dsy)
    for it in range(2):
        calls.clear()
        train_iteration(state, dsx.examples, dsy.examples, cfg)
        assert len(calls) == 1, it


@pytest.mark.parametrize(
    "step, pair, make_cfg",
    [(train_iteration, (RING_X, RING_Y), ring_cfg), (train_sequence_iteration, (DOT_X, DOT_Y), dot_cfg)],
    ids=["points", "sequences"],
)
def test_each_term_of_the_root_reaches_only_its_networks(step, pair, make_cfg):
    # one backward pass of objective - both surrogates gives each network its
    # own step only while the objective reads no scorer and each surrogate
    # reads only its own scorer: every other gradient must be exactly zero
    cfg = make_cfg(weights=LossWeights(lambda_cyc=9, lambda1=9, lambda2=9))
    dsx, dsy = generate(pair[0]), generate(pair[1])
    state = init_state(cfg, dsx, dsy)
    step(state, dsx.examples, dsy.examples, cfg)  # off the identity initialisation
    leaves = {(net, k): p for net, params in state.groups().items() for k, p in params.items()}
    sequence = state.r_x is not None
    x_batch, y_batch = (ds.examples[:1, : cfg.k + 1] if sequence else ds.examples[:2] for ds in (dsx, dsy))
    x_data, y_data = (clip_frames(b) if sequence else b for b in (x_batch, y_batch))

    graph = Graph()
    with graph:
        x_moved = state.g_yx.forward(Tensor(y_data))
        y_moved = state.g_xy.forward(Tensor(x_data))
    x_tilde, y_tilde = x_moved.data + 0.1, y_moved.data - 0.1
    nets = (state.g_xy, state.g_yx, state.r_x, state.r_y) if sequence else (state.g_xy, state.g_yx)
    objective = sequence_objective if sequence else image_objective
    with graph:
        loss = objective(*nets, x_batch, y_batch, x_moved, y_moved, x_tilde, y_tilde, cfg.weights)
    grads = backward(graph, loss, leaves)
    assert all(any(grads[net, k].any() for k in state.groups()[net]) for net in ("g_xy", "g_yx"))
    assert all(not grads[net, k].any() for net, k in leaves if net in ("ebm_x", "ebm_y")), "objective reads a scorer"

    for name, data, synth in (("ebm_x", x_data, x_tilde), ("ebm_y", y_data, y_tilde)):
        with Graph() as surrogate_graph:
            surrogate = ebm_surrogate(getattr(state, name), data, synth)
        grads = backward(surrogate_graph, surrogate, leaves)
        assert any(grads[net, k].any() for net, k in leaves if net == name), name
        assert all(not grads[net, k].any() for net, k in leaves if net != name), name


@pytest.mark.parametrize(
    "step, objective, pair, make_cfg",
    [
        (train_iteration, "image_objective", (RING_X, RING_Y), ring_cfg),
        (train_sequence_iteration, "sequence_objective", (DOT_X, DOT_Y), dot_cfg),
    ],
    ids=["points", "sequences"],
)
def test_parameters_stay_views_of_the_network_vector(tmp_path, monkeypatch, step, objective, pair, make_cfg):
    # after the first read, a step, a rollback and a load, each parameter is
    # its stretch of net.vector; a rollback brings back the very vectors
    cfg = make_cfg()
    dsx, dsy = generate(pair[0]), generate(pair[1])
    state = init_state(cfg, dsx, dsy)
    for net in state.nets().values():
        assert_params_view_vector(net)
    step(state, dsx.examples, dsy.examples, cfg)
    for net in state.nets().values():
        assert_params_view_vector(net)
    before = {name: net.vector for name, net in state.nets().items()}
    with monkeypatch.context() as patch:
        patch.setattr(trainer, objective, lambda *args, **kwargs: Tensor(np.float32(np.nan)))
        with pytest.raises(TrainPhaseError):
            step(state, dsx.examples, dsy.examples, cfg)
    for name, net in state.nets().items():
        assert net.vector is before[name], name
        assert_params_view_vector(net)
    loaded = load_checkpoint(save_checkpoint(state, cfg, *pair, tmp_path))[0]
    for name, net in loaded.nets().items():
        assert_params_view_vector(net)
        assert net.vector.tobytes() == before[name].tobytes(), name


# ---------------------------------------------------------------- sequence mode


@pytest.mark.parametrize(
    "lambda1, lambda2, sequence_cycle",
    [(0, 0, False), (9, 9, False), (0, 0, True), (9, 9, True)],
    ids=["0-0", "9-9", "0-0-cycle", "9-9-cycle"],
)
def test_sequence_iteration_matches_replayed_objective_update(lambda1, lambda2, sequence_cycle):
    # the joint update equals one Adam step on sequence_objective over the
    # replayed batches, with both translations recorded before revision on
    # the tape the objective extends; lambda_cyc applies only with
    # sequence_cycle on, as in the dot recipe; at zero lambdas the
    # predictors get zero gradient
    weights = LossWeights(lambda_cyc=9, lambda1=lambda1, lambda2=lambda2)
    cfg = dot_cfg(weights=weights, sequence_cycle=sequence_cycle)
    dsx, dsy = generate(DOT_X), generate(DOT_Y)
    state = init_state(cfg, dsx, dsy)
    twin = init_state(cfg, dsx, dsy)
    # one step first: the translators start as the identity, where the cycle
    # residual and so its gradient are exactly zero
    for s in (state, twin):
        train_sequence_iteration(s, dsx.examples, dsy.examples, cfg)
    r_before = {k: p.data.copy() for k, p in state.r_x.params.items()}

    train_sequence_iteration(state, dsx.examples, dsy.examples, cfg)

    # reference: replay the same streams and descend the objective directly
    from coopforge.trainer import _apply_adam, _sample_clips

    t = twin.t
    y_clips = _sample_clips(dsy.examples, data_stream(cfg.seed, t, phase=0), cfg.k)
    x_clips = _sample_clips(dsx.examples, data_stream(cfg.seed, t, phase=1), cfg.k)
    x_frames, y_frames = clip_frames(x_clips), clip_frames(y_clips)
    per_dir = cfg.k + 1
    graph = Graph()
    with graph:
        x_moved = twin.g_yx.forward(Tensor(y_frames))
        y_moved = twin.g_xy.forward(Tensor(x_frames))
    x_tilde = revise(x_moved.data, twin.ebm_x, cfg.langevin, chain_offset=2 * t * per_dir)
    y_tilde = revise(y_moved.data, twin.ebm_y, cfg.langevin, chain_offset=(2 * t + 1) * per_dir)
    replayed = weights if sequence_cycle else LossWeights(lambda_cyc=0, lambda1=lambda1, lambda2=lambda2)
    with graph:
        loss = sequence_objective(
            twin.g_xy, twin.g_yx, twin.r_x, twin.r_y, x_clips, y_clips, x_moved, y_moved, x_tilde, y_tilde, replayed
        )
    groups = twin.groups()
    descend = ("g_xy", "g_yx", "r_x", "r_y")
    grads = backward(graph, loss, {(net, k): p for net in descend for k, p in groups[net].items()})
    for net in descend:
        _apply_adam(twin, net, {k: grads[net, k] for k in groups[net]}, cfg.lr, "objective")

    for name in ("g_xy", "g_yx", "r_x", "r_y"):
        for k, p in getattr(state, name).params.items():
            np.testing.assert_array_equal(p.data, getattr(twin, name).params[k].data, err_msg=f"{name}.{k}")
    if lambda1 == lambda2 == 0:
        for k, p in state.r_x.params.items():
            np.testing.assert_array_equal(p.data, r_before[k], err_msg=k)


def test_sequence_constant_clips_keep_temporal_losses_small():
    # static sequences: frame-hold initialization is exact, so the temporal
    # and round-trip prediction errors stay near zero while training runs
    cfg = dot_cfg(iterations=25, langevin=LangevinConfig(steps=3, step_size=0.02, seed=0))
    dsx, dsy = generate(DOT_X), generate(DOT_Y)
    state = init_state(cfg, dsx, dsy)
    for _ in range(25):
        train_sequence_iteration(state, dsx.examples, dsy.examples, cfg)
    clips = dsx.examples[:, : cfg.k + 1]
    pixels = np.prod(dsx.sample_shape)
    tp = float(temporal_loss(state.r_x, clips).data) / pixels
    moved = run_translator(state.g_xy, clips.reshape((-1,) + dsx.sample_shape))
    st = float(spatiotemporal_loss(moved, state.r_y, state.g_yx, clips).data) / pixels
    assert tp < 0.05
    assert st < 0.05


@pytest.mark.parametrize(
    "step, pair, make_cfg, translator, calls",
    [
        # G_xy(x), G_yx(y) and the two cycle legs
        (train_iteration, (RING_X, RING_Y), ring_benchmark_config, PointTranslator, 4),
        # the same four plus the two spatiotemporal back-translations
        (train_sequence_iteration, (DOT_X, DOT_Y), dot_benchmark_config, ImageTranslator, 6),
    ],
    ids=["ring", "dot"],
)
def test_one_translator_forward_per_term(monkeypatch, step, pair, make_cfg, translator, calls):
    cfg = make_cfg()
    dsx, dsy = generate(pair[0]), generate(pair[1])
    state = init_state(cfg, dsx, dsy)
    seen = []
    forward = translator.forward

    def counted(self, x):
        seen.append(self.name)
        return forward(self, x)

    monkeypatch.setattr(translator, "forward", counted)
    step(state, dsx.examples, dsy.examples, cfg)
    assert len(seen) == calls
    assert seen[:2] == ["g_yx", "g_xy"]


def test_sequence_iteration_requires_predictors():
    cfg = ring_cfg()
    dsx, dsy = generate(RING_X), generate(RING_Y)
    state = init_state(cfg, dsx, dsy)
    with pytest.raises(ValueError, match="temporal predictors"):
        train_sequence_iteration(state, dsx.examples, dsy.examples, cfg)


def test_translate_sequence_zero_steps_is_pure_translation():
    cfg = dot_cfg()
    dsx, dsy = generate(DOT_X), generate(DOT_Y)
    state = init_state(cfg, dsx, dsy)
    seq = dsx.examples[0]
    out = translate_sequence(seq, state.g_xy, state.ebm_y, LangevinConfig(steps=0, step_size=0.02))
    np.testing.assert_array_equal(out, run_translator(state.g_xy, seq))
    assert out.shape == seq.shape


def test_translate_sequence_revises_each_frame():
    cfg = dot_cfg()
    dsx, dsy = generate(DOT_X), generate(DOT_Y)
    state = init_state(cfg, dsx, dsy)
    seq = dsx.examples[0][:3]
    lcfg = LangevinConfig(steps=4, step_size=0.02, seed=7)
    out = translate_sequence(seq, state.g_xy, state.ebm_y, lcfg)
    assert out.shape == seq.shape
    assert np.abs(out - run_translator(state.g_xy, seq)).max() > 0.0
    single = translate_sequence(seq[:1], state.g_xy, state.ebm_y, lcfg)
    np.testing.assert_array_equal(single[0].shape, seq[0].shape)


def test_translate_sequence_validates_shape():
    cfg = dot_cfg()
    state = init_state(cfg, generate(DOT_X), generate(DOT_Y))
    with pytest.raises(ShapeError):
        translate_sequence(np.zeros((16, 16)), state.g_xy, state.ebm_y, LangevinConfig(steps=0, step_size=0.02))


def test_translate_sequence_serves_point_batches():
    cfg = ring_cfg()
    dsx, dsy = generate(RING_X), generate(RING_Y)
    state = init_state(cfg, dsx, dsy)
    points = dsx.examples[:5]
    out = translate_sequence(points, state.g_xy, state.ebm_y, LangevinConfig(steps=0, step_size=0.02))
    np.testing.assert_array_equal(out, run_translator(state.g_xy, points))
    lcfg = LangevinConfig(steps=3, step_size=0.02, seed=4)
    np.testing.assert_array_equal(
        translate_sequence(points, state.g_xy, state.ebm_y, lcfg),
        revise(run_translator(state.g_xy, points), state.ebm_y, lcfg),
    )


def test_translate_sequence_rejects_empty_batch():
    cfg = ring_cfg()
    state = init_state(cfg, generate(RING_X), generate(RING_Y))
    for steps in (0, 3):
        with pytest.raises(ShapeError, match="non-empty"):
            translate_sequence(np.zeros((0, 2), dtype=np.float32), state.g_xy, state.ebm_y, LangevinConfig(steps, 0.02))


# ---------------------------------------------------------------- checkpoints & train()


def test_checkpoint_round_trip(tmp_path):
    cfg = ring_cfg()
    dsx, dsy = generate(RING_X), generate(RING_Y)
    state = init_state(cfg, dsx, dsy)
    for _ in range(3):
        train_iteration(state, dsx.examples, dsy.examples, cfg)
    root = save_checkpoint(state, cfg, RING_X, RING_Y, tmp_path)
    assert root.name == "ckpt_3"
    loaded, cfg2, dx2, dy2 = load_checkpoint(root)
    assert cfg2 == cfg and dx2 == RING_X and dy2 == RING_Y
    assert loaded.t == 3
    before, after = all_params(state), all_params(loaded)
    assert before.keys() == after.keys()
    for k in before:
        assert before[k].tobytes() == after[k].tobytes(), k
    # the load reads no moments; they are on disk for a resume
    assert loaded.opt == {}
    for g, (m, v) in state.opt.items():
        assert load_ctns(root / "adam" / f"{g}.m.ctns").data.tobytes() == m.tobytes(), g
        assert load_ctns(root / "adam" / f"{g}.v.ctns").data.tobytes() == v.tobytes(), g


@pytest.mark.parametrize("pair, make_cfg", [((RING_X, RING_Y), ring_cfg), ((DOT_X, DOT_Y), dot_cfg)], ids=["points", "sequences"])
def test_every_record_is_keyed_by_net_name(tmp_path, pair, make_cfg):
    cfg = make_cfg()
    ds = generate(pair[0])
    state = init_state(cfg, ds, generate(pair[1]))
    root = save_checkpoint(state, cfg, *pair, tmp_path)
    manifest = json.loads((root / "manifest.json").read_text())
    assert manifest["sample_shape"] == list(ds.sample_shape)
    names = set(state.nets())
    assert set(state.groups()) == set(state.opt) == names
    # three files per network: its parameters and its two moments
    assert {f.name for f in (root / "nets").iterdir()} == {f"{n}.ctns" for n in names}
    assert {f.name for f in (root / "adam").iterdir()} == {f"{n}.{s}.ctns" for n in names for s in ("m", "v")}
    assert set(manifest["params"]) == names
    for name, net in state.nets().items():
        assert manifest["params"][name] == [[k, list(p.data.shape)] for k, p in net.params.items()]
    assert manifest["files"] == {
        str(f.relative_to(root)): f.stat().st_size for f in root.rglob("*.ctns")
    }


def test_checkpoint_write_is_atomic(tmp_path):
    # the files go into ckpt_<t>.tmp/, a stale one is cleared, and the rename
    # replaces an older checkpoint of the same iteration
    cfg = ring_cfg()
    state = init_state(cfg, generate(RING_X), generate(RING_Y))
    (tmp_path / "ckpt_0.tmp").mkdir()
    (tmp_path / "ckpt_0.tmp" / "stale.ctns").write_bytes(b"x")
    (tmp_path / "ckpt_0").mkdir()
    (tmp_path / "ckpt_0" / "old.ctns").write_bytes(b"x")
    root = save_checkpoint(state, cfg, RING_X, RING_Y, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt_0"]
    assert sorted(p.name for p in root.iterdir()) == ["adam", "manifest.json", "nets"]


def test_load_rejects_a_truncated_parameter_file(tmp_path):
    cfg = dot_cfg()
    root = save_checkpoint(init_state(cfg, generate(DOT_X), generate(DOT_Y)), cfg, DOT_X, DOT_Y, tmp_path)
    path = root / "nets" / "r_y.ctns"
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError, match=rf"{path}: \d+ bytes, but the manifest lists \d+"):
        load_checkpoint(root)


def test_load_rejects_a_directory_without_manifest(tmp_path):
    cfg = ring_cfg()
    root = save_checkpoint(init_state(cfg, generate(RING_X), generate(RING_Y)), cfg, RING_X, RING_Y, tmp_path)
    (root / "manifest.json").unlink()
    with pytest.raises(FileNotFoundError, match=f"{root / 'manifest.json'}: missing"):
        load_checkpoint(root)


@pytest.mark.parametrize("defect", ["name", "shape", "length"])
def test_load_names_the_network_whose_layout_differs(tmp_path, defect):
    cfg = ring_cfg()
    root = save_checkpoint(init_state(cfg, generate(RING_X), generate(RING_Y)), cfg, RING_X, RING_Y, tmp_path)
    manifest = json.loads((root / "manifest.json").read_text())
    if defect == "name":
        manifest["params"]["g_yx"][0][0] = "block0.w9"
    elif defect == "shape":
        manifest["params"]["g_yx"][0][1] = [3, 64]
    else:  # a vector one element short, with the manifest's size to match
        save_ctns(np.zeros(643, dtype=np.float32), root / "nets" / "g_yx.ctns")
        manifest["files"]["nets/g_yx.ctns"] = (root / "nets" / "g_yx.ctns").stat().st_size
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="g_yx: "):
        load_checkpoint(root)


def test_load_refuses_a_manifest_without_sample_shape(tmp_path):
    cfg = ring_cfg()
    root = save_checkpoint(init_state(cfg, generate(RING_X), generate(RING_Y)), cfg, RING_X, RING_Y, tmp_path)
    manifest = json.loads((root / "manifest.json").read_text())
    del manifest["sample_shape"]
    (root / "manifest.json").write_text(json.dumps(manifest))
    message = f"{root / 'manifest.json'}: no sample_shape; checkpoints from before manifests had sample_shape do not load"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_checkpoint(root)


def test_resume_rejects_a_missing_moment_file(tmp_path):
    cfg = ring_cfg(iterations=4, eval_every=2, checkpoint_every=2)
    train(cfg, RING_X, RING_Y, tmp_path)
    missing = tmp_path / "ckpt_2" / "adam" / "ebm_y.m.ctns"
    missing.unlink()
    load_checkpoint(tmp_path / "ckpt_2")  # serving needs no moments
    with pytest.raises(FileNotFoundError, match=f"{missing}: missing, but the manifest lists it"):
        train(cfg, RING_X, RING_Y, tmp_path / "b", resume_from=tmp_path / "ckpt_2")


def test_resume_rejects_a_moment_of_another_length(tmp_path):
    cfg = ring_cfg(iterations=4, eval_every=2, checkpoint_every=2)
    train(cfg, RING_X, RING_Y, tmp_path)
    root = tmp_path / "ckpt_2"
    manifest = json.loads((root / "manifest.json").read_text())
    save_ctns(np.zeros(643, dtype=np.float32), root / "adam" / "g_yx.v.ctns")
    manifest["files"]["adam/g_yx.v.ctns"] = (root / "adam" / "g_yx.v.ctns").stat().st_size
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="g_yx: moments in .* do not match the network's float32 \\(644,\\)"):
        train(cfg, RING_X, RING_Y, tmp_path / "b", resume_from=root)


@pytest.mark.parametrize("pair, make_cfg", [((RING_X, RING_Y), ring_cfg), ((DOT_X, DOT_Y), dot_cfg)], ids=["points", "sequences"])
def test_load_draws_no_initial_weights(tmp_path, monkeypatch, pair, make_cfg):
    cfg = make_cfg()
    state = init_state(cfg, generate(pair[0]), generate(pair[1]))
    root = save_checkpoint(state, cfg, *pair, tmp_path)

    def no_draw(*args):
        raise AssertionError("an initial weight was drawn")

    monkeypatch.setattr(rng, "init_stream", no_draw)
    loaded = load_checkpoint(root)[0]
    for name, net in state.nets().items():
        assert flat_params(loaded.nets()[name]).tobytes() == flat_params(net).tobytes(), name


def test_config_from_dict_inverts_asdict():
    cfg = ring_cfg(
        langevin=LangevinConfig(steps=7, step_size=0.05, noise_scale=0.5, seed=3),
        weights=LossWeights(lambda_cyc=1.0, lambda1=2.0, lambda2=3.0),
    )
    assert cfg.langevin != TrainConfig(iterations=1).langevin and cfg.weights != LossWeights()
    assert config_from_dict(TrainConfig, dataclasses.asdict(cfg)) == cfg


def test_unscorable_eval_sets_fail_before_training(tmp_path, monkeypatch):
    # 10 held-out images give 10 samples of 16-dim features; the distance needs 17
    shapes_x = DomainDescriptor("shapes", {"n": 12, "side": 16, "shape_kind": "square", "palette": "bright"}, 1)
    shapes_y = DomainDescriptor("shapes", {"n": 12, "side": 16, "shape_kind": "disk", "palette": "dark"}, 2)
    cfg = ring_cfg(eval_samples=10)

    def no_iteration(*args):
        raise AssertionError("an iteration ran")

    monkeypatch.setattr(trainer, "train_iteration", no_iteration)
    with pytest.raises(ValueError, match="first set has 10 samples; 16-dim features need at least 17"):
        train(cfg, shapes_x, shapes_y, tmp_path)
    assert not (tmp_path / "metrics.csv").exists()


def test_clips_longer_than_sequences_fail_before_training(tmp_path, monkeypatch):
    # k = 3 needs 4-frame clips; 3-frame sequences cannot give one
    short_x, short_y = (dataclasses.replace(d, params={**d.params, "length": 3}) for d in (DOT_X, DOT_Y))

    def no_iteration(*args):
        raise AssertionError("an iteration ran")

    monkeypatch.setattr(trainer, "train_sequence_iteration", no_iteration)
    with pytest.raises(ValueError, match=r"k = 3 needs clips of k\+1 = 4 frames, but sequences have length 3"):
        train(dot_cfg(k=3), short_x, short_y, tmp_path)
    assert not (tmp_path / "metrics.csv").exists()


def test_train_cadence_single_iteration(tmp_path):
    cfg = ring_cfg(iterations=1, eval_every=1, checkpoint_every=1)
    state, path = train(cfg, RING_X, RING_Y, tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("1,")
    # the full artifact surface: rows, one checkpoint, one grid, nothing else
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt_1", "grid_final.ppm", "metrics.csv"]


def test_train_always_logs_final_row(tmp_path):
    cfg = ring_cfg(iterations=3, eval_every=2, checkpoint_every=100)
    state, path = train(cfg, RING_X, RING_Y, tmp_path)
    iters = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
    assert iters == ["2", "3"]
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("ckpt_")) == ["ckpt_3"]


def test_resume_matches_uninterrupted_run(tmp_path):
    cfg = ring_cfg(iterations=4, eval_every=2, checkpoint_every=2)
    full_state, full_path = train(cfg, RING_X, RING_Y, tmp_path / "full")
    res_state, res_path = train(cfg, RING_X, RING_Y, tmp_path / "res", resume_from=tmp_path / "full" / "ckpt_2")
    a, b = all_params(full_state), all_params(res_state)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=k)
    # rows after the resume point agree in every column but wall time
    tail = [r.rsplit(",", 1)[0] for r in full_path.read_text().splitlines()[1:] if int(r.split(",")[0]) > 2]
    resumed = [r.rsplit(",", 1)[0] for r in res_path.read_text().splitlines()[1:]]
    assert tail == resumed


def test_resume_into_own_directory_keeps_each_row_once(tmp_path):
    cfg = ring_cfg(iterations=6, eval_every=1, checkpoint_every=3)
    _, path = train(cfg, RING_X, RING_Y, tmp_path)
    strip = lambda text: [r.rsplit(",", 1)[0] for r in text.splitlines()]
    uninterrupted = strip(path.read_text())
    train(cfg, RING_X, RING_Y, tmp_path, resume_from=tmp_path / "ckpt_3")
    resumed = strip(path.read_text())
    assert [r.split(",")[0] for r in resumed[1:]] == ["1", "2", "3", "4", "5", "6"]
    assert resumed == uninterrupted
    # wall time continues from the checkpoint's row instead of restarting at 0
    seconds = [float(r.rsplit(",", 1)[1]) for r in path.read_text().splitlines()[1:]]
    assert seconds == sorted(seconds)


@pytest.mark.parametrize("cut", ["1", "1,0.5"], ids=["iter-digit", "two-fields"])
def test_resume_drops_partly_written_last_row(tmp_path, cut):
    cfg = ring_cfg(iterations=10, eval_every=2, checkpoint_every=8)
    _, path = train(cfg, RING_X, RING_Y, tmp_path)
    strip = lambda text: [r.rsplit(",", 1)[0] for r in text.splitlines()]
    uninterrupted = strip(path.read_text())
    # the row of iteration 10 was cut off mid-write, without its newline
    text = path.read_text()
    path.write_text(text[: text.index("\n10,") + 1] + cut)
    train(cfg, RING_X, RING_Y, tmp_path, resume_from=tmp_path / "ckpt_8")
    assert strip(path.read_text()) == uninterrupted


@pytest.mark.parametrize("pair, make_cfg", [((RING_X, RING_Y), ring_cfg), ((DOT_X, DOT_Y), dot_cfg)], ids=["points", "sequences"])
def test_load_and_sample_generate_no_data(tmp_path, monkeypatch, pair, make_cfg):
    # the manifest fixes the networks and the model fixes the sample shape
    cfg = make_cfg()
    root = save_checkpoint(init_state(cfg, generate(pair[0]), generate(pair[1])), cfg, *pair, tmp_path)
    calls = []

    def spy(desc):
        calls.append(desc)
        return generate(desc)

    for module in (trainer, cli):
        monkeypatch.setattr(module, "generate", spy)
    load_checkpoint(root)
    assert cli.main(["sample", "--checkpoint", str(root), "--domain", "y", "--count", "2", "--out", str(tmp_path / "s")]) == 0
    assert calls == []
    assert load_ctns(tmp_path / "s" / "samples.ctns").data.shape == (2,) + generate(pair[1]).sample_shape


def test_resume_rejects_other_config(tmp_path):
    cfg = ring_cfg(iterations=2, checkpoint_every=2)
    train(cfg, RING_X, RING_Y, tmp_path)
    other = ring_cfg(iterations=2, checkpoint_every=2, seed=9)
    with pytest.raises(ValueError, match="config does not match"):
        train(other, RING_X, RING_Y, tmp_path / "b", resume_from=tmp_path / "ckpt_2")


def test_resume_rejects_other_domains(tmp_path):
    cfg = ring_cfg(iterations=2, checkpoint_every=2)
    train(cfg, RING_X, RING_Y, tmp_path)
    with pytest.raises(ValueError, match="domains do not match"):
        train(cfg, RING_Y, RING_X, tmp_path / "b", resume_from=tmp_path / "ckpt_2")


def test_refinement_scores_repeatable():
    from coopforge.metrics import default_feature_map

    cfg = ring_cfg()
    dsx, dsy = generate(RING_X), generate(RING_Y)
    state = init_state(cfg, dsx, dsy)
    train_iteration(state, dsx.examples, dsy.examples, cfg)
    fm = default_feature_map(dsx.sample_shape)
    a = refinement_scores(state, dsx.examples, dsy.examples, cfg, fm)
    b = refinement_scores(state, dsx.examples, dsy.examples, cfg, fm)
    assert set(a) == {"fd_init_x", "fd_init_y", "fd_revised_x", "fd_revised_y"}
    assert a == b  # revision noise comes from a fixed eval stream
    assert all(np.isfinite(v) for v in a.values())


def test_metrics_rows_are_deterministic(tmp_path):
    cfg = ring_cfg()
    _, pa = train(cfg, RING_X, RING_Y, tmp_path / "a")
    _, pb = train(cfg, RING_X, RING_Y, tmp_path / "b")
    strip = lambda text: [r.rsplit(",", 1)[0] for r in text.splitlines()]
    assert strip(pa.read_text()) == strip(pb.read_text())
