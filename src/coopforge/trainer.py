"""Alternating cooperative training of the two translator/energy pairs.

Both modes run one phase pipeline on one tape: translate the sampled
batches, revise both translations as one stacked Langevin chain batch
under a ``ScorerPair`` of the two energy models, then record the mode's
objective, which reads the recorded translations instead of
translating again, minus both energy models' data-vs-synthesis surrogates.
One backward pass of that root gives every network its descent direction
at the iteration-start parameters: the energy models ascend their
surrogates, the translators (and the temporal predictors in sequence mode)
descend the objective. Energy models step first. A mode supplies only its
batches and its objective (``image_objective`` or ``sequence_objective``);
a failed phase rolls the whole iteration back. The iteration's stats run no
forward of their own: ``energy_init`` and ``energy_revised`` are read under
the iteration-start parameters, off ``revise``'s starting energies and off
the surrogates' scores of the revised batches. Optimizer slots and
checkpoint files are keyed by the names of ``TrainState.nets()``. Every
network takes exactly one Adam step per iteration, so the iteration clock
``TrainState.t`` is also Adam's step count: the step of iteration t is
number t + 1. Adam is elementwise, so that step runs once on the network's
``vector``, the flat float32 array its parameters are views of, and the
network then loads the result; its optimizer slot is the ``(m, v)`` moment
pair ``adam_step`` takes and returns, and its checkpoint files are vectors
in the same order.

Everything the loop consumes is keyed by (seed, iteration) through
counter-based streams, so a checkpoint needs to store only plain integers
to make a resumed run bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import functools
import json
import shutil
import time
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import tensor as T
from .domains import DomainDataset, DomainDescriptor, descriptor_line, generate, parse_descriptor
from .evaluation import evaluate, held_out_sets, write_grid
from .langevin import LangevinConfig, LangevinDiverged, revise
from .metrics import frechet_distance
from .networks import Net, Scorer, ScorerPair, TemporalPredictor, build_scorer, build_translator
from .objectives import LossWeights, clip_frames, ebm_surrogate, image_objective, sequence_objective, teach_loss
from .rng import data_stream
from .tensor import Graph, Tensor, backward, load_ctns, save_ctns

__all__ = [
    "METRICS_HEADER",
    "TrainConfig",
    "TrainPhaseError",
    "TrainState",
    "adam_step",
    "config_from_dict",
    "init_state",
    "load_checkpoint",
    "save_checkpoint",
    "train",
    "train_iteration",
    "train_sequence_iteration",
]

METRICS_HEADER = "iter,fd_x,fd_y,cycle_err,energy_init,energy_revised,teach_loss,seconds"
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass(frozen=True)
class TrainConfig:
    """Inputs of the training loop.

    ``lr`` is the Adam rate of every network. ``weights.lambda_cyc``
    always weighs the cycle term on points and images; on sequences only
    if ``sequence_cycle`` is set. Two things are fixed rather than set:
    each iteration trains on one example (or one k+1 frame clip) per
    domain, and both energy models use the unit Gaussian reference.
    """

    iterations: int
    langevin: LangevinConfig = LangevinConfig(steps=15, step_size=0.02)
    lr: float = 2e-4
    weights: LossWeights = LossWeights()
    k: int = 2
    seed: int = 0
    eval_every: int = 100
    checkpoint_every: int = 500
    eval_samples: int = 200
    sequence_cycle: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.eval_every < 1 or self.checkpoint_every < 1:
            raise ValueError("eval_every and checkpoint_every must be >= 1")
        if self.eval_samples < 3:
            raise ValueError("eval_samples must be >= 3")


@dataclass
class TrainState:
    """The four (or six) networks, their optimizer slots, and the clock.

    ``opt`` maps each ``nets()`` name to the ``(m, v)`` pair of
    ``adam_step``. It is empty in a state from ``load_checkpoint``: only a
    resumed ``train`` reads the stored moments.
    """

    ebm_x: Scorer
    ebm_y: Scorer
    g_xy: Net
    g_yx: Net
    r_x: TemporalPredictor | None
    r_y: TemporalPredictor | None
    opt: dict[str, tuple[np.ndarray, np.ndarray]]
    t: int = 0
    last: dict = field(default_factory=dict)

    def groups(self) -> dict[str, dict[str, Tensor]]:
        """Each network's parameters, keyed like ``nets()`` and ``opt``."""
        return {name: net.params for name, net in self.nets().items()}

    def nets(self) -> dict[str, Net]:
        out = {"ebm_x": self.ebm_x, "ebm_y": self.ebm_y, "g_xy": self.g_xy, "g_yx": self.g_yx}
        if self.r_x is not None:
            out["r_x"] = self.r_x
            out["r_y"] = self.r_y
        return out


class TrainPhaseError(RuntimeError):
    """An iteration failed; state was rolled back. ``phase`` names the step:
    ``langevin_x``/``langevin_y`` (the stacked revision diverged; ``langevin_x``
    if the x half diverges on its own, else ``langevin_y``), ``ebm_x``/``ebm_y``
    (an energy model's Adam step) or ``objective`` (a non-finite loss, or a
    translator's or predictor's Adam step), the last three read from the
    iteration's one backward."""

    def __init__(self, phase: str, detail: str):
        super().__init__(f"[{phase}] {detail}")
        self.phase = phase


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    moments: tuple[np.ndarray, np.ndarray],
    rate: float,
    t: int,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """One bias-corrected Adam update; returns (new param, new moments).

    Descends the supplied gradient; the energy models ascend because the
    trainer's root subtracts their surrogates. Pure: nothing is mutated, and
    the three results are new arrays that share no memory with the inputs.
    """
    m0, v0 = moments
    if not (param.shape == grad.shape == m0.shape == v0.shape):
        raise T.ShapeError(
            f"adam_step shapes disagree: param {param.shape}, grad {grad.shape}, "
            f"m {m0.shape}, v {v0.shape}"
        )
    if t < 1:
        raise ValueError("Adam step count starts at 1")
    # m = b1 m0 + (1 - b1) g;  v = b2 v0 + (1 - b2) g^2;  with bias-corrected
    # m_hat and v_hat, param - rate m_hat / (sqrt(v_hat) + eps): each op in
    # that order, written into the three returned arrays and one scratch
    dtype = np.result_type(param, grad, m0, v0)
    m, v, new, scratch = (np.empty(param.shape, dtype) for _ in range(4))
    np.multiply(m0, _BETA1, out=m)
    np.multiply(grad, 1.0 - _BETA1, out=scratch)
    np.add(m, scratch, out=m)
    np.multiply(v0, _BETA2, out=v)
    np.multiply(grad, grad, out=scratch)
    np.multiply(scratch, 1.0 - _BETA2, out=scratch)
    np.add(v, scratch, out=v)
    np.divide(v, 1.0 - _BETA2**t, out=new)  # v_hat
    np.sqrt(new, out=new)
    np.add(new, _EPS, out=new)
    np.divide(m, 1.0 - _BETA1**t, out=scratch)  # m_hat
    np.multiply(scratch, rate, out=scratch)
    np.divide(scratch, new, out=scratch)
    np.subtract(param, scratch, out=new)
    return new, (m, v)


def _first_non_finite(model, flat: np.ndarray) -> str:
    """The parameter holding the first non-finite entry of ``flat``, laid out as ``model.vector``."""
    sizes = np.cumsum([p.data.size for p in model.params.values()])
    return list(model.params)[int(np.searchsorted(sizes, np.argmin(np.isfinite(flat)), side="right"))]


def _apply_adam(state: TrainState, net: str, grads: dict[str, np.ndarray], rate: float, phase: str) -> None:
    """Adam step ``state.t + 1`` of network ``net``: its vector and its per-leaf
    ``grads``, concatenated in ``params`` order, give the vector it loads. A
    non-finite gradient or result (checkpointed moments can cause one) fails
    ``phase``, naming the first offending parameter, and changes nothing."""
    model = state.nets()[net]
    grad = np.concatenate([grads[k].ravel() for k in model.params])
    if not np.isfinite(grad).all():
        raise TrainPhaseError(phase, f"non-finite gradient {net}.{_first_non_finite(model, grad)} before update")
    flat, moments = adam_step(model.vector, grad, state.opt[net], rate, state.t + 1)
    if not np.isfinite(flat).all():
        raise TrainPhaseError(phase, f"non-finite parameter {net}.{_first_non_finite(model, flat)} after update")
    state.opt[net] = moments
    model.load(flat)


# ---------------------------------------------------------------------------
# State setup, snapshot, rollback
# ---------------------------------------------------------------------------


def _build_state(cfg: TrainConfig, shape: tuple, sequence: bool, seed: int | None) -> TrainState:
    """The networks for samples of ``shape``, with temporal predictors if
    ``sequence`` is set, drawn from ``seed`` (left at zero where a draw
    would go if it is None), with no optimizer slots."""
    ebm_x = build_scorer(shape, seed=seed, name="ebm_x")
    ebm_y = build_scorer(shape, seed=seed, name="ebm_y")
    g_xy = build_translator(shape, seed=seed, name="g_xy")
    g_yx = build_translator(shape, seed=seed, name="g_yx")
    r_x = r_y = None
    if sequence:
        r_x = TemporalPredictor(in_shape=shape, k=cfg.k, seed=seed, name="r_x")
        r_y = TemporalPredictor(in_shape=shape, k=cfg.k, seed=seed, name="r_y")
    return TrainState(ebm_x, ebm_y, g_xy, g_yx, r_x, r_y, opt={})


def init_state(cfg: TrainConfig, ds_x: DomainDataset, ds_y: DomainDataset) -> TrainState:
    """Seeded networks and zeroed optimizer slots for a dataset pair of one kind and sample shape."""
    if ds_x.kind != ds_y.kind:
        raise ValueError(f"domain kinds differ: {ds_x.kind} vs {ds_y.kind}")
    if ds_x.sample_shape != ds_y.sample_shape:
        raise T.ShapeError(f"sample shapes differ: {ds_x.sample_shape} vs {ds_y.sample_shape}")
    sequence = ds_x.kind == "sequences"
    if sequence and (length := min(ds_x.examples.shape[1], ds_y.examples.shape[1])) < cfg.k + 1:
        raise ValueError(f"k = {cfg.k} needs clips of k+1 = {cfg.k + 1} frames, but sequences have length {length}")
    state = _build_state(cfg, ds_x.sample_shape, sequence, cfg.seed)
    state.opt = {name: (np.zeros_like(net.vector), np.zeros_like(net.vector)) for name, net in state.nets().items()}
    return state


def _snapshot(state: TrainState):
    """References to every network's vector and moment pair. They suffice:
    ``adam_step`` is pure and ``_apply_adam`` loads its result as a new
    vector and replaces the pair, so an iteration never writes these arrays."""
    return {name: net.vector for name, net in state.nets().items()}, dict(state.opt)


def _rollback(state: TrainState, snap) -> None:
    vectors, opt = snap
    for name, net in state.nets().items():
        net.load(vectors[name])
    state.opt.update(opt)


# ---------------------------------------------------------------------------
# One iteration: the phase pipeline and the two modes that feed it
# ---------------------------------------------------------------------------


def _revise_both(state: TrainState, cfg: TrainConfig, x_hat: np.ndarray, y_hat: np.ndarray):
    """``revise`` of x_hat under ``ebm_x`` from chain 2tn and of y_hat under
    ``ebm_y`` from chain (2t+1)n, as one chain batch [x_hat; y_hat] from chain
    2tn; returns each half's revision and starting energies.

    A divergence of the stacked chain re-runs the x half alone to name the
    phase: ``langevin_x`` with that run's message if it diverges too, else
    ``langevin_y`` with the stacked chain's. Both messages are the ones the
    half alone gives: rows that never diverge cannot decide the stacked peak.
    """
    n = len(x_hat)
    offset = 2 * state.t * n
    try:
        tilde, init = revise(np.concatenate([x_hat, y_hat]), ScorerPair(state.ebm_x, state.ebm_y), cfg.langevin, chain_offset=offset)
    except LangevinDiverged as err:
        try:
            revise(x_hat, state.ebm_x, cfg.langevin, chain_offset=offset)
        except LangevinDiverged as x_err:
            raise TrainPhaseError("langevin_x", str(x_err)) from x_err
        raise TrainPhaseError("langevin_y", str(err)) from err
    return tilde[:n], tilde[n:], init[:n], init[n:]


def _run_phases(state: TrainState, cfg: TrainConfig, x_data: np.ndarray, y_data: np.ndarray, objective) -> TrainState:
    """Translate, revise, then take every network's step from one backward pass.

    ``x_data``/``y_data`` are equal-length batches of examples or frames.
    Their translations x_moved = G_yx(y_data) and y_moved = G_xy(x_data)
    are recorded on the iteration's tape and revised by one ``revise`` of
    the stacked batch (``_revise_both``), which also names a diverged half's
    phase. Reopened, the tape records
    ``objective(x_moved, y_moved, x_tilde, y_tilde)`` minus both
    ``ebm_surrogate``s. The objective reads no scorer and a surrogate only
    its own, so the root's gradient is each energy model's negated ascent
    direction and every other network's objective gradient. A failed phase
    restores the starting parameters and moments.

    The stats in ``state.last`` need no forward of their own: the mean
    energies of the translations and of their revisions, under the energy
    models that revised them, are read off ``revise`` and off the
    surrogates' scores of the revised batches.
    """
    t = state.t
    snap = _snapshot(state)
    graph = Graph()
    try:
        with graph:
            x_moved = state.g_yx.forward(Tensor(y_data))
            y_moved = state.g_xy.forward(Tensor(x_data))
        x_hat, y_hat = x_moved.data, y_moved.data

        x_tilde, y_tilde, x_init, y_init = _revise_both(state, cfg, x_hat, y_hat)

        with graph:
            loss = objective(x_moved, y_moved, x_tilde, y_tilde)
            x_surrogate, x_scores = ebm_surrogate(state.ebm_x, x_data, x_tilde)
            y_surrogate, y_scores = ebm_surrogate(state.ebm_y, y_data, y_tilde)
            root = loss - x_surrogate - y_surrogate
        if not np.isfinite(loss.data):
            raise TrainPhaseError("objective", f"non-finite translator loss {loss.data!r}")
        groups = state.groups()
        grads = backward(graph, root, {(net, k): p for net, params in groups.items() for k, p in params.items()})
        del graph  # spent: its saved arrays need not outlive Adam's temporaries
        for net, params in groups.items():
            phase = net if net in ("ebm_x", "ebm_y") else "objective"
            _apply_adam(state, net, {k: grads[net, k] for k in params}, cfg.lr, phase)
    except TrainPhaseError:
        _rollback(state, snap)
        raise

    x_revised = Scorer.energy_of_scores(x_tilde, x_scores.data)
    y_revised = Scorer.energy_of_scores(y_tilde, y_scores.data)
    state.last = {
        "energy_init": float(0.5 * (x_init.mean() + y_init.mean())),
        "energy_revised": float(0.5 * (x_revised.mean() + y_revised.mean())),
        "teach_loss": float(teach_loss(x_hat, x_tilde).data + teach_loss(y_hat, y_tilde).data),
    }
    state.t = t + 1
    return state


def train_iteration(state: TrainState, data_x: np.ndarray, data_y: np.ndarray, cfg: TrainConfig) -> TrainState:
    """One alternating-teaching iteration on one unpaired pair.

    Draws one example from each domain and runs the phase pipeline on that
    pair; the translators descend ``image_objective``: teaching in both
    directions plus the weighted cycle loss.
    """
    if len(data_x) == 0 or len(data_y) == 0:
        raise ValueError("datasets must be non-empty")
    y_batch = data_y[data_stream(cfg.seed, state.t, phase=0).integers(0, len(data_y), size=1)]
    x_batch = data_x[data_stream(cfg.seed, state.t, phase=1).integers(0, len(data_x), size=1)]

    def objective(x_moved, y_moved, x_tilde, y_tilde):
        return image_objective(state.g_xy, state.g_yx, x_batch, y_batch, x_moved, y_moved, x_tilde, y_tilde, cfg.weights)

    return _run_phases(state, cfg, x_batch, y_batch, objective)


def _sample_clips(seqs: np.ndarray, gen, k: int) -> np.ndarray:
    """One uniform (sequence, start) window of length k+1: (1, k+1, C, H, W)."""
    n, length = seqs.shape[0], seqs.shape[1]
    if length < k + 1:
        raise ValueError(f"sequences of length {length} cannot yield k+1 = {k + 1} frame clips")
    i = gen.integers(0, n, size=1)[0]
    s = gen.integers(0, length - k, size=1)[0]
    return seqs[i : i + 1, s : s + k + 1].copy()


def train_sequence_iteration(state: TrainState, seq_x: np.ndarray, seq_y: np.ndarray, cfg: TrainConfig) -> TrainState:
    """One iteration of the sequence variant.

    Draws one k+1 frame clip from each domain and runs the phase pipeline
    on their frames. Both translators and both temporal predictors jointly
    descend ``sequence_objective``, whose cycle term is zeroed unless
    ``cfg.sequence_cycle`` is set.
    """
    if state.r_x is None or state.r_y is None:
        raise ValueError("state has no temporal predictors; build it from sequence datasets")
    y_clips = _sample_clips(seq_y, data_stream(cfg.seed, state.t, phase=0), cfg.k)
    x_clips = _sample_clips(seq_x, data_stream(cfg.seed, state.t, phase=1), cfg.k)
    weights = cfg.weights if cfg.sequence_cycle else replace(cfg.weights, lambda_cyc=0.0)

    def objective(x_moved, y_moved, x_tilde, y_tilde):
        return sequence_objective(
            state.g_xy, state.g_yx, state.r_x, state.r_y, x_clips, y_clips, x_moved, y_moved, x_tilde, y_tilde, weights
        )

    return _run_phases(state, cfg, clip_frames(x_clips), clip_frames(y_clips), objective)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(state: TrainState, cfg: TrainConfig, desc_x: DomainDescriptor, desc_y: DomainDescriptor, out_dir) -> Path:
    """Write ckpt_{t}/: manifest.json and, for each ``nets()`` name <net>,
    three flat float32 vectors in ``params`` order: nets/<net>.ctns (the
    parameters), adam/<net>.m.ctns and adam/<net>.v.ctns (the moments).

    The manifest lists each network's ``[name, shape]`` pairs in parameter
    order, which fixes every parameter's offset, each file's byte size, and
    ``sample_shape``, the networks' ``in_shape``.
    Its iteration and the seeds in its config are the complete sampling
    state: every stream the loop touches is a pure function of them. The
    iteration is also the count of Adam steps each network has taken.

    The files go into ckpt_{t}.tmp/, the manifest last, after every stale
    ckpt_<s>.tmp/ in ``out_dir`` is cleared. An older checkpoint of the same
    iteration is then moved aside to ckpt_{t}.old/, the new one renamed to
    ckpt_{t}, and only then the old one deleted. If that rename fails, the
    old one is moved back, so a complete ckpt_{t} outlives every failure but
    a kill between the two renames, which leaves it at ckpt_{t}.old/.
    """
    root = Path(out_dir) / f"ckpt_{state.t}"
    tmp = root.with_name(root.name + ".tmp")
    aside = root.with_name(root.name + ".old")
    for stale in Path(out_dir).glob("ckpt_*.tmp"):
        shutil.rmtree(stale)
    (tmp / "nets").mkdir(parents=True)
    (tmp / "adam").mkdir()
    files = {}
    for name, net in state.nets().items():
        m, v = state.opt[name]
        vectors = {f"nets/{name}.ctns": net.vector}
        vectors.update({f"adam/{name}.m.ctns": m, f"adam/{name}.v.ctns": v})
        for rel, flat in vectors.items():
            save_ctns(flat, tmp / rel)
            files[rel] = (tmp / rel).stat().st_size
    manifest = {
        "iteration": state.t,
        "config": asdict(cfg),
        "domain_x": descriptor_line(desc_x),
        "domain_y": descriptor_line(desc_y),
        "params": {n: _layout(net) for n, net in state.nets().items()},
        "files": files,
        "sample_shape": list(state.g_xy.in_shape),
    }
    (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    if root.exists():
        if aside.exists():
            shutil.rmtree(aside)
        root.rename(aside)
    try:
        tmp.rename(root)
    except OSError:
        if aside.exists():
            aside.rename(root)
        raise
    if aside.exists():
        shutil.rmtree(aside)
    return root


def _layout(net: Net) -> list:
    """The manifest's ``[name, shape]`` pairs of ``net``, in parameter order."""
    return [[k, list(p.data.shape)] for k, p in net.params.items()]


_MANIFEST_KEYS = ("iteration", "config", "domain_x", "domain_y", "params", "files", "sample_shape")


def _read_manifest(root: Path) -> dict:
    """The manifest of ckpt_{t}/, with every key the loaders read."""
    path = root / "manifest.json"
    if not path.is_file():
        raise FileNotFoundError(f"{path}: missing; a checkpoint is complete only once its manifest is written")
    manifest = json.loads(path.read_text())
    if missing := [k for k in _MANIFEST_KEYS if k not in manifest]:
        raise ValueError(f"{path}: no {', '.join(missing)}; checkpoints from before manifests had sample_shape do not load")
    return manifest


def _read_vector(root: Path, files: dict, rel: str) -> np.ndarray:
    """The flat vector stored at ``rel``, checked against the manifest's byte size."""
    path = root / rel
    if not path.is_file():
        raise FileNotFoundError(f"{path}: missing, but the manifest lists it")
    if rel not in files:
        raise ValueError(f"{path}: on disk, but the manifest does not list it")
    if (on_disk := path.stat().st_size) != files[rel]:
        raise ValueError(f"{path}: {on_disk} bytes, but the manifest lists {files[rel]}")
    return load_ctns(path).data


_field_types = functools.cache(get_type_hints)  # resolved once per config class, not per load


def config_from_dict(cls, d: dict):
    """Inverse of ``asdict``: a ``cls`` instance from a nested dict. A field
    whose type hint is a dataclass is built from its own sub-dict."""
    hints = _field_types(cls)
    if unknown := d.keys() - hints.keys():
        raise ValueError(f"{cls.__name__} has no fields {sorted(unknown)}")
    return cls(**{k: config_from_dict(hints[k], v) if is_dataclass(hints[k]) else v for k, v in d.items()})


def load_checkpoint(path) -> tuple[TrainState, TrainConfig, DomainDescriptor, DomainDescriptor]:
    """Rebuild the networks and the clock from ckpt_{t}/.

    The manifest alone fixes the networks: its ``sample_shape``, and its
    ``r_x`` layout for the temporal predictors. No data is generated and no
    initial weights are drawn; each network loads its one stored vector,
    and a name, shape, length or dtype that differs from the network's
    fails, naming the network. No moments are read, so ``state.opt`` is
    empty; ``train`` reads them when it resumes.
    """
    root = Path(path)
    manifest = _read_manifest(root)
    cfg = config_from_dict(TrainConfig, manifest["config"])
    desc_x = parse_descriptor(manifest["domain_x"])
    desc_y = parse_descriptor(manifest["domain_y"])
    state = _build_state(cfg, tuple(manifest["sample_shape"]), "r_x" in manifest["params"], seed=None)
    for name, net in state.nets().items():
        stored = manifest["params"].get(name)
        if stored != _layout(net):
            raise ValueError(f"{name}: checkpoint parameters {stored} do not match the network's {_layout(net)}")
        net.load(_read_vector(root, manifest["files"], f"nets/{name}.ctns"))
    state.t = manifest["iteration"]
    return state, cfg, desc_x, desc_y


def _read_slots(root: Path, state: TrainState) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each network's Adam moments ``(m, v)``, read from ckpt_{t}/adam/; a
    moment whose length or dtype differs from the network's vector fails,
    naming the network."""
    files = _read_manifest(root)["files"]
    slots = {}
    for name, net in state.nets().items():
        slots[name] = tuple(_read_vector(root, files, f"adam/{name}.{s}.ctns") for s in ("m", "v"))
        if any(a.shape != net.vector.shape or a.dtype != net.dtype for a in slots[name]):
            raise ValueError(f"{name}: moments in {root / 'adam'} do not match the network's {net.dtype} {net.vector.shape}")
    return slots


# ---------------------------------------------------------------------------
# The full loop
# ---------------------------------------------------------------------------


def train(
    cfg: TrainConfig,
    desc_x: DomainDescriptor,
    desc_y: DomainDescriptor,
    out_dir,
    resume_from=None,
) -> tuple[TrainState, Path]:
    """Run the loop to cfg.iterations; returns (final state, metrics path).

    Writes a metrics.csv row every eval_every iterations, checkpoints every
    checkpoint_every and at the end, and one final sample grid. Resuming
    from a checkpoint re-keys every stream by the stored iteration, so the
    continued run equals an uninterrupted one exactly.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds_x, ds_y = generate(desc_x), generate(desc_y)
    sequence = ds_x.kind == "sequences"

    if resume_from is not None:
        state, stored_cfg, stored_x, stored_y = load_checkpoint(resume_from)
        if stored_cfg != cfg:
            raise ValueError("checkpoint config does not match the requested one")
        if (stored_x, stored_y) != (desc_x, desc_y):
            raise ValueError("checkpoint domains do not match the requested ones")
        state.opt = _read_slots(Path(resume_from), state)
    else:
        state = init_state(cfg, ds_x, ds_y)

    eval_x_ds, eval_x, eval_y, fm = held_out_sets(desc_x, desc_y, cfg)
    # fails now, not at the first eval row, when a held-out set is too small to score
    frechet_distance(eval_x, eval_y, fm)

    # a resumed run keeps the finished (newline-terminated) rows up to its checkpoint
    metrics_path = out / "metrics.csv"
    rows = metrics_path.read_text().split("\n")[1:-1] if resume_from is not None and metrics_path.exists() else []
    rows = [row for row in rows if int(row.split(",", 1)[0]) <= state.t]
    # the seconds column continues from the last kept row
    start = time.perf_counter() - (float(rows[-1].rsplit(",", 1)[1]) if rows else 0.0)
    with open(metrics_path, "w") as mf:
        mf.write(METRICS_HEADER + "\n")
        mf.writelines(row + "\n" for row in rows)
        while state.t < cfg.iterations:
            if sequence:
                train_sequence_iteration(state, ds_x.examples, ds_y.examples, cfg)
            else:
                train_iteration(state, ds_x.examples, ds_y.examples, cfg)
            it = state.t
            if it % cfg.eval_every == 0 or it == cfg.iterations:
                scores, _ = evaluate(state, eval_x, eval_y, fm)
                row = {**scores, **state.last, "seconds": time.perf_counter() - start}
                mf.write(",".join([str(it)] + [repr(float(row[c])) for c in METRICS_HEADER.split(",")[1:]]) + "\n")
                mf.flush()
            if it % cfg.checkpoint_every == 0 or it == cfg.iterations:
                save_checkpoint(state, cfg, desc_x, desc_y, out)
    write_grid(state, eval_x_ds.examples, cfg, out / "grid_final.ppm", ds_x.kind)
    return state, metrics_path
