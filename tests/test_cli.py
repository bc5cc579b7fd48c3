"""Command-line contract tests: config parsing, artifacts, exit codes."""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from coopforge import cli, rng, trainer
from coopforge.cli import RunConfig, build_parser, main
from coopforge.domains import descriptor_line, generate, load_ppm, parse_descriptor, save_ppm
from coopforge.tensor import load_ctns, save_ctns
from coopforge.evaluation import run_translator
from coopforge.networks import ImageTranslator, PointTranslator
from coopforge.trainer import TrainConfig, init_state, load_checkpoint, save_checkpoint

RING_X_LINE = "ring n=64 modes=8 radius=1.6 mode_std=0.15 rotation=0.0 scale=1.0 seed=1"
RING_Y_LINE = "ring n=64 modes=8 radius=1.6 mode_std=0.15 rotation=0.15 scale=0.6 seed=2"
DOT_X_LINE = "moving_dot n_seqs=4 length=4 side=16 appearance='solid' motion_style='bounce' seed=3"
DOT_Y_LINE = "moving_dot n_seqs=4 length=4 side=16 appearance='hollow' motion_style='bounce' seed=3"


def config_text(out, **over) -> str:
    base = {
        "iterations": 2,
        "langevin_steps": 5,
        "eval_every": 1,
        "checkpoint_every": 2,
        "eval_samples": 20,
        "domain_x": RING_X_LINE,
        "domain_y": RING_Y_LINE,
        "out": str(out),
    }
    base.update(over)
    return "".join(f"{k} = {v}\n" for k, v in base.items())


MINIMAL = f"iterations = 5\ndomain_x = {RING_X_LINE}\ndomain_y = {RING_Y_LINE}\nout = /tmp/unused\n"


# ---------------------------------------------------------------- RunConfig


def test_defaults_follow_training_recipe():
    cfg = RunConfig.parse_text(MINIMAL).train
    assert cfg.iterations == 5
    assert cfg.langevin.steps == 15
    assert cfg.langevin.step_size == 0.02
    assert cfg.langevin.noise_scale == 1.0
    assert cfg.lr == 2e-4
    assert (cfg.weights.lambda_cyc, cfg.weights.lambda1, cfg.weights.lambda2) == (9.0, 9.0, 9.0)
    assert cfg.k == 2
    assert cfg.seed == 0
    assert (cfg.eval_every, cfg.checkpoint_every, cfg.eval_samples) == (100, 500, 200)
    assert cfg.sequence_cycle is False


def test_comments_and_blank_lines_ignored():
    text = (
        "# full-line comment\n"
        "\n"
        "iterations = 3   # trailing comment\n"
        f"domain_x = {RING_X_LINE}\n"
        f"domain_y = {RING_Y_LINE}\n"
        "out = /tmp/x\n"
    )
    assert RunConfig.parse_text(text).train.iterations == 3


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="line 1: unknown key 'momentum'"):
        RunConfig.parse_text("momentum = 0.9\n" + MINIMAL)


def test_duplicate_key_rejected():
    with pytest.raises(ValueError, match="duplicate key 'iterations'"):
        RunConfig.parse_text(MINIMAL + "iterations = 9\n")


def test_missing_required_key():
    with pytest.raises(ValueError, match="'domain_y' is required"):
        RunConfig.parse_text(f"iterations = 5\ndomain_x = {RING_X_LINE}\nout = /tmp/x\n")


def test_bad_value_names_the_key():
    with pytest.raises(ValueError, match="config key iterations"):
        RunConfig.parse_text(MINIMAL.replace("iterations = 5", "iterations = ten"))


def test_non_assignment_line_rejected():
    with pytest.raises(ValueError, match="expected key=value"):
        RunConfig.parse_text("just some words\n")


def test_overrides_win_and_are_validated():
    cfg = RunConfig.parse_text(MINIMAL, overrides={"iterations": "7", "seed": "3"}).train
    assert (cfg.iterations, cfg.seed) == (7, 3)
    with pytest.raises(ValueError, match="unknown config key 'bogus'"):
        RunConfig.parse_text(MINIMAL, overrides={"bogus": "1"})


def test_non_finite_weight_rejected():
    # float() parses "nan"; the weight check must still refuse it
    with pytest.raises(ValueError, match="lambda_cyc must be finite"):
        RunConfig.parse_text(MINIMAL + "lambda_cyc = nan\n")


def test_bool_values():
    assert RunConfig.parse_text(MINIMAL + "sequence_cycle = on\n").train.sequence_cycle is True
    assert RunConfig.parse_text(MINIMAL + "sequence_cycle = FALSE\n").train.sequence_cycle is False
    with pytest.raises(ValueError, match="sequence_cycle"):
        RunConfig.parse_text(MINIMAL + "sequence_cycle = maybe\n")


def test_train_config_mapping():
    cfg = RunConfig.parse_text(MINIMAL + "step_size = 0.01\nlambda_cyc = 4\nseed = 11\n").train
    assert isinstance(cfg, TrainConfig)
    assert (cfg.langevin.steps, cfg.langevin.step_size, cfg.langevin.seed) == (15, 0.01, 11)
    assert cfg.weights.lambda_cyc == 4.0
    assert cfg.seed == 11


def _leaf_fields(obj, path=()):
    """(path, value) of every scalar field of a dataclass instance, nested ones included."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_fields(value, path + (f.name,))
        else:
            yield path + (f.name,), value


def _other(value):
    if isinstance(value, bool):
        return not value
    return value + 1 if isinstance(value, int) else value / 2


def _key_for(path) -> str:
    return "langevin_steps" if path == ("langevin", "steps") else path[-1]


@pytest.mark.parametrize("command", ["gen", "train", "translate", "eval", "sample"])
def test_a_named_command_builds_only_its_parser(command, monkeypatch, capsys):
    built = []

    def spy(name, add):
        def wrapped(sub):
            built.append(name)
            add(sub)

        return wrapped

    for name, add in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, spy(name, add))
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0 and f"usage: coopforge {command}" in capsys.readouterr().out
    assert built == [command]
    assert build_parser(command).format_usage() == build_parser().format_usage()


def test_every_schedule_field_has_one_key_and_one_flag():
    train_flags = set(vars(build_parser().parse_args(["train", "run.cfg"]))) - {"command", "func", "config", "resume"}
    base = RunConfig.parse_text(MINIMAL).train
    leaves = dict(_leaf_fields(base))
    schedule = [path for path in leaves if path != ("langevin", "seed")]
    assert train_flags == {_key_for(path) for path in schedule} | {"domain_x", "domain_y", "out"}
    assert len(train_flags) == 17
    for path in schedule:
        key, value = _key_for(path), str(_other(leaves[path]))
        body = MINIMAL.replace("iterations = 5\n", "") if key == "iterations" else MINIMAL
        from_file = RunConfig.parse_text(body + f"{key} = {value}\n").train
        ns = build_parser().parse_args(["train", "run.cfg", f"--{key}", value])
        from_flag = RunConfig.parse_text(MINIMAL, overrides={key: getattr(ns, key)}).train
        assert from_flag == from_file
        changed = {p for p, v in _leaf_fields(from_file) if v != leaves[p]}
        assert changed == ({path, ("langevin", "seed")} if key == "seed" else {path}), key


def test_parsed_defaults_are_the_dataclass_defaults():
    assert RunConfig.parse_text(MINIMAL).train == TrainConfig(iterations=5)


def test_config_setting_every_key_survives_a_checkpoint(tmp_path):
    leaves = dict(_leaf_fields(TrainConfig(iterations=5)))
    text = "".join(f"{_key_for(p)} = {_other(v)}\n" for p, v in leaves.items() if p != ("langevin", "seed"))
    run = RunConfig.parse_text(text + f"domain_x = {RING_X_LINE}\ndomain_y = {RING_Y_LINE}\nout = {tmp_path}\n")
    cfg = run.train
    assert all(v != leaves[p] for p, v in _leaf_fields(cfg))
    dx, dy = run.descriptors()
    root = save_checkpoint(init_state(cfg, generate(dx), generate(dy)), cfg, dx, dy, tmp_path)
    assert load_checkpoint(root)[1] == cfg


def test_descriptor_round_trip():
    dx, dy = RunConfig.parse_text(MINIMAL).descriptors()
    assert dx == parse_descriptor(RING_X_LINE)
    assert dy.params["scale"] == 0.6


# ---------------------------------------------------------------- train command


def test_missing_config_file_names_path(capsys):
    assert main(["train", "/no/such/run.cfg"]) == 1
    assert "/no/such/run.cfg" in capsys.readouterr().err


def test_train_cadence_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(out, iterations=1, checkpoint_every=1))
    assert main(["train", str(cfg)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["ckpt_1", "grid_final.ppm", "metrics.csv"]
    assert len((out / "metrics.csv").read_text().splitlines()) == 2


def _rows_without_wall_time(path) -> list[str]:
    # the final column logs elapsed wall seconds, the one quantity that
    # legitimately differs between identical runs
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


def test_repeated_runs_match(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(tmp_path / "a"))
    assert main(["train", str(cfg)]) == 0
    assert main(["train", str(cfg), "--out", str(tmp_path / "b")]) == 0
    rows_a = _rows_without_wall_time(tmp_path / "a" / "metrics.csv")
    rows_b = _rows_without_wall_time(tmp_path / "b" / "metrics.csv")
    assert rows_a == rows_b
    assert len(rows_a) == 3


def test_flag_override_changes_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(tmp_path / "a"))
    assert main(["train", str(cfg), "--out", str(tmp_path / "c"), "--seed", "5"]) == 0
    assert main(["train", str(cfg), "--out", str(tmp_path / "d")]) == 0
    assert _rows_without_wall_time(tmp_path / "c" / "metrics.csv") != _rows_without_wall_time(
        tmp_path / "d" / "metrics.csv"
    )


# ---------------------------------------------------------------- gen command


def test_gen_writes_dataset(tmp_path):
    out = tmp_path / "data"
    assert main(["gen", RING_X_LINE, "--out", str(out)]) == 0
    examples = load_ctns(out / "examples.ctns").data
    assert examples.shape == (64, 2)
    stored = (out / "descriptor.txt").read_text().strip()
    assert parse_descriptor(stored) == parse_descriptor(RING_X_LINE)
    assert (out / "preview.ppm").exists()


def test_gen_rejects_bad_descriptor(tmp_path, capsys):
    assert main(["gen", "mystery n=5 seed=0", "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, cause",
    [
        ("ring n=5 n=7 modes=3 seed=1", "'n' given twice"),
        ("ring n=abc seed=0", "'n' expects int, got 'abc'"),
        ("ring n=5 rotation=inf seed=0", "rotation must be finite, got inf"),
        ("ring n=5 mode_std=nan seed=0", "mode_std must be finite, got nan"),
    ],
)
def test_gen_names_repeated_key_or_bad_value(tmp_path, capsys, line, cause):
    assert main(["gen", line, "--out", str(tmp_path)]) == 1
    assert cause in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def ring_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ring")
    out = root / "run"
    cfg = root / "run.cfg"
    cfg.write_text(config_text(out))
    assert main(["train", str(cfg)]) == 0
    return {"out": out, "ckpt": out / "ckpt_2"}


@pytest.fixture(scope="module")
def dot_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_dot")
    out = root / "run"
    cfg = root / "run.cfg"
    cfg.write_text(
        config_text(
            out,
            iterations=1,
            langevin_steps=2,
            checkpoint_every=1,
            eval_samples=6,  # 24 eval frames, enough for the 16-dim features
            domain_x=DOT_X_LINE,
            domain_y=DOT_Y_LINE,
        )
    )
    assert main(["train", str(cfg)]) == 0
    return {"out": out, "ckpt": out / "ckpt_1"}


# ---------------------------------------------------------------- translate


def test_translate_zero_steps_is_pure_translator(ring_run, tmp_path):
    points = generate(parse_descriptor(RING_X_LINE)).examples[:10]
    src = tmp_path / "input.ctns"
    save_ctns(points, src)
    out = tmp_path / "moved"
    rc = main(
        ["translate", "--checkpoint", str(ring_run["ckpt"]), "--input", str(src),
         "--direction", "x2y", "--langevin-steps", "0", "--out", str(out)]
    )
    assert rc == 0
    state, _, _, _ = load_checkpoint(ring_run["ckpt"])
    expected = run_translator(state.g_xy, points)
    np.testing.assert_array_equal(load_ctns(out / "input.ctns").data, expected)


def test_translate_reads_one_file_per_network_and_draws_nothing(dot_run, tmp_path, monkeypatch):
    # serving a checkpoint reads each network's one parameter vector and the
    # input, no Adam moment, and draws no initial weights
    clip = generate(parse_descriptor(DOT_X_LINE)).examples[0]
    src = tmp_path / "clip.ctns"
    save_ctns(clip, src)
    read = []

    def spy(path):
        read.append(str(path))
        return load_ctns(path)

    def no_draw(*args):
        raise AssertionError("an initial weight was drawn")

    for module in (cli, trainer):
        monkeypatch.setattr(module, "load_ctns", spy)
    monkeypatch.setattr(rng, "init_stream", no_draw)
    rc = main(["translate", "--checkpoint", str(dot_run["ckpt"]), "--input", str(src), "--direction", "x2y", "--out", str(tmp_path / "moved")])
    assert rc == 0
    nets = ("ebm_x", "ebm_y", "g_xy", "g_yx", "r_x", "r_y")
    assert sorted(read) == sorted([str(dot_run["ckpt"] / "nets" / f"{n}.ctns") for n in nets] + [str(src)])


def test_translate_revision_changes_output(ring_run, tmp_path):
    points = generate(parse_descriptor(RING_X_LINE)).examples[:10]
    src = tmp_path / "input.ctns"
    save_ctns(points, src)
    for steps, name in ((0, "raw"), (5, "revised")):
        rc = main(
            ["translate", "--checkpoint", str(ring_run["ckpt"]), "--input", str(src),
             "--direction", "x2y", "--langevin-steps", str(steps), "--out", str(tmp_path / name)]
        )
        assert rc == 0
    raw = load_ctns(tmp_path / "raw" / "input.ctns").data
    revised = load_ctns(tmp_path / "revised" / "input.ctns").data
    assert np.abs(raw - revised).max() > 0.0


def test_translate_single_point(ring_run, tmp_path):
    src = tmp_path / "point.ctns"
    save_ctns(np.array([0.5, -0.25], dtype=np.float32), src)
    out = tmp_path / "moved"
    rc = main(
        ["translate", "--checkpoint", str(ring_run["ckpt"]), "--input", str(src),
         "--direction", "y2x", "--langevin-steps", "0", "--out", str(out)]
    )
    assert rc == 0
    assert load_ctns(out / "point.ctns").data.shape == (2,)


def test_translate_incompatible_shape_fails(ring_run, tmp_path, capsys):
    src = tmp_path / "bad.ctns"
    save_ctns(np.zeros((5, 3), dtype=np.float32), src)
    rc = main(
        ["translate", "--checkpoint", str(ring_run["ckpt"]), "--input", str(src),
         "--direction", "x2y", "--out", str(tmp_path / "o")]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_translate_empty_batch_fails_at_any_step_count(ring_run, tmp_path, capsys):
    src = tmp_path / "empty.ctns"
    save_ctns(np.zeros((0, 2), dtype=np.float32), src)
    for steps in ("0", "5"):
        rc = main(
            ["translate", "--checkpoint", str(ring_run["ckpt"]), "--input", str(src),
             "--direction", "x2y", "--langevin-steps", steps, "--out", str(tmp_path / steps)]
        )
        assert rc == 1
        assert "non-empty" in capsys.readouterr().err
        assert not (tmp_path / steps / "empty.ctns").exists()


def test_translate_zero_steps_rejects_non_finite_output(tmp_path, capsys):
    dx, dy = parse_descriptor(RING_X_LINE), parse_descriptor(RING_Y_LINE)
    cfg = TrainConfig(iterations=1, eval_samples=20)
    state = init_state(cfg, generate(dx), generate(dy))
    weight = next(iter(state.g_xy.params.values()))
    weight.data[...] = np.nan
    save_checkpoint(state, cfg, dx, dy, tmp_path)
    src = tmp_path / "input.ctns"
    save_ctns(generate(dx).examples[:4], src)
    rc = main(
        ["translate", "--checkpoint", str(tmp_path / "ckpt_0"), "--input", str(src),
         "--direction", "x2y", "--langevin-steps", "0", "--out", str(tmp_path / "moved")]
    )
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "moved" / "input.ctns").exists()


def test_translate_refuses_a_manifest_without_sample_shape(tmp_path, capsys):
    dx, dy = parse_descriptor(RING_X_LINE), parse_descriptor(RING_Y_LINE)
    cfg = TrainConfig(iterations=1, eval_samples=20)
    root = save_checkpoint(init_state(cfg, generate(dx), generate(dy)), cfg, dx, dy, tmp_path)
    manifest = json.loads((root / "manifest.json").read_text())
    del manifest["sample_shape"]
    (root / "manifest.json").write_text(json.dumps(manifest))
    src = tmp_path / "input.ctns"
    save_ctns(generate(dx).examples[:4], src)
    rc = main(["translate", "--checkpoint", str(root), "--input", str(src), "--direction", "x2y", "--out", str(tmp_path / "moved")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{root / 'manifest.json'}: no sample_shape; checkpoints from before manifests had sample_shape" in err


def test_translate_frame_directory(dot_run, tmp_path):
    frames = generate(parse_descriptor(DOT_X_LINE)).examples[0][:3]
    src = tmp_path / "frames"
    src.mkdir()
    for i, frame in enumerate(frames):
        save_ppm(frame, src / f"frame_{i}.ppm")
    out = tmp_path / "moved"
    rc = main(
        ["translate", "--checkpoint", str(dot_run["ckpt"]), "--input", str(src),
         "--direction", "x2y", "--langevin-steps", "0", "--out", str(out)]
    )
    assert rc == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["frame_0.ppm", "frame_1.ppm", "frame_2.ppm"]
    assert load_ppm(out / "frame_0.ppm").data.shape == (1, 16, 16)


def test_translate_mixed_frame_shapes_names_the_file(dot_run, tmp_path, capsys):
    src = tmp_path / "frames"
    src.mkdir()
    save_ppm(np.zeros((1, 16, 16), dtype=np.float32), src / "frame_0.ppm")
    save_ppm(np.zeros((1, 8, 8), dtype=np.float32), src / "frame_1.ppm")
    rc = main(
        ["translate", "--checkpoint", str(dot_run["ckpt"]), "--input", str(src),
         "--direction", "x2y", "--out", str(tmp_path / "o")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "frame_1.ppm has shape (1, 8, 8)" in err
    assert "frame_0.ppm has (1, 16, 16)" in err


def test_translate_empty_directory_fails(ring_run, tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    rc = main(
        ["translate", "--checkpoint", str(ring_run["ckpt"]), "--input", str(empty),
         "--direction", "x2y", "--out", str(tmp_path / "o")]
    )
    assert rc == 1
    assert "no .ppm or .ctns inputs" in capsys.readouterr().err


# ---------------------------------------------------------------- eval & sample


def test_eval_reproduces_final_metrics_row(ring_run, capsys):
    rc = main(["eval", "--checkpoint", str(ring_run["ckpt"])])
    assert rc == 0
    capsys.readouterr()
    header, values = (ring_run["ckpt"] / "eval.csv").read_text().splitlines()
    assert header == "fd_x,fd_y,cycle_err,mode_min,mode_uncaptured,psnr"
    got = dict(zip(header.split(","), map(float, values.split(","))))
    # both sides are repr(float) of one evaluate on bit-equal parameters
    last = (ring_run["out"] / "metrics.csv").read_text().splitlines()[-1].split(",")
    assert got["fd_x"] == float(last[1])
    assert got["fd_y"] == float(last[2])
    assert got["cycle_err"] == float(last[3])
    # ring target: coverage columns populated, pairing column not
    assert np.isfinite(got["mode_min"]) and np.isfinite(got["mode_uncaptured"])
    assert np.isnan(got["psnr"])


@pytest.mark.parametrize("run, translator", [("ring_run", PointTranslator), ("dot_run", ImageTranslator)])
def test_eval_translates_once_per_direction(run, translator, request, monkeypatch, tmp_path):
    # G_xy(eval_x), G_yx(eval_y) and one forward per cycle leg; mode coverage
    # (ring) and PSNR (motion-paired dots) reuse G_xy(eval_x)
    ckpt = request.getfixturevalue(run)["ckpt"]
    calls = []
    forward = translator.forward
    monkeypatch.setattr(translator, "forward", lambda self, x: calls.append(self.name) or forward(self, x))
    assert main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path)]) == 0
    assert len(calls) == 4, calls


def test_eval_identity_checkpoint_has_zero_cycle(tmp_path):
    dx, dy = parse_descriptor(RING_X_LINE), parse_descriptor(RING_Y_LINE)
    cfg = TrainConfig(iterations=1, eval_samples=20)
    save_checkpoint(init_state(cfg, generate(dx), generate(dy)), cfg, dx, dy, tmp_path)
    assert main(["eval", "--checkpoint", str(tmp_path / "ckpt_0")]) == 0
    values = (tmp_path / "ckpt_0" / "eval.csv").read_text().splitlines()[1].split(",")
    assert float(values[2]) <= 1e-9


def test_eval_reports_psnr_for_paired_sequences(dot_run):
    assert main(["eval", "--checkpoint", str(dot_run["ckpt"])]) == 0
    values = (dot_run["ckpt"] / "eval.csv").read_text().splitlines()[1].split(",")
    psnr_col = float(values[5])
    assert np.isfinite(psnr_col) and psnr_col > 0.0


def test_sample_writes_artifacts(ring_run, tmp_path):
    out = tmp_path / "samples"
    rc = main(
        ["sample", "--checkpoint", str(ring_run["ckpt"]), "--domain", "y",
         "--count", "32", "--langevin-steps", "3", "--out", str(out)]
    )
    assert rc == 0
    samples = load_ctns(out / "samples.ctns").data
    assert samples.shape == (32, 2)
    assert samples.dtype == np.float32
    assert (out / "samples.ppm").exists()


def test_sample_rejects_count_below_one(ring_run, tmp_path, capsys):
    for count in ("0", "-3"):
        rc = main(
            ["sample", "--checkpoint", str(ring_run["ckpt"]), "--domain", "y", "--count", count,
             "--noise-scale", "0", "--out", str(tmp_path / count)]
        )
        assert rc == 1
        assert "--count" in capsys.readouterr().err
        assert not (tmp_path / count).exists()


def test_sample_is_seed_deterministic(ring_run, tmp_path):
    args = ["sample", "--checkpoint", str(ring_run["ckpt"]), "--domain", "x", "--count", "8", "--langevin-steps", "2"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    np.testing.assert_array_equal(
        load_ctns(tmp_path / "a" / "samples.ctns").data,
        load_ctns(tmp_path / "b" / "samples.ctns").data,
    )


def test_translate_and_sample_share_sampler_flags():
    flags = ["--langevin-steps", "4", "--step-size", "0.05", "--noise-scale", "0.5"]
    parser = build_parser()
    translate = parser.parse_args(["translate", "--checkpoint", "c", "--input", "i", "--direction", "x2y", "--out", "o", *flags])
    sample = parser.parse_args(["sample", "--checkpoint", "c", "--domain", "x", "--out", "o", *flags])
    for ns in (translate, sample):
        assert (ns.steps, ns.step_size, ns.noise_scale) == (4, 0.05, 0.5)
    # each command keeps its own seed: the checkpoint's on translate, 0 on sample
    assert (translate.seed, sample.seed) == (None, 0)


# ---------------------------------------------------------------- entry point


def test_usage_error_exits_nonzero():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code != 0


def test_module_entry_point(tmp_path):
    out = tmp_path / "data"
    proc = subprocess.run(
        [sys.executable, "-m", "coopforge.cli", "gen", RING_X_LINE, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "examples.ctns").exists()
