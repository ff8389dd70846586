"""Config validation, stage orchestration, and the command-line surface."""

import json

import numpy as np
import pytest

from brainvis_forge.pipeline.checkpoint import StageError
from brainvis_forge.pipeline.cli import main
from brainvis_forge.pipeline.config import PipelineConfig
from brainvis_forge.pipeline.runner import RunPaths, run_gen_data, run_train_lmm

TINY = "configs/tiny.json"


def tiny_config(**overrides) -> PipelineConfig:
    return PipelineConfig.load(TINY).with_overrides(**overrides)


# --- config --------------------------------------------------------------------


def test_default_config_carries_reference_values():
    cfg = PipelineConfig()
    assert (cfg.c, cfg.l, cfg.n, cfg.d) == (128, 440, 110, 1024)
    assert (cfg.r_m, cfg.n_t, cfg.heads, cfg.ffn) == (0.75, 660, 16, 4096)
    assert (cfg.sa_blocks, cfg.ca_blocks, cfg.lstm_hidden) == (8, 4, 128)
    assert (cfg.lr, cfg.batch, cfg.e, cfg.T, cfg.rho) == (0.001, 128, 768, 100, 0.3)
    assert cfg.epochs == {"lmm": 300, "freq": 900, "time_ft": 80, "joint_ft": 30, "align": 200}
    assert cfg.unit_dim == 512


def test_config_rejects_bad_fields():
    with pytest.raises(ValueError, match="must divide"):
        PipelineConfig(n=7)
    with pytest.raises(ValueError, match="heads"):
        PipelineConfig(heads=7)
    with pytest.raises(ValueError, match="r_m"):
        PipelineConfig(r_m=1.2)
    with pytest.raises(ValueError, match="unknown config keys"):
        PipelineConfig.from_dict({"not_a_field": 1})
    with pytest.raises(ValueError, match="ablate"):
        PipelineConfig(ablate="no-everything")
    with pytest.raises(ValueError, match="epochs"):
        PipelineConfig(epochs={"lmm": 1})


def test_config_json_roundtrip(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    assert PipelineConfig.load(path) == cfg


# --- stages ----------------------------------------------------------------------


def test_gen_data_deterministic_bytes(tmp_path):
    cfg = tiny_config()
    a, b = RunPaths(tmp_path / "a"), RunPaths(tmp_path / "b")
    run_gen_data(cfg, a)
    run_gen_data(cfg, b)
    for name in ("dataset.bvd", "fixtures.bve"):
        assert (a.root / "data" / name).read_bytes() == (b.root / "data" / name).read_bytes()


def test_stage_without_prerequisites_fails(tmp_path):
    cfg = tiny_config()
    with pytest.raises(StageError, match="requires 'data'"):
        run_train_lmm(cfg, RunPaths(tmp_path / "run"))


def test_stage_writes_config_snapshot_and_metrics(tmp_path):
    cfg = tiny_config()
    paths = RunPaths(tmp_path / "run")
    run_gen_data(cfg, paths)
    stage_dir = paths.root / "data"
    snapshot = json.loads((stage_dir / "config.json").read_text())
    assert snapshot["seed"] == cfg.seed
    assert (stage_dir / "metrics.jsonl").exists()


def test_tfe_starts_from_the_pretrained_branches(tmp_path):
    from brainvis_forge.pipeline import runner

    # No fine-tuning epochs, so the saved branches are exactly what the stage loaded.
    cfg = tiny_config(epochs={**tiny_config().epochs, "time_ft": 0, "joint_ft": 0})
    paths = RunPaths(tmp_path / "run")
    for stage in ("data", "lmm", "freq", "tfe"):
        runner.STAGES[stage].run(cfg, paths)
    tfe, lmm, freq = (runner.load_stage(paths, stage).tensors for stage in ("tfe", "lmm", "freq"))
    for tfe_prefix, source, prefix in (
        ("model/projector.", lmm, "model/projector."),
        ("model/encoder.", lmm, "model/encoder."),
        ("model/freq_encoder.", freq, "model/encoder."),
    ):
        names = [k[len(tfe_prefix):] for k in tfe if k.startswith(tfe_prefix)]
        assert names and sorted(names) == sorted(k[len(prefix):] for k in source if k.startswith(prefix))
        for name in names:
            np.testing.assert_array_equal(tfe[tfe_prefix + name], source[prefix + name])

    # no-pretrain cold-starts the time branch, so the stage runs without an lmm checkpoint.
    cold = RunPaths(tmp_path / "cold")
    cold_cfg = cfg.with_overrides(ablate="no-pretrain")
    for stage in ("data", "freq", "tfe"):
        runner.STAGES[stage].run(cold_cfg, cold)
    assert cold.available_stages() == {"data", "freq", "tfe"}


def test_each_checkpoint_holds_its_trained_network_once(tmp_path, monkeypatch):
    from brainvis_forge.align.model import AlignmentNet
    from brainvis_forge.diffusion.denoiser import DenoiserNet
    from brainvis_forge.freq.train import FreqClassifier
    from brainvis_forge.fusion.model import TfeModel
    from brainvis_forge.lmm.train import LmmModels
    from brainvis_forge.pipeline import runner

    saved = {}
    save_stage = runner.save_stage

    def recording(cfg, paths, stage, history, model, extras=None, meta=None):
        saved[stage] = model
        save_stage(cfg, paths, stage, history, model, extras, meta)

    monkeypatch.setattr(runner, "save_stage", recording)
    cfg = tiny_config(diffusion_steps=4, epochs={"lmm": 1, "freq": 1, "time_ft": 1, "joint_ft": 1, "align": 1})
    paths = RunPaths(tmp_path / "run")
    for stage in ("data", "lmm", "freq", "tfe", "align", "diffusion"):
        runner.STAGES[stage].run(cfg, paths)

    expected = {
        "lmm": (LmmModels, set()),
        "freq": (FreqClassifier, {"spectrum_scale"}),
        "tfe": (TfeModel, {"spectrum_scale"}),
        "align": (AlignmentNet, set()),
        "diffusion": (DenoiserNet, set()),
    }
    assert set(saved) == set(expected)
    for stage, (kind, extras) in expected.items():
        model, tensors = saved[stage], runner.load_stage(paths, stage).tensors
        assert isinstance(model, kind)
        params = dict(model.named_parameters("model/"))
        assert set(tensors) == set(params) | extras
        for name, t in params.items():
            assert tensors[name].tobytes() == t.data.tobytes()
    assert {k.split(".")[0] for k in dict(saved["lmm"].named_parameters())} == {"projector", "encoder", "predictor"}


def test_tfe_rejects_an_lmm_checkpoint_in_the_old_optimizer_layout(tmp_path):
    from brainvis_forge.pipeline import runner
    from brainvis_forge.pipeline.checkpoint import CheckpointArchive, load_checkpoint, save_checkpoint

    cfg = tiny_config(epochs={**tiny_config().epochs, "lmm": 1, "freq": 1})
    paths = RunPaths(tmp_path / "run")
    for stage in ("data", "lmm", "freq"):
        runner.STAGES[stage].run(cfg, paths)
    lmm = load_checkpoint(paths.checkpoint("lmm"))
    old = {"opt/param/" + k.removeprefix("model/"): v for k, v in lmm.tensors.items()}
    save_checkpoint(paths.checkpoint("lmm"), CheckpointArchive(old, "lmm", lmm.config))
    with pytest.raises(KeyError, match="model/projector[.]"):
        runner.run_finetune_tfe(cfg, paths)


def test_no_time_tfe_has_no_time_branch(tmp_path):
    from brainvis_forge.pipeline import runner

    cfg = tiny_config(ablate="no-time", epochs={**tiny_config().epochs, "time_ft": 1, "joint_ft": 1, "align": 1})
    paths = RunPaths(tmp_path / "run")
    for stage in ("data", "freq", "tfe", "align"):
        runner.STAGES[stage].run(cfg, paths)
    tfe = runner.load_stage(paths, "tfe").tensors
    assert any(k.startswith("model/freq_encoder.") for k in tfe) and "model/head.weight" in tfe
    assert not [k for k in tfe if k.startswith(("model/projector.", "model/encoder."))]
    model = runner._load_tfe(cfg, paths)
    assert model.projector is None and model.encoder is None


# --- cli -------------------------------------------------------------------------


def test_cli_gen_data_and_prereq_error(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    assert main(["--config", TINY, "--run-dir", run_dir, "gen-data"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["records"] == 32
    with pytest.raises(StageError):
        main(["--config", TINY, "--run-dir", str(tmp_path / "other"), "train-lmm"])


def test_cli_seed_override_changes_data(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    main(["--config", TINY, "--run-dir", a, "gen-data"])
    main(["--config", TINY, "--run-dir", b, "--seed", "99", "gen-data"])
    blob_a = (tmp_path / "a" / "data" / "dataset.bvd").read_bytes()
    blob_b = (tmp_path / "b" / "data" / "dataset.bvd").read_bytes()
    assert blob_a != blob_b


def test_cli_grad_check_small(capsys):
    assert main(["grad-check", "--probes", "1"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out
    assert out.count("ok") >= 30


def test_cli_ablate_requires_mode(tmp_path, capsys):
    assert main(["--config", TINY, "--run-dir", str(tmp_path / "r"), "ablate"]) == 2


def test_cli_every_stage_command_in_order(tmp_path, capsys):
    run_dir = str(tmp_path / "chain")
    for command in (
        "gen-data", "train-lmm", "train-freq", "finetune-tfe",
        "train-align", "train-diffusion", "generate", "evaluate",
    ):
        assert main(["--config", TINY, "--run-dir", run_dir, command]) == 0, command
    report = json.loads((tmp_path / "chain" / "evaluate" / "report.json").read_text())
    assert set(report) >= {"top1_ca", "ga", "is_mean", "fid", "ssim_mean", "config"}
    out = capsys.readouterr().out
    assert '"ga"' in out  # evaluate prints the report


def test_cli_ablate_full_chain(tmp_path, capsys):
    assert main(["--config", TINY, "--run-dir", str(tmp_path / "ab"), "--ablate", "no-refine", "ablate"]) == 0
    report = json.loads((tmp_path / "ab" / "evaluate" / "report.json").read_text())
    assert report["config"]["ablate"] == "no-refine"


def test_cli_choices_and_subcommands_follow_the_stage_table():
    from brainvis_forge.pipeline import ABLATION_MODES, runner
    from brainvis_forge.pipeline.cli import build_parser

    actions = {a.dest: a for a in build_parser()._actions}
    assert tuple(actions["ablate"].choices) == ABLATION_MODES
    commands = [stage.command for stage in runner.STAGES.values()]
    assert list(actions["command"].choices) == [*commands, "grad-check", "ablate"]
    for stage in runner.STAGES.values():
        assert actions["command"].choices[stage.command].get_default("run") is stage.run


def test_stage_table_invariants():
    from brainvis_forge.pipeline import runner
    from brainvis_forge.pipeline.config import ABLATION_SKIPS

    names = list(runner.STAGES)
    for i, stage in enumerate(runner.STAGES.values()):
        assert set(stage.needs) <= set(names[:i]), names[i]
        assert stage.run is getattr(runner, stage.run.__name__)
    assert {stage for skipped in ABLATION_SKIPS.values() for stage in skipped} <= set(names)
    commands = [stage.command for stage in runner.STAGES.values()]
    assert len(set(commands)) == len(commands)


def test_no_time_chain_builds_no_units(tmp_path, monkeypatch):
    from brainvis_forge.fusion import train as fusion_train
    from brainvis_forge.pipeline import runner

    prepare_units, calls = fusion_train.prepare_units, []
    monkeypatch.setattr(fusion_train, "prepare_units", lambda *a, **kw: calls.append(a) or prepare_units(*a, **kw))
    report = runner.run_full_chain(tiny_config(ablate="no-time"), RunPaths(tmp_path / "run"))
    assert report.config["ablate"] == "no-time"
    assert calls == []


def test_generate_runs_one_batched_chain_and_evaluate_flags_degenerate_fid(tmp_path, monkeypatch):
    from brainvis_forge.align import model as align_model
    from brainvis_forge.diffusion.denoiser import DenoiserNet
    from brainvis_forge.freq import train as freq_train
    from brainvis_forge.fusion import train as fusion_train
    from brainvis_forge.pipeline import runner

    cfg = tiny_config(diffusion_steps=50)
    paths = RunPaths(tmp_path / "run")
    for stage in ("data", "lmm", "freq", "tfe", "align", "diffusion"):
        runner.STAGES[stage].run(cfg, paths)

    counts = {"predict": 0, "fft": 0, "spectra": 0, "align": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(DenoiserNet, "predict", counting("predict", DenoiserNet.predict))
    monkeypatch.setattr(freq_train, "fft_magnitude", counting("fft", freq_train.fft_magnitude))
    monkeypatch.setattr(fusion_train, "spectra_matrix", counting("spectra", freq_train.spectra_matrix))
    monkeypatch.setattr(runner, "align", counting("align", align_model.align))
    summary = runner.run_generate(cfg, paths)
    _, split = runner.load_run_data(cfg, paths)
    assert summary["samples"] == len(split.test) * cfg.samples_per_record
    # the tiny test set fits in one spectra_matrix chunk: one batched FFT call
    assert len(split.test) <= freq_train._CHUNK
    assert counts == {"predict": cfg.T, "fft": 1, "spectra": 1, "align": 1}

    report = runner.run_evaluate(cfg, paths)
    # 3 test records x 4 samples against 3 references in the surrogate's 32 dims
    assert (report.n_generated, report.n_reference) == (12, 3)
    assert report.fid_valid is False
    on_disk = json.loads((paths.root / "evaluate" / "report.json").read_text())
    assert (on_disk["n_generated"], on_disk["n_reference"], on_disk["fid_valid"]) == (12, 3, False)
