"""Config validation, stage orchestration, and the command-line surface."""

import json
import os
import re
from pathlib import Path

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
    with pytest.raises(ValueError, match=re.escape("epochs[lmm]=-1 must be a non-negative int")):
        PipelineConfig(epochs={"lmm": -1, "freq": 1, "time_ft": 1, "joint_ft": 1, "align": 1})
    with pytest.raises(ValueError, match="mask ratio 0.005 degenerate for n=110"):
        PipelineConfig(r_m=0.005)
    with pytest.raises(ValueError, match=re.escape("teacher_momentum=1.5 outside [0, 1]")):
        PipelineConfig(teacher_momentum=1.5)
    with pytest.raises(ValueError, match=re.escape("ga_n=1 outside [2, n_classes=40]")):
        PipelineConfig(ga_n=1)
    with pytest.raises(ValueError, match=re.escape("ga_k=40 outside [1, ga_n)")):
        PipelineConfig(ga_k=40)
    # generate writes every latent as an RGB PPM; other channel counts would
    # train every stage and then fail there.
    for channels in (1, 4):
        with pytest.raises(ValueError, match=f"latent_channels={channels} must be 3"):
            PipelineConfig(latent_channels=channels)
    # A cascade that switches at step 0 would likewise fail only in generate.
    for T, rho in ((3, 0.3), (2, 0.3), (10, 0.05)):
        with pytest.raises(ValueError, match=re.escape(f"rho={rho} with T={T}: switch_step: switch step 0")):
            PipelineConfig(T=T, rho=rho)
    # A latent smaller than one SSIM window would fail only in evaluate.
    with pytest.raises(ValueError, match=re.escape(
        "PipelineConfig: latent_size=7 makes images 7x7 smaller than the 8-pixel SSIM window"
    )):
        PipelineConfig(latent_size=7)
    # So would a split without enough images, or an IS score over more splits
    # than the test split yields images (tiny: 3 test images x 4 samples).
    with pytest.raises(ValueError, match="records_per_class = 9 images; the split needs at least 10"):
        PipelineConfig(n_classes=3, records_per_class=3, ga_n=3)
    with pytest.raises(ValueError, match="is_splits=13 exceeds the 12 images"):
        tiny_config(is_splits=13)
    assert tiny_config(is_splits=12).is_splits == 12


def test_config_json_roundtrip(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    assert PipelineConfig.load(path) == cfg


def _legacy_tiny_text() -> str:
    """configs/tiny.json as it read while GA was a Monte-Carlo estimate."""
    text = Path(TINY).read_text()
    legacy = text.replace('  "ga_k": 1,\n', '  "ga_k": 1,\n  "ga_trials": 20,\n')
    assert '"ga_trials"' not in text and '"ga_trials": 20' in legacy
    return legacy


def test_config_drops_retired_ga_trials_key(tmp_path):
    legacy = tmp_path / "tiny.json"
    legacy.write_text(_legacy_tiny_text())
    cfg = PipelineConfig.load(legacy)
    assert cfg == PipelineConfig.load(TINY)
    assert "ga_trials" not in cfg.to_dict()
    with pytest.raises(ValueError, match=r"unknown config keys \['ga_tirals'\]"):
        PipelineConfig.from_dict({**json.loads(_legacy_tiny_text()), "ga_tirals": 20})


def test_old_report_with_ga_trials_still_reads():
    from brainvis_forge.metrics import MetricsReport

    old_config = {**json.loads(_legacy_tiny_text()), "surrogate_train_acc": 1.0}
    old_text = json.dumps(
        {
            "config": old_config, "f1_macro": 1.0, "fid": 0.5, "fid_valid": False, "ga": 0.75,
            "is_mean": 2.5, "is_std": 0.0, "n_generated": 12, "n_reference": 3,
            "per_class": {"0": 1.0}, "ssim_mean": 0.4, "top1_ca": 1.0, "top3_ca": 1.0, "top5_ca": 1.0,
        },
        indent=2, sort_keys=True,
    )
    report = MetricsReport.from_json(old_text)
    report.validate_ranges()
    assert report.config["ga_trials"] == 20
    assert report.to_json() == old_text
    snapshot = {k: v for k, v in report.config.items() if k != "surrogate_train_acc"}
    assert PipelineConfig.from_dict(snapshot) == PipelineConfig.load(TINY)


# The tiny chain's config.json snapshot as written while `stage2_condition`
# still selected between a learned and a fixture class condition.
LEGACY_SNAPSHOT = Path(__file__).parent / "data" / "legacy_tiny_config.json"


def test_config_drops_learned_stage2_condition_from_old_snapshots():
    snapshot = json.loads(LEGACY_SNAPSHOT.read_text())
    assert snapshot["stage2_condition"] == "learned"
    cfg = PipelineConfig.load(LEGACY_SNAPSHOT)
    assert cfg == PipelineConfig.load(TINY)
    assert "stage2_condition" not in cfg.to_dict()
    assert json.loads(cfg.to_json()) == {k: v for k, v in snapshot.items() if k != "stage2_condition"}


def test_config_rejects_the_removed_fixture_condition():
    snapshot = {**json.loads(LEGACY_SNAPSHOT.read_text()), "stage2_condition": "fixture"}
    with pytest.raises(ValueError, match="fixture-conditioned generate path was removed"):
        PipelineConfig.from_dict(snapshot)


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


@pytest.mark.parametrize("stage, failing", [("data", "_write_jsonl"), ("freq", "_write_jsonl"), ("freq", "crc_bytes")])
def test_a_stage_that_fails_while_writing_is_not_done(tmp_path, monkeypatch, stage, failing):
    from brainvis_forge.pipeline import checkpoint, runner

    def fail(*args, **kwargs):
        raise OSError("disk full")

    cfg = tiny_config(epochs={**tiny_config().epochs, "freq": 1})
    paths = RunPaths(tmp_path / "run")
    if stage != "data":
        run_gen_data(cfg, paths)
    # _write_jsonl writes metrics.jsonl; crc_bytes runs while the checkpoint body is written.
    monkeypatch.setattr(runner if failing == "_write_jsonl" else checkpoint, failing, fail)
    with pytest.raises(OSError, match="disk full"):
        runner.STAGES[stage].run(cfg, paths)
    assert stage not in paths.available_stages()
    monkeypatch.undo()
    runner.STAGES[stage].run(cfg, paths)
    assert stage in paths.available_stages()


def test_a_stage_whose_marker_never_lands_is_not_done(tmp_path, monkeypatch):
    from brainvis_forge.pipeline import runner

    cfg = tiny_config(diffusion_steps=4, epochs={"lmm": 1, "freq": 1, "time_ft": 1, "joint_ft": 1, "align": 1})
    paths = RunPaths(tmp_path / "run")
    replace = os.replace
    for name, stage in runner.STAGES.items():
        def fail_on_marker(src, dst, marker=stage.marker):
            if Path(dst).name == marker:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_marker)
        with pytest.raises(OSError, match="disk full"):
            stage.run(cfg, paths)
        assert name not in paths.available_stages()
        monkeypatch.undo()
        stage.run(cfg, paths)
        assert name in paths.available_stages()


def test_tfe_stage_computes_spectra_once(tmp_path, monkeypatch):
    from brainvis_forge.freq import train as freq_train
    from brainvis_forge.pipeline import runner

    cfg = tiny_config(epochs={"lmm": 1, "freq": 1, "time_ft": 1, "joint_ft": 1, "align": 1})
    paths = RunPaths(tmp_path / "run")
    for stage in ("data", "lmm", "freq"):
        runner.STAGES[stage].run(cfg, paths)
    fft_magnitude, chunks = freq_train.fft_magnitude, []
    monkeypatch.setattr(freq_train, "fft_magnitude", lambda x, *a, **kw: chunks.append(len(x)) or fft_magnitude(x, *a, **kw))
    runner.run_finetune_tfe(cfg, paths)
    # One pass over the 32 trials, 16 at a time, feeds training and both splits' inference.
    assert chunks == [16, 16]


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
        "tfe": (TfeModel, {"spectrum_scale", "train_fused", "test_fused", "test_logits"}),
        "align": (AlignmentNet, {"train_c_eeg", "test_c_eeg"}),
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
    # The disabled time branch contributes zeros to every stored fused row.
    for key in ("train_fused", "test_fused"):
        assert tfe[key].shape[1] == cfg.d + cfg.lstm_hidden
        assert not tfe[key][:, : cfg.d].any() and tfe[key][:, cfg.d :].any()


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
    from brainvis_forge.fusion.model import TfeModel
    from brainvis_forge.pipeline import runner

    cfg = tiny_config(diffusion_steps=50)
    paths = RunPaths(tmp_path / "run")
    for stage in ("data", "lmm", "freq", "tfe"):
        runner.STAGES[stage].run(cfg, paths)

    counts = dict.fromkeys(("tfe_model", "predict", "fft", "spectra", "tfe_inputs", "classify", "align"), 0)

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # Stages after tfe read its stored rows and never rebuild the fused classifier.
    monkeypatch.setattr(TfeModel, "__init__", counting("tfe_model", TfeModel.__init__))
    for stage in ("align", "diffusion"):
        runner.STAGES[stage].run(cfg, paths)
    assert counts["tfe_model"] == 0

    monkeypatch.setattr(DenoiserNet, "predict", counting("predict", DenoiserNet.predict))
    monkeypatch.setattr(freq_train, "fft_magnitude", counting("fft", freq_train.fft_magnitude))
    monkeypatch.setattr(fusion_train, "spectra_matrix", counting("spectra", freq_train.spectra_matrix))
    monkeypatch.setattr(runner, "tfe_inputs", counting("tfe_inputs", fusion_train.tfe_inputs))
    monkeypatch.setattr(runner, "classify_batch", counting("classify", fusion_train.classify_batch))
    monkeypatch.setattr(runner, "align", counting("align", align_model.align))
    summary = runner.run_generate(cfg, paths)
    _, split = runner.load_run_data(cfg, paths)
    assert summary["samples"] == len(split.test) * cfg.samples_per_record
    # labels and conditions come from the tfe and align checkpoints
    assert counts == {**dict.fromkeys(counts, 0), "predict": cfg.T}

    report = runner.run_evaluate(cfg, paths)
    assert counts == {**dict.fromkeys(counts, 0), "predict": cfg.T}
    # 3 test records x 4 samples against 3 references in the surrogate's 32 dims
    assert (report.n_generated, report.n_reference) == (12, 3)
    assert report.fid_valid is False
    on_disk = json.loads((paths.root / "evaluate" / "report.json").read_text())
    assert (on_disk["n_generated"], on_disk["n_reference"], on_disk["fid_valid"]) == (12, 3, False)


def test_stored_rows_equal_a_fresh_inference_pass(tmp_path):
    from brainvis_forge.align.model import align
    from brainvis_forge.autodiff import predict
    from brainvis_forge.fusion.train import classify_batch, tfe_inputs
    from brainvis_forge.pipeline import runner

    cfg = tiny_config(epochs={"lmm": 1, "freq": 1, "time_ft": 1, "joint_ft": 1, "align": 1})
    paths = RunPaths(tmp_path / "run")
    for stage in ("data", "lmm", "freq", "tfe", "align"):
        runner.STAGES[stage].run(cfg, paths)

    tfe = runner.load_stage(paths, "tfe")
    model = runner._tfe_model(cfg, np.random.default_rng(0), tfe.config["use_time"], tfe.config["use_freq"],
                              float(tfe.tensors["spectrum_scale"][0]))
    model.load_state(tfe.tensors, "model/")
    net = runner._align_net(cfg, np.random.default_rng(0))
    c_eeg = runner.load_stage(paths, "align", net).tensors
    dataset, split = runner.load_run_data(cfg, paths)
    fresh = {name: predict(model.fused, *tfe_inputs(model, dataset.take(rows), cfg.n))
             for name, rows in (("train", split.train), ("test", split.test))}
    for name, fused in fresh.items():
        assert np.array_equal(tfe.tensors[f"{name}_fused"], fused)
        assert np.array_equal(c_eeg[f"{name}_c_eeg"], align(net, fused))
    assert np.array_equal(tfe.tensors["test_logits"], classify_batch(model, fresh["test"]))


@pytest.mark.parametrize(
    "writer, key, reader",
    [
        ("tfe", "train_fused", "align"),
        ("tfe", "test_fused", "align"),
        ("align", "train_c_eeg", "diffusion"),
        ("tfe", "test_logits", "generate"),
        ("align", "test_c_eeg", "generate"),
        ("tfe", "test_logits", "evaluate"),
    ],
)
def test_stage_rejects_stored_rows_of_another_split(tmp_path, writer, key, reader):
    from brainvis_forge.pipeline import runner
    from brainvis_forge.pipeline.checkpoint import CheckpointArchive, load_checkpoint, save_checkpoint

    cfg = tiny_config(diffusion_steps=2, epochs={"lmm": 1, "freq": 1, "time_ft": 1, "joint_ft": 0, "align": 1})
    paths = RunPaths(tmp_path / "run")
    stages = list(runner.STAGES)
    for stage in stages[: stages.index(reader)]:
        runner.STAGES[stage].run(cfg, paths)
    ckpt = load_checkpoint(paths.checkpoint(writer))
    n = len(ckpt.tensors[key])
    save_checkpoint(paths.checkpoint(writer),
                    CheckpointArchive({**ckpt.tensors, key: ckpt.tensors[key][:-1]}, writer, ckpt.config))
    with pytest.raises(StageError, match=f"stage '{reader}': {writer} checkpoint key '{key}' has {n - 1} rows"):
        runner.STAGES[reader].run(cfg, paths)
