"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""

import contextlib
import json
import time
from itertools import combinations

import numpy as np
import pytest

from brainvis_forge.autodiff import Tensor
from brainvis_forge.pipeline.config import PipelineConfig
from brainvis_forge.pipeline.runner import STAGES, RunPaths, run_full_chain
import digests
from digests import assert_matches_manifest, latent_digests, manifest_diff, run_digests

TINY = "configs/tiny.json"


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


@contextlib.contextmanager
def stage_reads():
    """Collect the run-relative paths each stage asks `RunPaths.read` for, keyed by stage."""
    asked: dict[str | None, set[str]] = {}
    original = RunPaths.read

    def recorded(self, path):
        asked.setdefault(self.stage, set()).add(path)
        return original(self, path)

    RunPaths.read = recorded
    try:
        yield asked
    finally:
        RunPaths.read = original


def assert_each_stage_opened_what_it_declares(ran: set[str], asked: dict[str | None, set[str]]) -> None:
    """Every file a stage's row declares, less those of stages that did not run, was opened by that
    stage; a declared directory counts as opened when a file in it was."""
    assert set(asked) <= ran, f"reads from outside any stage that ran: {sorted(map(str, set(asked) - ran))}"
    for name in ran:
        declared = {path for path in STAGES[name].reads if path.split("/")[0] in ran}
        opened = {path for path in declared
                  if any(a == path or (path.endswith("/") and a.startswith(path)) for a in asked.get(name, ()))}
        assert opened == declared, f"stage {name!r} declares but never opened {sorted(declared - opened)}"


def test_criterion_1_gradient_suite():
    from brainvis_forge.autodiff.gradcheck import run_catalog_suite

    with criterion(1, "all ops match central finite differences (rel err < 1e-4, 10 probes, < 2 min)"):
        start = time.time()
        worst = run_catalog_suite(probes=10, seed=2024)
        elapsed = time.time() - start
        failing = {k: v for k, v in worst.items() if v >= 1e-4}
        assert not failing, f"ops over tolerance: {failing}"
        assert len(worst) >= 30
        assert elapsed < 120, f"gradient suite took {elapsed:.1f}s"


def test_criterion_2_masking_exactness():
    from brainvis_forge.lmm import make_mask_plan

    with criterion(2, "mask plans: 82/28 split, clean partition over 1000 plans, uniform frequency"):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            plan = make_mask_plan(110, 0.75, rng)
            assert len(plan.masked) == 82 and len(plan.visible) == 28
            assert len(np.intersect1d(plan.masked, plan.visible)) == 0
            np.testing.assert_array_equal(
                np.sort(np.concatenate([plan.masked, plan.visible])), np.arange(110)
            )
        counts = np.zeros(110)
        draws = 10_000
        freq_rng = np.random.default_rng(99)
        for _ in range(draws):
            counts[make_mask_plan(110, 0.75, freq_rng).masked] += 1
        assert np.all(np.abs(counts / draws - 82 / 110) < 0.02)


def test_criterion_3_loss_formulas():
    from brainvis_forge.align import si_loss
    from brainvis_forge.lmm.loss import lmm_loss

    with criterion(3, "loss hand values: reg 0.25, cls ln(660), exact additivity, cosine triple"):
        # regression hand case, d=4
        reg, _, _ = lmm_loss(
            np.array([[1.0, 0.0, 0.0, 0.0]]), Tensor(np.zeros((1, 4))),
            np.array([0]), Tensor(np.array([[0.5, 0.5]])),
        )
        assert reg.item() == pytest.approx(0.25, abs=1e-12)

        # classification uniform case over 660 codewords
        n_t = 660
        _, cls, _ = lmm_loss(
            np.zeros((1, 2)), Tensor(np.zeros((1, 2))),
            np.array([42]), Tensor(np.full((1, n_t), 1.0 / n_t, dtype=np.float64)),
        )
        assert abs(cls.item() - np.log(660)) < 1e-6

        # exact additivity
        rng = np.random.default_rng(0)
        p = rng.uniform(0.1, 1.0, (3, 5))
        p /= p.sum(axis=1, keepdims=True)
        reg, cls, total = lmm_loss(
            rng.standard_normal((3, 4)), Tensor(rng.standard_normal((3, 4))),
            np.arange(3), Tensor(p),
        )
        assert total.item() == reg.item() + cls.item()

        # interpolation loss triple {0, 2, 2 - sqrt(2)}
        v = Tensor(np.array([0.6, -0.1, 0.3]))
        assert si_loss(v, v, v).item() == pytest.approx(0.0, abs=1e-9)
        out = Tensor(np.array([1.0, 0.0, 0.0]))
        cap = Tensor(np.array([0.0, 1.0, 0.0]))
        lab = Tensor(np.array([0.0, 0.0, 1.0]))
        assert si_loss(out, cap, lab).item() == pytest.approx(2.0, abs=1e-9)
        bisector = Tensor(np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert si_loss(bisector, Tensor(np.array([1.0, 0.0])), Tensor(np.array([0.0, 1.0]))).item() == pytest.approx(
            2.0 - np.sqrt(2.0), abs=1e-9
        )


def test_criterion_4_ema_closed_form():
    with criterion(4, "EMA teacher matches closed form bit-exactly for 100 steps (64-bit)"):
        # tau = 0.5 and student w = 0: every float op is exact, so the
        # iterative update must equal w + tau^k (t0 - w) to the bit.
        rng = np.random.default_rng(3)
        tau = 0.5
        t0 = rng.standard_normal((16, 16))
        teacher = t0.copy()
        student = np.zeros_like(t0)
        for k in range(1, 101):
            teacher = tau * teacher + (1.0 - tau) * student
            expected = (tau**k) * t0
            assert np.array_equal(teacher, expected), f"diverged at k={k}"
        # general tau stays within float accumulation error
        tau = 0.99
        w = rng.standard_normal((8, 8))
        teacher = rng.standard_normal((8, 8))
        t0 = teacher.copy()
        for k in range(1, 101):
            teacher = tau * teacher + (1.0 - tau) * w
        closed = w + tau**100 * (t0 - w)
        assert np.max(np.abs(teacher - closed)) < 1e-12


def test_criterion_5_lmm_training_progress():
    from dataclasses import replace

    from brainvis_forge.data import SyntheticGenSpec, generate_synthetic, zscore_channels
    from brainvis_forge.lmm import build_lmm_models, prepare_units, train_lmm

    with criterion(5, "200 optimizer steps on 64 records halve the pretraining loss (< 5 min)"):
        spec = SyntheticGenSpec(
            n_classes=4, records_per_class=16, c=8, l=80,
            noise_std=0.1, sample_rate=100.0, seed=1,
        )
        raw = generate_synthetic(spec)
        records = replace(raw, x=zscore_channels(raw.x))
        assert len(records) == 64
        start = time.time()
        units = prepare_units(records, 20)
        models = build_lmm_models(
            unit_dim=units.shape[2], n_units=20, d=64, n_heads=4, ffn_dim=128,
            sa_blocks=2, ca_blocks=2, n_codewords=64, teacher_momentum=0.99, seed=3,
        )
        history = train_lmm(units, models, rows=range(len(units)), mask_ratio=0.75, steps=200, batch_size=64, seed=3)
        elapsed = time.time() - start
        first, last = history[0]["l_lmm"], history[-1]["l_lmm"]
        assert last < 0.5 * first, f"loss went {first:.3f} -> {last:.3f}"
        assert elapsed < 300, f"took {elapsed:.1f}s"


def test_criterion_6_tfe_overfit():
    from brainvis_forge.autodiff import predict
    from brainvis_forge.autodiff.nn import Linear
    from dataclasses import replace

    from brainvis_forge.data import SyntheticGenSpec, generate_synthetic, split_by_image, zscore_channels
    from brainvis_forge.freq import FreqClassifier, freq_classify_train, train_spectra
    from brainvis_forge.freq.train import spectra_matrix
    from brainvis_forge.fusion import TfeModel, finetune_tfe
    from brainvis_forge.fusion.train import tfe_inputs
    from brainvis_forge.lmm import build_lmm_models, prepare_units, train_lmm
    from brainvis_forge.metrics import top_k_accuracy

    with criterion(6, "staged fine-tuning: train CA >= 0.95, heldout CA >= 0.80 on 40 classes (< 10 min)"):
        start = time.time()
        spec = SyntheticGenSpec(
            n_classes=40, records_per_class=10, c=8, l=40,
            noise_std=0.1, sample_rate=100.0, seed=11,
            sinusoids_per_class=3, phase_jitter=0.3,
        )
        raw = generate_synthetic(spec)
        records = replace(raw, x=zscore_channels(raw.x))
        split = split_by_image(records.image_ids, seed=11)

        lmm_units = prepare_units(records, 10)
        lmm = build_lmm_models(
            unit_dim=lmm_units.shape[2], n_units=10, d=32, n_heads=4,
            ffn_dim=64, sa_blocks=2, ca_blocks=2, n_codewords=64, teacher_momentum=0.99, seed=5,
        )
        train_lmm(lmm_units, lmm, rows=split.train, mask_ratio=0.75, steps=60, batch_size=64, seed=5)
        freq_spectra, scale = train_spectra(records, split)
        freq_rng = np.random.default_rng(np.random.SeedSequence([5, 0xF9E9]))
        freq = FreqClassifier(8, 48, 40, freq_rng)
        freq_classify_train(freq, freq_spectra, records.labels, split, epochs=80, batch_size=32, lr=1e-3, rng=freq_rng)
        model = TfeModel(
            lmm.projector, lmm.encoder, freq.encoder,
            Linear(32 + 48, 40, np.random.default_rng(5)), spectrum_scale=scale,
        )
        history = finetune_tfe(
            model, *tfe_inputs(model, records, 10), records.labels, split,
            stage1_epochs=25, stage2_epochs=12, batch_size=32, seed=5,
        )
        units = prepare_units(records, 10)
        spectra = spectra_matrix(records, 100.0, scale)
        labels = records.labels
        held = np.array(split.val + split.test)
        train_acc = history[-1]["train_acc"]
        held_acc = top_k_accuracy(predict(model.logits, units[held], spectra[held], None), labels[held], 1)
        elapsed = time.time() - start
        assert train_acc >= 0.95, f"train CA {train_acc:.3f}"
        assert held_acc >= 0.80, f"heldout CA {held_acc:.3f}"
        assert elapsed < 600, f"took {elapsed:.1f}s"


def test_criterion_7_fft_properties():
    from brainvis_forge.freq.fft import fft, fft_magnitude

    with criterion(7, "FFT: Parseval < 1e-6 on 100 signals, bin concentration, complex linearity"):
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = rng.standard_normal(440)
            spectrum = fft(x)
            lhs = np.sum(x * x)
            rhs = np.sum(np.abs(spectrum) ** 2) / 440
            assert abs(lhs - rhs) / abs(lhs) < 1e-6

        l, k = 440, 37
        t = np.arange(l)
        seq = fft_magnitude(np.sin(2 * np.pi * k * t / l)[None, :], sample_rate=float(l))
        assert np.argmax(seq.magnitude[:, 0]) == k
        np.testing.assert_allclose(seq.magnitude[k, 0], l / 2, rtol=1e-9)
        others = np.delete(seq.magnitude[:, 0], k)
        assert np.all(others < 1e-6)

        for _ in range(20):
            x, y = rng.standard_normal(440), rng.standard_normal(440)
            a, b = rng.standard_normal(2)
            lhs_arr = fft(a * x + b * y)
            rhs_arr = a * fft(x) + b * fft(y)
            scale = max(1.0, float(np.max(np.abs(rhs_arr))))
            assert np.max(np.abs(lhs_arr - rhs_arr)) / scale < 1e-6


def test_criterion_8_diffusion_algebra():
    from brainvis_forge.diffusion import (
        NoiseSchedule,
        forward_diffuse,
        reverse_chain,
        switch_step,
        x0_estimate,
    )
    from oracles import OracleDenoiser

    with criterion(8, "diffusion: oracle recovery < 1e-5, schedule shape, bit-equal handoff, cascade < 0.05 RMSE"):
        schedule = NoiseSchedule.linear(T=100)
        assert np.all(np.diff(schedule.alpha_bars) < 0)
        assert schedule.alpha_bars[-1] < 0.05

        rng = np.random.default_rng(23)
        x0 = rng.uniform(-1, 1, (3, 16, 16))
        for t in (1, 40, 100):
            eps = rng.standard_normal(x0.shape)
            x_t = forward_diffuse(schedule, x0, t, eps)
            rmse = np.sqrt(np.mean((x0_estimate(schedule, x_t, t, eps) - x0) ** 2))
            assert rmse < 1e-5

        t_s = switch_step(0.3, schedule.T)
        assert (schedule.T - t_s) + t_s == schedule.T

        oracle = OracleDenoiser(x0, schedule)
        sample_rng = np.random.default_rng(31)
        x_ts = reverse_chain(schedule, oracle, sample_rng.standard_normal(x0.shape), np.zeros(8), sample_rng,
                             schedule.T, t_s)
        handoff = x_ts.copy()
        final = reverse_chain(schedule, oracle, x_ts, np.zeros(8), sample_rng, t_s)
        assert x_ts.tobytes() == handoff.tobytes()
        assert np.sqrt(np.mean((final - x0) ** 2)) < 0.05


def test_criterion_9_metric_oracles():
    from brainvis_forge.metrics import (
        fid,
        fid_from_moments,
        inception_score,
        n_way_top_k,
        ssim,
        top_k_accuracy,
    )

    with criterion(9, "metrics match brute-force oracles and closed forms"):
        rng = np.random.default_rng(41)
        # top-k vs stable full sort on 100 instances
        for _ in range(100):
            logits = rng.standard_normal((8, 7))
            labels = rng.integers(0, 7, 8)
            for k in (1, 3):
                hits = sum(
                    int(lab in np.argsort(-row, kind="stable")[:k]) for row, lab in zip(logits, labels)
                )
                assert top_k_accuracy(logits, labels, k) == pytest.approx(hits / 8)

        # n-way top-k vs exhaustive subsets on a 6-class instance
        probs = rng.dirichlet(np.ones(6), size=5)
        labels = rng.integers(0, 6, 5)
        n_way = 4
        exact_rates = []
        for row, lab in zip(probs, labels):
            wrong = [c for c in range(6) if c != lab]
            hits = total = 0
            for subset in combinations(wrong, n_way - 1):
                cands = sorted((lab,) + subset)
                scores = row[cands]
                pos = cands.index(lab)
                stronger = np.sum(scores > row[lab]) + np.sum(
                    (scores == row[lab]) & (np.arange(len(cands)) < pos)
                )
                hits += int(stronger < 1)
                total += 1
            exact_rates.append(hits / total)
        exact = float(np.mean(exact_rates))
        assert n_way_top_k(probs, labels, n_way, 1) == exact

        mean, _ = inception_score(np.full((10, 5), 0.2))
        assert mean == pytest.approx(1.0, abs=1e-6)
        mean, _ = inception_score(np.eye(9))
        assert mean == pytest.approx(9.0, abs=1e-6)

        a = rng.standard_normal((80, 6))
        assert abs(fid(a, a)) < 1e-8
        expected = 2.0 + (2 + 1 - 2 * np.sqrt(2)) + (3 + 5 - 2 * np.sqrt(15))
        got = fid_from_moments([0, 0], np.diag([2.0, 3.0]), [1, 1], np.diag([1.0, 5.0]))
        assert got == pytest.approx(expected, abs=1e-6)

        img = rng.uniform(-1, 1, (3, 16, 16))
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-9)


def test_criterion_10_persistence(tmp_path):
    from brainvis_forge.align import generate_fixtures, load_fixtures
    from brainvis_forge.binio import ChecksumError
    from brainvis_forge.data import EegDataset, load_dataset
    from brainvis_forge.pipeline.checkpoint import load_checkpoint, save_checkpoint

    with criterion(10, "dataset, fixtures and checkpoint archives round-trip bit-identically, reject bad checksums"):
        rng = np.random.default_rng(53)

        # gen-data's archive: the trials under the dataset's field names beside the fixtures' columns
        bvd = tmp_path / "d.bvc"
        records = EegDataset(rng.standard_normal((6, 4, 12)).astype(np.float32), np.arange(6) % 3, np.arange(6) % 2, np.arange(6))
        fixtures = generate_fixtures(3, 2, e=12, seed=1)
        save_checkpoint(bvd, {**vars(records), "image_labels": fixtures.labels, "c_label": fixtures.c_label,
                              "c_cap": fixtures.c_cap}, "data")
        loaded = load_dataset(bvd)
        assert all(a.x.tobytes() == b.x.tobytes() for a, b in zip(records, loaded))
        loaded_fx = load_fixtures(bvd)
        assert loaded_fx.labels.tolist() == fixtures.labels.tolist()
        assert all(
            fixtures.c_cap[i].tobytes() == loaded_fx.c_cap[i].tobytes()
            and fixtures.c_label[i].tobytes() == loaded_fx.c_label[i].tobytes()
            for i in range(len(fixtures))
        )

        bvc = tmp_path / "c.bvc"
        tensors = {"w": rng.standard_normal((3, 3)).astype(np.float32)}
        save_checkpoint(bvc, tensors, "lmm")
        assert load_checkpoint(bvc, "lmm")["w"].tobytes() == tensors["w"].tobytes()

        for path, loader in ((bvd, load_dataset), (bvd, load_fixtures), (bvc, lambda p: load_checkpoint(p, "lmm"))):
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            corrupted = tmp_path / ("corrupt_" + path.name)
            corrupted.write_bytes(bytes(blob))
            with pytest.raises(ChecksumError):
                loader(corrupted)


def test_criterion_11_end_to_end_smoke(tmp_path):
    with criterion(11, "tiny pipeline end to end < 10 min, 4 images per record, bit-identical rerun"):
        cfg = PipelineConfig.load(TINY)
        start = time.time()
        paths_a = RunPaths(tmp_path / "a")
        with latent_digests() as latents, stage_reads() as asked:
            report_a = run_full_chain(cfg, paths_a)
        elapsed = time.time() - start
        assert elapsed < 600, f"chain took {elapsed:.1f}s"
        report_a.validate_ranges()
        assert_each_stage_opened_what_it_declares(ALL_STAGES, asked)

        prov_lines = (paths_a.root / "generate" / "provenance.jsonl").read_text().splitlines()
        by_record: dict[int, int] = {}
        for line in prov_lines:
            row = json.loads(line)
            by_record[row["record_index"]] = by_record.get(row["record_index"], 0) + 1
        assert by_record and all(v >= 4 for v in by_record.values())
        images = sorted((paths_a.root / "generate" / "images").glob("*.ppm"))
        assert len(images) == len(prov_lines)

        paths_b = RunPaths(tmp_path / "b")
        run_full_chain(cfg, paths_b)
        assert (paths_a.root / "evaluate" / "report.json").read_bytes() == (
            paths_b.root / "evaluate" / "report.json"
        ).read_bytes()
        for img in images:
            twin = paths_b.root / "generate" / "images" / img.name
            assert img.read_bytes() == twin.read_bytes()
        for stage in ("lmm", "freq", "tfe", "align", "diffusion"):
            a_blob = (paths_a.root / stage / "checkpoint.bvc").read_bytes()
            b_blob = (paths_b.root / stage / "checkpoint.bvc").read_bytes()
            assert a_blob == b_blob, f"{stage} checkpoint differs between reruns"
        assert_matches_manifest(None, run_digests(None, paths_a.root, latents))


ALL_STAGES = {"data", "lmm", "freq", "tfe", "align", "diffusion", "generate", "evaluate"}
# Written out by hand, independently of the runner's ablation table.
ABLATION_STAGES_RUN = {
    "no-time": ALL_STAGES - {"lmm"},
    "no-freq": ALL_STAGES - {"freq"},
    "no-pretrain": ALL_STAGES - {"lmm"},
    "no-finetune": ALL_STAGES,
    "no-refine": ALL_STAGES,
    "no-semantic": ALL_STAGES - {"align"},
}


@pytest.mark.parametrize(
    "mode", ["no-time", "no-freq", "no-pretrain", "no-finetune", "no-refine", "no-semantic"]
)
def test_criterion_12_ablation_harness(tmp_path, mode):
    with criterion(12, f"ablation {mode} runs to completion, echoes its switch and skips only its stages"):
        cfg = PipelineConfig.load(TINY).with_overrides(ablate=mode)
        paths = RunPaths(tmp_path / mode)
        with latent_digests() as latents, stage_reads() as asked:
            report = run_full_chain(cfg, paths)
        report.validate_ranges()
        assert_each_stage_opened_what_it_declares(ABLATION_STAGES_RUN[mode], asked)
        assert report.config["ablate"] == mode
        assert paths.available_stages() == ABLATION_STAGES_RUN[mode]
        assert_matches_manifest(mode, run_digests(mode, paths.root, latents))


def test_manifest_diff_names_the_keys_a_regeneration_adds_removes_and_changes():
    old = {"none/a": "1", "none/b": "2", "none/c": "3"}
    new = {"none/a": "1", "none/b": "9", "none/d": "4"}
    assert manifest_diff(old, new) == {"added": ["none/d"], "removed": ["none/c"], "changed": ["none/b"]}


def test_digest_check_reports_differences_and_writes_nothing(tmp_path, monkeypatch, capsys):
    manifest = tmp_path / "tests" / "data" / "tiny_digests.json"
    manifest.parent.mkdir(parents=True)
    committed = json.dumps({"build": {}, "digests": {"none/a": "1", "none/b": "2"}})
    manifest.write_text(committed)
    monkeypatch.setattr(digests, "ROOT", tmp_path)
    monkeypatch.setattr(digests, "MANIFEST", manifest)
    monkeypatch.setattr(digests, "make_manifest", lambda: committed)
    assert digests.main(["--check"]) == 0
    assert capsys.readouterr().err.splitlines()[1:] == ["added: 0", "removed: 0", "changed: 0"]
    rebuilt = json.dumps({"build": {}, "digests": {"none/a": "1", "none/b": "9", "none/c": "3"}})
    monkeypatch.setattr(digests, "make_manifest", lambda: rebuilt)
    assert digests.main(["--check"]) == 1
    assert capsys.readouterr().err.splitlines()[1:] == ["added: 1", "  none/c", "removed: 0", "changed: 1", "  none/b"]
    assert manifest.read_text() == committed
    assert digests.main([]) == 0
    assert manifest.read_text() == rebuilt
