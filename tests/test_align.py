"""Semantic fixtures, the alignment network, and the interpolation loss."""

import numpy as np
import pytest

from brainvis_forge.align import (
    AlignmentNet,
    MissingTargetError,
    SemanticTargets,
    align,
    generate_fixtures,
    load_fixtures,
    lookup,
    si_loss,
    train_align,
    write_fixtures,
)
from brainvis_forge.autodiff import Tensor
from brainvis_forge.binio import ChecksumError, UnsupportedFormatError


# --- fixtures container -------------------------------------------------------


def test_fixture_roundtrip_bit_identical(tmp_path):
    fixtures = generate_fixtures(3, 4, e=16, seed=1)
    path = tmp_path / "f.bve"
    write_fixtures(path, fixtures, e=16)
    loaded, e = load_fixtures(path)
    assert e == 16
    assert set(loaded) == set(fixtures)
    for key in fixtures:
        assert fixtures[key].c_label.tobytes() == loaded[key].c_label.tobytes()
        assert fixtures[key].c_cap.tobytes() == loaded[key].c_cap.tobytes()


def test_fixture_clip_shaped_header(tmp_path):
    fixtures = generate_fixtures(2, 2, e=768, seed=0)
    path = tmp_path / "clip.bve"
    write_fixtures(path, fixtures, e=768)
    _, e = load_fixtures(path)
    assert e == 768


def test_fixture_generator_deterministic_and_controlled_angle():
    a = generate_fixtures(4, 3, e=32, seed=9, caption_offset=0.25)
    b = generate_fixtures(4, 3, e=32, seed=9, caption_offset=0.25)
    for key in a:
        assert a[key].c_cap.tobytes() == b[key].c_cap.tobytes()
    # caption stays within ~30 degrees of the class direction at offset 0.25
    for (k, _), tgt in a.items():
        cos = float(tgt.c_label @ tgt.c_cap)
        assert cos > 0.9


def test_fixture_bad_magic_and_crc(tmp_path):
    path = tmp_path / "x.bve"
    write_fixtures(path, generate_fixtures(2, 2, e=8, seed=0), e=8)
    blob = bytearray(path.read_bytes())
    blob[0] = ord(b"Z")
    (tmp_path / "bad_magic.bve").write_bytes(bytes(blob))
    with pytest.raises(UnsupportedFormatError):
        load_fixtures(tmp_path / "bad_magic.bve")
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0xFF
    (tmp_path / "bad_crc.bve").write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_fixtures(tmp_path / "bad_crc.bve")


def test_missing_target_distinct_error():
    fixtures = generate_fixtures(2, 2, e=8, seed=0)
    with pytest.raises(MissingTargetError):
        lookup(fixtures, 7, 7)


def test_zero_norm_vector_rejected_at_load(tmp_path):
    from brainvis_forge.align import ZeroNormTargetError

    fixtures = {(0, 0): SemanticTargets(np.zeros(8, dtype=np.float32), np.ones(8, dtype=np.float32))}
    path = tmp_path / "zero.bve"
    write_fixtures(path, fixtures, e=8)
    with pytest.raises(ZeroNormTargetError):
        load_fixtures(path)


# --- alignment net -------------------------------------------------------------


def test_align_output_length():
    net = AlignmentNet(24, 768, np.random.default_rng(0))
    out = align(net, np.random.default_rng(1).standard_normal(24))
    assert out.shape == (768,)


def test_zeroed_residual_blocks_pass_input_projection_through():
    net = AlignmentNet(6, 5, np.random.default_rng(2), n_blocks=2)
    for block in net.blocks:
        block.fc2.weight.data = np.zeros_like(block.fc2.weight.data)
        block.fc2.bias.data = np.zeros_like(block.fc2.bias.data)
    x = np.random.default_rng(3).standard_normal(6).astype(np.float32)
    expected = x @ net.input_proj.weight.data + net.input_proj.bias.data
    np.testing.assert_allclose(align(net, x), expected, atol=1e-6)


# --- interpolation loss ----------------------------------------------------------


def test_si_loss_zero_when_colinear():
    v = Tensor(np.array([0.3, -0.7, 0.2]))
    assert si_loss(v, v, v).item() == pytest.approx(0.0, abs=1e-12)


def test_si_loss_two_when_orthogonal():
    out = Tensor(np.array([1.0, 0.0, 0.0]))
    cap = Tensor(np.array([0.0, 1.0, 0.0]))
    lab = Tensor(np.array([0.0, 0.0, 1.0]))
    assert si_loss(out, cap, lab).item() == pytest.approx(2.0, abs=1e-12)


def test_si_loss_bisector_two_minus_sqrt2():
    cap = Tensor(np.array([1.0, 0.0]))
    lab = Tensor(np.array([0.0, 1.0]))
    bisector = Tensor(np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert si_loss(bisector, cap, lab).item() == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-9)


def test_si_loss_bounded_and_scale_invariant():
    rng = np.random.default_rng(4)
    for _ in range(50):
        out = Tensor(rng.standard_normal(6))
        cap = Tensor(rng.standard_normal(6))
        lab = Tensor(rng.standard_normal(6))
        v = si_loss(out, cap, lab).item()
        assert 0.0 <= v <= 4.0
        scaled = si_loss(Tensor(out.data * 7.3), Tensor(cap.data * 0.2), Tensor(lab.data * 11.0)).item()
        assert scaled == pytest.approx(v, abs=1e-6)


def test_si_loss_zero_norm_raises():
    with pytest.raises(ValueError, match="zero-norm"):
        si_loss(Tensor(np.zeros(3)), Tensor(np.ones(3)), Tensor(np.ones(3)))


def test_si_loss_minimizer_is_normalized_target_sum():
    # Brute-force direction search over a 3-d sphere grid against the
    # analytic minimizer normalize(cap_hat + label_hat).
    rng = np.random.default_rng(8)
    cap = rng.standard_normal(3)
    lab = rng.standard_normal(3)
    cap_hat, lab_hat = cap / np.linalg.norm(cap), lab / np.linalg.norm(lab)
    expected = cap_hat + lab_hat
    expected /= np.linalg.norm(expected)

    best_v, best_dir = np.inf, None
    thetas = np.linspace(0, np.pi, 120)
    phis = np.linspace(0, 2 * np.pi, 240, endpoint=False)
    for th in thetas:
        for ph in phis:
            d = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
            v = 2.0 - d @ cap_hat - d @ lab_hat
            if v < best_v:
                best_v, best_dir = v, d
    assert best_dir @ expected > 0.999


def test_train_align_orthogonal_classes_converges():
    rng = np.random.default_rng(11)
    n, e = 48, 12
    labels = np.repeat(np.arange(4), 12)
    image_ids = np.arange(n)
    # orthogonal class directions; embeddings linearly separable by class
    fixtures = {}
    dirs = np.eye(e)[:4]
    for i in range(n):
        k = labels[i]
        cap = dirs[k] + 0.1 * rng.standard_normal(e)
        fixtures[(k, i)] = SemanticTargets(dirs[k].astype(np.float32), (cap / np.linalg.norm(cap)).astype(np.float32))
    embeddings = np.concatenate([np.eye(4)[labels], 0.05 * rng.standard_normal((n, 4))], axis=1)

    result = train_align(embeddings, labels, image_ids, fixtures, e=e, epochs=120,
                         batch_size=16, lr=3e-3, seed=2)
    assert result.history[-1]["si_loss"] < 0.3
    again = train_align(embeddings, labels, image_ids, fixtures, e=e, epochs=5,
                        batch_size=16, lr=3e-3, seed=2)
    again2 = train_align(embeddings, labels, image_ids, fixtures, e=e, epochs=5,
                         batch_size=16, lr=3e-3, seed=2)
    assert [h["si_loss"] for h in again.history] == [h["si_loss"] for h in again2.history]
