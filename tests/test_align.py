"""Semantic fixtures, the alignment network, and the interpolation loss."""

import numpy as np
import pytest

from brainvis_forge.align import (
    AlignmentNet,
    MissingTargetError,
    SemanticFixtures,
    align,
    generate_fixtures,
    load_fixtures,
    si_loss,
    train_align,
)
from brainvis_forge.autodiff import Tensor, active_tape, backward
from brainvis_forge.binio import ChecksumError, UnsupportedFormatError
from brainvis_forge.pipeline.checkpoint import save_checkpoint
from oracles import si_loss_chain, write_fixtures_per_entry


def _save_fixtures(path, fixtures: SemanticFixtures) -> None:
    """The fixtures' columns as gen-data stores them in its archive."""
    save_checkpoint(path, {"image_labels": fixtures.labels, "c_label": fixtures.c_label, "c_cap": fixtures.c_cap},
                    "data")


def _entries(fixtures: SemanticFixtures) -> dict:
    """The table as the per-entry writer takes it: (class, image id) -> (label, caption)."""
    return {(int(k), i): (fixtures.c_label[i], fixtures.c_cap[i]) for i, k in enumerate(fixtures.labels)}


# --- fixtures container -------------------------------------------------------


def test_fixture_roundtrip_bit_identical(tmp_path):
    fixtures = generate_fixtures(3, 4, e=16, seed=1)
    path = tmp_path / "f.bvc"
    _save_fixtures(path, fixtures)
    loaded = load_fixtures(path)
    assert loaded.e == 16
    assert loaded.labels.tolist() == fixtures.labels.tolist() == [i // 4 for i in range(12)]
    for i in range(len(fixtures)):
        assert fixtures.c_label[i].tobytes() == loaded.c_label[i].tobytes()
        assert fixtures.c_cap[i].tobytes() == loaded.c_cap[i].tobytes()


def test_fixture_clip_shaped_header(tmp_path):
    fixtures = generate_fixtures(2, 2, e=768, seed=0)
    path = tmp_path / "clip.bvc"
    _save_fixtures(path, fixtures)
    assert load_fixtures(path).e == 768


@pytest.mark.parametrize(
    "n_classes, per_class, e",
    [
        (4, 8, 16),  # configs/tiny.json
        (2, 2, 768),  # CLIP-sized vectors
        (1, 1, 768),  # a single entry
        (3, 5, 7),
    ],
)
def test_saved_fixture_columns_equal_per_entry_oracle_bytes(tmp_path, n_classes, per_class, e):
    fixtures = generate_fixtures(n_classes, per_class, e=e, seed=5)
    _save_fixtures(tmp_path / "table.bvc", fixtures)
    write_fixtures_per_entry(tmp_path / "entries.bvc", _entries(fixtures), e)
    assert (tmp_path / "table.bvc").read_bytes() == (tmp_path / "entries.bvc").read_bytes()


def test_fixture_generator_deterministic_and_controlled_angle():
    a = generate_fixtures(4, 3, e=32, seed=9, caption_offset=0.25)
    b = generate_fixtures(4, 3, e=32, seed=9, caption_offset=0.25)
    for i in range(len(a)):
        assert a.c_cap[i].tobytes() == b.c_cap[i].tobytes()
    # caption stays within ~30 degrees of the class direction at offset 0.25
    for c_label, c_cap in zip(a.c_label, a.c_cap):
        cos = float(c_label @ c_cap)
        assert cos > 0.9


def test_fixture_bad_magic_and_crc(tmp_path):
    path = tmp_path / "x.bvc"
    _save_fixtures(path, generate_fixtures(2, 2, e=8, seed=0))
    blob = bytearray(path.read_bytes())
    blob[0] = ord(b"Z")
    (tmp_path / "bad_magic.bvc").write_bytes(bytes(blob))
    with pytest.raises(UnsupportedFormatError):
        load_fixtures(tmp_path / "bad_magic.bvc")
    blob = bytearray(path.read_bytes())
    blob[-20] ^= 0xFF  # a byte of image_labels, the last column
    (tmp_path / "bad_crc.bvc").write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_fixtures(tmp_path / "bad_crc.bvc")
    blob = bytearray(path.read_bytes())
    blob[4:8] = (1).to_bytes(4, "little")
    (tmp_path / "v1.bvc").write_bytes(bytes(blob))
    with pytest.raises(UnsupportedFormatError, match="unsupported version 1, expected 3"):
        load_fixtures(tmp_path / "v1.bvc")


def test_missing_target_distinct_error():
    fixtures = generate_fixtures(2, 2, e=8, seed=0)  # images 0, 1 of class 0; 2, 3 of class 1
    with pytest.raises(MissingTargetError, match="class 7, image 7"):
        fixtures.targets([7], [7])


def test_targets_gather_rows_and_name_the_first_bad_pair():
    fixtures = generate_fixtures(2, 2, e=8, seed=0)
    caps, labels = fixtures.targets([1, 0, 1], [3, 0, 2])
    assert caps.tobytes() == fixtures.c_cap[[3, 0, 2]].tobytes()
    assert labels.tobytes() == fixtures.c_label[[3, 0, 2]].tobytes()
    with pytest.raises(MissingTargetError, match="class 0, image 4"):
        fixtures.targets([0, 0, 1], [1, 4, 1])  # unknown id first
    with pytest.raises(MissingTargetError, match="class 1, image -1"):
        fixtures.targets([1, 1], [3, -1])  # a negative id is unknown, not the last row
    with pytest.raises(MissingTargetError, match="class 1, image 1"):
        fixtures.targets([0, 1, 0], [0, 1, 9])  # class mismatch comes first


def test_zero_norm_vector_rejected_at_load(tmp_path):
    from brainvis_forge.align import ZeroNormTargetError

    fixtures = SemanticFixtures([0], np.zeros((1, 8), dtype=np.float32), np.ones((1, 8), dtype=np.float32))
    path = tmp_path / "zero.bvc"
    _save_fixtures(path, fixtures)
    with pytest.raises(ZeroNormTargetError):
        load_fixtures(path)

    fixtures = generate_fixtures(2, 3, e=8, seed=4)
    fixtures.c_cap[4] = 0.0
    path = tmp_path / "zero_row.bvc"
    _save_fixtures(path, fixtures)
    with pytest.raises(ZeroNormTargetError, match=r"entry \(1, 4\)"):
        load_fixtures(path)


def test_semantic_fixtures_shapes_validated():
    with pytest.raises(ValueError, match="SemanticFixtures"):
        SemanticFixtures([0, 1], np.ones((2, 4)), np.ones((2, 5)))
    with pytest.raises(ValueError, match="SemanticFixtures"):
        SemanticFixtures([0], np.ones((2, 4)), np.ones((2, 4)))


# --- alignment net -------------------------------------------------------------


def test_align_output_length():
    net = AlignmentNet(24, 768, np.random.default_rng(0))
    out = align(net, np.random.default_rng(1).standard_normal((1, 24)))
    assert out.shape == (1, 768)


def test_zeroed_residual_blocks_pass_input_projection_through():
    net = AlignmentNet(6, 5, np.random.default_rng(2), n_blocks=2)
    for block in net.blocks:
        block.fc2.weight.data = np.zeros_like(block.fc2.weight.data)
        block.fc2.bias.data = np.zeros_like(block.fc2.bias.data)
    x = np.random.default_rng(3).standard_normal((1, 6)).astype(np.float32)
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


@pytest.mark.parametrize("label_weight", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("shape", [(16,), (3, 64), (32, 16), (2, 3, 5)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_si_loss_is_bit_equal_to_its_chain(dtype, shape, label_weight):
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    for draw in range(10):
        out, cap, label = (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4) for _ in range(3))
        results = []
        for loss_fn in (si_loss, si_loss_chain):
            x = Tensor(out.astype(dtype), requires_grad=True)
            loss = loss_fn(x, Tensor(cap.astype(dtype)), Tensor(label.astype(dtype)), label_weight)
            backward(loss)
            results.append((np.asarray(loss.data), x.grad))
        (fused, fused_grad), (chain, chain_grad) = results
        assert fused.dtype == fused_grad.dtype == dtype and fused_grad.shape == shape
        assert fused.tobytes() == chain.tobytes(), draw
        assert fused_grad.tobytes() == chain_grad.tobytes(), draw


def test_alignment_step_tapes_its_net_and_one_loss_entry():
    rng = np.random.default_rng(6)
    net = AlignmentNet(6, 5, rng)
    tape = active_tape()
    loss = si_loss(net(Tensor(rng.standard_normal((4, 6)).astype(np.float32))),
                   Tensor(rng.standard_normal((4, 5)).astype(np.float32)),
                   Tensor(rng.standard_normal((4, 5)).astype(np.float32)))
    # the input projection, two residual blocks of one feed-forward entry and the skip add, and the loss
    assert [e.op for e in tape.entries] == ["linear"] + ["feed_forward", "add"] * 2 + ["si_loss"]
    assert len(tape) == 6
    backward(loss)
    assert len(tape) == 0 and net.input_proj.weight.grad is not None


def test_train_align_orthogonal_classes_converges():
    rng = np.random.default_rng(11)
    n, e = 48, 12
    labels = np.repeat(np.arange(4), 12)
    image_ids = np.arange(n)
    # orthogonal class directions; embeddings linearly separable by class
    dirs = np.eye(e)[:4]
    caps = np.empty((n, e), dtype=np.float32)
    for i in range(n):
        cap = dirs[labels[i]] + 0.1 * rng.standard_normal(e)
        caps[i] = cap / np.linalg.norm(cap)
    fixtures = SemanticFixtures(labels, dirs[labels], caps)
    embeddings = np.concatenate([np.eye(4)[labels], 0.05 * rng.standard_normal((n, 4))], axis=1)

    def net():
        return AlignmentNet(embeddings.shape[1], e, np.random.default_rng(2))

    history = train_align(net(), embeddings, labels, image_ids, fixtures, epochs=120,
                          batch_size=16, lr=3e-3, seed=2)
    assert history[-1]["si_loss"] < 0.3
    again = train_align(net(), embeddings, labels, image_ids, fixtures, epochs=5,
                        batch_size=16, lr=3e-3, seed=2)
    again2 = train_align(net(), embeddings, labels, image_ids, fixtures, epochs=5,
                         batch_size=16, lr=3e-3, seed=2)
    assert [h["si_loss"] for h in again] == [h["si_loss"] for h in again2]


def test_train_align_checks_fixture_dim_and_pairs():
    fixtures = generate_fixtures(2, 2, e=8, seed=0)
    embeddings = np.random.default_rng(0).standard_normal((4, 3))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="fixtures have dim 8, expected 9"):
        train_align(AlignmentNet(3, 9, rng), embeddings, [0, 0, 1, 1], [0, 1, 2, 3], fixtures, epochs=1)
    with pytest.raises(MissingTargetError, match="class 0, image 2"):
        train_align(AlignmentNet(3, 8, rng), embeddings, [0, 0, 0, 1], [0, 1, 2, 3], fixtures, epochs=1)
