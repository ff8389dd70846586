"""Checkpoint container round trips and stage-graph enforcement."""

import numpy as np
import pytest

from brainvis_forge.binio import ChecksumError, TruncatedError, UnsupportedFormatError
from brainvis_forge.pipeline.checkpoint import (
    CheckpointArchive,
    StageError,
    load_checkpoint,
    require_stage,
    save_checkpoint,
)
from brainvis_forge.pipeline.runner import check_prerequisites


def test_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "model/w": rng.standard_normal((3, 4)).astype(np.float32),
        "model/b": rng.standard_normal(4).astype(np.float32),
        "scalar": np.asarray([3.0], dtype=np.float32),
    }
    path = tmp_path / "c.bvc"
    save_checkpoint(path, CheckpointArchive(tensors, "lmm", {"seed": 7}))
    loaded = load_checkpoint(path)
    assert loaded.stage == "lmm"
    assert loaded.config == {"seed": 7}
    assert set(loaded.tensors) == set(tensors)
    for k in tensors:
        assert loaded.tensors[k].tobytes() == tensors[k].tobytes()


def test_empty_archive_roundtrip(tmp_path):
    path = tmp_path / "empty.bvc"
    save_checkpoint(path, CheckpointArchive({}, "data", {}))
    loaded = load_checkpoint(path)
    assert loaded.tensors == {}


def test_save_is_byte_stable(tmp_path):
    tensors = {"b": np.zeros(2, dtype=np.float32), "a": np.ones(3, dtype=np.float32)}
    p1, p2 = tmp_path / "1.bvc", tmp_path / "2.bvc"
    save_checkpoint(p1, CheckpointArchive(dict(tensors), "lmm", {}))
    save_checkpoint(p2, CheckpointArchive(dict(reversed(tensors.items())), "lmm", {}))
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupted_crc_rejected(tmp_path):
    path = tmp_path / "bad.bvc"
    save_checkpoint(path, CheckpointArchive({"w": np.ones(8, dtype=np.float32)}, "lmm", {}))
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_truncated_rejected(tmp_path):
    path = tmp_path / "trunc.bvc"
    save_checkpoint(path, CheckpointArchive({"w": np.ones(8, dtype=np.float32)}, "lmm", {}))
    blob = path.read_bytes()
    path.write_bytes(blob[:-6])
    with pytest.raises(TruncatedError):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "magic.bvc"
    path.write_bytes(b"WXYZ" + b"\x00" * 16)
    with pytest.raises(UnsupportedFormatError):
        load_checkpoint(path)


def test_prefixed_state_roundtrip(tmp_path):
    from brainvis_forge.autodiff.nn import Linear

    net = Linear(3, 2, np.random.default_rng(0))
    path = tmp_path / "prefixed.bvc"
    save_checkpoint(path, CheckpointArchive(net.state("model/"), "align", {}))
    tensors = load_checkpoint(path).tensors
    assert sorted(tensors) == ["model/bias", "model/weight"]

    twin = Linear(3, 2, np.random.default_rng(1))
    twin.load_state(tensors, "model/")
    np.testing.assert_array_equal(twin.weight.data, net.weight.data)
    with pytest.raises(KeyError, match="teacher/weight"):
        twin.load_state(tensors, "teacher/")


def test_wrong_stage_tag_raises_stage_error(tmp_path):
    path = tmp_path / "joint.bvc"
    save_checkpoint(path, CheckpointArchive({}, "tfe", {}))
    with pytest.raises(StageError, match="'tfe'.*'lmm'"):
        require_stage(load_checkpoint(path), "lmm")


def test_prerequisite_graph_reports_missing_stage():
    with pytest.raises(StageError, match="'tfe' requires 'lmm'"):
        check_prerequisites("tfe", {"data", "freq"})
    check_prerequisites("tfe", {"data", "freq"}, ablate="no-time")  # ablation prune
    with pytest.raises(StageError, match="'tfe' requires 'lmm'"):
        check_prerequisites("tfe", {"data", "freq"}, ablate="no-refine")
    check_prerequisites("lmm", {"data"})
    with pytest.raises(StageError, match="requires 'data'"):
        check_prerequisites("lmm", set())
