"""Checkpoint container round trips and stage-graph enforcement."""

import re
import struct

import numpy as np
import pytest

from brainvis_forge.binio import ChecksumError, TruncatedError, UnsupportedFormatError, crc_bytes, write_whole
from brainvis_forge.pipeline.checkpoint import StageError, load_checkpoint, save_checkpoint
from brainvis_forge.pipeline.runner import check_prerequisites


def test_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "model/w": rng.standard_normal((3, 4)).astype(np.float32),
        "model/b": rng.standard_normal(4).astype(np.float32),
        "scalar": np.asarray([3.0], dtype=np.float32),
    }
    path = tmp_path / "c.bvc"
    save_checkpoint(path, tensors, "lmm")
    loaded = load_checkpoint(path, "lmm")
    assert set(loaded) == set(tensors)
    for k in tensors:
        assert loaded[k].tobytes() == tensors[k].tobytes()


def test_empty_archive_roundtrip(tmp_path):
    path = tmp_path / "empty.bvc"
    save_checkpoint(path, {}, "data")
    assert load_checkpoint(path, "data") == {}


def test_save_is_byte_stable(tmp_path):
    tensors = {"b": np.zeros(2, dtype=np.float32), "a": np.ones(3, dtype=np.float32)}
    p1, p2 = tmp_path / "1.bvc", tmp_path / "2.bvc"
    save_checkpoint(p1, dict(tensors), "lmm")
    save_checkpoint(p2, dict(reversed(tensors.items())), "lmm")
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupted_crc_rejected(tmp_path):
    path = tmp_path / "bad.bvc"
    save_checkpoint(path, {"w": np.ones(8, dtype=np.float32)}, "lmm")
    blob = bytearray(path.read_bytes())
    blob[-8] ^= 0x01  # a byte of w's data
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError, match=f"^{re.escape(str(path))}: checksum mismatch"):
        load_checkpoint(path, "lmm")


@pytest.mark.parametrize("cut, what", [(6, "32 bytes for tensor 'w', got 30"), (2, "4 bytes for checksum, got 2")])
def test_truncated_rejected(tmp_path, cut, what):
    path = tmp_path / "trunc.bvc"
    save_checkpoint(path, {"w": np.ones(8, dtype=np.float32)}, "lmm")
    blob = path.read_bytes()
    path.write_bytes(blob[:-cut])
    with pytest.raises(TruncatedError, match=f"^{re.escape(str(path))}: truncated file: expected {what}$"):
        load_checkpoint(path, "lmm")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "magic.bvc"
    path.write_bytes(b"WXYZ" + b"\x00" * 16)
    with pytest.raises(UnsupportedFormatError, match=f"^{re.escape(str(path))}: bad magic"):
        load_checkpoint(path, "lmm")


def test_wrong_version_rejected(tmp_path):
    path = tmp_path / "v1.bvc"
    save_checkpoint(path, {"w": np.ones(2, dtype=np.float32)}, "lmm")
    blob = bytearray(path.read_bytes())
    blob[4:8] = (1).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedFormatError, match="unsupported version 1, expected 3"):
        load_checkpoint(path, "lmm")


def test_unknown_dtype_code_rejected(tmp_path):
    path = tmp_path / "code.bvc"
    save_checkpoint(path, {"w": np.ones(2, dtype=np.float32)}, "lmm")
    blob = bytearray(path.read_bytes())
    assert blob[20] == 0  # after the 12-byte header, the tag "lmm" and the name "w", each after its u16 length
    blob[20] = 2
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedFormatError, match=f"^{re.escape(str(path))}: tensor 'w': unknown dtype code 2$"):
        load_checkpoint(path, "lmm")


def test_integer_tensors_keep_int64_and_the_rest_become_float32(tmp_path):
    ids = np.array([0, 2**40, -3], dtype=np.int64)
    tensors = {"ids": ids, "small": np.array([1, 2], dtype=np.uint8), "x": np.array([[0.1, 2.0]]),
               "flag": np.array([True, False])}
    path = tmp_path / "dtypes.bvc"
    save_checkpoint(path, tensors, "data")
    loaded = load_checkpoint(path, "data")
    assert {k: (v.dtype, v.shape) for k, v in loaded.items()} == {
        "ids": (np.int64, (3,)), "small": (np.int64, (2,)), "x": (np.float32, (1, 2)), "flag": (np.float32, (2,))}
    assert loaded["ids"].tolist() == ids.tolist()
    assert loaded["x"].tobytes() == tensors["x"].astype(np.float32).tobytes()


def test_zero_dim_tensors_keep_their_shape(tmp_path):
    tensors = {"scale": np.array(2.5), "step": np.array(7, dtype=np.int32)}
    path = tmp_path / "scalars.bvc"
    save_checkpoint(path, tensors, "freq")
    loaded = load_checkpoint(path, "freq")
    assert {k: (v.dtype, v.shape) for k, v in loaded.items()} == {"scale": (np.float32, ()), "step": (np.int64, ())}
    assert loaded["scale"].item() == 2.5 and loaded["step"].item() == 7


def test_name_length_is_capped_at_u16(tmp_path):
    longest = "n" * 0xFFFF
    save_checkpoint(tmp_path / "ok.bvc", {longest: np.ones(1)}, "lmm")
    assert list(load_checkpoint(tmp_path / "ok.bvc", "lmm")) == [longest]
    with pytest.raises(ValueError, match="name too long \\(65536 bytes\\)"):
        save_checkpoint(tmp_path / "long.bvc", {"n" * 0x10000: np.ones(1)}, "lmm")
    with pytest.raises(ValueError, match="stage tag too long \\(65536 bytes\\)"):
        save_checkpoint(tmp_path / "long.bvc", {}, "s" * 0x10000)


def test_a_version_2_archive_is_refused_naming_its_path_and_both_versions(tmp_path):
    path = tmp_path / "lmm" / "checkpoint.bvc"
    path.parent.mkdir()
    path.write_bytes(b"BVC1" + struct.pack("<2I", 2, 0) + crc_bytes(b""))  # an empty version-2 archive
    with pytest.raises(UnsupportedFormatError, match=f"^{re.escape(str(path))}: unsupported version 2, expected 3$"):
        load_checkpoint(path, "lmm")


def test_a_flipped_byte_of_the_stage_tag_fails_the_checksum(tmp_path):
    path = tmp_path / "tagged.bvc"
    save_checkpoint(path, {"w": np.ones(2, dtype=np.float32)}, "lmm")
    blob = bytearray(path.read_bytes())
    assert blob[12:17] == b"\x03\x00lmm"  # u16 tag length, then the tag, right after the 12-byte header
    blob[16] ^= 0x01  # "lmm" -> "lml"
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_checkpoint(path, "lmm")


def test_failed_write_leaves_no_tmp_and_keeps_old_file(tmp_path):
    def chunks():
        yield b"new bytes"
        raise OSError("disk went away")

    path = tmp_path / "f.json"
    with pytest.raises(OSError, match="disk went away"):
        write_whole(path, chunks())
    assert sorted(p.name for p in tmp_path.iterdir()) == []
    path.write_bytes(b"old bytes")
    with pytest.raises(OSError, match="disk went away"):
        write_whole(path, chunks())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]
    assert path.read_bytes() == b"old bytes"


def test_prefixed_state_roundtrip(tmp_path):
    from brainvis_forge.autodiff.nn import Linear

    net = Linear(3, 2, np.random.default_rng(0))
    path = tmp_path / "prefixed.bvc"
    save_checkpoint(path, net.state("model/"), "align")
    tensors = load_checkpoint(path, "align")
    assert sorted(tensors) == ["model/bias", "model/weight"]

    twin = Linear(3, 2, np.random.default_rng(1))
    twin.load_state(tensors, "model/")
    np.testing.assert_array_equal(twin.weight.data, net.weight.data)
    with pytest.raises(KeyError, match="teacher/weight"):
        twin.load_state(tensors, "teacher/")


def test_wrong_stage_tag_raises_stage_error(tmp_path):
    path = tmp_path / "joint.bvc"
    save_checkpoint(path, {}, "tfe")
    with pytest.raises(StageError, match=f"^{re.escape(str(path))}: written by stage 'tfe', expected 'lmm'$"):
        load_checkpoint(path, "lmm")


def test_prerequisite_graph_reports_missing_stage():
    with pytest.raises(StageError, match="'tfe' requires 'lmm'"):
        check_prerequisites("tfe", {"data", "freq"})
    check_prerequisites("tfe", {"data", "freq"}, ablate="no-time")  # ablation prune
    with pytest.raises(StageError, match="'tfe' requires 'lmm'"):
        check_prerequisites("tfe", {"data", "freq"}, ablate="no-refine")
    check_prerequisites("lmm", {"data"})
    with pytest.raises(StageError, match="requires 'data'"):
        check_prerequisites("lmm", set())
