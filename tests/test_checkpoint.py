"""Container format: layout, round-trips, and rejection of bad inputs."""

import struct

import numpy as np
import pytest

from conftest import write_non_finite
from eslong.checkpoint import MAGIC, VERSION, read_checkpoint, write_checkpoint
from eslong.errors import FormatError, InputError
from eslong.quant import quantize_int4


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "dense": rng.normal(size=(3, 5)).astype(np.float32),
        "vector": rng.normal(size=7).astype(np.float32),
        "packed": quantize_int4(rng.normal(size=(8, 9)).astype(np.float32), block_size=16),
    }


class TestRoundTrip:
    def test_tensors_and_config(self, tmp_path):
        path = tmp_path / "ckpt.eslg"
        tensors = sample_tensors()
        config = {"alpha": 1, "nested": {"b": [1, 2, 3]}}
        write_checkpoint(path, tensors, config)
        loaded, loaded_config = read_checkpoint(path)
        assert loaded_config == config
        np.testing.assert_array_equal(loaded["dense"], tensors["dense"])
        np.testing.assert_array_equal(loaded["vector"], tensors["vector"])
        q0, q1 = tensors["packed"], loaded["packed"]
        assert q0.dims == q1.dims and q0.block_size == q1.block_size
        np.testing.assert_array_equal(q0.packed, q1.packed)
        np.testing.assert_array_equal(q0.scales, q1.scales)

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        tensors = sample_tensors()
        write_checkpoint(a, tensors, {"x": 1})
        write_checkpoint(b, tensors, {"x": 1})
        assert a.read_bytes() == b.read_bytes()


class TestRejection:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_checkpoint(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(MAGIC + struct.pack("<II", VERSION + 1, 0))
        with pytest.raises(FormatError, match="version"):
            read_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "ok"
        write_checkpoint(path, sample_tensors(), {})
        data = path.read_bytes()
        bad = tmp_path / "trunc"
        bad.write_bytes(data[:-10])
        with pytest.raises(FormatError, match="truncated"):
            read_checkpoint(bad)

    def test_missing_config_entry(self, tmp_path):
        path = tmp_path / "noconf"
        path.write_bytes(MAGIC + struct.pack("<II", VERSION, 0))
        with pytest.raises(FormatError, match="config"):
            read_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values(self, tmp_path, value):
        mark = 1234.5
        for name in ("dense", "packed"):
            tensors = sample_tensors()
            cell = tensors["dense"][1:2, 2] if name == "dense" else tensors["packed"].scales[:1]
            cell[...] = value
            path = tmp_path / name
            with pytest.raises(InputError, match=f"{name}.*NaN or infinite"):
                write_checkpoint(path, tensors, {})
            assert not path.exists()
            cell[...] = mark
            write_non_finite(path, tensors, {}, {mark: value})
            with pytest.raises(FormatError, match=f"{name}.*NaN or infinite"):
                read_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long"
        write_checkpoint(path, sample_tensors(), {})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="after its last entry"):
            read_checkpoint(path)

    def test_zero_dim_beside_huge_dims(self, tmp_path):
        path = tmp_path / "dims"
        write_checkpoint(path, {}, {})
        entry = struct.pack("<H", 1) + b"t" + struct.pack("<BBIII", 0, 3, 0, 2**32 - 1, 2**32 - 1)
        raw = bytearray(path.read_bytes() + entry)
        raw[8:12] = struct.pack("<I", 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="dims"):
            read_checkpoint(path)
