"""Container format: layout, round-trips, and rejection of bad inputs."""

import os
import stat
import struct
import threading

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

    def test_failed_write_keeps_the_old_file(self, tmp_path, disk_fills_after):
        path = tmp_path / "ckpt.eslg"
        write_checkpoint(path, sample_tensors(), {"x": 1})
        old = path.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.eslg"]
        disk_fills_after(len(old) // 2)
        with pytest.raises(OSError, match="No space"):
            write_checkpoint(path, sample_tensors(), {"x": 2})
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.eslg"]

    def test_write_through_a_symlink_keeps_the_link(self, tmp_path):
        target, link = tmp_path / "target.eslg", tmp_path / "link.eslg"
        target.write_bytes(b"old")
        link.symlink_to(target)
        write_checkpoint(link, sample_tensors(), {"x": 1})
        write_checkpoint(tmp_path / "plain.eslg", sample_tensors(), {"x": 1})
        assert link.is_symlink()
        assert target.read_bytes() == (tmp_path / "plain.eslg").read_bytes()

    def test_write_to_a_fifo_keeps_the_fifo(self, tmp_path):
        # A non-regular file (a FIFO here, /dev/null in use) takes the bytes
        # directly: renaming a whole file over it would replace it.
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        write_checkpoint(fifo, sample_tensors(), {"x": 1})
        reader.join(timeout=10)
        write_checkpoint(tmp_path / "plain.eslg", sample_tensors(), {"x": 1})
        assert received == [(tmp_path / "plain.eslg").read_bytes()]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


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

    @pytest.mark.parametrize("name, entry", [
        ("w", struct.pack("<BBI", 0, 1, 2) + np.float32([3, 4]).tobytes()),
        ("__config__", struct.pack("<BBI", 2, 1, 2) + b"{}"),
    ], ids=["w", "__config__"])
    def test_repeated_entry_name(self, tmp_path, name, entry):
        # a second entry of a name once replaced the first without a word
        path = tmp_path / "twice"
        write_checkpoint(path, {"w": np.ones(2, dtype=np.float32)}, {"x": 1})
        raw = name.encode("utf-8")
        data = bytearray(path.read_bytes() + struct.pack("<H", len(raw)) + raw + entry)
        data[8:12] = struct.pack("<I", 3)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"repeats the entry name '{name}'"):
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
