"""The ESLG named-tensor container, and the header and reader of every format.

Little-endian layout:
  header: magic "ESLG", u32 format version, u32 entry count
  entry:  u16 name length, UTF-8 name, u8 dtype code, u8 rank, u32 dims...,
          payload.
Dtype codes: 0 = real32 raw, 1 = int4 blocks (u32 block_size, u32 block count,
float32 scales, packed codes zero-padded to a byte boundary), 2 = UTF-8 JSON
bytes (rank 1, dims = [byte length]) used for the single config entry.
Readers reject unknown magic or version, a repeated entry name, and NaN or
infinite real32 values or int4 scales.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from typing import Any, BinaryIO

import numpy as np

from .errors import ConfigError, FormatError, InputError
from .quant import QuantizedTensor

MAGIC = b"ESLG"
VERSION = 1

DTYPE_REAL32 = 0
DTYPE_INT4 = 1
DTYPE_JSON = 2

CONFIG_ENTRY = "__config__"


def write_header(fh: BinaryIO, magic: bytes, version: int) -> None:
    """The 8 bytes every eslong binary file starts with: magic, u32 version."""
    fh.write(magic + struct.pack("<I", version))


def _write_entry_header(fh: BinaryIO, name: str, dtype: int, dims: tuple[int, ...]) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack(f"<H{len(raw)}sBB{len(dims)}I", len(raw), raw, dtype, len(dims), *dims))


@contextmanager
def replaced_on_success(path):
    """A binary file handle on path + ".tmp", which replaces path once the
    block ends; if the block raises, the .tmp file is removed and path keeps
    its old bytes, so no truncated file is left under the final name.

    A symlink's target is the file replaced, and a path that exists but is
    no regular file (a device such as /dev/null, a FIFO) is written directly,
    since renaming over it would replace the device itself."""
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            yield fh
        return
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_checkpoint(path, tensors: dict[str, Any], config: dict) -> None:
    """Write the config entry followed by tensors in the given dict order.

    A NaN or infinite real32 value or int4 scale, which readers reject, is
    refused before the file is opened, so no unloadable file is left behind;
    the file is written whole before it takes path's name."""
    tensors = {name: (value if isinstance(value, QuantizedTensor)
                      else np.ascontiguousarray(value, dtype=np.float32))
               for name, value in tensors.items()}
    for name, value in tensors.items():
        values = value.scales if isinstance(value, QuantizedTensor) else value
        if not np.isfinite(values).all():
            raise InputError(f"tensor {name!r} holds NaN or infinite values; not writing {path}")
    config_bytes = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with replaced_on_success(path) as fh:
        write_header(fh, MAGIC, VERSION)
        fh.write(struct.pack("<I", len(tensors) + 1))
        _write_entry_header(fh, CONFIG_ENTRY, DTYPE_JSON, (len(config_bytes),))
        fh.write(config_bytes)
        for name, value in tensors.items():
            if isinstance(value, QuantizedTensor):
                _write_entry_header(fh, name, DTYPE_INT4, value.dims)
                fh.write(struct.pack("<II", value.block_size, value.num_blocks))
                fh.write(value.scales.astype("<f4").tobytes())
                fh.write(value.packed.tobytes())
            else:
                _write_entry_header(fh, name, DTYPE_REAL32, value.shape)
                fh.write(value.astype("<f4", copy=False).tobytes())


@contextmanager
def open_binary(path, magic: bytes, version: int, what: str):
    """A BinaryReader on path, past its checked magic and u32 version."""
    with open(path, "rb") as fh:
        found = fh.read(len(magic))
        if found != magic:
            raise FormatError(f"bad magic {found!r}; not an {magic.decode()} {what}")
        reader = BinaryReader(fh, what)
        (found,) = reader.unpack("<I")
        if found != version:
            raise FormatError(f"unsupported {what} version {found}")
        yield reader


class BinaryReader:
    """Reads bounded by the file's size, taken once: a corrupt size field is
    rejected before it can ask for a huge buffer."""

    def __init__(self, fh: BinaryIO, what: str):
        self.fh, self.what, self._held, self.seen = fh, what, b"", set()
        self.left = os.fstat(fh.fileno()).st_size - fh.tell()

    def _read(self, n: int) -> bytes:
        data = self.fh.read(n) if n <= self.left else b""
        if len(data) != n:
            raise FormatError(f"{self.what} truncated")
        self.left -= n
        return data

    def unpack(self, fmt: str) -> tuple:
        """struct.unpack of the next struct.calcsize(fmt) bytes."""
        return struct.unpack(fmt, self._read(struct.calcsize(fmt)))

    def text(self, n: int, field: str, unique: bool = False) -> str:
        """The next n bytes as UTF-8; unique=True rejects a repeated name."""
        try:
            text = self._read(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.what} {field} is not UTF-8") from exc
        if unique:
            if text in self.seen:
                raise FormatError(f"{self.what} repeats the {field} {text!r}")
            self.seen.add(text)
        return text

    def array(self, dtype, shape, finite: str | None = None) -> np.ndarray:
        """A copy of the next values of dtype in shape, a count or dims;
        finite labels a NaN or infinite value's FormatError. The bytes live
        until the next array's are read, so each copy fills the hole the ones
        before left; freed at once, repeated reads trim and refault the heap."""
        dtype = np.dtype(dtype)
        count = shape if isinstance(shape, int) else math.prod(shape)
        self._held = self._read(dtype.itemsize * count)
        try:
            values = np.frombuffer(self._held, dtype).reshape(shape).copy()
        except ValueError as exc:  # a zero dim beside dims too large for numpy
            raise FormatError(f"{self.what} array dims {shape} are too large") from exc
        if finite is not None and not np.isfinite(values).all():
            raise FormatError(f"{self.what} {finite} holds NaN or infinite values")
        return values

    def end(self, last: str) -> None:
        """Reject bytes after the last item, named by last."""
        if self.left:
            raise FormatError(f"{self.what} has bytes after its {last}")


def read_checkpoint(path) -> tuple[dict[str, Any], dict]:
    """Read a container; returns (tensors, config dict)."""
    tensors: dict[str, Any] = {}
    with open_binary(path, MAGIC, VERSION, "checkpoint") as reader:
        (count,) = reader.unpack("<I")
        for _ in range(count):
            (name_len,) = reader.unpack("<H")
            name = reader.text(name_len, "entry name", unique=True)
            dtype, rank = reader.unpack("<BB")
            dims = reader.unpack(f"<{rank}I")
            numel = math.prod(dims)
            if dtype == DTYPE_REAL32:
                tensors[name] = reader.array("<f4", dims, finite=f"tensor {name!r}")
            elif dtype == DTYPE_INT4:
                block_size, nblocks = reader.unpack("<II")
                scales = reader.array("<f4", nblocks, finite=f"tensor {name!r}")
                packed = reader.array(np.uint8, (numel + 1) // 2)
                tensors[name] = QuantizedTensor(dims, block_size, packed, scales)
            elif dtype == DTYPE_JSON:
                try:
                    tensors[name] = json.loads(reader.text(numel, f"JSON entry {name!r}"))
                except ValueError as exc:
                    raise FormatError(f"corrupt JSON entry {name!r}") from exc
            else:
                raise FormatError(f"unknown dtype code {dtype} for entry {name!r}")
        reader.end("last entry")
    config = tensors.pop(CONFIG_ENTRY, None)
    if config is None:
        raise FormatError("checkpoint has no config entry")
    return tensors, config


def array_entry(tensors: dict, name: str, shape: tuple) -> np.ndarray:
    """tensors[name], once it is known to be an array of the given shape."""
    if name not in tensors:
        raise ConfigError(f"checkpoint is missing tensor {name!r}")
    found = getattr(tensors[name], "shape", None)
    if not isinstance(tensors[name], np.ndarray) or found != shape:
        raise FormatError(f"checkpoint tensor {name!r} has shape {found}, expected {shape}")
    return tensors[name]


def reject_unused(tensors: dict, used) -> None:
    """A FormatError naming every checkpoint entry outside used, so a file that
    holds more than its reader consumes is never taken for a smaller model."""
    unused = sorted(set(tensors) - set(used))
    if unused:
        raise FormatError(f"checkpoint has entries its reader does not use: {unused}")
