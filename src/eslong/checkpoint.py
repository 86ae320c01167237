"""Binary container for named tensors (magic "ESLG").

Little-endian layout:
  header: magic "ESLG", u32 format version, u32 entry count
  entry:  u16 name length, UTF-8 name, u8 dtype code, u8 rank, u32 dims...,
          payload.
Dtype codes: 0 = real32 raw, 1 = int4 blocks (u32 block_size, u32 block count,
float32 scales, packed codes zero-padded to a byte boundary), 2 = UTF-8 JSON
bytes (rank 1, dims = [byte length]) used for the single config entry.
Readers reject unknown magic or version, and NaN or infinite real32 values
or int4 scales.
"""

from __future__ import annotations

import json
import os
import struct
from typing import Any, BinaryIO

import numpy as np

from .errors import FormatError, InputError
from .quant import QuantizedTensor

MAGIC = b"ESLG"
VERSION = 1

DTYPE_REAL32 = 0
DTYPE_INT4 = 1
DTYPE_JSON = 2

CONFIG_ENTRY = "__config__"


def _write_entry_header(fh: BinaryIO, name: str, dtype: int, dims: tuple[int, ...]) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<BB", dtype, len(dims)))
    for d in dims:
        fh.write(struct.pack("<I", d))


def write_checkpoint(path, tensors: dict[str, Any], config: dict) -> None:
    """Write the config entry followed by tensors in the given dict order.

    A NaN or infinite real32 value or int4 scale, which readers reject, is
    refused before the file is opened, so no unloadable file is left behind."""
    tensors = {name: (value if isinstance(value, QuantizedTensor)
                      else np.ascontiguousarray(value, dtype=np.float32))
               for name, value in tensors.items()}
    for name, value in tensors.items():
        values = value.scales if isinstance(value, QuantizedTensor) else value
        if not np.isfinite(values).all():
            raise InputError(f"tensor {name!r} holds NaN or infinite values; not writing {path}")
    config_bytes = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(tensors) + 1))
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


def read_exact(fh: BinaryIO, n: int, what: str = "checkpoint") -> bytes:
    """n bytes from fh; a length beyond the end of the file is rejected before
    anything is read, so a corrupt size field cannot ask for a huge buffer."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    data = fh.read(n) if n <= left else b""
    if len(data) != n:
        raise FormatError(f"{what} truncated")
    return data


def _finite(values: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise FormatError(f"checkpoint tensor {name!r} holds NaN or infinite values")
    return values


def read_checkpoint(path) -> tuple[dict[str, Any], dict]:
    """Read a container; returns (tensors, config dict)."""
    tensors: dict[str, Any] = {}
    config: dict | None = None
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}; not an ESLG checkpoint")
        version, count = struct.unpack("<II", read_exact(fh, 8))
        if version != VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read_exact(fh, 2))
            try:
                name = read_exact(fh, name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError("checkpoint entry name is not UTF-8") from exc
            dtype, rank = struct.unpack("<BB", read_exact(fh, 2))
            dims = tuple(struct.unpack("<I", read_exact(fh, 4))[0] for _ in range(rank))
            numel = 1
            for d in dims:
                numel *= d
            if dtype == DTYPE_REAL32:
                values = np.frombuffer(read_exact(fh, 4 * numel), dtype="<f4")
                try:
                    values = values.reshape(dims)
                except ValueError as exc:  # a zero dim beside dims too large for numpy
                    raise FormatError(f"checkpoint tensor {name!r} has dims {dims}") from exc
                tensors[name] = _finite(values.copy(), name)
            elif dtype == DTYPE_INT4:
                block_size, nblocks = struct.unpack("<II", read_exact(fh, 8))
                scales = _finite(np.frombuffer(read_exact(fh, 4 * nblocks), dtype="<f4").copy(),
                                 name)
                packed = np.frombuffer(read_exact(fh, (numel + 1) // 2), dtype=np.uint8).copy()
                tensors[name] = QuantizedTensor(
                    dims=dims, block_size=block_size, packed=packed, scales=scales
                )
            elif dtype == DTYPE_JSON:
                payload = read_exact(fh, numel)
                try:
                    decoded = json.loads(payload.decode("utf-8"))
                except ValueError as exc:
                    raise FormatError(f"corrupt JSON entry {name!r}") from exc
                if name == CONFIG_ENTRY:
                    config = decoded
                else:
                    tensors[name] = decoded
            else:
                raise FormatError(f"unknown dtype code {dtype} for entry {name!r}")
        if fh.read(1):
            raise FormatError("checkpoint has bytes after its last entry")
    if config is None:
        raise FormatError("checkpoint has no config entry")
    return tensors, config
