"""Run manifests: the reproducibility envelope written next to every output.

A manifest records the command, the effective configuration, content digests
of every input file, the seed, the tool version, and wall time, so two runs
can be compared and any input drift detected.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from . import __version__


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def manifest_path(output_path) -> Path:
    return Path(str(output_path) + ".manifest.json")


def write_manifest(
    output_path,
    command: str,
    config: dict,
    inputs: dict[str, str],
    seed: int | None,
    wall_ms: int,
    extra: dict | None = None,
    digests: dict[str, str] | None = None,
) -> Path:
    """Write the manifest of output_path. Each input is recorded with the
    sha256 of its bytes: digests gives the hex digest of inputs the command
    already hashed as it read them, by name, and the rest are hashed here."""
    digests = digests or {}
    payload = {
        "command": command,
        "tool_version": __version__,
        "seed": seed,
        "config": config,
        "inputs": {
            name: {"path": str(path), "sha256": digests.get(name) or sha256_file(path)}
            for name, path in inputs.items()
        },
        "wall_ms": wall_ms,
    }
    if extra:
        payload["extra"] = extra
    path = manifest_path(output_path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
