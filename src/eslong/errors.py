"""Exception hierarchy shared by every module, the one reader of text inputs,
and the validators of JSON config values.

The CLI maps any EslongError to exit code 2 (invalid input or configuration);
unexpected exceptions are left to propagate as bugs.
"""

from __future__ import annotations

import dataclasses
import io
import math
import os
from contextlib import contextmanager, nullcontext


class EslongError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(EslongError):
    """Operand dimensions are incompatible."""


class ConfigError(EslongError):
    """A configuration value violates its invariants."""


class ContractError(EslongError):
    """An operation precondition was violated at call time."""


class InputError(EslongError):
    """Runtime input (token ids, weight values) is out of domain."""


class LengthError(EslongError):
    """A sequence exceeds the model's position capacity."""


class FormatError(EslongError):
    """A binary container is corrupt or has an unknown magic/version."""


class IngestionError(EslongError):
    """A data file (FASTA, annotations) failed validation."""


class OntologyError(EslongError):
    """An ontology graph is malformed (cycle, dangling parent, bad root)."""


class EvaluationError(EslongError):
    """Evaluation inputs are inconsistent (id mismatch, empty set)."""


class DataError(EslongError):
    """Embeddings and annotations disagree (ids or dimensions)."""


def is_path(source) -> bool:
    """Whether a text input names a file: an os.PathLike, or a str holding no
    newline, tab or '>' (any other str is the text itself)."""
    return isinstance(source, os.PathLike) or (
        isinstance(source, str) and not any(c in source for c in "\n\t>"))


@contextmanager
def text_lines(source, what: str):
    """Numbered lines (from 1, each with its newline) of a text input.

    source is a path (see is_path), text (any other str), or an open text
    file. Paths and text both read with universal newlines, so CRLF and CR
    end a line as LF does. The file is closed on exit, and text that is not
    UTF-8 is an IngestionError naming what.
    """
    if is_path(source):
        opened = open(source, "r", encoding="utf-8")
    else:
        opened = nullcontext(io.StringIO(source, newline=None) if isinstance(source, str)
                             else source)
    with opened as fh:
        try:
            yield enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise IngestionError(f"{what} is not UTF-8") from exc


def json_fields(data, what: str, required: tuple, optional: tuple = ()) -> dict:
    """data, once it is known to be a JSON object holding every required key and
    nothing beyond the required and optional ones; otherwise a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(data).__name__}")
    missing = set(required) - set(data)
    if missing:
        raise ConfigError(f"{what} is missing keys: {sorted(missing)}")
    unknown = set(data) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{what} has unknown keys: {sorted(unknown)}")
    return data


def positive_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{what} must be a positive integer, got {value!r}")
    return value


def finite_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return value


def typed_config(cls, data, what: str, complete: bool = False):
    """cls built from a JSON object whose keys are cls's fields (all of them
    when complete). An int field takes an int and a float field any number;
    neither takes a bool. cls's __post_init__ checks the ranges."""
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    values = json_fields(data, what, tuple(kinds) if complete else (), tuple(kinds))
    for key, value in values.items():
        kind = int if kinds[key] == "int" else (int, float)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{what} {key!r} must be {kinds[key]}, got {value!r}")
    return cls(**values)
