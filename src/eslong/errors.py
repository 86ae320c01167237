"""Exception hierarchy shared by every module, and the one reader of text inputs.

The CLI maps any EslongError to exit code 2 (invalid input or configuration);
unexpected exceptions are left to propagate as bugs.
"""

from __future__ import annotations

import io
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


@contextmanager
def text_lines(source, what: str):
    """Numbered lines (from 1, each with its newline) of a text input.

    source is a path (an os.PathLike, or a str holding no newline, tab or
    '>'), text (any other str), or an open text file. The file is closed on
    exit, and text that is not UTF-8 is an IngestionError naming what.
    """
    if isinstance(source, os.PathLike) or (
            isinstance(source, str) and not any(c in source for c in "\n\t>")):
        opened = open(source, "r", encoding="utf-8")
    else:
        opened = nullcontext(io.StringIO(source) if isinstance(source, str) else source)
    with opened as fh:
        try:
            yield enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise IngestionError(f"{what} is not UTF-8") from exc
