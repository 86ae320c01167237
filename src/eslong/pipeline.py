"""FASTA ingestion, sliding-window segmentation, and embedding extraction.

Long sequences are cut into non-overlapping left-to-right slices that fit the
model's residue limit; each slice is encoded separately, mean-pooled over its
residue positions (CLS/EOS excluded), and the per-slice vectors are averaged
elementwise into one fixed-length vector per protein. Slice vectors accumulate
in float64 in a fixed left-to-right order. embed_corpus embeds records side by
side on parallel.layer_pool and returns them in input order, and no forward's
bits depend on the worker count, so reruns give byte-identical stores for any
worker count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .checkpoint import open_binary, replaced_on_success, write_header
from .encoder import EncoderModel, forward, tokenize
from .errors import ConfigError, EslongError, IngestionError, InputError, text_lines
from .parallel import layer_pool

STORE_MAGIC = b"ESEM"
STORE_VERSION = 1

_U16_MAX = 0xFFFF  # ids and slice counts are stored as u16

POOL_MEAN = "mean"
POOL_CLS = "cls"


@dataclass(frozen=True)
class ProteinRecord:
    id: str
    sequence: str


@dataclass(frozen=True)
class EmbeddingRecord:
    protein_id: str
    vector: np.ndarray  # float32, length = embed_dim
    slice_count: int


def parse_fasta(source) -> list[ProteinRecord]:
    """Parse FASTA text (path, text IO, or string) into validated records.

    Headers keep their first whitespace-separated token as the id; wrapped
    sequence lines are joined and uppercased. Duplicate ids, empty sequences,
    and characters outside A-Z are ingestion errors.
    """
    records: list[ProteinRecord] = []
    seen: set[str] = set()
    current_id: str | None = None
    chunks: list[str] = []

    def flush():
        if current_id is None:
            return
        seq = "".join(chunks)
        if not seq:
            raise IngestionError(f"record {current_id!r} has an empty sequence")
        bad = set(seq) - set("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
        if bad:
            raise IngestionError(f"record {current_id!r} has invalid characters {sorted(bad)}")
        records.append(ProteinRecord(id=current_id, sequence=seq))

    with text_lines(source, "FASTA text") as lines:
        for _, line in lines:
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                flush()
                header = line[1:].strip()
                if not header:
                    raise IngestionError("FASTA header with no id")
                current_id = header.split()[0]
                if current_id in seen:
                    raise IngestionError(f"duplicate FASTA id {current_id!r}")
                seen.add(current_id)
                chunks = []
            else:
                if current_id is None:
                    raise IngestionError("sequence data before the first FASTA header")
                chunks.append(line.upper())
    flush()
    return records


def write_fasta(path, records, width: int = 60) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(f">{rec.id}\n")
            for lo in range(0, len(rec.sequence), width):
                fh.write(rec.sequence[lo: lo + width] + "\n")


def segment(sequence: str, residue_limit: int) -> list[str]:
    """Greedy left-to-right slices of residue_limit residues; the last slice
    holds the remainder. Concatenating the slices restores the sequence."""
    if residue_limit < 1:
        raise ConfigError("residue_limit must be >= 1")
    return [sequence[lo: lo + residue_limit] for lo in range(0, len(sequence), residue_limit)]


def _check_embed_args(model: EncoderModel, residue_limit: int, pool: str) -> None:
    if residue_limit < 1:
        raise ConfigError("residue_limit must be >= 1")
    if model.config.max_positions < residue_limit + 2:
        raise ConfigError(
            f"model capacity {model.config.max_positions} cannot hold "
            f"residue_limit {residue_limit} plus CLS/EOS"
        )
    if pool not in (POOL_MEAN, POOL_CLS):
        raise ConfigError(f"unknown pooling mode {pool!r}")


def embed_protein(
    model: EncoderModel,
    record: ProteinRecord,
    residue_limit: int,
    pool: str = POOL_MEAN,
) -> EmbeddingRecord:
    """One fixed-length vector per protein: encode each slice, pool residue
    rows (or take CLS with pool="cls"), then average slice vectors."""
    _check_embed_args(model, residue_limit, pool)
    if not record.sequence:
        raise IngestionError(f"record {record.id!r} has an empty sequence")
    slices = segment(record.sequence, residue_limit)
    total = np.zeros(model.config.embed_dim, dtype=np.float64)
    for piece in slices:
        hidden = forward(model, tokenize(piece, model.config))
        if pool == POOL_CLS:
            slice_vec = hidden[0]
        else:
            slice_vec = hidden[1:-1].mean(axis=0)
        total += slice_vec.astype(np.float64)
    vector = (total / len(slices)).astype(np.float32)
    return EmbeddingRecord(protein_id=record.id, vector=vector, slice_count=len(slices))


def embed_corpus(model: EncoderModel, records, residue_limit: int, pool: str = POOL_MEAN):
    """Embed every record; results and failures come back in input order.

    The records are the parts of one layer_pool().run, longest first (a
    stable sort by sequence length), with OpenBLAS at one thread: each
    thread runs embed_protein on a record, and that record's forwards run
    their phases on the same pool. Up to `workers` forwards are in flight at
    once. A record's slices run in order on the thread that took it, and no
    forward's bits depend on the worker count, so neither do the results.

    Returns (embeddings, failures) where failures is a list of (protein id,
    error message) for records whose input was rejected with an EslongError;
    any other exception is a bug and propagates once every record has run. A
    bad residue_limit or pool is a ConfigError before any record runs.
    """
    _check_embed_args(model, residue_limit, pool)
    records = list(records)
    outcomes: list[EmbeddingRecord | str | None] = [None] * len(records)

    def embed_record(i: int) -> None:
        try:
            outcomes[i] = embed_protein(model, records[i], residue_limit, pool=pool)
        except EslongError as exc:  # per-record isolation; summarized by caller
            outcomes[i] = str(exc)

    longest_first = sorted(range(len(records)), key=lambda i: len(records[i].sequence),
                           reverse=True)
    layer_pool().run(embed_record, longest_first)
    results = [out for out in outcomes if isinstance(out, EmbeddingRecord)]
    failures = [(rec.id, out) for rec, out in zip(records, outcomes) if isinstance(out, str)]
    return results, failures


def write_store(path, embeddings, embed_dim: int | None = None) -> None:
    """Binary embedding store: magic, version, record count, embed_dim, then
    (id, slice_count, float32 vector) per record. Every record is checked
    before the file is opened, so a rejected store leaves no partial file; a
    repeated id, or a NaN or infinite vector, which only a broken model
    produces, is rejected. The file is written whole before it takes path's
    name."""
    embeddings = list(embeddings)
    if embed_dim is None:
        if not embeddings:
            raise ConfigError("embed_dim is required for an empty store")
        embed_dim = int(embeddings[0].vector.shape[0])
    rows = []
    seen: set[str] = set()
    for rec in embeddings:
        if rec.protein_id in seen:
            raise InputError(f"duplicate store id {rec.protein_id!r}")
        seen.add(rec.protein_id)
        if rec.vector.shape != (embed_dim,):
            raise ConfigError(
                f"record {rec.protein_id!r} vector length {rec.vector.shape} != {embed_dim}"
            )
        if not np.isfinite(rec.vector).all():
            raise InputError(f"record {rec.protein_id!r} has a NaN or infinite vector")
        raw = rec.protein_id.encode("utf-8")
        if len(raw) > _U16_MAX:
            raise ConfigError(
                f"protein id {rec.protein_id[:32]!r}... is {len(raw)} UTF-8 bytes; "
                f"the store holds ids of at most {_U16_MAX}"
            )
        if not 0 <= rec.slice_count <= _U16_MAX:
            raise ConfigError(
                f"record {rec.protein_id!r} has {rec.slice_count} slices; "
                f"the store holds at most {_U16_MAX}"
            )
        rows.append((raw, rec))
    with replaced_on_success(path) as fh:
        write_header(fh, STORE_MAGIC, STORE_VERSION)
        fh.write(struct.pack("<II", len(embeddings), embed_dim))
        for raw, rec in rows:
            fh.write(struct.pack("<H", len(raw)) + raw + struct.pack("<H", rec.slice_count))
            fh.write(rec.vector.astype("<f4", copy=False).tobytes())


def read_store(path) -> tuple[list[EmbeddingRecord], int]:
    with open_binary(path, STORE_MAGIC, STORE_VERSION, "embedding store") as reader:
        count, dim = reader.unpack("<II")
        records = []
        for _ in range(count):
            (id_len,) = reader.unpack("<H")
            pid = reader.text(id_len, "protein id", unique=True)
            (slice_count,) = reader.unpack("<H")
            vec = reader.array("<f4", dim, finite=f"vector of {pid!r}")
            records.append(EmbeddingRecord(protein_id=pid, vector=vec, slice_count=slice_count))
        reader.end(f"{count} records")
    return records, dim


def write_store_tsv(path, embeddings) -> None:
    """Text export: id, slice_count, then the vector at 9 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in embeddings:
            values = "\t".join(f"{x:.9g}" for x in rec.vector)
            fh.write(f"{rec.protein_id}\t{rec.slice_count}\t{values}\n")
