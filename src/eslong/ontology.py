"""GO-style ontology graphs, the annotation score table, and its closures.

A graph is a DAG of is-a edges with a single root; annotating a term implies
annotating every ancestor. Annotations of every kind (ground truth, head
predictions, closed scores) are one type, `Annotations`: a dense float64
[proteins, terms] table with NaN where a (protein, term) pair is absent. It
reads as a Mapping of protein -> {term -> score} over the present pairs, and
plain dicts of that shape enter through `as_annotations`.

Ground truth closes with score 1.0 on every ancestor of an annotated term.
Predictions close by max-propagating scores toward the root, children first,
so parents never score below their children: a parent is raised to a child's
score only where the child scores higher, an absent parent counting as 0.0,
so a child scored 0.0 adds no parent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import logging
import os
import struct
from array import array
from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import BinaryReader, open_binary, replaced_on_success, write_header
from .errors import (
    EslongError,
    FormatError,
    IngestionError,
    InputError,
    OntologyError,
    ShapeError,
    is_path,
    text_lines,
)

log = logging.getLogger(__name__)

NAMESPACES = ("BPO", "CCO", "MFO")

# The binary score table save_annotations writes beside a TSV, at the TSV's
# path plus TABLE_SUFFIX. Little-endian: the header (magic, u32 version, the
# sha256 of the TSV bytes, u64 protein, term and pair counts, u64 byte length
# of the ids), the UTF-8 ids (proteins then terms, each ended by a newline),
# then CSR arrays: i64 row pointers [proteins + 1], u32 term indices [pairs]
# and f64 scores [pairs].
TABLE_SUFFIX = ".esct"
TABLE_MAGIC = b"ESCT"
TABLE_VERSION = 1
_TABLE_FIELDS = "<32sQQQQ"  # the header after its magic and version

# save_annotations builds the lines of at most this many pairs at once.
_BLOCK_PAIRS = 1 << 14
# A line is built in a byte row: the protein and a tab, the term and a tab,
# the score's text field and a newline. Bytes that are not part of the line
# hold _HIDDEN, which UTF-8 never uses, and are dropped before writing.
_HIDDEN = 0xFF


def _text_rows(templates) -> np.ndarray:
    """Text fields as rows of bytes: '#' is hidden, '_' is 0 (a slot that
    another row's byte fills, as the rows are OR-ed together)."""
    rows = np.frombuffer("".join(templates).encode("ascii"), dtype=np.uint8)
    rows = np.where(rows == ord("#"), _HIDDEN, np.where(rows == ord("_"), 0, rows))
    return rows.astype(np.uint8).reshape(len(templates), -1)


# The text field of a score on the integer path (see _format_scores), by its
# decimal exponent x: the layout, indexed by -x in [0, 16]. Fixed notation
# writes "0." and -x - 1 zeros before the digits for x in [-4, -1], and no
# lead for x = 0; exponent notation writes "e-" and two digits after them.
# The first digit is column 5, then ".", then the other five digits.
_LAYOUTS = _text_rows(["#####_._____####", "0.###_#_____####", "0.0##_#_____####",
                       "0.00#_#_____####", "0.000_#_____####"]
                      + [f"#####_._____e-{x:02d}" for x in range(5, 17)])
# The first three digits of the mantissa, by their value (rows 100 to 999),
# then the rows taken when the last three digits are 000 (1,100 to 1,999):
# the same with trailing zeros hidden, and the "." too when both are zeros.
_THREE = [f"{i:03d}" for i in range(1000)]
_HIGH_DIGITS = _text_rows([f"_____{d[0]}_{d[1:]}_______" for d in _THREE]
                          + [f"_____{d[0]}{'#' if d[1:] == '00' else '_'}"
                             f"{d[1:].rstrip('0').ljust(2, '#')}_______" for d in _THREE])
# The last three digits of the mantissa, trailing zeros hidden
_LOW_DIGITS = _text_rows([f"_________{d.rstrip('0').ljust(3, '#')}____" for d in _THREE])
_TEXT_WIDTH = _LAYOUTS.shape[1]
# The powers of ten that are exact doubles, 10**0 to 10**22
_POW10 = np.array([float(10 ** k) for k in range(23)])
# The integer path formats scores in [_FAST_MIN, 1], where 10**(5 - x) is
# exact, and leaves to f-strings the ones whose scaled value lies within
# _TIE_MARGIN of a half (the product's rounding error is below 1e-9)
_FAST_MIN = 1e-15
_TIE_MARGIN = 1e-6


@dataclass(frozen=True)
class OntologyGraph:
    namespace: str
    parents: dict[str, frozenset[str]]
    root: str
    topo_order: tuple[str, ...]  # children strictly before parents
    # term -> its position in topo_order
    index: dict[str, int] = field(repr=False, compare=False)
    # (child, parent) positions in topo_order, children first
    edges: tuple[tuple[int, int], ...] = field(repr=False, compare=False)

    @property
    def terms(self) -> frozenset[str]:
        return frozenset(self.parents)


def load_ontology(source, namespace: str) -> OntologyGraph:
    """Build a validated graph from child<TAB>parent lines (path, IO, or str).

    Rejects cycles, multiple parentless terms (a dangling parent shows up as a
    spurious second root), and anything that cannot reach the root.
    """
    if namespace not in NAMESPACES:
        raise OntologyError(f"namespace must be one of {NAMESPACES}, got {namespace!r}")
    parents: dict[str, set[str]] = {}
    with text_lines(source, "ontology text") as lines:
        for lineno, line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise IngestionError(f"ontology line {lineno}: expected child<TAB>parent")
            child, parent = parts
            if child == parent:
                raise OntologyError(f"self-edge on {child!r}")
            parents.setdefault(child, set()).add(parent)
            parents.setdefault(parent, set())
    if not parents:
        raise OntologyError("ontology has no terms")
    roots = sorted(t for t, ps in parents.items() if not ps)
    if len(roots) != 1:
        raise OntologyError(
            f"expected exactly one root term, found {roots}; "
            "check for dangling parents or disconnected subgraphs"
        )
    topo = _topological_order(parents)
    index = {t: i for i, t in enumerate(topo)}
    return OntologyGraph(
        namespace=namespace,
        parents={t: frozenset(ps) for t, ps in parents.items()},
        root=roots[0],
        topo_order=topo,
        index=index,
        edges=tuple((i, index[p]) for i, t in enumerate(topo) for p in parents[t]),
    )


def _topological_order(parents: dict[str, set[str]]) -> tuple[str, ...]:
    """Kahn's algorithm over child->parent edges; raises on cycles."""
    out_degree = {t: len(ps) for t, ps in parents.items()}
    children: dict[str, list[str]] = {t: [] for t in parents}
    for child, ps in parents.items():
        for p in ps:
            children[p].append(child)
    ready = sorted(t for t, deg in out_degree.items() if deg == 0)  # root(s) first
    order: list[str] = []
    while ready:
        term = ready.pop()
        order.append(term)
        for child in sorted(children[term], reverse=True):
            out_degree[child] -= 1
            if out_degree[child] == 0:
                ready.append(child)
    if len(order) != len(parents):
        raise OntologyError("ontology contains a cycle")
    order.reverse()  # children before parents
    return tuple(order)


@dataclass(frozen=True, eq=False)
class Annotations(Mapping):
    """Scores of (protein, term) pairs: `scores[i, j]` belongs to
    `proteins[i]` and `terms[j]`, NaN where the pair is absent.

    Read-only; as a Mapping it yields each protein (a row may hold no present
    pair) and a read-only {term -> score} view of the row's present pairs,
    and compares equal to a dict holding the same pairs.
    """

    proteins: tuple[str, ...]
    terms: tuple[str, ...]
    scores: np.ndarray
    protein_index: dict[str, int] = field(init=False, repr=False)
    term_index: dict[str, int] = field(init=False, repr=False)
    # True when load_annotations took the table from the binary score table
    # beside its TSV rather than parsing the TSV
    from_binary: bool = field(default=False, repr=False)
    # The hex sha256 of the TSV bytes load_annotations read the table from a
    # path; None for a table read from text or built in memory
    tsv_sha256: str | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.scores.dtype != np.float64 or self.scores.shape != (len(self.proteins),
                                                                     len(self.terms)):
            raise ShapeError(
                f"scores must be float64 of shape ({len(self.proteins)}, {len(self.terms)}), "
                f"got {self.scores.dtype} {self.scores.shape}"
            )
        for name, ids in (("protein", self.proteins), ("term", self.terms)):
            index = {key: i for i, key in enumerate(ids)}
            if len(index) != len(ids):
                repeated = next(key for i, key in enumerate(ids) if index[key] != i)
                raise InputError(f"duplicate {name} id {repeated!r}")
            object.__setattr__(self, f"{name}_index", index)
        self.scores.flags.writeable = False

    def __getitem__(self, protein: str) -> Mapping[str, float]:
        return _Row(self, self.protein_index[protein])

    def __contains__(self, protein) -> bool:
        return protein in self.protein_index

    def __iter__(self):
        return iter(self.proteins)

    def __len__(self) -> int:
        return len(self.proteins)

    def __repr__(self) -> str:
        return f"Annotations({len(self.proteins)} proteins x {len(self.terms)} terms)"

    def rows(self, proteins) -> Annotations:
        """The table restricted to the given proteins, in their order."""
        proteins = tuple(proteins)
        return Annotations(proteins, self.terms,
                           self.scores[[self.protein_index[p] for p in proteins]])

    def annotated_terms(self) -> tuple[str, ...]:
        """Sorted terms that hold at least one present pair."""
        used = ~np.isnan(self.scores).all(axis=0)
        return tuple(sorted(t for t, u in zip(self.terms, used.tolist()) if u))


class _Row(Mapping):
    """One protein's present pairs, read through the table."""

    __slots__ = ("_table", "_i")

    def __init__(self, table: Annotations, i: int):
        self._table, self._i = table, i

    def __getitem__(self, term: str) -> float:
        score = self._table.scores[self._i, self._table.term_index[term]]
        if np.isnan(score):
            raise KeyError(term)
        return float(score)

    def __iter__(self):
        present = np.flatnonzero(~np.isnan(self._table.scores[self._i]))
        return map(self._table.terms.__getitem__, present.tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(~np.isnan(self._table.scores[self._i])))

    def __repr__(self) -> str:
        return repr(dict(self))


def _table(proteins, terms, rows, cols, values) -> Annotations:
    """The table of (rows[k], cols[k]) -> values[k]; when a pair repeats, the
    last value wins."""
    proteins, terms = tuple(proteins), tuple(terms)
    flat = np.frombuffer(rows, dtype=np.int64) * len(terms) + np.frombuffer(cols, dtype=np.int64)
    last = np.full(len(proteins) * len(terms), -1, dtype=np.int64)
    np.maximum.at(last, flat, np.arange(len(flat)))
    scores = np.full(len(proteins) * len(terms), np.nan)
    cells = np.flatnonzero(last >= 0)
    scores[cells] = np.frombuffer(values, dtype=np.float64)[last[cells]]
    return Annotations(proteins, terms, scores.reshape(len(proteins), len(terms)))


def as_annotations(data) -> Annotations:
    """`data` as a table: an Annotations is returned as is, and a Mapping of
    protein -> {term -> score} is converted, protein and term order kept as
    first seen. A NaN score, which would read as an absent pair, is an
    InputError."""
    if isinstance(data, Annotations):
        return data
    terms: dict[str, int] = {}
    rows, cols, values = array("q"), array("q"), array("d")
    for i, protein in enumerate(data):
        for term, score in data[protein].items():
            rows.append(i)
            cols.append(terms.setdefault(term, len(terms)))
            values.append(score)
    bad = np.flatnonzero(np.isnan(np.frombuffer(values, dtype=np.float64)))
    if bad.size:
        protein = list(data)[rows[bad[0]]]
        term = list(terms)[cols[bad[0]]]
        raise InputError(f"protein {protein!r} term {term!r} has a NaN score")
    return _table(data, terms, rows, cols, values)


def _graph_columns(table: Annotations, graph: OntologyGraph) -> tuple[list[int], list[int]]:
    """The table's columns whose terms are in the graph, and those terms'
    positions in topo order. A present pair with a term outside the graph, or
    a score outside [0, 1], is an OntologyError."""
    present = ~np.isnan(table.scores)
    unknown = [j for j, t in enumerate(table.terms) if t not in graph.index]
    hits = np.argwhere(present[:, unknown])
    if len(hits):
        i, j = hits[0]
        raise OntologyError(
            f"protein {table.proteins[i]!r} uses unknown term {table.terms[unknown[j]]!r}"
        )
    hits = np.argwhere((table.scores < 0.0) | (table.scores > 1.0))
    if len(hits):
        i, j = hits[0]
        raise OntologyError(
            f"protein {table.proteins[i]!r} term {table.terms[j]!r} has score "
            f"{table.scores[i, j]} outside [0, 1]"
        )
    cols = [j for j, t in enumerate(table.terms) if t in graph.index]
    return cols, [graph.index[table.terms[j]] for j in cols]


def _from_graph(proteins, graph: OntologyGraph, used: np.ndarray, scores) -> Annotations:
    """The table of the graph terms at the topo positions `used`, given their
    [proteins, used] scores."""
    return Annotations(tuple(proteins), tuple(graph.topo_order[k] for k in used.tolist()),
                       np.ascontiguousarray(scores))


def close_truth(truth, graph: OntologyGraph) -> Annotations:
    """True-path closure: every ancestor of an annotated term is annotated at
    1.0. Any present pair counts as annotated, whatever its score."""
    truth = as_annotations(truth)
    cols, rows = _graph_columns(truth, graph)
    annotated = np.zeros((len(graph.topo_order), len(truth)), dtype=bool)
    annotated[rows] = ~np.isnan(truth.scores[:, cols].T)
    for child, parent in graph.edges:
        annotated[parent] |= annotated[child]
    used = np.flatnonzero(annotated.any(axis=1))
    return _from_graph(truth.proteins, graph, used,
                       np.where(annotated[used].T, 1.0, np.nan))


def close_scores(pred, graph: OntologyGraph) -> Annotations:
    """Max-propagate scores toward the root so parent >= child on every edge.
    Edges run children first; a parent takes the child's score where the
    child scores above it, an absent parent counting as 0.0."""
    pred = as_annotations(pred)
    cols, rows = _graph_columns(pred, graph)
    work = np.full((len(graph.topo_order), len(pred)), np.nan)
    work[rows] = pred.scores[:, cols].T
    for child, parent in graph.edges:
        below, above = work[parent], work[child]
        np.copyto(below, above, where=above > np.fmax(below, 0.0))
    used = np.flatnonzero(~np.isnan(work).all(axis=1))
    return _from_graph(pred.proteins, graph, used, work[used].T)


def load_annotations(source) -> Annotations:
    """Parse protein<TAB>term[<TAB>score] lines (path, IO, or str) into a
    table; a missing score means 1.0, and a repeated pair keeps its last
    score. Blank lines and lines starting with '#' are skipped.

    A path whose binary score table (path + TABLE_SUFFIX) passes every check,
    including that it was written for exactly these TSV bytes, is read from
    that table instead; it holds the table parsing gives. A table that fails a
    check is ignored with one WARNING. A table read from a path records the
    sha256 of the TSV bytes read as tsv_sha256.
    """
    if not is_path(source):
        return _parse(source)
    with open(source, "rb") as fh:
        tsv = fh.read()
    digest = hashlib.sha256(tsv)
    table = _read_table(os.fspath(source) + TABLE_SUFFIX, digest.digest())
    if table is None:
        table = _parse(io.TextIOWrapper(io.BytesIO(tsv), encoding="utf-8"))
    return dataclasses.replace(table, tsv_sha256=digest.hexdigest())


def _parse(source) -> Annotations:
    proteins: dict[str, int] = {}
    terms: dict[str, int] = {}
    rows, cols, values = array("q"), array("q"), array("d")
    last, row = None, -1
    with text_lines(source, "annotation text") as numbered:
        # line keeps its newline: float() ignores it, and only a two-column
        # line's term needs it stripped
        for lineno, line in numbered:
            if line.isspace() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) == 3:
                protein, term, raw = parts
                try:
                    score = float(raw)
                except ValueError as exc:
                    raw = raw.rstrip("\n")
                    raise IngestionError(f"annotation line {lineno}: bad score {raw!r}") from exc
            elif len(parts) == 2:
                protein, term = parts
                term = term.rstrip("\n")
                score = 1.0
            else:
                raise IngestionError(f"annotation line {lineno}: expected 2 or 3 columns")
            if not (0.0 <= score <= 1.0):
                raise IngestionError(f"annotation line {lineno}: score {score} outside [0, 1]")
            if protein != last:  # saved files hold each protein's lines together
                last, row = protein, proteins.setdefault(protein, len(proteins))
            rows.append(row)
            cols.append(terms.setdefault(term, len(terms)))
            values.append(score)
    return _table(proteins, terms, rows, cols, values)


def _read_table(path: str, digest: bytes) -> Annotations | None:
    """The binary score table at path, if it passes every check against the
    sha256 digest of the TSV bytes it mirrors; None when there is no table,
    or, with one WARNING, when it fails a check."""
    try:
        with open_binary(path, TABLE_MAGIC, TABLE_VERSION, "score table") as reader:
            return _table_from(reader, digest)
    except FileNotFoundError:
        return None
    except (OSError, EslongError) as exc:
        log.warning("ignoring score table %s (%s); parsing the TSV instead", path, exc)
        return None


def _table_from(reader: BinaryReader, digest: bytes) -> Annotations:
    recorded, n_proteins, n_terms, n_pairs, id_bytes = reader.unpack(_TABLE_FIELDS)
    if recorded != digest:
        raise FormatError("it was written for other TSV bytes")
    ids = reader.text(id_bytes, "id list").split("\n")
    if len(ids) != n_proteins + n_terms + 1 or ids[-1]:
        raise FormatError(f"it holds {len(ids) - 1} ids, not {n_proteins} + {n_terms}")
    indptr = reader.array("<i8", n_proteins + 1)
    indices = reader.array("<u4", n_pairs)
    scores = reader.array("<f8", n_pairs)
    reader.end("last score")
    counts = np.diff(indptr)
    if indptr[0] != 0 or indptr[-1] != n_pairs or (counts < 0).any():
        raise FormatError("its row pointers are not monotone from 0 to the pair count")
    if n_pairs and int(indices.max()) >= n_terms:
        raise FormatError("a term index is out of range")
    if not ((scores >= 0.0) & (scores <= 1.0)).all():
        raise FormatError("a score is not finite or lies outside [0, 1]")
    dense = np.full((n_proteins, n_terms), np.nan)
    dense[np.repeat(np.arange(n_proteins), counts), indices] = scores
    return Annotations(tuple(ids[:n_proteins]), tuple(ids[n_proteins:-1]), dense,
                       from_binary=True)


def save_annotations(path, annotations) -> None:
    """Write the present pairs as protein<TAB>term<TAB>score lines, proteins
    and terms sorted, scores at 6 significant digits (`%.6g`).

    Then write the binary score table of the same bytes at path +
    TABLE_SUFFIX, through a temporary file: proteins in written order, terms
    in first-written order and each score the float of its written text, which
    is the table parsing the TSV gives. Ids that would not read back as
    written (a tab or line break in any id, a protein starting with '#') get
    no table, and any old one is removed.

    The lines of a block of whole rows, at most _BLOCK_PAIRS pairs unless one
    row holds more, are built and written together.
    """
    table = as_annotations(annotations)
    order = np.array(sorted(range(len(table.terms)), key=table.terms.__getitem__),
                     dtype=np.intp)
    rows = np.array(sorted(range(len(table.proteins)), key=table.proteins.__getitem__),
                    dtype=np.intp)
    present = ~np.isnan(table.scores)
    present = present[rows][:, order]
    counts = np.count_nonzero(present, axis=1)
    rows, present, counts = rows[counts > 0], present[counts > 0], counts[counts > 0]
    indptr = np.zeros(len(rows) + 1, dtype="<i8")
    np.cumsum(counts, out=indptr[1:])
    # Terms in first-written order: by the first row holding them, then in
    # sorted order within that row
    used = np.flatnonzero(present.any(axis=0))
    first = present[:, used].argmax(axis=0) if used.size else used
    written = used[np.lexsort((used, first))]
    column = np.zeros(len(order), dtype="<u4")  # sorted term -> first-written index
    column[written] = np.arange(len(written))
    terms = [table.terms[j] for j in order.tolist()]
    written_proteins = [table.proteins[i] for i in rows.tolist()]
    written_terms = [terms[j] for j in written.tolist()]
    protein_cells = _id_cells(written_proteins)
    term_cells = _id_cells(terms)
    term_at = protein_cells.shape[1]
    text_at = term_at + term_cells.shape[1]
    indices = np.empty(int(indptr[-1]), dtype="<u4")
    scores = np.empty(len(indices), dtype="<f8")
    digest = hashlib.sha256()
    with replaced_on_success(path) as fh:
        for start, stop in _row_blocks(indptr):
            r, c = np.nonzero(present[start:stop])
            r += start
            pairs = slice(int(indptr[start]), int(indptr[stop]))
            indices[pairs] = column[c]
            line = np.empty((len(r), text_at + _TEXT_WIDTH + 1), dtype=np.uint8)
            line[:, :term_at] = protein_cells.take(r, axis=0)
            line[:, term_at:text_at] = term_cells.take(c, axis=0)
            line[:, text_at:-1] = _format_scores(table.scores[rows[r], order[c]], scores[pairs])
            line[:, -1] = ord("\n")
            data = line[line != _HIDDEN]
            fh.write(data)
            digest.update(data)
    table_path = os.fspath(path) + TABLE_SUFFIX
    if not _plain_ids(written_proteins, written_terms):
        with suppress(FileNotFoundError):
            os.remove(table_path)
        return
    ids = "".join(f"{x}\n" for x in (*written_proteins, *written_terms)).encode("utf-8")
    with replaced_on_success(table_path) as fh:
        write_header(fh, TABLE_MAGIC, TABLE_VERSION)
        fh.write(struct.pack(_TABLE_FIELDS, digest.digest(), len(written_proteins),
                             len(written_terms), len(scores), len(ids)))
        for part in (ids, indptr, indices, scores):
            fh.write(part)


def _row_blocks(indptr):
    """(start, stop) ranges of consecutive rows holding at most _BLOCK_PAIRS
    pairs together, or one row that holds more."""
    start, rows = 0, len(indptr) - 1
    while start < rows:
        fit = int(np.searchsorted(indptr, indptr[start] + _BLOCK_PAIRS, side="right")) - 1
        stop = max(start + 1, fit)
        yield start, stop
        start = stop


def _id_cells(ids) -> np.ndarray:
    """Each id's UTF-8 bytes and a tab as a row of bytes, padded with
    _HIDDEN to the longest. Lengths are explicit, so an id may end in NUL."""
    encoded = [x.encode("utf-8") + b"\t" for x in ids]
    lengths = np.array([len(x) for x in encoded], dtype=np.intp)
    filled = np.arange(int(lengths.max(initial=0))) < lengths[:, None]
    cells = np.full(filled.shape, _HIDDEN, dtype=np.uint8)
    cells[filled] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return cells


def _format_scores(values: np.ndarray, parsed: np.ndarray) -> np.ndarray:
    """The `%.6g` text of each value as a [values, _TEXT_WIDTH] byte row,
    padded with _HIDDEN; parsed receives the float of each text.

    A value v in [_FAST_MIN, 1] takes the integer path: with its decimal
    exponent x = floor(log10 v), the mantissa m = rint(v * 10**(5 - x)) holds
    its six significant digits, and m / 10**(5 - x) is the float of its text
    bit for bit (m and the power of ten are exact doubles, and the division
    rounds correctly). The text is the OR of three table rows: the layout by
    x (Python's rule: fixed notation for x in [-4, 0], exponent notation
    below), the first three digits and the last three, trailing zeros
    hidden. The rest are formatted one by one: zeros (so -0 keeps its sign),
    values outside [_FAST_MIN, 1] or not finite, and values within
    _TIE_MARGIN of a rounding tie, where the product's rounding could pick
    the digit.
    """
    fast = (values >= _FAST_MIN) & (values <= 1.0)
    v = values.copy()
    v[~fast] = 1.0  # formatted below, one by one
    exp = np.floor(np.log10(v)).astype(np.intp)
    scaled = v * _POW10[5 - exp]
    fast &= np.abs(scaled - np.floor(scaled) - 0.5) >= _TIE_MARGIN
    mantissa = np.rint(scaled)
    # Rounded up to the next power of ten. This also mends an exponent
    # log10 put one too low beside a power of ten; one too high rounds to
    # 10**5 as it should.
    carry = mantissa == 1e6
    mantissa[carry] = 1e5
    exp += carry
    parsed[:] = mantissa / _POW10[5 - exp]
    high, low = np.divmod(mantissa.astype(np.intp), 1000)
    high += 1000 * (low == 0)
    text = (_LAYOUTS.view(np.uint64).take(-exp, axis=0)
            | _HIGH_DIGITS.view(np.uint64).take(high, axis=0)
            | _LOW_DIGITS.view(np.uint64).take(low, axis=0)).view(np.uint8)
    for i in np.flatnonzero(~fast).tolist():
        formatted = f"{values[i]:.6g}".encode("ascii")
        parsed[i] = float(formatted)
        text[i] = _HIDDEN
        text[i, :len(formatted)] = np.frombuffer(formatted, dtype=np.uint8)
    return text


def _plain_ids(proteins, terms) -> bool:
    """Whether ids written as TSV columns parse back as themselves."""
    return not any(p.startswith("#") for p in proteins) and not any(
        c in x for x in (*proteins, *terms) for c in "\t\n\r")
