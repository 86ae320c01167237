"""The annotation score table: its Mapping view, and load, save, closures,
Fmax and the stratified sweep checked against the dict-of-dict oracles."""

import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import annotation_oracles as oracle
from eslong.errors import EvaluationError, IngestionError, InputError, ShapeError
from eslong.evaluation import GRID, fmax, result_to_json, stratified_eval
from eslong.ontology import (
    Annotations,
    as_annotations,
    close_scores,
    close_truth,
    load_annotations,
    load_ontology,
    save_annotations,
)
from test_ontology import edges_tsv, random_dag


def random_score(rng) -> str:
    """A score as TSV text: often a grid point or 0.0, else off the grid."""
    kind = rng.integers(4)
    if kind == 0:
        return f"{GRID[int(rng.integers(len(GRID)))]:.2f}"
    if kind == 1:
        return "0" if rng.random() < 0.5 else "0.0"
    if kind == 2:
        return "1"
    return f"{rng.random():.4f}"


def random_tsv(rng, proteins, names, with_scores) -> str:
    """Annotation lines in shuffled order, with repeated pairs (the last
    score wins), comments and blank lines."""
    lines = []
    for protein in proteins:
        for term in names:
            if rng.random() < 0.45:
                lines.append(f"{protein}\t{term}\t{random_score(rng)}" if with_scores
                             else f"{protein}\t{term}")
    if lines:
        lines += [lines[int(i)] for i in rng.integers(0, len(lines), size=len(lines) // 4)]
        if with_scores:
            lines.append(f"{lines[0].rsplit(chr(9), 1)[0]}\t{random_score(rng)}")
    order = rng.permutation(len(lines))
    text = [lines[int(i)] for i in order] + ["# comment\tx\ty", "   ", ""]
    return "\n".join(text[int(i)] for i in rng.permutation(len(text))) + "\n"


def assert_binary_table_matches_tsv(path):
    """load_annotations(path) reads the binary table save_annotations wrote
    beside the TSV, and it equals the table parsing the TSV gives: the same
    proteins, the same terms in the same order, and bit-equal scores (NaN in
    the same cells)."""
    got = load_annotations(path)
    parsed = load_annotations(io.StringIO(path.read_text()))  # an empty TSV is no path
    assert got.from_binary and not parsed.from_binary
    assert got.proteins == parsed.proteins and got.terms == parsed.terms
    assert got.scores.tobytes() == parsed.scores.tobytes()


def random_grid(rng):
    if rng.random() < 0.7:
        return GRID
    # unsorted, sometimes with repeated points, and sometimes points no score hits
    points = rng.choice(GRID, size=int(rng.integers(1, 12))).tolist()
    return tuple(points) + ((0.005,) if rng.random() < 0.3 else ())


def same_outcome(run, reference):
    """(run(), reference()), or None when both raise the same EvaluationError."""
    try:
        expected = reference()
    except EvaluationError as exc:
        with pytest.raises(EvaluationError) as info:
            run()
        assert str(info.value) == str(exc)
        return None
    return run(), expected


def test_table_matches_dict_oracles(tmp_path):
    rng = np.random.default_rng(2013)
    checked = 0
    for _ in range(200):
        names, parents = random_dag(rng, int(rng.integers(3, 12)))
        graph = load_ontology(edges_tsv(parents), "BPO")
        proteins = [f"P{i}" for i in range(int(rng.integers(1, 9)))]
        truth_text = random_tsv(rng, proteins, names, with_scores=False)
        # predictions for a subset of the truth proteins, so some have none
        pred_text = random_tsv(rng, [p for p in proteins if rng.random() < 0.7], names,
                               with_scores=True)

        truth, truth_d = load_annotations(truth_text), oracle.load_annotations(truth_text)
        pred, pred_d = load_annotations(pred_text), oracle.load_annotations(pred_text)
        assert truth == truth_d and pred == pred_d
        assert list(truth) == list(truth_d) and list(pred) == list(pred_d)

        closed_truth, closed_truth_d = close_truth(truth, graph), oracle.close_truth(truth_d, graph)
        closed, closed_d = close_scores(pred, graph), oracle.close_scores(pred_d, graph)
        assert closed_truth == closed_truth_d
        assert closed == closed_d  # includes: a 0.0 child adds no absent parent

        save_annotations(tmp_path / "table.tsv", closed)
        oracle.save_annotations(tmp_path / "dict.tsv", closed_d)
        assert (tmp_path / "table.tsv").read_bytes() == (tmp_path / "dict.tsv").read_bytes()
        assert_binary_table_matches_tsv(tmp_path / "table.tsv")

        # a protein whose row holds no pair, given as a dict
        if proteins and rng.random() < 0.3:
            empty = proteins[int(rng.integers(len(proteins)))]
            pred_d = {**pred_d, empty: {}} if empty not in pred_d else pred_d
            pred = as_annotations(pred_d)
        exclude = {graph.root} if rng.random() < 0.4 else set(
            rng.choice(names, size=int(rng.integers(0, 3))).tolist())
        grid = random_grid(rng)
        for scores, scores_d in ((pred, pred_d), (closed, closed_d)):
            outcome = same_outcome(
                lambda: fmax(scores, closed_truth, "BPO", exclude, grid),
                lambda: oracle.fmax(scores_d, closed_truth_d, "BPO", exclude, grid))
            if outcome:
                got, expected = outcome
                assert result_to_json(got) == result_to_json(expected)
                checked += 1

        lengths = {p: int(rng.integers(10, 100)) for p in proteins}
        min_len = int(rng.integers(5, 100))
        keep = {p for p in proteins if lengths[p] > min_len}

        def stratum_reference():
            # inputs are checked against the full truth, then the stratum is scored
            oracle._validate(closed_d, closed_truth_d, frozenset(exclude))
            return oracle.fmax({p: t for p, t in closed_d.items() if p in keep},
                               {p: t for p, t in closed_truth_d.items() if p in keep},
                               "BPO", exclude)

        if keep:
            outcome = same_outcome(
                lambda: stratified_eval(closed, closed_truth, lengths, min_len, "BPO", exclude),
                stratum_reference)
            if outcome:
                got, expected = outcome
                assert result_to_json(got) == result_to_json(expected)
    assert checked > 250


def test_oracles_agree_on_the_two_protein_case():
    pred = {"A": {"t1": 0.9, "t3": 0.8}, "B": {"t2": 0.7}}
    truth = {"A": {"t1": 1.0, "t2": 1.0}, "B": {"t2": 1.0}}
    assert result_to_json(fmax(pred, truth)) == result_to_json(oracle.fmax(pred, truth))


class TestTable:
    TABLE = load_annotations("P2\tb\t0.25\nP1\ta\t0.5\nP1\tb\n")

    def test_mapping_view(self):
        table = self.TABLE
        assert list(table) == ["P2", "P1"] and len(table) == 2
        assert "P1" in table and "P3" not in table
        assert table["P1"] == {"a": 0.5, "b": 1.0}
        assert dict(table["P2"]) == {"b": 0.25}
        assert "a" not in table["P2"] and table["P2"].get("a") is None
        with pytest.raises(KeyError):
            table["P2"]["a"]
        assert table == {"P2": {"b": 0.25}, "P1": {"a": 0.5, "b": 1.0}}
        assert table != {"P2": {"b": 0.25}}

    def test_layout(self):
        table = self.TABLE
        assert table.proteins == ("P2", "P1") and table.terms == ("b", "a")
        assert table.scores.dtype == np.float64
        np.testing.assert_array_equal(table.scores, [[0.25, np.nan], [1.0, 0.5]])

    def test_read_only(self):
        with pytest.raises(ValueError):
            self.TABLE.scores[0, 0] = 0.0
        with pytest.raises(AttributeError):
            self.TABLE.proteins = ()

    def test_rows_and_annotated_terms(self):
        sub = self.TABLE.rows(["P2"])
        assert sub == {"P2": {"b": 0.25}}
        assert sub.terms == ("b", "a")  # the absent column stays
        assert sub.annotated_terms() == ("b",)
        assert self.TABLE.annotated_terms() == ("a", "b")

    def test_dict_rows_may_be_empty(self):
        table = as_annotations({"P1": {}, "P2": {"x": 0.0}})
        assert list(table) == ["P1", "P2"] and dict(table["P1"]) == {}
        assert table.annotated_terms() == ("x",)

    def test_as_annotations_passes_tables_through(self):
        assert as_annotations(self.TABLE) is self.TABLE

    def test_invalid_tables_rejected(self):
        with pytest.raises(InputError, match="duplicate protein id 'P'"):
            Annotations(("P", "Q", "P"), ("a",), np.zeros((3, 1)))
        with pytest.raises(InputError, match="duplicate term id 'a'"):
            Annotations(("P",), ("a", "a"), np.zeros((1, 2)))
        with pytest.raises(ShapeError):
            Annotations(("P",), ("a",), np.zeros((1, 2)))
        with pytest.raises(ShapeError):
            Annotations(("P",), ("a",), np.zeros((1, 1), dtype=np.float32))
        with pytest.raises(InputError, match="NaN"):
            as_annotations({"P": {"a": float("nan")}})


class TestLoadRules:
    def test_last_repeated_line_wins(self):
        assert load_annotations("P\ta\t0.5\nQ\ta\nP\ta\t0.25\n") == {"P": {"a": 0.25},
                                                                  "Q": {"a": 1.0}}

    def test_skips_blank_and_comment_lines(self):
        text = "# header\n\n \t \nP\ta\t0.5\n#P\tb\n"
        assert load_annotations(text) == {"P": {"a": 0.5}}

    def test_errors_name_the_line(self):
        for text, match in (("P\ta\n\nP\ta\tb\tc\n", "line 3: expected 2 or 3 columns"),
                            ("P\ta\t0.1\nP\tb\tx\n", "line 2: bad score 'x'"),
                            ("P\ta\tnan\n", "line 1: score nan outside"),
                            ("P\n", "line 1: expected 2 or 3")):
            with pytest.raises(IngestionError, match=match):
                load_annotations(text)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_bytes(b"P\ta\t0.5\nP\t\xff\t0.5\n")
        with pytest.raises(IngestionError, match="UTF-8"):
            load_annotations(str(path))

    def test_two_column_term_has_no_newline(self):
        assert load_annotations("P\ta\n") == oracle.load_annotations("P\ta\n")
        assert load_annotations("P\ta\r\n") == {"P": {"a": 1.0}}
        assert load_annotations("P\ta") == {"P": {"a": 1.0}}

    def test_crlf_reads_the_same_from_a_path_and_from_text(self, tmp_path):
        text = "P1\tGO:1\r\nP1\tGO:2\t0.5\r\nP2\tGO:1\r\n"
        path = tmp_path / "crlf.tsv"
        path.write_bytes(text.encode("utf-8"))
        from_path, from_text = load_annotations(path), load_annotations(text)
        assert from_path.proteins == from_text.proteins == ("P1", "P2")
        assert from_path.terms == from_text.terms == ("GO:1", "GO:2")
        assert from_path.scores.tobytes() == from_text.scores.tobytes()


class TestBinaryTable:
    """The binary score table save_annotations writes beside its TSV."""

    TABLE = {"P2": {"b": 0.123456789, "a": 1.0}, "P1": {"c": 0.0}, "P3": {}}

    def test_holds_the_parsed_tsv(self, tmp_path):
        path = tmp_path / "pred.tsv"
        save_annotations(path, self.TABLE)
        assert (tmp_path / "pred.tsv.esct").exists()
        assert_binary_table_matches_tsv(path)
        table = load_annotations(path)
        assert table.proteins == ("P1", "P2") and table.terms == ("c", "a", "b")
        assert table["P2"]["b"] == 0.123457

    def test_edited_tsv_is_parsed(self, tmp_path, caplog):
        path = tmp_path / "pred.tsv"
        save_annotations(path, self.TABLE)
        path.write_bytes(path.read_bytes().replace(b"0.123457", b"0.223457"))
        table = load_annotations(path)
        assert not table.from_binary and table["P2"]["b"] == 0.223457
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "other TSV bytes" in caplog.records[0].getMessage()

    def test_failed_tsv_write_keeps_the_old_files(self, tmp_path, disk_fills_after):
        path = tmp_path / "pred.tsv"
        table = {f"P{i}": {f"GO:{j}": (i + j) / 40 for j in range(10)} for i in range(20)}
        save_annotations(path, table)
        old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(old) == ["pred.tsv", "pred.tsv.esct"]
        disk_fills_after(len(old["pred.tsv"]) // 2)
        with pytest.raises(OSError, match="No space"):
            save_annotations(path, {p: {t: s / 2 for t, s in row.items()}
                                    for p, row in table.items()})
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old
        loaded = load_annotations(path)
        assert loaded.from_binary and loaded == load_annotations(path.read_text())

    def test_ids_that_do_not_read_back_get_no_table(self, tmp_path):
        path = tmp_path / "pred.tsv"
        save_annotations(path, self.TABLE)
        save_annotations(path, {"#P": {"a": 0.5}, "Q": {"a": 0.5}})
        assert not (tmp_path / "pred.tsv.esct").exists()
        assert load_annotations(path) == {"Q": {"a": 0.5}}

    def test_empty_table(self, tmp_path):
        path = tmp_path / "pred.tsv"
        save_annotations(path, {"P": {}})
        assert path.read_bytes() == b""
        table = load_annotations(path)
        assert table.from_binary and table.proteins == () and table.terms == ()


def written_scores(path):
    """The score texts of the TSV at path, and the scores of the binary table
    beside it, both in written order."""
    texts = [line.rsplit("\t", 1)[1] for line in path.read_text().splitlines()]
    data = path.with_name(path.name + ".esct").read_bytes()
    pairs = struct.unpack_from("<4sI32sQQQQ", data)[5]
    return texts, np.frombuffer(data, dtype="<f8", count=pairs, offset=len(data) - 8 * pairs)


def assert_scores_written_as_text(path, values):
    """save_annotations writes each value as f"{v:.6g}", and the binary table
    holds float() of that text, bit for bit (-0.0 included)."""
    values = [float(v) for v in values]
    save_annotations(path, {"P": {f"t{k:04d}": v for k, v in enumerate(values)}})
    texts, scores = written_scores(path)
    assert texts == [f"{v:.6g}" for v in values]
    assert scores.tobytes() == np.array([float(t) for t in texts]).tobytes()


def tie_neighbours(value):
    return [np.nextafter(value, 0.0), value, np.nextafter(value, 2.0)]


EDGE_SCORES = (
    [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e-15, 9.99e-16, 1e-4, 1e-5,
     0.001953125, np.inf, 1.5, -0.25]
    + [2.0 ** -j for j in range(1, 64)]
    + [x for k in range(1, 13) for m in (100000, 123456, 999999)
       for x in tie_neighbours((m + 0.5) / 10 ** (5 + k))]
    + tie_neighbours(9.99995e-05) + tie_neighbours(0.9999995)
    + [x for k in range(17) for x in tie_neighbours(10.0 ** -k)]
)


class TestScoreText:
    """save_annotations formats scores in bulk exactly as `%.6g` would."""

    def test_edge_values(self, tmp_path):
        assert_scores_written_as_text(tmp_path / "edge.tsv", EDGE_SCORES)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(values=st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(allow_nan=False),
                                     st.floats(1e-16, 1e-3)), min_size=1, max_size=40))
    def test_any_values(self, tmp_path_factory, values):
        assert_scores_written_as_text(tmp_path_factory.mktemp("text") / "pred.tsv", values)

    @staticmethod
    def sigmoid_table():
        """A seeded 300 x 2,000 table of sigmoid scores, about one pair in
        ten absent, with ids of mixed widths, multi-byte UTF-8 and a NUL."""
        rng = np.random.default_rng(20)
        scores = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 6.0, size=(300, 2000))))
        scores[rng.random(scores.shape) < 0.1] = np.nan
        scores[7] = np.nan
        proteins = [f"P{i}" if i % 3 else f"蛋白{i:05d}é" for i in range(299)] + ["Q\x00"]
        terms = [f"GO:{j}" if j % 5 else f"GO:α{j:07d}" for j in range(1999)] + ["GO:\x00"]
        return Annotations(tuple(proteins), tuple(terms), scores)

    def test_sigmoid_table_as_the_oracle_writes_it(self, tmp_path):
        table = self.sigmoid_table()
        path, expected = tmp_path / "pred.tsv", tmp_path / "oracle.tsv"
        oracle.save_annotations(expected, {p: dict(table[p]) for p in table})
        save_annotations(path, table)
        assert path.read_bytes() == expected.read_bytes()
        assert_binary_table_matches_tsv(path)

    def test_sigmoid_table_memory(self, tmp_path):
        table = self.sigmoid_table()
        tracemalloc.start()
        try:
            save_annotations(tmp_path / "pred.tsv", table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak
