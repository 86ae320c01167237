"""FASTA parsing, segmentation, embedding extraction, and the store format."""

import hashlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CANONICAL, random_corpus
from eslong.attention import AttentionSpec
from eslong.encoder import ModelConfig, build_model, extend_context, forward, tokenize
from eslong.errors import ConfigError, FormatError, IngestionError, InputError
from eslong.pipeline import (
    EmbeddingRecord,
    ProteinRecord,
    embed_corpus,
    embed_protein,
    parse_fasta,
    read_store,
    segment,
    write_fasta,
    write_store,
    write_store_tsv,
)
from eslong.quant import quantize_model


class TestParseFasta:
    def test_single_record(self):
        assert parse_fasta(">P1\nACDE\n") == [ProteinRecord("P1", "ACDE")]

    def test_wrapped_lines_joined(self):
        assert parse_fasta(">P1\nAC\nDE\n") == [ProteinRecord("P1", "ACDE")]

    def test_header_keeps_first_token(self):
        recs = parse_fasta(">P1 some description here\nacde\n")
        assert recs == [ProteinRecord("P1", "ACDE")]

    def test_duplicate_id_rejected(self):
        with pytest.raises(IngestionError, match="duplicate"):
            parse_fasta(">P1\nAC\n>P1\nDE\n")

    def test_invalid_characters_rejected(self):
        with pytest.raises(IngestionError, match="invalid"):
            parse_fasta(">P1\nAC*DE\n")

    def test_empty_sequence_rejected(self):
        with pytest.raises(IngestionError, match="empty"):
            parse_fasta(">P1\n>P2\nACDE\n")

    def test_leading_garbage_rejected(self):
        with pytest.raises(IngestionError):
            parse_fasta("ACDE\n>P1\nACDE\n")

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "bad.fasta"
        path.write_bytes(b">P1\nAC\xffDE\n")
        with pytest.raises(IngestionError, match="not UTF-8"):
            parse_fasta(path)

    def test_thousand_record_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        seqs = random_corpus(rng, 1000, 5, 80)
        records = [ProteinRecord(f"P{i:04d}", s) for i, s in enumerate(seqs)]
        path = tmp_path / "corpus.fasta"
        write_fasta(path, records)
        assert parse_fasta(str(path)) == records


class TestSegment:
    def test_worked_example_standard_limit(self):
        lengths = [len(s) for s in segment("A" * 3000, 1022)]
        assert lengths == [1022, 1022, 956]

    def test_worked_example_long_limit(self):
        lengths = [len(s) for s in segment("A" * 3000, 2046)]
        assert lengths == [2046, 954]

    def test_short_sequence_untouched(self):
        assert segment("ACDE", 1022) == ["ACDE"]

    def test_bad_limit(self):
        with pytest.raises(ConfigError):
            segment("ACDE", 0)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.integers(0, 400), st.integers(1, 97), st.integers(0, 2**32 - 1))
    def test_partition_property(self, length, limit, seed):
        seq = "".join(
            np.random.default_rng(seed).choice(list("ACDEFGHIKL"), size=length)
        )
        slices = segment(seq, limit)
        assert "".join(slices) == seq
        if slices:
            assert all(len(s) == limit for s in slices[:-1])
            assert 1 <= len(slices[-1]) <= limit


class TestEmbedProtein:
    def test_short_protein_equals_slice_vector(self, toy_model):
        rec = ProteinRecord("P1", "ACDEFGHIKL")
        out = embed_protein(toy_model, rec, residue_limit=62)
        hidden = forward(toy_model, tokenize(rec.sequence, toy_model.config))
        expected = hidden[1:-1].mean(axis=0)
        np.testing.assert_allclose(out.vector, expected, atol=1e-6)
        assert out.slice_count == 1

    def test_two_slices_average(self, toy_model):
        seq = "ACDEFGHIKLMNPQRSTVWY" * 2  # 40 residues, limit 20 -> two slices
        rec = ProteinRecord("P1", seq)
        out = embed_protein(toy_model, rec, residue_limit=20)
        u = embed_protein(toy_model, ProteinRecord("a", seq[:20]), residue_limit=20).vector
        v = embed_protein(toy_model, ProteinRecord("b", seq[20:]), residue_limit=20).vector
        np.testing.assert_allclose(out.vector, (u + v) / 2.0, atol=1e-6)
        assert out.slice_count == 2

    def test_three_slice_composition_oracle(self, toy_model):
        rng = np.random.default_rng(1)
        seq = "".join(rng.choice(list("ACDEFGHIKLMNPQRSTVWY"), size=150))
        rec = ProteinRecord("P1", seq)
        out = embed_protein(toy_model, rec, residue_limit=62)
        assert out.slice_count == 3
        pieces = [seq[0:62], seq[62:124], seq[124:150]]
        vectors = [
            forward(toy_model, tokenize(p, toy_model.config))[1:-1].mean(axis=0)
            for p in pieces
        ]
        oracle = np.mean(np.stack(vectors), axis=0)
        np.testing.assert_allclose(out.vector, oracle, atol=1e-6)

    def test_slice_order_invariance_of_aggregation(self, toy_model):
        # the mean over slice vectors accumulates in float64, so any order
        # lands on the same float32 result
        rng = np.random.default_rng(2)
        seq = "".join(rng.choice(list("ACDEFGHIKL"), size=90))
        pieces = segment(seq, 30)
        vecs = [
            embed_protein(toy_model, ProteinRecord(f"s{i}", p), 30).vector.astype(np.float64)
            for i, p in enumerate(pieces)
        ]
        forward_order = (sum(vecs) / len(vecs)).astype(np.float32)
        reverse_order = (sum(reversed(vecs)) / len(vecs)).astype(np.float32)
        np.testing.assert_array_equal(forward_order, reverse_order)

    def test_cls_pooling_flag(self, toy_model):
        rec = ProteinRecord("P1", "ACDEFGHIKL")
        out = embed_protein(toy_model, rec, residue_limit=62, pool="cls")
        hidden = forward(toy_model, tokenize(rec.sequence, toy_model.config))
        np.testing.assert_allclose(out.vector, hidden[0], atol=1e-6)

    def test_capacity_check(self, toy_model):
        with pytest.raises(ConfigError):
            embed_protein(toy_model, ProteinRecord("P1", "ACDE"), residue_limit=63)

    def test_empty_sequence_rejected(self, toy_model):
        with pytest.raises(IngestionError):
            embed_protein(toy_model, ProteinRecord("P1", ""), residue_limit=62)


class TestEmbedCorpus:
    def test_rerun_gives_identical_bytes(self, toy_model, tmp_path):
        rng = np.random.default_rng(3)
        records = [
            ProteinRecord(f"P{i:03d}", s) for i, s in enumerate(random_corpus(rng, 100, 5, 150))
        ]
        out1, fail1 = embed_corpus(toy_model, records, 62)
        out2, fail2 = embed_corpus(toy_model, records, 62)
        assert not fail1 and not fail2
        p1, p2 = tmp_path / "run1.esem", tmp_path / "run2.esem"
        write_store(p1, out1)
        write_store(p2, out2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_order_preserved(self, toy_model):
        records = [ProteinRecord(f"P{i}", "ACDEF") for i in range(20)]
        out, _ = embed_corpus(toy_model, records, 62)
        assert [r.protein_id for r in out] == [r.id for r in records]

    def test_failures_recorded_not_silent(self, toy_model):
        records = [
            ProteinRecord("GOOD", "ACDEF"),
            ProteinRecord("BAD", ""),  # bypasses parse_fasta validation on purpose
            ProteinRecord("ALSO", "GHIKL"),
        ]
        out, failures = embed_corpus(toy_model, records, 62)
        assert [r.protein_id for r in out] == ["GOOD", "ALSO"]
        assert len(failures) == 1 and failures[0][0] == "BAD"

    def test_unknown_pool_raises_before_any_record(self, toy_model):
        with pytest.raises(ConfigError, match="pooling mode 'max'"):
            embed_corpus(toy_model, [ProteinRecord("P1", "ACDEF")], 62, pool="max")

    def test_empty_corpus_valid_store(self, toy_model, tmp_path):
        out, failures = embed_corpus(toy_model, [], 62)
        assert out == [] and failures == []
        path = tmp_path / "empty.esem"
        write_store(path, out, embed_dim=32)
        loaded, dim = read_store(path)
        assert loaded == [] and dim == 32

    def test_long_protein_slice_count(self, toy_model):
        seq = "".join(np.random.default_rng(4).choice(list("ACDEFGHIKL"), size=3000))
        # capacity-independent check through a wide model is overkill; use the
        # segmentation contract directly alongside a real toy run at limit 62
        assert len(segment(seq, 1022)) == 3
        assert len(segment(seq, 2046)) == 2
        out, _ = embed_corpus(toy_model, [ProteinRecord("P", seq)], 62)
        assert out[0].slice_count == len(segment(seq, 62))


class TestRecordedStores:
    """embed_corpus stores of two-layer models of T6's width keep their bits."""

    # sha256 of each store, recorded before attention read Q, K and V where
    # the layer's projections wrote them; x86-64, numpy 2.4, OpenBLAS 0.3.31.
    RECORDED = {
        "local-int4": "4c65c4f27fff9633a7ccff7349a72fc915faed65a2a9eba9150f20cd4b4ed3c1",
        "global-fp32": "fec8c45aaeb88857f245418b14f90a964c89e0eda3cd83d890c99a1540ece990",
    }

    @pytest.mark.parametrize("case", ["local-int4", "global-fp32"])
    def test_store_keeps_recorded_bits(self, case, tmp_path):
        # local-int4: window 128 on a model extended to 2,050 positions; the
        # 3,200-residue record cuts into slices of 2,046 and 1,154, which run
        # edge and interior blocks on the zero-padded key axis. global-fp32:
        # 700 residues run three 234-row blocks.
        if case == "local-int4":
            spec, seed, lengths, limit = AttentionSpec("local", 20, 16, 128), 9, (3200, 300), 2046
        else:
            spec, seed, lengths, limit = AttentionSpec("global", 20, 16), 11, (700, 45), 1022
        model = build_model(ModelConfig(2, 20, 320, 1024, 1280, spec), seed=seed)
        if case == "local-int4":
            model = quantize_model(extend_context(model, 2050))
        rng = np.random.default_rng(seed + 1)
        records = [ProteinRecord(f"P{i}", "".join(rng.choice(list(CANONICAL), size=n)))
                   for i, n in enumerate(lengths)]
        embeddings, failures = embed_corpus(model, records, residue_limit=limit)
        assert not failures
        path = tmp_path / "store.esem"
        write_store(path, embeddings)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.RECORDED[case]


class TestStore:
    def test_roundtrip_bit_exact(self, toy_model, tmp_path):
        rng = np.random.default_rng(5)
        records = [
            ProteinRecord(f"P{i}", s) for i, s in enumerate(random_corpus(rng, 10, 5, 80))
        ]
        out, _ = embed_corpus(toy_model, records, 62)
        path = tmp_path / "store.esem"
        write_store(path, out)
        loaded, dim = read_store(path)
        assert dim == 32
        assert [r.protein_id for r in loaded] == [r.protein_id for r in out]
        for a, b in zip(out, loaded):
            np.testing.assert_array_equal(a.vector, b.vector)
            assert a.slice_count == b.slice_count

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(FormatError):
            read_store(path)

    def test_non_utf8_id_rejected(self, tmp_path):
        path = tmp_path / "latin1.esem"
        write_store(path, [EmbeddingRecord("AB", np.zeros(3, dtype=np.float32), 1)])
        path.write_bytes(path.read_bytes().replace(b"AB", b"\xff\xfe", 1))
        with pytest.raises(FormatError):
            read_store(path)

    def test_dim_beyond_file_rejected(self, tmp_path):
        # a corrupt dim field must not make the reader ask for a 4 GiB buffer
        path = tmp_path / "huge.esem"
        write_store(path, [EmbeddingRecord("AB", np.zeros(4, dtype=np.float32), 1)])
        raw = bytearray(path.read_bytes())
        raw[12:16] = (2**30).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_store(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, tmp_path, value):
        path = tmp_path / "x.esem"
        with pytest.raises(InputError):
            write_store(path, [EmbeddingRecord("AB", np.array([0, value], dtype=np.float32), 1)])
        assert not path.exists()
        write_store(path, [EmbeddingRecord("AB", np.zeros(2, dtype=np.float32), 1)])
        path.write_bytes(path.read_bytes()[:-4] + struct.pack("<f", value))
        with pytest.raises(FormatError):
            read_store(path)

    def test_failed_write_keeps_the_old_file(self, tmp_path, disk_fills_after):
        path = tmp_path / "x.esem"
        records = [EmbeddingRecord(f"P{i}", np.full(4, i, dtype=np.float32), 1)
                   for i in range(8)]
        write_store(path, records)
        old = path.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["x.esem"]
        disk_fills_after(len(old) // 2)
        with pytest.raises(OSError, match="No space"):
            write_store(path, records[:6])
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["x.esem"]

    def test_repeated_id_rejected(self, tmp_path):
        path = tmp_path / "x.esem"
        with pytest.raises(InputError, match="'P1'"):
            write_store(path, [EmbeddingRecord("P1", np.zeros(2, dtype=np.float32), 1)] * 2)
        assert not path.exists()
        write_store(path, [EmbeddingRecord(pid, np.zeros(2, dtype=np.float32), 1)
                           for pid in ("P1", "P2")])
        path.write_bytes(path.read_bytes().replace(b"P2", b"P1"))
        with pytest.raises(FormatError, match="'P1'"):
            read_store(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        # a record count that lost a bit must not drop records silently
        path = tmp_path / "x.esem"
        write_store(path, [EmbeddingRecord(f"P{i}", np.zeros(2, dtype=np.float32), 1)
                           for i in range(3)])
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="after its 2 records"):
            read_store(path)

    def test_tsv_export_format(self, tmp_path):
        rec = EmbeddingRecord("P1", np.array([1.0, -0.5, 0.123456789], dtype=np.float32), 2)
        path = tmp_path / "x.tsv"
        write_store_tsv(path, [rec])
        fields = path.read_text().strip().split("\t")
        assert fields[0] == "P1" and fields[1] == "2"
        assert len(fields) == 5
        assert abs(float(fields[4]) - 0.123456789) < 1e-7

    def test_pad_never_leaks_into_mean(self, toy_model):
        # appending PAD tokens must not move the residue-row representations
        cfg = toy_model.config
        toks = tokenize("ACDEFGHIK", cfg)
        base = forward(toy_model, toks)[1:-1].mean(axis=0)
        padded = forward(toy_model, toks + [cfg.vocab.pad_id] * 6)
        np.testing.assert_allclose(padded[1: len(toks) - 1].mean(axis=0), base, atol=1e-6)
