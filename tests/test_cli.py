"""Command-line surface: flags, exit codes, manifests, idempotence."""

import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eslong
from conftest import random_corpus, write_non_finite
from eslong.checkpoint import MAGIC, VERSION, read_checkpoint
from eslong.cli import main
from eslong.encoder import build_model, load_model, preset_config, save_model
from eslong.head import HeadConfig, fit_standardizer, init_head, save_head
from eslong.pipeline import EmbeddingRecord, ProteinRecord, read_store, write_fasta, write_store
from eslong.quant import QuantizedTensor, quantize_int4, quantize_model
from eslong.training import attach_lora


TOY_CONFIG = {
    "model": {"preset": "toy"},
    "train": {"epochs": 2, "learning_rate": 1e-3, "batch_size": 8, "seed": 0},
}


@pytest.fixture()
def workdir(tmp_path):
    rng = np.random.default_rng(0)
    records = [
        ProteinRecord(f"P{i:03d}", s) for i, s in enumerate(random_corpus(rng, 20, 10, 50))
    ]
    fasta = tmp_path / "corpus.fasta"
    write_fasta(fasta, records)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TOY_CONFIG))
    return tmp_path, fasta, config, records


class TestPretrain:
    def test_produces_checkpoint_runlog_manifest(self, workdir):
        tmp, fasta, config, _ = workdir
        out = tmp / "toy.eslg"
        assert main(["pretrain", "--config", str(config), "--fasta", str(fasta),
                     "--out", str(out)]) == 0
        assert out.exists()
        runlog = [json.loads(l) for l in open(str(out) + ".runlog.jsonl")]
        assert [r["epoch"] for r in runlog] == [1, 2]
        manifest = json.loads(open(str(out) + ".manifest.json").read())
        assert manifest["command"] == "pretrain"
        assert set(manifest["inputs"]) == {"fasta", "config"}
        assert all(len(v["sha256"]) == 64 for v in manifest["inputs"].values())

    def test_missing_fasta_exits_2(self, workdir):
        tmp, _, config, _ = workdir
        code = main(["pretrain", "--config", str(config),
                     "--fasta", str(tmp / "nope.fasta"), "--out", str(tmp / "x.eslg")])
        assert code == 2

    def test_bad_config_exits_2(self, workdir):
        tmp, fasta, _, _ = workdir
        bad = tmp / "bad.json"
        bad.write_text("{not json")
        assert main(["pretrain", "--config", str(bad), "--fasta", str(fasta),
                     "--out", str(tmp / "x.eslg")]) == 2

    def test_quantized_base_with_lora(self, workdir):
        tmp, fasta, config, _ = workdir
        out = tmp / "qlora.eslg"
        assert main(["pretrain", "--config", str(config), "--fasta", str(fasta),
                     "--out", str(out), "--quantize-base", "--lora-rank", "4"]) == 0
        model = load_model(out)
        assert model.is_quantized()
        assert model.adapters
        assert any(np.any(ad.B) for ad in model.adapters.values())

    def test_quantized_base_without_lora_exits_2(self, workdir):
        tmp, fasta, config, _ = workdir
        assert main(["pretrain", "--config", str(config), "--fasta", str(fasta),
                     "--out", str(tmp / "x.eslg"), "--quantize-base"]) == 2

    def test_seed_flag_changes_outcome(self, workdir):
        tmp, fasta, config, _ = workdir
        a, b, c = (tmp / n for n in ("a.eslg", "b.eslg", "c.eslg"))
        for path, seed in ((a, "1"), (b, "1"), (c, "2")):
            assert main(["pretrain", "--config", str(config), "--fasta", str(fasta),
                         "--out", str(path), "--seed", seed]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


class TestExtendQuantize:
    @pytest.fixture()
    def base_ckpt(self, workdir):
        tmp, fasta, config, _ = workdir
        out = tmp / "base.eslg"
        assert main(["pretrain", "--config", str(config), "--fasta", str(fasta),
                     "--out", str(out)]) == 0
        return tmp, out

    def test_extend_copy(self, base_ckpt):
        tmp, ckpt = base_ckpt
        out = tmp / "long.eslg"
        assert main(["extend", "--in", str(ckpt), "--out", str(out),
                     "--capacity", "160"]) == 0
        base = load_model(ckpt)
        longer = load_model(out)
        table = longer.params["position_embedding"]
        assert table.shape[0] == 160
        np.testing.assert_array_equal(table[:64], base.params["position_embedding"])
        np.testing.assert_array_equal(table[64], base.params["position_embedding"][0])

    def test_extend_to_2050_header(self, base_ckpt):
        tmp, ckpt = base_ckpt
        out = tmp / "long2050.eslg"
        assert main(["extend", "--in", str(ckpt), "--out", str(out),
                     "--capacity", "2050"]) == 0
        assert load_model(out).config.max_positions == 2050

    def test_extend_capacity_too_small_exits_2(self, base_ckpt):
        tmp, ckpt = base_ckpt
        assert main(["extend", "--in", str(ckpt), "--out", str(tmp / "x.eslg"),
                     "--capacity", "64"]) == 2

    def test_extend_random_reproducible(self, base_ckpt):
        tmp, ckpt = base_ckpt
        a, b = tmp / "ra.eslg", tmp / "rb.eslg"
        for path in (a, b):
            assert main(["extend", "--in", str(ckpt), "--out", str(path),
                         "--capacity", "96", "--strategy", "random", "--seed", "5"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_quantize_then_requantize_identical(self, base_ckpt):
        tmp, ckpt = base_ckpt
        q1, q2 = tmp / "q1.eslg", tmp / "q2.eslg"
        assert main(["quantize", "--in", str(ckpt), "--out", str(q1)]) == 0
        assert main(["quantize", "--in", str(q1), "--out", str(q2)]) == 0
        assert q1.read_bytes() == q2.read_bytes()
        model = load_model(q1)
        assert isinstance(model.params["layers.0.q_proj"], QuantizedTensor)

    def test_quantize_corrupt_input_exits_2(self, base_ckpt):
        tmp, ckpt = base_ckpt
        bad = tmp / "corrupt.eslg"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["quantize", "--in", str(bad), "--out", str(tmp / "x.eslg")]) == 2


class TestEmbed:
    @pytest.fixture()
    def model_and_corpus(self, workdir):
        tmp, fasta, config, records = workdir
        ckpt = tmp / "base.eslg"
        assert main(["pretrain", "--config", str(config), "--fasta", str(fasta),
                     "--out", str(ckpt)]) == 0
        return tmp, fasta, ckpt, records

    def test_slice_counts_in_manifest(self, model_and_corpus):
        tmp, _, ckpt, _ = model_and_corpus
        long_fasta = tmp / "long.fasta"
        rng = np.random.default_rng(1)
        write_fasta(long_fasta, [
            ProteinRecord("LONG1", "".join(rng.choice(list("ACDEFGHIKL"), size=150))),
            ProteinRecord("SHORT", "ACDEF"),
        ])
        out = tmp / "emb.esem"
        assert main(["embed", "--model", str(ckpt), "--fasta", str(long_fasta),
                     "--out", str(out), "--residue-limit", "62"]) == 0
        manifest = json.loads(open(str(out) + ".manifest.json").read())
        assert manifest["extra"]["slice_counts"] == {"LONG1": 3, "SHORT": 1}
        records, dim = read_store(out)
        assert dim == 32
        assert {r.protein_id: r.slice_count for r in records} == {"LONG1": 3, "SHORT": 1}

    def test_workers_do_not_change_bytes(self, model_and_corpus):
        tmp, fasta, ckpt, _ = model_and_corpus
        w1, w8 = tmp / "w1.esem", tmp / "w8.esem"
        assert main(["embed", "--model", str(ckpt), "--fasta", str(fasta),
                     "--out", str(w1), "--residue-limit", "62", "--workers", "1"]) == 0
        assert main(["embed", "--model", str(ckpt), "--fasta", str(fasta),
                     "--out", str(w8), "--residue-limit", "62", "--workers", "8"]) == 0
        assert w1.read_bytes() == w8.read_bytes()

    def test_limit_beyond_capacity_exits_2(self, model_and_corpus):
        tmp, fasta, ckpt, _ = model_and_corpus
        assert main(["embed", "--model", str(ckpt), "--fasta", str(fasta),
                     "--out", str(tmp / "x.esem"), "--residue-limit", "100"]) == 2

    def test_tsv_export(self, model_and_corpus):
        tmp, fasta, ckpt, records = model_and_corpus
        out, tsv = tmp / "e.esem", tmp / "e.tsv"
        assert main(["embed", "--model", str(ckpt), "--fasta", str(fasta),
                     "--out", str(out), "--tsv", str(tsv)]) == 0
        lines = tsv.read_text().strip().splitlines()
        assert len(lines) == len(records)
        assert len(lines[0].split("\t")) == 2 + 32


def assert_exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


# Finite stand-ins that saved_toy and saved_head_and_store turn into NaN and inf
# in the file, since write_checkpoint refuses to write non-finite values.
NAN_MARK, INF_MARK = 1234.5, -4321.5
MARKS = {NAN_MARK: np.nan, INF_MARK: np.inf}


def saved_toy(tmp, edit=None, lora_targets=()):
    """Path of a toy checkpoint, with rank-2 adapters on lora_targets;
    edit(tensors, config) may corrupt it first."""
    path = tmp / "toy.eslg"
    model = build_model(preset_config("toy"), seed=1)
    if lora_targets:
        model = attach_lora(model, lora_targets, rank=2, alpha=8.0)
    save_model(model, path)
    if edit is not None:
        tensors, config = read_checkpoint(path)
        edit(tensors, config)
        write_non_finite(path, tensors, config, MARKS)
    return path


def int4_with_scale(weight, scale):
    """weight quantized to int4, with its first block scale replaced."""
    quantized = quantize_int4(weight)
    quantized.scales[0] = scale
    return quantized


class TestInputProbes:
    """Malformed configs, corrupt checkpoints and out-of-range inputs exit 2
    with one error line, never a traceback or a partial-success exit 1."""

    @pytest.mark.parametrize("config", [
        {"model": {"preset": "toy"}, "train": {"epochs": 1, "learnig_rate": 1e-3}},
        [TOY_CONFIG],
        {"model": {"num_layers": 1, "num_heads": 2, "embed_dim": 8, "ffn_dim": 16,
                   "num_layer": 3}},
        {"model": {"num_layers": 1, "num_heads": 2, "embed_dim": 8, "ffn_dim": "16"}},
        {"model": {"preset": "toy"}, "train": {"learning_rate": float("nan")}},
        {"model": {"preset": "toy"}, "train": {"weight_decay": float("inf")}},
        {"model": {"preset": "toy"}, "train": {"beta1": float("nan")}},
        {"model": {"preset": "toy"}, "train": {"eps": -1}},
    ], ids=["unknown-train-key", "json-list", "unknown-model-key", "ill-typed-model-key",
            "nan-learning-rate", "infinite-weight-decay", "nan-beta1", "negative-eps"])
    def test_bad_config_exits_2(self, workdir, capsys, config):
        tmp, fasta, _, _ = workdir
        path = tmp / "probe.json"
        path.write_text(json.dumps(config))
        assert_exits_2_with_one_line(["pretrain", "--config", str(path), "--fasta", str(fasta),
                                      "--out", str(tmp / "x.eslg")], capsys)

    def test_nan_lora_alpha_exits_2(self, workdir, capsys):
        tmp, fasta, config, _ = workdir
        assert_exits_2_with_one_line(["pretrain", "--config", str(config), "--fasta", str(fasta),
                                      "--out", str(tmp / "x.eslg"), "--lora-rank", "2",
                                      "--lora-alpha", "nan"], capsys)

    def test_overflowing_model_prints_only_the_error_line(self, workdir):
        """NumPy's float warnings must not print ahead of the error line. Run in
        a subprocess: pytest captures warnings apart from stderr."""
        tmp, fasta, _, _ = workdir
        model = saved_toy(tmp, lambda tensors, config: tensors["layers.1.ffn_out"].fill(3e37))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eslong.__file__)))
        done = subprocess.run([sys.executable, "-c", "from eslong.cli import run; run()",
                               "embed", "--model", str(model), "--fasta", str(fasta),
                               "--out", str(tmp / "x.esem")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    @pytest.mark.parametrize("edit", [
        lambda tensors, config: config["model"].pop("ffn_dim"),
        lambda tensors, config: tensors.update(
            {"layers.0.q_proj": tensors["layers.0.q_proj"][:, :-1]}),
    ], ids=["config-lacks-ffn-dim", "wrong-shaped-weight"])
    def test_corrupt_checkpoint_exits_2(self, workdir, capsys, edit):
        tmp, fasta, _, _ = workdir
        assert_exits_2_with_one_line(["embed", "--model", str(saved_toy(tmp, edit)),
                                      "--fasta", str(fasta), "--out", str(tmp / "x.esem")],
                                     capsys)

    @pytest.mark.parametrize("edit", [
        lambda tensors, config: config["lora"]["layers.0.q_proj"].pop("rank"),
        lambda tensors, config: config["lora"]["layers.0.q_proj"].update(rank="2"),
        lambda tensors, config: tensors.pop("adapters.layers.0.q_proj.B"),
        lambda tensors, config: tensors.update({"adapters.layers.0.q_proj.A":
                                                tensors["adapters.layers.0.q_proj.A"][:, :-1]}),
        lambda tensors, config: config.pop("lora"),
    ], ids=["lora-lacks-rank", "lora-string-rank", "lora-lacks-B", "lora-wrong-shaped-A",
            "adapters-without-lora-entry"])
    def test_corrupt_lora_exits_2(self, workdir, capsys, edit):
        tmp, fasta, _, _ = workdir
        path = saved_toy(tmp, edit, lora_targets=["layers.0.q_proj"])
        assert_exits_2_with_one_line(["embed", "--model", str(path), "--fasta", str(fasta),
                                      "--out", str(tmp / "x.esem")], capsys)

    @pytest.mark.parametrize("edit,lora_targets", [
        (lambda tensors, config: tensors["layers.1.ffn_in"].__setitem__((0, 0), NAN_MARK), ()),
        (lambda tensors, config: tensors.update({"layers.0.q_proj": int4_with_scale(
            tensors["layers.0.q_proj"], INF_MARK)}), ()),
        (lambda tensors, config: tensors["adapters.layers.0.q_proj.A"].__setitem__(
            (0, 0), NAN_MARK), ["layers.0.q_proj"]),
    ], ids=["nan-dense-weight", "inf-int4-scale", "nan-adapter"])
    def test_non_finite_checkpoint_exits_2(self, workdir, capsys, edit, lora_targets):
        tmp, fasta, _, _ = workdir
        out = tmp / "x.esem"
        path = saved_toy(tmp, edit, lora_targets=lora_targets)
        assert_exits_2_with_one_line(["embed", "--model", str(path), "--fasta", str(fasta),
                                      "--out", str(out)], capsys)
        assert not out.exists()

    def test_huge_checkpoint_dims_exit_2(self, workdir, capsys):
        tmp, fasta, _, _ = workdir
        name = b"token_embedding"
        path = tmp / "huge.eslg"
        path.write_bytes(MAGIC + struct.pack("<II", VERSION, 1) + struct.pack("<H", len(name))
                         + name + struct.pack("<BBII", 0, 2, 2**31, 2**31))
        assert_exits_2_with_one_line(["embed", "--model", str(path), "--fasta", str(fasta),
                                      "--out", str(tmp / "x.esem")], capsys)

    def test_residue_limit_zero_exits_2(self, workdir, capsys):
        tmp, fasta, _, _ = workdir
        assert_exits_2_with_one_line(["embed", "--model", str(saved_toy(tmp)), "--fasta",
                                      str(fasta), "--out", str(tmp / "x.esem"),
                                      "--residue-limit", "0"], capsys)

    def test_overlong_fasta_id_exits_2(self, workdir, capsys):
        tmp, _, _, _ = workdir
        fasta = tmp / "longid.fasta"
        write_fasta(fasta, [ProteinRecord("P" * 70_000, "ACDEFGHIK")])
        out = tmp / "x.esem"
        assert_exits_2_with_one_line(["embed", "--model", str(saved_toy(tmp)), "--fasta",
                                      str(fasta), "--out", str(out)], capsys)
        assert not out.exists()


def saved_head_and_store(tmp, edit=None):
    """Paths of a 4-in, 3-term head checkpoint and a matching one-record store;
    edit(tensors, config) may corrupt the head first."""
    head_path, store_path = tmp / "head.eslg", tmp / "emb.esem"
    head = init_head(HeadConfig(input_dim=4, num_terms=3, hidden_dim=5), ["GO:1", "GO:2", "GO:3"])
    fit_standardizer(head, np.random.default_rng(0).normal(size=(6, 4)).astype(np.float32))
    save_head(head, head_path)
    if edit is not None:
        tensors, config = read_checkpoint(head_path)
        edit(tensors, config)
        write_non_finite(head_path, tensors, config, MARKS)
    write_store(store_path, [EmbeddingRecord("P1", np.ones(4, dtype=np.float32), 1)])
    return head_path, store_path


class TestHeadProbes:
    """predict on a corrupt head exits 2 with one error line: no traceback,
    and no silently truncated predictions."""

    def test_intact_head_predicts_every_term(self, tmp_path):
        head, store = saved_head_and_store(tmp_path)
        out = tmp_path / "pred.tsv"
        assert main(["predict", "--head", str(head), "--embeddings", str(store),
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("edit", [
        lambda tensors, config: config.pop("head"),
        lambda tensors, config: config["head"].update(dropout=0.1),
        lambda tensors, config: config["head"].update(hidden_dim="5"),
        lambda tensors, config: config["head"].update(learning_rate=float("nan")),
        lambda tensors, config: config["head"].update(seed=-1),
        lambda tensors, config: tensors.pop("W2"),
        lambda tensors, config: tensors.update(W1=tensors["W1"][:, :-1]),
        lambda tensors, config: tensors.update(W2=tensors["W2"][:, :-1]),
        lambda tensors, config: tensors.update(b2=tensors["b2"][:-1]),
        lambda tensors, config: config["term_list"].pop(),
        lambda tensors, config: config["term_list"].__setitem__(2, "GO:1"),
        lambda tensors, config: tensors.pop("feat_scale"),
        lambda tensors, config: tensors.update(feat_center=tensors["feat_center"][:-1]),
        lambda tensors, config: tensors["W1"].__setitem__((0, 0), NAN_MARK),
        lambda tensors, config: tensors.update(W3=tensors["W2"]),
    ], ids=["no-head-key", "unknown-head-key", "string-hidden-dim", "nan-learning-rate",
            "negative-seed", "no-W2", "wrong-shaped-W1", "W2-too-few-terms", "b2-too-few-terms",
            "short-term-list", "duplicate-term", "center-without-scale",
            "wrong-shaped-center", "nan-W1", "unused-tensor"])
    def test_corrupt_head_exits_2(self, tmp_path, capsys, edit):
        head, store = saved_head_and_store(tmp_path, edit)
        out = tmp_path / "pred.tsv"
        assert_exits_2_with_one_line(["predict", "--head", str(head), "--embeddings", str(store),
                                      "--out", str(out)], capsys)
        assert not out.exists()

    def test_negative_train_head_seed_exits_2(self, tmp_path, capsys):
        _, store = saved_head_and_store(tmp_path)
        truth = tmp_path / "truth.tsv"
        truth.write_text("P1\tGO:1\n")
        assert_exits_2_with_one_line(["train-head", "--embeddings", str(store), "--val-embeddings",
                                      str(store), "--truth", str(truth), "--out",
                                      str(tmp_path / "h.eslg"), "--seed", "-1"], capsys)

    def test_nan_train_head_lr_blames_the_rate(self, tmp_path, capsys):
        _, store = saved_head_and_store(tmp_path)
        truth = tmp_path / "truth.tsv"
        truth.write_text("P1\tGO:1\n")
        assert main(["train-head", "--embeddings", str(store), "--val-embeddings", str(store),
                     "--truth", str(truth), "--out", str(tmp_path / "h.eslg"),
                     "--lr", "nan"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "learning_rate" in err[0], err

    def test_nan_store_vector_exits_2(self, tmp_path, capsys):
        head, store = saved_head_and_store(tmp_path)
        store.write_bytes(store.read_bytes()[:-4] + struct.pack("<f", np.nan))
        out = tmp_path / "pred.tsv"
        assert_exits_2_with_one_line(["predict", "--head", str(head), "--embeddings", str(store),
                                      "--out", str(out)], capsys)
        assert not out.exists()

    def test_non_utf8_store_id_exits_2(self, tmp_path, capsys):
        head, store = saved_head_and_store(tmp_path)
        store.write_bytes(store.read_bytes().replace(b"P1", b"\xff\xfe", 1))
        assert_exits_2_with_one_line(["predict", "--head", str(head), "--embeddings", str(store),
                                      "--out", str(tmp_path / "pred.tsv")], capsys)


@st.composite
def corruptions(draw, size: int):
    """("cut", n) keeps the first n < size bytes; ("flip", bits) flips one to
    three of the size * 8 bits."""
    if draw(st.booleans()):
        return "cut", draw(st.integers(0, size - 1))
    return "flip", draw(st.lists(st.integers(0, 8 * size - 1), min_size=1, max_size=3))


def corrupt(data: bytes, corruption) -> bytes:
    kind, where = corruption
    if kind == "cut":
        return data[:where]
    out = bytearray(data)
    for bit in where:
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@pytest.fixture(scope="session")
def fuzz_files(tmp_path_factory):
    """Intact inputs for the fuzz test: a toy model in fp32 and with int4
    projections, a FASTA for it, and a head with a matching store."""
    tmp = tmp_path_factory.mktemp("fuzz")
    model = build_model(preset_config("toy"), seed=1)
    save_model(model, tmp / "model.eslg")
    save_model(quantize_model(model), tmp / "int4-model.eslg")
    rng = np.random.default_rng(2)
    write_fasta(tmp / "in.fasta", [ProteinRecord(f"P{i}", s)
                                   for i, s in enumerate(random_corpus(rng, 3, 5, 40))])
    saved_head_and_store(tmp)
    return tmp


class TestCorruptFileFuzz:
    """Truncated and bit-flipped checkpoints and stores through the CLI: each
    run exits 2 with one error line, or exits 0 with finite outputs. It never
    exits 1 (partial success) and never raises."""

    @staticmethod
    def run_cli(argv) -> int:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), (code, err.getvalue())
        if code == 2:
            lines = err.getvalue().strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        return code

    @pytest.mark.parametrize("target", ["model.eslg", "int4-model.eslg", "head.eslg",
                                        "emb.esem"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_corrupt_file_exits_2_or_gives_finite_output(self, fuzz_files, target, data):
        intact = (fuzz_files / target).read_bytes()
        bad = fuzz_files / f"bad-{target}"
        bad.write_bytes(corrupt(intact, data.draw(corruptions(len(intact)))))
        out = fuzz_files / "out"
        out.unlink(missing_ok=True)
        if target.endswith("model.eslg"):
            argv = ["embed", "--model", str(bad), "--fasta", str(fuzz_files / "in.fasta")]
        else:
            head = bad if target == "head.eslg" else fuzz_files / "head.eslg"
            store = bad if target == "emb.esem" else fuzz_files / "emb.esem"
            argv = ["predict", "--head", str(head), "--embeddings", str(store)]
        if self.run_cli(argv + ["--out", str(out)]) != 0:
            return
        if argv[0] == "embed":
            records, _ = read_store(out)
            assert all(np.isfinite(rec.vector).all() for rec in records)
        else:
            scores = [float(line.split("\t")[2]) for line in out.read_text().splitlines()]
            assert all(math.isfinite(x) for x in scores)


def build_eval_fixtures(tmp):
    ontology = tmp / "onto.tsv"
    ontology.write_text("alpha\troot\nbeta\troot\n")
    truth = tmp / "truth.tsv"
    truth.write_text("P000\talpha\nP001\tbeta\n")
    pred = tmp / "pred.tsv"
    pred.write_text(
        "P000\talpha\t0.9\nP000\troot\t0.9\nP001\tbeta\t0.8\nP001\troot\t0.8\n"
    )
    return ontology, truth, pred


class TestEvalCommand:
    def test_perfect_predictions_report(self, tmp_path):
        onto, truth, pred = build_eval_fixtures(tmp_path)
        out = tmp_path / "report.json"
        assert main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--ontology", str(onto), "--namespace", "BPO",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["fmax"] == pytest.approx(1.0)
        assert report["namespace"] == "BPO"

    def test_id_mismatch_exits_2(self, tmp_path, capsys):
        onto, truth, pred = build_eval_fixtures(tmp_path)
        pred.write_text("GHOST\talpha\t0.9\n")
        code = main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--ontology", str(onto), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "GHOST" in capsys.readouterr().err

    def test_min_length_stratified(self, tmp_path):
        onto, truth, pred = build_eval_fixtures(tmp_path)
        fasta = tmp_path / "lens.fasta"
        write_fasta(fasta, [ProteinRecord("P000", "A" * 1500), ProteinRecord("P001", "AC")])
        out = tmp_path / "strat.json"
        assert main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--ontology", str(onto), "--fasta", str(fasta),
                     "--min-length", "1024", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["n"] == 1

    def test_min_length_without_fasta_exits_2(self, tmp_path):
        onto, truth, pred = build_eval_fixtures(tmp_path)
        assert main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--ontology", str(onto), "--min-length", "10",
                     "--out", str(tmp_path / "r.json")]) == 2

    def test_exclude_roots_and_curve_export(self, tmp_path):
        onto, truth, pred = build_eval_fixtures(tmp_path)
        out = tmp_path / "r.json"
        curve = tmp_path / "curve.tsv"
        assert main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--ontology", str(onto), "--exclude-roots",
                     "--out", str(out), "--curve-tsv", str(curve)]) == 0
        header = curve.read_text().splitlines()[0]
        assert header == "tau\tpr\trc\tf\tm"
