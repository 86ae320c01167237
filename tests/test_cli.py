"""Command-line surface: flags, exit codes, manifests, idempotence."""

import contextlib
import hashlib
import io
import json
import logging
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eslong
from conftest import random_corpus, tiny_config, write_non_finite
from eslong.checkpoint import MAGIC, VERSION, read_checkpoint
from eslong.cli import main
from eslong.encoder import build_model, load_model, preset_config, save_model
from eslong.head import HeadConfig, fit_standardizer, init_head, save_head
from eslong.ontology import load_annotations, save_annotations
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

    def test_manifest_records_the_init_from_checkpoint(self, workdir):
        tmp, fasta, config, _ = workdir
        base, out = tmp / "base.eslg", tmp / "adapted.eslg"
        save_model(build_model(preset_config("toy"), seed=1), base)
        assert main(["pretrain", "--config", str(config), "--fasta", str(fasta),
                     "--out", str(out), "--init-from", str(base)]) == 0
        manifest = json.loads(open(str(out) + ".manifest.json").read())
        assert manifest["inputs"]["init_from"] == {
            "path": str(base), "sha256": hashlib.sha256(base.read_bytes()).hexdigest()}

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

    @pytest.mark.parametrize("error", [
        MemoryError("Unable to allocate 1.16 TiB for an array with shape (400000, 400000) "
                    "and data type float64"),
        MemoryError()], ids=["numpy", "bare"])
    def test_model_too_large_for_memory_exits_2(self, workdir, monkeypatch, capsys, error):
        """A model the process cannot allocate is one error line and exit 2,
        not a traceback and exit 1. build_model raises in place of allocating
        the 400,000-wide model, so no test host tries to."""
        tmp, fasta, _, _ = workdir
        config = tmp / "huge.json"
        config.write_text(json.dumps({
            "model": {"num_layers": 1, "num_heads": 20, "embed_dim": 400_000,
                      "ffn_dim": 1_600_000, "max_positions": 12},
            "train": {"epochs": 1, "seed": 0}}))

        def build_model(*_):
            raise error

        monkeypatch.setattr(eslong.cli, "build_model", build_model)
        out = tmp / "huge.eslg"
        assert main(["pretrain", "--config", str(config), "--fasta", str(fasta),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: out of memory: {error}" if str(error) else "error: out of memory"]
        assert not out.exists()

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

    def test_cls_pool_on_local_attention_warns(self, workdir, caplog):
        tmp, fasta, _, _ = workdir
        ckpt = tmp / "local.eslg"
        save_model(build_model(tiny_config("local", window_k=4, max_positions=48), seed=0), ckpt)
        for pool, warnings in (("mean", []), ("cls", ["WARNING"])):
            caplog.clear()
            assert main(["embed", "--model", str(ckpt), "--fasta", str(fasta),
                         "--out", str(tmp / f"{pool}.esem"), "--pool", pool]) == 0
            assert [r.levelname for r in caplog.records] == warnings
        assert "at most the first 4 residues" in caplog.records[0].getMessage()

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
        {"model": {"preset": "toy"}, "train": {"epochs": True}},
        {"model": {"preset": "toy"}, "train": {"batch_size": "8"}},
        {"model": {"preset": "toy"}, "train": []},
        {"model": {"preset": "toy", "attention_mode": "global", "window_k": 8}},
        {"model": {"num_layers": 1, "num_heads": 2, "embed_dim": 8, "ffn_dim": 16,
                   "window_k": 8}},
        {"model": {"preset": "toy", "num_layers": 3}},
        {"model": {"preset": 6}},
    ], ids=["unknown-train-key", "json-list", "unknown-model-key", "ill-typed-model-key",
            "nan-learning-rate", "infinite-weight-decay", "nan-beta1", "negative-eps",
            "bool-epochs", "string-batch-size", "train-list", "window-k-with-global",
            "window-k-without-mode", "preset-with-dimensions", "non-string-preset"])
    def test_bad_config_exits_2(self, workdir, capsys, config):
        tmp, fasta, _, _ = workdir
        path = tmp / "probe.json"
        path.write_text(json.dumps(config))
        assert_exits_2_with_one_line(["pretrain", "--config", str(path), "--fasta", str(fasta),
                                      "--out", str(tmp / "x.eslg")], capsys)

    def test_missing_config_file_exits_2(self, workdir, capsys):
        tmp, fasta, _, _ = workdir
        assert_exits_2_with_one_line(["pretrain", "--config", str(tmp / "none.json"), "--fasta",
                                      str(fasta), "--out", str(tmp / "x.eslg")], capsys)

    def test_lora_rank_zero_exits_2(self, workdir, capsys):
        tmp, fasta, config, _ = workdir
        out = tmp / "x.eslg"
        assert_exits_2_with_one_line(["pretrain", "--config", str(config), "--fasta", str(fasta),
                                      "--out", str(out), "--lora-rank", "0"], capsys)
        assert not out.exists()

    def test_nan_lora_alpha_exits_2(self, workdir, capsys):
        tmp, fasta, config, _ = workdir
        assert_exits_2_with_one_line(["pretrain", "--config", str(config), "--fasta", str(fasta),
                                      "--out", str(tmp / "x.eslg"), "--lora-rank", "2",
                                      "--lora-alpha", "nan"], capsys)

    @pytest.mark.parametrize("command", ["embed", "pretrain", "eval-ontology", "eval-fasta"])
    def test_non_utf8_text_exits_2(self, workdir, capsys, command):
        tmp, fasta, config, _ = workdir
        onto, truth, pred = build_eval_fixtures(tmp)
        bad = tmp / "bad.txt"
        if command == "eval-ontology":
            bad.write_bytes(onto.read_bytes().replace(b"beta", b"b\xffta"))
        else:
            bad.write_bytes(fasta.read_bytes().replace(b"P001", b"P\xff01"))
        evaluate = ["eval", "--pred", str(pred), "--truth", str(truth)]
        argv = {
            "embed": ["embed", "--model", str(saved_toy(tmp)), "--fasta", str(bad),
                      "--out", str(tmp / "x.esem")],
            "pretrain": ["pretrain", "--config", str(config), "--fasta", str(bad),
                         "--out", str(tmp / "x.eslg")],
            "eval-ontology": evaluate + ["--ontology", str(bad)],
            "eval-fasta": evaluate + ["--ontology", str(onto), "--fasta", str(bad),
                                      "--min-length", "1"],
        }[command]
        assert_exits_2_with_one_line(argv, capsys)

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

    @pytest.mark.parametrize("case", ["eval-pred-directory", "eval-out-directory",
                                      "predict-out-under-a-file"])
    def test_path_of_the_wrong_kind_exits_2(self, tmp_path, capsys, case):
        onto, truth, pred = build_eval_fixtures(tmp_path)
        evaluate = ["eval", "--truth", str(truth), "--ontology", str(onto)]
        head, store = saved_head_and_store(tmp_path)
        argv = {
            "eval-pred-directory": evaluate + ["--pred", str(tmp_path)],
            "eval-out-directory": evaluate + ["--pred", str(pred), "--out", str(tmp_path)],
            "predict-out-under-a-file": ["predict", "--head", str(head), "--embeddings",
                                         str(store), "--out", str(pred / "pred.tsv")],
        }[case]
        assert_exits_2_with_one_line(argv, capsys)

    def test_runs_as_a_module(self, tmp_path):
        """python -m eslong.cli is the CLI: argparse rejects a command missing
        its required options with exit 2, and --help exits 0."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eslong.__file__)))
        run = [sys.executable, "-m", "eslong.cli"]
        done = subprocess.run(run + ["eval"], capture_output=True, text=True, env=env,
                              timeout=120, cwd=tmp_path)
        assert done.returncode == 2
        assert done.stderr.startswith("usage: eslong eval"), done.stderr
        done = subprocess.run(run + ["--help"], capture_output=True, text=True, env=env,
                              timeout=120, cwd=tmp_path)
        assert done.returncode == 0
        assert done.stdout.startswith("usage: eslong"), done.stdout

    def test_cli_import_leaves_scipy_unloaded(self):
        """scipy is imported only by the float64 GELU path, so a CLI start does
        not pay for it. Run in a subprocess: the test run itself imports scipy."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eslong.__file__)))
        probe = "import sys, eslong.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
        done = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("edit", [
        lambda tensors, config: config["model"].pop("ffn_dim"),
        lambda tensors, config: tensors.update(
            {"layers.0.q_proj": tensors["layers.0.q_proj"][:, :-1]}),
        lambda tensors, config: tensors.pop("layers.1.ffn_in"),
    ], ids=["config-lacks-ffn-dim", "wrong-shaped-weight", "missing-tensor"])
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
        lambda tensors, config: config["lora"].update(
            {"layers.0.attn_ln.gain": {"rank": 2, "alpha": 8.0}}),
        lambda tensors, config: config.update(lora=[config["lora"]]),
    ], ids=["lora-lacks-rank", "lora-string-rank", "lora-lacks-B", "lora-wrong-shaped-A",
            "adapters-without-lora-entry", "lora-on-a-layer-norm", "lora-not-an-object"])
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
        lambda tensors, config: config["head"].update(epochs=True),
        lambda tensors, config: config["head"].update(learning_rate="0.001"),
    ], ids=["no-head-key", "unknown-head-key", "string-hidden-dim", "nan-learning-rate",
            "negative-seed", "no-W2", "wrong-shaped-W1", "W2-too-few-terms", "b2-too-few-terms",
            "short-term-list", "duplicate-term", "center-without-scale",
            "wrong-shaped-center", "nan-W1", "unused-tensor", "bool-epochs",
            "string-learning-rate"])
    def test_corrupt_head_exits_2(self, tmp_path, capsys, edit):
        head, store = saved_head_and_store(tmp_path, edit)
        out = tmp_path / "pred.tsv"
        assert_exits_2_with_one_line(["predict", "--head", str(head), "--embeddings", str(store),
                                      "--out", str(out)], capsys)
        assert not out.exists()

    @pytest.mark.parametrize("case", ["train-head-val-dim", "predict-store-dim",
                                      "predict-close-scores-without-ontology"])
    def test_mismatched_inputs_exit_2(self, tmp_path, capsys, case):
        head, store = saved_head_and_store(tmp_path)
        wide = tmp_path / "wide.esem"
        write_store(wide, [EmbeddingRecord("P1", np.ones(5, dtype=np.float32), 1)])
        truth = tmp_path / "truth.tsv"
        truth.write_text("P1\tGO:1\n")
        out = tmp_path / "out"
        predict = ["predict", "--head", str(head), "--out", str(out)]
        argv = {
            "train-head-val-dim": ["train-head", "--embeddings", str(store), "--val-embeddings",
                                   str(wide), "--truth", str(truth), "--out", str(out)],
            "predict-store-dim": predict + ["--embeddings", str(wide)],
            "predict-close-scores-without-ontology": predict + ["--embeddings", str(store),
                                                                "--close-scores"],
        }[case]
        assert_exits_2_with_one_line(argv, capsys)
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

    def test_empty_training_store_exits_2(self, tmp_path, capsys):
        _, store = saved_head_and_store(tmp_path)
        empty = tmp_path / "empty.esem"
        write_store(empty, [], embed_dim=4)
        truth = tmp_path / "truth.tsv"
        truth.write_text("P1\tGO:1\n")
        assert_exits_2_with_one_line(["train-head", "--embeddings", str(empty),
                                      "--val-embeddings", str(store), "--truth", str(truth),
                                      "--out", str(tmp_path / "h.eslg")], capsys)

    def test_empty_validation_store_exits_2(self, tmp_path, capsys):
        # named before training starts, not after a whole epoch
        _, store = saved_head_and_store(tmp_path)
        empty = tmp_path / "empty.esem"
        write_store(empty, [], embed_dim=4)
        truth = tmp_path / "truth.tsv"
        truth.write_text("P1\tGO:1\n")
        argv = ["train-head", "--embeddings", str(store), "--val-embeddings", str(empty),
                "--truth", str(truth), "--out", str(tmp_path / "h.eslg")]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "validation store" in err[0], err

    def test_nan_store_vector_exits_2(self, tmp_path, capsys):
        head, store = saved_head_and_store(tmp_path)
        store.write_bytes(store.read_bytes()[:-4] + struct.pack("<f", np.nan))
        out = tmp_path / "pred.tsv"
        assert_exits_2_with_one_line(["predict", "--head", str(head), "--embeddings", str(store),
                                      "--out", str(out)], capsys)
        assert not out.exists()

    def test_unannotated_validation_protein_exits_2(self, tmp_path, capsys):
        _, store = saved_head_and_store(tmp_path)
        val = tmp_path / "val.esem"
        write_store(val, [EmbeddingRecord("V1", np.ones(4, dtype=np.float32), 1)])
        truth = tmp_path / "truth.tsv"
        truth.write_text("P1\tGO:1\n")
        assert_exits_2_with_one_line(["train-head", "--embeddings", str(store),
                                      "--val-embeddings", str(val), "--truth", str(truth),
                                      "--out", str(tmp_path / "h.eslg")], capsys)

    def test_repeated_store_id_exits_2(self, tmp_path, capsys):
        head, store = saved_head_and_store(tmp_path)
        write_store(store, [EmbeddingRecord(pid, np.ones(4, dtype=np.float32), 1)
                            for pid in ("P1", "P2")])
        store.write_bytes(store.read_bytes().replace(b"P2", b"P1"))
        out = tmp_path / "pred.tsv"
        assert_exits_2_with_one_line(["predict", "--head", str(head), "--embeddings", str(store),
                                      "--out", str(out)], capsys)
        assert not out.exists()

    def test_non_utf8_store_id_exits_2(self, tmp_path, capsys):
        head, store = saved_head_and_store(tmp_path)
        store.write_bytes(store.read_bytes().replace(b"P1", b"\xff\xfe", 1))
        assert_exits_2_with_one_line(["predict", "--head", str(head), "--embeddings", str(store),
                                      "--out", str(tmp_path / "pred.tsv")], capsys)


def head_task(tmp):
    """Paths of a seeded 24-record training store and an 8-record validation
    store, in 6 dimensions, and their truth over 4 terms."""
    rng = np.random.default_rng(4)
    paths, lines = [], []
    for name, count in (("T", 24), ("V", 8)):
        records = [EmbeddingRecord(f"{name}{i}", rng.normal(size=6).astype(np.float32), 1)
                   for i in range(count)]
        write_store(tmp / f"{name}.esem", records)
        paths.append(tmp / f"{name}.esem")
        for rec in records:
            lines += [f"{rec.protein_id}\tGO:{k}\n" for k in range(3) if rec.vector[k] > 0]
            lines.append(f"{rec.protein_id}\tGO:root\n")
    truth = tmp / "truth.tsv"
    truth.write_text("".join(lines))
    return paths[0], paths[1], truth


class TestRecordedBits:
    """The trainers keep their outputs' bits: the checkpoint, the epoch log
    without wall_ms, and the manifest's config."""

    # sha256 (first 16 hex digits) of each output of these runs, recorded with
    # the trainers as they were before they shared one epoch loop, on x86-64
    # with numpy 2.4 and OpenBLAS 0.3.31; another BLAS build may round
    # differently.
    RECORDED = {
        "pretrain": {"checkpoint": "28286262111899dd", "log": "a9e3a3e0f747b99c",
                     "config": "d858ce44ccb4c43c"},
        "pretrain-int4-lora": {"checkpoint": "0533ba9ecfc4bfd9", "log": "5a0e6f7c02a09d61",
                               "config": "d858ce44ccb4c43c"},
        "train-head": {"checkpoint": "241e6c24c5343f90", "log": "3d4380852fc76e11",
                       "config": "fe0f0eb63e011b2a"},
    }

    @pytest.mark.parametrize("case", ["pretrain", "pretrain-int4-lora", "train-head"])
    def test_outputs_keep_recorded_bits(self, workdir, case):
        tmp, fasta, config, _ = workdir
        if case == "train-head":
            train, val, truth = head_task(tmp)
            out, log = tmp / "head.eslg", tmp / "head.eslg.metrics.jsonl"
            argv = ["train-head", "--embeddings", str(train), "--val-embeddings", str(val),
                    "--truth", str(truth), "--out", str(out), "--hidden", "8",
                    "--epochs", "5", "--batch", "8", "--lr", "0.03", "--seed", "3"]
        else:
            out, log = tmp / "toy.eslg", tmp / "toy.eslg.runlog.jsonl"
            argv = ["pretrain", "--config", str(config), "--fasta", str(fasta),
                    "--out", str(out)]
            if case == "pretrain-int4-lora":
                argv += ["--quantize-base", "--lora-rank", "2", "--block-size", "32"]
        assert main(argv) == 0
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert all(list(record)[-1] == "wall_ms" for record in records)
        manifest = json.loads((tmp / f"{out.name}.manifest.json").read_text())
        outputs = {
            "checkpoint": out.read_bytes(),
            "log": "".join(json.dumps({k: v for k, v in record.items() if k != "wall_ms"}) + "\n"
                           for record in records).encode(),
            "config": json.dumps(manifest["config"], sort_keys=True).encode(),
        }
        got = {part: hashlib.sha256(data).hexdigest()[:16] for part, data in outputs.items()}
        assert got == self.RECORDED[case]


@pytest.fixture(scope="module")
def command_chain(tmp_path_factory):
    """Runs all seven commands once, in chain order. Returns, by command, its
    --out path, the inputs (name -> path) and the seed its manifest should
    record."""
    tmp = tmp_path_factory.mktemp("chain")
    rng = np.random.default_rng(0)
    fasta = tmp / "corpus.fasta"
    write_fasta(fasta, [ProteinRecord(f"P{i}", s)
                        for i, s in enumerate(random_corpus(rng, 6, 10, 50))])
    config = tmp / "config.json"
    config.write_text(json.dumps(TOY_CONFIG))
    train, val, truth = head_task(tmp)
    onto = tmp / "onto.tsv"
    onto.write_text("".join(f"GO:{k}\tGO:root\n" for k in range(3)))
    p = {name: tmp / name for name in ("toy.eslg", "ext.eslg", "q.eslg", "emb.esem",
                                       "head.eslg", "pred.tsv", "report.json")}
    runs = {
        "pretrain": (["--config", config, "--fasta", fasta, "--out", p["toy.eslg"]],
                     {"config": config, "fasta": fasta}, 0),
        "extend": (["--in", p["toy.eslg"], "--out", p["ext.eslg"], "--capacity", "80",
                    "--seed", "5"], {"checkpoint": p["toy.eslg"]}, 5),
        "quantize": (["--in", p["ext.eslg"], "--out", p["q.eslg"], "--block-size", "32"],
                     {"checkpoint": p["ext.eslg"]}, None),
        "embed": (["--model", p["q.eslg"], "--fasta", fasta, "--out", p["emb.esem"]],
                  {"model": p["q.eslg"], "fasta": fasta}, None),
        "train-head": (["--embeddings", train, "--val-embeddings", val, "--truth", truth,
                        "--ontology", onto, "--out", p["head.eslg"], "--hidden", "8",
                        "--epochs", "2", "--batch", "8", "--seed", "3"],
                       {"embeddings": train, "val_embeddings": val, "truth": truth,
                        "ontology": onto}, 3),
        "predict": (["--head", p["head.eslg"], "--embeddings", val, "--ontology", onto,
                     "--close-scores", "--out", p["pred.tsv"]],
                    {"head": p["head.eslg"], "embeddings": val, "ontology": onto}, None),
        "eval": (["--pred", p["pred.tsv"], "--truth", truth, "--ontology", onto,
                  "--out", p["report.json"]],
                 {"pred": p["pred.tsv"], "truth": truth, "ontology": onto}, None),
    }
    chain = {}
    for command, (argv, inputs, seed) in runs.items():
        assert main([command, *map(str, argv)]) == 0, command
        chain[command] = (argv[argv.index("--out") + 1], inputs, seed)
    return chain


@pytest.mark.parametrize("command", ["pretrain", "extend", "quantize", "embed", "train-head",
                                     "predict", "eval"])
def test_every_command_writes_its_manifest(command_chain, command):
    out, inputs, seed = command_chain[command]
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["inputs"] == {
        name: {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        for name, path in inputs.items()}
    assert manifest["seed"] == seed
    assert isinstance(manifest["wall_ms"], int) and manifest["wall_ms"] >= 0


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


FUZZ_CONFIG = {
    "model": {"num_layers": 1, "num_heads": 2, "embed_dim": 8, "ffn_dim": 16,
              "max_positions": 48, "attention_mode": "local", "window_k": 4},
    "train": {"epochs": 1, "learning_rate": 0.001, "batch_size": 2, "seed": 0},
}


@pytest.fixture(scope="session")
def fuzz_files(tmp_path_factory):
    """Intact inputs for the fuzz test: a toy model in fp32 and with int4
    projections, a FASTA for it, a head with a matching store, the eval
    inputs of build_eval_fixtures and a small pretrain config."""
    tmp = tmp_path_factory.mktemp("fuzz")
    build_eval_fixtures(tmp)
    (tmp / "config.json").write_text(json.dumps(FUZZ_CONFIG, indent=1))
    model = build_model(preset_config("toy"), seed=1)
    save_model(model, tmp / "model.eslg")
    save_model(quantize_model(model), tmp / "int4-model.eslg")
    rng = np.random.default_rng(2)
    write_fasta(tmp / "in.fasta", [ProteinRecord(f"P{i}", s)
                                   for i, s in enumerate(random_corpus(rng, 3, 5, 40))])
    saved_head_and_store(tmp)
    return tmp


class TestCorruptFileFuzz:
    """Truncated and bit-flipped checkpoints, stores and text inputs through
    the CLI: each run exits 2 with one error line, or exits 0 with finite
    outputs. It never exits 1 (partial success) and never raises."""

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

    @pytest.mark.parametrize("target", ["pred.tsv", "truth.tsv", "config.json", "in.fasta",
                                        "onto.tsv"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_corrupt_text_exits_2_or_gives_finite_output(self, fuzz_files, target, data):
        intact = (fuzz_files / target).read_bytes()
        bad = fuzz_files / f"bad-{target}"
        bad.write_bytes(corrupt(intact, data.draw(corruptions(len(intact)))))
        out = fuzz_files / "out"
        out.unlink(missing_ok=True)
        fasta = bad if target == "in.fasta" else fuzz_files / "in.fasta"
        config = bad if target == "config.json" else fuzz_files / "config.json"
        if target == "config.json" or (target == "in.fasta" and data.draw(st.booleans())):
            argv = ["pretrain", "--config", str(config), "--fasta", str(fasta)]
        elif target == "in.fasta":
            argv = ["embed", "--model", str(fuzz_files / "model.eslg"), "--fasta", str(fasta)]
        else:
            pred = bad if target == "pred.tsv" else fuzz_files / "pred.tsv"
            truth = bad if target == "truth.tsv" else fuzz_files / "truth.tsv"
            onto = bad if target == "onto.tsv" else fuzz_files / "onto.tsv"
            argv = ["eval", "--pred", str(pred), "--truth", str(truth), "--ontology", str(onto)]
            if data.draw(st.booleans()):
                argv.append("--close-scores")
        if self.run_cli(argv + ["--out", str(out)]) != 0:
            return
        if argv[0] == "embed":
            records, _ = read_store(out)
            assert all(np.isfinite(rec.vector).all() for rec in records)
        elif argv[0] == "pretrain":
            load_model(out)  # rejects NaN or inf weights
        else:
            report = json.loads(out.read_text())
            values = [report["fmax"]] + [point[key] for point in report["curve"]
                                         for key in ("pr", "rc", "f")]
            assert all(math.isfinite(x) for x in values)


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

    def test_min_length_keeps_the_unknown_protein_check(self, tmp_path, capsys):
        onto, truth, pred = build_eval_fixtures(tmp_path)
        pred.write_text(pred.read_text() + "ZZ\talpha\t0.5\n")
        fasta = tmp_path / "lens.fasta"
        write_fasta(fasta, [ProteinRecord("P000", "A" * 1500), ProteinRecord("P001", "AC")])
        assert_exits_2_with_one_line(["eval", "--pred", str(pred), "--truth", str(truth),
                                      "--ontology", str(onto), "--fasta", str(fasta),
                                      "--min-length", "1024"], capsys)

    def test_min_length_without_fasta_exits_2(self, tmp_path):
        onto, truth, pred = build_eval_fixtures(tmp_path)
        assert main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--ontology", str(onto), "--min-length", "10",
                     "--out", str(tmp_path / "r.json")]) == 2

    def test_manifest_records_the_sha256_of_each_input(self, tmp_path):
        onto, truth, pred = build_eval_fixtures(tmp_path)
        save_annotations(pred, load_annotations(pred))  # with a binary table beside it
        out = tmp_path / "r.json"
        assert main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--ontology", str(onto), "--out", str(out)]) == 0
        inputs = json.loads((tmp_path / "r.json.manifest.json").read_text())["inputs"]
        assert inputs == {name: {"path": str(path),
                                 "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
                          for name, path in (("pred", pred), ("truth", truth),
                                             ("ontology", onto))}

    def test_exclude_roots_and_curve_export(self, tmp_path):
        onto, truth, pred = build_eval_fixtures(tmp_path)
        out = tmp_path / "r.json"
        curve = tmp_path / "curve.tsv"
        assert main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--ontology", str(onto), "--exclude-roots",
                     "--out", str(out), "--curve-tsv", str(curve)]) == 0
        header = curve.read_text().splitlines()[0]
        assert header == "tau\tpr\trc\tf\tm"

    @staticmethod
    def root_only_fixtures(tmp, truth_text, pred_text):
        onto, truth, pred = tmp / "onto.tsv", tmp / "truth.tsv", tmp / "pred.tsv"
        onto.write_text("".join(f"GO:{k}\tGO:root\n" for k in range(3)))
        truth.write_text(truth_text)
        pred.write_text(pred_text)
        return ["eval", "--pred", str(pred), "--truth", str(truth), "--ontology", str(onto),
                "--exclude-roots"]

    def test_exclude_roots_leaves_out_root_only_proteins(self, tmp_path, capsys):
        argv = self.root_only_fixtures(tmp_path, "V1\tGO:0\nV2\tGO:root\n",
                                       "V1\tGO:0\t0.9\nV2\tGO:1\t0.4\n")
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 1 and report["fmax"] == pytest.approx(1.0)

    @pytest.mark.parametrize("truth_text,pred_text", [
        ("V1\tGO:0\nV2\tGO:root\n", "V1\tGO:0\t0.9\nV3\tGO:1\t0.4\n"),
        ("V2\tGO:root\n", "V2\tGO:1\t0.4\n"),
    ], ids=["prediction-outside-the-truth", "only-root-only-proteins"])
    def test_exclude_roots_keeps_the_truth_checks(self, tmp_path, capsys, truth_text,
                                                  pred_text):
        assert_exits_2_with_one_line(self.root_only_fixtures(tmp_path, truth_text, pred_text),
                                     capsys)

    def test_curve_export_without_out(self, tmp_path, capsys):
        onto, truth, pred = build_eval_fixtures(tmp_path)
        curve = tmp_path / "curve.tsv"
        before = set(tmp_path.iterdir())
        assert main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--ontology", str(onto), "--curve-tsv", str(curve)]) == 0
        assert json.loads(capsys.readouterr().out)["fmax"] == pytest.approx(1.0)
        assert curve.read_text().splitlines()[0] == "tau\tpr\trc\tf\tm"
        assert set(tmp_path.iterdir()) - before == {curve}


def table_with_index(data: bytes, index: int) -> bytes:
    """A binary score table whose first term index is replaced."""
    _, _, _, proteins, _, _, id_bytes = struct.unpack_from("<4sI32sQQQQ", data)
    at = 72 + id_bytes + 8 * (proteins + 1)
    return data[:at] + struct.pack("<I", index) + data[at + 4:]


def table_with_term_count(data: bytes, count: int) -> bytes:
    """A binary score table whose header claims count terms."""
    return data[:48] + struct.pack("<Q", count) + data[56:]


def table_with_pointer(data: bytes, row: int, value: int) -> bytes:
    """A binary score table with one row pointer replaced."""
    id_bytes = struct.unpack_from("<Q", data, 64)[0]
    at = 72 + id_bytes + 8 * row
    return data[:at] + struct.pack("<q", value) + data[at + 8:]


class TestPredTable:
    """eval reads the binary score table predict writes beside pred.tsv only
    while it matches the TSV, and says which it read in its manifest."""

    @staticmethod
    def eval_argv(tmp, pred, out):
        return ["eval", "--pred", str(pred), "--truth", str(tmp / "truth.tsv"),
                "--ontology", str(tmp / "onto.tsv"), "--close-scores", "--out", str(out)]

    @staticmethod
    def pred_table(report) -> bool:
        manifest = report.with_name(report.name + ".manifest.json")
        return json.loads(manifest.read_text())["extra"]["pred_table"]

    def test_predict_then_eval_reads_the_table_until_the_tsv_is_edited(self, tmp_path):
        head, store = saved_head_and_store(tmp_path)
        (tmp_path / "onto.tsv").write_text("GO:1\tGO:3\nGO:2\tGO:3\n")
        (tmp_path / "truth.tsv").write_text("P1\tGO:1\n")
        pred = tmp_path / "pred.tsv"
        assert main(["predict", "--head", str(head), "--embeddings", str(store),
                     "--out", str(pred)]) == 0
        assert main(self.eval_argv(tmp_path, pred, tmp_path / "r.json")) == 0
        assert self.pred_table(tmp_path / "r.json") is True

        data = bytearray(pred.read_bytes())
        at = data.index(b"\t0.") + 3  # the first digit of the first score below 1
        data[at] = ord("9") if data[at] != ord("9") else ord("1")
        pred.write_bytes(data)
        copy = tmp_path / "copy.tsv"  # the edited TSV with no table beside it
        copy.write_bytes(data)
        assert main(self.eval_argv(tmp_path, pred, tmp_path / "edited.json")) == 0
        assert main(self.eval_argv(tmp_path, copy, tmp_path / "copy.json")) == 0
        assert self.pred_table(tmp_path / "edited.json") is False
        assert (tmp_path / "edited.json").read_bytes() == (tmp_path / "copy.json").read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda data: data[:-1],
        lambda data: b"XSCT" + data[4:],
        lambda data: data + b"\0",
        lambda data: table_with_index(data, 3),
        lambda data: data[:72] + b"\xff" + data[73:],
        lambda data: table_with_term_count(data, 4),
        lambda data: table_with_pointer(data, 1, 5),
        lambda data: data[:-8] + struct.pack("<d", 1.5),
    ], ids=["truncated", "wrong-magic", "trailing-bytes", "index-out-of-range",
            "non-utf8-id", "wrong-id-count", "non-monotone-pointers", "score-above-1"])
    def test_bad_table_gives_the_tsv_table_and_one_warning(self, tmp_path, caplog, edit):
        onto, truth, pred = build_eval_fixtures(tmp_path)
        save_annotations(pred, load_annotations(pred))
        table = tmp_path / "pred.tsv.esct"
        table.write_bytes(edit(table.read_bytes()))
        parsed = load_annotations(pred.read_text())
        caplog.clear()
        got = load_annotations(pred)
        assert not got.from_binary
        assert got.proteins == parsed.proteins and got.terms == parsed.terms
        assert got.scores.tobytes() == parsed.scores.tobytes()
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert main(self.eval_argv(tmp_path, pred, tmp_path / "r.json")) == 0
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert self.pred_table(tmp_path / "r.json") is False
