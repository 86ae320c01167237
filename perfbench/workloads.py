"""The four benchmark workloads.

Each workload has four parts:

* ``generate`` (set-up, in its own process) makes every input from the seed
  and writes it to the run's work directory. Where the workload needs a model
  it also builds, extends, quantizes and saves it.
* ``iteration`` (measured phase) gives the CLI argument lists of one
  closed-loop iteration. Every iteration of a run repeats the same commands on
  the same inputs, so iterations differ only by noise.
* ``work`` gives the items (residues, tokens or proteins), tokens, slices and
  records of one iteration, computed from the inputs.
* ``summarize`` and ``check`` (after the measured phase) turn the command
  timings into metrics and check the outputs.

Seeds change the inputs but not their mix. Embedding lengths are drawn by
stratified sampling (item j of m takes the quantile (j + u) / m), and
``embed_long``'s two proteins take antithetic quantiles u and 1 - u. So each
seed covers the whole length range, peak memory included, and the rates
depend little on the seed.
"""

from __future__ import annotations

import json
import math
import os
import statistics

import numpy as np

import reference

AMINO = "ACDEFGHIKLMNPQRSTVWY"
EMBED_DIM = 320  # T6


def stratified(rng, count: int) -> np.ndarray:
    """One uniform quantile per stratum of [0, 1), in random order."""
    return rng.permutation((np.arange(count) + rng.random(count)) / count)


def random_sequence(rng, length: int) -> str:
    return "".join(np.array(list(AMINO))[rng.integers(0, len(AMINO), size=length)])


def write_fasta(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pid, seq in records:
            fh.write(f">{pid}\n")
            for lo in range(0, len(seq), 60):
                fh.write(seq[lo: lo + 60] + "\n")


def length_summary(lengths) -> dict:
    return {"proteins": len(lengths), "length_min_max": [min(lengths), max(lengths)],
            "length_quartiles": [float(q) for q in statistics.quantiles(lengths, n=4)]}


def read_manifest(output_path: str) -> dict:
    with open(output_path + ".manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


class Check:
    """Output checks of one run. Every check counts once in ``attempted``."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


class _OneCommand:
    """Workloads whose iteration is a single command over a fixed input."""

    name = ""
    item = ""  # what items_per_s counts
    command_alias = ""  # the name command_s goes by on this workload
    preset = "T6"
    attention = ("global", None)  # (mode, window_k) of the model behind the forwards

    def work(self, d: str) -> dict:
        raise NotImplementedError

    def summarize(self, iterations, d: str) -> dict:
        items = self.work(d)["items"]
        seconds = [it["commands"][0]["seconds"] for it in iterations]
        return {"items_per_s": statistics.median(items / s for s in seconds),
                "command_s": statistics.median(seconds)}


# ---------------------------------------------------------------- embedding


class _Embed(_OneCommand):
    """Shared logic of the two embedding workloads."""

    item = "residues"
    command_alias = "embed_s"
    residue_limit = 1022
    reference_tolerance = 1e-4  # max |stored - float64 reference| over a pooled vector

    def lengths(self, rng) -> list[int]:
        raise NotImplementedError

    def build_model(self, seed: int):
        raise NotImplementedError

    def generate(self, seed: int, d: str) -> dict:
        from eslong.encoder import save_model

        rng = np.random.default_rng([seed, 1])
        save_model(self.build_model(seed), os.path.join(d, "model.eslg"))
        lengths = self.lengths(rng)
        write_fasta(os.path.join(d, "input.fasta"),
                    [(f"P{j:02d}", random_sequence(rng, n)) for j, n in enumerate(lengths)])
        return dict(length_summary(lengths), residue_limit=self.residue_limit)

    def iteration(self, d: str, out: str) -> list[tuple[str, list[str]]]:
        return [("embed", ["embed", "--model", os.path.join(d, "model.eslg"),
                           "--fasta", os.path.join(d, "input.fasta"),
                           "--out", os.path.join(out, "store.esem"),
                           "--residue-limit", str(self.residue_limit), "--workers", "1"])]

    def work(self, d: str) -> dict:
        lengths = [len(s) for s in reference.read_fasta(os.path.join(d, "input.fasta")).values()]
        slices = sum(math.ceil(n / self.residue_limit) for n in lengths)
        return {"items": sum(lengths), "tokens": sum(lengths) + 2 * slices, "slices": slices,
                "records": len(lengths)}

    def check(self, iterations, d: str, check: Check) -> None:
        sequences = reference.read_fasta(os.path.join(d, "input.fasta"))
        for it in iterations:
            store = os.path.join(it["out"], "store.esem")
            try:
                records, dim = reference.read_store(store)
                skipped = set(read_manifest(store).get("extra", {}).get("skipped", []))
            except (OSError, ValueError) as exc:
                check("embed.store_readable", False, f"{store}: {exc}")
                continue
            check("embed.store_layout", dim == EMBED_DIM and [r[0] for r in records]
                  == [pid for pid in sequences if pid not in skipped], store)
            stored = {r[0]: r for r in records}
            for pid, seq in sequences.items():
                rec = stored.get(pid)
                ok = (rec is not None and rec[1] == math.ceil(len(seq) / self.residue_limit)
                      and bool(np.isfinite(rec[2]).all()))
                check("embed.record", ok, f"{store}: {pid} ({len(seq)} residues)")
        self.check_reference(iterations[0], d, sequences, check)

    def check_reference(self, it, d: str, sequences, check: Check) -> None:
        """The longest protein (most slices, largest n) against an independent
        float64 forward of every one of its slices."""
        try:
            records, _ = reference.read_store(os.path.join(it["out"], "store.esem"))
        except (OSError, ValueError):
            return  # already counted as unreadable
        stored = {r[0]: r[2] for r in records}
        pid = max(sequences, key=lambda p: (len(sequences[p]), p))
        if pid not in stored:
            check("embed.reference_forward", False, f"{pid} missing from the store")
            return
        model = reference.load_checkpoint(os.path.join(d, "model.eslg"))
        want = reference.embed(model, sequences[pid], self.residue_limit)
        err = float(np.abs(stored[pid].astype(np.float64) - want).max())
        check("embed.reference_forward", err <= self.reference_tolerance,
              f"{pid} ({len(sequences[pid])} residues): max abs error {err:.3g}")


class EmbedProteome(_Embed):
    """Many single-slice proteins through the global fp32 inference path."""

    name = "embed_proteome"
    proteins = 24
    median_length = 350
    sigma = 0.6
    residue_limit = 1022

    def lengths(self, rng) -> list[int]:
        z = [statistics.NormalDist().inv_cdf(q) for q in stratified(rng, self.proteins)]
        raw = self.median_length * np.exp(self.sigma * np.array(z))
        return [int(n) for n in np.clip(np.round(raw), 30, 1022)]

    def build_model(self, seed: int):
        from eslong.encoder import build_model, preset_config

        return build_model(preset_config(self.preset), seed)


class EmbedLong(_Embed):
    """Multi-slice proteins through the extended, int4, local-attention model."""

    name = "embed_long"
    attention = ("local", 128)
    residue_limit = 2046
    capacity = 2050
    min_length = 2500
    max_length = 6000

    def lengths(self, rng) -> list[int]:
        u = rng.random()
        return [int(self.min_length + (self.max_length - self.min_length) * q)
                for q in (u, 1.0 - u)]

    def build_model(self, seed: int):
        from eslong.encoder import build_model, extend_context, preset_config
        from eslong.quant import QuantPolicy, quantize_model

        mode, window_k = self.attention
        base = build_model(preset_config(self.preset, mode=mode, window_k=window_k), seed)
        return quantize_model(extend_context(base, self.capacity, strategy="copy"), QuantPolicy())


# ---------------------------------------------------------------- pre-training


class PretrainMLM(_OneCommand):
    """Full-parameter masked-LM pre-training of T6 from scratch."""

    name = "pretrain_mlm"
    item = "tokens"
    command_alias = "pretrain_s"
    sequences = 8
    min_length = 64
    max_length = 256
    epochs = 2

    def generate(self, seed: int, d: str) -> dict:
        rng = np.random.default_rng([seed, 2])
        config = {
            "model": {"preset": self.preset, "attention_mode": self.attention[0]},
            "train": {"epochs": self.epochs, "learning_rate": 1e-3,
                      "batch_size": self.sequences, "seed": seed},
        }
        with open(os.path.join(d, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        span = self.max_length - self.min_length + 1
        lengths = [self.min_length + int(span * q) for q in stratified(rng, self.sequences)]
        write_fasta(os.path.join(d, "corpus.fasta"),
                    [(f"S{j:02d}", random_sequence(rng, n)) for j, n in enumerate(lengths)])
        return dict(length_summary(lengths), epochs=self.epochs, batch_size=self.sequences)

    def iteration(self, d: str, out: str):
        return [("pretrain", ["pretrain", "--config", os.path.join(d, "config.json"),
                              "--fasta", os.path.join(d, "corpus.fasta"),
                              "--out", os.path.join(out, "model.eslg")])]

    def work(self, d: str) -> dict:
        lengths = [len(s) for s in reference.read_fasta(os.path.join(d, "corpus.fasta")).values()]
        # Every sequence goes through forward and backward once per epoch, CLS/EOS included.
        tokens = self.epochs * sum(n + 2 for n in lengths)
        return {"items": tokens, "tokens": tokens, "slices": 0, "records": len(lengths)}

    def check(self, iterations, d: str, check: Check) -> None:
        from eslong.encoder import load_model
        from eslong.errors import EslongError

        for it in iterations:
            out = os.path.join(it["out"], "model.eslg")
            try:
                load_model(out)
                check("pretrain.checkpoint_reloads", True, out)
            except (OSError, EslongError) as exc:
                check("pretrain.checkpoint_reloads", False, f"{out}: {exc}")
            try:
                curve = read_manifest(out)["extra"]["loss_curve"]
            except (OSError, ValueError, KeyError) as exc:
                check("pretrain.loss_curve", False, f"{out}: {exc}")
                continue
            check("pretrain.loss_finite",
                  len(curve) == self.epochs and all(math.isfinite(x) for x in curve), str(curve))
            check("pretrain.loss_decreases", len(curve) >= 2 and curve[-1] < curve[0], str(curve))


# ---------------------------------------------------------------- annotation


class Annotate:
    """Head training, prediction with closure, and Fmax evaluation; no encoder."""

    name = "annotate"
    item = "proteins"
    command_alias = "head_train_s"
    attention = None  # no encoder runs
    terms = 2000
    train_proteins = 400
    val_proteins = 100
    test_proteins = 300
    epochs = 3
    namespace = "BPO"

    def generate(self, seed: int, d: str) -> dict:
        from eslong.pipeline import EmbeddingRecord, write_store

        rng = np.random.default_rng([seed, 3])
        names = [f"GO:{t:07d}" for t in range(self.terms)]
        # Term t > 0 gets one to three parents among earlier terms: a single-root DAG.
        edges = []
        for t in range(1, self.terms):
            extra = int(rng.random() < 0.3) + int(rng.random() < 0.1)
            edges += [(t, p) for p in sorted({int(x) for x in rng.integers(0, t, size=1 + extra)})]
        with open(os.path.join(d, "ontology.tsv"), "w", encoding="utf-8") as fh:
            fh.writelines(f"{names[c]}\t{names[p]}\n" for c, p in edges)

        # A protein's vector is the sum of its terms' prototypes plus noise, so
        # the head has something to learn.
        prototypes = rng.normal(0.0, 1.0, size=(self.terms, EMBED_DIM))
        truth = {"all": [], "test": []}
        lengths, fasta = [], []
        for split, count in (("train", self.train_proteins), ("val", self.val_proteins),
                             ("test", self.test_proteins)):
            records = []
            for j in range(count):
                pid = f"{split}{j:04d}"
                own = sorted({int(x) for x in rng.integers(self.terms // 4, self.terms,
                                                          size=rng.integers(1, 4))})
                vec = prototypes[own].sum(axis=0) + rng.normal(0.0, 1.0, size=EMBED_DIM)
                records.append(EmbeddingRecord(pid, vec.astype(np.float32), 1))
                lines = [f"{pid}\t{names[t]}\n" for t in own]
                truth["all"] += lines
                if split == "test":
                    truth["test"] += lines
                    n = int(np.clip(round(350 * math.exp(0.6 * rng.normal())), 30, 3000))
                    lengths.append(n)
                    fasta.append((pid, random_sequence(rng, n)))
            write_store(os.path.join(d, f"{split}.esem"), records, embed_dim=EMBED_DIM)
        for which, lines in truth.items():
            with open(os.path.join(d, f"truth_{which}.tsv"), "w", encoding="utf-8") as fh:
                fh.writelines(lines)
        write_fasta(os.path.join(d, "test.fasta"), fasta)
        with open(os.path.join(d, "min_length.txt"), "w", encoding="utf-8") as fh:
            fh.write(f"{int(statistics.median(lengths))}\n")
        return dict(length_summary(lengths), terms=self.terms, edges=len(edges),
                    train_proteins=self.train_proteins, val_proteins=self.val_proteins,
                    min_length=int(statistics.median(lengths)), epochs=self.epochs)

    def _min_length(self, d: str) -> int:
        with open(os.path.join(d, "min_length.txt"), encoding="utf-8") as fh:
            return int(fh.read())

    def iteration(self, d: str, out: str):
        onto = ["--ontology", os.path.join(d, "ontology.tsv"), "--namespace", self.namespace]
        head, pred = os.path.join(out, "head.eslg"), os.path.join(out, "pred.tsv")
        evaluate = ["eval", "--pred", pred, "--truth", os.path.join(d, "truth_test.tsv")] + onto
        return [
            ("train-head", ["train-head", "--embeddings", os.path.join(d, "train.esem"),
                            "--val-embeddings", os.path.join(d, "val.esem"),
                            "--truth", os.path.join(d, "truth_all.tsv"), "--out", head,
                            "--epochs", str(self.epochs), "--seed", "0"] + onto),
            ("predict", ["predict", "--head", head, "--embeddings", os.path.join(d, "test.esem"),
                         "--out", pred, "--close-scores"] + onto),
            ("eval", evaluate + ["--out", os.path.join(out, "report.json")]),
            ("eval", evaluate + ["--fasta", os.path.join(d, "test.fasta"),
                                 "--min-length", str(self._min_length(d)),
                                 "--out", os.path.join(out, "report_min_length.json")]),
        ]

    def work(self, d: str) -> dict:
        return {"items": self.test_proteins, "tokens": 0, "slices": 0, "records": 0}

    def summarize(self, iterations, d: str) -> dict:
        train = [c["seconds"] for it in iterations for c in it["commands"]
                 if c["role"] == "train-head"]
        scoring = [sum(c["seconds"] for c in it["commands"] if c["role"] != "train-head")
                   for it in iterations]
        return {"items_per_s": statistics.median(self.test_proteins / s for s in scoring),
                "command_s": statistics.median(train)}

    def check(self, iterations, d: str, check: Check) -> None:
        edges = reference.read_edges(os.path.join(d, "ontology.tsv"))
        closed = reference.close_truth(
            reference.read_annotations(os.path.join(d, "truth_test.tsv")), edges)
        fasta = reference.read_fasta(os.path.join(d, "test.fasta"))
        lengths = {p: len(s) for p, s in fasta.items()}
        min_length = self._min_length(d)
        strata = {"report.json": closed,
                  "report_min_length.json": {p: t for p, t in closed.items()
                                             if lengths[p] > min_length}}
        for it in iterations:
            try:
                pred = reference.read_annotations(os.path.join(it["out"], "pred.tsv"))
            except (OSError, ValueError) as exc:
                check("annotate.pred_readable", False, str(exc))
                continue
            bad = reference.closure_violations(pred, edges)
            check("annotate.parent_ge_child", bad == 0, f"{bad} edges with parent < child")
            for report, truth in strata.items():
                try:
                    with open(os.path.join(it["out"], report), encoding="utf-8") as fh:
                        rep = json.load(fh)
                except (OSError, ValueError) as exc:
                    check("annotate.report_readable", False, str(exc))
                    continue
                f = reference.f_at(pred, truth, rep["tau_star"])
                check("annotate.f_at_tau_star",
                      rep["n"] == len(truth) and abs(f - rep["fmax"]) <= 1e-9,
                      f"{report}: fmax {rep['fmax']!r} at {rep['tau_star']}, brute force {f!r}")


WORKLOADS = {w.name: w for w in (EmbedProteome(), EmbedLong(), PretrainMLM(), Annotate())}
