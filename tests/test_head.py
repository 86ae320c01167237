"""Classifier head: separable-task training, prediction contracts, selection."""

from dataclasses import replace

import numpy as np
import pytest

from eslong.errors import ConfigError, DataError, InputError
from eslong.evaluation import fmax
from eslong.head import (
    ClassifierHead,
    HeadConfig,
    _sigmoid,
    bce_loss_and_grads,
    head_logits,
    init_head,
    load_head,
    predict,
    save_head,
    train_head,
)
from eslong.pipeline import EmbeddingRecord
from eslong.tensor_ops import gelu_grad


def separable_task(rng, n_train=60, n_val=30, dim=8):
    """Two linearly separable clusters, each owning one term."""
    records, truth = [], {}

    def make(name, count, center, term):
        out = []
        for i in range(count):
            vec = (center + rng.normal(0, 0.3, size=dim)).astype(np.float32)
            pid = f"{name}{i}"
            out.append(EmbeddingRecord(pid, vec, 1))
            truth[pid] = {term: 1.0}
        return out

    up = np.zeros(dim)
    up[0] = 2.0
    down = np.zeros(dim)
    down[0] = -2.0
    train = make("tr_a", n_train // 2, up, "alpha") + make("tr_b", n_train // 2, down, "beta")
    val = make("va_a", n_val // 2, up, "alpha") + make("va_b", n_val // 2, down, "beta")
    records = train + val
    return train, val, truth


class TestTrainHead:
    def test_separable_task_reaches_high_fmax(self):
        rng = np.random.default_rng(0)
        train, val, truth = separable_task(rng)
        cfg = HeadConfig(input_dim=8, num_terms=2, hidden_dim=16,
                         learning_rate=5e-3, epochs=50, batch_size=16, seed=1)
        head, metrics = train_head(train, truth, cfg, val)
        train_truth = {r.protein_id: truth[r.protein_id] for r in train}
        result = fmax(predict(head, train), train_truth)
        assert result.fmax >= 0.95
        assert len(metrics) == 50

    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            HeadConfig(input_dim=4, num_terms=2, epochs=0)

    @pytest.mark.parametrize("field", [{"seed": -1}, {"weight_decay": -0.1}])
    def test_negative_seed_or_decay_rejected(self, field):
        with pytest.raises(ConfigError):
            HeadConfig(input_dim=4, num_terms=2, **field)

    def test_same_seed_identical_curves(self):
        rng = np.random.default_rng(1)
        train, val, truth = separable_task(rng, n_train=20, n_val=10)
        cfg = HeadConfig(input_dim=8, num_terms=2, hidden_dim=8,
                         learning_rate=5e-3, epochs=5, batch_size=8, seed=3)
        _, m1 = train_head(train, truth, cfg, val)
        _, m2 = train_head(train, truth, cfg, val)
        assert [r["val_fmax"] for r in m1] == [r["val_fmax"] for r in m2]
        assert [r["train_loss"] for r in m1] == [r["train_loss"] for r in m2]

    def test_best_epoch_attains_max_val_fmax(self):
        rng = np.random.default_rng(2)
        train, val, truth = separable_task(rng, n_train=20, n_val=10)
        cfg = HeadConfig(input_dim=8, num_terms=2, hidden_dim=8,
                         learning_rate=5e-3, epochs=8, batch_size=8, seed=4)
        head, metrics = train_head(train, truth, cfg, val)
        best_in_log = max(r["val_fmax"] for r in metrics)
        val_truth = {r.protein_id: truth[r.protein_id] for r in val}
        achieved = fmax(predict(head, val), val_truth).fmax
        assert achieved == pytest.approx(best_in_log)

    def test_best_epoch_is_kept_while_later_epochs_train(self):
        # Each step updates the live parameters in place, so the best epoch
        # must be kept as a copy: training on past it must return the very
        # parameters that stopping at it returns.
        rng = np.random.default_rng(1)
        train, val, truth = separable_task(rng, n_train=20, n_val=10)
        cfg = HeadConfig(input_dim=8, num_terms=2, hidden_dim=8,
                         learning_rate=0.05, epochs=8, batch_size=8, seed=1)
        longer, metrics = train_head(train, truth, cfg, val)
        scores = [r["val_fmax"] for r in metrics]
        best = scores.index(max(scores)) + 1
        assert best < cfg.epochs
        stopped, _ = train_head(train, truth, replace(cfg, epochs=best), val)
        assert sorted(longer.params) == sorted(stopped.params)
        for key, value in stopped.params.items():
            assert longer.params[key].tobytes() == value.tobytes(), key

    def test_missing_truth_rejected(self):
        rng = np.random.default_rng(3)
        train, val, truth = separable_task(rng, n_train=4, n_val=2)
        del truth[train[0].protein_id]
        cfg = HeadConfig(input_dim=8, num_terms=2, hidden_dim=4, epochs=1)
        with pytest.raises(DataError):
            train_head(train, truth, cfg, val)

    def test_term_count_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        train, val, truth = separable_task(rng, n_train=4, n_val=2)
        cfg = HeadConfig(input_dim=8, num_terms=5, hidden_dim=4, epochs=1)
        with pytest.raises(ConfigError):
            train_head(train, truth, cfg, val)


class TestPredict:
    def test_zero_weight_head_scores_half(self):
        cfg = HeadConfig(input_dim=4, num_terms=3, hidden_dim=5, epochs=1)
        head = init_head(cfg, ["a", "b", "c"])
        for k in head.params:
            head.params[k] = np.zeros_like(head.params[k])
        rec = EmbeddingRecord("P", np.ones(4, dtype=np.float32), 1)
        scores = predict(head, [rec])["P"]
        assert all(s == pytest.approx(0.5) for s in scores.values())

    def test_scores_in_open_unit_interval(self):
        rng = np.random.default_rng(5)
        cfg = HeadConfig(input_dim=6, num_terms=4, hidden_dim=8, epochs=1)
        head = init_head(cfg, ["a", "b", "c", "d"])
        records = [
            EmbeddingRecord(f"P{i}", rng.normal(size=6).astype(np.float32) * 50, 1)
            for i in range(20)
        ]
        for scores in predict(head, records).values():
            for s in scores.values():
                assert 0.0 < s < 1.0

    def test_separable_thresholds_to_truth(self):
        rng = np.random.default_rng(6)
        train, val, truth = separable_task(rng)
        cfg = HeadConfig(input_dim=8, num_terms=2, hidden_dim=16,
                         learning_rate=5e-3, epochs=50, batch_size=16, seed=7)
        head, _ = train_head(train, truth, cfg, val)
        scores = predict(head, train)
        for rec in train:
            chosen = {t for t, s in scores[rec.protein_id].items() if s >= 0.5}
            assert chosen == set(truth[rec.protein_id])

    def test_batch_order_invariant(self):
        rng = np.random.default_rng(7)
        cfg = HeadConfig(input_dim=6, num_terms=2, hidden_dim=4, epochs=1)
        head = init_head(cfg, ["a", "b"])
        records = [
            EmbeddingRecord(f"P{i}", rng.normal(size=6).astype(np.float32), 1)
            for i in range(10)
        ]
        fwd = predict(head, records)
        rev = predict(head, list(reversed(records)))
        assert fwd == rev

    def test_each_row_matches_a_lone_call(self):
        rng = np.random.default_rng(8)
        cfg = HeadConfig(input_dim=32, num_terms=50, hidden_dim=64, epochs=1)
        head = init_head(cfg, [f"t{i}" for i in range(50)])
        for k in head.params:
            head.params[k] = rng.normal(0, 0.3, size=head.params[k].shape).astype(np.float32)
        records = [
            EmbeddingRecord(f"P{i}", rng.normal(size=32).astype(np.float32) * 4, 1)
            for i in range(40)
        ]
        together = predict(head, records)
        for i, rec in enumerate(records):
            assert together.scores[i].tobytes() == predict(head, [rec]).scores[0].tobytes()

    def test_first_nan_record_is_named(self):
        rng = np.random.default_rng(9)
        cfg = HeadConfig(input_dim=6, num_terms=2, hidden_dim=4, epochs=1)
        head = init_head(cfg, ["a", "b"])
        records = [
            EmbeddingRecord(f"P{i}", rng.normal(size=6).astype(np.float32), 1)
            for i in range(6)
        ]
        for i in (2, 4):
            records[i].vector[1] = np.nan
        with pytest.raises(InputError, match="'P2'"):
            predict(head, records)

    def test_empty_input_gives_empty_table(self):
        cfg = HeadConfig(input_dim=6, num_terms=2, hidden_dim=4, epochs=1)
        head = init_head(cfg, ["a", "b"])
        assert predict(head, []).scores.shape == (0, 2)

    def test_dim_mismatch_rejected(self):
        cfg = HeadConfig(input_dim=6, num_terms=2, hidden_dim=4, epochs=1)
        head = init_head(cfg, ["a", "b"])
        with pytest.raises(DataError):
            predict(head, [EmbeddingRecord("P", np.ones(5, dtype=np.float32), 1)])


def mask_sigmoid(z):
    """The boolean-mask sigmoid _sigmoid replaced: each sign gathered, exp'd
    and scattered apart."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_oracle(params, x, y):
    """bce_loss_and_grads as it was before it shared one exp between the loss
    and the sigmoid."""
    z2, (z1, h, cdf) = head_logits(params, x, want_cache=True)
    count = z2.size
    loss = float(
        (np.maximum(z2, 0.0) - z2 * y + np.log1p(np.exp(-np.abs(z2)))).sum() / count
    )
    d_z2 = (mask_sigmoid(z2) - y) / count
    grads = {"W2": h.T @ d_z2, "b2": d_z2.sum(axis=0)}
    d_z1 = (d_z2 @ params["W2"].T) * gelu_grad(z1, cdf)
    grads["W1"] = x.T @ d_z1
    grads["b1"] = d_z1.sum(axis=0)
    return loss, grads


class TestLogitSpace:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bitwise_equal_to_mask_form(self, dtype):
        edges = [0.0, -0.0, 1e-3, -1e-3, 20.0, -20.0, 100.0, -100.0, 1e4, -1e4]
        rng = np.random.default_rng(11)
        z = np.concatenate([edges, rng.normal(0, 8, 500)]).astype(dtype)
        assert _sigmoid(z).tobytes() == mask_sigmoid(z).tobytes()
        e = np.exp(-np.abs(z))
        assert _sigmoid(z, e).tobytes() == mask_sigmoid(z).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_of_nan_is_nan(self, dtype):
        """A NaN logit stays NaN (predict rejects it). Float64 exp keeps the
        sign of -|NaN|, so only NaN-ness is compared, not the sign bit."""
        z = np.array([np.nan, -np.nan, 1.0], dtype=dtype)
        np.testing.assert_array_equal(_sigmoid(z), mask_sigmoid(z))

    def test_loss_and_grads_bitwise_equal_to_two_exp_form(self):
        cfg = HeadConfig(input_dim=24, num_terms=40, hidden_dim=16, epochs=1)
        params = init_head(cfg, [f"t{i}" for i in range(40)], seed=12).params
        params["W2"] = params["W2"] * 400.0  # logits out to about +-25
        rng = np.random.default_rng(13)
        x = rng.normal(0, 3, (32, 24)).astype(np.float32)
        y = (rng.random((32, 40)) < 0.3).astype(np.float32)
        loss, grads = bce_loss_and_grads(params, x, y)
        want_loss, want_grads = bce_oracle(params, x, y)
        assert loss == want_loss
        for key, want in want_grads.items():
            assert grads[key].dtype == want.dtype and grads[key].tobytes() == want.tobytes()


class TestHeadCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = HeadConfig(input_dim=6, num_terms=2, hidden_dim=4, epochs=1, seed=9)
        head = init_head(cfg, ["a", "b"])
        path = tmp_path / "head.eslg"
        save_head(head, path)
        loaded = load_head(path)
        assert loaded.config == cfg
        assert loaded.term_list == ("a", "b")
        for k in head.params:
            np.testing.assert_array_equal(loaded.params[k], head.params[k])
