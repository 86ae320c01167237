"""Masking, loss, optimizer, pre-training loop, and LoRA contracts."""

import hashlib
import json
import math

import numpy as np
import pytest

from conftest import random_corpus, tiny_config
from eslong.encoder import DEFAULT_VOCAB, build_model, forward, preset_config, tokenize
from eslong.errors import ConfigError, ContractError, LengthError
from eslong.quant import QuantizedTensor, quantize_model
from eslong.training import (
    LoraAdapter,
    TrainConfig,
    adamw_step,
    attach_lora,
    derive_seed,
    init_adam_state,
    lora_target_names,
    mask_batch,
    merge_lora,
    mlm_loss,
    pretrain,
    trainable_keys,
)


def hash_params(model):
    digest = hashlib.sha256()
    for name in sorted(model.params):
        w = model.params[name]
        if isinstance(w, QuantizedTensor):
            digest.update(w.packed.tobytes())
            digest.update(w.scales.tobytes())
        else:
            digest.update(w.tobytes())
    return digest.hexdigest()


class TestMaskBatch:
    def test_zero_fraction_is_identity(self):
        cfg = TrainConfig(mask_fraction=0.0)
        toks = tokenize("ACDEFGHIKL", preset_config("toy"))
        rng = np.random.default_rng(0)
        masked, labels = mask_batch([toks], cfg, rng)
        assert masked == [toks]
        assert labels == [[]]

    def test_deterministic_selection(self):
        cfg = TrainConfig(mask_fraction=0.15)
        toks = tokenize("ACDEFGHIKL", preset_config("toy"))
        a = mask_batch([toks], cfg, np.random.default_rng(42))
        b = mask_batch([toks], cfg, np.random.default_rng(42))
        assert a == b

    def test_structural_tokens_never_selected(self):
        cfg = TrainConfig(mask_fraction=0.9)
        model_cfg = preset_config("toy")
        toks = tokenize("ACDEFGHIKLMNPQRSTVWY", model_cfg)
        masked, labels = mask_batch([toks], cfg, np.random.default_rng(1))
        v = model_cfg.vocab
        assert masked[0][0] == v.cls_id and masked[0][-1] == v.eos_id
        for pos, _ in labels[0]:
            assert 0 < pos < len(toks) - 1

    def test_empty_residue_sequence_skipped(self):
        cfg = TrainConfig(mask_fraction=0.5)
        v = DEFAULT_VOCAB
        masked, labels = mask_batch([[v.cls_id, v.eos_id]], cfg, np.random.default_rng(2))
        assert masked == [[v.cls_id, v.eos_id]]
        assert labels == [[]]

    def test_binomial_concentration(self):
        cfg = TrainConfig(mask_fraction=0.15)
        model_cfg = tiny_config(max_positions=20000)
        seq = "".join(np.random.default_rng(3).choice(list("ACDEFGHIKL"), size=10_000))
        toks = tokenize(seq, model_cfg)
        _, labels = mask_batch([toks], cfg, np.random.default_rng(4))
        count = len(labels[0])
        assert 1300 <= count <= 1700

    def test_corruption_mixture(self):
        cfg = TrainConfig(mask_fraction=0.5)
        model_cfg = tiny_config(max_positions=20000)
        rng = np.random.default_rng(5)
        seq = "".join(np.random.default_rng(6).choice(list("ACDEFGHIKL"), size=10_000))
        toks = tokenize(seq, model_cfg)
        masked, labels = mask_batch([toks], cfg, rng)
        v = model_cfg.vocab
        n_mask = sum(1 for pos, _ in labels[0] if masked[0][pos] == v.mask_id)
        n_same = sum(1 for pos, orig in labels[0] if masked[0][pos] == orig)
        total = len(labels[0])
        assert 0.75 <= n_mask / total <= 0.85
        # "unchanged" includes the 10% random draws that hit the original id
        assert 0.07 <= n_same / total <= 0.16


class TestMlmLoss:
    def test_uniform_logits_give_log_vocab(self, toy_model):
        model = toy_model
        zeroed = type(model)(
            config=model.config,
            params={**model.params, "mlm_head": np.zeros_like(model.params["mlm_head"])},
        )
        toks = tokenize("ACDEFGHIKL", model.config)
        labels = [[(1, toks[1]), (3, toks[3]), (5, toks[5])]]
        loss, _ = mlm_loss(zeroed, [toks], labels)
        assert abs(loss - math.log(model.config.vocab.size)) <= 1e-6

    def test_loss_nonnegative(self, toy_model):
        rng = np.random.default_rng(7)
        for _ in range(5):
            seq = "".join(rng.choice(list("ACDEFGHIKL"), size=12))
            toks = tokenize(seq, toy_model.config)
            pos = int(rng.integers(1, len(toks) - 1))
            loss, _ = mlm_loss(toy_model, [toks], [[(pos, toks[pos])]])
            assert loss >= 0.0

    def test_empty_labels_rejected(self, toy_model):
        toks = tokenize("ACD", toy_model.config)
        with pytest.raises(ContractError):
            mlm_loss(toy_model, [toks], [[]])


class TestAdamW:
    def test_zero_grad_no_decay_is_identity(self):
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.0)
        params = {"w": np.array([1.0, -2.0, 3.0], dtype=np.float32)}
        grads = {"w": np.zeros(3, dtype=np.float32)}
        new, _ = adamw_step(params, grads, init_adam_state(params), cfg)
        np.testing.assert_array_equal(new["w"], params["w"])

    def test_zero_grad_decay_shrinks_exactly(self):
        lr, wd = 0.1, 0.01
        cfg = TrainConfig(learning_rate=lr, weight_decay=wd)
        params = {"w": np.array([1.0, -2.0, 3.0], dtype=np.float32)}
        grads = {"w": np.zeros(3, dtype=np.float32)}
        new, _ = adamw_step(params, grads, init_adam_state(params), cfg)
        np.testing.assert_array_equal(new["w"], params["w"] * (1.0 - lr * wd))

    def test_quadratic_bowl_convergence(self):
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.0)
        params = {"x": np.array([1.0], dtype=np.float64)}
        state = init_adam_state(params)
        for _ in range(200):
            grads = {"x": 2.0 * params["x"]}
            params, state = adamw_step(params, grads, state, cfg)
        assert abs(float(params["x"][0])) < 1e-2

    def test_bias_correction_first_step(self):
        # with m = (1-b1) g and bias correction, step 1 moves by ~lr * sign(g)
        cfg = TrainConfig(learning_rate=0.5, weight_decay=0.0)
        params = {"w": np.array([0.0], dtype=np.float64)}
        grads = {"w": np.array([1e-3], dtype=np.float64)}
        new, _ = adamw_step(params, grads, init_adam_state(params), cfg)
        assert abs(float(new["w"][0]) + 0.5) < 1e-3


class TestPretrain:
    def test_loss_improves_over_five_epochs(self, toy_model):
        rng = np.random.default_rng(8)
        corpus = random_corpus(rng, 50, 10, 40)
        cfg = TrainConfig(epochs=5, learning_rate=1e-3, seed=3)
        _, curve = pretrain(toy_model, corpus, cfg)
        assert len(curve) == 5
        assert curve[-1] < curve[0]
        # epoch means trend monotonically down at this scale
        assert all(b < a for a, b in zip(curve, curve[1:]))

    def test_zero_epochs_forbidden(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_same_seed_identical_curves(self, toy_model):
        rng = np.random.default_rng(9)
        corpus = random_corpus(rng, 12, 8, 20)
        cfg = TrainConfig(epochs=2, learning_rate=1e-3, seed=5)
        m1, c1 = pretrain(toy_model, corpus, cfg)
        m2, c2 = pretrain(toy_model, corpus, cfg)
        assert c1 == c2
        assert hash_params(m1) == hash_params(m2)

    def test_different_seed_differs(self, toy_model):
        rng = np.random.default_rng(10)
        corpus = random_corpus(rng, 12, 8, 20)
        _, c1 = pretrain(toy_model, corpus, TrainConfig(epochs=1, learning_rate=1e-3, seed=5))
        _, c2 = pretrain(toy_model, corpus, TrainConfig(epochs=1, learning_rate=1e-3, seed=6))
        assert c1 != c2

    def test_oversized_sequence_rejected(self, toy_model):
        with pytest.raises(LengthError):
            pretrain(toy_model, ["A" * 100], TrainConfig(epochs=1))

    def test_empty_corpus_rejected(self, toy_model):
        with pytest.raises(ContractError):
            pretrain(toy_model, [], TrainConfig(epochs=1))

    def test_run_log_records(self, toy_model, tmp_path):
        rng = np.random.default_rng(11)
        corpus = random_corpus(rng, 8, 8, 20)
        log = tmp_path / "run.jsonl"
        _, curve = pretrain(toy_model, corpus, TrainConfig(epochs=2, learning_rate=1e-3), run_log=log)
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["epoch"] for r in records] == [1, 2]
        assert [r["mean_loss"] for r in records] == curve
        assert all("wall_ms" in r for r in records)

    def test_zero_mask_fraction_rejected_for_training(self, toy_model):
        cfg = TrainConfig(epochs=1, mask_fraction=0.0)
        with pytest.raises(ConfigError):
            pretrain(toy_model, ["ACDEF"], cfg)


class TestLora:
    def test_fresh_adapter_is_bitexact_noop(self, toy_model):
        targets = lora_target_names(toy_model.config)
        adapted = attach_lora(toy_model, targets, rank=4, alpha=16.0, seed=1)
        toks = tokenize("ACDEFGHIKLMNP", toy_model.config)
        np.testing.assert_array_equal(forward(adapted, toks), forward(toy_model, toks))

    def test_merge_without_training_is_bit_identity(self, toy_model):
        targets = lora_target_names(toy_model.config)
        adapted = attach_lora(toy_model, targets, rank=4, alpha=16.0, seed=1)
        merged = merge_lora(adapted)
        assert not merged.adapters
        for name in toy_model.params:
            np.testing.assert_array_equal(merged.params[name], toy_model.params[name])

    def test_base_frozen_during_adapter_training(self, toy_model):
        rng = np.random.default_rng(12)
        corpus = random_corpus(rng, 10, 8, 20)
        targets = lora_target_names(toy_model.config)
        adapted = attach_lora(toy_model, targets, rank=4, alpha=16.0, seed=1)
        before = hash_params(adapted)
        trained, _ = pretrain(adapted, corpus, TrainConfig(epochs=2, learning_rate=1e-2, seed=2))
        assert hash_params(trained) == before
        moved = any(np.any(trained.adapters[t].B) for t in targets)
        assert moved

    def test_pretrain_never_writes_to_its_model(self, toy_model):
        rng = np.random.default_rng(15)
        corpus = random_corpus(rng, 10, 8, 20)
        before = hash_params(toy_model)
        trained, _ = pretrain(toy_model, corpus, TrainConfig(epochs=1, learning_rate=1e-2, seed=2))
        assert hash_params(toy_model) == before != hash_params(trained)
        adapted = attach_lora(toy_model, lora_target_names(toy_model.config), rank=2, alpha=4.0,
                              seed=1)
        adapters = {t: (ad.A.copy(), ad.B.copy()) for t, ad in adapted.adapters.items()}
        trained, _ = pretrain(adapted, corpus, TrainConfig(epochs=1, learning_rate=1e-2, seed=2))
        assert all(trained.params[n] is adapted.params[n] for n in adapted.params)
        for t, (a, b) in adapters.items():
            np.testing.assert_array_equal(adapted.adapters[t].A, a)
            np.testing.assert_array_equal(adapted.adapters[t].B, b)
            assert np.any(trained.adapters[t].B)

    def test_trained_merge_matches_adapter_forward(self, toy_model):
        rng = np.random.default_rng(13)
        corpus = random_corpus(rng, 10, 8, 20)
        targets = lora_target_names(toy_model.config)
        adapted = attach_lora(toy_model, targets, rank=4, alpha=16.0, seed=1)
        trained, _ = pretrain(adapted, corpus, TrainConfig(epochs=1, learning_rate=1e-2, seed=2))
        merged = merge_lora(trained)
        toks = tokenize("ACDEFGHIKL", toy_model.config)
        np.testing.assert_allclose(forward(merged, toks), forward(trained, toks), atol=1e-5)

    def test_unknown_target_rejected(self, toy_model):
        with pytest.raises(ConfigError):
            attach_lora(toy_model, ["layers.0.nonesuch"], rank=2, alpha=4.0)

    def test_quantized_base_trains_adapters_only(self, toy_model):
        rng = np.random.default_rng(14)
        corpus = random_corpus(rng, 10, 8, 20)
        quantized = quantize_model(toy_model)
        targets = lora_target_names(quantized.config)
        adapted = attach_lora(quantized, targets, rank=4, alpha=16.0, seed=3)
        keys = trainable_keys(adapted)
        assert keys == sorted(f"adapters.{t}.{w}" for t in targets for w in "AB")
        assert all(k.startswith("adapters.") for k in keys)
        before = hash_params(adapted)
        trained, curve = pretrain(adapted, corpus, TrainConfig(epochs=2, learning_rate=1e-2, seed=4))
        assert hash_params(trained) == before
        assert len(curve) == 2

    def test_merge_into_quantized_base_rejected(self, toy_model):
        quantized = quantize_model(toy_model)
        adapted = attach_lora(quantized, ["layers.0.q_proj"], rank=2, alpha=4.0)
        adapted.adapters["layers.0.q_proj"].B += 0.1
        with pytest.raises(ConfigError):
            merge_lora(adapted)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(0, "masking") == derive_seed(0, "masking")
        assert derive_seed(0, "masking") != derive_seed(0, "shuffle")
        assert derive_seed(0, "masking") != derive_seed(1, "masking")
