"""Masking, loss, optimizer, pre-training loop, and LoRA contracts."""

import hashlib
import json
import math

import numpy as np
import pytest

from conftest import CANONICAL, random_corpus, tiny_config, traced_peak
from eslong.attention import AttentionSpec
from eslong.cli import main
from eslong.encoder import (
    DEFAULT_VOCAB,
    ModelConfig,
    build_model,
    forward,
    mlm_logits,
    preset_config,
    tokenize,
)
from eslong.errors import ConfigError, ContractError, LengthError
from eslong.quant import QuantizedTensor, quantize_model
from eslong.training import (
    _ADAM_CHUNK,
    LoraAdapter,
    TrainConfig,
    adamw_step,
    attach_lora,
    derive_seed,
    get_trainable,
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

    def test_adds_into_a_given_gradient_set(self, toy_model):
        # One sequence of distinct tokens: each gradient element takes one
        # addition, so adding into ones gives ones + the fresh gradient.
        toks = tokenize("ACDEFGHIKL", toy_model.config)
        labels = [[(2, toks[2]), (6, toks[6])]]
        loss, fresh = mlm_loss(toy_model, [toks], labels)
        given = {k: np.ones_like(v) for k, v in fresh.items()}
        again, returned = mlm_loss(toy_model, [toks], labels, given)
        assert again == loss and returned is given
        for key, grad in fresh.items():
            assert given[key].tobytes() == (grad + 1).tobytes(), key
        del given["mlm_head"]
        with pytest.raises(ContractError):
            mlm_loss(toy_model, [toks], labels, given)


def t6_width_sequence(mode: str, n: int):
    """A 2-layer model of T6's width (local window 128) and one masked
    sequence of n tokens."""
    spec = AttentionSpec(mode, 20, 16, 128 if mode == "local" else None)
    model = build_model(ModelConfig(2, 20, 320, 1024, 1280, spec), seed=5)
    rng = np.random.default_rng(n)
    toks = tokenize("".join(rng.choice(list(CANONICAL), n - 2)), model.config)
    masked, labels = mask_batch([toks], TrainConfig(), rng)
    return model, masked, labels


class TestT6Width:
    """mlm_loss at T6's width and hundreds of tokens, where attention runs
    several blocks and the forward splits its rows into parts, which the toy
    models of the other tests never reach."""

    # The loss, and the sha256 of every gradient in key order, at 600 tokens,
    # recorded while the training cache still kept the layer norms' and
    # GELU's outputs; x86-64, numpy 2.4, OpenBLAS 0.3.31.
    RECORDED = {
        "global": (3.435409947445518,
                   "89e9bab19ce09ca7f59dd1370ec340cbb63075fab08482c94f15e26f2529abad"),
        "local": (3.413267838327508,
                  "8d9d43f6e5601134feb1260dc89337b7c7ccf42552fbe4967a8635339ddd3f99"),
    }

    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_loss_and_gradients_keep_recorded_bits(self, mode):
        model, masked, labels = t6_width_sequence(mode, 600)
        loss, grads = mlm_loss(model, masked, labels)
        digest = hashlib.sha256()
        for key in sorted(grads):
            digest.update(key.encode())
            digest.update(grads[key].tobytes())
        assert (loss, digest.hexdigest()) == self.RECORDED[mode]
        hidden, _ = forward(model, masked[0], want_cache=True)
        assert hidden.tobytes() == forward(model, masked[0]).tobytes()

    def test_memory_is_the_kept_cache_and_the_gradients(self):
        # Kept per layer and token: 6 * d + 2 * f floats. Over that and the
        # gradient set, the bound leaves six [n, f] arrays for what the
        # forward and the backward hold at once; keeping the layer norms'
        # and GELU's outputs too would take 2 * d + f more per layer and token.
        n = 1022
        model, masked, labels = t6_width_sequence("local", n)
        cfg = model.config
        d, f, item = cfg.embed_dim, cfg.ffn_dim, np.dtype(np.float32).itemsize
        kept = cfg.num_layers * n * (6 * d + 2 * f) * item
        grads = sum(a.nbytes for a in get_trainable(model).values())
        bound = kept + grads + 6 * n * f * item
        peak = traced_peak(mlm_loss, model, masked, labels)
        assert peak < bound, (peak / 1e6, bound / 1e6)


class TestT6WidthInt4Lora:
    """The paper's fine-tuned form at T6's width: an int4 base with rank-8
    adapters on every projection family, B nonzero, local window 128."""

    # The loss, and the sha256 of every adapter gradient in key order, at 600
    # tokens, recorded while training.py still held the layer's backward;
    # x86-64, numpy 2.4, OpenBLAS 0.3.31.
    RECORDED = (3.412215383429276,
                "308dc59da5f5be3a170c560eac799794b7f3d7f470bc7a13fea4d359c312fa46")

    def test_loss_and_gradients_keep_recorded_bits(self):
        model, masked, labels = t6_width_sequence("local", 600)
        targets = lora_target_names(model.config, ("attention", "ffn", "head"))
        model = attach_lora(quantize_model(model), targets, rank=8, alpha=16.0, seed=7)
        rng = np.random.default_rng(8)
        for adapter in model.adapters.values():
            adapter.B = rng.normal(0.0, 0.02, adapter.B.shape).astype(np.float32)
        loss, grads = mlm_loss(model, masked, labels)
        assert sorted(grads) == sorted(f"adapters.{t}.{m}" for t in targets for m in "AB")
        digest = hashlib.sha256()
        for key in sorted(grads):
            digest.update(key.encode())
            digest.update(grads[key].tobytes())
        assert (loss, digest.hexdigest()) == self.RECORDED


def adamw_oracle(params, grads, state, cfg):
    """The whole-tensor AdamW step adamw_step replaced: new params and new
    moments from fresh arrays, the inputs untouched."""
    t = state["t"] + 1
    lr = cfg.learning_rate
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    new_params, new_m, new_v = {}, {}, {}
    for key, p in params.items():
        g = grads[key]
        m = cfg.beta1 * state["m"][key] + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * state["v"][key] + (1.0 - cfg.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        new_params[key] = p * (1.0 - lr * cfg.weight_decay) - lr * update
        new_m[key] = m
        new_v[key] = v
    return new_params, {"t": t, "m": new_m, "v": new_v}


ADAM_SHAPES = {"one": (1,), "below": (_ADAM_CHUNK - 1,), "chunk": (_ADAM_CHUNK,),
               "above": (_ADAM_CHUNK + 1,), "matrix": (3, _ADAM_CHUNK // 2 + 7)}


class TestAdamW:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_bitwise_equal_to_whole_tensor_oracle(self, dtype, weight_decay):
        cfg = TrainConfig(learning_rate=1e-3, weight_decay=weight_decay)
        rng = np.random.default_rng(5)
        params = {k: rng.normal(0, 0.5, s).astype(dtype) for k, s in ADAM_SHAPES.items()}
        state = init_adam_state(params)
        expected, oracle_state = dict(params), init_adam_state(params)
        for step in range(3):
            # magnitudes over many decades, and exact zeros
            grads = {k: (rng.normal(0, 1, s) * 10.0 ** rng.integers(-8, 3, s)
                         * (rng.random(s) < 0.9)).astype(dtype)
                     for k, s in ADAM_SHAPES.items()}
            params, state = adamw_step(params, grads, state, cfg)
            expected, oracle_state = adamw_oracle(expected, grads, oracle_state, cfg)
            assert state["t"] == oracle_state["t"] == step + 1
            for key in ADAM_SHAPES:
                for got, want in ((params[key], expected[key]),
                                  (state["m"][key], oracle_state["m"][key]),
                                  (state["v"][key], oracle_state["v"][key])):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), key

    def test_inputs_read_only_and_moments_in_place(self):
        cfg = TrainConfig(learning_rate=1e-2, weight_decay=0.1)
        rng = np.random.default_rng(6)
        params = {k: rng.normal(0, 1, s).astype(np.float32) for k, s in ADAM_SHAPES.items()}
        grads = {k: rng.normal(0, 1, s).astype(np.float32) for k, s in ADAM_SHAPES.items()}
        before = {k: (params[k].copy(), grads[k].copy()) for k in params}
        state = init_adam_state(params)
        m_arrays, v_arrays = dict(state["m"]), dict(state["v"])
        new, returned = adamw_step(params, grads, state, cfg)
        assert returned is state and state["t"] == 1
        for key, (p, g) in before.items():
            np.testing.assert_array_equal(params[key], p)
            np.testing.assert_array_equal(grads[key], g)
            assert state["m"][key] is m_arrays[key] and state["v"][key] is v_arrays[key]
            assert np.any(state["m"][key]) and np.any(state["v"][key])
            assert not np.shares_memory(new[key], params[key])

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


class TestPretrainMemory:
    """Weight-sized sets alive during full-parameter pre-training at T6's
    width (two layers), on four short sequences in one batch per step. The
    untrained weights are read by the first step and then dropped; from the
    second step on a step holds the parameters, updated in place, the two
    Adam moments and one gradient set."""

    CONFIG = ModelConfig(2, 20, 320, 1024, 1280, AttentionSpec("global", 20, 16, None))
    CORPUS = ["".join(np.random.default_rng(i).choice(list(CANONICAL), 30)) for i in range(4)]

    def sizes(self, model):
        """(bytes of one weight set, bytes of the batch's kept cache): 6d + 2f
        floats per token and layer, as in TestT6Width."""
        one_set = sum(a.nbytes for a in get_trainable(model).values())
        cfg, tokens = model.config, sum(len(seq) + 2 for seq in self.CORPUS)
        kept = cfg.num_layers * tokens * (6 * cfg.embed_dim + 2 * cfg.ffn_dim) * 4
        return one_set, kept

    def test_second_step_holds_four_sets(self):
        # The model is built before tracing starts, so its own set is not
        # counted: the bound is params + m + v + grads, the kept cache, and
        # half a set for the forward's and backward's scratch at these
        # lengths. A step that makes its new parameters beside the old ones
        # holds a fifth set at step 2.
        model = build_model(self.CONFIG, seed=5)
        one_set, kept = self.sizes(model)
        cfg = TrainConfig(epochs=2, batch_size=len(self.CORPUS), learning_rate=1e-3, seed=1)
        peak = traced_peak(pretrain, model, self.CORPUS, cfg)
        assert peak < 4 * one_set + kept + one_set // 2, (peak / one_set, kept / one_set)

    def test_cli_drops_the_untrained_model_after_the_first_step(self, tmp_path):
        # Here the untrained model is built inside the traced call. Step 1
        # holds it beside params, m, v and grads; from step 2 on it is gone.
        # Holding it across the run makes a sixth set at step 2.
        one_set, kept = self.sizes(build_model(self.CONFIG, seed=5))
        fasta = tmp_path / "corpus.fasta"
        fasta.write_text("".join(f">P{i}\n{seq}\n" for i, seq in enumerate(self.CORPUS)))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": {"num_layers": 2, "num_heads": 20, "embed_dim": 320, "ffn_dim": 1280,
                      "max_positions": 1024},
            "train": {"epochs": 2, "batch_size": len(self.CORPUS), "learning_rate": 1e-3,
                      "seed": 1}}))
        argv = ["pretrain", "--config", str(config), "--fasta", str(fasta),
                "--out", str(tmp_path / "model.eslg")]
        code = []
        peak = traced_peak(lambda: code.append(main(argv)))
        assert code == [0]
        assert peak < 5 * one_set + kept + one_set // 2, (peak / one_set, kept / one_set)


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

    def test_adapter_forward_is_its_merge_bit_for_bit(self, toy_model):
        """forward and mlm_logits fold each trained adapter into its weight as
        merge_lora does, so the adapter model and its merge share every bit."""
        targets = lora_target_names(toy_model.config, ("attention", "ffn", "head"))
        adapted = attach_lora(toy_model, targets, rank=4, alpha=16.0, seed=1)
        rng = np.random.default_rng(16)
        for adapter in adapted.adapters.values():
            adapter.B = rng.normal(0.0, 0.05, adapter.B.shape).astype(np.float32)
        merged = merge_lora(adapted)
        toks = tokenize("".join(rng.choice(list("ACDEFGHIKLMNPQRSTVWY"), size=60)),
                        toy_model.config)
        hidden, want = forward(adapted, toks), forward(merged, toks)
        assert hidden.tobytes() == want.tobytes()
        assert mlm_logits(adapted, hidden).tobytes() == mlm_logits(merged, want).tobytes()

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
