"""Encoder: presets, tokenization, forward, context extension, save/load."""

import numpy as np
import pytest

from conftest import tiny_config
from eslong.encoder import (
    DEFAULT_VOCAB,
    EncoderModel,
    TokenVocab,
    build_model,
    config_from_json,
    config_to_json,
    extend_context,
    forward,
    load_model,
    lora_target_names,
    mlm_logits,
    model_astype,
    model_tag,
    preset_config,
    save_model,
    tokenize,
    with_attention,
)
from eslong.errors import ConfigError, ContractError, InputError, LengthError
from eslong.training import _Backprop, attach_lora


def detokenize(token_ids, vocab: TokenVocab = DEFAULT_VOCAB) -> str:
    """Residue string for a token-id list; structural tokens are dropped."""
    return "".join(vocab.tokens[i] for i in token_ids if len(vocab.tokens[i]) == 1)


class TestPresets:
    def test_t6_shape(self):
        cfg = preset_config("T6")
        assert (cfg.num_layers, cfg.num_heads, cfg.embed_dim) == (6, 20, 320)
        assert cfg.max_positions == 1024

    def test_t33_shape(self):
        cfg = preset_config("T33")
        assert (cfg.num_layers, cfg.num_heads, cfg.embed_dim) == (33, 20, 1280)

    def test_remaining_size_tiers(self):
        assert preset_config("T12").embed_dim == 480
        assert preset_config("T30").num_layers == 30
        cfg36 = preset_config("T36")
        assert (cfg36.num_heads, cfg36.embed_dim) == (40, 2560)
        cfg48 = preset_config("T48")
        assert (cfg48.num_layers, cfg48.embed_dim) == (48, 5120)

    def test_toy_determinism(self):
        cfg = preset_config("toy")
        assert (cfg.num_layers, cfg.num_heads, cfg.embed_dim, cfg.max_positions) == (2, 4, 32, 64)
        a = build_model(cfg, seed=7)
        b = build_model(cfg, seed=7)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])
        c = build_model(cfg, seed=8)
        assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("T99")

    def test_vocab_needs_every_canonical_residue(self):
        from eslong.encoder import TokenVocab

        tokens = tuple(t for t in TokenVocab.default().tokens if t != "K")
        with pytest.raises(ConfigError, match="missing K"):
            TokenVocab(tokens)

    def test_invalid_config(self):
        from eslong.attention import AttentionSpec
        from eslong.encoder import ModelConfig

        with pytest.raises(ConfigError):
            ModelConfig(num_layers=1, num_heads=3, embed_dim=8, max_positions=16,
                        ffn_dim=16, attention=AttentionSpec("global", 3, 2))


class TestTokenize:
    def test_basic(self):
        cfg = preset_config("toy")
        v = cfg.vocab
        ids = tokenize("ACD", cfg)
        assert len(ids) == 5
        assert ids[0] == v.cls_id and ids[-1] == v.eos_id
        assert ids[1:4] == [v.residue_id("A"), v.residue_id("C"), v.residue_id("D")]

    def test_empty(self):
        cfg = preset_config("toy")
        assert tokenize("", cfg) == [cfg.vocab.cls_id, cfg.vocab.eos_id]

    def test_unknown_characters_map_to_x(self):
        cfg = preset_config("toy")
        v = cfg.vocab
        ids = tokenize("AJ?", cfg)
        assert ids == [v.cls_id, v.residue_id("A"), v.unknown_id, v.unknown_id, v.eos_id]

    def test_rare_residues_keep_own_tokens(self):
        v = DEFAULT_VOCAB
        assert len({v.residue_id(ch) for ch in "BZUOX"}) == 5
        assert v.residue_id("J") == v.unknown_id

    def test_overlong_sequence(self):
        cfg = preset_config("toy")  # capacity 64 -> 62 residues
        with pytest.raises(LengthError):
            tokenize("A" * 63, cfg)
        tokenize("A" * 62, cfg)

    def test_roundtrip_on_canonical(self):
        cfg = preset_config("toy")
        seq = "ACDEFGHIKLMNPQRSTVWY"
        assert detokenize(tokenize(seq, cfg)) == seq


class ReadRecorder(dict):
    """A dict that adds each key read or popped to reads."""

    def __init__(self, items, reads: set):
        super().__init__(items)
        self.reads = reads

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)

    def pop(self, key, *default):
        self.reads.add(key)
        return super().pop(key, *default)


class TestForward:
    def test_output_shape(self, toy_model):
        out = forward(toy_model, tokenize("ACDEF", toy_model.config))
        assert out.shape == (7, 32)
        assert out.dtype == np.float32

    def test_deterministic(self, toy_model):
        toks = tokenize("MKVLT", toy_model.config)
        np.testing.assert_array_equal(forward(toy_model, toks), forward(toy_model, toks))

    def test_local_covering_window_matches_global(self):
        cfg = tiny_config("global", max_positions=32)
        model = build_model(cfg, seed=5)
        toks = tokenize("ACDEFGHIKL", cfg)
        full = forward(model, toks)
        local = forward(with_attention(model, "local", window_k=2 * (len(toks) - 1)), toks)
        np.testing.assert_allclose(local, full, atol=1e-5)

    def test_bad_token_id(self, toy_model):
        with pytest.raises(InputError):
            forward(toy_model, [0, 999, 2])

    def test_too_long(self, toy_model):
        with pytest.raises(LengthError):
            forward(toy_model, list(range(4)) * 20)

    def test_no_nan_inf_across_presets(self):
        seq = "ACDEFGHIKLMNPQRSTVWYXBZUO"
        for name in ("toy", "T6"):
            cfg = preset_config(name)
            model = build_model(cfg, seed=1)
            out = forward(model, tokenize(seq, cfg))
            assert np.isfinite(out).all()

    @pytest.mark.parametrize("mode,window_k", [("global", None), ("local", 4)])
    def test_pad_tokens_do_not_change_prefix(self, toy_model, mode, window_k):
        model = with_attention(toy_model, mode, window_k)
        cfg = model.config
        toks = tokenize("ACDEFGH", cfg)
        padded = toks + [cfg.vocab.pad_id] * 5
        base = forward(model, toks)
        with_pads = forward(model, padded)
        np.testing.assert_allclose(with_pads[: len(toks)], base, atol=1e-6)

    def test_cache_keeps_only_what_backward_reads(self, toy_model):
        hidden, cache = forward(toy_model, tokenize("ACDEFGH", toy_model.config),
                                want_cache=True)
        assert set(cache) == {"tok", "lnf", "hidden", "layers"}
        assert len(cache["layers"]) == toy_model.config.num_layers
        for layer in cache["layers"]:
            assert set(layer) == {"ln1", "qh", "kh", "vh", "stats", "ln2", "u", "cdf"}
        # The backward pass reads every key the cache keeps, at every level.
        kept = [set(cache)] + [set(layer) for layer in cache["layers"]]
        reads = [set() for _ in kept]
        layers = [ReadRecorder(layer, r) for layer, r in zip(cache["layers"], reads[1:])]
        cache = ReadRecorder({**cache, "layers": layers}, reads[0])
        d_logits = np.ones_like(mlm_logits(toy_model, hidden))
        _Backprop(toy_model).sequence_backward(cache, d_logits, 0)
        assert reads == kept


class TestExtendContext:
    def test_cyclic_copy_rows(self, toy_model):
        ext = extend_context(toy_model, 128, strategy="copy")
        table = ext.params["position_embedding"]
        old = toy_model.params["position_embedding"]
        assert table.shape == (128, 32)
        np.testing.assert_array_equal(table[:64], old)
        np.testing.assert_array_equal(table[64], old[0])
        np.testing.assert_array_equal(table[100], old[36])

    def test_t6_shaped_copy_to_2050(self):
        # same geometry as the flagship 1024 -> 2050 extension, at 2 layers
        # to keep the build cheap; the position table is what matters here.
        from eslong.attention import AttentionSpec
        from eslong.encoder import ModelConfig

        cfg = ModelConfig(num_layers=2, num_heads=20, embed_dim=320,
                          max_positions=1024, ffn_dim=1280,
                          attention=AttentionSpec("global", 20, 16))
        model = build_model(cfg, seed=2)
        ext = extend_context(model, 2050, strategy="copy")
        old = model.params["position_embedding"]
        new = ext.params["position_embedding"]
        assert new.shape[0] == 2050
        for i in (0, 1, 511, 1023, 1024, 1025):
            np.testing.assert_array_equal(new[1024 + i], old[i % 1024])

    def test_forward_preserved_for_short_sequences(self, toy_model):
        ext = extend_context(toy_model, 160, strategy="copy")
        for seq_len in (1, 10, 35, 62):
            toks = tokenize("A" * seq_len, toy_model.config)
            np.testing.assert_allclose(
                forward(ext, toks), forward(toy_model, toks), atol=1e-6
            )

    def test_random_strategy_reproducible(self, toy_model):
        a = extend_context(toy_model, 96, strategy="random", seed=3)
        b = extend_context(toy_model, 96, strategy="random", seed=3)
        c = extend_context(toy_model, 96, strategy="random", seed=4)
        np.testing.assert_array_equal(
            a.params["position_embedding"], b.params["position_embedding"]
        )
        assert not np.array_equal(
            a.params["position_embedding"][64:], c.params["position_embedding"][64:]
        )
        np.testing.assert_array_equal(
            c.params["position_embedding"][:64], toy_model.params["position_embedding"]
        )

    def test_smaller_capacity_rejected(self, toy_model):
        with pytest.raises(ContractError):
            extend_context(toy_model, 64, strategy="copy")
        with pytest.raises(ContractError):
            extend_context(toy_model, 32, strategy="copy")

    def test_other_weights_untouched(self, toy_model):
        ext = extend_context(toy_model, 128, strategy="copy")
        for name, w in toy_model.params.items():
            if name == "position_embedding":
                continue
            assert ext.params[name] is w
        assert ext.config.attention == toy_model.config.attention


class TestSaveLoad:
    def test_roundtrip_bit_exact(self, toy_model, tmp_path):
        path = tmp_path / "toy.eslg"
        save_model(toy_model, path)
        loaded = load_model(path)
        assert loaded.config == toy_model.config
        for name in toy_model.params:
            np.testing.assert_array_equal(loaded.params[name], toy_model.params[name])
        toks = tokenize("ACDEF", toy_model.config)
        np.testing.assert_array_equal(forward(loaded, toks), forward(toy_model, toks))

    def test_config_json_roundtrip(self):
        cfg = preset_config("toy", mode="local", window_k=8)
        assert config_from_json(config_to_json(cfg)) == cfg

    def test_model_tag(self, toy_model):
        assert model_tag(toy_model) == "L2-H4-d32-p64-global"


class TestModelAstype:
    def test_casts_weights_and_adapters(self, toy_model):
        adapted = attach_lora(toy_model, lora_target_names(toy_model.config), rank=2,
                              alpha=4.0, seed=1)
        cast = model_astype(adapted, np.float64)
        assert all(w.dtype == np.float64 for w in cast.params.values())
        assert set(cast.adapters) == set(adapted.adapters)
        for name, ad in cast.adapters.items():
            old = adapted.adapters[name]
            assert (ad.target, ad.rank, ad.alpha) == (old.target, old.rank, old.alpha)
            for new_part, old_part in ((ad.A, old.A), (ad.B, old.B)):
                assert new_part.dtype == np.float64
                np.testing.assert_array_equal(new_part, old_part)


class TestImmutabilityContract:
    def test_forward_does_not_mutate(self, toy_model):
        before = {k: v.copy() for k, v in toy_model.params.items()}
        forward(toy_model, tokenize("ACDEFGHIK", toy_model.config))
        for name, w in toy_model.params.items():
            np.testing.assert_array_equal(w, before[name])

    def test_concurrent_forward_consistent(self, toy_model):
        from concurrent.futures import ThreadPoolExecutor

        toks = tokenize("ACDEFGHIKLMNPQ", toy_model.config)
        expected = forward(toy_model, toks)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: forward(toy_model, toks), range(16)))
        for out in results:
            np.testing.assert_array_equal(out, expected)
