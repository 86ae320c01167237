"""Quantization codec, packing, qmatmul, model quantization, and footprints."""

from typing import Iterable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import tiny_config
from eslong.encoder import build_model, forward, mlm_logits, param_names, param_shape, tokenize
from eslong.errors import ConfigError, InputError, ShapeError
from eslong.quant import (
    QuantPolicy,
    QuantizedTensor,
    decode_dense,
    dequantize,
    int4_payload_bytes,
    memory_footprint,
    pack_codes,
    param_family,
    qmatmul,
    quantize_int4,
    quantize_model,
    real32_payload_bytes,
    unpack_codes,
)
from eslong.tensor_ops import matmul


def projected_footprint(
    named_shapes: Iterable[tuple[str, tuple[int, ...]]],
    policy: QuantPolicy | None = None,
) -> dict[str, int]:
    """Footprint computed from (name, shape) pairs alone.

    Lets large presets be costed without materializing their weights; an empty
    policy (no families) reproduces the real32 footprint exactly.
    """
    policy = policy or QuantPolicy(families=frozenset())
    totals: dict[str, int] = {}
    for name, shape in named_shapes:
        fam = param_family(name)
        numel = int(np.prod(shape))
        if fam in policy.families:
            nbytes = int4_payload_bytes(numel, policy.block_size)
        else:
            nbytes = real32_payload_bytes(numel)
        totals[fam] = totals.get(fam, 0) + nbytes
    totals["total"] = sum(totals.values())
    return totals


def footprint_ratio(quantized: dict[str, int], standard: dict[str, int]) -> float:
    """Total-bytes ratio between two footprints."""
    return quantized["total"] / standard["total"]


def codec_error_and_bound(w, block_size):
    """Per-element |dequant - orig| and scale/2, both evaluated in float64 so
    the measurement itself adds no float32 readback noise."""
    q = quantize_int4(w, block_size)
    codes = unpack_codes(q.packed, q.numel).astype(np.float64)
    scales = np.repeat(q.scales.astype(np.float64), block_size)[: q.numel]
    err = np.abs(codes * scales - w.reshape(-1).astype(np.float64))
    return err, scales / 2.0


class TestCodec:
    def test_all_zero_tensor(self):
        q = quantize_int4(np.zeros(130, dtype=np.float32), 64)
        assert (q.scales == 0).all()
        assert (unpack_codes(q.packed, 130) == 0).all()
        np.testing.assert_array_equal(dequantize(q), np.zeros(130, dtype=np.float32))

    def test_hand_block(self):
        q = quantize_int4(np.array([7.0, -7.0, 3.5, 0.0], dtype=np.float32), 4)
        assert q.scales.tolist() == [1.0]
        # 3.5 / 1.0 rounds half away from zero to 4
        assert unpack_codes(q.packed, 4).tolist() == [7, -7, 4, 0]

    def test_error_bound_random_tensor(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=1024).astype(np.float32)
        err, bound = codec_error_and_bound(w, 64)
        assert (err <= bound).all()

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            quantize_int4(np.array([1.0, np.nan], dtype=np.float32), 2)
        with pytest.raises(InputError):
            quantize_int4(np.array([np.inf], dtype=np.float32), 2)

    def test_roundtrip_zero(self):
        q = quantize_int4(np.zeros((4, 4), dtype=np.float32), 8)
        np.testing.assert_array_equal(dequantize(q), 0.0)

    def test_quantize_is_fixed_point_of_dequantize(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(37, 19)).astype(np.float32)
        q1 = quantize_int4(w, 64)
        q2 = quantize_int4(dequantize(q1), 64)
        np.testing.assert_array_equal(q1.packed, q2.packed)
        np.testing.assert_array_equal(q1.scales, q2.scales)
        assert q1.dims == q2.dims

    def test_relative_frobenius_error(self):
        # Derived from codec resolution: per-element error is at most scale/2,
        # so ||err|| <= sqrt(sum (scale_i/2)^2); for unit normals at block 64
        # that hard bound is ~0.21 relative and the measured value sits near
        # scale/(2*sqrt(3)) ~ 0.11.
        rng = np.random.default_rng(7)
        w = rng.normal(size=4096).astype(np.float32)
        q = quantize_int4(w, 64)
        back = dequantize(q)
        rel = np.linalg.norm(back - w) / np.linalg.norm(w)
        scales_per_elem = np.repeat(q.scales.astype(np.float64), 64)[:4096]
        hard_bound = np.linalg.norm(scales_per_elem / 2.0) / np.linalg.norm(w)
        assert rel <= hard_bound
        assert rel <= 0.12

    def test_codes_decode_within_int4_range(self):
        rng = np.random.default_rng(8)
        q = quantize_int4(rng.normal(size=999).astype(np.float32), 32)
        codes = unpack_codes(q.packed, 999)
        assert codes.min() >= -8 and codes.max() <= 7
        assert (q.scales >= 0).all()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 300), st.integers(1, 70), st.integers(0, 2**32 - 1))
    def test_codec_bound_property(self, numel, block_size, seed):
        w = np.random.default_rng(seed).normal(scale=3.0, size=numel).astype(np.float32)
        err, bound = codec_error_and_bound(w, block_size)
        assert (err <= bound).all()


class TestPacking:
    def test_roundtrip_all_byte_values(self):
        payload = np.arange(256, dtype=np.uint8)
        assert np.array_equal(pack_codes(unpack_codes(payload, 512)), payload)

    def test_odd_length_zero_padded(self):
        codes = np.array([3, -5, 7], dtype=np.int8)
        packed = pack_codes(codes)
        assert packed.size == 2
        assert unpack_codes(packed, 3).tolist() == [3, -5, 7]


class TestDecodeDense:
    """decode_dense must give the bits of the block-by-block reference."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 301), st.integers(1, 400), st.integers(0, 2**32 - 1))
    def test_matches_dequantize_bitwise(self, numel, block_size, seed):
        # block sizes past numel, odd numel and partial last blocks all occur
        w = np.random.default_rng(seed).normal(scale=2.0, size=numel).astype(np.float32)
        q = quantize_int4(w, block_size)
        assert decode_dense(q).tobytes() == dequantize(q).tobytes()

    @pytest.mark.parametrize("block_size", [1, 5, 64, 600])
    def test_every_byte_value_matches_dequantize(self, block_size):
        # all 256 bytes, so every nibble pair and code -8 decode
        numel = 512
        nblocks = (numel + block_size - 1) // block_size
        scales = np.random.default_rng(block_size).uniform(0.01, 3.0, nblocks).astype(np.float32)
        q = QuantizedTensor(dims=(16, 32), block_size=block_size,
                            packed=np.arange(256, dtype=np.uint8), scales=scales)
        out = decode_dense(q)
        assert out.shape == (16, 32) and out.dtype == np.float32
        assert out.tobytes() == dequantize(q).tobytes()


class TestQmatmul:
    def test_lossless_blocks_exact(self):
        # values already on the code lattice with absmax 7 in every block
        # -> unit scales -> the codec is exact and so is qmatmul
        rng = np.random.default_rng(9)
        w = rng.integers(-7, 8, size=(16, 4)).astype(np.float32)
        flat = w.reshape(-1)
        flat[::16] = 7.0  # pin the absmax of each 16-element block
        q = quantize_int4(w, 16)
        np.testing.assert_array_equal(q.scales, 1.0)
        a = rng.normal(size=(3, 16)).astype(np.float32)
        np.testing.assert_array_equal(qmatmul(a, q), a @ w)

    def test_zero_activation(self):
        q = quantize_int4(np.random.default_rng(10).normal(size=(8, 5)).astype(np.float32), 4)
        out = qmatmul(np.zeros((2, 8), dtype=np.float32), q)
        np.testing.assert_array_equal(out, 0.0)

    def test_matches_dequantize_then_matmul_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 64)).astype(np.float32)
        q = quantize_int4(rng.normal(size=(64, 8)).astype(np.float32), 64)
        oracle = matmul(a, dequantize(q))
        np.testing.assert_allclose(qmatmul(a, q), oracle, atol=1e-5)

    def test_shape_mismatch(self):
        q = quantize_int4(np.ones((8, 5), dtype=np.float32), 4)
        with pytest.raises(ShapeError):
            qmatmul(np.ones((2, 9), dtype=np.float32), q)


class TestQuantizeModel:
    def test_forward_close_to_real32(self, toy_model):
        quantized = quantize_model(toy_model)
        toks = tokenize("ACDEFGHIKLMNPQRSTVWY", toy_model.config)
        base = forward(toy_model, toks)
        qout = forward(quantized, toks)
        rel = np.linalg.norm(qout - base) / np.linalg.norm(base)
        assert rel <= 0.1

    def test_empty_policy_bit_identical(self, toy_model):
        same = quantize_model(toy_model, QuantPolicy(families=frozenset()))
        toks = tokenize("ACDEFG", toy_model.config)
        np.testing.assert_array_equal(forward(same, toks), forward(toy_model, toks))

    def test_embeddings_and_norms_stay_real32(self, toy_model):
        quantized = quantize_model(toy_model)
        for name, w in quantized.params.items():
            fam = param_family(name)
            if fam in ("embeddings", "layer_norm", "head"):
                assert isinstance(w, np.ndarray), name
            else:
                assert isinstance(w, QuantizedTensor), name

    def test_requantization_is_stable(self, toy_model):
        q1 = quantize_model(toy_model)
        q2 = quantize_model(q1)
        for name, w in q1.params.items():
            if isinstance(w, QuantizedTensor):
                np.testing.assert_array_equal(w.packed, q2.params[name].packed)

    def test_bad_family_rejected(self, toy_model):
        with pytest.raises(ConfigError):
            quantize_model(toy_model, QuantPolicy(families=frozenset({"embeddings"})))

    def test_mlm_argmax_agreement_after_training(self, trained_toy_model):
        model, corpus = trained_toy_model
        quantized = quantize_model(model)
        agree = 0
        total = 0
        for seq in corpus[:10]:
            toks = tokenize(seq, model.config)
            base = np.argmax(mlm_logits(model, forward(model, toks)), axis=1)
            qarg = np.argmax(mlm_logits(quantized, forward(quantized, toks)), axis=1)
            agree += int((base == qarg).sum())
            total += base.size
        assert agree / total >= 0.9


class TestFootprint:
    def test_toy_linear_payload_shrinks_past_8x_plus_overhead(self, toy_model):
        base = memory_footprint(toy_model)
        quantized = memory_footprint(quantize_model(toy_model))
        for fam in ("attention", "ffn"):
            real = base[fam]
            n_tensors = sum(
                1 for name in toy_model.params if param_family(name) == fam
            )
            # 4-bit codes (1/8 of real32) + float32 scales (one per 64 values
            # = real32/64) + per-tensor header and rounding slack
            allowance = real / 8 + real / 64 + 13 * n_tensors
            assert quantized[fam] <= allowance

    def test_t33_shaped_ratio_below_035(self):
        from eslong.attention import AttentionSpec
        from eslong.encoder import ModelConfig

        cfg = ModelConfig(num_layers=33, num_heads=20, embed_dim=1280,
                          max_positions=1024, ffn_dim=5120,
                          attention=AttentionSpec("global", 20, 64))
        shapes = [(name, param_shape(name, cfg)) for name in param_names(cfg)]
        standard = projected_footprint(shapes)
        quantized = projected_footprint(shapes, QuantPolicy())
        assert footprint_ratio(quantized, standard) < 0.35

    def test_empty_policy_ratio_exactly_one(self, toy_model):
        shapes = [
            (name, param_shape(name, toy_model.config))
            for name in param_names(toy_model.config)
        ]
        standard = projected_footprint(shapes)
        unquantized = projected_footprint(shapes, QuantPolicy(families=frozenset()))
        assert footprint_ratio(unquantized, standard) == 1.0

    def test_monotone_in_families(self, toy_model):
        shapes = [
            (name, param_shape(name, toy_model.config))
            for name in param_names(toy_model.config)
        ]
        subsets = [
            frozenset(),
            frozenset({"attention"}),
            frozenset({"attention", "ffn"}),
            frozenset({"attention", "ffn", "head"}),
        ]
        totals = [
            projected_footprint(shapes, QuantPolicy(families=s))["total"] for s in subsets
        ]
        assert all(b <= a for a, b in zip(totals, totals[1:]))

    def test_payload_arithmetic(self):
        assert real32_payload_bytes(100) == 400
        assert int4_payload_bytes(100, 64) == 4 + 4 + 4 * 2 + 50
