"""Shared fixtures and oracles for the test suite."""

import numpy as np
import pytest

from eslong.attention import AttentionSpec
from eslong.checkpoint import write_checkpoint
from eslong.encoder import ModelConfig, build_model, preset_config

CANONICAL = "ACDEFGHIKLMNPQRSTVWY"


def tiny_config(mode="global", window_k=None, max_positions=16, layers=2):
    """Miniature config for gradient checks and structural tests."""
    return ModelConfig(
        num_layers=layers,
        num_heads=2,
        embed_dim=8,
        max_positions=max_positions,
        ffn_dim=16,
        attention=AttentionSpec(mode, 2, 4, window_k),
    )


def random_corpus(rng, count, min_len=8, max_len=40):
    lengths = rng.integers(min_len, max_len + 1, size=count)
    return [
        "".join(rng.choice(list(CANONICAL), size=n)) for n in lengths
    ]


def write_non_finite(path, tensors, config, marks):
    """write_checkpoint refuses NaN and inf, so reader tests store finite marks
    and swap each float32 mark for marks[mark] in the file's bytes."""
    write_checkpoint(path, tensors, config)
    data = path.read_bytes()
    for mark, value in marks.items():
        data = data.replace(np.float32(mark).tobytes(), np.float32(value).tobytes())
    path.write_bytes(data)


@pytest.fixture(scope="session")
def toy_model():
    return build_model(preset_config("toy"), seed=7)


@pytest.fixture(scope="session")
def trained_toy_model():
    """Toy model pre-trained briefly; shared by quantization-fidelity tests."""
    from eslong.training import TrainConfig, pretrain

    rng = np.random.default_rng(11)
    corpus = random_corpus(rng, 40, 10, 50)
    model = build_model(preset_config("toy"), seed=7)
    cfg = TrainConfig(epochs=5, learning_rate=2e-3, seed=11)
    trained, _ = pretrain(model, corpus, cfg)
    return trained, corpus
