"""Shared fixtures and oracles for the test suite."""

import builtins
import errno
import tracemalloc

import numpy as np
import pytest

from eslong import checkpoint
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


def traced_peak(fn, *args) -> int:
    """Peak bytes tracemalloc sees while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_non_finite(path, tensors, config, marks):
    """write_checkpoint refuses NaN and inf, so reader tests store finite marks
    and swap each float32 mark for marks[mark] in the file's bytes."""
    write_checkpoint(path, tensors, config)
    data = path.read_bytes()
    for mark, value in marks.items():
        data = data.replace(np.float32(mark).tobytes(), np.float32(value).tobytes())
    path.write_bytes(data)


class _FillingFile:
    """A binary file that takes limit bytes, then raises ENOSPC, as a write
    to a disk that fills up midway does."""

    def __init__(self, path, limit):
        self.fh = builtins.open(path, "wb")
        self.left = limit

    def write(self, data):
        data = memoryview(data).cast("B")
        if data.nbytes > self.left:
            self.fh.write(data[: self.left])
            self.left = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.left -= data.nbytes
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture()
def disk_fills_after(monkeypatch):
    """disk_fills_after(limit): from then on, every file eslong.checkpoint
    opens for writing takes limit bytes and then raises ENOSPC."""

    def fill_after(limit):
        def open_(path, mode="r", *args, **kwargs):
            if "w" in mode:
                return _FillingFile(path, limit)
            return builtins.open(path, mode, *args, **kwargs)

        monkeypatch.setattr(checkpoint, "open", open_, raising=False)

    return fill_after


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
