"""The layer pool: forward's bits do not depend on the number of workers, and
the pool keeps the caller's OpenBLAS thread count, NumPy error state and
exceptions."""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import eslong
from conftest import CANONICAL, write_non_finite
from eslong import encoder, parallel
from eslong.attention import AttentionSpec
from eslong.checkpoint import read_checkpoint
from eslong.cli import main
from eslong.encoder import ModelConfig, build_model, forward, save_model, tokenize
from eslong.errors import InputError
from eslong.parallel import LayerPool
from eslong.pipeline import ProteinRecord, embed_corpus, write_fasta, write_store
from eslong.quant import quantize_model
from eslong.training import attach_lora, lora_target_names, mlm_loss

# From 2 * encoder._MIN_PART_ROWS tokens on the rows split too, and 600
# global tokens make three 200-row attention blocks.
LENGTHS = (1, 3, 255, 256, 300, 600, 718)
SETTERS = parallel._blas_thread_setters()


def small_config(mode="global", window_k=None):
    return ModelConfig(num_layers=2, num_heads=4, embed_dim=32, max_positions=720, ffn_dim=128,
                       attention=AttentionSpec(mode, 4, 8, window_k))


def small_model(mode="global", window_k=None, int4=False, lora=False):
    model = build_model(small_config(mode, window_k), seed=3)
    if int4:
        model = quantize_model(model)
    if lora:
        model = attach_lora(model, lora_target_names(model.config, ("attention", "ffn")),
                            rank=2, alpha=4.0, seed=3)
        rng = np.random.default_rng(4)
        for adapter in model.adapters.values():
            adapter.B = rng.normal(0.0, 0.05, adapter.B.shape).astype(np.float32)
    return model


def tokens(n, config, seed=0, pads=False):
    rng = np.random.default_rng([seed, n])
    ids = tokenize("".join(rng.choice(list(CANONICAL), size=max(n - 2, 1))), config)[:n]
    if pads and n > 4:
        ids[n // 3] = ids[-1] = config.vocab.pad_id
    return ids


@pytest.fixture
def use_pool(monkeypatch):
    """use_pool(workers) makes a pool of that many workers the process's pool
    for the rest of the test; it is closed afterwards."""
    made = []

    def use(workers):
        pool = LayerPool(workers, SETTERS)
        made.append(pool)
        monkeypatch.setattr(parallel, "_pool", pool)
        return pool

    yield use
    for pool in made:
        pool.close()


def under_each_pool(use_pool, fn):
    """fn() under a 1-worker and a 2-worker pool."""
    results = []
    for workers in (1, 2):
        use_pool(workers)
        results.append(fn())
    return results


def arrays_of(value):
    """Every array in a (possibly nested) cache, in a fixed order."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        return [a for key in sorted(value) for a in arrays_of(value[key])]
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in arrays_of(item)]
    return []


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mode,window_k", [("global", None), ("local", 16)])
@pytest.mark.parametrize("int4,lora", [(False, False), (True, False), (False, True)],
                         ids=["fp32", "int4", "lora"])
def test_forward_bytes_do_not_depend_on_workers(use_pool, mode, window_k, int4, lora):
    model = small_model(mode, window_k, int4, lora)
    for n in LENGTHS:
        for pads in (False, True):
            toks = tokens(n, model.config, pads=pads)
            one, two = under_each_pool(use_pool, lambda: forward(model, toks))
            assert same_bytes(one, two), (n, pads)


@pytest.mark.parametrize("mode,window_k", [("global", None), ("local", 16)])
def test_cache_arrays_do_not_depend_on_workers(use_pool, mode, window_k):
    model = small_model(mode, window_k)
    for n in (3, 300, 600):
        toks = tokens(n, model.config, pads=True)
        one, two = under_each_pool(use_pool, lambda: forward(model, toks, want_cache=True))
        got, want = arrays_of(two), arrays_of(one)
        assert len(got) == len(want) > 10 * model.config.num_layers
        assert all(same_bytes(a, b) for a, b in zip(got, want)), n


@pytest.mark.parametrize("lora", [False, True])
def test_mlm_grads_do_not_depend_on_workers(use_pool, lora):
    model = small_model(lora=lora)
    batch = [tokens(n, model.config, seed=5) for n in (300, 40, 600)]
    labels = [[(i, t) for i, t in enumerate(seq) if i % 7 == 1] for seq in batch]
    (loss1, grads1), (loss2, grads2) = under_each_pool(
        use_pool, lambda: mlm_loss(model, batch, labels))
    assert loss1 == loss2
    assert sorted(grads1) == sorted(grads2)
    assert all(same_bytes(grads1[key], grads2[key]) for key in grads1)


def test_embed_store_does_not_depend_on_workers(use_pool, tmp_path):
    model = small_model("local", 16)
    rng = np.random.default_rng(6)
    records = [ProteinRecord(f"P{i}", "".join(rng.choice(list(CANONICAL), size=n)))
               for i, n in enumerate((2, 254, 900, 300))]

    def store():
        embeddings, failures = embed_corpus(model, records, residue_limit=700)
        assert not failures
        path = tmp_path / f"store{len(list(tmp_path.iterdir()))}.esem"
        write_store(path, embeddings)
        return np.frombuffer(path.read_bytes(), dtype=np.uint8)

    one, two = under_each_pool(use_pool, store)
    assert same_bytes(one, two)


def test_which_forwards_run_in_parts(use_pool, monkeypatch):
    """An uncached forward splits the heads over a two-worker pool, and the
    rows too from 2 * _MIN_PART_ROWS tokens on. Training's cached forward and
    a model with a trained LoRA adapter never reach the pool."""
    pool = use_pool(2)
    parts = []
    real_run = LayerPool.run

    def run(self, fn, phase_parts):
        if self is pool:
            parts.append(len(phase_parts))
        return real_run(self, fn, phase_parts)

    monkeypatch.setattr(LayerPool, "run", run)
    model = small_model()
    layers = model.config.num_layers
    forward(model, tokens(2 * encoder._MIN_PART_ROWS - 1, model.config))
    assert parts == [1, 2, 1] * layers
    parts.clear()
    forward(model, tokens(2 * encoder._MIN_PART_ROWS, model.config))
    assert parts == [2, 2, 2] * layers
    parts.clear()
    forward(model, tokens(600, model.config), want_cache=True)
    # A rank-r LoRA product rounds differently when its rows are split.
    forward(small_model(lora=True), tokens(600, model.config))
    assert parts == []


def read_blas_threads(setter) -> int:
    count = setter(1)
    setter(count)
    return count


@pytest.mark.skipif(not SETTERS, reason="no OpenBLAS with openblas_set_num_threads_local")
def test_forward_keeps_callers_blas_thread_count(use_pool):
    use_pool(2)
    model = small_model()
    before = [read_blas_threads(setter) for setter in SETTERS]
    try:
        for setter in SETTERS:
            setter(2)
        forward(model, tokens(600, model.config))
        assert [read_blas_threads(setter) for setter in SETTERS] == [2] * len(SETTERS)
    finally:
        for setter, count in zip(SETTERS, before):
            setter(count)


def test_concurrent_long_forwards(use_pool):
    """More callers than cores share the pool and its OpenBLAS hold, with
    thread switches forced often; every result keeps the serial bits."""
    model = small_model()
    inputs = [tokens(n, model.config, seed=7) for n in (256, 300, 600)]
    use_pool(1)
    expected = [forward(model, toks) for toks in inputs]
    use_pool(2)
    before = [read_blas_threads(setter) for setter in SETTERS]
    results, errors = {}, []

    def client(c):
        try:
            for round_ in range(3):
                for j, toks in enumerate(inputs):
                    results[c, round_, j] = forward(model, toks)
        except BaseException as exc:
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client, args=(c,)) for c in range(4)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in clients)
    assert not errors, errors
    assert len(results) == 4 * 3 * len(inputs)
    for (_, _, j), out in results.items():
        assert same_bytes(out, expected[j])
    assert [read_blas_threads(setter) for setter in SETTERS] == before


def test_run_finishes_every_part_then_raises_the_first():
    pool = LayerPool(2)
    finished = []
    first, second = InputError("part 0"), InputError("part 2")

    def fn(part):
        if part.start == 1:
            time.sleep(0.2)
            finished.append(part.start)
        elif part.start == 0:
            raise first
        else:
            raise second

    try:
        with pytest.raises(InputError) as raised:
            pool.run(fn, [slice(0, 1), slice(1, 2), slice(2, 3)])
        assert raised.value is first
        assert finished == [1]
    finally:
        pool.close()


def test_parts_run_in_the_callers_errstate():
    """Part 0 waits until part 1 has started, so part 1 runs on a pool thread;
    both see the caller's np.errstate."""
    pool = LayerPool(2)
    started, seen = threading.Event(), {}

    def fn(part):
        if part.start == 0:
            assert started.wait(30)
        else:
            started.set()
        seen[part.start] = (np.geterr()["over"], threading.get_ident())

    try:
        with np.errstate(over="ignore"):
            pool.run(fn, [slice(0, 1), slice(1, 2)])
    finally:
        pool.close()
    assert seen[0][0] == seen[1][0] == "ignore"
    assert seen[0][1] != seen[1][1]


@pytest.mark.parametrize("value", [np.nan, 3e37], ids=["nan", "overflow"])
def test_broken_model_embed_exits_2(use_pool, tmp_path, capsys, value):
    """cli.main's errstate reaches the pool threads, so a model whose output
    is NaN is an input error (exit 2), not a RuntimeWarning raised on a
    worker thread under this suite's error::RuntimeWarning."""
    use_pool(2)
    model_path = tmp_path / "broken.eslg"
    save_model(small_model(), model_path)
    tensors, config = read_checkpoint(model_path)
    tensors["layers.0.ffn_out"].fill(1234.5)
    write_non_finite(model_path, tensors, config, {1234.5: value})
    fasta = tmp_path / "in.fasta"
    rng = np.random.default_rng(8)
    write_fasta(fasta, [ProteinRecord("P0", "".join(rng.choice(list(CANONICAL), size=600)))])
    argv = ["embed", "--model", str(model_path), "--fasta", str(fasta),
            "--out", str(tmp_path / "x.esem")]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eslong.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_starts_no_thread():
    """The pool is made by the first forward, so a command that runs no
    encoder, such as annotate's, starts no thread. Run in a subprocess: the
    test run itself has made the pool."""
    probe = ("import threading, eslong.cli, eslong.parallel; "
             "print(threading.active_count(), eslong.parallel._pool)")
    assert run_python(probe) == "1 None"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_pool():
    """A child forked after the pool exists has none of its threads; it makes
    a pool of its own and computes the parent's bits."""
    probe = """
import os, numpy as np
from eslong import parallel
from eslong.attention import AttentionSpec
from eslong.encoder import ModelConfig, build_model, forward, tokenize
config = ModelConfig(num_layers=2, num_heads=4, embed_dim=32, max_positions=720, ffn_dim=128,
                     attention=AttentionSpec("global", 4, 8, None))
model = build_model(config, seed=3)
toks = tokenize("ACDEFGHIKL" * 60, config)
parent_out, parent_pool = forward(model, toks), parallel.layer_pool()
pid = os.fork()
if pid == 0:
    ok = parallel.layer_pool() is not parent_pool and (forward(model, toks) == parent_out).all()
    os._exit(0 if ok else 1)
print(os.waitpid(pid, 0)[1])
"""
    assert run_python(probe) == "0"
