"""The layer pool: forward's bits do not depend on the number of workers or
on the caller's OpenBLAS thread count, the pool leaves OpenBLAS at one
thread, and it keeps the caller's NumPy error state and exceptions."""

import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from contextlib import contextmanager

import numpy as np
import pytest

import eslong
from conftest import CANONICAL, tiny_config, write_non_finite
from eslong import attention, encoder, parallel, pipeline, training
from eslong.attention import AttentionSpec
from eslong.checkpoint import read_checkpoint
from eslong.cli import main
from eslong.encoder import (
    ModelConfig,
    build_model,
    forward,
    preset_config,
    save_model,
    tokenize,
)
from eslong.errors import IngestionError, InputError
from eslong.head import HeadConfig, init_head, save_head
from eslong.parallel import LayerPool
from eslong.pipeline import (
    EmbeddingRecord,
    ProteinRecord,
    embed_corpus,
    embed_protein,
    write_fasta,
    write_store,
)
from eslong.quant import quantize_model
from eslong.training import (
    TrainConfig,
    attach_lora,
    derive_seed,
    get_trainable,
    lora_target_names,
    mlm_loss,
    pretrain,
)

# From 2 * encoder._MIN_PART_ROWS tokens on the rows split too, and 600
# global tokens make three 200-row attention blocks.
LENGTHS = (1, 3, 255, 256, 300, 600, 718)
SETTERS = parallel._blas_thread_setters()


def small_config(mode="global", window_k=None):
    return ModelConfig(num_layers=2, num_heads=4, embed_dim=32, max_positions=720, ffn_dim=128,
                       attention=AttentionSpec(mode, 4, 8, window_k))


def narrow_model(mode="global", window_k=None):
    """A model under encoder._MIN_SPLIT_WIDTH columns wide: its rows stay whole."""
    return build_model(tiny_config(mode, window_k, max_positions=720), seed=3)


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
        pool = LayerPool(workers)
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
@pytest.mark.parametrize("kind", ["fp32", "int4", "lora", "narrow"])
def test_forward_bytes_do_not_depend_on_workers(use_pool, mode, window_k, kind):
    model = (narrow_model(mode, window_k) if kind == "narrow"
             else small_model(mode, window_k, int4=kind == "int4", lora=kind == "lora"))
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


@pytest.mark.parametrize("int4_lora", [False, True], ids=["full", "int4-lora"])
def test_pretrain_does_not_depend_on_workers(use_pool, int4_lora):
    """A batch of 3 over 7 sequences: the last batch is short, the empty
    sequence has no labels, and a short sequence follows a long one."""
    model = small_model(int4=int4_lora, lora=int4_lora)
    rng = np.random.default_rng(10)
    corpus = ["".join(rng.choice(list(CANONICAL), size=n))
              for n in (600, 30, 0, 300, 450, 20, 500)]
    cfg = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=3, seed=6)
    order = np.random.default_rng(derive_seed(cfg.seed, "shuffle")).permutation(len(corpus))
    batches = [[len(corpus[i]) for i in order[lo: lo + 3]] for lo in range(0, len(order), 3)]
    assert any(a > 256 > b for batch in batches for a, b in zip(batch, batch[1:])), batches
    (one, curve1), (two, curve2) = under_each_pool(use_pool, lambda: pretrain(model, corpus, cfg))
    assert curve1 == curve2
    params1, params2 = get_trainable(one), get_trainable(two)
    assert sorted(params1) == sorted(params2)
    assert all(same_bytes(params1[key], params2[key]) for key in params1)


def test_concurrent_batches_on_more_workers_than_cores(use_pool):
    """Two callers train on one four-worker pool, with thread switches
    forced often; every batch keeps the serial loss and gradient bits."""
    model = small_model()
    batch = [tokens(n, model.config, seed=11) for n in (300, 40, 260, 120, 20, 500)]
    labels = [[(i, t) for i, t in enumerate(seq) if i % 6 == 1] for seq in batch]
    use_pool(1)
    want_loss, want = mlm_loss(model, batch, labels)
    use_pool(4)
    results, errors = [], []

    def client():
        try:
            for _ in range(2):
                results.append(mlm_loss(model, batch, labels))
        except BaseException as exc:
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client) for _ in range(2)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in clients)
    assert not errors, errors
    assert len(results) == 4
    for loss, grads in results:
        assert loss == want_loss
        assert all(same_bytes(grads[key], want[key]) for key in want)


def test_failing_sequence_stops_the_batch(use_pool, monkeypatch):
    """The second of four sequences raises in its backward pass: mlm_loss
    raises that error, no thread waits for its turn afterwards, and OpenBLAS
    is at one thread."""
    pool = use_pool(2)
    model = small_model()
    lengths = (300, 120, 260, 40)
    batch = [tokens(n, model.config, seed=9) for n in lengths]
    labels = [[(i, t) for i, t in enumerate(seq) if i % 5 == 1] for seq in batch]
    failure = InputError("sequence 1")
    real_gelu_grad = encoder.gelu_grad

    def gelu_grad(u, cdf):
        if len(u) == lengths[1]:
            raise failure
        return real_gelu_grad(u, cdf)

    batches = []

    class Backprop(training._Backprop):
        def __init__(self, model):
            super().__init__(model)
            batches.append(self)

    monkeypatch.setattr(encoder, "gelu_grad", gelu_grad)
    monkeypatch.setattr(training, "_Backprop", Backprop)
    raised = []

    def call():
        try:
            mlm_loss(model, batch, labels)
        except BaseException as exc:
            raised.append(exc)

    with blas_threads(2):
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        if caller.is_alive():
            batches[0].abandon(-1)  # frees the waiting threads, so the suite does not hang
            caller.join(timeout=60)
            pytest.fail("mlm_loss still waits after a sequence raised")
        assert [read_blas_threads(setter) for setter in SETTERS] == [1] * len(SETTERS)
    assert len(raised) == 1 and raised[0] is failure
    # The worker is free: no part of the batch is left waiting.
    assert pool._executor.submit(lambda: "free").result(timeout=10) == "free"


def test_each_int4_weight_decoded_once_per_batch(use_pool, monkeypatch):
    """Two sequences of the same length reach each weight's decode at about
    the same time on two threads; the slowed decode still runs once per
    weight."""
    use_pool(2)
    model = small_model(int4=True)
    batch = [tokens(300, model.config, seed=s) for s in (1, 2, 3)]
    labels = [[(i, t) for i, t in enumerate(seq) if i % 7 == 1] for seq in batch]
    decoded = []
    real_dense_weight = training._dense_weight

    def dense_weight(model, name, dtype):
        decoded.append(name)
        time.sleep(0.01)
        return real_dense_weight(model, name, dtype)

    monkeypatch.setattr(training, "_dense_weight", dense_weight)
    mlm_loss(model, batch, labels)
    names = [n for n in model.params if n.endswith(("_proj", "ffn_in", "ffn_out", "mlm_head"))]
    assert sorted(decoded) == sorted(names)


def test_backward_releases_the_layer_caches():
    model = small_model()
    toks = tokens(40, model.config)
    hidden, cache = forward(model, toks, want_cache=True)
    assert len(cache["layers"]) == model.config.num_layers
    d_logits = np.ones((len(toks), model.config.vocab.size), np.float32)
    training._Backprop(model).sequence_backward(cache, d_logits, 0)
    assert cache["layers"] == []


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


@pytest.mark.parametrize("workers, bound_mb", [(1, 14.6), (2, 19.0)])
def test_uncached_forward_working_set(use_pool, monkeypatch, workers, bound_mb):
    """One T6 forward at 1,022 global tokens with no cache: attention's tile
    buffers, the FFN's activations and layer norm 1's output are bounded, so
    up to `workers` forwards fit in the memory one took when each allocated
    a [20, 256, 1022] tile and [n, ffn_dim] activations (a 31.9 MB traced
    peak). The bounds are about 10% above the peaks measured since, 13.3
    and 17.4 MB. No tile buffer exceeds attention._TILE_BUDGET."""
    use_pool(workers)
    model = build_model(preset_config("T6"), seed=1)
    toks = tokens(1022, model.config, seed=4)
    forward(model, toks)  # warm: no first-call allocation counts
    buffers = []
    real_allocate = attention._Tiles.allocate

    def allocate(self, heads):
        work = real_allocate(self, heads)
        buffers.append(work.shape)
        return work

    monkeypatch.setattr(attention._Tiles, "allocate", allocate)
    tracemalloc.start()
    try:
        forward(model, toks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20
    assert len(buffers) == workers * model.config.num_layers
    assert all(shape == (1, buffers[0][1]) and shape[1] <= attention._TILE_BUDGET
               for shape in buffers)


def test_long_forward_holds_each_operand_once(use_pool):
    """One uncached forward at 2,048 tokens, T6's width, local window 128, on
    one worker: the peak is the residual stream, Q, the padded K, V with its
    ones column and ctx with its row sums, plus one tile budget and one FFN
    block's scratch. A whole-sequence copy of Q, K or V (2.6 MiB each) would
    break the bound, as the scaled-Q and padded-K and V copies that attend
    made before reading Q, K and V in place did (21.6 MiB)."""
    use_pool(1)
    n, spec = 2048, AttentionSpec("local", 20, 16, 128)
    model = build_model(ModelConfig(2, 20, 320, n, 1280, spec), seed=5)
    toks = tokens(n, model.config, seed=6)
    forward(model, toks)  # warm: no first-call allocation counts
    d, f, heads = model.config.embed_dim, model.config.ffn_dim, spec.num_heads
    length = attention._geometry(n, spec).length
    operands = n * d + n * d + length * d + length * (d + heads) + n * (d + heads)
    # layer norm 2's xhat and output, the FFN's input, GELU and output products
    ffn_block = encoder._BLOCK_ROWS * (3 * d + 2 * f)
    bound = (operands + attention._TILE_BUDGET + ffn_block) * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        forward(model, toks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak / 2**20, bound / 2**20)


def random_records(lengths, seed):
    rng = np.random.default_rng(seed)
    return [ProteinRecord(f"P{i}", "".join(rng.choice(list(CANONICAL), size=n)))
            for i, n in enumerate(lengths)]


def test_embed_corpus_keeps_input_order_and_isolates_failures(use_pool):
    """The records run longest first, side by side on two workers; the
    vectors and the failures come back in input order, each vector the one
    embed_protein gives its record alone, with the same bytes on one worker
    and on two. The empty record in the middle fails alone."""
    model = small_model()
    records = random_records((40, 600, 300, 0, 5, 900, 250), seed=12)

    def run():
        return embed_corpus(model, records, residue_limit=700)

    one, two = under_each_pool(use_pool, run)
    for embeddings, failures in (one, two):
        assert [r.protein_id for r in embeddings] == [rec.id for rec in records if rec.sequence]
        assert [pid for pid, _ in failures] == ["P3"]
        assert "empty sequence" in failures[0][1]
    for a, b, rec in zip(one[0], two[0], [rec for rec in records if rec.sequence]):
        alone = embed_protein(model, rec, residue_limit=700)
        assert same_bytes(a.vector, b.vector) and same_bytes(a.vector, alone.vector)
        assert a.slice_count == b.slice_count == alone.slice_count


def test_embed_manifest_lists_skipped_in_input_order(use_pool, tmp_path, monkeypatch, capsys):
    """Records rejected on pool threads, in another order than the input's,
    are listed in input order in the manifest and on stderr."""
    use_pool(2)
    real = pipeline.embed_protein

    def embed_or_reject(model, record, residue_limit, pool):
        if record.id in ("P0", "P2", "P4"):
            raise IngestionError(f"{record.id} rejected")
        return real(model, record, residue_limit, pool=pool)

    monkeypatch.setattr(pipeline, "embed_protein", embed_or_reject)
    model_path, fasta, out = tmp_path / "m.eslg", tmp_path / "in.fasta", tmp_path / "x.esem"
    save_model(small_model(), model_path)
    write_fasta(fasta, random_records((30, 500, 600, 20, 300), seed=13))
    assert main(["embed", "--model", str(model_path), "--fasta", str(fasta),
                 "--out", str(out)]) == 1
    manifest = json.loads((tmp_path / "x.esem.manifest.json").read_text())
    assert manifest["extra"]["skipped"] == ["P0", "P2", "P4"]
    assert list(manifest["extra"]["slice_counts"]) == ["P1", "P3"]
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err[:3]] == ["skipped P0", "skipped P2", "skipped P4"]


def test_which_forwards_run_in_parts(use_pool, monkeypatch):
    """A wide model's forward splits the heads over a two-worker pool, and the
    rows too from 2 * _MIN_PART_ROWS tokens on, with or without a cache. A
    model with a trained LoRA adapter splits as the plain one does; a narrow
    model splits only its heads."""
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
    assert parts == [2, 2, 2] * layers
    parts.clear()
    # The adapters are folded into their weights, so every product is wide.
    lora = small_model(lora=True)
    for want_cache in (False, True):
        forward(lora, tokens(600, lora.config), want_cache=want_cache)
        assert parts == [2, 2, 2] * layers
        parts.clear()
    # Any product under _MIN_SPLIT_WIDTH columns rounds differently when its
    # rows are split.
    narrow = narrow_model()
    forward(narrow, tokens(600, narrow.config))
    assert parts == [1, 2, 1] * narrow.config.num_layers


def read_blas_threads(setter) -> int:
    count = setter(1)
    setter(count)
    return count


@contextmanager
def blas_threads(count):
    """OpenBLAS at count threads for the block, then back at its count."""
    before = [read_blas_threads(setter) for setter in SETTERS]
    for setter in SETTERS:
        setter(count)
    try:
        yield
    finally:
        for setter, saved in zip(SETTERS, before):
            setter(saved)


@pytest.mark.skipif(not SETTERS, reason="no OpenBLAS with openblas_set_num_threads_local")
@pytest.mark.parametrize("make_model", [small_model, lambda: small_model(lora=True), narrow_model],
                         ids=["plain", "lora", "narrow"])
def test_forward_leaves_blas_at_one_thread(use_pool, make_model):
    """forward leaves OpenBLAS at one thread, and its bits do not depend on
    the count the caller set before: above about 450 tokens attention's
    products round differently on two threads."""
    use_pool(2)
    model = make_model()
    toks = tokens(600, model.config)
    with blas_threads(1):
        want = forward(model, toks)
    with blas_threads(2):
        got = forward(model, toks)
        assert [read_blas_threads(setter) for setter in SETTERS] == [1] * len(SETTERS)
    assert same_bytes(got, want)


def test_concurrent_long_forwards(use_pool):
    """More callers than cores share the pool, with thread switches forced
    often; every result keeps the serial bits, and OpenBLAS is left at one
    thread."""
    model = small_model()
    inputs = [tokens(n, model.config, seed=7) for n in (256, 300, 600)]
    use_pool(1)
    expected = [forward(model, toks) for toks in inputs]
    use_pool(2)
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
    assert [read_blas_threads(setter) for setter in SETTERS] == [1] * len(SETTERS)


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


def test_run_without_parts_returns():
    pool = LayerPool(2)
    called = []
    runner = threading.Thread(target=pool.run, args=(called.append, []), daemon=True)
    try:
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert called == []
    finally:
        pool.close()


def test_nested_runs_queue_nothing_behind_busy_workers():
    """While the parts of an outer run keep every worker busy, the runs nested
    in them hand no part to a worker, so nothing waits in the executor's
    queue; a corpus of records would otherwise queue one item per phase."""
    pool = LayerPool(2)
    submitted, real_submit = [], pool._executor.submit

    def submit(*args):
        submitted.append(args)
        return real_submit(*args)

    pool._executor.submit = submit
    both_busy, both_done = threading.Barrier(2, timeout=30), threading.Barrier(2, timeout=30)
    inner = []

    def outer(part):
        both_busy.wait()
        for _ in range(20):
            pool.run(inner.append, [part, part])
        both_done.wait()

    try:
        pool.run(outer, [0, 1])
    finally:
        pool.close()
    assert len(submitted) == 1
    assert sorted(inner) == [0] * 40 + [1] * 40


def adds_one_to_an_array():
    """A part function whose closure alone holds its array, and a weak
    reference to that array."""
    array = np.zeros(64)

    def fn(part):
        array[part] += 1

    return fn, weakref.ref(array)


def test_run_drops_its_work_when_it_returns():
    """A take_parts queued behind a busy worker must not keep the finished
    phase's function, or the arrays it reaches, alive."""
    pool = LayerPool(2)
    release = threading.Event()
    try:
        pool._executor.submit(release.wait)
        fn, held = adds_one_to_an_array()
        pool.run(fn, pool.split(64))
        del fn
        assert held() is None
    finally:
        release.set()
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
    """The pool is made on its first use, so a command that never uses it,
    such as eval, starts no thread. Run in a subprocess: the test run itself
    has made the pool."""
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


@pytest.mark.skipif(not SETTERS, reason="no OpenBLAS with openblas_set_num_threads_local")
def test_pretrain_cli_does_not_depend_on_blas_threads(tmp_path):
    """On sequences above 450 tokens some products round differently on one
    OpenBLAS thread and on two; pretrain sets OpenBLAS to one, so the
    checkpoint and the loss curve are the same under either setting."""
    rng = np.random.default_rng(5)
    fasta = tmp_path / "corpus.fasta"
    write_fasta(fasta, [ProteinRecord(f"P{i}", "".join(rng.choice(list(CANONICAL), size=n)))
                        for i, n in enumerate((700, 500, 600, 460))])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"num_layers": 2, "num_heads": 4, "embed_dim": 32, "ffn_dim": 128,
                  "max_positions": 720},
        "train": {"epochs": 1, "batch_size": 2, "learning_rate": 1e-3, "seed": 3}}))
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"model{threads}.eslg"
        run_cli_on_blas_threads(threads, "pretrain", "--config", str(config),
                                "--fasta", str(fasta), "--out", str(out))
        manifest = json.loads((tmp_path / f"model{threads}.eslg.manifest.json").read_text())
        results.append((out.read_bytes(), manifest["extra"]["loss_curve"]))
    assert results[0] == results[1]


@pytest.mark.skipif(not SETTERS, reason="no OpenBLAS with openblas_set_num_threads_local")
def test_adapter_embed_cli_does_not_depend_on_blas_threads(tmp_path):
    """A model with a trained LoRA adapter runs every forward on the pool,
    and the pool sets OpenBLAS to one thread, so the store has the same bytes
    under either setting."""
    model = tmp_path / "lora.eslg"
    save_model(small_model(lora=True), model)
    fasta = tmp_path / "in.fasta"
    write_fasta(fasta, random_records((480, 1000, 700, 600), seed=5))
    stores = []
    for threads in ("1", "2"):
        out = tmp_path / f"store{threads}.esem"
        run_cli_on_blas_threads(threads, "embed", "--model", str(model), "--fasta", str(fasta),
                                "--out", str(out))
        stores.append(out.read_bytes())
    assert stores[0] == stores[1]


@pytest.mark.skipif(not SETTERS, reason="no OpenBLAS with openblas_set_num_threads_local")
def test_predict_cli_does_not_depend_on_blas_threads(tmp_path):
    """A 512-wide hidden layer over 1,620 terms is a product that OpenBLAS
    rounds differently on two threads; predict sets OpenBLAS to one, so the
    scores have the same bytes under either setting."""
    rng = np.random.default_rng(8)
    terms = [f"GO:{k}" for k in range(1620)]
    head = init_head(HeadConfig(4, len(terms), 512), terms)
    head.params = {name: rng.normal(size=v.shape).astype(np.float32)
                   for name, v in head.params.items()}
    save_head(head, tmp_path / "head.eslg")
    write_store(tmp_path / "test.esem", [EmbeddingRecord(f"P{i}", rng.normal(size=4).astype(
        np.float32), 1) for i in range(8)])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"pred{threads}.tsv"
        run_cli_on_blas_threads(threads, "predict", "--head", str(tmp_path / "head.eslg"),
                                "--embeddings", str(tmp_path / "test.esem"), "--out", str(out))
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.skipif(not SETTERS, reason="no OpenBLAS with openblas_set_num_threads_local")
def test_train_head_cli_does_not_depend_on_blas_threads(tmp_path):
    """A 512-wide hidden layer over 1,620 terms makes training products that
    OpenBLAS rounds differently on two threads; train_head sets OpenBLAS to
    one, so the checkpoint has the same bytes under either setting."""
    rng = np.random.default_rng(9)
    lines = []
    for name, count in (("train", 64), ("val", 16)):
        records = [EmbeddingRecord(f"{name}{i}", rng.normal(size=32).astype(np.float32), 1)
                   for i in range(count)]
        write_store(tmp_path / f"{name}.esem", records)
        # Record i holds every 64th term from GO:i on; the training records
        # hold all 1,620.
        lines += [f"{rec.protein_id}\tGO:{k}\n"
                  for i, rec in enumerate(records) for k in range(i, 1620, 64)]
    (tmp_path / "truth.tsv").write_text("".join(lines))
    heads = []
    for threads in ("1", "2"):
        out = tmp_path / f"head{threads}.eslg"
        run_cli_on_blas_threads(threads, "train-head",
                                "--embeddings", str(tmp_path / "train.esem"),
                                "--val-embeddings", str(tmp_path / "val.esem"),
                                "--truth", str(tmp_path / "truth.tsv"), "--out", str(out),
                                "--hidden", "512", "--epochs", "1", "--seed", "3")
        heads.append(out.read_bytes())
    assert heads[0] == heads[1]


def run_cli_on_blas_threads(threads: str, *argv: str) -> None:
    """The CLI in a subprocess under OPENBLAS_NUM_THREADS=threads; it must exit 0."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.path.dirname(os.path.dirname(eslong.__file__)))
    done = subprocess.run([sys.executable, "-c", "from eslong.cli import run; run()", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
