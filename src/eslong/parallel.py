"""The thread pool that runs the parts of an encoder layer, the sequences of
a training batch, the records of an embedding corpus, and the record blocks
of a classifier head's predictions.

encoder._layer_forward runs each layer as three phases, and every phase as
parts that read shared inputs and write disjoint slices of arrays it
allocated: rows for layer norm, projections and GELU, heads for attention.
LayerPool.run runs the parts of one phase on the caller's thread and its
idle worker threads and returns when all are done. NumPy and OpenBLAS
release the interpreter lock inside their loops, so the parts of a phase
overlap. training.mlm_loss runs the sequences of a batch, and
pipeline.embed_corpus the records of a corpus, as the parts of one run; each
forward, and each encoder.layer_backward, runs its parts on the same pool.
The caller of a run takes parts too and never waits for a part no thread has
taken, so such nested runs cannot deadlock: when every worker is busy, the
caller runs all the parts. A run hands parts only to workers idle when it
starts, so a nested run queues nothing behind a busy worker.

The parts' matrix products must each run on one core. Two BLAS threads on
top of the workers oversubscribe the cores, and they also make attention's
small score products slower. OpenBLAS exports openblas_set_num_threads_local
for this, but in its pthreads builds, numpy's wheels among them, the call sets
the thread count of the whole library, not of the calling thread. So
layer_pool() sets every OpenBLAS in the process to one thread each time it
is called, and never puts the old count back: every product eslong computes
runs on one thread, after any caller's change to the count. It does so for
one worker too: some OpenBLAS products, such as attention's
[rows, n] @ [n, head_dim + 1] for n above about 450, round differently on
one thread and on two, and a store's or a checkpoint's bits should not
depend on the worker count. Where the symbol cannot be found, the pool has
one worker, and every part runs inline on the caller's thread, in order,
with whatever thread count OpenBLAS has.

Parts run in a copy of the caller's context: NumPy keeps np.errstate in a
context variable, which a pool thread would not inherit.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor


def _blas_thread_setters() -> tuple:
    """openblas_set_num_threads_local of every OpenBLAS loaded into the
    process, found through /proc/self/maps; empty where there is none or the
    file does not exist."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return ()
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})
    setters = []
    for path in paths:
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int  # the count before the call
        setters.append(setter)
    return tuple(setters)


def cut(count: int, parts: int, align: int = 1) -> list[slice]:
    """range(count) cut into `parts` contiguous slices of near-equal size whose
    inner bounds are multiples of align."""
    bounds = [0, *(round(i * count / parts / align) * align for i in range(1, parts)), count]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


class LayerPool:
    """The caller and workers - 1 threads run the parts of a phase; with one
    worker there are no threads and the parts run inline, in order."""

    def __init__(self, workers: int):
        self.workers = max(1, workers)
        # The caller is one of the workers.
        self._executor = (ThreadPoolExecutor(self.workers - 1, thread_name_prefix="eslong-layer")
                          if self.workers > 1 else None)
        self._lock = threading.Lock()
        self._idle = self.workers - 1  # pool threads that run no take_parts

    def split(self, count: int, align: int = 1, least: int = 1) -> list[slice]:
        """count items cut into at most `workers` contiguous parts of near-equal
        size. Inner bounds are multiples of align, and there are no more parts
        than count // least; with least >= 2 * align every part then holds at
        least align items."""
        return cut(count, max(1, min(self.workers, count // least)), align)

    def run(self, fn, parts) -> None:
        """fn(part) for every part, on the caller and the pool threads idle
        when run starts, at most one fewer than the parts, each taking the
        next part not yet taken. A thread that wakes late finds no part left
        and returns; the caller waits only for the parts taken. All parts
        finish before the first exception, in part order, is raised, so no
        part still writes into the caller's arrays once run has returned or
        raised. A take_parts still queued behind a busy worker then holds
        neither fn nor the parts nor their errors, and so none of the arrays
        they reach."""
        if self._executor is None or len(parts) <= 1:
            for part in parts:
                fn(part)
            return
        lock, finished = threading.Lock(), threading.Event()
        count = len(parts)
        errors: list[BaseException | None] = [None] * count
        taken = done = 0

        def take_parts():
            nonlocal taken, done
            while True:
                with lock:
                    i, taken = taken, taken + 1
                if i >= count:
                    return
                try:
                    fn(parts[i])
                except BaseException as exc:  # re-raised below, once every part is done
                    errors[i] = exc
                with lock:
                    done += 1
                    if done == count:
                        finished.set()

        def help_out():
            try:
                take_parts()
            finally:
                with self._lock:
                    self._idle += 1

        with self._lock:
            helpers = min(self._idle, count - 1)
            self._idle -= helpers
        # take_parts keeps every exception of fn, so the futures hold none.
        for _ in range(helpers):
            self._executor.submit(contextvars.copy_context().run, help_out)
        take_parts()
        finished.wait()
        first = next((exc for exc in errors if exc is not None), None)
        # take_parts reads these cells only for a part not yet done.
        fn = parts = errors = None
        if first is not None:
            raise first

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()


# The default pool of attention.attend and attend_backward, for callers
# outside the encoder: no threads, and OpenBLAS's thread count left as it is.
INLINE = LayerPool(1)

_pool: LayerPool | None = None
_pool_lock = threading.Lock()
_setters: tuple | None = None  # found on the first layer_pool()


def layer_pool() -> LayerPool:
    """The process's pool, with every OpenBLAS set to one thread. The pool is
    made on first use, so importing eslong starts no thread and leaves
    OpenBLAS as it is: one worker per CPU this process may run on, or a single
    inline worker where OpenBLAS's thread count cannot be set."""
    global _pool, _setters
    with _pool_lock:
        if _setters is None:
            _setters = _blas_thread_setters()
        for setter in _setters:
            setter(1)
        if _pool is None:
            _pool = LayerPool(len(os.sched_getaffinity(0)) if _setters else 1)
        return _pool


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: it makes its own pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
