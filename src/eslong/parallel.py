"""The thread pool that runs the parts of an encoder layer.

encoder.forward runs each layer as three phases, and every phase as parts
that read shared inputs and write disjoint slices of arrays the caller
allocated: rows for layer norm, projections and GELU, heads for attention.
LayerPool.run runs the parts of one phase on the caller's thread and its
worker threads and returns when all are done. NumPy and OpenBLAS release the
interpreter lock inside their loops, so the parts of a phase overlap.

The parts' matrix products must each run on one core. Two BLAS threads on
top of the workers oversubscribe the cores, and they also make attention's
small score products slower. OpenBLAS exports openblas_set_num_threads_local
for this, but in its pthreads builds, numpy's wheels among them, the call sets
the thread count of the whole library, not of the calling thread. So the pool
holds the count at 1 while any caller runs phases, and puts back the count it
found when the last one leaves. It does so for one worker too: some OpenBLAS
products, such as attention's [rows, n] @ [n, head_dim + 1] for n above about
450, round differently on one thread and on two, and a store's bits should
not depend on the worker count. Where the symbol cannot be found, the pool
has one worker, and every part runs inline on the caller's thread, with
whatever thread count OpenBLAS has.

Parts run in a copy of the caller's context: NumPy keeps np.errstate in a
context variable, which a pool thread would not inherit.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager


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


class LayerPool:
    """The caller and workers - 1 threads run the parts of a phase; with one
    worker there are no threads and the parts run inline, in order."""

    def __init__(self, workers: int, blas_setters: tuple = ()):
        self.workers = max(1, workers)
        self._setters = blas_setters
        # The caller is one of the workers.
        self._executor = (ThreadPoolExecutor(self.workers - 1, thread_name_prefix="eslong-layer")
                          if self.workers > 1 else None)
        self._lock = threading.Lock()
        self._holders = 0
        self._saved: list[int] = []

    def split(self, count: int, align: int = 1, least: int = 1) -> list[slice]:
        """count items cut into at most `workers` contiguous parts of near-equal
        size. Inner bounds are multiples of align, and there are no more parts
        than count // least; with least >= 2 * align every part then holds at
        least align items."""
        parts = max(1, min(self.workers, count // least))
        bounds = [0, *(round(i * count / parts / align) * align for i in range(1, parts)), count]
        return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def run(self, fn, parts) -> None:
        """fn(part) for every part, on the caller and up to workers - 1 pool
        threads, each taking the next part not yet taken. A thread that wakes
        late finds no part left and returns; the caller waits only for the
        parts taken. All parts finish before the first exception, in part
        order, is raised, so no part still writes into the caller's arrays
        once run has returned or raised."""
        if self._executor is None or len(parts) == 1:
            for part in parts:
                fn(part)
            return
        lock, finished = threading.Lock(), threading.Event()
        errors: list[BaseException | None] = [None] * len(parts)
        taken = done = 0

        def take_parts():
            nonlocal taken, done
            while True:
                with lock:
                    i, taken = taken, taken + 1
                if i >= len(parts):
                    return
                try:
                    fn(parts[i])
                except BaseException as exc:  # re-raised below, once every part is done
                    errors[i] = exc
                with lock:
                    done += 1
                    if done == len(parts):
                        finished.set()

        # take_parts keeps every exception of fn, so the futures hold none.
        for _ in range(min(self.workers, len(parts)) - 1):
            self._executor.submit(contextvars.copy_context().run, take_parts)
        take_parts()
        finished.wait()
        for exc in errors:
            if exc is not None:
                raise exc

    @contextmanager
    def one_blas_thread(self):
        """OpenBLAS held at one thread while the block runs; the count found
        on entry comes back when the last of concurrent holders leaves."""
        if not self._setters:
            yield
            return
        with self._lock:
            if self._holders == 0:
                self._saved = [setter(1) for setter in self._setters]
            self._holders += 1
        try:
            yield
        finally:
            with self._lock:
                self._holders -= 1
                if self._holders == 0:
                    for setter, count in zip(self._setters, self._saved):
                        setter(count)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()


# For forwards that stay off the pool: no threads, and OpenBLAS keeps its own.
INLINE = LayerPool(1)

_pool: LayerPool | None = None
_pool_lock = threading.Lock()


def layer_pool() -> LayerPool:
    """The process's pool, made on first use, so importing eslong starts no
    thread: one worker per CPU this process may run on, or a single inline
    worker where OpenBLAS's thread count cannot be set."""
    global _pool
    with _pool_lock:
        if _pool is None:
            setters = _blas_thread_setters()
            _pool = LayerPool(len(os.sched_getaffinity(0)) if setters else 1, setters)
        return _pool


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: it makes its own pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
