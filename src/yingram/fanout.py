"""Ordered fan-out of independent tasks to a thread pool.

A long resample (`audio._resample_poly`) splits its input into parts whose
kernel, scipy's upfirdn loop, releases the GIL. `ordered_map` runs such
tasks on one thread per usable core and returns their results in order, so
the bytes are those of the serial loop. The pool is built on the first call
that fans out, and a forked child builds its own.
"""
from __future__ import annotations

import contextvars
import os
import threading
from collections import deque

__all__ = ["ordered_map", "workers"]

_pool = None  # the ThreadPoolExecutor, built on the first fan-out
_pool_lock = threading.Lock()


def workers() -> int:
    """Cores this process may run on: its CPU affinity, where the platform
    reports one, else the core count."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _forget_pool() -> None:
    """In a forked child the parent's pool threads do not exist: drop the
    pool (and a lock another thread may have held), so the child builds its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _get_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(workers(), thread_name_prefix="yingram")
        return _pool


def ordered_map(fn, items) -> list:
    """[fn(item) for item in items], with the items run on one thread per
    usable core (`workers`), at most that many at a time.

    Each task runs in a copy of the caller's context, so numpy's errstate
    holds in it. Results come back in order, and the error raised is that of
    the earliest failing task, as in the serial loop; the tasks still
    running then finish before it is raised. One task or one usable core
    runs the loop serially on the calling thread. A task must not call
    ordered_map: with every pool thread waiting on it, it would wait forever.
    """
    items = list(items)
    limit = workers()
    if len(items) < 2 or limit < 2:
        return [fn(item) for item in items]
    pool = _get_pool()
    results, running = [], deque()
    try:
        for item in items:
            if len(running) == limit:
                results.append(running.popleft().result())
            running.append(pool.submit(contextvars.copy_context().run, fn, item))
        while running:
            results.append(running.popleft().result())
    finally:
        for future in running:  # after an error: no task may outlive the call
            future.cancel()
        for future in running:
            if not future.cancelled():
                future.exception()
    return results
