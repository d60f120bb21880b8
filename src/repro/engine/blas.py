"""One BLAS thread per process while the engine runs.

numpy and scipy each bundle their own OpenBLAS (numpy's with ``64_``-suffixed
symbols), and each copy starts a pool of one thread per core. The dense
operations BLAS runs here are small — R×R Gram and pre-inversion, I×R
apply-inverse GEMMs — and the run's parallelism already lives in the
engine's shards, which split output rows disjointly. Extra BLAS threads
only wake up to compete with the shard workers (and, on the processes
backend, with the other processes' BLAS pools), so the engine owns host
parallelism and BLAS gets one thread. All workloads want the same value,
so it is a constant, not an option (see docs/PERFORMANCE.md, "BLAS
threads").

- :func:`single_threaded` — re-entrant context manager: sets every OpenBLAS
  mapped into the process to one thread and restores the previous counts
  when the outermost scope exits. A lock and a depth count make nested
  runs (supervisor retries, the hybrid scheduler, fig4wall) and concurrent
  runs from several threads restore correctly.
- :func:`pin_process` — pins for the rest of the process's life; pool
  workers call it once at start.

Libraries are found by scanning ``/proc/self/maps`` for mapped OpenBLAS
copies and resolving their ``{scipy_,}openblas_{get,set}_num_threads``
entry points (suffixes ``""``, ``64_``, ``_64``) through :mod:`ctypes`.
A host where none is found is left untouched and reports 0 libraries.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from collections.abc import Callable
from contextlib import contextmanager
from typing import NamedTuple

import scipy.linalg  # noqa: F401 - maps scipy's own OpenBLAS before discovery

__all__ = ["pin_process", "single_threaded"]

_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("", "64_", "_64")


class _OpenBlas(NamedTuple):
    """The thread-count entry points of one mapped OpenBLAS copy."""

    path: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


def _mapped_paths() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    paths: list[str] = []
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                fields = line.split(None, 5)
                if len(fields) < 6:
                    continue
                path = fields[5].strip()
                name = os.path.basename(path)
                if "openblas" in name and ".so" in name and path not in paths:
                    paths.append(path)
    except OSError:
        return []
    return paths


def _bind(path: str) -> _OpenBlas | None:
    try:
        # RTLD_NOLOAD: bind to the copy already mapped, never load another.
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    except OSError:
        return None
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes = []
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                put.restype = None
                return _OpenBlas(path, get, put)
    return None


@functools.cache
def _libraries() -> tuple[_OpenBlas, ...]:
    """Every OpenBLAS mapped into the process (discovered once)."""
    found = (_bind(path) for path in _mapped_paths())
    return tuple(lib for lib in found if lib is not None)


class _Scope:
    """Process-wide pin state: BLAS thread counts are per process, so the
    nesting depth and the counts to restore are too."""

    def __init__(self):
        self.lock = threading.Lock()
        self.depth = 0
        self.saved: list[tuple[_OpenBlas, int]] = []


_scope = _Scope()


def _reset_after_fork() -> None:
    # Only the forking thread survives in the child: scopes other threads
    # held are gone, and the lock may have been taken mid-update.
    global _scope
    _scope = _Scope()


os.register_at_fork(after_in_child=_reset_after_fork)


def _set_threads(lib: _OpenBlas, threads: int) -> None:
    # Only on a change: a set call (re)starts OpenBLAS's thread pool, whose
    # fresh threads spin before they sleep; a worker forked from a pinned
    # run is already at one thread.
    if lib.get_threads() != threads:
        lib.set_threads(threads)


@contextmanager
def single_threaded():
    """Run the body with every mapped OpenBLAS at one thread.

    Yields the number of libraries pinned (0 where none is found).
    """
    scope = _scope
    libs = _libraries()
    with scope.lock:
        if scope.depth == 0:
            scope.saved = [(lib, lib.get_threads()) for lib in libs]
            for lib in libs:
                _set_threads(lib, 1)
        scope.depth += 1
    try:
        yield len(libs)
    finally:
        with scope.lock:
            scope.depth -= 1
            if scope.depth == 0:
                for lib, threads in scope.saved:
                    _set_threads(lib, threads)
                scope.saved = []


def pin_process() -> int:
    """Set every mapped OpenBLAS to one thread for good; returns how many."""
    libs = _libraries()
    for lib in libs:
        _set_threads(lib, 1)
    return len(libs)
