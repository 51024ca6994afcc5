"""Shared-memory backing for point matrices.

:class:`~repro.mpc.executor.ProcessExecutor` workers are forked from
the driver, so they inherit the point matrix by copy-on-write already —
but CPython's refcount writes and numpy temporaries can silently
duplicate pages over a long run.  Migrating the coordinate array into a
:mod:`multiprocessing.shared_memory` segment pins the one physical copy
for the driver and every worker, and is the piece that would let a
spawn-based pool (platforms without ``fork``) read the points without
pickling them.

Lifecycle: :func:`share_metric_points` rebinds the metric's
:class:`~repro.metric.points.PointSet` buffer to a shared segment and
returns a :class:`SharedArray` handle.  ``release()`` unlinks the
segment name but keeps the local mapping alive while any numpy view
uses it, so the metric stays usable after the executor shuts down.
Every bind and release closes the released mappings that no view uses
any more, so a process that solves many times holds only the segments
its live metrics still point at.
"""

from __future__ import annotations

import atexit
from typing import List, Optional

import numpy as np

from repro.obs.logging import get_logger

_log = get_logger("repro.mpc.shm")

try:  # pragma: no cover - always present on CPython >= 3.8
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None

#: arrays smaller than this stay private — sharing overhead isn't worth it
MIN_SHARED_BYTES = 1 << 20

_live: List["SharedArray"] = []
#: released handles whose mapping a numpy view may still use; closed by
#: :func:`_close_retired` once nothing views them
_retired: List["SharedArray"] = []


if shared_memory is not None:

    class _Segment(shared_memory.SharedMemory):
        """``SharedMemory`` whose finalizer tolerates live views.

        At interpreter exit a metric may still view a released segment;
        ``SharedMemory.__del__`` would report the ``BufferError`` that
        ``close()`` raises then.  The mapping goes with its last view."""

        def __del__(self) -> None:
            try:
                self.close()
            except (BufferError, OSError):
                pass


class SharedArray:
    """A numpy array whose buffer lives in a shared-memory segment."""

    def __init__(self, source: np.ndarray) -> None:
        self.shm = _Segment(create=True, size=source.nbytes)
        # frombuffer holds a buffer export on the mapping for as long as
        # any view derived from the array lives, so shm.close() raises
        # BufferError instead of unmapping memory under a live view
        view = np.frombuffer(
            self.shm.buf, dtype=source.dtype, count=source.size
        ).reshape(source.shape)
        view[:] = source
        view.setflags(write=False)
        self.array = view
        self._unlinked = False
        _live.append(self)

    @property
    def name(self) -> str:
        return self.shm.name

    def release(self) -> None:
        """Unlink the segment name (idempotent).

        The local mapping stays valid — views handed out earlier keep
        working — but no new process can attach.  The handle drops its
        own view, and the mapping closes (returning the memory to the
        OS) at the first bind or release after the last view is gone.
        """
        if not self._unlinked:
            self._unlinked = True
            try:
                self.shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
            if self in _live:
                _live.remove(self)
            self.array = None
            _retired.append(self)
        _close_retired()


def _close_retired() -> None:
    """Close every released mapping that no numpy view uses any more.

    Safe to run from several threads (and from a finalizer inside a
    sweep): taking a handle off ``_retired`` is the one atomic step that
    lets a thread close it, and a handle still viewed goes back on.
    """
    for handle in list(_retired):
        try:
            _retired.remove(handle)
        except ValueError:  # another sweep holds it
            continue
        try:
            handle.shm.close()
        except BufferError:
            _retired.append(handle)


@atexit.register
def _cleanup_at_exit() -> None:  # pragma: no cover - interpreter teardown
    for handle in list(_live):
        handle.release()


def _unwrap(metric):
    """Walk oracle wrappers (``.inner``) down to the base metric."""
    seen = set()
    while metric is not None and id(metric) not in seen:
        seen.add(id(metric))
        yield metric
        metric = getattr(metric, "inner", None)


def share_metric_points(metric, min_bytes: int = MIN_SHARED_BYTES) -> Optional[SharedArray]:
    """Move the metric's coordinate matrix into shared memory.

    Returns the :class:`SharedArray` handle, or ``None`` when the metric
    carries no rebindable point matrix (matrix/graph/callable oracles),
    the array is too small to bother, or shared memory is unavailable.
    The rebinding is transparent: the ``PointSet`` keeps its identity
    and read-only contract, only its buffer moves.
    """
    handle = _migrate_points(metric, min_bytes)
    # a metric bound again has just dropped its previous segment's view
    _close_retired()
    return handle


def _migrate_points(metric, min_bytes: int) -> Optional[SharedArray]:
    if shared_memory is None:  # pragma: no cover
        return None
    for layer in _unwrap(metric):
        points = getattr(layer, "points", None)
        data = getattr(points, "_data", None)
        if isinstance(data, np.ndarray):
            if data.nbytes < min_bytes:
                _log.debug(
                    "point matrix stays private",
                    extra={"nbytes": int(data.nbytes), "min_bytes": min_bytes},
                )
                return None
            try:
                handle = SharedArray(data)
            except (OSError, ValueError):  # pragma: no cover - no /dev/shm
                _log.warning(
                    "shared memory unavailable; point matrix stays private",
                    extra={"nbytes": int(data.nbytes)},
                )
                return None
            points._data = handle.array
            _log.debug(
                "point matrix migrated to shared memory",
                extra={"segment": handle.name, "nbytes": int(data.nbytes)},
            )
            return handle
    return None
