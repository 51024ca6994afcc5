"""The closure codec and the framing shared by the process and remote backends.

``map_machines`` tasks are closures over numpy arrays and module-level
helpers — exactly what stdlib pickle refuses.  :func:`dumps_task` ships
such functions *by value*: the marshalled code object, defaults,
closure-cell contents, and the referenced globals (modules go by name,
module-level functions by reference).  Objects the receiving end
already holds travel as pickle persistent references instead of bytes:
the remote backend names the point matrix an agent cached by its
fingerprint, and the process backend names the metric chain each pool
worker inherited at fork.  Code objects are marshalled, so both ends
must run the same Python ``major.minor``.

Both backends also frame their messages the same way: a frame is an
8-byte big-endian length and a payload, written whole to a stream
socket (a ``socketpair`` to a pool worker, a TCP connection to an
agent).  :func:`send_msg`/:func:`recv_msg` carry plain-pickled request
and reply dicts in frames; a frame that cannot be read whole is a
:class:`ProtocolError`, never a hang or a partial read.
"""

from __future__ import annotations

import importlib
import io
import marshal
import pickle
import socket
import struct
import sys
import types
from typing import Any, Callable, Iterable, Tuple


class _EmptyCell:
    """Sentinel for an unassigned closure cell."""


_EMPTY_CELL = _EmptyCell()


def _code_names(code: types.CodeType) -> set:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _code_names(const)
    return names


def _shipped_by_value(fn: types.FunctionType) -> bool:
    """True when ``fn`` cannot be pickled by reference (lambdas,
    nested functions, anything not importable under its qualname)."""
    if fn.__name__ == "<lambda>" or "<locals>" in fn.__qualname__:
        return True
    module = sys.modules.get(fn.__module__)
    if module is None:
        return True
    target = module
    for part in fn.__qualname__.split("."):
        target = getattr(target, part, None)
        if target is None:
            return True
    return target is not fn


def _rebuild_function(code_bytes, name, defaults, kwdefaults, cells, glb, module):
    import builtins

    code = marshal.loads(code_bytes)
    namespace = dict(glb)
    namespace.setdefault("__builtins__", builtins)
    namespace.setdefault("__name__", module)
    closure = tuple(
        types.CellType() if isinstance(v, _EmptyCell) else types.CellType(v)
        for v in cells
    )
    fn = types.FunctionType(code, namespace, name, defaults, closure)
    fn.__kwdefaults__ = kwdefaults
    return fn


def _reduce_function(fn: types.FunctionType):
    cells = []
    for cell in fn.__closure__ or ():
        try:
            cells.append(cell.cell_contents)
        except ValueError:  # pragma: no cover - unassigned cell
            cells.append(_EMPTY_CELL)
    glb = {
        name: fn.__globals__[name]
        for name in sorted(_code_names(fn.__code__))
        if name in fn.__globals__ and fn.__globals__[name] is not fn
    }
    return (
        _rebuild_function,
        (
            marshal.dumps(fn.__code__),
            fn.__name__,
            fn.__defaults__,
            fn.__kwdefaults__,
            tuple(cells),
            glb,
            fn.__module__,
        ),
    )


class _TaskPickler(pickle.Pickler):
    def __init__(self, buf, refs: Iterable[Tuple[Any, Any]]) -> None:
        super().__init__(buf, protocol=pickle.HIGHEST_PROTOCOL)
        self._refs = {id(obj): (key, obj) for key, obj in refs}

    def persistent_id(self, obj):
        entry = self._refs.get(id(obj))
        if entry is not None and entry[1] is obj:
            return entry[0]
        return None

    def reducer_override(self, obj):
        if isinstance(obj, types.ModuleType):
            return (importlib.import_module, (obj.__name__,))
        if isinstance(obj, types.FunctionType) and _shipped_by_value(obj):
            return _reduce_function(obj)
        return NotImplemented


class _TaskUnpickler(pickle.Unpickler):
    def __init__(self, buf, resolve: Callable[[Any], Any]) -> None:
        super().__init__(buf)
        self._resolve = resolve

    def persistent_load(self, pid):
        return self._resolve(pid)


def dumps_task(payload, refs: Iterable[Tuple[Any, Any]]) -> bytes:
    """Pickle a task payload, shipping closures by value.

    ``refs`` is a sequence of ``(key, obj)`` pairs: each ``obj`` met
    anywhere in the payload is written as the persistent reference
    ``key`` rather than pickled, for a receiver that already holds it.
    """
    buf = io.BytesIO()
    _TaskPickler(buf, refs).dump(payload)
    return buf.getvalue()


def loads_task(blob: bytes, resolve: Callable[[Any], Any]):
    """Inverse of :func:`dumps_task`; ``resolve(key)`` returns the
    receiver's object for each persistent reference (and raises when it
    has none)."""
    return _TaskUnpickler(io.BytesIO(blob), resolve).load()


class MissingReference(LookupError):
    """The receiving end does not hold the object a persistent reference
    names (``args[0]`` is its key); raised by a ``resolve`` callback."""


# -- framing --------------------------------------------------------------------

#: sanity cap on a single frame (a corrupted length header must not
#: allocate gigabytes before failing)
MAX_FRAME_BYTES = 1 << 31

_HEADER = struct.Struct("!Q")


class ProtocolError(Exception):
    """A frame could not be read or written whole: truncated stream,
    closed connection, or an implausible length header."""


def _recv_exact(sock: socket.socket, nbytes: int) -> bytearray:
    buf = bytearray(nbytes)
    view = memoryview(buf)
    got = 0
    while got < nbytes:
        n = sock.recv_into(view[got:])
        if not n:
            raise ProtocolError(f"connection closed mid-frame ({got}/{nbytes} bytes)")
        got += n
    return buf


def send_frame(sock: socket.socket, blob: bytes) -> None:
    """Write one length-prefixed frame (``OSError`` when the peer is gone)."""
    sock.sendall(_HEADER.pack(len(blob)) + blob)


def recv_frame(sock: socket.socket) -> bytearray:
    """Read one length-prefixed frame whole (or raise
    :class:`ProtocolError`); ``socket.timeout`` propagates so callers
    can implement leases."""
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return _recv_exact(sock, length)


def send_msg(sock: socket.socket, payload: dict) -> None:
    send_frame(sock, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def recv_msg(sock: socket.socket) -> dict:
    blob = recv_frame(sock)
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"expected a dict frame, got {type(payload).__name__}")
    return payload
