"""SQLite/file-backed store implementations — the durable backends.

One state directory holds everything N frontends and M workers share:

```
<state_dir>/
  service.db          # jobs, analyses, work queue, dataset descriptors, results
  datasets/
    <fingerprint>.npy # content-addressed point blobs
```

``service.db`` runs in WAL mode so readers never block the single
writer, with a generous ``busy_timeout`` so short write collisions
retry instead of failing.  Every write goes through one helper,
:meth:`_SqliteBase._write`, which runs it as an immediate transaction:
the write lock is taken up front, so two workers racing to claim one
job serialize at the database and exactly one sees the ``queued``
precondition hold.

The job and analysis tables are one table type, :class:`_SqliteTable`:
a keyed, versioned record table that supplies the ``update`` primitive
the lifecycles in :mod:`repro.service.store` are written over.  A
subclass names its table, columns, ``counters`` row and row codec.

Serialization choices:

* job specs / params / result payloads are stored as canonical JSON
  (they are JSON-safe by construction — they travel over the HTTP API);
* run logs are pickled — :class:`~repro.obs.record.RunLog` is a tree of
  plain dataclasses, and the trace endpoint needs it back verbatim;
* result-cache keys are ``sha256(repr(cache_key))``:
  :meth:`~repro.service.spec.JobSpec.cache_key` is a tuple of
  primitives, so its ``repr`` is stable across processes and Python
  runs — the property cross-process cache sharing rests on;
* point blobs are ``.npy`` files named by the dataset fingerprint —
  content-addressed, so concurrent registrations of the same data are
  idempotent at the filesystem level (atomic rename, last writer wins
  with identical bytes).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sqlite3
import threading
import time
from dataclasses import fields
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.service.store import (
    AnalysisLifecycle,
    AnalysisRecord,
    Change,
    DatasetRecord,
    JobLifecycle,
    JobRecord,
    QueueFullError,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    num              INTEGER PRIMARY KEY,
    id               TEXT UNIQUE NOT NULL,
    state            TEXT NOT NULL,
    spec             TEXT NOT NULL,
    created_at       REAL NOT NULL,
    queued_at        REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    result           TEXT,
    error            TEXT,
    cached           INTEGER NOT NULL DEFAULT 0,
    attempt          INTEGER NOT NULL DEFAULT 0,
    attempts         TEXT NOT NULL DEFAULT '[]',
    trace_id         TEXT,
    traceparent      TEXT,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    worker           TEXT,
    lease_expires_at REAL,
    run_log          BLOB,
    version          INTEGER NOT NULL DEFAULT 1
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs(state);

CREATE TABLE IF NOT EXISTS counters (
    name TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);

CREATE TABLE IF NOT EXISTS work_queue (
    seq    INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS datasets (
    seq         INTEGER PRIMARY KEY AUTOINCREMENT,
    id          TEXT UNIQUE NOT NULL,
    fingerprint TEXT NOT NULL,
    kind        TEXT NOT NULL,
    params      TEXT NOT NULL,
    n           INTEGER NOT NULL,
    metric_name TEXT NOT NULL,
    created_at  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS datasets_by_fp ON datasets(fingerprint);

CREATE TABLE IF NOT EXISTS results (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    key     TEXT UNIQUE NOT NULL,
    payload TEXT NOT NULL,
    run_log BLOB
);

CREATE TABLE IF NOT EXISTS analyses (
    num          INTEGER PRIMARY KEY,
    id           TEXT UNIQUE NOT NULL,
    state        TEXT NOT NULL,
    spec         TEXT NOT NULL,
    created_at   REAL NOT NULL,
    finished_at  REAL,
    cell_job_ids TEXT NOT NULL DEFAULT '[]',
    report       TEXT,
    error        TEXT,
    trace_id     TEXT,
    traceparent  TEXT,
    version      INTEGER NOT NULL DEFAULT 1
);
CREATE INDEX IF NOT EXISTS analyses_by_state ON analyses(state);
"""

#: how long a writer waits on a locked database before erroring (ms)
BUSY_TIMEOUT_MS = 10_000


def prepare_state_dir(state_dir) -> Tuple[Path, Path]:
    """Create (or adopt) a state directory; returns (db_path, blob_dir)."""
    root = Path(state_dir)
    blob_dir = root / "datasets"
    blob_dir.mkdir(parents=True, exist_ok=True)
    db_path = root / "service.db"
    conn = _connect(db_path)
    try:
        conn.executescript(_SCHEMA)
        conn.commit()
    finally:
        conn.close()
    return db_path, blob_dir


def _connect(db_path) -> sqlite3.Connection:
    conn = sqlite3.connect(str(db_path), timeout=BUSY_TIMEOUT_MS / 1000.0,
                           check_same_thread=False)
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA synchronous=NORMAL")
    conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
    conn.row_factory = sqlite3.Row
    return conn


def result_key(cache_key) -> str:
    """Stable cross-process text key for a :meth:`JobSpec.cache_key`
    tuple (primitives only, so ``repr`` is canonical)."""
    return hashlib.sha256(repr(cache_key).encode("utf-8")).hexdigest()


class _SqliteBase:
    """One locked connection per store instance.

    SQLite serializes writers anyway; funnelling each store's traffic
    through a single connection under a process lock keeps transaction
    scoping simple and sidesteps per-thread connection pools.  The lock
    is a *leaf* lock — no store method ever calls back into manager or
    registry code while holding it (a lifecycle's ``change`` only edits
    the record it is handed).
    """

    backend = "sqlite"

    def __init__(self, db_path) -> None:
        self._db_path = Path(db_path)
        self._conn = _connect(db_path)
        self._lock = threading.Lock()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def _write(self, body: Callable[[sqlite3.Connection], object]):
        """Run ``body(conn)`` as one transaction that holds the write
        lock from its start; commit and return its value, or roll back
        and re-raise."""
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                out = body(self._conn)
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
            return out

    def _fetchone(self, sql: str, params=()) -> Optional[sqlite3.Row]:
        with self._lock:
            return self._conn.execute(sql, params).fetchone()

    def _fetchall(self, sql: str, params=()) -> List[sqlite3.Row]:
        with self._lock:
            return self._conn.execute(sql, params).fetchall()


class _SqliteTable(_SqliteBase):
    """A keyed, versioned record table: the storage behind both durable
    record stores.

    A subclass sets ``TABLE``, ``COUNTER`` (its row in ``counters``),
    ``RECORD`` and ``COLUMNS`` (the record's fields, one column each),
    and the codec: the ``JSON`` columns are stored as JSON text (dicts
    with sorted keys), the ``PICKLED`` ones as pickles, and the
    ``FLAGS`` as 0/1.  Each row also keeps its id's number in ``num``,
    the order that listings and cursors follow.
    """

    TABLE: str
    COUNTER: str
    RECORD: type
    COLUMNS: Tuple[str, ...]
    JSON: Tuple[str, ...] = ()
    PICKLED: Tuple[str, ...] = ()
    FLAGS: Tuple[str, ...] = ()

    def __init__(self, db_path) -> None:
        super().__init__(db_path)
        names = ", ".join(self.COLUMNS)
        marks = ", ".join(f":{c}" for c in self.COLUMNS)
        sets = ", ".join(f"{c} = :{c}" for c in self.COLUMNS if c != "id")
        self._select = f"SELECT {names} FROM {self.TABLE}"
        self._insert_sql = f"INSERT INTO {self.TABLE} (num, {names}) VALUES (:num, {marks})"
        self._update_sql = f"UPDATE {self.TABLE} SET {sets} WHERE id = :id"

    def _encode(self, record) -> dict:
        row = {"num": record.numeric_id}
        for column in self.COLUMNS:
            value = getattr(record, column)
            if value is not None:
                if column in self.JSON:
                    value = json.dumps(value, sort_keys=isinstance(value, dict))
                elif column in self.PICKLED:
                    value = pickle.dumps(value)
                elif column in self.FLAGS:
                    value = int(value)
            row[column] = value
        return row

    def _decode(self, row: sqlite3.Row):
        values = dict(zip(self.COLUMNS, row))
        for column in self.JSON:
            if values[column] is not None:
                values[column] = json.loads(values[column])
        for column in self.PICKLED:
            if values[column] is not None:
                values[column] = pickle.loads(values[column])
        for column in self.FLAGS:
            values[column] = bool(values[column])
        return self.RECORD(**values)

    def _next_number(self) -> int:
        def bump(conn: sqlite3.Connection) -> int:
            conn.execute(
                "INSERT INTO counters (name, value) VALUES (?, 1) "
                "ON CONFLICT(name) DO UPDATE SET value = value + 1",
                (self.COUNTER,),
            )
            return conn.execute(
                "SELECT value FROM counters WHERE name = ?", (self.COUNTER,)
            ).fetchone()[0]

        return self._write(bump)

    def _insert(self, record) -> None:
        row = self._encode(record)
        self._write(lambda conn: conn.execute(self._insert_sql, row))

    def _read(self, record_id: str):
        row = self._fetchone(f"{self._select} WHERE id = ?", (record_id,))
        return self._decode(row) if row is not None else None

    def update(self, record_id: str, change: Change):
        def body(conn: sqlite3.Connection):
            row = conn.execute(f"{self._select} WHERE id = ?", (record_id,)).fetchone()
            if row is None:
                return None
            current = self._decode(row)
            version = current.version + 1
            new = change(current)
            if new is None:
                return None
            new.version = version
            conn.execute(self._update_sql, self._encode(new))
            return new

        return self._write(body)

    def _remove(self, ids: Iterable[str]) -> None:
        rows = [(record_id,) for record_id in ids]
        self._write(
            lambda conn: conn.executemany(f"DELETE FROM {self.TABLE} WHERE id = ?", rows)
        )

    def _ids(self, states: Tuple[str, ...]) -> List[str]:
        marks = ", ".join("?" for _ in states)
        rows = self._fetchall(
            f"SELECT id FROM {self.TABLE} WHERE state IN ({marks}) ORDER BY num", states
        )
        return [row[0] for row in rows]

    def list(
        self,
        state: Optional[str] = None,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> Tuple[list, Optional[str]]:
        clauses, params = [], []
        if state is not None:
            clauses.append("state = ?")
            params.append(state)
        if cursor is not None:
            clauses.append("num > ?")
            params.append(int(cursor.rsplit("-", 1)[1]))
        sql = self._select
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY num"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit + 1)
        rows = self._fetchall(sql, params)
        next_cursor = None
        if limit is not None and len(rows) > limit:
            rows = rows[:limit]
            next_cursor = rows[-1]["id"]
        return [self._decode(row) for row in rows], next_cursor

    def count_by_state(self) -> Dict[str, int]:
        rows = self._fetchall(
            f"SELECT state, COUNT(*) AS c FROM {self.TABLE} GROUP BY state"
        )
        return {row["state"]: row["c"] for row in rows}


class SqliteJobStore(JobLifecycle, _SqliteTable):
    """The durable job table."""

    TABLE = "jobs"
    COUNTER = "job_id"
    RECORD = JobRecord
    COLUMNS = tuple(f.name for f in fields(JobRecord))
    JSON = ("spec", "result", "attempts")
    PICKLED = ("run_log",)
    FLAGS = ("cached", "cancel_requested")


class SqliteAnalysisStore(AnalysisLifecycle, _SqliteTable):
    """The durable analysis-sweep table."""

    TABLE = "analyses"
    COUNTER = "analysis_id"
    RECORD = AnalysisRecord
    COLUMNS = tuple(f.name for f in fields(AnalysisRecord))
    JSON = ("spec", "cell_job_ids", "report")


class SqliteWorkQueue(_SqliteBase):
    """Bounded FIFO over a SQLite table, shared across processes.

    ``pop`` polls (SQLite has no cross-process condition variables):
    each probe atomically deletes the head row in one write
    transaction, sleeping briefly between empty probes until the
    timeout lapses.  The poll interval bounds added latency at ~50 ms,
    which is noise next to a solver run.
    """

    POLL_INTERVAL_S = 0.05

    def __init__(self, db_path, limit: int = 64) -> None:
        if limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {limit}")
        super().__init__(db_path)
        self.limit = limit

    def push(self, job_id: str) -> None:
        def body(conn: sqlite3.Connection) -> None:
            depth = conn.execute("SELECT COUNT(*) FROM work_queue").fetchone()[0]
            if depth >= self.limit:
                raise QueueFullError(
                    f"job queue full ({self.limit} queued); retry later"
                )
            conn.execute("INSERT INTO work_queue (job_id) VALUES (?)", (job_id,))

        self._write(body)

    def _pop_once(self) -> Optional[str]:
        def body(conn: sqlite3.Connection) -> Optional[str]:
            row = conn.execute(
                "SELECT seq, job_id FROM work_queue ORDER BY seq LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            conn.execute("DELETE FROM work_queue WHERE seq = ?", (row["seq"],))
            return row["job_id"]

        return self._write(body)

    def pop(self, timeout: float = 0.1) -> Optional[str]:
        deadline = time.monotonic() + timeout
        while True:
            job_id = self._pop_once()
            if job_id is not None:
                return job_id
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            time.sleep(min(self.POLL_INTERVAL_S, remaining))

    def depth(self) -> int:
        return self._fetchone("SELECT COUNT(*) FROM work_queue")[0]

    def __contains__(self, job_id: object) -> bool:
        return self._fetchone(
            "SELECT 1 FROM work_queue WHERE job_id = ? LIMIT 1", (job_id,)
        ) is not None


class SqliteDatasetStore(_SqliteBase):
    """Dataset descriptors in SQLite, point blobs as fingerprint-named
    ``.npy`` files (content-addressed: same bytes → same file)."""

    def __init__(self, db_path, blob_dir) -> None:
        super().__init__(db_path)
        self._blob_dir = Path(blob_dir)

    def put(self, record: DatasetRecord, points: Optional[np.ndarray]) -> DatasetRecord:
        if points is not None:
            self._write_blob(record.fingerprint, points)

        def body(conn: sqlite3.Connection) -> DatasetRecord:
            existing = conn.execute(
                "SELECT * FROM datasets WHERE id = ?", (record.id,)
            ).fetchone()
            if existing is not None:
                return _dataset_from_row(existing)
            conn.execute(
                "INSERT INTO datasets (id, fingerprint, kind, params, n, "
                "metric_name, created_at) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    record.id,
                    record.fingerprint,
                    record.kind,
                    json.dumps(record.params, sort_keys=True),
                    record.n,
                    record.metric_name,
                    record.created_at,
                ),
            )
            return record

        return self._write(body)

    def _write_blob(self, fingerprint: str, points: np.ndarray) -> None:
        path = self._blob_dir / f"{fingerprint}.npy"
        if path.exists():
            return
        tmp = path.parent / f".{fingerprint}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:  # np.save appends .npy to bare paths
                np.save(fh, np.asarray(points, dtype=np.float64))
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()

    def get(self, ds_id: str) -> Optional[DatasetRecord]:
        row = self._fetchone("SELECT * FROM datasets WHERE id = ?", (ds_id,))
        return _dataset_from_row(row) if row is not None else None

    def load_points(self, fingerprint: str) -> Optional[np.ndarray]:
        path = self._blob_dir / f"{fingerprint}.npy"
        if not path.exists():
            return None
        return np.load(path)

    def list(self) -> List[DatasetRecord]:
        rows = self._fetchall("SELECT * FROM datasets ORDER BY seq")
        return [_dataset_from_row(r) for r in rows]

    def find_fingerprint(self, fingerprint: str) -> Optional[DatasetRecord]:
        row = self._fetchone(
            "SELECT * FROM datasets WHERE fingerprint = ? ORDER BY seq LIMIT 1",
            (fingerprint,),
        )
        return _dataset_from_row(row) if row is not None else None

    def __len__(self) -> int:
        return self._fetchone("SELECT COUNT(*) FROM datasets")[0]

    def __contains__(self, ds_id: object) -> bool:
        return self._fetchone("SELECT 1 FROM datasets WHERE id = ?", (ds_id,)) is not None


def _dataset_from_row(row: sqlite3.Row) -> DatasetRecord:
    return DatasetRecord(
        id=row["id"],
        fingerprint=row["fingerprint"],
        kind=row["kind"],
        params=json.loads(row["params"]),
        n=row["n"],
        metric_name=row["metric_name"],
        created_at=row["created_at"],
    )


class SqliteResultStore(_SqliteBase):
    """Durable ``cache_key → (payload, run_log)`` shared by every
    process on the state dir.

    Hit/miss counters are per-process (they describe *this* instance's
    traffic, mirroring :class:`~repro.service.cache.ResultCache`);
    the entry count is global.  Eviction is FIFO by insertion order,
    like the in-memory cache.
    """

    def __init__(self, db_path, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        super().__init__(db_path)
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def get(self, key) -> Optional[Tuple[dict, object]]:
        text_key = result_key(key)
        with self._lock:
            row = self._conn.execute(
                "SELECT payload, run_log FROM results WHERE key = ?", (text_key,)
            ).fetchone()
            if row is None:
                self.misses += 1
                return None
            self.hits += 1
        payload = json.loads(row["payload"])
        run_log = pickle.loads(row["run_log"]) if row["run_log"] is not None else None
        return payload, run_log

    def put(self, key, payload: dict, run_log=None) -> None:
        text_key = result_key(key)
        blob = pickle.dumps(run_log) if run_log is not None else None

        def body(conn: sqlite3.Connection) -> None:
            # first writer wins: determinism makes later payloads identical
            conn.execute(
                "INSERT OR IGNORE INTO results (key, payload, run_log) "
                "VALUES (?, ?, ?)",
                (text_key, json.dumps(payload, sort_keys=True), blob),
            )
            conn.execute(
                "DELETE FROM results WHERE seq NOT IN ("
                "  SELECT seq FROM results ORDER BY seq DESC LIMIT ?)",
                (self.max_entries,),
            )

        self._write(body)

    def __len__(self) -> int:
        return self._fetchone("SELECT COUNT(*) FROM results")[0]

    def __contains__(self, key: object) -> bool:
        return self._fetchone(
            "SELECT 1 FROM results WHERE key = ?", (result_key(key),)
        ) is not None

    def clear(self) -> None:
        self._write(lambda conn: conn.execute("DELETE FROM results"))

    def stats(self) -> dict:
        entries = len(self)
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": entries,
                "max_entries": self.max_entries,
                "hits_total": self.hits,
                "misses_total": self.misses,
                "hit_ratio": (self.hits / total) if total else 0.0,
            }
