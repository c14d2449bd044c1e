"""Content-addressed on-disk cache for simulation results.

A sweep job is fully determined by ``(trace key, scheme, SystemConfig,
code version)``: traces are generated deterministically from
``(benchmark, kilo_instructions, seed)``, and the simulator is
deterministic given a trace and a config.  The cache therefore keys each
:class:`~repro.system.timing.SimResult` by a SHA-256 digest over exactly
those inputs, where *code version* is a digest of every ``.py`` file
under ``repro`` — so any source change invalidates the whole cache, and
an unchanged artifact regeneration is a pure cache hit.

Layout: one stdlib ``sqlite3`` store per cache root,
``<root>/store.sqlite3``, holding one JSON payload per key.  Puts are
committed in batches (every :data:`BATCH_PUTS` puts and whenever
:meth:`JSONCache.flush` runs, as :func:`~repro.sweep.runner.run_tasks`
does when it finishes or fails), so a killed run leaves each entry
whole or absent.  The root defaults to ``~/.cache/plp-repro/results``
and can be moved with the ``PLP_SWEEP_CACHE`` environment variable;
setting ``PLP_NO_RESULT_CACHE=1`` disables caching entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
import weakref
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Union

from repro.system.config import SystemConfig
from repro.system.timing import SimResult

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Digest of the ``repro`` package sources (cache invalidation key)."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def config_digest(config: SystemConfig) -> str:
    """Stable digest of every ``SystemConfig`` field (nested dataclasses
    included)."""
    payload = asdict(config)
    payload["scheme"] = config.scheme.value
    # Telemetry is pure observation: it never changes a SimResult, so it
    # must not fork cache keys (a telemetry-on run is a valid cache hit
    # for a telemetry-off sweep and vice versa).
    payload.pop("telemetry", None)
    # Likewise the timing-engine family: batched, skip-ahead, and
    # stepped are bit-identical by construction (the differential
    # harness enforces it), so any engine's result is a valid hit for
    # the others.
    payload.pop("engine", None)
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def job_key(
    benchmark: str,
    kilo_instructions: int,
    seed: int,
    warmup_fraction: float,
    config: SystemConfig,
) -> str:
    """Content-addressed key for one (trace, config) simulation."""
    blob = json.dumps(
        {
            "trace": [benchmark, kilo_instructions, seed],
            "warmup": warmup_fraction,
            "config": config_digest(config),
            "code": code_version(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def result_to_dict(result: SimResult) -> Dict:
    return asdict(result)


def result_from_dict(payload: Dict) -> SimResult:
    return SimResult(**payload)


def default_cache_root() -> Path:
    env = os.environ.get("PLP_SWEEP_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "plp-repro" / "results"


def caching_disabled() -> bool:
    return os.environ.get("PLP_NO_RESULT_CACHE", "") not in ("", "0")


STORE_NAME = "store.sqlite3"
"""File name of the store inside a cache root."""

BATCH_PUTS = 256
"""Puts per committed transaction."""

STORE_CACHE_KIB = 64
"""sqlite page-cache bound per open store (the default is 2 MB)."""

_UPSERT = "INSERT OR REPLACE INTO entries (key, payload) VALUES (?, ?)"


def _commit(conn, pending: Dict[str, str]) -> None:
    """Write every pending payload in one short transaction."""
    if pending:
        with conn:
            conn.executemany(_UPSERT, pending.items())
        pending.clear()


def _close_store(conn, pending: Dict[str, str], pid: int) -> None:
    """Commit what is pending and close (finalizer of a :class:`JSONCache`,
    a no-op in a forked child that inherited ``conn``)."""
    if os.getpid() != pid:
        return
    try:
        _commit(conn, pending)
    finally:
        conn.close()


class JSONCache:
    """Content-addressed JSON payloads in one sqlite store per root.

    Base class for every on-disk result store in the sweep layer.  The
    store is ``<root>/store.sqlite3`` (WAL journal, ``synchronous=NORMAL``,
    a :data:`STORE_CACHE_KIB` page cache), opened lazily by the first
    :meth:`get`/:meth:`put` in the process that uses it; a process
    forked after the parent opened it opens its own.  :meth:`put` holds
    the encoded payload in memory; the batch is written in one short
    transaction every :data:`BATCH_PUTS` puts, by :meth:`flush`, and
    when the cache is garbage-collected or the interpreter exits, so
    the write lock is never held between puts and concurrent runs on
    one root do not block each other.  :meth:`get` sees pending puts.
    A file at the store path that is not a readable store turns the
    cache off for this object (every get misses, puts are dropped) with
    a warning; delete it to start afresh.  Subclasses override
    :meth:`_encode`/:meth:`_decode` to map their value type onto JSON.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.store_path = self.root / STORE_NAME
        self.hits = 0
        self.misses = 0
        self._conn = None
        self._pid: Optional[int] = None
        self._pending: Dict[str, str] = {}
        # Connections inherited across fork(): SQLite forbids using one
        # in the child, and closing it counts as use, so the child keeps
        # them referenced and never calls into them.
        self._inherited: list = []

    # -- value mapping (override in subclasses) -------------------------

    def _encode(self, value):
        return value

    def _decode(self, payload):
        return payload

    # -- storage --------------------------------------------------------

    def _store(self):
        """The open connection for this process, or ``None`` if the
        store is unreadable."""
        pid = os.getpid()
        if self._pid == pid:
            return self._conn
        if self._conn is not None:
            self._inherited.append(self._conn)
            self._finalizer.detach()
        self._conn = None
        self._pid = pid
        self._pending = {}  # the parent's batch is the parent's to commit
        import sqlite3

        self.root.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.store_path, timeout=30)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA cache_size=-{STORE_CACHE_KIB}")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS entries "
                "(key TEXT PRIMARY KEY, payload TEXT NOT NULL) WITHOUT ROWID"
            )
        except sqlite3.DatabaseError as exc:
            conn.close()
            if isinstance(exc, sqlite3.OperationalError):
                raise
            warnings.warn(
                f"{self.store_path} is not a readable result store ({exc}); "
                "caching is off for this run",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        self._conn = conn
        self._finalizer = weakref.finalize(
            self, _close_store, conn, self._pending, pid
        )
        return conn

    def get(self, key: str):
        """Fetch a cached value; counts the hit/miss."""
        conn = self._store()
        payload = self._pending.get(key)
        if payload is None and conn is not None:
            row = conn.execute(
                "SELECT payload FROM entries WHERE key = ?", (key,)
            ).fetchone()
            payload = row[0] if row is not None else None
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return self._decode(json.loads(payload))

    def put(self, key: str, value) -> None:
        """Add a value to the pending batch (written every
        :data:`BATCH_PUTS` puts and by :meth:`flush`)."""
        if self._store() is None:
            return
        self._pending[key] = json.dumps(self._encode(value))
        if len(self._pending) >= BATCH_PUTS:
            self.flush()

    def flush(self) -> None:
        """Commit every pending put."""
        if self._conn is not None and self._pid == os.getpid():
            _commit(self._conn, self._pending)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(root={str(self.root)!r}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class ResultCache(JSONCache):
    """Content-addressed store of :class:`SimResult` payloads."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        super().__init__(root if root is not None else default_cache_root())

    def _encode(self, value: SimResult) -> Dict:
        return result_to_dict(value)

    def _decode(self, payload: Dict) -> SimResult:
        return result_from_dict(payload)
