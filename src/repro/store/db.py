"""The persistent run store: SQLite (WAL mode) + lease-based claims.

One ``runs`` table keyed by the content-addressed cell fingerprint
(:mod:`repro.store.fingerprint`) holds every grid cell ever registered,
with the lifecycle::

    pending ──claim──▶ leased ──complete──▶ done
       ▲                  │                  (terminal; served on lookup)
       │                  └────complete─────▶ error
       └── stale lease (no heartbeat before ──┘   (re-claimable, like
           ``lease_expires_at``) or ``release``    pending)

Claims are atomic — ``BEGIN IMMEDIATE`` plus a conditional ``UPDATE`` —
so any number of worker *processes* can race on the same row and exactly
one wins; the losers poll :meth:`RunStore.lookup` and get the winner's
stored record.  A worker that dies mid-cell simply stops heartbeating:
its lease expires and the row becomes claimable again (the FuzzBench
scheduler's job-record shape; py_experimenter's row-per-experiment
status tracking is the other parent of this design).

``done`` rows store the full :meth:`RunRecord.to_json` document and are
served back **bit-identically** via
:meth:`~repro.engine.record.RunRecord.from_json` — a resumed sweep's
records match the uninterrupted run's field for field (the served
record even carries the original run's wall time and provenance).

Since schema 2 every row also carries the *service* columns that turn
the store into a job queue for the ``repro serve`` daemon and the
``repro worker`` fleet (:mod:`repro.service`): ``priority`` (higher
drains first), ``client`` (who submitted, for per-client quotas) and
``cancel_requested`` (workers skip flagged rows between rounds; a
direct :meth:`RunStore.claim` of a named fingerprint still wins, so
``store resume`` can deliberately re-run a cancelled cell).  Schema-1
stores migrate in place on first open — old rows keep their
fingerprints and records and gain the new columns with service-neutral
defaults.

Telemetry: every lookup hit, claim, stale-lease reclaim and
cancellation counts into ``repro_store_hits_total`` /
``repro_store_claims_total`` / ``repro_store_stale_reclaims_total`` /
``repro_store_cancels_total`` through the active
:mod:`repro.telemetry` registry (no-op when none is active); the same
counts are mirrored on the instance (``hits``/``claims``/
``stale_reclaims``/``cancels``) for in-process consumers.

Environment: ``REPRO_RUN_STORE`` names the default store path for the
CLI's ``--store`` flag; ``REPRO_RUN_STORE_LEASE_S`` overrides the
default lease duration (300 s).
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.record import RunRecord

__all__ = [
    "STORE_SCHEMA_VERSION",
    "RUN_STORE_ENV",
    "StoredRun",
    "RunStore",
    "resolve_store",
]

#: Bump when the ``runs`` table layout changes incompatibly.
STORE_SCHEMA_VERSION = 2

RUN_STORE_ENV = "REPRO_RUN_STORE"
_ENV_LEASE = "REPRO_RUN_STORE_LEASE_S"
_DEFAULT_LEASE_S = 300.0

#: Lifecycle states of a run row.
STATUSES = ("pending", "leased", "done", "error")

HITS_COUNTER = "repro_store_hits_total"
CLAIMS_COUNTER = "repro_store_claims_total"
STALE_COUNTER = "repro_store_stale_reclaims_total"
CANCELS_COUNTER = "repro_store_cancels_total"

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    fingerprint       TEXT PRIMARY KEY,
    algorithm         TEXT NOT NULL,
    dataset           TEXT,
    graph_fingerprint TEXT,
    config_json       TEXT NOT NULL,
    seed              INTEGER,
    record_schema     INTEGER NOT NULL,
    status            TEXT NOT NULL DEFAULT 'pending',
    worker            TEXT,
    lease_expires_at  REAL,
    heartbeat_at      REAL,
    attempts          INTEGER NOT NULL DEFAULT 0,
    record_json       TEXT,
    error_type        TEXT,
    error_message     TEXT,
    created_at        REAL NOT NULL,
    updated_at        REAL NOT NULL,
    priority          INTEGER NOT NULL DEFAULT 0,
    client            TEXT,
    cancel_requested  INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS runs_status ON runs (status);
CREATE INDEX IF NOT EXISTS runs_algorithm ON runs (algorithm);
CREATE INDEX IF NOT EXISTS runs_dataset ON runs (dataset);
CREATE INDEX IF NOT EXISTS runs_created ON runs (created_at);
"""

#: Columns added by each schema migration step, in bump order.  A
#: schema-1 store gains exactly these on first open by a schema-2
#: reader; existing rows keep their fingerprints and records.
_MIGRATIONS: dict[int, tuple[str, ...]] = {
    2: (
        "ALTER TABLE runs ADD COLUMN priority "
        "INTEGER NOT NULL DEFAULT 0",
        "ALTER TABLE runs ADD COLUMN client TEXT",
        "ALTER TABLE runs ADD COLUMN cancel_requested "
        "INTEGER NOT NULL DEFAULT 0",
    ),
}

#: Created after migration (references schema-2 columns, so it cannot
#: live in ``_SCHEMA_SQL``, which an un-migrated v1 table also runs).
_CLAIM_INDEX_SQL = ("CREATE INDEX IF NOT EXISTS runs_claim "
                    "ON runs (status, priority DESC, created_at)")


def _count(name: str) -> None:
    """Bump a store counter in the active telemetry registry (no-op
    when none is active)."""
    from repro.telemetry.spans import emit_event

    emit_event(name, "Run-store lifecycle events.")


#: How long a connection waits on another process's lock (the
#: ``timeout`` of :func:`sqlite3.connect` sets SQLite's busy timeout).
_BUSY_TIMEOUT_S = 30.0


def default_lease_seconds() -> float:
    """The lease a store gets when none is passed:
    ``REPRO_RUN_STORE_LEASE_S`` or 300 s."""
    return float(os.environ.get(_ENV_LEASE, _DEFAULT_LEASE_S))


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Switch ``conn``'s database to WAL, retrying within the busy timeout.

    Two processes opening the same fresh file can race on the switch;
    SQLite reports the loser's ``database is locked`` at once, without
    calling the busy handler, so the wait is done here.
    """
    deadline = time.monotonic() + _BUSY_TIMEOUT_S
    delay = 0.001
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() > deadline:
                raise
        time.sleep(delay)
        delay = min(2 * delay, 0.05)


def _is_current(conn: sqlite3.Connection) -> bool:
    """Whether ``conn``'s database is already a current-schema WAL
    store, in one probe — the common case for every connection after
    the first, which then skips the schema script and migration."""
    try:
        row = conn.execute(
            "SELECT (SELECT value FROM store_meta WHERE key='schema'), "
            "(SELECT journal_mode FROM pragma_journal_mode)").fetchone()
    except sqlite3.OperationalError:  # no store_meta table yet
        return False
    return row[0] == str(STORE_SCHEMA_VERSION) and row[1] == "wal"


@dataclass(frozen=True)
class StoredRun:
    """One ``runs`` row, as Python data."""

    fingerprint: str
    algorithm: str
    dataset: str | None
    graph_fingerprint: str | None
    config: dict[str, Any]
    seed: int | None
    record_schema: int
    status: str
    worker: str | None
    lease_expires_at: float | None
    heartbeat_at: float | None
    attempts: int
    record_json: str | None
    error_type: str | None
    error_message: str | None
    created_at: float
    updated_at: float
    priority: int = 0
    client: str | None = None
    cancel_requested: bool = False

    def record(self) -> "RunRecord | None":
        """The stored :class:`RunRecord` (``done``/``error`` rows)."""
        if self.record_json is None:
            return None
        from repro.engine.record import RunRecord

        return RunRecord.from_json(self.record_json)

    @property
    def state(self) -> str:
        """The job-facing lifecycle state: the row status, except that
        a claimable row flagged ``cancel_requested`` reads
        ``cancelled`` — no worker will pick it up again."""
        if self.cancel_requested and self.status in ("pending", "error"):
            return "cancelled"
        return self.status

    @property
    def resumable(self) -> bool:
        """Whether :func:`~repro.store.fingerprint.cell_from_config`
        can rebuild this row's cell standalone."""
        return bool(self.config.get("dataset")
                    or self.config.get("builder"))


def _row_to_run(row: sqlite3.Row) -> StoredRun:
    return StoredRun(
        fingerprint=row["fingerprint"],
        algorithm=row["algorithm"],
        dataset=row["dataset"],
        graph_fingerprint=row["graph_fingerprint"],
        config=json.loads(row["config_json"]),
        seed=row["seed"],
        record_schema=row["record_schema"],
        status=row["status"],
        worker=row["worker"],
        lease_expires_at=row["lease_expires_at"],
        heartbeat_at=row["heartbeat_at"],
        attempts=row["attempts"],
        record_json=row["record_json"],
        error_type=row["error_type"],
        error_message=row["error_message"],
        created_at=row["created_at"],
        updated_at=row["updated_at"],
        priority=row["priority"],
        client=row["client"],
        cancel_requested=bool(row["cancel_requested"]),
    )


def _where(columns: Iterable[tuple[str, Any]], *,
           created_after: float | None = None,
           created_before: float | None = None
           ) -> tuple[str, list[Any]]:
    """The ``WHERE`` clause and parameters of a row filter: each
    ``(column, value)`` with a non-None value narrows to ``column IN
    (value...)``; a plain string is one value."""
    clauses: list[str] = []
    params: list[Any] = []
    for column, value in columns:
        if value is None:
            continue
        wanted = [value] if isinstance(value, str) else list(value)
        marks = ",".join("?" for _ in wanted)
        clauses.append(f"{column} IN ({marks})")
        params.extend(wanted)
    if created_after is not None:
        clauses.append("created_at >= ?")
        params.append(float(created_after))
    if created_before is not None:
        clauses.append("created_at <= ?")
        params.append(float(created_before))
    return (f" WHERE {' AND '.join(clauses)}" if clauses else ""), params


class RunStore:
    """SQLite-backed, multi-process-safe store of grid-cell runs.

    Instances pickle by path (the connection is dropped and lazily
    reopened), so a store passed to ``run_cells(parallel=N, store=...)``
    travels to every worker process, each of which opens its own
    WAL-mode connection.

    Parameters
    ----------
    path:
        The database file (created, with parents, on first use).
    lease_seconds:
        How long a claim stays valid without a heartbeat before other
        workers may reclaim the row (default ``REPRO_RUN_STORE_LEASE_S``
        or 300).
    clock:
        Time source, injectable for the stale-lease tests.
    worker_id:
        Identity recorded on claimed rows (default ``host:pid``).
    """

    #: Keep SQLite's guard that a connection is used only by the
    #: thread that opened it (off for the daemon's pooled stores).
    _thread_bound = True

    def __init__(self, path: "Path | str",
                 lease_seconds: float | None = None,
                 clock: Callable[[], float] = time.time,
                 worker_id: str | None = None) -> None:
        self.path = Path(path)
        if lease_seconds is None:
            lease_seconds = default_lease_seconds()
        self.lease_seconds = float(lease_seconds)
        self.clock = clock
        self._worker_id = worker_id
        self._conn: sqlite3.Connection | None = None
        self.hits = 0
        self.claims = 0
        self.stale_reclaims = 0
        self.cancels = 0

    # -------------------------------------------------------------- #
    # connection plumbing
    # -------------------------------------------------------------- #

    @property
    def worker_id(self) -> str:
        if self._worker_id is None:
            self._worker_id = f"{socket.gethostname()}:{os.getpid()}"
        return self._worker_id

    def _connect(self) -> sqlite3.Connection:
        conn = self._conn
        if conn is not None:
            return conn
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self.path), timeout=_BUSY_TIMEOUT_S,
                               isolation_level=None,
                               check_same_thread=self._thread_bound)
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA synchronous=NORMAL")
        if not _is_current(conn):
            self._initialise(conn)
        self._conn = conn
        return conn

    def _initialise(self, conn: sqlite3.Connection) -> None:
        """Create, switch to WAL or migrate a store that is not a
        current-schema WAL store yet (fresh, v1, or newer: refused)."""
        _enable_wal(conn)
        conn.executescript(_SCHEMA_SQL)
        conn.execute(
            "INSERT OR IGNORE INTO store_meta (key, value) VALUES "
            "('schema', ?)", (str(STORE_SCHEMA_VERSION),))
        stored = int(conn.execute(
            "SELECT value FROM store_meta WHERE key='schema'"
        ).fetchone()["value"])
        if stored > STORE_SCHEMA_VERSION:
            conn.close()
            raise ValueError(
                f"run store {self.path} has schema {stored}, newer than "
                f"supported ({STORE_SCHEMA_VERSION})")
        if stored < STORE_SCHEMA_VERSION:
            self._migrate(conn, stored)
        conn.execute(_CLAIM_INDEX_SQL)

    @staticmethod
    def _migrate(conn: sqlite3.Connection, stored: int) -> None:
        """Bring an older store up to :data:`STORE_SCHEMA_VERSION` in
        place (additive column migrations; rows are preserved)."""
        conn.execute("BEGIN IMMEDIATE")
        try:
            # Another writer may have migrated while we waited.
            stored = int(conn.execute(
                "SELECT value FROM store_meta WHERE key='schema'"
            ).fetchone()["value"])
            have = {r["name"] for r in conn.execute(
                "PRAGMA table_info(runs)")}
            for version in sorted(_MIGRATIONS):
                if version <= stored:
                    continue
                for stmt in _MIGRATIONS[version]:
                    column = stmt.split("ADD COLUMN", 1)[1].split()[0]
                    if column not in have:
                        conn.execute(stmt)
            conn.execute(
                "UPDATE store_meta SET value=? WHERE key='schema'",
                (str(STORE_SCHEMA_VERSION),))
        finally:
            conn.execute("COMMIT")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __getstate__(self) -> dict[str, Any]:
        # Connections (and fork-inherited pids) do not cross process
        # boundaries: workers re-open by path and re-derive identity.
        state = self.__dict__.copy()
        state["_conn"] = None
        state["_worker_id"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RunStore(path={str(self.path)!r}, "
                f"counts={self.counts()})")

    # -------------------------------------------------------------- #
    # registration and lookup
    # -------------------------------------------------------------- #

    def register(self, fingerprint: str, *, algorithm: str,
                 config: dict[str, Any], seed: int | None = None,
                 graph_fingerprint: str | None = None,
                 dataset: str | None = None,
                 record_schema: int | None = None,
                 priority: int = 0,
                 client: str | None = None) -> bool:
        """Ensure a row exists for ``fingerprint`` (``pending`` when
        new); returns True if this call created it.

        ``priority``/``client`` are the service-plane columns: workers
        drain higher priorities first (ties oldest-first) and ``client``
        attributes the job for quotas and queries.  Re-registering an
        existing row never changes them (the first submission wins).
        """
        if record_schema is None:
            from repro.engine.record import SCHEMA_VERSION

            record_schema = SCHEMA_VERSION
        now = self.clock()
        cur = self._connect().execute(
            "INSERT OR IGNORE INTO runs (fingerprint, algorithm, "
            "dataset, graph_fingerprint, config_json, seed, "
            "record_schema, status, created_at, updated_at, "
            "priority, client) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, 'pending', ?, ?, ?, ?)",
            (fingerprint, algorithm,
             dataset if dataset is not None else config.get("dataset"),
             graph_fingerprint,
             json.dumps(config, sort_keys=True, default=repr),
             seed, record_schema, now, now, int(priority), client))
        return cur.rowcount > 0

    def get(self, fingerprint: str) -> StoredRun | None:
        """The row for ``fingerprint``, or None."""
        row = self._connect().execute(
            "SELECT * FROM runs WHERE fingerprint = ?",
            (fingerprint,)).fetchone()
        return _row_to_run(row) if row is not None else None

    def find(self, prefix: str) -> list[StoredRun]:
        """Rows whose fingerprint starts with ``prefix`` (CLI ``show``
        convenience; ``cell:`` may be omitted)."""
        if not prefix.startswith("cell:"):
            prefix = f"cell:{prefix}"
        rows = self._connect().execute(
            "SELECT * FROM runs WHERE fingerprint LIKE ? "
            "ORDER BY fingerprint",
            (prefix.replace("%", "") + "%",)).fetchall()
        return [_row_to_run(r) for r in rows]

    def lookup(self, fingerprint: str) -> "RunRecord | None":
        """The stored record of a ``done`` row, served bit-identically
        via :meth:`RunRecord.from_json`; None for any other state."""
        row = self._connect().execute(
            "SELECT record_json FROM runs WHERE fingerprint = ? AND "
            "status = 'done'", (fingerprint,)).fetchone()
        if row is None or row["record_json"] is None:
            return None
        self.hits += 1
        _count(HITS_COUNTER)
        from repro.engine.record import RunRecord

        return RunRecord.from_json(row["record_json"])

    # -------------------------------------------------------------- #
    # lease lifecycle
    # -------------------------------------------------------------- #

    def claim(self, fingerprint: str,
              lease_seconds: float | None = None) -> bool:
        """Atomically take the lease on a claimable row.

        Claimable: ``pending``, ``error`` (failed cells re-run), or
        ``leased`` with an expired lease (dead worker).  Exactly one of
        any number of concurrent claimants wins — the ``UPDATE`` runs
        under ``BEGIN IMMEDIATE`` and re-checks the state it read.
        """
        lease = self.lease_seconds if lease_seconds is None \
            else float(lease_seconds)
        conn = self._connect()
        now = self.clock()
        conn.execute("BEGIN IMMEDIATE")
        try:
            row = conn.execute(
                "SELECT status, lease_expires_at FROM runs WHERE "
                "fingerprint = ?", (fingerprint,)).fetchone()
            if row is None:
                return False
            status = row["status"]
            stale = (status == "leased"
                     and row["lease_expires_at"] is not None
                     and row["lease_expires_at"] < now)
            if status not in ("pending", "error") and not stale:
                return False
            conn.execute(
                "UPDATE runs SET status='leased', worker=?, "
                "lease_expires_at=?, heartbeat_at=?, "
                "attempts=attempts+1, updated_at=? WHERE fingerprint=?",
                (self.worker_id, now + lease, now, now, fingerprint))
        finally:
            conn.execute("COMMIT")
        self.claims += 1
        _count(CLAIMS_COUNTER)
        if stale:
            self.stale_reclaims += 1
            _count(STALE_COUNTER)
        return True

    def claim_next(self, lease_seconds: float | None = None, *,
                   algorithm: str | Iterable[str] | None = None,
                   include_errors: bool = False) -> StoredRun | None:
        """Atomically claim the next claimable row, priority-first.

        The worker-fleet entry point (:mod:`repro.service.worker`):
        picks the highest-``priority`` claimable row (ties: oldest
        ``created_at``, then fingerprint — deterministic), skipping
        rows whose ``cancel_requested`` flag is set.  Claimable means
        ``pending`` or a ``leased`` row whose lease expired (dead
        worker); ``error`` rows are excluded unless
        ``include_errors=True`` so a persistently crashing cell cannot
        trap the fleet in a retry loop (``store resume`` re-runs them
        deliberately).  Returns the claimed row (re-read after the
        lease was taken) or ``None`` when nothing is claimable.
        """
        lease = self.lease_seconds if lease_seconds is None \
            else float(lease_seconds)
        conn = self._connect()
        now = self.clock()
        statuses = ["pending", "error"] if include_errors \
            else ["pending"]
        marks = ",".join("?" for _ in statuses)
        params: list[Any] = [*statuses, now]
        algo_clause = ""
        if algorithm is not None:
            wanted = [algorithm] if isinstance(algorithm, str) \
                else list(algorithm)
            algo_clause = (" AND algorithm IN ("
                           + ",".join("?" for _ in wanted) + ")")
            params.extend(wanted)
        conn.execute("BEGIN IMMEDIATE")
        try:
            row = conn.execute(
                f"SELECT fingerprint, status, lease_expires_at "
                f"FROM runs WHERE cancel_requested=0 AND "
                f"(status IN ({marks}) OR (status='leased' AND "
                f"lease_expires_at IS NOT NULL AND "
                f"lease_expires_at < ?)){algo_clause} "
                f"ORDER BY priority DESC, created_at, fingerprint "
                f"LIMIT 1", params).fetchone()
            if row is None:
                return None
            fingerprint = row["fingerprint"]
            stale = row["status"] == "leased"
            conn.execute(
                "UPDATE runs SET status='leased', worker=?, "
                "lease_expires_at=?, heartbeat_at=?, "
                "attempts=attempts+1, updated_at=? WHERE fingerprint=?",
                (self.worker_id, now + lease, now, now, fingerprint))
        finally:
            conn.execute("COMMIT")
        self.claims += 1
        _count(CLAIMS_COUNTER)
        if stale:
            self.stale_reclaims += 1
            _count(STALE_COUNTER)
        return self.get(fingerprint)

    def request_cancel(self, fingerprint: str) -> bool:
        """Flag a job so the worker fleet never (re)starts it.

        Sets ``cancel_requested`` on any non-``done`` row; workers
        skip flagged rows between rounds (:meth:`claim_next`) and a
        worker that already holds the lease checks the flag before
        executing, releasing the row instead.  Rows that finished
        before the flag landed stay ``done`` — cancellation never
        un-publishes a result.  Returns True when a row was flagged.
        """
        cur = self._connect().execute(
            "UPDATE runs SET cancel_requested=1, updated_at=? "
            "WHERE fingerprint=? AND status != 'done'",
            (self.clock(), fingerprint))
        if cur.rowcount > 0:
            self.cancels += 1
            _count(CANCELS_COUNTER)
            return True
        return False

    def heartbeat(self, fingerprint: str,
                  lease_seconds: float | None = None) -> bool:
        """Refresh this worker's lease; False if the lease was lost."""
        lease = self.lease_seconds if lease_seconds is None \
            else float(lease_seconds)
        now = self.clock()
        cur = self._connect().execute(
            "UPDATE runs SET heartbeat_at=?, lease_expires_at=?, "
            "updated_at=? WHERE fingerprint=? AND worker=? AND "
            "status='leased'",
            (now, now + lease, now, fingerprint, self.worker_id))
        return cur.rowcount > 0

    def complete(self, fingerprint: str, record: "RunRecord") -> None:
        """Persist the outcome of a leased cell (``done`` or ``error``
        by ``record.status``) and drop the lease."""
        now = self.clock()
        error = record.error or {}
        self._connect().execute(
            "UPDATE runs SET status=?, record_json=?, error_type=?, "
            "error_message=?, worker=NULL, lease_expires_at=NULL, "
            "heartbeat_at=NULL, updated_at=? WHERE fingerprint=?",
            ("done" if record.ok else "error", record.to_json(),
             error.get("type"), error.get("message"), now, fingerprint))

    def release(self, fingerprint: str) -> bool:
        """Hand a leased row back to ``pending`` (interrupted worker on
        its way out); False if this worker no longer held it.

        Clears ``worker`` *and* ``heartbeat_at`` — a claimable row must
        never advertise a dead worker in ``store ls``.
        """
        cur = self._connect().execute(
            "UPDATE runs SET status='pending', worker=NULL, "
            "lease_expires_at=NULL, heartbeat_at=NULL, updated_at=? "
            "WHERE fingerprint=? AND worker=? AND status='leased'",
            (self.clock(), fingerprint, self.worker_id))
        return cur.rowcount > 0

    # -------------------------------------------------------------- #
    # shared metadata (worker-fleet side channel)
    # -------------------------------------------------------------- #

    def meta_get(self, key: str) -> str | None:
        """A value from the ``store_meta`` key/value table."""
        row = self._connect().execute(
            "SELECT value FROM store_meta WHERE key=?", (key,)
        ).fetchone()
        return row["value"] if row is not None else None

    def meta_set(self, key: str, value: str) -> None:
        """Upsert a ``store_meta`` value.  The ``schema`` key is the
        store's own and cannot be overwritten through this path.

        The worker fleet uses this as its tiny coordination channel:
        e.g. ``shm:<graph_fingerprint>`` carries the shared-memory
        segment descriptor a co-located worker published, so siblings
        attach the staged graph zero-copy instead of rebuilding it.
        """
        if key == "schema":
            raise ValueError("'schema' is reserved")
        self._connect().execute(
            "INSERT INTO store_meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
            (key, value))

    def meta_delete(self, key: str) -> bool:
        """Drop a ``store_meta`` value; True if it existed."""
        if key == "schema":
            raise ValueError("'schema' is reserved")
        cur = self._connect().execute(
            "DELETE FROM store_meta WHERE key=?", (key,))
        return cur.rowcount > 0

    # -------------------------------------------------------------- #
    # introspection and maintenance
    # -------------------------------------------------------------- #

    def runs(self, status: str | Iterable[str] | None = None
             ) -> list[StoredRun]:
        """All rows, optionally filtered by status(es), oldest first."""
        conn = self._connect()
        if status is None:
            rows = conn.execute(
                "SELECT * FROM runs ORDER BY created_at, fingerprint"
            ).fetchall()
        else:
            wanted = [status] if isinstance(status, str) else list(status)
            marks = ",".join("?" for _ in wanted)
            rows = conn.execute(
                f"SELECT * FROM runs WHERE status IN ({marks}) "
                "ORDER BY created_at, fingerprint", wanted).fetchall()
        return [_row_to_run(r) for r in rows]

    def select(
        self,
        *,
        algorithm: str | Iterable[str] | None = None,
        dataset: str | Iterable[str] | None = None,
        status: str | Iterable[str] | None = None,
        client: str | Iterable[str] | None = None,
        created_after: float | None = None,
        created_before: float | None = None,
    ) -> list[StoredRun]:
        """SQL-side filtered rows, oldest first.

        The read path shared by ``store ls`` and the analysis plane
        (:mod:`repro.analysis.queries`): the indexed columns —
        ``algorithm``, ``dataset``, ``status``, ``created_at`` —
        narrow in SQLite; anything living inside ``config_json`` or
        ``record_json`` (platform, devices, labels, git sha) is the
        caller's Python-side refinement.  Every filter accepts one
        value or an iterable of values; ``None`` means "any".
        """
        where, params = _where(
            (("algorithm", algorithm), ("dataset", dataset),
             ("status", status), ("client", client)),
            created_after=created_after, created_before=created_before)
        rows = self._connect().execute(
            f"SELECT * FROM runs{where} "
            "ORDER BY created_at, fingerprint", params).fetchall()
        return [_row_to_run(r) for r in rows]

    def count(
        self,
        *,
        status: str | Iterable[str] | None = None,
        client: str | Iterable[str] | None = None,
        cancel_requested: bool | None = None,
    ) -> int:
        """One SQL ``COUNT(*)`` over the rows :meth:`select` would
        return for the same filters, optionally narrowed on the
        ``cancel_requested`` flag — no row is read into Python."""
        columns: list[tuple[str, Any]] = [("status", status),
                                          ("client", client)]
        if cancel_requested is not None:
            columns.append(("cancel_requested", [int(cancel_requested)]))
        where, params = _where(columns)
        return self._connect().execute(
            f"SELECT COUNT(*) FROM runs{where}", params).fetchone()[0]

    def counts(self) -> dict[str, int]:
        """Row counts per lifecycle status (absent statuses → 0)."""
        out = {s: 0 for s in STATUSES}
        for row in self._connect().execute(
                "SELECT status, COUNT(*) AS n FROM runs GROUP BY status"):
            out[row["status"]] = row["n"]
        return out

    def reclaim_stale(self) -> int:
        """Move every expired lease back to ``pending``; returns the
        number of rows reclaimed.  The dead worker's identity and last
        heartbeat are cleared with the lease."""
        now = self.clock()
        cur = self._connect().execute(
            "UPDATE runs SET status='pending', worker=NULL, "
            "lease_expires_at=NULL, heartbeat_at=NULL, updated_at=? "
            "WHERE status='leased' "
            "AND lease_expires_at IS NOT NULL AND lease_expires_at < ?",
            (now, now))
        n = cur.rowcount
        for _ in range(n):
            _count(STALE_COUNTER)
        self.stale_reclaims += n
        return n

    def gc(self, prune_errors: bool = False) -> dict[str, int]:
        """Housekeeping: reclaim stale leases and (optionally) delete
        ``error`` rows so their cells re-register from scratch."""
        out = {"stale_reclaimed": self.reclaim_stale(),
               "errors_pruned": 0}
        if prune_errors:
            cur = self._connect().execute(
                "DELETE FROM runs WHERE status='error'")
            out["errors_pruned"] = cur.rowcount
        return out

    def export(self) -> dict[str, Any]:
        """The whole store as one JSON-safe document (schema, per-status
        counts, every row with its parsed record)."""
        runs = []
        for r in self.runs():
            doc: dict[str, Any] = {
                "fingerprint": r.fingerprint,
                "algorithm": r.algorithm,
                "dataset": r.dataset,
                "graph_fingerprint": r.graph_fingerprint,
                "seed": r.seed,
                "record_schema": r.record_schema,
                "status": r.status,
                "state": r.state,
                "attempts": r.attempts,
                "priority": r.priority,
                "client": r.client,
                "cancel_requested": r.cancel_requested,
                "config": r.config,
                "error_type": r.error_type,
                "error_message": r.error_message,
                "record": json.loads(r.record_json)
                if r.record_json is not None else None,
            }
            runs.append(doc)
        return {
            "schema": STORE_SCHEMA_VERSION,
            "path": str(self.path),
            "counts": self.counts(),
            "runs": runs,
        }


def resolve_store(store: "RunStore | Path | str | None",
                  use_env: bool = True) -> "RunStore | None":
    """Normalise a ``store=`` argument: pass instances through, wrap
    paths, and (for ``None``, when ``use_env``) fall back to the
    ``REPRO_RUN_STORE`` environment variable."""
    if isinstance(store, RunStore):
        return store
    if store is not None:
        return RunStore(store)
    if use_env:
        env = os.environ.get(RUN_STORE_ENV)
        if env:
            return RunStore(env)
    return None
