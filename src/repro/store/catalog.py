"""Compressed-variant catalog over the binary snapshot store.

A :class:`SnapshotCatalog` is a directory of content-addressed entries:

.. code-block:: text

    <root>/
      <digest>/                 sha256 of the base graph's canonical bytes
        base.rgs                the frozen graph, binary snapshot format
        meta.json               human-readable entry summary
        variants/
          reachability.rpv      compressR artifact (Gr + class/SCC maps)
          bisimulation.rpv      compressB artifact (Gb + block map)
          tol.rpv               TOL reachability labels over Gr

``put`` freezes and stores a graph once; ``reachability`` / ``bisimulation``
return the paper's compression artifacts, computing and persisting them on
the first request (cold miss) and rehydrating them with **zero
recomputation** on every later one (warm hit).  Rehydrated artifacts are
byte-identical to a cold in-memory run — ``canonical_form()`` compares
equal — because every persisted array is aligned to the base snapshot's
canonical node order.

This is the missing layer between "reproduce the paper" and the ROADMAP's
production-serving target: a query session opens a catalog, gets ``Gr`` and
``Gb`` back in milliseconds, and runs stock evaluators on them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import time
import weakref
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.pattern import PatternCompression, compress_pattern_csr
from repro.faults.plan import fault_data, fault_point
from repro.core.reachability import ReachabilityCompression, compress_reachability_csr
from repro.index.tol import TOLIndex
from repro.obs.metrics import inc as obs_inc
from repro.obs.metrics import metrics_on, observe as obs_observe
from repro.obs.trace import trace_span
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.store.format import (
    FORMAT_VERSION,
    HEADER_SIZE,
    LegacyLayoutError,
    SnapshotError,
    SnapshotVersionError,
    _frame,
    atomic_write_bytes,
    build_sidecar,
    decode_int_sections,
    decode_sidecar,
    encode_body,
    encode_int_sections,
    encode_sidecar,
    load_bytes,
    sweep_stale_tmp,
)
from repro.store.mmapgraph import MmapGraph

PathLike = Union[str, Path]
GraphSource = Union[str, DiGraph, CSRGraph]

_BASE_NAME = "base.rgs"
#: Offsets sidecar stored next to ``base.rgs`` (same content address): the
#: per-row byte offsets that let :meth:`SnapshotCatalog.base_mmap` open the
#: snapshot without a whole-file decode pass.
_SIDECAR_NAME = "base.obl"
_META_NAME = "meta.json"
_VARIANT_SUFFIX = ".rpv"
#: Corrupt files are moved here (never deleted): forensics stay available
#: while the entry stops advertising the bad bytes.
_QUARANTINE_DIR = "quarantine"


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for *pid* on this host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # EPERM: alive, just not ours to signal
    return True


class CatalogError(SnapshotError):
    """Lookup of a digest the catalog does not hold."""


class CatalogLockError(CatalogError):
    """The catalog's writer lock could not be acquired in time."""


#: Every live directory lock / catalog, so the fork handler can re-arm
#: their in-process primitives in the child (weak: garbage-collected
#: instances drop out automatically).
_LIVE_LOCKS: "weakref.WeakSet[_DirectoryLock]" = weakref.WeakSet()
_LIVE_CATALOGS: "weakref.WeakSet[SnapshotCatalog]" = weakref.WeakSet()


def _rearm_locks_after_fork() -> None:  # pragma: no cover - exercised via fork tests
    for lock in list(_LIVE_LOCKS):
        lock._reset_after_fork()
    for catalog in list(_LIVE_CATALOGS):
        # A memo-cache lock held by a non-forking thread at fork time
        # would deadlock the child's first base()/put(); the dict itself
        # is never left half-written under CPython, so a fresh lock is
        # all the child needs.
        catalog._graphs_lock = threading.Lock()
        for view in list(catalog._mmaps.values()):
            view._reset_locks_after_fork()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_rearm_locks_after_fork)


class _DirectoryLock:
    """A cooperative cross-process lock file for one catalog directory.

    ``O_CREAT | O_EXCL`` is atomic on every platform/filesystem this repo
    targets, so whoever creates ``<root>/.lock`` owns the catalog's write
    side.  The file body records a unique ownership token (pid + instance
    + acquisition time); release verifies the token before unlinking, so a
    holder whose lock was broken as stale can never delete the *next*
    owner's lock.  A lock whose file has not been touched for
    *stale_after* seconds is presumed abandoned (a crashed writer) and
    broken; breaking re-races through the same atomic create, so two
    waiters cannot both claim it.

    While held, a **daemon heartbeat thread** touches the file every
    ``stale_after / 4`` seconds, so an arbitrarily long critical section
    (or a writer blocked on slow I/O) is never mistaken for a crashed one
    — no matter how long ``prune`` scans or an executor worker computes.
    The thread is a daemon by contract: a process that exits mid-hold
    must *stop* heartbeating so waiters can break the lock as stale,
    rather than keep it alive forever.  :meth:`refresh` remains as a
    manual checkpoint for callers that disabled the thread.

    Threads sharing one instance serialise on an in-process ``RLock``
    before the file protocol runs, so the lock is reentrant within the
    owning thread (locked sections can nest — ``warm`` under ``prune``)
    and exclusive across threads and processes alike.

    The lock also **survives fork** (a child forked beside a shared
    catalog): an ``os.register_at_fork`` handler re-arms every instance's
    in-process state in the child — the child starts unheld (it never
    inherits, releases, or heartbeats the parent's file lock, even if the
    fork happened inside a locked section; the ownership token stays
    unique to the parent), while the parent keeps holding and
    heartbeating undisturbed.
    """

    def __init__(
        self,
        path: Path,
        timeout: float = 10.0,
        stale_after: float = 60.0,
        poll: float = 0.02,
        heartbeat: bool = True,
    ) -> None:
        self.path = path
        self.timeout = timeout
        self.stale_after = stale_after
        self.poll = poll
        self.heartbeat = heartbeat
        self._tlock = threading.RLock()
        self._depth = 0
        self._token = ""
        self._hb_thread: Optional[threading.Thread] = None
        self._hb_stop: Optional[threading.Event] = None
        _LIVE_LOCKS.add(self)

    def __enter__(self) -> "_DirectoryLock":
        t_wait = time.perf_counter() if metrics_on() else 0.0
        if not self._tlock.acquire(timeout=self.timeout):
            raise CatalogLockError(
                f"could not acquire catalog lock {self.path} within "
                f"{self.timeout:.1f}s (held by another thread of this process)"
            )
        self._depth += 1
        if self._depth > 1:
            return self  # reentrant: the file is already ours
        try:
            deadline = time.monotonic() + self.timeout
            while True:
                try:
                    fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    self._break_if_stale()
                    if time.monotonic() >= deadline:
                        raise CatalogLockError(
                            f"could not acquire catalog lock {self.path} within "
                            f"{self.timeout:.1f}s (stale writer? delete the file "
                            "if no catalog process is alive)"
                        ) from None
                    time.sleep(self.poll)
                    continue
                token = f"pid={os.getpid()} owner={id(self)} acquired={time.time():.3f}"
                with os.fdopen(fd, "w") as fh:
                    fh.write(token + "\n")
                self._token = token
                if self.heartbeat:
                    self._start_heartbeat()
                if t_wait:
                    obs_observe("catalog_lock_wait_seconds",
                                time.perf_counter() - t_wait)
                return self
        except BaseException:
            self._depth -= 1
            self._tlock.release()
            raise

    def __exit__(self, *exc_info) -> None:
        if self._depth == 0:
            # A forked child exiting a with-block it inherited from its
            # parent: the fork handler already re-armed this instance and
            # the parent still owns the file — nothing to release here.
            return
        self._depth -= 1
        if self._depth == 0:
            self._stop_heartbeat()
            try:
                # Only release a lock we still own: if ours was broken as
                # stale and reclaimed, the file now carries another owner's
                # token and must be left alone.
                with open(self.path, "r", encoding="utf-8") as fh:
                    current = fh.readline().strip()
                if current == self._token:
                    os.unlink(self.path)
            except OSError:  # already broken as stale — nothing to release
                pass
        self._tlock.release()

    # -- heartbeat -------------------------------------------------------
    def _start_heartbeat(self) -> None:
        stop = threading.Event()
        interval = max(self.stale_after / 4.0, 0.05)

        def beat() -> None:
            while not stop.wait(interval):
                if self._depth == 0:
                    return
                try:
                    os.utime(self.path, None)
                except OSError:
                    pass  # broken as stale already; the token check handles release

        self._hb_stop = stop
        self._hb_thread = threading.Thread(
            target=beat, name="repro-catalog-heartbeat", daemon=True
        )
        self._hb_thread.start()

    def _stop_heartbeat(self) -> None:
        stop, thread = self._hb_stop, self._hb_thread
        self._hb_stop = None
        self._hb_thread = None
        if stop is not None:
            stop.set()
        if thread is not None and thread.is_alive():
            thread.join(timeout=1.0)

    def _reset_after_fork(self) -> None:
        """Re-arm in-process state in a forked child (module fork handler).

        The parent's heartbeat thread did not survive the fork, and the
        file lock — if held — still belongs to the parent; the child must
        start unheld with fresh primitives or it would deadlock on the
        copied ``RLock`` state and, worse, delete the parent's lock file
        on a ``with``-block exit it never paired with an acquire.
        """
        self._tlock = threading.RLock()
        self._depth = 0
        self._token = ""
        self._hb_thread = None
        self._hb_stop = None

    def refresh(self) -> None:
        """Manual heartbeat checkpoint (redundant while the daemon runs)."""
        if self._depth:
            try:
                os.utime(self.path, None)
            except OSError:
                pass  # broken as stale already; the token check handles release

    def status(self) -> Dict[str, Any]:
        """Operator-facing snapshot of the lock (served by ``/health``).

        ``held_by_us`` is this instance's in-process view; ``owner_pid``
        reads the file, so a lock held by *another* process still shows
        who owns it.  Read-only — never acquires or breaks anything.
        """
        owner_pid = self._owner_pid()
        age: Optional[float] = None
        try:
            age = round(time.time() - self.path.stat().st_mtime, 3)
        except OSError:
            pass
        return {
            "path": str(self.path),
            "held_by_us": self._depth > 0,
            "depth": self._depth,
            "owner_pid": owner_pid,
            "heartbeat_age_s": age,
            "stale_after_s": self.stale_after,
        }

    def _owner_pid(self) -> Optional[int]:
        """The pid recorded in the lock file, or ``None`` if unreadable."""
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                token = fh.readline()
        except OSError:
            return None
        for part in token.split():
            if part.startswith("pid="):
                try:
                    pid = int(part[4:])
                except ValueError:
                    return None
                return pid if pid > 0 else None
        return None

    def _break_if_stale(self) -> None:
        try:
            age = time.time() - self.path.stat().st_mtime
        except OSError:
            return  # released between the failed create and the stat
        if age <= self.stale_after:
            return
        # A stale heartbeat alone is not proof of death: the holder's
        # heartbeat *thread* can die (interpreter tearing down, thread
        # crash) while the process — and its critical section — live on.
        # Reclaim only when the recorded owner pid is provably not
        # running; an unreadable/foreign token falls back to age alone.
        pid = self._owner_pid()
        if pid is not None and _pid_alive(pid):
            return  # live owner with a dead heartbeat: honour the hold
        try:
            os.unlink(self.path)
        except OSError:
            pass  # another waiter broke it first


class SnapshotCatalog:
    """Content-addressed store of frozen graphs and their compressions.

    A handle memoises the graphs (and mmap views) it has stored or loaded;
    a publisher calls :meth:`forget` when a superseded epoch is freed, so a
    long-lived writer holds the graphs still in use, not one per
    publication.  Entries on disk stay until :meth:`prune` — retention is
    its policy, not the memo's.
    """

    def __init__(
        self,
        root: PathLike,
        lock_timeout: float = 10.0,
        lock_stale_after: float = 60.0,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        sweep_stale_tmp(self.root, recursive=True)
        # Per-process caches; the on-disk layout is the source of truth.
        # Guarded by a lock: executor worker threads share one catalog and
        # warm hits must never observe a half-written dict.
        self._graphs: Dict[str, CSRGraph] = {}
        #: Row-lazy mmap views, memoised separately from the eager graphs:
        #: one open file handle per entry, shared by every epoch pinning it.
        self._mmaps: Dict[str, MmapGraph] = {}
        self._graphs_lock = threading.Lock()
        #: Files moved to quarantine by this handle (process-local log;
        #: the on-disk quarantine directory is the cross-process record).
        self._quarantined: List[str] = []
        _LIVE_CATALOGS.add(self)
        self._lock = _DirectoryLock(
            self.root / ".lock", timeout=lock_timeout, stale_after=lock_stale_after
        )

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a provably corrupt file out of the serving layout.

        The entry stops advertising the bad bytes (so rebuild paths run
        exactly once per bad file — the next probe finds nothing), while
        the bytes themselves survive under ``quarantine/`` for forensics.
        Best-effort: on a read-only catalog the move fails silently and
        the caller's recompute path still runs.
        """
        qdir = self.root / _QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            stem = f"{path.parent.parent.name}-{path.name}" \
                if path.parent.name == "variants" else f"{path.parent.name}-{path.name}"
            target = qdir / stem
            n = 0
            while target.exists():
                n += 1
                target = qdir / f"{stem}.{n}"
            os.replace(path, target)
            (qdir / (target.name + ".reason")).write_text(
                reason + "\n", encoding="utf-8"
            )
        except OSError:
            # Can't move (read-only / concurrent repair): drop the name if
            # possible so the corrupt bytes stop being served either way.
            try:
                path.unlink(missing_ok=True)
            except OSError:
                return
        self._quarantined.append(str(path))
        obs_inc("catalog_quarantines_total")

    def quarantined(self) -> List[str]:
        """Quarantined file names currently on disk (sorted)."""
        qdir = self.root / _QUARANTINE_DIR
        if not qdir.is_dir():
            return []
        return sorted(
            p.name for p in qdir.iterdir() if not p.name.endswith(".reason")
        )

    def lock(self) -> _DirectoryLock:
        """The catalog's writer lock (a reentrant context manager).

        ``put``, variant writes and ``prune`` take it internally; callers
        composing multiple writes (e.g. warm-then-prune maintenance jobs
        against a shared directory) can hold it across the sequence.
        Readers never take it — every file write is atomic-rename, so
        reads are always consistent without coordination.
        """
        return self._lock

    # ------------------------------------------------------------------
    # Entries
    # ------------------------------------------------------------------
    def _entry(self, digest: str) -> Path:
        return self.root / digest

    def digests(self) -> List[str]:
        """All stored base-graph digests, sorted."""
        return sorted(
            p.name for p in self.root.iterdir()
            if p.is_dir() and (p / _BASE_NAME).exists()
        )

    def __contains__(self, digest: str) -> bool:
        return (self._entry(digest) / _BASE_NAME).exists()

    def put(self, graph: Union[DiGraph, CSRGraph]) -> str:
        """Store *graph* (frozen on the way in); returns its digest.

        Idempotent: an existing entry is left untouched, so repeated puts
        of the same content cost one encode + digest and no I/O.
        """
        csr = graph if isinstance(graph, CSRGraph) else CSRGraph.from_digraph(graph)
        # content_identity() memoises the digest on the instance (repeated
        # puts of the same frozen graph encode nothing) and hands back the
        # body while the instance holds it — just encoded, or spliced by
        # merge_deltas — so a store encodes at most once.
        digest, body = csr.content_identity()
        entry = self._entry(digest)
        base = entry / _BASE_NAME
        if not base.exists():
            if body is None:
                body = encode_body(csr)  # CPU work outside the lock
            with trace_span("publish.put", bytes=len(body)), self._lock:
                if not base.exists():  # lost the race: another writer stored it
                    (entry / "variants").mkdir(parents=True, exist_ok=True)
                    meta = {
                        "format_version": FORMAT_VERSION,
                        "nodes": csr.n,
                        "edges": csr.m,
                        "labels": len(csr.label_names),
                    }
                    # Meta first: base.rgs is the entry-existence marker, so
                    # a crash between the two writes must not leave a
                    # meta-less entry that this exists() check would then
                    # never repair.
                    atomic_write_bytes(
                        entry / _META_NAME,
                        (json.dumps(meta, indent=2) + "\n").encode("utf-8"),
                    )
                    atomic_write_bytes(base, _frame(body))
        with self._graphs_lock:
            self._graphs[digest] = csr
        return digest

    def base(self, digest: str) -> CSRGraph:
        """The stored frozen graph behind *digest* (memoised per process)."""
        path = self._entry(digest) / _BASE_NAME
        with self._graphs_lock:
            cached = self._graphs.get(digest)
        if cached is not None:
            self._touch(path)
            obs_inc("catalog_base_loads_total", ("memo",))
            return cached
        if not path.exists():
            raise CatalogError(f"catalog has no entry {digest!r}")
        self._touch(path)
        try:
            fault_point("catalog.base.read")
            data = fault_data("catalog.base.bytes", path.read_bytes())
        except OSError as exc:
            raise CatalogError(
                f"entry {digest!r} base snapshot is unreadable ({exc})"
            ) from exc
        try:
            csr = load_bytes(data)
        except SnapshotVersionError as exc:
            # A newer writer's data is intact, just unreadable here: refuse
            # to serve it but never destroy it (mirroring the digest-mismatch
            # branch below).
            raise CatalogError(
                f"entry {digest!r} was written by a newer format ({exc})"
            ) from exc
        except SnapshotError as exc:
            # A corrupt base is provably not the content its digest names;
            # quarantine it so the entry stops advertising itself and a
            # later put() of the graph rewrites the file instead of
            # skipping it — while the bad bytes stay inspectable.  The
            # sidecar describes the quarantined bytes, so it goes too.
            self._quarantine(path, f"corrupt base for entry {digest}: {exc}")
            self._drop_sidecar(digest)
            raise CatalogError(
                f"entry {digest!r} had a corrupt base snapshot ({exc}); "
                "it has been quarantined — re-put the graph to repair"
            ) from exc
        body = data[HEADER_SIZE:]
        actual = hashlib.sha256(body).hexdigest()
        if actual != digest:
            # Valid snapshot, wrong entry (renamed/mis-copied directory):
            # the file is real content, so leave it alone, but refuse to
            # serve it under a digest that is not its identity.
            raise CatalogError(
                f"entry {digest!r} holds a snapshot whose content digest is "
                f"{actual!r} (renamed or mis-copied entry?)"
            )
        csr._digest = digest  # verified above — memoise without re-encoding
        with self._graphs_lock:
            # A racing loader may have beaten us here; keep the first
            # instance so every thread shares one graph object.
            winner = self._graphs.setdefault(digest, csr)
        obs_inc("catalog_base_loads_total", ("disk",))
        return winner

    def forget(self, digest: str) -> None:
        """Drop this handle's memo of *digest*; the entry on disk stays.

        A memoised mmap view is dropped, not closed: an epoch still pinning
        it keeps serving, and the handle closes when the last pin is
        garbage-collected.
        """
        with self._graphs_lock:
            self._graphs.pop(digest, None)
            self._mmaps.pop(digest, None)

    def _drop_sidecar(self, digest: str) -> None:
        """Best-effort removal of an entry's offsets sidecar."""
        try:
            (self._entry(digest) / _SIDECAR_NAME).unlink(missing_ok=True)
        except OSError:
            pass

    def base_mmap(self, digest: str) -> MmapGraph:
        """A row-lazy ``mmap`` view of the stored base graph behind *digest*.

        The view decodes adjacency rows on demand through the page cache
        instead of materialising the whole graph, so opening one costs a
        CRC pass plus the node-table parse — resident memory then scales
        with the rows queries actually touch.  Views are memoised per
        process (one open file handle per entry) and shared by every epoch
        that pins them; they stay open until :meth:`prune` evicts the
        entry or the process exits.

        The per-row byte offsets come from the ``base.obl`` sidecar next
        to ``base.rgs``.  A missing sidecar is synthesised from the
        snapshot (one scan) and persisted for the next open; a corrupt one
        is quarantined and rebuilt; one in the retired varint layout is
        rebuilt and overwritten in place; a newer-format one is ignored in
        memory without being clobbered.  A sidecar that decodes but does
        not describe the snapshot (stale copy, wrong entry) is quarantined
        and the open retried from a fresh scan, so a bad sidecar can never
        surface as a wrong graph — mirroring the variant self-heal path.
        """
        path = self._entry(digest) / _BASE_NAME
        with self._graphs_lock:
            cached = self._mmaps.get(digest)
        if cached is not None:
            self._touch(path)
            obs_inc("catalog_base_loads_total", ("mmap-memo",))
            return cached
        if not path.exists():
            raise CatalogError(f"catalog has no entry {digest!r}")
        self._touch(path)
        sc_path = self._entry(digest) / _SIDECAR_NAME
        sidecar = None
        clobber_ok = True  # may we overwrite base.obl with a rebuilt one?
        if sc_path.exists():
            try:
                fault_point("catalog.sidecar.read")
                raw = fault_data("catalog.sidecar.bytes", sc_path.read_bytes())
            except OSError:
                raw = None  # transient read trouble: rebuild, leave the file
            if raw is not None:
                try:
                    sidecar = decode_sidecar(raw)
                except SnapshotVersionError:
                    # Newer writer's sidecar: scan in memory, never clobber.
                    clobber_ok = False
                except LegacyLayoutError:
                    pass  # retired layout: rebuilt and overwritten below
                except SnapshotError as exc:
                    self._quarantine(
                        sc_path,
                        f"corrupt offsets sidecar for entry {digest}: {exc}",
                    )
        view: Optional[MmapGraph] = None
        if sidecar is not None:
            try:
                view = MmapGraph.open(path, sidecar)
            except SnapshotVersionError as exc:
                raise CatalogError(
                    f"entry {digest!r} was written by a newer format ({exc})"
                ) from exc
            except SnapshotError as exc:
                # The sidecar decoded but does not describe this snapshot
                # (stale/mis-copied): drop it and retry from a fresh scan
                # before blaming the base file itself.
                self._quarantine(
                    sc_path,
                    f"offsets sidecar rejected for entry {digest}: {exc}",
                )
                view = None
            if view is not None and view.digest() != digest:
                view.close()
                view = None
                self._quarantine(
                    sc_path,
                    f"offsets sidecar names another graph for entry {digest}",
                )
        if view is None:
            try:
                fault_point("catalog.base.read")
                data = fault_data("catalog.base.bytes", path.read_bytes())
            except OSError as exc:
                raise CatalogError(
                    f"entry {digest!r} base snapshot is unreadable ({exc})"
                ) from exc
            try:
                rebuilt = build_sidecar(data)
            except SnapshotVersionError as exc:
                raise CatalogError(
                    f"entry {digest!r} was written by a newer format ({exc})"
                ) from exc
            except SnapshotError as exc:
                self._quarantine(path, f"corrupt base for entry {digest}: {exc}")
                self._drop_sidecar(digest)
                raise CatalogError(
                    f"entry {digest!r} had a corrupt base snapshot ({exc}); "
                    "it has been quarantined — re-put the graph to repair"
                ) from exc
            if rebuilt.digest != digest:
                # Valid snapshot, wrong entry: real content, leave it alone
                # (same contract as the eager loader above).
                raise CatalogError(
                    f"entry {digest!r} holds a snapshot whose content digest "
                    f"is {rebuilt.digest!r} (renamed or mis-copied entry?)"
                )
            if clobber_ok:
                try:
                    with self._lock:
                        atomic_write_bytes(sc_path, encode_sidecar(rebuilt))
                except (CatalogLockError, OSError):
                    pass  # busy or unwritable catalog: serve without caching
            try:
                view = MmapGraph.open(path, rebuilt)
            except SnapshotError as exc:
                # The file validated moments ago; failing now means it
                # changed underneath us — treat as corrupt.
                self._quarantine(path, f"corrupt base for entry {digest}: {exc}")
                self._drop_sidecar(digest)
                raise CatalogError(
                    f"entry {digest!r} base snapshot changed while opening "
                    f"({exc}); it has been quarantined"
                ) from exc
        with self._graphs_lock:
            winner = self._mmaps.setdefault(digest, view)
        if winner is not view:
            view.close()  # racing opener won; keep one handle per entry
        obs_inc("catalog_base_loads_total", ("mmap",))
        return winner

    def meta(self, digest: str) -> dict:
        path = self._entry(digest) / _META_NAME
        if not path.exists():
            raise CatalogError(f"catalog has no entry {digest!r}")
        return json.loads(path.read_text(encoding="utf-8"))

    def _resolve(self, source: GraphSource) -> str:
        """Digest of *source*, storing the graph first when it is one.

        Hot callers should pass the digest (or the ``CSRGraph`` obtained
        from :meth:`put`/:meth:`warm`, whose digest is memoised on the
        instance): a ``DiGraph`` source pays a full freeze + body encode
        on *every* call just to discover which entry it is.
        """
        if isinstance(source, str):
            if source not in self:
                raise CatalogError(f"catalog has no entry {source!r}")
            return source
        return self.put(source)

    # ------------------------------------------------------------------
    # Compressed variants
    # ------------------------------------------------------------------
    def _variant_path(self, digest: str, kind: str) -> Path:
        return self._entry(digest) / "variants" / (kind + _VARIANT_SUFFIX)

    #: Reserved section naming the base graph a variant belongs to, so a
    #: variant file copied between entries (same |V| or not) can never
    #: rehydrate against the wrong base.
    _GUARD_SECTION = "__base_digest__"

    def _write_variant(
        self, path: Path, digest: str, arrays: Dict[str, List[int]]
    ) -> None:
        """Persist a variant; an unwritable catalog degrades to compute-only.

        The artifact is already computed when this runs, so on a read-only
        or permission-restricted catalog (a scenario the read path already
        tolerates) the caller still returns it — only the cache write is
        lost.
        """
        guarded = dict(arrays)
        guarded[self._GUARD_SECTION] = list(bytes.fromhex(digest))
        try:
            fault_point("catalog.variant.write")
            with self._lock:
                path.parent.mkdir(parents=True, exist_ok=True)
                atomic_write_bytes(path, encode_int_sections(guarded))
        except (CatalogLockError, OSError):
            pass  # a busy or unwritable catalog degrades to compute-only

    def _read_variant(
        self, path: Path, digest: str
    ) -> Tuple[Union[Dict[str, List[int]], None], bool]:
        """Decode a variant file; returns ``(arrays_or_None, writable)``.

        An unreadable file (corruption, permission or I/O errors) or one
        whose embedded base digest does not match self-heals: the provably
        corrupt file is quarantined (exactly once — the move takes its
        name out of the layout) and the caller recomputes from the intact
        base snapshot and rewrites the variant, mirroring the bench
        snapshot cache's repair path.  An intact file in the retired
        varint layout is a plain miss: the caller recomputes and overwrites
        it in place, nothing is quarantined.  A *newer-format* file is also
        recomputed in memory, but ``writable`` comes back False so an
        older tool sharing the catalog never overwrites the newer tool's
        cache.
        """
        if not path.exists():
            return None, True
        try:
            fault_point("catalog.variant.read")
            data = fault_data("catalog.variant.bytes", path.read_bytes())
        except OSError:
            # Transient read trouble (or an injected I/O error): the file
            # itself is not proven bad — recompute, leave it in place.
            return None, True
        try:
            arrays = decode_int_sections(data)
        except SnapshotVersionError:
            return None, False  # newer writer's data: compute, don't clobber
        except LegacyLayoutError:
            return None, True  # rebuildable cache in a retired layout: a miss
        except SnapshotError as exc:
            self._quarantine(path, f"corrupt variant for entry {digest}: {exc}")
            return None, True
        try:
            guard = bytes(arrays.pop(self._GUARD_SECTION, []))
        except ValueError:  # guard values outside 0..255: not a valid digest
            self._quarantine(path, f"variant guard malformed for entry {digest}")
            return None, True
        if guard.hex() != digest:
            self._quarantine(
                path,
                f"variant guard names {guard.hex()!r}, entry is {digest!r}",
            )
            return None, True
        return arrays, True

    def has_variant(self, digest: str, kind: str) -> bool:
        return self._variant_path(digest, kind).exists()

    def reachability(self, source: GraphSource) -> ReachabilityCompression:
        """``compressR`` artifact for *source* — cached across sessions.

        Warm hit: ``Gr``, the class map, the SCC index and the stats are
        rehydrated from the variant file.  Cold miss: computed from the
        base snapshot with the CSR kernels, persisted, returned.
        """
        digest = self._resolve(source)
        csr = self.base(digest)
        path = self._variant_path(digest, "reachability")
        with trace_span("catalog.variant", kind="reachability") as span:
            arrays, writable = self._read_variant(path, digest)
            if arrays is not None:
                try:
                    comp = ReachabilityCompression.from_arrays(
                        csr.node_order(), arrays
                    )
                except (KeyError, ValueError, IndexError):
                    pass  # malformed arrays from a buggy writer: recompute
                else:
                    span.set(result="warm")
                    obs_inc("catalog_variant_requests_total",
                            ("reachability", "warm"))
                    return comp
            span.set(result="cold")
            obs_inc("catalog_variant_requests_total", ("reachability", "cold"))
            t0 = time.perf_counter()
            comp = compress_reachability_csr(csr)
            obs_observe("catalog_variant_build_seconds",
                        time.perf_counter() - t0, ("reachability",))
            if writable:
                self._write_variant(path, digest, comp.to_arrays(csr.node_order()))
            return comp

    def bisimulation(self, source: GraphSource) -> PatternCompression:
        """``compressB`` artifact for *source* — cached across sessions.

        Same warm/cold discipline as :meth:`reachability`; hypernode labels
        are recovered from the base snapshot's label arrays.
        """
        digest = self._resolve(source)
        csr = self.base(digest)
        path = self._variant_path(digest, "bisimulation")
        with trace_span("catalog.variant", kind="bisimulation") as span:
            arrays, writable = self._read_variant(path, digest)
            if arrays is not None:
                labels = list(map(csr.label_names.__getitem__, csr.label_codes()))
                try:
                    comp = PatternCompression.from_arrays(
                        csr.node_order(), labels, arrays
                    )
                except (KeyError, ValueError, IndexError):
                    pass  # malformed arrays from a buggy writer: recompute
                else:
                    span.set(result="warm")
                    obs_inc("catalog_variant_requests_total",
                            ("bisimulation", "warm"))
                    return comp
            span.set(result="cold")
            obs_inc("catalog_variant_requests_total", ("bisimulation", "cold"))
            t0 = time.perf_counter()
            comp = compress_pattern_csr(csr)
            obs_observe("catalog_variant_build_seconds",
                        time.perf_counter() - t0, ("bisimulation",))
            if writable:
                self._write_variant(path, digest, comp.to_arrays(csr.node_order()))
            return comp

    def tol(self, source: GraphSource, gr: Optional[DiGraph] = None) -> TOLIndex:
        """TOL reachability labels over ``Gr`` for *source* — cached.

        Warm hit: label sets and condensation map rehydrate from the
        variant file with zero recomputation.  Cold miss: the labels are
        built over ``Gr``, persisted, returned.  *gr* is the canonical
        ``Gr`` of *source* when the caller already holds it
        (``reachability(source).compressed``); without it ``Gr`` comes
        through :meth:`reachability`, which reads and decodes that variant
        again.  ``tol.rpv`` stores labels only: a rehydrated index reads
        ``Gr``'s edges back from *gr* the first time a repair asks for
        them, so *gr* must stay as it is for as long as the index is used
        (maintainers build their own ``Gr``; nothing mutates a catalog
        artifact's).  The persisted arrays are aligned to ``Gr``'s
        canonical class ids, so a rehydrated index answers byte-identically
        to a cold build — but only for *canonical* artifacts: callers
        serving an incrementally-maintained ``Gr`` must build their index
        from that artifact directly, not from here.
        """
        digest = self._resolve(source)
        path = self._variant_path(digest, "tol")
        with trace_span("catalog.variant", kind="tol") as span:
            arrays, writable = self._read_variant(path, digest)
            if gr is None:
                gr = self.reachability(digest).compressed
            order = sorted(gr.nodes())
            if arrays is not None:
                try:
                    index = TOLIndex.from_arrays(order, arrays, gr.edge_list)
                except (KeyError, ValueError, IndexError):
                    pass  # malformed arrays from a buggy writer: recompute
                else:
                    span.set(result="warm")
                    obs_inc("catalog_variant_requests_total", ("tol", "warm"))
                    return index
            span.set(result="cold")
            obs_inc("catalog_variant_requests_total", ("tol", "cold"))
            t0 = time.perf_counter()
            index = TOLIndex(gr, backend="csr")
            obs_observe("catalog_variant_build_seconds",
                        time.perf_counter() - t0, ("tol",))
            if writable:
                self._write_variant(path, digest, index.to_arrays(order))
            return index

    def warm(self, source: GraphSource) -> str:
        """Precompute and persist every variant of *source*; returns digest."""
        digest = self._resolve(source)
        gr = self.reachability(digest).compressed
        self.bisimulation(digest)
        self.tol(digest, gr=gr)
        return digest

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh an entry's recency stamp (best-effort; read-only ok)."""
        try:
            os.utime(path, None)
        except OSError:
            pass

    def _entry_bytes(self, digest: str) -> int:
        """Total on-disk bytes of one entry (base + sidecar + meta + variants).

        The walk covers every file under the entry directory, so the
        ``base.obl`` offsets sidecar counts toward ``max_bytes`` eviction
        the same as the snapshot it describes.
        """
        total = 0
        for dirpath, _dirnames, filenames in os.walk(self._entry(digest)):
            for name in filenames:
                try:
                    total += os.stat(os.path.join(dirpath, name)).st_size
                except OSError:
                    pass  # racing writer/pruner; count what is stat-able
        return total

    def prune(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> List[str]:
        """Evict least-recently-used entries until within the given bounds.

        Recency is the ``base.rgs`` mtime, which every access refreshes
        (:meth:`base` touches it, and both variant accessors go through
        ``base``), so eviction order is LRU-by-use, falling back to
        LRU-by-write for never-read entries.  ``max_entries`` bounds the
        entry count, ``max_bytes`` the catalog's total payload size
        (base + meta + variants); either alone or both together.  Returns
        the evicted digests, oldest first.

        Runs under the writer lock, so a concurrent ``put`` of a shared
        directory cannot interleave with the directory removals; a
        concurrent *reader* of an evicted entry sees a clean
        ``CatalogError`` (entries vanish whole, marker file first).
        """
        if max_entries is None and max_bytes is None:
            raise ValueError("pass max_entries and/or max_bytes")
        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries must be nonnegative")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be nonnegative")
        evicted: List[str] = []
        with self._lock:
            aged: List[Tuple[float, str]] = []
            sizes: Dict[str, int] = {}
            for digest in self.digests():
                try:
                    mtime = (self._entry(digest) / _BASE_NAME).stat().st_mtime
                except OSError:
                    continue  # vanished mid-scan
                aged.append((mtime, digest))
                if max_bytes is not None:
                    sizes[digest] = self._entry_bytes(digest)
                self._lock.refresh()  # heartbeat: the scan can be long
            aged.sort()  # oldest first; digest tie-break for determinism
            count = len(aged)
            total = sum(sizes.values())
            for mtime, digest in aged:
                over_entries = max_entries is not None and count > max_entries
                over_bytes = max_bytes is not None and total > max_bytes
                if not (over_entries or over_bytes):
                    break
                size = sizes.get(digest, 0)
                # Remove the existence marker first so a concurrent reader
                # fails cleanly rather than decoding a half-removed entry;
                # the sidecar goes with it so a partially failed rmtree can
                # never leave an orphaned .obl leaking disk (or, worse, a
                # stale sidecar for a digest a later put() re-creates).
                try:
                    (self._entry(digest) / _BASE_NAME).unlink()
                except OSError:
                    pass
                self._drop_sidecar(digest)
                shutil.rmtree(self._entry(digest), ignore_errors=True)
                self.forget(digest)  # the unlink leaves a pinned mapping valid
                evicted.append(digest)
                count -= 1
                total -= size
                self._lock.refresh()  # heartbeat per evicted entry
        return evicted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SnapshotCatalog({str(self.root)!r}, entries={len(self.digests())})"
