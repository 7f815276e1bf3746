"""The metadata service: executes operations on owned file sets.

One :class:`MetadataService` instance models one Storage Tank server's
metadata engine: the in-memory namespaces of the file sets it currently
owns, plus the lock table.  Ownership changes via the shared disk:

- :meth:`release_fileset` — flush the namespace image and forget it (the
  paper's "the shedding server flushes its cache with respect to shed file
  sets to create a consistent disk image"); the file set's lock state is
  volatile and is handed back to the caller;
- :meth:`acquire_fileset` — load the image from the shared disk ("the new
  server initializes the file set") and install the handed-over lock
  state, modelling clients that reassert their locks with the new owner.
  A crash loses the lock table.

Operations on file sets this server does not own fail with
``not-owner`` — the routing layer (:mod:`repro.fs.cluster`) is responsible
for sending operations to the right server by hashing.
"""

from __future__ import annotations

from typing import Mapping

from . import paths
from .disk import SharedDisk
from .locks import LockError, LockManager, LockMode, PathLocks
from .namespace import FSError, Namespace
from .ops import Operation, OpResult, OpType
from .paths import PathError


class MetadataService:
    """One server's metadata engine."""

    def __init__(self, name: str, disk: SharedDisk) -> None:
        self.name = name
        self.disk = disk
        self._owned: dict[str, Namespace] = {}
        self.locks = LockManager()
        self.ops_served = 0
        self.ops_failed = 0

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------
    def owned_filesets(self) -> list[str]:
        """Names of the file sets this server currently owns."""
        return sorted(self._owned)

    def owns(self, fileset: str) -> bool:
        """True when this server owns ``fileset``."""
        return fileset in self._owned

    def acquire_fileset(
        self, fileset: str, locks: Mapping[str, PathLocks] | None = None
    ) -> None:
        """Initialize a gained file set from its shared-disk image and
        install the lock state the previous owner released."""
        if fileset in self._owned:
            raise FSError(f"{self.name}: already owns {fileset!r}")
        self._owned[fileset] = self.disk.load(fileset)
        if locks:
            self.locks.attach(locks)

    def release_fileset(
        self, fileset: str, now: float = 0.0
    ) -> dict[str, PathLocks]:
        """Flush and forget a shed file set (consistent disk image).

        Returns the file set's lock state for :meth:`acquire_fileset` on
        the new owner."""
        namespace = self._owned.get(fileset)
        if namespace is None:
            raise FSError(f"{self.name}: does not own {fileset!r}")
        self.disk.flush(namespace, server=self.name, now=now)
        del self._owned[fileset]
        return self.locks.detach(f"{fileset}:")

    def crash(self) -> list[str]:
        """Server failure: in-memory state is lost *without* flushing.

        Returns the file sets that were owned; their last flushed images on
        the shared disk are what the recovering owners will load — exactly
        the shared-disk recovery story of §1.
        """
        lost = self.owned_filesets()
        self._owned.clear()
        self.locks = LockManager()
        return lost

    def flush_all(self, now: float = 0.0) -> None:
        """Periodic checkpoint of every owned namespace."""
        for namespace in self._owned.values():
            self.disk.flush(namespace, server=self.name, now=now)

    # ------------------------------------------------------------------
    # Operation execution
    # ------------------------------------------------------------------
    def execute(self, fileset: str, operation: Operation) -> OpResult:
        """Execute one metadata operation against an owned file set."""
        namespace = self._owned.get(fileset)
        if namespace is None:
            self.ops_failed += 1
            return OpResult.failure(f"not-owner:{self.name}")
        try:
            result = self._dispatch(namespace, operation)
        except (FSError, PathError, LockError) as exc:
            self.ops_failed += 1
            return OpResult.failure(f"{type(exc).__name__}: {exc}")
        self.ops_served += 1
        return result

    def _dispatch(self, ns: Namespace, op: Operation) -> OpResult:
        now = op.time
        kind = op.op
        if kind is OpType.STAT:
            return OpResult.success(ns.stat(op.path))
        if kind is OpType.LOOKUP:
            return OpResult.success(ns.exists(op.path))
        if kind is OpType.READDIR:
            return OpResult.success(ns.readdir(op.path))
        if kind is OpType.CREATE:
            node = ns.create(op.path, owner=op.client, now=now)
            return OpResult.success(node.inode)
        if kind is OpType.MKDIR:
            node = ns.mkdir(op.path, owner=op.client, now=now)
            return OpResult.success(node.inode)
        if kind is OpType.SETATTR:
            attrs = ns.setattr(op.path, now=now, **op.args)
            return OpResult.success(attrs)
        if kind is OpType.UNLINK:
            ns.unlink(op.path, now=now)
            return OpResult.success()
        if kind is OpType.RMDIR:
            ns.rmdir(op.path, now=now)
            return OpResult.success()
        if kind is OpType.RENAME:
            dst = op.args.get("dst")
            if not dst:
                return OpResult.failure("rename requires args['dst']")
            ns.rename(op.path, dst, now=now)
            return OpResult.success()
        if kind is OpType.LOCK:
            mode = op.args.get("mode", LockMode.SHARED)
            if not ns.exists(op.path):
                return OpResult.failure(f"NotFound: {op.path!r}")
            granted = self.locks.acquire(op.client, self._lock_key(ns, op.path), mode)
            return OpResult.success(granted)
        if kind is OpType.UNLOCK:
            self.locks.release(op.client, self._lock_key(ns, op.path))
            return OpResult.success()
        raise FSError(f"unhandled operation {kind!r}")  # pragma: no cover

    @staticmethod
    def _lock_key(ns: Namespace, path: str) -> str:
        return f"{ns.fileset}:{paths.normalize(path)}"

    # ------------------------------------------------------------------
    def recover_client(self, client: str) -> int:
        """Failed-client detection: release all of its locks."""
        return len(self.locks.release_client(client))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetadataService({self.name!r}, owns={self.owned_filesets()!r})"
        )
