"""File/data lock management.

Storage Tank servers "grant file/data locks, and detect and recover failed
clients" (§2): before a client touches data on the SAN it acquires a lock
from the metadata server that owns the file's file set.  This module
implements that lock table:

- shared (read) and exclusive (write) locks per path, per client session;
- FIFO fairness: a queued exclusive waiter blocks later shared requests
  (no writer starvation);
- client failure recovery: :meth:`LockManager.release_client` drops every
  lock and queued request of a failed session and promotes waiters;
- the lock table is part of the file set's volatile server state — it is
  *not* written to the shared disk.  When a file set changes owner its
  clients reassert their locks with the new owner, modelled by
  :meth:`LockManager.detach` on the old owner and :meth:`LockManager.attach`
  on the new one; a server crash loses the table.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping


class LockError(Exception):
    """Illegal lock-table operation (double release, unknown holder...)."""


class LockMode(enum.Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass
class PathLocks:
    """Lock state for one path."""

    holders: dict[str, LockMode] = field(default_factory=dict)
    waiters: deque = field(default_factory=deque)  # of (client, mode)

    @property
    def mode(self) -> LockMode | None:
        if not self.holders:
            return None
        if any(m is LockMode.EXCLUSIVE for m in self.holders.values()):
            return LockMode.EXCLUSIVE
        return LockMode.SHARED


class LockManager:
    """Lock table for the file sets one server currently owns."""

    def __init__(self) -> None:
        self._table: dict[str, PathLocks] = {}
        self.grants = 0
        self.waits = 0

    # ------------------------------------------------------------------
    def acquire(self, client: str, path: str, mode: LockMode) -> bool:
        """Try to acquire; returns True if granted now, False if queued.

        Re-acquiring a mode already held is idempotent (returns True).
        Upgrades (shared -> exclusive by the sole holder) are granted
        immediately; otherwise the request queues FIFO.
        """
        state = self._table.setdefault(path, PathLocks())
        held = state.holders.get(client)
        if held is mode:
            return True
        if held is LockMode.EXCLUSIVE and mode is LockMode.SHARED:
            return True  # exclusive subsumes shared
        if self._grantable(state, client, mode):
            state.holders[client] = mode
            self.grants += 1
            return True
        state.waiters.append((client, mode))
        self.waits += 1
        return False

    def _grantable(self, state: PathLocks, client: str, mode: LockMode) -> bool:
        others = {c: m for c, m in state.holders.items() if c != client}
        if mode is LockMode.EXCLUSIVE:
            return not others and not state.waiters
        # Shared: compatible with shared holders, but FIFO fairness makes a
        # queued exclusive waiter block later shared requests.
        if any(m is LockMode.EXCLUSIVE for m in others.values()):
            return False
        exclusive_waiting = any(m is LockMode.EXCLUSIVE for _, m in state.waiters)
        return not exclusive_waiting

    # ------------------------------------------------------------------
    def release(self, client: str, path: str) -> list[tuple[str, LockMode]]:
        """Release ``client``'s lock on ``path``; returns promoted waiters."""
        state = self._table.get(path)
        if state is None or client not in state.holders:
            raise LockError(f"{client!r} holds no lock on {path!r}")
        del state.holders[client]
        promoted = self._promote(state)
        if not state.holders and not state.waiters:
            del self._table[path]
        return promoted

    def _promote(self, state: PathLocks) -> list[tuple[str, LockMode]]:
        promoted: list[tuple[str, LockMode]] = []
        while state.waiters:
            client, mode = state.waiters[0]
            others = {c: m for c, m in state.holders.items() if c != client}
            if mode is LockMode.EXCLUSIVE and others:
                break
            if mode is LockMode.SHARED and any(
                m is LockMode.EXCLUSIVE for m in others.values()
            ):
                break
            state.waiters.popleft()
            state.holders[client] = mode
            self.grants += 1
            promoted.append((client, mode))
            if mode is LockMode.EXCLUSIVE:
                break
        return promoted

    # ------------------------------------------------------------------
    def release_client(self, client: str) -> list[tuple[str, str, LockMode]]:
        """Failed-client recovery: drop every lock and queued request of
        ``client``; returns the (path, client, mode) grants it unblocked."""
        all_promoted: list[tuple[str, str, LockMode]] = []
        for path in list(self._table):
            state = self._table[path]
            state.waiters = deque(
                (c, m) for c, m in state.waiters if c != client
            )
            if client in state.holders:
                del state.holders[client]
            for c, m in self._promote(state):
                all_promoted.append((path, c, m))
            if not state.holders and not state.waiters:
                del self._table[path]
        return all_promoted

    # ------------------------------------------------------------------
    def detach(self, prefix: str) -> dict[str, PathLocks]:
        """Remove and return the holders and waiters of every key that
        starts with ``prefix`` (one file set's ``"<fileset>:"`` keys)."""
        detached = {
            key: state for key, state in self._table.items()
            if key.startswith(prefix)
        }
        for key in detached:
            del self._table[key]
        return detached

    def attach(self, table: Mapping[str, PathLocks]) -> None:
        """Install lock state that :meth:`detach` took from another table."""
        for key, state in table.items():
            if key in self._table:
                raise LockError(f"lock state for {key!r} already present")
            self._table[key] = state

    # ------------------------------------------------------------------
    def holders(self, path: str) -> dict[str, LockMode]:
        """Current holders of ``path`` (client -> mode)."""
        state = self._table.get(path)
        return dict(state.holders) if state else {}

    def waiting(self, path: str) -> list[tuple[str, LockMode]]:
        """Queued requests on ``path``, FIFO order."""
        state = self._table.get(path)
        return list(state.waiters) if state else []

    def locked_paths(self) -> list[str]:
        """Paths with holders or waiters, sorted."""
        return sorted(self._table)

    def __len__(self) -> int:
        return len(self._table)
