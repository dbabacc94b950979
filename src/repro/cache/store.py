"""Content-addressed JSON store: the persistence layer of the compile cache.

One store is a directory of small JSON documents, one per key, fronted by an
in-memory LRU map. Every document is wrapped in a versioned envelope; a
version bump invalidates every stale entry the next time it is read (the
file is removed so the directory self-cleans). Corrupted or truncated files
are treated as misses, counted, and deleted — a damaged cache can never
break a compile, only slow it down.

The store is deliberately dumb: keys are opaque hex digests (see
:mod:`repro.cache.keys`) and payloads are plain JSON-able dicts. The
schedule and module tiers layer their own (de)serialisation on top.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


@dataclass
class CacheStats:
    """Hit/miss counters for one cache tier."""

    hits: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0           # LRU front evictions (entries stay on disk)
    load_errors: int = 0         # corrupted / stale files recovered from
    store_errors: int = 0        # failed disk writes (entry stays in memory)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "load_errors": self.load_errors,
            "store_errors": self.store_errors,
        }


class JsonStore:
    """A versioned key -> JSON-dict store with an in-memory LRU front.

    ``directory=None`` keeps the store purely in memory (useful for tests
    and for processes that want memoisation without persistence).
    """

    def __init__(
        self,
        directory: Optional[str],
        *,
        format_name: str,
        version: int,
        capacity: int = 1024,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.directory = directory
        self.format_name = format_name
        self.version = version
        self.capacity = capacity
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    # ---- public API ---------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``key``, or ``None`` on a miss."""
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            self.stats.memory_hits += 1
            return cached
        payload = self._read_disk(key)
        if payload is not None:
            self._remember(key, payload)
            self.stats.hits += 1
            self.stats.disk_hits += 1
            return payload
        self.stats.misses += 1
        return None

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store ``payload`` under ``key`` in memory and (if set) on disk."""
        self._remember(key, payload)
        if self.directory is None:
            self.stats.stores += 1
            return
        path = self._path(key)
        envelope = {
            "format": self.format_name,
            "version": self.version,
            "key": key,
            "payload": payload,
        }
        # json.dumps runs the C encoder; json.dump always runs the
        # pure-Python one, for the same bytes.
        text = json.dumps(envelope)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)  # atomic: readers never see partial writes
        except OSError:
            # An unwritable cache (read-only mount, path collision, full
            # disk) must never break a compile: keep the in-memory entry.
            self.stats.store_errors += 1
            return
        self.stats.stores += 1

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        return self.directory is not None and os.path.exists(self._path(key))

    def __len__(self) -> int:
        """Entries in the LRU front (the disk may hold more)."""
        return len(self._memory)

    # ---- internals ----------------------------------------------------------

    def _path(self, key: str) -> str:
        assert self.directory is not None
        # Two-level fan-out keeps directories small for big caches.
        return os.path.join(self.directory, key[:2], f"{key}.json")

    def _remember(self, key: str, payload: Dict[str, Any]) -> None:
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def _read_disk(self, key: str) -> Optional[Dict[str, Any]]:
        if self.directory is None:
            return None
        path = self._path(key)
        try:
            with open(path) as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            self._recover(path)
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("format") != self.format_name
            or envelope.get("version") != self.version
            or envelope.get("key") != key
            or not isinstance(envelope.get("payload"), dict)
        ):
            # Stale format version (or foreign file): invalidate in place.
            self._recover(path)
            return None
        return envelope["payload"]

    def _recover(self, path: str) -> None:
        """Drop an unreadable/stale entry so the next lookup is a clean miss."""
        self.stats.load_errors += 1
        try:
            os.remove(path)
        except OSError:
            pass
