"""Shared-memory weight store: place each weight buffer exactly once.

A :class:`WeightStore` packs a model's weight feeds — plus the precomputed
hoist-boundary values of an optimized plan — into a single
``multiprocessing.shared_memory`` segment. Every serving replica (process)
maps the segment and binds zero-copy numpy views: the arrays are already
C-contiguous float64 (the execution dtype), so the plan binder passes them
through untouched and K replicas pay for one copy of the weights instead
of K. This extends the zero-stride broadcast aliasing that
:class:`~repro.runtime.executor.BatchedExecutionPlan` uses across batch
lanes to views shared across processes — safe for the same reason: every
reader sees the same immutable bytes.

The packed blob is also persisted to disk (``<cache_dir>/weights/<key>``,
keyed by a content address like the compile cache: program structure +
weight bytes + layout version), so a cold server restores both the raw
weights *and* the hoisted prologue values with one sequential read instead
of re-converting and re-running the hoisted subgraph.

Lifecycle: the creating process owns the segment and must :meth:`unlink`
it when serving stops; attaching processes :meth:`close` their mapping.
Attachers deregister from the multiprocessing resource tracker — otherwise
the first worker to exit would unlink the segment under everyone else
(bpo-38119).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.cache.compile_cache import default_cache_dir
from repro.cache.keys import _digest
from repro.errors import ExecutionError
from repro.graph.te_program import TEProgram
from repro.runtime.executor import EXEC_DTYPE, ExecutionPlan

# Bump to invalidate every persisted weight blob (layout or hoist-boundary
# serialisation changed).
WEIGHT_STORE_VERSION = 1

# Slot alignment inside the segment (cache-line friendly; numpy is happy
# with any alignment, this just keeps slot starts tidy).
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class WeightSlot:
    """One array's placement inside the segment."""

    name: str
    kind: str  # "weight" (raw placeholder feed) or "hoisted" (boundary value)
    offset: int
    shape: Tuple[int, ...]

    @property
    def num_elements(self) -> int:
        n = 1
        for extent in self.shape:
            n *= int(extent)
        return n

    @property
    def nbytes(self) -> int:
        return self.num_elements * np.dtype(EXEC_DTYPE).itemsize

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "offset": self.offset,
            "shape": list(self.shape),
        }

    @staticmethod
    def from_dict(doc: dict) -> "WeightSlot":
        return WeightSlot(
            name=doc["name"],
            kind=doc["kind"],
            offset=int(doc["offset"]),
            shape=tuple(int(s) for s in doc["shape"]),
        )


@dataclass
class WeightManifest:
    """Everything a replica needs to map the store (picklable, small)."""

    key: str
    shm_name: str
    total_bytes: int
    slots: List[WeightSlot] = field(default_factory=list)

    @property
    def weight_slots(self) -> List[WeightSlot]:
        return [s for s in self.slots if s.kind == "weight"]

    @property
    def hoisted_slots(self) -> List[WeightSlot]:
        return [s for s in self.slots if s.kind == "hoisted"]

    def to_dict(self) -> dict:
        return {
            "version": WEIGHT_STORE_VERSION,
            "key": self.key,
            "total_bytes": self.total_bytes,
            "slots": [s.to_dict() for s in self.slots],
        }

    @staticmethod
    def from_dict(doc: dict, shm_name: str) -> "WeightManifest":
        if doc.get("version") != WEIGHT_STORE_VERSION:
            raise ExecutionError(
                f"weight blob version {doc.get('version')} != "
                f"{WEIGHT_STORE_VERSION}"
            )
        return WeightManifest(
            key=doc["key"],
            shm_name=shm_name,
            total_bytes=int(doc["total_bytes"]),
            slots=[WeightSlot.from_dict(s) for s in doc["slots"]],
        )


def weight_store_key(
    program: TEProgram,
    weights_by_name: Mapping[str, np.ndarray],
    boundary: List[Tuple[str, Tuple[int, ...]]],
) -> str:
    """Content address of one packed weight-set.

    Program structure + per-weight content digest + the hoist-boundary
    layout: two servers share a blob iff the packed bytes would be
    byte-identical.
    """
    from repro.cache.keys import program_structural_hash

    weight_digests = []
    for name in sorted(weights_by_name):
        arr = np.ascontiguousarray(weights_by_name[name], dtype=EXEC_DTYPE)
        weight_digests.append([
            name,
            list(arr.shape),
            hashlib.sha256(arr.tobytes()).hexdigest(),
        ])
    return _digest({
        "tier": "weights",
        "version": WEIGHT_STORE_VERSION,
        "program": program_structural_hash(program),
        "weights": weight_digests,
        "boundary": [[name, list(shape)] for name, shape in boundary],
    })


class WeightStore:
    """One shared-memory segment of packed weights + hoisted values."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: WeightManifest,
        owner: bool,
        loaded_from_disk: bool = False,
    ) -> None:
        self._shm = shm
        self.manifest = manifest
        self.owner = owner
        self.loaded_from_disk = loaded_from_disk
        self.unlinked = False
        self._closed = False

    # ---- construction ----------------------------------------------------

    @classmethod
    def create(
        cls,
        program: TEProgram,
        plan: ExecutionPlan,
        weights_by_name: Mapping[str, np.ndarray],
        cache_dir: Optional[str] = None,
    ) -> "WeightStore":
        """Pack weights (and the plan's hoist-boundary values) into shm.

        ``plan`` supplies the hoist boundary: with a warm disk blob the
        hoisted subgraph is *not* executed — the persisted values are
        restored byte-for-byte. Otherwise the prologue runs once here and
        the result is persisted (when a cache directory is configured).
        """
        if cache_dir is None:
            cache_dir = default_cache_dir()
        boundary_layout = [
            (t.name, tuple(t.shape)) for t in plan.hoist_boundary
        ]
        key = weight_store_key(program, weights_by_name, boundary_layout)

        blob_path = manifest_path = None
        if cache_dir:
            blob_dir = os.path.join(cache_dir, "weights")
            blob_path = os.path.join(blob_dir, f"{key}.bin")
            manifest_path = os.path.join(blob_dir, f"{key}.json")

        if blob_path and os.path.exists(blob_path) and os.path.exists(
            manifest_path
        ):
            return cls._create_from_blob(blob_path, manifest_path, key)

        # Layout: raw weights first (program input order for determinism),
        # hoist-boundary slots after.
        slots: List[WeightSlot] = []
        offset = 0
        ordered = [
            t for t in program.inputs if t.name in weights_by_name
        ]
        missing = set(weights_by_name) - {t.name for t in ordered}
        if missing:
            raise ExecutionError(
                f"weights {sorted(missing)} name no program input"
            )
        for t in ordered:
            slot = WeightSlot(t.name, "weight", offset, tuple(t.shape))
            slots.append(slot)
            offset = _aligned(offset + slot.nbytes)
        for name, shape in boundary_layout:
            slot = WeightSlot(name, "hoisted", offset, shape)
            slots.append(slot)
            offset = _aligned(offset + slot.nbytes)
        total = max(offset, 1)

        shm = shared_memory.SharedMemory(create=True, size=total)
        manifest = WeightManifest(
            key=key, shm_name=shm.name, total_bytes=total, slots=slots
        )
        store = cls(shm, manifest, owner=True)
        try:
            # Copy the converted weights into their slots, then run the
            # hoisted prologue *on the shm views* so its cached identity
            # keys are the very arrays replicas will feed.
            for t in ordered:
                arr = plan._bind_one(t, weights_by_name[t.name])
                store._view(store._slot(t.name))[...] = arr
            if boundary_layout:
                shm_weights = {
                    t: store._view(store._slot(t.name)) for t in ordered
                }
                hoisted = plan.seed_hoist_values(shm_weights)
                for name, _ in boundary_layout:
                    store._view(store._slot(name, kind="hoisted"))[...] = (
                        hoisted[name]
                    )
            if blob_path:
                store._persist(blob_path, manifest_path)
        except BaseException:
            store.unlink()
            raise
        return store

    @classmethod
    def _create_from_blob(
        cls, blob_path: str, manifest_path: str, key: str
    ) -> "WeightStore":
        with open(manifest_path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        if doc.get("key") != key:
            raise ExecutionError(
                f"weight blob at {blob_path} has key {doc.get('key')!r}, "
                f"expected {key!r}"
            )
        total = int(doc["total_bytes"])
        shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        blob = np.memmap(blob_path, dtype=np.uint8, mode="r", shape=(total,))
        dst = np.frombuffer(shm.buf, dtype=np.uint8, count=total)
        dst[...] = blob
        del blob, dst
        manifest = WeightManifest.from_dict(doc, shm_name=shm.name)
        manifest.shm_name = shm.name
        return cls(shm, manifest, owner=True, loaded_from_disk=True)

    def _persist(self, blob_path: str, manifest_path: str) -> None:
        os.makedirs(os.path.dirname(blob_path), exist_ok=True)
        tmp = blob_path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(bytes(self._shm.buf[: self.manifest.total_bytes]))
        os.replace(tmp, blob_path)
        tmp = manifest_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(self.manifest.to_dict(), f, sort_keys=True)
        os.replace(tmp, manifest_path)

    @classmethod
    def attach(cls, manifest: WeightManifest) -> "WeightStore":
        """Map an existing segment in a replica process (zero-copy).

        Attachers are multiprocessing children of the owner, so they share
        its resource tracker: their register on attach is a set-idempotent
        no-op and the segment is unlinked exactly once, by the owner. (An
        attacher with its *own* tracker would need to unregister here to
        avoid unlinking the segment when it exits — bpo-38119.)
        """
        shm = shared_memory.SharedMemory(name=manifest.shm_name)
        return cls(shm, manifest, owner=False)

    # ---- views -----------------------------------------------------------

    def _slot(self, name: str, kind: str = "weight") -> WeightSlot:
        for slot in self.manifest.slots:
            if slot.name == name and slot.kind == kind:
                return slot
        raise ExecutionError(f"no {kind} slot named {name!r} in weight store")

    def _view(self, slot: WeightSlot) -> np.ndarray:
        arr = np.frombuffer(
            self._shm.buf,
            dtype=EXEC_DTYPE,
            count=slot.num_elements,
            offset=slot.offset,
        )
        return arr.reshape(slot.shape)

    def weights_by_name(self) -> Dict[str, np.ndarray]:
        """Zero-copy views of every raw weight (C-contiguous float64)."""
        return {
            s.name: self._view(s) for s in self.manifest.weight_slots
        }

    def hoisted_by_name(self) -> Dict[str, np.ndarray]:
        """Zero-copy views of every persisted hoist-boundary value."""
        return {
            s.name: self._view(s) for s in self.manifest.hoisted_slots
        }

    @property
    def total_bytes(self) -> int:
        return self.manifest.total_bytes

    # ---- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (views become invalid)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:
            # Live numpy views still reference the buffer; leak the mapping
            # rather than crash — the segment itself dies with unlink().
            # Detach the handle's internals so its __del__ does not retry
            # (and fail again) at interpreter shutdown.
            self._shm._buf = None
            self._shm._mmap = None

    def unlink(self) -> None:
        """Destroy the segment (owner only; call once serving stops)."""
        self.close()
        if self.owner and not self.unlinked:
            self.unlinked = True
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __repr__(self) -> str:
        return (
            f"<WeightStore {self.manifest.key[:12]}: "
            f"{len(self.manifest.weight_slots)} weights + "
            f"{len(self.manifest.hoisted_slots)} hoisted, "
            f"{self.total_bytes} bytes, "
            f"{'owner' if self.owner else 'attached'}>"
        )
