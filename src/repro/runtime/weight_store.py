"""Shared-memory weight store: place each weight buffer exactly once.

A :class:`WeightStore` packs a model's weight feeds into a single
``multiprocessing.shared_memory`` segment. Every serving replica (process)
maps the segment and binds zero-copy numpy views: the arrays are already
C-contiguous float64 (the execution dtype), so the plan binder passes them
through untouched and K replicas pay for one copy of the weights instead
of K. This extends the zero-stride broadcast aliasing that
:class:`~repro.runtime.executor.BatchedExecutionPlan` uses across batch
lanes to views shared across processes — safe for the same reason: every
reader sees the same immutable bytes.

Lifecycle: the creating process owns the segment and must :meth:`unlink`
it when serving stops; attaching processes :meth:`close` their mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.graph.te_program import TEProgram
from repro.runtime.executor import EXEC_DTYPE

# Slot alignment inside the segment (cache-line friendly; numpy is happy
# with any alignment, this just keeps slot starts tidy).
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class WeightSlot:
    """One array's placement inside the segment."""

    name: str
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


@dataclass
class WeightManifest:
    """Everything a replica needs to map the store (picklable, small)."""

    shm_name: str
    total_bytes: int
    slots: List[WeightSlot] = field(default_factory=list)


class WeightStore:
    """One weight-set's segment, mapped by its owner or by a replica."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: WeightManifest,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.manifest = manifest
        self.owner = owner
        self.unlinked = False
        self._closed = False

    # ---- construction ----------------------------------------------------

    @classmethod
    def create(
        cls,
        program: TEProgram,
        weights_by_name: Mapping[str, np.ndarray],
    ) -> "WeightStore":
        """Pack the weights into a new segment, in program input order (for
        determinism).

        The caller owns the segment and must :meth:`unlink` it once serving
        stops.
        """
        slots: List[WeightSlot] = []
        offset = 0
        for t in program.inputs:
            if t.name in weights_by_name:
                slot = WeightSlot(t.name, offset, tuple(t.shape))
                slots.append(slot)
                offset = _aligned(offset + slot.nbytes)
        missing = set(weights_by_name) - {s.name for s in slots}
        if missing:
            raise ExecutionError(
                f"weights {sorted(missing)} name no program input"
            )
        total = max(offset, 1)
        shm = shared_memory.SharedMemory(create=True, size=total)
        store = cls(shm, WeightManifest(shm.name, total, slots), owner=True)
        try:
            for slot in slots:
                value = np.asarray(weights_by_name[slot.name])
                if value.shape != slot.shape:
                    raise ExecutionError(
                        f"weight {slot.name} has shape {value.shape}, "
                        f"expected {slot.shape}"
                    )
                store._view(slot)[...] = value
        except BaseException:
            store.unlink()
            raise
        return store

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

    def _view(self, slot: WeightSlot) -> np.ndarray:
        arr = np.frombuffer(
            self._shm.buf,
            dtype=EXEC_DTYPE,
            count=slot.num_elements,
            offset=slot.offset,
        )
        return arr.reshape(slot.shape)

    def weights_by_name(self) -> Dict[str, np.ndarray]:
        """Zero-copy views of every weight (C-contiguous float64)."""
        return {s.name: self._view(s) for s in self.manifest.slots}

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
            f"<WeightStore {self.manifest.shm_name}: "
            f"{len(self.manifest.slots)} weights, "
            f"{self.total_bytes} bytes, "
            f"{'owner' if self.owner else 'attached'}>"
        )
