"""The certificate tier of the compile cache.

Translation validation (``repro.verify.equiv``) discharges one proof
obligation per transform application. The obligations depend only on what
the module cache key already fingerprints — model structure, device and
compiler options — so certificates are content-addressed under the *same*
key as the compiled module and a warm recompile replays its certificates
from JSON instead of re-proving them (the acceptance bar: certified warm
compiles must stay within 10% of uncertified ones).

A corrupt or version-skewed record is treated as a miss: the compiler falls
through to a full certify-and-store compile, never to an uncertified one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.cache.store import CacheStats, JsonStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verify.equiv import EquivalenceCertificate

CERTIFICATE_STORE_FORMAT = "repro-certificate-cache"
# 2: plan certificate lists no longer hold a "hoist" certificate.
CERTIFICATE_STORE_VERSION = 2


class CertificateCache:
    """Content-addressed store of per-compile certificate lists."""

    def __init__(
        self, directory: Optional[str], capacity: int = 256
    ) -> None:
        self.store = JsonStore(
            directory,
            format_name=CERTIFICATE_STORE_FORMAT,
            version=CERTIFICATE_STORE_VERSION,
            capacity=capacity,
        )

    @property
    def stats(self) -> CacheStats:
        return self.store.stats

    def load(self, key: str) -> Optional[List["EquivalenceCertificate"]]:
        """The certificates stored under ``key``, or ``None`` on a miss
        (including a corrupt record — the caller re-certifies)."""
        from repro.verify.equiv import EquivalenceCertificate

        payload = self.store.get(key)
        if payload is None:
            return None
        try:
            return [
                EquivalenceCertificate.from_dict(record)
                for record in payload["certificates"]
            ]
        except Exception:
            return None

    def save(
        self, key: str, certificates: Sequence["EquivalenceCertificate"]
    ) -> None:
        self.store.put(
            key,
            {
                "certificates": [
                    certificate.as_dict() for certificate in certificates
                ]
            },
        )

    def __repr__(self) -> str:
        where = self.store.directory or "memory"
        return f"<CertificateCache {where}>"
