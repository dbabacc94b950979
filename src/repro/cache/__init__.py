"""Persistent compile caching (schedules + whole modules).

Repeat compilation is near-free: optimised TE schedules and whole compiled
modules are content-addressed by structural hashes of the work (TE / model
structure + device spec + compiler options) and persisted as JSON, fronted
by an in-memory LRU. See ``DESIGN.md`` ("Compile cache").
"""

from repro.cache.certificate_cache import (
    CERTIFICATE_STORE_FORMAT,
    CERTIFICATE_STORE_VERSION,
    CertificateCache,
)
from repro.cache.compile_cache import (
    CACHE_DIR_ENV,
    CompileCache,
    default_cache_dir,
    resolve_compile_cache,
)
from repro.cache.keys import (
    MODULE_FORMAT_VERSION,
    SCHEDULE_FORMAT_VERSION,
    device_fingerprint,
    graph_structural_hash,
    module_cache_key,
    options_fingerprint,
    program_structural_hash,
    schedule_cache_key,
    schedule_context,
    structure_key,
)
from repro.cache.module_cache import (
    ModuleCache,
    kernel_from_record,
    kernel_to_record,
    module_from_record,
    module_to_record,
)
from repro.cache.schedule_cache import (
    ScheduleCache,
    schedule_from_record,
    schedule_to_record,
)
from repro.cache.store import CacheStats, JsonStore

__all__ = [
    "CACHE_DIR_ENV",
    "CERTIFICATE_STORE_FORMAT",
    "CERTIFICATE_STORE_VERSION",
    "CacheStats",
    "CertificateCache",
    "CompileCache",
    "JsonStore",
    "MODULE_FORMAT_VERSION",
    "ModuleCache",
    "SCHEDULE_FORMAT_VERSION",
    "ScheduleCache",
    "default_cache_dir",
    "device_fingerprint",
    "graph_structural_hash",
    "kernel_from_record",
    "kernel_to_record",
    "module_cache_key",
    "module_from_record",
    "module_to_record",
    "options_fingerprint",
    "program_structural_hash",
    "resolve_compile_cache",
    "schedule_cache_key",
    "schedule_context",
    "schedule_from_record",
    "schedule_to_record",
    "structure_key",
]
