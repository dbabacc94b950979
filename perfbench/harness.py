"""Measurement plumbing shared by every workload.

Nothing here imports ``repro``: the harness has to run (probe, clocks,
environment record) before the program is imported, because ``setup_s``
is timed from just before ``import repro``.

* Reference probes: a fixed unit of work timed while the program is idle.
  Every gated wall-clock metric is scaled by ``PROBE_CONSTANT_S / probe``
  so a host that runs everything 1.5x slower for a while does not read as
  a 1.5x slower program.
* Segments: a run is cut into segments with a probe at each boundary; each
  sample is scaled by the two readings around it, interpolated in time,
  except for a leading part that a timer, not the host, decides.
* Percentiles, resident memory and the environment record.
"""

from __future__ import annotations

import gc
import io
import json
import math
import os
import platform
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

# What one probe reading is scaled to. The probe units below take about this
# long on a 2-core x86 container in its fast regime, so normalised values
# read close to raw ones there.
PROBE_CONSTANT_S = 1.0e-3

# Repetitions of the probe unit per reading; the reading is their median.
PROBE_REPEATS = 3

# Thread and BLAS settings that change how numpy runs.
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# ---- reference probes ---------------------------------------------------------


def _python_unit() -> int:
    """Interpreter-bound work shaped like the compiler's: thousands of small
    dicts holding a formatted name, a shape tuple and an argument list, as
    graph and TE documents do.

    Building objects tracks the compiler's speed across the host's phases
    better than a tight loop over a small table, which swings more than the
    compiler does (see README, "The probe").
    """
    nodes = []
    for i in range(2500):
        nodes.append({"name": f"t{i}", "shape": (i & 15, 8), "args": [i, i + 1]})
    return len(nodes)


_A = np.linspace(-1.0, 1.0, 8 * 32).reshape(8, 32)
_B = np.linspace(1.0, -1.0, 32 * 32).reshape(32, 32)
_OUT = np.empty((8, 32))


def _numpy_unit() -> float:
    """Dispatch-bound work shaped like plan replay: small numpy calls with
    ``out=`` buffers between dictionary lookups."""
    values = {0: _A, 1: _B, 2: _OUT}
    acc = 0.0
    for i in range(360):
        a = values[i % 1]
        np.dot(a, values[1], out=values[2])
        np.add(values[2], a, out=values[2])
        np.exp(values[2] * 1e-3, out=values[2])
        acc += float(values[2][i % 8, i % 32])
    return acc


PROBES: Dict[str, Callable[[], object]] = {
    "python": _python_unit,
    "numpy": _numpy_unit,
}


def probe(kind: str) -> float:
    """One probe reading in seconds: the median of ``PROBE_REPEATS`` timed
    units.

    The collector is paused while the probe runs: a collection would time
    the size of the program's heap, not the speed of the host.
    """
    unit = PROBES[kind]
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            unit()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    times.sort()
    return times[len(times) // 2]


def scale_for(probes: Sequence[float]) -> float:
    """Normalisation factor for samples bracketed by ``probes``."""
    return PROBE_CONSTANT_S / (sum(probes) / len(probes))


# ---- samples -----------------------------------------------------------------


@dataclass
class Segment:
    """Samples taken between two probe readings.

    ``start`` is when the first probe reading ended and ``end`` when the
    second began; ``stamps`` holds each sample's midpoint on the same clock.
    """

    probe_before: float
    start: float
    probe_after: float = 0.0
    end: float = 0.0
    latencies: List[float] = field(default_factory=list)
    stamps: List[float] = field(default_factory=list)
    busy_s: float = 0.0  # wall time the segment spent on ops
    traced: bool = False
    ops: int = 0  # attempted, failed ones included
    keys: List[str] = field(default_factory=list)  # closed loop: op keys
    # Leading seconds of each sample that no probe tracks (a timer), kept
    # as measured; math.inf keeps the whole sample raw.
    fixed: List[float] = field(default_factory=list)

    def add(self, latency: float, stamp: float, key: str = "",
            fixed: float = 0.0) -> None:
        self.latencies.append(latency)
        self.stamps.append(stamp)
        self.keys.append(key)
        self.fixed.append(fixed)

    def normalised(self) -> List[float]:
        """Samples scaled by the probe reading interpolated, in time,
        between the segment's two readings; a sample's fixed part is not
        scaled."""
        span = max(self.end - self.start, 1e-9)
        slope = (self.probe_after - self.probe_before) / span
        out = []
        for lat, t, fixed in zip(self.latencies, self.stamps, self.fixed):
            kept = min(lat, fixed)
            reading = self.probe_before + slope * (t - self.start)
            out.append(kept + (lat - kept) * PROBE_CONSTANT_S / reading)
        return out


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def latency_summary(
    segments: Sequence[Segment], normalise: bool = True,
    per_segment: bool = False,
) -> Dict[str, float]:
    """p50/p95 in ms, busy seconds and op count over every segment.

    With ``per_segment`` each percentile is taken within every segment and
    the median over segments is reported: a host stall that delays the
    requests of a few segments then moves the run's figure by little.
    """
    lat: List[float] = []
    by_segment: List[List[float]] = []
    busy = 0.0
    for seg in segments:
        if normalise:
            scaled = seg.normalised()
            # Busy time scales like the ops that filled it.
            busy += seg.busy_s * (
                sum(scaled) / sum(seg.latencies) if seg.latencies else 1.0)
        else:
            scaled = seg.latencies
            busy += seg.busy_s
        lat.extend(scaled)
        if scaled:
            by_segment.append(scaled)

    def pct(q: float) -> float:
        if per_segment:
            return float(np.median([percentile(v, q) for v in by_segment]))
        return percentile(lat, q)

    p95 = percentile(lat, 95)
    return {
        "p50_ms": pct(50) * 1e3,
        "p95_ms": pct(95) * 1e3,
        "busy_s": busy,
        "ops": float(len(lat)),
        "beyond_p95": float(sum(1 for x in lat if x > p95)),
    }


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---- memory ------------------------------------------------------------------


def peak_rss_bytes(pid: Optional[int] = None) -> int:
    """VmHWM (peak resident set) of a process; 0 where /proc is absent."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path, "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def reset_peak_rss() -> bool:
    """Restart this process's VmHWM from its current resident set.

    Returns False where the kernel offers no reset (no /proc, or
    ``clear_refs`` not writable); the peak then keeps what came before.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


# ---- environment record --------------------------------------------------------


def blas_build() -> Dict[str, object]:
    """The BLAS numpy was built against, from ``numpy.show_config()``."""
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        }
    except TypeError:  # numpy < 1.25 has no mode= and only prints
        buf = io.StringIO()
        with redirect_stdout(buf):
            np.show_config()
        return {"text": buf.getvalue()}


def environment(seed: int) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV_VARS},
        "platform": platform.platform(),
        "seed": seed,
    }


# ---- output ------------------------------------------------------------------


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit(result: Dict[str, object], diagnostics: Dict[str, object],
         out_path: Optional[str]) -> None:
    """Print diagnostics, then the result as the last stdout line."""
    record = {"result": result, "diagnostics": diagnostics}
    if out_path:
        os.makedirs(os.path.dirname(out_path), exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    sys.stdout.flush()
