"""Shared pieces of the benchmark: answer checks, quantiles, run records."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.kdtree.query import brute_force_knn

ROOT = Path(__file__).resolve().parent.parent

#: Latency limit on p99 for ``goodput_qps``: the fleet's own latency SLO
#: target (``repro.obs.slo.fleet_slos``), 50 ms.
LATENCY_LIMIT_MS = 50.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def jittered(points: np.ndarray, rows: np.ndarray, rng: np.random.Generator, scale: float = 1e-4) -> np.ndarray:
    """Self-queries: the given data rows displaced by a small normal jitter."""
    return points[rows] + rng.normal(scale=scale, size=(rows.shape[0], points.shape[1]))


def mismatched_rows(
    points: np.ndarray,
    ids: np.ndarray,
    queries: np.ndarray,
    k: int,
    got_d: np.ndarray,
    got_i: np.ndarray,
) -> int:
    """Rows whose answer differs from ``brute_force_knn`` over ``(points, ids)``.

    Distances must match bit for bit.  Ids must match as a set among the
    neighbours strictly closer than the k-th distance; an id at exactly the
    k-th distance may be any point at that exact distance, because the tie
    rule between engines is unpinned.
    """
    # Two rows at a time keep the reference's temporaries (rows x points)
    # below the measured program's own memory use.
    refs = [brute_force_knn(points, ids, queries[lo : lo + 2], k) for lo in range(0, queries.shape[0], 2)]
    ref_d = np.concatenate([d for d, _ in refs])
    ref_i = np.concatenate([i for _, i in refs])
    got_d = np.asarray(got_d, dtype=np.float64)
    got_i = np.asarray(got_i, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    bad = 0
    for row in range(queries.shape[0]):
        if got_d[row].tobytes() != ref_d[row].tobytes():
            bad += 1
            continue
        kth = ref_d[row, -1]
        strict = ref_d[row] < kth
        if set(got_i[row][strict].tolist()) != set(ref_i[row][strict].tolist()):
            bad += 1
            continue
        tied = got_i[row][~strict]
        if np.unique(tied).size != tied.size or np.isin(tied, got_i[row][strict]).any():
            bad += 1
            continue
        if np.isfinite(kth) and tied.size:
            pos = np.searchsorted(sorted_ids, tied)
            if (pos >= sorted_ids.size).any() or (sorted_ids[np.minimum(pos, sorted_ids.size - 1)] != tied).any():
                bad += 1
                continue
            # Same per-dimension accumulation as the kernels and brute force.
            cand = points[order[pos]]
            d2 = np.zeros(tied.size)
            for dim in range(points.shape[1]):
                diff = queries[row, dim] - cand[:, dim]
                d2 += diff * diff
            if (np.sqrt(d2) != kth).any():
                bad += 1
        elif tied.size and (tied != -1).any():
            bad += 1
    return bad


#: Canary time on the reference machine.  End-to-end times are reported
#: as if the canary had taken this long (see :class:`Speed`).
CANARY_REFERENCE_S = 0.003


class Speed:
    """Machine-speed canary, run between calls into the program.

    On a shared 2-vCPU box the same program work runs up to 1.8x faster or
    slower for seconds to minutes at a time, with no faults or context
    switches to show for it.  A fixed canary of pure-Python and small numpy
    work (the program's mix, none of its code) slows down with it.  End-to-
    end times are multiplied by ``factor(phase)`` = reference canary time /
    the median canary time of that phase of the run (set-up or measured
    phase), and rates divided by it; a set-up build, and an offline query
    call, by the canary samples next to it.  The canary never runs inside a
    timed call, and the program cannot change it.
    """

    def __init__(self, every_s: float = 0.25) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.random(65536)
        self._rows = rng.integers(0, 65536, 4096)
        self.every_s = every_s
        self.samples: Dict[str, List[float]] = {"setup": [], "measure": []}
        self._busy = 0.0

    def sample(self, phase: str) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(15000):
            total += i * i
        for j in range(150):
            block = self._values[self._rows[j : j + 64]]
            part = np.argpartition(block, 8)[:8]
            low = np.minimum(block[part], 0.5)
            np.concatenate([low, block[:8]]).sort()
        self.samples[phase].append(time.perf_counter() - start)

    def after(self, busy_s: float) -> None:
        """In the measured phase, sample once every ``every_s`` busy seconds."""
        self._busy += busy_s
        if self._busy >= self.every_s:
            self._busy = 0.0
            self.sample("measure")

    def factor(self, phase: str) -> float:
        samples = self.samples[phase] or [x for xs in self.samples.values() for x in xs]
        return CANARY_REFERENCE_S / float(np.median(samples))


class Timer:
    """Wall seconds spent inside timed calls: in total, and per call with
    the operations the call completed."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.laps: List[float] = []
        self.ops: List[int] = []

    def __call__(self, ops: int, fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        done = 0
        try:
            out = fn(*args, **kwargs)
            done = ops
            return out
        finally:
            lap = time.perf_counter() - start
            self.seconds += lap
            self.laps.append(lap)
            self.ops.append(done)

    def rate(self) -> float:
        """Operations per busy second (see :func:`segment_rate`)."""
        return segment_rate(self.laps, self.ops)


def segment_rate(laps: Sequence[float], counts: Sequence[int], segment_s: float = 1.0) -> float:
    """Median over consecutive ~``segment_s`` stretches of busy time of
    (operations / seconds): robust to the seconds-long fast and slow phases
    a shared machine goes through."""
    rates, busy, ops = [], 0.0, 0
    for lap, count in zip(laps, counts):
        busy += lap
        ops += count
        if busy >= segment_s:
            rates.append(ops / busy)
            busy, ops = 0.0, 0
    if busy > 0 and (not rates or busy >= segment_s / 2):
        rates.append(ops / busy)
    return float(np.median(rates))


def source_digest() -> str:
    """SHA-256 over ``src/**/*.py`` (the measured program), in path order."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> Dict[str, object]:
    """What the measured program ran on: versions, CPUs, relevant env."""
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "env": {
            name: os.environ.get(name)
            for name in sorted(os.environ)
            if name.startswith("REPRO_") or name.endswith("_NUM_THREADS")
        },
    }
