"""The benchmark's three workloads.

Each workload function takes a :class:`Run` and fills in its end-to-end
metrics, per-layer metrics and report.  The measured program only ever
receives generated inputs; every input comes from ``run.seed``.

* ``offline_panda`` — the paper's batch job: ``PandaKNN`` fit, then
  4096-row self-query batches.  Loads ``core``, ``cluster``, the ``kdtree``
  build and the large-batch kernel; bypasses every serving queue.
* ``fleet_poisson`` — online serving: open-loop Poisson arrivals into a
  4-shard, 2-replica ``KNNFleet``.  Loads ``fleet``, ``router``,
  ``replica``/``dispatch``, ``obs`` and the batch-1 kernel; bypasses
  ``core``/``cluster``.
* ``service_churn`` — reads beside writes on one ``KNNService`` with its
  result cache on and background rebuilds.  Loads the ``service`` layer:
  cache, invalidation, delta fusion, rebuild/swap.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import time
from contextlib import nullcontext
from typing import Callable, Dict, List

import numpy as np

from common import (
    CANARY_REFERENCE_S,
    LATENCY_LIMIT_MS,
    Speed,
    Timer,
    jittered,
    mismatched_rows,
    peak_rss_mb,
    quantile,
)
from spans import SpanRecorder

K = 8
#: Index builds per run; ``setup_s`` is their median.
SETUP_REPS = 7
#: Requests per second offered at the fleet's nominal operating point,
#: about a third of what a 4-shard fleet sustains on a 2-CPU box.
NOMINAL_RATE = 100.0
#: Busy time in the program per slice of the nominal rung and of each
#: further rung, as shares of ``--seconds``.
NOMINAL_SLICE = 0.08
RUNG_SLICE = 0.05
#: Request queries are drawn from this many jittered data points.
POOL = 20_000
#: Answers checked against brute force per slice.
CHECKS_PER_SLICE = 12

# offline_panda
OFFLINE_POINTS = 200_000
OFFLINE_RANKS = 4
#: Queries in one offline job, for the job-throughput ``goodput_qps``.
JOB_QUERIES = 65_536
OFFLINE_CHECK_ROWS = 4

# fleet_poisson
FLEET_POINTS = 100_000
FLEET_SHARDS = 4
FLEET_REPLICAS = 2
WRITE_BATCH = 64
#: Busy time in the fleet's insert/delete calls after every round, as a
#: share of ``--seconds``.
WRITE_SLICE = 0.025

# service_churn
SERVICE_POINTS = 100_000
#: A quarter of the fleet's rate: a miss costs about 3x a fleet request
#: here, because the tombstone filter over-fetches k + tombstones
#: neighbours (up to 256 tombstones before a rebuild).  The churn workload
#: runs at this one rate: a rate ladder over it swung goodput 2x between
#: runs (a miss near 256 tombstones takes 20-40 ms, so queues form in
#: bursts), so all of its busy time goes to latency samples instead.
CHURN_RATE = 25.0
#: Busy time per churn slice, as a share of ``--seconds``.
CHURN_SLICE = 0.08
#: Share of requests aimed at 32 hot pool rows; low enough that well under
#: half of all requests hit the result cache.
HOT_FRACTION = 0.3
#: One insert batch and one delete batch after every WRITE_EVERY requests.
WRITE_EVERY = 25
CHURN_BATCH = 32
#: Check answers against the live set at every CHECK_EVERY-th write event.
CHECK_EVERY = 16
PROBE_EVENTS = 10


class Run:
    """One benchmark run: inputs seed, time budget, results and failures."""

    def __init__(self, seed: int, seconds: float, traced: bool) -> None:
        self.seed = seed
        self.seconds = float(seconds)
        self.recorder = SpanRecorder() if traced else None
        self.speed = Speed()
        # Independent input streams, so that how many requests fit in the
        # time budget never shifts the inputs drawn for another purpose.
        self.rng = np.random.default_rng([seed, 0])
        self.check_rng = np.random.default_rng([seed, 1])
        self.write_rng = np.random.default_rng([seed, 2])
        self.probe_rng = np.random.default_rng([seed, 3])
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors: List[str] = []
        self.e2e: Dict[str, float] = {}
        self.layer: Dict[str, float] = {}
        self.report: Dict[str, object] = {}
        self.setup_ref_s = math.nan

    @property
    def traced(self) -> bool:
        return self.recorder is not None

    def tracing(self):
        """Context installing the span wrappers in a traced run."""
        return self.recorder.installed() if self.traced else nullcontext()

    def mark(self) -> int:
        return self.recorder.mark() if self.traced else 0

    def tag(self, value: str) -> None:
        """Name the operation the next program calls serve (span ``tag``)."""
        if self.traced:
            self.recorder.tag = value

    def call(self, timer: Timer, fn: Callable, *args, ops: int = 1, **kwargs):
        """A timed call into the program; a raise counts ``ops`` failures.

        ``last_ok`` tells whether the call returned."""
        self.attempted += ops
        self.last_ok = False
        try:
            out = timer(ops, fn, *args, **kwargs)
        except Exception as exc:  # the benchmark must finish and report it
            self.failed += ops
            self.errors.append(f"{getattr(fn, '__qualname__', fn)}: {exc!r}")
            return None
        finally:
            self.speed.after(timer.laps[-1])
        self.last_ok = True
        return out

    def set_e2e(self, scaled: Dict[str, float] | None = None, **metrics) -> None:
        """End-to-end metrics at the reference machine speed (see
        :class:`~common.Speed`): ``setup_s`` from :func:`timed_setups`, the
        other times and rates scaled by the measured phase's canary, unless
        ``scaled`` gives the value at reference speed already.  A callable
        value is derived from the others after scaling; the raw values go
        to the report."""
        setup, measure = self.speed.factor("setup"), self.speed.factor("measure")
        raw = {name: value for name, value in metrics.items() if not callable(value)}
        for name, value in raw.items():
            self.e2e[name] = value / measure if name.endswith(("qps", "_per_s")) else value * measure
        self.e2e["setup_s"] = self.setup_ref_s
        self.e2e.update(scaled or {})
        for name, derive in metrics.items():
            if callable(derive):
                self.e2e[name] = derive(self.e2e)
                raw[name] = derive(raw)
        self.report["end_to_end_raw"] = raw
        self.report["speed_factor"] = {"setup": setup, "measure": measure}

    def check(self, label: str, bad: int, checked: int) -> None:
        """Record a correctness check of ``checked`` answers, ``bad`` wrong."""
        self.mismatches += bad
        self.failed += bad
        checks = self.report.setdefault("checks", {})
        row = checks.setdefault(label, {"checked": 0, "mismatched": 0})
        row["checked"] += checked
        row["mismatched"] += bad

    def repeat(self, label: str, first: Dict, second: Dict) -> None:
        """Exact work counters must repeat for the same inputs."""
        self.report.setdefault("counters_repeat", {})[label] = first == second
        if first != second:
            self.errors.append(f"{label} counters differ between repeats: {first} != {second}")


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def timed_setups(run: Run, build: Callable[[], object], close: Callable[[object], None]):
    """Build SETUP_REPS times; returns (last built object, seconds, span marks).

    Sets ``run.setup_ref_s``, the median build at reference speed: each
    build scaled by the mean of the canary samples just before and after
    it, because the machine changes speed within the set-up phase."""
    seconds, scaled, marks, built = [], [], [], None
    canary = run.speed.samples["setup"]
    for rep in range(SETUP_REPS):
        if built is not None:
            close(built)
            # Fleets and services hold reference cycles; without a collection
            # every discarded build would stay resident into the measurement.
            gc.collect()
        run.tag(f"setup/{rep}")
        run.speed.sample("setup")
        mark = run.mark()
        start = time.perf_counter()
        built = build()
        seconds.append(time.perf_counter() - start)
        marks.append((mark, run.mark()))
        run.speed.sample("setup")
        scaled.append(seconds[-1] * CANARY_REFERENCE_S / ((canary[-2] + canary[-1]) / 2))
    run.report["setup_s_each"] = seconds
    run.setup_ref_s = float(np.median(scaled))
    return built, seconds, marks


def median_span_total(run: Run, marks, name: str) -> float:
    """Median over setups of the summed duration of spans called ``name``."""
    if not run.traced:
        return 0.0
    per_setup = [run.recorder.self_times(lo, hi).get(name, {}).get("total", 0.0) for lo, hi in marks]
    return float(np.median(per_setup))


def kernel_delta(run: Run, before: Dict[str, int]) -> Dict[str, int]:
    return {key: run.recorder.kernel[key] - before.get(key, 0) for key in run.recorder.kernel}


def kernel_per_query(counts: Dict[str, int]) -> Dict[str, float]:
    rows = max(counts.get("rows", 0), 1)
    return {
        "kdtree.nodes_per_query": counts.get("nodes", 0) / rows,
        "kdtree.dists_per_query": counts.get("dists", 0) / rows,
        "kdtree.leaves_per_query": counts.get("leaves", 0) / rows,
        "kdtree.rows_per_call": counts.get("rows", 0) / max(counts.get("calls", 0), 1),
    }


def counting_probe(fn: Callable[[SpanRecorder], Dict]) -> Dict:
    """Run ``fn`` with a private recorder installed; returns its counters."""
    recorder = SpanRecorder()
    with recorder.installed():
        out = fn(recorder)
    return out


def overhead_probe(run: Run, unit: Callable[[], None], reps: int = 4) -> None:
    """Tracing overhead: the same unit of work untraced and traced, alternating."""
    plain, traced = [], []
    probe = SpanRecorder()
    for rep in range(reps):
        for with_spans in ((False, True) if rep % 2 == 0 else (True, False)):
            start = time.perf_counter()
            with probe.installed() if with_spans else nullcontext():
                unit()
            (traced if with_spans else plain).append(time.perf_counter() - start)
    base = float(np.median(plain))
    run.layer["bench.trace_overhead_pct"] = (float(np.median(traced)) - base) / base * 100.0
    run.report["trace_overhead"] = {"untraced_s": plain, "traced_s": traced}


def reconcile(run: Run, lo: int, hi: int, busy_s: float, tolerance: float = 0.05) -> None:
    """Per-layer self times along the (serial) blocking path must sum to the
    busy time the benchmark timed around its calls into the program."""
    layers = run.recorder.layer_self(lo, hi)
    total = sum(layers.values())
    gap = (busy_s - total) / busy_s if busy_s > 0 else 0.0
    run.layer["bench.reconcile_gap_pct"] = gap * 100.0
    run.report["layer_self_s"] = layers
    run.report["reconcile"] = {"busy_s": busy_s, "layer_self_sum_s": total, "tolerance": tolerance}
    if abs(gap) > tolerance:
        run.errors.append(f"layer self times {total:.4f}s do not reconcile with busy {busy_s:.4f}s")


class Window:
    """Span statistics of the measured phase of a traced run."""

    def __init__(self, run: Run, lo: int, hi: int, kernel0: Dict[str, int], marks) -> None:
        self.rows = run.recorder.self_times(lo, hi)
        self.kernel = kernel_delta(run, kernel0)
        run.layer.update({
            "kdtree.build_s": median_span_total(run, marks, "build_kdtree"),
            "kdtree.query_us_per_row": self.self_per(("batch_knn", "knn_search"), self.kernel.get("rows", 0)) * 1e6,
            "kdtree.rows_per_call": kernel_per_query(self.kernel)["kdtree.rows_per_call"],
        })

    def self_per(self, names, per: float) -> float:
        """Summed self seconds of the named spans, divided by ``per``."""
        return sum(self.rows.get(name, {}).get("self", 0.0) for name in names) / max(per, 1)

    def mean_total(self, name: str) -> float:
        """Mean duration of one call of the named span (children included)."""
        row = self.rows.get(name)
        return row["total"] / row["calls"] if row else 0.0


# ----------------------------------------------------------------------
# Online rungs
# ----------------------------------------------------------------------
def run_slice(
    run: Run,
    front,
    rate: float,
    arrivals: np.ndarray,
    queries: np.ndarray,
    start_at: float,
    budget_s: float,
    qtimer: Timer,
    before_submit: Callable[[int, float], None] | None = None,
    after_submit: Callable[[int, np.ndarray], None] | None = None,
    checker: Callable[[List[int], np.ndarray], None] | None = None,
) -> Dict[str, object]:
    """Offer Poisson arrivals at ``rate`` until ``budget_s`` busy seconds
    pass, then drain: one slice of a rung.

    ``front`` is a ``KNNFleet`` or ``KNNService`` (same submit/drain/records
    surface).  Latency is arrival to completion on the program's logical
    clock, from its per-request records.  A request without a record (shed,
    rejected, or its call raised) counts as missing every latency limit.
    ``checker`` receives the answered request ids and their queries once
    the slice has drained.
    """
    spent0 = qtimer.seconds
    rids: List[int | None] = []
    last_at = start_at
    pending_max = 0
    for i in range(arrivals.shape[0]):
        if qtimer.seconds - spent0 >= budget_s:
            break
        at = start_at + float(arrivals[i])
        if before_submit is not None:
            before_submit(i, at)
        run.tag(f"rate{rate:g}/request{i}")
        rid = run.call(qtimer, front.submit, queries[i], at=at)
        if rid is not None and after_submit is not None:
            after_submit(rid, queries[i])
        rids.append(rid)
        pending_max = max(pending_max, front.n_pending)
        last_at = at
    run.tag(f"rate{rate:g}/drain")
    run.call(qtimer, front.drain, at=last_at, ops=0)
    by_id = {rec.request_id: rec for rec in front.records}
    recs = [by_id.get(rid) for rid in rids]
    run.failed += sum(1 for rid, rec in zip(rids, recs) if rid is not None and rec is None)
    done = [rec for rec in recs if rec is not None]
    lat = [rec.latency if rec is not None else math.inf for rec in recs]
    half = len(lat) // 2
    completion = max((rec.completion for rec in done), default=last_at)
    if checker is not None:
        kept = [j for j, rid in enumerate(rids) if rid is not None]
        checker([rids[j] for j in kept], queries[kept])
    return {
        "latency": lat,
        "records": done,
        "half_p50_ratio": quantile(lat[half:], 0.5) / max(quantile(lat[:half], 0.5), 1e-6) if half else 1.0,
        "backlog_s": completion - last_at,
        "max_n_pending_seen": pending_max,
        "busy_s": qtimer.seconds - spent0,
        "end_at": max(completion, last_at),
    }


def summarize_rung(rate: float, slices: List[Dict[str, object]], limit_ms: float) -> Dict[str, object]:
    """Pool a rung's slices: latency quantiles over every request, median
    completion lag and p50 growth over the slices."""
    lat = [x for sl in slices for x in sl["latency"]]
    done = [rec for sl in slices for rec in sl["records"]]
    served = [rec for rec in done if not rec.cache_hit]
    row = {
        "rate": rate,
        "slices": len(slices),
        "requests": len(lat),
        "answered": len(done),
        "p50_ms": quantile(lat, 0.50) * 1e3,
        "p99_ms": quantile(lat, 0.99) * 1e3,
        "within_limit": sum(1 for x in lat if x * 1e3 <= limit_ms) / max(len(lat), 1),
        "half_p50_ratio": float(np.median([sl["half_p50_ratio"] for sl in slices])),
        "backlog_s": float(np.median([sl["backlog_s"] for sl in slices])),
        "batch_rows_mean": float(np.mean([r.batch_size for r in served])) if served else 0.0,
        "queue_wait_ms_p99": quantile([r.queue_delay for r in served], 0.99) * 1e3 if served else 0.0,
        "service_ms_p50": quantile([r.completion - r.dispatch for r in served], 0.5) * 1e3 if served else 0.0,
        "cache_hit_share": 1.0 - len(served) / max(len(done), 1),
        "max_n_pending_seen": max(sl["max_n_pending_seen"] for sl in slices),
        "busy_s": sum(sl["busy_s"] for sl in slices),
    }
    # The backlog grows when completions trail the last arrival by more
    # than the latency limit.  The half-to-half p50 ratio is reported but
    # not judged: batch-1 service time drifts by up to 2x within seconds on
    # a shared 2-CPU box, so the ratio swings without any queue growth.
    row["badness"] = max(row["p99_ms"] / limit_ms, row["backlog_s"] * 1e3 / limit_ms)
    row["passed"] = row["badness"] <= 1.0
    return row


def monotone(values: List[float], weights: List[float]) -> List[float]:
    """Weighted least-squares non-decreasing fit (pool adjacent violators)."""
    blocks: List[List[float]] = []  # [mean, weight, count]
    for value, weight in zip(values, weights):
        blocks.append([value, weight, 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            v2, w2, c2 = blocks.pop()
            v1, w1, c1 = blocks.pop()
            blocks.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2, c1 + c2])
    return [value for value, _, count in blocks for _ in range(count)]


def fitted_log_badness(rungs: List[Dict[str, object]]) -> List[float]:
    """Log-badness of each rung, fitted non-decreasing in the rate: more
    offered load can only make a rung worse, so dips are sampling noise."""
    return monotone(
        [math.log(max(min(r["badness"], 1e6), 1e-6)) for r in rungs],
        [r["requests"] for r in rungs],
    )


def goodput(rungs: List[Dict[str, object]]) -> float:
    """Highest offered rate meeting the latency limit without backlog growth.

    A rung's badness is the larger of p99 / limit and completion lag behind
    the last arrival / limit; it passes at badness <= 1.  On the fitted
    badness the crossing of 1 is interpolated in log-log between the last
    passing and the first failing rung, so the figure moves smoothly with
    the program's speed instead of jumping a rung at a time.
    """
    logs = fitted_log_badness(rungs)
    for index, (rung, log_bad) in enumerate(zip(rungs, logs)):
        if log_bad > 0.0:
            if index == 0:
                return rung["rate"] / math.exp(log_bad)
            lo_rate, lo_log = rungs[index - 1]["rate"], logs[index - 1]
            frac = -lo_log / (log_bad - lo_log)
            return lo_rate * (rung["rate"] / lo_rate) ** frac
    return rungs[-1]["rate"]


def ladder(nominal: float) -> tuple:
    """Rates behind ``goodput_qps``: the nominal rate, doubling every two rungs."""
    return tuple(nominal * 2 ** (i / 2) for i in range(11))


def run_ladder(
    run: Run,
    front,
    rates: tuple,
    limit_ms: float,
    nominal_slice: float,
    trace_fn: Callable,
    pool: np.ndarray,
    qtimer: Timer,
    after_round: Callable[[int], None] | None = None,
    **slice_kwargs,
):
    """Rounds over the ``rates`` ladder until ``run.seconds`` busy seconds pass.

    The first round walks up the ladder from the nominal rate to the first
    failing slice.  Every later round offers one slice of the nominal rung
    and of the two rungs that bracket the goodput crossing in the data
    pooled so far (or of the top rung and the next one up, while none
    fails), lowest rate first: the samples go where the crossing is
    decided, and every rung sees the same fast and slow phases of a shared
    machine.  Slices start from an idle program, one logical second after
    the previous one completed.
    """
    slices: List[List[Dict[str, object]]] = [[] for _ in rates]
    plan = range(len(rates))
    start_at = front.now + 1.0
    rounds = 0
    while qtimer.seconds < run.seconds:
        for index in plan:
            budget = (nominal_slice if index == 0 else RUNG_SLICE) * run.seconds
            # Enough arrivals for a program 20x faster than today's.
            n_max = int(budget * 20 * max(rates[index], 1000.0)) + 1
            arrivals, queries = trace_fn(n_max, rates[index], pool, seed=[run.seed, 5, rounds, index])
            sl = run_slice(run, front, rates[index], arrivals, queries, start_at, budget, qtimer, **slice_kwargs)
            slices[index].append(sl)
            start_at = sl["end_at"] + 1.0
            if rounds == 0 and index > 0 and summarize_rung(rates[index], [sl], limit_ms)["badness"] > 1.0:
                break
        if after_round is not None:
            after_round(rounds)
            start_at = max(start_at, front.now + 1.0)
        rounds += 1
        measured = [i for i, sls in enumerate(slices) if sls]
        logs = fitted_log_badness([summarize_rung(rates[i], slices[i], limit_ms) for i in measured])
        failing = next((i for i, log_bad in zip(measured, logs) if log_bad > 0.0), None)
        if failing is None:
            failing = min(measured[-1] + 1, len(rates) - 1)
        plan = sorted({0, max(failing - 1, 0), failing})
    rungs = [summarize_rung(rate, sls, limit_ms) for rate, sls in zip(rates, slices) if sls]
    run.report["rungs"] = rungs
    run.report["ladder_rounds"] = rounds
    return rungs


def sample_check(run: Run, label: str, front, rids, queries, points, ids) -> None:
    """Check a seeded sample of request answers against brute force."""
    if not rids:
        return
    pick = run.check_rng.choice(len(rids), size=min(CHECKS_PER_SLICE, len(rids)), replace=False)
    got = [front.result(rids[j]) for j in pick]
    bad = mismatched_rows(
        points, ids, queries[pick], K,
        np.stack([d for d, _ in got]), np.stack([i for _, i in got]),
    )
    run.check(label, bad, len(pick))


def online_e2e(run: Run, rungs, qtimer: Timer, setup: List[float], goodput_qps, write_pts_per_s: float) -> None:
    nominal = rungs[0]
    run.set_e2e(
        setup_s=float(np.median(setup)),
        knn_qps=qtimer.rate(),
        p50_ms=nominal["p50_ms"],
        p99_ms=nominal["p99_ms"],
        goodput_qps=goodput_qps,
        write_pts_per_s=write_pts_per_s,
    )
    run.report["latency_samples"] = nominal["requests"]


# ----------------------------------------------------------------------
# offline_panda
# ----------------------------------------------------------------------
def offline_panda(run: Run) -> None:
    from repro.core.breakdown import CONSTRUCTION_PHASES
    from repro.core.panda import PandaKNN
    from repro.core.query_engine import QUERY_PHASES
    from repro.datasets.cosmology import cosmology_particles

    n = OFFLINE_POINTS
    points = cosmology_particles(n, seed=run.seed)
    ids = np.arange(n, dtype=np.int64)
    rng = run.rng

    def phase_bytes(index, phases):
        totals = [index.cluster.metrics.phase_total(p) for p in phases]
        return {
            "bytes": sum(t.bytes_sent for t in totals),
            "messages": sum(t.messages_sent for t in totals),
        }

    construction = []

    def build():
        index = PandaKNN(n_ranks=OFFLINE_RANKS).fit(points)
        construction.append(phase_bytes(index, CONSTRUCTION_PHASES))
        return index

    with run.tracing():
        index, setup, marks = timed_setups(run, build, lambda idx: idx.close())
    for other in construction[1:]:
        run.repeat("cluster.construction", construction[0], other)
    batch = index.config.query_batch_size
    first = jittered(points, rng.integers(0, n, batch), rng)

    if run.traced:
        overhead_probe(run, lambda: index.query(first, k=K))

    qtimer = Timer()
    call_s: List[float] = []
    # The canary sample taken right after each call.
    call_canary: List[float] = []
    kept = []
    lo = run.mark()
    kernel0 = dict(run.recorder.kernel) if run.traced else {}
    with run.tracing():
        queries = first
        while qtimer.seconds < run.seconds:
            run.tag(f"batch{len(call_s)}")
            canary = run.speed.samples["measure"]
            sampled = len(canary)
            report = run.call(qtimer, index.query, queries, k=K, ops=batch)
            if len(canary) == sampled:
                run.speed.sample("measure")
            if run.last_ok:
                call_s.append(qtimer.laps[-1])
                call_canary.append(canary[-1])
                pick = run.check_rng.choice(batch, OFFLINE_CHECK_ROWS, replace=False)
                kept.append((queries[pick], report.distances[pick], report.ids[pick]))
            queries = jittered(points, rng.integers(0, n, batch), rng)
    hi = run.mark()
    measure_rss(run)

    # Correctness: a seeded sample of rows of every batch.
    if kept:
        q = np.concatenate([c[0] for c in kept])
        bad = mismatched_rows(points, ids, q, K, np.concatenate([c[1] for c in kept]), np.concatenate([c[2] for c in kept]))
        run.check("offline.sampled_rows", bad, q.shape[0])

    # Exact work counters: the first batch twice.
    def probe():
        before = phase_bytes(index, QUERY_PHASES)
        report = index.query(first, k=K)
        after = phase_bytes(index, QUERY_PHASES)
        stats = dataclasses.replace(report.local_stats)
        stats.merge(report.remote_stats)
        return {
            "rows": report.n_queries,
            "nodes": stats.nodes_visited,
            "dists": stats.distance_computations,
            "leaves": stats.leaves_scanned,
            "remote_sent": int(np.count_nonzero(report.remote_fanout)),
            "remote_fanout": int(report.remote_fanout.sum()),
            "query_bytes": after["bytes"] - before["bytes"],
        }

    counts, again = probe(), probe()
    run.repeat("offline.query", counts, again)
    run.report["counters"] = {"construction": construction[0], "query_first_batch": counts}

    # The slowest calls here come from machine phases lasting seconds, which
    # slow the canary too, and a p99 over ~85 calls is nearly their maximum:
    # each call is scaled by the canary samples around it instead of by the
    # run's median.  The engine's query rate is rows over the median call.
    local = [
        lap * CANARY_REFERENCE_S / float(np.median(call_canary[max(i - 1, 0) : i + 2]))
        for i, lap in enumerate(call_s)
    ]
    run.set_e2e(
        setup_s=float(np.median(setup)),
        knn_qps=batch / quantile(call_s, 0.5),
        p50_ms=quantile(call_s, 0.5) * 1e3,
        p99_ms=quantile(call_s, 0.99) * 1e3,
        # A job = one index build + JOB_QUERIES queries; a fit is the
        # offline engine's only write path.
        goodput_qps=lambda m: JOB_QUERIES / (m["setup_s"] + JOB_QUERIES / m["knn_qps"]),
        write_pts_per_s=lambda m: n / m["setup_s"],
        scaled={
            "knn_qps": batch / quantile(local, 0.5),
            "p50_ms": quantile(local, 0.5) * 1e3,
            "p99_ms": quantile(local, 0.99) * 1e3,
        },
    )
    run.report["latency_samples"] = len(call_s)
    rows = counts["rows"]
    run.layer.update({
        "kdtree.nodes_per_query": counts["nodes"] / rows,
        "kdtree.dists_per_query": counts["dists"] / rows,
        "kdtree.leaves_per_query": counts["leaves"] / rows,
        "cluster.construction_bytes": construction[0]["bytes"],
        "cluster.construction_messages": construction[0]["messages"],
        "cluster.query_bytes": counts["query_bytes"] / rows,
        "cluster.load_imbalance": index.load_imbalance(),
        "core.remote_fraction": counts["remote_sent"] / rows,
        "core.remote_fanout": counts["remote_fanout"] / rows,
    })
    if run.traced:
        window = Window(run, lo, hi, kernel0, marks)
        run.layer.update({
            "core.global_tree_s": median_span_total(run, marks, "build_global_tree"),
            "core.local_trees_s": median_span_total(run, marks, "build_local_trees"),
            "core.query_self_s": window.self_per(("PandaKNN.query",), len(call_s)),
        })
        reconcile(run, lo, hi, qtimer.seconds)
    run.report["operating_point"] = {
        "workload": "offline_panda", "n": n, "k": K, "dims": int(points.shape[1]),
        "dataset": "cosmology_particles", "ranks": OFFLINE_RANKS, "query_batch_rows": batch,
        "executor": "inline", "job_queries": JOB_QUERIES, "setup_reps": SETUP_REPS,
    }
    run.report["ckdtree_reference"] = ckdtree_reference(points, first)
    index.close()


def ckdtree_reference(points: np.ndarray, queries: np.ndarray) -> Dict[str, float] | None:
    """scipy ``cKDTree`` build and query on the same inputs (not gated)."""
    try:
        from scipy.spatial import cKDTree
    except ImportError:
        return None
    builds = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        tree = cKDTree(points)
        builds.append(time.perf_counter() - start)
    start = time.perf_counter()
    reps = 4
    for _ in range(reps):
        tree.query(queries, k=K)
    return {"build_s": float(np.median(builds)), "knn_qps": reps * queries.shape[0] / (time.perf_counter() - start)}


# ----------------------------------------------------------------------
# fleet_poisson
# ----------------------------------------------------------------------
def fleet_poisson(run: Run) -> None:
    from repro.datasets.cosmology import cosmology_particles
    from repro.fleet.fleet import KNNFleet
    from repro.service.trace import uniform_trace

    n = FLEET_POINTS
    points = cosmology_particles(n, seed=run.seed)
    ids = np.arange(n, dtype=np.int64)
    rng = run.rng
    pool = jittered(points, rng.integers(0, n, POOL), rng)

    def build():
        return KNNFleet.build(points, n_shards=FLEET_SHARDS, n_replicas=FLEET_REPLICAS, k=K)

    with run.tracing():
        fleet, setup, marks = timed_setups(run, build, lambda f: f.close())

    if run.traced:
        probe_arrivals, probe_queries = uniform_trace(100, NOMINAL_RATE, pool, seed=[run.seed, 4])

        def unit():
            start = fleet.now + 1.0
            for at, q in zip(probe_arrivals, probe_queries):
                fleet.submit(q, at=start + at)
            fleet.drain(at=start + probe_arrivals[-1])

        overhead_probe(run, unit)

    def checker(rids, queries):
        sample_check(run, "fleet.rung_answers", fleet, rids, queries, points, ids)

    qtimer = Timer()
    router0 = dataclasses.replace(fleet.router.stats)
    lo = run.mark()
    kernel0 = dict(run.recorder.kernel) if run.traced else {}
    wtimer = Timer()

    def write_slice(round_index):
        # Insert a batch and delete it again: the live set, and so every
        # later answer, stays the same.
        at = fleet.now + 1.0
        spent0 = wtimer.seconds
        while wtimer.seconds - spent0 < WRITE_SLICE * run.seconds:
            run.tag(f"round{round_index}/write")
            batch = jittered(points, run.write_rng.integers(0, n, WRITE_BATCH), run.write_rng)
            new = run.call(wtimer, fleet.insert, batch, at=at, ops=WRITE_BATCH)
            if run.last_ok:
                run.call(wtimer, fleet.delete, new, at=at, ops=WRITE_BATCH)

    with run.tracing():
        rungs = run_ladder(
            run, fleet, ladder(NOMINAL_RATE), LATENCY_LIMIT_MS, NOMINAL_SLICE, uniform_trace, pool, qtimer,
            after_round=write_slice, checker=checker,
        )
    hi = run.mark()
    measure_rss(run)
    router1 = dataclasses.replace(fleet.router.stats)
    served = router1.queries - router0.queries

    # The write slices inserted and deleted the same points: answers must
    # be exact over the original set again.
    post = jittered(points, run.check_rng.integers(0, n, CHECKS_PER_SLICE), run.check_rng)
    at = fleet.now + 1.0
    answers = [fleet.query(q, at=at + j) for j, q in enumerate(post)]
    bad = mismatched_rows(points, ids, post, K, np.stack([a[0] for a in answers]), np.stack([a[1] for a in answers]))
    run.check("fleet.after_writes", bad, post.shape[0])

    # Exact work counters: a fixed query list at an idle rate, twice.
    probe_queries = jittered(points, run.probe_rng.integers(0, n, 256), run.probe_rng)

    def probe(recorder):
        before = dataclasses.replace(fleet.router.stats)
        start = fleet.now + 1.0
        for j, q in enumerate(probe_queries):
            fleet.submit(q, at=start + j)
        fleet.drain(at=start + len(probe_queries))
        after = fleet.router.stats
        spans = recorder.self_times()
        return {
            "queries": after.queries - before.queries,
            "shard_visits": after.shard_visits - before.shard_visits,
            "owner_only": after.owner_only - before.owner_only,
            "replica_calls": spans.get("ReplicaGroup.answer", {}).get("calls", 0),
            **dict(recorder.kernel),
        }

    counts, again = counting_probe(probe), counting_probe(probe)
    run.repeat("fleet.probe", counts, again)
    run.report["counters"] = counts

    # Fleet writes are uniform: the median ~1 s stretch.
    online_e2e(run, rungs, qtimer, setup, goodput(rungs), wtimer.rate())
    run.report["goodput_ladder_exhausted"] = all(r["passed"] for r in rungs)
    admission = fleet.admission.stats.as_dict()
    dispatch = fleet.dispatcher.stats
    run.layer.update(kernel_per_query(counts))
    run.layer.update({
        "admission.rejected": admission["rejected"],
        "admission.shed": admission["shed"],
        "router.owner_s": (router1.owner_seconds - router0.owner_seconds) / max(served, 1),
        "router.scatter_s": (router1.scatter_seconds - router0.scatter_seconds) / max(served, 1),
        "router.fanout_mean": counts["shard_visits"] / counts["queries"],
        "router.owner_only_ratio": counts["owner_only"] / counts["queries"],
        "replica.calls_per_query": counts["replica_calls"] / counts["queries"],
        "replica.retries": float(sum(g.retries for g in fleet.groups)),
        "dispatch.failed": float(dispatch.failed),
    })
    nominal = rungs[0]
    limit = next((r for r in rungs if not r["passed"]), rungs[-1])
    run.layer.update({
        "fleet.batch_rows_mean": limit["batch_rows_mean"],
        "fleet.backlog_s": limit["backlog_s"],
        "fleet.queue_wait_ms_p99": nominal["queue_wait_ms_p99"],
        "fleet.service_ms_p50": nominal["service_ms_p50"],
    })
    if run.traced:
        window = Window(run, lo, hi, kernel0, marks)
        requests = sum(r["requests"] for r in rungs)
        run.layer.update({
            "fleet.self_s": window.self_per(("KNNFleet.submit", "KNNFleet.drain"), requests),
            "router.self_s": window.self_per(("Router.answer",), requests),
            "replica.answer_self_s": window.self_per(("ReplicaGroup.answer",), requests),
            "service.answer_self_s": window.self_per(("KNNService.answer_batch",), requests),
            "service.insert_s": window.mean_total("KNNService.insert"),
            "service.delete_s": window.mean_total("KNNService.delete"),
            "obs.slo_tick_s": window.mean_total("SLOEngine.tick"),
        })
        reconcile(run, lo, hi, qtimer.seconds + wtimer.seconds)
    policy = fleet.batch_policy
    run.report["operating_point"] = {
        "workload": "fleet_poisson", "n": n, "k": K, "dims": int(points.shape[1]),
        "dataset": "cosmology_particles", "shards": FLEET_SHARDS, "replicas": FLEET_REPLICAS,
        "dispatcher": fleet.dispatcher.name, "batch_policy": dataclasses.asdict(policy),
        "admission_policy": dataclasses.asdict(fleet.admission.policy),
        "nominal_rate": NOMINAL_RATE, "ladder": list(ladder(NOMINAL_RATE)), "latency_limit_ms": LATENCY_LIMIT_MS,
        "setup_reps": SETUP_REPS, "write_batch": WRITE_BATCH,
    }
    run.report["admission"] = admission
    fleet.close()


# ----------------------------------------------------------------------
# service_churn
# ----------------------------------------------------------------------
def service_churn(run: Run) -> None:
    from repro.datasets.cosmology import cosmology_particles
    from repro.service.backends import LocalTreeBackend
    from repro.service.service import KNNService
    from repro.service.trace import hotkey_trace

    n = SERVICE_POINTS
    points = cosmology_particles(n, seed=run.seed)
    ids = np.arange(n, dtype=np.int64)
    rng = run.rng
    pool = jittered(points, rng.integers(0, n, POOL), rng)

    def build():
        return KNNService(LocalTreeBackend.fit(points, ids=ids), k=K, background_rebuild=True)

    def trace_fn(count, rate, pool, seed):
        return hotkey_trace(count, rate, pool, n_hot=32, hot_fraction=HOT_FRACTION, seed=seed)

    with run.tracing():
        service, setup, marks = timed_setups(run, build, lambda s: s.close())

    if run.traced:
        unit_rng = np.random.default_rng([run.seed, 4])

        def unit():
            start = service.now + 1.0
            fresh = jittered(points, unit_rng.integers(0, n, 64), unit_rng)
            for j, q in enumerate(fresh):
                service.submit(q, at=start + j / CHURN_RATE)
            service.drain(at=start + len(fresh) / CHURN_RATE)

        overhead_probe(run, unit)

    qtimer, wtimer = Timer(), Timer()
    state = {"live": ids.copy(), "written": 0, "events": 0}
    # (request id, query) of every request since the last write: they were
    # all answered against the live set as it is until the next write.
    since: List = []

    def verify(label):
        if not since:
            return
        live_points, live_ids = service.live_arrays()
        got = [service.result(rid) for rid, _ in since]
        bad = mismatched_rows(
            live_points, live_ids, np.stack([q for _, q in since]), K,
            np.stack([d for d, _ in got]), np.stack([i for _, i in got]),
        )
        run.check(label, bad, len(since))
        del since[:]

    def before_submit(i, at):
        if i == 0 or i % WRITE_EVERY:
            return
        state["events"] += 1
        run.tag(f"write{state['events']}")
        if state["events"] % CHECK_EVERY == 0:
            # The same flush the insert below starts with, made first so
            # the answers can be checked before the live set changes.
            run.call(qtimer, service.flush, at=at, ops=0)
            verify("service.mid_run")
        del since[:]
        new_points = jittered(points, run.write_rng.integers(0, n, CHURN_BATCH), run.write_rng, scale=1e-3)
        new = run.call(wtimer, service.insert, new_points, at=at, ops=CHURN_BATCH)
        if run.last_ok:
            state["live"] = np.concatenate([state["live"], new])
            state["written"] += CHURN_BATCH
        doomed_rows = run.write_rng.choice(state["live"].shape[0], CHURN_BATCH, replace=False)
        run.call(wtimer, service.delete, state["live"][doomed_rows], at=at, ops=CHURN_BATCH)
        if run.last_ok:
            state["live"] = np.delete(state["live"], doomed_rows)
            state["written"] += CHURN_BATCH

    cache0 = dataclasses.replace(service.cache_stats)
    rebuilds0, rebuild_s0 = service.rebuilds, service.rebuild_seconds
    lo = run.mark()
    kernel0 = dict(run.recorder.kernel) if run.traced else {}
    with run.tracing():
        rungs = run_ladder(
            run, service, (CHURN_RATE,), LATENCY_LIMIT_MS, CHURN_SLICE, trace_fn, pool, qtimer,
            before_submit=before_submit,
            after_submit=lambda rid, q: since.append((rid, q)),
            # Each rung ends drained: check against the final live set.
            checker=lambda rids, qs: verify("service.rung_end"),
        )
    hi = run.mark()
    measure_rss(run)
    cache1 = dataclasses.replace(service.cache_stats)
    rebuilds = service.rebuilds - rebuilds0
    rebuild_s = service.rebuild_seconds - rebuild_s0
    lookups = (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses)

    # Goodput at the one offered rate: queries per busy second that met the
    # latency limit.  A churn write may trigger a rebuild, so the write rate
    # is the mean over all writes.
    online_e2e(
        run, rungs, qtimer, setup,
        goodput_qps=lambda m: m["knn_qps"] * rungs[0]["within_limit"],
        write_pts_per_s=state["written"] / wtimer.seconds,
    )
    run.report["write_events"] = state["events"]
    service.close()

    # Exact work counters: a fixed write/read script on two fresh services,
    # writes spaced far apart in logical time so every background rebuild
    # swaps in before the next event.
    script_rng = run.probe_rng
    script = []
    live = ids.copy()
    next_id = n
    for event in range(PROBE_EVENTS):
        new_points = jittered(points, script_rng.integers(0, n, CHURN_BATCH), script_rng, scale=1e-3)
        new_ids = np.arange(next_id, next_id + CHURN_BATCH)
        next_id += CHURN_BATCH
        live = np.concatenate([live, new_ids])
        rows = script_rng.choice(live.shape[0], CHURN_BATCH, replace=False)
        doomed = live[rows]
        live = np.delete(live, rows)
        _, reads = trace_fn(WRITE_EVERY, CHURN_RATE, pool, seed=[run.seed, 6, event])
        script.append((new_points, new_ids, doomed, reads))

    def probe(recorder):
        fresh = build()
        for event, (new_points, new_ids, doomed, reads) in enumerate(script):
            at = 10.0 * (event + 1)
            fresh.insert(new_points, ids=new_ids, at=at)
            fresh.delete(doomed, at=at)
            for j, q in enumerate(reads):
                fresh.submit(q, at=at + 5.0 + j / CHURN_RATE)
            fresh.drain(at=at + 6.0)
        stats = fresh.cache_stats
        out = {
            "rebuilds": fresh.rebuilds,
            "cache_hits": stats.hits,
            "cache_misses": stats.misses,
            "cache_keys_dropped": stats.keys_dropped,
            **dict(recorder.kernel),
        }
        fresh.close()
        return out

    counts, again = counting_probe(probe), counting_probe(probe)
    run.repeat("service.probe", counts, again)
    run.report["counters"] = counts

    run.layer.update(kernel_per_query(counts))
    run.layer.update({
        "service.cache_hit_ratio": (cache1.hits - cache0.hits) / max(lookups, 1),
        "service.cache_keys_dropped": float(cache1.keys_dropped - cache0.keys_dropped),
        "service.rebuilds": float(rebuilds),
        "service.rebuild_s": rebuild_s / max(rebuilds, 1),
    })
    if run.traced:
        window = Window(run, lo, hi, kernel0, marks)
        requests = sum(r["requests"] for r in rungs)
        run.layer.update({
            "service.answer_self_s": window.self_per(("KNNService.submit", "KNNService.flush", "KNNService.drain"), requests),
            "service.insert_s": window.mean_total("KNNService.insert"),
            "service.delete_s": window.mean_total("KNNService.delete"),
        })
        reconcile(run, lo, hi, qtimer.seconds + wtimer.seconds)
    run.report["operating_point"] = {
        "workload": "service_churn", "n": n, "k": K, "dims": int(points.shape[1]),
        "dataset": "cosmology_particles", "backend": "LocalTreeBackend", "background_rebuild": True,
        "cache_capacity": 4096, "hot_fraction": HOT_FRACTION, "n_hot": 32,
        "write_every_requests": WRITE_EVERY, "insert_batch": CHURN_BATCH, "delete_batch": CHURN_BATCH,
        "rate": CHURN_RATE, "latency_limit_ms": LATENCY_LIMIT_MS,
        "setup_reps": SETUP_REPS,
    }


WORKLOADS = {
    "offline_panda": offline_panda,
    "fleet_poisson": fleet_poisson,
    "service_churn": service_churn,
}


def measure_rss(run: Run) -> None:
    """Peak memory of setup and measurement, before the benchmark's own
    brute-force checks and probes allocate theirs."""
    run.e2e["peak_rss_mb"] = peak_rss_mb()
