"""Instruments and registry: series semantics, buckets, collect rules."""

import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    ObsRegistry,
    counter_family,
    gauge_family,
    log_buckets,
)


# ----------------------------------------------------------------------
# Counter / Gauge
# ----------------------------------------------------------------------


def test_counter_zero_label_default_series():
    c = Counter("requests_total", "Requests.")
    snap = c.snapshot()
    assert snap.kind == "counter"
    assert [(s.labels, s.value) for s in snap.samples] == [((), 0.0)]


def test_counter_inc_and_labels():
    c = Counter("hits_total", "Hits.", labelnames=("kind",))
    c.inc(kind="a")
    c.inc(2.0, kind="b")
    c.labels(kind="b").inc(3.0)
    values = {s.labels: s.value for s in c.snapshot().samples}
    assert values == {(("kind", "a"),): 1.0, (("kind", "b"),): 5.0}


def test_counter_rejects_negative_and_bad_labels():
    c = Counter("n_total", "N.", labelnames=("kind",))
    with pytest.raises(ValueError):
        c.inc(-1.0, kind="a")
    with pytest.raises(ValueError):
        c.inc(1.0, wrong="a")
    with pytest.raises(ValueError):
        c.inc(1.0)  # missing the declared label


def test_invalid_metric_and_label_names_rejected():
    with pytest.raises(ValueError):
        Counter("0bad", "x")
    with pytest.raises(ValueError):
        Counter("ok_total", "x", labelnames=("le",))
    with pytest.raises(ValueError):
        Counter("ok_total", "x", labelnames=("__reserved",))
    with pytest.raises(ValueError):
        Counter("ok_total", "x", labelnames=("a", "a"))


def test_gauge_set_inc_dec():
    g = Gauge("depth", "Depth.")
    g.set(4.0)
    g.inc()
    g.dec(2.0)
    assert g.snapshot().samples[0].value == 3.0


def test_counter_thread_safety():
    c = Counter("racy_total", "Racy.")
    n, per = 8, 2000

    def work():
        for _ in range(per):
            c.inc()

    threads = [threading.Thread(target=work) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.snapshot().samples[0].value == float(n * per)


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------


def test_log_buckets_geometric_and_deduped():
    bounds = log_buckets(0.001, 1.0, per_decade=1)
    assert bounds == (0.001, 0.01, 0.1, 1.0)
    assert len(set(log_buckets(1e-6, 10.0, 3))) == len(log_buckets(1e-6, 10.0, 3))
    with pytest.raises(ValueError):
        log_buckets(1.0, 0.5)
    with pytest.raises(ValueError):
        log_buckets(0.1, 1.0, per_decade=0)


def test_default_latency_buckets_cover_range():
    assert DEFAULT_LATENCY_BUCKETS[0] == 1e-6
    assert DEFAULT_LATENCY_BUCKETS[-1] >= 10.0


def test_histogram_bucket_assignment_inclusive_upper_bound():
    h = Histogram("lat", "Latency.", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.0, 1.5, 4.0, 100.0):
        h.observe(v)
    by_name = {}
    for s in h.snapshot().samples:
        by_name.setdefault(s.name, []).append((dict(s.labels).get("le"), s.value))
    # le is an inclusive upper bound: 1.0 lands in le="1.0".
    cumulative = dict(by_name["lat_bucket"])
    assert cumulative["1.0"] == 2.0
    assert cumulative["2.0"] == 3.0
    assert cumulative["4.0"] == 4.0
    assert cumulative["+Inf"] == 5.0
    assert by_name["lat_count"][0][1] == 5.0
    assert by_name["lat_sum"][0][1] == pytest.approx(107.0)


def test_histogram_buckets_cumulative_per_label_series():
    h = Histogram("lat", "Latency.", labelnames=("shard",), buckets=(1.0, 10.0))
    h.observe(0.5, shard="0")
    h.observe(5.0, shard="0")
    h.observe(0.5, shard="1")
    rows = {}
    for s in h.snapshot().samples:
        if s.name == "lat_bucket":
            labels = dict(s.labels)
            rows[(labels["shard"], labels["le"])] = s.value
    assert rows[("0", "1.0")] == 1.0
    assert rows[("0", "10.0")] == 2.0
    assert rows[("0", "+Inf")] == 2.0
    assert rows[("1", "+Inf")] == 1.0


def test_histogram_rejects_nan_and_bad_bounds():
    h = Histogram("lat", "L.", buckets=(1.0,))
    with pytest.raises(ValueError):
        h.observe(math.nan)
    with pytest.raises(ValueError):
        Histogram("lat2", "L.", buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("lat3", "L.", buckets=())


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_registry_rejects_duplicate_names():
    reg = ObsRegistry()
    reg.counter("x_total", "X.")
    with pytest.raises(ValueError):
        reg.gauge("x_total", "X again.")


def test_registry_collect_merges_callbacks_sorted():
    reg = ObsRegistry()
    reg.counter("b_total", "B.")
    reg.register_callback(
        lambda: [
            gauge_family("a_gauge", "A.", [({}, 1.0)]),
            counter_family("c_total", "C.", [({"kind": "x"}, 2.0)]),
        ]
    )
    names = [fam.name for fam in reg.collect()]
    assert names == ["a_gauge", "b_total", "c_total"]


def test_registry_collect_rejects_callback_duplicating_instrument():
    reg = ObsRegistry()
    reg.counter("dup_total", "D.")
    reg.register_callback(lambda: [counter_family("dup_total", "D2.", [({}, 1.0)])])
    with pytest.raises(ValueError):
        reg.collect()


def test_registry_render_round_trips_strict_parser():
    from repro.obs.prometheus import parse_prometheus_text

    reg = ObsRegistry()
    reg.counter("r_total", "R.", labelnames=("kind",)).inc(kind="a")
    reg.histogram("r_lat", "Lat.", buckets=(0.1, 1.0)).observe(0.05)
    families = parse_prometheus_text(reg.render())
    assert set(families) == {"r_total", "r_lat"}


# ----------------------------------------------------------------------
# Histogram.quantile / count_le
# ----------------------------------------------------------------------


class TestHistogramQuantile:
    def _hist(self, bounds=(1.0, 2.0, 4.0)):
        return Histogram("q_seconds", "Q.", buckets=bounds)

    def test_empty_series_is_zero(self):
        assert self._hist().quantile(0.5) == 0.0

    def test_out_of_range_q_raises(self):
        h = self._hist()
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)

    def test_interpolates_within_bucket(self):
        h = self._hist()
        # All mass in (1, 2], spanning the bucket so the [min, max] clamp
        # stays out of the way.
        for v in [1.01] + [1.5] * 8 + [2.0]:
            h.observe(v)
        # target q*10 walks linearly across the (1, 2] bucket
        assert h.quantile(0.5) == pytest.approx(1.5)
        assert h.quantile(0.1) == pytest.approx(1.1)
        assert h.quantile(1.0) == pytest.approx(2.0)

    def test_monotone_in_q(self):
        h = self._hist()
        for v in (0.5, 0.7, 1.5, 1.6, 3.0, 3.5, 5.0):
            h.observe(v)
        qs = [h.quantile(q / 10) for q in range(11)]
        assert qs == sorted(qs)

    def test_inf_bucket_clamps_to_largest_finite_bound(self):
        h = self._hist()
        h.observe(3.0)
        for _ in range(9):
            h.observe(100.0)  # beyond every finite bound
        assert h.quantile(0.99) == pytest.approx(4.0)

    def test_clamped_to_exact_min_and_max(self):
        # Three observations inside one wide log bucket: interpolation
        # alone would answer the bucket's upper edge, twice the max.
        h = Histogram("qc_seconds", "Q.", buckets=log_buckets(1e-6, 10.0, 3))
        for v in (0.101, 0.1015, 0.102):
            h.observe(v)
        assert 0.101 <= h.quantile(0.5) <= h.quantile(0.99) <= 0.102
        assert h.quantile(1.0) == 0.102
        assert h.quantile(0.0) == 0.101
        count, total, lo, hi = h.summary()
        assert (count, lo, hi) == (3, 0.101, 0.102)
        assert total == pytest.approx(0.3045)

    def test_summary_of_empty_series_is_zero(self):
        assert self._hist().summary() == (0, 0.0, 0.0, 0.0)

    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=1, max_size=50
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_quantiles_ordered_within_observed_range(self, samples):
        h = Histogram("qp_seconds", "Q.", buckets=log_buckets(1e-6, 10.0, 3))
        for v in samples:
            h.observe(v)
        p50, p99 = h.quantile(0.5), h.quantile(0.99)
        assert min(samples) <= p50 <= p99 <= max(samples)

    def test_labeled_series_are_independent(self):
        h = Histogram("ql_seconds", "Q.", buckets=(1.0, 2.0), labelnames=("tier",))
        h.observe(0.5, tier="fast")
        h.observe(1.5, tier="slow")
        assert h.quantile(0.5, tier="fast") <= 1.0
        assert h.quantile(0.5, tier="slow") > 1.0

    def test_median_of_uniform_observations(self):
        h = Histogram("qu_seconds", "Q.", buckets=tuple(float(b) for b in range(1, 11)))
        for v in range(1, 11):
            h.observe(float(v) - 0.5)
        assert h.quantile(0.5) == pytest.approx(5.0, abs=0.5)


class TestHistogramCountLe:
    def test_empty(self):
        h = Histogram("cl_seconds", "C.", buckets=(1.0, 2.0))
        assert h.count_le(1.0) == (0.0, 0.0)

    def test_exact_at_bucket_bound(self):
        h = Histogram("cl2_seconds", "C.", buckets=(1.0, 2.0))
        for v in (0.5, 0.9, 1.5, 3.0):
            h.observe(v)
        good, total = h.count_le(1.0)
        assert (good, total) == (2.0, 4.0)

    def test_conservative_between_bounds(self):
        h = Histogram("cl3_seconds", "C.", buckets=(1.0, 2.0))
        h.observe(1.1)  # lands in (1, 2]: not provably <= 1.5
        good, total = h.count_le(1.5)
        assert (good, total) == (0.0, 1.0)

    def test_labeled(self):
        h = Histogram("cl4_seconds", "C.", buckets=(1.0,), labelnames=("t",))
        h.observe(0.5, t="a")
        h.observe(5.0, t="b")
        assert h.count_le(1.0, t="a") == (1.0, 1.0)
        assert h.count_le(1.0, t="b") == (0.0, 1.0)
