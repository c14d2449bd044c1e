"""Tests for counters, histograms, and the stats registry."""

import math

import pytest

from repro.sim.stats import Counter, Histogram, StatsRegistry, geometric_mean


def test_counter_add_and_reset():
    c = Counter("x")
    c.add()
    c.add(5)
    assert c.value == 6
    c.reset()
    assert c.value == 0


def test_histogram_mean_min_max():
    h = Histogram("lat", bucket_width=10)
    for sample in (5, 15, 25, 25):
        h.record(sample)
    assert h.count == 4
    assert h.mean == pytest.approx(17.5)
    assert h.minimum == 5
    assert h.maximum == 25


def test_histogram_buckets_sorted():
    h = Histogram("lat", bucket_width=10)
    for sample in (35, 5, 15):
        h.record(sample)
    assert [b for b, _ in h.buckets()] == [0, 10, 30]


def test_histogram_percentile():
    h = Histogram("lat", bucket_width=1)
    for sample in range(100):
        h.record(sample)
    assert h.percentile(50) in range(49, 52)
    assert h.percentile(100) >= 99
    with pytest.raises(ValueError):
        h.percentile(101)


def test_histogram_percentile_empty_is_zero():
    h = Histogram("lat")
    assert h.percentile(50) == 0.0
    assert h.percentile(0) == 0.0
    assert h.percentile(100) == 0.0


def test_histogram_percentile_endpoints_are_min_max():
    h = Histogram("lat", bucket_width=10)
    for sample in (7, 23, 55):
        h.record(sample)
    assert h.percentile(0) == 7.0
    assert h.percentile(100) == 55.0


def test_histogram_percentile_rejects_out_of_range():
    h = Histogram("lat")
    h.record(1)
    with pytest.raises(ValueError):
        h.percentile(-1)
    with pytest.raises(ValueError):
        h.percentile(100.5)


def test_histogram_percentile_single_bucket_clamps_to_observed_range():
    # All samples land in bucket [0, 16); interpolation must not report
    # values outside [min, max] = [3, 5].
    h = Histogram("lat", bucket_width=16)
    for sample in (3, 4, 5):
        h.record(sample)
    for p in (1, 25, 50, 75, 99):
        assert 3.0 <= h.percentile(p) <= 5.0


def test_histogram_percentile_interpolates_within_bucket():
    # 100 samples uniform over [0, 100) with width-10 buckets: p50 falls
    # exactly on a bucket boundary and must interpolate to ~50, not jump
    # to the bucket's top edge (the old ceil-based semantics gave 59).
    h = Histogram("lat", bucket_width=10)
    for sample in range(100):
        h.record(sample)
    assert h.percentile(50) == pytest.approx(50.0)
    assert h.percentile(95) == pytest.approx(95.0)
    assert h.percentile(10) == pytest.approx(10.0)


def test_histogram_percentile_monotone_in_p():
    h = Histogram("lat", bucket_width=8)
    for sample in (1, 2, 3, 40, 41, 200):
        h.record(sample)
    values = [h.percentile(p) for p in range(0, 101, 5)]
    assert values == sorted(values)
    assert values[0] == 1.0 and values[-1] == 200.0


def test_histogram_reset_clears_samples_in_place():
    h = Histogram("lat", bucket_width=4)
    for sample in (1, 9, 17):
        h.record(sample)
    h.reset()
    assert h.count == 0
    assert h.mean == 0.0
    assert h.minimum == 0 and h.maximum == 0
    assert list(h.buckets()) == []
    h.record(6)
    assert h.count == 1
    assert h.minimum == 6 and h.maximum == 6


def test_histogram_rejects_bad_bucket_width():
    with pytest.raises(ValueError):
        Histogram("x", bucket_width=0)


def test_registry_namespacing():
    reg = StatsRegistry()
    child = reg.child("l1")
    child.counter("hits").add(3)
    reg.counter("total").add(1)
    flat = reg.as_dict()
    assert flat["l1.hits"] == 3
    assert flat["total"] == 1


def test_registry_counter_identity():
    reg = StatsRegistry()
    assert reg.counter("a") is reg.counter("a")


def test_registry_qualified_name_format():
    reg = StatsRegistry()
    child = reg.child("mem")
    grandchild = child.child("l2")
    assert reg.counter("total").name == "total"
    assert child.counter("hits").name == "mem.hits"
    assert grandchild.counter("hits").name == "mem.l2.hits"
    assert grandchild.histogram("lat").name == "mem.l2.lat"


def test_registry_child_memoized_by_prefix():
    reg = StatsRegistry()
    a = reg.child("mem")
    b = reg.child("mem")
    assert a is b
    a.counter("hits").add(2)
    b.counter("hits").add(3)
    assert reg.as_dict()["mem.hits"] == 5


def test_registry_reset_reaches_grandchildren():
    reg = StatsRegistry()
    grandchild = reg.child("mem").child("l2")
    hits = grandchild.counter("hits")
    lat = grandchild.histogram("lat")
    hits.add(7)
    lat.record(12)
    reg.reset()
    assert hits.value == 0
    assert lat.count == 0
    # The histogram was reset in place, not discarded: the component's
    # reference keeps recording into the registry after the reset.
    lat.record(30)
    flat = reg.as_dict()
    assert flat["mem.l2.lat.count"] == 1
    assert flat["mem.l2.lat.mean"] == 30


def test_registry_histogram_summary_in_dict():
    reg = StatsRegistry()
    reg.histogram("lat").record(10)
    flat = reg.as_dict()
    assert flat["lat.count"] == 1
    assert flat["lat.mean"] == 10


def test_geometric_mean_matches_definition():
    values = [2.0, 8.0]
    assert geometric_mean(values) == pytest.approx(4.0)
    assert geometric_mean([7.2]) == pytest.approx(7.2)


def test_geometric_mean_rejects_bad_input():
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])
