"""Input contract: NaN/inf coordinates are rejected at every public entry point.

A non-finite query would otherwise answer "no neighbours" (every distance
comparison against NaN is false), and a non-finite point would sit in the
index poisoning every later answer.  Each entry point must raise
``ValueError`` *before* touching state: the index and the request ledger
(pending queue, completed records, logical clock, admission counts) are
checked unchanged after every rejection.
"""

import numpy as np
import pytest

from repro.fleet.fleet import KNNFleet
from repro.service import KNNService, LocalTreeBackend, MicroBatchPolicy

BAD_VALUES = [np.nan, np.inf, -np.inf]


def _points(n=120, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 3))


def _poisoned(value, shape=(3,)):
    arr = np.zeros(shape)
    arr.flat[1] = value
    return arr


# ----------------------------------------------------------------------
# KNNService
# ----------------------------------------------------------------------


@pytest.fixture
def service():
    # A fixed large batch target keeps one query pending, so a rejected
    # call that flushed the queue first would show in the ledger.
    svc = KNNService(
        LocalTreeBackend.fit(_points()),
        k=3,
        batch_policy=MicroBatchPolicy(max_batch=64, adaptive=False),
        service_time=lambda n: 1e-3,
    )
    svc.submit(np.ones(3), at=1.0)
    yield svc
    svc.close()


def _service_state(svc):
    points, ids = svc.live_arrays()
    return (
        svc.n_pending,
        svc.records.n_total,
        svc.now,
        svc.n_live,
        svc.version,
        points.tobytes(),
        ids.tobytes(),
    )


@pytest.mark.parametrize("value", BAD_VALUES)
def test_service_constructor_rejects_non_finite_points(value):
    points = _points()
    points[7, 2] = value
    with np.errstate(invalid="ignore"):
        backend = LocalTreeBackend.fit(points)
    with pytest.raises(ValueError, match="finite"):
        KNNService(backend)


@pytest.mark.parametrize("value", BAD_VALUES)
def test_service_submit_rejects_non_finite_query(service, value):
    before = _service_state(service)
    with pytest.raises(ValueError, match="finite"):
        service.submit(_poisoned(value), at=2.0)
    assert _service_state(service) == before


@pytest.mark.parametrize("value", BAD_VALUES)
def test_service_query_rejects_non_finite_query(service, value):
    before = _service_state(service)
    with pytest.raises(ValueError, match="finite"):
        service.query(_poisoned(value), at=2.0)
    assert _service_state(service) == before


@pytest.mark.parametrize("value", BAD_VALUES)
def test_service_answer_batch_rejects_non_finite_rows(service, value):
    before = _service_state(service)
    with pytest.raises(ValueError, match="finite"):
        service.answer_batch(_poisoned(value, shape=(4, 3)), at=2.0)
    assert _service_state(service) == before


@pytest.mark.parametrize("value", BAD_VALUES)
def test_service_insert_rejects_non_finite_points(service, value):
    before = _service_state(service)
    with pytest.raises(ValueError, match="finite"):
        service.insert(_poisoned(value, shape=(2, 3)), at=2.0)
    assert _service_state(service) == before


# ----------------------------------------------------------------------
# KNNFleet
# ----------------------------------------------------------------------


@pytest.fixture
def fleet():
    fl = KNNFleet.build(
        _points(),
        n_shards=2,
        n_replicas=2,
        k=3,
        batch_policy=MicroBatchPolicy(max_batch=64, adaptive=False),
        service_time=lambda n: 1e-3,
    )
    fl.submit(np.ones(3), at=1.0)
    yield fl
    fl.close()


def _fleet_state(fl):
    answers = fl.router.answer(_points(5, seed=1), 3)
    return (
        fl.n_pending,
        fl.records.n_total,
        fl.now,
        fl.n_live,
        fl.admission.stats.as_dict(),
        sorted(fl._id_to_shard),
        answers[0].tobytes(),
        answers[1].tobytes(),
    )


@pytest.mark.parametrize("value", BAD_VALUES)
def test_fleet_build_rejects_non_finite_points(value):
    points = _points()
    points[11, 0] = value
    with pytest.raises(ValueError, match="finite"):
        KNNFleet.build(points, n_shards=2)


@pytest.mark.parametrize("value", BAD_VALUES)
def test_fleet_submit_rejects_non_finite_query(fleet, value):
    before = _fleet_state(fleet)
    with pytest.raises(ValueError, match="finite"):
        fleet.submit(_poisoned(value), at=2.0)
    assert _fleet_state(fleet) == before


@pytest.mark.parametrize("value", BAD_VALUES)
def test_fleet_query_rejects_non_finite_query(fleet, value):
    before = _fleet_state(fleet)
    with pytest.raises(ValueError, match="finite"):
        fleet.query(_poisoned(value), at=2.0)
    assert _fleet_state(fleet) == before


@pytest.mark.parametrize("value", BAD_VALUES)
def test_fleet_insert_rejects_non_finite_points(fleet, value):
    before = _fleet_state(fleet)
    with pytest.raises(ValueError, match="finite"):
        fleet.insert(_poisoned(value, shape=(2, 3)), at=2.0)
    assert _fleet_state(fleet) == before
