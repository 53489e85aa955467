"""Tests for transaction records and the dual-class priority order."""

import pickle

import pytest

from repro.db.transactions import (
    Outcome,
    QueryRecord,
    QueryTransaction,
    TransactionState,
    UpdateTransaction,
)


def make_query(**kwargs):
    defaults = dict(
        txn_id=1,
        arrival=0.0,
        exec_time=0.1,
        items=(0,),
        relative_deadline=1.0,
        freshness_req=0.9,
    )
    defaults.update(kwargs)
    return QueryTransaction(**defaults)


def make_update(**kwargs):
    defaults = dict(txn_id=2, arrival=0.0, exec_time=0.1, item_id=0, period=5.0)
    defaults.update(kwargs)
    return UpdateTransaction(**defaults)


class TestValidation:
    def test_query_requires_items(self):
        with pytest.raises(ValueError):
            make_query(items=())

    def test_query_requires_positive_deadline(self):
        with pytest.raises(ValueError):
            make_query(relative_deadline=0.0)

    def test_query_freshness_requirement_range(self):
        with pytest.raises(ValueError):
            make_query(freshness_req=0.0)
        with pytest.raises(ValueError):
            make_query(freshness_req=1.5)

    def test_positive_exec_time(self):
        with pytest.raises(ValueError):
            make_query(exec_time=0.0)
        with pytest.raises(ValueError):
            make_update(exec_time=-1.0)

    def test_update_requires_item(self):
        with pytest.raises(ValueError):
            make_update(item_id=-1)


class TestDerivedFields:
    def test_query_absolute_deadline(self):
        query = make_query(arrival=5.0, relative_deadline=2.0)
        assert query.deadline == pytest.approx(7.0)

    def test_query_cpu_utilization_is_eq6_quantity(self):
        query = make_query(exec_time=0.2, relative_deadline=2.0)
        assert query.cpu_utilization == pytest.approx(0.1)

    def test_update_edf_deadline_is_arrival_plus_period(self):
        update = make_update(arrival=3.0, period=5.0)
        assert update.deadline == pytest.approx(8.0)

    def test_remaining_initialized_to_exec_time(self):
        assert make_query(exec_time=0.3).remaining == pytest.approx(0.3)


class TestPriorityOrder:
    def test_updates_outrank_queries(self):
        update = make_update(arrival=100.0, period=1000.0)  # late EDF deadline
        query = make_query(arrival=0.0, relative_deadline=0.01)  # urgent
        assert update.priority_key() < query.priority_key()

    def test_edf_within_queries(self):
        urgent = make_query(txn_id=1, relative_deadline=0.5)
        relaxed = make_query(txn_id=2, relative_deadline=5.0)
        assert urgent.priority_key() < relaxed.priority_key()

    def test_edf_within_updates(self):
        soon = make_update(txn_id=1, period=1.0)
        late = make_update(txn_id=2, period=10.0)
        assert soon.priority_key() < late.priority_key()

    def test_ties_broken_by_txn_id(self):
        a = make_query(txn_id=1)
        b = make_query(txn_id=2)
        assert a.priority_key() < b.priority_key()


class TestLifecycle:
    def test_finished_states(self):
        query = make_query()
        assert not query.is_finished
        query.state = TransactionState.COMMITTED
        assert query.is_finished
        query.state = TransactionState.ABORTED
        assert query.is_finished


class TestQueryRecord:
    def test_response_time(self):
        record = QueryRecord(
            txn_id=1,
            arrival=1.0,
            items=(0,),
            exec_time=0.1,
            relative_deadline=1.0,
            freshness_req=0.9,
            outcome=Outcome.SUCCESS,
            finish_time=1.5,
        )
        assert record.response_time == pytest.approx(0.5)

    FIELDS = (
        7, 1.0, (0, 3), 0.1, 1.0, 0.9, Outcome.DATA_STALE, 1.5, 0.5, 2, None, "gold",
    )

    def test_fields_are_read_only(self):
        record = QueryRecord(*self.FIELDS)
        with pytest.raises(AttributeError):
            record.outcome = Outcome.SUCCESS  # type: ignore[misc]
        with pytest.raises(AttributeError):
            record.extra = 1  # type: ignore[attr-defined]

    def test_equality_and_hash_are_field_wise(self):
        record = QueryRecord(*self.FIELDS)
        twin = QueryRecord(*self.FIELDS)
        assert record == twin and hash(record) == hash(twin)
        other = QueryRecord(*self.FIELDS[:-1], "default")
        assert record != other

    def test_pickle_round_trip(self):
        record = QueryRecord(*self.FIELDS)
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record and type(clone) is QueryRecord
        assert clone.response_time == record.response_time

    def test_positional_construction_in_field_order(self):
        names = (
            "txn_id", "arrival", "items", "exec_time", "relative_deadline",
            "freshness_req", "outcome", "finish_time", "freshness", "restarts",
            "profile", "user_class",
        )
        assert QueryRecord._fields == names
        record = QueryRecord(*self.FIELDS)
        assert record == QueryRecord(**dict(zip(names, self.FIELDS)))
        assert [getattr(record, name) for name in names] == list(self.FIELDS)

    def test_defaults(self):
        record = QueryRecord(*self.FIELDS[:8])
        assert (record.freshness, record.restarts, record.profile, record.user_class) == (
            None, 0, None, "default",
        )
