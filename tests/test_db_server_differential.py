"""Differential test: the server state machine against a plain reference.

:class:`ReferenceServer` and :class:`ReferenceLockManager` restore the
straightforward transaction lifecycle the server's fast paths replace:

* ``submit_query`` always goes push -> ``_dispatch`` (peek, pop), even
  when the CPU is idle and the ready queue empty;
* ``_try_start`` and ``_continue_acquisition`` each run their own lock
  loop, looking enum members up on their classes;
* ``release_all`` always cancels the wait and runs the waiter promotion
  pass on every released item, waiters or not.

Hypothesis generates tiny workloads that stress exactly those paths —
1-4 items per query over at most 6 items, tight deadlines, update
bursts, 2PL-HP preempt/restart (and kill, with
``restart_aborted_queries=False``), on-demand refreshes, one CPU
slowdown and a lock held from outside the server (see :func:`pin_lock`)
— and both servers must agree on every lock request, record, outcome
count, busy time, lock table snapshot and trace event.  A second
property drives the two lock managers directly, through wait queues.
"""

import dataclasses
from typing import List, Optional, Sequence, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db.items import ItemTable
from repro.db.locks import LockManager, LockMode, LockStatus
from repro.db.policy_api import ServerPolicy
from repro.db.server import (
    ARRIVAL_EVENT_PRIORITY,
    CONTROL_EVENT_PRIORITY,
    DEADLINE_EVENT_PRIORITY,
    Server,
    ServerConfig,
)
from repro.db.transactions import (
    Outcome,
    QueryTransaction,
    TransactionState,
    UpdateTransaction,
)
from repro.obs.trace import ENQUEUE_ADMIT, ENQUEUE_GRANT, NULL_RECORDER, TraceRecorder
from repro.sim.engine import Simulator


class ReferenceLockManager(LockManager):
    def release_all(self, txn):
        self.cancel_wait(txn)
        granted = []
        item_ids = self._held_by.pop(txn.txn_id, None)
        if item_ids is None:
            return granted
        for item_id in item_ids:
            lock = self._locks.get(item_id)
            if lock is None:
                continue
            lock.holders.pop(txn.txn_id, None)
            granted.extend(self._promote_waiters(lock, item_id))
        return granted


class ReferenceServer(Server):
    def __init__(self, sim, items, policy, config=None, recorder=None):
        super().__init__(sim, items, policy, config, recorder)
        self.locks = ReferenceLockManager()
        if self.obs.enabled:
            self.locks.bind_observer(self.obs, sim)

    def submit_query(self, query):
        if query.state is not TransactionState.PENDING:
            raise ValueError(f"query {query.txn_id} was already submitted")
        self.queries_submitted += 1
        rows = self._item_rows
        for item_id in query.items:
            rows[item_id].query_accesses += 1

        if not self.policy.admit_query(query, self):
            query.state = TransactionState.ABORTED
            self._finalize_query(query, Outcome.REJECTED, freshness=None)
            return

        emit = self._emit_admit
        if emit is not None:
            emit(self.sim.now, query.txn_id, query.deadline, len(query.items))
        self._live_queries[query.txn_id] = query
        self.policy.on_query_admitted(query, self)
        self._deadline_tokens[query.txn_id] = self.sim.schedule_token(
            query.deadline, self._deadline_abort, query,
            priority=DEADLINE_EVENT_PRIORITY,
        )

        if self._query_refreshes.get(query.txn_id):
            query.state = TransactionState.BLOCKED
            self._blocked[query.txn_id] = query
            emit = self._emit_park
            if emit is not None:
                emit(self.sim.now, query.txn_id)
        else:
            query.state = TransactionState.READY
            self.ready.push(query)
            emit = self._emit_enqueue
            if emit is not None:
                emit(self.sim.now, query.txn_id, ENQUEUE_ADMIT)
        self._dispatch()

    def _try_start(self, txn):
        if txn.is_update:
            needed = (txn.item_id,)
            mode = LockMode.WRITE
        else:
            if self._park_for_refresh(txn):
                return False
            needed = txn.items
            mode = LockMode.READ

        for item_id in needed:
            if self.locks.holds(txn, item_id):
                continue
            while True:
                result = self.locks.request(txn, item_id, mode)
                if result.status is LockStatus.GRANTED:
                    break
                if result.status is LockStatus.BLOCKED:
                    txn.state = TransactionState.BLOCKED
                    self._blocked[txn.txn_id] = txn
                    return False
                for victim in result.victims:
                    self._abort_restart(victim)

        self._run(txn)
        return True

    def _continue_acquisition(self, txn):
        if txn.is_finished:
            return
        if txn.is_update:
            needed = [txn.item_id]
            mode = LockMode.WRITE
        else:
            needed = list(txn.items)
            mode = LockMode.READ

        for item_id in needed:
            if self.locks.holds(txn, item_id):
                continue
            while True:
                result = self.locks.request(txn, item_id, mode)
                if result.status is LockStatus.GRANTED:
                    break
                if result.status is LockStatus.BLOCKED:
                    txn.state = TransactionState.BLOCKED
                    self._blocked[txn.txn_id] = txn
                    return
                for victim in result.victims:
                    self._abort_restart(victim)

        self._blocked.pop(txn.txn_id, None)
        txn.state = TransactionState.READY
        self.ready.push(txn)
        if not txn.is_update:
            emit = self._emit_enqueue
            if emit is not None:
                emit(self.sim.now, txn.txn_id, ENQUEUE_GRANT)


@dataclasses.dataclass(frozen=True)
class Scenario:
    n_items: int
    ideal_period: float
    update_exec: float
    # (arrival, exec_time, relative_deadline, items, freshness_req)
    queries: Tuple[Tuple[float, float, float, Tuple[int, ...], float], ...]
    updates: Tuple[Tuple[float, int], ...]  # (arrival, item_id), time-sorted
    admit: Tuple[bool, ...]  # decisions, cycled
    apply: Tuple[bool, ...]
    on_demand: bool
    refresh_at_admit: bool
    restart_aborted: bool
    slowdown: Tuple[float, float, float]  # (start, rate, duration)
    traced: bool
    # (item_id, release time) of a write lock held from t=0 by a
    # top-priority writer outside the server, or None.
    pinned: Optional[Tuple[int, float]] = None


class ScriptedPolicy(ServerPolicy):
    """Replays fixed admit/apply decision patterns; optionally refreshes
    stale items on demand (ODU-style, sharing pending refreshes), at
    admission and/or at read time.  Each commit, abort or rejection
    snapshots the server."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self._admits = 0
        self._applies = 0
        self._pending = {}
        self.snapshots: List[object] = []

    def admit_query(self, query, server):
        pattern = self.scenario.admit
        self._admits += 1
        return pattern[self._admits % len(pattern)]

    def should_apply_update(self, item, server):
        pattern = self.scenario.apply
        self._applies += 1
        return pattern[self._applies % len(pattern)]

    def on_query_admitted(self, query, server):
        if self.scenario.refresh_at_admit:
            self._refresh(query, server)

    def on_query_stale_at_read(self, query, server):
        return self.scenario.on_demand and self._refresh(query, server)

    def _refresh(self, query, server) -> bool:
        waiting = False
        for item_id in query.items:
            item = server.items[item_id]
            if item.udrop == 0:
                continue
            pending = self._pending.get(item_id)
            if pending is None or not server.attach_refresh(pending, query):
                self._pending[item_id] = server.spawn_refresh(item, query)
            waiting = True
        return waiting

    def on_query_outcome(self, record, server):
        self.snapshots.append(("outcome", record.txn_id, snapshot(server)))

    def on_update_applied(self, update, item, server):
        self.snapshots.append(("apply", update.txn_id, snapshot(server)))


def snapshot(server: Server) -> tuple:
    """Lock table, queue and CPU state, comparable across servers."""
    locks = server.locks
    running = server.running_transaction()
    return (
        server.now,
        tuple(
            (tuple(locks.holders_of(item)), tuple(locks.waiters_of(item)))
            for item in range(len(server.items))
        ),
        tuple(sorted(server._blocked)),
        tuple(txn.txn_id for txn in server.ready.ready_updates()),
        tuple(txn.txn_id for txn in server.ready.ready_queries()),
        None if running is None else running.txn_id,
        tuple(sorted(server.busy_time_by_class().items())),
    )


def run(server_cls, scenario: Scenario):
    sim = Simulator()
    items = ItemTable.uniform(
        scenario.n_items,
        ideal_period=scenario.ideal_period,
        update_exec_time=scenario.update_exec,
    )
    recorder = TraceRecorder(capacity=1 << 16) if scenario.traced else NULL_RECORDER
    policy = ScriptedPolicy(scenario)
    server = server_cls(
        sim, items, policy,
        ServerConfig(restart_aborted_queries=scenario.restart_aborted),
        recorder=recorder,
    )
    if scenario.pinned is not None:
        pin_lock(server, *scenario.pinned)
    # Log every lock request: the fast loop must issue the same ones.
    requests: List[tuple] = []
    request = server.locks.request

    def logged_request(txn, item_id, mode):
        requests.append((txn.txn_id, item_id, mode))
        return request(txn, item_id, mode)

    server.locks.request = logged_request
    for arrival, exec_time, deadline, item_ids, freshness in scenario.queries:
        query = QueryTransaction(
            txn_id=server.next_txn_id(),
            arrival=arrival,
            exec_time=exec_time,
            items=item_ids,
            relative_deadline=deadline,
            freshness_req=freshness,
        )
        sim.schedule_token(
            arrival, server.submit_query, query, priority=ARRIVAL_EVENT_PRIORITY
        )
    for at, item_id in scenario.updates:
        sim.schedule_token(
            at, server.source_update_arrival, item_id, priority=ARRIVAL_EVENT_PRIORITY
        )
    start, rate, duration = scenario.slowdown
    sim.schedule_token(
        start, server.set_service_rate, rate, priority=CONTROL_EVENT_PRIORITY
    )
    sim.schedule_token(
        start + duration, server.set_service_rate, 1.0, priority=CONTROL_EVENT_PRIORITY
    )
    sim.run()
    return server, policy, recorder, requests


def pin_lock(server: Server, item_id: int, release_at: float) -> None:
    """Hold a write lock on ``item_id`` from t=0 for a writer that
    outranks every transaction of the run, and hand it back at
    ``release_at`` the way a commit does.

    The server never makes a transaction wait by itself — the
    dispatcher runs the top-priority transaction, which outranks every
    lock holder it meets — so this outside holder is what drives its
    BLOCKED, grant and ``_continue_acquisition`` paths: transactions
    on ``item_id`` wait, multi-item queries wait holding their other
    items, and others queue behind them.
    """
    writer = UpdateTransaction(
        txn_id=PINNED_TXN_ID, arrival=0.0, exec_time=1.0, item_id=item_id, period=0.001
    )
    server.locks.request(writer, item_id, LockMode.WRITE)

    def release(_):
        for grantee in server.locks.release_all(writer):
            server._continue_acquisition(grantee)
        server._dispatch()

    server.sim.schedule_token(release_at, release, None, priority=CONTROL_EVENT_PRIORITY)


PINNED_TXN_ID = 10**6  # above any id a run allocates


def assert_same(scenario: Scenario) -> Server:
    fast, fast_policy, fast_trace, fast_requests = run(Server, scenario)
    ref, ref_policy, ref_trace, ref_requests = run(ReferenceServer, scenario)
    assert fast_requests == ref_requests
    assert fast.records == ref.records
    assert fast.outcome_counts == ref.outcome_counts
    assert fast.queries_submitted == ref.queries_submitted
    assert fast.updates_enqueued == ref.updates_enqueued
    assert fast.busy_time_by_class() == ref.busy_time_by_class()
    assert fast_policy.snapshots == ref_policy.snapshots
    assert snapshot(fast) == snapshot(ref)
    assert fast.sim.events_fired == ref.sim.events_fired
    assert [dataclasses.astuple(item) for item in fast.items] == [
        dataclasses.astuple(item) for item in ref.items
    ]
    if scenario.traced:
        assert fast_trace.event_dicts() == ref_trace.event_dicts()
    return fast


TIME_STEP = 0.125  # a coarse grid makes same-instant ties common


@st.composite
def scenarios(draw) -> Scenario:
    n_items = draw(st.integers(1, 6))
    max_reads = min(4, n_items)
    queries = []
    for _ in range(draw(st.integers(1, 12))):
        exec_time = draw(st.sampled_from((0.05, 0.125, 0.25, 0.5, 1.0)))
        slack = draw(st.sampled_from((1.0, 1.25, 2.0, 4.0)))
        item_ids = draw(
            st.lists(
                st.integers(0, n_items - 1), min_size=1, max_size=max_reads, unique=True
            )
        )
        queries.append(
            (
                draw(st.integers(0, 40)) * TIME_STEP,
                exec_time,
                exec_time * slack,
                tuple(item_ids),
                draw(st.sampled_from((0.3, 0.5, 0.9, 1.0))),
            )
        )
    # Update bursts: several arrivals at one instant, on one or many items.
    updates: List[Tuple[float, int]] = []
    for _ in range(draw(st.integers(0, 5))):
        at = draw(st.integers(0, 40)) * TIME_STEP
        burst: Sequence[int] = draw(
            st.lists(st.integers(0, n_items - 1), min_size=1, max_size=5)
        )
        updates.extend((at, item_id) for item_id in burst)
    updates.sort(key=lambda update: update[0])
    return Scenario(
        n_items=n_items,
        ideal_period=draw(st.sampled_from((0.5, 1.0, 4.0))),
        update_exec=draw(st.sampled_from((0.05, 0.2, 0.5))),
        queries=tuple(queries),
        updates=tuple(updates),
        admit=tuple(draw(st.lists(st.booleans(), min_size=1, max_size=4))),
        apply=tuple(draw(st.lists(st.booleans(), min_size=1, max_size=4))),
        on_demand=draw(st.booleans()),
        refresh_at_admit=draw(st.booleans()),
        restart_aborted=draw(st.booleans()),
        slowdown=(
            draw(st.integers(0, 40)) * TIME_STEP,
            draw(st.sampled_from((0.25, 0.5, 2.0))),
            draw(st.integers(1, 16)) * TIME_STEP,
        ),
        traced=draw(st.booleans()),
        pinned=draw(
            st.none()
            | st.tuples(st.integers(0, n_items - 1), st.integers(1, 40).map(lambda t: t * TIME_STEP))
        ),
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_server_matches_reference(scenario):
    assert_same(scenario)


def _pinned(restart_aborted: bool) -> Scenario:
    """Multi-item queries overlapping an update burst, with the CPU
    slowed mid-run: 2PL-HP aborts queries on shared items, restarts
    them (or kills them) and an idle CPU admits queries directly."""
    return Scenario(
        n_items=3,
        ideal_period=1.0,
        update_exec=0.2,
        queries=(
            (0.0, 0.5, 2.0, (0, 1, 2), 0.5),
            (0.125, 0.25, 1.0, (1, 2), 0.5),
            (0.25, 0.125, 0.5, (2,), 0.5),
            (3.0, 0.25, 0.5, (0,), 0.5),
            (3.125, 0.5, 2.0, (0, 1), 0.5),
        ),
        updates=((0.25, 0), (0.25, 1), (0.25, 2), (3.25, 1)),
        admit=(True,),
        apply=(True,),
        on_demand=False,
        refresh_at_admit=False,
        restart_aborted=restart_aborted,
        slowdown=(0.125, 0.5, 1.0),
        traced=True,
    )


def test_pinned_scenario_preempts_and_restarts():
    server = assert_same(_pinned(restart_aborted=True))
    kinds = [event["kind"] for event in server.obs.event_dicts()]
    assert kinds.count("lock.preempt") >= 2
    assert any(record.restarts for record in server.records)


def test_pinned_scenario_kills_victims_without_restart():
    server = assert_same(_pinned(restart_aborted=False))
    assert "lock.preempt" in [event["kind"] for event in server.obs.event_dicts()]
    assert server.outcome_counts[Outcome.DEADLINE_MISS] >= 1


def _lock_txns():
    """Two updates and four queries with distinct priorities."""
    from repro.db.transactions import UpdateTransaction

    txns = [
        UpdateTransaction(txn_id=1, arrival=0.0, exec_time=0.1, item_id=0, period=2.0),
        UpdateTransaction(txn_id=2, arrival=0.0, exec_time=0.1, item_id=1, period=1.0),
    ]
    for txn_id, deadline in ((3, 3.0), (4, 1.0), (5, 2.0), (6, 2.0)):
        txns.append(
            QueryTransaction(
                txn_id=txn_id, arrival=0.0, exec_time=0.1, items=(0,),
                relative_deadline=deadline,
            )
        )
    return txns


def _lock_table(locks: LockManager, txns) -> tuple:
    return (
        tuple(
            (tuple(locks.holders_of(item)), tuple(locks.waiters_of(item)))
            for item in range(3)
        ),
        tuple(locks.waited_item(txn) for txn in txns),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(("request", "release", "cancel")),
            st.integers(0, 5),
            st.integers(0, 2),
            st.booleans(),
        ),
        max_size=60,
    )
)
def test_lock_manager_matches_reference(ops):
    """``release_all``'s skips (no wait to cancel, no waiters to
    promote) against the unconditional reference, on lock tables that
    do build wait queues — which the server's dispatcher never does."""
    txns = _lock_txns()
    fast, ref = LockManager(), ReferenceLockManager()
    for op, index, item, write in ops:
        txn = txns[index]
        if op == "request":
            if fast.is_waiting(txn):
                continue
            mode = LockMode.WRITE if write else LockMode.READ
            outcomes = []
            for locks in (fast, ref):
                result = locks.request(txn, item, mode)
                granted = [
                    [grantee.txn_id for grantee in locks.release_all(victim)]
                    for victim in result.victims
                ]
                outcomes.append((result.status, result.victims, granted))
            assert outcomes[0] == outcomes[1]
        elif op == "release":
            assert fast.release_all(txn) == ref.release_all(txn)
        else:
            fast.cancel_wait(txn)
            ref.cancel_wait(txn)
        assert _lock_table(fast, txns) == _lock_table(ref, txns)
