"""Structured trace recording for simulation runs.

Every instrumentation site in the server, the lock manager, and the
UNIT control modules is guarded by a single attribute check::

    rec = self.obs
    if rec.enabled:
        rec.query_outcome(...)

so the disabled path (the default, via the shared
:data:`NULL_RECORDER`) costs one attribute load and a false branch —
nothing is allocated, formatted, or appended.  The enabled path
appends the kind to an emit-order column, and the sim time and one
payload tuple whose field order is fixed per kind (:data:`FIELDS`) to
that kind's columns — no per-event object or dict.  The columns form a
bounded ring; when it is full the *oldest* events are evicted and
counted in :attr:`TraceRecorder.dropped`.  :class:`TraceEvent` and the
flattened dicts the exporters read are views built on demand.

All timestamps are **simulated** time (the caller passes
``Simulator.now``); this module never reads the wall clock — simlint's
SL002 patrols it like any other simulation component.

Event kinds (the ``kind`` field of every event):

=====================  ==============================================
``query.admit``        query passed admission control
``query.outcome``      terminal outcome (success / rejected / dmf /
                       dsf) with latency, freshness, restart count
``sched.enqueue``      a query entered the ready queue (cause: admit /
                       grant / refresh / restart / preempt)
``sched.dispatch``     a query left the ready queue for the CPU
``sched.park``         a query blocked waiting on on-demand refreshes
``admission.decision`` the AC's full verdict (reason, EST, C_flex)
``lock.wait``          a transaction blocked behind a lock
``lock.grant``         a queued waiter was promoted to lock holder
``lock.preempt``       2PL-HP abort: victims named, requester named
``update.apply``       an update transaction committed
``update.drop``        a source arrival dropped by the policy
``modulation.change``  an item's period degraded / upgraded
``control.allocate``   one Adaptive Allocation decision (LBC)
``control.window``     controller window snapshot: USM components
                       S / R / F_m / F_s plus the knob values chosen
``fault.start``        an injected fault window opened (label, fault
                       type, parameters)
``fault.end``          an injected fault window closed
``fleet.route``        the fleet router assigned a query to a shard
                       (candidates considered, estimated freshness)
``fleet.rebalance``    the global coordinator issued a per-shard
                       directive (C_flex factor, modulation signal)
=====================  ==============================================
"""

from __future__ import annotations

from collections import deque
from itertools import compress, islice, repeat
from operator import itemgetter
from typing import (
    Callable, Container, Deque, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Tuple, cast,
)

# Event-kind constants (shared with the exporters and the CLI).
QUERY_ADMIT = "query.admit"
QUERY_OUTCOME = "query.outcome"
SCHED_ENQUEUE = "sched.enqueue"
SCHED_DISPATCH = "sched.dispatch"
SCHED_PARK = "sched.park"
ADMISSION_DECISION = "admission.decision"
LOCK_WAIT = "lock.wait"
LOCK_GRANT = "lock.grant"
LOCK_PREEMPT = "lock.preempt"
UPDATE_APPLY = "update.apply"
UPDATE_DROP = "update.drop"
MODULATION_CHANGE = "modulation.change"
CONTROL_ALLOCATE = "control.allocate"
CONTROL_WINDOW = "control.window"
FAULT_START = "fault.start"
FAULT_END = "fault.end"
FLEET_ROUTE = "fleet.route"
FLEET_REBALANCE = "fleet.rebalance"

#: Synthetic header line prepended to JSONL exports when the recorder's
#: ring buffer dropped events (truncated stream).  Not a recordable
#: kind — never emitted by instrumentation, absent from ALL_KINDS — so
#: complete traces keep their historical digests byte-for-byte.
TRACE_META = "trace.meta"

#: Default ring capacity, shared by :class:`~repro.obs.config.ObsConfig`:
#: holds every event of a paper-scale UNIT run (about 600k).  The
#: columns grow with the events actually recorded, so a short run
#: never pays for the whole ring.
DEFAULT_CAPACITY = 1_048_576

#: Payload field order per kind: a typed hook stores exactly these
#: values, in this order, as one tuple.  Payloads of :data:`OPEN_KINDS`
#: (and of generic :meth:`Recorder.emit` calls with keys outside the
#: layout) carry one more element: a tuple of ``(key, value)`` pairs for
#: the variable fields — USM components, cost terms, fault parameters.
FIELDS: Dict[str, Tuple[str, ...]] = {
    QUERY_ADMIT: ("txn", "deadline", "items"),
    QUERY_OUTCOME: ("txn", "outcome", "arrival", "latency", "freshness", "restarts"),
    SCHED_ENQUEUE: ("txn", "cause"),
    SCHED_DISPATCH: ("txn",),
    SCHED_PARK: ("txn",),
    ADMISSION_DECISION: ("txn", "admitted", "reason", "est", "endangered", "c_flex"),
    LOCK_WAIT: ("txn", "item", "update", "holders"),
    LOCK_GRANT: ("txn", "item"),
    LOCK_PREEMPT: ("txn", "item", "update", "victims"),
    UPDATE_APPLY: ("item", "txn", "on_demand", "period"),
    UPDATE_DROP: ("item", "period"),
    MODULATION_CHANGE: ("item", "direction", "old_period", "new_period"),
    CONTROL_ALLOCATE: ("dominant", "signals", "usm", "samples"),
    CONTROL_WINDOW: (
        "usm", "samples", "signals", "c_flex", "update_load", "degraded_items",
        "ticket_threshold",
    ),
    FAULT_START: ("label", "fault"),
    FAULT_END: ("label", "fault"),
    FLEET_ROUTE: ("txn", "shard", "policy", "candidates", "est_freshness", "forced"),
    FLEET_REBALANCE: ("shard", "flex_factor", "c_flex_before", "c_flex_after", "modulate"),
    TRACE_META: ("dropped",),
}

#: The recordable kinds, in catalogue order.
ALL_KINDS: Tuple[str, ...] = tuple(kind for kind in FIELDS if kind != TRACE_META)

#: Kinds whose payload always ends with the variable-field pairs.
OPEN_KINDS = frozenset({CONTROL_ALLOCATE, CONTROL_WINDOW, FAULT_START})

Payload = Tuple[object, ...]

_ENVELOPE = ("t", "kind")  # the keys a flattened event adds to its fields


def _layout_getter(names: Tuple[str, ...]) -> Callable[[Mapping[str, object]], Payload]:
    """Read a mapping's layout fields as a payload tuple in one C call
    (raises KeyError when one is missing)."""
    if len(names) == 1:
        get_one = itemgetter(names[0])
        return lambda fields: (get_one(fields),)
    return itemgetter(*names)


_GETTERS = {kind: _layout_getter(names) for kind, names in FIELDS.items() if names}


def to_payload(kind: str, fields: Mapping[str, object]) -> Payload:
    """Normalize a flattened event (or a ``fields`` dict) into ``kind``'s
    payload layout.

    Layout fields the mapping lacks read as None; keys outside the
    layout (other than the ``t``/``kind`` envelope) ride in the trailing
    pairs tuple, which :data:`OPEN_KINDS` always carry.
    """
    names = FIELDS.get(kind, ())
    try:
        values = _GETTERS[kind](fields)
    except KeyError:  # an unknown kind, or a layout field missing
        values = tuple(map(fields.get, names))
    else:
        envelope = ("t" in fields) + ("kind" in fields)
        if len(fields) == len(names) + envelope and kind not in OPEN_KINDS:
            return values  # exactly the layout: no pairs to collect
    extras = tuple(
        [(key, value) for key, value in fields.items() if key not in names and key not in _ENVELOPE]
    )
    if extras or kind in OPEN_KINDS:
        return values + (extras,)
    return values


def fields_of(kind: str, payload: Payload) -> Dict[str, object]:
    """The ``fields`` dict of one event (the inverse of :func:`to_payload`)."""
    names = FIELDS.get(kind, ())
    out = dict(zip(names, payload))
    if len(payload) > len(names):
        out.update(cast(Tuple[Tuple[str, object], ...], payload[-1]))
    return out


class TraceEvent:
    """One recorded occurrence, in sim time — a view built on demand by
    :meth:`TraceRecorder.events`; the recorder itself stores columns.

    ``fields`` is a plain dict of JSON-serializable values; the
    flattened form (:meth:`as_dict`) is what the exporters consume.
    """

    __slots__ = ("time", "kind", "fields")

    def __init__(self, time: float, kind: str, fields: Dict[str, object]) -> None:
        self.time = time
        self.kind = kind
        self.fields = fields

    def as_dict(self) -> Dict[str, object]:
        """Flatten to ``{"t": ..., "kind": ..., **fields}``."""
        out: Dict[str, object] = {"t": self.time, "kind": self.kind}
        out.update(self.fields)
        return out

    def __repr__(self) -> str:
        return f"TraceEvent(t={self.time:.6f}, kind={self.kind!r}, {self.fields!r})"


# ``sched.enqueue`` causes — why a query (re)entered the ready queue.
ENQUEUE_ADMIT = "admit"  # fresh admission
ENQUEUE_GRANT = "grant"  # a blocking lock was granted
ENQUEUE_REFRESH = "refresh"  # its on-demand refreshes committed
ENQUEUE_RESTART = "restart"  # restarted after a 2PL-HP abort
ENQUEUE_PREEMPT = "preempt"  # preempted off the CPU

ENQUEUE_CAUSES: Tuple[str, ...] = (
    ENQUEUE_ADMIT,
    ENQUEUE_GRANT,
    ENQUEUE_REFRESH,
    ENQUEUE_RESTART,
    ENQUEUE_PREEMPT,
)


class Recorder:
    """Interface shared by :class:`TraceRecorder` and :class:`NullRecorder`.

    Instrumentation sites hold a ``Recorder`` and guard every typed
    call with ``if rec.enabled:`` — the subclass never changes under a
    running simulation, so the guard is branch-predictable.  Each typed
    hook packs its arguments in the kind's :data:`FIELDS` order and
    hands them to :meth:`_put`, which only :class:`TraceRecorder`
    implements.
    """

    __slots__ = ()

    #: False on the null recorder; instrumentation guards on this.
    enabled: bool = False

    def _put(self, time: float, kind: str, payload: Payload) -> None:
        """Store one event (no-op here and on the null recorder)."""

    def _put_many(self, time: float, kind: str, payloads: Sequence[Payload]) -> None:
        """Store several same-kind events stamped ``time``, in order."""
        for payload in payloads:
            self._put(time, kind, payload)

    # -- generic hook ---------------------------------------------------

    def emit(self, time: float, kind: str, fields: Mapping[str, object]) -> None:
        """Record one event given as a fields dict (see :func:`to_payload`)."""
        self._put(time, kind, to_payload(kind, fields))

    # -- typed hooks ----------------------------------------------------

    def query_admit(self, time: float, txn_id: int, deadline: float, n_items: int) -> None:
        self._put(time, QUERY_ADMIT, (txn_id, deadline, n_items))

    def query_outcome(
        self,
        time: float,
        txn_id: int,
        outcome: str,
        arrival: float,
        latency: float,
        freshness: Optional[float],
        restarts: int,
    ) -> None:
        self._put(time, QUERY_OUTCOME, (txn_id, outcome, arrival, latency, freshness, restarts))

    def sched_enqueue(self, time: float, txn_id: int, cause: str) -> None:
        self._put(time, SCHED_ENQUEUE, (txn_id, cause))

    def sched_dispatch(self, time: float, txn_id: int) -> None:
        self._put(time, SCHED_DISPATCH, (txn_id,))

    def sched_park(self, time: float, txn_id: int) -> None:
        self._put(time, SCHED_PARK, (txn_id,))

    def admission_decision(
        self,
        time: float,
        txn_id: int,
        admitted: bool,
        reason: str,
        est: float,
        endangered: int,
        c_flex: float,
    ) -> None:
        self._put(time, ADMISSION_DECISION, (txn_id, admitted, reason, est, endangered, c_flex))

    def lock_wait(
        self, time: float, txn_id: int, item_id: int, is_update: bool, holders: Sequence[int]
    ) -> None:
        self._put(time, LOCK_WAIT, (txn_id, item_id, is_update, list(holders)))

    def lock_grant(self, time: float, txn_id: int, item_id: int) -> None:
        self._put(time, LOCK_GRANT, (txn_id, item_id))

    def lock_preempt(
        self, time: float, txn_id: int, item_id: int, is_update: bool, victims: Sequence[int]
    ) -> None:
        self._put(time, LOCK_PREEMPT, (txn_id, item_id, is_update, list(victims)))

    def update_apply(
        self, time: float, item_id: int, txn_id: int, on_demand: bool, period: float
    ) -> None:
        self._put(time, UPDATE_APPLY, (item_id, txn_id, on_demand, period))

    def update_drop(self, time: float, item_id: int, period: float) -> None:
        self._put(time, UPDATE_DROP, (item_id, period))

    def modulation_change(
        self, time: float, item_id: int, direction: str, old_period: float, new_period: float
    ) -> None:
        self._put(time, MODULATION_CHANGE, (item_id, direction, old_period, new_period))

    def modulation_changes(
        self, time: float, payloads: Sequence[Tuple[int, str, float, float]]
    ) -> None:
        """One control signal's ``modulation.change`` events, all at
        ``time``: ``(item_id, direction, old_period, new_period)`` each,
        in emit order.  Equivalent to one :meth:`modulation_change` per
        payload."""
        self._put_many(time, MODULATION_CHANGE, payloads)

    def control_allocate(
        self,
        time: float,
        costs: Dict[str, float],
        dominant: str,
        signals: Sequence[str],
        usm: Optional[float],
        samples: int,
    ) -> None:
        costs_pairs = tuple((f"cost_{key}", value) for key, value in sorted(costs.items()))
        self._put(time, CONTROL_ALLOCATE, (dominant, list(signals), usm, samples, costs_pairs))

    def control_window(
        self,
        time: float,
        components: Dict[str, float],
        usm: Optional[float],
        samples: int,
        signals: Sequence[str],
        c_flex: float,
        update_load: float,
        degraded_items: int,
        ticket_threshold: float,
    ) -> None:
        # Built as a dict first: a component named like a knob field
        # overrides it, as in the flattened event.
        fields: Dict[str, object] = {
            "usm": usm,
            "samples": samples,
            "signals": list(signals),
            "c_flex": c_flex,
            "update_load": update_load,
            "degraded_items": degraded_items,
            "ticket_threshold": ticket_threshold,
        }
        fields.update(sorted(components.items()))
        self.emit(time, CONTROL_WINDOW, fields)

    def fault_start(self, time: float, label: str, fault: str, params: Dict[str, float]) -> None:
        fields: Dict[str, object] = {"label": label, "fault": fault}
        fields.update(sorted(params.items()))
        self.emit(time, FAULT_START, fields)

    def fault_end(self, time: float, label: str, fault: str) -> None:
        self._put(time, FAULT_END, (label, fault))

    def fleet_route(
        self,
        time: float,
        txn_id: int,
        shard: int,
        policy: str,
        candidates: Sequence[int],
        est_freshness: float,
        forced: bool,
    ) -> None:
        payload = (txn_id, shard, policy, list(candidates), est_freshness, forced)
        self._put(time, FLEET_ROUTE, payload)

    def fleet_rebalance(
        self,
        time: float,
        shard: int,
        flex_factor: float,
        c_flex_before: float,
        c_flex_after: float,
        modulate: Optional[str],
    ) -> None:
        payload = (shard, flex_factor, c_flex_before, c_flex_after, modulate)
        self._put(time, FLEET_REBALANCE, payload)


class NullRecorder(Recorder):
    """The disabled recorder: every hook is a no-op.

    Instrumentation sites check :attr:`enabled` (a class attribute,
    False here) before doing any work, so the per-event cost of the
    disabled path is one attribute load and an untaken branch.
    """

    __slots__ = ()

    enabled = False

    def __len__(self) -> int:
        return 0

    def events(self) -> Iterator[TraceEvent]:
        return iter(())


#: The shared disabled recorder — safe to share because it is stateless.
NULL_RECORDER = NullRecorder()


#: Per-kind columns: kind -> (times, payloads) of that kind's events,
#: oldest first.  With the kind of every event in emit order, they give
#: back the whole trace (:func:`iter_events`).
Columns = Mapping[str, Tuple[Sequence[float], Sequence[Payload]]]


def iter_events(
    order: Sequence[str], columns: Columns, kinds: Optional[Container[str]] = None
) -> Iterator[Tuple[float, str, Payload]]:
    """``(time, kind, payload)`` in emit order.  With ``kinds``, only the
    events of those kinds; the others' columns are never read."""
    cursors = {kind: zip(times, payloads) for kind, (times, payloads) in columns.items()}
    selected: Iterable[str] = order
    if kinds is not None:
        selected = compress(order, map(kinds.__contains__, order))
    for kind in selected:
        time, payload = next(cursors[kind])
        yield time, kind, payload


class TraceRecorder(Recorder):
    """Bounded in-memory trace recorder over columns.

    Each event appends its kind to the emit-order column and its time
    and payload to its kind's own pair of columns, so every column of a
    kind holds one layout (:data:`FIELDS`).  When the ring holds
    ``capacity`` events the oldest is evicted and counted in
    :attr:`dropped` (the *tail* of a run is usually the interesting
    part for debugging).

    An optional metrics sink (:class:`~repro.obs.metrics.RunMetrics`)
    sees every recorded event exactly once, per kind in emit order:
    evicted events as they leave the ring, the retained rest in one
    fold per kind when :meth:`fold_metrics` runs — which the sink
    triggers itself before anyone reads it.  Metrics therefore cover
    the whole run even when the ring wraps, without a per-event fold.
    """

    __slots__ = ("_order", "_columns", "_capacity", "_evicted", "_folded", "dropped", "metrics")

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        metrics: Optional["RunMetricsLike"] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._order: Deque[str] = deque()
        self._columns: Dict[str, Tuple[Deque[float], Deque[Payload]]] = {}
        self.dropped = 0
        # Per-kind counts of evicted events (``counts`` adds the ring's).
        self._evicted: Dict[str, int] = {}
        # Per kind, how many of its oldest retained events are folded.
        self._folded: Dict[str, int] = {}
        self.metrics = metrics
        if metrics is not None:
            metrics.attach(self.fold_metrics)

    def _put(self, time: float, kind: str, payload: Payload) -> None:
        order = self._order
        if len(order) == self._capacity:
            self._evict()
        order.append(kind)
        try:
            times, payloads = self._columns[kind]
        except KeyError:
            times, payloads = self._columns.setdefault(kind, (deque(), deque()))
        times.append(time)
        payloads.append(payload)

    def _put_many(self, time: float, kind: str, payloads: Sequence[Payload]) -> None:
        count = len(payloads)
        if not count:
            return  # an empty batch must not open an empty kind column
        order = self._order
        if len(order) + count > self._capacity:
            # The batch would wrap the ring: evict event by event.
            super()._put_many(time, kind, payloads)
            return
        order.extend(repeat(kind, count))
        try:
            times, column = self._columns[kind]
        except KeyError:
            times, column = self._columns.setdefault(kind, (deque(), deque()))
        times.extend(repeat(time, count))
        column.extend(payloads)

    def _evict(self) -> None:
        kind = self._order.popleft()
        times, payloads = self._columns[kind]
        time = times.popleft()
        payload = payloads.popleft()
        self.dropped += 1
        self._evicted[kind] = self._evicted.get(kind, 0) + 1
        folded = self._folded.get(kind, 0)
        if folded:
            self._folded[kind] = folded - 1
        elif self.metrics is not None:
            self.metrics.fold(kind, [time], [payload])

    def fold_metrics(self) -> None:
        """Fold every retained event the metrics sink has not seen: one
        call per kind, with that kind's times and payloads in emit order."""
        metrics = self.metrics
        if metrics is None:
            return
        for kind, (times, payloads) in self._columns.items():
            start = self._folded.get(kind, 0)
            if start == len(times):
                continue
            self._folded[kind] = len(times)
            if start:
                metrics.fold(
                    kind, list(islice(times, start, None)), list(islice(payloads, start, None))
                )
            else:
                metrics.fold(kind, times, payloads)

    def __len__(self) -> int:
        return len(self._order)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def counts(self) -> Dict[str, int]:
        """Events recorded per kind, evicted ones included."""
        counts = dict(self._evicted)
        for kind, (times, _) in self._columns.items():
            counts[kind] = counts.get(kind, 0) + len(times)
        return counts

    def columns(self) -> Tuple[Sequence[str], Columns]:
        """The retained events as ``(order, columns)``: the kind of each
        event, oldest first, and each kind's ``(times, payloads)``
        (read-only; see :func:`iter_events`)."""
        return self._order, self._columns

    def events(self) -> Iterator[TraceEvent]:
        """The retained events as :class:`TraceEvent` views, oldest first."""
        for time, kind, payload in iter_events(self._order, self._columns):
            yield TraceEvent(time, kind, fields_of(kind, payload))

    def event_dicts(self) -> List[Dict[str, object]]:
        """All retained events flattened (the exporters' input)."""
        out: List[Dict[str, object]] = []
        for time, kind, payload in iter_events(self._order, self._columns):
            event: Dict[str, object] = {"t": time, "kind": kind}
            event.update(fields_of(kind, payload))
            out.append(event)
        return out

    def summary(self) -> Dict[str, object]:
        """Small, picklable digest for reports."""
        counts = self.counts
        return {
            "events": len(self),
            "recorded": sum(counts.values()),
            "dropped": self.dropped,
            "by_kind": dict(sorted(counts.items())),
        }


class RunMetricsLike:
    """Structural stand-in for :class:`repro.obs.metrics.RunMetrics`, the
    recorder's metrics-sink protocol.

    Kept here (rather than importing the metrics module) so the trace
    layer has zero dependencies and the type reads in both directions.
    """

    __slots__ = ()

    def attach(self, pending: Callable[[], None]) -> None:  # pragma: no cover
        """Called once by the recorder: ``pending()`` folds every
        recorded event the sink has not seen yet."""
        raise NotImplementedError

    def fold(self, kind: str, times: Sequence[float], payloads: Sequence[Payload]) -> None:
        """Fold one kind's events (in emit order) into the sink."""
        raise NotImplementedError  # pragma: no cover
