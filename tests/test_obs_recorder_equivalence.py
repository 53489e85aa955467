"""The columnar recorder against a dict-per-event reference.

:class:`ReferenceRecorder` is the simplest possible recorder: every hook
builds the flattened event dict, appends it to a bounded deque, and
folds it into a metrics registry on the spot.  Random sequences of all
18 typed hooks plus the generic ``emit`` — at capacities that wrap the
ring and ones that do not — must give the same ``event_dicts()``,
``summary()`` and metrics snapshot from both.  The span builder must
also agree with itself across its two inputs: the recorder's columns
and the parsed JSONL export of the same trace.
"""

import json
from collections import deque

from hypothesis import given, settings, strategies as st

from repro.obs import trace as T
from repro.obs.export import render_trace_jsonl
from repro.obs.metrics import FRESHNESS_EDGES, LATENCY_EDGES, MetricsRegistry, RunMetrics
from repro.obs.spans import build_spans, render_spans_jsonl


class ReferenceRecorder:
    """One dict per event, one metrics fold per emit."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.ring = deque()
        self.dropped = 0
        self.counts = {}
        self.registry = MetricsRegistry()

    def emit(self, time, kind, fields):
        event = {"t": time, "kind": kind}
        event.update(fields)
        if len(self.ring) >= self.capacity:
            self.ring.popleft()
            self.dropped += 1
        self.ring.append(event)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self._observe(kind, time, fields)

    def _observe(self, kind, time, fields):
        reg = self.registry
        if kind == T.QUERY_OUTCOME:
            outcome = str(fields["outcome"])
            reg.counter("repro_query_outcomes_total", {"outcome": outcome}).inc()
            if outcome != "rejected":
                latency, freshness = fields["latency"], fields["freshness"]
                restarts = fields["restarts"]
                if isinstance(latency, (int, float)):
                    reg.histogram("repro_query_latency_seconds", LATENCY_EDGES).observe(
                        float(latency)
                    )
                if isinstance(freshness, (int, float)):
                    reg.histogram("repro_query_freshness_ratio", FRESHNESS_EDGES).observe(
                        float(freshness)
                    )
                if isinstance(restarts, (int, float)) and restarts:
                    reg.counter("repro_query_restarts_total").inc(float(restarts))
        elif kind == T.QUERY_ADMIT:
            reg.counter("repro_query_admitted_total").inc()
        elif kind == T.ADMISSION_DECISION:
            reg.counter("repro_admission_decisions_total", {"reason": str(fields["reason"])}).inc()
        elif kind == T.LOCK_WAIT:
            reg.counter("repro_lock_waits_total").inc()
        elif kind == T.LOCK_PREEMPT:
            reg.counter("repro_lock_preemptions_total").inc()
            if isinstance(fields["victims"], list):
                reg.counter("repro_lock_preempt_victims_total").inc(len(fields["victims"]))
        elif kind == T.UPDATE_APPLY:
            on_demand = "true" if fields["on_demand"] else "false"
            reg.counter("repro_updates_applied_total", {"on_demand": on_demand}).inc()
        elif kind == T.UPDATE_DROP:
            reg.counter("repro_updates_dropped_total").inc()
        elif kind == T.MODULATION_CHANGE:
            direction = str(fields["direction"])
            reg.counter("repro_modulation_changes_total", {"direction": direction}).inc()
        elif kind == T.CONTROL_ALLOCATE:
            dominant = str(fields["dominant"])
            reg.counter("repro_control_allocations_total", {"dominant": dominant}).inc()
        elif kind == T.FAULT_START:
            reg.counter("repro_fault_windows_total", {"fault": str(fields["fault"])}).inc()
        elif kind == T.CONTROL_WINDOW:
            meta = set(T.FIELDS[T.CONTROL_WINDOW])
            for key, value in fields.items():
                if not isinstance(value, (int, float)):
                    continue
                if key == "usm":
                    reg.gauge("repro_usm").set(time, float(value))
                elif key in ("c_flex", "update_load", "degraded_items", "ticket_threshold"):
                    reg.gauge(f"repro_{key}").set(time, float(value))
                elif key not in meta:
                    reg.gauge("repro_usm_component", {"component": key}).set(time, float(value))

    def event_dicts(self):
        return [dict(event) for event in self.ring]

    def summary(self):
        return {
            "events": len(self.ring),
            "recorded": sum(self.counts.values()),
            "dropped": self.dropped,
            "by_kind": dict(sorted(self.counts.items())),
        }

    # -- the typed hooks, as flattened dicts ----------------------------

    def query_admit(self, t, txn, deadline, n_items):
        self.emit(t, T.QUERY_ADMIT, {"txn": txn, "deadline": deadline, "items": n_items})

    def query_outcome(self, t, txn, outcome, arrival, latency, freshness, restarts):
        self.emit(t, T.QUERY_OUTCOME, {
            "txn": txn, "outcome": outcome, "arrival": arrival, "latency": latency,
            "freshness": freshness, "restarts": restarts,
        })

    def sched_enqueue(self, t, txn, cause):
        self.emit(t, T.SCHED_ENQUEUE, {"txn": txn, "cause": cause})

    def sched_dispatch(self, t, txn):
        self.emit(t, T.SCHED_DISPATCH, {"txn": txn})

    def sched_park(self, t, txn):
        self.emit(t, T.SCHED_PARK, {"txn": txn})

    def admission_decision(self, t, txn, admitted, reason, est, endangered, c_flex):
        self.emit(t, T.ADMISSION_DECISION, {
            "txn": txn, "admitted": admitted, "reason": reason, "est": est,
            "endangered": endangered, "c_flex": c_flex,
        })

    def lock_wait(self, t, txn, item, is_update, holders):
        self.emit(t, T.LOCK_WAIT,
                  {"txn": txn, "item": item, "update": is_update, "holders": list(holders)})

    def lock_grant(self, t, txn, item):
        self.emit(t, T.LOCK_GRANT, {"txn": txn, "item": item})

    def lock_preempt(self, t, txn, item, is_update, victims):
        self.emit(t, T.LOCK_PREEMPT,
                  {"txn": txn, "item": item, "update": is_update, "victims": list(victims)})

    def update_apply(self, t, item, txn, on_demand, period):
        self.emit(t, T.UPDATE_APPLY,
                  {"item": item, "txn": txn, "on_demand": on_demand, "period": period})

    def update_drop(self, t, item, period):
        self.emit(t, T.UPDATE_DROP, {"item": item, "period": period})

    def modulation_change(self, t, item, direction, old, new):
        self.emit(t, T.MODULATION_CHANGE,
                  {"item": item, "direction": direction, "old_period": old, "new_period": new})

    def control_allocate(self, t, costs, dominant, signals, usm, samples):
        fields = {"dominant": dominant, "signals": list(signals), "usm": usm, "samples": samples}
        fields.update({f"cost_{key}": value for key, value in sorted(costs.items())})
        self.emit(t, T.CONTROL_ALLOCATE, fields)

    def control_window(self, t, components, usm, samples, signals, c_flex, update_load,
                       degraded_items, ticket_threshold):
        fields = {
            "usm": usm, "samples": samples, "signals": list(signals), "c_flex": c_flex,
            "update_load": update_load, "degraded_items": degraded_items,
            "ticket_threshold": ticket_threshold,
        }
        fields.update(sorted(components.items()))
        self.emit(t, T.CONTROL_WINDOW, fields)

    def fault_start(self, t, label, fault, params):
        fields = {"label": label, "fault": fault}
        fields.update(sorted(params.items()))
        self.emit(t, T.FAULT_START, fields)

    def fault_end(self, t, label, fault):
        self.emit(t, T.FAULT_END, {"label": label, "fault": fault})

    def fleet_route(self, t, txn, shard, policy, candidates, est_freshness, forced):
        self.emit(t, T.FLEET_ROUTE, {
            "txn": txn, "shard": shard, "policy": policy, "candidates": list(candidates),
            "est_freshness": est_freshness, "forced": forced,
        })

    def fleet_rebalance(self, t, shard, flex_factor, before, after, modulate):
        self.emit(t, T.FLEET_REBALANCE, {
            "shard": shard, "flex_factor": flex_factor, "c_flex_before": before,
            "c_flex_after": after, "modulate": modulate,
        })


# -- strategies ---------------------------------------------------------

txns = st.integers(0, 12)
items = st.integers(0, 6)
reals = st.floats(-5.0, 50.0, allow_nan=False)
maybe_real = st.none() | reals
counts = st.integers(0, 4)
flags = st.booleans()
ints = st.lists(txns, max_size=3)
words = st.sampled_from(["LAC", "DU", "UU"])
labels = st.sampled_from(["slow-0", "crowd-1"])
faults = st.sampled_from(["server-slowdown", "flash-crowd"])
components = st.dictionaries(
    st.sampled_from(["S", "R", "F_m", "F_s", "ratio_success"]), reals, max_size=4
)
json_values = st.none() | flags | st.integers(-3, 3) | reals | st.text(max_size=3)

HOOK_ARGS = {
    "query_admit": st.tuples(txns, reals, counts),
    "query_outcome": st.tuples(
        txns, st.sampled_from(["success", "rejected", "dmf", "dsf"]), reals, reals,
        maybe_real, counts,
    ),
    "sched_enqueue": st.tuples(txns, st.sampled_from(T.ENQUEUE_CAUSES)),
    "sched_dispatch": st.tuples(txns),
    "sched_park": st.tuples(txns),
    "admission_decision": st.tuples(
        txns, flags, st.sampled_from(["ok", "est", "flex", ""]), reals, counts, reals
    ),
    "lock_wait": st.tuples(txns, items, flags, ints),
    "lock_grant": st.tuples(txns, items),
    "lock_preempt": st.tuples(txns, items, flags, ints),
    "update_apply": st.tuples(items, txns, flags, reals),
    "update_drop": st.tuples(items, reals),
    "modulation_change": st.tuples(items, st.sampled_from(["degrade", "upgrade"]), reals, reals),
    "control_allocate": st.tuples(
        st.dictionaries(st.sampled_from(["R", "F_m", "F_s"]), reals, max_size=3),
        st.sampled_from(["R", "F_m", "F_s"]), st.lists(words, max_size=2), maybe_real, counts,
    ),
    "control_window": st.tuples(
        components, maybe_real, counts, st.lists(words, max_size=2), reals, reals, counts,
        reals,
    ),
    "fault_start": st.tuples(
        labels, faults,
        st.dictionaries(st.sampled_from(["rate", "multiplier"]), reals, max_size=2),
    ),
    "fault_end": st.tuples(labels, faults),
    "fleet_route": st.tuples(txns, counts, st.sampled_from(["primary", "freshness"]), ints,
                             reals, flags),
    "fleet_rebalance": st.tuples(counts, reals, reals, reals,
                                 st.none() | st.sampled_from(["degrade", "upgrade"])),
}
assert len(HOOK_ARGS) == len(T.ALL_KINDS) == 18

#: Generic ``emit`` calls: a kind outside the catalogue with free-form
#: fields, and catalogued kinds given as complete fields dicts.
EMITS = st.one_of(
    st.tuples(
        st.just("custom.note"),
        st.dictionaries(st.sampled_from(["a", "b", "note"]), json_values, max_size=3),
    ),
    st.builds(lambda item, period: (T.UPDATE_DROP, {"item": item, "period": period}),
              items, reals),
    st.builds(
        lambda usm, comps: (T.CONTROL_WINDOW, {
            "usm": usm, "samples": 3, "signals": [], "c_flex": 1.0, "update_load": 0.5,
            "degraded_items": 2, "ticket_threshold": 0.0, **comps,
        }),
        maybe_real, components,
    ),
)

OPS = st.lists(
    st.one_of(
        *[st.tuples(st.just(name), args) for name, args in HOOK_ARGS.items()],
        st.tuples(st.just("emit"), EMITS),
        st.tuples(st.just("read_metrics"), st.just(())),
    ),
    max_size=60,
)
CAPACITIES = st.one_of(st.integers(1, 12), st.just(T.DEFAULT_CAPACITY))


def _play(ops, deltas, recorder, reference, metrics):
    now = 0.0
    for (name, args), delta in zip(ops, deltas):
        now += delta
        if name == "read_metrics":
            metrics.snapshot()  # a mid-run read must not double-count
        elif name == "emit":
            kind, fields = args
            recorder.emit(now, kind, fields)
            reference.emit(now, kind, dict(fields))
        else:
            getattr(recorder, name)(now, *args)
            getattr(reference, name)(now, *args)


def _canonical(snapshot):
    return json.dumps(snapshot, sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(OPS, st.lists(st.sampled_from([0.0, 0.25, 1.5]), min_size=60, max_size=60),
       CAPACITIES)
def test_columnar_recorder_matches_reference(ops, deltas, capacity):
    metrics = RunMetrics()
    recorder = T.TraceRecorder(capacity=capacity, metrics=metrics)
    reference = ReferenceRecorder(capacity)
    _play(ops, deltas, recorder, reference, metrics)

    assert recorder.event_dicts() == reference.event_dicts()
    assert recorder.summary() == reference.summary()
    assert _canonical(metrics.snapshot()) == _canonical(reference.registry.snapshot())

    from_columns = build_spans(recorder, dropped=recorder.dropped)
    parsed = [json.loads(line) for line in render_trace_jsonl(recorder).splitlines()]
    assert render_spans_jsonl(from_columns) == render_spans_jsonl(build_spans(parsed))
