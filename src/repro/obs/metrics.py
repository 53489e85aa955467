"""Metrics registry: counters, gauges, histograms with fixed buckets.

Instruments are keyed by ``(name, frozen label tuple)`` so a family
like ``repro_query_outcomes_total`` fans out per ``outcome=...`` label
without string formatting on the hot path.  Gauges sample into the
existing :class:`repro.sim.stats.TimeSeries` and histograms fold their
observations into :class:`repro.sim.stats.OnlineStats`, so the obs
layer reuses the simulator's own statistics machinery rather than
growing a parallel one.

:class:`RunMetrics` is the domain-level sink: it owns a registry and
knows how to fold each trace-event kind (see :mod:`repro.obs.trace`)
into the right instruments.  The trace recorder hands it each kind's
columns in emit order — evicted events as they leave the ring, the
rest before the registry is read — so metrics cover the whole run even
when the trace ring buffer wraps, at no per-event cost.
"""

from __future__ import annotations

import bisect
import collections
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs import trace as _trace
from repro.sim.stats import OnlineStats, TimeSeries

#: Frozen label set: sorted ``(key, value)`` pairs.
LabelTuple = Tuple[Tuple[str, str], ...]

#: Fixed bucket edges for query latency (seconds).  Chosen around the
#: calibrated mean query service time (~50 ms) and typical deadlines.
LATENCY_EDGES: Tuple[float, ...] = (
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Fixed bucket edges for freshness (a ratio in [0, 1]).
FRESHNESS_EDGES: Tuple[float, ...] = (
    0.1,
    0.2,
    0.3,
    0.4,
    0.5,
    0.6,
    0.7,
    0.8,
    0.9,
    0.95,
    1.0,
)


def freeze_labels(labels: Optional[Mapping[str, str]]) -> LabelTuple:
    """Canonicalize a label mapping to a hashable, sorted tuple."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelTuple) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def as_dict(self) -> Dict[str, object]:
        return {"value": self.value}


class Gauge:
    """Point-in-time value, sampled into a :class:`TimeSeries`.

    ``set`` takes the *sim* time of the sample so the series doubles as
    a plottable trajectory (e.g. USM per controller window).
    """

    __slots__ = ("name", "labels", "series")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelTuple) -> None:
        self.name = name
        self.labels = labels
        self.series = TimeSeries(name=name)

    def set(self, time: float, value: float) -> None:
        self.series.append(time, value)

    @property
    def value(self) -> float:
        last = self.series.last()
        return last[1] if last is not None else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "value": self.value,
            "samples": len(self.series),
            "mean": self.series.mean(),
        }


class Histogram:
    """Fixed-bucket histogram plus streaming moments.

    ``edges`` are the inclusive upper bounds of the finite buckets; one
    implicit ``+Inf`` bucket catches the overflow.  The running
    count/mean/min/max come from an :class:`OnlineStats`.
    """

    __slots__ = ("name", "labels", "edges", "bucket_counts", "stats", "total")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelTuple, edges: Tuple[float, ...]) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError("edges must be a non-empty ascending sequence")
        self.name = name
        self.labels = labels
        self.edges = edges
        self.bucket_counts = [0] * (len(edges) + 1)
        self.stats = OnlineStats()
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.edges, value)] += 1
        self.stats.add(value)
        self.total += value

    def cumulative(self) -> List[int]:
        """Cumulative counts per ``le`` edge (Prometheus semantics)."""
        out: List[int] = []
        running = 0
        for count in self.bucket_counts:
            running += count
            out.append(running)
        return out

    def as_dict(self) -> Dict[str, object]:
        stats = self.stats
        return {
            "count": stats.count,
            "sum": self.total,
            "mean": stats.mean,
            "min": stats.minimum if stats.count else None,
            "max": stats.maximum if stats.count else None,
            "edges": list(self.edges),
            "buckets": list(self.bucket_counts),
        }


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create home for every instrument in a run."""

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelTuple], Instrument] = {}

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        key = (name, freeze_labels(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = Counter(name, key[1])
            self._instruments[key] = inst
        elif not isinstance(inst, Counter):
            raise TypeError(f"{name} already registered as {inst.kind}")
        return inst

    def gauge(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Gauge:
        key = (name, freeze_labels(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = Gauge(name, key[1])
            self._instruments[key] = inst
        elif not isinstance(inst, Gauge):
            raise TypeError(f"{name} already registered as {inst.kind}")
        return inst

    def histogram(
        self,
        name: str,
        edges: Tuple[float, ...],
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        key = (name, freeze_labels(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = Histogram(name, key[1], tuple(edges))
            self._instruments[key] = inst
        elif not isinstance(inst, Histogram):
            raise TypeError(f"{name} already registered as {inst.kind}")
        elif inst.edges != tuple(edges):
            raise ValueError(f"{name} already registered with different edges")
        return inst

    def __len__(self) -> int:
        return len(self._instruments)

    def instruments(self) -> Iterable[Instrument]:
        """All instruments in deterministic (name, labels) order."""
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def snapshot(self) -> Dict[str, object]:
        """Deterministic, JSON-friendly dump of every instrument."""
        out: Dict[str, object] = {}
        for inst in self.instruments():
            label_part = ",".join(f"{k}={v}" for k, v in inst.labels)
            key = f"{inst.name}{{{label_part}}}" if label_part else inst.name
            entry = inst.as_dict()
            entry["kind"] = inst.kind
            out[key] = entry
        return out


#: One kind's payloads, in emit order.
Payloads = Sequence[_trace.Payload]


def _count_by(reg: MetricsRegistry, name: str, label: str, values: List[object]) -> None:
    """One counter per distinct label value, incremented by its count."""
    counts = collections.Counter(values)
    if any(type(value) is not str for value in counts):
        # 1, 1.0 and True share a Counter key but label as three values.
        counts = collections.Counter(map(str, values))
    for value, count in counts.items():
        reg.counter(name, {label: str(value)}).inc(float(count))


def _fold_outcomes(reg: MetricsRegistry, times: Sequence[float], payloads: Payloads) -> None:
    outcomes: Dict[str, int] = {}
    latency_hist: Optional[Histogram] = None
    freshness_hist: Optional[Histogram] = None
    restarts_total: Optional[Counter] = None
    for payload in payloads:
        outcome = str(payload[1])
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if outcome == "rejected":
            continue
        latency, freshness, restarts = payload[3:6]
        if isinstance(latency, (int, float)):
            if latency_hist is None:
                latency_hist = reg.histogram("repro_query_latency_seconds", LATENCY_EDGES)
            latency_hist.observe(float(latency))
        if isinstance(freshness, (int, float)):
            if freshness_hist is None:
                freshness_hist = reg.histogram("repro_query_freshness_ratio", FRESHNESS_EDGES)
            freshness_hist.observe(float(freshness))
        if isinstance(restarts, (int, float)) and restarts:
            if restarts_total is None:
                restarts_total = reg.counter("repro_query_restarts_total")
            restarts_total.inc(float(restarts))
    for outcome, count in outcomes.items():
        reg.counter("repro_query_outcomes_total", {"outcome": outcome}).inc(float(count))


def _fold_preempts(reg: MetricsRegistry, times: Sequence[float], payloads: Payloads) -> None:
    reg.counter("repro_lock_preemptions_total").inc(float(len(payloads)))
    victims = [len(payload[3]) for payload in payloads if isinstance(payload[3], list)]
    if victims:
        reg.counter("repro_lock_preempt_victims_total").inc(float(sum(victims)))


#: ``control.window`` knob fields gauged as ``repro_<name>`` (payload
#: slots 3-6); slot 0 is the USM, the trailing pairs the components.
_WINDOW_KNOBS = ("c_flex", "update_load", "degraded_items", "ticket_threshold")


def _fold_windows(reg: MetricsRegistry, times: Sequence[float], payloads: Payloads) -> None:
    gauges: Dict[Tuple[str, Optional[str]], Gauge] = {}

    def gauge(name: str, component: Optional[str] = None) -> Gauge:
        found = gauges.get((name, component))
        if found is None:
            labels = None if component is None else {"component": component}
            found = gauges[name, component] = reg.gauge(name, labels)
        return found

    for time, payload in zip(times, payloads):
        usm = payload[0]
        if isinstance(usm, (int, float)):
            gauge("repro_usm").set(time, float(usm))
        for key, value in zip(_WINDOW_KNOBS, payload[3:7]):
            if isinstance(value, (int, float)):
                gauge(f"repro_{key}").set(time, float(value))
        for key, value in payload[-1]:  # type: ignore[union-attr]
            if isinstance(value, (int, float)):
                gauge("repro_usm_component", key).set(time, float(value))


def _counter(name: str) -> Callable[..., None]:
    def fold(reg: MetricsRegistry, times: Sequence[float], payloads: Sequence[object]) -> None:
        reg.counter(name).inc(float(len(payloads)))

    return fold


def _labelled(name: str, label: str, slot: int) -> Callable[..., None]:
    def fold(reg: MetricsRegistry, times: Sequence[float], payloads: Sequence[object]) -> None:
        _count_by(reg, name, label, list(map(itemgetter(slot), payloads)))

    return fold


def _fold_applies(reg: MetricsRegistry, times: Sequence[float], payloads: Payloads) -> None:
    on_demand: List[object] = ["true" if payload[2] else "false" for payload in payloads]
    _count_by(reg, "repro_updates_applied_total", "on_demand", on_demand)


#: The fold of each kind that feeds a metric; other kinds are ignored.
_FOLDS: Dict[str, Callable[..., None]] = {
    _trace.QUERY_OUTCOME: _fold_outcomes,
    _trace.QUERY_ADMIT: _counter("repro_query_admitted_total"),
    _trace.ADMISSION_DECISION: _labelled("repro_admission_decisions_total", "reason", 2),
    _trace.LOCK_WAIT: _counter("repro_lock_waits_total"),
    _trace.LOCK_PREEMPT: _fold_preempts,
    _trace.UPDATE_APPLY: _fold_applies,
    _trace.UPDATE_DROP: _counter("repro_updates_dropped_total"),
    _trace.MODULATION_CHANGE: _labelled("repro_modulation_changes_total", "direction", 1),
    _trace.CONTROL_ALLOCATE: _labelled("repro_control_allocations_total", "dominant", 0),
    _trace.FAULT_START: _labelled("repro_fault_windows_total", "fault", 1),
    _trace.CONTROL_WINDOW: _fold_windows,
}


class RunMetrics:
    """Fold trace columns into a metrics registry.

    Passed to :class:`repro.obs.trace.TraceRecorder` as its ``metrics``
    sink; every recorded event is folded exactly once, per kind in emit
    order.  Reading :attr:`registry` (or :meth:`snapshot`) first folds
    whatever the recorder still holds unfolded.
    """

    __slots__ = ("_registry", "_pending")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry if registry is not None else MetricsRegistry()
        self._pending: Optional[Callable[[], None]] = None

    def attach(self, pending: Callable[[], None]) -> None:
        """Called by the recorder: ``pending()`` folds its unfolded events."""
        self._pending = pending

    @property
    def registry(self) -> MetricsRegistry:
        """The registry, with every recorded event folded in."""
        if self._pending is not None:
            self._pending()
        return self._registry

    def fold(self, kind: str, times: Sequence[float], payloads: Payloads) -> None:
        """Fold one kind's events, given in emit order."""
        fold = _FOLDS.get(kind)
        if fold is not None and payloads:
            fold(self._registry, times, payloads)

    def observe_event(self, event: _trace.TraceEvent) -> None:
        """Fold a single hand-built event."""
        self.fold(event.kind, [event.time], [_trace.to_payload(event.kind, event.fields)])

    def snapshot(self) -> Dict[str, object]:
        return self.registry.snapshot()
