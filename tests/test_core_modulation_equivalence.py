"""The one-pass modulation control plane against reference copies of
the per-call code it replaced.

* :class:`ReferenceLottery` builds the Fenwick tree by ``n`` point
  updates and descends it with a bounds check per stride; the
  level-wise :meth:`LotteryScheduler.rebuild` must give the same tree
  bit for bit (``float.hex``), and the padded-tree descent the same
  draws.
* :class:`ReferenceModulator` is the per-victim / per-item modulator:
  ``_sample_below_cap`` → ``TicketBook.sample_victim`` →
  ``LotteryScheduler.sample`` per draw, ``DataItem.degrade_period`` /
  ``upgrade_period`` per item, one ``modulation_change`` per event, on
  a :class:`ReferenceTicketBook` that rebuilds with ``max()``.  Random
  ticket/degrade/upgrade/relax sequences must leave the same victims,
  periods, RNG state, lottery tree and trace on both.
* Batched ``modulation_changes`` must leave a (possibly wrapping)
  recorder exactly as per-event ``modulation_change`` calls do.
"""

import math
import random
from typing import List, Optional

from hypothesis import given, settings, strategies as st

from repro.core.lottery import LotteryScheduler
from repro.core.modulation import UpdateFrequencyModulator
from repro.core.tickets import TicketBook
from repro.db.items import DataItem, ItemTable
from repro.obs import trace as T
from repro.obs.metrics import RunMetrics


def _hex(values) -> List[str]:
    return [float(value).hex() for value in values]


class ReferenceLottery:
    """The Fenwick lottery as it was: a bounds-checked ``while`` descent
    and a tree built by one point update per nonzero slot."""

    def __init__(self, n: int) -> None:
        self._n = n
        self._tree = [0.0] * (n + 1)
        self._weights = [0.0] * n
        bit = 1
        while bit << 1 <= n:
            bit <<= 1
        self._top_bit = bit

    @property
    def total(self) -> float:
        total = 0.0
        position = self._n
        while position > 0:
            total += self._tree[position]
            position -= position & (-position)
        return total

    def weights(self) -> List[float]:
        return list(self._weights)

    def set_weight(self, index: int, weight: float) -> None:
        delta = weight - self._weights[index]
        if delta == 0:
            return
        self._weights[index] = weight
        position = index + 1
        while position <= self._n:
            self._tree[position] += delta
            position += position & (-position)

    def sample(self, rng: random.Random) -> Optional[int]:
        tree, n = self._tree, self._n
        total = self.total
        if total <= 0:
            return None
        remaining = rng.random() * total
        position = 0
        bit = self._top_bit
        while bit:
            nxt = position + bit
            if nxt <= n and tree[nxt] < remaining:
                remaining -= tree[nxt]
                position = nxt
            bit >>= 1
        index = min(position, n - 1)
        if self._weights[index] <= 0:
            candidates = [i for i, w in enumerate(self._weights) if w > 0]
            if not candidates:
                return None
            return rng.choice(candidates)
        return index

    def rebuild(self, weights: List[float]) -> None:
        if len(weights) != self._n:
            raise ValueError("weight vector length mismatch")
        if any(weight < 0 for weight in weights):
            raise ValueError("weights must be non-negative")
        self._weights = list(weights)
        self._tree = [0.0] * (self._n + 1)
        for index, weight in enumerate(weights):
            if weight:
                position = index + 1
                while position <= self._n:
                    self._tree[position] += weight
                    position += position & (-position)


def _fenwick(lottery) -> List[str]:
    """The tree's nodes ``1..n`` as hex (the fast tree's +inf probe
    padding past ``n`` is checked separately)."""
    return _hex(lottery._tree[1:lottery._n + 1])


class ReferenceTicketBook(TicketBook):
    def __init__(self, n_items: int) -> None:
        super().__init__(n_items)
        self._lottery = ReferenceLottery(n_items)

    def _rebuild_weights(self) -> None:
        self._lottery.rebuild([max(0.0, t - self._threshold) for t in self._tickets])


class ReferenceModulator(UpdateFrequencyModulator):
    """Degrade and upgrade one method call per victim / item."""

    def degrade(self, rounds: int = 1) -> List[int]:
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        victims: List[int] = []
        escalated = False
        for _ in range(rounds):
            victim = self._sample_below_cap()
            if victim is None:
                if escalated or not self.escalate:
                    break
                if self.tickets.threshold - self.threshold_step < self.escalation_floor:
                    break
                escalated = True
                before = self.tickets.threshold
                if self.tickets.lower_threshold(self.threshold_step) >= before:
                    break
                victim = self._sample_below_cap()
                if victim is None:
                    break
            item = self.items.rows[victim]
            before_period = item.current_period
            item.degrade_period(self.c_du)
            victims.append(victim)
            if self._obs.enabled and self._obs_sim is not None:
                self._obs.modulation_change(
                    self._obs_sim.now, victim, "degrade", before_period, item.current_period
                )
        if victims:
            self.degrade_events += 1
        return victims

    def _sample_below_cap(self, attempts: int = 8) -> Optional[int]:
        for _ in range(attempts):
            victim = self.tickets.sample_victim(self._rng)
            if victim is None:
                return None
            item = self.items.rows[victim]
            if item.current_period < self.max_stretch * item.ideal_period:
                return victim
        return None

    def upgrade_all(self) -> List[int]:
        self.relax_threshold()
        changed: List[int] = []
        for item in [item for item in self.items.rows if item.is_degraded]:
            before = item.current_period
            item.upgrade_period(self.c_uu)
            if item.current_period != before:
                changed.append(item.item_id)
                if self._obs.enabled and self._obs_sim is not None:
                    self._obs.modulation_change(
                        self._obs_sim.now, item.item_id, "upgrade", before, item.current_period
                    )
        if changed:
            self.upgrade_events += 1
        return changed


# ----------------------------------------------------------------------
# Fenwick rebuild
# ----------------------------------------------------------------------

WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 5e-324, 1e300]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(WEIGHTS, min_size=1, max_size=140))
def test_rebuild_matches_point_updates_bit_for_bit(weights):
    fast = LotteryScheduler(len(weights))
    reference = ReferenceLottery(len(weights))
    fast.rebuild(weights)
    reference.rebuild(weights)
    assert _fenwick(fast) == _fenwick(reference)
    assert fast.total.hex() == reference.total.hex()
    padding = fast._tree[len(weights) + 1:]
    assert all(node == math.inf for node in padding)
    assert len(fast._tree) == 2 * fast._strides[0]


@settings(max_examples=200, deadline=None)
@given(st.lists(WEIGHTS, min_size=1, max_size=140), st.integers(0, 2**16),
       st.lists(st.tuples(st.integers(0, 139), WEIGHTS), max_size=20))
def test_sample_matches_reference_descent(weights, seed, updates):
    """Same draws and RNG state from the padded-tree descent, after a
    rebuild and after point updates."""
    fast = LotteryScheduler(len(weights))
    reference = ReferenceLottery(len(weights))
    fast.rebuild(weights)
    reference.rebuild(weights)
    fast_rng, reference_rng = random.Random(seed), random.Random(seed)
    for index, weight in [(None, None)] + updates:
        if index is not None:
            fast.set_weight(index % len(weights), abs(weight))
            reference.set_weight(index % len(weights), abs(weight))
        draws = [fast.sample(fast_rng) for _ in range(20)]
        assert draws == [reference.sample(reference_rng) for _ in range(20)]
        assert fast_rng.getstate() == reference_rng.getstate()
        assert _fenwick(fast) == _fenwick(reference)


def test_rebuild_covers_power_of_two_edges():
    rng = random.Random(5)
    for n in (1, 2, 3, 7, 8, 9, 255, 256, 257, 1023, 1024, 1025):
        weights = [rng.choice([0.0, -0.0, rng.random(), rng.random() * 1e9]) for _ in range(n)]
        fast, reference = LotteryScheduler(n), ReferenceLottery(n)
        fast.rebuild(weights)
        reference.rebuild(weights)
        assert _fenwick(fast) == _fenwick(reference), n


# ----------------------------------------------------------------------
# degrade / upgrade_all
# ----------------------------------------------------------------------


class FakeClock:
    """Stands in for the simulator: the modulator only reads ``now``."""

    def __init__(self) -> None:
        self.now = 0.0


def _system(modulator_cls, book_cls, params, capacity):
    items = ItemTable(
        [
            DataItem(item_id=i, ideal_period=ideal, update_exec_time=1.0,
                     current_period=ideal * start)
            for i, (ideal, start) in enumerate(params["items"])
        ]
    )
    book = book_cls(len(items))
    modulator = modulator_cls(
        items, book, random.Random(params["seed"]), c_du=params["c_du"],
        c_uu=params["c_uu"], max_stretch=params["max_stretch"],
    )
    modulator.escalate = params["escalate"]
    modulator.escalation_floor = params["floor"]
    modulator.threshold_step = params["step"]
    clock = FakeClock()
    recorder = T.TraceRecorder(capacity=capacity) if capacity else T.NULL_RECORDER
    modulator.bind_observer(recorder, clock)
    return modulator, clock, recorder


def _apply(modulator, clock, op):
    kind = op[0]
    if kind == "update":
        modulator.tickets.on_update(op[1] % len(modulator.items), op[2])
    elif kind == "query":
        modulator.tickets.on_query_access(op[1] % len(modulator.items), op[2])
    elif kind == "degrade":
        return modulator.degrade(op[1])
    elif kind == "upgrade":
        return modulator.upgrade_all()
    elif kind == "relax":
        modulator.relax_threshold()
    else:
        clock.now += op[1]
    return None


def _state(modulator):
    return (
        _hex(item.current_period for item in modulator.items.rows),
        modulator._rng.getstate(),
        modulator.tickets.threshold.hex(),
        _fenwick(modulator.tickets.lottery),
        _hex(modulator.tickets.lottery.weights()),
        modulator.degrade_events,
        modulator.upgrade_events,
    )


def _scan(modulator):
    return sum(item.current_period > item.ideal_period for item in modulator.items.rows)


PARAMS = st.fixed_dictionaries(
    {
        "items": st.lists(
            st.tuples(
                st.sampled_from([0.5, 1.0, 3.0, 10.0, 47.5]),
                st.sampled_from([1.0, 1.0, 1.0, 1.5]),  # some start degraded
            ),
            min_size=1, max_size=24,
        ),
        "seed": st.integers(0, 2**16),
        "c_du": st.sampled_from([0.1, 0.5, 1e-17]),  # 1e-17: 1 + c_du == 1.0
        "c_uu": st.sampled_from([0.5, 0.05, 2.0]),
        "max_stretch": st.sampled_from([1.05, 1.3, 2.0, 100.0]),
        "escalate": st.booleans(),
        "floor": st.sampled_from([-1.0, -3.0, -0.2]),
        "step": st.sampled_from([0.5, 0.3]),
    }
)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.integers(0, 23), st.floats(0.1, 5.0)),
        st.tuples(st.just("query"), st.integers(0, 23), st.floats(0.0, 2.0)),
        st.tuples(st.just("degrade"), st.integers(1, 12)),
        st.tuples(st.just("upgrade")),
        st.tuples(st.just("relax")),
        st.tuples(st.just("tick"), st.floats(0.0, 10.0)),
    ),
    max_size=60,
)


def _play(params, ops, capacity):
    fast, fast_clock, fast_rec = _system(
        UpdateFrequencyModulator, TicketBook, params, capacity
    )
    ref, ref_clock, ref_rec = _system(ReferenceModulator, ReferenceTicketBook, params, capacity)
    assert fast.degraded_count() == _scan(fast)
    for op in ops:
        assert _apply(fast, fast_clock, op) == _apply(ref, ref_clock, op)
        assert _state(fast) == _state(ref)
        assert fast.degraded_count() == _scan(fast)
    return fast, ref, fast_rec, ref_rec


@settings(max_examples=300, deadline=None)
@given(PARAMS, OPS, st.sampled_from([0, 5, 64, T.DEFAULT_CAPACITY]))
def test_modulator_matches_reference(params, ops, capacity):
    _, _, fast_rec, ref_rec = _play(params, ops, capacity)
    assert repr(fast_rec.event_dicts() if capacity else []) == repr(
        ref_rec.event_dicts() if capacity else []
    )
    if capacity:
        assert fast_rec.summary() == ref_rec.summary()


def test_reference_sequence_escalates_and_exhausts():
    """A pinned sequence that reaches both rare paths: an exhausted pick
    (fewer victims than rounds) and an escalation step."""
    params = {
        "items": [(10.0, 1.0)] * 6, "seed": 3, "c_du": 0.1, "c_uu": 0.5,
        "max_stretch": 1.3, "escalate": True, "floor": -3.0, "step": 0.5,
    }
    ops = [("update", 0, 1.0), ("query", 1, 0.4), ("query", 2, 0.3), ("query", 3, 2.5)]
    ops += [("degrade", 6), ("tick", 1.0)] * 12 + [("upgrade",), ("degrade", 4)] * 3
    fast, ref, fast_rec, ref_rec = _play(params, ops, T.DEFAULT_CAPACITY)
    assert fast.tickets.threshold < 0.0  # escalated
    assert fast.items.rows[1].is_degraded  # reached a protected item
    assert not fast.items.rows[3].is_degraded  # below the floor: never exposed
    assert repr(fast_rec.event_dicts()) == repr(ref_rec.event_dicts())
    rounds = sum(op[1] for op in ops if op[0] == "degrade")
    assert fast_rec.counts[T.MODULATION_CHANGE] > 0
    assert fast.degrade_events and sum(
        1 for event in fast_rec.event_dicts() if event["direction"] == "degrade"
    ) < rounds  # some picks came up exhausted


@settings(max_examples=200, deadline=None)
@given(PARAMS, OPS)
def test_degraded_count_equals_a_scan(params, ops):
    """O(1) ``degraded_count`` against a scan after every step."""
    modulator, clock, _ = _system(UpdateFrequencyModulator, TicketBook, params, 0)
    for op in ops:
        _apply(modulator, clock, op)
        assert modulator.degraded_count() == _scan(modulator)


# ----------------------------------------------------------------------
# batched trace hook
# ----------------------------------------------------------------------

PAYLOAD = st.tuples(
    st.integers(0, 9), st.sampled_from(["degrade", "upgrade"]),
    st.sampled_from([1.0, 1.1, 2.5]), st.sampled_from([1.0, 1.21, 2.75]),
)
TRACE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), st.floats(0.0, 100.0), st.lists(PAYLOAD, max_size=9)),
        st.tuples(st.just("drop"), st.floats(0.0, 100.0), st.integers(0, 9)),
        st.tuples(st.just("read")),  # fold metrics mid-run
    ),
    max_size=30,
)


def _columns(recorder):
    order, columns = recorder.columns()
    return repr((list(order), {k: (list(t), list(p)) for k, (t, p) in columns.items()}))


@settings(max_examples=300, deadline=None)
@given(TRACE_OPS, st.integers(1, 12))
def test_batched_modulation_changes_match_per_event_puts(ops, capacity):
    batched_metrics, single_metrics = RunMetrics(), RunMetrics()
    batched = T.TraceRecorder(capacity=capacity, metrics=batched_metrics)
    single = T.TraceRecorder(capacity=capacity, metrics=single_metrics)
    for op in ops:
        if op[0] == "batch":
            batched.modulation_changes(op[1], op[2])
            for payload in op[2]:
                single.modulation_change(op[1], *payload)
        elif op[0] == "drop":
            for recorder in (batched, single):
                recorder.update_drop(op[1], op[2], 1.0)
        else:
            assert batched_metrics.snapshot() == single_metrics.snapshot()
    assert _columns(batched) == _columns(single)
    assert batched.dropped == single.dropped
    assert batched.summary() == single.summary()
    assert batched_metrics.snapshot() == single_metrics.snapshot()
