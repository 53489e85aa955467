"""Layer spans recorded from benchmark code.

A :class:`SpanStore` replaces the public functions of each ``repro``
layer (see :data:`LAYERS`) with thin wrappers that record one span per
call: function name, start, end, parent span and run id.  Nothing under
``src/`` changes; the wrappers are installed on the classes and modules
before a run builds its policy and server (``Server.__init__`` and
``UnitPolicy.bind`` pre-bind methods, so later patching would miss
them) and removed afterwards.

Spans live in flat ``array`` columns in memory and are written out when
the run ends.  :func:`rollup` turns them into a per-layer table of
calls, inclusive time and self time (a span's duration minus the part
its child spans cover); the self times plus the uncovered remainder
add up to the wall time of the traced run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclasses.dataclass(frozen=True)
class Layer:
    """One layer of the program: the calls that enter it and the
    end-to-end metric a change to it should move."""

    name: str
    targets: Tuple[str, ...]  # "module:Class.attr" or "module:function"
    moves: str


#: The layers, outermost first.  A module-level function that another
#: module imported by name is patched where it is looked up.
LAYERS: Tuple[Layer, ...] = (
    Layer(
        "workload",
        (
            "repro.experiments.runner:get_workload",
            "repro.fleet.runner:get_workload",
        ),
        "setup_s on every workload",
    ),
    Layer(
        "sim",
        ("repro.sim.engine:Simulator.run",),
        "events_per_s, most on baselines-paper",
    ),
    Layer(
        "db.server",
        (
            "repro.db.server:Server.submit_query",
            "repro.db.server:Server.source_update_run",
            "repro.db.server:Server.source_update_arrival",
            "repro.db.server:Server._complete",
            "repro.db.server:Server._deadline_abort",
        ),
        "events_per_s on baselines-paper and unit-paper",
    ),
    Layer(
        "db.ready_queue",
        tuple(
            f"repro.db.ready_queue:ReadyQueue.{attr}"
            for attr in (
                "push",
                "pop",
                "remove",
                "peek",
                "ready_updates",
                "ready_queries",
                "update_backlog",
                "query_backlog",
                "query_backlog_before",
                "query_backlog_ahead_of",
                "backlog_ahead_of",
            )
        ),
        "wall_s on unit-paper (EST) and baselines-paper (IMU update churn)",
    ),
    Layer(
        "db.locks",
        tuple(
            f"repro.db.locks:LockManager.{attr}"
            for attr in ("request", "release_all", "cancel_wait")
        ),
        "wall_s on baselines-paper",
    ),
    Layer(
        "core.admission",
        ("repro.core.admission:AdmissionController.decide",),
        "wall_s on unit-paper; no change on baselines-paper",
    ),
    Layer(
        "core.modulation",
        tuple(
            f"repro.core.modulation:UpdateFrequencyModulator.{attr}"
            for attr in ("degrade", "upgrade_all", "relax_threshold")
        ),
        "wall_s on unit-paper; no change on baselines-paper",
    ),
    Layer(
        "core.lottery",
        tuple(
            f"repro.core.lottery:LotteryScheduler.{attr}"
            for attr in ("sample", "rebuild", "set_weight", "add_weight")
        ),
        "wall_s on unit-paper; no change on baselines-paper",
    ),
    Layer(
        "core.tickets",
        tuple(
            f"repro.core.tickets:TicketBook.{attr}"
            for attr in (
                "on_query_access",
                "on_update",
                "lower_threshold",
                "raise_threshold",
            )
        ),
        "wall_s on unit-paper; no change on baselines-paper",
    ),
    Layer(
        "core.usm",
        tuple(
            f"repro.core.usm:UsmWindow.{attr}"
            for attr in (
                "record",
                "average_usm",
                "sample_size",
                "ratios",
                "cost_components",
                "raw_failure_ratios",
            )
        ),
        "wall_s on unit-paper",
    ),
    Layer(
        "core.controller",
        (
            "repro.core.controller:LoadBalancingController.check_drop",
            "repro.core.controller:LoadBalancingController.allocate",
            "repro.core.unit:UnitPolicy._control_tick",
        ),
        "wall_s on unit-paper",
    ),
    Layer(
        "obs.trace",
        tuple(
            f"repro.obs.trace:TraceRecorder.{attr}"
            for attr in (
                "query_admit",
                "query_outcome",
                "sched_enqueue",
                "sched_dispatch",
                "sched_park",
                "admission_decision",
                "lock_wait",
                "lock_grant",
                "lock_preempt",
                "update_apply",
                "update_drop",
                "modulation_change",
                "control_allocate",
                "control_window",
                "fault_start",
                "fault_end",
                "fleet_route",
                "fleet_rebalance",
            )
        ),
        "wall_s and events_per_s on unit-paper-traced; no change on unit-paper",
    ),
    Layer(
        "obs.spans",
        (
            "repro.experiments.runner:build_spans",
            "repro.fleet.substrate:build_spans",
        ),
        "wall_s on unit-paper-traced; no change on unit-paper",
    ),
    Layer(
        "obs.attrib",
        ("repro.obs.attrib:attrib_report",),
        "wall_s on unit-paper-traced; no change on unit-paper",
    ),
    Layer("fleet.route", ("repro.fleet.runner:route_queries",), "wall_s on fleet-paper"),
    Layer("fleet.specs", ("repro.fleet.runner:build_shard_specs",), "wall_s on fleet-paper"),
    Layer(
        "fleet.procs",
        (
            "repro.fleet.procs:ShardProcessPool.run_epoch",
            "repro.fleet.procs:ShardProcessPool.finish",
        ),
        "wall_s on fleet-paper (the slowest shard sets each epoch's wait)",
    ),
    Layer(
        "fleet.controller",
        ("repro.fleet.controller:GlobalCoordinator.plan",),
        "wall_s on fleet-paper",
    ),
    Layer("fleet.report", ("repro.fleet.runner:merge_reports",), "wall_s on fleet-paper"),
)

#: Root rows of the table: time inside no layer span.
UNCOVERED = "(uncovered)"


def _count_lock_result(counters: Counter, result: object) -> None:
    status = result.status.value  # type: ignore[attr-defined]
    if status == "blocked":
        counters["db.locks.waits"] += 1
    elif status == "conflict":
        counters["db.locks.preempts"] += 1


def _count_decision(counters: Counter, result: object) -> None:
    if not result.admitted:  # type: ignore[attr-defined]
        counters["core.admission.rejects"] += 1


def _count_victims(counters: Counter, result: object) -> None:
    counters["core.modulation.victims"] += len(result)  # type: ignore[arg-type]


#: Counts read from a wrapped call's return value.
OBSERVERS: Dict[str, Callable[[Counter, object], None]] = {
    "repro.db.locks:LockManager.request": _count_lock_result,
    "repro.core.admission:AdmissionController.decide": _count_decision,
    "repro.core.modulation:UpdateFrequencyModulator.degrade": _count_victims,
}


def _resolve(target: str) -> Tuple[object, str]:
    """The object holding ``target``'s attribute, and the attribute name."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if not hasattr(owner, attr):
        raise AttributeError(f"layer target {target} does not exist")
    return owner, attr


class SpanStore:
    """In-memory span columns plus the patches that fill them."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_ids = array("H")
        self.parents = array("l")
        self.runs = array("h")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Counter = Counter()
        self.run_id = [0]  # one-slot cell read by every wrapper
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[object, str, object, bool]] = []

    def __len__(self) -> int:
        return len(self.starts)

    # -- recording ------------------------------------------------------

    def _wrap(self, fn: Callable, name_id: int, observe: Optional[Callable]) -> Callable:
        name_ids = self.name_ids
        parents = self.parents
        runs = self.runs
        starts = self.starts
        ends = self.ends
        stack = self._stack
        run_id = self.run_id
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):  # type: ignore[no-untyped-def]
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            runs.append(run_id[0])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, result)
            return result

        return span

    def install(self, layers: Iterable[Layer] = LAYERS) -> None:
        """Patch every layer target; call before building the server."""
        if self._patches:
            raise RuntimeError("span wrappers are already installed")
        for layer in layers:
            for target in layer.targets:
                owner, attr = _resolve(target)
                own = isinstance(owner, type) and attr in owner.__dict__
                original = owner.__dict__[attr] if own else getattr(owner, attr)
                name_id = len(self.names)
                self.names.append(target)
                self.patch(owner, attr, self._wrap(
                    getattr(owner, attr), name_id, OBSERVERS.get(target)
                ), original, own or not isinstance(owner, type))

    def patch(self, owner: object, attr: str, value: object,
              original: object, restore: bool = True) -> None:
        """Set ``owner.attr`` until :meth:`uninstall`; ``restore=False``
        deletes it then (an attribute the class only inherited)."""
        self._patches.append((owner, attr, original, restore))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original, restore = self._patches.pop()
            if restore:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def reset(self) -> None:
        """Drop recorded spans and counts, keeping the wrappers (which
        hold the column objects) in place."""
        for column in (self.name_ids, self.parents, self.runs, self.starts, self.ends):
            del column[:]
        self.counters.clear()
        del self._stack[1:]

    # -- output ---------------------------------------------------------

    def save(self, path: Path, meta: Dict[str, object]) -> None:
        """Write a JSON header line, then the raw span columns."""
        header = dict(meta)
        header.update(
            names=self.names,
            spans=len(self),
            counters=dict(self.counters),
            columns=[[key, column.typecode] for key, column in self._columns()],
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for _, column in self._columns():
                column.tofile(handle)

    def _columns(self) -> List[Tuple[str, array]]:
        return [
            ("name", self.name_ids),
            ("parent", self.parents),
            ("run", self.runs),
            ("start", self.starts),
            ("end", self.ends),
        ]

    @classmethod
    def load(cls, path: Path) -> Tuple["SpanStore", Dict[str, object]]:
        """Read a file written by :meth:`save` (spans and counts only)."""
        store = cls()
        with path.open("rb") as handle:
            header = json.loads(handle.readline())
            store.names = list(header["names"])
            store.counters.update(header["counters"])
            for key, column in store._columns():
                column.fromfile(handle, header["spans"])
        return store, header


def hook_shard_workers(store: SpanStore, directory: Path, stem: str) -> None:
    """Make each fleet shard process save its own spans when it ends.

    Shard processes are forked, so they inherit the installed wrappers
    and a copy of the store; each clears its copy on start and writes
    ``<stem>.shard<N>.spans`` with its own wall time on exit.
    """
    owner, attr = _resolve("repro.fleet.procs:_shard_worker")
    worker = getattr(owner, attr)

    def shard_worker(conn: object, spec: object) -> None:
        shard = spec.shard_id  # type: ignore[attr-defined]
        store.reset()
        store.run_id[0] = shard
        started = time.perf_counter()
        try:
            worker(conn, spec)
        finally:
            store.save(
                directory / f"{stem}.shard{shard}.spans",
                {
                    "process": f"shard{shard}",
                    "seed": spec.config.seed,  # type: ignore[attr-defined]
                    "wall_s": time.perf_counter() - started,
                },
            )

    store.patch(owner, attr, shard_worker, worker)


@dataclasses.dataclass
class LayerRow:
    calls: int = 0
    total_s: float = 0.0  # inclusive time not already inside this layer
    self_s: float = 0.0


def rollup(store: SpanStore, wall_s: float) -> Dict[str, LayerRow]:
    """Per-layer calls, inclusive and self time, plus the uncovered row.

    The self times of all rows, uncovered included, sum to ``wall_s``.
    """
    layer_of = {
        target: layer.name for layer in LAYERS for target in layer.targets
    }
    span_layer = [layer_of[name] for name in store.names]
    name_ids = store.name_ids
    parents = store.parents
    durations = [end - start for start, end in zip(store.starts, store.ends)]
    covered = [0.0] * len(durations)
    root_s = 0.0
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[index]
        else:
            root_s += durations[index]
    rows: Dict[str, LayerRow] = {layer.name: LayerRow() for layer in LAYERS}
    for index, duration in enumerate(durations):
        layer = span_layer[name_ids[index]]
        row = rows[layer]
        row.calls += 1
        row.self_s += duration - covered[index]
        parent = parents[index]
        if parent < 0 or span_layer[name_ids[parent]] != layer:
            row.total_s += duration
    rows[UNCOVERED] = LayerRow(calls=0, total_s=wall_s - root_s, self_s=wall_s - root_s)
    return rows


def format_table(title: str, rows: Dict[str, LayerRow], wall_s: float) -> str:
    """The per-layer table, with each row's share of ``wall_s``."""
    moves = {layer.name: layer.moves for layer in LAYERS}
    lines = [
        title,
        f"  {'layer':<18}{'calls':>10}{'total_s':>11}{'self_s':>11}{'self%':>7}  moves",
    ]
    for name, row in rows.items():
        if not row.calls and name != UNCOVERED:
            continue
        share = 100.0 * row.self_s / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"  {name:<18}{row.calls:>10}{row.total_s:>11.4f}{row.self_s:>11.4f}"
            f"{share:>6.1f}%  {moves.get(name, '')}"
        )
    self_sum = sum(row.self_s for row in rows.values())
    lines.append(f"  {'sum of self_s':<39}{self_sum:>11.4f}   (wall_s {wall_s:.4f})")
    return "\n".join(lines)
