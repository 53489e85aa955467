"""One shard = one complete single-server substrate.

A :class:`ShardSpec` is the picklable, self-contained description of a
shard's run: its (remapped) query and update traces, its config, and
its fault scenario.  A :class:`ShardRun` executes a spec exactly the
way :func:`repro.experiments.runner.run_experiment` executes a config —
same stream derivation, same eager txn-id allocation, same arrival
feeder, same drain and finalize — but sliced into epochs via
``Simulator.run(until=...)`` so a fleet controller can intervene at
epoch boundaries.  A 1-shard spec built from an unmodified config
reproduces the single-server run byte for byte.

Item ids are remapped: a shard hosts a subset of the global item space,
and :class:`~repro.db.items.ItemTable` requires dense ids ``0..m-1``,
so each shard carries its sorted global id list (``global_items``) and
every trace it receives is rewritten into local coordinates.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.admission import FLEX_MAX, FLEX_MIN
from repro.core.unit import UnitPolicy
from repro.core.usm import UsmAccumulator
from repro.db.server import Server, ServerConfig
from repro.db.transactions import Outcome, QueryTransaction
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    SimulationReport,
    _build_recorder,
    _drain_window,
    _export_artifacts,
    _feed_arrivals,
    item_table_from_trace,
    make_policy,
)
from repro.faults.driver import FaultDriver
from repro.faults.metrics import degradation_metrics
from repro.obs.spans import SpanBuildResult, build_spans
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams, derive_seed
from repro.workload.queries import QuerySpec, QueryTrace
from repro.workload.updates import ItemUpdateSpec, UpdateTrace

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.faults.scenario import FaultScenario
    from repro.fleet.controller import Directive
    from repro.fleet.partition import Partition
    from repro.fleet.router import RoutingPlan


@dataclasses.dataclass
class ShardSpec:
    """Everything one shard process needs (picklable)."""

    shard_id: int
    n_shards: int
    config: ExperimentConfig
    global_items: Tuple[int, ...]
    query_trace: QueryTrace
    update_trace: UpdateTrace


class ShardRun:
    """A live shard substrate, steppable in epoch slices."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        config = spec.config
        self._streams = RandomStreams(config.seed)
        self._recorder = _build_recorder(config.obs)
        self.sim = Simulator()
        self.items = item_table_from_trace(spec.update_trace)
        self.policy = make_policy(config, self._streams, recorder=self._recorder)
        self.server = Server(
            self.sim,
            self.items,
            self.policy,
            ServerConfig(freshness_metric=config.build_freshness_metric()),
            recorder=self._recorder,
        )
        # Eager txn-id allocation in trace order: ids are EDF
        # tie-breakers, so allocation order is part of the determinism
        # contract (mirrors run_experiment exactly).
        query_txns = [
            QueryTransaction(
                txn_id=self.server.next_txn_id(),
                arrival=q.arrival,
                exec_time=q.exec_time,
                items=q.items,
                relative_deadline=q.relative_deadline,
                freshness_req=q.freshness_req,
            )
            for q in spec.query_trace.queries
        ]
        _feed_arrivals(
            self.sim, self.server, query_txns, list(spec.update_trace.arrival_events())
        )
        if config.faults is not None and not config.faults.is_empty:
            FaultDriver(config.faults, self.server, self._recorder).install(self.sim)
        self._epoch_counts: Dict[Outcome, int] = {o: 0 for o in Outcome}

    # -- epoch stepping -------------------------------------------------

    def run_to(self, until: float) -> None:
        """Fire every event with time <= ``until`` (idempotent past it)."""
        if until > self.sim.now:
            self.sim.run(until=until)

    def epoch_summary(self) -> Dict[str, object]:
        """Outcome deltas since the previous summary, plus knob state."""
        counts = self.server.outcome_counts
        deltas = {
            o.value: counts[o] - self._epoch_counts[o] for o in Outcome
        }
        self._epoch_counts = dict(counts)
        c_flex: Optional[float] = None
        if isinstance(self.policy, UnitPolicy) and self.policy.admission is not None:
            c_flex = self.policy.admission.c_flex
        return {
            "shard": self.spec.shard_id,
            "time": self.sim.now,
            "deltas": deltas,
            "c_flex": c_flex,
        }

    def apply_directive(self, directive: "Directive") -> bool:
        """Apply a coordinator directive; returns True if anything changed.

        Only the UNIT policy exposes the knobs; baseline policies
        silently ignore directives (the coordinator still observes
        their shards, it just cannot steer them).
        """
        policy = self.policy
        if not isinstance(policy, UnitPolicy):
            return False
        changed = False
        if directive.flex_factor != 1.0 and policy.admission is not None:
            admission = policy.admission
            admission.c_flex = min(
                FLEX_MAX, max(FLEX_MIN, admission.c_flex * directive.flex_factor)
            )
            changed = True
        if directive.modulate == "degrade" and policy.modulator is not None:
            policy.modulator.degrade(1)
            changed = True
        elif directive.modulate == "upgrade" and policy.modulator is not None:
            policy.modulator.upgrade_all()
            changed = True
        return changed

    # -- finalize -------------------------------------------------------

    def drain_until(self) -> float:
        horizon = self.spec.config.scale.horizon
        return horizon + _drain_window(self.spec.query_trace, horizon)

    def finish(self, wall_seconds: float = 0.0) -> SimulationReport:
        """Drain the shard and package its report (mirrors the single-
        server finalize path field for field).

        The caller passes the elapsed wall time: holding a wall-clock
        value on this object would taint the whole substrate instance
        (SF002), whereas ``wall_seconds`` on a report constructor is
        the declared wall-metadata sink.
        """
        spec = self.spec
        config = spec.config
        self.run_to(self.drain_until())
        query_trace = spec.query_trace
        unresolved = len(query_trace.queries) - len(self.server.records)
        if unresolved:
            raise RuntimeError(
                f"shard {spec.shard_id}: {unresolved} of "
                f"{len(query_trace.queries)} queries never resolved; "
                "drain window too short?"
            )

        recorder = self._recorder
        obs_summary: Optional[Dict[str, object]] = None
        obs_metrics: Optional[Dict[str, object]] = None
        obs_events: Optional[List[Dict[str, object]]] = None
        obs_artifacts: Optional[Dict[str, str]] = None
        obs_spans: Optional[Dict[str, object]] = None
        if recorder is not None and config.obs is not None:
            obs_summary = recorder.summary()
            if recorder.metrics is not None:
                obs_metrics = recorder.metrics.registry.snapshot()  # type: ignore[attr-defined]
            if config.obs.keep_events:
                obs_events = recorder.event_dicts()
            span_result: Optional[SpanBuildResult] = None
            if config.obs.spans:
                from repro.obs.attrib import attrib_report

                span_result = build_spans(
                    recorder,
                    dropped=recorder.dropped,
                    shard=spec.shard_id if spec.n_shards > 1 else None,
                )
                obs_spans = {"summary": span_result.summary()}
                obs_spans.update(attrib_report(span_result.spans, config.profile))
            obs_artifacts = _export_artifacts(
                recorder, config.obs, config, span_result=span_result
            )

        degradation: Optional[Dict[str, object]] = None
        if (
            config.faults is not None
            and not config.faults.is_empty
            and config.keep_records
        ):
            degradation = degradation_metrics(
                self.server.records, config.profile, config.faults, config.scale.horizon
            )

        accumulator = UsmAccumulator.from_counts(
            config.profile, self.server.outcome_counts
        )
        totals = self.items.totals()
        return SimulationReport(
            config=config,
            policy_name=self.policy.describe(),
            outcome_counts=dict(self.server.outcome_counts),
            queries_submitted=self.server.queries_submitted,
            usm=accumulator.average_usm(),
            total_usm=accumulator.total_usm(),
            ratios=accumulator.ratios(),
            components=accumulator.components(),
            update_arrivals=totals["arrivals"],
            updates_executed=totals["executed"],
            updates_dropped=totals["dropped"],
            query_access_counts=query_trace.access_counts(),
            update_counts_original=spec.update_trace.per_item_counts(),
            update_counts_executed=[item.updates_executed for item in self.items],
            busy_by_class=self.server.busy_time_by_class(),
            wall_seconds=wall_seconds,
            events_fired=self.sim.events_fired,
            records=list(self.server.records) if config.keep_records else None,
            degradation=degradation,
            obs_summary=obs_summary,
            obs_metrics=obs_metrics,
            obs_events=obs_events,
            obs_artifacts=obs_artifacts,
            obs_spans=obs_spans,
        )


def build_shard_specs(
    base: ExperimentConfig,
    partition: "Partition",
    plan: "RoutingPlan",
    query_trace: QueryTrace,
    update_trace: UpdateTrace,
    replica_lag: float = 5.0,
    shard_faults: Optional[Dict[int, "FaultScenario"]] = None,
) -> List[ShardSpec]:
    """Split the global workload into one self-contained spec per shard.

    The 1-shard case is the identity: the spec carries the base config,
    the base seed, and the untouched traces, so its run is
    byte-identical to the single-server runner.  With N > 1 each shard
    gets a derived seed (disjoint policy streams per shard), a scale
    whose ``n_items`` matches its hosted subset, and traces rewritten
    into local item coordinates; replica items receive a copy of the
    primary's update stream delayed by ``replica_lag`` (replication is
    real CPU work, not bookkeeping).
    """
    n_shards = partition.n_shards
    if n_shards == 1:
        return [
            ShardSpec(
                shard_id=0,
                n_shards=1,
                config=base,
                global_items=tuple(range(partition.n_items)),
                query_trace=query_trace,
                update_trace=update_trace,
            )
        ]

    specs: List[ShardSpec] = []
    update_by_id = {item.item_id: item for item in update_trace.items}
    for shard in range(n_shards):
        extra = plan.extra_hosts.get(shard, [])
        hosted = sorted(set(partition.hosted_items(shard)).union(extra))
        local_of = {g: local for local, g in enumerate(hosted)}

        shard_updates: List[ItemUpdateSpec] = []
        for g in hosted:
            item = update_by_id[g]
            if partition.primary[g] == shard:
                shard_updates.append(dataclasses.replace(item, item_id=local_of[g]))
            else:
                # Replica stream: same counts and period, lag-delayed.
                shard_updates.append(
                    dataclasses.replace(
                        item, item_id=local_of[g], phase=item.phase + replica_lag
                    )
                )
        shard_update_trace = UpdateTrace(
            name=update_trace.name,
            horizon=update_trace.horizon,
            items=shard_updates,
            target_utilization=update_trace.target_utilization,
        )

        shard_queries: List[QuerySpec] = [
            dataclasses.replace(
                query, items=tuple(local_of[item] for item in query.items)
            )
            for query, assigned in zip(query_trace.queries, plan.assignments)
            if assigned == shard
        ]
        shard_query_trace = QueryTrace(
            name=query_trace.name,
            horizon=query_trace.horizon,
            n_items=len(hosted),
            queries=shard_queries,
        )

        faults = base.faults
        if shard_faults is not None and shard in shard_faults:
            faults = shard_faults[shard]  # type: ignore[assignment]
        config = dataclasses.replace(
            base,
            seed=derive_seed(base.seed, f"fleet-shard-{shard}"),
            scale=dataclasses.replace(base.scale, n_items=len(hosted)),
            faults=faults,
        )
        specs.append(
            ShardSpec(
                shard_id=shard,
                n_shards=n_shards,
                config=config,
                global_items=tuple(hosted),
                query_trace=shard_query_trace,
                update_trace=shard_update_trace,
            )
        )
    return specs
