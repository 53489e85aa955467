"""The benchmark's workloads: what each runs, how a run is timed, and the
checks every run's output must pass.

Every workload starts from the paper-scale UNIT configuration (1024
items, 3000 s horizon, naive penalty profile, ``med-unif`` updates);
the seed and the scale preset are arguments.  A *pass* runs the
workload's simulations once on each of its inputs; an *operation* is
one simulation run (a fleet run is one, ``baselines-paper`` has three
per input).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import signal
import sys
import time
import traceback
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.usm import PenaltyProfile
from repro.db.transactions import Outcome
from repro.experiments.config import ExperimentConfig, build_experiment
from repro.experiments.report import stable_report_digest
from repro.experiments.runner import SimulationReport, run_experiment
from repro.fleet.runner import FleetConfig, run_fleet
from repro.obs.config import ObsConfig
from repro.sim.rng import derive_seed
from repro.workload.cache import default_cache, get_workload

#: Trace ring size for the traced workload.  A paper-scale UNIT run
#: records about 600k events; the default ``ObsConfig.capacity``
#: (262,144) would drop more than half of them and leave spans and
#: attribution partial.
TRACE_CAPACITY = 4_000_000

#: Policies that refresh items on demand (ODU's mechanism, QMF's for
#: its flexible items): their executed updates include refreshes no
#: arrival backs.
ON_DEMAND_POLICIES = frozenset({"odu", "qmf"})

#: Longest one simulation run may take before it counts as failed.
RUN_TIME_LIMIT_S = 60.0


class CheckFailed(Exception):
    """A run's output broke one of the benchmark's output checks."""


class RunTimeout(Exception):
    """A run overran :data:`RUN_TIME_LIMIT_S`."""


@contextlib.contextmanager
def time_limit(seconds: float) -> Iterator[None]:
    """Raise :class:`RunTimeout` in the body after ``seconds``.

    SIGALRM interrupts blocking pipe reads too, so a hung shard process
    cannot hang the benchmark; the fleet pool's ``finally`` then reaps
    its workers.
    """

    def expire(signum: int, frame: object) -> None:
        raise RunTimeout(f"run exceeded its {seconds:.0f} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def input_seeds(seed: int, inputs: int) -> List[int]:
    """``seed`` itself, then ``inputs - 1`` independent seeds derived
    from it (so input 0 is the plain single-seed run).  Every input is
    a full paper-scale workload of its own."""
    return [seed] + [derive_seed(seed, f"ledgerbench-input-{i}") for i in range(1, inputs)]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_report(
    report: SimulationReport,
    expected_queries: int,
    expected_arrivals: Optional[int],
    where: str,
) -> None:
    """Outcome counts, USM and update accounting agree with each other
    and with the input (``expected_arrivals`` None: not known exactly)."""
    counts = report.outcome_counts
    total = sum(counts.values())
    _require(
        total == report.queries_submitted,
        f"{where}: outcome counts sum to {total}, "
        f"queries_submitted is {report.queries_submitted}",
    )
    _require(
        report.queries_submitted == expected_queries,
        f"{where}: {report.queries_submitted} queries submitted, "
        f"{expected_queries} expected",
    )
    profile: PenaltyProfile = report.config.profile
    components = {
        "S": counts[Outcome.SUCCESS] / total * profile.gain,
        "R": counts[Outcome.REJECTED] / total * profile.c_r,
        "F_m": counts[Outcome.DEADLINE_MISS] / total * profile.c_fm,
        "F_s": counts[Outcome.DATA_STALE] / total * profile.c_fs,
    }
    _require(
        report.components == components,
        f"{where}: components {report.components} != {components} from counts",
    )
    usm = components["S"] - components["R"] - components["F_m"] - components["F_s"]
    _require(
        abs(report.usm - usm) <= 1e-12,
        f"{where}: usm {report.usm!r} != S-R-F_m-F_s = {usm!r}",
    )
    if expected_arrivals is None:
        # A fleet shard's replica streams are shifted by the replica lag,
        # so their last arrivals can fall past the horizon and never
        # arrive, yet ``update_counts_original`` still counts them.
        expected_arrivals = sum(report.update_counts_original)
        arrived = report.update_arrivals <= expected_arrivals
    else:
        arrived = report.update_arrivals == expected_arrivals
    _require(
        arrived,
        f"{where}: {report.update_arrivals} update arrivals, "
        f"{expected_arrivals} in the generated input",
    )
    if report.config.policy in ON_DEMAND_POLICIES:
        # Executed updates also count on-demand refreshes, which no
        # arrival backs.
        _require(
            report.updates_dropped <= report.update_arrivals,
            f"{where}: {report.updates_dropped} updates dropped of "
            f"{report.update_arrivals} arrivals",
        )
    else:
        # Every arrival is executed, dropped, or still queued when the
        # drain window closes; none is counted twice.
        in_flight = report.update_arrivals - report.updates_executed - report.updates_dropped
        _require(
            in_flight >= 0,
            f"{where}: {report.updates_executed} executed + {report.updates_dropped} "
            f"dropped exceeds {report.update_arrivals} update arrivals",
        )
        over = [
            item
            for item, (executed, arrived) in enumerate(
                zip(report.update_counts_executed, report.update_counts_original)
            )
            if executed > arrived
        ]
        _require(not over, f"{where}: items {over[:5]} executed more updates than arrived")
    _require(report.events_fired > 0, f"{where}: no events fired")


def check_traced(report: SimulationReport, where: str) -> None:
    """The full trace was kept, and spans and attribution match the report."""
    summary = report.obs_summary or {}
    _require(summary.get("dropped") == 0, f"{where}: trace dropped {summary.get('dropped')} events")
    spans = report.obs_spans
    _require(spans is not None, f"{where}: no span attribution")
    span_summary = spans["summary"]  # type: ignore[index]
    _require(
        span_summary["spans"] == report.queries_submitted,
        f"{where}: {span_summary['spans']} spans for {report.queries_submitted} queries",
    )
    _require(
        not span_summary["partial"] and not span_summary["skipped"],
        f"{where}: span build partial={span_summary['partial']} "
        f"skipped={span_summary['skipped']}",
    )
    ledger = spans["ledger"]  # type: ignore[index]
    _require(
        ledger["components"] == report.components,
        f"{where}: ledger {ledger['components']} != report {report.components}",
    )
    _require(ledger["usm"] == report.usm, f"{where}: ledger usm {ledger['usm']!r} != {report.usm!r}")


@contextlib.contextmanager
def fleet_phases(marks: Dict[str, float]) -> Iterator[None]:
    """Time the parts of ``run_fleet`` its report does not time.

    Records ``marks["workload"]``, the seconds ``run_fleet`` spends in
    ``get_workload``, and ``marks["pool"]``, the clock when the shard
    process pool starts (everything before it is set-up: workload,
    partition, routing, shard specs).  Wraps the two calls for the
    body only.
    """
    import repro.fleet.procs as procs
    import repro.fleet.runner as runner

    generate = runner.get_workload
    pool_init = procs.ShardProcessPool.__init__

    def timed_generate(config: ExperimentConfig) -> object:
        started = time.perf_counter()
        try:
            return generate(config)
        finally:
            marks["workload"] = time.perf_counter() - started

    def timed_pool_init(pool: object, specs: object) -> None:
        marks["pool"] = time.perf_counter()
        pool_init(pool, specs)

    runner.get_workload = timed_generate
    procs.ShardProcessPool.__init__ = timed_pool_init
    try:
        yield
    finally:
        procs.ShardProcessPool.__init__ = pool_init
        runner.get_workload = generate


@dataclasses.dataclass
class RunResult:
    """One simulation run (one operation) and its measurements."""

    label: str
    wall_s: float = 0.0  # program call to report in hand, minus workload generation
    sim_s: float = 0.0  # host seconds inside the simulation
    setup_s: float = 0.0  # workload generation plus building the substrate
    report: Optional[SimulationReport] = None  # merged report for a fleet
    digest: str = ""
    error: str = ""
    fleet: object = None  # the FleetReport of a fleet run

    @property
    def ok(self) -> bool:
        return not self.error


@dataclasses.dataclass(frozen=True)
class Workload:
    """A named set of simulation runs over one generated workload."""

    name: str
    why: str
    #: Independent inputs per pass.  The generated input's size varies
    #: with its seed (query-count quartiles differ by ~13% at paper
    #: scale), so runs at different seeds would differ by that much on
    #: the same code; a pass sums several inputs to keep its totals
    #: steady from seed to seed.  Each workload takes as many as fit in
    #: a pass of about 22 s on a 2-core host (``unit-paper-traced``:
    #: 3 inputs, about 27 s, since 2 left its spread the widest).
    inputs: int = 1
    policies: tuple = ("unit",)
    traced: bool = False
    fleet: bool = False

    def configs(self, input_seed: int, scale: str) -> List[ExperimentConfig]:
        """The runs on one input: one config per policy."""
        obs = ObsConfig(capacity=TRACE_CAPACITY) if self.traced else None
        return [
            build_experiment(policy=policy, seed=input_seed, scale=scale, obs=obs)
            for policy in self.policies
        ]

    def fleet_config(self, base: ExperimentConfig) -> FleetConfig:
        return FleetConfig(
            base=base,
            n_shards=2,
            replication=2,
            router_policy="freshness",
            coordinate=True,
            workers=1,  # one OS process per shard
        )

    # -- one pass -------------------------------------------------------

    def run_pass(
        self,
        seeds: List[int],
        scale: str,
        on_run: Optional[Callable[[int], None]] = None,
    ) -> List[Tuple[bool, RunResult]]:
        """Run every simulation of the workload once on each input and
        check each run.  Returns ``(cold, result)`` pairs: the first run
        on an input generates it (the workload cache is cleared first),
        the input's other policies reuse it as a user's back-to-back
        runs would."""
        results = []
        index = 0
        for seed in seeds:
            default_cache().clear()
            for position, config in enumerate(self.configs(seed, scale)):
                if on_run is not None:
                    on_run(index)
                index += 1
                # A finished run's server, policy and trace sit in
                # reference cycles; free them now so the next run
                # neither traverses them in its own collections nor
                # grows the heap past them.
                gc.collect()
                results.append((position == 0, self._run_one(config)))
        return results

    def _run_one(self, config: ExperimentConfig) -> RunResult:
        result = RunResult(label=f"{'fleet' if self.fleet else config.policy} seed {config.seed}")
        try:
            with time_limit(RUN_TIME_LIMIT_S):
                if self.fleet:
                    marks: Dict[str, float] = {}
                    started = time.perf_counter()
                    with fleet_phases(marks):
                        fleet_report = run_fleet(self.fleet_config(config))
                    ended = time.perf_counter()
                    result.wall_s = ended - started - marks["workload"]
                    result.setup_s = marks["pool"] - started
                    result.sim_s = ended - marks["pool"]
                    result.fleet = fleet_report
                    result.report = fleet_report.merged
                    result.digest = fleet_report.digest
                else:
                    started = time.perf_counter()
                    report = run_experiment(config)
                    ended = time.perf_counter()
                    phases = report.phase_seconds
                    result.wall_s = ended - started - phases["workload"]  # type: ignore[index]
                    result.setup_s = phases["workload"] + phases["setup"]  # type: ignore[index]
                    result.sim_s = phases["simulate"]  # type: ignore[index]
                    result.report = report
                    result.digest = stable_report_digest(report)
            self._check(config, result)
        except (CheckFailed, RunTimeout) as exc:
            result.error = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # a crashed run is a failed operation
            result.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        return result

    def _check(self, config: ExperimentConfig, result: RunResult) -> None:
        query_trace, update_trace = get_workload(config)
        queries = len(query_trace.queries)
        if self.fleet:
            check_report(result.report, queries, None, result.label)  # type: ignore[arg-type]
            routed = result.fleet.routing["routed_counts"]  # type: ignore[attr-defined]
            for shard, report in enumerate(result.fleet.shard_reports):  # type: ignore[attr-defined]
                check_report(report, routed[shard], None, f"{result.label} shard {shard}")
        else:
            arrivals = len(update_trace.arrival_events())
            check_report(result.report, queries, arrivals, result.label)  # type: ignore[arg-type]
        if self.traced:
            check_traced(result.report, result.label)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "unit-paper",
            "UNIT control layers at their busiest: AC/EST per arrival, UM lottery, LBC "
            "window. Seed-7 input: 1024 items, 3000 s, 35,867 queries, 15,160 update "
            "arrivals, 86,921 events",
            inputs=6,
        ),
        Workload(
            "baselines-paper",
            "IMU, ODU, QMF on unit-paper's input; UNIT control never runs (UNIT-only "
            "changes: no change). Seed-7 input: 1024 items, 3000 s, 35,867 queries, "
            "15,160 arrivals, 267,478 events",
            policies=("imu", "odu", "qmf"),
            inputs=5,
        ),
        Workload(
            "fleet-paper",
            "unit-paper on 2 shard processes, replication 2, freshness routing, "
            "coordinator on. Seed-7 input: 1024 items, 3000 s, 35,867 queries, 30,300 "
            "arrivals, 110,831 events, 150 epochs",
            fleet=True,
            inputs=4,
        ),
        Workload(
            "unit-paper-traced",
            "unit-paper with tracing, spans, attribution on; ring holds all 599,726 trace "
            "events of the seed-7 input (default capacity 262,144 drops 337,582). "
            "Tracing-off pair: unit-paper",
            traced=True,
            inputs=3,
        ),
    )
}
