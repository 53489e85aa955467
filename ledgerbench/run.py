"""Layer-ledger benchmark: paper-scale workloads, end-to-end metrics and
a per-layer split of where the host time goes.

Run from the repository root::

    python3 ledgerbench/run.py --workload unit-paper --seed 7 --seconds 22 --trace 0
    python3 ledgerbench/run.py --workload all --seconds 22

``--trace 0`` runs passes over the workload's inputs (the seed's own
and seeds derived from it), each input generated cold, for as many
passes as fit in ``--seconds`` seconds (at least one), and reports the
end-to-end metrics: times summed over a pass and the median taken over
passes, ``setup_s`` the median over the cold set-ups.  ``--trace 1`` is
the layer-span run on the seed's own input: one untraced pass, then one
pass with span wrappers around every layer's public functions; it
prints the per-layer table of each process and reports the per-layer
metrics.
Every run's output is checked and its report digest printed.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "usm": "usm",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "workload.gen_s": "s",
    "sim.events": "count",
    "sim.self_s": "s",
    "db.server.calls": "count",
    "db.server.self_s": "s",
    "db.ready_queue.calls": "count",
    "db.ready_queue.self_s": "s",
    "db.locks.requests": "count",
    "db.locks.waits": "count",
    "db.locks.preempts": "count",
    "db.locks.self_s": "s",
    "core.admission.decisions": "count",
    "core.admission.reject_ratio": "ratio",
    "core.admission.self_s": "s",
    "core.modulation.degrades": "count",
    "core.modulation.upgrades": "count",
    "core.lottery.samples": "count",
    "core.lottery.rebuilds": "count",
    "core.modulation.victims_per_sample": "ratio",
    "core.modulation.self_s": "s",
    "core.lottery.self_s": "s",
    "core.tickets.self_s": "s",
    "core.usm.records": "count",
    "core.controller.checks": "count",
    "core.controller.allocations": "count",
    "core.usm.self_s": "s",
    "core.controller.self_s": "s",
    "obs.trace.events": "count",
    "obs.trace.dropped": "count",
    "obs.trace.emit_s": "s",
    "obs.spans.build_s": "s",
    "obs.attrib.s": "s",
    "fleet.route.s": "s",
    "fleet.route.forced": "count",
    "fleet.specs.s": "s",
    "fleet.procs.epochs": "count",
    "fleet.procs.wait_s": "s",
    "fleet.controller.directives": "count",
    "fleet.report.merge_s": "s",
    "layerspan.wall_s": "s",
    "layerspan.uncovered_s": "s",
    "layerspan.overhead_s": "s",
}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", default="paper", help="scale preset (paper; smoke/small for tests)"
    )
    return parser.parse_args(argv)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float], units: Dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
            },
        }
    )


def print_runs(tag: str, results: List) -> None:
    for result in results:
        if result.ok:
            print(f"  {tag} {result.label}: wall {result.wall_s:.4f} s, "
                  f"events {result.report.events_fired}, usm {result.report.usm:.6f}, "
                  f"digest {result.digest}")
        else:
            print(f"  {tag} {result.label}: FAILED {result.error}")


def digest_mismatches(reference: List, results: List) -> int:
    """Runs whose digest differs from the reference pass at the same seed."""
    return sum(
        1
        for ref, result in zip(reference, results)
        if ref.ok and result.ok and ref.digest != result.digest
    )


def weighted_usm(results: List) -> float:
    reports = [result.report for result in results if result.ok]
    queries = sum(report.queries_submitted for report in reports)
    return sum(report.usm * report.queries_submitted for report in reports) / queries


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest reaped
    child (the fleet's shard processes), whichever is larger."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def measure(workload, seed: int, seconds: float, scale: str) -> str:
    from workloads import input_seeds

    seeds = input_seeds(seed, workload.inputs)
    print(f"{workload.name} seed {seed}: {len(seeds)} inputs per pass")
    passes: List[List] = []
    setups: List[float] = []
    started = time.perf_counter()
    while True:
        pairs = workload.run_pass(seeds, scale)
        results = [result for _, result in pairs]
        setups.extend(result.setup_s for cold, result in pairs if cold and result.ok)
        print_runs(f"pass {len(passes) + 1}", results)
        passes.append(results)
        if any(not result.ok for result in results):
            break  # a failed or overrun pass ends the measurement
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            break  # another pass would overrun the measuring time

    attempted = sum(len(results) for results in passes)
    failed = sum(not result.ok for results in passes for result in results)
    failed += sum(digest_mismatches(passes[0], results) for results in passes[1:])
    good = [results for results in passes if all(result.ok for result in results)]
    metrics = {name: 0.0 for name in END_TO_END}
    if good:
        metrics["wall_s"] = statistics.median(
            sum(result.wall_s for result in results) for results in good
        )
        metrics["events_per_s"] = statistics.median(
            sum(result.report.events_fired for result in results)
            / sum(result.sim_s for result in results)
            for results in good
        )
        metrics["usm"] = weighted_usm(good[0])
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    print(f"{workload.name}: {len(passes)} passes, {attempted} runs, {failed} failed, "
          f"setup_s over {len(setups)} cold set-ups: "
          + " ".join(f"{value:.4f}" for value in setups))
    for name, unit in END_TO_END.items():
        print(f"  {name:<14}{metrics[name]:>16.6f} {unit}")
    return result_line(failed == 0 and bool(good), attempted, failed, metrics, END_TO_END)


# ----------------------------------------------------------------------
# --trace 1: the layer-span run
# ----------------------------------------------------------------------


def layer_metrics(
    processes: List[Tuple[str, object, float, Dict]],
    results: List,
    overhead_s: float,
) -> Dict[str, float]:
    """Per-layer metrics summed over the processes of the traced pass."""
    from layers import UNCOVERED

    rows: Counter = Counter()  # layer -> self seconds
    layer_calls: Counter = Counter()
    counters: Counter = Counter()
    calls: Counter = Counter()  # "Class.attr" -> spans
    for _, store, _, table in processes:
        for layer, row in table.items():
            rows[layer] += row.self_s
            layer_calls[layer] += row.calls
        counters.update(store.counters)
        for name_id, count in Counter(store.name_ids).items():
            calls[store.names[name_id].rpartition(":")[2]] += count
    reports = [result.report for result in results if result.ok]
    fleets = [result.fleet for result in results if result.ok and result.fleet is not None]
    shard_reports = [report for fleet in fleets for report in fleet.shard_reports]
    obs = [
        report.obs_summary for report in reports + shard_reports if report.obs_summary
    ]
    decisions = calls["AdmissionController.decide"]
    samples = calls["LotteryScheduler.sample"]
    return {
        "workload.gen_s": rows["workload"],
        "sim.events": sum(report.events_fired for report in reports),
        "sim.self_s": rows["sim"],
        "db.server.calls": layer_calls["db.server"],
        "db.server.self_s": rows["db.server"],
        "db.ready_queue.calls": layer_calls["db.ready_queue"],
        "db.ready_queue.self_s": rows["db.ready_queue"],
        "db.locks.requests": calls["LockManager.request"],
        "db.locks.waits": counters["db.locks.waits"],
        "db.locks.preempts": counters["db.locks.preempts"],
        "db.locks.self_s": rows["db.locks"],
        "core.admission.decisions": decisions,
        "core.admission.reject_ratio": (
            counters["core.admission.rejects"] / decisions if decisions else 0.0
        ),
        "core.admission.self_s": rows["core.admission"],
        "core.modulation.degrades": calls["UpdateFrequencyModulator.degrade"],
        "core.modulation.upgrades": calls["UpdateFrequencyModulator.upgrade_all"],
        "core.lottery.samples": samples,
        "core.lottery.rebuilds": calls["LotteryScheduler.rebuild"],
        "core.modulation.victims_per_sample": (
            counters["core.modulation.victims"] / samples if samples else 0.0
        ),
        "core.modulation.self_s": rows["core.modulation"],
        "core.lottery.self_s": rows["core.lottery"],
        "core.tickets.self_s": rows["core.tickets"],
        "core.usm.records": calls["UsmWindow.record"],
        "core.controller.checks": calls["LoadBalancingController.check_drop"],
        "core.controller.allocations": calls["LoadBalancingController.allocate"],
        "core.usm.self_s": rows["core.usm"],
        "core.controller.self_s": rows["core.controller"],
        "obs.trace.events": sum(summary["recorded"] for summary in obs),
        "obs.trace.dropped": sum(summary["dropped"] for summary in obs),
        "obs.trace.emit_s": rows["obs.trace"],
        "obs.spans.build_s": rows["obs.spans"],
        "obs.attrib.s": rows["obs.attrib"],
        "fleet.route.s": rows["fleet.route"],
        "fleet.route.forced": sum(fleet.routing["forced"] for fleet in fleets),
        "fleet.specs.s": rows["fleet.specs"],
        "fleet.procs.epochs": calls["ShardProcessPool.run_epoch"],
        "fleet.procs.wait_s": rows["fleet.procs"],
        "fleet.controller.directives": sum(len(fleet.rebalances) for fleet in fleets),
        "fleet.report.merge_s": rows["fleet.report"],
        "layerspan.wall_s": processes[0][2],
        "layerspan.uncovered_s": processes[0][3][UNCOVERED].self_s,
        "layerspan.overhead_s": overhead_s,
    }


def layer_run(workload, seed: int, scale: str) -> str:
    from layers import SpanStore, format_table, hook_shard_workers, rollup

    # Untraced reference pass; like the traced one, it generates its
    # input cold.
    started = time.perf_counter()
    reference = [result for _, result in workload.run_pass([seed], scale)]
    reference_wall = time.perf_counter() - started
    print_runs("untraced", reference)

    stem = workload.name  # one set of span files per workload, newest run
    for stale in OUT.glob(f"{stem}.*.spans"):
        stale.unlink()
    store = SpanStore()
    store.install()
    if workload.fleet:
        hook_shard_workers(store, OUT, stem)
    try:
        started = time.perf_counter()
        traced = [
            result
            for _, result in workload.run_pass(
                [seed], scale, on_run=lambda index: store.run_id.__setitem__(0, index)
            )
        ]
        span_wall = time.perf_counter() - started
    finally:
        store.uninstall()
    print_runs("layer-span", traced)
    store.save(OUT / f"{stem}.main.spans",
               {"process": "main", "seed": seed, "wall_s": span_wall})

    loaded = [("main", store, span_wall)]
    for path in sorted(OUT.glob(f"{stem}.shard*.spans")):
        shard_store, header = SpanStore.load(path)
        loaded.append((header["process"], shard_store, header["wall_s"]))
    processes = []
    for process, process_store, wall in loaded:
        table = rollup(process_store, wall)
        processes.append((process, process_store, wall, table))
        title = (f"{workload.name} seed {seed}: layer spans, process {process}, "
                 f"{len(process_store)} spans")
        print(format_table(title, table, wall))
    overhead = span_wall - reference_wall
    print(f"span overhead: {overhead:.4f} s (layer-span wall {span_wall:.4f} s "
          f"- untraced wall {reference_wall:.4f} s)")
    for result in traced:
        if result.ok and result.report.obs_summary:
            by_kind = result.report.obs_summary["by_kind"]
            print("trace events by kind: "
                  + ", ".join(f"{kind}={count}" for kind, count in by_kind.items()))

    runs = reference + traced
    attempted = len(runs)
    failed = sum(not result.ok for result in runs) + digest_mismatches(reference, traced)
    metrics = layer_metrics(processes, traced, overhead)
    return result_line(failed == 0, attempted, failed, metrics, PER_LAYER)


# ----------------------------------------------------------------------
# --workload all: one process per workload, one table
# ----------------------------------------------------------------------


def run_all(args: argparse.Namespace, names: List[str]) -> int:
    rows = []
    ok = True
    for name in names:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
        ]
        completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"{name}: exited with code {completed.returncode}")
            ok = False
            continue
        payload = json.loads(lines[-1])
        ok = ok and payload["correct"]
        for metric, entry in payload["metrics"].items():
            rows.append((name, metric, entry["value"], entry["unit"]))
        rows.append((name, "attempted/failed", f"{payload['attempted']}/{payload['failed']}", ""))
    print(f"\n{'workload':<20}{'metric':<36}{'value':>18} unit")
    for name, metric, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<20}{metric:<36}{shown:>18} {unit}")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is missing under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        line = layer_run(workload, args.seed, args.scale)
    else:
        line = measure(workload, args.seed, args.seconds, args.scale)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
