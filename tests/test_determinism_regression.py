"""Determinism regression guard (the invariant simlint protects).

Two identical runs with the same master seed must be *byte-identical* —
not approximately equal — all the way through the Figure 4 benchmark
pipeline.  If this test starts failing, something in the run path is
drawing from ambient state (RNG, wall clock, hash ordering); run
``python -m repro.lint src/repro`` to find it.
"""

import dataclasses
import json

import pytest

from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.figures import figure4, render_figure4
from repro.experiments.report import stable_report_bytes, stable_report_digest
from repro.experiments.runner import run_experiment
from repro.fleet import FleetConfig, run_fleet

SMOKE = SCALES["smoke"]

# The canonical serialization lives in experiments.report so the fleet
# 1-shard-equivalence gate shares the exact same byte contract.
_stable_report_bytes = stable_report_bytes


class TestSingleRunDeterminism:
    def test_same_seed_byte_identical_report(self):
        config = ExperimentConfig(
            policy="unit", update_trace="med-unif", seed=7, scale=SMOKE
        )
        first = _stable_report_bytes(run_experiment(config))
        second = _stable_report_bytes(
            run_experiment(dataclasses.replace(config))
        )
        assert first == second

    def test_different_seed_differs(self):
        """Sanity: the serialization actually captures run results."""
        a = run_experiment(
            ExperimentConfig(policy="unit", update_trace="med-unif", seed=7, scale=SMOKE)
        )
        b = run_experiment(
            ExperimentConfig(policy="unit", update_trace="med-unif", seed=8, scale=SMOKE)
        )
        assert _stable_report_bytes(a) != _stable_report_bytes(b)


class TestFigure4Determinism:
    def test_two_fig4_runs_byte_identical(self):
        """The acceptance gate: the full Fig. 4 benchmark (9 traces x
        all policies, naive USM) twice with one master seed."""
        first = figure4(SMOKE, seed=7)
        second = figure4(SMOKE, seed=7)
        first_bytes = json.dumps(
            {t: {p: v.hex() for p, v in row.items()} for t, row in first.items()},
            sort_keys=True,
        ).encode("utf-8")
        second_bytes = json.dumps(
            {t: {p: v.hex() for p, v in row.items()} for t, row in second.items()},
            sort_keys=True,
        ).encode("utf-8")
        assert first_bytes == second_bytes
        # The rendered stats output is byte-identical too.
        assert render_figure4(first).encode("utf-8") == render_figure4(second).encode(
            "utf-8"
        )


class TestSmallScalePins:
    """Report digests pinned at small scale, where the UNIT control plane
    does real work: on the UNIT run, 38 lottery rebuilds and 201 Degrade
    signals cut short by an exhausted pick, against 10 and 22 at smoke.
    The constants were computed before the one-pass modulation rewrite;
    a change to them means simulated behaviour moved."""

    SMALL = SCALES["small"]

    def _config(self):
        return ExperimentConfig(
            policy="unit", update_trace="med-unif", seed=7, scale=self.SMALL
        )

    def test_unit_small_digest(self):
        assert stable_report_digest(run_experiment(self._config())) == (
            "b2f5494e5ec0cd4b16d6b52bef7a2e9c0db375a4d610cefdfe9442308c6f3c28"
        )

    def test_fleet_small_digest(self):
        fleet = run_fleet(
            FleetConfig(base=self._config(), n_shards=2, replication=2,
                        router_policy="freshness", coordinate=True, workers=0)
        )
        assert fleet.digest == (
            "c67ad2983c5d1fc0515cd9f0c4aa3ec8ed62fe12929f4022fa9ca5903b0fd44f"
        )


class TestMultiItemPins:
    """Report digests of small-scale seed-7 runs where every query reads
    three items, so queries hold several read locks and updates preempt
    them under 2PL-HP — paths the single-item paper and small inputs
    never take.  Computed before the server lifecycle fast paths (idle
    admit, shared lock loop, ``release_all`` skips); a change means
    simulated behaviour moved."""

    DIGESTS = {
        "unit": "ab1c4f5454c4d17ae727ce56acbdb85f7b72e90b2d6a3a3e3e9d21acb4d18108",
        "imu": "fb4d7821ed23642ef924e8fedb2c0aea7ecdc7cc08ada084061f8e58e38c7ae2",
        "odu": "2e1f2ebdeb973899448ea952d0fdadde8ac2548ce2e8ac924becec55d425a0ec",
        "qmf": "1271cb6c81e44902e0c17ccbe78817534bd6795888a08a2b1593f41d24d0f9e9",
    }

    @pytest.mark.parametrize("policy", sorted(DIGESTS))
    def test_three_item_small_digest(self, policy):
        config = ExperimentConfig(
            policy=policy,
            update_trace="med-unif",
            seed=7,
            scale=SCALES["small"],
            items_per_query=3,
        )
        assert stable_report_digest(run_experiment(config)) == self.DIGESTS[policy]
