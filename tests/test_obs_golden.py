"""Golden digests for the trace → spans → metrics pipeline.

The determinism suite (``test_obs_determinism``) only checks that one
tree agrees with itself, so a recorder that changed its own output
*consistently* would pass it.  These constants were computed with the
previous (object-per-event) recorder and pin, for each run variant:

* ``trace`` — SHA-256 of the JSONL trace export (:func:`trace_digest`
  of the recorder, including the ``trace.meta`` header when the ring
  wraps);
* ``spans`` — SHA-256 of the span JSONL dump (:func:`spans_digest`);
* ``metrics`` — SHA-256 of the canonical JSON of the ``RunMetrics``
  snapshot attached to the report;
* ``report`` — :func:`stable_report_digest` of the simulation report.

Regenerate only when a change to the trace content is intended::

    PYTHONPATH=src python -c "import json, tempfile; \\
        from tests.test_obs_golden import collect_all; \\
        print(json.dumps(collect_all(tempfile.mkdtemp()), indent=1))"
"""

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.report import stable_report_digest
from repro.experiments.runner import run_experiment
from repro.faults.scenarios import canned
from repro.fleet import FleetConfig, run_fleet
from repro.obs.config import ObsConfig

SMOKE = SCALES["smoke"]

#: Small enough to wrap the ring on the seed-7 smoke run.
WRAP_CAPACITY = 4_096


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(report) -> Dict[str, str]:
    paths = report.obs_artifacts
    return {
        "trace": _sha256(Path(paths["trace_jsonl"]).read_bytes()),
        "spans": _sha256(Path(paths["spans_jsonl"]).read_bytes()),
        "metrics": _sha256(
            json.dumps(report.obs_metrics, sort_keys=True).encode("utf-8")
        ),
        "report": stable_report_digest(report),
    }


def _config(out_dir: str, **overrides) -> ExperimentConfig:
    capacity = overrides.pop("capacity", None)
    obs = ObsConfig(out_dir=out_dir)
    if capacity is not None:
        obs = ObsConfig(out_dir=out_dir, capacity=capacity)
    return ExperimentConfig(
        policy="unit", update_trace="med-unif", seed=7, scale=SMOKE, obs=obs,
        **overrides,
    )


def collect(variant: str, out_dir: str) -> Dict[str, object]:
    """Digests of one variant's run (artifacts written under ``out_dir``)."""
    out = str(Path(out_dir) / variant)
    if variant == "plain":
        return _digests(run_experiment(_config(out)))
    if variant == "faults":
        faults = canned("pile-up", SMOKE.horizon, SMOKE.n_items)
        return _digests(run_experiment(_config(out, faults=faults)))
    if variant == "wrapped":
        return _digests(run_experiment(_config(out, capacity=WRAP_CAPACITY)))
    if variant == "fleet":
        fleet = run_fleet(
            FleetConfig(base=_config(out), n_shards=2, replication=2,
                        router_policy="freshness")
        )
        return {
            "shards": [_digests(report) for report in fleet.shard_reports],
            "merged": fleet.digest,
            "fleet_obs": _sha256(
                json.dumps(fleet.obs_summary, sort_keys=True).encode("utf-8")
            ),
        }
    raise ValueError(variant)


VARIANTS = ("plain", "faults", "wrapped", "fleet")


def collect_all(out_dir: str) -> Dict[str, object]:
    return {variant: collect(variant, out_dir) for variant in VARIANTS}


GOLDEN: Dict[str, object] = {
    "plain": {
        "trace": "29a47f5b4e93dc9317faeebc053700645db386e931f0886a257752830721465b",
        "spans": "6ae93a292a4aab81c565eace0ab34c7577656207779541c917b12c9ff1a3edb0",
        "metrics": "3386f65569d04457d276bc775210e49eea0952341e04db53f0c691611bfea652",
        "report": "1929a523d0fdb8341c9fbdc029d53364193d06fc754194200f3f55edb4d33ecf",
    },
    "faults": {
        "trace": "a6d56526f8d4c99fcac815d984c799ea2046487aa2a5571a84ddd8e440b09eaa",
        "spans": "2c7216bfea62e1f1a0c9bd8363dc666b8acc363b072b9ae375d8db50fc30d6c9",
        "metrics": "2b67875ac7ae116c3e5adc5ecf0846b26f9250a338a5c909b295f81684a0c4f0",
        "report": "0b84f73ec18dea882c91fadf343d241ad4ae3bfba4723e180f4687d63a2332ae",
    },
    "wrapped": {
        "trace": "5c88f4a992850ea69ee03bc53b73d245b9c4f420e30b53cbde32727045217822",
        "spans": "54320b91991c05e2a947d0e00e94b9e153022baa6e088170745f08a3ecb3fc9b",
        "metrics": "3386f65569d04457d276bc775210e49eea0952341e04db53f0c691611bfea652",
        "report": "1929a523d0fdb8341c9fbdc029d53364193d06fc754194200f3f55edb4d33ecf",
    },
    "fleet": {
        "shards": [
            {
                "trace": "6fb7e353bc54ceed648cc7bfe5e07f176261bdd162a847f63f26dc9f25465473",
                "spans": "48e4948ddcd90315c8d3eca63353c3905014ee4ed36ea45fdcc689bcef6b5acc",
                "metrics": "104b82fa6680e3639726d2c9fccae0f8be938353ef1da663197515e99759868f",
                "report": "81ddfeb342462c8ebb1ddddf3fced173e38ea2ebf7143f603d8f7ef284b19bb8",
            },
            {
                "trace": "d8ee3fbd95bed93f14d45192210213215fc76ce4252930dce2ff463f891b0734",
                "spans": "80176149222fc951f01833fbce8fe4d5f93a797b7a54d34e52ff46e8e18e5ff4",
                "metrics": "bc19d00f1ee21105a81f291a8b11416f8ebce513c9533ea360e26ed223cbcb54",
                "report": "3420cddea50f894b96d27bc88e6a7d9c97ed23f3b6c21175f71ba8ddaf8bb41a",
            },
        ],
        "merged": "8ccab595b9a00b700f7322c702d47baf009aa271ee487d511846ec3ca17fe462",
        "fleet_obs": "f002d25a4eb11a770cd478613e2665250b23483384ee803a2a1cbcdfcc83b259",
    },
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_golden_digests(variant, tmp_path):
    assert collect(variant, str(tmp_path)) == GOLDEN[variant]


def test_wrapped_variant_really_wraps(tmp_path):
    report = run_experiment(_config(str(tmp_path), capacity=WRAP_CAPACITY))
    assert report.obs_summary["dropped"] > 0
    assert report.obs_spans["summary"]["partial"] is True
    header = Path(report.obs_artifacts["trace_jsonl"]).read_text().splitlines()[0]
    assert json.loads(header)["kind"] == "trace.meta"
