"""Per-run observability configuration.

An :class:`ObsConfig` rides on ``ExperimentConfig.obs`` (default
``None`` — fully disabled, null-recorder path).  The runner derives
per-cell export paths from ``out_dir`` and the cell label so parallel
sweep workers never collide on a file.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path
from typing import Optional

from repro.obs.trace import DEFAULT_CAPACITY

_LABEL_SANITIZER = re.compile(r"[^A-Za-z0-9._-]+")


def sanitize_label(label: str) -> str:
    """Make an experiment label safe to use as a file-name stem."""
    cleaned = _LABEL_SANITIZER.sub("-", label).strip("-")
    return cleaned or "cell"


@dataclasses.dataclass(frozen=True)
class ObsConfig:
    """What to record and where to export it.

    Attributes:
        enabled: Master switch; when False the run uses the shared
            null recorder and none of the other fields matter.
        capacity: Trace ring-buffer size (events); oldest events are
            evicted (and counted) beyond this.  Defaults to
            :data:`repro.obs.trace.DEFAULT_CAPACITY`.
        metrics: Also fold events into a metrics registry.
        keep_events: Attach the flattened event dicts to the
            ``SimulationReport`` (for tests/CLI use; large).
        spans: Fold the trace into query-lifecycle spans after the run
            (:mod:`repro.obs.spans`) and attach the wait-attribution
            digest to ``SimulationReport.obs_spans``.
        out_dir: Directory for per-cell exports.  When set, the runner
            writes ``<stem>.trace.jsonl``, ``<stem>.chrome.json``,
            ``<stem>.controller.csv``, ``<stem>.prom.txt``, and (with
            ``spans``) ``<stem>.spans.jsonl`` where ``<stem>`` is the
            sanitized cell label + seed.
        trace_jsonl / chrome_json / controller_csv / prometheus_txt /
        spans_jsonl:
            Explicit output paths; each overrides the ``out_dir``
            derivation for that one artifact.
    """

    enabled: bool = True
    capacity: int = DEFAULT_CAPACITY
    metrics: bool = True
    keep_events: bool = False
    spans: bool = True
    out_dir: Optional[str] = None
    trace_jsonl: Optional[str] = None
    chrome_json: Optional[str] = None
    controller_csv: Optional[str] = None
    prometheus_txt: Optional[str] = None
    spans_jsonl: Optional[str] = None

    def export_paths(self, label: str, seed: int) -> dict:
        """Resolve the artifact paths for one cell (or {}).

        Explicit per-artifact paths always win; otherwise paths are
        derived from ``out_dir``.  Artifacts with no resolvable path
        are omitted from the mapping.
        """
        stem = f"{sanitize_label(label)}.seed{seed}"
        base = Path(self.out_dir) if self.out_dir is not None else None
        paths = {}
        pairs = (
            ("trace_jsonl", self.trace_jsonl, f"{stem}.trace.jsonl"),
            ("chrome_json", self.chrome_json, f"{stem}.chrome.json"),
            ("controller_csv", self.controller_csv, f"{stem}.controller.csv"),
            ("prometheus_txt", self.prometheus_txt, f"{stem}.prom.txt"),
            ("spans_jsonl", self.spans_jsonl, f"{stem}.spans.jsonl"),
        )
        for key, explicit, default_name in pairs:
            if explicit is not None:
                paths[key] = Path(explicit)
            elif base is not None:
                paths[key] = base / default_name
        return paths
