"""The results store: every run as a self-describing ledger record.

Bench, chaos and ablation runs used to land as ad-hoc JSON scattered
over ``bench_results/`` and ``chaos_report.json`` files — no shared
schema, no cross-run identity, no way to ask "how did dgx1/adaptive
trend over the last ten runs?".  A :class:`ResultsStore` fixes the
identity problem first: a run's ID is **deterministic**
(``<kind>-<config hash>``, see :func:`repro.obs.meta.run_id_for`), so
re-running the same configuration overwrites its record (bumping
``revision``) instead of piling up near-duplicates, and two ledgers
produced on different machines agree on which runs are "the same
experiment".

On disk a store is::

    <root>/
      runs/<run_id>.json    one full RunRecord per run (canonical JSON)
      ledger.jsonl          append-only summary, one line per put

The ``ledger.jsonl`` is the cheap queryable index — :meth:`
ResultsStore.index` reads it and keeps the *last* line per run ID, so
listing never loads full records.  It is also self-healing: when the
index is missing or stale, :meth:`ResultsStore.rebuild` reconstructs
it from the run files, which remain the source of truth.

Records serialize through :meth:`RunRecord.to_dict` with sorted keys
and the metrics registry's stable float formatting, so ``git diff``
between two records of the same experiment reads as a metric diff,
not as serialization noise.
"""

from __future__ import annotations

import json
import pathlib
import warnings
from dataclasses import dataclass, field

from repro.obs.meta import run_id_for, run_metadata
from repro.obs.metrics import stable_float

#: Environment variable naming the default store directory.
RESULTS_STORE_ENV = "REPRO_RESULTS_STORE"

#: Default store root (relative to the working directory).
DEFAULT_STORE_DIR = "experiments"

#: Ledger index filename under the store root.
LEDGER_NAME = "ledger.jsonl"

#: Summary fields copied into each ledger line beyond identity.
_SUMMARY_METRICS = (
    "join.throughput_btps",
    "join.total_time_ms",
    "shuffle.throughput_gbps",
    "shuffle.elapsed_ms",
    "chaos.throughput_retention",
    "perf.self_time_seconds",
)


class StoreError(RuntimeError):
    """A record was malformed or a run ID could not be resolved."""


@dataclass
class RunRecord:
    """One run, fully described: identity, provenance, measurements.

    ``metrics`` is the flat comparable surface (name -> float) that
    :mod:`repro.experiments.observatory` diffs between runs;
    ``directions`` tags each metric ``higher``/``lower``/``track`` so
    comparisons are direction-aware.  ``phases`` holds the span-derived
    exclusive per-phase seconds, ``links`` the busiest-link breakdown,
    and ``telemetry`` fault/recovery accounting — together they let a
    regression in a headline metric be attributed back to the phase or
    link that moved (see ``observatory.attribute_regression``).
    """

    run_id: str
    kind: str
    config: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    directions: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    links: list = field(default_factory=list)
    telemetry: dict = field(default_factory=dict)
    #: Full MetricsRegistry snapshot (optional, can be large).
    snapshot: dict = field(default_factory=dict)
    #: Ledger position, assigned by :meth:`ResultsStore.put`.
    sequence: int = 0
    #: How many times this run ID has been written (1 = first put).
    revision: int = 1

    def __post_init__(self) -> None:
        if not self.run_id:
            raise StoreError("RunRecord needs a run_id")
        if "/" in self.run_id or "\\" in self.run_id:
            raise StoreError(f"run_id {self.run_id!r} must not contain path separators")

    @classmethod
    def build(
        cls,
        kind: str,
        config: dict,
        metrics: dict,
        *,
        directions: dict | None = None,
        meta: dict | None = None,
        **extras,
    ) -> "RunRecord":
        """A record with its deterministic ID derived from the config."""
        return cls(
            run_id=run_id_for(kind, config),
            kind=kind,
            config=dict(config),
            meta=dict(meta) if meta is not None else run_metadata(),
            metrics={name: stable_float(float(value)) for name, value in metrics.items()},
            directions=dict(directions or {}),
            **extras,
        )

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "sequence": self.sequence,
            "revision": self.revision,
            "config": self.config,
            "meta": self.meta,
            "metrics": {
                name: stable_float(value) if isinstance(value, float) else value
                for name, value in self.metrics.items()
            },
            "directions": self.directions,
            "phases": {
                name: stable_float(value) for name, value in self.phases.items()
            },
            "links": self.links,
            "telemetry": self.telemetry,
            "snapshot": self.snapshot,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        try:
            return cls(
                run_id=payload["run_id"],
                kind=payload["kind"],
                config=payload.get("config", {}),
                meta=payload.get("meta", {}),
                metrics=payload.get("metrics", {}),
                directions=payload.get("directions", {}),
                phases=payload.get("phases", {}),
                links=payload.get("links", []),
                telemetry=payload.get("telemetry", {}),
                snapshot=payload.get("snapshot", {}),
                sequence=payload.get("sequence", 0),
                revision=payload.get("revision", 1),
            )
        except KeyError as exc:
            raise StoreError(f"record missing required field {exc}") from exc

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, stable floats, trailing newline."""
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"

    def summary(self) -> dict:
        """The ledger line: identity plus a few headline metrics."""
        line = {
            "run_id": self.run_id,
            "kind": self.kind,
            "sequence": self.sequence,
            "revision": self.revision,
            "topology": self.meta.get("topology") or self.config.get("topology"),
            "policy": self.meta.get("policy") or self.config.get("policy"),
            "num_gpus": self.meta.get("num_gpus") or self.config.get("scale"),
            "repro_version": self.meta.get("repro_version"),
        }
        for name in _SUMMARY_METRICS:
            if name in self.metrics:
                line[name] = self.metrics[name]
        return line


class ResultsStore:
    """On-disk ledger of :class:`RunRecord` files under one root."""

    def __init__(self, root: str | pathlib.Path = DEFAULT_STORE_DIR) -> None:
        self.root = pathlib.Path(root)
        self.runs_dir = self.root / "runs"

    @property
    def ledger_path(self) -> pathlib.Path:
        return self.root / LEDGER_NAME

    def _record_path(self, run_id: str) -> pathlib.Path:
        return self.runs_dir / f"{run_id}.json"

    # -- writing -----------------------------------------------------------

    def put(self, record: RunRecord) -> RunRecord:
        """Persist a record, assigning its ledger position.

        A new run ID gets the next sequence number; an existing one
        keeps its identity but moves to the ledger's tail (sequence
        advances, ``revision`` increments) — re-running an experiment
        makes it the most recent observation of that configuration.
        """
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        index = self.index()
        previous = index.get(record.run_id)
        record.sequence = (
            max((line["sequence"] for line in index.values()), default=0) + 1
        )
        record.revision = (previous["revision"] + 1) if previous else 1
        self._record_path(record.run_id).write_text(record.to_json())
        with self.ledger_path.open("a") as ledger:
            ledger.write(json.dumps(record.summary(), sort_keys=True) + "\n")
        return record

    def rebuild(self) -> int:
        """Reconstruct ``ledger.jsonl`` from the run files.

        Returns the number of records indexed.  Run files are the
        source of truth; this recovers from a deleted or corrupt index.
        A truncated or otherwise unreadable run file (e.g. a write torn
        by a crash — the very situation rebuild exists for) is skipped
        with a warning instead of aborting the whole recovery.
        """
        records = []
        for path in self.runs_dir.glob("*.json"):
            try:
                records.append(RunRecord.from_dict(json.loads(path.read_text())))
            except (json.JSONDecodeError, StoreError, KeyError, TypeError,
                    ValueError) as exc:
                warnings.warn(
                    f"rebuild: skipping corrupt run file {path.name}: {exc}",
                    stacklevel=2,
                )
        records.sort(key=lambda record: (record.sequence, record.run_id))
        self.root.mkdir(parents=True, exist_ok=True)
        with self.ledger_path.open("w") as ledger:
            for record in records:
                ledger.write(json.dumps(record.summary(), sort_keys=True) + "\n")
        return len(records)

    # -- reading -----------------------------------------------------------

    def history(self) -> list[dict]:
        """Every ledger line in append order, superseded revisions too.

        This is the trend substrate: re-running a configuration adds a
        line, so a run ID's metric trajectory across revisions survives
        even though ``runs/<run_id>.json`` only keeps the latest.
        """
        entries: list[dict] = []
        if not self.ledger_path.exists():
            return entries
        for line in self.ledger_path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail line: ignore, rebuild() can heal
            if "run_id" in entry:
                entries.append(entry)
        return entries

    def index(self) -> dict:
        """Last ledger line per run ID, keyed by run ID."""
        return {entry["run_id"]: entry for entry in self.history()}

    def __len__(self) -> int:
        return len(self.index())

    def __contains__(self, run_id: str) -> bool:
        return self._record_path(run_id).exists()

    def run_ids(self) -> list[str]:
        """All run IDs in ledger (= recency) order."""
        entries = sorted(self.index().values(), key=lambda e: e["sequence"])
        return [entry["run_id"] for entry in entries]

    def get(self, run_id: str) -> RunRecord:
        """Load one full record; prefixes resolve when unambiguous."""
        path = self._record_path(run_id)
        if not path.exists():
            matches = [
                known for known in self.index() if known.startswith(run_id)
            ]
            if len(matches) == 1:
                path = self._record_path(matches[0])
            elif matches:
                raise StoreError(
                    f"run ID prefix {run_id!r} is ambiguous: {sorted(matches)}"
                )
            else:
                raise StoreError(f"no run {run_id!r} in store {self.root}")
        return RunRecord.from_dict(json.loads(path.read_text()))

    def select(self, kind: str | None = None, **filters) -> list[dict]:
        """Ledger summaries matching the filters, in ledger order.

        ``filters`` match summary fields (``topology="dgx1"``,
        ``policy="adaptive"``, ...); ``None``-valued summary fields
        never match a filter.
        """
        entries = sorted(self.index().values(), key=lambda e: e["sequence"])
        out = []
        for entry in entries:
            if kind is not None and entry.get("kind") != kind:
                continue
            if any(entry.get(key) != value for key, value in filters.items()):
                continue
            out.append(entry)
        return out

    def latest(self, kind: str | None = None, **filters) -> RunRecord | None:
        """The most recently put record matching the filters."""
        entries = self.select(kind=kind, **filters)
        if not entries:
            return None
        return self.get(entries[-1]["run_id"])

    # -- ingestion of pre-store artifacts ----------------------------------

    def ingest(self, path: str | pathlib.Path) -> RunRecord:
        """Import a legacy artifact (BENCH baseline / chaos report).

        The artifact's shape is sniffed: a ``BENCH_*.json`` perf
        baseline (``metrics`` + ``directions``) becomes a ``perf``
        record, a ``chaos_report.json`` a ``chaos`` record, a
        ``serve_chaos_report.json`` a ``serve-chaos`` record and a
        ``fuzz_report.json`` a ``chaos-fuzz`` record — the records
        ``--store`` would have written — so historical hand-committed
        files join the ledger and the perf gate can read its baseline
        *through the store*.
        """
        path = pathlib.Path(path)
        payload = json.loads(path.read_text())
        if "metrics" in payload and "directions" in payload:
            record = RunRecord.build(
                "perf",
                config=dict(payload.get("run", {})),
                metrics=payload["metrics"],
                directions=payload["directions"],
                meta=payload.get("run", {}),
            )
        elif "throughput_retention" in payload and "plan" in payload:
            record = chaos_record(payload)
        elif "in_flight_peak" in payload and "serve" in payload:
            record = serve_chaos_record(payload)
        elif "plans_run" in payload and "failures" in payload:
            record = fuzz_record(payload)
        else:
            raise StoreError(
                f"{path}: unrecognized artifact shape (expected a BENCH"
                " baseline, a chaos, serve-chaos or fuzz report)"
            )
        return self.put(record)


def chaos_record(payload: dict) -> RunRecord:
    """A ``chaos_report.json`` payload as a store record."""
    metrics = {
        "chaos.throughput_retention": payload["throughput_retention"],
        "chaos.healthy_seconds": payload["healthy_seconds"],
        "chaos.faulted_seconds": payload["faulted_seconds"],
        "chaos.correct": 1.0 if payload.get("correct") else 0.0,
    }
    directions = {
        "chaos.throughput_retention": "higher",
        "chaos.healthy_seconds": "lower",
        "chaos.faulted_seconds": "lower",
        "chaos.correct": "higher",
    }
    for name, value in payload.get("counters", {}).items():
        metrics[f"chaos.{name}"] = float(value)
        directions[f"chaos.{name}"] = "track"
    telemetry = {
        key: payload.get(key)
        for key in ("recovery_telemetry", "retry", "recovery")
        if payload.get(key) is not None
    }
    telemetry["digest_match"] = (
        payload.get("healthy_digest") == payload.get("faulted_digest")
    )
    alerts = payload.get("alerts")
    if alerts is not None:
        # Fired SLO alerts ride along so the observatory can trend them.
        telemetry["alerts"] = alerts
        metrics["chaos.alerts_fired"] = float(len(alerts))
        directions["chaos.alerts_fired"] = "lower"
        critical = sum(1 for alert in alerts if alert.get("severity") == "critical")
        metrics["chaos.alerts_critical"] = float(critical)
        directions["chaos.alerts_critical"] = "lower"
    meta = dict(payload.get("run", {}))
    config = {
        "scenario": payload.get("plan", {}).get("name"),
        "topology": meta.get("topology"),
        "num_gpus": meta.get("num_gpus"),
        "seed": meta.get("seed"),
        "policy": meta.get("policy"),
    }
    return RunRecord.build(
        "chaos",
        config=config,
        metrics=metrics,
        directions=directions,
        meta=meta,
        telemetry=telemetry,
    )


def serve_chaos_record(payload: dict) -> RunRecord:
    """A ``serve_chaos_report.json`` payload as a store record.

    Per-query verdicts (status, digest vs the solo reference, crashed
    GPUs, integrity stats) ride in the telemetry blob so a broken
    concurrency-identity gate, or a repaired corruption, is diagnosable
    from the ledger alone.
    """
    serve = payload.get("serve", {})
    metrics = {
        "serve.chaos_correct": 1.0 if payload.get("correct") else 0.0,
        "serve.in_flight_peak": float(payload.get("in_flight_peak", 0)),
        "serve.completed": float(serve.get("completed", 0)),
        "serve.rejected": float(serve.get("rejected", 0)),
        "serve.failed": float(serve.get("failed", 0)),
        "serve.elapsed_ms": float(serve.get("elapsed", 0.0)) * 1e3,
        "serve.recovered_queries": float(
            len(payload.get("recovered_queries", ()))
        ),
    }
    directions = {
        "serve.chaos_correct": "higher",
        "serve.in_flight_peak": "track",
        "serve.completed": "higher",
        "serve.rejected": "track",
        "serve.failed": "lower",
        "serve.elapsed_ms": "lower",
        "serve.recovered_queries": "track",
    }
    telemetry = {
        "queries": payload.get("queries", {}),
        "mismatches": payload.get("mismatches", []),
        "recovered_queries": list(payload.get("recovered_queries", ())),
    }
    alerts = payload.get("alerts")
    if alerts is not None:
        telemetry["alerts"] = alerts
        metrics["serve.alerts_fired"] = float(len(alerts))
        directions["serve.alerts_fired"] = "lower"
    meta = dict(payload.get("run", {}))
    config = {
        "scenario": payload.get("plan"),
        "seed": payload.get("seed"),
        "min_in_flight": payload.get("min_in_flight"),
        "topology": meta.get("topology"),
        "num_gpus": meta.get("num_gpus"),
        "queries": meta.get("queries"),
        "policy": meta.get("policy"),
    }
    return RunRecord.build(
        "serve-chaos",
        config=config,
        metrics=metrics,
        directions=directions,
        meta=meta,
        telemetry=telemetry,
    )


def fuzz_record(payload: dict) -> RunRecord:
    """A ``fuzz_report.json`` payload as a store record.

    Failures (with their minimized reproducer plans) ride in the
    telemetry blob so a red fuzz campaign is diagnosable from the
    ledger alone.
    """
    failures = payload.get("failures", [])
    metrics = {
        "fuzz.plans_run": float(payload.get("plans_run", 0)),
        "fuzz.failures": float(len(failures)),
        "fuzz.ok": 1.0 if payload.get("ok") else 0.0,
    }
    directions = {
        "fuzz.plans_run": "track",
        "fuzz.failures": "lower",
        "fuzz.ok": "higher",
    }
    meta = dict(payload.get("run", {}))
    config = {
        "seed": payload.get("seed"),
        "budget": payload.get("budget"),
        "topology": meta.get("topology"),
        "num_gpus": meta.get("num_gpus"),
        "policy": meta.get("policy"),
        "verify": meta.get("verify"),
    }
    return RunRecord.build(
        "chaos-fuzz",
        config=config,
        metrics=metrics,
        directions=directions,
        meta=meta,
        telemetry={"failures": failures},
    )
