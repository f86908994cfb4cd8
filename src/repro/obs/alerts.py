"""Declarative SLO/alert engine evaluated over the telemetry stream.

Rules are data (threshold, budget, or presence checks against stream
events) so alerting policy can live in config or plan files rather than
code.  The engine subscribes to a :class:`~repro.obs.stream.TelemetryStream`,
writes fired alerts to ``alerts.jsonl``, re-emits them into the stream
(so ``repro top`` sees them from the file alone), and keeps them on
``.fired`` so chaos/experiment records can persist them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .stream import TelemetryStream

__all__ = ["AlertRule", "AlertEngine", "DEFAULT_RULES", "load_rules"]

_OPS = {
    ">=": lambda value, threshold: value >= threshold,
    ">": lambda value, threshold: value > threshold,
    "<=": lambda value, threshold: value <= threshold,
    "<": lambda value, threshold: value < threshold,
    "==": lambda value, threshold: value == threshold,
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule over the event stream.

    Matching: ``event_type`` must equal the event's type and every
    ``where`` pair must match the event's fields.  If ``field`` is set,
    the event's value there must satisfy ``value <op> threshold``.
    ``min_count`` turns the rule into a budget: it fires only once the
    number of matching events reaches the budget.  ``cooldown``
    (event-clock seconds) rate-limits repeat firings.
    """

    name: str
    event_type: str
    where: tuple[tuple[str, object], ...] = ()
    field: str | None = None
    op: str = ">="
    threshold: float | None = None
    min_count: int = 1
    severity: str = "warning"
    cooldown: float = 0.0
    message: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown op {self.op!r}; choose from {sorted(_OPS)}")
        if self.field is not None and self.threshold is None:
            raise ValueError(f"rule {self.name!r}: field without threshold")
        if self.min_count < 1:
            raise ValueError(f"rule {self.name!r}: min_count must be >= 1")

    def matches(self, event: dict) -> bool:
        if event.get("type") != self.event_type:
            return False
        for key, expected in self.where:
            if event.get(key) != expected:
                return False
        if self.field is not None:
            value = event.get(self.field)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return False
            if not _OPS[self.op](value, self.threshold):
                return False
        return True

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "event_type": self.event_type,
            "severity": self.severity,
        }
        if self.where:
            payload["where"] = dict(self.where)
        if self.field is not None:
            payload.update(field=self.field, op=self.op, threshold=self.threshold)
        if self.min_count != 1:
            payload["min_count"] = self.min_count
        if self.cooldown:
            payload["cooldown"] = self.cooldown
        if self.message:
            payload["message"] = self.message
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "AlertRule":
        where = tuple(sorted(payload.get("where", {}).items()))
        return cls(
            name=payload["name"],
            event_type=payload["event_type"],
            where=where,
            field=payload.get("field"),
            op=payload.get("op", ">="),
            threshold=payload.get("threshold"),
            min_count=payload.get("min_count", 1),
            severity=payload.get("severity", "warning"),
            cooldown=payload.get("cooldown", 0.0),
            message=payload.get("message", ""),
        )


#: Default SLO surface: link saturation, blackout, retry budget,
#: straggler presence, cost-model residual drift, verified-transport
#: checksum failures, and the serving layer's shed/SLA signals.
DEFAULT_RULES: tuple[AlertRule, ...] = (
    AlertRule(
        name="link-saturation",
        event_type="links",
        field="max_util",
        op=">=",
        threshold=0.95,
        severity="warning",
        cooldown=0.01,
        message="a link has been >=95% busy over the last sample window",
    ),
    AlertRule(
        name="link-blackout",
        event_type="fault",
        where=(("action", "fault.inject"), ("kind", "link-blackout")),
        severity="critical",
        message="a link blackout fault was injected",
    ),
    AlertRule(
        name="retry-budget",
        event_type="packet.retry",
        min_count=50,
        severity="warning",
        message="retry budget exhausted: >=50 packet retries this run",
    ),
    AlertRule(
        name="straggler-lag",
        event_type="fault",
        where=(("action", "fault.inject"), ("kind", "gpu-straggler")),
        severity="warning",
        message="a GPU straggler fault was injected",
    ),
    AlertRule(
        name="residual-drift",
        event_type="conformance",
        field="drift_ratio",
        op=">=",
        threshold=0.5,
        severity="warning",
        message="routing cost model drifting >=50% from simulated actuals",
    ),
    AlertRule(
        name="checksum-failure",
        event_type="integrity",
        where=(("kind", "checksum-failure"),),
        severity="critical",
        message="verified transport caught a payload checksum mismatch",
    ),
    AlertRule(
        name="admission-shed",
        event_type="query",
        where=(("action", "rejected"),),
        severity="warning",
        message="admission control shed a query (structured rejection)",
    ),
    AlertRule(
        name="sla-breach",
        event_type="query",
        where=(("action", "completed"),),
        field="latency",
        op=">=",
        threshold=1.0,
        severity="critical",
        cooldown=0.0,
        message="a served query's end-to-end latency breached the 1 s SLA",
    ),
)


class AlertEngine:
    """Evaluates rules over a stream; records, persists, and re-emits alerts."""

    def __init__(
        self,
        stream: TelemetryStream,
        rules: "tuple[AlertRule, ...] | list[AlertRule] | None" = None,
        path: "str | Path | None" = None,
    ) -> None:
        self.stream = stream
        self.rules = tuple(DEFAULT_RULES if rules is None else rules)
        self.fired: list[dict] = []
        self._counts: dict[str, int] = {}
        self._last_fired: dict[tuple[str, str], float] = {}
        self._sink = None
        if path is not None:
            target = Path(path)
            target.parent.mkdir(parents=True, exist_ok=True)
            self._sink = target.open("w", encoding="utf-8")
        stream.subscribe(self.feed)

    def feed(self, event: dict) -> None:
        if event.get("type") == "alert":
            return  # never alert on alerts
        for rule in self.rules:
            if not rule.matches(event):
                continue
            count = self._counts.get(rule.name, 0) + 1
            self._counts[rule.name] = count
            if count < rule.min_count:
                continue
            t = event.get("t", 0.0)
            clock = event.get("clock", "sim")
            key = (rule.name, clock)
            last = self._last_fired.get(key)
            if last is not None and rule.cooldown and t - last < rule.cooldown:
                continue
            self._last_fired[key] = t
            self._fire(rule, event, t, clock, count)

    def _fire(self, rule: AlertRule, event: dict, t: float, clock: str, count: int) -> None:
        alert = {
            "rule": rule.name,
            "severity": rule.severity,
            "message": rule.message or f"rule {rule.name} matched",
            "t": t,
            "clock": clock,
            "count": count,
            "source": event.get("type"),
        }
        if rule.field is not None:
            alert["value"] = event.get(rule.field)
            alert["threshold"] = rule.threshold
        self.fired.append(alert)
        if self._sink is not None:
            self._sink.write(json.dumps(alert, separators=(",", ":")) + "\n")
            self._sink.flush()
        self.stream.emit(
            "alert",
            t=t,
            clock=clock,
            rule=rule.name,
            severity=rule.severity,
            message=alert["message"],
            count=count,
        )

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def summary(self) -> dict:
        by_severity: dict[str, int] = {}
        for alert in self.fired:
            by_severity[alert["severity"]] = by_severity.get(alert["severity"], 0) + 1
        return {"fired": len(self.fired), "by_severity": by_severity}


def load_rules(path: "str | Path") -> tuple[AlertRule, ...]:
    """Load alert rules from a JSON file (list of rule dicts)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, list):
        raise ValueError("alert rules file must hold a JSON list of rules")
    rules = []
    for index, entry in enumerate(payload):
        try:
            rules.append(AlertRule.from_dict(entry))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(
                f"alert rule #{index} in {path} is malformed: {exc}"
            ) from exc
    return tuple(rules)
