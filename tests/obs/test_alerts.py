"""Alert engine: rule matching, budgets, cooldowns, persistence."""

import json

import pytest

from repro.obs.alerts import (
    DEFAULT_RULES,
    AlertEngine,
    AlertRule,
    load_rules,
)
from repro.obs.stream import TelemetryStream


def links_event(t, max_util):
    return dict(
        type="links", t=t, clock="sim", samples=[], max_util=max_util,
        max_queue=0.0, v=1,
    )


class TestAlertRule:
    def test_threshold_match(self):
        rule = AlertRule("hot", "links", field="max_util", threshold=0.9)
        assert rule.matches(links_event(0.0, 0.95))
        assert not rule.matches(links_event(0.0, 0.5))
        assert not rule.matches({"type": "fault"})

    def test_where_clause(self):
        rule = AlertRule(
            "blackout", "fault",
            where=(("action", "fault.inject"), ("kind", "link-blackout")),
        )
        assert rule.matches(
            {"type": "fault", "action": "fault.inject", "kind": "link-blackout"}
        )
        # Restores must not re-fire injection alerts.
        assert not rule.matches(
            {"type": "fault", "action": "fault.restore", "kind": "link-blackout"}
        )

    def test_non_numeric_value_never_matches(self):
        rule = AlertRule("hot", "links", field="max_util", threshold=0.9)
        assert not rule.matches(
            {"type": "links", "max_util": "high"}
        )
        assert not rule.matches({"type": "links", "max_util": True})

    @pytest.mark.parametrize("op,value,fires", [
        (">=", 0.9, True), (">", 0.9, False), ("<=", 0.9, True),
        ("<", 0.9, False), ("==", 0.9, True),
    ])
    def test_ops(self, op, value, fires):
        rule = AlertRule("r", "links", field="max_util", op=op, threshold=0.9)
        assert rule.matches(links_event(0.0, value)) is fires

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown op"):
            AlertRule("r", "links", field="x", op="!=", threshold=1.0)
        with pytest.raises(ValueError, match="without threshold"):
            AlertRule("r", "links", field="x")
        with pytest.raises(ValueError, match="min_count"):
            AlertRule("r", "links", min_count=0)

    def test_dict_roundtrip(self):
        for rule in DEFAULT_RULES:
            assert AlertRule.from_dict(rule.to_dict()) == rule


class TestAlertEngine:
    def test_fires_and_reemits_into_stream(self):
        stream = TelemetryStream(None)
        seen = []
        stream.subscribe(seen.append)
        engine = AlertEngine(stream)
        stream.emit("links", t=0.0, samples=[], max_util=0.99, max_queue=0.0)
        assert len(engine.fired) == 1
        alert = engine.fired[0]
        assert alert["rule"] == "link-saturation"
        assert alert["value"] == 0.99 and alert["threshold"] == 0.95
        assert any(event["type"] == "alert" for event in seen)

    def test_never_alerts_on_alerts(self):
        stream = TelemetryStream(None)
        rules = (AlertRule("meta", "alert"),)
        engine = AlertEngine(stream, rules)
        stream.emit("alert", t=0.0, rule="x", severity="warning")
        assert engine.fired == []

    def test_min_count_budget(self):
        stream = TelemetryStream(None)
        engine = AlertEngine(
            stream, (AlertRule("budget", "packet.retry", min_count=3),)
        )
        for index in range(4):
            stream.emit("packet.retry", t=float(index), reason="busy")
        # Fires at the 3rd and again at the 4th (no cooldown configured).
        assert [alert["count"] for alert in engine.fired] == [3, 4]

    def test_cooldown_rate_limits(self):
        stream = TelemetryStream(None)
        engine = AlertEngine(
            stream,
            (AlertRule("hot", "links", field="max_util", threshold=0.9,
                       cooldown=1.0),),
        )
        for t in (0.0, 0.5, 1.5):
            stream.emit("links", t=t, samples=[], max_util=1.0, max_queue=0.0)
        assert [alert["t"] for alert in engine.fired] == [0.0, 1.5]

    def test_writes_alerts_jsonl(self, tmp_path):
        path = tmp_path / "telemetry" / "alerts.jsonl"
        stream = TelemetryStream(None)
        engine = AlertEngine(stream, path=path)
        stream.emit(
            "fault", t=0.1, action="fault.inject", kind="link-blackout"
        )
        engine.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["rule"] == "link-blackout"
        assert lines[0]["severity"] == "critical"

    def test_summary_counts_by_severity(self):
        stream = TelemetryStream(None)
        engine = AlertEngine(stream)
        stream.emit("fault", t=0.0, action="fault.inject", kind="link-blackout")
        stream.emit("fault", t=0.0, action="fault.inject", kind="gpu-straggler")
        assert engine.summary() == {
            "fired": 2,
            "by_severity": {"critical": 1, "warning": 1},
        }

    def test_default_rules_ignore_fault_restores(self):
        stream = TelemetryStream(None)
        engine = AlertEngine(stream)
        stream.emit("fault", t=0.5, action="fault.restore", kind="link-blackout")
        assert engine.fired == []

    def test_residual_drift_rule(self):
        stream = TelemetryStream(None)
        engine = AlertEngine(stream)
        stream.emit("conformance", t=1.0, count=100, drift_ratio=0.75)
        assert [alert["rule"] for alert in engine.fired] == ["residual-drift"]

    def test_checksum_failure_rule(self):
        stream = TelemetryStream(None)
        engine = AlertEngine(stream)
        stream.emit(
            "integrity", t=1.0, kind="checksum-failure", src=0, dst=1, sequence=3
        )
        assert [alert["rule"] for alert in engine.fired] == ["checksum-failure"]
        assert engine.fired[0]["severity"] == "critical"

    def test_checksum_rule_ignores_dup_drops(self):
        # Duplicate suppression is routine protection, not an SLO breach.
        stream = TelemetryStream(None)
        engine = AlertEngine(stream)
        stream.emit(
            "integrity", t=1.0, kind="dup-dropped", src=0, dst=1, sequence=3
        )
        assert engine.fired == []

    def test_checksum_rule_is_a_default(self):
        assert any(rule.name == "checksum-failure" for rule in DEFAULT_RULES)


def test_load_rules_roundtrip(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps([rule.to_dict() for rule in DEFAULT_RULES]))
    assert load_rules(path) == DEFAULT_RULES
    path.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(ValueError, match="JSON list"):
        load_rules(path)
