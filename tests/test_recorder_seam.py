"""The simulator and the serving layer write no telemetry themselves.

They report to their recorders (:mod:`repro.sim.recorder`); the
observer turns that into metrics, spans and stream events.  The scan
parses ``src/repro/sim`` and ``src/repro/serve`` with :mod:`ast`
(nothing is imported) and fails on any call of a method named like a
stream or metrics-registry writer, whatever it is called on.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Packages that must report through the recorder seam only.
PACKAGES = ("sim", "serve")

#: ``TelemetryStream.emit`` and the ``MetricsRegistry`` instrument makers.
WRITERS = {"emit", "gauge", "counter", "histogram"}


def telemetry_calls() -> list[str]:
    found = []
    for package in PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in WRITERS
                ):
                    where = path.relative_to(SRC.parent)
                    found.append(f"{where}:{node.lineno} .{node.func.attr}(")
    return found


def test_sim_and_serve_write_no_metric_or_stream_event():
    assert telemetry_calls() == [], (
        "report through a Recorder hook; the observer writes the telemetry"
    )
