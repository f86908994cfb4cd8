"""End-to-end host-time benchmark of the MG-Join reproduction.

Host time is the wall-clock cost of running the pipeline, not the
simulated seconds inside its results.  Three ways to run it, from the
repository root:

    python3 benchmarks/e2e/run.py --seed 42 --out result.json
        All five workloads, three phases: cold (fresh processes), warm
        (interleaved rounds) and traced (per-layer self time).  Prints
        every metric with its unit and sample count.

    python3 benchmarks/e2e/run.py --workload join-sim --seed 1 --seconds 10 --trace 0
        One workload for about ``--seconds`` seconds.  The last line of
        stdout is one JSON object with the end-to-end metrics
        (``--trace 0``) or the per-layer metrics (``--trace 1``) that
        ``BENCHMARK.json`` lists.

    python3 benchmarks/e2e/run.py compare result-parent.json result.json
        Compares two results of the first form against the bounds in
        ``BENCHMARK.json``; exits 1 on any breach.

Load model: closed loop.  One parent drives one child process at a
time, and a child makes its next call only after the previous one
returned.  Children start from the default engine with no on-disk
workload cache, and import ``repro`` from this checkout's ``src/``.

Every time reported is scaled to a reference host speed: the parent
runs a fixed probe just before each sample (see :class:`HostSpeed`).
"""

from __future__ import annotations

import argparse
import compileall
import gc
import heapq
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))

import trace as layer_trace  # noqa: E402  (benchmarks/e2e/trace.py)
from workloads import WORKLOADS, digest  # noqa: E402

#: Settings that would change which engine or input cache a child uses.
DROPPED_ENV = (
    "REPRO_ENGINE",
    "REPRO_ENGINE_BACKEND",
    "REPRO_WORKLOAD_CACHE",
    "REPRO_RUN_ID",
)

#: Full run: fresh-process rounds, interleaved warm rounds, traced calls.
COLD_ROUNDS = 5
WARM_ROUNDS = 15
TRACED_CALLS = 3

#: One-workload run: fresh set-up-only children placed between stretches
#: of warm samples (the warm child's own set-up is one more set-up
#: sample), and the least number of traced calls.
SETUP_CHILDREN = 2
MIN_TRACED_CALLS = 3

#: A one-workload run must end well inside three minutes.
RUN_DEADLINE_S = 170.0
REPLY_TIMEOUT_S = 300.0


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in DROPPED_ENV}
    env["PYTHONPATH"] = str(SRC)
    # Fixed string hashing, so set and dict orders repeat run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One child process running one workload (see ``child.py``)."""

    def __init__(self, workload: str, seed: int, *, trace: bool = False,
                 deadline: float | None = None) -> None:
        command = [sys.executable, str(HERE / "child.py"),
                   "--workload", workload, "--seed", str(seed)]
        if trace:
            command.append("--trace")
        self.workload = workload
        self.deadline = deadline
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            self.ready = self._receive("ready")
        except BaseException:
            self.close()
            raise
        #: Peak RSS of the child so far, as of its last report.
        self.rss_mb = self.ready["rss_mb"]

    def _receive(self, op: str) -> dict:
        timeout = REPLY_TIMEOUT_S
        if self.deadline is not None:
            timeout = min(timeout, self.deadline - time.monotonic())
        if timeout <= 0 or not self._selector.select(timeout):
            raise BenchmarkError(f"{self.workload}: child did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchmarkError(f"{self.workload}: child exited unexpectedly")
        message = json.loads(line)
        if message["op"] != op:
            raise BenchmarkError(
                f"{self.workload}: child failed:\n{message.get('message', message)}"
            )
        return message

    def sample(self, calls: int) -> dict:
        """Make ``calls`` calls in the child; returns its report."""
        self.proc.stdin.write(json.dumps({"op": "sample", "calls": calls}) + "\n")
        self.proc.stdin.flush()
        report = self._receive("sample")
        self.rss_mb = report["rss_mb"]
        return report

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._selector.close()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Tally:
    """Calls attempted and failed for one workload, over every phase.

    A call fails when it raises, when its check fails, or when its
    simulated outputs differ from the workload's other calls (the
    simulation is deterministic for a fixed seed).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.outputs_digest: str | None = None

    def add(self, report: dict) -> dict:
        self.attempted += len(report["walls"])
        self.failed += len(report["errors"])
        self.errors.extend(report["errors"])
        for value in report["outputs_digest"]:
            if self.outputs_digest is None:
                self.outputs_digest = value
            elif value != self.outputs_digest:
                self.failed += 1
                self.errors.append("simulated outputs differ between calls")
        return report

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def summarize(values: list[float], unit: str) -> dict:
    """Median with quartiles, IQR and sample count."""
    values = [float(value) for value in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "unit": unit,
        "n": len(values),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "samples": values,
    }


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: Median :func:`speed_probe` time on the reference host, a 2-core Intel
#: Xeon virtual machine (Python 3.11, numpy 2.4) at its usual speed.
REFERENCE_PROBE_S = 0.1

_PROBE_KEYS = np.random.default_rng(0).integers(0, 1 << 40, size=1 << 19)


def speed_probe() -> float:
    """Host seconds of one fixed piece of work that does not use ``repro``.

    Interpreter work like the event loop's (a heap and a dict) and numpy
    sorting like the join's.  Its time moves with the host's speed, and
    never with the program's code.
    """
    gc.collect()
    start = time.perf_counter()
    heap: list[tuple[int, int]] = []
    seen: dict[int, int] = {}
    for index in range(60_000):
        heapq.heappush(heap, ((index * 7919) % 10007, index))
        seen[index & 4095] = seen.get(index & 4095, 0) + 1
        if len(heap) > 512:
            heapq.heappop(heap)
    np.searchsorted(np.sort(_PROBE_KEYS), _PROBE_KEYS[::4])
    return time.perf_counter() - start


class HostSpeed:
    """Scales host times to the reference host's speed, sample by sample.

    A shared host runs well below its usual speed for minutes at a time,
    and every time measured meanwhile moves with it.  So each sample is
    multiplied by ``REFERENCE_PROBE_S`` over the time of a
    :func:`speed_probe` run just before it.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []

    def factor(self) -> float:
        """Runs the probe; returns the factor for the sample taken next."""
        factor = REFERENCE_PROBE_S / speed_probe()
        self.factors.append(factor)
        return factor

    @property
    def median(self) -> float:
        """The host's median speed over the run, as a share of the reference."""
        return statistics.median(self.factors)


def per_call(report: dict) -> float:
    """Mean host time per call over one sample."""
    return sum(report["walls"]) / len(report["walls"])


def sample_for(child: Child, budget: float, tally: Tally,
               speed: HostSpeed | None = None) -> list[float]:
    """Per-call host time of warm samples, until ``budget`` seconds are spent.

    With ``speed``, each sample is scaled to the reference host's speed.
    """
    calls = WORKLOADS[child.workload].calls_per_sample
    end = time.monotonic() + budget
    walls = []
    while not walls or time.monotonic() < end:
        factor = 1.0 if speed is None else speed.factor()
        walls.append(per_call(tally.add(child.sample(calls))) * factor)
    return walls


class Samples:
    """End-to-end samples of one workload: cold children and warm samples.

    Times are scaled to the reference host's speed by the caller's factor.
    """

    def __init__(self) -> None:
        self.setup: list[float] = []
        self.first: list[float] = []
        self.rss: list[float] = []
        self.wall: list[float] = []

    def cold_child(self, name: str, seed: int, tally: Tally, factor: float) -> None:
        """One fresh child: set-up and a first call."""
        with Child(name, seed) as child:
            self.setup.append(child.ready["setup_s"] * factor)
            first = tally.add(child.sample(1))
            self.first.append(first["walls"][0] * factor)
            self.rss.append(first["rss_mb"])

    def setup_child(self, name: str, seed: int, factor: float,
                    deadline: float | None = None) -> None:
        """One fresh child that only sets up, for one more set-up sample."""
        with Child(name, seed, deadline=deadline) as child:
            self.setup.append(child.ready["setup_s"] * factor)

    def metrics(self) -> dict:
        """Summaries of the metrics that have samples."""
        series = {"setup_s": (self.setup, "s"), "first_s": (self.first, "s"),
                  "wall_s": (self.wall, "s"), "peak_rss_mb": (self.rss, "MB")}
        return {name: summarize(values, unit)
                for name, (values, unit) in series.items() if values}


def traced_child(name: str, seed: int, calls: int, untraced_wall: float,
                 tally: Tally, deadline: float | None = None) -> dict:
    """Traced set-up, a warm-up call and ``calls`` traced calls.

    Returns the per-layer metrics, the exact work counts and the
    fingerprint: sha256 over the calls' simulated outputs and engine
    event counts.  A call whose event count differs from the others is
    a failure.
    """
    with Child(name, seed, trace=True, deadline=deadline) as child:
        tally.add(child.sample(1))
        traced = tally.add(child.sample(calls))
    events = sorted({s["counts"]["sim.engine.events"] for s in traced["layers"]})
    if len(events) > 1:
        tally.failed += 1
        tally.errors.append(f"engine event counts differ between calls: {events}")
    layers = layer_trace.layer_metrics(
        child.ready["setup_layers"], child.ready["setup_wall"], traced["layers"],
        traced["walls"], untraced_wall,
    )
    fields = {
        "outputs": traced["outputs"][0] if traced["outputs"] else None,
        "engine_events": events,
    }
    return {
        "layers": {name: {"value": value, "unit": unit}
                   for name, (value, unit) in sorted(layers.items())},
        "counts": layer_trace.exact_counts(traced["layers"]),
        "sim_fingerprint": digest(fields),
        "fingerprint_fields": fields,
    }


# ---------------------------------------------------------------------------
# One workload (the per-run contract)
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    """One workload for about ``seconds``; returns the contract's result line."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    tally = Tally()
    if trace:
        # Half the time untraced, for the tracing overhead; half traced.
        with Child(name, seed, deadline=deadline) as child:
            tally.add(child.sample(1))
            untraced = statistics.median(sample_for(child, seconds / 2, tally))
        calls = max(MIN_TRACED_CALLS, int(seconds / 2 / untraced))
        layers = traced_child(name, seed, calls, untraced, tally, deadline)["layers"]
        metrics = {metric["name"]: layers[metric["name"]] for metric in spec["per_layer"]}
    else:
        # One warm child measures for ``seconds``; set-up-only children
        # run between its stretches, so set-up samples span the run too.
        samples, speed = Samples(), HostSpeed()
        factor = speed.factor()
        with Child(name, seed, deadline=deadline) as child:
            samples.setup.append(child.ready["setup_s"] * factor)
            tally.add(child.sample(1))  # warm-up call
            stretches = SETUP_CHILDREN + 1
            for index in range(stretches):
                if index:
                    samples.setup_child(name, seed, speed.factor(), deadline)
                samples.wall.extend(sample_for(child, seconds / stretches, tally, speed))
            samples.rss.append(child.rss_mb)
        summaries = samples.metrics()
        metrics = {
            metric["name"]: {"value": summaries[metric["name"]]["value"],
                             "unit": metric["unit"]}
            for metric in spec["end_to_end"]
        }
        print(f"{name}: median host speed {speed.median:.3f} x the reference",
              file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# All workloads: cold, warm and traced phases
# ---------------------------------------------------------------------------


def run_all(seed: int, log) -> dict:
    """Every workload, interleaved round by round.

    The cold rounds are spread among the warm rounds, so that cold and
    warm samples both span the whole run: the host's speed drifts over
    minutes, and a cold phase of its own would sit in one stretch of it.
    """
    names = list(WORKLOADS)
    tallies = {name: Tally() for name in names}
    samples = {name: Samples() for name in names}
    phases = {"cold_s": 0.0, "warm_s": 0.0}
    speed = HostSpeed()

    # One long-lived child per workload; only one child is busy at a time.
    children: dict[str, Child] = {}
    try:
        started = time.monotonic()
        for name in names:
            children[name] = Child(name, seed)
            tallies[name].add(children[name].sample(1))  # warm-up call
        phases["warm_s"] += time.monotonic() - started
        for round_index in range(WARM_ROUNDS):
            if round_index % (WARM_ROUNDS // COLD_ROUNDS) == 0:
                started = time.monotonic()
                for name in names:
                    samples[name].cold_child(name, seed, tallies[name], speed.factor())
                phases["cold_s"] += time.monotonic() - started
                log(f"cold round {len(samples[names[0]].setup)}/{COLD_ROUNDS} done")
            started = time.monotonic()
            for name in names:
                factor = speed.factor()
                report = children[name].sample(WORKLOADS[name].calls_per_sample)
                samples[name].wall.append(per_call(tallies[name].add(report)) * factor)
            phases["warm_s"] += time.monotonic() - started
            log(f"warm round {round_index + 1}/{WARM_ROUNDS} done")
    finally:
        for child in children.values():
            child.close()

    started = time.monotonic()
    results = {}
    for name in names:
        tally = tallies[name]
        metrics = samples[name].metrics()
        # Traced calls are not scaled, so neither is their base.
        untraced = metrics["wall_s"]["value"] / speed.median
        traced = traced_child(name, seed, TRACED_CALLS, untraced, tally)
        metrics["failed_share"] = {
            "value": tally.failed_share, "unit": "ratio", "n": tally.attempted,
        }
        results[name] = {
            "e2e": metrics,
            **traced,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "errors": tally.errors[:20],
        }
        log(f"traced {name}")
    phases["traced_s"] = time.monotonic() - started
    return {
        "seed": seed,
        "phases": phases,
        "host_speed": speed.median,
        "python": sys.version.split()[0],
        "workloads": results,
    }


def render(result: dict, spec: dict) -> str:
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    lines = []
    for name, workload in result["workloads"].items():
        lines.append(f"== {name}  (attempted {workload['attempted']},"
                     f" failed {workload['failed']})")
        for metric, value in workload["e2e"].items():
            spread = ""
            if value.get("iqr") is not None and value["value"]:
                spread = f"  IQR {value['iqr'] / value['value']:.1%}"
            lines.append(f"  {metric:<16} {value['value']:>12.6g} {value['unit']:<6}"
                         f" n={value['n']}{spread}")
        for metric in units:
            layer = workload["layers"][metric]
            lines.append(f"  {metric:<34} {layer['value']:>12.6g} {layer['unit']}")
        lines.append(f"  sim_fingerprint  {workload['sim_fingerprint']}")
    phases = result["phases"]
    lines.append("phases: " + ", ".join(f"{k} {v:.0f} s" for k, v in phases.items()))
    lines.append(f"median host speed {result['host_speed']:.3f} x the reference")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare(before: dict, after: dict, spec: dict) -> tuple[list[str], bool]:
    """Rows of ``after`` against ``before``; the flag is True on any breach."""
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    rows, breach = [], False
    for name in before["workloads"]:
        if name not in after["workloads"]:
            rows.append(f"{name}: missing from the second result  BREACH")
            breach = True
            continue
        a, b = before["workloads"][name], after["workloads"][name]
        for metric, definition in metrics.items():
            status, change = _verdict(a["e2e"][metric], b["e2e"][metric], definition)
            breach |= status == "BREACH"
            rows.append(f"{name:<18} {metric:<12} {a['e2e'][metric]['value']:>11.5g}"
                        f" -> {b['e2e'][metric]['value']:>11.5g}  {change:+7.1%}"
                        f"  bound {definition['bound']:.0%}  {status}")
        share_a = a["e2e"]["failed_share"]["value"]
        share_b = b["e2e"]["failed_share"]["value"]
        status = "BREACH" if share_b > share_a else "ok"
        breach |= status == "BREACH"
        rows.append(f"{name:<18} {'failed_share':<12} {share_a:>11.5g} ->"
                    f" {share_b:>11.5g}  any increase  {status}")
        same_print = a["sim_fingerprint"] == b["sim_fingerprint"]
        same_counts = a["counts"] == b["counts"]
        breach |= not (same_print and same_counts)
        rows.append(f"{name:<18} sim_fingerprint {'equal' if same_print else 'DIFFERS'},"
                    f" exact counts {'equal' if same_counts else 'DIFFER'}")
    return rows, breach


def _verdict(a: dict, b: dict, definition: dict) -> tuple[str, float]:
    """ok / BREACH / unresolved / better for one metric on one workload."""
    sign = 1.0 if definition["better"] == "lower" else -1.0
    change = (b["value"] - a["value"]) / a["value"]
    bound = definition["bound"]
    noisy = any(side["iqr"] / side["value"] > bound for side in (a, b))
    if noisy:
        # Spread wider than the bound: only a clean sweep is a verdict.
        if all(sign * y < sign * x for x in a["samples"] for y in b["samples"]):
            return "better", change
        return "unresolved", change
    if sign * change > bound:
        return "BREACH", change
    return "ok", change


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def load_spec() -> dict:
    if not SPEC.is_file():
        raise BenchmarkError(f"{SPEC} is missing")
    return json.loads(SPEC.read_text())


def prepare() -> dict:
    """Check the checkout holds the program and byte-compile it once."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to benchmark: {SRC / 'repro'} is missing")
    spec = load_spec()
    # Children then load cached bytecode instead of each compiling it.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    return spec


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("before")
        parser.add_argument("after")
        args = parser.parse_args(argv[1:])
        rows, breach = compare(
            json.loads(Path(args.before).read_text()),
            json.loads(Path(args.after).read_text()), load_spec(),
        )
        print("\n".join(rows))
        print("FAIL" if breach else "PASS")
        return 1 if breach else 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result as JSON here")
    args = parser.parse_args(argv)
    try:
        spec = prepare()
        if args.workload is not None:
            line = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), spec)
            print(json.dumps(line))
            return 0
        result = run_all(args.seed, lambda text: print(text, file=sys.stderr))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(render(result, spec))
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    failed = sum(w["failed"] for w in result["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
