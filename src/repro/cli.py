"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``topology`` — describe a machine (links, bisection, staged pairs).
* ``join`` — run one join (mg-join / dprj / umj) and print the report;
  ``--trace out.json`` captures a Chrome trace of the whole pipeline.
* ``shuffle`` — run one distribution step under a routing policy.
* ``trace`` — run one fully-observed distribution step and export the
  Chrome trace / merged CSV / terminal summary (see
  ``docs/observability.md``).
* ``analyze`` — run one sampled join (or shuffle) and emit the link
  congestion analysis: link x time heatmap, per-phase bottleneck
  attribution and the ARM decision-regret table.
* ``chaos`` — run a join healthy and under a fault scenario (built-in
  preset or YAML/JSON plan), assert the result stayed correct and
  report the throughput retained (see ``docs/robustness.md``);
  ``--serve`` grades a served batch instead: many queries multiplexed
  over one shared fabric while the fault fires, every query's digest
  checked against its solo healthy run by the same verdict.
* ``serve`` — multiplex many concurrent joins (a JSON request file or
  ``--synthetic N``) over one shared fabric with admission control,
  deadlines, per-query retry budgets and per-tenant SLA telemetry.
* ``perf`` — collect the canonical perf metrics and gate them against
  a committed ``BENCH_*.json`` baseline (10% tolerance), or against
  the latest ``perf`` record of a results store (``--store``).
* ``experiments`` — the experiment farm (see ``docs/observability.md``):
  ``run`` executes a parameterized sweep (topology x policy x fault
  plan x scale) into the results-store ledger with live progress
  events, ``list`` queries the ledger, ``compare`` renders the
  direction-aware metric diff between two runs (with regression
  attribution down to phases and links), ``report`` draws
  per-topology trend lines over the ledger, and ``ingest`` imports
  legacy artifacts (BENCH baselines, chaos reports) as records.
* ``bench`` — regenerate many figures in parallel over a process pool,
  with per-figure wall-clock self-times and a ``bench_run.json``
  manifest; ``--gate`` chains the perf-regression gate afterwards.
* ``figure`` — regenerate a paper figure (fig01 .. fig14).
* ``tpch`` — run TPC-H queries on a chosen engine.
* ``top`` — live terminal dashboard tailing an NDJSON telemetry
  stream written by ``--stream`` (phase bar, link heatmap, alerts).

Sizes accept suffixes: ``512M``, ``2G``, ``64K``.

Flags that several commands share are declared once, by one ``_*_arg``
or ``_*_args`` helper per group above ``build_parser``; a default that
differs between commands is a parameter of the helper.

Progress/notice output goes through the ``repro`` logger to stderr
(``--log-level``, ``--quiet``), so stdout stays clean for reports and
for ``--stream -`` NDJSON.  Exit codes: 0 ok, 1 a failed gate, 2 bad
input or an unrunnable scenario, 3 silent corruption detected.
"""

from __future__ import annotations

import argparse
import json
import logging
import pathlib
import sys

from repro.baselines import DPRJJoin, UMJJoin
from repro.bench.regression import PERF_WORKLOADS, skewed_flows
from repro.core import MGJoin
from repro.obs import Observer, run_metadata
from repro.obs.analyze import (
    LinkTimelineSampler, ObservedRun, ascii_heatmap,
    render_bottleneck_report, render_regret_table, write_analysis,
)
from repro.routing import POLICIES
from repro.sim import ARBITRATION_MODES, FlowMatrix, ShuffleSimulator
from repro.topology import MACHINES, dgx1_topology
from repro.workloads.generator import (
    WorkloadSpec,
    generate_workload,
    round_logical_tuples,
)

ALGORITHMS = {"mg-join": MGJoin, "dprj": DPRJJoin, "umj": UMJJoin}
LOG_LEVELS = ("debug", "info", "warning", "error")

log = logging.getLogger("repro.cli")

_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3, "b": 1024**3}


class BadInput(Exception):
    """Input a command cannot run with: ``main`` prints it and exits 2."""


def parse_size(text: str) -> int:
    """Parse ``512M``-style sizes into integers."""
    text = text.strip().lower()
    if not text:
        raise argparse.ArgumentTypeError("empty size")
    multiplier = 1
    if text[-1] in _SUFFIXES:
        multiplier = _SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        value = int(float(text) * multiplier)
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"cannot parse size {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("size must be positive")
    return value


# -- flag groups ------------------------------------------------------------
# Per-command defaults are parameters rather than ``parents=`` plus
# ``set_defaults``: a parent's actions are shared objects, so a default
# set on one command would change it on every sibling.


def _target_args(sub, gpus: int | None = 8, gpus_help: str | None = None):
    """``--machine``; unless ``gpus`` is None also ``--policy`` and
    ``--gpus``."""
    sub.add_argument("--machine", choices=sorted(MACHINES), default="dgx1")
    if gpus is not None:
        sub.add_argument(
            "--policy", choices=sorted(POLICIES), default="adaptive"
        )
        sub.add_argument("--gpus", type=int, default=gpus, help=gpus_help)


def _size_args(sub, logical: str = "512M", real: str = "64K") -> None:
    """``--tuples-per-gpu``, ``--real-tuples`` and ``--seed``."""
    sub.add_argument(
        "--tuples-per-gpu", type=parse_size, default=parse_size(logical),
        help="logical tuples per relation per GPU",
    )
    sub.add_argument(
        "--real-tuples", type=parse_size, default=parse_size(real),
        help="materialized tuples per relation per GPU",
    )
    sub.add_argument("--seed", type=int, default=42)


def _zipf_args(sub, keys: float = 0.0) -> None:
    sub.add_argument("--zipf-placement", type=float, default=0.0)
    sub.add_argument("--zipf-keys", type=float, default=keys)


def _flow_arg(sub, default: str) -> None:
    sub.add_argument(
        "--bytes-per-flow", type=parse_size, default=parse_size(default)
    )


def _stream_arg(sub, what: str = "live NDJSON telemetry stream") -> None:
    sub.add_argument(
        "--stream", metavar="PATH", default=None,
        help=f"write the {what} here ('-' = stdout; tail it with"
        " 'repro top')",
    )


def _alert_args(sub) -> None:
    sub.add_argument(
        "--alerts", metavar="PATH", default=None,
        help="write alerts fired over the stream (sla-breach,"
        " admission-shed, ...) here as JSON lines",
    )
    sub.add_argument(
        "--alert-rules", metavar="PATH", default=None,
        help="JSON list of alert rules overriding the built-in defaults",
    )


def _verify_args(sub) -> None:
    sub.add_argument(
        "--verify", dest="verify", action="store_true", default=None,
        help="force the verified transport on (per-packet checksums,"
        " NACK/retransmit, duplicate suppression)",
    )
    sub.add_argument(
        "--no-verify", dest="verify", action="store_false",
        help="force the verified transport off; injected corruption is"
        " then *detected* by the end-to-end audit (exit code 3) instead"
        " of repaired (default: on exactly when the plan has"
        " corruption-class faults)",
    )


def _store_arg(sub, help: str = "results-store directory (default:"
               " $REPRO_RESULTS_STORE or ./experiments)") -> None:
    sub.add_argument("--store", metavar="DIR", default=None, help=help)


def _out_dir_arg(sub, help: str, default: str | None = None) -> None:
    sub.add_argument("--out-dir", metavar="DIR", default=default, help=help)


def _batch_args(sub) -> None:
    """``--arbitration`` and ``--retry-budget`` of a served batch."""
    sub.add_argument(
        "--arbitration", choices=(*ARBITRATION_MODES, "none"), default="fair",
        help="shared-link bandwidth arbitration between queries"
        " (default: fair)",
    )
    sub.add_argument(
        "--retry-budget", type=int, default=None, metavar="N",
        help="per-query repair budget (retries + host fallbacks) before"
        " a structured retry-budget-exhausted failure (default unbounded)",
    )


def _pool_args(sub, what: str) -> None:
    sub.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help=f"worker processes (default: min({what}, CPU count))",
    )
    sub.add_argument(
        "--workload-cache", metavar="DIR", default=None,
        help="shared on-disk workload cache for the worker processes",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro.faults.plan import PRESET_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="MG-Join (SIGMOD 2021) reproduction toolkit",
    )
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default="info",
        help="stderr verbosity for progress/notice output (default: info)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="shorthand for --log-level warning",
    )
    # Every subcommand accepts the logging flags too (`repro join
    # --quiet` as well as `repro --quiet join`).  Their SUPPRESS default
    # keeps an unsupplied flag from clobbering the main parser's value,
    # and is the same everywhere, so one shared parent is safe.
    hidden = argparse.ArgumentParser(add_help=False)
    hidden.add_argument(
        "--log-level", choices=LOG_LEVELS,
        default=argparse.SUPPRESS, help=argparse.SUPPRESS,
    )
    hidden.add_argument(
        "--quiet", action="store_true",
        default=argparse.SUPPRESS, help=argparse.SUPPRESS,
    )

    def command(group, name: str, handler, text: str):
        sub = group.add_parser(name, help=text, parents=[hidden])
        sub.set_defaults(handler=handler)
        return sub

    commands = parser.add_subparsers(dest="command", required=True)

    topology = command(commands, "topology", _cmd_topology, "describe a machine")
    _target_args(topology, gpus=None)

    join = command(commands, "join", _cmd_join, "run one distributed join")
    _target_args(join)
    join.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="mg-join")
    _size_args(join)
    _zipf_args(join)
    join.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome trace-event JSON of the run (Perfetto-loadable)",
    )
    join.add_argument(
        "--trace-csv", metavar="PATH", default=None,
        help="write the merged spans+metrics CSV of the run",
    )
    _stream_arg(join)

    shuffle = command(
        commands, "shuffle", _cmd_shuffle, "run one distribution step"
    )
    _target_args(shuffle)
    _flow_arg(shuffle, "1G")

    trace = command(
        commands, "trace", _cmd_trace,
        "run one observed distribution step and export traces",
    )
    _target_args(trace)
    _flow_arg(trace, "256M")
    trace.add_argument(
        "--out", metavar="PATH", default="trace.json",
        help="Chrome trace-event JSON output path",
    )
    trace.add_argument(
        "--csv", metavar="PATH", default=None,
        help="also write the merged spans+metrics CSV here",
    )
    trace.add_argument(
        "--gantt", action="store_true",
        help="print the link×time utilization heatmap of the busiest links",
    )

    analyze = command(
        commands, "analyze", _cmd_analyze,
        "run one sampled join/shuffle and emit the congestion analysis",
    )
    _target_args(analyze)
    analyze.add_argument(
        "--mode", choices=("join", "shuffle"), default="join",
        help="analyze a full MG-Join run (--tuples-per-gpu, --real-tuples,"
        " --zipf-*) or a bare distribution step (--bytes-per-flow,"
        " --hot-gpu)",
    )
    analyze.add_argument("--bytes-per-flow", type=parse_size, default=None)
    analyze.add_argument(
        "--hot-gpu", type=int, default=None, metavar="ID",
        help="skew shuffle-mode traffic toward one hot receiver",
    )
    _size_args(analyze)
    _zipf_args(analyze, keys=0.5)
    analyze.add_argument(
        "--buckets", type=int, default=48,
        help="time buckets across the heatmap's x axis",
    )
    analyze.add_argument(
        "--top", type=int, default=10, help="links/rows shown per section"
    )
    _out_dir_arg(
        analyze, "also write heatmap.csv/json, bottlenecks.json and regret.csv"
    )
    analyze.add_argument(
        "--conformance", action="store_true",
        help="instrument every routed transfer with its predicted"
        " T_R/D_R cost and print the cost-model conformance section",
    )
    analyze.add_argument(
        "--chaos", choices=PRESET_NAMES, default=None, metavar="PRESET",
        help="inject a fault preset into the analyzed run (a healthy run"
        " is made first to size the fault schedule)",
    )

    chaos = command(
        commands, "chaos", _cmd_chaos,
        "run a join under a fault scenario and grade its survival",
    )
    _target_args(chaos)
    chaos.add_argument(
        "--preset", choices=PRESET_NAMES, default=None,
        help="built-in fault scenario (times scale with the healthy run)",
    )
    chaos.add_argument(
        "--plan", metavar="PATH", default=None,
        help="YAML/JSON fault plan with absolute times; overrides --preset",
    )
    _size_args(chaos, real="32K")
    chaos.add_argument(
        "--min-retention", type=float, default=None, metavar="FRACTION",
        help="fail (exit 1) when faulted/healthy throughput drops below this"
        " (refused with exit 2 under --serve)",
    )
    chaos.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="transmission attempts before host fallback (retry policy;"
        " overrides the plan's baked-in retry section)",
    )
    chaos.add_argument(
        "--acquire-timeout", type=float, default=None, metavar="SECONDS",
        help="wait on remote buffer credits before treating the receiver"
        " as unresponsive (retry policy)",
    )
    chaos.add_argument(
        "--host-bandwidth", type=parse_size, default=None, metavar="BYTES/S",
        help="host-staged fallback relay bandwidth, e.g. 5G (retry policy)",
    )
    chaos.add_argument(
        "--checkpoint-interval", type=float, default=None, metavar="SECONDS",
        help="checkpoint per-GPU receive state this often so crash"
        " recovery can restore instead of re-shuffling (default: off)",
    )
    chaos.add_argument(
        "--expect-loss", action="store_true",
        help="require that the scenario actually killed at least one GPU"
        " and that join-level recovery engaged, under --serve in at least"
        " one query (fail otherwise)",
    )
    chaos.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write the faulted run's Chrome trace (fault windows visible)",
    )
    _out_dir_arg(chaos, "write chaos artifacts (trace JSON, report JSON) here")
    _store_arg(chaos, "also commit the chaos report to this results store")
    _stream_arg(chaos, "faulted run's NDJSON telemetry stream")
    _alert_args(chaos)
    _verify_args(chaos)
    chaos.add_argument(
        "--serve", action="store_true",
        help="chaos under concurrency: serve --queries N joins over one"
        " shared fabric while the scenario fires, and gate every query's"
        " match digest against its solo healthy run (served queries run"
        " unscaled, at --real-tuples)",
    )
    chaos.add_argument(
        "--queries", type=int, default=12, metavar="N",
        help="synthetic queries served concurrently (--serve; default 12)",
    )
    chaos.add_argument(
        "--min-in-flight", type=int, default=12, metavar="N",
        help="required concurrency peak for the --serve gate (default 12)",
    )
    _batch_args(chaos)
    chaos_sub = chaos.add_subparsers(dest="chaos_command")
    fuzz = command(
        chaos_sub, "fuzz", _cmd_chaos_fuzz,
        "property-based chaos fuzzing: random fault plans, shrunk"
        " reproducers",
    )
    _target_args(fuzz)
    _size_args(fuzz, real="32K")
    fuzz.add_argument(
        "--budget", type=int, default=25, metavar="N",
        help="number of random fault plans to run (default 25; the same"
        " --seed and budget give the same plan sequence)",
    )
    fuzz.add_argument(
        "--shrink-budget", type=int, default=32, metavar="N",
        help="max extra oracle runs spent minimizing one failure",
    )
    _verify_args(fuzz)
    _out_dir_arg(
        fuzz, "write fuzz_report.json and minimized reproducer plans here"
    )
    _store_arg(fuzz, "also commit the fuzz report to this results store")

    serve = command(
        commands, "serve", _cmd_serve,
        "multiplex many concurrent joins over one shared fabric",
    )
    serve.add_argument(
        "requests", nargs="?", metavar="PATH", default=None,
        help="JSON request file: a list of requests or {'requests': [...]}"
        " (each: name, gpus or gpu_ids, tuples, arrival, priority,"
        " deadline, seed)",
    )
    serve.add_argument(
        "--synthetic", type=int, default=None, metavar="N",
        help="serve N deterministic synthetic queries instead of a file",
    )
    _target_args(serve, 2, "GPUs per synthetic query (default 2)")
    serve.add_argument(
        "--tuples", type=parse_size, default=parse_size("2K"),
        help="materialized tuples per relation per GPU for synthetic"
        " queries (default 2K)",
    )
    serve.add_argument(
        "--arrival-spacing", type=float, default=0.0, metavar="SECONDS",
        help="inter-arrival spacing for synthetic queries (0 = all at"
        " the same instant)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-query deadline for synthetic queries (measured from"
        " arrival; expired queries are cancelled cleanly)",
    )
    serve.add_argument(
        "--priority-period", type=int, default=0, metavar="N",
        help="mark every Nth synthetic query high-priority (0 = never)",
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=4, metavar="N",
        help="admission-control cap on concurrently running queries",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=8, metavar="N",
        help="bounded admission queue; overflow is shed with a"
        " structured rejection, never a hang",
    )
    _batch_args(serve)
    serve.add_argument(
        "--plan", metavar="PATH", default=None,
        help="YAML/JSON fault plan (absolute times) injected into the"
        " shared fabric; use 'repro chaos --serve' for scaled presets",
    )
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the machine-readable serve report here",
    )
    _stream_arg(serve, "live NDJSON telemetry stream (per-query lanes)")
    _alert_args(serve)

    perf = command(
        commands, "perf", _cmd_perf,
        "gate current perf metrics against a BENCH baseline",
    )
    perf.add_argument(
        "--workload", choices=sorted(PERF_WORKLOADS), default="dgx1-8gpu",
        help="canonical perf workload to collect and gate"
        " (default: dgx1-8gpu; each gates its own BENCH_<name>.json)",
    )
    perf.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="BENCH_*.json baseline file (default: the repo's"
        " BENCH_<workload>.json)",
    )
    _store_arg(
        perf, "read the baseline through a results store (latest 'perf'"
        " record) instead of a BENCH file; see 'repro experiments'",
    )
    perf.add_argument(
        "--baseline-run", metavar="RUN_ID", default=None,
        help="specific store record to gate against (with --store;"
        " unambiguous prefixes allowed)",
    )
    perf.add_argument(
        "--tolerance", type=float, default=None,
        help="allowed relative regression (default 0.10)",
    )
    perf.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from the current collection and exit"
        " (with --store, also commit it to the ledger)",
    )

    experiments = command(
        commands, "experiments", None,
        "experiment farm: sweeps into a results store + observatory",
    )
    exp_sub = experiments.add_subparsers(dest="exp_command", required=True)

    exp_run = command(
        exp_sub, "run", _cmd_experiments_run,
        "run a parameterized sweep into the store",
    )
    exp_run.add_argument(
        "--sweep", nargs="+", metavar="KEY=V1[,V2,...]", required=True,
        help="axes: topology, policy, scale (GPU count), faults"
        " (preset or 'none'), seed — e.g."
        " --sweep topology=dgx1 policy=adaptive,static scale=2",
    )
    _store_arg(exp_run)
    _pool_args(exp_run, "points")
    _size_args(exp_run, logical="64M", real="32K")
    exp_run.add_argument(
        "--progress", choices=("human", "jsonl", "quiet"), default="human",
        help="live progress events: one-line-per-point, JSON lines, or off",
    )
    _stream_arg(exp_run, "sweep progress as an NDJSON telemetry stream")

    exp_list = command(
        exp_sub, "list", _cmd_experiments_list, "query the run ledger"
    )
    _store_arg(exp_list)
    exp_list.add_argument("--kind", default=None, help="join / chaos / perf")
    exp_list.add_argument("--topology", default=None)
    exp_list.add_argument("--policy", default=None)

    exp_compare = command(
        exp_sub, "compare", _cmd_experiments_compare,
        "direction-aware metric diff between two runs",
    )
    exp_compare.add_argument("baseline_run", metavar="RUN_A")
    exp_compare.add_argument("current_run", metavar="RUN_B")
    _store_arg(exp_compare)
    exp_compare.add_argument(
        "--tolerance", type=float, default=None,
        help="regression-flag threshold (default 0.10)",
    )
    exp_compare.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the rendered report here",
    )

    exp_report = command(
        exp_sub, "report", _cmd_experiments_report,
        "per-topology trend lines over the ledger",
    )
    _store_arg(exp_report)
    exp_report.add_argument(
        "--metric", action="append", default=None, metavar="NAME",
        help="metric(s) to trend (default: join/shuffle throughput)",
    )
    exp_report.add_argument("--kind", default=None)
    exp_report.add_argument("--topology", default=None)

    exp_ingest = command(
        exp_sub, "ingest", _cmd_experiments_ingest,
        "import BENCH baselines / chaos reports as records",
    )
    exp_ingest.add_argument("paths", nargs="+", metavar="PATH")
    _store_arg(exp_ingest)

    bench = command(
        commands, "bench", _cmd_bench,
        "regenerate figures in parallel with self-time records",
    )
    bench.add_argument(
        "--figures", nargs="*", metavar="NAME", default=None,
        help="figure keys to run (default: the whole suite)",
    )
    _pool_args(bench, "figures")
    _out_dir_arg(
        bench, "artifact directory (per-figure JSON/markdown +"
        " bench_run.json)", default="bench_results",
    )
    bench.add_argument(
        "--gate", action="store_true",
        help="after the run, gate perf metrics against the BENCH baseline",
    )
    bench.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="BENCH_*.json baseline for --gate (default: repo baseline)",
    )

    figure = command(
        commands, "figure", _cmd_figure, "regenerate a paper figure"
    )
    figure.add_argument("name", help="fig01, fig04, ..., fig14")
    figure.add_argument("--out", default=None, help="directory for results")

    tpch = command(commands, "tpch", _cmd_tpch, "run TPC-H queries")
    tpch.add_argument("--query", default="all")
    tpch.add_argument(
        "--engine",
        choices=("mg-join", "dprj", "omnisci-gpu", "omnisci-cpu"),
        default="mg-join",
    )
    tpch.add_argument("--scale-factor", type=float, default=250.0)
    tpch.add_argument("--real-scale-factor", type=float, default=0.01)

    top = command(
        commands, "top", _cmd_top,
        "live dashboard over an NDJSON telemetry stream file",
    )
    top.add_argument(
        "path", metavar="STREAM",
        help="stream file written by a --stream run (may not exist yet)",
    )
    top.add_argument(
        "--follow", action="store_true",
        help="keep tailing until run.finished / sweep.finished arrives"
        " (default: render the current state once and exit)",
    )
    top.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="poll interval with --follow (default 0.5)",
    )
    return parser


def _configure_logging(args) -> None:
    """Route the ``repro`` logger to *current* stderr at the chosen level.

    Reconfigured per ``main()`` call (handlers replaced, not stacked) so
    repeated in-process invocations — tests, notebooks — never double
    log lines or write to a stale, captured stderr.
    """
    level = "warning" if args.quiet else args.log_level
    logger = logging.getLogger("repro")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.handlers = [handler]
    logger.setLevel(getattr(logging, level.upper()))
    logger.propagate = False


def _refuse(message) -> int:
    """Report input a command cannot run with: one stderr line, exit 2."""
    print(message, file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args)
    try:
        return args.handler(args)
    except BadInput as exc:
        raise SystemExit(_refuse(exc)) from None
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


class _Observation:
    """The observer, NDJSON stream and alert engine around one run.

    ``--stream`` opens the stream; an ``alerting`` command also opens an
    in-memory one for ``--alerts``/``--alert-rules`` alone and feeds it
    to an ``AlertEngine``.  Exiting closes the engine, then the stream.
    """

    def __init__(self, args, observe: bool = True, alerting: bool = True):
        self.observer = self.stream = self.alerts = None
        # With the stream on stdout the human report moves to the logger
        # so the NDJSON stays machine-parseable.
        self.say = log.info if args.stream == "-" else print
        if observe:
            self.observer = Observer()
        if args.stream or (alerting and (args.alerts or args.alert_rules)):
            from repro.obs.stream import TelemetryStream

            self.stream = TelemetryStream(args.stream or None)
            if alerting:
                from repro.obs.alerts import AlertEngine, load_rules

                rules = None
                if args.alert_rules is not None:
                    rules = load_rules(args.alert_rules)
                self.alerts = AlertEngine(self.stream, rules, path=args.alerts)
            if self.observer is not None:
                self.observer.stream = self.stream

    def __enter__(self) -> "_Observation":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.alerts is not None:
            self.alerts.close()
        if self.stream is not None:
            self.stream.close()

    def report(self, lines) -> None:
        """Say the human report, then how many alerts fired."""
        for line in lines:
            self.say(line)
        if self.alerts is None:
            return
        fired = self.alerts.summary()
        counts = sorted(fired["by_severity"].items())
        severities = ", ".join(f"{name}={count}" for name, count in counts)
        self.say(
            f"alerts fired         : {fired['fired']}"
            + (f" ({severities})" if severities else "")
        )


def _write_artifacts(args, payload, files, record_for, say=print):
    """Write ``files`` ({name: (label, JSON data)}) into ``--out-dir`` and
    put ``record_for(payload)`` into ``--store``; returns the output
    directory or None."""
    out_dir = None
    if args.out_dir is not None:
        out_dir = pathlib.Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, (label, data) in files.items():
            (out_dir / name).write_text(json.dumps(data, indent=1))
            say(f"{label:<15}: {out_dir / name}")
    if args.store is not None:
        record = _resolve_store(args.store).put(record_for(payload))
        say(f"ledger record  : {record.run_id} (rev {record.revision})")
    return out_dir


# ---------------------------------------------------------------------------


def _cmd_topology(args) -> int:
    machine = MACHINES[args.machine]()
    print(f"machine   : {machine.name}")
    print(f"gpus      : {machine.num_gpus}")
    print(f"links     : {len(machine.links)} directed")
    print(f"bisection : {machine.bisection_bandwidth() / 1e9:.1f} GB/s per direction")
    staged = [
        (a, b)
        for a in machine.gpu_ids
        for b in machine.gpu_ids
        if a < b and machine.nvlink_between(a, b) is None
    ]
    print(f"GPU pairs without direct GPU-GPU NVLink: {len(staged)}")
    for gpu_id in machine.gpu_ids:
        neighbors = machine.nvlink_neighbors(gpu_id)
        if neighbors:
            print(f"  gpu{gpu_id}: NVLink to {list(neighbors)}")
    return 0


def _select_gpus(machine, count: int) -> tuple[int, ...]:
    if count < 1 or count > machine.num_gpus:
        raise BadInput(f"--gpus must be 1..{machine.num_gpus}")
    return tuple(machine.gpu_ids[:count])


def _cmd_join(args) -> int:
    machine = MACHINES[args.machine]()
    workload = _workload_from_args(
        machine, args, placement_zipf=args.zipf_placement,
        key_zipf=args.zipf_keys,
    )
    traced = bool(args.trace or args.trace_csv)
    with _Observation(
        args, observe=traced or bool(args.stream), alerting=False
    ) as obs:
        if args.algorithm == "umj":
            algorithm = UMJJoin(machine, observer=obs.observer)
        else:
            algorithm = ALGORITHMS[args.algorithm](
                machine, policy=POLICIES[args.policy](), observer=obs.observer
            )
        result = algorithm.run(workload)
    obs.report([
        f"algorithm        : {result.algorithm}",
        f"gpus             : {result.num_gpus}",
        f"logical tuples   : {result.logical_tuples:,}",
        f"matches (logical): {result.matches_logical:,}",
        f"total time       : {result.total_time * 1e3:.2f} ms",
        f"throughput       : {result.throughput / 1e9:.2f} B tuples/s",
        f"cycles / tuple   : {result.cycles_per_tuple:.1f}",
        *(
            f"  {phase:22s}: {seconds * 1e3:9.2f} ms"
            for phase, seconds in result.breakdown.as_dict().items()
        ),
    ])
    if traced:
        metadata = _run_metadata(args, algorithm=args.algorithm)
        _export_observation(obs.observer, args.trace, args.trace_csv, metadata)
    return 0


def _export_observation(observer, trace_path, csv_path, metadata=None) -> None:
    from repro.obs import export

    # Exclusive per-span timings ride every export as span.* gauges.
    export.record_self_time_gauges(observer)
    print()
    if trace_path:
        path = export.write_chrome_trace(observer, trace_path, metadata)
        print(f"chrome trace     : {path} (open in chrome://tracing or Perfetto)")
    if csv_path:
        pathlib.Path(csv_path).write_text(export.to_csv(observer))
        print(f"merged CSV       : {csv_path}")
    print()
    print(export.summary(observer), end="")


def _run_metadata(args, **extra) -> dict:
    """The artifact header of a command's ``--machine``, ``--gpus``,
    ``--seed`` (where it has one) and ``--policy``."""
    return run_metadata(
        topology=args.machine, num_gpus=args.gpus,
        seed=getattr(args, "seed", None), policy=args.policy, **extra,
    )


def _workload_from_args(machine, args, **skew):
    """The workload of a join-shaped command's size flags (``--gpus``,
    ``--tuples-per-gpu``, ``--real-tuples``, ``--seed``)."""
    return generate_workload(
        WorkloadSpec(
            gpu_ids=_select_gpus(machine, args.gpus),
            logical_tuples_per_gpu=round_logical_tuples(
                args.tuples_per_gpu, args.real_tuples
            ),
            real_tuples_per_gpu=args.real_tuples,
            seed=args.seed,
            **skew,
        )
    )


def _run_shuffle(args, **observed):
    """The all-to-all step of ``--machine``, ``--gpus`` and
    ``--bytes-per-flow`` under ``--policy``."""
    machine = MACHINES[args.machine]()
    gpu_ids = _select_gpus(machine, args.gpus)
    flows = FlowMatrix.all_to_all(gpu_ids, args.bytes_per_flow)
    return ShuffleSimulator(machine, gpu_ids, **observed).run(
        flows, POLICIES[args.policy]()
    )


def _cmd_shuffle(args) -> int:
    report = _run_shuffle(args)
    print(f"policy               : {report.policy_name}")
    print(f"payload              : {report.payload_bytes / 1e9:.2f} GB")
    print(f"elapsed              : {report.elapsed * 1e3:.2f} ms")
    print(f"throughput           : {report.throughput / 1e9:.1f} GB/s")
    print(f"average hops         : {report.average_hops:.2f}")
    print(f"bisection utilization: {report.bisection_utilization * 100:.1f}%")
    print(
        f"  per direction      : a->b {report.bisection_utilization_ab * 100:.1f}%"
        f"  b->a {report.bisection_utilization_ba * 100:.1f}%"
    )
    busiest = sorted(
        report.link_stats.values(),
        key=lambda stats: stats.busy_time,
        reverse=True,
    )[:5]
    print("busiest links:")
    for stats in busiest:
        print(
            f"  {str(stats.spec):28s} {stats.bytes_sent / 1e9:7.2f} GB "
            f"{stats.utilization(report.elapsed) * 100:5.1f}% busy"
        )
    return 0


def _cmd_trace(args) -> int:
    """One fully-observed shuffle: every exporter exercised."""
    observer = Observer()
    sampler = LinkTimelineSampler() if args.gantt else None
    # Route the per-link trace into the same span store so the Chrome
    # export shows each link's transfers as its own timeline lane.
    report = _run_shuffle(
        args, tracer=observer.spans, observer=observer, sampler=sampler
    )
    print(f"policy   : {report.policy_name}")
    print(f"payload  : {report.payload_bytes / 1e9:.2f} GB")
    print(f"elapsed  : {report.elapsed * 1e3:.2f} ms (simulated)")
    print(f"throughput: {report.throughput / 1e9:.1f} GB/s")
    print(
        f"bisection: {report.bisection_utilization * 100:.1f}%"
        f" (a->b {report.bisection_utilization_ab * 100:.1f}%"
        f" / b->a {report.bisection_utilization_ba * 100:.1f}%)"
    )
    if observer.spans.dropped:
        print(f"WARNING  : {observer.spans.dropped} trace events dropped")
    if sampler is not None:
        print()
        print(ascii_heatmap(sampler.timeline()), end="")
    _export_observation(observer, args.out, args.csv, _run_metadata(args))
    return 0


def _cmd_analyze(args) -> int:
    """One sampled run -> heatmap + bottleneck attribution + regret."""
    from repro.faults import resolve_plan

    machine = MACHINES[args.machine]()
    gpu_ids = _select_gpus(machine, args.gpus)
    observed = ObservedRun(conformance=args.conformance)
    if args.mode == "join":
        flag = "--hot-gpu" if args.hot_gpu is not None else "--bytes-per-flow"
        if args.hot_gpu is not None or args.bytes_per_flow is not None:
            raise BadInput(f"{flag} applies to --mode shuffle only")
        workload = _workload_from_args(
            machine, args, placement_zipf=args.zipf_placement,
            key_zipf=args.zipf_keys,
        )

        def run(**wiring):
            result = MGJoin(
                machine, policy=POLICIES[args.policy](), **wiring
            ).run(workload)
            return result, result.shuffle_report
    else:
        bytes_per_flow = args.bytes_per_flow
        if bytes_per_flow is None:
            bytes_per_flow = parse_size("64M")
        if args.hot_gpu is None:
            flows = FlowMatrix.all_to_all(gpu_ids, bytes_per_flow)
        elif args.hot_gpu in gpu_ids:
            flows = skewed_flows(
                gpu_ids, args.hot_gpu, 6 * bytes_per_flow, bytes_per_flow
            )
        else:
            raise BadInput(
                f"--hot-gpu must be one of the selected GPUs {list(gpu_ids)}"
            )

        def run(**wiring):
            simulator = ShuffleSimulator(machine, gpu_ids, **wiring)
            return None, simulator.run(flows, POLICIES[args.policy]())

    faults = None
    if args.chaos is not None:
        # A healthy run first, to size the fault schedule.
        healthy = run()[1]
        if healthy is None:
            raise BadInput("analyze --chaos needs a workload that shuffles data")
        faults = resolve_plan(
            args.chaos, machine, healthy.elapsed, args.seed, gpu_ids
        )
    result, report = run(**observed.wiring, faults=faults)
    if result is not None:
        print(f"algorithm : {result.algorithm}  ({len(gpu_ids)} GPUs)")
        print(f"total time: {result.total_time * 1e3:.2f} ms")
    if report is None:
        print("no distribution step was simulated; nothing to analyze")
        return 1
    print(
        f"shuffle   : {report.elapsed * 1e3:.2f} ms,"
        f" {report.throughput / 1e9:.1f} GB/s,"
        f" bisection {report.bisection_utilization * 100:.1f}%"
        f" (a->b {report.bisection_utilization_ab * 100:.1f}%"
        f" / b->a {report.bisection_utilization_ba * 100:.1f}%)"
    )
    timeline = observed.sampler.timeline(args.buckets)
    bottlenecks = observed.bottlenecks(report.cut, top=args.top)
    regret = observed.audit(machine)
    print()
    print(ascii_heatmap(timeline, top=args.top))
    print()
    print(render_bottleneck_report(bottlenecks, top_links=min(5, args.top)))
    print()
    print(render_regret_table(regret, top=args.top))
    if args.conformance:
        print()
        print("\n".join(observed.observer.conformance.render()))
    fault_events = observed.render_fault_events(2 * args.top)
    if fault_events:
        print()
        print("\n".join(fault_events))
    if report.recovery is not None:
        print()
        print("\n".join(report.recovery.render(report.elapsed)))
    if args.out_dir:
        paths = write_analysis(
            args.out_dir,
            timeline=timeline,
            bottlenecks=bottlenecks,
            regret=regret,
            metadata=_run_metadata(args, mode=args.mode),
        )
        print()
        for path in paths:
            print(f"wrote {path}")
    return 0


def _cmd_chaos(args) -> int:
    """Run one chaos scenario, a solo join or a served batch, and grade it."""
    from dataclasses import asdict

    from repro.core.recovery import RecoveryError
    from repro.experiments.store import chaos_record, serve_chaos_record
    from repro.faults import ChaosError, ChaosInputError, FaultPlan
    from repro.faults import FaultPlanError, run_chaos
    from repro.serve import synthetic_requests
    from repro.sim import SimulationError
    from repro.sim.recovery import RecoveryConfig, RetryPolicy

    if args.plan is None and args.preset is None:
        raise BadInput("chaos needs --preset NAME or --plan PATH")
    if args.serve and args.min_retention is not None:
        return _refuse(
            "chaos --serve cannot take --min-retention: served queries share"
            " the links, so their throughput has no solo healthy baseline"
        )
    machine = MACHINES[args.machine]()
    batch = {}
    if args.serve:
        target = synthetic_requests(
            args.queries, gpus=args.gpus, tuples=args.real_tuples, seed=args.seed
        )
        # The batch-only knobs; a solo join has no concurrency to gate.
        arbitration = None if args.arbitration == "none" else args.arbitration
        batch = dict(
            min_in_flight=args.min_in_flight,
            arbitration=arbitration,
            retry_budget=args.retry_budget,
        )
    else:
        target = _workload_from_args(machine, args)
    # Retry knobs: CLI flags win over the plan's baked-in retry section,
    # which wins over RetryPolicy defaults.
    cli_retry = {
        key: value
        for key, value in (
            ("max_attempts", args.max_attempts),
            ("acquire_timeout", args.acquire_timeout),
            ("host_bandwidth", args.host_bandwidth),
        )
        if value is not None
    }
    recovery = (
        RecoveryConfig(checkpoint_interval=args.checkpoint_interval)
        if args.checkpoint_interval is not None
        else None
    )
    with _Observation(args) as obs:
        if obs.stream is not None and not args.serve:
            from repro.obs.conformance import ConformanceProbe

            # Conformance rides along so the residual-drift alert rule
            # has events to chew on.
            obs.observer.conformance = ConformanceProbe()
        try:
            scenario = (
                FaultPlan.from_file(args.plan)
                if args.plan is not None
                else args.preset
            )
            retry = None
            if cli_retry:
                base = (
                    scenario.retry_kwargs
                    if isinstance(scenario, FaultPlan) else {}
                )
                retry = RetryPolicy(**{**base, **cli_retry})
            report = run_chaos(
                machine,
                target,
                scenario,
                policy_factory=POLICIES[args.policy],
                seed=args.seed,
                observer=obs.observer,
                strict=False,
                retry=retry,
                recovery=recovery,
                verify=args.verify,
                **batch,
            )
        except (ChaosError, ChaosInputError, FaultPlanError, RecoveryError,
                SimulationError) as exc:
            return _refuse(f"chaos cannot run this scenario: {exc}")
    obs.report(report.summary_lines())
    say = obs.say
    ok = report.correct
    if not ok:
        say(f"FAIL: {report.failure}")
    if args.expect_loss and not report.recovered_queries:
        say(
            "FAIL: --expect-loss was given but no GPU died under a query;"
            " join-level recovery never engaged"
        )
        ok = False
    if (
        args.min_retention is not None
        and report.throughput_retention < args.min_retention
    ):
        say(
            f"FAIL: retention {report.throughput_retention:.3f} below the "
            f"--min-retention floor {args.min_retention:.3f}"
        )
        ok = False
    # The effective knobs (post-precedence) ride in the metadata so a
    # chaos run is reproducible from its JSON artifacts alone.
    knobs = {
        "retry": asdict(retry or RetryPolicy(**report.plan.retry_kwargs)),
        "recovery": asdict(recovery or RecoveryConfig()),
    }
    metadata = _run_metadata(
        args,
        scenario=report.plan.name,
        **({"queries": args.queries} if args.serve else {}),
        **knobs,
    )
    artifact = "serve_chaos" if args.serve else "chaos"
    payload = dict(report.to_dict(), **knobs, run=metadata)
    if obs.alerts is not None:
        payload["alerts"] = obs.alerts.fired
    out_dir = _write_artifacts(
        args, payload, {f"{artifact}_report.json": ("chaos report", payload)},
        serve_chaos_record if args.serve else chaos_record, say,
    )
    trace_path = args.trace
    if trace_path is None and out_dir is not None:
        trace_path = str(out_dir / f"{artifact}_trace.json")
    if trace_path is not None:
        _export_observation(obs.observer, trace_path, None, metadata)
    if report.silent_corruption_detected:
        return 3
    return 0 if ok else 1


def _cmd_chaos_fuzz(args) -> int:
    """Fuzz random fault plans against the healthy-digest property."""
    from repro.core.recovery import RecoveryError
    from repro.experiments.store import fuzz_record
    from repro.faults import ChaosError, FaultPlanError, run_chaos
    from repro.faults.chaos import healthy_reference
    from repro.faults.fuzz import run_fuzz
    from repro.sim import SimulationError

    machine = MACHINES[args.machine]()
    workload = _workload_from_args(machine, args)
    policy_factory = POLICIES[args.policy]
    # One healthy baseline for the whole campaign; every plan is graded
    # against its digest and scaled to its shuffle duration.
    healthy = healthy_reference(
        machine, workload, policy_factory=policy_factory
    )
    if healthy.shuffle_report is None:
        raise BadInput("chaos fuzz needs a workload that shuffles data")

    def runner(plan) -> "str | None":
        try:
            return run_chaos(
                machine,
                workload,
                plan,
                policy_factory=policy_factory,
                seed=args.seed,
                strict=False,
                verify=args.verify,
                healthy=healthy,
            ).failure
        except (ChaosError, FaultPlanError, RecoveryError, SimulationError) as exc:
            return f"{type(exc).__name__}: {exc}"

    report = run_fuzz(
        machine,
        healthy.shuffle_report.elapsed,
        runner,
        seed=args.seed,
        budget=args.budget,
        gpu_ids=workload.gpu_ids,
        shrink_budget=args.shrink_budget,
        log=log.info,
    )
    for line in report.summary_lines():
        print(line)
    metadata = _run_metadata(args, verify=args.verify, budget=args.budget)
    payload = dict(report.to_dict(), run=metadata)
    files = {"fuzz_report.json": ("fuzz report", payload)}
    for failure in report.failures:
        files[f"{failure.plan.name}.min.json"] = (
            "reproducer", failure.shrunk.to_dict()
        )
    _write_artifacts(args, payload, files, fuzz_record)
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    """Serve a request batch (file or synthetic) over one shared fabric."""
    from repro.faults import FaultPlan, FaultPlanError
    from repro.serve import QueryScheduler, load_requests, synthetic_requests
    from repro.sim import SimulationError

    if (args.requests is None) == (args.synthetic is None):
        raise BadInput("serve needs a request file or --synthetic N (not both)")
    machine = MACHINES[args.machine]()
    try:
        if args.synthetic is not None:
            requests = synthetic_requests(
                args.synthetic,
                gpus=args.gpus,
                tuples=args.tuples,
                arrival_spacing=args.arrival_spacing,
                deadline=args.deadline,
                priority_period=args.priority_period,
                seed=args.seed,
            )
        else:
            requests = load_requests(args.requests)
        plan = FaultPlan.from_file(args.plan) if args.plan is not None else None
    except (FaultPlanError, OSError, ValueError) as exc:
        return _refuse(f"serve cannot load its inputs: {exc}")
    with _Observation(args) as obs:
        try:
            report = QueryScheduler(
                machine,
                requests,
                policy_factory=POLICIES[args.policy],
                max_in_flight=args.max_in_flight,
                queue_depth=args.queue_depth,
                arbitration=(
                    None if args.arbitration == "none" else args.arbitration
                ),
                faults=plan,
                retry_budget=args.retry_budget,
                observer=obs.observer,
            ).run()
        except (FaultPlanError, SimulationError, ValueError) as exc:
            return _refuse(f"serve cannot run: {exc}")
    obs.report(report.summary_lines())
    if args.json is not None:
        pathlib.Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=1)
        )
        obs.say(f"serve report         : {args.json}")
    return report.exit_code


def _resolve_store(path: str | None):
    """A ResultsStore at ``path``, $REPRO_RESULTS_STORE, or ./experiments."""
    import os

    from repro.experiments import DEFAULT_STORE_DIR, RESULTS_STORE_ENV, ResultsStore

    return ResultsStore(
        path or os.environ.get(RESULTS_STORE_ENV) or DEFAULT_STORE_DIR
    )


def _cmd_perf(args) -> int:
    """Collect perf metrics, gate against (or refresh) the baseline."""
    from repro.bench import regression

    workload = regression.PERF_WORKLOADS[args.workload]
    path = args.baseline or regression.baseline_path(workload.name)
    current = regression.collect_perf_metrics(workload=workload)
    if args.update:
        metadata = run_metadata(
            topology=workload.topology, num_gpus=workload.num_gpus,
            seed=workload.seed, policy="adaptive",
            workload=f"skewed-shuffle+mg-join:{workload.name}",
        )
        regression.write_baseline(path, current, metadata)
        print(f"baseline updated: {path}")
        if args.store is not None:
            record = _resolve_store(args.store).ingest(path)
            print(f"ledger record   : {record.run_id} (rev {record.revision})")
        return 0
    tolerance = (
        args.tolerance if args.tolerance is not None
        else regression.DEFAULT_TOLERANCE
    )
    if args.store is not None:
        from repro.experiments import StoreError

        try:
            result, baseline_run = regression.run_gate_from_store(
                _resolve_store(args.store),
                run_id=args.baseline_run,
                tolerance=tolerance,
                current=current,
            )
        except StoreError as exc:
            return _refuse(f"perf gate cannot read the store: {exc}")
        print(f"baseline via store: {baseline_run}")
    else:
        result = regression.run_gate(path, tolerance=tolerance, current=current)
    print(result.render(), end="")
    return 0 if result.ok else 1


def _cmd_experiments_run(args) -> int:
    from repro.experiments import SweepError, SweepPoint, parse_sweep, run_batch

    defaults = SweepPoint(
        tuples_per_gpu=round_logical_tuples(
            args.tuples_per_gpu, args.real_tuples
        ),
        real_tuples=args.real_tuples,
        seed=args.seed,
    )
    try:
        points = parse_sweep(args.sweep, defaults=defaults)
    except SweepError as exc:
        raise BadInput(exc) from exc
    store = _resolve_store(args.store)

    # Human progress rides the logger (stderr) so stdout stays free for
    # --progress jsonl and --stream - machine output.
    def emit_human(event: dict) -> None:
        kind = event["event"]
        if kind == "sweep_started":
            log.info(
                "sweep: %d point(s), %d job(s) -> %s",
                event["points"], event["jobs"], event["store"],
            )
        elif kind == "point_finished":
            throughput = event.get("throughput_btps")
            rate = f"  {throughput:.3f} Btps" if throughput is not None else ""
            log.info(
                "  [%d/%d] %-32s %s  %.2fs%s",
                event["completed"], event["points"], event["label"],
                event["run_id"], event.get("seconds") or 0.0, rate,
            )
        elif kind == "point_failed":
            log.error("  FAILED %s: %s", event["label"], event["error"])
        elif kind == "sweep_finished":
            log.info(
                "sweep done: %d ok, %d failed, wall %.1fs",
                event["points"] - event["failed"], event["failed"],
                event["wall_seconds"],
            )

    progress = {
        "human": emit_human,
        "jsonl": lambda event: print(json.dumps(event, sort_keys=True)),
        "quiet": None,
    }[args.progress]
    with _Observation(args, observe=False, alerting=False) as obs:
        try:
            records = run_batch(
                points,
                store,
                jobs=args.jobs,
                workload_cache=args.workload_cache,
                progress=progress,
                stream=obs.stream,
            )
        except SweepError as exc:
            print(f"sweep failed: {exc}", file=sys.stderr)
            return 1
    log.info(
        "ledger: %s (%d record(s) written)", store.ledger_path, len(records)
    )
    return 0


def _cmd_experiments_list(args) -> int:
    store = _resolve_store(args.store)
    filters = {
        key: getattr(args, key) for key in ("topology", "policy")
        if getattr(args, key) is not None
    }
    entries = store.select(kind=args.kind, **filters)
    if not entries:
        print(f"(no matching runs in {store.root})")
        return 0
    print(
        f"{'seq':>4}  {'run id':<24} {'kind':<6} {'topology':<12}"
        f" {'policy':<12} {'gpus':>4}  rev  headline"
    )
    headlines = (
        "join.throughput_btps",
        "chaos.throughput_retention",
        "shuffle.throughput_gbps",
    )
    for entry in entries:
        name = next((n for n in headlines if entry.get(n) is not None), None)
        headline = "" if name is None else f"{name}={entry[name]:.4f}"
        print(
            f"{entry['sequence']:>4}  {entry['run_id']:<24}"
            f" {entry.get('kind') or '?':<6}"
            f" {entry.get('topology') or '?':<12}"
            f" {entry.get('policy') or '?':<12}"
            f" {entry.get('num_gpus') or '?':>4}"
            f"  {entry.get('revision', 1):>3}  {headline}"
        )
    return 0


def _cmd_experiments_compare(args) -> int:
    from repro.bench.regression import DEFAULT_TOLERANCE
    from repro.experiments import StoreError, diff_records, render_compare

    store = _resolve_store(args.store)
    try:
        baseline = store.get(args.baseline_run)
        current = store.get(args.current_run)
    except StoreError as exc:
        return _refuse(exc)
    tolerance = (
        args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    )
    result = diff_records(baseline, current, tolerance=tolerance)
    rendered = render_compare(baseline, current, result)
    print(rendered, end="")
    if args.out:
        pathlib.Path(args.out).write_text(rendered)
        print(f"wrote {args.out}")
    return 0 if result.ok else 1


def _cmd_experiments_report(args) -> int:
    from repro.experiments import render_trends

    store = _resolve_store(args.store)
    print(
        render_trends(
            store,
            metrics=args.metric,
            kind=args.kind,
            topology=args.topology,
        ),
        end="",
    )
    return 0


def _cmd_experiments_ingest(args) -> int:
    from repro.experiments import StoreError

    store = _resolve_store(args.store)
    code = 0
    for path in args.paths:
        try:
            record = store.ingest(path)
        except (StoreError, OSError, ValueError) as exc:
            print(f"cannot ingest {path}: {exc}", file=sys.stderr)
            code = 1
            continue
        print(f"ingested {path} -> {record.run_id} (rev {record.revision})")
    return code


def _cmd_bench(args) -> int:
    """Fan the figure suite out over a process pool; optionally gate."""
    from repro.bench import regression
    from repro.bench.runner import run_benchmarks

    try:
        bench = run_benchmarks(
            figures=args.figures,
            jobs=args.jobs,
            out_dir=args.out_dir,
            workload_cache=args.workload_cache,
        )
    except ValueError as exc:
        raise BadInput(exc) from exc
    print(bench.render(), end="")
    print(f"manifest: {args.out_dir}/bench_run.json")
    ok = bench.ok
    if args.gate:
        path = args.baseline or regression.baseline_path()
        result = regression.run_gate(path)
        print()
        print(result.render(), end="")
        ok = ok and result.ok
    return 0 if ok else 1


def _cmd_figure(args) -> int:
    from repro.bench import figures
    from repro.bench.reporting import save_figure_result

    name = args.name.lower()
    if name not in figures.ALL_FIGURES:
        raise BadInput(
            f"unknown figure {args.name!r}; have {sorted(figures.ALL_FIGURES)}"
        )
    result = figures.ALL_FIGURES[name]()
    print(result.to_markdown())
    if args.out:
        path = save_figure_result(result, args.out)
        print(f"\nsaved to {path}")
    return 0


def _cmd_top(args) -> int:
    """Render (or --follow) the live dashboard for a stream file."""
    from repro.obs.top import follow

    follow(
        args.path,
        interval=args.interval,
        iterations=None if args.follow else 1,
    )
    return 0


def _cmd_tpch(args) -> int:
    from repro import relational
    from repro.relational.tpch import QUERIES, generate_tpch, run_query

    machine = dgx1_topology()
    database = generate_tpch(scale_factor=args.real_scale_factor)
    scale = args.scale_factor / args.real_scale_factor
    engine_cls = {
        cls.name: cls
        for cls in (relational.MGJoinQueryEngine, relational.DPRJQueryEngine,
                    relational.OmnisciGpuEngine, relational.OmnisciCpuEngine)
    }[args.engine]
    engine = engine_cls(machine, logical_scale=scale)
    queries = sorted(QUERIES) if args.query == "all" else [args.query]
    for query in queries:
        outcome = run_query(query, engine, database)
        if outcome.is_na:
            print(f"{query:>4}: NA ({outcome.na_reason})")
        else:
            print(f"{query:>4}: {outcome.seconds:8.3f} s "
                  f"({outcome.table.num_rows} result rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
