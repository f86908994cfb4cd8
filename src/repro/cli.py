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
  ``--serve`` switches to the chaos-under-concurrency gate: many
  queries multiplexed over one shared fabric while the fault fires,
  every query's digest checked against its solo healthy run.
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

Progress/notice output goes through the ``repro`` logger to stderr
(``--log-level``, ``--quiet``), so stdout stays clean for reports and
for ``--stream -`` NDJSON.
"""

from __future__ import annotations

import argparse
import logging
import sys

from repro.baselines import DPRJJoin, UMJJoin
from repro.core import MGJoin
from repro.routing import POLICIES
from repro.bench.regression import PERF_WORKLOADS
from repro.sim import ARBITRATION_MODES, FlowMatrix, ShuffleSimulator

PERF_WORKLOAD_NAMES = tuple(PERF_WORKLOADS)
from repro.topology import MACHINES, dgx1_topology
from repro.workloads import WorkloadSpec, generate_workload

ALGORITHMS = {"mg-join": MGJoin, "dprj": DPRJJoin, "umj": UMJJoin}

log = logging.getLogger("repro.cli")

_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3, "b": 1024**3}


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
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse size {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("size must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MG-Join (SIGMOD 2021) reproduction toolkit",
    )
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"),
        default="info",
        help="stderr verbosity for progress/notice output (default: info)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="shorthand for --log-level warning",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    topo = commands.add_parser("topology", help="describe a machine")
    topo.add_argument("--machine", choices=sorted(MACHINES), default="dgx1")

    join = commands.add_parser("join", help="run one distributed join")
    join.add_argument("--machine", choices=sorted(MACHINES), default="dgx1")
    join.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="mg-join")
    join.add_argument("--policy", choices=sorted(POLICIES), default="adaptive")
    join.add_argument("--gpus", type=int, default=8)
    join.add_argument(
        "--tuples-per-gpu", type=parse_size, default=parse_size("512M"),
        help="logical tuples per relation per GPU",
    )
    join.add_argument(
        "--real-tuples", type=parse_size, default=parse_size("64K"),
        help="materialized tuples per relation per GPU",
    )
    join.add_argument("--zipf-placement", type=float, default=0.0)
    join.add_argument("--zipf-keys", type=float, default=0.0)
    join.add_argument("--seed", type=int, default=42)
    join.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome trace-event JSON of the run (Perfetto-loadable)",
    )
    join.add_argument(
        "--trace-csv", metavar="PATH", default=None,
        help="write the merged spans+metrics CSV of the run",
    )
    join.add_argument(
        "--stream", metavar="PATH", default=None,
        help="write the live NDJSON telemetry stream here ('-' = stdout;"
        " tail it with 'repro top')",
    )

    shuffle = commands.add_parser("shuffle", help="run one distribution step")
    shuffle.add_argument("--machine", choices=sorted(MACHINES), default="dgx1")
    shuffle.add_argument("--policy", choices=sorted(POLICIES), default="adaptive")
    shuffle.add_argument("--gpus", type=int, default=8)
    shuffle.add_argument(
        "--bytes-per-flow", type=parse_size, default=parse_size("1G")
    )

    trace = commands.add_parser(
        "trace", help="run one observed distribution step and export traces"
    )
    trace.add_argument("--machine", choices=sorted(MACHINES), default="dgx1")
    trace.add_argument("--policy", choices=sorted(POLICIES), default="adaptive")
    trace.add_argument("--gpus", type=int, default=8)
    trace.add_argument(
        "--bytes-per-flow", type=parse_size, default=parse_size("256M")
    )
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

    analyze = commands.add_parser(
        "analyze",
        help="run one sampled join/shuffle and emit the congestion analysis",
    )
    analyze.add_argument("--machine", choices=sorted(MACHINES), default="dgx1")
    analyze.add_argument("--policy", choices=sorted(POLICIES), default="adaptive")
    analyze.add_argument("--gpus", type=int, default=8)
    analyze.add_argument(
        "--mode", choices=("join", "shuffle"), default="join",
        help="analyze a full MG-Join run or a bare distribution step",
    )
    analyze.add_argument(
        "--bytes-per-flow", type=parse_size, default=parse_size("64M"),
        help="per-flow payload (shuffle mode)",
    )
    analyze.add_argument(
        "--hot-gpu", type=int, default=None, metavar="ID",
        help="skew shuffle-mode traffic toward one hot receiver",
    )
    analyze.add_argument(
        "--tuples-per-gpu", type=parse_size, default=parse_size("512M"),
        help="logical tuples per relation per GPU (join mode)",
    )
    analyze.add_argument(
        "--real-tuples", type=parse_size, default=parse_size("64K"),
        help="materialized tuples per relation per GPU (join mode)",
    )
    analyze.add_argument("--zipf-placement", type=float, default=0.0)
    analyze.add_argument("--zipf-keys", type=float, default=0.5)
    analyze.add_argument("--seed", type=int, default=42)
    analyze.add_argument(
        "--buckets", type=int, default=48,
        help="time buckets across the heatmap's x axis",
    )
    analyze.add_argument(
        "--top", type=int, default=10, help="links/rows shown per section"
    )
    analyze.add_argument(
        "--out-dir", metavar="DIR", default=None,
        help="also write heatmap.csv/json, bottlenecks.json and regret.csv",
    )
    analyze.add_argument(
        "--conformance", action="store_true",
        help="instrument every routed transfer with its predicted"
        " T_R/D_R cost and print the cost-model conformance section",
    )

    from repro.faults.plan import PRESET_NAMES

    analyze.add_argument(
        "--chaos", choices=PRESET_NAMES, default=None, metavar="PRESET",
        help="inject a fault preset into the analyzed run (a healthy run"
        " is made first to size the fault schedule)",
    )

    chaos = commands.add_parser(
        "chaos",
        help="run a join under a fault scenario and grade its survival",
    )
    chaos.add_argument("--machine", choices=sorted(MACHINES), default="dgx1")
    chaos.add_argument("--policy", choices=sorted(POLICIES), default="adaptive")
    chaos.add_argument("--gpus", type=int, default=8)
    chaos.add_argument(
        "--preset", choices=PRESET_NAMES, default=None,
        help="built-in fault scenario (times scale with the healthy run)",
    )
    chaos.add_argument(
        "--plan", metavar="PATH", default=None,
        help="YAML/JSON fault plan with absolute times; overrides --preset",
    )
    chaos.add_argument(
        "--tuples-per-gpu", type=parse_size, default=parse_size("512M"),
        help="logical tuples per relation per GPU",
    )
    chaos.add_argument(
        "--real-tuples", type=parse_size, default=parse_size("32K"),
        help="materialized tuples per relation per GPU",
    )
    chaos.add_argument("--seed", type=int, default=42)
    chaos.add_argument(
        "--min-retention", type=float, default=None, metavar="FRACTION",
        help="fail (exit 1) when faulted/healthy throughput drops below this",
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
        " and that join-level recovery engaged (fail otherwise)",
    )
    chaos.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write the faulted run's Chrome trace (fault windows visible)",
    )
    chaos.add_argument(
        "--out-dir", metavar="DIR", default=None,
        help="write chaos artifacts (trace JSON, report JSON) here",
    )
    chaos.add_argument(
        "--store", metavar="DIR", default=None,
        help="also commit the chaos report to this results store"
        " (see 'repro experiments')",
    )
    chaos.add_argument(
        "--stream", metavar="PATH", default=None,
        help="write the faulted run's NDJSON telemetry stream"
        " ('-' = stdout; tail it with 'repro top')",
    )
    chaos.add_argument(
        "--alerts", metavar="PATH", default=None,
        help="write alerts fired over the stream here as JSON lines"
        " (fired alerts also land in the report/store record)",
    )
    chaos.add_argument(
        "--alert-rules", metavar="PATH", default=None,
        help="JSON list of alert rules overriding the built-in defaults",
    )
    chaos.add_argument(
        "--verify", dest="verify", action="store_true", default=None,
        help="force the verified transport on (per-packet checksums,"
        " NACK/retransmit, duplicate suppression)",
    )
    chaos.add_argument(
        "--no-verify", dest="verify", action="store_false",
        help="force the verified transport off; injected corruption is"
        " then *detected* by the end-to-end audit (exit code 3) instead"
        " of repaired (default: on exactly when the plan has"
        " corruption-class faults)",
    )
    chaos.add_argument(
        "--serve", action="store_true",
        help="chaos under concurrency: serve --queries N joins over one"
        " shared fabric while the scenario fires, and gate every query's"
        " match digest against its solo healthy run",
    )
    chaos.add_argument(
        "--queries", type=int, default=12, metavar="N",
        help="synthetic queries served concurrently (--serve; default 12)",
    )
    chaos.add_argument(
        "--min-in-flight", type=int, default=12, metavar="N",
        help="required concurrency peak for the --serve gate (default 12)",
    )
    chaos.add_argument(
        "--arbitration", choices=(*ARBITRATION_MODES, "none"), default="fair",
        help="shared-link bandwidth arbitration between queries (--serve)",
    )
    chaos.add_argument(
        "--retry-budget", type=int, default=None, metavar="N",
        help="per-query repair budget before a structured"
        " retry-budget-exhausted failure (--serve; default unbounded)",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command")
    fuzz = chaos_sub.add_parser(
        "fuzz",
        help="property-based chaos fuzzing: random fault plans, shrunk"
        " reproducers",
    )
    fuzz.add_argument("--machine", choices=sorted(MACHINES), default="dgx1")
    fuzz.add_argument("--policy", choices=sorted(POLICIES), default="adaptive")
    fuzz.add_argument("--gpus", type=int, default=8)
    fuzz.add_argument(
        "--tuples-per-gpu", type=parse_size, default=parse_size("512M"),
        help="logical tuples per relation per GPU",
    )
    fuzz.add_argument(
        "--real-tuples", type=parse_size, default=parse_size("32K"),
        help="materialized tuples per relation per GPU",
    )
    fuzz.add_argument(
        "--seed", type=int, default=42,
        help="fuzz stream seed: same seed + budget = same plan sequence",
    )
    fuzz.add_argument(
        "--budget", type=int, default=25, metavar="N",
        help="number of random fault plans to run (default 25)",
    )
    fuzz.add_argument(
        "--shrink-budget", type=int, default=32, metavar="N",
        help="max extra oracle runs spent minimizing one failure",
    )
    fuzz.add_argument(
        "--verify", dest="verify", action="store_true", default=None,
        help="run every plan with the verified transport forced on",
    )
    fuzz.add_argument(
        "--no-verify", dest="verify", action="store_false",
        help="run every plan with the verified transport forced off",
    )
    fuzz.add_argument(
        "--out-dir", metavar="DIR", default=None,
        help="write fuzz_report.json and minimized reproducer plans here",
    )
    fuzz.add_argument(
        "--store", metavar="DIR", default=None,
        help="also commit the fuzz report to this results store",
    )

    serve = commands.add_parser(
        "serve",
        help="multiplex many concurrent joins over one shared fabric",
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
    serve.add_argument("--machine", choices=sorted(MACHINES), default="dgx1")
    serve.add_argument("--policy", choices=sorted(POLICIES), default="adaptive")
    serve.add_argument(
        "--gpus", type=int, default=2,
        help="GPUs per synthetic query (default 2)",
    )
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
    serve.add_argument(
        "--arbitration", choices=(*ARBITRATION_MODES, "none"), default="fair",
        help="shared-link bandwidth arbitration between queries"
        " (default: fair)",
    )
    serve.add_argument(
        "--retry-budget", type=int, default=None, metavar="N",
        help="per-query repair budget (retries + host fallbacks) before"
        " a structured retry-budget-exhausted failure",
    )
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
    serve.add_argument(
        "--stream", metavar="PATH", default=None,
        help="write the live NDJSON telemetry stream (per-query lanes)"
        " here ('-' = stdout; tail it with 'repro top')",
    )
    serve.add_argument(
        "--alerts", metavar="PATH", default=None,
        help="write alerts fired over the stream (sla-breach,"
        " admission-shed, ...) here as JSON lines",
    )
    serve.add_argument(
        "--alert-rules", metavar="PATH", default=None,
        help="JSON list of alert rules overriding the built-in defaults",
    )

    perf = commands.add_parser(
        "perf", help="gate current perf metrics against a BENCH baseline"
    )
    perf.add_argument(
        "--workload", choices=sorted(PERF_WORKLOAD_NAMES), default="dgx1-8gpu",
        help="canonical perf workload to collect and gate"
        " (default: dgx1-8gpu; each gates its own BENCH_<name>.json)",
    )
    perf.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="BENCH_*.json baseline file (default: the repo's"
        " BENCH_<workload>.json)",
    )
    perf.add_argument(
        "--store", metavar="DIR", default=None,
        help="read the baseline through a results store (latest 'perf'"
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

    experiments = commands.add_parser(
        "experiments",
        help="experiment farm: sweeps into a results store + observatory",
    )
    exp_sub = experiments.add_subparsers(dest="exp_command", required=True)

    def _store_arg(sub):
        sub.add_argument(
            "--store", metavar="DIR", default=None,
            help="results-store directory (default: $REPRO_RESULTS_STORE"
            " or ./experiments)",
        )

    exp_run = exp_sub.add_parser(
        "run", help="run a parameterized sweep into the store"
    )
    exp_run.add_argument(
        "--sweep", nargs="+", metavar="KEY=V1[,V2,...]", required=True,
        help="axes: topology, policy, scale (GPU count), faults"
        " (preset or 'none'), seed — e.g."
        " --sweep topology=dgx1 policy=adaptive,static scale=2",
    )
    _store_arg(exp_run)
    exp_run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: min(points, CPU count))",
    )
    exp_run.add_argument(
        "--tuples-per-gpu", type=parse_size, default=parse_size("64M"),
        help="logical tuples per relation per GPU for every point",
    )
    exp_run.add_argument(
        "--real-tuples", type=parse_size, default=parse_size("32K"),
        help="materialized tuples per relation per GPU for every point",
    )
    exp_run.add_argument("--seed", type=int, default=42)
    exp_run.add_argument(
        "--workload-cache", metavar="DIR", default=None,
        help="shared on-disk workload cache for the sweep workers",
    )
    exp_run.add_argument(
        "--progress", choices=("human", "jsonl", "quiet"), default="human",
        help="live progress events: one-line-per-point, JSON lines, or off",
    )
    exp_run.add_argument(
        "--stream", metavar="PATH", default=None,
        help="mirror sweep progress into an NDJSON telemetry stream"
        " ('-' = stdout; tail it with 'repro top')",
    )

    exp_list = exp_sub.add_parser("list", help="query the run ledger")
    _store_arg(exp_list)
    exp_list.add_argument("--kind", default=None, help="join / chaos / perf")
    exp_list.add_argument("--topology", default=None)
    exp_list.add_argument("--policy", default=None)

    exp_compare = exp_sub.add_parser(
        "compare", help="direction-aware metric diff between two runs"
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

    exp_report = exp_sub.add_parser(
        "report", help="per-topology trend lines over the ledger"
    )
    _store_arg(exp_report)
    exp_report.add_argument(
        "--metric", action="append", default=None, metavar="NAME",
        help="metric(s) to trend (default: join/shuffle throughput)",
    )
    exp_report.add_argument("--kind", default=None)
    exp_report.add_argument("--topology", default=None)

    exp_ingest = exp_sub.add_parser(
        "ingest", help="import BENCH baselines / chaos reports as records"
    )
    exp_ingest.add_argument("paths", nargs="+", metavar="PATH")
    _store_arg(exp_ingest)

    bench = commands.add_parser(
        "bench", help="regenerate figures in parallel with self-time records"
    )
    bench.add_argument(
        "--figures", nargs="*", metavar="NAME", default=None,
        help="figure keys to run (default: the whole suite)",
    )
    bench.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: min(figures, CPU count))",
    )
    bench.add_argument(
        "--out-dir", metavar="DIR", default="bench_results",
        help="artifact directory (per-figure JSON/markdown + bench_run.json)",
    )
    bench.add_argument(
        "--workload-cache", metavar="DIR", default=None,
        help="directory for the shared on-disk workload cache",
    )
    bench.add_argument(
        "--gate", action="store_true",
        help="after the run, gate perf metrics against the BENCH baseline",
    )
    bench.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="BENCH_*.json baseline for --gate (default: repo baseline)",
    )

    figure = commands.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("name", help="fig01, fig04, ..., fig14")
    figure.add_argument("--out", default=None, help="directory for results")

    tpch = commands.add_parser("tpch", help="run TPC-H queries")
    tpch.add_argument("--query", default="all")
    tpch.add_argument(
        "--engine",
        choices=("mg-join", "dprj", "omnisci-gpu", "omnisci-cpu"),
        default="mg-join",
    )
    tpch.add_argument("--scale-factor", type=float, default=250.0)
    tpch.add_argument("--real-scale-factor", type=float, default=0.01)

    top = commands.add_parser(
        "top", help="live dashboard over an NDJSON telemetry stream file"
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

    # Accept the global logging flags after the subcommand too
    # (`repro join --quiet` as well as `repro --quiet join`).  The
    # SUPPRESS default keeps an unsupplied subcommand flag from
    # clobbering the value the main parser already set.
    for sub in (
        list(commands.choices.values())
        + list(exp_sub.choices.values())
        + list(chaos_sub.choices.values())
    ):
        sub.add_argument(
            "--log-level", choices=("debug", "info", "warning", "error"),
            default=argparse.SUPPRESS, help=argparse.SUPPRESS,
        )
        sub.add_argument(
            "--quiet", action="store_true",
            default=argparse.SUPPRESS, help=argparse.SUPPRESS,
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
    for old in list(logger.handlers):
        logger.removeHandler(old)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    logger.setLevel(getattr(logging, level.upper()))
    logger.propagate = False


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args)
    handler = {
        "topology": _cmd_topology,
        "join": _cmd_join,
        "shuffle": _cmd_shuffle,
        "trace": _cmd_trace,
        "analyze": _cmd_analyze,
        "chaos": _cmd_chaos,
        "serve": _cmd_serve,
        "perf": _cmd_perf,
        "bench": _cmd_bench,
        "experiments": _cmd_experiments,
        "figure": _cmd_figure,
        "tpch": _cmd_tpch,
        "top": _cmd_top,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


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
        raise SystemExit(f"--gpus must be 1..{machine.num_gpus}")
    return tuple(machine.gpu_ids[:count])


def _cmd_join(args) -> int:
    machine = MACHINES[args.machine]()
    gpu_ids = _select_gpus(machine, args.gpus)
    workload = generate_workload(
        WorkloadSpec(
            gpu_ids=gpu_ids,
            logical_tuples_per_gpu=_round_to_multiple(
                args.tuples_per_gpu, args.real_tuples
            ),
            real_tuples_per_gpu=args.real_tuples,
            placement_zipf=args.zipf_placement,
            key_zipf=args.zipf_keys,
            seed=args.seed,
        )
    )
    observer = None
    if args.trace or args.trace_csv or args.stream:
        from repro.obs import Observer

        observer = Observer()
    stream = None
    if args.stream:
        from repro.obs.stream import open_stream

        stream = open_stream(args.stream)
        observer.stream = stream
    algorithm_cls = ALGORITHMS[args.algorithm]
    if args.algorithm == "umj":
        algorithm = algorithm_cls(machine, observer=observer)
    else:
        algorithm = algorithm_cls(
            machine, policy=POLICIES[args.policy](), observer=observer
        )
    try:
        result = algorithm.run(workload)
    finally:
        if stream is not None:
            stream.close()
    # With the stream on stdout the human report moves to the logger so
    # the NDJSON stays machine-parseable.
    say = log.info if args.stream == "-" else print
    say(f"algorithm        : {result.algorithm}")
    say(f"gpus             : {result.num_gpus}")
    say(f"logical tuples   : {result.logical_tuples:,}")
    say(f"matches (logical): {result.matches_logical:,}")
    say(f"total time       : {result.total_time * 1e3:.2f} ms")
    say(f"throughput       : {result.throughput / 1e9:.2f} B tuples/s")
    say(f"cycles / tuple   : {result.cycles_per_tuple:.1f}")
    for phase, seconds in result.breakdown.as_dict().items():
        say(f"  {phase:22s}: {seconds * 1e3:9.2f} ms")
    if args.trace or args.trace_csv:
        from repro.obs import run_metadata

        metadata = run_metadata(
            topology=args.machine,
            num_gpus=len(gpu_ids),
            seed=args.seed,
            algorithm=args.algorithm,
            policy=args.policy,
        )
        _export_observation(observer, args.trace, args.trace_csv, metadata)
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
        import pathlib

        pathlib.Path(csv_path).write_text(export.to_csv(observer))
        print(f"merged CSV       : {csv_path}")
    print()
    print(export.summary(observer), end="")


def _round_to_multiple(logical: int, real: int) -> int:
    if logical < real:
        return real
    return (logical // real) * real


def _cmd_shuffle(args) -> int:
    machine = MACHINES[args.machine]()
    gpu_ids = _select_gpus(machine, args.gpus)
    flows = FlowMatrix.all_to_all(gpu_ids, args.bytes_per_flow)
    policy = POLICIES[args.policy]()
    report = ShuffleSimulator(machine, gpu_ids).run(flows, policy)
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
    from repro.obs import Observer
    from repro.obs.analyze import LinkTimelineSampler, ascii_heatmap

    machine = MACHINES[args.machine]()
    gpu_ids = _select_gpus(machine, args.gpus)
    flows = FlowMatrix.all_to_all(gpu_ids, args.bytes_per_flow)
    policy = POLICIES[args.policy]()
    observer = Observer()
    sampler = LinkTimelineSampler() if args.gantt else None
    # Route the per-link trace into the same span store so the Chrome
    # export shows each link's transfers as its own timeline lane.
    report = ShuffleSimulator(
        machine, gpu_ids, tracer=observer.spans, observer=observer,
        sampler=sampler,
    ).run(flows, policy)
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
    from repro.obs import run_metadata

    metadata = run_metadata(
        topology=args.machine, num_gpus=len(gpu_ids), policy=args.policy
    )
    _export_observation(observer, args.out, args.csv, metadata)
    return 0


def _phase_windows(observer, horizon):
    """Split the shuffle clock at the last route decision: before it
    the global partition pass is still injecting packets, after it the
    network drains into the local partition pass (§4 overlap)."""
    from repro.obs.analyze import PhaseWindow

    decisions = observer.spans.find_instants("arm.decision")
    split = max((instant.time for instant in decisions), default=0.0)
    if 0.0 < split < horizon:
        return [
            PhaseWindow("inject (global partition overlap)", 0.0, split),
            PhaseWindow("drain (local partition overlap)", split, horizon),
        ]
    return None


def _cmd_analyze(args) -> int:
    """One sampled run -> heatmap + bottleneck attribution + regret."""
    from repro.obs import Observer, run_metadata
    from repro.obs.analyze import (
        LinkTimelineSampler,
        ascii_heatmap,
        attribute,
        audit_decisions,
        render_bottleneck_report,
        render_regret_table,
        write_analysis,
    )

    machine = MACHINES[args.machine]()
    gpu_ids = _select_gpus(machine, args.gpus)
    observer = Observer()
    if args.conformance:
        from repro.obs.conformance import ConformanceProbe

        observer.conformance = ConformanceProbe()
    sampler = LinkTimelineSampler()
    if args.mode == "join":
        workload = generate_workload(
            WorkloadSpec(
                gpu_ids=gpu_ids,
                logical_tuples_per_gpu=_round_to_multiple(
                    args.tuples_per_gpu, args.real_tuples
                ),
                real_tuples_per_gpu=args.real_tuples,
                placement_zipf=args.zipf_placement,
                key_zipf=args.zipf_keys,
                seed=args.seed,
            )
        )
        faults = None
        if args.chaos is not None:
            from repro.faults import resolve_plan

            healthy = MGJoin(machine, policy=POLICIES[args.policy]()).run(
                workload
            )
            if healthy.shuffle_report is None:
                print("workload never shuffles; nothing to break")
                return 1
            faults = resolve_plan(
                args.chaos,
                machine,
                healthy.shuffle_report.elapsed,
                args.seed,
                gpu_ids,
            )
        algorithm = MGJoin(
            machine,
            policy=POLICIES[args.policy](),
            observer=observer,
            sampler=sampler,
            faults=faults,
        )
        result = algorithm.run(workload)
        report = result.shuffle_report
        print(f"algorithm : {result.algorithm}  ({len(gpu_ids)} GPUs)")
        print(f"total time: {result.total_time * 1e3:.2f} ms")
    else:
        flows = FlowMatrix()
        for src in gpu_ids:
            for dst in gpu_ids:
                if src != dst:
                    flows.add(src, dst, args.bytes_per_flow)
                    if args.hot_gpu is not None and dst == args.hot_gpu:
                        flows.add(src, dst, 5 * args.bytes_per_flow)
        faults = None
        if args.chaos is not None:
            from repro.faults import resolve_plan

            healthy = ShuffleSimulator(machine, gpu_ids).run(
                flows, POLICIES[args.policy]()
            )
            faults = resolve_plan(
                args.chaos, machine, healthy.elapsed, args.seed, gpu_ids
            )
        report = ShuffleSimulator(
            machine, gpu_ids, observer=observer, sampler=sampler, faults=faults
        ).run(flows, POLICIES[args.policy]())
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
    timeline = sampler.timeline(args.buckets)
    phases = _phase_windows(observer, sampler.horizon)
    bottlenecks = attribute(sampler, report.cut, phases=phases, top=args.top)
    regret = audit_decisions(machine, observer, sampler)
    print()
    print(ascii_heatmap(timeline, top=args.top))
    print()
    print(render_bottleneck_report(bottlenecks, top_links=min(5, args.top)))
    print()
    print(render_regret_table(regret, top=args.top))
    if observer.conformance is not None:
        print()
        print("\n".join(observer.conformance.render()))
    fault_events = observer.spans.find_instants(category="fault")
    if fault_events:
        print()
        print(f"fault / recovery events ({len(fault_events)}):")
        for instant in fault_events[: 2 * args.top]:
            attrs = " ".join(
                f"{key}={value}"
                for key, value in sorted(instant.attrs.items())
            )
            print(
                f"  {instant.time * 1e3:9.3f} ms  {instant.name:<15} {attrs}"
            )
        shown = 2 * args.top
        if len(fault_events) > shown:
            print(f"  ... {len(fault_events) - shown} more")
    if report.recovery is not None:
        rec = report.recovery
        dead = ", ".join(f"gpu{g}" for g in rec.crashed_gpus)
        print()
        print("join-level recovery:")
        print(f"  dead GPUs          : {dead}")
        print(
            f"  detection latency  : {rec.max_detection_latency * 1e3:.3f} ms"
            f" (max over {len(rec.crashed_gpus)} crash(es))"
        )
        print(f"  re-shuffled        : {rec.reshuffled_bytes / 1e6:.2f} MB")
        print(f"  host re-sent       : {rec.host_resent_bytes / 1e6:.2f} MB")
        print(
            f"  checkpoint restored: "
            f"{rec.checkpoint_restored_bytes / 1e6:.2f} MB"
        )
        print(
            f"  recovery elapsed   : {rec.recovery_elapsed * 1e3:.3f} ms"
            f" ({rec.recovery_share(report.elapsed) * 100:.1f}% of the"
            f" shuffle)"
        )
    if args.out_dir:
        metadata = run_metadata(
            topology=args.machine,
            num_gpus=len(gpu_ids),
            seed=args.seed,
            policy=args.policy,
            mode=args.mode,
        )
        paths = write_analysis(
            args.out_dir,
            timeline=timeline,
            bottlenecks=bottlenecks,
            regret=regret,
            metadata=metadata,
        )
        print()
        for path in paths:
            print(f"wrote {path}")
    return 0


def _cmd_chaos(args) -> int:
    """Run one chaos scenario and grade completion + correctness."""
    from dataclasses import asdict

    from repro.core.recovery import RecoveryError
    from repro.faults import FaultPlan, FaultPlanError, run_chaos
    from repro.obs import Observer, run_metadata
    from repro.sim import SimulationError
    from repro.sim.recovery import RecoveryConfig, RetryPolicy

    if getattr(args, "chaos_command", None) == "fuzz":
        return _cmd_chaos_fuzz(args)
    if args.serve:
        return _cmd_chaos_serve(args)
    if args.plan is None and args.preset is None:
        raise SystemExit("chaos needs --preset NAME or --plan PATH")
    machine = MACHINES[args.machine]()
    gpu_ids = _select_gpus(machine, args.gpus)
    workload = generate_workload(
        WorkloadSpec(
            gpu_ids=gpu_ids,
            logical_tuples_per_gpu=_round_to_multiple(
                args.tuples_per_gpu, args.real_tuples
            ),
            real_tuples_per_gpu=args.real_tuples,
            seed=args.seed,
        )
    )
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
    stream = None
    alert_engine = None
    try:
        scenario = (
            FaultPlan.from_file(args.plan).validate(machine, gpu_ids)
            if args.plan is not None
            else args.preset
        )
        retry = None
        if cli_retry:
            base = (
                scenario.retry_kwargs
                if isinstance(scenario, FaultPlan)
                else {}
            )
            retry = RetryPolicy(**{**base, **cli_retry})
        observer = Observer()
        if args.stream or args.alerts or args.alert_rules:
            from repro.obs.alerts import AlertEngine, load_rules
            from repro.obs.conformance import ConformanceProbe
            from repro.obs.stream import TelemetryStream, open_stream

            # No --stream file still gets a subscriber-only bus so the
            # alert engine can listen; conformance rides along so the
            # residual-drift rule has events to chew on.
            stream = (
                open_stream(args.stream) if args.stream
                else TelemetryStream(None)
            )
            rules = (
                load_rules(args.alert_rules)
                if args.alert_rules is not None
                else None
            )
            alert_engine = AlertEngine(stream, rules, path=args.alerts)
            observer.stream = stream
            observer.conformance = ConformanceProbe()
        report = run_chaos(
            machine,
            workload,
            scenario,
            policy=POLICIES[args.policy](),
            seed=args.seed,
            observer=observer,
            strict=False,
            retry=retry,
            recovery=recovery,
            verify=args.verify,
        )
    except (FaultPlanError, RecoveryError, SimulationError) as exc:
        print(f"chaos cannot run this scenario: {exc}", file=sys.stderr)
        return 2
    finally:
        if alert_engine is not None:
            alert_engine.close()
        if stream is not None:
            stream.close()
    # With the stream on stdout the human report moves to the logger so
    # the NDJSON stays machine-parseable.
    say = log.info if args.stream == "-" else print
    for line in report.summary_lines():
        say(line)
    if alert_engine is not None:
        fired = alert_engine.summary()
        severities = ", ".join(
            f"{name}={count}"
            for name, count in sorted(fired["by_severity"].items())
        )
        say(
            f"alerts fired   : {fired['fired']}"
            + (f" ({severities})" if severities else "")
        )
    ok = report.correct
    if report.silent_corruption_detected:
        say(
            "FAIL: unverified transport delivered corrupted data; the "
            "end-to-end audit caught it (rerun with --verify to repair)"
        )
    elif not ok:
        say("FAIL: faulted run corrupted the join result")
    if args.expect_loss and report.faulted.recovery is None:
        say(
            "FAIL: --expect-loss was given but no GPU died; join-level "
            "recovery never engaged"
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
    effective_retry = retry
    if effective_retry is None:
        effective_retry = RetryPolicy(**report.plan.retry_kwargs)
    effective_recovery = recovery or RecoveryConfig()
    metadata = run_metadata(
        topology=args.machine,
        num_gpus=len(gpu_ids),
        seed=args.seed,
        policy=args.policy,
        scenario=report.plan.name,
        retry=asdict(effective_retry),
        recovery=asdict(effective_recovery),
    )
    trace_path = args.trace
    if args.out_dir is not None or args.store is not None:
        import json
        import pathlib

        rec = report.faulted.recovery
        payload = {
            "plan": report.plan.to_dict(),
            "correct": report.correct,
            "throughput_retention": report.throughput_retention,
            "healthy_seconds": report.healthy.total_time,
            "faulted_seconds": report.faulted.total_time,
            "healthy_digest": report.healthy.match_digest,
            "faulted_digest": report.faulted.match_digest,
            "counters": report.fault_counters,
            "integrity": (
                report.integrity.to_dict()
                if report.integrity is not None
                else None
            ),
            "retry": asdict(effective_retry),
            "recovery": asdict(effective_recovery),
            "recovery_telemetry": rec.to_dict() if rec is not None else None,
            "run": dict(metadata),
        }
        if alert_engine is not None:
            payload["alerts"] = alert_engine.fired
        if args.out_dir is not None:
            out_dir = pathlib.Path(args.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            if trace_path is None:
                trace_path = str(out_dir / "chaos_trace.json")
            report_path = out_dir / "chaos_report.json"
            report_path.write_text(json.dumps(payload, indent=1))
            say(f"chaos report   : {report_path}")
        if args.store is not None:
            from repro.experiments.store import chaos_record

            record = _resolve_store(args.store).put(chaos_record(payload))
            say(f"ledger record  : {record.run_id} (rev {record.revision})")
    if trace_path is not None:
        _export_observation(observer, trace_path, None, metadata)
    if report.silent_corruption_detected:
        return 3
    return 0 if ok else 1


def _cmd_chaos_fuzz(args) -> int:
    """Fuzz random fault plans against the healthy-digest property."""
    from dataclasses import replace as dc_replace

    from repro.core.config import MGJoinConfig
    from repro.core.recovery import RecoveryError
    from repro.faults import ChaosError, FaultPlanError, run_chaos
    from repro.faults.fuzz import run_fuzz
    from repro.obs import run_metadata
    from repro.sim import SimulationError

    machine = MACHINES[args.machine]()
    gpu_ids = _select_gpus(machine, args.gpus)
    workload = generate_workload(
        WorkloadSpec(
            gpu_ids=gpu_ids,
            logical_tuples_per_gpu=_round_to_multiple(
                args.tuples_per_gpu, args.real_tuples
            ),
            real_tuples_per_gpu=args.real_tuples,
            seed=args.seed,
        )
    )
    # One healthy baseline for the whole campaign; every plan is graded
    # against its digest and scaled to its shuffle duration.
    config = dc_replace(MGJoinConfig(), materialize=True)
    healthy = MGJoin(
        machine, config=config, policy=POLICIES[args.policy]()
    ).run(workload)
    if healthy.shuffle_report is None:
        raise SystemExit("chaos fuzz needs a workload that shuffles data")
    horizon = healthy.shuffle_report.elapsed

    def runner(plan) -> "str | None":
        try:
            chaos = run_chaos(
                machine,
                workload,
                plan,
                config=config,
                policy=POLICIES[args.policy](),
                seed=args.seed,
                strict=False,
                verify=args.verify,
                healthy=healthy,
            )
        except (ChaosError, FaultPlanError, RecoveryError, SimulationError) as exc:
            return f"{type(exc).__name__}: {exc}"
        if chaos.silent_corruption_detected:
            stats = chaos.integrity
            return (
                f"silent corruption: {stats.corrupt_delivered} corrupt, "
                f"{stats.dup_delivered} duplicate deliveries"
            )
        if not chaos.correct:
            return "digest mismatch: faulted join differs from healthy"
        return None

    report = run_fuzz(
        machine,
        horizon,
        runner,
        seed=args.seed,
        budget=args.budget,
        gpu_ids=gpu_ids,
        shrink_budget=args.shrink_budget,
        log=log.info,
    )
    for line in report.summary_lines():
        print(line)
    if args.out_dir is not None or args.store is not None:
        import json
        import pathlib

        metadata = run_metadata(
            topology=args.machine,
            num_gpus=len(gpu_ids),
            seed=args.seed,
            policy=args.policy,
            verify=args.verify,
            budget=args.budget,
        )
        payload = dict(report.to_dict(), run=dict(metadata))
        if args.out_dir is not None:
            out_dir = pathlib.Path(args.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            report_path = out_dir / "fuzz_report.json"
            report_path.write_text(json.dumps(payload, indent=1))
            print(f"fuzz report    : {report_path}")
            for failure in report.failures:
                plan_path = out_dir / f"{failure.plan.name}.min.json"
                plan_path.write_text(
                    json.dumps(failure.shrunk.to_dict(), indent=1)
                )
                print(f"reproducer     : {plan_path}")
        if args.store is not None:
            from repro.experiments.store import fuzz_record

            record = _resolve_store(args.store).put(fuzz_record(payload))
            print(f"ledger record  : {record.run_id} (rev {record.revision})")
    return 0 if report.ok else 1


def _serve_observability(args):
    """(observer, stream, alert_engine) for the serving-layer commands."""
    from repro.obs import Observer

    observer = Observer()
    stream = None
    alert_engine = None
    if args.stream or args.alerts or args.alert_rules:
        from repro.obs.alerts import AlertEngine, load_rules
        from repro.obs.stream import TelemetryStream, open_stream

        stream = (
            open_stream(args.stream) if args.stream else TelemetryStream(None)
        )
        rules = (
            load_rules(args.alert_rules)
            if args.alert_rules is not None
            else None
        )
        alert_engine = AlertEngine(stream, rules, path=args.alerts)
        observer.stream = stream
    return observer, stream, alert_engine


def _say_alert_summary(say, alert_engine) -> None:
    if alert_engine is None:
        return
    fired = alert_engine.summary()
    severities = ", ".join(
        f"{name}={count}"
        for name, count in sorted(fired["by_severity"].items())
    )
    say(
        f"alerts fired         : {fired['fired']}"
        + (f" ({severities})" if severities else "")
    )


def _cmd_serve(args) -> int:
    """Serve a request batch (file or synthetic) over one shared fabric."""
    import json

    from repro.faults import FaultPlan, FaultPlanError
    from repro.serve import QueryScheduler, load_requests, synthetic_requests
    from repro.sim import SimulationError

    if (args.requests is None) == (args.synthetic is None):
        raise SystemExit("serve needs a request file or --synthetic N (not both)")
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
        print(f"serve cannot load its inputs: {exc}", file=sys.stderr)
        return 2
    observer, stream, alert_engine = _serve_observability(args)
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
            observer=observer,
        ).run()
    except (FaultPlanError, SimulationError, ValueError) as exc:
        print(f"serve cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        if alert_engine is not None:
            alert_engine.close()
        if stream is not None:
            stream.close()
    say = log.info if args.stream == "-" else print
    for line in report.summary_lines():
        say(line)
    _say_alert_summary(say, alert_engine)
    if args.json is not None:
        import pathlib

        pathlib.Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=1)
        )
        say(f"serve report         : {args.json}")
    return report.exit_code


def _cmd_chaos_serve(args) -> int:
    """Chaos under concurrency: crash the fabric under many queries."""
    import json
    from dataclasses import asdict

    from repro.core.recovery import RecoveryError
    from repro.faults import ChaosError, FaultPlan, FaultPlanError
    from repro.obs import run_metadata
    from repro.serve import run_serve_chaos, synthetic_requests
    from repro.sim import SimulationError
    from repro.sim.recovery import RecoveryConfig, RetryPolicy

    if args.plan is None and args.preset is None:
        raise SystemExit("chaos --serve needs --preset NAME or --plan PATH")
    machine = MACHINES[args.machine]()
    requests = synthetic_requests(
        args.queries,
        gpus=args.gpus,
        tuples=args.real_tuples,
        seed=args.seed,
    )
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
    observer, stream, alert_engine = _serve_observability(args)
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
                if isinstance(scenario, FaultPlan)
                else {}
            )
            retry = RetryPolicy(**{**base, **cli_retry})
        report = run_serve_chaos(
            machine,
            requests,
            scenario,
            policy_factory=POLICIES[args.policy],
            seed=args.seed,
            min_in_flight=args.min_in_flight,
            arbitration=(
                None if args.arbitration == "none" else args.arbitration
            ),
            retry=retry,
            recovery=recovery,
            retry_budget=args.retry_budget,
            observer=observer,
            strict=False,
        )
    except (
        ChaosError,
        FaultPlanError,
        RecoveryError,
        SimulationError,
        ValueError,
    ) as exc:
        print(f"chaos --serve cannot run this scenario: {exc}", file=sys.stderr)
        return 2
    finally:
        if alert_engine is not None:
            alert_engine.close()
        if stream is not None:
            stream.close()
    say = log.info if args.stream == "-" else print
    for line in report.summary_lines():
        say(line)
    _say_alert_summary(say, alert_engine)
    if not report.correct:
        say("FAIL: concurrency-identity gate broken (see DIVERGED lines)")
    if args.out_dir is not None or args.store is not None:
        import pathlib

        effective_retry = retry or RetryPolicy(**report.plan.retry_kwargs)
        metadata = run_metadata(
            topology=args.machine,
            num_gpus=args.gpus,
            seed=args.seed,
            policy=args.policy,
            scenario=report.plan.name,
            queries=args.queries,
            retry=asdict(effective_retry),
            recovery=asdict(recovery or RecoveryConfig()),
        )
        payload = dict(report.to_dict(), run=dict(metadata))
        if alert_engine is not None:
            payload["alerts"] = alert_engine.fired
        if args.out_dir is not None:
            out_dir = pathlib.Path(args.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            report_path = out_dir / "serve_chaos_report.json"
            report_path.write_text(json.dumps(payload, indent=1))
            say(f"serve-chaos report: {report_path}")
        if args.store is not None:
            from repro.experiments.store import serve_chaos_record

            record = _resolve_store(args.store).put(serve_chaos_record(payload))
            say(f"ledger record  : {record.run_id} (rev {record.revision})")
    return 0 if report.correct else 1


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
    from repro.obs import run_metadata

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
            print(f"perf gate cannot read the store: {exc}", file=sys.stderr)
            return 2
        print(f"baseline via store: {baseline_run}")
    else:
        result = regression.run_gate(path, tolerance=tolerance, current=current)
    print(result.render(), end="")
    return 0 if result.ok else 1


def _cmd_experiments(args) -> int:
    """Dispatch ``repro experiments run|list|compare|report|ingest``."""
    return {
        "run": _cmd_experiments_run,
        "list": _cmd_experiments_list,
        "compare": _cmd_experiments_compare,
        "report": _cmd_experiments_report,
        "ingest": _cmd_experiments_ingest,
    }[args.exp_command](args)


def _cmd_experiments_run(args) -> int:
    import json

    from repro.experiments import SweepError, SweepPoint, parse_sweep, run_batch

    defaults = SweepPoint(
        tuples_per_gpu=_round_to_multiple(args.tuples_per_gpu, args.real_tuples),
        real_tuples=args.real_tuples,
        seed=args.seed,
    )
    try:
        points = parse_sweep(args.sweep, defaults=defaults)
    except SweepError as exc:
        raise SystemExit(str(exc)) from exc
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
    stream = None
    if args.stream:
        from repro.obs.stream import open_stream

        stream = open_stream(args.stream)
    try:
        records = run_batch(
            points,
            store,
            jobs=args.jobs,
            workload_cache=args.workload_cache,
            progress=progress,
            stream=stream,
        )
    except SweepError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if stream is not None:
            stream.close()
    log.info(
        "ledger: %s (%d record(s) written)", store.ledger_path, len(records)
    )
    return 0


def _cmd_experiments_list(args) -> int:
    store = _resolve_store(args.store)
    filters = {}
    if args.topology is not None:
        filters["topology"] = args.topology
    if args.policy is not None:
        filters["policy"] = args.policy
    entries = store.select(kind=args.kind, **filters)
    if not entries:
        print(f"(no matching runs in {store.root})")
        return 0
    print(
        f"{'seq':>4}  {'run id':<24} {'kind':<6} {'topology':<12}"
        f" {'policy':<12} {'gpus':>4}  rev  headline"
    )
    for entry in entries:
        headline = ""
        for name in (
            "join.throughput_btps",
            "chaos.throughput_retention",
            "shuffle.throughput_gbps",
        ):
            if entry.get(name) is not None:
                headline = f"{name}={entry[name]:.4f}"
                break
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
        print(str(exc), file=sys.stderr)
        return 2
    tolerance = (
        args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    )
    result = diff_records(baseline, current, tolerance=tolerance)
    rendered = render_compare(baseline, current, result)
    print(rendered, end="")
    if args.out:
        import pathlib

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
        raise SystemExit(str(exc)) from exc
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
        raise SystemExit(
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
    from repro.relational import (
        DPRJQueryEngine,
        MGJoinQueryEngine,
        OmnisciCpuEngine,
        OmnisciGpuEngine,
    )
    from repro.relational.tpch import QUERIES, generate_tpch, run_query

    machine = dgx1_topology()
    database = generate_tpch(scale_factor=args.real_scale_factor)
    scale = args.scale_factor / args.real_scale_factor
    engine_cls = {
        "mg-join": MGJoinQueryEngine,
        "dprj": DPRJQueryEngine,
        "omnisci-gpu": OmnisciGpuEngine,
        "omnisci-cpu": OmnisciCpuEngine,
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
