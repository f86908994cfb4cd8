"""One benchmark child process: set up one workload, then run calls on request.

Started by ``run.py``; not meant to be run by hand.  The protocol is one
JSON object per line.  After set-up the child sends
``{"op": "ready", ...}``; then, for every ``{"op": "sample", "calls": n}``
it reads, it makes ``n`` calls one after another and answers with their
wall times, the failures its checks found and a digest of the simulated
outputs.  ``{"op": "exit"}`` ends it.

Calls never overlap: the next call starts only after the previous one
returned (a closed loop with one client).  A call that raises or fails
its check is counted and the child carries on.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # before the first ``repro`` import

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_calls(bench, count: int, tracer=None) -> dict:
    """Make ``count`` timed calls; check each output outside the timing.

    ``outputs`` holds the simulated outputs of the calls that passed
    their check; ``errors`` says what went wrong with the others.
    """
    walls, errors, outputs, layers = [], [], [], []
    call = bench.call if tracer is None else lambda: tracer.root(bench.call)
    for _ in range(count):
        output = problem = None
        # Collect the previous call's garbage off the clock: otherwise a
        # call pays for whatever its predecessor left behind, and
        # identical calls were measured to differ by up to a quarter.
        gc.collect()
        start = time.perf_counter()
        try:
            output = call()
        except Exception as exc:  # a failed call is counted, not fatal
            problem = f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - start)
        if tracer is not None:
            layers.append(tracer.snapshot())
        if problem is None:
            try:
                problem = bench.check(output)
                if problem is None:
                    outputs.append(bench.outputs(output))
            except Exception as exc:
                problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            errors.append(problem)
    return {"walls": walls, "errors": errors, "outputs": outputs, "layers": layers}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    # Protocol lines go to the original stdout; anything the program
    # prints goes to stderr so it cannot corrupt the protocol.
    channel = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def send(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    try:
        import workloads

        tracer = None
        if args.trace:
            import trace as layer_trace

            tracer = layer_trace.install()
        cls = workloads.WORKLOADS[args.workload]
        setup = setup_wall = None
        if tracer is None:
            bench = cls(args.seed)
        else:
            start = time.perf_counter()
            bench = tracer.root(lambda: cls(args.seed))
            setup_wall = time.perf_counter() - start
            setup = tracer.snapshot()
        setup_s = time.perf_counter() - STARTED
    except Exception:
        send({"op": "error", "message": traceback.format_exc()})
        return 1
    ready = {"op": "ready", "setup_s": setup_s, "rss_mb": peak_rss_mb()}
    if setup is not None:
        ready["setup_layers"] = setup
        ready["setup_wall"] = setup_wall
    send(ready)
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "exit":
            break
        result = run_calls(bench, request["calls"], tracer)
        result["outputs_digest"] = [workloads.digest(o) for o in result["outputs"]]
        result["rss_mb"] = peak_rss_mb()
        send({"op": "sample", **result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
