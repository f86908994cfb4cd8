"""The five workloads of the end-to-end benchmark.

Each workload is a class whose constructor is the *set-up* (topology
build, bisection warm-up, input generation, reference answers) and
whose :meth:`Workload.call` is the one user-visible call that the
benchmark times.  ``repro`` is imported inside the constructors, never
at module level, so a child process can start its set-up clock before
the first ``repro`` import.

Every call's output is checked against an answer that does not come
from the simulator (a numpy match count, the input's byte total, or
the healthy digest) and reduced to its deterministic simulated outputs
for the run's fingerprint.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

KI = 1024
MI = 1024 * 1024


def reference_matches(workload) -> int:
    """Σ over keys of count_R(key) · count_S(key), straight from the input."""
    r_keys, r_counts = np.unique(workload.r.all_keys(), return_counts=True)
    s_keys, s_counts = np.unique(workload.s.all_keys(), return_counts=True)
    _, r_index, s_index = np.intersect1d(
        r_keys, s_keys, assume_unique=True, return_indices=True
    )
    return int(
        np.dot(r_counts[r_index].astype(np.int64), s_counts[s_index].astype(np.int64))
    )


def _shuffle_fields(report) -> dict:
    return {
        "elapsed": report.elapsed,
        "packets": report.packets_delivered,
        "hops": report.hop_count_total,
        "wire_bytes": report.wire_bytes,
    }


def _warm_bisection(machine, gpu_ids) -> None:
    """Price the machine's bisection once, as every later report reuses it."""
    from repro.sim.stats import bisection_cut

    bisection_cut(machine, gpu_ids)


class Workload:
    """One benchmark workload: set-up in ``__init__``, then timed calls."""

    name = ""
    #: Calls per warm sample, so that one sample is about 1 s of work.
    calls_per_sample = 1

    def call(self):
        """The timed call; returns the program's output."""
        raise NotImplementedError

    def check(self, output) -> str | None:
        """``None`` when the output is correct, else what is wrong."""
        raise NotImplementedError

    def outputs(self, output) -> dict:
        """The call's deterministic simulated outputs (fingerprint input)."""
        raise NotImplementedError


class _Join(Workload):
    """``MGJoin(dgx1, AdaptiveArmPolicy()).run(wl)`` on 8 GPUs, zipf 0.5."""

    logical_per_gpu = 0
    real_per_gpu = 0

    def __init__(self, seed: int) -> None:
        from repro import MGJoin, WorkloadSpec, dgx1_topology, generate_workload
        from repro.routing import AdaptiveArmPolicy

        self._join = MGJoin
        self._policy = AdaptiveArmPolicy
        self.machine = dgx1_topology()
        gpu_ids = tuple(self.machine.gpu_ids)
        _warm_bisection(self.machine, gpu_ids)
        self.workload = generate_workload(
            WorkloadSpec(
                gpu_ids=gpu_ids,
                logical_tuples_per_gpu=self.logical_per_gpu,
                real_tuples_per_gpu=self.real_per_gpu,
                key_zipf=0.5,
                seed=seed,
            )
        )
        self.expected_matches = reference_matches(self.workload)

    def call(self):
        return self._join(self.machine, policy=self._policy()).run(self.workload)

    def check(self, output) -> str | None:
        if output.matches_real != self.expected_matches:
            return (
                f"{output.matches_real} matches, reference says"
                f" {self.expected_matches}"
            )
        return None

    def outputs(self, output) -> dict:
        return {"matches": output.matches_real, **_shuffle_fields(output.shuffle_report)}


class JoinSim(_Join):
    """The Fig. 11 shape: packet simulation dominates the call."""

    name = "join-sim"
    logical_per_gpu = 512 * MI
    real_per_gpu = 64 * KI


class JoinCompute(_Join):
    """Few logical bytes to move, many real tuples: numpy join work dominates."""

    name = "join-compute"
    logical_per_gpu = 4 * MI
    real_per_gpu = 256 * KI


class ShuffleMultinode(Workload):
    """Observed, audited skewed shuffle on two DGX-1 boxes (16 GPUs).

    The flows are fixed by design, so the seed has no effect here.
    """

    name = "shuffle-multinode"
    calls_per_sample = 5

    def __init__(self, seed: int) -> None:
        from repro.bench.regression import skewed_flows
        from repro.obs import Observer
        from repro.obs.analyze import LinkTimelineSampler, audit_decisions
        from repro.obs.conformance import ConformanceProbe
        from repro.routing import AdaptiveArmPolicy
        from repro.sim import ShuffleSimulator
        from repro.topology import multi_node_dgx1

        self._observer = Observer
        self._probe = ConformanceProbe
        self._sampler = LinkTimelineSampler
        self._audit = audit_decisions
        self._policy = AdaptiveArmPolicy
        self._simulator = ShuffleSimulator
        self.machine = multi_node_dgx1(2)
        self.gpu_ids = tuple(self.machine.gpu_ids[:16])
        _warm_bisection(self.machine, self.gpu_ids)
        self.flows = skewed_flows(self.gpu_ids)
        self.expected_bytes = sum(self.flows.flows.values())

    def call(self):
        observer = self._observer()
        observer.conformance = self._probe()
        sampler = self._sampler()
        simulator = self._simulator(
            self.machine, self.gpu_ids, observer=observer, sampler=sampler
        )
        report = simulator.run(self.flows, self._policy())
        return report, self._audit(self.machine, observer, sampler)

    def check(self, output) -> str | None:
        report, audit = output
        if report.delivered_bytes != self.expected_bytes:
            return (
                f"delivered {report.delivered_bytes} of"
                f" {self.expected_bytes} input bytes"
            )
        if audit.decisions == 0:
            return "the decision audit replayed no routing decisions"
        return None

    def outputs(self, output) -> dict:
        report, audit = output
        return {
            **_shuffle_fields(report),
            "audited_decisions": audit.decisions,
            "mean_regret": audit.mean_regret,
        }


class Serve16q(Workload):
    """16 four-GPU queries through the scheduler with fair link arbitration."""

    name = "serve-16q"
    queries = 16

    def __init__(self, seed: int) -> None:
        from repro.routing import AdaptiveArmPolicy
        from repro.serve import QueryScheduler
        from repro.serve.requests import QueryRequest
        from repro.serve.scheduler import workload_for
        from repro.topology import dgx1_topology

        self._scheduler = QueryScheduler
        self._policy = AdaptiveArmPolicy
        self.machine = dgx1_topology()
        _warm_bisection(self.machine, tuple(self.machine.gpu_ids))
        self.requests = tuple(
            QueryRequest(
                name=f"q{index:02d}",
                arrival=index * 2e-3,
                gpus=4,
                tuples=8 * KI,
                logical_tuples=64 * MI,
                seed=seed + index,
            )
            for index in range(self.queries)
        )
        self.expected_matches = {
            request.name: reference_matches(workload_for(self.machine, request))
            for request in self.requests
        }

    def call(self):
        return self._scheduler(
            self.machine,
            self.requests,
            policy_factory=self._policy,
            max_in_flight=8,
            queue_depth=16,
            arbitration="fair",
        ).run()

    def check(self, output) -> str | None:
        if output.completed != self.queries:
            return f"{output.completed} of {self.queries} queries completed"
        for outcome in output.outcomes:
            expected = self.expected_matches[outcome.name]
            if outcome.matches != expected:
                return (
                    f"query {outcome.name}: {outcome.matches} matches,"
                    f" reference says {expected}"
                )
        return None

    def outputs(self, output) -> dict:
        return {
            "elapsed": output.elapsed,
            "latencies": [outcome.latency for outcome in output.outcomes],
            "digests": [outcome.match_digest for outcome in output.outcomes],
        }


class ChaosCrash(Workload):
    """One GPU crashes mid-shuffle; the digest must equal the healthy one."""

    name = "chaos-crash"
    calls_per_sample = 2

    def __init__(self, seed: int) -> None:
        from dataclasses import replace

        from repro import (
            MGJoin,
            MGJoinConfig,
            WorkloadSpec,
            dgx1_topology,
            generate_workload,
        )
        from repro.faults import run_chaos

        self._chaos = run_chaos
        self.seed = seed
        self.machine = dgx1_topology()
        gpu_ids = tuple(self.machine.gpu_ids)
        _warm_bisection(self.machine, gpu_ids)
        self.workload = generate_workload(
            WorkloadSpec(
                gpu_ids=gpu_ids,
                logical_tuples_per_gpu=256 * MI,
                real_tuples_per_gpu=32 * KI,
                seed=seed,
            )
        )
        self.expected_matches = reference_matches(self.workload)
        # The healthy reference run is set-up: every call reuses it.
        config = replace(MGJoinConfig(), materialize=True)
        self.healthy = MGJoin(self.machine, config=config).run(self.workload)

    def call(self):
        return self._chaos(
            self.machine,
            self.workload,
            "gpu-crash",
            healthy=self.healthy,
            seed=self.seed,
            strict=False,
        )

    def check(self, output) -> str | None:
        if output.healthy.matches_real != self.expected_matches:
            return (
                f"healthy run found {output.healthy.matches_real} matches,"
                f" reference says {self.expected_matches}"
            )
        if not output.correct:
            return "faulted match digest differs from the healthy one"
        return None

    def outputs(self, output) -> dict:
        report = output.faulted.shuffle_report
        return {
            **_shuffle_fields(report),
            "retries": report.packet_retries,
            "reroutes": report.packet_reroutes,
            "fallbacks": report.packet_fallbacks,
            "digest": output.faulted.match_digest,
        }


#: Benchmark workloads by name, in the order the phases interleave them.
WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (JoinSim, JoinCompute, ShuffleMultinode, Serve16q, ChaosCrash)
}


def digest(payload) -> str:
    """sha256 of a JSON document with sorted keys and exact float reprs."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
