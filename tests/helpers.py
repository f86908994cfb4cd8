"""Helpers shared across test modules (importable via pythonpath)."""

from __future__ import annotations

from repro.workloads import WorkloadSpec, generate_workload


def solo_join(machine, request, policy_factory=None, faults=None):
    """Reference result for a serve request: joined alone, healthy
    unless ``faults`` names a fault plan."""
    from repro.core.config import MGJoinConfig
    from repro.core.mgjoin import MGJoin
    from repro.routing import AdaptiveArmPolicy
    from repro.serve import workload_for

    factory = policy_factory or AdaptiveArmPolicy
    return MGJoin(
        machine,
        config=MGJoinConfig(materialize=True),
        policy=factory(),
        faults=faults,
    ).run(workload_for(machine, request))


def healthy_latency(machine, request):
    """Simulated seconds a serve request takes alone and healthy."""
    from repro.routing import AdaptiveArmPolicy
    from repro.serve import QueryScheduler

    report = QueryScheduler(
        machine, [request], policy_factory=AdaptiveArmPolicy
    ).run()
    return report.outcome(request.name).latency


def make_workload(
    num_gpus: int = 4,
    real: int = 2048,
    logical: int | None = None,
    placement_zipf: float = 0.0,
    key_zipf: float = 0.0,
    seed: int = 42,
):
    """Small deterministic workload for functional tests."""
    spec = WorkloadSpec(
        gpu_ids=tuple(range(num_gpus)),
        logical_tuples_per_gpu=logical if logical is not None else real,
        real_tuples_per_gpu=real,
        placement_zipf=placement_zipf,
        key_zipf=key_zipf,
        seed=seed,
    )
    return generate_workload(spec)
