"""The decision audit, pinned row by row.

``audit_decisions`` replays every routing decision of a run against the
realized link timelines.  These goldens pin its summary and every
replayed row — time, flow, policy, chosen and best route, both realized
costs, batch size and board staleness — on three policies of a skewed
DGX-1 shuffle and on the 16-GPU two-box shuffle of the end-to-end
benchmark, so a change to how decisions reach the audit cannot change
what it reports.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bench.regression import skewed_flows
from repro.obs.analyze import ObservedRun
from repro.routing import AdaptiveArmPolicy, CentralizedPolicy, DirectPolicy
from repro.sim import ShuffleSimulator
from repro.topology import dgx1_topology, multi_node_dgx1


def audited_shuffle(machine, num_gpus, policy, *, conformance=False):
    run = ObservedRun(conformance=conformance)
    gpu_ids = tuple(machine.gpu_ids[:num_gpus])
    ShuffleSimulator(machine, gpu_ids, **run.wiring).run(
        skewed_flows(gpu_ids), policy
    )
    return run.audit(machine)


RUNS = {
    "direct": lambda: audited_shuffle(dgx1_topology(), 8, DirectPolicy()),
    "adaptive": lambda: audited_shuffle(dgx1_topology(), 8, AdaptiveArmPolicy()),
    "centralized": lambda: audited_shuffle(
        dgx1_topology(), 8, CentralizedPolicy()
    ),
    "shuffle-multinode": lambda: audited_shuffle(
        multi_node_dgx1(2), 16, AdaptiveArmPolicy(), conformance=True
    ),
}

#: sha256 of each run's audit summary and rows.
GOLDEN = {
    "direct": (
        "0b437fd0edf9be9104dc6eec2a83bd08"
        "d103883d8a84d71df965b105c86613be"
    ),
    "adaptive": (
        "c861a1c2efdbba62c96292395134fa29"
        "5a040f2ca2af0ca321840674bd66701b"
    ),
    "centralized": (
        "07bce931776281ad1d3242a923d906d7"
        "53b7a9a0f4f96b422284d2082d67bcfd"
    ),
    "shuffle-multinode": (
        "a1c5521e0a86eeab534f9d654ae1f244"
        "ece1cb39b7ae6e0238a84a75e1009252"
    ),
}


def audit_digest(audit) -> str:
    rows = [
        [
            row.time,
            row.src,
            row.dst,
            row.policy,
            row.chosen,
            row.best,
            row.realized_chosen,
            row.realized_best,
            row.batch_bytes,
            row.staleness,
        ]
        for row in audit.rows
    ]
    text = json.dumps([audit.to_dict(), rows])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(RUNS))
def test_audit_matches_golden(name):
    audit = RUNS[name]()
    assert audit.decisions > 0
    assert audit_digest(audit) == GOLDEN[name]
