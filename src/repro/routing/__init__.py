"""Routing policies for cross-GPU data flows.

The paper's central contribution is the *adaptive multi-hop* policy
(:class:`AdaptiveArmPolicy`, §4.2.2).  The static single-metric policies
it is compared against in Figures 5/7/9 live in
:mod:`repro.routing.static`, and the centralized synchronous variant of
Figure 10 (MGJ-Baseline) in :mod:`repro.routing.centralized`.
"""

from repro.routing.base import RoutingContext, RoutingPolicy
from repro.routing.static import (
    BandwidthPolicy,
    DirectPolicy,
    HopCountPolicy,
    LatencyPolicy,
)
from repro.routing.adaptive import AdaptiveArmPolicy, arm_value
from repro.routing.centralized import CentralizedPolicy

#: Routing-policy classes by name (the CLI's ``--policy`` choices).
POLICIES: dict[str, type[RoutingPolicy]] = {
    "adaptive": AdaptiveArmPolicy,
    "direct": DirectPolicy,
    "bandwidth": BandwidthPolicy,
    "hop-count": HopCountPolicy,
    "latency": LatencyPolicy,
    "centralized": CentralizedPolicy,
}

__all__ = [
    "AdaptiveArmPolicy",
    "BandwidthPolicy",
    "CentralizedPolicy",
    "DirectPolicy",
    "HopCountPolicy",
    "LatencyPolicy",
    "POLICIES",
    "RoutingContext",
    "RoutingPolicy",
    "arm_value",
]
