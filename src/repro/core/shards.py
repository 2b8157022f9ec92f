"""Selective scaling of *parts* of components (Section II-A of the paper).

The paper's core promise is "selective elastic scaling of (parts of)
components along hot causal paths": a hurricane spikes specific search
terms, which load *specific shards* of the query-index component, and
"resources added are not going where they are needed most" if the whole
component is scaled uniformly.

This module provides the shard-level half of that story:

* :class:`ShardProfile` — per-(component, shard) message counts built
  from replica-routed traces (:mod:`repro.sim.replicas`), the shard
  analogue of the causal-path profile;
* :func:`shard_weights` — normalised per-shard causal weights;
* :func:`selective_shard_allocation` — apportion a component's node
  budget across its shards proportionally to those weights;
* :func:`shard_allocation_agility` — the SPEC-style excess+shortage of a
  per-shard allocation against per-shard demand, used to compare
  selective vs uniform shard scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.errors import ElasticityError
from repro.sim.replicas import ReplicatedTrace

#: Nodes every shard keeps, whatever its weight.
MIN_NODES_PER_SHARD = 1
#: Per-node utilisation the per-shard requirement is sized for.
SHARD_TARGET_UTILIZATION = 0.75


@dataclass
class ShardProfile:
    """Sliding tally of messages per (component, shard index).

    Fed from :class:`~repro.sim.replicas.ReplicatedTrace` objects (each
    one request, traced through hash-partitioned replicas); the counts
    play the same role per shard that causal-path counts play per path.
    """

    counts: Dict[str, List[int]] = field(default_factory=dict)
    requests_observed: int = 0

    def observe(self, trace: ReplicatedTrace) -> None:
        """Fold one traced request into the profile."""
        for component, per_shard in trace.replica_messages.items():
            existing = self.counts.setdefault(component, [0] * len(per_shard))
            if len(existing) != len(per_shard):
                raise ElasticityError(
                    f"shard count changed for {component!r}: "
                    f"{len(existing)} != {len(per_shard)}"
                )
            for idx, count in enumerate(per_shard):
                existing[idx] += count
        self.requests_observed += 1


def shard_weights(profile: ShardProfile, component: str) -> List[float]:
    """Normalised per-shard weights for one component.

    A uniform vector when the component has seen no traffic (cold start
    degrades to uniform scaling, like the path-level manager).
    """
    counts = profile.counts.get(component)
    if not counts:
        raise ElasticityError(f"no shard profile for component {component!r}")
    total = sum(counts)
    if total == 0:
        return [1.0 / len(counts)] * len(counts)
    return [c / total for c in counts]


def selective_shard_allocation(
    total_nodes: int,
    weights: Iterable[float],
) -> List[int]:
    """Split a component's node budget across shards by causal weight.

    Largest-remainder rounding keeps the total exactly ``total_nodes``
    (subject to :data:`MIN_NODES_PER_SHARD`).
    """
    weight_list = list(weights)
    if total_nodes < 0:
        raise ElasticityError(f"total_nodes must be >= 0, got {total_nodes}")
    if not weight_list or any(w < 0 for w in weight_list):
        raise ElasticityError("weights must be a non-empty list of non-negatives")
    n = len(weight_list)
    floor_total = MIN_NODES_PER_SHARD * n
    budget = max(total_nodes, floor_total)
    weight_sum = sum(weight_list)
    if weight_sum <= 0:
        weight_list = [1.0] * n
        weight_sum = float(n)
    spare = budget - floor_total
    raw = [MIN_NODES_PER_SHARD + spare * w / weight_sum for w in weight_list]
    alloc = [int(math.floor(x)) for x in raw]
    remainders = sorted(
        range(n), key=lambda i: (raw[i] - alloc[i], weight_list[i]), reverse=True
    )
    shortfall = budget - sum(alloc)
    for i in range(shortfall):
        alloc[remainders[i % n]] += 1
    return alloc


def uniform_shard_allocation(total_nodes: int, num_shards: int) -> List[int]:
    """The baseline: spread the budget evenly across shards."""
    if num_shards < 1:
        raise ElasticityError(f"num_shards must be >= 1, got {num_shards}")
    return selective_shard_allocation(total_nodes, [1.0] * num_shards)


def shard_allocation_agility(
    allocation: Iterable[int],
    demand_per_shard: Iterable[float],
    node_capacity: float,
) -> Tuple[float, float]:
    """(excess, shortage) of a per-shard allocation, in node units.

    The per-shard requirement is ``ceil(demand / (capacity · ρ_target))``
    with ``ρ_target`` = :data:`SHARD_TARGET_UTILIZATION` — the same
    SPEC-style accounting the component-level Agility metric uses,
    applied one level down.
    """
    if node_capacity <= 0:
        raise ElasticityError(f"node_capacity must be > 0, got {node_capacity}")
    usable = node_capacity * SHARD_TARGET_UTILIZATION
    excess = 0.0
    shortage = 0.0
    for nodes, demand in zip(allocation, demand_per_shard):
        if demand < 0 or nodes < 0:
            raise ElasticityError("allocation and demand must be >= 0")
        required = math.ceil(demand / usable) if demand > 0 else 0
        if nodes > required:
            excess += nodes - required
        else:
            shortage += required - nodes
    return excess, shortage
