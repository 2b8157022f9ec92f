"""Cluster state: per-component replica groups with provisioning delays.

Elastic scaling is not instantaneous — steps S2/S3 of the paper's
elasticity loop (requesting resources, provisioning components on them)
take time.  :class:`ComponentGroup` models a replica group whose node
count changes through a provisioning pipeline: scale-ups become *pending*
and turn ready after :data:`PROVISION_DELAY_MINUTES`; scale-downs drain
after :data:`DEPROVISION_DELAY_MINUTES` (the paper observes that SLA violations do
not occur while workload decreases precisely because not-yet-released
excess capacity keeps serving).

A group may carry a ``serial_limit``: the maximum number of nodes that
usefully add capacity (Section II-C's lock-contention scenario — e.g. a
coordination service whose write path is leader-serialised).  Nodes
beyond the limit are provisioned and paid for, but add no capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError

#: Minutes from a scale-up request until the new nodes serve, and from a
#: scale-down until the drained nodes stop being paid for.
PROVISION_DELAY_MINUTES = 2.0
DEPROVISION_DELAY_MINUTES = 1.0


@dataclass(frozen=True)
class DeploymentSpec:
    """Static deployment configuration of one component."""

    initial_nodes: int = 10
    min_nodes: int = 1
    max_nodes: int = 500
    serial_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise SimulationError(f"min_nodes must be >= 1, got {self.min_nodes}")
        if not self.min_nodes <= self.initial_nodes <= self.max_nodes:
            raise SimulationError(
                f"initial_nodes {self.initial_nodes} outside [{self.min_nodes}, {self.max_nodes}]"
            )
        if self.serial_limit is not None and self.serial_limit < 1:
            raise SimulationError(f"serial_limit must be >= 1, got {self.serial_limit}")


class ComponentGroup:
    """Replica group of one component with a provisioning pipeline."""

    def __init__(self, component: str, spec: DeploymentSpec, tap=None) -> None:
        self.component = component
        self.spec = spec
        self.ready = spec.initial_nodes
        # list of (ready_at_minute, count)
        self._pending: List[Tuple[float, int]] = []
        # list of (release_at_minute, count)
        self._draining: List[Tuple[float, int]] = []
        #: Optional :class:`~repro.sim.tap.SimTap`; emit-only (hooks
        #: never mutate state or consume randomness).
        self.tap = tap
        if tap is not None:
            tap.emit("replica_init", component=component, ready=self.ready)

    # -- state ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        return sum(count for _, count in self._pending)

    @property
    def draining(self) -> int:
        return sum(count for _, count in self._draining)

    @property
    def provisioned(self) -> int:
        """Capacity paid for this interval: ready + pending + draining."""
        return self.ready + self.pending + self.draining

    def effective_nodes(self) -> int:
        """Nodes that contribute capacity (serial limit applied)."""
        if self.spec.serial_limit is None:
            return self.ready
        return min(self.ready, self.spec.serial_limit)

    # -- transitions -----------------------------------------------------------

    def advance(self, now_minutes: float) -> None:
        """Complete provisioning/draining whose deadline has passed."""
        matured = [(eta, c) for eta, c in self._pending if eta <= now_minutes]
        self._pending = [(eta, c) for eta, c in self._pending if eta > now_minutes]
        for _, count in matured:
            self.ready += count
        if matured and self.tap is not None:
            self.tap.emit(
                "provision_matured",
                component=self.component,
                count=sum(c for _, c in matured),
                ready=self.ready,
            )
        self._draining = [(eta, c) for eta, c in self._draining if eta > now_minutes]

    def fail_nodes(self, count: int) -> int:
        """Crash up to ``count`` ready nodes (failure injection).

        Failed nodes disappear immediately — no draining, no refund; the
        elasticity manager only sees the capacity drop through its
        monitoring signals and must re-provision.  Returns how many
        nodes actually failed (``ready`` never drops below zero).
        """
        if count < 0:
            raise SimulationError(f"failure count must be >= 0, got {count}")
        failed = min(count, self.ready)
        self.ready -= failed
        if failed and self.tap is not None:
            self.tap.emit(
                "nodes_crashed",
                component=self.component,
                count=failed,
                ready=self.ready,
            )
        return failed

    def apply_target(self, target: int, now_minutes: float) -> None:
        """Move toward ``target`` nodes, respecting delays and bounds."""
        target = max(self.spec.min_nodes, min(self.spec.max_nodes, int(target)))
        current = self.ready + self.pending
        if target > current:
            add = target - current
            eta = now_minutes + PROVISION_DELAY_MINUTES
            self._pending.append((eta, add))
            if self.tap is not None:
                self.tap.emit(
                    "provision_requested",
                    component=self.component,
                    count=add,
                    eta=eta,
                )
        elif target < current:
            remove = current - target
            # Cancel pending first (cheapest), then drain ready nodes.
            requested = remove
            remove = self._cancel_pending(remove)
            if requested != remove and self.tap is not None:
                self.tap.emit(
                    "pending_cancelled",
                    component=self.component,
                    count=requested - remove,
                )
            if remove > 0:
                removable = min(remove, self.ready - self.spec.min_nodes)
                if removable > 0:
                    self.ready -= removable
                    self._draining.append((now_minutes + DEPROVISION_DELAY_MINUTES, removable))
                    if self.tap is not None:
                        self.tap.emit(
                            "drain_started",
                            component=self.component,
                            count=removable,
                            ready=self.ready,
                        )

    def _cancel_pending(self, remove: int) -> int:
        """Cancel up to ``remove`` pending nodes; return the remainder."""
        still_pending: List[Tuple[float, int]] = []
        for eta, count in sorted(self._pending, key=lambda p: -p[0]):
            if remove >= count:
                remove -= count
            elif remove > 0:
                still_pending.append((eta, count - remove))
                remove = 0
            else:
                still_pending.append((eta, count))
        self._pending = sorted(still_pending)
        return remove


class Cluster:
    """All component groups of one application deployment."""

    def __init__(self, deployments: Dict[str, DeploymentSpec], tap=None) -> None:
        if not deployments:
            raise SimulationError("cluster requires at least one component deployment")
        self.groups: Dict[str, ComponentGroup] = {
            name: ComponentGroup(name, spec, tap=tap)
            for name, spec in sorted(deployments.items())
        }

    def advance(self, now_minutes: float) -> None:
        for group in self.groups.values():
            group.advance(now_minutes)

    def apply_targets(self, targets: Dict[str, int], now_minutes: float) -> None:
        for component, target in targets.items():
            group = self.groups.get(component)
            if group is None:
                raise SimulationError(f"scaling target for unknown component {component!r}")
            group.apply_target(target, now_minutes)

    def fail_component(self, component: str, count: int) -> int:
        """Crash up to ``count`` ready nodes of ``component``.

        ``component`` may be ``"*"`` to crash ``count`` nodes of *every*
        group (the app-agnostic form fault scenarios use).  Returns the
        number of nodes that actually failed.
        """
        if component == "*":
            return sum(group.fail_nodes(count) for group in self.groups.values())
        return self.group(component).fail_nodes(count)

    def group(self, component: str) -> ComponentGroup:
        try:
            return self.groups[component]
        except KeyError:
            raise SimulationError(f"unknown component group {component!r}") from None
