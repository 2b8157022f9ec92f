"""The paper's primary contribution: DCA, causal probability, elasticity."""

from repro.core.causal_graph import DirectCausalityTracker
from repro.core.dca import ComponentAnalysis, DCAResult, analyze_application, analyze_component
from repro.core.elasticity import (
    DCAElasticityManager,
    DCAManagerConfig,
    detect_serialization_suspects,
)
from repro.core.instrument import (
    InstrumentedComponent,
    InstrumentedOutcome,
    OverheadModel,
)
from repro.core.paths import (
    EmissionSet,
    PathSignature,
    enumerate_causal_paths,
    handler_emission_sets,
    signature_from_edges,
)
from repro.core.probability import (
    causal_probabilities,
    component_weights,
    proportional_allocation,
    request_weights,
)
from repro.core.regression import LinearCapacityModel, MachineSpec
from repro.core.sampling import (
    AdaptiveSamplingController,
    PreferentialPathSampler,
    RequestSampler,
)
from repro.core.shards import (
    ShardProfile,
    selective_shard_allocation,
    shard_allocation_agility,
    shard_weights,
    uniform_shard_allocation,
)
from repro.core.slicing import (
    RecvSlice,
    SendSlice,
    all_send_slices,
    backward_slice_from_send,
    forward_slice_from_recv,
)

__all__ = [
    "AdaptiveSamplingController",
    "ComponentAnalysis",
    "DCAElasticityManager",
    "DCAManagerConfig",
    "DCAResult",
    "DirectCausalityTracker",
    "EmissionSet",
    "InstrumentedComponent",
    "InstrumentedOutcome",
    "LinearCapacityModel",
    "MachineSpec",
    "OverheadModel",
    "PathSignature",
    "RecvSlice",
    "PreferentialPathSampler",
    "RequestSampler",
    "SendSlice",
    "ShardProfile",
    "all_send_slices",
    "analyze_application",
    "analyze_component",
    "backward_slice_from_send",
    "causal_probabilities",
    "component_weights",
    "detect_serialization_suspects",
    "enumerate_causal_paths",
    "forward_slice_from_recv",
    "handler_emission_sets",
    "proportional_allocation",
    "request_weights",
    "selective_shard_allocation",
    "shard_allocation_agility",
    "shard_weights",
    "signature_from_edges",
    "uniform_shard_allocation",
]
