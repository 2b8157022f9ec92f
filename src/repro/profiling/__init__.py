"""Path profiling: the sliding-window causal-path profiler."""

from repro.profiling.profiler import CausalPathProfiler, ProfileSnapshot

__all__ = [
    "CausalPathProfiler",
    "ProfileSnapshot",
]
