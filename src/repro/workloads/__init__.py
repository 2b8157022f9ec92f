"""Workload patterns (Figure 7) and request generation."""

from repro.workloads.generator import RequestClass, WorkloadGenerator
from repro.workloads.patterns import (
    RUN_MINUTES,
    MixPhase,
    ScaledPattern,
    StepMixSchedule,
    cyclic_pattern,
    paper_pattern,
    stepwise_cyclic_pattern,
)

__all__ = [
    "RUN_MINUTES",
    "MixPhase",
    "RequestClass",
    "ScaledPattern",
    "StepMixSchedule",
    "WorkloadGenerator",
    "cyclic_pattern",
    "paper_pattern",
    "stepwise_cyclic_pattern",
]
