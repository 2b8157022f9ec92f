"""Exception hierarchy shared across the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries while tests can
assert on the precise subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class IRError(ReproError):
    """Raised when a component program is structurally invalid."""


class AnalysisError(ReproError):
    """Raised when static analysis (CFG, dependence, slicing) fails."""


class InterpreterError(ReproError):
    """Raised when handler execution fails at runtime."""


class GraphStoreError(ReproError):
    """Raised on invalid graph-store operations (unknown uid, bad query)."""


class StoreBackendError(GraphStoreError):
    """A graph-store backend artifact is missing, torn, or malformed.

    Raised by the append-only log backend (:mod:`repro.graphstore.backend`)
    when recovery meets a truncated final record, a frame whose crc32
    does not match its payload, or a gap in a rotated segment sequence —
    mirroring :class:`ParityArtifactError`: a damaged persistence
    artifact must surface as a loud failure, never load as a silently
    truncated graph.  Also raised for backend misuse (double close,
    writes after close, opening a fresh store over existing segments).
    """


class FaultPlanError(ReproError):
    """Raised when a fault plan or injector is misconfigured."""


class ProfilingError(ReproError):
    """Raised by the path profiler (unknown path, bad window)."""


class SimulationError(ReproError):
    """Raised by the cluster simulator (bad topology, negative capacity)."""


class WorkloadError(ReproError):
    """Raised when a workload pattern or generator is misconfigured."""


class ElasticityError(ReproError):
    """Raised by elasticity managers (bad allocation, unknown component)."""


class EvaluationError(ReproError):
    """Raised by the evaluation harness (metric misuse, bad experiment)."""


class ParityArtifactError(ReproError):
    """A parity/replay diff artifact is missing, empty, or malformed.

    Raised by the artifact loaders (:mod:`repro.sim.parity`,
    :mod:`repro.chaos`) so a truncated or partially-written
    ``PARITY_DIFF_DIR``/replay-bundle file surfaces as a clear failure
    instead of being silently treated as "no divergence"."""
