"""repro — reproduction of "Exploiting Causality to Engineer Elastic
Distributed Software" (K. R. Jayaram, ICDCS 2016).

Top-level convenience re-exports; subpackages:

* :mod:`repro.lang`       — component IR, static analyses, interpreter;
* :mod:`repro.core`       — DCA, causal probability, the DCA autoscaler;
* :mod:`repro.graphstore` — the Titan-substitute causal-graph store;
* :mod:`repro.profiling`  — the sliding-window causal-path profiler;
* :mod:`repro.tracing`    — temporal causality: vector clock, spans, HTrace;
* :mod:`repro.sim`        — the cluster simulator (testbed substitute);
* :mod:`repro.autoscale`  — CloudWatch / ElasticRMI / HTrace baselines;
* :mod:`repro.workloads`  — Fig. 7 patterns and request generation;
* :mod:`repro.apps`       — Marketcetera / Hedwig / Zookeeper & co.;
* :mod:`repro.evalx`      — metrics, experiment runner, reporting.
"""

from repro.core.dca import analyze_application, analyze_component
from repro.core.elasticity import DCAElasticityManager, DCAManagerConfig
from repro.core.instrument import OverheadModel
from repro.core.paths import PathSignature, enumerate_causal_paths
from repro.core.probability import causal_probabilities, component_weights
from repro.core.sampling import RequestSampler
from repro.errors import ReproError
from repro.lang.builder import AppBuilder, ComponentBuilder, call, const, field, var
from repro.lang.ir import CLIENT, EXTERNAL, Application, Component

__version__ = "1.0.0"

__all__ = [
    "CLIENT",
    "EXTERNAL",
    "AppBuilder",
    "Application",
    "Component",
    "ComponentBuilder",
    "DCAElasticityManager",
    "DCAManagerConfig",
    "OverheadModel",
    "PathSignature",
    "ReproError",
    "RequestSampler",
    "__version__",
    "analyze_application",
    "analyze_component",
    "call",
    "causal_probabilities",
    "component_weights",
    "const",
    "enumerate_causal_paths",
    "field",
    "var",
]
