"""Synthetic microservice fault diagnosis toolkit.

Simulates multimodal telemetry (metrics, logs, traces) for a service
dependency graph under injected faults, preprocesses it into aligned
per-node windows, embeds each modality, and trains either a
topology-agnostic MLP or a graph-convolution backbone in the same pipeline
slot so the two can be compared fairly.
"""

from .types import (
    Backbone,
    DatasetSplit,
    DiagnosisWindow,
    FaultSpec,
    FaultType,
    NodeSegments,
    RunConfig,
    SERIES_DTYPE,
    SPAN_DTYPE,
    ServiceGraph,
    Task,
    TelemetryStream,
)
from .prng import Prng, prng_new
from .simulator import ScenarioSpec, generate_topology, scenario_preset, schedule_faults, simulate
from .templates import TemplateTable, mine_templates, template_series
from .preprocess import (
    Transforms,
    apply_transforms,
    fit_transforms,
    plan_windows,
    preprocess_stream,
    three_sigma_alerts,
    window_label,
    windows_from_bytes,
    windows_to_bytes,
)
from .embed import init_encoder_params
from .models import count_params, init_params, normalized_adjacency
from .train_eval import (
    DatasetBundle,
    MetricsReport,
    SeparabilityMode,
    ablate,
    evaluate,
    pca_2d,
    prepare_dataset,
    separability_report,
    silhouette_score,
    topk_accuracy,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Backbone", "DatasetSplit", "DiagnosisWindow", "FaultSpec", "FaultType",
    "NodeSegments", "RunConfig", "SERIES_DTYPE", "SPAN_DTYPE", "ServiceGraph", "Task",
    "TelemetryStream",
    "Prng", "prng_new",
    "ScenarioSpec", "generate_topology", "scenario_preset", "schedule_faults",
    "simulate",
    "TemplateTable", "mine_templates", "template_series",
    "Transforms", "apply_transforms", "fit_transforms",
    "plan_windows", "preprocess_stream", "three_sigma_alerts", "window_label",
    "windows_from_bytes", "windows_to_bytes",
    "init_encoder_params",
    "count_params", "init_params", "normalized_adjacency",
    "DatasetBundle", "MetricsReport", "SeparabilityMode", "ablate",
    "evaluate", "pca_2d", "prepare_dataset", "separability_report", "silhouette_score",
    "topk_accuracy", "train",
    "__version__",
]
