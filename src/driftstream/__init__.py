"""Drift-adaptive streaming event detection with teamed classifiers."""

from .core import (
    ConfigError,
    DataPoint,
    Embedder,
    EmbedderConfig,
    InputError,
    cosine_distance,
)
from .corroborate import (
    CorroborativeEvent,
    LabelAssignment,
    assign_labels,
    haversine_km,
)
from .drift import (
    DriftVerdict,
    detect_drift,
    histogram,
    kl_divergence,
    smooth_zero_bins,
)
from .ensemble import decision_lines
from .pipeline import (
    PipelineConfig,
    WindowReport,
    aggregate_events,
    evaluate_windows,
    replay,
)
from .pool import (
    ModelRecord,
    Pool,
    PoolConfig,
    evaluate_models,
    on_drift,
    route_window,
    train_classifier,
)
from .synth import SynthConfig, generate_synthetic
from .windows import (
    DataWindow,
    DeltaBand,
    band_membership,
    centroid_distances,
    empirical_delta_band,
)

__version__ = "0.1.0"
