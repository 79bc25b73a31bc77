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
    label_fraction,
)
from .drift import (
    DistanceHistogram,
    DriftVerdict,
    detect_drift,
    histogram,
    kl_divergence,
    smooth_zero_bins,
)
from .ensemble import decision_lines
from .pipeline import (
    DetectedEvent,
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
    process_point,
    train_classifier,
)
from .synth import SynthConfig, generate_synthetic
from .windows import (
    DataWindow,
    DeltaBand,
    GaussianBandEstimate,
    band_membership,
    centroid_distances,
    empirical_delta_band,
    gaussian_delta_band,
    unit_hypersphere_volume,
)

__version__ = "0.1.0"
