"""Training, evaluation, guidance, and the experiment suite."""

from .optim import Adam
from .train import (
    Metrics,
    StageData,
    TrainConfig,
    TrainingDivergence,
    compute_metrics,
    evaluate,
    predict_counts,
    train_stage,
)
from .blob import (
    BlobSceneParams,
    GuidanceConfig,
    GuidanceRecord,
    guide_optimize,
    init_blob_params,
    render_blob_scene,
)
from .experiments import (
    ABLATION_VARIANTS,
    AblationRow,
    SizeBiasRow,
    SizeClassRow,
    ThresholdRow,
    run_ablation,
    size_bias_sweep,
    size_class_drift,
    threshold_sweep,
)

__all__ = [
    "Adam",
    "TrainConfig",
    "StageData",
    "Metrics",
    "TrainingDivergence",
    "compute_metrics",
    "predict_counts",
    "evaluate",
    "train_stage",
    "BlobSceneParams",
    "GuidanceConfig",
    "GuidanceRecord",
    "init_blob_params",
    "render_blob_scene",
    "guide_optimize",
    "SizeBiasRow",
    "SizeClassRow",
    "ThresholdRow",
    "AblationRow",
    "ABLATION_VARIANTS",
    "size_bias_sweep",
    "size_class_drift",
    "threshold_sweep",
    "run_ablation",
]
