"""capsift: classify video captions as misinformation, debunking, or neutral.

The pipeline: preprocess captions (corpus), average pretrained word vectors
into caption features (embeddings), balance classes with SMOTE synthetic
oversampling (oversampling), sweep a suite of classifiers (classifiers),
score them with support-weighted metrics (metrics), and orchestrate
everything per topic with deterministic seeding (experiment, cli).
"""

from .classifiers import (
    ALGORITHMS,
    DEFAULT_HYPERPARAMS,
    AlgorithmSpec,
    TrainedModel,
    train,
)
from .corpus import (
    CaptionDocument,
    CorpusError,
    Label,
    Topic,
    VideoRecord,
    descriptive_stats,
    filter_corpus,
    load_corpus,
    load_manifest,
    load_stopwords,
    preprocess_caption,
)
from .embeddings import (
    CaptionVector,
    EmbeddingFormatError,
    EmbeddingTable,
    parse_embedding_file,
    vectorize_caption,
    write_embedding_file,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    RunResult,
    binarize_labels,
    derive_seed,
    emit_report,
    load_config,
    run_experiment,
    stratified_split,
)
from .metrics import (
    TASK_BINARY,
    TASK_THREE_CLASS,
    EmbeddingScore,
    EvaluationReport,
    MetricsSummary,
    classification_metrics,
    confusion_matrix,
    embedding_performance,
    evaluate_predictions,
    rank_models,
    roc_auc_binary,
)
from .oversampling import ResampledDataset, smote

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # corpus
    "Topic", "Label", "VideoRecord", "CaptionDocument", "CorpusError",
    "load_stopwords", "load_manifest", "load_corpus", "filter_corpus",
    "preprocess_caption", "descriptive_stats",
    # embeddings
    "EmbeddingTable", "CaptionVector", "EmbeddingFormatError",
    "parse_embedding_file", "write_embedding_file", "vectorize_caption",
    # oversampling
    "ResampledDataset", "smote",
    # classifiers
    "ALGORITHMS", "DEFAULT_HYPERPARAMS", "AlgorithmSpec", "TrainedModel",
    "train",
    # metrics
    "TASK_THREE_CLASS", "TASK_BINARY", "MetricsSummary",
    "EvaluationReport", "EmbeddingScore", "confusion_matrix",
    "classification_metrics", "roc_auc_binary", "rank_models",
    "embedding_performance", "evaluate_predictions",
    # experiment
    "ExperimentConfig", "ConfigError", "RunResult", "load_config",
    "binarize_labels", "stratified_split", "derive_seed", "run_experiment",
    "emit_report",
]
