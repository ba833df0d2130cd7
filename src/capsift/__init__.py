"""capsift: classify video captions as misinformation, debunking, or neutral.

The pipeline: preprocess captions (corpus), average pretrained word vectors
into caption features (embeddings), balance classes with SMOTE synthetic
oversampling (oversampling), sweep a suite of classifiers (classifiers),
score them with support-weighted metrics (metrics), and orchestrate
everything per topic with deterministic seeding (experiment, cli).

Importing the package imports none of its modules, so numpy is not loaded
until a name below is first used: the command line's entries import it
first, to start numpy their own way (see ``capsift._startup``). Each name
is then read from its module and kept here.
"""

import importlib

__version__ = "0.1.0"

# Each module and the public names read from it.
_EXPORTS = {
    "corpus": (
        "Topic", "Label", "VideoRecord", "CaptionDocument", "CorpusError",
        "load_stopwords", "load_manifest", "load_corpus", "filter_corpus",
        "preprocess_caption", "descriptive_stats",
    ),
    "embeddings": (
        "EmbeddingTable", "CaptionVector", "EmbeddingFormatError",
        "parse_embedding_file", "write_embedding_file", "vectorize_caption",
    ),
    "oversampling": ("ResampledDataset", "smote"),
    "classifiers": (
        "ALGORITHMS", "DEFAULT_HYPERPARAMS", "AlgorithmSpec", "TrainedModel", "train",
    ),
    "metrics": (
        "TASK_THREE_CLASS", "TASK_BINARY", "MetricsSummary",
        "EvaluationReport", "EmbeddingScore", "confusion_matrix",
        "classification_metrics", "roc_auc_binary", "rank_models",
        "embedding_performance", "evaluate_predictions",
    ),
    "experiment": (
        "ExperimentConfig", "ConfigError", "RunResult", "load_config",
        "binarize_labels", "stratified_split", "derive_seed", "run_experiment",
        "emit_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
