"""Classification metrics: confusion matrix, weighted precision/recall/F1,
binary ROC-AUC, model ranking, and the top-T embedding score.

Per-class precision, recall and F1 are aggregated with class-support weights
n_k / N. All arithmetic is 64-bit; consumers render at 2 decimals but the
stored values keep full precision.
"""

from __future__ import annotations

import statistics
from dataclasses import astuple, dataclass, fields

import numpy as np

TASK_THREE_CLASS = "three_class"
TASK_BINARY = "binary"


@dataclass(frozen=True)
class MetricsSummary:
    """Per-class precision, recall and F1 (arrays in class order) plus their
    support-weighted means and accuracy."""

    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    precision_weighted: float
    recall_weighted: float
    f1_weighted: float
    accuracy: float


@dataclass(frozen=True)
class EvaluationReport:
    """One model's evaluation on one (topic, task, embedding) cell: one
    reports.csv row, whose columns are these fields in order."""

    topic: str
    task: str
    embedding: str
    model: str
    f1_weighted: float
    precision_weighted: float
    recall_weighted: float
    accuracy: float
    auc_roc: float | None
    seed: int

    def __post_init__(self) -> None:
        if (self.auc_roc is not None) != (self.task == TASK_BINARY):
            raise ValueError("auc_roc must be present exactly for binary-task reports")


@dataclass(frozen=True)
class EmbeddingScore:
    """Mean weighted F1 of the top-T ranked models for one embedding in one
    (topic, task): one embedding_scores.csv row."""

    topic: str
    task: str
    embedding: str
    top_t: int
    mu: float


def confusion_matrix(y_true, y_pred, classes) -> np.ndarray:
    """(K, K) int64 counts of (true, predicted) label pairs; rows are true
    classes, columns predicted classes, both in the order of ``classes``.

    A label matches a class only by equality, so 0.5 is in no integer class.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) != len(y_pred):
        raise ValueError(f"length mismatch: {len(y_true)} true vs {len(y_pred)} predicted")
    if not len(y_true):
        raise ValueError("cannot build a confusion matrix from zero labels")
    classes = np.asarray(classes)
    if len(np.unique(classes)) != len(classes):
        raise ValueError(f"classes must be distinct, got {tuple(classes.tolist())}")
    labels = np.stack((y_true, y_pred))
    hits = labels[..., None] == classes  # (2, N, K), at most one hit per label
    found = hits.any(axis=2)
    if not found.all():
        raise ValueError(f"label {labels[~found][0]} not in classes {tuple(classes.tolist())}")
    true_index, pred_index = hits.argmax(axis=2)
    k = len(classes)
    pairs = np.bincount(true_index * k + pred_index, minlength=k * k)
    return pairs.reshape(k, k).astype(np.int64)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den per class, 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(len(den)), where=den > 0)


def classification_metrics(counts) -> MetricsSummary:
    """Per-class and support-weighted precision/recall/F1, plus accuracy,
    from a (K, K) confusion matrix.

    Conventions when a denominator is zero: precision_k = 0 when nothing was
    predicted as k, recall_k = 0 when class k has no true labels, f1_k = 0
    when precision_k + recall_k = 0.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValueError(f"confusion matrix must be square, got shape {counts.shape}")
    if not np.all(np.isfinite(counts) & (counts == np.trunc(counts))):
        raise ValueError("confusion matrix counts must be integers")
    counts = counts.astype(np.int64)
    if np.any(counts < 0):
        raise ValueError("confusion matrix counts must be nonnegative")
    n = int(counts.sum())
    if n < 1:
        raise ValueError("confusion matrix is empty")
    tp = np.diagonal(counts)
    support = counts.sum(axis=1)
    precision = _ratio(tp, counts.sum(axis=0))
    recall = _ratio(tp, support)
    f1 = _ratio(2 * (precision * recall), precision + recall)

    # A sequential sum in class order: np.sum would add 8 or more terms in
    # another order, which can round differently.
    weighted = (sum(s * v for s, v in zip(support.tolist(), values.tolist())) / n
                for values in (precision, recall, f1))
    return MetricsSummary(precision, recall, f1, *weighted, int(np.trace(counts)) / n)


def roc_auc_binary(y_true, scores) -> float:
    """Rank-based (Mann-Whitney) AUC for class-1 scores; ties get half credit.

    Equals the fraction of (positive, negative) pairs ordered correctly,
    counting tied pairs as 0.5, computed in O(n log n) via sorting.
    """
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape or y.ndim != 1:
        raise ValueError("y_true and scores must be 1-D and equally long")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("y_true must contain only 0 and 1")
    n_pos = int((y == 1).sum())
    n_neg = int(len(y) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC is undefined with a single class present")
    _, inverse, group_counts = np.unique(s, return_inverse=True, return_counts=True)
    ends = np.cumsum(group_counts)
    starts = ends - group_counts + 1
    avg_rank = (starts + ends) / 2.0
    ranks = avg_rank[inverse]
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def rank_models(reports: list[EvaluationReport]) -> list[EvaluationReport]:
    """Sort reports by weighted F1 descending, ties by model, then embedding,
    ascending. This is the one ranking rule: it orders the top-T models and
    picks the best models."""
    if not reports:
        raise ValueError("no reports to rank")
    return sorted(reports, key=lambda r: (-r.f1_weighted, r.model, r.embedding))


def embedding_performance(reports: list[EvaluationReport], top_t: int) -> list[EmbeddingScore]:
    """Mean weighted F1 of each (topic, task, embedding)'s top-T models.

    Reports are grouped by (topic, task, embedding) in first-appearance
    order, each group ranked by rank_models, the one ranking rule (F1
    descending, ties by model), and the first min(T, count) F1 values
    averaged.
    """
    if not reports:
        raise ValueError("no reports given")
    if top_t < 1:
        raise ValueError("top_t must be >= 1")
    groups: dict[tuple[str, str, str], list[EvaluationReport]] = {}
    for report in reports:
        groups.setdefault((report.topic, report.task, report.embedding), []).append(report)
    scores = []
    for (topic, task, embedding), group in groups.items():
        ranked = rank_models(group)
        # exact rational mean: the result is independent of summation order
        mu = float(statistics.mean(r.f1_weighted for r in ranked[:top_t]))
        scores.append(EmbeddingScore(topic, task, embedding, top_t, mu))
    return scores


def evaluate_predictions(
    topic: str,
    task: str,
    embedding: str,
    model: str,
    seed: int,
    y_true,
    y_pred,
    classes,
    positive_scores=None,
) -> EvaluationReport:
    """Build one model's report from its test-set predictions.

    Binary-task calls must supply the class-1 scores for the AUC; three-class
    calls must not (multiclass AUC is out of scope).
    """
    summary = classification_metrics(confusion_matrix(y_true, y_pred, classes))
    auc = None
    if task == TASK_BINARY:
        if positive_scores is None:
            raise ValueError("binary-task evaluation requires class-1 scores for AUC")
        auc = roc_auc_binary(y_true, positive_scores)
    elif positive_scores is not None:
        raise ValueError("scores are only used for the binary task")
    return EvaluationReport(
        topic, task, embedding, model,
        summary.f1_weighted, summary.precision_weighted, summary.recall_weighted,
        summary.accuracy, auc, seed,
    )


REPORT_CSV_HEADER = tuple(f.name for f in fields(EvaluationReport))


def report_csv_row(report: EvaluationReport) -> tuple[str, ...]:
    """Render one reports.csv row; str of a float is its full-precision repr."""
    return tuple("" if value is None else str(value) for value in astuple(report))
