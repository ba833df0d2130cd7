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
class ConfusionMatrix:
    """K x K counts; rows are true classes, columns predicted classes."""

    classes: tuple[int, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        k = len(self.classes)
        if counts.shape != (k, k):
            raise ValueError(f"counts must be {k}x{k}, got {counts.shape}")
        if np.any(counts < 0):
            raise ValueError("confusion matrix counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def support(self) -> np.ndarray:
        """Number of true labels per class (row sums)."""
        return self.counts.sum(axis=1)


@dataclass(frozen=True)
class ClassMetrics:
    label: int
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class MetricsSummary:
    """Per-class metrics plus support-weighted aggregates.

    ``zero_division_fired`` is True when any divide-by-zero convention was
    applied (precision with no predictions, recall with no support, F1 with
    precision + recall = 0).
    """

    per_class: tuple[ClassMetrics, ...]
    precision_weighted: float
    recall_weighted: float
    f1_weighted: float
    accuracy: float
    zero_division_fired: bool


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


def confusion_matrix(y_true, y_pred, classes) -> ConfusionMatrix:
    """Count (true, predicted) label pairs over an ordered class list."""
    y_true = list(y_true)
    y_pred = list(y_pred)
    if len(y_true) != len(y_pred):
        raise ValueError(f"length mismatch: {len(y_true)} true vs {len(y_pred)} predicted")
    if not y_true:
        raise ValueError("cannot build a confusion matrix from zero labels")
    classes = tuple(int(c) for c in classes)
    index = {c: i for i, c in enumerate(classes)}
    counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        try:
            counts[index[int(t)], index[int(p)]] += 1
        except KeyError as exc:
            raise ValueError(f"label {exc.args[0]} not in classes {classes}") from None
    return ConfusionMatrix(classes=classes, counts=counts)


def classification_metrics(cm: ConfusionMatrix) -> MetricsSummary:
    """Per-class and support-weighted precision/recall/F1, plus accuracy.

    Conventions when a denominator is zero: precision_k = 0 when nothing was
    predicted as k, recall_k = 0 when class k has no true labels, f1_k = 0
    when precision_k + recall_k = 0.
    """
    n = cm.n
    if n < 1:
        raise ValueError("confusion matrix is empty")
    counts = cm.counts
    per_class = []
    fired = False
    for i, label in enumerate(cm.classes):
        tp = int(counts[i, i])
        fp = int(counts[:, i].sum()) - tp
        fn = int(counts[i, :].sum()) - tp
        if tp + fp > 0:
            precision = tp / (tp + fp)
        else:
            precision = 0.0
            fired = True
        if tp + fn > 0:
            recall = tp / (tp + fn)
        else:
            recall = 0.0
            fired = True
        if precision + recall > 0:
            f1 = 2 * (precision * recall) / (precision + recall)
        else:
            f1 = 0.0
            fired = True
        per_class.append(ClassMetrics(label, tp, fp, fn, precision, recall, f1))

    support = cm.support
    precision_w = sum(int(s) * m.precision for s, m in zip(support, per_class)) / n
    recall_w = sum(int(s) * m.recall for s, m in zip(support, per_class)) / n
    f1_w = sum(int(s) * m.f1 for s, m in zip(support, per_class)) / n
    accuracy = int(np.trace(counts)) / n
    return MetricsSummary(
        per_class=tuple(per_class),
        precision_weighted=precision_w,
        recall_weighted=recall_w,
        f1_weighted=f1_w,
        accuracy=accuracy,
        zero_division_fired=fired,
    )


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
    """Sort reports by weighted F1 descending, ties by model id ascending."""
    if not reports:
        raise ValueError("no reports to rank")
    return sorted(reports, key=lambda r: (-r.f1_weighted, r.model))


def embedding_performance(reports: list[EvaluationReport], top_t: int) -> list[EmbeddingScore]:
    """Mean weighted F1 of each (topic, task, embedding)'s top-T models.

    Reports are grouped by (topic, task, embedding) in first-appearance
    order, each group ranked with the rank_models rule, and the first
    min(T, count) F1 values averaged.
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
