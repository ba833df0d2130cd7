"""Evaluation metrics against independent counting oracles."""

import numpy as np
import pytest

from capsift.metrics import (
    TASK_BINARY,
    TASK_THREE_CLASS,
    REPORT_CSV_HEADER,
    EvaluationReport,
    classification_metrics,
    confusion_matrix,
    embedding_performance,
    evaluate_predictions,
    rank_models,
    report_csv_row,
    roc_auc_binary,
)
from helpers import make_report, traced_peak


def oracle_metrics(y_true, y_pred, classes):
    """Per-class metrics by direct pair counting over plain lists."""
    per_class = {}
    for c in classes:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[c] = (tp, fp, fn, precision, recall, f1)
    n = len(y_true)
    support = {c: sum(1 for t in y_true if t == c) for c in classes}
    weighted = [sum(support[c] * per_class[c][i] for c in classes) / n for i in (3, 4, 5)]
    accuracy = sum(1 for t, p in zip(y_true, y_pred) if t == p) / n
    return per_class, weighted, accuracy


def oracle_auc(y_true, scores):
    """O(n^2) pairwise counting: correct pairs + half credit for ties."""
    pos = [s for t, s in zip(y_true, scores) if t == 1]
    neg = [s for t, s in zip(y_true, scores) if t == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_confusion_matrix_counts():
    cm = confusion_matrix([1, 1, 0, 0, 0], [1, 0, 0, 0, 1], classes=[0, 1])
    assert cm.dtype == np.int64
    assert cm.tolist() == [[2, 1], [1, 1]]
    assert cm.sum() == 5
    assert cm.sum(axis=1).tolist() == [3, 2]
    # rows and columns follow the given class order
    cm = confusion_matrix([1, 1, 0, 0, 0], [1, 0, 0, 0, 1], classes=[1, 0])
    assert cm.tolist() == [[1, 1], [1, 2]]


def test_confusion_matrix_errors():
    with pytest.raises(ValueError, match="length"):
        confusion_matrix([0, 1], [0], classes=[0, 1])
    with pytest.raises(ValueError, match="zero labels"):
        confusion_matrix([], [], classes=[0, 1])
    with pytest.raises(ValueError, match="not in classes"):
        confusion_matrix([0, 2], [0, 0], classes=[0, 1])
    with pytest.raises(ValueError, match="not in classes"):
        confusion_matrix([0.5, 1], [0, 1], classes=[0, 1])
    with pytest.raises(ValueError, match="distinct"):
        confusion_matrix([0, 1], [0, 1], classes=[0, 1, 1])


def test_hand_check_weighted_f1_exact():
    # y_true=[1,1,0,0,0], y_pred=[1,0,0,0,1]: class 0 P=R=F1=2/3, class 1
    # P=R=F1=1/2; weighted F1 = (3*(2/3) + 2*(1/2)) / 5 = 0.6 exactly
    cm = confusion_matrix([1, 1, 0, 0, 0], [1, 0, 0, 0, 1], classes=[0, 1])
    m = classification_metrics(cm)
    assert m.f1_weighted == 0.6
    assert m.accuracy == 0.6
    assert m.precision_weighted == 0.6
    assert m.recall_weighted == 0.6


def test_metrics_match_oracle_randomized():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(300):
        k = int(rng.choice([2, 3, 5]))
        classes = list(range(k))
        if rng.integers(2):  # the counts must follow the given class order
            classes = rng.permutation(classes).tolist()
        n = int(rng.integers(5, 120))
        y_true = rng.integers(0, k, n).tolist()
        y_pred = rng.integers(0, k, n).tolist()
        cm = confusion_matrix(y_true, y_pred, classes)
        m = classification_metrics(cm)
        per_class, weighted, accuracy = oracle_metrics(y_true, y_pred, classes)
        tp = np.diagonal(cm)
        fp = cm.sum(axis=0) - tp
        fn = cm.sum(axis=1) - tp
        for i, c in enumerate(classes):
            assert (tp[i], fp[i], fn[i]) == per_class[c][:3]
            assert m.precision[i] == per_class[c][3]
            assert m.recall[i] == per_class[c][4]
            assert m.f1[i] == per_class[c][5]
        assert m.precision_weighted == weighted[0]
        assert m.recall_weighted == weighted[1]
        assert m.f1_weighted == weighted[2]
        assert m.accuracy == accuracy
        # support-weighted recall is accuracy, down to float identity
        assert abs(m.recall_weighted - m.accuracy) < 1e-12


def test_zero_division_conventions():
    # class 1 never predicted -> precision 0; class 2 has no support -> recall 0
    cm = confusion_matrix([0, 0, 1], [0, 0, 0], classes=[0, 1, 2])
    m = classification_metrics(cm)
    assert m.precision[1] == 0.0 and m.f1[1] == 0.0
    assert m.recall[2] == 0.0 and m.f1[2] == 0.0


# --- AUC --------------------------------------------------------------------


def test_auc_fixture():
    assert roc_auc_binary([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) == 0.75


def test_auc_perfect_and_inverted():
    assert roc_auc_binary([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0
    assert roc_auc_binary([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0
    assert roc_auc_binary([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5


def test_auc_matches_pairwise_oracle():
    rng = np.random.Generator(np.random.PCG64(21))
    for trial in range(200):
        n = int(rng.integers(2, 50))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        if trial % 2:  # force heavy ties half the time
            s = rng.integers(0, 4, n).astype(float) / 4.0
        else:
            s = rng.normal(0, 1, n)
        fast = roc_auc_binary(y, s)
        slow = oracle_auc(y.tolist(), s.tolist())
        assert abs(fast - slow) < 1e-12


def test_auc_errors():
    with pytest.raises(ValueError, match="single class"):
        roc_auc_binary([1, 1], [0.1, 0.2])
    with pytest.raises(ValueError, match="only 0 and 1"):
        roc_auc_binary([0, 2], [0.1, 0.2])
    with pytest.raises(ValueError, match="1-D"):
        roc_auc_binary([0, 1], [0.1, 0.2, 0.3])


# --- ranking and embedding scores -------------------------------------------


def test_rank_models_orders_by_f1_then_name():
    reports = [make_report("svm", 0.8), make_report("knn", 0.9),
               make_report("ada", 0.8), make_report("nb", 0.95)]
    assert [r.model for r in rank_models(reports)] == ["nb", "knn", "ada", "svm"]
    # equal F1 and model: the embedding decides
    tied = [make_report("knn", 0.9, embedding="w2v"), make_report("knn", 0.9, embedding="glove")]
    assert [r.embedding for r in rank_models(tied)] == ["glove", "w2v"]


def test_embedding_performance_worked_examples():
    pool = [make_report(f"m{i}", f1) for i, f1 in enumerate([0.9, 0.8, 0.7, 0.6])]
    (score,) = embedding_performance(pool, top_t=3)
    assert score.mu == pytest.approx(0.8)
    (top1,) = embedding_performance(pool, top_t=1)
    assert top1.mu == 0.9
    (full,) = embedding_performance(pool, top_t=10)
    assert full.mu == pytest.approx(0.75)  # pool smaller than T: full mean


def test_embedding_performance_groups_by_embedding():
    pool = [make_report("a", 1.0, embedding="e1"), make_report("b", 0.5, embedding="e1"),
            make_report("a", 0.4, embedding="e2")]
    scores = {s.embedding: s.mu for s in embedding_performance(pool, top_t=2)}
    assert scores == {"e1": pytest.approx(0.75), "e2": pytest.approx(0.4)}


def test_embedding_performance_groups_by_topic_and_task():
    # two topics sharing an embedding name are two scores, not one pooled mean
    pool = [make_report("a", 1.0, topic="moon"), make_report("a", 0.2, topic="vaccines"),
            make_report("b", 0.6, topic="vaccines"),
            make_report("a", 0.4, task=TASK_BINARY, topic="moon")]
    scores = embedding_performance(pool, top_t=1)
    assert [(s.topic, s.task, s.embedding, s.top_t, s.mu) for s in scores] == [
        ("moon", TASK_THREE_CLASS, "emb", 1, 1.0),
        ("vaccines", TASK_THREE_CLASS, "emb", 1, 0.6),
        ("moon", TASK_BINARY, "emb", 1, 0.4),
    ]


def test_embedding_performance_validation():
    with pytest.raises(ValueError):
        embedding_performance([], 3)
    with pytest.raises(ValueError):
        embedding_performance([make_report("m", 0.5)], 0)


# --- evaluate_predictions and CSV rendering ---------------------------------


def test_evaluate_predictions_binary_requires_scores():
    with pytest.raises(ValueError, match="requires class-1 scores"):
        evaluate_predictions("moon", TASK_BINARY, "e", "m", 5, [0, 1], [0, 1], [0, 1])
    with pytest.raises(ValueError, match="only used for the binary task"):
        evaluate_predictions("moon", TASK_THREE_CLASS, "e", "m", 5, [0, 1], [0, 1], [0, 1],
                             positive_scores=[0.1, 0.9])


def test_evaluate_predictions_binary_report():
    report = evaluate_predictions("moon", TASK_BINARY, "e", "m", 5, [0, 0, 1, 1],
                                  [0, 0, 1, 1], [0, 1], positive_scores=[0.1, 0.2, 0.8, 0.9])
    assert report.auc_roc == 1.0
    assert report.f1_weighted == 1.0
    row = report_csv_row(report)
    assert row == ("moon", "binary", "e", "m", "1.0", "1.0", "1.0", "1.0", "1.0", "5")


def test_report_csv_row_blank_optional_fields():
    report = evaluate_predictions("moon", TASK_THREE_CLASS, "e", "m", 5, [0, 1, 2],
                                  [0, 1, 2], [0, 1, 2])
    row = report_csv_row(report)
    assert row == ("moon", "three_class", "e", "m", "1.0", "1.0", "1.0", "1.0", "", "5")
    assert REPORT_CSV_HEADER[8] == "auc_roc"


def test_report_requires_auc_exactly_for_binary():
    with pytest.raises(ValueError, match="auc_roc"):
        EvaluationReport("moon", TASK_THREE_CLASS, "e", "m", 1.0, 1.0, 1.0, 1.0, 0.5, 5)
    with pytest.raises(ValueError, match="auc_roc"):
        EvaluationReport("moon", TASK_BINARY, "e", "m", 1.0, 1.0, 1.0, 1.0, None, 5)


def test_csv_row_full_precision():
    y_true = [0] * 5 + [1] * 2
    y_pred = [0, 0, 0, 1, 1, 1, 0]
    report = evaluate_predictions("moon", TASK_THREE_CLASS, "e", "m", 5, y_true, y_pred, [0, 1])
    row = report_csv_row(report)
    assert row[4] == repr(report.f1_weighted)
    assert float(row[4]) == report.f1_weighted  # repr round trips


def test_confusion_matrix_rejects_bad_shape():
    with pytest.raises(ValueError, match="square"):
        classification_metrics(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="nonnegative"):
        classification_metrics(np.array([[1, -1], [0, 0]]))
    for bad in ([[1.9, 0], [0, 1]], [[np.nan, 0], [0, 1]]):
        with pytest.raises(ValueError, match="integers"):
            classification_metrics(bad)
    assert classification_metrics([[2.0, 0.0], [0.0, 1.0]]).f1.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("task", [TASK_THREE_CLASS, TASK_BINARY])
def test_evaluation_memory_grows_linearly_with_rows(task):
    rng = np.random.Generator(np.random.PCG64(6))
    classes = [-1, 0, 1] if task == TASK_THREE_CLASS else [0, 1]
    y_true, y_pred = rng.choice(classes, 1200), rng.choice(classes, 1200)
    scores = rng.random(1200) if task == TASK_BINARY else None

    def evaluate(n):
        evaluate_predictions("moon", task, "e", "m", 0, y_true[:n], y_pred[:n], classes,
                             None if scores is None else scores[:n])

    evaluate(600)  # warm-up: one-time allocations are not per row
    small, large = (traced_peak(lambda: evaluate(n)) for n in (600, 1200))
    assert large <= 2.5 * small
