"""Acceptance checks: one test and one printed status line per guarantee.

Each test prints `acceptance NN <label>: PASS|FAIL|SKIP` straight to the
terminal (capture disabled), so a full pytest run always shows one line per
criterion regardless of verbosity settings.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_report, make_table
from capsift.classifiers import (
    DUMMY,
    AlgorithmSpec,
    cross_entropy_loss_and_grad,
    train,
)
from capsift.embeddings import (
    GLOVE_TEXT,
    WORD2VEC_TEXT,
    EmbeddingFormatError,
    parse_embedding_file,
    write_embedding_file,
)
from capsift.experiment import (
    ExperimentConfig,
    emit_report,
    load_config,
    run_experiment,
    stratified_split,
)
from capsift.metrics import (
    TASK_BINARY,
    classification_metrics,
    confusion_matrix,
    embedding_performance,
    roc_auc_binary,
)
from capsift.smote import smote

FIXTURES = Path(__file__).parent / "fixtures"
NON_DUMMY = ("knn", "nearest_centroid", "logistic_regression",
             "linear_svm", "gaussian_nb", "random_forest")


@pytest.fixture
def announce(capsys):
    def _announce(number: int, label: str, ok: bool, detail: str = ""):
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"\nacceptance {number:02d} {label}: {'PASS' if ok else 'FAIL'}{suffix}")
        assert ok, f"acceptance {number:02d} {label} failed{suffix}"
    return _announce


def skip_line(capsys, number: int, label: str, reason: str):
    with capsys.disabled():
        print(f"\nacceptance {number:02d} {label}: SKIP ({reason})")
    pytest.skip(reason)


# --- 1: weighted metrics vs a counting oracle ----------------------------------


def counting_oracle(y_true, y_pred, classes):
    """Plain-loop per-class metrics, same arithmetic order as the library."""
    n = len(y_true)
    precisions, recalls, f1s, supports = [], [], [], []
    correct = 0
    for c in classes:
        tp = fp = fn = support = 0
        for t, p in zip(y_true, y_pred):
            if t == c and p == c:
                tp += 1
            elif t != c and p == c:
                fp += 1
            elif t == c and p != c:
                fn += 1
            if t == c:
                support += 1
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * (precision * recall) / (precision + recall) if precision + recall > 0 else 0.0
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)
        supports.append(support)
    correct = sum(1 for t, p in zip(y_true, y_pred) if t == p)
    return (
        sum(s * v for s, v in zip(supports, precisions)) / n,
        sum(s * v for s, v in zip(supports, recalls)) / n,
        sum(s * v for s, v in zip(supports, f1s)) / n,
        correct / n,
    )


def test_acceptance_01_metric_suite(announce):
    rng = np.random.Generator(np.random.PCG64(101))
    started = time.perf_counter()
    worst_gap = 0.0
    for trial in range(1000):
        k = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(5, 201))
        classes = sorted(int(c) for c in rng.choice(np.arange(-4, 12), size=k, replace=False))
        y_true = rng.choice(classes, size=n)
        y_pred = rng.choice(classes, size=n)
        summary = classification_metrics(confusion_matrix(y_true, y_pred, classes))
        oracle = counting_oracle(y_true.tolist(), y_pred.tolist(), classes)
        assert (summary.precision_weighted, summary.recall_weighted,
                summary.f1_weighted, summary.accuracy) == oracle, f"trial {trial}"
        worst_gap = max(worst_gap, abs(summary.recall_weighted - summary.accuracy))
        assert worst_gap <= 1e-12
    elapsed = time.perf_counter() - started
    announce(1, "weighted_metric_oracle", elapsed < 5.0,
             f"1000 datasets exact, max |recall_w - acc| = {worst_gap:.1e}, {elapsed:.2f}s")


# --- 2: hand-evaluated fixture --------------------------------------------------


def test_acceptance_02_hand_fixture(announce):
    summary = classification_metrics(
        confusion_matrix([1, 1, 0, 0, 0], [1, 0, 0, 0, 1], [0, 1]))
    ok = summary.f1_weighted == 0.6 and summary.accuracy == 0.6
    announce(2, "hand_checked_fixture", ok,
             f"weighted F1 = {summary.f1_weighted!r}, accuracy = {summary.accuracy!r}")


# --- 3: AUC vs the pairwise oracle ----------------------------------------------


def pairwise_auc(y, s):
    pos = [si for yi, si in zip(y, s) if yi == 1]
    neg = [si for yi, si in zip(y, s) if yi == 0]
    score = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                score += 1.0
            elif p == q:
                score += 0.5
    return score / (len(pos) * len(neg))


def test_acceptance_03_auc_oracle(announce):
    fixture = roc_auc_binary([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8])
    assert fixture == 0.75
    rng = np.random.Generator(np.random.PCG64(303))
    worst = 0.0
    for trial in range(500):
        n = int(rng.integers(2, 51))
        n_pos = int(rng.integers(1, n))
        y = np.array([1] * n_pos + [0] * (n - n_pos))
        rng.shuffle(y)
        if trial % 2 == 0:
            scores = rng.integers(0, 5, size=n) / 4.0  # quantized: guaranteed ties
        else:
            scores = rng.random(n)
        gap = abs(roc_auc_binary(y, scores) - pairwise_auc(y.tolist(), scores.tolist()))
        worst = max(worst, gap)
        assert worst <= 1e-12, f"trial {trial}"
    announce(3, "rank_auc_oracle", True,
             f"fixture 0.75 exact, 500 sets max |gap| = {worst:.1e}")


# --- 4: oversampling properties --------------------------------------------------


def test_acceptance_04_smote_properties(announce):
    rng = np.random.Generator(np.random.PCG64(404))
    started = time.perf_counter()
    for trial in range(200):
        k_classes = int(rng.integers(2, 5))
        counts = rng.integers(2, 40, size=k_classes)
        d = int(rng.integers(1, 8))
        X = rng.normal(0, 3, (int(counts.sum()), d))
        y = np.repeat(np.arange(k_classes), counts)
        rng.shuffle(y)
        k = int(rng.integers(1, 8))

        out = smote(X, y, k_neighbors=k, seed=trial)
        _, balanced_counts = np.unique(out.labels, return_counts=True)
        assert (balanced_counts == counts.max()).all(), f"trial {trial}: not uniform"
        n = len(y)
        assert np.array_equal(out.features[:n], X) and np.array_equal(out.labels[:n], y)
        for row, base, nb, u in zip(out.features[n:], out.base, out.neighbor, out.u):
            expected = X[base] + u * (X[nb] - X[base])
            assert np.abs(row - expected).max() <= 1e-9, f"trial {trial}: provenance"
            assert y[base] == y[nb]
        again = smote(X, y, k_neighbors=k, seed=trial)
        assert np.array_equal(out.features, again.features)
        assert all(np.array_equal(getattr(out, f), getattr(again, f))
                   for f in ("base", "neighbor", "u"))
    elapsed = time.perf_counter() - started
    announce(4, "oversampling_properties", elapsed < 10.0,
             f"200 datasets: uniform counts, provenance <= 1e-9, seeded reruns equal, "
             f"{elapsed:.2f}s")


# --- 5: analytic gradient vs finite differences -----------------------------------


def test_acceptance_05_gradient_check(announce):
    rng = np.random.Generator(np.random.PCG64(505))
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 13))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        X = rng.normal(0, 1, (n, d))
        onehot = np.zeros((n, k))
        onehot[np.arange(n), rng.integers(0, k, n)] = 1.0
        W = rng.normal(0, 0.8, (k, d))
        b = rng.normal(0, 0.8, k)
        l2 = float(rng.uniform(0, 0.1))
        _, grad_w, grad_b = cross_entropy_loss_and_grad(W, b, X, onehot, l2)

        def loss_at(Wx, bx):
            return cross_entropy_loss_and_grad(Wx, bx, X, onehot, l2)[0]

        for idx in np.ndindex(*W.shape):
            Wp, Wm = W.copy(), W.copy()
            Wp[idx] += h
            Wm[idx] -= h
            numeric = (loss_at(Wp, b) - loss_at(Wm, b)) / (2 * h)
            denom = max(abs(numeric), abs(grad_w[idx]), 1e-6)
            worst = max(worst, abs(numeric - grad_w[idx]) / denom)
        for j in range(k):
            bp, bm = b.copy(), b.copy()
            bp[j] += h
            bm[j] -= h
            numeric = (loss_at(W, bp) - loss_at(W, bm)) / (2 * h)
            denom = max(abs(numeric), abs(grad_b[j]), 1e-6)
            worst = max(worst, abs(numeric - grad_b[j]) / denom)
    announce(5, "logreg_gradient_check", worst < 1e-4,
             f"20 instances, max relative error = {worst:.2e}")


# --- 6: every real classifier separates well-separated blobs ----------------------


def test_acceptance_06_classifier_sanity(announce):
    rng = np.random.Generator(np.random.PCG64(606))
    spread = 6.0 / math.sqrt(2.0)  # orthogonal placement: pairwise distance 6 sigma
    means = [np.zeros(4) for _ in range(3)]
    for i in range(3):
        means[i][i] = spread
    X = np.vstack([rng.normal(0, 1.0, (100, 4)) + m for m in means])
    y = np.repeat([-1, 0, 1], 100)
    train_idx, test_idx = stratified_split(y, 0.3, seed=66)
    classes = [-1, 0, 1]

    def holdout_f1(algo):
        model = train(AlgorithmSpec(algo, seed=660), X[train_idx], y[train_idx])
        pred = model.predict(X[test_idx])
        return classification_metrics(
            confusion_matrix(y[test_idx], pred, classes)).f1_weighted

    real = {algo: holdout_f1(algo) for algo in NON_DUMMY}
    dummy = holdout_f1(DUMMY)
    ok = all(f1 >= 0.95 for f1 in real.values()) and dummy < min(real.values())
    announce(6, "classifier_sanity", ok,
             f"min real F1 = {min(real.values()):.3f} "
             f"({min(real, key=real.get)}), dummy = {dummy:.3f}")


# --- 7: top-T embedding scoring ----------------------------------------------------


def test_acceptance_07_top_t_scoring(announce):
    pool = [make_report(f"m{i}", f1) for i, f1 in enumerate([0.9, 0.8, 0.7, 0.6])]
    (top3,) = embedding_performance(pool, top_t=3)
    (top1,) = embedding_performance(pool, top_t=1)
    (full,) = embedding_performance(pool, top_t=10)
    ok = top3.mu == 0.8 and top1.mu == 0.9 and full.mu == 0.75
    announce(7, "top_t_embedding_score", ok,
             f"T=3 -> {top3.mu!r}, T=1 -> {top1.mu!r}, T=10 -> {full.mu!r}")


# --- 8: end-to-end determinism ------------------------------------------------------


def test_acceptance_08_end_to_end_determinism(announce, tmp_path):
    started = time.perf_counter()
    config = load_config(FIXTURES / "experiment.cfg")
    first = run_experiment(config)
    emit_report(first, tmp_path / "a")
    second = run_experiment(config)
    emit_report(second, tmp_path / "b")
    elapsed = time.perf_counter() - started

    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("reports.csv", "embedding_scores.csv")
    )
    rows = len(first.reports)
    announce(8, "end_to_end_determinism", identical and elapsed < 60.0 and rows == 56,
             f"two runs byte-identical, {rows} report rows, {elapsed:.1f}s")


# --- 9: published-figure reproduction (conditional on external data) -----------------


def test_acceptance_09_published_figures(announce, capsys, tmp_path):
    manifest = os.environ.get("CAPSIFT_SOURCE_MANIFEST", "")
    glove = os.environ.get("CAPSIFT_GLOVE_100D", "")
    if not (manifest and glove and Path(manifest).exists() and Path(glove).exists()):
        skip_line(
            capsys, 9, "published_figures",
            "source caption corpus and GloVe-100D vectors are not available in "
            "this environment; set CAPSIFT_SOURCE_MANIFEST and CAPSIFT_GLOVE_100D "
            "to enable this check",
        )
    config = ExperimentConfig(
        manifest=Path(manifest),
        embeddings=(("glove100", Path(glove)),),
        topics=("vaccines",),
        task=TASK_BINARY,
        seed=2024,
        out_dir=tmp_path,
    )
    result = run_experiment(config)
    emit_report(result, tmp_path)
    contenders = [r for r in result.reports if r.model != DUMMY]
    best = max(contenders, key=lambda r: r.f1_weighted)
    ok = best.f1_weighted >= 0.85
    if not ok:
        with capsys.disabled():  # a shortfall must show the full sweep, not hide it
            print("\nfull binary sweep on the vaccines topic:")
            for r in sorted(result.reports, key=lambda r: -r.f1_weighted):
                print(f"  {r.model:22s} {r.embedding:10s} "
                      f"F1={r.f1_weighted:.4f} AUC={r.auc_roc:.4f}")
    announce(9, "published_figures", ok,
             f"best binary F1 on vaccines = {best.f1_weighted:.3f} ({best.model})")


# --- 10: embedding file round trips and malformed inputs ------------------------------


def test_acceptance_10_embedding_round_trip(announce, tmp_path):
    rng = np.random.Generator(np.random.PCG64(1010))
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words = [f"w{i}_" + "".join(rng.choice(letters, size=4)) for i in range(1000)]
    vectors = {w: rng.normal(0, 2, 50) for w in words}

    bit_identical = True
    for fmt, fname in ((GLOVE_TEXT, "rt_glove.txt"), (WORD2VEC_TEXT, "rt_w2v.txt")):
        path = tmp_path / fname
        write_embedding_file(make_table(vectors, fmt), path)
        back = parse_embedding_file(path)
        bit_identical &= back.source_format == fmt and list(back.index) == words
        bit_identical &= all(
            np.array_equal(back.lookup(w), vectors[w], equal_nan=False)
            and back.lookup(w).dtype == np.float64
            for w in words
        )

    malformed = {
        "dimension drift": "a 1.0 2.0\nb 1.0 2.0 3.0\n",
        "bad float": "a 1.0 2.0\nb 1.0 oops\n",
        "wrong header count": "3 2\na 1.0 2.0\nb 3.0 4.0\n",
    }
    located = True
    for label, body in malformed.items():
        bad = tmp_path / "bad.txt"
        bad.write_text(body, encoding="utf-8")
        try:
            parse_embedding_file(bad)
            located = False
        except EmbeddingFormatError as exc:
            located &= ("line" in str(exc)) or ("declares" in str(exc))
    announce(10, "embedding_round_trip", bit_identical and located,
             "1000-word tables bit-identical in both formats; malformed files located")
