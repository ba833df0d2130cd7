"""Linear SVM: the one-pass training of every one-vs-rest problem matches a
per-class subgradient reference, up to the order in which zero terms are
added."""

import numpy as np
import pytest

from capsift.classifiers import LINEAR_SVM, AlgorithmSpec, standardize_fit, train

# --- reference: one subgradient loop per class, over the violating rows ------


def reference_linear_svm(X, y_codes, n_classes, lr=0.01, c=1.0, iterations=500):
    """(W, b) trained one class at a time, gathering the margin violators
    ``Z[viol]`` at every step."""
    Z = standardize_fit(X).transform(X)
    n, d = Z.shape
    W = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    for cls_idx in range(n_classes):
        t = np.where(y_codes == cls_idx, 1.0, -1.0)
        w = np.zeros(d)
        w0 = 0.0
        for _ in range(iterations):
            margins = t * (Z @ w + w0)
            viol = margins < 1.0
            grad_w = w - (c / n) * (t[viol] @ Z[viol])
            grad_b = -(c / n) * t[viol].sum()
            w = w - lr * grad_w
            w0 = w0 - lr * grad_b
        W[cls_idx] = w
        b[cls_idx] = w0
    return W, b


@pytest.mark.parametrize("n_classes", [2, 3, 9])
def test_one_pass_matches_per_class_reference(n_classes):
    rng = np.random.Generator(np.random.PCG64(40 + n_classes))
    # one class much smaller than the others, and overlapping clouds, so
    # the set of margin violators keeps changing across iterations
    codes = np.repeat(np.arange(n_classes), [60] * (n_classes - 1) + [7])
    X = rng.normal(0, 1, (len(codes), 12)) + 1.5 * np.eye(n_classes, 12)[codes]
    model = train(AlgorithmSpec(LINEAR_SVM), X, 3 * codes - 2)
    W, b = reference_linear_svm(X, codes, n_classes)
    scale = max(np.abs(W).max(), np.abs(b).max())
    assert np.abs(model.weights - W).max() <= 1e-9 * scale
    assert np.abs(model.bias - b).max() <= 1e-9 * scale
    Q = rng.normal(0, 1.5, (200, 12))
    Zq = model.scaler.transform(Q)
    want = model.classes[np.argmax(Zq @ W.T + b, axis=1)]
    assert np.array_equal(model.predict(Q), want)


def test_hyperparameters_reach_the_one_pass_loop():
    rng = np.random.Generator(np.random.PCG64(7))
    X = rng.normal(0, 1, (50, 4))
    y = np.repeat([0, 1, 2], [20, 20, 10])
    params = {"learning_rate": 0.05, "c": 3.0, "iterations": 40}
    model = train(AlgorithmSpec(LINEAR_SVM, params), X, y)
    W, b = reference_linear_svm(X, y, 3, lr=0.05, c=3.0, iterations=40)
    np.testing.assert_allclose(model.weights, W, rtol=0, atol=1e-12)
    np.testing.assert_allclose(model.bias, b, rtol=0, atol=1e-12)
