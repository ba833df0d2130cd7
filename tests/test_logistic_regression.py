"""Logistic regression: training on class-major (K, n) arrays matches a
sample-major (n, K) reference, up to the order of floating-point sums."""

import numpy as np
import pytest

from capsift.classifiers import LOGISTIC_REGRESSION, AlgorithmSpec, standardize_fit, train

_MIN_STEP = 1e-12

# --- reference: the loss and trainer on sample-major arrays -------------------


def reference_loss_and_grad(weights, bias, X, onehot, l2):
    """Mean softmax cross-entropy plus 0.5 * l2 * ||W||^2 on an (n, d) design
    matrix and (n, K) one-hot labels; returns (loss, grad_w, grad_b)."""
    n = X.shape[0]
    logits = X @ weights.T + bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
    probs = np.exp(log_probs)
    loss = -float((onehot * log_probs).sum()) / n + 0.5 * l2 * float((weights ** 2).sum())
    delta = probs - onehot
    grad_w = delta.T @ X / n + l2 * weights
    grad_b = delta.mean(axis=0)
    return loss, grad_w, grad_b


def reference_logistic_regression(X, y_codes, n_classes, learning_rate=0.1, l2=1e-4, iterations=500):
    """(W, b, loss history, step halvings) of full-batch gradient descent with
    the step halved whenever the loss would rise."""
    Z = standardize_fit(X).transform(X)
    n, d = Z.shape
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y_codes] = 1.0
    W = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    loss, gw, gb = reference_loss_and_grad(W, b, Z, onehot, l2)
    history = [loss]
    lr = learning_rate
    halvings = 0
    for _ in range(iterations):
        while True:
            W_new = W - lr * gw
            b_new = b - lr * gb
            loss_new, gw_new, gb_new = reference_loss_and_grad(W_new, b_new, Z, onehot, l2)
            if loss_new <= loss:
                break
            if lr <= _MIN_STEP:
                loss_new = None
                break
            lr /= 2.0
            halvings += 1
        if loss_new is None:
            break
        W, b, loss, gw, gb = W_new, b_new, loss_new, gw_new, gb_new
        history.append(loss)
    return W, b, np.array(history), halvings


def skewed_blobs(n_classes, n_rows, d, seed):
    """About ``n_rows`` rows of overlapping Gaussian clouds; the last class
    has a twentieth of them and the others share the rest equally."""
    rng = np.random.Generator(np.random.PCG64(seed))
    small = n_rows // 20
    big = (n_rows - small) // (n_classes - 1)
    codes = np.repeat(np.arange(n_classes), [big] * (n_classes - 1) + [small])
    X = rng.normal(0, 1, (len(codes), d)) + 1.5 * np.eye(n_classes, d)[codes]
    return X, codes, rng


def assert_matches_reference(X, codes, n_classes, rng, params=None):
    params = params or {}
    model = train(AlgorithmSpec(LOGISTIC_REGRESSION, params), X, 3 * codes - 2)
    W, b, history, halvings = reference_logistic_regression(X, codes, n_classes, **params)
    scale = max(np.abs(W).max(), np.abs(b).max())
    assert np.abs(model.weights - W).max() <= 1e-9 * scale
    assert np.abs(model.bias - b).max() <= 1e-9 * scale
    assert len(model.loss_history) == len(history)
    np.testing.assert_allclose(model.loss_history, history, rtol=1e-12, atol=0)
    Q = rng.normal(0, 1.5, (300, X.shape[1]))
    Zq = model.scaler.transform(Q)
    want = model.classes[np.argmax(Zq @ W.T + b, axis=1)]
    assert np.array_equal(model.predict(Q), want)
    return halvings


@pytest.mark.parametrize("n_classes", [2, 3, 9])
@pytest.mark.parametrize("n_rows", [300, 2400])
def test_class_major_training_matches_sample_major_reference(n_classes, n_rows):
    X, codes, rng = skewed_blobs(n_classes, n_rows, 12, seed=70 + n_classes + n_rows)
    assert_matches_reference(X, codes, n_classes, rng)


@pytest.mark.parametrize("n_classes", [2, 3, 9])
def test_step_halvings_match_reference(n_classes):
    X, codes, rng = skewed_blobs(n_classes, 300, 10, seed=90 + n_classes)
    # too large a step for every K, so the first steps are halved and, for
    # K = 2, the step is halved again at iteration 25 after the loss rose.
    # A step that stays unstable for many iterations (K = 2 at 50.0 runs 70
    # of them before halving) grows the roundoff of either summation order
    # tenfold every few iterations, so the histories then part by ~1e-10
    # relative although both halve at the same iterations.
    params = {"learning_rate": 40.0, "l2": 1e-3, "iterations": 120}
    halvings = assert_matches_reference(X, codes, n_classes, rng, params)
    assert halvings > 0
