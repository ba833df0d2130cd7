"""Linear classifiers trained by (sub)gradient descent: multinomial logistic
regression and a one-vs-rest hinge-loss SVM."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import AlgorithmSpec, TrainedModel, softmax, standardize_fit

_MIN_STEP = 1e-12


def cross_entropy_loss_and_grad(weights, bias, XT, targets, l2):
    """Mean softmax cross-entropy with an 0.5 * l2 * ||W||^2 penalty, on
    class-major arrays: ``XT`` is the (d, n) transposed design matrix and
    ``targets`` the (K, n) one-hot labels.

    Returns (loss, grad_weights, grad_bias). The bias is not penalized.
    """
    n = XT.shape[1]
    # reductions run over axis 0, the short class axis, so each is one pass
    # over contiguous rows instead of a strided pass per sample
    logits = weights @ XT + bias[:, None]
    shifted = logits - logits.max(axis=0)
    exp = np.exp(shifted)
    log_probs = shifted - np.log(exp.sum(axis=0))
    probs = np.exp(log_probs)
    loss = -float((targets * log_probs).sum()) / n + 0.5 * l2 * float((weights ** 2).sum())
    delta = probs - targets
    grad_w = delta @ XT.T / n + l2 * weights
    grad_b = delta.mean(axis=1)
    return loss, grad_w, grad_b


@dataclass(frozen=True, eq=False)
class LogisticRegressionModel(TrainedModel):
    """Multinomial softmax classifier; scores are class probabilities.
    ``loss_history`` is the training loss per accepted step."""

    weights: np.ndarray
    bias: np.ndarray
    loss_history: np.ndarray

    def _scores(self, Z: np.ndarray) -> np.ndarray:
        return softmax(Z @ self.weights.T + self.bias)


def _train_logistic_regression(spec: AlgorithmSpec, X, y_codes, classes):
    """Full-batch gradient descent from zero weights, halving the step
    whenever a proposed update would increase the loss (so the recorded loss
    history is non-increasing). The final iterate is returned regardless of
    convergence."""
    params = spec.resolved()
    lr = params["learning_rate"]
    l2 = params["l2"]
    iterations = params["iterations"]
    scaler = standardize_fit(X)
    Z = scaler.transform(X)
    d = Z.shape[1]
    k = len(classes)
    targets = (np.arange(k)[:, None] == y_codes).astype(float)
    ZT = np.ascontiguousarray(Z.T)

    W = np.zeros((k, d))
    b = np.zeros(k)
    loss, gw, gb = cross_entropy_loss_and_grad(W, b, ZT, targets, l2)
    history = [loss]
    for _ in range(iterations):
        while True:
            W_new = W - lr * gw
            b_new = b - lr * gb
            loss_new, gw_new, gb_new = cross_entropy_loss_and_grad(W_new, b_new, ZT, targets, l2)
            if loss_new <= loss:
                break
            if lr <= _MIN_STEP:
                loss_new = None
                break
            lr /= 2.0
        if loss_new is None:
            break
        W, b, loss, gw, gb = W_new, b_new, loss_new, gw_new, gb_new
        history.append(loss)
    return LogisticRegressionModel(spec, classes, scaler, d, W, b, np.array(history))


@dataclass(frozen=True, eq=False)
class LinearSvmModel(TrainedModel):
    """One hinge-loss linear model per class; scores are the raw margins."""

    weights: np.ndarray
    bias: np.ndarray

    def _scores(self, Z: np.ndarray) -> np.ndarray:
        return Z @ self.weights.T + self.bias


def _train_linear_svm(spec: AlgorithmSpec, X, y_codes, classes):
    """Subgradient descent on 0.5*||w||^2 + c * mean(hinge), one binary
    one-vs-rest problem per class, all K trained together: row r of the
    (K, n) target matrix ``T`` is +1 on class r and -1 elsewhere."""
    params = spec.resolved()
    lr = params["learning_rate"]
    c = params["c"]
    iterations = params["iterations"]
    scaler = standardize_fit(X)
    Z = scaler.transform(X)
    n, d = Z.shape
    k = len(classes)
    T = np.where(np.arange(k)[:, None] == y_codes, 1.0, -1.0)
    # W @ ZT on a contiguous Z^T takes about half the time of Z @ W.T
    ZT = np.ascontiguousarray(Z.T)
    W = np.zeros((k, d))
    b = np.zeros(k)
    for _ in range(iterations):
        # the targets of the margin violators, zero elsewhere
        TV = T * (T * (W @ ZT + b[:, None]) < 1.0)
        grad_w = W - (c / n) * (TV @ Z)
        grad_b = -(c / n) * TV.sum(axis=1)
        W = W - lr * grad_w
        b = b - lr * grad_b
    return LinearSvmModel(spec, classes, scaler, d, W, b)
