"""Gaussian naive Bayes with variance smoothing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import AlgorithmSpec, TrainedModel, softmax


@dataclass(frozen=True, eq=False)
class GaussianNbModel(TrainedModel):
    """Per-class feature means/variances and log-priors; scores are the
    normalized posterior probabilities."""

    means: np.ndarray
    variances: np.ndarray
    log_priors: np.ndarray

    def _scores(self, Z: np.ndarray) -> np.ndarray:
        k = len(self.classes)
        loglik = np.empty((Z.shape[0], k))
        for c in range(k):
            var = self.variances[c]
            diff = Z - self.means[c]
            loglik[:, c] = self.log_priors[c] - 0.5 * (
                np.log(2.0 * np.pi * var) + diff ** 2 / var
            ).sum(axis=1)
        return softmax(loglik)


def _train_gaussian_nb(spec: AlgorithmSpec, X, y_codes, classes):
    params = spec.resolved()
    smoothing = params["var_smoothing"]
    n, d = X.shape
    k = len(classes)
    # smoothing is relative to the largest overall feature variance; fall
    # back to the raw value when all features are constant
    max_var = float(X.var(axis=0).max())
    eps = smoothing * max_var if max_var > 0 else smoothing
    means = np.empty((k, d))
    variances = np.empty((k, d))
    log_priors = np.empty(k)
    for c in range(k):
        rows = X[y_codes == c]
        means[c] = rows.mean(axis=0)
        variances[c] = rows.var(axis=0) + eps
        log_priors[c] = np.log(len(rows) / n)
    return GaussianNbModel(spec, classes, None, d, means, variances, log_priors)
