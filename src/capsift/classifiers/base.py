"""Shared fitted-model machinery: standardization, the fitted-model base
class, and the no-skill baseline.

Every fitted model is a frozen dataclass exposing ``predict`` and
``predict_scores``. Scores are per-class confidence values whose row-wise
argmax always equals ``predict`` (ties break toward the lower class label).
Models are immutable after training and safe for concurrent prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from . import AlgorithmSpec


@dataclass(frozen=True)
class Scaler:
    """Per-feature (mean, std) standardization fitted on training data."""

    mean: np.ndarray
    std: np.ndarray

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (features - self.mean) / self.std


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by the row maximum for stability."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def standardize_fit(features: np.ndarray) -> Scaler:
    """Fit per-feature mean and population std; zero stds become 1 so
    constant features pass through unchanged."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("features must be a nonempty N x D matrix")
    if not np.all(np.isfinite(X)):
        raise ValueError("features contain non-finite values")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return Scaler(mean=mean, std=std)


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Base for all fitted classifiers.

    A subclass adds its fitted state as dataclass fields and implements
    ``_scores`` on (scaled) features.
    """

    spec: AlgorithmSpec
    classes: np.ndarray
    scaler: Scaler | None
    n_features: int

    @property
    def algorithm(self) -> str:
        return self.spec.algorithm

    def _prepare(self, features) -> np.ndarray:
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"feature dimension mismatch: got {X.shape}, model expects (*, {self.n_features})"
            )
        if self.scaler is not None:
            X = self.scaler.transform(X)
        return X

    def predict_scores(self, features) -> np.ndarray:
        """Per-class confidence scores, one row per input (higher = more
        confident); row argmax equals predict."""
        return self._scores(self._prepare(features))

    def predict(self, features) -> np.ndarray:
        scores = self.predict_scores(features)
        return self.classes[np.argmax(scores, axis=1)]

    def _scores(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class DummyMostFrequentModel(TrainedModel):
    """No-skill baseline that always predicts the modal training label."""

    modal_index: int

    def _scores(self, Z: np.ndarray) -> np.ndarray:
        scores = np.zeros((Z.shape[0], len(self.classes)))
        scores[:, self.modal_index] = 1.0
        return scores


def _train_dummy(spec: AlgorithmSpec, X, y_codes, classes) -> DummyMostFrequentModel:
    counts = np.bincount(y_codes, minlength=len(classes))
    return DummyMostFrequentModel(spec, classes, None, X.shape[1], int(np.argmax(counts)))
