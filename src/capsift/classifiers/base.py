"""Shared classifier machinery: algorithm specs, standardization, the
fitted-model base class, and the no-skill baseline.

Every fitted model is a frozen dataclass exposing ``predict`` and
``predict_scores``. Scores are per-class confidence values whose row-wise
argmax always equals ``predict`` (ties break toward the lower class label).
Models are immutable after training and safe for concurrent prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

KNN = "knn"
NEAREST_CENTROID = "nearest_centroid"
LOGISTIC_REGRESSION = "logistic_regression"
LINEAR_SVM = "linear_svm"
GAUSSIAN_NB = "gaussian_nb"
RANDOM_FOREST = "random_forest"
DUMMY = "dummy_most_frequent"

ALGORITHMS = (
    KNN, NEAREST_CENTROID, LOGISTIC_REGRESSION, LINEAR_SVM,
    GAUSSIAN_NB, RANDOM_FOREST, DUMMY,
)

DEFAULT_HYPERPARAMS: dict[str, dict[str, float | int]] = {
    KNN: {"k": 5},
    NEAREST_CENTROID: {"standardize": 0},
    LOGISTIC_REGRESSION: {"learning_rate": 0.1, "l2": 1e-4, "iterations": 500},
    LINEAR_SVM: {"learning_rate": 0.01, "c": 1.0, "iterations": 500},
    GAUSSIAN_NB: {"var_smoothing": 1e-9},
    RANDOM_FOREST: {"trees": 100, "max_depth": 12, "min_leaf": 2, "bootstrap": 1},
    DUMMY: {},
}

# (minimum, strict, integral) per hyperparameter.
_HYPERPARAM_RULES: dict[str, tuple[float, bool, bool]] = {
    "k": (1, False, True),
    "standardize": (0, False, True),
    "learning_rate": (0, True, False),
    "l2": (0, False, False),
    "iterations": (1, False, True),
    "c": (0, True, False),
    "var_smoothing": (0, True, False),
    "trees": (1, False, True),
    "max_depth": (1, False, True),
    "min_leaf": (1, False, True),
    "bootstrap": (0, False, True),
}
_FLAGS = ("standardize", "bootstrap")


@dataclass(frozen=True)
class AlgorithmSpec:
    """Algorithm choice plus hyperparameter overrides and the training seed.

    Overrides are stored as ``int`` where the hyperparameter is integral and
    as ``float`` otherwise, so equal values give equal specs (``k = 5.0`` is
    ``k = 5``)."""

    algorithm: str
    hyperparams: Mapping[str, float | int] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        defaults = DEFAULT_HYPERPARAMS[self.algorithm]
        typed: dict[str, float | int] = {}
        for key, value in self.hyperparams.items():
            if key not in defaults:
                raise ValueError(f"{self.algorithm} has no hyperparameter {key!r}")
            minimum, strict, integral = _HYPERPARAM_RULES[key]
            if not math.isfinite(value):
                raise ValueError(f"{self.algorithm}.{key} must be finite, got {value!r}")
            if integral and int(value) != value:
                raise ValueError(f"{self.algorithm}.{key} must be an integer, got {value!r}")
            if key in _FLAGS and value not in (0, 1):
                raise ValueError(f"{self.algorithm}.{key} must be 0 or 1, got {value!r}")
            if (value <= minimum) if strict else (value < minimum):
                op = ">" if strict else ">="
                raise ValueError(f"{self.algorithm}.{key} must be {op} {minimum}, got {value!r}")
            typed[key] = int(value) if integral else float(value)
        object.__setattr__(self, "hyperparams", MappingProxyType(typed))

    def resolved(self) -> dict[str, float | int]:
        """Defaults merged with overrides."""
        merged = dict(DEFAULT_HYPERPARAMS[self.algorithm])
        merged.update(self.hyperparams)
        return merged


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
