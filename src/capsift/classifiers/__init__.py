"""Classifier suite: seven algorithms behind one train/predict interface.

``MODELS`` names every algorithm with its trainer, whose keyword-only
arguments are the algorithm's hyperparameters; ``train`` dispatches through
it. Each fitted model is a frozen dataclass whose own fields are its fitted
state.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from numbers import Real
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .base import DummyMostFrequentModel, Scaler, TrainedModel, _train_dummy, standardize_fit
from .bayes import GaussianNbModel, _train_gaussian_nb
from .forest import DecisionTree, RandomForestModel, _train_random_forest
from .linear import (
    LinearSvmModel, LogisticRegressionModel, _train_linear_svm, _train_logistic_regression,
    cross_entropy_loss_and_grad,
)
from .neighbors import KnnModel, NearestCentroidModel, _train_knn, _train_nearest_centroid

KNN = "knn"
NEAREST_CENTROID = "nearest_centroid"
LOGISTIC_REGRESSION = "logistic_regression"
LINEAR_SVM = "linear_svm"
GAUSSIAN_NB = "gaussian_nb"
RANDOM_FOREST = "random_forest"
DUMMY = "dummy_most_frequent"

# algorithm -> trainer(spec, X, y_codes, classes, *, hyperparameters)
MODELS: dict[str, Callable[..., TrainedModel]] = {
    KNN: _train_knn,
    NEAREST_CENTROID: _train_nearest_centroid,
    LOGISTIC_REGRESSION: _train_logistic_regression,
    LINEAR_SVM: _train_linear_svm,
    GAUSSIAN_NB: _train_gaussian_nb,
    RANDOM_FOREST: _train_random_forest,
    DUMMY: _train_dummy,
}
ALGORITHMS = tuple(MODELS)

# algorithm -> {hyperparameter: default}, read from each trainer's signature
DEFAULT_HYPERPARAMS: dict[str, dict[str, float | int]] = {
    algo: {p.name: p.default for p in inspect.signature(trainer).parameters.values()
           if p.kind is p.KEYWORD_ONLY}
    for algo, trainer in MODELS.items()
}

# (minimum, strict) per hyperparameter; one is integral when its default is an int
_HYPERPARAM_RULES: dict[str, tuple[float, bool]] = {
    "k": (1, False),
    "standardize": (0, False),
    "learning_rate": (0, True),
    "l2": (0, False),
    "iterations": (1, False),
    "c": (0, True),
    "var_smoothing": (0, True),
    "trees": (1, False),
    "max_depth": (1, False),
    "min_leaf": (1, False),
    "bootstrap": (0, False),
}
_FLAGS = ("standardize", "bootstrap")


@dataclass(frozen=True)
class AlgorithmSpec:
    """Algorithm choice, its hyperparameters and the training seed.

    ``hyperparams`` is the full, read-only set: the trainer's defaults with
    the given overrides checked and laid over them. Values are stored as
    ``int`` where the default is an ``int`` and as ``float`` otherwise, so
    equal values give equal specs (``k = 5.0`` is ``k = 5``, the default)."""

    algorithm: str
    hyperparams: Mapping[str, float | int] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in MODELS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if not isinstance(self.hyperparams, Mapping):
            raise ValueError(f"{self.algorithm} hyperparams must be a mapping, "
                             f"got {self.hyperparams!r}")
        typed = dict(DEFAULT_HYPERPARAMS[self.algorithm])
        for key, value in self.hyperparams.items():
            if key not in typed:
                raise ValueError(f"{self.algorithm} has no hyperparameter {key!r}")
            minimum, strict = _HYPERPARAM_RULES[key]
            integral = isinstance(DEFAULT_HYPERPARAMS[self.algorithm][key], int)
            if not isinstance(value, Real):
                raise ValueError(f"{self.algorithm}.{key} must be a number, got {value!r}")
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

    # a mappingproxy neither hashes nor pickles, so both go through its items
    def __hash__(self) -> int:
        return hash((self.algorithm, tuple(sorted(self.hyperparams.items())), self.seed))

    def __reduce__(self):
        return AlgorithmSpec, (self.algorithm, dict(self.hyperparams), self.seed)


def train(spec: AlgorithmSpec, features, labels) -> TrainedModel:
    """Fit the algorithm named by the spec on (features, labels).

    Labels must be integers; integral floats and bools count as their ints.
    Non-convergence of the gradient-trained models is not an error; the final
    iterate after the fixed iteration budget is returned.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2:
        raise ValueError("features must be an N x D matrix")
    if y.shape != (X.shape[0],):
        raise ValueError("labels length must match feature rows")
    if not np.array_equal(y, labels):
        raise ValueError("labels must be integers")
    if not np.all(np.isfinite(X)):
        raise ValueError("features contain non-finite values")
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError("training requires at least two classes")
    return MODELS[spec.algorithm](spec, X, np.searchsorted(classes, y), classes, **spec.hyperparams)


__all__ = [
    "ALGORITHMS",
    "DEFAULT_HYPERPARAMS",
    "MODELS",
    "KNN",
    "NEAREST_CENTROID",
    "LOGISTIC_REGRESSION",
    "LINEAR_SVM",
    "GAUSSIAN_NB",
    "RANDOM_FOREST",
    "DUMMY",
    "AlgorithmSpec",
    "Scaler",
    "TrainedModel",
    "DummyMostFrequentModel",
    "KnnModel",
    "NearestCentroidModel",
    "LogisticRegressionModel",
    "LinearSvmModel",
    "GaussianNbModel",
    "RandomForestModel",
    "DecisionTree",
    "cross_entropy_loss_and_grad",
    "train",
    "standardize_fit",
]
