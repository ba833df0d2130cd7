"""Classifier suite: seven algorithms behind one train/predict interface.

``MODELS`` names every algorithm with its trainer; ``train`` dispatches
through it. Each fitted model is a frozen dataclass whose own fields are its
fitted state.
"""

from typing import Callable

import numpy as np

from .base import (
    ALGORITHMS, DEFAULT_HYPERPARAMS, DUMMY, GAUSSIAN_NB, KNN, LINEAR_SVM, LOGISTIC_REGRESSION,
    NEAREST_CENTROID, RANDOM_FOREST, AlgorithmSpec, DummyMostFrequentModel, Scaler, TrainedModel,
    _train_dummy, standardize_fit,
)
from .bayes import GaussianNbModel, _train_gaussian_nb
from .forest import DecisionTree, RandomForestModel, _train_random_forest
from .linear import (
    LinearSvmModel, LogisticRegressionModel, _train_linear_svm, _train_logistic_regression,
    cross_entropy_loss_and_grad,
)
from .neighbors import KnnModel, NearestCentroidModel, _train_knn, _train_nearest_centroid

# algorithm -> trainer(spec, X, y_codes, classes)
MODELS: dict[str, Callable[..., TrainedModel]] = {
    KNN: _train_knn,
    NEAREST_CENTROID: _train_nearest_centroid,
    LOGISTIC_REGRESSION: _train_logistic_regression,
    LINEAR_SVM: _train_linear_svm,
    GAUSSIAN_NB: _train_gaussian_nb,
    RANDOM_FOREST: _train_random_forest,
    DUMMY: _train_dummy,
}


def train(spec: AlgorithmSpec, features, labels) -> TrainedModel:
    """Fit the algorithm named by the spec on (features, labels).

    Non-convergence of the gradient-trained models is not an error; the final
    iterate after the fixed iteration budget is returned.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2:
        raise ValueError("features must be an N x D matrix")
    if y.shape != (X.shape[0],):
        raise ValueError("labels length must match feature rows")
    if not np.all(np.isfinite(X)):
        raise ValueError("features contain non-finite values")
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError("training requires at least two classes")
    return MODELS[spec.algorithm](spec, X, np.searchsorted(classes, y), classes)


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
