"""Classifier suite: seven algorithms behind one train/predict interface.

Importing this package registers every algorithm, so ``train`` accepts any
name in ``ALGORITHMS``.
"""

from .base import (
    ALGORITHMS,
    DEFAULT_HYPERPARAMS,
    DUMMY,
    GAUSSIAN_NB,
    KNN,
    LINEAR_SVM,
    LOGISTIC_REGRESSION,
    NEAREST_CENTROID,
    RANDOM_FOREST,
    AlgorithmSpec,
    DummyMostFrequentModel,
    Scaler,
    TrainedModel,
    standardize_fit,
    train,
)
from .bayes import GaussianNbModel
from .forest import DecisionTree, RandomForestModel
from .linear import LinearSvmModel, LogisticRegressionModel, cross_entropy_loss_and_grad
from .neighbors import KnnModel, NearestCentroidModel
from .serialize import ModelFormatError, load_model, save_model

__all__ = [
    "ALGORITHMS",
    "DEFAULT_HYPERPARAMS",
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
    "ModelFormatError",
    "cross_entropy_loss_and_grad",
    "train",
    "standardize_fit",
    "save_model",
    "load_model",
]
