#!/usr/bin/env python3
"""Write one small saved model per algorithm into this directory.

The files pin the model file format: tests load each one and compare it with
a model freshly trained on ``training_data()`` with ``SPECS``. Deterministic;
rerun only when the format is meant to change:

    PYTHONPATH=src python tests/fixtures/models/generate_models.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from capsift.classifiers import ALGORITHMS, AlgorithmSpec, save_model, train

HERE = Path(__file__).resolve().parent
SPECS = {
    algo: AlgorithmSpec(algo, {"trees": 3} if algo == "random_forest" else {}, seed=11)
    for algo in ALGORITHMS
}


def training_data() -> tuple[np.ndarray, np.ndarray]:
    """Three separated 3-D blobs of 6 rows each, labels -1, 0, 1."""
    rng = np.random.Generator(np.random.PCG64(5))
    X = np.vstack([rng.normal(0.0, 1.0, (6, 3)) + 4.0 * np.eye(3)[i] for i in range(3)])
    y = np.repeat([-1, 0, 1], 6)
    return X, y


def main() -> None:
    X, y = training_data()
    for algo, spec in SPECS.items():
        save_model(train(spec, X, y), HERE / f"{algo}.model")


if __name__ == "__main__":
    main()
