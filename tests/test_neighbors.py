"""kNN prediction in query chunks: scores equal the unchunked stable sort,
ties included, and memory does not grow with the query count."""

import tracemalloc

import numpy as np

from capsift.classifiers import KNN, AlgorithmSpec, train
from capsift.classifiers.neighbors import CHUNK_ROWS, _squared_distances


def test_knn_chunk_boundary_between_tied_queries():
    # training points on a coarse grid tie in distance; the queries on both
    # sides of the first chunk boundary are the same point, so their
    # neighbor lists must come out the same whichever chunk they fall in
    rng = np.random.Generator(np.random.PCG64(3))
    X = np.round(rng.normal(0, 1, (400, 3)))
    y = rng.integers(0, 3, 400)
    Q = np.round(rng.normal(0, 1, (CHUNK_ROWS + 40, 3)))
    Q[CHUNK_ROWS - 2:CHUNK_ROWS + 2] = Q[CHUNK_ROWS - 2]
    for k in (1, 5, 17, 399, 400):
        model = train(AlgorithmSpec(KNN, {"k": k}), X, y)
        Z = model.scaler.transform(Q)
        d2 = _squared_distances(Z, model.points)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        votes = model.point_codes[nearest]
        want = np.stack([(votes == c).sum(axis=1) for c in range(3)], axis=1) / k
        scores = model.predict_scores(Q)
        assert np.array_equal(scores, want)
        assert (scores[CHUNK_ROWS - 2:CHUNK_ROWS + 2] == scores[CHUNK_ROWS - 2]).all()


def test_knn_prediction_memory_does_not_grow_with_queries():
    # the full n_test x n_train distance matrix and its argsort peaked at
    # about 92 MB for 1,000 queries here, and about twice that for 2,000
    rng = np.random.Generator(np.random.PCG64(12))
    model = train(AlgorithmSpec(KNN), rng.normal(0, 1, (6000, 100)), rng.integers(0, 3, 6000))
    peaks = []
    for n_queries in (1000, 2000):
        Q = rng.normal(0, 1, (n_queries, 100))
        tracemalloc.start()
        try:
            model.predict_scores(Q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[0] < 64 * 2**20
    assert peaks[1] < 1.1 * peaks[0]
