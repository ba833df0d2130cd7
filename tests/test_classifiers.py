"""Classifier suite: training, prediction invariants, persistence."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from capsift.classifiers import (
    ALGORITHMS,
    DEFAULT_HYPERPARAMS,
    DUMMY,
    GAUSSIAN_NB,
    KNN,
    LINEAR_SVM,
    LOGISTIC_REGRESSION,
    MODELS,
    NEAREST_CENTROID,
    RANDOM_FOREST,
    AlgorithmSpec,
    ModelFormatError,
    cross_entropy_loss_and_grad,
    load_model,
    save_model,
    standardize_fit,
    train,
)


def blobs(seed=0, per_class=40, dim=4, sep=6.0, labels=(-1, 0, 1)):
    rng = np.random.Generator(np.random.PCG64(seed))
    means = np.zeros((len(labels), dim))
    for i in range(len(labels)):
        means[i, i % dim] = sep
    X = np.vstack([rng.normal(0, 1, (per_class, dim)) + m for m in means])
    y = np.repeat(labels, per_class)
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


# --- AlgorithmSpec validation -------------------------------------------------


def test_spec_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown algorithm"):
        AlgorithmSpec("boosted_trees")


def test_spec_rejects_unknown_and_invalid_hyperparams():
    with pytest.raises(ValueError, match="no hyperparameter"):
        AlgorithmSpec(KNN, {"neighbors": 3})
    with pytest.raises(ValueError, match="k must be"):
        AlgorithmSpec(KNN, {"k": 0})
    with pytest.raises(ValueError, match="integer"):
        AlgorithmSpec(KNN, {"k": 2.5})
    with pytest.raises(ValueError, match="learning_rate"):
        AlgorithmSpec(LOGISTIC_REGRESSION, {"learning_rate": 0.0})
    with pytest.raises(ValueError, match="var_smoothing"):
        AlgorithmSpec(GAUSSIAN_NB, {"var_smoothing": -1e-9})


def test_spec_defaults_cover_every_algorithm():
    assert set(DEFAULT_HYPERPARAMS) == set(ALGORITHMS)
    assert set(MODELS) == set(ALGORITHMS)
    spec = AlgorithmSpec(RANDOM_FOREST, {"trees": 10})
    resolved = spec.resolved()
    assert resolved["trees"] == 10
    assert resolved["max_depth"] == DEFAULT_HYPERPARAMS[RANDOM_FOREST]["max_depth"]


def test_spec_hyperparams_immutable():
    spec = AlgorithmSpec(KNN, {"k": 3})
    with pytest.raises(TypeError):
        spec.hyperparams["k"] = 9


# --- train/predict common behavior -------------------------------------------


def test_train_requires_two_classes():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError, match="two classes"):
        train(AlgorithmSpec(KNN), X, [1, 1, 1, 1])


def test_train_rejects_nonfinite_features():
    X = np.array([[0.0, np.nan], [1.0, 2.0]])
    with pytest.raises(ValueError, match="finite"):
        train(AlgorithmSpec(GAUSSIAN_NB), X, [0, 1])


def test_predict_rejects_wrong_dimension():
    X, y = blobs()
    model = train(AlgorithmSpec(KNN), X, y)
    with pytest.raises(ValueError, match="dimension"):
        model.predict(np.zeros((3, X.shape[1] + 1)))


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_scores_argmax_equals_predict(algo):
    X, y = blobs(seed=1)
    model = train(AlgorithmSpec(algo, seed=5), X, y)
    rng = np.random.Generator(np.random.PCG64(2))
    Q = rng.normal(0, 4, (60, X.shape[1]))
    scores = model.predict_scores(Q)
    assert scores.shape == (60, 3)
    assert np.array_equal(model.classes[np.argmax(scores, axis=1)], model.predict(Q))
    assert np.array_equal(model.classes, np.sort(np.unique(y)))


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_same_seed_same_model(algo):
    X, y = blobs(seed=3)
    Q = np.random.Generator(np.random.PCG64(4)).normal(0, 3, (40, X.shape[1]))
    a = train(AlgorithmSpec(algo, seed=9), X, y)
    b = train(AlgorithmSpec(algo, seed=9), X, y)
    assert np.array_equal(a.predict_scores(Q), b.predict_scores(Q))


# --- per-algorithm behavior ---------------------------------------------------


def test_knn_hand_votes():
    X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = train(AlgorithmSpec(KNN, {"k": 3}), X, y)
    scores = model.predict_scores(np.array([[1.0], [11.0], [6.0]]))
    assert scores[0].tolist() == [1.0, 0.0]
    assert scores[1].tolist() == [0.0, 1.0]
    assert scores[2].tolist() == [2.0 / 3.0, 1.0 / 3.0]  # neighbors 2,10,11


def test_knn_tie_predicts_lower_class():
    X = np.array([[0.0], [1.0]])
    y = np.array([3, 7])
    model = train(AlgorithmSpec(KNN, {"k": 2}), X, y)
    assert model.predict(np.array([[0.5], [100.0]])).tolist() == [3, 3]


def test_knn_clamps_k_to_dataset():
    X = np.array([[0.0], [1.0], [5.0]])
    y = np.array([0, 0, 1])
    model = train(AlgorithmSpec(KNN, {"k": 50}), X, y)
    scores = model.predict_scores(np.array([[0.2]]))
    assert scores[0].tolist() == [2.0 / 3.0, 1.0 / 3.0]


def test_knn_scale_invariant_via_standardization():
    X, y = blobs(seed=6)
    Q = np.random.Generator(np.random.PCG64(7)).normal(0, 3, (30, X.shape[1]))
    a = train(AlgorithmSpec(KNN), X, y)
    b = train(AlgorithmSpec(KNN), X * 1000.0, y)
    assert np.array_equal(a.predict(Q), b.predict(Q * 1000.0))


def test_nearest_centroid_prediction_and_scores():
    X = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0], [12.0, 0.0]])
    y = np.array([0, 0, 1, 1])
    model = train(AlgorithmSpec(NEAREST_CENTROID), X, y)
    pred = model.predict(np.array([[1.0, 0.0], [11.0, 0.0]]))
    assert pred.tolist() == [0, 1]
    scores = model.predict_scores(np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(scores.sum(axis=1), 1.0)  # softmax rows
    assert scores[0, 0] > scores[0, 1]


def test_nearest_centroid_optional_standardize():
    X, y = blobs(seed=8)
    plain = train(AlgorithmSpec(NEAREST_CENTROID), X, y)
    scaled = train(AlgorithmSpec(NEAREST_CENTROID, {"standardize": 1}), X, y)
    assert plain.scaler is None
    assert scaled.scaler is not None


def test_logreg_gradient_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(12))
    h = 1e-5
    for _ in range(5):
        n, d, k = int(rng.integers(4, 10)), int(rng.integers(2, 5)), int(rng.integers(2, 4))
        X = rng.normal(0, 1, (n, d))
        onehot = np.zeros((n, k))
        onehot[np.arange(n), rng.integers(0, k, n)] = 1.0
        W = rng.normal(0, 0.5, (k, d))
        b = rng.normal(0, 0.5, k)
        l2 = 0.01
        _, grad_w, grad_b = cross_entropy_loss_and_grad(W, b, X, onehot, l2)
        for idx in np.ndindex(*W.shape):
            Wp, Wm = W.copy(), W.copy()
            Wp[idx] += h
            Wm[idx] -= h
            lp = cross_entropy_loss_and_grad(Wp, b, X, onehot, l2)[0]
            lm = cross_entropy_loss_and_grad(Wm, b, X, onehot, l2)[0]
            numeric = (lp - lm) / (2 * h)
            denom = max(1e-8, abs(numeric) + abs(grad_w[idx]))
            assert abs(numeric - grad_w[idx]) / denom < 1e-4
        for j in range(k):
            bp, bm = b.copy(), b.copy()
            bp[j] += h
            bm[j] -= h
            lp = cross_entropy_loss_and_grad(W, bp, X, onehot, l2)[0]
            lm = cross_entropy_loss_and_grad(W, bm, X, onehot, l2)[0]
            numeric = (lp - lm) / (2 * h)
            denom = max(1e-8, abs(numeric) + abs(grad_b[j]))
            assert abs(numeric - grad_b[j]) / denom < 1e-4


def test_logreg_loss_history_monotone():
    X, y = blobs(seed=13)
    model = train(AlgorithmSpec(LOGISTIC_REGRESSION), X, y)
    hist = np.array(model.loss_history)
    assert len(hist) >= 2
    assert (np.diff(hist) <= 0).all()


def test_logreg_scores_are_probabilities():
    X, y = blobs(seed=14)
    model = train(AlgorithmSpec(LOGISTIC_REGRESSION), X, y)
    scores = model.predict_scores(X[:10])
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-12)
    assert (scores >= 0).all()


def test_svm_separates_blobs():
    X, y = blobs(seed=15)
    model = train(AlgorithmSpec(LINEAR_SVM), X, y)
    assert (model.predict(X) == y).mean() > 0.95
    assert model.weights.shape == (3, X.shape[1])


def test_gaussian_nb_matches_closed_form_posterior():
    rng = np.random.Generator(np.random.PCG64(16))
    X = np.vstack([rng.normal(0, 1, (50, 3)), rng.normal(4, 2, (70, 3))])
    y = np.array([0] * 50 + [1] * 70)
    model = train(AlgorithmSpec(GAUSSIAN_NB, {"var_smoothing": 1e-12}), X, y)
    q = rng.normal(2, 1, (20, 3))
    scores = model.predict_scores(q)

    # independent computation from per-class sample moments
    logpost = np.zeros((20, 2))
    eps = 1e-12 * X.var(axis=0).max()
    for c, prior_n in ((0, 50), (1, 70)):
        mu = X[y == c].mean(axis=0)
        var = X[y == c].var(axis=0) + eps
        ll = -0.5 * (np.log(2 * np.pi * var) + (q - mu) ** 2 / var).sum(axis=1)
        logpost[:, c] = np.log(prior_n / 120) + ll
    expected = np.exp(logpost - logpost.max(axis=1, keepdims=True))
    expected /= expected.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(scores, expected, rtol=1e-10)


def test_gaussian_nb_handles_constant_feature():
    X = np.array([[1.0, 5.0], [1.0, 6.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    model = train(AlgorithmSpec(GAUSSIAN_NB), X, y)
    scores = model.predict_scores(X)
    assert np.isfinite(scores).all()
    assert (model.predict(X) == y).all()


def test_forest_scores_are_vote_fractions():
    X, y = blobs(seed=17)
    model = train(AlgorithmSpec(RANDOM_FOREST, {"trees": 9}), X, y)
    scores = model.predict_scores(X[:15])
    np.testing.assert_allclose(scores.sum(axis=1), 1.0)
    assert set(np.round(scores.flatten() * 9, 9) % 1.0) == {0.0}  # ninths


def test_forest_pure_training_fit_without_bootstrap():
    # unlimited depth + no bagging: every training point lands in a pure leaf
    X, y = blobs(seed=18, per_class=25)
    model = train(AlgorithmSpec(
        RANDOM_FOREST, {"trees": 5, "bootstrap": 0, "min_leaf": 1, "max_depth": 30}), X, y)
    assert (model.predict(X) == y).all()


def test_dummy_predicts_modal_class_everywhere():
    X = np.zeros((5, 2))
    y = np.array([1, 1, 1, 0, -1])
    model = train(AlgorithmSpec(DUMMY), X, y)
    assert model.predict(np.ones((4, 2))).tolist() == [1, 1, 1, 1]


def test_dummy_modal_tie_prefers_lower_class():
    X = np.zeros((4, 2))
    y = np.array([1, 1, -1, -1])
    model = train(AlgorithmSpec(DUMMY), X, y)
    assert model.predict(np.zeros((1, 2))).tolist() == [-1]


# --- persistence --------------------------------------------------------------


# Files written by an earlier release; see generate_models.py in that directory.
MODEL_FIXTURES = Path(__file__).parent / "fixtures" / "models"


def _model_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_models", MODEL_FIXTURES / "generate_models.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_save_load_round_trip(algo, tmp_path):
    X, y = blobs(seed=19)
    Q = np.random.Generator(np.random.PCG64(20)).normal(0, 4, (50, X.shape[1]))
    model = train(AlgorithmSpec(algo, seed=21), X, y)
    path = tmp_path / f"{algo}.model"
    save_model(model, path)
    back = load_model(path)
    assert back.spec.algorithm == algo
    assert np.array_equal(back.classes, model.classes)
    assert np.array_equal(back.predict_scores(Q), model.predict_scores(Q))
    assert np.array_equal(back.predict(Q), model.predict(Q))
    state = model.state()
    assert back.state().keys() == state.keys()
    assert all(np.array_equal(back.state()[name], value) for name, value in state.items())


def test_load_model_errors_are_located(tmp_path):
    knn, logreg, forest = ((MODEL_FIXTURES / f"{algo}.model").read_text(encoding="utf-8")
                           for algo in ("knn", "logistic_regression", "random_forest"))
    points = knn.index("array points")
    rows = [
        (b"not-a-model 1\n", "line 1"),
        (b"capsift-model 999\nend\n", "version"),
        (b"capsift-model 1\nalgorithm knn\nend\n", "missing"),
        (b"capsift-model 1\nalgorithm knn\nn_features 2\nclasses 0 1\n"
         b"array train_x float64 2 2 2\n1.0 2.0\n", "line"),
        (b"capsift-model 1\nalgorithm kn\xe9\n", "not valid UTF-8"),
        ((knn[:points] + "end\n").encode(), "missing 'points'"),
        (knn.replace("scalar k 5\n", "scalar k 5\nscalar leaf_size 30\n").encode(),
         "unknown 'leaf_size'"),
        (knn.replace("scaler 1\n", "hyperparam k 0\nscaler 1\n").encode(), "k must be >= 1"),
        (logreg.replace("scaler 1\n", "hyperparam learning_rate nan\nscaler 1\n").encode(),
         "learning_rate must be finite"),
        (knn.replace("scalar k 5\n", "array k int64 1 1\n5\n").encode(), "'k' must be a scalar"),
        ((knn[:points] + "scalar points 5\nend\n").encode(), "'points' must be an array"),
        (forest.replace("scalar n_trees 3\n", "array n_trees int64 1 1\n3\n").encode(),
         "'n_trees' must be a scalar"),
    ]
    path = tmp_path / "m.model"
    for content, fragment in rows:
        path.write_bytes(content)
        with pytest.raises(ModelFormatError, match=fragment) as info:
            load_model(path)
        assert str(path) in str(info.value)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_saved_model_files_still_load(algo, tmp_path):
    generator = _model_generator()
    fresh = train(generator.SPECS[algo], *generator.training_data())
    saved = MODEL_FIXTURES / f"{algo}.model"
    model = load_model(saved)
    Q = np.random.Generator(np.random.PCG64(22)).normal(1, 3, (40, 3))
    assert np.array_equal(model.predict_scores(Q), fresh.predict_scores(Q))
    resaved = tmp_path / "resaved.model"
    save_model(model, resaved)
    assert np.array_equal(load_model(resaved).predict_scores(Q), fresh.predict_scores(Q))
    if algo == LOGISTIC_REGRESSION:  # files now also carry loss_history
        assert model.loss_history.shape == (0,)
    else:
        assert resaved.read_bytes() == saved.read_bytes()


def test_standardize_fit_population_std_and_zero_guard():
    X = np.array([[1.0, 7.0], [3.0, 7.0]])
    scaler = standardize_fit(X)
    assert scaler.mean.tolist() == [2.0, 7.0]
    assert scaler.std.tolist() == [1.0, 1.0]  # population std; zero -> 1
    Z = scaler.transform(X)
    assert Z.tolist() == [[-1.0, 0.0], [1.0, 0.0]]
