"""Classifier suite: training, prediction invariants, the public API."""

import hashlib

import numpy as np
import pytest

import capsift
import capsift.classifiers
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
    cross_entropy_loss_and_grad,
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
    with pytest.raises(ValueError, match="bootstrap must be 0 or 1"):
        AlgorithmSpec(RANDOM_FOREST, {"bootstrap": 7})
    with pytest.raises(ValueError, match="standardize must be 0 or 1"):
        AlgorithmSpec(NEAREST_CENTROID, {"standardize": 7})


def test_spec_defaults_cover_every_algorithm():
    assert set(DEFAULT_HYPERPARAMS) == set(ALGORITHMS)
    assert set(MODELS) == set(ALGORITHMS)
    spec = AlgorithmSpec(RANDOM_FOREST, {"trees": 10})
    resolved = spec.resolved()
    assert resolved["trees"] == 10
    assert resolved["max_depth"] == DEFAULT_HYPERPARAMS[RANDOM_FOREST]["max_depth"]


def test_spec_stores_integral_hyperparams_as_int_and_others_as_float():
    knn = AlgorithmSpec(KNN, {"k": 5.0})
    assert type(knn.hyperparams["k"]) is int and knn == AlgorithmSpec(KNN, {"k": 5})
    logreg = AlgorithmSpec(LOGISTIC_REGRESSION, {"l2": 0, "iterations": np.float64(3)})
    assert type(logreg.hyperparams["l2"]) is float
    assert type(logreg.hyperparams["iterations"]) is int


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
        _, grad_w, grad_b = cross_entropy_loss_and_grad(W, b, X.T, onehot.T, l2)
        for idx in np.ndindex(*W.shape):
            Wp, Wm = W.copy(), W.copy()
            Wp[idx] += h
            Wm[idx] -= h
            lp = cross_entropy_loss_and_grad(Wp, b, X.T, onehot.T, l2)[0]
            lm = cross_entropy_loss_and_grad(Wm, b, X.T, onehot.T, l2)[0]
            numeric = (lp - lm) / (2 * h)
            denom = max(1e-8, abs(numeric) + abs(grad_w[idx]))
            assert abs(numeric - grad_w[idx]) / denom < 1e-4
        for j in range(k):
            bp, bm = b.copy(), b.copy()
            bp[j] += h
            bm[j] -= h
            lp = cross_entropy_loss_and_grad(W, bp, X.T, onehot.T, l2)[0]
            lm = cross_entropy_loss_and_grad(W, bm, X.T, onehot.T, l2)[0]
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


# --- pinned training output ---------------------------------------------------


SPECS = {
    algo: AlgorithmSpec(algo, {"trees": 3} if algo == RANDOM_FOREST else {}, seed=11)
    for algo in ALGORITHMS
}

# sha256 of the float64 bytes of predict_scores(Q) below, recorded from an
# earlier release; any change to training or scoring arithmetic shows here.
PINNED_SCORES = {
    KNN: "a75f97e1441f7dc0d0fcfd5ef1f47763c966c162721ffbf41ca34f6df9691d7e",
    NEAREST_CENTROID: "ce04646f4a30d95d0dd3965be5310b5762152ea25e080bb10773ec3f365e9539",
    LOGISTIC_REGRESSION: "d81a6bef4da5fd004b08f11a0aec4e6b0371be9c0b7c65cfafb541076937dba6",
    LINEAR_SVM: "022496df3528bb96347e8b0138c747e1c977a9ea25efbe2bdde1a0d9afe9c993",
    GAUSSIAN_NB: "1ae6d9f465dc4278ac3c885b342617062723682af2896340aba9b3aabd1877f2",
    RANDOM_FOREST: "82ac81c8461182e31c2a2d886b93f14a8cc08ecf455399128a914a47790ef9f4",
    DUMMY: "f4d59d968b7f6df588dab2f942655199b715635f2a1becafee2ef6b79758cfc7",
}


def training_data() -> tuple[np.ndarray, np.ndarray]:
    """Three separated 3-D blobs of 6 rows each, labels -1, 0, 1."""
    rng = np.random.Generator(np.random.PCG64(5))
    X = np.vstack([rng.normal(0.0, 1.0, (6, 3)) + 4.0 * np.eye(3)[i] for i in range(3)])
    y = np.repeat([-1, 0, 1], 6)
    return X, y


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_training_output_is_pinned(algo):
    model = train(SPECS[algo], *training_data())
    Q = np.random.Generator(np.random.PCG64(22)).normal(1, 3, (40, 3))
    scores = model.predict_scores(Q)
    assert scores.dtype == np.float64 and scores.shape == (40, 3)
    assert hashlib.sha256(scores.tobytes()).hexdigest() == PINNED_SCORES[algo]


# --- public API ----------------------------------------------------------------


@pytest.mark.parametrize("module", [capsift, capsift.classifiers], ids=lambda m: m.__name__)
def test_public_api_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    namespace: dict = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


def test_standardize_fit_population_std_and_zero_guard():
    X = np.array([[1.0, 7.0], [3.0, 7.0]])
    scaler = standardize_fit(X)
    assert scaler.mean.tolist() == [2.0, 7.0]
    assert scaler.std.tolist() == [1.0, 1.0]  # population std; zero -> 1
    Z = scaler.transform(X)
    assert Z.tolist() == [[-1.0, 0.0], [1.0, 0.0]]
