"""Experiment runner: config parsing, splitting, the full sweep, CLI."""

import csv
import ctypes
import dataclasses
import faulthandler
import hashlib
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import capsift.cli
import capsift.embeddings
import capsift.experiment
from capsift.classifiers import ALGORITHMS, DUMMY, AlgorithmSpec, train
from capsift.cli import EXIT_ERROR, EXIT_OK, EXIT_PARTIAL, main
from capsift.corpus import Topic, filter_corpus, load_corpus, load_manifest, load_stopwords
from capsift.embeddings import EmbeddingFormatError, parse_embedding_file
from capsift.experiment import (
    DEFAULT_T_VALUES,
    KEYS,
    TASK_BOTH,
    ConfigError,
    ExperimentConfig,
    absolute_path,
    binarize_labels,
    config_fingerprint,
    derive_seed,
    emit_report,
    load_config,
    normalize_task,
    prepare_unit,
    render_config,
    run_cell,
    run_experiment,
    stratified_split,
)
from capsift.metrics import TASK_BINARY, TASK_THREE_CLASS

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def fixture_config():
    return load_config(FIXTURES / "experiment.cfg")


@pytest.fixture(scope="module")
def fixture_run(fixture_config):
    return run_experiment(fixture_config)


# --- config parsing -----------------------------------------------------------


def test_load_config_resolves_relative_paths(fixture_config):
    cfg = fixture_config
    assert cfg.manifest == FIXTURES / "manifest.csv"
    assert cfg.captions_root == FIXTURES
    assert dict(cfg.embeddings) == {
        "toy16": FIXTURES / "embeddings" / "toy16_glove.txt",
        "toy8": FIXTURES / "embeddings" / "toy8_w2v.txt",
    }
    assert cfg.topics == ("vaccines", "moon")
    assert cfg.task == TASK_BOTH
    assert cfg.test_fraction == 0.15
    assert cfg.smote_k == 5
    assert cfg.t_values == DEFAULT_T_VALUES
    assert cfg.seed == 2024
    assert cfg.out_dir == FIXTURES / "fixture-out"


def test_load_config_hyperparam_overrides(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "manifest = m.csv\nembedding.e = e.txt\nknn.k = 3\nrandom_forest.trees = 7\n",
        encoding="utf-8",
    )
    cfg = load_config(cfg_path)
    assert cfg.hyperparams == {"knn": {"k": 3}, "random_forest": {"trees": 7}}


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("just a line\n", "line 1"),
        ("manifest = m.csv\nwat = 1\n", "unknown key"),
        ("manifest = m.csv\nknn = 3\n", "exp.cfg: line 2: unknown key 'knn'"),
        ("manifest = m.csv\nforest.trees = 3\n", "exp.cfg: line 2: unknown key 'forest.trees'"),
        ("manifest = m.csv\nknn.neighbors = 3\n",
         "exp.cfg: line 2: knn has no hyperparameter 'neighbors'"),
        ("manifest = m.csv\nseed = many\n", "seed"),
        ("manifest = m.csv\nseed = many\n",
         "exp.cfg: line 2: seed: expected an integer, got 'many'"),
        ("manifest = m.csv\ntest_fraction = lots\n", "test_fraction"),
        ("manifest = m.csv\ntest_fraction = lots\n",
         "exp.cfg: line 2: test_fraction: expected a number, got 'lots'"),
        ("embedding.e = e.txt\n", "manifest"),
        ("manifest = m.csv\n", "embedding"),
        ("manifest = m.csv\nembedding.e = e.txt\ntask = quaternary\n", "task"),
        ("manifest = m.csv\nseed = 1\n\nseed = 2\n", "line 4: key 'seed' repeats line 2"),
        ("manifest = m.csv\nembedding.e = e.txt\nembedding.e = f.txt\n",
         "line 3: key 'embedding.e' repeats line 2"),
        ("manifest = m.csv\nknn.k = 3\n# comment\nknn.k = 4\n",
         "line 4: key 'knn.k' repeats line 2"),
        ("manifest = a.csv\nmanifest = b.csv\n", "line 2: key 'manifest' repeats line 1"),
        ("manifest = m.csv\nembedding.e = e.txt\nrandom_forest.trees = inf\n",
         "trees must be finite"),
        ("manifest = m.csv\nembedding.e = e.txt\nt_values = 5,5\n",
         "exp.cfg: line 3: duplicate t_values"),
        ("manifest = m.csv\nembedding. = e.txt\n", "embedding name"),
        ("manifest = m.csv\nembedding. = e.txt\n",
         "exp.cfg: line 2: embedding name must not be empty"),
        ("manifest = m.csv\nembedding.e = e.txt\ntopics =\n", "names no topic"),
        ("manifest = m.csv\nembedding.e = e.txt\n# overrides\nknn.k = 0\n",
         "exp.cfg: line 4: knn.k must be >= 1, got 0.0"),
        ("manifest = m.csv\nrandom_forest.trees = 7\nrandom_forest.bootstrap = 2\n",
         "exp.cfg: line 3: random_forest.bootstrap must be 0 or 1, got 2.0"),
        ("linear_svm.c = -1\nmanifest = m.csv\n",
         "exp.cfg: line 1: linear_svm.c must be > 0, got -1.0"),
        ("manifest = m.csv\nknn.k = five\n",
         "exp.cfg: line 2: knn.k: expected a number, got 'five'"),
        ("manifest = m.csv\nsmote_k = 0\n", "exp.cfg: line 2: smote_k must be >= 1"),
        ("manifest = m.csv\ntest_fraction = 2\n",
         "exp.cfg: line 2: test_fraction must be in (0, 1), got 2.0"),
        ("manifest = m.csv\ntopics = mars\n",
         "exp.cfg: line 2: unknown topic 'mars'; valid: vaccines, 911, chemtrail, moon, flatearth"),
        ("manifest = m.csv\nalgorithms = knn,knn\n", "exp.cfg: line 2: duplicate algorithms"),
        ("manifest = m.csv\n" + "".join(f"embedding.{n} = {n}.txt\n" for n in "abcde"),
         "exp.cfg: line 6: need 1..4 embeddings, got 5"),
        # the first bad line is the one reported, whatever the kind of error
        ("smote_k = 0\nwat = 1\n", "exp.cfg: line 1: smote_k must be >= 1"),
    ],
)
def test_load_config_errors(tmp_path, body, fragment):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(body, encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        load_config(cfg_path)


@pytest.mark.parametrize(
    "key, raw",
    [
        ("topics", "moon,vaccines"), ("topics", "mars"), ("topics", "moon,moon"), ("topics", ""),
        ("task", "three_class"), ("task", "quaternary"),
        ("test_fraction", "0.2"), ("test_fraction", "1"), ("test_fraction", "lots"),
        ("smote_k", "3"), ("smote_k", "0"), ("smote_k", "x"),
        ("algorithms", "gaussian_nb,knn"), ("algorithms", "knn,knn"),
        ("algorithms", "perceptron"), ("algorithms", ","),
        ("t_values", "5,10"), ("t_values", "5,5"), ("t_values", "0"), ("t_values", "5,x"),
        ("seed", "-7"), ("seed", "many"),
        ("knn.k", "3"), ("knn.k", "0"), ("knn.k", "2.5"),
        ("random_forest.bootstrap", "0"), ("random_forest.bootstrap", "2"),
        ("embeddings", "4"), ("embeddings", "5"),
    ],
)
def test_load_config_accepts_what_experiment_config_accepts(tmp_path, key, raw):
    """A config line loads exactly when ExperimentConfig accepts its value,
    and fails with ExperimentConfig's message located at that line."""
    lines = ["manifest = m.csv"]
    fields = dict(manifest=tmp_path / "m.csv", embeddings=(("e", tmp_path / "e.txt"),))
    if key == "embeddings":
        names = [f"e{i}" for i in range(int(raw))]
        lines += [f"embedding.{name} = {name}.txt" for name in names]
        fields["embeddings"] = tuple((name, tmp_path / f"{name}.txt") for name in names)
    else:
        lines += ["embedding.e = e.txt", f"{key} = {raw}"]
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        if key in KEYS:
            fields[key] = KEYS[key][0](raw, key)
        elif key != "embeddings":
            algo, _, param = key.partition(".")
            fields["hyperparams"] = {algo: {param: float(raw)}}
        direct = ExperimentConfig(**fields)
    except ConfigError as exc:
        with pytest.raises(ConfigError) as caught:
            load_config(cfg_path)
        assert str(caught.value) == f"{cfg_path}: line {len(lines)}: {exc}"
    else:
        assert load_config(cfg_path) == direct


@pytest.mark.parametrize("key", ["manifest", "captions_root", "out", "embedding.e"])
def test_load_config_empty_path_is_an_error(tmp_path, key):
    lines = {"manifest": "m.csv", "captions_root": ".", "embedding.e": "e.txt", "out": "o"}
    lines[key] = ""
    body = "# paths\n" + "".join(f"{k} = {v}\n" for k, v in lines.items())
    line_no = 2 + list(lines).index(key)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(body, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"line {line_no}: key '{key}' names no path"):
        load_config(cfg_path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")


@pytest.mark.parametrize(
    "word, expected",
    [("three", TASK_THREE_CLASS), ("Three_Class", TASK_THREE_CLASS),
     ("binary", TASK_BINARY), ("BOTH", TASK_BOTH)],
)
def test_normalize_task_aliases(word, expected):
    assert normalize_task(word) == expected


def test_normalize_task_rejects_unknown():
    with pytest.raises(ConfigError, match="task"):
        normalize_task("quaternary")


def base_config(**overrides):
    fields = dict(manifest=Path("m.csv"), embeddings=(("e", Path("e.txt")),))
    fields.update(overrides)
    return ExperimentConfig(**fields)


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"test_fraction": 0.0}, "test_fraction"),
        ({"test_fraction": 1.0}, "test_fraction"),
        ({"embeddings": ()}, "embeddings"),
        ({"embeddings": tuple((f"e{i}", Path("e.txt")) for i in range(5))}, "embeddings"),
        ({"embeddings": (("e", Path("a")), ("e", Path("b")))}, "duplicate"),
        ({"algorithms": ()}, "algorithm"),
        ({"algorithms": ("perceptron",)}, "unknown algorithm"),
        ({"topics": ("atlantis",)}, "unknown topic"),
        ({"task": "quxnary"}, "task"),
        ({"smote_k": 0}, "smote_k"),
        ({"t_values": ()}, "t_values"),
        ({"t_values": (0,)}, "t_values"),
        ({"hyperparams": {"perceptron": {"k": 1}}}, "unknown algorithm"),
        ({"topics": ("moon", "vaccines", "moon")}, "duplicate topics"),
        ({"algorithms": ("knn", "gaussian_nb", "knn")}, "duplicate algorithms"),
        ({"hyperparams": {"knn": {"k": 0}}}, "knn.k must be >= 1"),
        ({"hyperparams": {"random_forest": {"trees": 2.5}}}, "trees must be an integer"),
        ({"hyperparams": {"logistic_regression": {"learning_rate": float("nan")}}},
         "learning_rate must be finite"),
        ({"hyperparams": {"logistic_regression": {"learning_rate": float("inf")}}},
         "learning_rate must be finite"),
        ({"hyperparams": {"random_forest": {"trees": float("inf")}}}, "trees must be finite"),
        ({"embeddings": (("", Path("e.txt")),)}, "embedding name"),
        ({"t_values": (5, 5)}, "duplicate t_values"),
        ({"smote_k": 2.5}, "smote_k must be an integer, got 2.5"),
        ({"t_values": (2.5,)}, "t_values must be an integer, got 2.5"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"test_fraction": "0.2"}, "test_fraction must be a number, got '0.2'"),
        ({"t_values": 5}, "t_values must be a sequence, got 5"),
        ({"t_values": "5"}, "t_values must be a sequence, got '5'"),
        ({"topics": "moon"}, "topics must be a sequence, got 'moon'"),
        ({"topics": 3}, "topics must be a sequence, got 3"),
        ({"algorithms": "knn"}, "algorithms must be a sequence, got 'knn'"),
        ({"algorithms": None}, "algorithms must be a sequence, got None"),
        ({"embeddings": "e.txt"}, "embeddings must be a sequence, got 'e.txt'"),
        ({"embeddings": Path("e.txt")},
         re.escape(f"embeddings must be a sequence, got {Path('e.txt')!r}")),
        ({"hyperparams": [("knn", {"k": 3})]}, "hyperparams must be a dict, got"),
        ({"hyperparams": None}, "hyperparams must be a dict, got None"),
    ],
)
def test_config_validation(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        base_config(**overrides)


def test_sweep_always_ends_with_dummy():
    cfg = base_config(algorithms=("knn", "gaussian_nb"))
    assert cfg.algorithms == ("knn", "gaussian_nb", DUMMY)
    assert base_config().algorithms[-1] == DUMMY


def test_readme_config_example_loads(fixture_config, tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config file\n", 1)[1]
    example = section.split("```\n", 2)[1]
    path = tmp_path / "readme.cfg"
    path.write_text(example, encoding="utf-8")
    cfg = load_config(path)
    fields = ("topics", "task", "test_fraction", "smote_k", "t_values", "seed")
    for name in fields:
        assert getattr(cfg, name) == getattr(fixture_config, name), name
    assert [n for n, _ in cfg.embeddings] == [n for n, _ in fixture_config.embeddings]


def test_fingerprint_ignores_output_dir(fixture_config):
    a = config_fingerprint(fixture_config)
    moved = dataclasses.replace(fixture_config, out_dir=Path("/elsewhere"))
    assert config_fingerprint(moved) == a
    reseeded = dataclasses.replace(fixture_config, seed=fixture_config.seed + 1)
    assert config_fingerprint(reseeded) != a


def _config_with(tmp_path, name, extra):
    """The fixture config, with absolute input paths, plus ``extra`` lines."""
    text = (FIXTURES / "experiment.cfg").read_text(encoding="utf-8")
    text = text.replace("captions_root = .", f"captions_root = {FIXTURES}")
    for rel in ("manifest.csv", "embeddings/toy16_glove.txt", "embeddings/toy8_w2v.txt"):
        text = text.replace(f"= {rel}", f"= {FIXTURES / rel}")
    path = tmp_path / name
    path.write_text(text + extra, encoding="utf-8")
    config = load_config(path)
    return config_fingerprint(config), render_config(config)


def test_equal_hyperparameter_values_render_and_fingerprint_alike(tmp_path):
    groups = [
        ["", "knn.k = 5\n", "knn.k = 5.0\n"],
        ["logistic_regression.l2 = 0\n", "logistic_regression.l2 = 0.0\n"],
    ]
    for group in groups:
        results = {_config_with(tmp_path, f"{i}.cfg", extra) for i, extra in enumerate(group)}
        assert len(results) == 1, group
    assert "\nknn.k = 5\n" in _config_with(tmp_path, "k.cfg", "knn.k = 5.0\n")[1]
    assert "\nlogistic_regression.l2 = 0.0\n" in _config_with(
        tmp_path, "l2.cfg", "logistic_regression.l2 = 0\n")[1]
    _, rendered = _config_with(tmp_path, "trees.cfg", "random_forest.trees = 1e2\n")
    assert "\nrandom_forest.trees = 100\n" in rendered


def test_render_config_pins_every_default_hyperparameter(fixture_config):
    # the fixture sweeps every algorithm and overrides nothing, so a renamed
    # trainer argument or a changed default shows here
    lines = render_config(fixture_config).splitlines()
    assert [line for line in lines if line.startswith(ALGORITHMS)] == [
        "gaussian_nb.var_smoothing = 1e-09",
        "knn.k = 5",
        "linear_svm.c = 1.0",
        "linear_svm.iterations = 500",
        "linear_svm.learning_rate = 0.01",
        "logistic_regression.iterations = 500",
        "logistic_regression.l2 = 0.0001",
        "logistic_regression.learning_rate = 0.1",
        "nearest_centroid.standardize = 0",
        "random_forest.bootstrap = 1",
        "random_forest.max_depth = 12",
        "random_forest.min_leaf = 2",
        "random_forest.trees = 100",
    ]


def test_load_config_skips_a_byte_order_mark(tmp_path):
    original = (FIXTURES / "experiment.cfg").read_bytes()
    (tmp_path / "plain.cfg").write_bytes(original)
    (tmp_path / "bom.cfg").write_bytes(b"\xef\xbb\xbf" + original)
    assert load_config(tmp_path / "bom.cfg") == load_config(tmp_path / "plain.cfg")


def test_one_fingerprint_per_config_file_and_every_echo_loads_back(
        fixture_run, monkeypatch, tmp_path):
    configs = [load_config(FIXTURES / "experiment.cfg")]
    for cwd, spelling in ((FIXTURES, "experiment.cfg"),
                          (FIXTURES.parent, "fixtures/experiment.cfg")):
        monkeypatch.chdir(cwd)
        configs.append(load_config(spelling))
    assert len({config_fingerprint(config) for config in configs}) == 1
    for i, config in enumerate(configs):
        emit_report(dataclasses.replace(fixture_run, config=config), tmp_path / str(i))
        echo = load_config(tmp_path / str(i) / "config_resolved.txt")
        assert render_config(echo) == render_config(config)


def test_a_config_path_through_dotdot_gets_the_same_fingerprint(
        fixture_run, monkeypatch, tmp_path):
    tests = FIXTURES.parent
    monkeypatch.chdir(tests)
    plain = load_config("fixtures/experiment.cfg")
    dotted = load_config(f"../{tests.name}/fixtures/experiment.cfg")
    assert dotted == plain
    assert config_fingerprint(dotted) == config_fingerprint(plain)
    written = emit_report(fixture_run, tmp_path / "made" / ".." / "out")
    assert written[0] == tmp_path / "out" / "reports.csv"
    echo = (tmp_path / "out" / "config_resolved.txt").read_text(encoding="utf-8")
    assert echo.endswith(f"\nout = {tmp_path / 'out'}\n")


def test_dotdot_after_a_symlinked_directory_is_kept(tmp_path):
    (tmp_path / "real" / "sub").mkdir(parents=True)
    (tmp_path / "link").symlink_to(tmp_path / "real" / "sub", target_is_directory=True)
    assert absolute_path(tmp_path / "real" / "sub" / ".." / "x") == tmp_path / "real" / "x"
    # link/.. is real, not tmp_path, so collapsing it would name another file
    through_link = tmp_path / "link" / ".." / "m.csv"
    config = base_config(manifest=through_link, out_dir=tmp_path / "real" / ".." / "out")
    assert config.manifest == through_link
    assert config.captions_root == tmp_path / "link" / ".."
    assert config.out_dir == tmp_path / "out"
    assert dataclasses.replace(config) == config


@given(
    topics=st.lists(st.sampled_from([t.value for t in Topic]), min_size=1, unique=True),
    task=st.sampled_from(["three", "three_class", "binary", "both"]),
    test_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    smote_k=st.integers(1, 10**6),
    algorithms=st.lists(st.sampled_from(ALGORITHMS), min_size=1, unique=True),
    t_values=st.lists(st.integers(1, 10**4), min_size=1, max_size=5, unique=True),
    seed=st.integers(-2**63, 2**64),
)
def test_every_table_key_renders_and_loads_back(
        topics, task, test_fraction, smote_k, algorithms, t_values, seed):
    values = {
        "topics": ", ".join(topics), "task": task, "test_fraction": repr(test_fraction),
        "smote_k": str(smote_k), "algorithms": ", ".join(algorithms),
        "t_values": ", ".join(map(str, t_values)), "seed": str(seed),
    }
    assert set(values) == set(KEYS)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_text("manifest = m.csv\nembedding.e = e.txt\n"
                        + "".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
        config = load_config(path)
        assert (config.topics, config.test_fraction, config.smote_k, config.t_values,
                config.seed) == (tuple(topics), test_fraction, smote_k, tuple(t_values), seed)
        assert config.task == normalize_task(task)
        assert config.algorithms == tuple(a for a in algorithms if a != DUMMY) + (DUMMY,)
        rendered = render_config(config)
        path.write_text(rendered, encoding="utf-8")
        again = load_config(path)
    assert render_config(again) == rendered
    for key in KEYS:
        assert getattr(again, key) == getattr(config, key), key


def test_derive_seed_matches_hash_construction():
    expected = int.from_bytes(
        hashlib.sha256(b"7|vaccines|binary|glove").digest()[:8], "big")
    assert derive_seed(7, "vaccines", "binary", "glove") == expected
    assert derive_seed(7, "vaccines", "binary", "glove") < 2 ** 64
    seen = {derive_seed(7, t, a) for t in "abcd" for a in "xyz"}
    assert len(seen) == 12


# --- label handling and splitting ---------------------------------------------


def test_binarize_labels_rule():
    out = binarize_labels([-1, 0, 1, 1, -1, 0])
    assert out.tolist() == [0, 0, 1, 1, 0, 0]
    assert out.dtype == np.int64
    with pytest.raises(ValueError, match="labels"):
        binarize_labels([0, 2])


def test_stratified_split_counts_round_half_up():
    y = np.array([0] * 60 + [1] * 20 + [2] * 20)
    train, test = stratified_split(y, 0.15, seed=11)
    # 60*0.15=9, 20*0.15=3
    assert [int((y[test] == c).sum()) for c in (0, 1, 2)] == [9, 3, 3]
    assert [int((y[train] == c).sum()) for c in (0, 1, 2)] == [51, 17, 17]
    merged = np.sort(np.concatenate([train, test]))
    assert merged.tolist() == list(range(100))
    assert np.array_equal(train, np.sort(train))
    assert np.array_equal(test, np.sort(test))


def test_stratified_split_keeps_tiny_class_on_both_sides():
    y = np.array([0] * 50 + [1] * 2)
    train, test = stratified_split(y, 0.15, seed=3)
    assert int((y[test] == 1).sum()) == 1
    assert int((y[train] == 1).sum()) == 1
    # fraction near 1 still leaves one training sample per class
    train2, test2 = stratified_split(y, 0.99, seed=3)
    assert int((y[train2] == 0).sum()) == 1


def test_stratified_split_seed_behavior():
    y = np.array([0] * 40 + [1] * 20)
    a = stratified_split(y, 0.2, seed=5)
    b = stratified_split(y, 0.2, seed=5)
    c = stratified_split(y, 0.2, seed=6)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[1], c[1])
    assert len(c[1]) == len(a[1])  # counts identical across seeds


def test_stratified_split_errors():
    with pytest.raises(ValueError, match="cannot split"):
        stratified_split([0, 0, 1], 0.2, seed=0)
    with pytest.raises(ValueError, match="test_fraction"):
        stratified_split([0, 0, 1, 1], 1.5, seed=0)
    with pytest.raises(ValueError, match="1-D"):
        stratified_split([[0, 1]], 0.2, seed=0)


# --- full sweep on the bundled corpus ------------------------------------------


def test_sweep_produces_every_cell(fixture_run):
    # 2 topics x 2 tasks x 2 embeddings x (6 algorithms + dummy)
    assert len(fixture_run.reports) == 56
    assert not fixture_run.skipped
    cells = {(r.topic, r.task, r.embedding) for r in fixture_run.reports}
    assert len(cells) == 8
    for cell in cells:
        group = [r for r in fixture_run.reports
                 if (r.topic, r.task, r.embedding) == cell]
        assert len({r.model for r in group}) == len(group) == 7
        assert DUMMY in {r.model for r in group}


def test_sweep_logs_every_rejected_caption(fixture_run):
    tagged = {(e.stage, e.video_id) for e in fixture_run.exclusions}
    assert ("filter", "vac_short") in tagged
    assert ("filter", "vac_nonenglish") in tagged
    assert ("load", "moon_missing") in tagged
    # zero-coverage is checked once per embedding table
    coverage = [e for e in fixture_run.exclusions if e.stage == "coverage"]
    assert [e.video_id for e in coverage] == ["moon_oov", "moon_oov"]
    assert len(fixture_run.exclusions) == 5


def prepared_splits(config, monkeypatch):
    """Every (topic, embedding)'s split as the sweep draws it, in sweep order."""
    drawn = []

    def spy(labels, test_fraction, seed):
        train_idx, test_idx = stratified_split(labels, test_fraction, seed)
        drawn.append(SimpleNamespace(labels=labels, train_idx=train_idx, test_idx=test_idx))
        return train_idx, test_idx

    monkeypatch.setattr(capsift.experiment, "stratified_split", spy)
    records = load_manifest(config.manifest)
    splits = {}
    for topic in config.topics:
        topic_records = [r for r in records if r.topic.value == topic]
        documents, _ = load_corpus(topic_records, config.captions_root, load_stopwords())
        kept, _ = filter_corpus(documents)
        for name, path in config.embeddings:
            table = parse_embedding_file(path)
            (_, labels, train_idx, test_idx), _, _ = prepare_unit(config, topic, name, table, kept)
            splits[topic, name] = prepared = drawn.pop()
            assert not drawn
            # the unit hands run_cell the split it drew
            assert labels is prepared.labels
            assert train_idx is prepared.train_idx and test_idx is prepared.test_idx
    return splits


def test_sweep_split_has_no_leakage(fixture_config, monkeypatch):
    splits = prepared_splits(fixture_config, monkeypatch)
    assert len(splits) == 4  # one per (topic, embedding)
    for prepared in splits.values():
        train, test = prepared.train_idx, prepared.test_idx
        assert not set(train) & set(test)
        assert len(set(train)) == len(train) and len(set(test)) == len(test)
        assert sorted([*train, *test]) == list(range(len(prepared.labels)))


def test_sweep_binary_reports_carry_auc(fixture_run):
    for r in fixture_run.reports:
        if r.task == TASK_BINARY:
            assert r.auc_roc is not None and 0.0 <= r.auc_roc <= 1.0
        else:
            assert r.auc_roc is None
        assert r.seed is not None


def test_sweep_nondummy_beats_dummy_everywhere(fixture_run):
    cells = {(r.topic, r.task, r.embedding) for r in fixture_run.reports}
    for cell in cells:
        group = [r for r in fixture_run.reports
                 if (r.topic, r.task, r.embedding) == cell]
        dummy_f1 = next(r.f1_weighted for r in group if r.model == DUMMY)
        best_other = max(r.f1_weighted for r in group if r.model != DUMMY)
        assert best_other > dummy_f1, cell


def test_sweep_best_models_exclude_dummy(fixture_run):
    assert len(fixture_run.best_models) == 4  # 2 tasks x 2 topics
    assert all(r.model != DUMMY for r in fixture_run.best_models)
    for best in fixture_run.best_models:
        rivals = [r.f1_weighted for r in fixture_run.reports
                  if (r.topic, r.task) == (best.topic, best.task) and r.model != DUMMY]
        assert best.f1_weighted == max(rivals)


def test_sweep_embedding_scores_cover_every_t(fixture_run):
    rows = fixture_run.embedding_scores
    assert len(rows) == 24  # 2 topics x 2 tasks x 2 embeddings x 3 T values
    keys = {(s.topic, s.task, s.embedding, s.top_t) for s in rows}
    assert len(keys) == 24
    assert {s.top_t for s in rows} == set(DEFAULT_T_VALUES)
    assert all(0.0 <= s.mu <= 1.0 for s in rows)


def test_sweep_report_rows_are_sorted(fixture_run):
    keys = [(r.topic, r.task, r.embedding, r.model) for r in fixture_run.reports]
    assert keys == sorted(keys)


def test_sweep_same_split_for_both_tasks(fixture_config, monkeypatch):
    # single-task configs must draw the exact membership of the joint one
    def by_cell(task):
        splits = prepared_splits(dataclasses.replace(fixture_config, task=task), monkeypatch)
        return {cell: (p.train_idx.tolist(), p.test_idx.tolist()) for cell, p in splits.items()}

    both = by_cell(TASK_BOTH)
    assert len(both) == 4
    assert by_cell(TASK_THREE_CLASS) == by_cell(TASK_BINARY) == both


def test_single_cell_reproduces_its_rows_of_the_full_sweep(fixture_run, fixture_config):
    topic, task, name = "moon", TASK_BINARY, "toy8"
    records = [r for r in load_manifest(fixture_config.manifest) if r.topic.value == topic]
    documents, _ = load_corpus(records, fixture_config.captions_root, load_stopwords())
    kept, _ = filter_corpus(documents)
    table = parse_embedding_file(dict(fixture_config.embeddings)[name])
    config = dataclasses.replace(fixture_config, task=task)
    data, exclusions, skipped = prepare_unit(config, topic, name, table, kept)
    assert [e.video_id for e in exclusions] == ["moon_oov"]
    assert not skipped
    reports, skipped = run_cell(config, topic, task, name, *data)
    assert not skipped
    assert [r.model for r in reports] == list(fixture_config.algorithms)
    expected = [r for r in fixture_run.reports
                if (r.topic, r.task, r.embedding) == (topic, task, name)]
    assert len(expected) == 7
    assert sorted(reports, key=lambda r: r.model) == expected


def test_tables_are_parsed_for_the_kept_tokens_of_every_topic(fixture_config, monkeypatch):
    vocabs = []

    def spy(path, vocab=None):
        vocabs.append(vocab)
        return parse_embedding_file(path, vocab=vocab)

    monkeypatch.setattr(capsift.experiment, "parse_embedding_file", spy)
    run_experiment(fixture_config)
    records = load_manifest(fixture_config.manifest)
    documents, _ = load_corpus(records, fixture_config.captions_root, load_stopwords())
    kept, _ = filter_corpus(documents)
    assert vocabs == [{t for doc in kept for t in doc.tokens}] * 2


def _fail_gaussian_nb(monkeypatch) -> None:
    """Patch ``train`` to raise ValueError, as degenerate data does, for gaussian_nb."""
    real_train = capsift.experiment.train

    def train(spec, features, labels):
        if spec.algorithm == "gaussian_nb":
            raise ValueError("degenerate variance")
        return real_train(spec, features, labels)

    monkeypatch.setattr(capsift.experiment, "train", train)


def test_training_value_error_skips_only_that_model(fixture_config, monkeypatch):
    _fail_gaussian_nb(monkeypatch)
    config = dataclasses.replace(fixture_config, topics=("moon",), task=TASK_BINARY,
                                 algorithms=("nearest_centroid", "gaussian_nb"))
    result = run_experiment(config)
    assert [(s.embedding, s.model, s.reason) for s in result.skipped] == [
        (name, "gaussian_nb", "failed: ValueError: degenerate variance")
        for name in ("toy16", "toy8")
    ]
    assert {r.model for r in result.reports} == {"nearest_centroid", DUMMY}


def test_training_programming_error_propagates(fixture_config, monkeypatch):
    def train(spec, features, labels):
        raise TypeError("bug in a trainer")

    monkeypatch.setattr(capsift.experiment, "train", train)
    config = dataclasses.replace(fixture_config, topics=("moon",), task=TASK_BINARY)
    with pytest.raises(TypeError, match="bug in a trainer"):
        run_experiment(config)


# --- worker pool ------------------------------------------------------------------
# The pool's workers fork from this process, so the patches made here reach them.


def test_pool_result_equals_the_serial_result(fixture_config, fixture_run):
    pooled = run_experiment(fixture_config, workers=2)
    for field in dataclasses.fields(fixture_run):
        assert getattr(pooled, field.name) == getattr(fixture_run, field.name), field.name


def test_pool_skips_only_the_model_whose_training_raises_value_error(
        fixture_config, monkeypatch):
    _fail_gaussian_nb(monkeypatch)
    serial, pooled = (run_experiment(fixture_config, workers=n) for n in (1, 2))
    assert [s.model for s in serial.skipped] == ["gaussian_nb"] * 8
    assert pooled.skipped == serial.skipped
    assert pooled.reports == serial.reports


# The bundled OpenBLAS's (get, set) thread-count functions, or None under
# another BLAS; looked up before any test patches the lookup.
_BLAS = capsift.experiment._openblas_threads()
needs_openblas = pytest.mark.skipif(_BLAS is None, reason="numpy has no bundled OpenBLAS")


def _blas_threads() -> int | None:
    return None if _BLAS is None else _BLAS[0]()


@pytest.fixture
def blas_at_two_threads():
    """Set the bundled OpenBLAS, where there is one, to 2 threads for the
    test, so that a pin to 1 shows on any machine; restore its count after."""
    if _BLAS is None:
        yield
        return
    get_threads, set_threads = _BLAS
    threads = get_threads()
    set_threads(2)
    yield
    set_threads(threads)


def test_pool_propagates_a_programming_error(fixture_config, monkeypatch, blas_at_two_threads):
    def train(spec, features, labels):
        raise TypeError("bug in a trainer")

    monkeypatch.setattr(capsift.experiment, "train", train)
    threads = _blas_threads()
    with pytest.raises(TypeError, match="bug in a trainer"):
        run_experiment(fixture_config, workers=2)
    assert _blas_threads() == threads


def test_pool_fails_the_run_when_a_worker_dies(fixture_config, monkeypatch, blas_at_two_threads):
    def train(spec, features, labels):
        os._exit(3)

    monkeypatch.setattr(capsift.experiment, "train", train)
    threads = _blas_threads()
    faulthandler.dump_traceback_later(120, exit=True)  # a hung pool ends the session loudly
    try:
        with pytest.raises(BrokenProcessPool):
            run_experiment(fixture_config, workers=2)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert _blas_threads() == threads


def _spy_on_train(monkeypatch, log: Path) -> Path:
    """Patch ``train`` to append the id of the process each call runs in,
    and the BLAS thread count it sees, to ``log``, a file, so that calls in
    forked workers are recorded too."""
    real_train = capsift.experiment.train

    def train(spec, features, labels):
        with log.open("a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {_blas_threads()}\n")
        return real_train(spec, features, labels)

    monkeypatch.setattr(capsift.experiment, "train", train)
    return log


def _train_calls(log: Path) -> list[tuple[int, int | None]]:
    rows = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    return [(int(pid), None if threads == "None" else int(threads)) for pid, threads in rows]


def _pids(log: Path) -> list[int]:
    return [pid for pid, _ in _train_calls(log)]


@needs_openblas
@pytest.mark.parametrize("workers", [1, 2])
def test_pool_runs_blas_on_one_thread_and_restores_the_count(
        fixture_config, monkeypatch, tmp_path, blas_at_two_threads, workers):
    get_threads, set_threads = _BLAS
    set_log = tmp_path / "set.log"
    set_log.touch()

    def logged_set(threads):
        with set_log.open("a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {threads}\n")
        set_threads(threads)

    monkeypatch.setattr(capsift.experiment, "_openblas_threads",
                        lambda: (get_threads, logged_set))
    log = _spy_on_train(monkeypatch, tmp_path / "train.log")
    run_experiment(fixture_config, workers=workers)
    if workers == 1:  # BLAS's own threads, never set
        assert _train_calls(log) == [(os.getpid(), 2)] * 56
        assert set_log.read_text(encoding="utf-8") == ""
    else:  # set once before the first fork and once after the last map, in this process
        assert _train_calls(log) == [(pid, 1) for pid in _pids(log)]
        assert len(_pids(log)) == 56 and os.getpid() not in _pids(log)
        assert set_log.read_text(encoding="utf-8") == f"{os.getpid()} 1\n{os.getpid()} 2\n"
    assert _blas_threads() == 2


def _no_library(path):
    raise OSError(f"{path}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [_no_library, lambda path: SimpleNamespace()],
                         ids=["no-library", "no-symbol"])
def test_pool_under_another_blas_pins_nothing(
        fixture_config, fixture_run, monkeypatch, tmp_path, blas_at_two_threads, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert capsift.experiment._openblas_threads() is None
    threads = _blas_threads()
    log = _spy_on_train(monkeypatch, tmp_path / "train.log")
    pooled = run_experiment(fixture_config, workers=2)
    for field in dataclasses.fields(fixture_run):
        assert getattr(pooled, field.name) == getattr(fixture_run, field.name), field.name
    assert _train_calls(log) == [(pid, threads) for pid in _pids(log)]
    assert os.getpid() not in _pids(log)
    assert _blas_threads() == threads


@needs_openblas
@pytest.mark.parametrize("algorithm", ["logistic_regression", "linear_svm", "knn",
                                       "nearest_centroid", "gaussian_nb"])
def test_scores_do_not_depend_on_the_blas_thread_count(blas_at_two_threads, algorithm):
    # large enough that OpenBLAS splits the products over its threads; fewer
    # iterations than the default change no product's shape
    rng = np.random.default_rng(7)
    X = rng.normal(size=(4000, 300))
    y = np.argmax(X[:, :3] + rng.normal(size=(4000, 3)), axis=1)
    X_new = rng.normal(size=(1000, 300))
    hyperparams = {"iterations": 100} if algorithm in ("logistic_regression", "linear_svm") else {}
    spec = AlgorithmSpec(algorithm, hyperparams)
    default = train(spec, X, y).predict_scores(X_new)
    with capsift.experiment._one_blas_thread():
        assert _blas_threads() == 1
        pinned = train(spec, X, y).predict_scores(X_new)
    assert _blas_threads() == 2
    assert pinned.tobytes() == default.tobytes()


def test_an_embedded_cli_run_trains_in_the_calling_process(tmp_path, monkeypatch, capsys):
    log = _spy_on_train(monkeypatch, tmp_path / "train.log")
    code = main(["run", "--config", str(FIXTURES / "experiment.cfg"), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert _pids(log) == [os.getpid()] * 56


def test_cli_main_without_argv_runs_on_the_usable_cpus(tmp_path, monkeypatch, capsys):
    real_run = capsift.cli.run_experiment
    counts = []

    def run_experiment(config, workers):
        counts.append(workers)
        return real_run(config)

    monkeypatch.setattr(capsift.cli, "run_experiment", run_experiment)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    monkeypatch.setattr(sys, "argv", ["capsift", "run", "--config",
                                      str(FIXTURES / "experiment.cfg"), "--out", str(tmp_path)])
    assert main() == EXIT_OK
    capsys.readouterr()
    assert counts == [3]


def _spy_on_scan(monkeypatch, log: Path) -> Path:
    """Patch the embedding range scan to append "pid start end" to ``log``,
    a file, so that scans in forked workers are recorded too."""
    real_scan = capsift.embeddings._scan

    def scan(path, start, end, vocab, dim):
        with log.open("a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {start} {end}\n")
        return real_scan(path, start, end, vocab, dim)

    monkeypatch.setattr(capsift.embeddings, "_scan", scan)
    return log


def _scans(log: Path) -> list[tuple[int, int, int | None]]:
    rows = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    return [(int(pid), int(start), None if end == "None" else int(end)) for pid, start, end in rows]


def test_pool_runs_serially_without_fork(fixture_config, fixture_run, monkeypatch, tmp_path):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    train_log = _spy_on_train(monkeypatch, tmp_path / "train.log")
    log = _spy_on_scan(monkeypatch, tmp_path / "scans.log")
    monkeypatch.setattr(capsift.embeddings, "_BLOCK_CHARS", 1024)  # tables big enough to split
    assert run_experiment(fixture_config, workers=2).reports == fixture_run.reports
    assert _pids(train_log) == [os.getpid()] * 56
    assert _scans(log) == [(os.getpid(), 0, None)] * 2  # each table one range, in this process


def test_pool_scans_a_table_smaller_than_a_block_in_this_process(
        fixture_config, fixture_run, monkeypatch, tmp_path):
    sizes = [path.stat().st_size for _, path in fixture_config.embeddings]
    assert max(sizes) < capsift.embeddings._BLOCK_CHARS
    log = _spy_on_scan(monkeypatch, tmp_path / "scans.log")
    assert run_experiment(fixture_config, workers=2).reports == fixture_run.reports
    assert _scans(log) == [(os.getpid(), 0, None)] * 2


def test_pool_scans_split_tables_in_workers_to_the_serial_result(
        fixture_config, fixture_run, monkeypatch, tmp_path):
    log = _spy_on_scan(monkeypatch, tmp_path / "scans.log")
    monkeypatch.setattr(capsift.embeddings, "_BLOCK_CHARS", 1024)
    pooled = run_experiment(fixture_config, workers=2)
    for field in dataclasses.fields(fixture_run):
        assert getattr(pooled, field.name) == getattr(fixture_run, field.name), field.name
    scans = _scans(log)
    # each table's first line in this process, then two ranges in the workers
    assert [(pid == os.getpid(), start == 0) for pid, start, _ in scans] == [
        (True, True), (True, True), (False, False), (False, False), (False, False),
        (False, False)]


def _malformed_table_config(tmp_path, last_line="broken 1.0 2.0") -> Path:
    """The fixture config with a copy of its GloVe table that ends with
    ``last_line``, by default a line with one component too few."""
    table = tmp_path / "toy16_bad.txt"
    text = (FIXTURES / "embeddings" / "toy16_glove.txt").read_text(encoding="utf-8")
    table.write_text(text + last_line + "\n", encoding="utf-8")
    config = tmp_path / "bad.cfg"
    config.write_text(f"manifest = {FIXTURES / 'manifest.csv'}\n"
                      f"captions_root = {FIXTURES}\n"
                      f"embedding.toy16 = {table}\n"
                      f"embedding.toy8 = {FIXTURES / 'embeddings' / 'toy8_w2v.txt'}\n"
                      f"out = {tmp_path / 'out'}\n", encoding="utf-8")
    return config


def test_pool_reports_a_malformed_table_as_a_serial_run_does(tmp_path, monkeypatch, capsys):
    config_path = _malformed_table_config(tmp_path)
    config = load_config(config_path)
    log = _spy_on_scan(monkeypatch, tmp_path / "scans.log")
    monkeypatch.setattr(capsift.embeddings, "_BLOCK_CHARS", 1024)
    messages = []
    for workers in (1, 2):
        with pytest.raises(EmbeddingFormatError) as err:
            run_experiment(config, workers=workers)
        messages.append(str(err.value))
    lines = (FIXTURES / "embeddings" / "toy16_glove.txt").read_text(encoding="utf-8").count("\n")
    assert messages == [f"line {lines + 1}: expected 16 components, got 2"] * 2
    assert any(pid != os.getpid() for pid, _, _ in _scans(log))  # the pool scanned

    argv = ["run", "--config", str(config_path)]
    assert main(argv) == EXIT_ERROR  # an embedded call: serial
    serial = capsys.readouterr()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(sys, "argv", ["capsift", *argv])
    assert main() == EXIT_ERROR  # the process's own command line: pooled
    pooled = capsys.readouterr()
    assert pooled.err == serial.err == f"error: {messages[0]}\n"
    assert pooled.out == serial.out == ""


def test_pool_numbers_a_non_numeric_kept_line_as_a_serial_run_does(tmp_path, monkeypatch):
    # "hoax" is in use, so its repeated line is converted; every line of its
    # block has the table's shape, so the block check passes it
    config = load_config(_malformed_table_config(tmp_path, "hoax " + "0.5 " * 15 + "x"))
    monkeypatch.setattr(capsift.embeddings, "_BLOCK_CHARS", 1024)
    uniform = capsift.embeddings._uniform
    passed = []

    def spy(block, dim):
        result = uniform(block, dim)
        passed.append(result and "x\n" in block)
        return result

    monkeypatch.setattr(capsift.embeddings, "_uniform", spy)
    messages = []
    for workers in (1, 2):
        with pytest.raises(EmbeddingFormatError) as err:
            run_experiment(config, workers=workers)
        messages.append(str(err.value))
    lines = (FIXTURES / "embeddings" / "toy16_glove.txt").read_text(encoding="utf-8").count("\n")
    assert messages == [f"line {lines + 1}: non-numeric component "
                        "(could not convert string to float: 'x')"] * 2
    assert any(passed)  # in the serial run's own process


def test_pool_fails_the_run_when_a_worker_dies_in_the_parse(
        fixture_config, monkeypatch, blas_at_two_threads):
    real_scan = capsift.embeddings._scan
    parent = os.getpid()

    def scan(path, start, end, vocab, dim):
        if os.getpid() != parent:
            os._exit(3)
        return real_scan(path, start, end, vocab, dim)

    monkeypatch.setattr(capsift.embeddings, "_scan", scan)
    monkeypatch.setattr(capsift.embeddings, "_BLOCK_CHARS", 1024)
    threads = _blas_threads()
    faulthandler.dump_traceback_later(120, exit=True)  # a hung pool ends the session loudly
    try:
        with pytest.raises(BrokenProcessPool):
            run_experiment(fixture_config, workers=2)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert _blas_threads() == threads


def test_pool_runs_the_cells_of_a_single_unit_in_workers(fixture_config, monkeypatch, tmp_path):
    log = _spy_on_train(monkeypatch, tmp_path / "train.log")
    real_fork_map = capsift.experiment._fork_map
    cell_maps = []

    def fork_map(fn, jobs, workers):
        if fn is capsift.experiment.run_cell:
            cell_maps.append([job[2] for job in jobs])
        return real_fork_map(fn, jobs, workers)

    monkeypatch.setattr(capsift.experiment, "_fork_map", fork_map)
    config = dataclasses.replace(fixture_config, topics=("moon",),
                                 embeddings=fixture_config.embeddings[:1])
    run_experiment(config, workers=2)
    assert cell_maps == [[TASK_THREE_CLASS, TASK_BINARY]]  # one map of 2 cell jobs
    pids = _pids(log)
    assert len(pids) == 14 and os.getpid() not in pids


def test_pool_runs_a_single_cell_in_this_process(fixture_config, monkeypatch, tmp_path):
    log = _spy_on_train(monkeypatch, tmp_path / "train.log")
    config = dataclasses.replace(fixture_config, topics=("moon",), task=TASK_BINARY,
                                 embeddings=fixture_config.embeddings[:1])
    run_experiment(config, workers=2)
    assert _pids(log) == [os.getpid()] * 7


@pytest.mark.parametrize("workers, n_jobs", [(1, 3), (2, 1), (2, 0)])
def test_fork_map_starts_no_process_for_one_worker_or_one_job(monkeypatch, workers, n_jobs):
    def fork():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(os, "fork", fork)
    jobs = [(k,) for k in range(n_jobs)]
    results = capsift.experiment._fork_map(lambda k: (os.getpid(), k * k), jobs, workers)
    assert results == [(os.getpid(), k * k) for k in range(n_jobs)]


def test_fork_map_hands_workers_jobs_that_cannot_be_pickled():
    # jobs carry feature matrices; they reach the workers by fork, and only
    # indices and results are pickled, so a lambda in a job is no obstacle
    parent = os.getpid()
    jobs = [(lambda v: v + 1, 1), (lambda v: v * 10, 2), (lambda v: -v, 3)]
    results = capsift.experiment._fork_map(
        lambda fn, v: (os.getpid() != parent, fn(v)), jobs, 2)
    assert results == [(True, fn(v)) for fn, v in jobs]


@pytest.mark.parametrize("workers", [0, -1, 1.5, "2", True])
def test_run_experiment_rejects_a_bad_worker_count(fixture_config, workers):
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        run_experiment(fixture_config, workers)


# --- report emission ------------------------------------------------------------


def test_emit_report_writes_artifacts(fixture_run, tmp_path):
    written = emit_report(fixture_run, tmp_path)
    names = {p.name for p in written}
    assert names == {"reports.csv", "embedding_scores.csv", "best_models.md",
                     "exclusions.log", "config_resolved.txt"}

    with (tmp_path / "reports.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["topic", "task", "embedding", "model", "f1_weighted",
                       "precision_weighted", "recall_weighted", "accuracy",
                       "auc_roc", "seed"]
    assert len(rows) == 57
    for row in rows[1:]:
        assert repr(float(row[4])) == row[4]  # full-precision repr round trip
        assert (row[8] == "") == (row[1] == TASK_THREE_CLASS)

    with (tmp_path / "embedding_scores.csv").open(encoding="utf-8", newline="") as fh:
        score_rows = list(csv.reader(fh))
    assert score_rows[0] == ["topic", "task", "embedding", "T", "mu"]
    assert len(score_rows) == 25
    for row in score_rows[1:]:
        assert len(row[4].split(".")[1]) == 2  # mu printed to 2 decimals

    markdown = (tmp_path / "best_models.md").read_text(encoding="utf-8")
    assert "## three_class" in markdown and "## binary" in markdown
    assert "AUC" in markdown

    log = (tmp_path / "exclusions.log").read_text(encoding="utf-8")
    for vid in ("vac_short", "vac_nonenglish", "moon_missing", "moon_oov"):
        assert vid in log

    echo = (tmp_path / "config_resolved.txt").read_text(encoding="utf-8")
    assert echo.startswith(f"# fingerprint: {config_fingerprint(fixture_run.config)}\n")
    assert "seed = 2024" in echo


def test_config_echo_names_the_directory_written_and_round_trips(fixture_run, tmp_path):
    emit_report(fixture_run, tmp_path)
    echo_path = tmp_path / "config_resolved.txt"
    echo = echo_path.read_text(encoding="utf-8")
    fingerprint = config_fingerprint(fixture_run.config)
    assert echo == (f"# fingerprint: {fingerprint}\n"
                    + render_config(fixture_run.config) + f"out = {tmp_path}\n")
    loaded = load_config(echo_path)
    assert loaded.out_dir == tmp_path
    assert config_fingerprint(loaded) == fingerprint
    assert render_config(loaded) == render_config(fixture_run.config)


# Outputs written by an earlier release; see generate_expected.py in that directory.
EXPECTED = FIXTURES / "expected"
REPORT_FLOAT_COLUMNS = {"f1_weighted", "precision_weighted", "recall_weighted", "accuracy",
                        "auc_roc"}


def test_fixture_outputs_match_pinned_files(fixture_run, tmp_path):
    emit_report(fixture_run, tmp_path)
    for name in ("embedding_scores.csv", "best_models.md", "exclusions.log"):
        assert (tmp_path / name).read_bytes() == (EXPECTED / name).read_bytes(), name

    def read_rows(path):
        with path.open(encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))

    got, want = read_rows(tmp_path / "reports.csv"), read_rows(EXPECTED / "reports.csv")
    assert got[0] == want[0]
    assert len(got) == len(want)
    # floats may differ in the last bits under another BLAS kernel; text may not
    for got_row, want_row in zip(got[1:], want[1:]):
        assert len(got_row) == len(want_row)
        for column, g, w in zip(want[0], got_row, want_row):
            if column in REPORT_FLOAT_COLUMNS and w:
                assert float(g) == pytest.approx(float(w), rel=1e-12, abs=0), (column, want_row)
            else:
                assert g == w, (column, want_row)


def test_emit_report_is_deterministic(fixture_run, tmp_path):
    emit_report(fixture_run, tmp_path / "a")
    emit_report(fixture_run, tmp_path / "b")
    for name in ("reports.csv", "embedding_scores.csv", "best_models.md"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_emit_report_rejects_unwritable_directory(fixture_run, tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("file, not a directory", encoding="utf-8")
    with pytest.raises(ConfigError, match="output directory"):
        emit_report(fixture_run, blocker / "sub")


# --- command-line interface ------------------------------------------------------


def test_cli_run_full_sweep(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(FIXTURES / "experiment.cfg"),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "fingerprint: " in captured.out
    assert "reports: 56 rows" in captured.out
    assert (out / "reports.csv").exists()
    assert (out / "best_models.md").exists()


def test_cli_run_topic_and_task_overrides(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(FIXTURES / "experiment.cfg"),
                 "--topics", "moon", "--task", "binary",
                 "--seed", "7", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    # 1 topic x 1 task x 2 embeddings x 7 algorithms
    assert "reports: 14 rows" in captured.out
    with (out / "reports.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert {row[0] for row in rows} == {"moon"}
    assert {row[1] for row in rows} == {TASK_BINARY}
    echo = (out / "config_resolved.txt").read_text(encoding="utf-8")
    assert "seed = 7" in echo


def test_cli_run_task_flag_takes_every_config_word(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(FIXTURES / "experiment.cfg"),
                 "--topics", "moon", "--task", "three_class", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "reports: 14 rows" in captured.out
    assert "\ntask = three_class\n" in (out / "config_resolved.txt").read_text(encoding="utf-8")


def test_cli_usage_errors_exit_with_the_error_code(tmp_path, capsys):
    config = str(FIXTURES / "experiment.cfg")
    for argv in (["run"], ["run", "--config", config, "--bogus"], ["frobnicate"]):
        assert main(argv) == EXIT_ERROR, argv
        assert "error:" in capsys.readouterr().err
    code = main(["run", "--config", config, "--seed", "x", "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == "error: seed: expected an integer, got 'x'\n"
    assert not (tmp_path / "out").exists()
    assert main(["run", "--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: capsift run")


def test_cli_run_missing_topic_is_partial(tmp_path, capsys):
    code = main(["run", "--config", str(FIXTURES / "experiment.cfg"),
                 "--topics", "vaccines,flatearth", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == EXIT_PARTIAL
    assert "skipped" in captured.err
    log = (tmp_path / "out" / "exclusions.log").read_text(encoding="utf-8")
    assert "flatearth" in log


def test_cli_run_manifest_without_rows_is_an_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("video_id,topic,label,caption_path,views,likes,dislikes,comments\n",
                        encoding="utf-8")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"manifest = {manifest}\n"
                   f"embedding.toy16 = {FIXTURES / 'embeddings' / 'toy16_glove.txt'}\n",
                   encoding="utf-8")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err == f"error: topics: none given and manifest {manifest} has no rows\n"
    assert not (tmp_path / "out").exists()


def test_cli_run_topic_list_naming_no_topic_is_an_error(tmp_path, capsys):
    for topics in (",", ""):
        code = main(["run", "--config", str(FIXTURES / "experiment.cfg"),
                     "--topics", topics, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.err.startswith("error: topics: names no topic")
    assert not (tmp_path / "out").exists()


def test_cli_run_empty_out_is_an_error(monkeypatch, capsys):
    def no_run(config):
        raise AssertionError(f"ran the experiment into {config.out_dir}")

    monkeypatch.setattr(capsift.cli, "run_experiment", no_run)
    for value in ("", " "):
        code = main(["run", "--config", str(FIXTURES / "experiment.cfg"), "--out", value])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.err.startswith("error: --out: names no directory")


def test_python_m_capsift_runs_the_cli():
    src = Path(capsift.cli.__file__).parents[1]
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-m", "capsift", "run", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: capsift run")


def test_python_m_capsift_run_writes_the_pinned_outputs_without_warnings(tmp_path):
    # Run as its own process, capsift spreads the fixture's 8 cell jobs over
    # the usable CPUs; -W error makes any warning there fail the run.
    root = Path(__file__).parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "capsift", "run",
         "--config", "tests/fixtures/experiment.cfg", "--out", str(tmp_path)],
        cwd=root, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    for name in ("reports.csv", "embedding_scores.csv", "best_models.md", "exclusions.log"):
        assert (tmp_path / name).read_bytes() == (EXPECTED / name).read_bytes(), name


_CLASS_WORDS = {
    -1: ("debunked", "refuted", "factcheck", "evidence", "study", "research"),
    0: ("recipe", "gaming", "tutorial", "travel", "weather", "music"),
    1: ("hoax", "coverup", "conspiracy", "secret", "agenda", "fraud"),
}


def write_tiny_corpus(root: Path, labels_by_topic: dict[str, list[int]]) -> Path:
    """A toy16 corpus whose captions all pass the filters; returns its config."""
    (root / "captions").mkdir()
    rows = ["video_id,topic,label,caption_path,views,likes,dislikes,comments"]
    for topic, labels in labels_by_topic.items():
        for i, label in enumerate(labels):
            words = _CLASS_WORDS[label]
            text = " ".join(f"the {words[(i + j) % len(words)]}" for j in range(60))
            vid = f"{topic}{i:02d}"
            (root / "captions" / f"{vid}.txt").write_text(text, encoding="utf-8")
            rows.append(f"{vid},{topic},{label},captions/{vid}.txt,10,1,0,0")
    (root / "manifest.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = root / "exp.cfg"
    cfg.write_text(
        "manifest = manifest.csv\n"
        f"embedding.toy16 = {FIXTURES / 'embeddings' / 'toy16_glove.txt'}\n"
        f"topics = {','.join(labels_by_topic)}\n"
        "algorithms = nearest_centroid,gaussian_nb\n"
        "out = out\n",
        encoding="utf-8",
    )
    return cfg


def test_cli_run_skips_degenerate_cells(tmp_path, capsys):
    cfg = write_tiny_corpus(tmp_path, {
        "vaccines": [-1] * 6 + [0] * 6,           # no misinformation label
        "moon": [-1] * 6 + [0] * 6 + [1],          # a single-member class
    })
    code = main(["run", "--config", str(cfg)])
    capsys.readouterr()
    assert code == EXIT_PARTIAL
    log = (tmp_path / "out" / "exclusions.log").read_text(encoding="utf-8")
    assert log.splitlines() == [
        "skipped\tvaccines\tbinary\ttoy16\t*\ttraining split has a single class",
        "skipped\tmoon\t*\ttoy16\t*\tclass counts {-1: 6, 0: 6, 1: 1} too small to split",
    ]
    with (tmp_path / "out" / "reports.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    # only vaccines/three_class ran: 2 algorithms + dummy
    assert {(row[0], row[1]) for row in rows} == {("vaccines", TASK_THREE_CLASS)}
    assert len(rows) == 3


def test_exclusions_log_keeps_per_topic_order(tmp_path, capsys):
    # Every topic is loaded before any table is parsed; the log must still
    # read topic by topic, with the first topic's coverage exclusion and
    # cell skip ahead of anything from the later topics.
    cfg = write_tiny_corpus(tmp_path, {
        "vaccines": [-1] * 6 + [0] * 6,           # binary task has one class
        "moon": [-1] * 6 + [0] * 6 + [1] * 6,
    })
    captions = tmp_path / "captions"
    (captions / "vacoov.txt").write_text("the zorblax " * 60, encoding="utf-8")
    (captions / "moonshort.txt").write_text("the hoax", encoding="utf-8")
    (captions / "chem00.txt").write_text("the fraud", encoding="utf-8")
    with (tmp_path / "manifest.csv").open("a", encoding="utf-8") as fh:
        fh.write("vacoov,vaccines,0,captions/vacoov.txt,1,1,0,0\n"
                 "moonmissing,moon,1,captions/moonmissing.txt,1,1,0,0\n"
                 "moonshort,moon,1,captions/moonshort.txt,1,1,0,0\n"
                 "chem00,chemtrail,1,captions/chem00.txt,1,1,0,0\n")
    code = main(["run", "--config", str(cfg), "--topics", "vaccines,moon,911,chemtrail"])
    capsys.readouterr()
    assert code == EXIT_PARTIAL
    log = (tmp_path / "out" / "exclusions.log").read_text(encoding="utf-8")
    assert log.splitlines() == [
        "exclusion\tcoverage\tvacoov\tno in-vocabulary tokens for embedding toy16",
        "exclusion\tload\tmoonmissing\tcaption file missing: captions/moonmissing.txt",
        "exclusion\tfilter\tmoonshort\tcaption below 500 chars (raw length 8)",
        "exclusion\tfilter\tchem00\tcaption below 500 chars (raw length 9)",
        "skipped\tvaccines\tbinary\ttoy16\t*\ttraining split has a single class",
        "skipped\t911\t*\t*\t*\tno manifest rows for topic",
        "skipped\tchemtrail\t*\t*\t*\tno captions left after filtering",
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_skips_follow_unit_then_cell_order(tmp_path, monkeypatch, workers):
    # A unit's skip falls between the cell skips of the units before and
    # after it, at any worker count. "tiny" covers only the words of labels
    # -1 and 0, so moon's label-1 captions drop out of its (moon, tiny) unit,
    # which is then left with one class. gaussian_nb fails in every cell that
    # trains.
    cfg = write_tiny_corpus(tmp_path, {
        "vaccines": [-1] * 6 + [0] * 6,            # binary task has one class
        "moon": [-1] * 6 + [1] * 6,
    })
    words = _CLASS_WORDS[-1] + _CLASS_WORDS[0]
    (tmp_path / "tiny.txt").write_text("".join(
        f"{word} {i % 6 / 6!r} {float(i >= 6)!r} {i / 12!r}\n" for i, word in enumerate(words)),
        encoding="utf-8")
    text = cfg.read_text(encoding="utf-8")
    cfg.write_text(text.replace("embedding.toy16", "embedding.tiny = tiny.txt\nembedding.toy16"),
                   encoding="utf-8")
    _fail_gaussian_nb(monkeypatch)
    result = run_experiment(load_config(cfg), workers=workers)
    nb_failed = "failed: ValueError: degenerate variance"
    single = "training split has a single class"
    expected = [
        ("vaccines", TASK_THREE_CLASS, "tiny", "gaussian_nb", nb_failed),
        ("vaccines", TASK_BINARY, "tiny", "*", single),
        ("vaccines", TASK_THREE_CLASS, "toy16", "gaussian_nb", nb_failed),
        ("vaccines", TASK_BINARY, "toy16", "*", single),
        ("moon", "*", "tiny", "*", "class counts {-1: 6} too small to split"),
        ("moon", TASK_THREE_CLASS, "toy16", "gaussian_nb", nb_failed),
        ("moon", TASK_BINARY, "toy16", "gaussian_nb", nb_failed),
    ]
    assert [dataclasses.astuple(s) for s in result.skipped] == expected
    emit_report(result)
    coverage = "no in-vocabulary tokens for embedding tiny"
    assert (tmp_path / "out" / "exclusions.log").read_bytes() == "".join(
        [f"exclusion\tcoverage\tmoon{i:02d}\t{coverage}\n" for i in range(6, 12)]
        + ["skipped\t" + "\t".join(row) + "\n" for row in expected]).encode("utf-8")


def test_cli_run_bad_config_is_an_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.cfg")])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.err.startswith("error:")


def test_cli_stats_emits_summary_rows(capsys):
    code = main(["stats", "--manifest", str(FIXTURES / "manifest.csv"),
                 "--field", "views"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    rows = list(csv.reader(captured.out.splitlines()))
    assert rows[0] == ["topic", "label", "field", "n", "min", "q1", "median", "q3", "max"]
    assert all(row[2] == "views" for row in rows[1:])
    assert {row[0] for row in rows[1:]} == {"vaccines", "moon"}
    for row in rows[1:]:
        values = [float(v) for v in row[4:]]
        assert values == sorted(values)  # min <= q1 <= median <= q3 <= max


def test_cli_vectorize_exports_rows(tmp_path, capsys):
    out = tmp_path / "vectors.csv"
    code = main(["vectorize",
                 "--embedding", str(FIXTURES / "embeddings" / "toy16_glove.txt"),
                 "--captions", str(FIXTURES), "--manifest", str(FIXTURES / "manifest.csv"),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "1 captions missing" in captured.out
    with out.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["video_id", "label", "coverage"] + [f"v{i}" for i in range(1, 17)]
    assert len(rows) == 141  # 140 vectors + header
    for row in rows[1:]:
        assert row[1] in {"-1", "0", "1"}
        assert 0.0 < float(row[2]) <= 1.0
        vec = [float(v) for v in row[3:]]
        assert len(vec) == 16 and all(np.isfinite(vec))


def test_cli_vectorize_restricted_parse_writes_the_full_parse_csv(tmp_path, capsys, monkeypatch):
    argv = ["vectorize", "--captions", str(FIXTURES), "--manifest", str(FIXTURES / "manifest.csv")]
    vocabs = []

    def spy(path, vocab=None):
        vocabs.append(vocab)
        return parse_embedding_file(path, vocab=vocab)

    def full(path, vocab=None):
        return parse_embedding_file(path)

    for embedding in ("toy16_glove.txt", "toy8_w2v.txt"):
        argv_e = argv + ["--embedding", str(FIXTURES / "embeddings" / embedding)]
        monkeypatch.setattr(capsift.cli, "parse_embedding_file", spy)
        assert main(argv_e + ["--out", str(tmp_path / "restricted.csv")]) == EXIT_OK
        monkeypatch.setattr(capsift.cli, "parse_embedding_file", full)
        assert main(argv_e + ["--out", str(tmp_path / "full.csv")]) == EXIT_OK
        capsys.readouterr()
        assert vocabs.pop() and not vocabs
        restricted = (tmp_path / "restricted.csv").read_bytes()
        assert restricted == (tmp_path / "full.csv").read_bytes()
        assert restricted.count(b"\n") == 141  # 140 vectors + header


def test_cli_vectorize_bad_embedding_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("word one two\nword2 3.0\n", encoding="utf-8")
    code = main(["vectorize", "--embedding", str(bad),
                 "--captions", str(FIXTURES), "--manifest", str(FIXTURES / "manifest.csv"),
                 "--out", str(tmp_path / "v.csv")])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert "error:" in captured.err


def test_cli_non_utf8_embedding_is_an_error(tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"caf\xe9 1.0 2.0\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"manifest = {FIXTURES / 'manifest.csv'}\n"
                   f"captions_root = {FIXTURES}\n"
                   f"embedding.latin1 = {bad}\n", encoding="utf-8")
    for argv in (["run", "--config", str(cfg)],
                 ["vectorize", "--embedding", str(bad), "--captions", str(FIXTURES),
                  "--manifest", str(FIXTURES / "manifest.csv"),
                  "--out", str(tmp_path / "v.csv")]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.err.startswith("error: embedding file is not valid UTF-8")
        assert str(bad) in captured.err


def test_cli_non_utf8_manifest_or_config_is_an_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes((FIXTURES / "manifest.csv").read_bytes() + b"caf\xe9\n")
    body = f"captions_root = {FIXTURES}\nembedding.toy16 = {FIXTURES / 'embeddings' / 'toy16_glove.txt'}\n"
    bad_manifest_cfg = tmp_path / "bad_manifest.cfg"
    bad_manifest_cfg.write_text(f"manifest = {manifest}\n" + body, encoding="utf-8")
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_bytes(b"# caf\xe9\n" + f"manifest = {FIXTURES / 'manifest.csv'}\n{body}".encode())
    cases = (
        (["stats", "--manifest", str(manifest), "--field", "views"], manifest, "manifest"),
        (["run", "--config", str(bad_manifest_cfg)], manifest, "manifest"),
        (["run", "--config", str(bad_cfg)], bad_cfg, "config"),
    )
    for argv, bad, what in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.err.startswith(f"error: {what} is not valid UTF-8: {bad}")
