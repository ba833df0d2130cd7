"""End-to-end experiment runner.

Reads a flat key=value config, loads and filters every topic's captions, and
parses each embedding table restricted to the words those captions use. Then
for every (topic, embedding) unit it vectorizes the captions and draws one
stratified split, and for every (topic, task, embedding) cell it balances
the training side, sweeps the classifier suite and collects evaluation
reports; top-T embedding scores come from those. All randomness is derived
from the master seed per cell, so reruns are byte-identical, and the table
scans and the cells may run in pools of forked workers without changing any
output.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import hashlib
import itertools
import math
import os
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .classifiers import ALGORITHMS, DUMMY, AlgorithmSpec, train
from .corpus import (
    CaptionDocument,
    Exclusion,
    Topic,
    filter_corpus,
    load_corpus,
    load_manifest,
    load_stopwords,
)
from .embeddings import (
    EmbeddingTable, parse_embedding_file, parse_embedding_files, vectorize_caption,
)
from .metrics import (
    REPORT_CSV_HEADER,
    TASK_BINARY,
    TASK_THREE_CLASS,
    EmbeddingScore,
    EvaluationReport,
    embedding_performance,
    evaluate_predictions,
    rank_models,
    report_csv_row,
)
from .oversampling import smote

TASK_BOTH = "both"
_TASK_ALIASES = {
    "three": TASK_THREE_CLASS,
    "three_class": TASK_THREE_CLASS,
    "binary": TASK_BINARY,
    "both": TASK_BOTH,
}

DEFAULT_TEST_FRACTION = 0.15
DEFAULT_SMOTE_K = 5
DEFAULT_T_VALUES = (5, 10, 15)
MAX_EMBEDDINGS = 4

EMBEDDING_SCORES_HEADER = ("topic", "task", "embedding", "T", "mu")

_VALID_TOPICS = tuple(t.value for t in Topic)


class ConfigError(Exception):
    """Invalid experiment configuration (file syntax or field values)."""


def absolute_path(p: str | Path) -> Path:
    """``p`` made absolute, its ``..`` collapsed unless that names another
    file (a ``..`` after a symlinked directory); idempotent."""
    kept = Path(p).absolute()
    collapsed = Path(os.path.abspath(kept))
    return collapsed if os.path.realpath(collapsed) == os.path.realpath(kept) else kept


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings in one canonical form: paths absolute
    (see ``absolute_path``), ``captions_root`` None set to the manifest's
    directory, and the dummy baseline last in ``algorithms``.

    ``topics`` empty means "every topic in the manifest"; ``run_experiment`` fills it in.
    ``hyperparams`` maps algorithm name to overrides; unlisted parameters keep defaults.
    """

    manifest: Path
    embeddings: tuple[tuple[str, Path], ...]
    captions_root: Path | None = None
    topics: tuple[str, ...] = ()
    task: str = TASK_BOTH
    test_fraction: float = DEFAULT_TEST_FRACTION
    smote_k: int = DEFAULT_SMOTE_K
    algorithms: tuple[str, ...] = ALGORITHMS
    hyperparams: dict = field(default_factory=dict)
    t_values: tuple[int, ...] = DEFAULT_T_VALUES
    seed: int = 0
    out_dir: Path = Path("capsift-out")

    def __post_init__(self) -> None:
        for name in ("embeddings", "topics", "algorithms", "t_values"):
            value = getattr(self, name)
            if isinstance(value, str) or not isinstance(value, Iterable):
                raise ConfigError(f"{name} must be a sequence, got {value!r}")
        if not isinstance(self.hyperparams, dict):
            raise ConfigError(f"hyperparams must be a dict, got {self.hyperparams!r}")
        for name, value in (("smote_k", self.smote_k), ("seed", self.seed),
                            *(("t_values", t) for t in self.t_values)):
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not (_is_int(self.test_fraction) or isinstance(self.test_fraction, float)):
            raise ConfigError(f"test_fraction must be a number, got {self.test_fraction!r}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if not 1 <= len(self.embeddings) <= MAX_EMBEDDINGS:
            raise ConfigError(f"need 1..{MAX_EMBEDDINGS} embeddings, got {len(self.embeddings)}")
        names = [name for name, _ in self.embeddings]
        if not all(names):
            raise ConfigError("embedding name must not be empty")
        if len(set(names)) != len(names):
            raise ConfigError("duplicate embedding names")
        if not self.algorithms:
            raise ConfigError("need at least one algorithm")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {algo!r}; valid: {', '.join(ALGORITHMS)}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ConfigError("duplicate algorithms")
        for topic in self.topics:
            if topic not in _VALID_TOPICS:
                raise ConfigError(f"unknown topic {topic!r}; valid: {', '.join(_VALID_TOPICS)}")
        if len(set(self.topics)) != len(self.topics):
            raise ConfigError("duplicate topics")
        if self.task not in (TASK_THREE_CLASS, TASK_BINARY, TASK_BOTH):
            raise ConfigError(f"task must be three|binary|both, got {self.task!r}")
        if self.smote_k < 1:
            raise ConfigError("smote_k must be >= 1")
        if not self.t_values or any(t < 1 for t in self.t_values):
            raise ConfigError("t_values must be positive integers")
        if len(set(self.t_values)) != len(self.t_values):
            raise ConfigError("duplicate t_values")
        for algo, params in self.hyperparams.items():
            try:
                AlgorithmSpec(algo, params)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        # the canonical form; dataclasses.replace runs this again, so it must be idempotent
        canonical = dict(
            manifest=absolute_path(self.manifest),
            captions_root=absolute_path(self.captions_root or Path(self.manifest).parent),
            embeddings=tuple((name, absolute_path(p)) for name, p in self.embeddings),
            algorithms=tuple(a for a in self.algorithms if a != DUMMY) + (DUMMY,),
            out_dir=absolute_path(self.out_dir))
        for name, value in canonical.items():
            object.__setattr__(self, name, value)

    def tasks(self) -> tuple[str, ...]:
        if self.task == TASK_BOTH:
            return (TASK_THREE_CLASS, TASK_BINARY)
        return (self.task,)


def normalize_task(word: str, key: str = "task") -> str:
    task = _TASK_ALIASES.get(word.strip().lower())
    if task is None:
        raise ConfigError(f"{key} must be three|binary|both, got {word!r}")
    return task


def _parse_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _parse_names(value: str, key: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _parse_ints(value: str, key: str) -> tuple[int, ...]:
    return tuple(_parse_int(part, key) for part in _parse_names(value, key))


def parse_topics(value: str, key: str = "topics") -> tuple[str, ...]:
    """A comma-separated topic list. A list that names no topic is an error;
    leaving the list out is how every topic is selected."""
    topics = _parse_names(value, key)
    if not topics:
        raise ConfigError(f"{key}: names no topic, got {value!r}")
    return topics


def _join(values) -> str:
    return ",".join(str(v) for v in values)


# The grammar of every single-value config key, in render order: the key (also
# the ExperimentConfig field) maps to (parse(value, key), render(field value)).
# load_config, render_config and the ``capsift run`` flags all read it.
KEYS = {
    "topics": (parse_topics, _join),
    "task": (normalize_task, str),
    "test_fraction": (_parse_float, repr),
    "smote_k": (_parse_int, str),
    "algorithms": (_parse_names, _join),
    "t_values": (_parse_ints, _join),
    "seed": (_parse_int, str),
}
# Each path key and the ExperimentConfig field it sets.
_PATH_KEYS = {"manifest": "manifest", "captions_root": "captions_root", "out": "out_dir"}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a flat ``key = value`` config file.

    Blank lines and lines starting with ``#`` are ignored; a key may appear
    only once, and a leading UTF-8 byte-order mark is skipped. Relative paths
    resolve against the config file's directory, so configs are relocatable.
    ``ExperimentConfig`` checks each value line as it is read; every error
    names the file, and an error about one line names that line.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not valid UTF-8: {path} ({exc})") from None
    base = path.parent
    fields: dict = {}
    embeddings: list[tuple[str, Path]] = []
    hyperparams: dict[str, dict[str, float]] = {}
    key_lines: dict[str, int] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if "=" not in line:
                raise ConfigError("expected 'key = value'")
            key, _, value = (part.strip() for part in line.partition("="))
            if key in key_lines:
                raise ConfigError(f"key {key!r} repeats line {key_lines[key]}")
            key_lines[key] = line_no
            if key in _PATH_KEYS or key.startswith("embedding."):
                if not value:
                    # Path("") is ".", which would quietly mean the config's directory
                    raise ConfigError(f"key {key!r} names no path")
                value = base / value  # an absolute value replaces base
            if key in _PATH_KEYS:
                setting = {_PATH_KEYS[key]: value}
            elif key.startswith("embedding."):
                embeddings.append((key[len("embedding."):], value))
                setting = {"embeddings": tuple(embeddings)}
            elif key in KEYS:
                setting = {key: KEYS[key][0](value, key)}
            elif "." in key and key.partition(".")[0] in ALGORITHMS:
                algo, _, param = key.partition(".")
                hyperparams.setdefault(algo, {})[param] = _parse_float(value, key)
                setting = {"hyperparams": hyperparams}
            else:
                raise ConfigError(f"unknown key {key!r}")
            # ExperimentConfig checks the value: build one that differs from a
            # valid config only in this field as read so far, so the lines
            # before passed and a failure is this line's
            ExperimentConfig(**{"manifest": path, "embeddings": (("config", path),), **setting})
            fields.update(setting)
        except ConfigError as exc:
            raise ConfigError(f"{path}: line {line_no}: {exc}") from None
    if "manifest" not in fields:
        raise ConfigError(f"{path}: missing required key 'manifest'")
    if not embeddings:
        raise ConfigError(f"{path}: need at least one 'embedding.<name> = <path>' entry")
    return ExperimentConfig(**fields)


def render_config(config: ExperimentConfig) -> str:
    """Canonical text form of a resolved config, without the output path;
    the fingerprint hashes exactly this text."""
    lines = [f"manifest = {config.manifest}", f"captions_root = {config.captions_root}"]
    lines += [f"embedding.{name} = {p}" for name, p in config.embeddings]
    lines += [f"{key} = {render(getattr(config, key))}" for key, (_, render) in KEYS.items()]
    for algo in sorted(config.algorithms):
        effective = AlgorithmSpec(algo, config.hyperparams.get(algo, {})).hyperparams
        for param in sorted(effective):
            lines.append(f"{algo}.{param} = {effective[param]}")
    return "\n".join(lines) + "\n"


def config_fingerprint(config: ExperimentConfig) -> str:
    return hashlib.sha256(render_config(config).encode("utf-8")).hexdigest()


def derive_seed(master: int, *parts: str) -> int:
    """Deterministic 64-bit seed for one pipeline cell.

    Hashing (master, topic, task, embedding, model) makes any single cell
    reproducible in isolation, independent of sweep order.
    """
    message = "|".join([str(master), *parts]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(message).digest()[:8], "big")


def binarize_labels(labels) -> np.ndarray:
    """Collapse {-1, 0, 1} to misinformation-vs-others: 1 -> 1, else 0."""
    arr = np.asarray(labels)
    if arr.size and not np.isin(arr, (-1, 0, 1)).all():
        bad = arr[~np.isin(arr, (-1, 0, 1))][0]
        raise ValueError(f"labels must be in {{-1, 0, 1}}, got {bad}")
    return np.where(arr == 1, 1, 0).astype(np.int64)


def stratified_split(labels, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded per-class split into (train_indices, test_indices).

    Per class the test share is round(n_k * fraction) (half rounds up),
    clamped to [1, n_k - 1] so both sides keep every class. Indices come back
    sorted. A class with fewer than 2 members cannot be split and is an
    error.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    y = np.asarray(labels)
    if y.ndim != 1 or y.size < 2:
        raise ValueError("labels must be a 1-D array with at least 2 entries")
    rng = np.random.Generator(np.random.PCG64(seed))
    train_parts, test_parts = [], []
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        n_k = len(members)
        if n_k < 2:
            raise ValueError(f"class {cls} has only {n_k} sample(s); cannot split")
        n_test = int(math.floor(n_k * test_fraction + 0.5))
        n_test = min(max(n_test, 1), n_k - 1)
        perm = rng.permutation(n_k)
        test_parts.append(members[perm[:n_test]])
        train_parts.append(members[perm[n_test:]])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return train_idx, test_idx


@dataclass(frozen=True)
class SkippedCell:
    """A pipeline cell that could not run; '*' marks a whole-group skip."""

    topic: str
    task: str
    embedding: str
    model: str
    reason: str


@dataclass
class RunResult:
    config: ExperimentConfig
    reports: list[EvaluationReport]
    embedding_scores: list[EmbeddingScore]
    best_models: list[EvaluationReport]
    exclusions: list[Exclusion]
    skipped: list[SkippedCell]


def load_topic(
    topic: str, records, captions_root: Path, stopwords: frozenset[str],
) -> tuple[list[CaptionDocument], list[Exclusion], list[SkippedCell]]:
    """Load and filter one topic's captions.

    Returns (kept, exclusions, skipped): the captions that pass the
    filters, the load and filter exclusions in that order, and a topic-wide
    skip when the manifest has no rows for the topic or no caption is kept.
    """
    topic_records = [r for r in records if r.topic.value == topic]
    if not topic_records:
        return [], [], [SkippedCell(topic, "*", "*", "*", "no manifest rows for topic")]
    documents, load_skips = load_corpus(topic_records, captions_root, stopwords)
    kept, rejections = filter_corpus(documents)
    skipped = [] if kept else [
        SkippedCell(topic, "*", "*", "*", "no captions left after filtering")]
    return kept, load_skips + rejections, skipped


def prepare_unit(
    config: ExperimentConfig, topic: str, name: str, table: EmbeddingTable, kept,
) -> tuple[tuple | None, list[Exclusion], list[SkippedCell]]:
    """Vectorize one topic's kept captions against one embedding and draw
    the (topic, embedding)'s seeded split, which every task shares.

    Returns (data, exclusions, skipped): data is ``run_cell``'s trailing
    arguments (features, labels, train_idx, test_idx), or None when no
    caption is covered or a class has fewer than 2 members, which skips the
    whole (topic, embedding). Captions without coverage are exclusions.
    """
    rows, labels = [], []
    exclusions: list[Exclusion] = []
    for doc in kept:
        cv = vectorize_caption(table, doc.tokens)
        if cv.vector is None:
            exclusions.append(Exclusion(
                video_id=doc.record.video_id,
                stage="coverage",
                reason=f"no in-vocabulary tokens for embedding {name}",
            ))
            continue
        rows.append(cv.vector)
        labels.append(int(doc.record.label))
    if not rows:
        return None, exclusions, [SkippedCell(
            topic, "*", name, "*", "no caption had embedding coverage")]
    y3 = np.array(labels, dtype=np.int64)
    classes3, counts3 = np.unique(y3, return_counts=True)
    if len(classes3) < 2 or counts3.min() < 2:
        return None, exclusions, [SkippedCell(
            topic, "*", name, "*",
            f"class counts {dict(zip(classes3.tolist(), counts3.tolist()))} "
            "too small to split")]
    split_seed = derive_seed(config.seed, topic, "split", name)
    train_idx, test_idx = stratified_split(y3, config.test_fraction, split_seed)
    return (np.vstack(rows), y3, train_idx, test_idx), exclusions, []


def run_cell(
    config: ExperimentConfig, topic: str, task: str, name: str,
    features: np.ndarray, labels: np.ndarray, train_idx: np.ndarray, test_idx: np.ndarray,
) -> tuple[list[EvaluationReport], list[SkippedCell]]:
    """Balance one (topic, task, embedding) cell with SMOTE, then train and
    evaluate every configured algorithm on it (``labels`` are three-class).

    Returns (reports in sweep order, skipped). A training split with a
    single class, or with a class too small to balance, skips the whole
    cell. A model whose training raises ValueError (degenerate data) is
    skipped alone; any other exception is a programming error and
    propagates.
    """
    y = labels if task == TASK_THREE_CLASS else binarize_labels(labels)
    y_train, y_test = y[train_idx], y[test_idx]
    train_classes, train_counts = np.unique(y_train, return_counts=True)
    if len(train_classes) < 2:
        return [], [SkippedCell(topic, task, name, "*", "training split has a single class")]
    if train_counts.min() < 2:
        return [], [SkippedCell(
            topic, task, name, "*",
            "a training class has fewer than 2 samples; cannot balance")]
    smote_seed = derive_seed(config.seed, topic, task, name, "__smote__")
    balanced = smote(features[train_idx], y_train,
                     k_neighbors=config.smote_k, seed=smote_seed)
    X_test = features[test_idx]
    eval_classes = np.unique(y)
    reports: list[EvaluationReport] = []
    skipped: list[SkippedCell] = []
    for algo in config.algorithms:
        model_seed = derive_seed(config.seed, topic, task, name, algo)
        spec = AlgorithmSpec(
            algorithm=algo,
            hyperparams=config.hyperparams.get(algo, {}),
            seed=model_seed,
        )
        try:
            model = train(spec, balanced.features, balanced.labels)
        except ValueError as exc:
            skipped.append(SkippedCell(
                topic, task, name, algo, f"failed: {type(exc).__name__}: {exc}"))
            continue
        scores = model.predict_scores(X_test)
        y_pred = model.classes[np.argmax(scores, axis=1)]  # as TrainedModel.predict
        positive = None
        if task == TASK_BINARY:
            positive = scores[:, int(np.flatnonzero(model.classes == 1)[0])]
        reports.append(evaluate_predictions(
            topic, task, name, algo, model_seed, y_test, y_pred, eval_classes, positive))
    return reports, skipped


# The (function, jobs) of a pool worker, set by its initializer. A pool
# worker runs nothing else, and this process never sets it.
_pool_work: tuple | None = None


def _start_worker(fn, jobs: list) -> None:
    global _pool_work
    _pool_work = (fn, jobs)


def _run_job(index: int):
    fn, jobs = _pool_work
    return fn(*jobs[index])


def _fork_map(fn, jobs: list, workers: int) -> list:
    """``[fn(*job) for job in jobs]``: in this process when ``workers`` is 1
    or there are fewer than 2 jobs, else in a pool of
    ``min(workers, len(jobs))`` forked workers. A worker's exception, or
    its death (BrokenProcessPool), is raised here."""
    if workers == 1 or len(jobs) < 2:
        return [fn(*job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Forked workers inherit the caller's module state, and fn and the jobs
    # through the initializer's arguments, so only job indices and results
    # are pickled. With fork the pool starts every worker before it starts
    # its own thread.
    with ProcessPoolExecutor(min(workers, len(jobs)), multiprocessing.get_context("fork"),
                             initializer=_start_worker, initargs=(fn, jobs)) as executor:
        return list(executor.map(_run_job, range(len(jobs))))


def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    numpy's wheel, or None under another BLAS or build."""
    try:
        from numpy._core import _multiarray_umath

        # dlsym on the extension's handle also searches the libraries it
        # links, the bundled OpenBLAS among them
        blas = ctypes.CDLL(_multiarray_umath.__file__)
        get_threads = blas.scipy_openblas_get_num_threads64_
        set_threads = blas.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread, then restore its count;
    does nothing where ``_openblas_threads`` finds no OpenBLAS.

    Entered once before the first fork, so forked workers inherit the
    count of 1 and never start OpenBLAS's own threads, which would compete
    with the other workers for the cores (and busy-wait after each call).
    Setting the count after a fork restarts those threads, so the workers
    never call the setter.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> RunResult:
    """Run the full sweep described by the config.

    Data-degenerate cells (a topic or class too small to split or balance, a
    single-class binary task, a model whose training raises ValueError) are
    skipped with a logged reason and the run continues. Any other exception
    is a programming error and propagates.

    This process loads every topic, parses the tables, and vectorizes and
    splits every (topic, embedding) unit; the (topic, task, embedding) cells
    are then one list of ``run_cell`` jobs. With ``workers`` > 1 and a
    ``fork`` start method, the tables are scanned in byte ranges by a pool
    of forked processes, and the cells run in another; both results are
    taken in file or job order, so the result, and the error raised, are
    the same at any worker count. Otherwise, and for a map of fewer than 2
    jobs, the work stays in this process. On that pooled path, from before
    the first pool forks until the cell map returns, numpy's bundled
    OpenBLAS runs on one thread in every process, and the caller's thread
    count is restored afterwards, also when the run raises. A serial run
    keeps BLAS's default threads, and under another BLAS nothing is pinned.
    """
    if not _is_int(workers) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    stopwords = load_stopwords()
    records = load_manifest(config.manifest)
    if not config.topics:
        if not records:
            raise ConfigError(f"topics: none given and manifest {config.manifest} has no rows")
        config = replace(config, topics=tuple(sorted({r.topic.value for r in records})))
    loaded = [load_topic(t, records, config.captions_root, stopwords) for t in config.topics]
    vocab = {token for kept, _, _ in loaded for doc in kept for token in doc.tokens}
    if workers > 1:
        import multiprocessing  # here, so a serial run and its load prefix never pay for it

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    names, paths = zip(*config.embeddings)
    with _one_blas_thread() if workers > 1 else contextlib.nullcontext():
        if workers > 1:
            parsed = parse_embedding_files(
                paths, vocab, workers, functools.partial(_fork_map, workers=workers))
        else:
            parsed = [parse_embedding_file(path, vocab=vocab) for path in paths]

        # Each topic, then each of its (topic, embedding) units, is replayed as
        # (exclusions, skips, number of cell jobs), so exclusions.log stays in
        # topic order and every skip follows those of the units before it.
        jobs, replay = [], []
        for topic, (kept, topic_exclusions, topic_skips) in zip(config.topics, loaded):
            replay.append((topic_exclusions, topic_skips, 0))
            for name, table in zip(names, parsed) if kept else ():
                data, unit_exclusions, unit_skips = prepare_unit(config, topic, name, table, kept)
                cells = [] if data is None else [
                    (config, topic, task, name, *data) for task in config.tasks()]
                replay.append((unit_exclusions, unit_skips, len(cells)))
                jobs += cells
        results = iter(_fork_map(run_cell, jobs, workers))
    reports: list[EvaluationReport] = []
    exclusions: list[Exclusion] = []
    skipped: list[SkippedCell] = []
    for group_exclusions, group_skips, n_cells in replay:
        exclusions += group_exclusions
        skipped += group_skips
        for cell_reports, cell_skips in itertools.islice(results, n_cells):
            reports += cell_reports
            skipped += cell_skips

    reports.sort(key=lambda r: (r.topic, r.task, r.embedding, r.model))
    pool = [r for r in reports if r.model != DUMMY]
    scores = [s for t in config.t_values for s in embedding_performance(pool, t)] if pool else []
    scores.sort(key=lambda s: (s.topic, s.task, s.embedding, s.top_t))
    best_models = [
        rank_models(list(group))[0]
        for _, group in itertools.groupby(pool, key=lambda r: (r.topic, r.task))
    ]
    best_models.sort(key=lambda r: (r.task, r.topic))
    return RunResult(
        config=config,
        reports=reports,
        embedding_scores=scores,
        best_models=best_models,
        exclusions=exclusions,
        skipped=skipped,
    )


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _best_models_markdown(result: RunResult) -> str:
    lines = ["# Best models by weighted F1", ""]
    for task in (TASK_THREE_CLASS, TASK_BINARY):
        rows = [r for r in result.best_models if r.task == task]
        if not rows:
            continue
        lines.append(f"## {task}")
        lines.append("")
        header = ["topic", "model", "embedding", "F1", "precision", "recall", "accuracy"]
        if task == TASK_BINARY:
            header.append("AUC")
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for r in rows:
            cells = [
                r.topic,
                r.model,
                r.embedding,
                f"{r.f1_weighted:.2f}",
                f"{r.precision_weighted:.2f}",
                f"{r.recall_weighted:.2f}",
                f"{r.accuracy:.2f}",
            ]
            if task == TASK_BINARY:
                cells.append(f"{r.auc_roc:.2f}")
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    return "\n".join(lines) + "\n"


def emit_report(result: RunResult, out_dir: str | Path | None = None) -> list[Path]:
    """Write run artifacts into the output directory and return their paths.

    reports.csv (full float precision), embedding_scores.csv (mu to 2
    decimals), best_models.md (2 decimals), exclusions.log and the resolved
    config echo, whose ``out`` line names the directory written here.
    """
    out = absolute_path(out_dir) if out_dir is not None else result.config.out_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None

    reports_path = out / "reports.csv"
    _write_csv(reports_path, REPORT_CSV_HEADER, [report_csv_row(r) for r in result.reports])
    scores_path = out / "embedding_scores.csv"
    _write_csv(scores_path, EMBEDDING_SCORES_HEADER, [
        (s.topic, s.task, s.embedding, str(s.top_t), f"{s.mu:.2f}")
        for s in result.embedding_scores
    ])
    best_path = out / "best_models.md"
    best_path.write_text(_best_models_markdown(result), encoding="utf-8")

    log_path = out / "exclusions.log"
    log_lines = [
        f"exclusion\t{e.stage}\t{e.video_id}\t{e.reason}" for e in result.exclusions
    ] + [
        f"skipped\t{s.topic}\t{s.task}\t{s.embedding}\t{s.model}\t{s.reason}"
        for s in result.skipped
    ]
    log_path.write_text("".join(line + "\n" for line in log_lines), encoding="utf-8")

    config_path = out / "config_resolved.txt"
    config_path.write_text(
        f"# fingerprint: {config_fingerprint(result.config)}\n"
        + render_config(result.config) + f"out = {out}\n",
        encoding="utf-8",
    )
    return [reports_path, scores_path, best_path, log_path, config_path]
