"""End-to-end experiment runner.

Reads a flat key=value config, loads and filters every topic's captions, and
parses each embedding table restricted to the words those captions use. Then
for every topic it vectorizes the captions against each embedding,
stratified-splits them, balances the training side, sweeps the classifier
suite on the three-class and binary tasks, and collects evaluation reports
plus top-T embedding scores. All randomness is derived from the master seed
per cell, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classifiers import ALGORITHMS, DEFAULT_HYPERPARAMS, DUMMY, AlgorithmSpec, train
from .corpus import (
    CaptionDocument,
    Exclusion,
    Topic,
    filter_corpus,
    load_corpus,
    load_manifest,
    load_stopwords,
)
from .embeddings import EmbeddingTable, parse_embedding_file, vectorize_caption
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
from .smote import smote

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
_NON_DUMMY = tuple(a for a in ALGORITHMS if a != DUMMY)


class ConfigError(Exception):
    """Invalid experiment configuration (file syntax or field values)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings.

    ``topics`` empty means "every topic present in the manifest".
    ``captions_root`` None means caption paths resolve against the manifest's
    directory. ``hyperparams`` maps algorithm name to override values; any
    parameter not listed keeps its default.
    """

    manifest: Path
    embeddings: tuple[tuple[str, Path], ...]
    captions_root: Path | None = None
    topics: tuple[str, ...] = ()
    task: str = TASK_BOTH
    test_fraction: float = DEFAULT_TEST_FRACTION
    smote_k: int = DEFAULT_SMOTE_K
    algorithms: tuple[str, ...] = _NON_DUMMY
    hyperparams: dict = field(default_factory=dict)
    t_values: tuple[int, ...] = DEFAULT_T_VALUES
    seed: int = 0
    out_dir: Path = Path("capsift-out")

    def __post_init__(self) -> None:
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
                raise ConfigError(f"hyperparameter override: {exc}") from None

    def tasks(self) -> tuple[str, ...]:
        if self.task == TASK_BOTH:
            return (TASK_THREE_CLASS, TASK_BINARY)
        return (self.task,)

    def sweep_algorithms(self) -> tuple[str, ...]:
        """Configured algorithms with the dummy baseline appended last."""
        return tuple(a for a in self.algorithms if a != DUMMY) + (DUMMY,)


def normalize_task(word: str) -> str:
    task = _TASK_ALIASES.get(word.strip().lower())
    if task is None:
        raise ConfigError(f"task must be three|binary|both, got {word!r}")
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


def _split_list(value: str) -> list[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def parse_topics(value: str) -> tuple[str, ...]:
    """A comma-separated topic list. A list that names no topic is an error;
    leaving the list out is how every topic is selected."""
    topics = tuple(_split_list(value))
    if not topics:
        raise ConfigError(f"topics: names no topic, got {value!r}")
    return topics


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a flat ``key = value`` config file.

    Blank lines and lines starting with ``#`` are ignored; a key may appear
    only once. Relative paths resolve against the config file's directory,
    so configs are relocatable.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not valid UTF-8: {path} ({exc})") from None
    base = path.parent

    def resolve(p: str) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base / candidate

    fields: dict = {}
    embeddings: list[tuple[str, Path]] = []
    hyperparams: dict[str, dict[str, float | int]] = {}
    key_lines: dict[str, int] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in key_lines:
            raise ConfigError(
                f"{path}: line {line_no}: key {key!r} repeats line {key_lines[key]}")
        key_lines[key] = line_no
        if key == "manifest":
            fields["manifest"] = resolve(value)
        elif key == "captions_root":
            fields["captions_root"] = resolve(value)
        elif key.startswith("embedding."):
            embeddings.append((key[len("embedding."):], resolve(value)))
        elif key == "topics":
            fields["topics"] = parse_topics(value)
        elif key == "task":
            fields["task"] = normalize_task(value)
        elif key == "test_fraction":
            fields["test_fraction"] = _parse_float(value, key)
        elif key == "smote_k":
            fields["smote_k"] = _parse_int(value, key)
        elif key == "algorithms":
            fields["algorithms"] = tuple(_split_list(value))
        elif key == "t_values":
            fields["t_values"] = tuple(_parse_int(part, key) for part in _split_list(value))
        elif key == "seed":
            fields["seed"] = _parse_int(value, key)
        elif key == "out":
            fields["out_dir"] = resolve(value)
        elif "." in key:
            algo, _, param = key.partition(".")
            if algo not in ALGORITHMS:
                raise ConfigError(f"{path}: line {line_no}: unknown key {key!r}")
            if param not in DEFAULT_HYPERPARAMS[algo]:
                raise ConfigError(
                    f"{path}: line {line_no}: unknown hyperparameter {param!r} for {algo}"
                )
            hyperparams.setdefault(algo, {})[param] = _parse_float(value, key)
        else:
            raise ConfigError(f"{path}: line {line_no}: unknown key {key!r}")
    if "manifest" not in fields:
        raise ConfigError(f"{path}: missing required key 'manifest'")
    if not embeddings:
        raise ConfigError(f"{path}: need at least one 'embedding.<name> = <path>' entry")
    return ExperimentConfig(embeddings=tuple(embeddings), hyperparams=hyperparams, **fields)


def render_config(config: ExperimentConfig, topics: tuple[str, ...], include_out: bool = True) -> str:
    """Canonical text form of a resolved config (echoed to the output
    directory; the fingerprint hashes this text minus the output path)."""
    lines = [f"manifest = {config.manifest}"]
    if config.captions_root is not None:
        lines.append(f"captions_root = {config.captions_root}")
    for name, p in config.embeddings:
        lines.append(f"embedding.{name} = {p}")
    lines.append(f"topics = {','.join(topics)}")
    lines.append(f"task = {config.task}")
    lines.append(f"test_fraction = {repr(config.test_fraction)}")
    lines.append(f"smote_k = {config.smote_k}")
    lines.append(f"algorithms = {','.join(config.sweep_algorithms())}")
    lines.append(f"t_values = {','.join(str(t) for t in config.t_values)}")
    lines.append(f"seed = {config.seed}")
    for algo in sorted(set(config.sweep_algorithms())):
        effective = AlgorithmSpec(algo, config.hyperparams.get(algo, {})).resolved()
        for param in sorted(effective):
            lines.append(f"{algo}.{param} = {effective[param]}")
    if include_out:
        lines.append(f"out = {config.out_dir}")
    return "\n".join(lines) + "\n"


def config_fingerprint(config: ExperimentConfig, topics: tuple[str, ...]) -> str:
    rendered = render_config(config, topics, include_out=False)
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


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
    fingerprint: str
    config: ExperimentConfig
    topics: tuple[str, ...]
    reports: list[EvaluationReport]
    embedding_scores: list[EmbeddingScore]
    best_models: list[EvaluationReport]
    exclusions: list[Exclusion]
    skipped: list[SkippedCell]


def _effective_topics(config: ExperimentConfig, records) -> tuple[str, ...]:
    if config.topics:
        return config.topics
    return tuple(sorted({r.topic.value for r in records}))


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


@dataclass(frozen=True)
class PreparedSplit:
    """Caption vectors of one (topic, embedding) with its seeded train/test
    split, shared by both tasks. ``labels`` are the three-class labels."""

    features: np.ndarray
    labels: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray


def prepare_topic_embedding(
    config: ExperimentConfig, topic: str, name: str, table: EmbeddingTable, kept,
) -> tuple[PreparedSplit | None, list[Exclusion], list[SkippedCell]]:
    """Vectorize one topic's kept captions against one embedding and draw
    the seeded split.

    Returns (prepared, exclusions, skipped). Captions without coverage are
    exclusions. When no caption is covered, or a class has fewer than 2
    members, the (topic, embedding) is skipped and ``prepared`` is None.
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
    return PreparedSplit(np.vstack(rows), y3, train_idx, test_idx), exclusions, []


def run_cell(
    config: ExperimentConfig, topic: str, task: str, name: str, prepared: PreparedSplit,
) -> tuple[list[EvaluationReport], list[SkippedCell]]:
    """Balance one (topic, task, embedding) cell with SMOTE, then train and
    evaluate every configured algorithm on it.

    Returns (reports in sweep order, skipped). A training split with a
    single class, or with a class too small to balance, skips the whole
    cell. A model whose training raises ValueError (degenerate data) is
    skipped alone; any other exception is a programming error and
    propagates.
    """
    y = prepared.labels if task == TASK_THREE_CLASS else binarize_labels(prepared.labels)
    y_train, y_test = y[prepared.train_idx], y[prepared.test_idx]
    train_classes, train_counts = np.unique(y_train, return_counts=True)
    if len(train_classes) < 2:
        return [], [SkippedCell(topic, task, name, "*", "training split has a single class")]
    if train_counts.min() < 2:
        return [], [SkippedCell(
            topic, task, name, "*",
            "a training class has fewer than 2 samples; cannot balance")]
    smote_seed = derive_seed(config.seed, topic, task, name, "__smote__")
    balanced = smote(prepared.features[prepared.train_idx], y_train,
                     k_neighbors=config.smote_k, seed=smote_seed)
    X_test = prepared.features[prepared.test_idx]
    eval_classes = np.unique(y)
    reports: list[EvaluationReport] = []
    skipped: list[SkippedCell] = []
    for algo in config.sweep_algorithms():
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


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run the full sweep described by the config.

    Data-degenerate cells (a topic or class too small to split or balance, a
    single-class binary task, a model whose training raises ValueError) are
    skipped with a logged reason and the run continues. Any other exception
    is a programming error and propagates.
    """
    stopwords = load_stopwords()
    records = load_manifest(config.manifest)
    captions_root = config.captions_root or config.manifest.parent
    topics = _effective_topics(config, records)
    fingerprint = config_fingerprint(config, topics)
    loaded = [load_topic(topic, records, captions_root, stopwords) for topic in topics]
    vocab = {token for kept, _, _ in loaded for doc in kept for token in doc.tokens}
    tables = [
        (name, parse_embedding_file(path, vocab=vocab))
        for name, path in config.embeddings
    ]

    reports: list[EvaluationReport] = []
    exclusions: list[Exclusion] = []
    skipped: list[SkippedCell] = []
    # Each topic's load results are replayed here, so exclusions.log stays in
    # topic order: a topic's coverage exclusions follow its filter ones.
    for topic, (kept, topic_exclusions, topic_skips) in zip(topics, loaded):
        exclusions.extend(topic_exclusions)
        skipped.extend(topic_skips)
        if not kept:
            continue
        for name, table in tables:
            prepared, coverage, skips = prepare_topic_embedding(config, topic, name, table, kept)
            exclusions.extend(coverage)
            skipped.extend(skips)
            if prepared is None:
                continue
            for task in config.tasks():
                cell_reports, skips = run_cell(config, topic, task, name, prepared)
                reports.extend(cell_reports)
                skipped.extend(skips)

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
        fingerprint=fingerprint,
        config=config,
        topics=topics,
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
    config echo.
    """
    out = Path(out_dir) if out_dir is not None else result.config.out_dir
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
        f"# fingerprint: {result.fingerprint}\n"
        + render_config(result.config, result.topics),
        encoding="utf-8",
    )
    return [reports_path, scores_path, best_path, log_path, config_path]
