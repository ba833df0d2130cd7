"""Seeded synthetic inputs for the capsift benchmark.

``generate(name, seed, root)`` writes one workload's manifest, caption files,
embedding tables and experiment config under ``root`` and returns the config
path. The same (name, seed) always gives byte-identical files. capsift sees
nothing but these files.

Words are made of consonant-vowel syllables, so they are purely alphabetic
and survive capsift's cleaning unchanged. Every caption is long enough
(>= 500 raw characters) and stopword-rich enough (~35% stopwords) to pass
``filter_corpus``, so no workload has exclusions.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOPICS = ("vaccines", "911", "chemtrail", "moon", "flatearth")
LABELS = (0, 1, -1)  # neutral, misinformation, debunking
CLASS_MIX = (0.55, 0.28, 0.17)  # share of each label, in LABELS order
DIMENSION = 100

ALL_ALGORITHMS = (
    "knn", "nearest_centroid", "logistic_regression", "linear_svm",
    "gaussian_nb", "random_forest",
)

# Common English stopwords; each is in capsift's bundled list.
STOPWORDS = (
    "the", "and", "of", "to", "a", "in", "is", "that", "it", "was", "for",
    "on", "are", "with", "as", "they", "be", "at", "this", "have", "from",
    "or", "by", "but", "not", "what", "all", "were", "we", "when",
)

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = tuple(c + v for c in _CONSONANTS for v in _VOWELS)

STOPWORD_SHARE = 0.35
CLASS_WORD_SHARE = 0.3  # content tokens drawn from the caption's class words
OOV_SHARE = 0.08  # content tokens absent from every table
CLASS_WORDS = 60
OOV_WORDS = 2000
CAPTION_WORDS = (110, 190)  # inclusive-exclusive token-count range
WORDS_PER_LINE = 14


@dataclass(frozen=True)
class Table:
    name: str
    words: int
    word2vec: bool  # word2vec text (header line) rather than GloVe text


@dataclass(frozen=True)
class Workload:
    name: str
    topics: int
    captions_per_topic: int
    tables: tuple[Table, ...]
    used_words: int  # distinct in-vocabulary content words the corpus draws from
    algorithms: tuple[str, ...]

    def expected_report_rows(self) -> int:
        # topic x task x embedding x (algorithms + dummy baseline)
        return self.topics * 2 * len(self.tables) * (len(self.algorithms) + 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep",
            topics=5,
            captions_per_topic=100,
            tables=(Table("glove", 20_000, False),),
            used_words=3_000,
            algorithms=ALL_ALGORITHMS,
        ),
        Workload(
            name="embed-wide",
            topics=5,
            captions_per_topic=120,
            tables=(Table("glove", 80_000, False), Table("w2v", 40_000, True)),
            used_words=1_800,
            algorithms=("nearest_centroid", "gaussian_nb"),
        ),
        Workload(
            name="class-large",
            topics=1,
            captions_per_topic=2_400,
            tables=(Table("glove", 20_000, False),),
            used_words=3_000,
            algorithms=tuple(a for a in ALL_ALGORITHMS if a != "random_forest"),
        ),
    )
}


def word(index: int) -> str:
    """Three-or-more-syllable pseudo-word for a vocabulary index."""
    n = len(_SYLLABLES)
    parts = []
    for _ in range(3):
        index, r = divmod(index, n)
        parts.append(_SYLLABLES[r])
    while index:
        index, r = divmod(index - 1, n)
        parts.append(_SYLLABLES[r])
    return "".join(parts)


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode("ascii"))])


_SIGNS = np.repeat([1, -1], DIMENSION // 2)


def _number_pool() -> np.ndarray:
    """Row k holds b" " + "%.5f" % v_k, zero-padded; v_k spans [-1.2, 1.2]."""
    values = np.arange(-120_000, 120_001) / 100_000
    strings = [f" {v:.5f}".encode("ascii") for v in values]
    width = max(len(s) for s in strings)
    pool = np.zeros((len(strings), width), dtype=np.uint8)
    for k, s in enumerate(strings):
        pool[k, : len(s)] = np.frombuffer(s, dtype=np.uint8)
    return pool


def write_table(path: Path, table: Table, rng: np.random.Generator, pool: np.ndarray) -> None:
    """Write ``table.words`` words (indices 0..words-1, in seeded order), each
    with a 100-d vector of 5-decimal values, as GloVe or word2vec text."""
    chunk = 10_000  # lines formatted per numpy batch
    order = rng.permutation(table.words)
    centre = (len(pool) - 1) // 2
    with open(path, "wb") as fh:
        if table.word2vec:
            fh.write(f"{table.words} {DIMENSION}\n".encode("ascii"))
        for start in range(0, table.words, chunk):
            ids = order[start:start + chunk]
            names = [word(int(i)).encode("ascii") for i in ids]
            name_width = max(len(b) for b in names)
            name_bytes = np.zeros((len(ids), name_width), dtype=np.uint8)
            for row, b in enumerate(names):
                name_bytes[row, : len(b)] = np.frombuffer(b, dtype=np.uint8)
            # Every line gets exactly half negative components, so line
            # lengths, and with them file sizes, do not depend on the seed.
            steps = np.minimum(np.rint(np.abs(rng.normal(0.0, 0.4, size=(len(ids), DIMENSION)))
                                       * 100_000), centre).astype(np.int64)
            signs = rng.permuted(np.tile(_SIGNS, (len(ids), 1)), axis=1)
            numbers = pool[centre + signs * steps]
            lines = np.concatenate([
                name_bytes,
                numbers.reshape(len(ids), -1),
                np.full((len(ids), 1), ord("\n"), dtype=np.uint8),
            ], axis=1).ravel()
            fh.write(lines[lines != 0].tobytes())


def _caption(rng: np.random.Generator, class_words: np.ndarray, used_words: int,
             oov_base: int) -> str:
    n = int(rng.integers(*CAPTION_WORDS))
    kind = rng.random(n)
    tokens = []
    for u in kind:
        if u < STOPWORD_SHARE:
            tokens.append(STOPWORDS[int(rng.integers(len(STOPWORDS)))])
            continue
        v = rng.random()
        if v < CLASS_WORD_SHARE:
            index = int(class_words[int(rng.integers(len(class_words)))])
        elif v < CLASS_WORD_SHARE + OOV_SHARE:
            index = oov_base + int(rng.integers(OOV_WORDS))
        else:
            # Zipf-like: low indices are frequent.
            index = min(int(rng.pareto(1.2) * 40), used_words - 1)
        tokens.append(word(index))
    lines = [" ".join(tokens[i:i + WORDS_PER_LINE]) for i in range(0, n, WORDS_PER_LINE)]
    return "\n".join(lines) + "\n"


def _labels(rng: np.random.Generator, n: int) -> list[int]:
    counts = [int(round(n * share)) for share in CLASS_MIX[1:]]
    counts.insert(0, n - sum(counts))
    labels = [label for label, c in zip(LABELS, counts) for _ in range(c)]
    return [labels[i] for i in rng.permutation(n)]


def generate(name: str, seed: int, root: Path) -> Path:
    """Write workload ``name`` for ``seed`` under ``root``; return the config path."""
    spec = WORKLOADS[name]
    rng = _rng(name, seed)
    root.mkdir(parents=True, exist_ok=True)
    captions = root / "captions"
    captions.mkdir(exist_ok=True)
    oov_base = max(t.words for t in spec.tables)

    manifest = ["video_id,topic,label,caption_path,views,likes,dislikes,comments"]
    for topic in TOPICS[: spec.topics]:
        # Each class's signal words are a random set, drawn afresh per topic.
        class_words = {
            label: rng.choice(spec.used_words, size=CLASS_WORDS, replace=False)
            for label in LABELS
        }
        for i, label in enumerate(_labels(rng, spec.captions_per_topic)):
            video_id = f"{topic}{i:05d}"
            text = _caption(rng, class_words[label], spec.used_words, oov_base)
            (captions / f"{video_id}.txt").write_text(text, encoding="utf-8")
            views = int(rng.integers(100, 1_000_000))
            manifest.append(
                f"{video_id},{topic},{label},captions/{video_id}.txt,"
                f"{views},{views // 50},{views // 500},{views // 200}"
            )
    (root / "manifest.csv").write_text("\n".join(manifest) + "\n", encoding="utf-8")

    pool = _number_pool()
    config = [
        f"# benchmark workload {name}, seed {seed}",
        "manifest = manifest.csv",
        "captions_root = .",
    ]
    for table in spec.tables:
        filename = f"{table.name}.txt"
        write_table(root / filename, table, rng, pool)
        config.append(f"embedding.{table.name} = {filename}")
    config += [
        f"topics = {','.join(TOPICS[: spec.topics])}",
        "task = both",
        f"algorithms = {','.join(spec.algorithms)}",
        f"seed = {seed}",
        "out = out",
    ]
    path = root / "experiment.cfg"
    path.write_text("\n".join(config) + "\n", encoding="utf-8")
    return path
