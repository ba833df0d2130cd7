"""Pretrained word-embedding tables and caption vectorization.

Two text formats are supported: GloVe-style (``word f1 ... fD`` per line, no
header) and word2vec text (a ``vocab_size dim`` header line followed by
GloVe-style lines). Binary word2vec files are not supported; convert them to
text first.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

GLOVE_TEXT = "glove-text"
WORD2VEC_TEXT = "word2vec-text"


class EmbeddingFormatError(Exception):
    """Malformed embedding file; the message locates the offending line."""


@dataclass
class EmbeddingTable:
    """word -> D-dimensional vector map parsed from one embedding file."""

    name: str
    dimension: int
    vectors: dict[str, np.ndarray]
    source_format: str

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def lookup(self, token: str) -> np.ndarray | None:
        """Exact-match lookup; a miss returns None and is not an error."""
        return self.vectors.get(token)


@dataclass(frozen=True)
class CaptionVector:
    """Mean embedding of a caption's in-vocabulary token occurrences.

    ``vector`` is None when no token was in vocabulary; such documents are
    unusable downstream and get excluded with a logged reason.
    """

    vector: np.ndarray | None
    tokens_total: int
    tokens_in_vocab: int
    coverage: float


def _is_word2vec_header(line: str) -> bool:
    parts = line.split()
    if len(parts) != 2:
        return False
    try:
        int(parts[0]), int(parts[1])
    except ValueError:
        return False
    return True


def _parse_vector(parts: list[str], dim: int, line_no: int) -> np.ndarray:
    if len(parts) != dim:
        raise EmbeddingFormatError(
            f"line {line_no}: expected {dim} components, got {len(parts)}"
        )
    try:
        vec = np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:
        raise EmbeddingFormatError(f"line {line_no}: non-numeric component ({exc})") from None
    if not np.all(np.isfinite(vec)):
        raise EmbeddingFormatError(f"line {line_no}: non-finite component")
    return vec


def parse_embedding_file(
    path: str | Path,
    expected_dim: int | None = None,
    name: str | None = None,
    lowercase_keys: bool = False,
) -> EmbeddingTable:
    """Parse a GloVe-text or word2vec-text embedding file.

    The format is auto-detected: a first line of exactly two integers is
    taken as a word2vec header, anything else as GloVe. The dimension is
    inferred from the first data line (or the header) and enforced on every
    line; ``expected_dim``, when given, must agree. With ``lowercase_keys``
    words are lowercased on load, keeping the first occurrence on collision.
    Duplicate words always keep their first occurrence.
    """
    path = Path(path)
    if name is None:
        name = path.stem
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise EmbeddingFormatError(f"cannot read embedding file: {exc}") from None
    if not lines:
        raise EmbeddingFormatError(f"empty embedding file: {path}")

    header_vocab = None
    dim = None
    start = 0
    source_format = GLOVE_TEXT
    if _is_word2vec_header(lines[0]):
        source_format = WORD2VEC_TEXT
        vocab_s, dim_s = lines[0].split()
        header_vocab, dim = int(vocab_s), int(dim_s)
        if header_vocab < 1 or dim < 1:
            raise EmbeddingFormatError(
                f"line 1: invalid word2vec header {lines[0]!r}"
            )
        start = 1

    vectors: dict[str, np.ndarray] = {}
    data_lines = 0
    for line_no, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            raise EmbeddingFormatError(f"line {line_no}: empty line")
        parts = line.split()
        word = parts[0]
        if dim is None:
            dim = len(parts) - 1
            if dim < 1:
                raise EmbeddingFormatError(f"line {line_no}: no vector components")
        vec = _parse_vector(parts[1:], dim, line_no)
        data_lines += 1
        if lowercase_keys:
            word = word.lower()
        if word not in vectors:
            vectors[word] = vec

    if data_lines == 0:
        raise EmbeddingFormatError(f"no vectors in embedding file: {path}")
    if header_vocab is not None and header_vocab != data_lines:
        raise EmbeddingFormatError(
            f"word2vec header declares {header_vocab} words but file has {data_lines}"
        )
    if expected_dim is not None and dim != expected_dim:
        raise EmbeddingFormatError(
            f"embedding dimension is {dim}, expected {expected_dim}"
        )
    return EmbeddingTable(name=name, dimension=dim, vectors=vectors, source_format=source_format)


def write_embedding_file(table: EmbeddingTable, path: str | Path, source_format: str | None = None) -> None:
    """Write a table back to disk in GloVe or word2vec text format.

    Floats are rendered with repr() so a write/parse round trip is
    bit-identical.
    """
    fmt = source_format or table.source_format
    if fmt not in (GLOVE_TEXT, WORD2VEC_TEXT):
        raise ValueError(f"unknown embedding format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == WORD2VEC_TEXT:
            fh.write(f"{len(table.vectors)} {table.dimension}\n")
        for word, vec in table.vectors.items():
            fh.write(word + " " + " ".join(repr(float(v)) for v in vec) + "\n")


def vectorize_caption(table: EmbeddingTable, tokens: tuple[str, ...] | list[str]) -> CaptionVector:
    """Average the vectors of all in-vocabulary token occurrences.

    A token appearing twice counts twice (frequency weighting). Out-of-vocab
    tokens are skipped and counted; with zero hits the vector is absent.
    """
    total = len(tokens)
    acc = np.zeros(table.dimension, dtype=np.float64)
    hits = 0
    for token in tokens:
        vec = table.vectors.get(token)
        if vec is not None:
            acc += vec
            hits += 1
    if hits == 0:
        return CaptionVector(vector=None, tokens_total=total, tokens_in_vocab=0, coverage=0.0)
    return CaptionVector(
        vector=acc / hits,
        tokens_total=total,
        tokens_in_vocab=hits,
        coverage=hits / total,
    )
