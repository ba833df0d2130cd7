"""Pretrained word-embedding tables and caption vectorization.

A table is one (V, D) float64 matrix plus a word -> row index, and a
caption's vector is the mean of the rows its tokens hit.

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
    """Word vectors parsed from one embedding file: ``index`` maps each word
    to its row of the (V, D) float64 ``matrix``."""

    name: str
    index: dict[str, int]
    matrix: np.ndarray
    source_format: str

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def lookup(self, token: str) -> np.ndarray | None:
        """Exact-match lookup; a miss returns None and is not an error."""
        row = self.index.get(token)
        return None if row is None else self.matrix[row]


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


def parse_embedding_file(path: str | Path, name: str | None = None) -> EmbeddingTable:
    """Parse a GloVe-text or word2vec-text embedding file.

    The format is auto-detected: a first line of exactly two integers is
    taken as a word2vec header, anything else as GloVe. The dimension is
    inferred from the first data line (or the header) and enforced on every
    line. Words are lowercased on load. A repeated word is still checked,
    but its first occurrence is the one kept.
    """
    path = Path(path)
    if name is None:
        name = path.stem
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise EmbeddingFormatError(f"cannot read embedding file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise EmbeddingFormatError(f"embedding file is not valid UTF-8: {path} ({exc})") from None
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
    data = lines[start:]
    if not data:
        raise EmbeddingFormatError(f"no vectors in embedding file: {path}")

    # A line's vector goes into the next free row; a repeated word does not
    # claim that row, so the following line overwrites it.
    index: dict[str, int] = {}
    matrix = None if dim is None else np.empty((len(data), dim))
    for line_no, line in enumerate(data, start=start + 1):
        parts = line.split()
        if not parts:
            raise EmbeddingFormatError(f"line {line_no}: empty line")
        if matrix is None:
            dim = len(parts) - 1
            if dim < 1:
                raise EmbeddingFormatError(f"line {line_no}: no vector components")
            matrix = np.empty((len(data), dim))
        if len(parts) != dim + 1:
            raise EmbeddingFormatError(
                f"line {line_no}: expected {dim} components, got {len(parts) - 1}"
            )
        row = len(index)
        try:
            matrix[row] = parts[1:]
        except ValueError as exc:
            raise EmbeddingFormatError(f"line {line_no}: non-numeric component ({exc})") from None
        if not np.isfinite(matrix[row]).all():
            raise EmbeddingFormatError(f"line {line_no}: non-finite component")
        index.setdefault(parts[0].lower(), row)

    if header_vocab is not None and header_vocab != len(data):
        raise EmbeddingFormatError(
            f"word2vec header declares {header_vocab} words but file has {len(data)}"
        )
    return EmbeddingTable(name=name, index=index, matrix=matrix[:len(index)],
                          source_format=source_format)


def write_embedding_file(table: EmbeddingTable, path: str | Path) -> None:
    """Write a table back to disk in its own format (GloVe or word2vec text).

    Floats are rendered with repr() so a write/parse round trip is
    bit-identical.
    """
    if table.source_format not in (GLOVE_TEXT, WORD2VEC_TEXT):
        raise ValueError(f"unknown embedding format {table.source_format!r}")
    with open(path, "w", encoding="utf-8") as fh:
        if table.source_format == WORD2VEC_TEXT:
            fh.write(f"{len(table)} {table.dimension}\n")
        for word, row in table.index.items():
            fh.write(word + " " + " ".join(map(repr, table.matrix[row].tolist())) + "\n")


def vectorize_caption(table: EmbeddingTable, tokens: tuple[str, ...] | list[str]) -> CaptionVector:
    """Average the vectors of all in-vocabulary token occurrences.

    A token appearing twice counts twice (frequency weighting). Out-of-vocab
    tokens are skipped and counted; with zero hits the vector is absent.
    """
    total = len(tokens)
    rows = [table.index[t] for t in tokens if t in table.index]
    if not rows:
        return CaptionVector(vector=None, tokens_total=total, tokens_in_vocab=0, coverage=0.0)
    return CaptionVector(
        vector=table.matrix[rows].sum(axis=0) / len(rows),
        tokens_total=total,
        tokens_in_vocab=len(rows),
        coverage=len(rows) / total,
    )
