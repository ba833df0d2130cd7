"""Pretrained word-embedding tables and caption vectorization.

A table is one (V, D) float64 matrix plus a word -> row index, and a
caption's vector is the mean of the rows its tokens hit. A parse can keep
only the words of a vocabulary, such as the tokens of the captions at hand.

Two text formats are supported: GloVe-style (``word f1 ... fD`` per line, no
header) and word2vec text (a ``vocab_size dim`` header line followed by
GloVe-style lines). Binary word2vec files are not supported; convert them to
text first.
"""

from __future__ import annotations

from collections.abc import Container
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


def _is_word2vec_header(parts: list[str]) -> bool:
    if len(parts) != 2:
        return False
    try:
        int(parts[0]), int(parts[1])
    except ValueError:
        return False
    return True


# Every character but " " and "\n" that str.isspace() accepts: str.split()
# separates tokens at each of them, and str.splitlines() ends lines at some.
_OTHER_WHITESPACE = (
    "\t\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680"
    "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000"
)
_BLOCK_CHARS = 1 << 16
_FIRST_ROWS = 1024


def _single_spaced(text: str) -> bool:
    """True when ``text`` separates tokens only with single " " characters
    and lines only with "\n". A line of such a text that neither starts nor
    ends with a space then has exactly ``line.count(" ") + 1`` tokens."""
    return "  " not in text and not any(c in text for c in _OTHER_WHITESPACE)


def _blocks(fh):
    """Yield the text of ``fh`` in blocks of whole lines.

    Every block but the last ends with "\n". The text-mode read turns "\r"
    into "\n", so every line break is one character, and the blocks'
    ``splitlines()`` together are the whole text's.
    """
    pending: list[str] = []
    while chunk := fh.read(_BLOCK_CHARS):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield "".join(pending) + chunk[:cut]
            pending = []
        pending.append(chunk[cut:])
    tail = "".join(pending)
    if tail:
        yield tail


def parse_embedding_file(
    path: str | Path, vocab: Container[str] | None = None,
) -> EmbeddingTable:
    """Parse a GloVe-text or word2vec-text embedding file.

    The format is auto-detected: a first line of exactly two integers is
    taken as a word2vec header, anything else as GloVe. The dimension is
    inferred from the first data line (or the header) and enforced on every
    line. Words are lowercased on load. A repeated word is still checked,
    but its first occurrence is the one kept.

    ``vocab`` (a set of lowercase words) restricts the table to its words,
    as gensim's ``load_word2vec_format(limit=...)`` restricts it to the first
    ones. The empty-line, component-count and word2vec header-count checks
    still run on every line, but only lines whose word is in ``vocab`` are
    converted to floats and checked for non-numeric and non-finite
    components. With ``vocab`` None every line is kept. The file is read in
    blocks, so memory follows the kept rows, not the file.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            return _parse(fh, path, vocab)
    except OSError as exc:
        raise EmbeddingFormatError(f"cannot read embedding file: {exc}") from None
    except UnicodeDecodeError as exc:
        # A block's bytes are decoded on their own, so exc counts from the
        # block's start; decoding the whole file gives the file position.
        try:
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        raise EmbeddingFormatError(f"embedding file is not valid UTF-8: {path} ({exc})") from None


def _parse(fh, path: Path, vocab: Container[str] | None) -> EmbeddingTable:
    header_vocab = None
    dim = None
    source_format = GLOVE_TEXT
    # A kept line's vector goes into the next free row; a repeated word does
    # not claim that row, so the following kept line overwrites it.
    index: dict[str, int] = {}
    matrix = None
    line_no = 0
    for block in _blocks(fh):
        # An unused line needs only its word and its token count, and in a
        # single-spaced block a space count proves the latter without split().
        fast = vocab is not None and _single_spaced(block)
        for line in block.splitlines():
            line_no += 1
            if fast and line.count(" ") == dim and line[-1] != " ":
                cut = line.find(" ")
                if cut > 0 and line[:cut].lower() not in vocab:
                    continue
            parts = line.split()
            if line_no == 1 and _is_word2vec_header(parts):
                header_vocab, dim = int(parts[0]), int(parts[1])
                if header_vocab < 1 or dim < 1:
                    raise EmbeddingFormatError(f"line 1: invalid word2vec header {line!r}")
                source_format = WORD2VEC_TEXT
                continue
            if not parts:
                raise EmbeddingFormatError(f"line {line_no}: empty line")
            if dim is None:
                dim = len(parts) - 1
                if dim < 1:
                    raise EmbeddingFormatError(f"line {line_no}: no vector components")
            if len(parts) != dim + 1:
                raise EmbeddingFormatError(
                    f"line {line_no}: expected {dim} components, got {len(parts) - 1}"
                )
            word = parts[0].lower()
            if vocab is not None and word not in vocab:
                continue
            row = len(index)
            if matrix is None:
                matrix = np.empty((_FIRST_ROWS, dim))
            elif row == len(matrix):
                matrix = np.concatenate((matrix, np.empty_like(matrix)))
            try:
                matrix[row] = parts[1:]
            except ValueError as exc:
                raise EmbeddingFormatError(
                    f"line {line_no}: non-numeric component ({exc})") from None
            if not np.isfinite(matrix[row]).all():
                raise EmbeddingFormatError(f"line {line_no}: non-finite component")
            index.setdefault(word, row)

    if line_no == 0:
        raise EmbeddingFormatError(f"empty embedding file: {path}")
    data_lines = line_no - (header_vocab is not None)
    if data_lines == 0:
        raise EmbeddingFormatError(f"no vectors in embedding file: {path}")
    if header_vocab is not None and header_vocab != data_lines:
        raise EmbeddingFormatError(
            f"word2vec header declares {header_vocab} words but file has {data_lines}"
        )
    matrix = np.empty((0, dim)) if matrix is None else matrix[:len(index)].copy()
    return EmbeddingTable(index=index, matrix=matrix, source_format=source_format)


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
