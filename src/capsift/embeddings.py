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

import math
import os
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
_NON_ASCII_WHITESPACE = [c for c in _OTHER_WHITESPACE if not c.isascii()]
_BLOCK_CHARS = 1 << 16  # bytes per read
_FIRST_ROWS = 1024


def _uniform(block: str, dim: int) -> bool:
    """True when every line of ``block`` is ``dim + 1`` tokens joined by
    single " " characters and ended by "\n". Each line's ``split()`` then
    has ``dim + 1`` parts, and ``block.split("\n")`` is the block's
    ``splitlines()`` followed by one empty string.

    The check runs on the block's UTF-8 bytes in a few numpy passes. Bytes
    up to " " (" ", "\n" and the other ASCII controls) are separators:
    none may come first or next to another, the last must be "\n", each
    line must hold ``dim`` spaces, and so the separators must number
    ``dim + 1`` per line, which leaves no room for any other control byte.
    Of the other whitespace only non-ASCII characters remain to look for.
    """
    data = np.frombuffer(block.encode(), dtype=np.uint8)
    seps = data <= 32
    if data[-1] != 10 or seps[0] or (seps[1:] & seps[:-1]).any():
        return False
    ends = np.flatnonzero(data == 10)
    if np.count_nonzero(seps) != (dim + 1) * len(ends):
        return False
    # segment k runs from line k - 1's "\n" up to line k's, so holds line k's spaces
    spaces = np.add.reduceat(data == 32, np.concatenate(([0], ends[:-1])), dtype=np.intp)
    if (spaces != dim).any():
        return False
    return len(data) == len(block) or not any(c in block for c in _NON_ASCII_WHITESPACE)


def _blocks(fh, size):
    """Yield the text of the next ``size`` bytes of the binary file ``fh``
    in blocks of whole lines.

    Every block but the last ends with "\n", and "\r\n" and "\r" become
    "\n" as in a text-mode read (so a CRLF table's blocks can pass
    ``_uniform``), and the blocks' ``splitlines()`` together are the whole
    text's. Bytes
    that are not UTF-8 raise UnicodeDecodeError once every whole line
    before the line that holds them was yielded.
    """
    pending: list[bytes] = []
    while size > 0 and (chunk := fh.read(min(_BLOCK_CHARS, size))):
        size -= len(chunk)
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield from _decode(b"".join(pending) + chunk[:cut])
            pending = []
        pending.append(chunk[cut:])
    yield from _decode(b"".join(pending))


def _decode(data: bytes):
    """Yield the text of ``data``, whole lines, as ``_blocks`` describes."""
    try:
        text, error = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        text, error = data[:exc.start].decode("utf-8"), exc
        last = text.splitlines(keepends=True)[-1:]
        if last and last[0].splitlines() == last:  # the line that holds the bad bytes
            text = text[:-len(last[0])]
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if text:
        yield text
    if error is not None:
        raise error


class _LineError(Exception):
    """A malformed line; the scan adds the line number."""


@dataclass
class _Scan:
    """What a scan of one byte range of an embedding file found: its line
    count, its kept words in file order (each once) with their ``matrix``
    rows, and its first error as (line number within the range, text), or
    as (None, text) for an error that is not about one line. ``header`` is
    the word count of a word2vec header, which only a range that starts the
    file can hold."""

    lines: int
    words: list[str]
    matrix: np.ndarray | None
    error: tuple[int | None, str] | None
    dim: int | None
    header: int | None


def _scan(path: Path, start: int, end: int | None, vocab: Container[str] | None,
          dim: int | None) -> _Scan:
    """Scan the bytes ``start:end`` of the file (to its end when ``end`` is
    None), which start a line. A range that starts the file passes ``dim``
    None, and its first line sets it or is a word2vec header; any other
    range passes the dimension its file's first line set. The scan stops at
    the range's first error.

    With a ``vocab`` and a known dimension, each block is first checked
    whole by ``_uniform``. In a block that passes, every line has the right
    token count, so only the lines whose word is in ``vocab`` are split;
    a block that fails is split line by line, as without a ``vocab``."""
    header = None
    # A kept line's vector goes into the next free row; a repeated word does
    # not claim that row, so the following kept line overwrites it.
    index: dict[str, int] = {}
    matrix = None
    line_no = 0
    error = None
    try:
        with open(path, "rb") as fh:
            fh.seek(start)
            for block in _blocks(fh, math.inf if end is None else end - start):
                first = line_no
                if vocab is not None and dim is not None and _uniform(block, dim):
                    # Every line has the right token count, so an unused
                    # line needs no split(): only its word is looked at.
                    lines = block.split("\n")
                    lines.pop()
                    todo = [(n, line) for n, line in enumerate(lines, first + 1)
                            if line[:line.find(" ")].lower() in vocab]
                else:
                    lines = block.splitlines()
                    todo = enumerate(lines, first + 1)
                for line_no, line in todo:
                    parts = line.split()
                    if dim is None and _is_word2vec_header(parts):
                        header, dim = int(parts[0]), int(parts[1])
                        if header < 1 or dim < 1:
                            raise _LineError(f"invalid word2vec header {line!r}")
                        continue
                    if not parts:
                        raise _LineError("empty line")
                    if dim is None:
                        dim = len(parts) - 1
                        if dim < 1:
                            raise _LineError("no vector components")
                    if len(parts) != dim + 1:
                        raise _LineError(f"expected {dim} components, got {len(parts) - 1}")
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
                        raise _LineError(f"non-numeric component ({exc})") from None
                    if not np.isfinite(matrix[row]).all():
                        raise _LineError("non-finite component")
                    index.setdefault(word, row)
                line_no = first + len(lines)
    except _LineError as exc:
        error = (line_no, str(exc))
    except UnicodeDecodeError as exc:
        # A block's bytes are decoded on their own, so exc counts from the
        # block's start; decoding the whole file gives the file position.
        try:
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        error = (None, f"embedding file is not valid UTF-8: {path} ({exc})")
    except OSError as exc:
        error = (None, f"cannot read embedding file: {exc}")
    words = list(index)
    return _Scan(line_no, words, None if matrix is None else matrix[:len(words)],
                 error, dim, header)


def _table(path: Path, scans: list[_Scan]) -> EmbeddingTable:
    """The table of ``path`` from the scans of its ranges in file order.
    The first error in file order is raised, with its line numbered from
    the file's start; a word's first occurrence is kept; the empty-file and
    header-count checks use the summed line counts."""
    index: dict[str, int] = {}
    kept = []
    line_no = 0
    for scan in scans:
        if scan.error is not None:
            line, text = scan.error
            raise EmbeddingFormatError(text if line is None else f"line {line_no + line}: {text}")
        rows = []
        for row, word in enumerate(scan.words):
            if word not in index:
                index[word] = len(index)
                rows.append(row)
        if rows:
            kept.append(scan.matrix[rows])
        line_no += scan.lines
    header = scans[0].header
    if line_no == 0:
        raise EmbeddingFormatError(f"empty embedding file: {path}")
    data_lines = line_no - (header is not None)
    if data_lines == 0:
        raise EmbeddingFormatError(f"no vectors in embedding file: {path}")
    if header is not None and header != data_lines:
        raise EmbeddingFormatError(
            f"word2vec header declares {header} words but file has {data_lines}"
        )
    matrix = np.concatenate(kept) if kept else np.empty((0, scans[0].dim))
    return EmbeddingTable(index=index, matrix=matrix,
                          source_format=GLOVE_TEXT if header is None else WORD2VEC_TEXT)


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
    blocks, so memory follows the kept rows, not the file. The lines of a
    block are checked at once, in a few numpy passes over its bytes, for
    the table's shape (single spaces, the right count); only when a block
    fails is each line ``split()`` to find the malformed one. Of a
    malformed line and bytes that are not UTF-8, the first in the file is
    reported.
    """
    path = Path(path)
    return _table(path, [_scan(path, 0, None, vocab, None)])


def _line_end(fh, pos: int) -> int:
    """The offset just after the first "\n" at or after ``pos``, or the
    end of the file."""
    fh.seek(pos)
    while chunk := fh.read(_BLOCK_CHARS):
        found = chunk.find(b"\n")
        if found >= 0:
            return pos + found + 1
        pos += len(chunk)
    return pos


def _ranges(path: Path, parts: int) -> list[tuple[int, int | None]]:
    """The byte ranges a table is scanned in: its first line, then up to
    ``parts`` ranges of about equal size, each ending just after a "\n".
    A file smaller than one block, or one that cannot be read, is one range."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < _BLOCK_CHARS:
                return [(0, None)]
            head = _line_end(fh, 0)
            cuts = {_line_end(fh, head + (size - head) * k // parts) for k in range(1, parts)}
    except OSError:
        return [(0, None)]
    bounds = [0, *sorted({head, size} | cuts)]
    return list(zip(bounds, bounds[1:]))


def parse_embedding_files(
    paths, vocab: Container[str] | None, parts: int, map_scans,
) -> list[EmbeddingTable]:
    """``[parse_embedding_file(path, vocab) for path in paths]``, computed in
    byte ranges: each table is split after its first line into up to
    ``parts`` ranges of whole lines (see ``_ranges``). This process scans
    every first line, which sets the table's dimension, and then
    ``map_scans(_scan, jobs)`` must return ``[_scan(*job) for job in jobs]``
    for the other ranges of every table, say from a pool of processes. The
    error raised is the one the serial parses would raise first."""
    plans, jobs = [], []
    for path in map(Path, paths):
        (start, end), *rest = _ranges(path, parts)
        head = _scan(path, start, end, vocab, None)
        body = [] if head.error else [(path, a, b, vocab, head.dim) for a, b in rest]
        plans.append((path, head, len(body)))
        jobs += body
    scans = iter(map_scans(_scan, jobs))
    return [_table(path, [head, *(next(scans) for _ in range(n))]) for path, head, n in plans]


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
