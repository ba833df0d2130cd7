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

import itertools
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
_NON_ASCII_WHITESPACE = [c.encode() for c in _OTHER_WHITESPACE if not c.isascii()]
_BLOCK_CHARS = 1 << 16  # bytes per read
# The features are means of table rows, and SMOTE's neighbour distances, the
# scalers' variances and the centroid distances sum squares of them over up
# to hundreds of components: at this bound those sums stay finite in float64.
_MAX_COMPONENT = 1e150


def _line_ends(data: bytes, dim: int) -> np.ndarray | None:
    """The offsets of the "\n" bytes of the UTF-8 block ``data`` when every
    line of it is ``dim + 1`` tokens joined by single " " characters and
    ended by "\n", else None. Each line's ``split()`` then has ``dim + 1``
    parts, its word runs up to its first " ", and the lines are the
    block's text's ``splitlines()``.

    The check runs in a few numpy passes. Bytes up to " " (" ", "\n" and
    the other ASCII controls) are separators: none may come first or next
    to another, the last must be "\n", they must number ``dim + 1`` per
    line, and each line must hold ``dim`` spaces, which leaves no room for
    any other control byte. Of the other whitespace only non-ASCII
    characters remain to look for; in UTF-8 their bytes occur only where
    they do.

    Below 256 components the spaces are counted per line in one byte, so
    numpy casts nothing to a wider type. A line whose count reads ``dim``
    holds ``dim + 256·j`` spaces for some j >= 0. The separators, the
    "\n"s among them, number ``dim + 1`` per line, so the spaces number at
    most ``dim`` per line in all; every j is then 0, and the count exact.
    """
    array = np.frombuffer(data, dtype=np.uint8)
    seps = array <= 32
    if array[-1] != 10 or seps[0] or (seps[1:] & seps[:-1]).any():
        return None
    ends = np.flatnonzero(array == 10)
    if np.count_nonzero(seps) != (dim + 1) * len(ends):
        return None
    # segment k runs from line k - 1's "\n" up to line k's, so holds line k's spaces
    segments = np.concatenate(([0], ends[:-1]))
    spaces = array == 32
    if dim < 256:
        counts = np.add.reduceat(spaces.view(np.uint8), segments, dtype=np.uint8)
    else:
        counts = np.add.reduceat(spaces, segments, dtype=np.intp)
    if (counts != dim).any():
        return None
    if not data.isascii() and any(c in data for c in _NON_ASCII_WHITESPACE):
        return None
    return ends


def _blocks(fh, size: int):
    """Yield the next ``size`` bytes of the binary file ``fh``, checked as
    UTF-8, in blocks of whole lines that stay bytes: a read of
    ``_BLOCK_CHARS`` bytes, finished by a ``readline`` of the rest of its
    last line within the ``size`` bytes.

    Every block but the last ends with "\n"; "\r\n" and "\r" become "\n"
    as in a text-mode read (so a CRLF table's blocks can pass
    ``_line_ends``), and the decoded blocks' ``splitlines()`` together are
    the whole text's. Bytes that are not UTF-8 raise ``_NotUtf8`` once every
    whole line before the line that holds them was yielded.
    """
    offset = fh.tell()  # of the block's first byte in the file
    while size > 0 and (data := fh.read(min(_BLOCK_CHARS, size))):
        if not data.endswith(b"\n"):
            data += fh.readline(size - len(data))
        size -= len(data)
        yield from _checked(data, offset)
        offset += len(data)


class _NotUtf8(Exception):
    """Bytes that are not UTF-8. The text is that of the UnicodeDecodeError
    a decode of the whole file raises."""


def _checked(data: bytes, offset: int):
    """Yield ``data``, whole lines, as ``_blocks`` describes; ``data``
    starts ``offset`` bytes into the file, at a line's start. Only a block
    that is not ASCII is decoded, once, to check it, and only then are line
    ends replaced, so an error's positions are the file's. When the bytes
    before it are UTF-8, a decode of the whole file fails at the same bytes
    as ``data``'s, for the same reason, ``offset`` bytes later; when they
    are not, an earlier block or range reports them first."""
    lines, error = data, None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lines, error = data[:exc.start], exc
            last = lines.decode("utf-8").splitlines(keepends=True)[-1:]
            if last and last[0].splitlines() == last:  # the line that holds the bad bytes
                lines = lines[:-len(last[0].encode())]
    if b"\r" in lines:
        lines = lines.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if lines:
        yield lines
    if error is not None:
        # UnicodeDecodeError's own wording, its positions counted from the file's start
        start, end = offset + error.start, offset + error.end
        where = (f"byte 0x{data[error.start]:02x} in position {start}" if end - start == 1
                 else f"bytes in position {start}-{end - 1}")
        raise _NotUtf8(f"'{error.encoding}' codec can't decode {where}: {error.reason}")


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


def _scan(path: Path, start: int, end: int, vocab: Container[str] | None,
          dim: int | None) -> _Scan:
    """Scan the bytes ``start:end`` of the file, a range of ``_ranges``.
    The first range, the file's first line, passes ``dim`` None, and that
    line sets it or is a word2vec header; every other range passes the
    dimension the first one set. The scan stops at the range's first error.

    Blocks come as bytes. With a ``vocab`` and a known dimension, each is
    first checked whole by ``_line_ends``, which counts each line's spaces
    in one byte below 256 components and returns the offsets of the
    lines' ends. In a block that passes, every line has the right token
    count, so each line's word alone is cut out at those offsets (up to
    its first " "), decoded and lowercased, and only the lines whose word
    is in ``vocab`` are cut out, decoded and split; no string is made of
    any other line. Any other block is decoded and split line by line, so
    its errors and line numbers are those of a per-line scan. A word's
    first vector is kept, and the kept ones are stacked when the scan ends."""
    header = None
    kept: dict[str, np.ndarray] = {}
    line_no = 0
    error = None
    try:
        with open(path, "rb") as fh:
            fh.seek(start)
            for block in _blocks(fh, end - start):
                first = line_no
                ends = _line_ends(block, dim) if vocab is not None and dim is not None else None
                if ends is not None:
                    # Every line has the right token count, so an unused
                    # line needs no split(): only its word is looked at.
                    starts = [0, *(ends[:-1] + 1).tolist()]
                    find = block.find
                    todo = [(n, block[a:b].decode())
                            for n, (a, b) in enumerate(zip(starts, ends.tolist()), first + 1)
                            if block[a:find(b" ", a)].decode().lower() in vocab]
                    lines = len(starts)
                else:
                    split = block.decode().splitlines()
                    todo = enumerate(split, first + 1)
                    lines = len(split)
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
                    try:
                        vector = np.array(parts[1:], dtype=np.float64)
                    except ValueError as exc:
                        raise _LineError(f"non-numeric component ({exc})") from None
                    if not abs(vector).max() <= _MAX_COMPONENT:  # NaN compares False
                        raise _LineError(
                            "non-finite component" if not np.isfinite(vector).all()
                            else f"component magnitude above {_MAX_COMPONENT:g}")
                    kept.setdefault(word, vector)
                line_no = first + lines
    except _LineError as exc:
        error = (line_no, str(exc))
    except _NotUtf8 as exc:
        error = (None, f"embedding file is not valid UTF-8: {path} ({exc})")
    except OSError as exc:
        error = (None, f"cannot read embedding file: {exc}")
    return _Scan(line_no, list(kept), np.array(list(kept.values())) if kept else None,
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
    path: str | Path, vocab: Container[str] | None = None, parts: int = 1,
    map_scans=itertools.starmap,
) -> EmbeddingTable:
    """Parse a GloVe-text or word2vec-text embedding file.

    The format is auto-detected: a first line of exactly two integers is
    taken as a word2vec header, anything else as GloVe. The dimension is
    inferred from the first data line (or the header) and enforced on every
    line. Words are lowercased on load. A repeated word is still checked,
    but its first occurrence is the one kept.

    ``vocab`` (a set of lowercase words) restricts the table to its words,
    as gensim's ``load_word2vec_format(limit=...)`` restricts it to the
    first ones. The empty-line, component-count and word2vec header-count
    checks still run on every line, but only lines whose word is in
    ``vocab`` are converted to floats and checked for non-numeric,
    non-finite and out-of-range components (magnitude above 1e150). With
    ``vocab`` None every line is kept. The file is read in blocks of bytes,
    so memory follows the kept rows, not the file; a block is decoded to
    check it only when it is not ASCII. The lines of a block are checked at
    once, in a few numpy passes over its bytes, for the table's shape
    (single spaces, the right count, each line's spaces counted in one byte
    below 256 components), which also finds each line's end; in a block that
    passes, each line's word alone is cut out at those offsets and decoded,
    and only the lines whose word is in ``vocab`` are decoded and split.
    Only a block that fails (any block when ``vocab`` is None) is decoded
    whole, and each line ``split()`` to find the malformed one. Of a
    malformed line and bytes that are not UTF-8, the first in the file is
    reported, the bytes by their position in the file.

    The file is scanned in byte ranges of whole lines (``_ranges``): its
    first line, scanned here, then the rest, in one range at ``parts`` 1
    and up to ``parts`` ranges otherwise, for which ``map_scans(_scan,
    jobs)`` must return the ``_scan(*job)`` results in job order, say from
    a pool. The table, and the error raised, do not depend on ``parts``.
    """
    path = Path(path)
    (start, end), *rest = _ranges(path, parts)
    head = _scan(path, start, end, vocab, None)
    jobs = [] if head.error else [(path, a, b, vocab, head.dim) for a, b in rest]
    return _table(path, [head, *map_scans(_scan, jobs)])


def _ranges(path: Path, parts: int) -> list[tuple[int, int]]:
    """The byte ranges a table is scanned in: its first line, then the rest
    of the file, as one range when ``parts`` is 1 or the file is smaller
    than one block, else as up to ``parts`` ranges of about equal size.
    Each ends just after a "\n" (found by ``readline``) or at the file's
    end. A file that cannot be read is one empty range, whose scan reports
    the error."""
    try:
        with open(path, "rb") as fh:
            head = len(fh.readline())
            size = os.fstat(fh.fileno()).st_size
            cuts = {size}
            for k in range(1, parts if size >= _BLOCK_CHARS else 1):
                fh.seek(head + (size - head) * k // parts)
                fh.readline()
                cuts.add(fh.tell())
    except OSError:
        return [(0, 0)]
    bounds = [0, head, *sorted(cuts)]
    return list(zip(bounds, bounds[1:]))


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
