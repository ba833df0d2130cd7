"""Caption corpus ingestion: manifest loading, text cleanup, filtering, stats.

The corpus is described by a CSV manifest (one row per video) plus one plain
UTF-8 text file per caption, read as text (a CRLF line end is one
character); a caption path that names no regular file, a directory
included, is a missing caption. Preprocessing reduces each caption to
lowercase ASCII-letter tokens with stopwords removed: every other
character, accented letters included, separates words. It runs as one
``bytes.translate`` over the caption's UTF-8 bytes. Filtering drops
captions that are too short or unlikely to be English.
"""

from __future__ import annotations

import csv
import errno
import io
import itertools
import os
import stat
from dataclasses import dataclass
from enum import Enum, IntEnum
from importlib import resources
from pathlib import Path

import numpy as np

MIN_CAPTION_CHARS = 500
MIN_STOPWORD_RATIO = 0.05

MANIFEST_HEADER = [
    "video_id", "topic", "label", "caption_path",
    "views", "likes", "dislikes", "comments",
]

COUNT_FIELDS = ("views", "likes", "dislikes", "comments")

# Byte tables for a caption's UTF-8 bytes: ASCII letters are kept (or
# lowercased), every other byte becomes a space. Each byte of a non-ASCII
# character, a lone surrogate's included, is at least 0x80, so every
# non-ASCII character separates words.
_LETTERS = bytes(b if chr(b).isascii() and chr(b).isalpha() else 0x20 for b in range(256))
_LOWER_LETTERS = _LETTERS.lower()

# The errors for which ``Path.is_file`` answers False instead of raising
_NOT_A_FILE = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)


class CorpusError(Exception):
    """Unreadable manifest, malformed row, or undecodable caption file."""


class Topic(Enum):
    """Video topics, keyed by their manifest codes."""

    VACCINES = "vaccines"
    NINE_ELEVEN = "911"
    CHEMTRAIL = "chemtrail"
    MOON_LANDING = "moon"
    FLAT_EARTH = "flatearth"


class Label(IntEnum):
    DEBUNKING = -1
    NEUTRAL = 0
    MISINFORMATION = 1


@dataclass(frozen=True)
class VideoRecord:
    """One labeled video from the manifest."""

    video_id: str
    topic: Topic
    label: Label
    caption_path: str
    views: int | None = None
    likes: int | None = None
    dislikes: int | None = None
    comments: int | None = None


@dataclass(frozen=True)
class CaptionDocument:
    """A caption after preprocessing.

    ``stopword_ratio`` is the share of stopword tokens among all tokens
    before removal; it feeds the English-likeness filter.
    """

    record: VideoRecord
    tokens: tuple[str, ...]
    raw_char_count: int
    stopword_ratio: float


@dataclass(frozen=True)
class Exclusion:
    """A document dropped from the pipeline, with the stage and reason."""

    video_id: str
    stage: str  # "load" | "filter" | "coverage"
    reason: str


@dataclass(frozen=True)
class BoxplotSummary:
    topic: Topic
    label: Label
    field: str
    n: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


def load_stopwords() -> frozenset[str]:
    """Load the bundled English stopword list (one lowercase word per line)."""
    text = resources.files("capsift.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


def _parse_count(value: str, column: str, line: int) -> int | None:
    value = value.strip()
    if value == "":
        return None
    try:
        count = int(value)
    except ValueError:
        raise CorpusError(f"manifest line {line}: {column} is not an integer: {value!r}") from None
    if count < 0:
        raise CorpusError(f"manifest line {line}: {column} is negative: {count}")
    return count


def load_manifest(path: str | Path) -> list[VideoRecord]:
    """Read the manifest CSV into VideoRecords.

    A leading UTF-8 byte-order mark is skipped. Raises CorpusError for a
    missing file, invalid UTF-8, a malformed row (reported with its line
    number), or a duplicate video_id.
    """
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"manifest not found: {path}")
    records: list[VideoRecord] = []
    seen: set[str] = set()
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"manifest is not valid UTF-8: {path} ({exc})") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames is None:
        raise CorpusError(f"manifest has no header row: {path}")
    missing = [c for c in MANIFEST_HEADER if c not in reader.fieldnames]
    if missing:
        raise CorpusError(f"manifest missing columns: {', '.join(missing)}")
    for line, row in enumerate(reader, start=2):
        video_id = (row["video_id"] or "").strip()
        if not video_id:
            raise CorpusError(f"manifest line {line}: empty video_id")
        if video_id in seen:
            raise CorpusError(f"manifest line {line}: duplicate video_id {video_id!r}")
        seen.add(video_id)
        try:
            topic = Topic((row["topic"] or "").strip())
        except ValueError:
            raise CorpusError(
                f"manifest line {line}: unknown topic {row['topic']!r}"
            ) from None
        try:
            label = Label(int((row["label"] or "").strip()))
        except ValueError:
            raise CorpusError(
                f"manifest line {line}: unknown label {row['label']!r}"
            ) from None
        caption_path = (row["caption_path"] or "").strip()
        if not caption_path:
            raise CorpusError(f"manifest line {line}: empty caption_path")
        counts = {c: _parse_count(row[c] or "", c, line) for c in COUNT_FIELDS}
        records.append(VideoRecord(video_id, topic, label, caption_path, **counts))
    return records


def load_caption(record: VideoRecord, captions_root: str | Path) -> str | None:
    """Return the caption file content, or None when the file is missing.

    The path is ``captions_root`` and the record's caption path joined as
    given. Missing means what ``Path.is_file`` answers False for: nothing
    there, a path through a non-directory, a symlink loop, or something
    other than a regular file (a directory, a FIFO). A missing file is a
    skip, not an error; any other OSError (say, no permission) raises. The
    file is read as text, so a CRLF or a lone CR line end becomes one
    newline character. Invalid UTF-8 raises CorpusError naming the file.
    """
    path = os.path.join(captions_root, record.caption_path)
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
    except OSError as exc:
        if exc.errno in _NOT_A_FILE:
            return None
        raise
    except ValueError:  # a NUL in the path
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CorpusError(f"caption file is not valid UTF-8: {path} ({exc})") from None


def _clean(raw: str, table: bytes) -> str:
    return raw.encode("utf-8", "surrogatepass").translate(table).decode("ascii")


def _tokenize(raw: str, stopwords: frozenset[str]) -> tuple[tuple[str, ...], float]:
    """The caption's lowercased words minus stopwords, in order, and the
    share of stopwords among all its words (0.0 when it has none)."""
    if not stopwords:
        raise ValueError("stopword set must be nonempty")
    words = _clean(raw, _LOWER_LETTERS).split()
    tokens = tuple(itertools.filterfalse(stopwords.__contains__, words))
    ratio = (len(words) - len(tokens)) / len(words) if words else 0.0
    return tokens, ratio


def preprocess_caption(raw: str, stopwords: frozenset[str]) -> tuple[str, tuple[str, ...], float]:
    """Clean a raw caption and tokenize it.

    Every character other than an ASCII letter (accented letters, digits,
    punctuation, any whitespace) becomes a space and runs of spaces are
    collapsed, so the cleaned text is ASCII words separated by single
    spaces. Tokens are the lowercased words minus stopwords, in original
    order. Returns (cleaned_text, tokens, stopword_ratio).
    """
    tokens, ratio = _tokenize(raw, stopwords)
    return " ".join(_clean(raw, _LETTERS).split()), tokens, ratio


def make_document(record: VideoRecord, raw: str, stopwords: frozenset[str]) -> CaptionDocument:
    tokens, ratio = _tokenize(raw, stopwords)
    return CaptionDocument(
        record=record,
        tokens=tokens,
        raw_char_count=len(raw),
        stopword_ratio=ratio,
    )


def load_corpus(
    records: list[VideoRecord],
    captions_root: str | Path,
    stopwords: frozenset[str],
) -> tuple[list[CaptionDocument], list[Exclusion]]:
    """Load and preprocess captions for all records.

    Records whose caption file is missing are skipped with a logged reason.
    """
    documents: list[CaptionDocument] = []
    skipped: list[Exclusion] = []
    for record in records:
        raw = load_caption(record, captions_root)
        if raw is None:
            skipped.append(Exclusion(
                record.video_id, "load",
                f"caption file missing: {record.caption_path}",
            ))
            continue
        documents.append(make_document(record, raw, stopwords))
    return documents, skipped


def filter_corpus(
    documents: list[CaptionDocument],
) -> tuple[list[CaptionDocument], list[Exclusion]]:
    """Drop short captions and captions unlikely to be English.

    Captions with fewer than ``MIN_CAPTION_CHARS`` raw characters are
    discarded, as are captions whose stopword ratio falls below
    ``MIN_STOPWORD_RATIO`` (a cheap English-likeness proxy). Order of
    retained documents is preserved and every drop is logged.
    """
    retained: list[CaptionDocument] = []
    rejections: list[Exclusion] = []
    for doc in documents:
        if doc.raw_char_count < MIN_CAPTION_CHARS:
            rejections.append(Exclusion(
                doc.record.video_id, "filter",
                f"caption below {MIN_CAPTION_CHARS} chars (raw length {doc.raw_char_count})",
            ))
        elif doc.stopword_ratio < MIN_STOPWORD_RATIO:
            rejections.append(Exclusion(
                doc.record.video_id, "filter",
                f"stopword ratio {doc.stopword_ratio:.3f} below {MIN_STOPWORD_RATIO}"
                " (non-English heuristic)",
            ))
        else:
            retained.append(doc)
    return retained, rejections


def descriptive_stats(records: list[VideoRecord], field: str) -> list[BoxplotSummary]:
    """Five-number summaries of an engagement count, per (topic, label) group.

    Quantiles use linear interpolation between order statistics. Groups with
    no data for the field are omitted; if no record at all carries the field,
    that is an error.
    """
    if field not in COUNT_FIELDS:
        raise ValueError(f"unknown field {field!r}; expected one of {COUNT_FIELDS}")
    groups: dict[tuple[Topic, Label], list[int]] = {}
    for record in records:
        value = getattr(record, field)
        if value is None:
            continue
        groups.setdefault((record.topic, record.label), []).append(value)
    if not groups:
        raise CorpusError(f"field {field!r} is absent from all records")
    summaries = []
    for (topic, label) in sorted(groups, key=lambda k: (k[0].value, int(k[1]))):
        values = np.asarray(groups[(topic, label)], dtype=np.float64)
        lo, q1, med, q3, hi = np.percentile(values, [0, 25, 50, 75, 100])
        summaries.append(BoxplotSummary(
            topic=topic, label=label, field=field, n=len(values),
            minimum=float(lo), q1=float(q1), median=float(med),
            q3=float(q3), maximum=float(hi),
        ))
    return summaries
