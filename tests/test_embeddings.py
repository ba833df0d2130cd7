"""Embedding file parsing, round trips, and caption vectorization."""

import io
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import capsift.embeddings
from helpers import make_table, traced_peak
from capsift.classifiers import ALGORITHMS, AlgorithmSpec, train
from capsift.embeddings import (
    _MAX_COMPONENT,
    _OTHER_WHITESPACE,
    GLOVE_TEXT,
    WORD2VEC_TEXT,
    EmbeddingFormatError,
    _blocks,
    _ranges,
    parse_embedding_file,
    vectorize_caption,
    write_embedding_file,
)
from capsift.oversampling import smote


def write(tmp_path, text, name="emb.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_glove_text(tmp_path):
    path = write(tmp_path, "hello 1.0 2.0 3.0\nworld -1.5 0.25 4.0\n")
    table = parse_embedding_file(path)
    assert table.source_format == GLOVE_TEXT
    assert table.dimension == 3
    assert len(table) == 2
    assert np.array_equal(table.lookup("hello"), [1.0, 2.0, 3.0])
    assert table.lookup("absent") is None
    assert "world" in table and "absent" not in table


def test_parse_word2vec_text(tmp_path):
    path = write(tmp_path, "2 3\nhello 1 2 3\nworld 4 5 6\n")
    table = parse_embedding_file(path)
    assert table.source_format == WORD2VEC_TEXT
    assert table.dimension == 3
    assert len(table) == 2


def test_format_detection_two_integer_first_line(tmp_path):
    # a two-token first line of integers is a word2vec header, not a vector
    path = write(tmp_path, "1 2\nword 0.5 0.5\n")
    assert parse_embedding_file(path).source_format == WORD2VEC_TEXT
    # a 1-D glove file would be 'word 3.0'; that is not two integers... but
    # 'word 3' is ambiguous only if 'word' parses as int, which it cannot
    path2 = write(tmp_path, "word 3.0\nother 4.0\n", "g.txt")
    table = parse_embedding_file(path2)
    assert table.source_format == GLOVE_TEXT
    assert table.dimension == 1


PARSE_ERRORS = [
    ("", None, "empty"),
    ("hello 1.0 2.0\nworld 3.0\n", 2, "expected 2 components"),
    ("hello 1.0 2.0\nworld 3.0 abc\n", 2, "non-numeric"),
    ("hello 1.0 2.0\nworld 3.0 inf\n", 2, "non-finite"),
    ("hello 1.0 2.0\nworld 3.0 nan\n", 2, "non-finite"),
    ("hello 1.0 2.0\nworld 3.0 -1e300\n", 2, "magnitude above 1e+150"),
    ("3 2\nhello 1 2\nworld 3 4\n", None, "header"),
    ("2 2\nhello 1 2\nworld 3 4\nextra 5 6\n", None, "header"),
    ("hello 1.0\n\nworld 2.0\n", 2, "empty line"),
    ("\nhello 1.0\n", 1, "empty line"),
    # a repeated word is still checked, though only its first line is kept
    ("word 1.0 2.0\nword 3.0\n", 2, "expected 2 components"),
]


@pytest.mark.parametrize("text, line_no, fragment", PARSE_ERRORS)
def test_parse_errors_are_located(tmp_path, text, line_no, fragment):
    path = write(tmp_path, text)
    with pytest.raises(EmbeddingFormatError) as err:
        parse_embedding_file(path)
    message = str(err.value)
    assert fragment in message
    if line_no is not None:
        assert f"line {line_no}" in message


def parse_outcome(path, vocab=None):
    """The error message of a parse, or the parsed words and vectors."""
    try:
        table = parse_embedding_file(path, vocab=vocab)
    except EmbeddingFormatError as exc:
        return str(exc)
    return {word: table.lookup(word).tolist() for word in table.index}


@pytest.mark.parametrize("text, line_no, fragment", PARSE_ERRORS)
def test_restricted_parse_errors_are_located(tmp_path, text, line_no, fragment):
    path = write(tmp_path, text)
    words = {line.split()[0].lower() for line in text.splitlines() if line.split()}
    bad = set(text.splitlines()[line_no - 1].split()[:1]) if line_no else set()
    # The offending line's word is used, then unused. Only the numeric
    # checks depend on it: they run on kept lines alone.
    assert parse_outcome(path, words) == parse_outcome(path)
    if fragment in ("non-numeric", "non-finite", "magnitude above 1e+150"):
        assert parse_outcome(path, words - bad) == {"hello": [1.0, 2.0]}
    else:
        assert parse_outcome(path, words - bad) == parse_outcome(path)


def reference_outcome(path, vocab=None):
    """``parse_outcome`` of a parse restricted to ``vocab`` (None: every
    word), computed from the whole text's ``splitlines()`` and one
    ``split()`` per line; only the lines whose word is in ``vocab`` are
    converted and checked for non-numeric, non-finite and out-of-range
    components."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        return f"empty embedding file: {path}"
    first = lines[0].split()
    header = len(first) == 2
    try:
        [int(p) for p in first]
    except ValueError:
        header = False
    dim = int(first[1]) if header else None
    if header and (int(first[0]) < 1 or dim < 1):
        return f"line 1: invalid word2vec header {lines[0]!r}"
    data = lines[1:] if header else lines
    if not data:
        return f"no vectors in embedding file: {path}"
    vectors = {}
    for line_no, line in enumerate(data, start=2 if header else 1):
        parts = line.split()
        if not parts:
            return f"line {line_no}: empty line"
        dim = len(parts) - 1 if dim is None else dim
        if dim < 1:
            return f"line {line_no}: no vector components"
        if len(parts) != dim + 1:
            return f"line {line_no}: expected {dim} components, got {len(parts) - 1}"
        word = parts[0].lower()
        if vocab is not None and word not in vocab:
            continue
        try:
            vector = [float(p) for p in parts[1:]]
        except ValueError as exc:
            return f"line {line_no}: non-numeric component ({exc})"
        if not all(map(math.isfinite, vector)):
            return f"line {line_no}: non-finite component"
        if max(map(abs, vector)) > 1e150:
            return f"line {line_no}: component magnitude above 1e+150"
        vectors.setdefault(word, vector)
    if header and int(first[0]) != len(data):
        return f"word2vec header declares {first[0]} words but file has {len(data)}"
    return vectors


@pytest.mark.parametrize("component", ["x", "0x10", "1_0", "True"])
def test_components_convert_as_float_does(tmp_path, component):
    # the same values as float(), and the same error text
    path = write(tmp_path, f"w 1.0 {component}\n")
    assert parse_outcome(path, {"w"}) == parse_outcome(path) == reference_outcome(path, {"w"})


def assert_restricted_matches_full(path, vocab):
    """The full parse agrees with the reference, and a restricted parse
    fails with its message or keeps exactly its rows of the ``vocab`` words."""
    full = parse_outcome(path)
    assert full == reference_outcome(path)
    restricted = parse_outcome(path, vocab)
    if isinstance(full, str):
        assert restricted == full
    else:
        assert restricted == {w: v for w, v in full.items() if w in vocab}


@pytest.mark.parametrize("line", [
    "w  1",        # right space count, but split() gives one component
    " w 1",
    "w 1 ",
    " w 1 2",      # a leading space, yet two components
    "w 1 2 ",
    "w\t1",
    "w\t1 2",
    "w 1 2\t3",    # right space count, but a tab adds a component
    "w 1\x0b2",    # \x0b ends a line for splitlines()
    "w\xa01 2",    # NBSP separates tokens for split()
    "w 1\xa0",
    "w 1\xa02 3",
    "w\x1f1 2",
    "w 1\x1f",
    "w\x1f1 2 3",
    "w\u30001 2",
    "",
    " ",
    "w 1 2",
])
@pytest.mark.parametrize("header", [False, True])
def test_restricted_parse_agrees_on_unused_whitespace_variants(tmp_path, line, header):
    lines = ["a 1 2", line, "b 3 4"]
    text = (f"{len(lines)} 2\n" if header else "") + "\n".join(lines) + "\n"
    path = write(tmp_path, text)
    assert_restricted_matches_full(path, {"a", "b"})


# Separators that split() or splitlines() break on, or neither ("").
_SEPARATORS = st.sampled_from(["", " ", "  ", "\t", "\x0b", "\xa0", "\x1f", "\x85", "\u2028",
                               "\u3000", "\r", "\r\n", " \x0c "])


@st.composite
def embedding_lines(draw):
    """A word and up to three numbers, joined by any separators, so that
    every component, on whatever line it ends up, is numeric."""
    pieces = [draw(_SEPARATORS), draw(st.sampled_from(["w", "a", "W"]))]
    for _ in range(draw(st.integers(0, 3))):
        pieces += [draw(_SEPARATORS), draw(st.sampled_from(["1", "25", "3"]))]
    pieces.append(draw(_SEPARATORS))
    return "".join(pieces)


@given(st.lists(embedding_lines(), max_size=4), st.booleans(),
       st.sets(st.sampled_from(["a", "w", "w1", "w25", "1"])), st.sampled_from([1, 4, 64]),
       st.sampled_from(["", "\n"]))
def test_restricted_parse_agrees_with_full_parse(lines, header, vocab, block_chars, end):
    lines = ["a 1 2"] + lines + ["b 3 4"]
    text = (f"{len(lines)} 2\n" if header else "") + "\n".join(lines) + end
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "emb.txt"
        path.write_text(text, encoding="utf-8")
        assert_restricted_matches_full(path, vocab)
        # the size of the blocks the file is read in changes nothing
        mp.setattr(capsift.embeddings, "_BLOCK_CHARS", block_chars)
        assert_restricted_matches_full(path, vocab)


def test_other_whitespace_is_every_separator_but_space_and_newline():
    separators = {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()}
    assert set(_OTHER_WHITESPACE) == separators - {" ", "\n"}


def test_restricted_parse_keeps_first_of_repeated_words(tmp_path):
    path = write(tmp_path, "Word 1.0\nother 2.0\nword 3.0\nunused 4.0\nOTHER 5.0\n")
    for vocab in ({"word"}, {"word", "other"}, {"word", "other", "absent"}):
        table = parse_embedding_file(path, vocab=vocab)
        assert list(table.index) == [w for w in ("word", "other") if w in vocab]
        assert table.matrix[:, 0].tolist() == [1.0, 2.0][:len(table)]
        assert table.matrix.shape == (len(table), 1)
    # a repeated kept word is still checked
    bad = write(tmp_path, "word 1.0\nword abc\n", "bad.txt")
    with pytest.raises(EmbeddingFormatError, match="line 2: non-numeric"):
        parse_embedding_file(bad, vocab={"word"})


@pytest.mark.parametrize("fmt", [GLOVE_TEXT, WORD2VEC_TEXT])
def test_restricted_table_follows_the_vocabulary(tmp_path, fmt):
    # A 20k-word table read for a corpus that uses 50 of its words holds
    # 50 rows, not 20k.
    rng = np.random.Generator(np.random.PCG64(11))
    vectors = {f"w{i}": rng.normal(0, 1, 8) for i in range(20_000)}
    path = tmp_path / "big.txt"
    write_embedding_file(make_table(vectors, fmt), path)
    used = [f"w{i}" for i in rng.choice(20_000, size=50, replace=False)]
    table = parse_embedding_file(path, vocab=set(used) | {"oov"})
    assert len(table) == 50
    assert table.matrix.shape == (50, 8) and table.matrix.base is None
    assert sorted(table.index) == sorted(used)
    full = parse_embedding_file(path)
    assert len(full) == 20_000 and full.matrix.shape == (20_000, 8)
    for word in used:
        assert np.array_equal(table.lookup(word), vectors[word])
        assert np.array_equal(full.lookup(word), vectors[word])


def test_non_utf8_file_names_the_file(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"caf\xe9 1.0 2.0\n")
    with pytest.raises(EmbeddingFormatError, match="not valid UTF-8") as err:
        parse_embedding_file(path)
    assert str(path) in str(err.value)


def test_duplicate_words_keep_first(tmp_path):
    path = write(tmp_path, "word 1.0\nword 2.0\nother 3.0\n")
    table = parse_embedding_file(path)
    assert table.lookup("word")[0] == 1.0
    assert table.lookup("other")[0] == 3.0
    # the repeated line claims no row of its own
    assert table.matrix.shape == (2, 1) and table.matrix.dtype == np.float64


def test_lowercase_keys_keep_first(tmp_path):
    path = write(tmp_path, "The 1.0\nthe 2.0\nWorld 3.0\n")
    table = parse_embedding_file(path)
    assert table.lookup("the")[0] == 1.0
    assert table.lookup("world")[0] == 3.0
    assert "The" not in table


def test_round_trip_bit_identical_both_formats(tmp_path):
    rng = np.random.Generator(np.random.PCG64(7))
    vectors = {f"w{i}": rng.normal(0, 3, 12) for i in range(50)}
    for fmt in (GLOVE_TEXT, WORD2VEC_TEXT):
        path = tmp_path / f"{fmt}.txt"
        write_embedding_file(make_table(vectors, fmt), path)
        back = parse_embedding_file(path)
        assert back.source_format == fmt
        assert list(back.index) == list(vectors)
        for word, vec in vectors.items():
            assert np.array_equal(back.lookup(word), vec), word


def test_non_utf8_position_counts_from_file_start(tmp_path):
    path = tmp_path / "late.txt"
    path.write_bytes(b"w 1.0 2.0\n" * 10_000 + b"caf\xe9 1.0 2.0\n")
    for vocab in (None, {"w"}):
        with pytest.raises(EmbeddingFormatError, match="in position 100003:"):
            parse_embedding_file(path, vocab=vocab)


# --- scanning in byte ranges ---------------------------------------------------
# parse_embedding_file(..., parts, map_scans) scans a table's ranges through
# the map it is given; here that map runs them in this process.

RANGE_COUNTS = [1, 2, 3, 7]


def in_process(fn, jobs):
    return [fn(*job) for job in jobs]


def table_outcome(parse):
    """The error message of a parse, or its (word, vector) pairs in row
    order with the table's format and matrix shape."""
    try:
        table = parse()
    except EmbeddingFormatError as exc:
        return str(exc)
    rows = [(word, table.matrix[row].tolist()) for word, row in table.index.items()]
    return rows, table.source_format, table.matrix.shape


def ranged_outcome(path, vocab, parts):
    return table_outcome(lambda: parse_embedding_file(path, vocab, parts, in_process))


def serial_outcome(path, vocab=None):
    return table_outcome(lambda: parse_embedding_file(path, vocab))


@pytest.mark.parametrize("parts", RANGE_COUNTS)
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_missing_file(tmp_path, kind, parts):
    # the first line's scan, in this process, opens the file and reports it
    if kind == "missing":
        path, error = tmp_path / "absent.txt", "[Errno 2] No such file or directory"
    else:
        path, error = tmp_path, "[Errno 21] Is a directory"
    with pytest.raises(EmbeddingFormatError) as err:
        parse_embedding_file(path, {"w"}, parts, in_process)
    assert str(err.value) == f"cannot read embedding file: {error}: '{path}'"


def line_of_range(path, parts, line_no):
    """The index of the range that holds line ``line_no`` (counted by "\n")."""
    offset = sum(len(line) for line in path.read_bytes().splitlines(keepends=True)[:line_no - 1])
    return next(i for i, (start, end) in enumerate(_ranges(path, parts)) if start <= offset < end)


@given(st.lists(embedding_lines(), max_size=4), st.booleans(),
       st.sets(st.sampled_from(["a", "w", "w1", "w25", "1"])), st.sampled_from(["", "\n"]))
def test_range_scan_agrees_with_the_serial_parse(lines, header, vocab, end):
    lines = ["a 1 2"] + lines + ["b 3 4"]
    text = (f"{len(lines)} 2\n" if header else "") + "\n".join(lines) + end
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "emb.txt"
        path.write_text(text, encoding="utf-8")
        # a file of one block or more is split; with one-byte blocks, every file is
        mp.setattr(capsift.embeddings, "_BLOCK_CHARS", 1)
        for restriction in (vocab, None):
            expected = serial_outcome(path, restriction)
            for parts in RANGE_COUNTS:
                assert ranged_outcome(path, restriction, parts) == expected, parts


def numbered_lines(n, dim=2):
    return [f"w{i} " + " ".join(f"{i}.{j}" for j in range(dim)) for i in range(n)]


@pytest.mark.parametrize("parts", RANGE_COUNTS)
def test_ranges_cover_the_file_in_whole_lines(tmp_path, monkeypatch, parts):
    monkeypatch.setattr(capsift.embeddings, "_BLOCK_CHARS", 64)
    path = write(tmp_path, "\n".join(numbered_lines(200)) + "\n")
    ranges = _ranges(path, parts)
    data = path.read_bytes()
    assert ranges[0] == (0, data.index(b"\n") + 1)  # the first line alone
    assert len(ranges) == 1 + parts
    assert [end for _, end in ranges[:-1]] == [start for start, _ in ranges[1:]]
    assert ranges[-1][1] == len(data)
    assert all(data[end - 1:end] == b"\n" for _, end in ranges)
    # in a file smaller than one block, the first line and then the rest
    monkeypatch.setattr(capsift.embeddings, "_BLOCK_CHARS", len(data) + 1)
    assert _ranges(path, parts) == [(0, ranges[0][1]), (ranges[0][1], len(data))]


def test_the_first_line_is_scanned_here_and_the_other_ranges_mapped(tmp_path, monkeypatch):
    monkeypatch.setattr(capsift.embeddings, "_BLOCK_CHARS", 64)
    path = write(tmp_path, "\n".join(numbered_lines(200)) + "\n")
    scanned, mapped = [], []
    real_scan = capsift.embeddings._scan

    def scan(path, start, end, vocab, dim):
        scanned.append((start, end))
        return real_scan(path, start, end, vocab, dim)

    def map_scans(fn, jobs):
        mapped.append([(start, end) for _, start, end, _, _ in jobs])
        return in_process(fn, jobs)

    monkeypatch.setattr(capsift.embeddings, "_scan", scan)
    tables = []
    for parts in (1, 3):
        scanned.clear(), mapped.clear()
        tables.append(parse_embedding_file(path, {"w3", "w150"}, parts, map_scans))
        ranges = _ranges(path, parts)
        assert len(ranges) == 1 + parts
        assert (scanned, mapped) == (ranges, [ranges[1:]])
    one, three = tables
    assert one.index == three.index and one.matrix.tobytes() == three.matrix.tobytes()


@pytest.mark.parametrize("parts", RANGE_COUNTS)
def test_range_scan_keeps_the_first_of_a_word_repeated_across_ranges(
        tmp_path, monkeypatch, parts):
    monkeypatch.setattr(capsift.embeddings, "_BLOCK_CHARS", 64)
    lines = numbered_lines(200)
    lines[1] = "Dup 1.5 2.5"
    lines[-2] = "dup 9.0 9.0"
    path = write(tmp_path, "\n".join(lines) + "\n")
    if parts > 1:
        assert line_of_range(path, parts, 2) < line_of_range(path, parts, 199)
    for vocab in (None, {"dup", "w0", "w150"}):
        outcome = ranged_outcome(path, vocab, parts)
        assert outcome == serial_outcome(path, vocab)
        rows = dict(outcome[0])
        assert rows["dup"] == [1.5, 2.5]
        assert len(outcome[0]) == outcome[2][0] == (199 if vocab is None else 3)


@pytest.mark.parametrize("parts", RANGE_COUNTS)
def test_range_scan_numbers_a_malformed_last_line_from_the_file_start(
        tmp_path, monkeypatch, parts):
    monkeypatch.setattr(capsift.embeddings, "_BLOCK_CHARS", 64)
    for header in ("", "201 2\n"):
        path = write(tmp_path, header + "\n".join(numbered_lines(200) + ["bad 1.0"]) + "\n")
        last = 201 + bool(header)
        assert line_of_range(path, parts, last) == len(_ranges(path, parts)) - 1
        message = f"line {last}: expected 2 components, got 1"
        for vocab in (None, {"w3"}, set()):
            assert ranged_outcome(path, vocab, parts) == message
            assert serial_outcome(path, vocab) == message


@pytest.mark.parametrize("parts", RANGE_COUNTS)
@pytest.mark.parametrize("declared", [199, 201])
def test_range_scan_checks_the_word2vec_header_count(tmp_path, monkeypatch, parts, declared):
    monkeypatch.setattr(capsift.embeddings, "_BLOCK_CHARS", 64)
    path = write(tmp_path, f"{declared} 2\n" + "\n".join(numbered_lines(200)) + "\n")
    message = f"word2vec header declares {declared} words but file has 200"
    for vocab in (None, {"w7"}):
        assert ranged_outcome(path, vocab, parts) == message
        assert serial_outcome(path, vocab) == message
    path.write_text("200 2\n" + "\n".join(numbered_lines(200)) + "\n", encoding="utf-8")
    rows, source_format, _ = ranged_outcome(path, {"w7", "w170"}, parts)
    assert source_format == WORD2VEC_TEXT
    assert rows == [("w7", [7.0, 7.1]), ("w170", [170.0, 170.1])]


@pytest.mark.parametrize("parts", [1, 2])
def test_kept_components_beyond_the_bound_fail_on_their_line(tmp_path, monkeypatch, parts):
    monkeypatch.setattr(capsift.embeddings, "_BLOCK_CHARS", 64)
    lines = numbered_lines(200)
    lines[149] = "w149 1e300 1.0"
    path = write(tmp_path, "\n".join(lines) + "\n")
    assert line_of_range(path, parts, 150) == parts  # the last range, a mapped one
    for vocab in (None, {"w3", "w149"}):
        assert ranged_outcome(path, vocab, parts) == "line 150: component magnitude above 1e+150"
    # as with a non-finite component, an unused line's components are not converted
    assert ranged_outcome(path, {"w3"}, parts)[0] == [("w3", [3.0, 3.1])]
    # the bound itself is kept
    lines[149] = f"w149 {_MAX_COMPONENT!r} {-_MAX_COMPONENT!r}"
    path = write(tmp_path, "\n".join(lines) + "\n")
    assert ranged_outcome(path, {"w149"}, parts)[0] == [("w149", [1e150, -1e150])]


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_features_at_the_component_bound_train_and_score_finitely(algo):
    # Sums of squares of features at the bound (SMOTE's distances, the
    # scalers' variances, centroid distances) stay finite in float64.
    rng = np.random.Generator(np.random.PCG64(13))
    X = rng.choice([-_MAX_COMPONENT, _MAX_COMPONENT], size=(40, 300))
    y = np.repeat([-1, 0, 1], [20, 12, 8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning fails the test
        balanced = smote(X, y, k_neighbors=5, seed=1)
        model = train(AlgorithmSpec(algo, seed=2), balanced.features, balanced.labels)
        scores = model.predict_scores(X)
    assert np.isfinite(balanced.features).all() and np.isfinite(scores).all()


@pytest.mark.parametrize("parts", RANGE_COUNTS)
def test_range_scan_gives_the_whole_file_position_of_bytes_not_utf8(tmp_path, parts):
    path = tmp_path / "late.txt"
    path.write_bytes(b"w 1.0 2.0\n" * 10_000 + b"caf\xe9 1.0 2.0\n")
    assert len(_ranges(path, parts)) == 1 + parts  # 100 kB is more than one block
    for vocab in (None, {"w"}):
        message = ranged_outcome(path, vocab, parts)
        assert message.startswith(f"embedding file is not valid UTF-8: {path} (")
        assert "in position 100003:" in message


@pytest.mark.parametrize("bad, end", [
    (b"\xff", b" 1.0 2.0\n"),          # one byte that starts nothing
    (b"\xe9", b" 1.0 2.0\n"),          # a start byte with no continuation
    (b"\xe2\x82", b" 1.0 2.0\n"),      # two bytes of a three-byte character
    (b"\xed\xa0\x80", b" 1.0 2.0\n"),  # an encoded surrogate
    (b"\xf0\x9f\x98", b""),            # a character cut off by the file's end
])
@pytest.mark.parametrize("block_chars", [64, 1 << 16])
def test_bytes_not_utf8_are_reported_as_a_decode_of_the_whole_file(
        tmp_path, monkeypatch, bad, end, block_chars):
    monkeypatch.setattr(capsift.embeddings, "_BLOCK_CHARS", block_chars)
    path = tmp_path / "late.txt"
    # positions count the file's own bytes, each "\r" of a CRLF table too
    for newline in (b"\n", b"\r\n"):
        path.write_bytes((b"w 1.0 2.0" + newline) * 10_000 + b"caf" + bad
                         + end.replace(b"\n", newline))
        with pytest.raises(UnicodeDecodeError) as whole:
            path.read_bytes().decode("utf-8")
        expected = f"embedding file is not valid UTF-8: {path} ({whole.value})"
        for vocab in (None, {"w"}):
            assert serial_outcome(path, vocab) == expected
            for parts in RANGE_COUNTS:
                assert ranged_outcome(path, vocab, parts) == expected


def wide_table(lines, dim=100):
    """The text of a table of ``lines`` lines w0, w1, ... of ``dim``
    five-decimal components, as wide as the benchmark's tables."""
    rng = np.random.Generator(np.random.PCG64(5))
    rows = [" ".join(f"{v:.5f}" for v in row) for row in rng.normal(0, 1, (50, dim))]
    return "".join(f"w{i} {rows[i % 50]}\n" for i in range(lines))


def test_bytes_not_utf8_near_the_end_of_a_large_table_keep_the_memory_flat(tmp_path):
    # The position is counted from the block's own file offset; nothing
    # reads or decodes the whole file again to find it.
    path = tmp_path / "late.txt"
    path.write_bytes(wide_table(5_000).encode() + b"caf\xff" + b" 0.5" * 100 + b"\n")
    assert path.stat().st_size > 4 << 20
    for parse in (lambda: serial_outcome(path, {"w7"}),
                  lambda: ranged_outcome(path, {"w7"}, 2)):
        outcome = []
        peak = traced_peak(lambda: outcome.append(parse()))
        assert "can't decode byte 0xff in position" in outcome[0]
        assert peak < 10 * capsift.embeddings._BLOCK_CHARS, peak


@pytest.mark.parametrize("block_chars", [1, 4, 1 << 16])
def test_blocks_end_every_line_with_a_newline(monkeypatch, block_chars):
    # as a text-mode read does, so a CRLF table's blocks can pass the block
    # check; the blocks stay bytes, a valid non-ASCII line's too
    monkeypatch.setattr(capsift.embeddings, "_BLOCK_CHARS", block_chars)
    long = b"w" + b" 1" * (1 << 16)  # longer than a block, at every block size
    data = b"a 1\r\nb 2\rc 3\n\r\nd 4\r" + "café 1\r\n".encode() + long + b"\r\ne 5\n"
    blocks = list(_blocks(io.BytesIO(data), len(data)))
    assert b"".join(blocks) == (b"a 1\nb 2\nc 3\n\nd 4\n" + "café 1\n".encode()
                                + long + b"\ne 5\n")
    assert all(block.endswith(b"\n") for block in blocks)
    assert b"".join(_blocks(io.BytesIO(data), 9)) == b"a 1\nb 2\n"  # a range's bytes only


BAD_BYTE_CASES = [
    # (lines, expected error): the bad byte counts at the line that holds it
    ([b"a 1 2", b"caf\xe9 1 2", b"b 3"], "not valid UTF-8"),
    ([b"a 1 2", b"b 3", b"caf\xe9 1 2"], "line 2: expected 2 components, got 1"),
    ([b"a 1 2", b"caf\xe9 3"], "not valid UTF-8"),  # both on one line
    ([b"a 1 2", b"b 3\x0bcaf\xe9 1 2"], "line 2: expected 2 components, got 1"),
    ([b"a 1 2", b"caf\xe9 1 2\x0bb 3"], "not valid UTF-8"),
    ([b"a 1 2", b"b 3 4\rc\xe9 1 2\r\nd 3"], "not valid UTF-8"),
    ([b"a 1 2", b"b 3 4\r\nd 3\rc\xe9 1 2"], "line 3: expected 2 components, got 1"),
    ([b"a 1 2", b"\xe9"], "not valid UTF-8"),
    ([b"a 1 2", b"", b"\xe9"], "line 2: empty line"),
]


@pytest.mark.parametrize("lines, expected", BAD_BYTE_CASES)
@pytest.mark.parametrize("block_chars", [1, 7, 1 << 16])
def test_the_first_of_bad_bytes_and_a_malformed_line_is_reported(
        tmp_path, monkeypatch, lines, expected, block_chars):
    monkeypatch.setattr(capsift.embeddings, "_BLOCK_CHARS", block_chars)
    filler = [b"w%d 0.5 0.5" % i for i in range(30)]
    for before in ([], filler):
        path = tmp_path / "mixed.txt"
        path.write_bytes(b"\n".join(before + lines) + b"\n")
        if expected.startswith("line "):
            line, rest = expected[len("line "):].split(": ", 1)
            expected_here = f"line {int(line) + len(before)}: {rest}"
        else:
            expected_here = f"embedding file is not valid UTF-8: {path}"
        outcomes = [serial_outcome(path)] + [
            ranged_outcome(path, vocab, parts) for parts in RANGE_COUNTS for vocab in (None, {"a"})]
        for outcome in outcomes:
            assert outcome.startswith(expected_here), outcome


# --- the block check ------------------------------------------------------------
# A restricted scan checks each block's line shape at once; in a block that
# passes, each line's word is cut out at the line offsets the check found,
# and only the lines whose word is in use are decoded and split. Any other
# block takes the per-line loop.

_LINE_CHANGES = ["none", "non-numeric", "non-finite", "count", "space", "tab", "nbsp",
                 "non-ascii word", "no final newline"]


# multi-byte words, among them uppercase ones whose lowercase differs in
# length ("İ".lower() is two characters)
NON_ASCII_WORDS = ["Café", "CAFÉ", "İ", "naïve"]


@st.composite
def uniform_tables(draw):
    """The text of a table of well-formed lines of 1-4 components, some of
    whose words are not ASCII, with at most one line changed, and an
    optional word2vec header. An inserted space goes next to another space
    or at either end of the line; a tab or an NBSP goes anywhere. Each of
    the three, like a wrong count, may come with a component dropped,
    which for a space leaves the line's space count right."""
    dim = draw(st.integers(1, 4))
    lines = [[draw(st.sampled_from(["a", "b", "c", "A", *NON_ASCII_WORDS]))]
             + [draw(st.sampled_from(["1", "-2.5", "3e2", "0.125"])) for _ in range(dim)]
             for _ in range(draw(st.integers(1, 30)))]
    change = draw(st.sampled_from(_LINE_CHANGES))
    at = draw(st.integers(0, len(lines) - 1))
    tokens = lines[at]
    col = draw(st.integers(1, dim))
    if change in ("count", "space", "tab", "nbsp") and draw(st.booleans()):
        tokens.pop()
    elif change == "count":
        tokens.append("2")
    elif change == "non-numeric":
        tokens[col] = "1x"
    elif change == "non-finite":
        tokens[col] = draw(st.sampled_from(["inf", "-inf", "nan"]))
    elif change == "non-ascii word":
        tokens[0] = "Café"
    text = [" ".join(tokens) for tokens in lines]
    line = text[at]
    if change == "space":
        cut = draw(st.sampled_from([0, len(line)] + [i for i, c in enumerate(line) if c == " "]))
        text[at] = line[:cut] + " " + line[cut:]
    elif change in ("tab", "nbsp"):
        cut = draw(st.integers(0, len(line)))
        text[at] = line[:cut] + {"tab": "\t", "nbsp": "\xa0"}[change] + line[cut:]
    header = f"{len(lines)} {dim}\n" if draw(st.booleans()) else ""
    return header + "\n".join(text) + ("" if change == "no final newline" else "\n")


@given(uniform_tables(),
       st.sets(st.sampled_from(["a", "b", "x", *{w.lower() for w in NON_ASCII_WORDS}])))
def test_block_check_keeps_the_restricted_parse_exact(text, vocab):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "emb.txt"
        path.write_text(text, encoding="utf-8")
        expected = reference_outcome(path, vocab)
        # one line per block, a few lines per block, and the whole table in one
        for block_chars in (1, 64, 1 << 16):
            mp.setattr(capsift.embeddings, "_BLOCK_CHARS", block_chars)
            assert parse_outcome(path, vocab) == expected
            serial = serial_outcome(path, vocab)
            for parts in RANGE_COUNTS:
                assert ranged_outcome(path, vocab, parts) == serial, (block_chars, parts)


def spaced_line(word, spaces):
    return word + " 1" * spaces + "\n"


@pytest.mark.parametrize("block, dim, uniform", [
    ("w 1 2\nCafé 3 4\n", 2, True),
    ("w 1 2\nx", 2, False),       # no final newline
    ("w  1\n", 2, False),          # two spaces, one component
    (" w 1\n", 2, False),
    ("w 1 \n", 2, False),
    ("w 1\n\nx 2\n", 1, False),   # an empty line
    ("w 1 2 3\nx 1\n", 2, False),  # three and one spaces: the right total
    ("w 1 2\t3\n", 2, False),      # two spaces, three components
    ("w 1 2\x1f3\n", 2, False),
    ("w 1 2\xa03\n", 2, False),
    ("w 1 2\u30003\n", 2, False),
    ("w 1 2\u20283 4\n", 2, False),  # splitlines() ends a line at U+2028
    # the widest one-byte space count, and the narrowest that needs more
    pytest.param(spaced_line("w", 255) * 3, 255, True, id="255,255,255 spaces-255-True"),
    pytest.param(spaced_line("w", 255) + spaced_line("x", 511), 255, False,
                 id="255,511 spaces-255-False"),
    pytest.param(spaced_line("w", 256) * 3, 256, True, id="256,256,256 spaces-256-True"),
    pytest.param(spaced_line("w", 256) + spaced_line("x", 0), 256, False,
                 id="256,0 spaces-256-False"),
    pytest.param(spaced_line("w", 300) + spaced_line("CAFÉ", 300), 300, True,
                 id="300,300 spaces-300-True"),
    pytest.param(spaced_line("w", 300) + spaced_line("x", 299), 300, False,
                 id="300,299 spaces-300-False"),
    # 44 and 556 spaces are each 300 modulo 256, and 600 in all
    pytest.param(spaced_line("w", 44) + spaced_line("x", 556), 300, False,
                 id="44,556 spaces-300-False"),
])
def test_block_check_fails_any_other_line_shape(block, dim, uniform):
    data = block.encode()
    ends = capsift.embeddings._line_ends(data, dim)
    if uniform:
        assert ends.tolist() == [i for i, byte in enumerate(data) if byte == 10]
    else:
        assert ends is None


def test_block_check_counts_wide_lines_exactly(tmp_path, monkeypatch):
    # The first line fills the first block and sets the dimension; the next
    # block holds 44 and 556 spaces, which pass a count taken modulo 256.
    first = "a" + " 1.25" * 300 + "\n"
    path = write(tmp_path, first + spaced_line("b", 44) + spaced_line("c", 556))
    monkeypatch.setattr(capsift.embeddings, "_BLOCK_CHARS", len(first))
    line_ends = capsift.embeddings._line_ends
    checked = []

    def spy(data, dim):
        ends = line_ends(data, dim)
        checked.append((data.count(b"\n"), ends is not None))
        return ends

    monkeypatch.setattr(capsift.embeddings, "_line_ends", spy)
    message = "line 2: expected 300 components, got 44"
    assert parse_outcome(path, {"a", "b", "c"}) == message
    assert checked == [(2, False)]  # both wide lines, in one failing block
    for parts in RANGE_COUNTS:
        assert ranged_outcome(path, {"a"}, parts) == message


def test_block_check_passes_uniform_blocks_and_fails_a_tab(tmp_path, monkeypatch):
    monkeypatch.setattr(capsift.embeddings, "_BLOCK_CHARS", 64)
    line_ends = capsift.embeddings._line_ends
    checked = []

    def spy(data, dim):
        ends = line_ends(data, dim)
        checked.append((data, ends is not None))
        return ends

    monkeypatch.setattr(capsift.embeddings, "_line_ends", spy)
    lines = numbered_lines(40)
    lines[12] = "Café 1.5 2.5"
    lines[30] = "w30\t30.0 30.1"
    path = write(tmp_path, "\n".join(lines) + "\n")
    vocab = {"café", "w3", "w35"}
    assert parse_outcome(path, vocab) == reference_outcome(path, vocab) == {
        "w3": [3.0, 3.1], "café": [1.5, 2.5], "w35": [35.0, 35.1]}
    by_kind = {}
    for data, passed in checked:
        kind = "tab" if b"\t" in data else "non-ascii" if "é".encode() in data else "ascii"
        by_kind.setdefault(kind, set()).add(passed)
    assert by_kind == {"ascii": {True}, "non-ascii": {True}, "tab": {False}}


def test_restricted_parse_memory_stays_flat_as_the_table_grows(tmp_path):
    # The table is read a block at a time and only kept rows are stored, so
    # a 4x larger table must not raise the peak by anything near its size.
    peaks = []
    for n in (40_000, 150_000):  # about 2 MB and 8 MB
        path = write(tmp_path, "\n".join(numbered_lines(n, dim=6)) + "\n", f"t{n}.txt")
        peaks.append(traced_peak(lambda: parse_embedding_file(path, vocab={"w7"})))
    assert peaks[1] - peaks[0] < 1 << 20, peaks


@pytest.mark.parametrize("parts", [1, 2, 4])
def test_restricted_parse_of_a_wide_table_peaks_below_ten_blocks(tmp_path, parts):
    # A block is checked in a few arrays of its own size, with no count
    # cast to a wider type, and each range holds only its kept rows; about
    # 26 blocks of a 100-d table.
    path = write(tmp_path, wide_table(2_000))
    vocab = {f"w{i}" for i in range(0, 2_000, 97)}
    tables = []
    peak = traced_peak(
        lambda: tables.append(parse_embedding_file(path, vocab, parts, in_process)))
    assert len(tables[0]) == len(vocab)
    assert peak < 10 * capsift.embeddings._BLOCK_CHARS, peak


# --- caption vectorization -------------------------------------------------


def toy_table():
    return make_table({
        "moon": [1.0, 0.0],
        "rocket": [0.0, 1.0],
        "cheese": [1.0, 1.0],
    })


def test_vectorize_caption_mean_and_coverage():
    cv = vectorize_caption(toy_table(), ["moon", "rocket", "unknown", "moon"])
    # mean over in-vocab occurrences: (1,0) + (0,1) + (1,0) over 3 hits
    assert np.array_equal(cv.vector, [2.0 / 3.0, 1.0 / 3.0])
    assert cv.tokens_total == 4
    assert cv.tokens_in_vocab == 3
    assert cv.coverage == pytest.approx(0.75)


def test_vectorize_caption_frequency_weighting():
    # the duplicated token shifts the mean toward its vector
    once = vectorize_caption(toy_table(), ["moon", "rocket"])
    twice = vectorize_caption(toy_table(), ["moon", "moon", "rocket"])
    assert once.vector[0] == pytest.approx(0.5)
    assert twice.vector[0] == pytest.approx(2.0 / 3.0)


def test_vectorize_caption_zero_coverage():
    cv = vectorize_caption(toy_table(), ["nothing", "matches"])
    assert cv.vector is None
    assert cv.tokens_in_vocab == 0
    assert cv.coverage == 0.0


def test_vectorize_caption_empty_tokens():
    cv = vectorize_caption(toy_table(), [])
    assert cv.vector is None
    assert cv.tokens_total == 0
    assert cv.coverage == 0.0


def loop_reference(table, tokens):
    """Mean of the in-vocabulary token vectors, added one token at a time."""
    acc = np.zeros(table.dimension, dtype=np.float64)
    hits = 0
    for token in tokens:
        vec = table.lookup(token)
        if vec is not None:
            acc += vec
            hits += 1
    return None if hits == 0 else acc / hits


def test_vectorize_matches_bruteforce_mean():
    rng = np.random.Generator(np.random.PCG64(3))
    # numpy adds the gathered rows in token order when D >= 2, so the mean
    # equals the loop's exactly; a one-column gather is summed pairwise, so
    # a 1-D table agrees only to rounding.
    for dim in (1, 2, 6, 50):
        vocab = {f"w{i}": rng.normal(0, 2, dim) for i in range(30)}
        table = make_table(vocab)
        words = list(vocab)[:20] + ["oov1", "oov2"]
        for length in (0, 1, 2, 9, 17, 200):
            tokens = [words[rng.integers(len(words))] for _ in range(length)]
            cv = vectorize_caption(table, tokens)
            expected = loop_reference(table, tokens)
            if expected is None:
                assert cv.vector is None
            else:
                assert cv.tokens_in_vocab == sum(t in vocab for t in tokens)
                if dim == 1:
                    np.testing.assert_allclose(cv.vector, expected, rtol=0, atol=1e-12)
                else:
                    assert cv.vector.tobytes() == expected.tobytes()
