"""Embedding file parsing, round trips, and caption vectorization."""

import numpy as np
import pytest

from conftest import make_table
from capsift.embeddings import (
    GLOVE_TEXT,
    WORD2VEC_TEXT,
    EmbeddingFormatError,
    parse_embedding_file,
    vectorize_caption,
    write_embedding_file,
)


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


@pytest.mark.parametrize("text, line_no, fragment", [
    ("", None, "empty"),
    ("hello 1.0 2.0\nworld 3.0\n", 2, "expected 2 components"),
    ("hello 1.0 2.0\nworld 3.0 abc\n", 2, "non-numeric"),
    ("hello 1.0 2.0\nworld 3.0 inf\n", 2, "non-finite"),
    ("hello 1.0 2.0\nworld 3.0 nan\n", 2, "non-finite"),
    ("3 2\nhello 1 2\nworld 3 4\n", None, "header"),
    ("2 2\nhello 1 2\nworld 3 4\nextra 5 6\n", None, "header"),
    ("hello 1.0\n\nworld 2.0\n", 2, "empty line"),
    ("\nhello 1.0\n", 1, "empty line"),
    # a repeated word is still checked, though only its first line is kept
    ("word 1.0 2.0\nword 3.0\n", 2, "expected 2 components"),
])
def test_parse_errors_are_located(tmp_path, text, line_no, fragment):
    path = write(tmp_path, text)
    with pytest.raises(EmbeddingFormatError) as err:
        parse_embedding_file(path)
    message = str(err.value)
    assert fragment in message
    if line_no is not None:
        assert f"line {line_no}" in message


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


def test_missing_file():
    with pytest.raises(EmbeddingFormatError, match="absent"):
        parse_embedding_file("/nonexistent/absent.txt")


# --- caption vectorization -------------------------------------------------


def toy_table():
    return make_table({
        "moon": [1.0, 0.0],
        "rocket": [0.0, 1.0],
        "cheese": [1.0, 1.0],
    }, name="toy")


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
        table = make_table(vocab, name="r")
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
