"""Manifest parsing, caption preprocessing, and corpus filtering."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capsift.corpus import (
    MIN_CAPTION_CHARS,
    CorpusError,
    Label,
    Topic,
    descriptive_stats,
    filter_corpus,
    load_corpus,
    load_manifest,
    load_stopwords,
    make_document,
    preprocess_caption,
)

FIXTURES = Path(__file__).parent / "fixtures"
STOPWORDS = load_stopwords()


def write_manifest(tmp_path, rows, header="video_id,topic,label,caption_path,views,likes,dislikes,comments"):
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


def test_load_manifest_parses_fields(tmp_path):
    path = write_manifest(tmp_path, [
        "a1,vaccines,1,captions/a1.txt,100,5,2,1",
        "b2,911,-1,captions/b2.txt,200,,3,0",
        "c3,moon,0,captions/c3.txt,300,9,1,7",
    ])
    records = load_manifest(path)
    assert [r.video_id for r in records] == ["a1", "b2", "c3"]
    assert records[0].topic is Topic.VACCINES
    assert records[1].topic is Topic.NINE_ELEVEN
    assert records[1].label is Label.DEBUNKING
    assert records[1].likes is None  # blank count cell is allowed
    assert records[2].views == 300


@pytest.mark.parametrize("row, fragment", [
    ("a1,flat_earth,1,c.txt,1,1,1,1", "topic"),
    ("a1,vaccines,2,c.txt,1,1,1,1", "label"),
    ("a1,vaccines,1,c.txt,ten,1,1,1", "views"),
    ("a1,vaccines,1,c.txt,-4,1,1,1", "views"),
    ("a1,vaccines,1,,1,1,1,1", "caption_path"),
    (",vaccines,1,c.txt,1,1,1,1", "video_id"),
])
def test_load_manifest_rejects_bad_rows(tmp_path, row, fragment):
    path = write_manifest(tmp_path, [row])
    with pytest.raises(CorpusError) as err:
        load_manifest(path)
    assert fragment in str(err.value)
    assert "line 2" in str(err.value)  # data row after the header


def test_load_manifest_rejects_duplicate_ids(tmp_path):
    path = write_manifest(tmp_path, [
        "a1,vaccines,1,c.txt,1,1,1,1",
        "a1,moon,0,d.txt,1,1,1,1",
    ])
    with pytest.raises(CorpusError, match="duplicate"):
        load_manifest(path)


def test_load_manifest_rejects_wrong_header(tmp_path):
    path = write_manifest(tmp_path, [], header="id,topic,label")
    with pytest.raises(CorpusError, match="missing columns"):
        load_manifest(path)


def test_load_manifest_missing_file(tmp_path):
    with pytest.raises(CorpusError):
        load_manifest(tmp_path / "absent.csv")


def test_load_manifest_skips_a_byte_order_mark(tmp_path):
    # spreadsheet tools often save CSV with a leading UTF-8 byte-order mark
    original = FIXTURES / "manifest.csv"
    copy = tmp_path / "bom.csv"
    copy.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    assert load_manifest(copy) == load_manifest(original)


# --- preprocessing ---------------------------------------------------------


def oracle_clean(raw: str) -> str:
    # independent character walk: non-alphabetic -> space, collapse runs
    out = [ch if ch.isascii() and ch.isalpha() else " " for ch in raw]
    return " ".join("".join(out).split())


def oracle_tokens(raw: str, stopwords) -> list[str]:
    words = oracle_clean(raw).lower().split()
    return [t for t in words if t not in stopwords]


def test_preprocess_matches_character_walk_oracle():
    rng = np.random.Generator(np.random.PCG64(99))
    pieces = []
    vocab = ["The", "vaccine", "IS", "safe!!", "42", "it's", "Moon-landing",
             "hoax?", "déjà", "(fact)", "check,", "and", "OF", "a"]
    for _ in range(300):
        pieces.append(vocab[rng.integers(len(vocab))])
    raw = " ".join(pieces)
    cleaned, tokens, ratio = preprocess_caption(raw, STOPWORDS)
    assert cleaned == oracle_clean(raw)
    assert list(tokens) == oracle_tokens(raw, STOPWORDS)
    all_words = oracle_clean(raw).lower().split()
    stop_hits = sum(1 for t in all_words if t in STOPWORDS)
    assert ratio == pytest.approx(stop_hits / len(all_words))


def test_preprocess_examples():
    cleaned, tokens, _ = preprocess_caption("The Moon landing was 100% REAL!!", STOPWORDS)
    assert cleaned == "The Moon landing was REAL"
    assert list(tokens) == ["moon", "landing", "real"]
    cleaned, tokens, ratio = preprocess_caption("123 456 !!!", STOPWORDS)
    assert cleaned == ""
    assert tokens == ()
    assert ratio == 0.0


def test_preprocess_keeps_duplicates_in_order():
    _, tokens, _ = preprocess_caption("moon moon rocket moon", STOPWORDS)
    assert list(tokens) == ["moon", "moon", "rocket", "moon"]


@given(st.text(max_size=400))
def test_preprocess_token_properties(raw):
    cleaned, tokens, ratio = preprocess_caption(raw, STOPWORDS)
    assert all(c.isalpha() or c == " " for c in cleaned)
    assert "  " not in cleaned
    for token in tokens:
        assert token.isalpha() and token == token.lower()
        assert token not in STOPWORDS
    assert 0.0 <= ratio <= 1.0
    # idempotence: cleaning already-clean text changes nothing
    _, tokens_again, _ = preprocess_caption(cleaned, STOPWORDS)
    assert tokens_again == tokens


# --- filtering -------------------------------------------------------------


def record(video_id="v1", topic=Topic.VACCINES, label=Label.NEUTRAL):
    from capsift.corpus import VideoRecord
    return VideoRecord(video_id=video_id, topic=topic, label=label,
                       caption_path=f"{video_id}.txt",
                       views=1, likes=1, dislikes=1, comments=1)


def caption_text(n_words: int, stop_share: float) -> str:
    words = []
    for i in range(n_words):
        words.append("the" if i < n_words * stop_share else "rocket")
    return " ".join(words)


def test_filter_drops_short_captions():
    short = make_document(record("s"), "too short to keep", STOPWORDS)
    long_doc = make_document(record("l"), caption_text(200, 0.3), STOPWORDS)
    kept, rejected = filter_corpus([short, long_doc])
    assert [d.record.video_id for d in kept] == ["l"]
    assert rejected[0].video_id == "s"
    assert rejected[0].stage == "filter"
    assert "500" in rejected[0].reason


def test_filter_drops_non_english_captions():
    # long enough but zero stopwords
    alien = make_document(record("x"), " ".join(["zorp"] * 150), STOPWORDS)
    kept, rejected = filter_corpus([alien])
    assert kept == []
    assert "stopword ratio" in rejected[0].reason


def test_filter_boundary_length_is_inclusive():
    # exactly MIN_CAPTION_CHARS raw characters passes the length rule
    raw = ("the rocket " * 50)[:MIN_CAPTION_CHARS]
    assert len(raw) == MIN_CAPTION_CHARS
    doc = make_document(record("edge"), raw, STOPWORDS)
    kept, rejected = filter_corpus([doc])
    assert len(kept) == 1 and not rejected


def test_load_corpus_skips_missing_files(tmp_path):
    (tmp_path / "ok.txt").write_text(caption_text(150, 0.3), encoding="utf-8")
    records = [record("ok"), record("gone")]
    docs, skipped = load_corpus(records, tmp_path, STOPWORDS)
    assert [d.record.video_id for d in docs] == ["ok"]
    assert skipped[0].video_id == "gone"
    assert skipped[0].stage == "load"


def test_load_corpus_rejects_bad_utf8(tmp_path):
    (tmp_path / "bad.txt").write_bytes(b"\xff\xfe broken")
    with pytest.raises(CorpusError, match="bad"):
        load_corpus([record("bad")], tmp_path, STOPWORDS)


# --- descriptive stats -----------------------------------------------------


def test_descriptive_stats_quantiles_match_numpy():
    records = []
    views = [10, 20, 30, 40, 100]
    for i, v in enumerate(views):
        from capsift.corpus import VideoRecord
        records.append(VideoRecord(f"v{i}", Topic.MOON_LANDING, Label.NEUTRAL,
                                   "c.txt", v, None, None, None))
    (summary,) = descriptive_stats(records, "views")
    lo, q1, med, q3, hi = np.percentile(np.array(views, dtype=float), [0, 25, 50, 75, 100])
    assert (summary.minimum, summary.q1, summary.median, summary.q3, summary.maximum) == \
        (lo, q1, med, q3, hi)
    assert summary.n == 5


def test_descriptive_stats_groups_and_sorts():
    from capsift.corpus import VideoRecord
    records = [
        VideoRecord("a", Topic.VACCINES, Label.MISINFORMATION, "c", 5, 1, 1, 1),
        VideoRecord("b", Topic.MOON_LANDING, Label.NEUTRAL, "c", 7, 1, 1, 1),
        VideoRecord("c", Topic.MOON_LANDING, Label.DEBUNKING, "c", 9, 1, 1, 1),
    ]
    groups = [(s.topic, s.label) for s in descriptive_stats(records, "views")]
    assert groups == [(Topic.MOON_LANDING, Label.DEBUNKING),
                      (Topic.MOON_LANDING, Label.NEUTRAL),
                      (Topic.VACCINES, Label.MISINFORMATION)]


def test_descriptive_stats_field_absent_everywhere():
    from capsift.corpus import VideoRecord
    records = [VideoRecord("a", Topic.VACCINES, Label.NEUTRAL, "c", None, 1, 1, 1)]
    with pytest.raises(CorpusError, match="views"):
        descriptive_stats(records, "views")
    with pytest.raises(ValueError, match="unknown field"):
        descriptive_stats(records, "shares")


def test_stopword_list_is_lowercase_and_sane():
    assert len(STOPWORDS) > 100
    assert {"the", "and", "of", "is"} <= STOPWORDS
    assert all(w == w.lower() for w in STOPWORDS)
