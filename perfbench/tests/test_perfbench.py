"""Self-tests of the benchmark: seeded inputs, clean captions, span wrappers.

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import capsift.cli
from capsift.corpus import filter_corpus, load_corpus, load_manifest, load_stopwords
from capsift.experiment import load_config

import spans
import workloads

FIXTURE_CONFIG = Path(__file__).resolve().parents[2] / "tests" / "fixtures" / "experiment.cfg"


def tree_digest(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_deterministic_per_seed(tmp_path):
    first = tree_digest(workloads.generate("sweep", 7, tmp_path / "a").parent)
    again = tree_digest(workloads.generate("sweep", 7, tmp_path / "b").parent)
    other = tree_digest(workloads.generate("sweep", 8, tmp_path / "c").parent)
    assert first == again
    assert first.keys() == other.keys()
    assert first["manifest.csv"] != other["manifest.csv"]
    assert first["glove.txt"] != other["glove.txt"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_captions_pass_the_filters(tmp_path, name):
    spec = workloads.WORKLOADS[name]
    config = load_config(workloads.generate(name, 3, tmp_path))
    records = load_manifest(config.manifest)
    documents, missing = load_corpus(records, config.captions_root, load_stopwords())
    kept, rejected = filter_corpus(documents)
    assert not missing and not rejected
    assert len(kept) == spec.topics * spec.captions_per_topic
    assert all(token.isalpha() for doc in kept for token in doc.tokens)
    assert [name for name, _ in config.embeddings] == [t.name for t in spec.tables]
    for table, (_, path) in zip(spec.tables, config.embeddings):
        with open(path, encoding="utf-8") as fh:
            head = fh.readline().split()
        assert (head == [str(table.words), str(workloads.DIMENSION)]) == table.word2vec


def test_words_are_distinct_and_alphabetic():
    words = [workloads.word(i) for i in range(400_000)]
    assert len(set(words)) == len(words)
    assert all(w.isalpha() and w.islower() for w in words[::997])


def wrapped_attributes():
    found = {}
    for module_name, path, *_ in spans.TARGETS:
        owner, attr = spans.resolve(module_name, path)
        found[(module_name, path)] = owner.__dict__[attr]
    return found


def test_tracer_restores_capsift_functions():
    originals = wrapped_attributes()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            assert all(wrapped_attributes()[k] is not v for k, v in originals.items())
            raise RuntimeError("leave the block early")
    assert wrapped_attributes() == originals


def test_traced_fixture_run_records_every_layer(tmp_path):
    tracer = spans.Tracer()
    with tracer:
        code = tracer.span("cli", capsift.cli.main)(
            ["run", "--config", str(FIXTURE_CONFIG), "--out", str(tmp_path)])
    assert code == 0
    assert tracer.spans[0][0] == "cli" and tracer.spans[0][1] == -1
    names = {span[0] for span in tracer.spans}
    assert {target[2] for target in spans.TARGETS} <= names
    metrics = spans.layer_metrics(tracer.spans, *tracer.vocab_counts())
    assert metrics["experiment.cells"][0] == 8  # 2 topics x 2 tasks x 2 embeddings
    assert 0 < metrics["corpus.kept_ratio"][0] < 1  # the fixture has filtered captions
    assert 0 < metrics["embeddings.vocab_used_ratio"][0] <= 1
    assert metrics["classifiers.train_s.random_forest"][0] > 0
    assert metrics["smote.peak_alloc_mb"][0] > 0
    # each smote() call is replayed once under tracemalloc, beside the timed call
    smotes = [span for span in tracer.spans if span[0] == "smote"]
    replays = [span for span in tracer.spans if span[0] == "trace.alloc_replay"]
    assert [s[1] for s in replays] == [s[1] for s in smotes]
    assert all(r[2] >= s[3] for s, r in zip(smotes, replays))


def test_self_time_subtracts_direct_children():
    recorded = [
        ["root", -1, 0.0, 10.0, {}],
        ["child", 0, 1.0, 4.0, {}],
        ["grandchild", 1, 2.0, 3.0, {}],
        ["child", 0, 5.0, 6.0, {}],
    ]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]


def test_setup_probe_stops_where_the_load_prefix_ends(tmp_path):
    child = Path(__file__).resolve().parents[1] / "child.py"
    env = dict(os.environ, PYTHONPATH=str(Path(capsift.cli.__file__).parents[1]))
    probe = subprocess.run(
        [sys.executable, str(child), "setup", str(FIXTURE_CONFIG), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout == "set-up ended at vectorize_caption\n"
    assert not (tmp_path / "out" / "reports.csv").exists()
