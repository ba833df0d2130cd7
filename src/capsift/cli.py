"""Command-line interface.

Subcommands: ``run`` (full experiment from a config file), ``stats``
(manifest engagement-count summaries), ``vectorize`` (caption-vector export).
Exit codes: 0 success, 1 usage, config or input error, 2 partial run (some
data-degenerate cells skipped).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

from .corpus import CorpusError, descriptive_stats, load_corpus, load_manifest, load_stopwords
from .embeddings import EmbeddingFormatError, parse_embedding_file, vectorize_caption
from .experiment import (
    KEYS, ConfigError, config_fingerprint, emit_report, load_config, run_experiment,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capsift",
        description="Classify video captions as misinformation, debunking, or neutral.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the configured experiment sweep")
    run.add_argument("--config", required=True, help="flat key=value config file")
    run.add_argument("--topics", help="comma-separated topic subset, overrides the config")
    run.add_argument("--task", help="three|three_class|binary|both, overrides the config")
    run.add_argument("--seed", help="master seed, overrides the config")
    run.add_argument("--out", help="output directory, overrides the config")

    stats = sub.add_parser("stats", help="per-(topic, label) engagement summaries")
    stats.add_argument("--manifest", required=True)
    stats.add_argument("--field", required=True,
                       choices=["views", "likes", "dislikes", "comments"])

    vec = sub.add_parser("vectorize", help="export one caption vector per video")
    vec.add_argument("--embedding", required=True, help="embedding file (GloVe or word2vec text)")
    vec.add_argument("--captions", required=True, help="directory caption paths resolve against")
    vec.add_argument("--manifest", required=True, help="manifest naming the videos to export")
    vec.add_argument("--out", required=True, help="output CSV path")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    # each flag parses exactly like the config file's value for its key
    overrides = {key: KEYS[key][0](value, key) for key in ("topics", "task", "seed")
                 if (value := getattr(args, key)) is not None}
    if args.out is not None:
        if not args.out.strip():
            raise ConfigError(f"--out: names no directory, got {args.out!r}")
        overrides["out_dir"] = Path(args.out)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    result = run_experiment(config)
    written = emit_report(result)
    print(f"fingerprint: {config_fingerprint(result.config)}")
    print(f"reports: {len(result.reports)} rows over topics {', '.join(result.config.topics)}")
    for path in written:
        print(f"wrote {path}")
    if result.skipped:
        print(f"{len(result.skipped)} cell(s) skipped; see exclusions.log", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_stats(args) -> int:
    records = load_manifest(args.manifest)
    summaries = descriptive_stats(records, args.field)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["topic", "label", "field", "n", "min", "q1", "median", "q3", "max"])
    for s in summaries:
        writer.writerow([
            s.topic.value, int(s.label), s.field, s.n,
            repr(s.minimum), repr(s.q1), repr(s.median), repr(s.q3), repr(s.maximum),
        ])
    return EXIT_OK


def _cmd_vectorize(args) -> int:
    records = load_manifest(args.manifest)
    stopwords = load_stopwords()
    documents, skipped = load_corpus(records, args.captions, stopwords)
    vocab = {token for doc in documents for token in doc.tokens}
    table = parse_embedding_file(args.embedding, vocab=vocab)
    out = Path(args.out)
    no_coverage = 0
    with out.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["video_id", "label", "coverage"]
                        + [f"v{i}" for i in range(1, table.dimension + 1)])
        for doc in documents:
            cv = vectorize_caption(table, doc.tokens)
            if cv.vector is None:
                no_coverage += 1
                continue
            writer.writerow([doc.record.video_id, int(doc.record.label), repr(cv.coverage)]
                            + [repr(float(v)) for v in cv.vector])
    print(f"wrote {out}: {len(documents) - no_coverage} vectors "
          f"({len(skipped)} captions missing, {no_coverage} without coverage)")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    handlers = {"run": _cmd_run, "stats": _cmd_stats, "vectorize": _cmd_vectorize}
    try:
        return handlers[args.command](args)
    except (ConfigError, CorpusError, EmbeddingFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
