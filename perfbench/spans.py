"""Span tracing of capsift's layers from outside the package.

``Tracer.install()`` replaces the module attributes that capsift's
orchestration calls (and ``TrainedModel.predict``/``predict_scores``) with
wrappers that record one span per call: name, start, end and parent span.
``Tracer.restore()`` puts every original back. ``smote()`` is also called a
second time under tracemalloc, for its allocation peak, so that its timed
call is not slowed by allocation tracing. Spans stay in memory; the
caller writes them out once the run is over. ``layer_metrics`` turns the
spans into the benchmark's per-layer metrics, using self time (a span's
duration minus its children's).
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc

from workloads import ALL_ALGORITHMS

# Fixed here rather than read from capsift, so the metric names stay those
# listed in BENCHMARK.json.
ALGORITHMS = ALL_ALGORITHMS + ("dummy_most_frequent",)


def _parse_info(args, kwargs, table, tracer):
    tracer.tables.append(table)
    return {}


def _load_info(args, kwargs, result, tracer):
    return {"loaded": len(result[0])}


def _filter_info(args, kwargs, result, tracer):
    kept = result[0]
    for doc in kept:
        tracer.kept_tokens.update(doc.tokens)
    return {"kept": len(kept)}


def _vectorize_info(args, kwargs, result, tracer):
    return {"coverage": float(result.coverage)}


def _smote_info(args, kwargs, result, tracer):
    return {"synthetic": int(result.synthetic_mask.sum())}


def _train_info(args, kwargs, model, tracer):
    info = {"algo": args[0].algorithm, "rows": len(args[1])}
    trees = getattr(model, "trees", None)
    if trees is not None:
        info["nodes"] = sum(len(tree.feature) for tree in trees)
    return info


def _predict_info(args, kwargs, result, tracer):
    return {"algo": args[0].algorithm}


# (module, attribute path, span name, counter hook, replay for the allocation peak)
TARGETS = (
    ("capsift.cli", "run_experiment", "experiment.run", None, False),
    ("capsift.cli", "emit_report", "experiment.emit", None, False),
    ("capsift.experiment", "parse_embedding_file", "embeddings.parse", _parse_info, False),
    ("capsift.experiment", "load_corpus", "corpus.load", _load_info, False),
    ("capsift.experiment", "filter_corpus", "corpus.filter", _filter_info, False),
    ("capsift.experiment", "vectorize_caption", "embeddings.vectorize", _vectorize_info, False),
    ("capsift.experiment", "stratified_split", "experiment.split", None, False),
    ("capsift.experiment", "smote", "smote", _smote_info, True),
    ("capsift.experiment", "train", "classifiers.train", _train_info, False),
    ("capsift.experiment", "evaluate_predictions", "metrics.evaluate", None, False),
    ("capsift.classifiers.base", "TrainedModel.predict", "classifiers.predict", _predict_info,
     False),
    ("capsift.classifiers.base", "TrainedModel.predict_scores", "classifiers.predict",
     _predict_info, False),
)


def resolve(module_name: str, path: str) -> tuple[object, str]:
    """(object holding the attribute, attribute name) for a TARGETS entry."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans as [name, parent index, start, end, info] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.tables: list = []
        self.kept_tokens: set[str] = set()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def span(self, name, fn, hook=None, track_alloc=False):
        """Return ``fn`` wrapped so each call records a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, parent, 0.0, 0.0, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if track_alloc:
                span[4]["peak_alloc"] = self._replay_peak(parent, fn, args, kwargs)
            if hook is not None:
                span[4].update(hook(args, kwargs, result, self))
            return result

        return wrapper

    def _replay_peak(self, parent, fn, args, kwargs) -> int:
        """Call ``fn`` once more under tracemalloc and return its allocation peak.

        The timed call runs without tracemalloc, which slows Python-level
        loops several times over. The replay is a span of its own, named
        ``trace.alloc_replay`` and a sibling of the timed call, so it counts
        in no layer's time, only in the traced run's overhead. Only a
        function whose result depends on its arguments alone may be replayed.
        """
        span = ["trace.alloc_replay", parent, time.perf_counter(), 0.0, {}]
        self.spans.append(span)
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            span[3] = time.perf_counter()

    def install(self) -> None:
        for module_name, path, name, hook, track_alloc in TARGETS:
            owner, attr = resolve(module_name, path)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, hook, track_alloc))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def vocab_counts(self) -> tuple[int, int]:
        """(table words some kept caption uses, table words parsed), over all tables."""
        used = sum(sum(1 for token in self.kept_tokens if token in t) for t in self.tables)
        return used, sum(len(t) for t in self.tables)


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], vocab_used: int, vocab_parsed: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from one traced run."""
    own = self_times(spans)

    def total(name, **match):
        return sum(
            t for (n, _, _, _, info), t in zip(spans, own)
            if n == name and all(info.get(k) == v for k, v in match.items())
        )

    def infos(name):
        return [info for n, _, _, _, info in spans if n == name]

    loaded = sum(i["loaded"] for i in infos("corpus.load"))
    kept = sum(i["kept"] for i in infos("corpus.filter"))
    coverage = [i["coverage"] for i in infos("embeddings.vectorize")]
    smotes = infos("smote")
    trains = infos("classifiers.train")
    m = {
        "corpus.load_s": (total("corpus.load") + total("corpus.filter"), "s"),
        "corpus.captions_loaded": (loaded, "count"),
        "corpus.kept_ratio": (kept / loaded if loaded else 0.0, "ratio"),
        "embeddings.parse_s": (total("embeddings.parse"), "s"),
        "embeddings.lines_parsed": (vocab_parsed, "count"),
        "embeddings.vocab_used_ratio": (vocab_used / vocab_parsed if vocab_parsed else 0.0, "ratio"),
        "embeddings.vectorize_s": (total("embeddings.vectorize"), "s"),
        "embeddings.coverage_mean": (sum(coverage) / len(coverage) if coverage else 0.0, "ratio"),
        "experiment.split_s": (total("experiment.split"), "s"),
        "experiment.emit_s": (total("experiment.emit"), "s"),
        "experiment.self_s": (total("experiment.run"), "s"),
        "experiment.cells": (len(smotes), "count"),
        "smote.s": (total("smote"), "s"),
        "smote.synthetic_rows": (sum(i["synthetic"] for i in smotes), "count"),
        "smote.peak_alloc_mb": (max((i["peak_alloc"] for i in smotes), default=0) / 2**20, "MB"),
    }
    for algo in ALGORITHMS:
        m[f"classifiers.train_s.{algo}"] = (total("classifiers.train", algo=algo), "s")
    for algo in ALGORITHMS:
        m[f"classifiers.predict_s.{algo}"] = (total("classifiers.predict", algo=algo), "s")
    m["classifiers.forest_nodes"] = (sum(i.get("nodes", 0) for i in trains), "count")
    m["classifiers.train_rows"] = (sum(i["rows"] for i in trains), "count")
    m["metrics.s"] = (total("metrics.evaluate"), "s")
    m["cli.self_s"] = (total("cli"), "s")
    return m
