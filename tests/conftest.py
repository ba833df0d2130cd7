"""Shared test fixtures and report-building helpers."""

from pathlib import Path

import numpy as np
import pytest

from capsift.embeddings import GLOVE_TEXT, EmbeddingTable
from capsift.metrics import (
    TASK_BINARY,
    TASK_THREE_CLASS,
    ClassMetrics,
    ConfusionMatrix,
    EvaluationReport,
    MetricsSummary,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def make_table(vectors: dict, source_format: str = GLOVE_TEXT, name: str = "t") -> EmbeddingTable:
    """Embedding table holding ``vectors`` (word -> vector) in insertion order."""
    return EmbeddingTable(name=name, index={word: row for row, word in enumerate(vectors)},
                          matrix=np.array(list(vectors.values()), dtype=np.float64),
                          source_format=source_format)


def make_report(model: str, f1: float, embedding: str = "emb",
                task: str = TASK_THREE_CLASS, topic: str | None = None) -> EvaluationReport:
    """Minimal report carrying a chosen weighted F1, for ranking tests."""
    cm = ConfusionMatrix(classes=(0, 1), counts=np.eye(2, dtype=np.int64))
    summary = MetricsSummary(
        per_class=(ClassMetrics(0, 1, 0, 0, 1.0, 1.0, 1.0),
                   ClassMetrics(1, 1, 0, 0, 1.0, 1.0, 1.0)),
        precision_weighted=f1, recall_weighted=f1, f1_weighted=f1,
        accuracy=f1, zero_division_fired=False,
    )
    auc = 0.5 if task == TASK_BINARY else None
    return EvaluationReport(model=model, embedding=embedding, task=task,
                            confusion=cm, metrics=summary, auc_roc=auc, topic=topic)
