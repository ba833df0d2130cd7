"""Report- and table-building helpers shared by the test modules."""

import numpy as np

from capsift.embeddings import GLOVE_TEXT, EmbeddingTable
from capsift.metrics import TASK_BINARY, TASK_THREE_CLASS, EvaluationReport


def make_table(vectors: dict, source_format: str = GLOVE_TEXT) -> EmbeddingTable:
    """Embedding table holding ``vectors`` (word -> vector) in insertion order."""
    return EmbeddingTable(index={word: row for row, word in enumerate(vectors)},
                          matrix=np.array(list(vectors.values()), dtype=np.float64),
                          source_format=source_format)


def make_report(model: str, f1: float, embedding: str = "emb",
                task: str = TASK_THREE_CLASS, topic: str = "moon") -> EvaluationReport:
    """Minimal report carrying a chosen weighted F1, for ranking tests."""
    auc = 0.5 if task == TASK_BINARY else None
    return EvaluationReport(topic, task, embedding, model, f1, f1, f1, f1, auc, seed=0)
