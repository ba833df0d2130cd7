"""Report- and table-building helpers, a memory probe, and a handle on
numpy's bundled OpenBLAS, shared by the test modules."""

import ctypes
import tracemalloc

import numpy as np
import pytest

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


def traced_peak(call) -> int:
    """Peak bytes tracemalloc sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    numpy's wheel, or None under another BLAS or build."""
    try:
        from numpy._core import _multiarray_umath

        # dlsym on the extension's handle also searches the libraries it
        # links, the bundled OpenBLAS among them
        blas = ctypes.CDLL(_multiarray_umath.__file__)
        get_threads = blas.scipy_openblas_get_num_threads64_
        set_threads = blas.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


OPENBLAS = _openblas()
needs_openblas = pytest.mark.skipif(OPENBLAS is None, reason="numpy has no bundled OpenBLAS")
