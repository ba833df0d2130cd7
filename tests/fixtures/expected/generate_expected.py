#!/usr/bin/env python3
"""Write the fixture experiment's outputs into this directory.

The files pin what ``capsift run`` writes for ``tests/fixtures/experiment.cfg``:
tests rerun the experiment and compare ``embedding_scores.csv``,
``best_models.md`` and ``exclusions.log`` byte for byte, and ``reports.csv``
column by column (floats to a relative 1e-12). Deterministic; rerun only when
the outputs are meant to change:

    PYTHONPATH=src python tests/fixtures/expected/generate_expected.py
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from capsift.experiment import emit_report, load_config, run_experiment

HERE = Path(__file__).resolve().parent
CONFIG = HERE.parent / "experiment.cfg"
PINNED = ("reports.csv", "embedding_scores.csv", "best_models.md", "exclusions.log")


def main() -> None:
    result = run_experiment(load_config(CONFIG))
    with tempfile.TemporaryDirectory() as tmp:
        emit_report(result, tmp)
        for name in PINNED:
            shutil.copyfile(Path(tmp) / name, HERE / name)


if __name__ == "__main__":
    main()
