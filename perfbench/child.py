"""Processes the benchmark starts besides ``capsift run`` itself.

    python3 perfbench/child.py setup CONFIG OUT
        ``capsift run --config CONFIG --out OUT`` in a fresh interpreter,
        stopped at the first call that starts work on a vectorised topic
        (any of PREFIX_ENDS). What runs before it is the program's own load
        prefix, in the program's own order; today that is importing capsift,
        loading the config, parsing every embedding table and loading and
        filtering the first topic's captions. Prints "set-up ended at
        <function>" and exits 0; exits 1 if the run finishes without
        calling any of them.

    python3 perfbench/child.py trace CONFIG OUT SPANS
        ``capsift run --config CONFIG --out OUT`` in this process with every
        layer boundary wrapped by ``spans.Tracer``; writes the spans and the
        per-layer metrics to SPANS (JSON) once the run is over.

capsift must be importable (the benchmark sets PYTHONPATH to the checkout's
``src``).
"""

from __future__ import annotations

import json
import os
import sys


# capsift.experiment attributes whose first call ends the load prefix.
PREFIX_ENDS = ("vectorize_caption", "stratified_split", "smote", "train")


def setup(config_path: str, out_dir: str) -> int:
    import capsift.cli
    import capsift.experiment

    def stop_at(name):
        def stop(*args, **kwargs):
            print(f"set-up ended at {name}", flush=True)
            os._exit(0)  # the timed process ends here, as the benchmark measures it
        return stop

    for name in PREFIX_ENDS:
        setattr(capsift.experiment, name, stop_at(name))
    capsift.cli.main(["run", "--config", config_path, "--out", out_dir])
    print(f"capsift run finished without calling any of {', '.join(PREFIX_ENDS)}")
    return 1


def trace(config_path: str, out_dir: str, spans_path: str) -> int:
    import capsift.cli
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    with tracer:
        code = tracer.span("cli", capsift.cli.main)(
            ["run", "--config", config_path, "--out", out_dir])
    used, parsed = tracer.vocab_counts()
    record = {
        "exit_code": code,
        "metrics": layer_metrics(tracer.spans, used, parsed),
        "spans": tracer.spans,
    }
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    command, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "trace": trace}[command](*rest))
