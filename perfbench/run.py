"""capsift benchmark: time ``capsift run`` end to end on a seeded workload.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

It measures the checkout it lives in, importing capsift from that checkout's
``src``. One invocation:

1. generates the workload's inputs from the seed (untimed);
2. runs the shipped fixture config once as a smoke check (exit 0, 56 rows,
   recorded digests);
3. until ``--seconds`` is used up, runs ``capsift run`` as a subprocess,
   one at a time (closed loop, one client), with set-up probes (``capsift
   run`` stopped where its load prefix ends, for ``setup_s``) between runs,
   taking at most a third of the window, and checks every run's outputs;
4. with ``--trace 1``, then makes one more run with every layer boundary
   wrapped (see spans.py) and reports per-layer metrics instead of
   end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it are for
people: the environment, each metric's median, high percentile and sample
count, and the output digests. The same record is kept as JSON in
``.perfbench-results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEFAULT_SEED = 0
FIXTURE_CONFIG = ROOT / "tests" / "fixtures" / "experiment.cfg"
FIXTURE_REPORT_ROWS = 56
DIGESTED = ("reports.csv", "embedding_scores.csv")
RESULTS = ROOT / ".perfbench-results"
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


@dataclass
class Sample:
    ok: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


class Bench:
    """One invocation: counts attempted and failed capsift processes."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def spawn(self, argv: list[str]) -> Sample:
        """Run a capsift process to completion and measure it from outside."""
        log = self.work / "child.log"
        self.attempted += 1
        with open(log, "w+", encoding="utf-8") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.work, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            text = out.read()
        ok = proc.returncode == 0
        if not ok:
            sys.stderr.write(f"exit {proc.returncode}: {' '.join(argv)}\n{text}")
        return Sample(ok, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, text)

    def check(self, ok: bool, what: str) -> bool:
        """Count a failed process when ``ok`` is false."""
        if not ok:
            self.failed += 1
            sys.stderr.write(f"check failed: {what}\n")
        return ok


def digests(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in DIGESTED}


def outputs_ok(out: Path, report_rows: int, expected: dict[str, str] | None,
               clean: bool = True) -> tuple[bool, str, dict]:
    """Check a finished run's artifacts; (ok, reason, digests). ``clean``
    runs must have excluded no caption and skipped no cell."""
    try:
        rows = (out / "reports.csv").read_text(encoding="utf-8").count("\n") - 1
        log = (out / "exclusions.log").read_text(encoding="utf-8")
        found = digests(out)
    except OSError as exc:
        return False, f"missing output: {exc}", {}
    if rows != report_rows:
        return False, f"reports.csv has {rows} rows, expected {report_rows}", found
    if clean and log:
        return False, f"exclusions or skipped cells: {log.splitlines()[0]}", found
    if expected is not None and found != expected:
        return False, f"digests {found} differ from {expected}", found
    return True, "", found


def high_percentile(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    q = math.floor(100 * (1 - 10 / n))
    return f"p{q}", float(np.percentile(values, q))


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy older than 1.25 has no dict form
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "seed": seed,
    }


def measure(args, bench: Bench) -> dict:
    spec = workloads.WORKLOADS[args.workload]
    work = bench.work
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    start = time.perf_counter()
    config = workloads.generate(args.workload, args.seed, work / "inputs")
    print(f"generated {args.workload} seed {args.seed} in {time.perf_counter() - start:.2f} s")

    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    smoke_out = work / "fixture-out"
    smoke = bench.spawn(["-m", "capsift.cli", "run", "--config", str(FIXTURE_CONFIG),
                         "--out", str(smoke_out)])
    ok, why, _ = outputs_ok(smoke_out, FIXTURE_REPORT_ROWS, recorded["fixture"], clean=False)
    bench.check(smoke.ok and ok, f"fixture smoke run: {why}")

    expected = recorded.get(args.workload) if args.seed == DEFAULT_SEED else None
    setup: list[float] = []
    runs: list[Sample] = []
    steps: list[float] = []
    produced: list[dict] = []
    opened = time.perf_counter()
    deadline = opened + args.seconds
    # Set-up probes and runs alternate, so both see the same machine load. A
    # probe goes before a run while probes have taken at most a third of the
    # window so far: runs, which give three of the four metrics, keep most of
    # it, and a probe much shorter than a run goes before every run.
    while not steps or time.perf_counter() + statistics.median(steps) <= deadline:
        start = time.perf_counter()
        if sum(setup) <= (start - opened) / 3:
            probe = bench.spawn([str(HERE / "child.py"), "setup", str(config),
                                 str(work / "out-setup")])
            bench.check(probe.ok and probe.stdout.startswith("set-up ended at "),
                        f"set-up probe printed {probe.stdout!r}")
            setup.append(probe.wall_s)
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        run = bench.spawn(["-m", "capsift.cli", "run", "--config", str(config), "--out", str(out)])
        ok, why, found = outputs_ok(out, spec.expected_report_rows(), expected)
        produced.append(found)
        if bench.check(run.ok and ok, f"run {len(runs)}: {why}") and expected is None:
            expected = found  # later runs must reproduce the first one byte for byte
        runs.append(run)
        steps.append(time.perf_counter() - start)
    print("digests " + json.dumps(produced[0], sort_keys=True))

    samples = {
        "wall_s": [r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "setup_s": setup,
    }
    end_to_end = {}
    for name, unit in END_TO_END:
        values = samples[name]
        label, high = high_percentile(values)
        end_to_end[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name:<12} median {statistics.median(values):.4f} {unit}  "
              f"{label} {high:.4f} {unit}  n={len(values)}")
    print(f"error_rate   {bench.failed / bench.attempted:.4f}  "
          f"({bench.failed} of {bench.attempted} capsift processes failed a check)")

    record = {"workload": args.workload, "env": env, "samples": samples,
              "end_to_end": end_to_end, "digests": produced[0]}
    if args.trace:
        record["per_layer"] = traced_run(args, bench, config, expected,
                                         statistics.median(samples["wall_s"]))
    return record


def traced_run(args, bench: Bench, config: Path, expected, untraced_wall: float) -> dict:
    spec = workloads.WORKLOADS[args.workload]
    out = bench.work / "out-traced"
    spans_path = bench.work / "spans.json"
    run = bench.spawn([str(HERE / "child.py"), "trace", str(config), str(out), str(spans_path)])
    ok, why, _ = outputs_ok(out, spec.expected_report_rows(), expected)
    per_layer = {}
    if bench.check(run.ok and ok, f"traced run: {why}"):
        traced = json.loads(spans_path.read_text(encoding="utf-8"))
        per_layer = {name: {"value": value, "unit": unit}
                     for name, (value, unit) in traced["metrics"].items()}
        kept = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
        shutil.copyfile(spans_path, kept)
        print(f"spans written to {kept}")
    per_layer["trace.wall_s"] = {"value": run.wall_s, "unit": "s"}
    per_layer["trace.overhead_s"] = {"value": run.wall_s - untraced_wall, "unit": "s"}
    for name, m in per_layer.items():
        print(f"{name:<40} {m['value']:.6g} {m['unit']}")
    return per_layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring window; set-up probes and full runs alternate until it is used up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is killed and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in (ROOT / "src" / "capsift" / "__init__.py", FIXTURE_CONFIG)
               if not p.is_file()]
    if missing:
        print(f"error: not a capsift checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    bench = Bench(work)
    try:
        record = measure(args, bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(attempted=bench.attempted, failed=bench.failed)
    suffix = "-trace" if args.trace else ""
    (RESULTS / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
