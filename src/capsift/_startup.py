"""Process start-up for the command line, before anything imports numpy.

This is the one place that decides BLAS's thread count. A pooled
``capsift run`` does its BLAS work in forked workers, one per usable CPU,
so OpenBLAS's own threads would only compete with them for the cores, and
they busy-wait for a while after numpy's import and after every change of
the thread count. OpenBLAS reads its thread count once, when numpy is
imported, so the command line imports numpy with one thread when it can
pool, and nothing changes the count afterwards. This module imports no
numpy and keeps no state.
"""

from __future__ import annotations

import os
import sys


def usable_cpus() -> int:
    """The CPUs this process may run on: the command line's worker count."""
    try:
        return len(os.sched_getaffinity(0))  # the CPUs taskset or a cpuset leaves
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def can_fork() -> bool:
    """Whether this platform offers the ``fork`` start method the pool uses."""
    import multiprocessing  # here, so a caller that never pools never pays for it

    return "fork" in multiprocessing.get_all_start_methods()


def start_numpy() -> None:
    """Import numpy with OpenBLAS on one thread when ``capsift run`` from
    this command line can pool (more than one usable CPU and ``fork``), so
    neither this process nor its forked workers start OpenBLAS's threads.

    Does nothing once numpy is imported. ``OPENBLAS_NUM_THREADS``, which
    OpenBLAS reads before ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS``, is
    ``1`` only for the import; afterwards ``os.environ`` holds the user's
    own value again, or no such variable.
    """
    if "numpy" in sys.modules or usable_cpus() < 2 or not can_fork():
        return
    users = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401  OpenBLAS reads its thread count here
    finally:
        if users is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = users
