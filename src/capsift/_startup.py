"""Process start-up for the command line, before anything imports numpy.

numpy's bundled OpenBLAS starts its own threads when numpy is imported, and
they busy-wait for a while after the import and after every change of the
thread count. A pooled ``capsift run`` makes every BLAS call on one thread,
so those threads only burn CPU. Only a thread count set in the environment
before the import keeps them from starting; setting it afterwards restarts
them. This module imports no numpy and keeps no state.
"""

from __future__ import annotations

import os
import sys

# The variables OpenBLAS reads its thread count from when it starts; a value
# the user set in any of them is left to decide.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def usable_cpus() -> int:
    """The CPUs this process may run on: the command line's worker count."""
    try:
        return len(os.sched_getaffinity(0))  # the CPUs taskset or a cpuset leaves
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def can_fork() -> bool:
    """Whether this platform offers the ``fork`` start method the pools use."""
    import multiprocessing  # here, so a caller that never pools never pays for it

    return "fork" in multiprocessing.get_all_start_methods()


def start_numpy() -> None:
    """Import numpy with OpenBLAS on one thread when ``capsift run`` from
    this command line will pool (more than one usable CPU and ``fork``),
    so neither this process nor its forked workers start OpenBLAS's threads.

    Does nothing once numpy is imported, or when the user's environment
    sets any of OpenBLAS's thread variables. ``OPENBLAS_NUM_THREADS`` is
    set only for the import, so ``os.environ`` afterwards is the user's.
    """
    if "numpy" in sys.modules or any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
        return
    if usable_cpus() < 2 or not can_fork():
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401  OpenBLAS reads its thread count here
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
