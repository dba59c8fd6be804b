"""greenlab: Green functions, exit distributions, and random-walk
asymptotics on concrete groups (lattices, free groups, the Heisenberg
group, the quarter-plane cone), with exact small-scale oracles and
reproducible batch experiments."""

import importlib
import os

__version__ = "0.1.0"

# The CPUs this process may use: the thread count of the batched FFTs and
# of the concurrent per-source killed solves.
CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)


def thread_map(fn, n: int) -> list:
    """[fn(0), ..., fn(n - 1)], run in a pool of up to CPUS threads.

    Each call's arithmetic must not depend on the thread that runs it, so
    the results do not depend on CPUS.  The pool is imported on first use:
    at module level it lengthens the start-up of every run."""
    workers = min(CPUS, n)
    if workers <= 1:
        return [fn(i) for i in range(n)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, range(n)))


class _LazyModule:
    """Stand-in for the module `name`, imported on first attribute access.

    Layers bind SciPy through it (``spla = _LazyModule("scipy.sparse.linalg")``)
    so that importing greenlab loads no SciPy, and a run that never solves,
    convolves or evaluates a special function never pays for it.  The
    Monte Carlo samplers evaluate none: a stable law's sampling table and
    tail mass take their Hurwitz zeta values from measures._hurwitz_zeta.
    The binding stays an ordinary module attribute that callers may
    replace."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)
