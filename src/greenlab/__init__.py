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


class _LazyModule:
    """Stand-in for the module `name`, imported on first attribute access.

    Layers bind SciPy through it (``spla = _LazyModule("scipy.sparse.linalg")``)
    so that importing greenlab loads no SciPy, and a run that never solves,
    convolves or evaluates a special function never pays for it.  The
    binding stays an ordinary module attribute that callers may replace."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)
