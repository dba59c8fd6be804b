"""greenlab: Green functions, exit distributions, and random-walk
asymptotics on concrete groups (lattices, free groups, Heisenberg, product
lifts), with exact small-scale oracles and reproducible batch experiments."""

import importlib

__version__ = "0.1.0"


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
