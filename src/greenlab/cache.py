"""Binary cache for killed Green tables.

One file per (backend, measure hash, domain label, tolerance).  Layout:
an 8-byte little-endian length prefix, a UTF-8 JSON metadata block, then
the table values as little-endian float64.  Sources are stored as integer
lists (elements are flat int tuples).  Metadata (parameters and code
version) is validated on read; any mismatch or corruption is a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import warnings

import numpy as np

from . import __version__
from .green import Domain, GreenTable


def measure_hash(descriptor: dict) -> str:
    blob = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
    return hashlib.md5(blob.encode("utf-8")).hexdigest()[:16]


def cache_key(backend: str, mhash: str, domain_label: str, tol: float) -> str:
    safe = f"{backend}|{mhash}|{domain_label}|{tol:.3e}"
    return hashlib.md5(safe.encode("utf-8")).hexdigest()[:24] + ".green"


def default_cache_dir() -> str:
    return os.environ.get("GREENLAB_CACHE", os.path.join(".", ".greenlab-cache"))


def save_table(cache_dir: str, backend: str, mhash: str, table: GreenTable) -> str:
    os.makedirs(cache_dir, exist_ok=True)
    meta = {
        "version": __version__,
        "backend": backend,
        "measure_hash": mhash,
        "domain_label": table.omega.label,
        "tol": table.tol,
        "sources": [list(s) for s in table.sources],
        "residuals": [float(r) for r in table.residuals],
        "method": table.method,
        "iterations": [int(k) for k in table.iterations],
        "symmetry_order": table.symmetry_order,
        "unknowns": table.unknowns,
        "n_values": int(table.values.shape[1]),
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    # the values' own buffer (a copy only if they are not C-ordered "<f8")
    payload = np.ascontiguousarray(table.values, dtype="<f8")
    path = os.path.join(cache_dir,
                        cache_key(backend, mhash, table.omega.label, table.tol))
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            fh.write(memoryview(payload).cast("B"))
        os.replace(tmp, path)       # atomic publish
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load_table(cache_dir: str, backend: str, mhash: str, domain: Domain,
               tol: float):
    """Rebind cached values to a freshly built domain; None on any miss."""
    path = os.path.join(cache_dir, cache_key(backend, mhash, domain.label, tol))
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as fh:
            (mlen,) = struct.unpack("<Q", fh.read(8))
            meta = json.loads(fh.read(mlen).decode("utf-8"))
            payload = fh.read()
        if meta["version"] != __version__:
            return None
        if meta["backend"] != backend or meta["measure_hash"] != mhash:
            return None
        if meta["domain_label"] != domain.label or meta["tol"] != tol:
            return None
        # a file written before the solver record was kept, like one of an
        # older version
        if any(meta.get(k) is None for k in
               ("method", "iterations", "symmetry_order", "unknowns")):
            return None
        sources = [tuple(s) for s in meta["sources"]]
        vals = np.frombuffer(payload, dtype="<f8")
        expect = len(sources) * meta["n_values"]
        if len(vals) != expect or meta["n_values"] != len(domain):
            warnings.warn(f"corrupt cache file {path}; recomputing")
            return None
        values = vals.reshape(len(sources), meta["n_values"]).copy()
        return GreenTable(domain, sources, values,
                          np.array(meta["residuals"]), tol, meta["method"],
                          np.array(meta["iterations"], dtype=np.int64),
                          meta["symmetry_order"], meta["unknowns"])
    except Exception:
        warnings.warn(f"unreadable cache file {path}; recomputing")
        return None
