"""CSV reporting with a metadata header line and deterministic bodies.

The first line is a ``# meta:`` comment holding the run context (timestamp,
seed, code version, backend, measure hash); everything after it is fully
determined by (config, seed, code version), so repeated runs produce
byte-identical bodies.  Floats are rendered with 12 significant digits,
which round-trips through float() stably at this precision.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time

from .groups import GroupSpec


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    if v is None:
        return ""
    return str(v)


def emit_report(rows, path: str, header: list, meta: dict) -> None:
    """Write rows (iterables matching header) as CSV, UTF-8,
    newline-terminated, RFC-4180 quoting where needed."""
    meta = dict(meta)
    meta.setdefault("timestamp", time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    body = buf.getvalue()
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# meta: " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write(body)


def read_report(path: str) -> tuple:
    """(meta dict, header, rows of strings)."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        meta = json.loads(first[len("# meta: "):]) if first.startswith("# meta: ") else {}
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return meta, header, rows


def report_body(path: str) -> str:
    """Everything after the metadata line (the deterministic part)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    start = 1 if lines and lines[0].startswith("# meta: ") else 0
    return "".join(lines[start:])


# ---------------------------------------------------------------------------
# Canonical element rendering (round-trip safe)
# ---------------------------------------------------------------------------

def render_element(spec: GroupSpec, g) -> str:
    """Canonical word/coordinate notation: lattice and Heisenberg elements as
    comma-joined integers, free-group words as letters (inverse = uppercase,
    identity = 'e')."""
    if spec.variant in ("lattice", "heisenberg"):
        return ",".join(str(int(c)) for c in g)
    if not g:
        return "e"
    out = []
    for letter in g:
        ch = chr(ord("a") + abs(letter) - 1)
        out.append(ch.upper() if letter < 0 else ch)
    return "".join(out)


def parse_element(spec: GroupSpec, text: str):
    if spec.variant in ("lattice", "heisenberg"):
        return tuple(int(c) for c in text.split(","))
    if text == "e":
        return ()
    word = []
    for ch in text:
        i = ord(ch.lower()) - ord("a") + 1
        word.append(-i if ch.isupper() else i)
    return tuple(word)
