"""Golden report bodies: small CLI configs whose CSV bodies (everything after
the ``# meta:`` line) must stay byte-identical across refactors.

The expected bodies live in tests/data/golden_<name>.csv; the deterministic
meta fields named in META_KEYS (the boundary-matrix certificate, which is
not part of any body) are pinned in tests/data/golden_meta.json.  To
re-record both after a deliberate, documented change:

    PYTHONPATH=src python tests/test_golden.py [name ...]

With names, only those configs (and their golden_meta.json entries) are
re-recorded; with none, every config is.
"""

import json
import os
import sys

import pytest

from greenlab.cli import KINDS, STATUS_OK, run
from greenlab.reporting import read_report, report_body

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

CONFIGS = {
    "eps_delta_z3": {"kind": "eps-delta", "backend": "Z^3",
                     "measure": {"type": "srw"}, "scales": [4, 5, 6, 7, 8]},
    "eps_delta_heis3": {"kind": "eps-delta", "backend": "Heis3",
                        "measure": {"type": "srw"}, "scales": [2, 3]},
    "delta_scan_f2": {"kind": "delta-scan", "backend": "F_2",
                      "measure": {"type": "srw"}, "scales": [2, 3, 4, 5, 6]},
    "delta_scan_f2_lazy": {"kind": "delta-scan", "backend": "F_2",
                           "measure": {"type": "srw", "laziness": 0.5},
                           "scales": [2, 3, 4]},
    "green_table_heis3": {"kind": "green-table", "backend": "Heis3",
                          "measure": {"type": "srw"}, "radius": 6,
                          "sources": ["0,0,0", "1,0,0", "0,1,1"],
                          "boundary_matrix": True},
    "green_speed_f2": {"kind": "green-speed", "backend": "F_2",
                       "measure": {"type": "srw"}, "n_list": [10, 100, 400],
                       "trials": 2000},
    "green_speed_z3": {"kind": "green-speed", "backend": "Z^3",
                       "measure": {"type": "srw"}, "n_list": [10, 40],
                       "trials": 300},
    "dispersion_stable": {"kind": "dispersion",
                          "measure": {"type": "stable", "alpha": 1.0},
                          "shift": 1, "n_list": [16, 64, 256], "cap": 20000,
                          "product_shift": [1, 1], "product_cap": 20000},
    "speed_heis3_shell": {"kind": "speed", "backend": "Heis3",
                          "measure": {"type": "shell", "r0": 3},
                          "n_list": [10, 100, 400], "eps_list": [0.5],
                          "trials": 500},
    "speed_heis3_srw_lazy": {"kind": "speed", "backend": "Heis3",
                             "measure": {"type": "srw", "laziness": 0.25},
                             "n_list": [10, 100], "eps_list": [0.2],
                             "trials": 500},
    "speed_z1_stable_lazy": {"kind": "speed", "backend": "Z^1",
                             "measure": {"type": "stable", "alpha": 1.0,
                                         "laziness": 0.2},
                             "n_list": [10, 100], "eps_list": [0.5],
                             "trials": 500},
    "increment_probe_heis3_shell": {"kind": "increment-probe",
                                    "backend": "Heis3",
                                    "measure": {"type": "shell", "r0": 3},
                                    "n": 2000, "trials": 100,
                                    "checkpoints": [10, 100, 2000]},
    "increment_probe_z1_stable": {"kind": "increment-probe", "backend": "Z^1",
                                  "measure": {"type": "stable", "alpha": 1.0},
                                  "n": 2000, "trials": 100,
                                  "checkpoints": [10, 100, 2000]},
    "cone_quadrant": {"kind": "cone", "box": 64, "probes": [[2, 3], [5, 9]],
                      "base": [1, 1], "n_list": [8, 16, 32, 64]},
    "envelope_polynomial": {"kind": "envelope", "d_star": 3, "gamma": 2,
                            "alpha": 1,
                            "phi": {"kind": "polynomial", "delta": 5.0},
                            "r_decades": [0.5, 3.0], "points_per_decade": 3},
    "on_diagonal_f2": {"kind": "on-diagonal", "backend": "F_2",
                       "measure": {"type": "srw"}, "m_max": 8},
}

META_KEYS = {"green_table_heis3": ("spd_ok", "min_eigenvalue"),
             "cone_quadrant": ("harmonicity_defect",)}


def run_report(name, workdir):
    """(body, pinned meta fields) of one config's report."""
    cfg = dict(CONFIGS[name], seed=3,
               output=os.path.join(workdir, f"{name}.csv"))
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    status = run(path, cache_dir=os.path.join(workdir, "cache"))
    assert status == STATUS_OK
    meta = read_report(cfg["output"])[0]
    return (report_body(cfg["output"]),
            {k: meta[k] for k in META_KEYS.get(name, ())})


def golden_path(name):
    return os.path.join(DATA, f"golden_{name}.csv")


META_PATH = os.path.join(DATA, "golden_meta.json")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_body_matches_golden(name, tmp_path):
    with open(golden_path(name), encoding="utf-8", newline="") as fh:
        want = fh.read()
    with open(META_PATH, encoding="utf-8") as fh:
        want_meta = json.load(fh).get(name, {})
    body, meta = run_report(name, str(tmp_path))
    assert body == want
    assert meta == want_meta


def test_every_kind_has_golden():
    assert set(KINDS) <= {cfg["kind"] for cfg in CONFIGS.values()}


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or sorted(CONFIGS)
    unknown = sorted(set(names) - set(CONFIGS))
    if unknown:
        sys.exit(f"unknown golden config(s): {', '.join(unknown)}")
    os.makedirs(DATA, exist_ok=True)
    metas = {}
    if sys.argv[1:] and os.path.exists(META_PATH):
        with open(META_PATH, encoding="utf-8") as fh:
            metas = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp:
        for key in names:
            body, meta = run_report(key, tmp)
            with open(golden_path(key), "w", encoding="utf-8", newline="") as fh:
                fh.write(body)
            metas.pop(key, None)
            if meta:
                metas[key] = meta
            print(f"recorded {golden_path(key)}", file=sys.stderr)
    with open(META_PATH, "w", encoding="utf-8") as fh:
        json.dump(metas, fh, indent=1, sort_keys=True)
        fh.write("\n")
