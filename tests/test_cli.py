"""Batch driver: configs, dispatch, caching, determinism, reporting."""

import json
import os

import numpy as np
import pytest

from greenlab import cli, groups, reporting, walks
from greenlab.cli import STATUS_CONFIG, STATUS_CONTRADICTION, STATUS_OK, run
from greenlab.reporting import parse_element, read_report, render_element, report_body


def write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def f2_delta_config(tmp_path, output="scan.csv"):
    return {
        "kind": "delta-scan",
        "backend": "F_2",
        "measure": {"type": "srw"},
        "scales": list(range(1, 9)),
        "seed": 0,
        "output": str(tmp_path / output),
    }


class TestRun:
    def test_f2_delta_scan_rows(self, tmp_path):
        cfg = f2_delta_config(tmp_path)
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, cache_dir=str(tmp_path / "cache")) == STATUS_OK
        meta, header, rows = read_report(cfg["output"])
        assert len(rows) == 8
        d_idx = header.index("delta")
        for row in rows:
            assert abs(float(row[d_idx]) - 2.0) < 1e-9

    def test_byte_identical_bodies(self, tmp_path):
        cfg = f2_delta_config(tmp_path)
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, cache_dir=str(tmp_path / "cache")) == STATUS_OK
        body1 = report_body(cfg["output"])
        assert run(path, cache_dir=str(tmp_path / "cache")) == STATUS_OK
        body2 = report_body(cfg["output"])
        assert body1 == body2

    def test_malformed_config_no_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "never.csv"
        assert run(str(bad)) == STATUS_CONFIG
        assert not out.exists()

    def test_unknown_kind_and_keys(self, tmp_path):
        p1 = write_config(tmp_path / "k.json",
                          {"kind": "mystery", "output": "x.csv"})
        assert run(p1) == STATUS_CONFIG
        cfg = f2_delta_config(tmp_path)
        cfg["surprise"] = 1
        p2 = write_config(tmp_path / "k2.json", cfg)
        assert run(p2) == STATUS_CONFIG

    def test_engine_key_rejected(self, tmp_path, capsys):
        # the tree oracle is chosen from the law alone; a config that still
        # names an engine is refused before anything is written
        cfg = dict(f2_delta_config(tmp_path), engine="closed-form")
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, cache_dir=str(tmp_path / "cache")) == STATUS_CONFIG
        assert not os.path.exists(cfg["output"])
        assert "unknown config keys ['engine']" in capsys.readouterr().err

    def test_missing_output_rejected(self, tmp_path):
        cfg = f2_delta_config(tmp_path)
        del cfg["output"]
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path) == STATUS_CONFIG

    def test_product_backend_unknown(self, tmp_path):
        cfg = f2_delta_config(tmp_path)
        cfg["backend"] = "(Z^3)xZ"
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path) == STATUS_CONFIG
        assert not os.path.exists(cfg["output"])

    def test_basepoint_sets_d_ab(self, tmp_path):
        # on the 4-regular tree Delta(B(R); e, b) = q^|b| - 1 with q = 3
        # (tree closed form), and d_ab is the word length of b
        cfg = f2_delta_config(tmp_path)
        cfg.update(basepoint="ab", scales=[3, 4])
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, cache_dir=str(tmp_path / "cache")) == STATUS_OK
        _, header, rows = read_report(cfg["output"])
        assert [row[header.index("d_ab")] for row in rows] == ["2", "2"]
        for row in rows:
            assert abs(float(row[header.index("delta")]) - 8.0) < 1e-9

    def test_recurrent_backend_is_numeric_failure_free(self, tmp_path):
        cfg = f2_delta_config(tmp_path)
        cfg["backend"] = "Z^2"
        path = write_config(tmp_path / "cfg.json", cfg)
        # transience guard raises a ValueError -> config-level rejection
        assert run(path) in (STATUS_CONFIG, cli.STATUS_NUMERIC)


class TestCache:
    def z3_config(self, tmp_path):
        return {
            "kind": "delta-scan",
            "backend": "Z^3",
            "measure": {"type": "srw"},
            "scales": [4],
            "seed": 0,
            "output": str(tmp_path / "z3.csv"),
        }

    def test_cache_hit_and_agreement(self, tmp_path, monkeypatch):
        cfg = self.z3_config(tmp_path)
        path = write_config(tmp_path / "cfg.json", cfg)
        cache_dir = str(tmp_path / "cache")
        assert run(path, cache_dir=cache_dir) == STATUS_OK
        first = report_body(cfg["output"])
        files = os.listdir(cache_dir)
        assert any(f.endswith(".green") for f in files)
        # second run must not solve at all: poison the solver
        import greenlab.cli as climod
        real_solve = climod.green.killed_green_solve

        def boom(*a, **k):
            raise AssertionError("cache miss: solver invoked")

        monkeypatch.setattr(climod.green, "killed_green_solve", boom)
        assert run(path, cache_dir=cache_dir) == STATUS_OK
        assert report_body(cfg["output"]) == first
        monkeypatch.setattr(climod.green, "killed_green_solve", real_solve)

    def test_cached_table_without_the_sources_is_a_miss(self, tmp_path):
        # a green-table run caches B(10) with source (1,1,1) only; the
        # delta-scan at R = 4 kills on the same B(10) but needs (0,0,0)
        # and e1, so it solves B(10) again for all three sources and
        # reports the fresh-cache body
        cache_dir = str(tmp_path / "cache")
        table_cfg = {"kind": "green-table", "backend": "Z^3",
                     "measure": {"type": "srw"}, "radius": 10,
                     "sources": ["1,1,1"], "output": str(tmp_path / "gt.csv")}
        assert run(write_config(tmp_path / "gt.json", table_cfg),
                   cache_dir=cache_dir) == STATUS_OK
        cfg = self.z3_config(tmp_path)
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, cache_dir=cache_dir) == STATUS_OK
        shared = report_body(cfg["output"])
        assert run(path, cache_dir=str(tmp_path / "fresh")) == STATUS_OK
        assert shared == report_body(cfg["output"])

    def test_alternating_kinds_share_one_table(self, tmp_path, monkeypatch):
        # green-table and delta-scan alternate on the shared B(10): the
        # second run merges the sources, and later runs only read the cache
        import greenlab.cli as climod
        real_solve = climod.green.killed_green_solve
        solved = []

        def counting(omega, sources, *args, **kwargs):
            solved.append((omega.label, len(sources)))
            return real_solve(omega, sources, *args, **kwargs)

        monkeypatch.setattr(climod.green, "killed_green_solve", counting)
        cache_dir = str(tmp_path / "cache")
        table_cfg = {"kind": "green-table", "backend": "Z^3",
                     "measure": {"type": "srw"}, "radius": 10,
                     "sources": ["1,1,1"], "output": str(tmp_path / "gt.csv")}
        paths = [write_config(tmp_path / "gt.json", table_cfg),
                 write_config(tmp_path / "ds.json", self.z3_config(tmp_path))]
        bodies = []
        for path in paths + paths:
            assert run(path, cache_dir=cache_dir) == STATUS_OK
            out = table_cfg["output"] if path == paths[0] else str(tmp_path / "z3.csv")
            bodies.append(report_body(out))
        b10 = [n for label, n in solved if label == solved[0][0]]
        assert b10 == [1, 3]
        assert bodies[2:] == bodies[:2]

    def test_tol_invalidates_key(self, tmp_path):
        cfg = self.z3_config(tmp_path)
        cache_dir = str(tmp_path / "cache")
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, cache_dir=cache_dir) == STATUS_OK
        n1 = len(os.listdir(cache_dir))
        cfg["tol"] = 1e-8
        path = write_config(tmp_path / "cfg2.json", cfg)
        assert run(path, cache_dir=cache_dir) == STATUS_OK
        assert len(os.listdir(cache_dir)) == n1 + 1

    def test_corrupt_cache_recomputed(self, tmp_path):
        cfg = self.z3_config(tmp_path)
        cache_dir = str(tmp_path / "cache")
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, cache_dir=cache_dir) == STATUS_OK
        first = report_body(cfg["output"])
        for f in os.listdir(cache_dir):
            full = os.path.join(cache_dir, f)
            with open(full, "r+b") as fh:
                fh.truncate(40)           # corrupt the payload
        with pytest.warns(UserWarning):
            assert run(path, cache_dir=cache_dir) == STATUS_OK
        assert report_body(cfg["output"]) == first

    def test_force_recompute(self, tmp_path):
        cfg = self.z3_config(tmp_path)
        cache_dir = str(tmp_path / "cache")
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, cache_dir=cache_dir) == STATUS_OK
        assert run(path, cache_dir=cache_dir, force_recompute=True) == STATUS_OK

    def test_env_var_cache_dir(self, tmp_path, monkeypatch):
        from greenlab.cache import default_cache_dir
        monkeypatch.setenv("GREENLAB_CACHE", str(tmp_path / "envcache"))
        assert default_cache_dir() == str(tmp_path / "envcache")

    def test_cache_roundtrip_values_identical(self, tmp_path, monkeypatch):
        # a cache hit reproduces every value of the saved table exactly;
        # a stale code version is a miss.  The lowered gate makes the
        # 231-point table an orbit-quotient solve, so the record is not trivial
        from greenlab import cache as cachemod
        from greenlab import green
        from greenlab.green import ball_domain, killed_green_solve
        from greenlab.measures import uniform_on_generators
        monkeypatch.setattr(green, "QUOTIENT_MIN", 100)
        Z3 = groups.integer_lattice(3)
        mu = uniform_on_generators(groups.standard_generators(Z3))
        omega = ball_domain(Z3, mu, 5, with_boundary=False)
        table = killed_green_solve(omega, [(0, 0, 0)], mu, tol=1e-10)
        assert table.symmetry_order == 48 and table.unknowns < len(omega)
        mhash = cachemod.measure_hash({"type": "srw"})
        cachemod.save_table(str(tmp_path), "Z^3", mhash, table)
        omega2 = ball_domain(Z3, mu, 5, with_boundary=False)
        loaded = cachemod.load_table(str(tmp_path), "Z^3", mhash, omega2, 1e-10)
        assert loaded is not None
        assert np.array_equal(loaded.values, table.values)
        assert loaded.method == "direct"
        assert np.array_equal(loaded.iterations, table.iterations)
        assert (loaded.symmetry_order, loaded.unknowns) == \
            (table.symmetry_order, table.unknowns)
        monkeypatch.setattr(cachemod, "__version__", "stale")
        assert cachemod.load_table(str(tmp_path), "Z^3", mhash, omega2,
                                   1e-10) is None


    def test_cache_key_separates_ball_centres(self, tmp_path):
        # a table for B(0, 3) is not a table for B((5, 0, 0), 3): same
        # size, but positional values over other points
        from greenlab import cache as cachemod
        from greenlab.green import ball_domain, killed_green_solve
        from greenlab.measures import uniform_on_generators
        Z3 = groups.integer_lattice(3)
        mu = uniform_on_generators(groups.standard_generators(Z3))
        mhash = cachemod.measure_hash({"type": "srw"})
        origin = ball_domain(Z3, mu, 3, with_boundary=False)
        assert origin.label == "ball[Z^3,R=3]"
        cachemod.save_table(str(tmp_path), "Z^3", mhash,
                            killed_green_solve(origin, [(0, 0, 0)], mu))
        shifted = ball_domain(Z3, mu, 3, center=(5, 0, 0), with_boundary=False)
        assert len(shifted) == len(origin)
        assert cachemod.load_table(str(tmp_path), "Z^3", mhash, shifted,
                                   1e-10) is None
        table = killed_green_solve(shifted, [(5, 0, 0)], mu)
        cachemod.save_table(str(tmp_path), "Z^3", mhash, table)
        loaded = cachemod.load_table(str(tmp_path), "Z^3", mhash, shifted, 1e-10)
        assert loaded.sources == [(5, 0, 0)]
        assert np.array_equal(loaded.values, table.values)
        assert cachemod.load_table(str(tmp_path), "Z^3", mhash, origin,
                                   1e-10).sources == [(0, 0, 0)]

    def test_cache_without_solver_record_is_a_miss(self, tmp_path, monkeypatch):
        # a file written before the solver record was kept is not loaded,
        # like one of an older version: no warning, and the run solves its
        # table again, to the same body
        import json
        import struct
        import warnings
        import greenlab.cli as climod
        cfg = self.z3_config(tmp_path)
        path = write_config(tmp_path / "cfg.json", cfg)
        cache_dir = str(tmp_path / "cache")
        assert run(path, cache_dir=cache_dir) == STATUS_OK
        first = report_body(cfg["output"])
        stripped = []
        for f in os.listdir(cache_dir):
            full = os.path.join(cache_dir, f)
            with open(full, "rb") as fh:
                (mlen,) = struct.unpack("<Q", fh.read(8))
                meta = json.loads(fh.read(mlen).decode("utf-8"))
                payload = fh.read()
            for key in ("method", "iterations", "symmetry_order", "unknowns"):
                del meta[key]
            stripped.append(meta["domain_label"])
            blob = json.dumps(meta, sort_keys=True).encode("utf-8")
            with open(full, "wb") as fh:
                fh.write(struct.pack("<Q", len(blob)) + blob + payload)
        real_solve = climod.green.killed_green_solve
        solved = []

        def counting(omega, sources, *args, **kwargs):
            solved.append(omega.label)
            return real_solve(omega, sources, *args, **kwargs)

        monkeypatch.setattr(climod.green, "killed_green_solve", counting)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(path, cache_dir=cache_dir) == STATUS_OK
        assert not [w for w in caught if "cache file" in str(w.message)]
        assert stripped and sorted(solved) == sorted(stripped)
        assert report_body(cfg["output"]) == first


class TestOtherKinds:
    def test_envelope_kind(self, tmp_path):
        cfg = {"kind": "envelope", "d_star": 3, "gamma": 2, "alpha": 1,
               "phi": {"kind": "polynomial", "delta": 5.0},
               "r_decades": [0.5, 3.0], "points_per_decade": 3,
               "output": str(tmp_path / "env.csv")}
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path) == STATUS_OK
        meta, header, rows = read_report(cfg["output"])
        assert meta["verdict"] in ("bounded", "diverging")
        assert header[-4:] == ["r", "lhs", "rhs", "ratio"]

    def test_speed_kind(self, tmp_path):
        cfg = {"kind": "speed", "backend": "Z^3", "measure": {"type": "srw"},
               "n_list": [100], "eps_list": [0.5], "trials": 200, "seed": 3,
               "output": str(tmp_path / "sp.csv")}
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path) == STATUS_OK

    def test_dispersion_kind_with_product(self, tmp_path):
        cfg = {"kind": "dispersion", "measure": {"type": "stable", "alpha": 1.0},
               "shift": 1, "n_list": [16, 64], "cap": 20000,
               "product_shift": [1, 1], "product_cap": 20000,
               "output": str(tmp_path / "tv.csv")}
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path) == STATUS_OK
        _, header, rows = read_report(cfg["output"])
        assert "tv_product" in header

    def test_cone_kind(self, tmp_path):
        cfg = {"kind": "cone", "box": 30, "probes": [[2, 3]], "base": [1, 1],
               "n_list": [10, 15], "output": str(tmp_path / "cone.csv")}
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path) == STATUS_OK
        meta, _, _ = read_report(cfg["output"])
        solver = meta["solver"]
        assert solver["method"] == "direct"
        assert (solver["symmetry_order"], solver["unknowns"]) == (1, 30 ** 2)
        assert 0.0 <= meta["residual"] < 1e-8
        assert "homogeneity_degree" not in meta

    def test_on_diagonal_kind(self, tmp_path):
        cfg = {"kind": "on-diagonal", "backend": "F_2",
               "measure": {"type": "srw"}, "m_max": 8,
               "output": str(tmp_path / "od.csv")}
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path) == STATUS_OK
        meta, _, _ = read_report(cfg["output"])
        assert "kesten_root" in meta
        assert "fitted_root" in meta

    def test_on_diagonal_fitted_root_near_kesten(self, tmp_path):
        # exp(rate/2) of the three-parameter fit estimates rho = sqrt(3)/2 on
        # F_2; the raw root kesten_root is still biased low at m = 12
        cfg = {"kind": "on-diagonal", "backend": "F_2",
               "measure": {"type": "srw"}, "m_max": 12,
               "output": str(tmp_path / "od.csv")}
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path) == STATUS_OK
        meta, _, _ = read_report(cfg["output"])
        assert abs(meta["fitted_root"] - np.sqrt(3.0) / 2.0) <= 0.02
        assert meta["kesten_root"] < meta["fitted_root"]

    def test_increment_probe_kind(self, tmp_path):
        cfg = {"kind": "increment-probe", "backend": "Z^1",
               "measure": {"type": "stable", "alpha": 1.0},
               "n": 1000, "trials": 50, "checkpoints": [100, 1000],
               "seed": 1, "output": str(tmp_path / "inc.csv")}
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path) == STATUS_OK

    def test_sampler_tail_mass_in_meta(self, tmp_path):
        # shell and stable samplers record the mass their table drops;
        # finite laws sample exactly and record nothing
        speed = {"kind": "speed", "n_list": [10], "eps_list": [0.5], "trials": 20}
        probe = {"kind": "increment-probe", "n": 50, "trials": 5}
        cases = [
            (dict(speed, backend="Heis3", measure={"type": "shell", "r0": 3}), True),
            (dict(probe, backend="Z^1",
                  measure={"type": "stable", "alpha": 1.0, "laziness": 0.5}), True),
            (dict(speed, backend="Z^3", measure={"type": "srw"}), False),
            (dict(probe, backend="Z^1", measure={"type": "srw"}), False),
        ]
        for i, (cfg, truncated) in enumerate(cases):
            cfg["output"] = str(tmp_path / f"r{i}.csv")
            assert run(write_config(tmp_path / f"c{i}.json", cfg)) == STATUS_OK
            meta = read_report(cfg["output"])[0]
            if not truncated:
                assert "sampler_tail_mass" not in meta
                continue
            mu = cli.build_measure(cli.parse_backend(cfg["backend"]), cfg["measure"])
            assert meta["sampler_tail_mass"] == mu.sampler_tail_mass() > 0

    def test_green_table_kind_with_spd(self, tmp_path):
        cfg = {"kind": "green-table", "backend": "Z^3",
               "measure": {"type": "srw"}, "radius": 3,
               "sources": ["0,0,0"], "boundary_matrix": True,
               "output": str(tmp_path / "gt.csv")}
        path = write_config(tmp_path / "cfg.json", cfg)
        # B(0, 3) in Z^3: 63 points, below the orbit-quotient gate
        solver = {"method": "direct", "iterations": [0], "symmetry_order": 1,
                  "unknowns": 63}
        for _ in range(2):          # a cache miss, then a hit
            assert run(path, cache_dir=str(tmp_path / "c")) == STATUS_OK
            meta, _, _ = read_report(cfg["output"])
            assert meta["spd_ok"] is True
            assert meta["solver"] == solver

    def test_contradiction_status(self, tmp_path, monkeypatch):
        # doctor the dispersion curve to violate TV <= 1: plumbing must abort
        # with the contradiction status
        cfg = {"kind": "dispersion", "measure": {"type": "stable", "alpha": 1.0},
               "shift": 1, "n_list": [16], "cap": 4000,
               "output": str(tmp_path / "bad.csv")}
        path = write_config(tmp_path / "cfg.json", cfg)

        def bogus(pmf, shift, n_list, cap):
            return walks.DispersionCurve(shift, [(16, 1.5, 0.0)], False)

        monkeypatch.setattr(cli.walks, "tv_dispersion_z", bogus)
        assert run(path) == STATUS_CONTRADICTION

    def test_emit_plot_script(self, tmp_path):
        cfg = f2_delta_config(tmp_path)
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, cache_dir=str(tmp_path / "c"),
                   emit_plot_script=True) == STATUS_OK
        assert os.path.exists(cfg["output"] + ".plot.py")

    def test_seed_override(self, tmp_path):
        cfg = {"kind": "speed", "backend": "Z^3", "measure": {"type": "srw"},
               "n_list": [50], "eps_list": [0.5], "trials": 100, "seed": 3,
               "output": str(tmp_path / "s1.csv")}
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run(path, seed=99) == STATUS_OK
        meta, _, _ = read_report(cfg["output"])
        assert meta["seed"] == 99


SPEED_CFG = {"kind": "speed", "backend": "Heis3", "measure": {"type": "srw"},
             "n_list": [10], "eps_list": [0.5], "trials": 20}
PROBE_CFG = {"kind": "increment-probe", "backend": "Heis3",
             "measure": {"type": "srw"}, "n": 10, "trials": 5}
DISPERSION_CFG = {"kind": "dispersion", "measure": {"type": "stable", "alpha": 1.0},
                  "shift": 1, "n_list": [16], "cap": 4000}
TABLE_CFG = {"kind": "green-table", "backend": "Z^3", "measure": {"type": "srw"},
             "radius": 2, "sources": ["0,0,0"]}
SCAN_CFG = {"kind": "delta-scan", "backend": "Z^3", "measure": {"type": "srw"},
            "scales": [2]}


class TestInvalidMonteCarloSizes:
    # each of these raised a traceback (status 1), printed a bare message,
    # named no key or wrote a wrong row (a non-integer size was truncated)
    # before the sizes were checked
    @pytest.mark.parametrize("cfg, key", [
        (dict(PROBE_CFG, checkpoints=[20]), "checkpoints"),
        (dict(PROBE_CFG, checkpoints=[0, 10]), "checkpoints"),
        (dict(PROBE_CFG, n=-5), "n"),
        (dict(SPEED_CFG, trials=0), "trials"),
        (dict(SPEED_CFG, n_list=[0, 10]), "n_list"),
        (dict(SPEED_CFG, n_list=[-5]), "n_list"),
        ({"kind": "green-speed", "backend": "F_2", "measure": {"type": "srw"},
          "n_list": [5], "trials": 1}, "trials"),
        (dict(DISPERSION_CFG, n_list=[0, 16]), "n_list"),
        (dict(DISPERSION_CFG, n_list=[-4, 4]), "n_list"),
        (dict(SPEED_CFG, n_list=[10.5]), "n_list"),
        (dict(SPEED_CFG, trials=20.5), "trials"),
        (dict(TABLE_CFG, radius=2.5), "radius"),
        (dict(TABLE_CFG, radius=-1), "radius"),
        (dict(SCAN_CFG, scales=[2, 0]), "scales"),
        (dict(SCAN_CFG, scales=[-1]), "scales"),
    ], ids=["checkpoint-above-n", "checkpoint-zero", "negative-n",
            "zero-trials", "zero-in-n-list", "negative-n-list",
            "green-speed-one-trial", "dispersion-zero-in-n-list",
            "dispersion-negative-n-list", "non-integer-n-list",
            "non-integer-trials", "non-integer-radius", "negative-radius",
            "zero-scale", "negative-scale"])
    def test_exits_2_without_output(self, cfg, key, tmp_path, capsys):
        out = tmp_path / "out.csv"
        path = write_config(tmp_path / "cfg.json", dict(cfg, output=str(out)))
        assert run(path, cache_dir=str(tmp_path / "cache")) == STATUS_CONFIG
        assert not out.exists()
        assert f"config error: {key} must" in capsys.readouterr().err


class TestReporting:
    def test_float_rendering_roundtrip(self):
        for v in (1 / 3, 1.5163860591, 2e-10, 123456.789012):
            assert float(reporting.format_value(v)) == pytest.approx(v, rel=1e-11)

    def test_element_rendering_roundtrip(self):
        Z3 = groups.integer_lattice(3)
        F2 = groups.free_group(2)
        H = groups.heisenberg()
        cases = [(Z3, (1, -2, 0)), (H, (3, 2, 6)), (F2, (1, -2, 1)),
                 (F2, ())]
        for spec, g in cases:
            assert parse_element(spec, render_element(spec, g)) == g

    def test_empty_rows_header_only(self, tmp_path):
        out = str(tmp_path / "empty.csv")
        reporting.emit_report([], out, ["a", "b"], {"seed": 0})
        meta, header, rows = read_report(out)
        assert header == ["a", "b"] and rows == []

    def test_csv_quoting(self, tmp_path):
        out = str(tmp_path / "q.csv")
        reporting.emit_report([["x,y", 1.0]], out, ["label", "v"], {})
        _, _, rows = read_report(out)
        assert rows[0][0] == "x,y"
