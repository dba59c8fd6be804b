"""Import guards: SciPy loads only when a layer first touches it, and the
thread pool of the solver and the batched walker only when one runs.

Each check runs in a fresh interpreter, since this test process has loaded
SciPy itself.  The child prints, as its last stdout line, the JSON list of
loaded `scipy*` modules (or of the modules under another prefix) after the
code under test has run.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import greenlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(greenlab.__file__)))


def modules_after(code, tmp_path, prefix="scipy"):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("GREENLAB_CACHE", None)
    loaded = ("print(json.dumps(sorted(m for m in sys.modules "
              f"if m.startswith({prefix!r}))))")
    script = "import json, sys\n" + textwrap.dedent(code) + "\n" + loaded
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def cli_run(cfg, tmp_path):
    """Child code that runs one config through `cli.main`."""
    cfg = dict(cfg, seed=1, output=str(tmp_path / "out.csv"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return f"""
        from greenlab import cli
        assert cli.main(["run", {str(path)!r}, "--cache-dir", {str(tmp_path / "c")!r}]) == 0
    """


def test_import_cli_loads_no_scipy(tmp_path):
    assert modules_after("import greenlab.cli", tmp_path) == []


def test_import_cli_loads_no_thread_pool(tmp_path):
    # killed_green_solve and the batched walker import their pool on use
    assert modules_after("import greenlab.cli", tmp_path,
                         prefix="concurrent") == []


SHELL = {"type": "shell", "r0": 3}
STABLE = {"type": "stable", "alpha": 1.0}


# A stable law's sampling table and sampler_tail_mass take their Hurwitz
# zetas from measures._hurwitz_zeta, and nothing a sampling run reports
# reads C_alpha
@pytest.mark.parametrize("cfg", [
    {"kind": "speed", "backend": "Heis3", "measure": SHELL,
     "n_list": [10], "eps_list": [0.5], "trials": 20},
    {"kind": "increment-probe", "backend": "Heis3", "measure": SHELL,
     "n": 50, "trials": 5},
    {"kind": "speed", "backend": "Z^1", "measure": STABLE,
     "n_list": [10], "eps_list": [0.5], "trials": 20},
    {"kind": "increment-probe", "backend": "Z^1", "measure": STABLE,
     "n": 50, "trials": 5},
    {"kind": "green-speed", "backend": "F_2", "measure": {"type": "srw"},
     "n_list": [10], "trials": 20},
], ids=["speed-heis3-shell", "increment-probe-heis3-shell", "speed-z1-stable",
        "increment-probe-z1-stable", "green-speed-f2"])
def test_sampling_kinds_load_no_scipy(cfg, tmp_path):
    assert modules_after(cli_run(cfg, tmp_path), tmp_path) == []


def test_green_table_loads_sparse_solvers(tmp_path):
    cfg = {"kind": "green-table", "backend": "Z^3", "measure": {"type": "srw"},
           "radius": 3, "sources": ["0,0,0"]}
    assert "scipy.sparse.linalg" in modules_after(cli_run(cfg, tmp_path), tmp_path)


def test_replaced_solver_module_sees_every_solve(tmp_path):
    # A caller may replace green.spla before SciPy has loaded, and green.cg
    # (a tracer does both), and must then see every solver call: green looks
    # both up at call time.  CG is green's own loop, so the factorization is
    # the only solve that goes through spla.
    code = """
        from greenlab import green, groups
        from greenlab.measures import uniform_on_generators

        assert not any(m.startswith("scipy") for m in sys.modules)

        class Recording:
            def __init__(self, inner):
                self.inner, self.names = inner, []

            def __getattr__(self, name):
                self.names.append(name)
                return getattr(self.inner, name)

        cg_sizes = []

        def recording_cg(mat, rhs, *args, **kwargs):
            cg_sizes.append(len(rhs))
            return plain_cg(mat, rhs, *args, **kwargs)

        plain_cg, green.cg = green.cg, recording_cg
        green.spla = Recording(green.spla)
        z3 = groups.integer_lattice(3)
        mu = uniform_on_generators(groups.standard_generators(z3))
        omega = green.ball_domain(z3, mu, 4, with_boundary=False)
        for method in ("cg", "direct"):
            green.killed_green_solve(omega, [(0, 0, 0)], mu, method=method)
        assert cg_sizes == [len(omega)], cg_sizes
        assert "splu" in green.spla.names, green.spla.names
    """
    assert "scipy.sparse.linalg" in modules_after(code, tmp_path)
