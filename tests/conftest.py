import numpy as np
import pytest
from hypothesis import settings

from greenlab import groups
from greenlab.green import ball_domain, killed_green_solve
from greenlab.measures import StepMeasure, uniform_on_generators

Z3 = groups.integer_lattice(3)
E3 = (0, 0, 0)
E1 = (1, 0, 0)

# Property tests draw the same examples on every run (seeded from each
# test's source) and have no per-example deadline, so a slow or busy
# machine cannot make them flake.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def z3_srw():
    return uniform_on_generators(groups.standard_generators(Z3))


@pytest.fixture(scope="session")
def z3_enclosing_tables(z3_srw):
    """Killed tables on B(0, 2R+2) with sources (0, e1) for the scan scales."""
    out = {}
    for r in (4, 6, 8, 10, 12, 14, 16):
        omega = ball_domain(Z3, z3_srw, 2 * r + 2, with_boundary=False)
        out[r] = killed_green_solve(omega, [E3, E1], z3_srw, tol=1e-12)
    return out


@pytest.fixture(scope="session")
def symmetric_z_laws():
    """Criterion 8's 100 random symmetric finite laws on Z: support -h..h
    for h in 1..5, weights drawn from seed 808."""
    z1 = groups.integer_lattice(1)
    rng = np.random.default_rng(808)
    laws = []
    for _ in range(100):
        half = rng.random(int(rng.integers(1, 6)))
        vals = np.concatenate([half[::-1], [rng.random()], half])
        vals /= vals.sum()
        laws.append(StepMeasure(z1, "finite", "symmetric-z", probs={
            (i - len(half),): v for i, v in enumerate(vals)}))
    return laws
