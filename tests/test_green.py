"""Killed Green solves, exit laws, boundary matrices, brackets, MC hitting,
and the exact Z^3 reference."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

import greenlab
from greenlab import green, groups
from greenlab.green import (TransienceError, TreeGreenOracle, ball_domain,
                            boundary_green_matrix, box_domain, check_transient,
                            exit_distribution, killed_green_solve,
                            mc_green_diagonal, mc_hitting_green,
                            quadrant_harmonicity_defect,
                            quadrant_killed_green, vector_identity_residual,
                            verify_exit_decomposition)
from greenlab.measures import StepMeasure, lazy_transform, uniform_on_generators
from greenlab.rng import derive_stream
from lattice_green_oracle import WATSON_G00, z3_green

Z3 = groups.integer_lattice(3)
F2 = groups.free_group(2)
HEIS = groups.heisenberg()
E3 = (0, 0, 0)
# a point no axis flip or transposition fixes
ASYMMETRIC = (1, 2, 3)


def srw(spec):
    return uniform_on_generators(groups.standard_generators(spec))


def stretched_z3():
    """Z^3 steps +-e1, +-2 e2, +-e3 with equal mass: a non-unit support."""
    steps = [(1, 0, 0), (-1, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 1), (0, 0, -1)]
    return StepMeasure(Z3, "finite", "stretched", probs={s: 1 / 6 for s in steps})


@pytest.fixture(scope="module")
def z3_table_b20():
    """Sources: origin, e1, and the whole boundary of B(0,4); domain B(0,20)."""
    mu = srw(Z3)
    s4 = ball_domain(Z3, mu, 4)
    omega = ball_domain(Z3, mu, 20, with_boundary=False)
    sources = [E3, (1, 0, 0)] + s4.boundary
    return s4, killed_green_solve(omega, sources, mu, tol=1e-12)


class TestDomains:
    def test_single_point(self):
        dom = ball_domain(Z3, srw(Z3), 0)
        assert len(dom) == 1 and len(dom.boundary) == 6

    def test_lattice_ball_boundary_is_sphere(self):
        dom = ball_domain(Z3, srw(Z3), 3)
        assert len(dom.boundary) == len(groups.sphere(Z3, groups.standard_generators(Z3), 4))

    def test_free_ball_sizes(self):
        dom = ball_domain(F2, srw(F2), 5)
        assert len(dom) == 2 * 3 ** 5 - 1
        assert len(dom.boundary) == 4 * 3 ** 5

    def test_free_ball_lookup_roundtrip(self):
        dom = ball_domain(F2, srw(F2), 4)
        for w in [(), (1,), (1, 2, -1), (2, 2, 2, 2), (-1, 2, -1, 2)]:
            assert dom.elements[dom.lookup(w)] == w
        assert dom.lookup((1, 1, 1, 1, 1)) is None

    def test_box_domain(self):
        dom = box_domain(Z3, srw(Z3), 2)
        assert len(dom) == 125
        assert (3, 0, 0) in dom.boundary and (2, 2, 2) in dom

    def test_transience_guard(self):
        check_transient(Z3)
        for d in (1, 2):
            with pytest.raises(TransienceError):
                check_transient(groups.integer_lattice(d))


class TestKilledSolve:
    def test_single_point_domain(self):
        dom = ball_domain(Z3, srw(Z3), 0)
        t = killed_green_solve(dom, [E3], srw(Z3))
        assert t.green(E3, E3) == pytest.approx(1.0, abs=1e-12)

    def test_f2_ball_matches_closed_form(self):
        mu = srw(F2)
        om = ball_domain(F2, mu, 10, with_boundary=False)
        t = killed_green_solve(om, [()], mu, method="cg")
        oracle = TreeGreenOracle(F2)
        # truncation error at B(10) for |x| <= 4 is below 1e-5
        for x in [(), (1,), (1, 2), (1, 2, -1), (2, -1, 2, -1)]:
            assert t.green((), x) == pytest.approx(oracle.green((), x), abs=1e-5)

    def test_symmetry_of_table(self, z3_table_b20):
        _, table = z3_table_b20
        a, b = E3, (1, 0, 0)
        assert table.green(a, b) == pytest.approx(table.green(b, a),
                                                  abs=10 * table.max_residual())

    def test_resolvent_identity_interior(self, z3_table_b20):
        # G(y,x) = sum_s mu(s) G(ys,x) + delta_{y,x} at interior points
        _, table = z3_table_b20
        mu = srw(Z3)
        x = E3                       # source row doubles as column by symmetry
        for y in [E3, (1, 0, 0), (2, -3, 0), (0, 0, 1)]:
            acc = sum(mu.pmf(s) * table.green(x, groups.mul(Z3, y, s))
                      for s in mu.support_elements())
            want = table.green(x, y) - (1.0 if y == x else 0.0)
            assert acc == pytest.approx(want, abs=1e-9)

    def test_monotone_domain_nesting(self):
        mu = srw(Z3)
        vals = []
        for r in (6, 10, 14):
            om = ball_domain(Z3, mu, r, with_boundary=False)
            t = killed_green_solve(om, [E3], mu)
            vals.append([t.green(E3, x) for x in [E3, (1, 0, 0), (2, 2, 0)]])
        arr = np.array(vals)
        assert np.all(np.diff(arr, axis=0) >= -1e-12)

    @pytest.mark.parametrize("radius", [10, 20, 40])
    def test_killed_values_increase_to_full_green(self, radius):
        # G - G_B(R) = sum_z H_B(R)(0, z) G(z, x) ~ c / R at fixed x; R times
        # the gap read 0.673, 0.707, 0.725 at R = 10, 20, 40
        mu = srw(Z3)
        xs = [E3, (1, 0, 0), (1, 1, 1), (3, 0, 0)]
        table = killed_green_solve(ball_domain(Z3, mu, radius, with_boundary=False),
                                   [E3], mu)
        gap = np.array([z3_green(x) for x in xs]) - table.row_at(E3, xs)
        assert (gap > 0).all()
        assert ((0.6 <= radius * gap) & (radius * gap <= 0.8)).all()

    def test_green_comparison_inequality(self, z3_table_b20):
        # G(z,x) <= rho^{-|a^-1 z|} G(a,x) with rho = min generator mass
        _, table = z3_table_b20
        rho = 1 / 6
        a, z = E3, (1, 0, 0)
        for x in [(3, 1, 0), (0, 0, 5), (2, 2, 2)]:
            assert table.green(z, x) <= rho ** -1 * table.green(a, x) + 1e-12

    def test_uniform_bound_diagonal(self, z3_table_b20):
        _, table = z3_table_b20
        gee = table.green(E3, E3)
        row = table.row(E3)
        assert np.max(row) <= gee + 10 * table.max_residual()

    def test_lazification_scaling_exact(self):
        mu = srw(Z3)
        om = ball_domain(Z3, mu, 6, with_boundary=False)
        plain = killed_green_solve(om, [E3], mu, method="direct")
        for eps in (0.25, 0.5):
            lz = killed_green_solve(om, [E3], lazy_transform(mu, eps),
                                    method="direct")
            assert np.allclose(lz.row(E3), plain.row(E3) / (1 - eps),
                               rtol=0, atol=1e-11)

    def test_source_outside_domain(self):
        dom = ball_domain(Z3, srw(Z3), 2, with_boundary=False)
        with pytest.raises(ValueError):
            killed_green_solve(dom, [(5, 0, 0)], srw(Z3))

    def test_solver_record(self, z3_table_b20):
        _, direct = z3_table_b20
        assert direct.method == "direct"
        assert np.array_equal(direct.iterations, np.zeros(len(direct.sources)))
        om = ball_domain(Z3, srw(Z3), 10, with_boundary=False)
        plain = killed_green_solve(om, [E3, (1, 0, 0)], srw(Z3), method="cg")
        assert plain.method == "cg"
        assert plain.iterations.shape == (2,) and np.all(plain.iterations > 0)

    def test_unknown_method_rejected(self):
        # any method but the three named ones once ran CG silently and was
        # recorded as the table's method
        om = ball_domain(Z3, srw(Z3), 2, with_boundary=False)
        with pytest.raises(ValueError, match="'auto', 'direct' or 'cg'"):
            killed_green_solve(om, [E3], srw(Z3), method="foo")


def coo_operator(omega, mu):
    """I - P on omega from one (row, column, value) triple per element and
    in-domain step, found by group multiplication and lookup."""
    e = groups.identity(omega.spec)
    rows, cols, vals = [], [], []
    for i, g in enumerate(omega.elements):
        rows.append(i)
        cols.append(i)
        vals.append(1.0 - mu.pmf(e))
        for s in mu.support_elements():
            j = omega.lookup(groups.mul(omega.spec, g, s))
            if s != e and j is not None:
                rows.append(i)
                cols.append(j)
                vals.append(-mu.pmf(s))
    n = len(omega)
    ref = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    ref.sum_duplicates()
    ref.sort_indices()
    return ref


OPERATOR_CASES = {
    "lattice-ball-lazy": lambda: (ball_domain(Z3, srw(Z3), 4),
                                  lazy_transform(srw(Z3), 0.3)),
    "lattice-box-stretched": lambda: (box_domain(Z3, stretched_z3(), 3),
                                      stretched_z3()),
    "free-ball": lambda: (ball_domain(F2, srw(F2), 4), srw(F2)),
    "heis3-ball-lazy": lambda: (ball_domain(HEIS, srw(HEIS), 3, with_boundary=False),
                                lazy_transform(srw(HEIS), 0.5)),
}


@pytest.mark.parametrize("name", sorted(OPERATOR_CASES))
def test_operator_matches_coo_build(name):
    omega, mu = OPERATOR_CASES[name]()
    mat, ref = green._operator(omega, mu), coo_operator(omega, mu)
    assert mat.has_sorted_indices
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(mat, field), getattr(ref, field)), field


def scipy_cg(mat, rhs, tol):
    """(x, iterations) of scipy.sparse.linalg.cg under green.cg's stopping
    rule and iteration cap, the reference for green.cg."""
    count = [0]
    x, info = spla.cg(mat, rhs, rtol=0.0, atol=tol, maxiter=20 * len(rhs),
                      callback=lambda _: count.__setitem__(0, count[0] + 1))
    assert info == 0
    return x, count[0]


def unit_rhs(omega, a):
    rhs = np.zeros(len(omega))
    rhs[omega.lookup(a)] = 1.0
    return rhs


# domains for CG checks from the source ASYMMETRIC
CG_CASES = {
    "Z3": lambda: ball_domain(Z3, srw(Z3), 20, with_boundary=False),
    "Heis3": lambda: ball_domain(HEIS, srw(HEIS), 12, with_boundary=False),
}

# Solves Z^3 B(22) (15,225 unknowns, above OpenBLAS's 10,000-entry threading
# cut) from two sources by CG and prints a digest of the table.
BLAS_CHILD = """
import hashlib
from greenlab import green, groups
from greenlab.measures import uniform_on_generators

z3 = groups.integer_lattice(3)
mu = uniform_on_generators(groups.standard_generators(z3))
omega = green.ball_domain(z3, mu, 22, with_boundary=False)
table = green.killed_green_solve(omega, [(0, 0, 0), (1, 0, 0)], mu)
assert table.method == "cg" and table.unknowns > 10_000
print(hashlib.sha256(table.values.tobytes() + table.residuals.tobytes()
                     + table.iterations.tobytes()).hexdigest())
"""


class TestCG:
    @pytest.mark.parametrize("name", sorted(CG_CASES))
    def test_matches_scipy_cg(self, name):
        omega = CG_CASES[name]()
        mat = green._operator(omega, srw(omega.spec))
        rhs = unit_rhs(omega, ASYMMETRIC)
        x, iterations = green.cg(mat, rhs, 1e-10, 20 * len(rhs))
        ref, ref_iterations = scipy_cg(mat, rhs, 1e-10)
        assert iterations == ref_iterations > 1
        assert np.max(np.abs(x - ref)) <= 1e-13

    def test_full_system_above_the_gate_matches_scipy_cg(self):
        # B(0, 44) in Z^3 has 117,569 points, just above QUOTIENT_MIN; no
        # axis symmetry fixes the source, so plain CG runs on all of them
        mu = srw(Z3)
        omega = ball_domain(Z3, mu, 44, with_boundary=False)
        assert len(omega) > green.QUOTIENT_MIN
        table = killed_green_solve(omega, [ASYMMETRIC], mu, tol=1e-10)
        assert (table.method, table.unknowns) == ("cg", len(omega))
        ref, ref_iterations = scipy_cg(green._operator(omega, mu),
                                       unit_rhs(omega, ASYMMETRIC), 1e-10)
        assert table.iterations[0] == ref_iterations
        assert np.max(np.abs(table.row(ASYMMETRIC) - ref)) <= 1e-13

    @pytest.mark.parametrize("name", sorted(CG_CASES))
    def test_worker_count_does_not_change_the_table(self, name, monkeypatch):
        # more workers than CPUs and a short switch interval, so the threads
        # interleave often; every row must still be the serial one
        omega = CG_CASES[name]()
        mu = srw(omega.spec)
        sources = [ASYMMETRIC, (1, 0, 0), (0, 1, 1), (2, 0, 1), (0, 0, 2)]
        tables = []
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for workers in (1, 4):
                monkeypatch.setattr(greenlab, "CPUS", workers)
                tables.append(killed_green_solve(omega, sources, mu, method="cg"))
        finally:
            sys.setswitchinterval(interval)
        one, two = tables
        assert np.array_equal(one.values, two.values)
        assert np.array_equal(one.residuals, two.residuals)
        assert np.array_equal(one.iterations, two.iterations)
        assert (one.iterations > 1).all()

    def test_tiny_maxiter_raises(self):
        omega = CG_CASES["Heis3"]()
        mat = green._operator(omega, srw(HEIS))
        with pytest.raises(green.SolverError):
            green.cg(mat, unit_rhs(omega, ASYMMETRIC), 1e-10, 3)

    def test_table_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS splits a dot product above 10,000 entries across its
        # threads, which changes its rounding; CG's reductions avoid BLAS
        src = os.path.dirname(os.path.dirname(os.path.abspath(green.__file__)))
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", BLAS_CHILD], cwd=tmp_path,
                                 env=env, capture_output=True, text=True, timeout=300)
            assert out.returncode == 0, out.stderr
            digests.add(out.stdout.split()[-1])
        assert len(digests) == 1


def full_direct_row(omega, mu, a):
    """G_Omega(a, .) by a direct factorization of the full operator."""
    rhs = np.zeros(len(omega))
    rhs[omega.lookup(a)] = 1.0
    return spla.splu(green._operator(omega, mu).tocsc()).solve(rhs)


class TestOrbitQuotient:
    """Lattice tables above QUOTIENT_MIN points are solved on the orbit
    quotient of their axis symmetries; QUOTIENT_MIN is lowered so that
    small balls take that path."""

    @pytest.fixture(autouse=True)
    def low_gate(self, monkeypatch):
        monkeypatch.setattr(green, "QUOTIENT_MIN", 100)

    def test_origin_ball_matches_full_direct_solve(self):
        mu = srw(Z3)
        omega = ball_domain(Z3, mu, 12, with_boundary=False)
        table = killed_green_solve(omega, [E3], mu)
        # one orbit per point with 0 <= x_1 <= x_2 <= x_3
        orbits = {tuple(sorted(map(abs, x))) for x in omega.elements}
        assert (table.symmetry_order, table.unknowns) == (48, len(orbits))
        assert table.method == "direct"
        # the quotient operator is Q^T (I - P) Q, Q the orbit indicator
        quotient = green._symmetry_orbits(omega, mu, [E3])
        q = sp.csr_matrix((np.ones(len(omega)),
                           (np.arange(len(omega)), quotient.label)))
        ref = q.T @ green._operator(omega, mu) @ q
        assert abs(green._operator(omega, mu, quotient) - ref).max() <= 1e-14
        assert np.max(np.abs(table.row(E3) - full_direct_row(omega, mu, E3))) <= 1e-11

    def test_lifted_residual_is_the_reported_one(self, monkeypatch):
        # 2625 points and 102 orbits: plain CG on the quotient
        monkeypatch.setattr(green, "QUOTIENT_MIN", 1000)
        mu = srw(Z3)
        omega = ball_domain(Z3, mu, 12, with_boundary=False)
        table = killed_green_solve(omega, [E3], mu, tol=1e-10, method="cg")
        assert table.symmetry_order == 48
        rhs = np.zeros(len(omega))
        rhs[omega.lookup(E3)] = 1.0
        full = np.max(np.abs(green._operator(omega, mu) @ table.row(E3) - rhs))
        assert 1e-14 < table.residuals[0] <= 1e-10
        assert full == pytest.approx(table.residuals[0], rel=1e-3, abs=0)

    def test_two_sources_keep_their_common_stabiliser(self):
        # flips of axes 2 and 3 and their transposition fix (1, 0, 0)
        mu = srw(Z3)
        omega = ball_domain(Z3, mu, 8, with_boundary=False)
        sources = [E3, (1, 0, 0)]
        table = killed_green_solve(omega, sources, mu)
        assert table.symmetry_order == 8
        for a in sources:
            assert np.max(np.abs(table.row(a) - full_direct_row(omega, mu, a))) <= 1e-11

    def test_lazy_law_is_reduced(self):
        omega = ball_domain(Z3, srw(Z3), 8, with_boundary=False)
        plain = killed_green_solve(omega, [E3], srw(Z3))
        lazy = killed_green_solve(omega, [E3], lazy_transform(srw(Z3), 0.5))
        assert plain.symmetry_order == lazy.symmetry_order == 48
        assert np.max(np.abs(lazy.row(E3) - plain.row(E3) / 0.5)) <= 1e-11

    def test_stretched_law_keeps_only_its_own_symmetries(self):
        # the box is invariant under every signed permutation, the law only
        # under the flips and the transposition of axes 1 and 3
        mu = stretched_z3()
        omega = box_domain(Z3, mu, 3)
        assert green._axis_symmetries(omega, mu, [E3]) == ([0, 1, 2], [[0, 2], [1]])
        table = killed_green_solve(omega, [E3], mu)
        assert table.symmetry_order == 16
        assert np.max(np.abs(table.row(E3) - full_direct_row(omega, mu, E3))) <= 1e-11

    def test_domain_symmetry_is_checked_pointwise(self):
        # a symmetric bounding box around an asymmetric point set: only the
        # flip of axis 3 maps it onto itself
        mu = srw(Z3)
        coords = np.array([(-1, -1, 0), (-1, 0, 0), (0, 0, -1), (0, 0, 0), (0, 0, 1),
                           (1, 1, 0)], dtype=np.int64)
        omega = green._LatticeDomain(Z3, "test", coords, None, (E3,))
        assert green._axis_symmetries(omega, mu, [E3]) == ([2], [[0], [1], [2]])

    @pytest.mark.parametrize("center, source", [(None, ASYMMETRIC), (ASYMMETRIC, E3)])
    def test_trivial_stabiliser_solves_the_full_system(self, center, source):
        mu = srw(Z3)
        omega = ball_domain(Z3, mu, 6, center=center, with_boundary=False)
        table = killed_green_solve(omega, [source], mu, method="cg")
        assert (table.symmetry_order, table.unknowns) == (1, len(omega))
        assert np.max(np.abs(table.row(source)
                             - full_direct_row(omega, mu, source))) <= 1e-9


class TestBracket:
    def test_table_bracket_row_matches_bracket(self):
        table = killed_green_solve(ball_domain(Z3, srw(Z3), 4), [E3], srw(Z3),
                                   tol=1e-6, method="cg")
        xs = [E3, (1, 0, 0), (0, 4, 0)]
        v, lo, hi = table.bracket_row(E3, xs)
        r = 10.0 * table.max_residual()
        assert r > 0
        assert v.tolist() == [table.green(E3, x) for x in xs]
        assert lo.tolist() == [max(table.green(E3, x) - r, 0.0) for x in xs]
        assert hi.tolist() == [table.green(E3, x) + r for x in xs]


class TestWatsonReference:
    """The exact Z^3 Green function of tests/lattice_green_oracle.py."""

    def test_origin_is_watson_value(self):
        assert abs(z3_green(E3) - 1.516386059151978) <= 1e-15

    def test_one_step_identity(self):
        # G(x) - (1/6) sum_{+-e_i} G(x +- e_i) = delta_{x,0}, one point per
        # orbit of |x|_1 <= 3 and one with mixed signs
        steps = groups.standard_generators(Z3).elements
        for x in [E3, (1, 0, 0), (2, 0, 0), (1, 1, 0), (3, 0, 0), (2, 1, 0),
                  (1, 1, 1), (0, -2, 1)]:
            mean = sum(z3_green(np.add(x, s)) for s in steps) / 6
            assert abs(z3_green(x) - mean - (x == E3)) <= 1e-13, x


class TestExitDistribution:
    def test_forced_single_step(self):
        dom = ball_domain(Z3, srw(Z3), 0)
        ex = exit_distribution(dom, E3, srw(Z3))
        assert ex.total() == pytest.approx(1.0, abs=1e-10)
        assert all(p == pytest.approx(1 / 6, abs=1e-12) for p in ex.probs.values())

    def test_f2_ball1_uniform(self):
        mu = srw(F2)
        dom = ball_domain(F2, mu, 1)
        ex = exit_distribution(dom, (), mu)
        assert len(ex.probs) == 12
        for p in ex.probs.values():
            assert p == pytest.approx(1 / 12, abs=1e-12)

    @pytest.mark.parametrize("radius", [3, 14])          # direct, then CG
    def test_start_list_matches_single_starts(self, radius):
        mu = srw(Z3)
        dom = ball_domain(Z3, mu, radius)
        starts = [(1, 0, 0), E3, (0, 1, 1)]
        laws = exit_distribution(dom, starts, mu)
        assert [law.start for law in laws] == starts
        for law in laws:
            assert np.array_equal(law.vector, exit_distribution(dom, law.start, mu).vector)

    def test_start_outside_rejected(self):
        dom = ball_domain(Z3, srw(Z3), 2)
        with pytest.raises(ValueError):
            exit_distribution(dom, (5, 0, 0), srw(Z3))

    def test_exit_lipschitz_trend_boxes(self):
        # max_z |mu_S(a,z) - mu_S(a',z)| across box sizes fits R^p, p in
        # [-3.5, -2.5] for d = 3
        mu = srw(Z3)
        diffs, sizes = [], [6, 8, 10, 12]
        for L in sizes:
            dom = box_domain(Z3, mu, L)
            ea = exit_distribution(dom, E3, mu).probs
            eb = exit_distribution(dom, (1, 0, 0), mu).probs
            keys = set(ea) | set(eb)
            diffs.append(max(abs(ea.get(z, 0) - eb.get(z, 0)) for z in keys))
        slope = np.polyfit(np.log(sizes), np.log(diffs), 1)[0]
        assert -3.5 <= slope <= -2.5


class TestExitDecomposition:
    def test_residual_solver_exact(self, z3_table_b20):
        s4, table = z3_table_b20
        res = verify_exit_decomposition(s4, E3, (6, 0, 0), srw(Z3), table)
        assert res < 1e-8

    def test_single_point_reduces_to_resolvent(self, z3_table_b20):
        # S = {0}: G(0,x) = sum_s mu(s) G(s,x), read from the rows of 0 and
        # of its six neighbours
        _, b20 = z3_table_b20
        mu = srw(Z3)
        dom = ball_domain(Z3, mu, 0)
        table = killed_green_solve(b20.omega, [E3] + dom.boundary, mu, tol=b20.tol)
        x = (5, 0, 0)
        res = verify_exit_decomposition(dom, E3, x, mu, table)
        assert res < 1e-10

    def test_f2_closed_form_both_sides(self):
        mu = srw(F2)
        oracle = TreeGreenOracle(F2)
        dom = ball_domain(F2, mu, 2)
        x = (1, 2, 1, -2)            # |x| = 4, outside B(e,2)
        exits = exit_distribution(dom, (), mu)
        rhs = sum(p * oracle.green(z, x) for z, p in exits.probs.items())
        assert rhs == pytest.approx(oracle.green((), x), abs=1e-10)
        assert oracle.green((), x) == pytest.approx(1.5 * 3.0 ** -4, abs=1e-15)

    def test_x_inside_rejected(self, z3_table_b20):
        s4, table = z3_table_b20
        with pytest.raises(ValueError):
            verify_exit_decomposition(s4, E3, (1, 0, 0), srw(Z3), table)


class TestBoundaryGreenMatrix:
    def test_single_point_s(self):
        # S = {0} in Z^3: 6x6 matrix, SPD, diagonal = killed G(z,z) which
        # sits within 5% of the full-Green 1.51639 on B(0,20)
        mu = srw(Z3)
        dom = ball_domain(Z3, mu, 0)
        omega = ball_domain(Z3, mu, 20, with_boundary=False)
        table = killed_green_solve(omega, dom.boundary, mu, tol=1e-12)
        bgm = boundary_green_matrix(dom, table)
        assert bgm.matrix.shape == (6, 6)
        assert bgm.spd_ok and bgm.min_eigenvalue > 0
        assert bgm.symmetry_defect < 1e-9
        for i in range(6):
            assert abs(bgm.matrix[i, i] / WATSON_G00 - 1) < 0.05

    def test_vector_identity_b3(self):
        mu = srw(Z3)
        dom = ball_domain(Z3, mu, 3)
        omega = ball_domain(Z3, mu, 20, with_boundary=False)
        table = killed_green_solve(omega, [E3] + dom.boundary, mu, tol=1e-12)
        res = vector_identity_residual(dom, E3, mu, table)
        assert res < 1e-8


def reference_tree_distances(rank, start, walkers, steps, rng):
    """Distance to the target of each tree SRW walker after 0..steps steps,
    one walker at a time: from d >= 1 one of the 2k neighbours is closer."""
    d = [start] * walkers
    rows = [list(d)]
    for _ in range(steps):
        u = rng.random(walkers)
        d = [x - 1 if x > 0 and u[i] < 1.0 / (2 * rank) else x + 1
             for i, x in enumerate(d)]
        rows.append(list(d))
    return np.array(rows)


class TestMonteCarlo:
    def test_hit_self_is_diagonal(self):
        rng = derive_stream(1, "mc")
        est = mc_hitting_green(F2, srw(F2), (1,), (1,), 2000, rng, path_cap=400)
        assert est.hit_fraction == 1.0

    def test_f2_hitting_probability(self):
        rng = derive_stream(7, "mc-f2")
        est = mc_hitting_green(F2, srw(F2), (), (1, 2), 10 ** 5, rng)
        sigma = np.sqrt((1 / 9) * (8 / 9) / 10 ** 5)
        assert abs(est.hit_fraction - 1 / 9) < 3 * sigma + est.bias_bound

    def test_diagonal_estimate_tree(self):
        rng = derive_stream(9, "mc-diag")
        gee, ci = mc_green_diagonal(F2, srw(F2), 10 ** 4, 400, rng)
        assert abs(gee - 1.5) < 3 * ci / 1.96 + 1e-3

    def test_lazy_tree_estimates(self):
        # a lazy walk stays put with probability 1/2, so it visits each
        # vertex twice as often: G = gee / (1 - 1/2), while F is unchanged
        mu = lazy_transform(srw(F2), 0.5)
        gee = TreeGreenOracle(F2).gee() / (1 - 0.5)
        est, ci = mc_green_diagonal(F2, mu, 10 ** 4, 400, derive_stream(9, "mc-lazy"))
        assert abs(est - gee) < 3 * ci / 1.96 + 1e-3
        # G(e, a) = gee / 3 = 1, within about 3 standard errors of an
        # estimate that multiplies two estimates
        hit = mc_hitting_green(F2, mu, (), (1,), 10 ** 4,
                               derive_stream(10, "mc-lazy"))
        assert abs(hit.value - gee / 3) < 0.05

    def test_cross_method_f2_twenty_pairs(self):
        # closed-form tree values against MC hitting on 20 random targets
        mu = srw(F2)
        oracle = TreeGreenOracle(F2)
        rng = derive_stream(13, "mc-f2-pairs")
        els = [g for g in ball_domain(F2, mu, 4).elements if g != ()]
        picks = [els[int(i)] for i in rng.integers(0, len(els), size=20)]
        for x in picks:
            est = mc_hitting_green(F2, mu, (), x, 20000, rng, gee=oracle.gee())
            assert abs(est.value - oracle.green((), x)) < est.ci95 + est.bias_bound + 1e-3

    def test_tree_chain_matches_walker_loop(self):
        # the shared distance chain against a per-walker scalar loop fed the
        # same uniforms: visit counts, hit mask and capped-walker bias agree
        walkers, cap, q = 60, 40, 3
        path = reference_tree_distances(2, 1, walkers, cap, derive_stream(5, "chain"))
        gee, _ = mc_green_diagonal(F2, srw(F2), walkers, cap,
                                   derive_stream(5, "chain"))
        assert gee == (reference_tree_distances(2, 0, walkers, cap, derive_stream(
            5, "chain")) == 0).sum(axis=0).mean()
        est = mc_hitting_green(F2, srw(F2), (), (-2,), walkers,
                               derive_stream(5, "chain"), path_cap=cap, gee=1.0)
        hit = (path == 0).any(axis=0)
        assert 0 < hit.sum() < walkers
        assert est.hit_fraction == hit.mean()
        assert est.bias_bound == float(np.sum(
            np.power(float(q), -path[-1][~hit].astype(np.float64)))) / walkers

    def test_bias_flag_when_cap_too_small(self):
        # two steps cannot reach a vertex at distance 3
        rng = derive_stream(3, "mc-capped")
        est = mc_hitting_green(F2, srw(F2), (), (1, 2, 1), 4000, rng, path_cap=2)
        assert est.hit_fraction == 0.0
        assert est.bias_bound > 0 and est.bias_flag

    @pytest.mark.parametrize("spec", [Z3, HEIS], ids=["Z3", "Heis3"])
    def test_off_trees_raise(self, spec):
        rng = derive_stream(3, "mc-off-tree")
        e = groups.identity(spec)
        with pytest.raises(ValueError, match="trees only"):
            mc_green_diagonal(spec, srw(spec), 10, 10, rng)
        with pytest.raises(ValueError, match="trees only"):
            mc_hitting_green(spec, srw(spec), e, (1, 0, 0), 10, rng, gee=1.0)


# reduced words of F_2 of length at most 6
F2_WORDS = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6).map(
    lambda letters: groups.mul(F2, (), tuple(letters)))


def tree_distance(a: tuple, x: tuple) -> int:
    """|a^{-1} x| for reduced words: both lengths less twice the common
    prefix."""
    c = 0
    while c < min(len(a), len(x)) and a[c] == x[c]:
        c += 1
    return len(a) + len(x) - 2 * c


class TestProviders:
    @given(a=F2_WORDS, xs=st.lists(F2_WORDS, min_size=1, max_size=5))
    def test_tree_oracle_row_is_the_closed_form(self, a, xs):
        v, lo, hi = TreeGreenOracle(F2).bracket_row(a, xs)
        want = [1.5 * 3.0 ** -tree_distance(a, x) for x in xs]
        assert v.tolist() == pytest.approx(want, rel=1e-15, abs=0)
        assert lo.tolist() == v.tolist() == hi.tolist()

    @given(a=F2_WORDS, x=F2_WORDS)
    def test_tree_oracle_one_step_identity(self, a, x):
        # G(a,x) = 1{a=x} + (1/4) sum_s G(a s, x)
        oracle = TreeGreenOracle(F2)
        g = oracle.bracket_row(a, [x])[0][0]
        mean = sum(oracle.bracket_row(groups.mul(F2, a, s), [x])[0][0]
                   for s in groups.standard_generators(F2).elements) / 4
        assert g == pytest.approx((a == x) + mean, rel=1e-15, abs=0)

    def test_table_row_names_a_missing_source(self, z3_table_b20):
        # a table reads only its own rows: no argument swap "by symmetry"
        _, table = z3_table_b20
        assert (2, 2, 0) not in table.sources
        with pytest.raises(KeyError, match=r"\(2, 2, 0\) is not a tabulated source"):
            table.bracket_row((2, 2, 0), [E3])
        with pytest.raises(KeyError, match="not a tabulated source"):
            table.green((2, 2, 0), E3)


class TestQuadrant:
    def test_harmonicity_exact(self):
        assert quadrant_harmonicity_defect(30) == 0.0

    def test_symmetry(self):
        t = quadrant_killed_green(20, [(2, 3), (5, 7)])
        assert t.green((2, 3), (5, 7)) == pytest.approx(t.green((5, 7), (2, 3)),
                                                        abs=1e-10)

    def test_ratio_converges_to_harmonic_ratio(self):
        t = quadrant_killed_green(60, [(2, 3), (1, 1)])
        ratios = [t.green((2, 3), (n, n)) / t.green((1, 1), (n, n))
                  for n in (10, 20, 30)]
        assert abs(ratios[-1] - 6.0) / 6.0 < 0.05
        assert abs(ratios[-1] - 6.0) <= abs(ratios[0] - 6.0)
