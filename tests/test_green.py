"""Killed Green solves, exit laws, boundary matrices, brackets, the tree
oracle against the tree walker, and the exact Z^3 reference."""

import functools
import inspect
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

import greenlab
from greenlab import green, groups, walks
from greenlab.green import (TransienceError, TreeGreenOracle, ball_domain,
                            boundary_green_matrix, box_domain, check_transient,
                            exit_distribution, killed_green_solve,
                            quadrant_harmonicity_defect,
                            quadrant_killed_green)
from greenlab.measures import StepMeasure, lazy_transform, uniform_on_generators
from greenlab.rng import derive_stream
from lattice_green_oracle import WATSON_G00, z3_green
from word_ball_oracle import reference_sphere

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
        assert dom.boundary == reference_sphere(Z3, 4)

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

    def test_heis3_ball_build_peak_allocation(self):
        # the key BFS holds its visited keys and their layers, twice while a
        # layer is merged in, and the last frontier's products; the keys are
        # then re-keyed into the domain's box.  B(28), 261,815 points and
        # 39,508 boundary points, reads 3.8 x the domain's keys (8.8 MiB);
        # the row BFS and the round trip through rows read 10.9 (25.1 MiB)
        tracemalloc.start()
        try:
            dom = ball_domain(HEIS, srw(HEIS), 28)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = dom.keys.nbytes + dom._bkeys.nbytes
        assert (len(dom), len(dom.boundary)) == (261_815, 39_508)
        assert peak <= 4 * own + 2 ** 20, peak / own

    def test_transience_guard(self):
        check_transient(Z3)
        for d in (1, 2):
            with pytest.raises(TransienceError):
                check_transient(groups.integer_lattice(d))


def whole_ball_coords(d, radius, shell):
    """The L1 ball (or shell) from one norm cube, one mask and one argwhere."""
    ax = np.abs(np.arange(-radius - 1, radius + 2, dtype=np.int32))
    l1 = functools.reduce(np.add.outer, [ax] * d)
    mask = (l1 == radius + 1) if shell else (l1 <= radius)
    return np.argwhere(mask) - (radius + 1)


def whole_grid(omega, margin):
    """(lo, grid) of a lattice domain from one fill over all its points:
    a dense grid over their bounding box grown by `margin` on every side,
    holding i at elements[i], n + j at boundary[j] and -1 elsewhere."""
    pts = np.array(omega.elements + (omega.boundary or []), dtype=np.int64)
    lo = pts.min(axis=0) - margin
    grid = np.full(tuple(pts.max(axis=0) + margin - lo + 1), -1, dtype=np.int64)
    grid[tuple((pts - lo).T)] = np.arange(len(pts))
    return lo, grid


def whole_orbits(omega, mu, sources):
    """(label, reps, sizes) of the axis-symmetry orbits from the canonical
    points of all rows at once: |x| on the flippable axes, each block's
    coordinates sorted by np.sort."""
    flips, blocks = green._axis_symmetries(omega, mu, sources)
    canon = np.array(omega.elements, dtype=np.int64)
    canon[:, flips] = np.abs(canon[:, flips])
    for b in blocks:
        canon[:, b] = np.sort(canon[:, b], axis=1)
    return cumsum_relabel(omega.positions(canon))


def cumsum_relabel(first):
    """(label, reps, sizes) of the orbits whose representative of point i
    is first[i], numbered by a cumulative count of the representatives."""
    is_rep = np.zeros(len(first), dtype=bool)
    is_rep[first] = True
    label = (np.cumsum(is_rep) - 1)[first]
    return label, np.flatnonzero(is_rep), np.bincount(label).astype(np.float64)


class TestChunkedBuilders:
    """The lattice builders and the orbit labelling work in chunks of rows;
    a small odd chunk makes every run short and the last one ragged, and
    each result must equal the whole-array construction."""

    @pytest.fixture(autouse=True, params=[7, 61])
    def small_chunks(self, request, monkeypatch):
        monkeypatch.setattr(green, "_CHUNK_ROWS", request.param)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("radius", [0, 1, 2, 5, 9])
    @pytest.mark.parametrize("shell", [False, True])
    def test_l1_ball_coords(self, d, radius, shell):
        # the keys, in a box with room to spare about an off-origin centre,
        # decode to the rows of the ball in lexicographic order
        center = np.arange(1, d + 1) * [(-1) ** k for k in range(d)]
        box = groups.KeyBox(center - radius - 3, center + radius + 2)
        keys = green._l1_ball_keys(box, center, radius, shell)
        coords = box.rows(keys)
        want = whole_ball_coords(d, radius, shell) + center
        assert keys.dtype == np.int64 and coords.shape == want.shape
        assert np.array_equal(coords, want)

    @pytest.mark.parametrize("build", [
        lambda mu: ball_domain(Z3, mu, 9),
        lambda mu: box_domain(Z3, mu, 4),
        lambda mu: ball_domain(Z3, mu, 6, center=(2, -1, 3)),
    ], ids=["ball", "box", "off-centre-ball"])
    def test_grid(self, build):
        # every cell of the bounding box and a margin around it is located
        # (S, boundary or neither) as the reference grid has it
        omega = build(srw(Z3))
        lo, grid = whole_grid(omega, 3)
        cells = np.argwhere(np.ones(grid.shape, dtype=bool)) + lo
        n = len(omega)
        assert np.array_equal(omega.positions(cells), np.where(grid < n, grid, -1).ravel())
        assert np.array_equal(omega._locate(omega.box.keys(cells)), grid.ravel())

    @pytest.mark.parametrize("build, source, order", [
        (lambda mu: ball_domain(Z3, mu, 9, with_boundary=False), E3, 48),
        (lambda mu: ball_domain(Z3, mu, 7, center=(2, 0, 0), with_boundary=False),
         (2, 0, 0), 8),
        (lambda mu: box_domain(Z3, mu, 4), E3, 16),
    ], ids=["ball", "off-centre-ball", "stretched-box"])
    def test_symmetry_orbits(self, build, source, order, monkeypatch):
        monkeypatch.setattr(green, "QUOTIENT_MIN", 100)
        mu = stretched_z3() if order == 16 else srw(Z3)
        omega = build(mu)
        orbits = green._symmetry_orbits(omega, mu, [source])
        label, reps, sizes = whole_orbits(omega, mu, [source])
        assert orbits.order == order
        assert orbits.label.dtype == label.dtype and np.array_equal(orbits.label, label)
        assert np.array_equal(orbits.reps, reps)
        assert np.array_equal(orbits.sizes, sizes)

    @pytest.mark.parametrize("sources, order", [([E3], 4), ([E3, (1, 0, 0)], 2)],
                             ids=["e", "e-and-x"])
    def test_heis3_symmetry_orbits(self, sources, order, monkeypatch):
        # the least key among the sign images, a chunk at a time, names the
        # orbits as the least index among their located images does, from
        # all rows at once
        monkeypatch.setattr(green, "QUOTIENT_MIN", 100)
        mu = srw(HEIS)
        omega = ball_domain(HEIS, mu, 8, with_boundary=False)
        orbits = green._symmetry_orbits(omega, mu, sources)
        signs = [[1, -1, -1], [-1, 1, -1], [-1, -1, 1]][:order - 1]
        label, reps, sizes = whole_heis3_orbits(omega, signs)
        assert orbits.order == order and len(omega) > 7 * green._CHUNK_ROWS
        assert orbits.label.dtype == label.dtype and np.array_equal(orbits.label, label)
        assert np.array_equal(orbits.reps, reps)
        assert np.array_equal(orbits.sizes, sizes)


def whole_heis3_orbits(omega, signs):
    """(label, reps, sizes) of the orbits of the given sign automorphisms
    (a, b, c) -> (e a, f b, e f c), each represented by its point of least
    index among its images, located from all rows at once."""
    rows = np.array(omega.elements, dtype=np.int64)
    first = np.arange(len(omega))
    for sign in signs:
        np.minimum(first, omega.positions(rows * sign), out=first)
    return cumsum_relabel(first)


@pytest.mark.parametrize("spec, radius, order", [(Z3, 44, 48), (HEIS, 23, 4)],
                         ids=["z3", "heis3"])
def test_orbit_labels_match_the_cumsum_relabel(spec, radius, order):
    # at the default gate, on balls just above QUOTIENT_MIN: the chunked
    # binary search of the representatives numbers the orbits as a
    # cumulative count over all points does, from representatives found
    # from the whole row array at once
    mu = srw(spec)
    omega = ball_domain(spec, mu, radius, with_boundary=False)
    assert len(omega) > green.QUOTIENT_MIN
    orbits = green._symmetry_orbits(omega, mu, [E3])
    if spec is Z3:
        label, reps, sizes = whole_orbits(omega, mu, [E3])
    else:
        rows = np.array(omega.elements, dtype=np.int64)
        first = np.arange(len(omega))
        for sign in ([1, -1, -1], [-1, 1, -1], [-1, -1, 1]):
            np.minimum(first, omega.positions(rows * sign), out=first)
        label, reps, sizes = cumsum_relabel(first)
    assert orbits.order == order
    assert orbits.label.dtype == label.dtype and np.array_equal(orbits.label, label)
    assert np.array_equal(orbits.reps, reps)
    assert np.array_equal(orbits.sizes, sizes)


class TestKilledSolve:
    def test_single_point_domain(self):
        dom = ball_domain(Z3, srw(Z3), 0)
        t = killed_green_solve(dom, [E3], srw(Z3))
        assert t.green(E3, E3) == pytest.approx(1.0, abs=1e-12)

    def test_f2_ball_matches_closed_form(self):
        mu = srw(F2)
        om = ball_domain(F2, mu, 10, with_boundary=False)
        t = killed_green_solve(om, [()], mu, method="cg")
        oracle = TreeGreenOracle(srw(F2))
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


@pytest.mark.parametrize("name", sorted(OPERATOR_CASES))
def test_chunked_operator_matches_coo_build(name, monkeypatch):
    # a small odd chunk makes every chunk of rows short and the last one ragged
    monkeypatch.setattr(green, "_CHUNK_ROWS", 7)
    test_operator_matches_coo_build(name)


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

    def test_quotient_solve_peak_allocation(self):
        # the domain is built and its orbits labelled in chunks of rows, and
        # each source is lifted straight into its table row; so beyond the
        # domain's own arrays (its sorted keys) the peak is a few n-length
        # arrays (orbit labels, the cumulative rep count, the table row) and
        # the domain's indicator mask, one byte per cell of its bounding
        # box.  On B(0, 60), 295,361 points, (peak - own) / 8n is 4.3; own
        # was 5.2 times as large when the domain kept its rows and a dense
        # grid, and (peak - own) / 8n was 9.0 when the ball and the orbit
        # labels were built from whole-ball temporaries
        mu = srw(Z3)
        tracemalloc.start()
        try:
            omega = ball_domain(Z3, mu, 60, with_boundary=False)
            table = killed_green_solve(omega, [E3], mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = len(omega)
        assert n > green.QUOTIENT_MIN and table.symmetry_order == 48
        own = omega.keys.nbytes
        assert peak <= own + 5 * 8 * n + 2 ** 20, (peak - own) / (8 * n)

    def test_heis3_quotient_solve_peak_allocation(self):
        # Heis3's B(28), 261,815 points, is solved from e and (1, 0, 0) on
        # the quotient by (a, b, c) -> (a, -b, -c), 130,936 unknowns.  The
        # solve holds the orbit labels and one table row per source, 8n
        # bytes each, and per unknown the quotient operator, its assembly
        # scratch and the CG vectors of the sources solved at once:
        # (peak - 8n(1 + k)) / 8m reads 24.1, a peak of 30.1 MiB.  The full
        # system's solve (m = n) peaked at 52.0 MiB
        mu = srw(HEIS)
        omega = ball_domain(HEIS, mu, 28, with_boundary=False)
        sources = [E3, (1, 0, 0)]
        tracemalloc.start()
        try:
            table = killed_green_solve(omega, sources, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, m = len(omega), table.unknowns
        assert n > green.QUOTIENT_MIN and (table.symmetry_order, m) == (2, 130_936)
        fixed = 8 * n * (1 + len(sources))
        assert peak <= fixed + 26 * 8 * m + 2 ** 20, (peak - fixed) / (8 * m)

    def test_full_system_assembly_peak_allocation(self):
        # no axis symmetry fixes the source, so B(0, 60), 295,361 points, is
        # assembled whole; its rows are built _CHUNK_ROWS at a time into the
        # preallocated CSR arrays.  The scratch above the returned matrix is
        # 11.2 MiB; it was 27.9 MiB when the whole step table was built at
        # once
        mu = srw(Z3)
        omega = ball_domain(Z3, mu, 60, with_boundary=False)
        orbits = green._symmetry_orbits(omega, mu, [ASYMMETRIC])
        assert len(orbits.reps) == len(omega) > green.QUOTIENT_MIN
        tracemalloc.start()
        try:
            mat = green._operator(omega, mu, orbits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        assert peak - held <= 16 * 2 ** 20, (peak - held) / 2 ** 20

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


def heis3_flip_orbits(omega):
    """Orbits of the automorphism (a, b, c) -> (a, -b, -c) of Heis3 on a
    domain it maps onto itself, each represented by its first point."""
    n = len(omega)
    image = omega.positions(np.array(omega.elements) * [1, -1, -1])
    assert (image >= 0).all()
    first = np.minimum(np.arange(n), image)
    reps = np.flatnonzero(first == np.arange(n))
    label = np.searchsorted(reps, first)
    return green._Orbits(2, label, reps, np.bincount(label).astype(np.float64))


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

    @pytest.mark.parametrize("chunk_rows", [61, 2 ** 16])
    def test_heis3_quotient_finds_neighbours_by_the_group_law(self, chunk_rows,
                                                               monkeypatch):
        # (a, b, c) -> (a, -b, -c) fixes e and (1, 0, 0) and preserves SRW
        # and B(6); x s is not x + s on Heis3, so the quotient must multiply.
        # The quotient's rows are assembled chunk_rows at a time
        monkeypatch.setattr(green, "_CHUNK_ROWS", chunk_rows)
        mu = srw(HEIS)
        omega = ball_domain(HEIS, mu, 6, with_boundary=False)
        orbits = heis3_flip_orbits(omega)
        # the library finds the same orbits from the two sources
        found = green._symmetry_orbits(omega, mu, [E3, (1, 0, 0)])
        assert found.order == orbits.order == 2
        for field in ("label", "reps", "sizes"):
            assert np.array_equal(getattr(found, field), getattr(orbits, field)), field
        n, m = len(omega), len(orbits.reps)
        assert m < n
        q = sp.csr_matrix((np.ones(n), (np.arange(n), orbits.label)))
        mat = green._operator(omega, mu, orbits)
        assert abs(mat - q.T @ green._operator(omega, mu) @ q).max() <= 1e-14
        lu = spla.splu(mat.tocsc())
        for a in [(0, 0, 0), (1, 0, 0)]:
            rhs = np.zeros(m)
            rhs[orbits.label[omega.lookup(a)]] = 1.0
            lifted = lu.solve(rhs)[orbits.label]
            assert np.max(np.abs(lifted - full_direct_row(omega, mu, a))) <= 1e-11

    @pytest.mark.parametrize("radius", [10, 20])
    @pytest.mark.parametrize("sources, order", [([E3], 4), ([E3, (1, 0, 0)], 2)],
                             ids=["e", "e-and-x"])
    def test_heis3_quotient_matches_the_full_system(self, radius, sources, order,
                                                     monkeypatch):
        # all four sign automorphisms (a, b, c) -> (e a, f b, e f c) fix e
        # and SRW's ball; only (a, -b, -c) also fixes (1, 0, 0).  The
        # quotient's table and the full system's agree to the tolerance
        # both are solved to (1.1e-11 to 1.9e-11 apart at tol 1e-10)
        mu = srw(HEIS)
        omega = ball_domain(HEIS, mu, radius, with_boundary=False)
        table = killed_green_solve(omega, sources, mu)
        monkeypatch.setattr(green, "QUOTIENT_MIN", len(omega))
        full = killed_green_solve(omega, sources, mu)
        assert (table.symmetry_order, full.symmetry_order) == (order, 1)
        assert table.unknowns < len(omega) / order + radius ** 2
        assert full.unknowns == len(omega)
        assert np.max(np.abs(table.values - full.values)) <= table.tol

    @pytest.mark.parametrize("spec, radius, source", [(Z3, 20, E3), (Z3, 20, (1, 0, 0)),
                                                      (HEIS, 10, E3)],
                             ids=["z3-e", "z3-x", "heis3-e"])
    def test_scaled_cg_stops_on_the_full_residual(self, spec, radius, source):
        # CG on D^-1/2 M D^-1/2 (D the orbit sizes) takes fewer iterations
        # than on M (Z^3 B(20): 68 against 94 from e, 96 against 125 from
        # (1, 0, 0); Heis3 B(10) from e: 47 against 49), stops where the
        # full system's 2-norm rule would, reports the full max-norm
        # residual, and agrees with the full system to the tolerance
        mu = srw(spec)
        omega = ball_domain(spec, mu, radius, with_boundary=False)
        table = killed_green_solve(omega, [source], mu, method="cg")
        orbits = green._symmetry_orbits(omega, mu, [source])
        m = len(orbits.reps)
        rhs = np.zeros(m)
        rhs[orbits.label[omega.lookup(source)]] = 1.0
        _, unscaled = green.cg(green._operator(omega, mu, orbits), rhs, table.tol, 20 * m)
        assert table.symmetry_order > 1 and table.iterations[0] < unscaled
        full = green._operator(omega, mu) @ table.row(source) - unit_rhs(omega, source)
        assert np.linalg.norm(full) < table.tol
        assert np.max(np.abs(full)) == pytest.approx(table.residuals[0], rel=1e-6, abs=0)
        direct = full_direct_row(omega, mu, source)
        assert np.max(np.abs(table.row(source) - direct)) <= table.tol

    @pytest.mark.parametrize("center, source", [(None, ASYMMETRIC), (ASYMMETRIC, E3)])
    def test_trivial_stabiliser_solves_the_full_system(self, center, source):
        mu = srw(Z3)
        omega = ball_domain(Z3, mu, 6, center=center, with_boundary=False)
        table = killed_green_solve(omega, [source], mu, method="cg")
        assert (table.symmetry_order, table.unknowns) == (1, len(omega))
        orbits = green._symmetry_orbits(omega, mu, [source])
        assert np.shares_memory(orbits.label, orbits.reps)
        assert np.max(np.abs(table.row(source)
                             - full_direct_row(omega, mu, source))) <= 1e-9


class TestNonSymmetricLaw:
    """A killed solve needs mu(s) = mu(s^-1): on any other law a direct
    solve returned the transposed rows and CG ran to its iteration cap."""

    LAW = StepMeasure(F2, "finite", "skew-F2",
                      probs={(1,): 0.40, (-1,): 0.20, (2,): 0.25, (-2,): 0.15})

    @pytest.mark.parametrize("method", ["direct", "cg", "auto"])
    def test_killed_solve_rejects_it(self, method):
        omega = ball_domain(F2, self.LAW, 6, with_boundary=False)
        with pytest.raises(ValueError, match="symmetric law, not skew-F2"):
            killed_green_solve(omega, [()], self.LAW, method=method)

    def test_exit_distribution_rejects_it(self):
        omega = ball_domain(F2, self.LAW, 6)
        with pytest.raises(ValueError, match="symmetric law, not skew-F2"):
            exit_distribution(omega, [()], self.LAW)


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


def decomposition_residual(dom, a, x, mu, table) -> float:
    """|G(a,x) - sum_z mu_S(a,z) G(z,x)| for x outside S, from the exit law
    of a and the table's rows of the boundary points z."""
    (exits,) = exit_distribution(dom, [a], mu, tol=table.tol)
    rhs = sum(p * table.green(z, x) for z, p in zip(dom.boundary, exits.tolist()))
    return abs(table.green(a, x) - rhs)


class TestExitDistribution:
    def test_forced_single_step(self):
        dom = ball_domain(Z3, srw(Z3), 0)
        (ex,) = exit_distribution(dom, [E3], srw(Z3))
        assert ex.sum() == pytest.approx(1.0, abs=1e-10)
        assert all(p == pytest.approx(1 / 6, abs=1e-12) for p in ex)

    def test_f2_ball1_uniform(self):
        mu = srw(F2)
        dom = ball_domain(F2, mu, 1)
        (ex,) = exit_distribution(dom, [()], mu)
        assert np.count_nonzero(ex) == 12
        for p in ex[ex != 0]:
            assert p == pytest.approx(1 / 12, abs=1e-12)

    @pytest.mark.parametrize("radius", [3, 14])          # direct, then CG
    def test_start_list_matches_single_starts(self, radius):
        mu = srw(Z3)
        dom = ball_domain(Z3, mu, radius)
        starts = [(1, 0, 0), E3, (0, 1, 1)]
        laws = exit_distribution(dom, starts, mu)
        assert laws.shape == (len(starts), len(dom.boundary))
        for start, law in zip(starts, laws):
            assert np.array_equal(law, exit_distribution(dom, [start], mu)[0])

    def test_start_outside_rejected(self):
        dom = ball_domain(Z3, srw(Z3), 2)
        with pytest.raises(ValueError):
            exit_distribution(dom, [(5, 0, 0)], srw(Z3))

    def test_exit_lipschitz_trend_boxes(self):
        # max_z |mu_S(a,z) - mu_S(a',z)| across box sizes fits R^p, p in
        # [-3.5, -2.5] for d = 3
        mu = srw(Z3)
        diffs, sizes = [], [6, 8, 10, 12]
        for L in sizes:
            dom = box_domain(Z3, mu, L)
            ea, eb = exit_distribution(dom, [E3, (1, 0, 0)], mu)
            diffs.append(float(np.max(np.abs(ea - eb))))
        slope = np.polyfit(np.log(sizes), np.log(diffs), 1)[0]
        assert -3.5 <= slope <= -2.5


class TestExitDecomposition:
    def test_residual_solver_exact(self, z3_table_b20):
        s4, table = z3_table_b20
        res = decomposition_residual(s4, E3, (6, 0, 0), srw(Z3), table)
        assert res < 1e-8

    def test_single_point_reduces_to_resolvent(self, z3_table_b20):
        # S = {0}: G(0,x) = sum_s mu(s) G(s,x), read from the rows of 0 and
        # of its six neighbours
        _, b20 = z3_table_b20
        mu = srw(Z3)
        dom = ball_domain(Z3, mu, 0)
        table = killed_green_solve(b20.omega, [E3] + dom.boundary, mu, tol=b20.tol)
        x = (5, 0, 0)
        res = decomposition_residual(dom, E3, x, mu, table)
        assert res < 1e-10

    def test_f2_closed_form_both_sides(self):
        mu = srw(F2)
        oracle = TreeGreenOracle(srw(F2))
        dom = ball_domain(F2, mu, 2)
        x = (1, 2, 1, -2)            # |x| = 4, outside B(e,2)
        (exits,) = exit_distribution(dom, [()], mu)
        rhs = sum(p * oracle.green(z, x) for z, p in zip(dom.boundary, exits))
        assert rhs == pytest.approx(oracle.green((), x), abs=1e-10)
        assert oracle.green((), x) == pytest.approx(1.5 * 3.0 ** -4, abs=1e-15)


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
        # M_S mu_S(a) = G(a, .) on the boundary
        bgm = boundary_green_matrix(dom, table)
        (exits,) = exit_distribution(dom, [E3], mu, tol=table.tol)
        res = np.max(np.abs(bgm.matrix @ exits - table.row_at(E3, dom.boundary)))
        assert res < 1e-8


def reference_tree_distances(rank, walkers, steps, rng, laziness=0.0):
    """Word length of each (lazy) tree SRW walker from e after 0..steps
    steps, one walker at a time: it stays w.p. laziness, and from d >= 1
    one of the 2k neighbours is closer."""
    d = [0] * walkers
    rows = [list(d)]
    for _ in range(steps):
        u = rng.random(walkers)
        d = [x if u[i] < laziness
             else x - 1 if x > 0 and u[i] < laziness + (1 - laziness) / (2 * rank)
             else x + 1 for i, x in enumerate(d)]
        rows.append(list(d))
    return np.array(rows)


def sphere_visits(laziness, walkers, steps, seed, levels=2):
    """Mean visits of the tree walker to the spheres S(e, 0..levels-1)
    within `steps` steps, and their standard errors."""
    visits = np.zeros((levels, walkers))
    chain = walks._tree_distance_chain(2, walkers, derive_stream(seed, "tree-mc"),
                                       laziness)
    for _, d in zip(range(steps + 1), chain):
        for j in range(levels):
            visits[j] += d == j
    return visits.mean(axis=1), visits.std(axis=1, ddof=1) / np.sqrt(walkers)


class TestMonteCarlo:
    """The tree walker of `walks` against the closed forms of the oracle;
    `green` itself draws nothing."""

    def test_diagonal_estimate_tree(self):
        # visits to e estimate G(e,e) = 3/2; a walker at level D after the
        # cap returns w.p. 3^-D, under 1e-20 at every final level here
        (gee, _), (se, _) = sphere_visits(0.0, 10 ** 4, 400, 9)
        assert abs(gee - TreeGreenOracle(srw(F2)).gee()) < 3 * se

    def test_lazy_tree_estimates(self):
        # a lazy walk stays put with probability 1/2, so it visits each
        # vertex twice as often: G = (3/2) / (1 - 1/2), and the sphere
        # S(e, 1) gets 4 G(e, a) = 4 visits
        oracle = TreeGreenOracle(lazy_transform(srw(F2), 0.5))
        mean, se = sphere_visits(0.5, 10 ** 4, 400, 10)
        assert abs(mean[0] - oracle.gee()) < 3 * se[0]
        assert abs(mean[1] - 4 * oracle.green((), (1,))) < 3 * se[1]

    def test_tree_chain_matches_walker_loop(self):
        # the vectorised chain against a per-walker scalar loop fed the
        # same uniforms, with and without laziness
        walkers, cap = 60, 40
        for laziness in (0.0, 0.5):
            want = reference_tree_distances(2, walkers, cap,
                                            derive_stream(5, "chain"), laziness)
            chain = walks._tree_distance_chain(2, walkers,
                                               derive_stream(5, "chain"), laziness)
            got = np.array([d for _, d in zip(range(cap + 1), chain)])
            assert (got == want).all()
            moves = np.diff(got, axis=0)
            assert (moves == -1).any() and (moves == 1).any()
            assert (moves == 0).any() == (laziness > 0)

    @pytest.mark.parametrize("spec", [Z3, HEIS], ids=["Z3", "Heis3"])
    def test_off_trees_raise(self, spec):
        with pytest.raises(ValueError, match="tree oracle needs SRW on a free group"):
            TreeGreenOracle(srw(spec))


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
        v, lo, hi = TreeGreenOracle(srw(F2)).bracket_row(a, xs)
        want = [1.5 * 3.0 ** -tree_distance(a, x) for x in xs]
        assert v.tolist() == pytest.approx(want, rel=1e-15, abs=0)
        assert lo.tolist() == v.tolist() == hi.tolist()

    @given(a=F2_WORDS, x=F2_WORDS)
    def test_tree_oracle_one_step_identity(self, a, x):
        # G(a,x) = 1{a=x} + (1/4) sum_s G(a s, x)
        oracle = TreeGreenOracle(srw(F2))
        g = oracle.bracket_row(a, [x])[0][0]
        mean = sum(oracle.bracket_row(groups.mul(F2, a, s), [x])[0][0]
                   for s in groups.standard_generators(F2).elements) / 4
        assert g == pytest.approx((a == x) + mean, rel=1e-15, abs=0)

    def test_lazy_tree_oracle_diagonal(self):
        # a walk that stays put half the time visits e twice as often
        assert TreeGreenOracle(lazy_transform(srw(F2), 0.5)).gee() == 3.0

    @given(a=F2_WORDS, xs=st.lists(F2_WORDS, min_size=1, max_size=5),
           laziness=st.sampled_from([0.1, 0.25, 0.5, 0.9]))
    def test_lazy_tree_oracle_row(self, a, xs, laziness):
        # G_lambda = G / (1 - lambda); F does not depend on lambda
        oracle = TreeGreenOracle(lazy_transform(srw(F2), laziness))
        v, lo, hi = oracle.bracket_row(a, xs)
        want = [1.5 * 3.0 ** -tree_distance(a, x) / (1 - laziness) for x in xs]
        assert v.tolist() == pytest.approx(want, rel=1e-15, abs=0)
        assert lo.tolist() == v.tolist() == hi.tolist()
        # F(a, x) = G(a, x) / G(e, e)
        assert (v / oracle.gee()).tolist() == pytest.approx(
            [3.0 ** -tree_distance(a, x) for x in xs], rel=1e-15, abs=0)

    def test_tree_oracle_rejects_other_finite_laws(self):
        # a finite law on F_2 that is not SRW up to laziness has another G
        biased = StepMeasure(F2, "finite", "biased",
                             probs={(1,): 0.4, (-1,): 0.4, (2,): 0.1, (-2,): 0.1})
        with pytest.raises(ValueError, match="tree oracle needs SRW"):
            TreeGreenOracle(biased)

    def test_green_draws_nothing(self):
        # closed forms and solves only: no generator parameter, no draw
        assert not re.search(r"rng|Generator|random", inspect.getsource(green))
        for name, fn in vars(green).items():
            if inspect.isfunction(fn) and fn.__module__ == green.__name__:
                assert "rng" not in inspect.signature(fn).parameters, name

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
