"""The domain index protocol: positions, step tables, canonical order, and
the exit law built on them, for every domain kind."""

import itertools

import numpy as np
import pytest

from greenlab import groups
from greenlab.green import (ball_domain, box_domain, exit_distribution,
                            killed_green_solve)
from greenlab.groups import identity, mul
from greenlab.measures import StepMeasure, lazy_transform, uniform_on_generators
from greenlab.rng import derive_stream

Z3 = groups.integer_lattice(3)
F2 = groups.free_group(2)
HEIS = groups.heisenberg()


def srw(spec):
    return uniform_on_generators(groups.standard_generators(spec))


def shortlex(word):
    """Code order of the free-ball domain: length, then letter codes."""
    return (len(word), [2 * (abs(l) - 1) + (l < 0) for l in word])


def shifted(points, center):
    return [tuple(a + c for a, c in zip(g, center)) for g in points]


def gens_ball(spec, radius):
    return groups.ball(spec, groups.standard_generators(spec), radius)


def uniform_law(spec, steps):
    return StepMeasure(spec, "finite", "uniform", probs={s: 1 / len(steps) for s in steps})


def law_on(dom):
    """The uniform law on the domain's support (SRW for standard supports)."""
    return uniform_law(dom.spec, dom.support)


def reference_ball(spec, mu, radius, center):
    """B(center, radius), sorted, by a pure-Python BFS over groups.mul and a
    dict: the reference for the vectorised builders."""
    steps = [s for s in mu.support_elements() if s != identity(spec)]
    dist = {center: 0}
    frontier = [center]
    for d in range(radius):
        nxt = []
        for g in frontier:
            for s in steps:
                h = mul(spec, g, s)
                if h not in dist:
                    dist[h] = d + 1
                    nxt.append(h)
        frontier = nxt
    return sorted(dist)


HEIS_CENTRAL = uniform_law(HEIS, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                                  (0, 0, 1), (0, 0, -1)])
Z3_STRETCHED = uniform_law(Z3, [(1, 0, 0), (-1, 0, 0), (0, 2, 0), (0, -2, 0),
                                (0, 0, 1), (0, 0, -1)])


def bfs_case(spec, mu, radius, center, far, extra):
    """A CASES entry whose order is the reference BFS from ``center``."""
    return (lambda: ball_domain(spec, mu, radius, center=center),
            lambda: reference_ball(spec, mu, radius, center), far, extra)


# name -> (domain builder, canonical element order, far point, extra step)
CASES = {
    "free-ball": (lambda: ball_domain(F2, srw(F2), 3),
                  lambda: sorted(gens_ball(F2, 3), key=shortlex),
                  (1,) * 9, (1, 2)),
    "free-ball-no-boundary": (
        lambda: ball_domain(F2, srw(F2), 3, with_boundary=False),
        lambda: sorted(gens_ball(F2, 3), key=shortlex), (1,) * 9, (1, 2)),
    "lattice-ball": (lambda: ball_domain(Z3, srw(Z3), 3),
                     lambda: sorted(gens_ball(Z3, 3)), (40, 0, 0), (2, 0, 0)),
    "lattice-ball-centered": (
        lambda: ball_domain(Z3, srw(Z3), 2, center=(1, -2, 0)),
        lambda: shifted(sorted(gens_ball(Z3, 2)), (1, -2, 0)),
        (0, 0, 0), (0, 2, 1)),
    "lattice-ball-no-boundary": (
        lambda: ball_domain(Z3, srw(Z3), 3, with_boundary=False),
        lambda: sorted(gens_ball(Z3, 3)), (40, 0, 0), (2, 0, 0)),
    "lattice-box": (lambda: box_domain(Z3, srw(Z3), 2),
                    lambda: sorted(itertools.product(range(-2, 3), repeat=3)),
                    (40, 0, 0), (2, 0, 0)),
    "heis3-ball": (lambda: ball_domain(HEIS, srw(HEIS), 3),
                   lambda: sorted(gens_ball(HEIS, 3)), (40, 0, 0), (1, 1, 0)),
    "heis3-ball-no-boundary": (
        lambda: ball_domain(HEIS, srw(HEIS), 3, with_boundary=False),
        lambda: sorted(gens_ball(HEIS, 3)), (40, 0, 0), (1, 1, 0)),
    "heis3-ball-centered": bfs_case(HEIS, srw(HEIS), 3, (2, -1, 5),
                                    (0, 0, 0), (1, 1, 0)),
    "heis3-ball-lazy": bfs_case(HEIS, lazy_transform(srw(HEIS), 0.5), 3,
                                (0, 0, 0), (40, 0, 0), (1, 1, 0)),
    "heis3-ball-central-steps": bfs_case(HEIS, HEIS_CENTRAL, 3, (0, 0, 0),
                                         (40, 0, 0), (-2, 1, 3)),
    "lattice-ball-stretched": bfs_case(Z3, Z3_STRETCHED, 3, (0, 0, 0),
                                       (40, 0, 0), (0, 1, 0)),
}


BOUNDED = sorted(k for k in CASES if not k.endswith("no-boundary"))


@pytest.fixture(params=sorted(CASES))
def case(request):
    build, order, far, extra = CASES[request.param]
    return build(), order(), far, extra


@pytest.fixture(params=BOUNDED)
def bounded(request):
    return CASES[request.param][0]()


def test_positions_round_trip(case):
    dom, _, far, _ = case
    els = dom.elements
    assert dom.positions(els).tolist() == list(range(len(els)))
    assert dom.positions([els[0]]).tolist() == [0]
    assert dom.lookup(els[0]) == 0 and els[0] in dom
    outside = [far] + list(dom.boundary or [])
    assert (dom.positions(outside) == -1).all()
    assert dom.lookup(far) is None and far not in dom


def test_step_table_matches_mul_and_lookup(case):
    dom, _, _, extra = case
    spec = dom.spec
    steps = list(groups.standard_generators(spec)) + [identity(spec), extra]
    table = dom.step_table(steps)
    n = len(dom)
    index = {g: i for i, g in enumerate(dom.elements)}
    assert table.shape == (n, len(steps)) and table.dtype == np.int64
    for i, g in enumerate(dom.elements):
        for k, s in enumerate(steps):
            h = mul(spec, g, s)
            if h in index:
                want = index[h]
            elif dom.boundary is not None and h in dom.boundary:
                want = n + dom.boundary.index(h)
            else:
                want = -1
            assert table[i, k] == want, (g, s)


def test_canonical_order(case):
    dom, order, _, _ = case
    assert dom.elements == order
    if dom.boundary is not None:
        members = set(dom.elements)
        outer = {mul(dom.spec, g, s) for g in dom.elements for s in dom.support} - members
        assert dom.boundary == sorted(outer)


@pytest.mark.parametrize("radius", [4, 5, 8, 10])
def test_free_ball_codes_and_boundary_order(radius):
    # each level is deduplicated by a sort and the boundary is ordered by a
    # vectorised key: the codes must be the reduced words of length <= R in
    # shortlex order, and the boundary those of length R + 1 in payload order
    dom = ball_domain(F2, srw(F2), radius)
    if radius <= 8:     # the enumeration cap of groups.ball is R = 10
        words = sorted(gens_ball(F2, radius + 1), key=shortlex)
        assert dom.codes.tolist() == [dom.encode(w) for w in words if len(w) <= radius]
        assert dom.boundary == sorted(w for w in words if len(w) == radius + 1)
    # the decode-and-sort reference, and the payload slot of each boundary code
    words = [dom.decode(c) for c in dom._bcodes.tolist()]
    assert dom.boundary == sorted(words)
    assert [dom.boundary[j] for j in dom._bslot.tolist()] == words


@pytest.mark.parametrize("center", [(0, 0, 0), (3, -1, 2)])
def test_lattice_step_table_far_steps(center):
    # steps that reach past the boundary, on both sides of every axis
    dom = ball_domain(Z3, srw(Z3), 2, center=center)
    steps = [(5, 0, 0), (-4, 3, 0), (0, 0, -2), (1, 1, 1), (0, -7, 0)]
    index = {g: i for i, g in enumerate(dom.elements + dom.boundary)}
    want = [[index.get(mul(Z3, g, s), -1) for s in steps] for g in dom.elements]
    assert dom.step_table(steps).tolist() == want


@pytest.mark.parametrize("center", [(0, 0, 0), (4, -3, 10)])
@pytest.mark.parametrize("with_boundary", [True, False])
def test_heis3_step_table_far_steps(center, with_boundary):
    # a step s moves c by c_s + a b_s: far b-steps reach past the window,
    # alone (the grid is padded by one step's reach) and together
    dom = ball_domain(HEIS, srw(HEIS), 3, center=center, with_boundary=with_boundary)
    steps = [(0, 7, 0), (0, -6, 2), (0, 3, 0), (3, 4, -1), (-5, 0, 0), (0, 0, -9)]
    index = {g: i for i, g in enumerate(dom.elements + (dom.boundary or []))}
    want = [[index.get(mul(HEIS, g, s), -1) for s in steps] for g in dom.elements]
    assert dom.step_table(steps).tolist() == want
    for k, s in enumerate(steps):
        assert dom.step_table([s])[:, 0].tolist() == [row[k] for row in want], s


@pytest.mark.parametrize("name", sorted(set(CASES) - set(BOUNDED)))
def test_exit_law_needs_boundary(name):
    dom = CASES[name][0]()
    for method in ("solve", "mc"):
        with pytest.raises(ValueError, match="no boundary"):
            exit_distribution(dom, dom.elements[0], srw(dom.spec), method,
                              trials=10, rng=derive_stream(7, "exit-protocol"))


def test_exit_mass_sums_to_one(bounded):
    dom = bounded
    mu = law_on(dom)
    start = dom.elements[len(dom) // 2]
    exits = exit_distribution(dom, start, mu)
    assert exits.vector.shape == (len(dom.boundary),)
    assert exits.total() == pytest.approx(1.0, abs=1e-9)
    assert (exits.vector >= 0).all()
    mc = exit_distribution(dom, start, mu, "mc", trials=400,
                           rng=derive_stream(7, "exit-protocol"))
    assert mc.total() == pytest.approx(1.0, abs=1e-12)
    assert set(mc.probs) <= set(dom.boundary)


def test_exit_law_matches_element_loop(bounded):
    # the table-driven exit law against the loop over elements and steps
    dom = bounded
    mu = law_on(dom)
    start = dom.elements[0]
    gvals = killed_green_solve(dom, [start], mu).row(start)
    want = dict.fromkeys(dom.boundary, 0.0)
    for g, gv in zip(dom.elements, gvals):
        for s in mu.support_elements():
            h = mul(dom.spec, g, s)
            if h not in dom:
                want[h] += gv * mu.pmf(s)
    got = exit_distribution(dom, start, mu).vector
    assert got.tolist() == list(want.values())
