"""The domain index protocol: positions, step tables, canonical order, and
the exit law built on them, for every domain kind."""

import gc
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenlab import green, groups
from greenlab.green import (ball_domain, box_domain, exit_distribution,
                            killed_green_solve)
from greenlab.groups import identity, mul
from greenlab.measures import StepMeasure, lazy_transform, uniform_on_generators
from word_ball_oracle import reference_ball

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
    return sorted(reference_ball(spec, radius))


def uniform_law(spec, steps):
    return StepMeasure(spec, "finite", "uniform", probs={s: 1 / len(steps) for s in steps})


def law_on(dom):
    """The uniform law on the domain's support (SRW for standard supports)."""
    return uniform_law(dom.spec, dom.support)


HEIS_CENTRAL = uniform_law(HEIS, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                                  (0, 0, 1), (0, 0, -1)])
Z3_STRETCHED = uniform_law(Z3, [(1, 0, 0), (-1, 0, 0), (0, 2, 0), (0, -2, 0),
                                (0, 0, 1), (0, 0, -1)])


def bfs_case(spec, mu, radius, center, far, extra):
    """A CASES entry whose order is the reference BFS from ``center``."""
    return (lambda: ball_domain(spec, mu, radius, center=center),
            lambda: sorted(reference_ball(spec, radius, mu.support_elements(),
                                          center)),
            far, extra)


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
    rows = np.arange(n)[::-3]
    assert np.array_equal(dom.step_table(steps, rows), table[rows])


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
    if radius <= 8:     # keeps the pure-Python reference BFS to R + 1 <= 9
        words = sorted(gens_ball(F2, radius + 1), key=shortlex)
        assert dom.codes.tolist() == [dom.encode(w) for w in words if len(w) <= radius]
        assert dom.boundary == sorted(w for w in words if len(w) == radius + 1)
    # the decode-and-sort reference, and the payload slot of each boundary code
    words = [dom.decode(c) for c in dom._bcodes.tolist()]
    assert dom.boundary == sorted(words)
    assert [dom.boundary[j] for j in dom._bslot.tolist()] == words


@pytest.mark.parametrize("rank, radius", [(2, 4), (3, 3)])
@pytest.mark.parametrize("collector_on", [True, False])
def test_free_ball_words_decode_their_codes(rank, radius, collector_on):
    # elements and boundary are built column-wise with the collector paused;
    # they equal the per-code decode, and the collector's state is restored
    spec = groups.free_group(rank)
    dom = ball_domain(spec, srw(spec), radius)
    was = gc.isenabled()
    (gc.enable if collector_on else gc.disable)()
    try:
        elements, boundary = dom.elements, dom.boundary
        assert gc.isenabled() == collector_on
    finally:
        (gc.enable if was else gc.disable)()
    assert elements == [dom.decode(c) for c in dom.codes.tolist()]
    assert elements[0] == () and all(type(w) is tuple for w in elements)
    assert boundary == sorted(dom.decode(c) for c in dom._bcodes.tolist())


def test_free_ball_needs_standard_support_and_identity():
    with pytest.raises(ValueError):
        ball_domain(F2, srw(F2), 2, center=(1,))
    with pytest.raises(ValueError):
        ball_domain(F2, uniform_law(F2, [(1,), (-1,), (2, 2), (-2, -2)]), 2)


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
    # a step s moves c by c_s + a b_s: far b-steps reach past the grid's
    # window, alone and together, and such products are located as -1
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
    with pytest.raises(ValueError, match="no boundary"):
        exit_distribution(dom, [dom.elements[0]], srw(dom.spec))


def test_exit_mass_sums_to_one(bounded):
    dom = bounded
    mu = law_on(dom)
    start = dom.elements[len(dom) // 2]
    exits = exit_distribution(dom, [start], mu)
    assert exits.shape == (1, len(dom.boundary))
    assert exits.sum() == pytest.approx(1.0, abs=1e-9)
    assert (exits >= 0).all()


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
    got = exit_distribution(dom, [start], mu)[0]
    assert got.tolist() == list(want.values())


# A key domain (``green._LatticeDomain``) against brute force: the point set
# and its boundary from the pure-Python BFS (or the box's definition), every
# lookup from a dict.  The key builders run _CHUNK_ROWS = 7 rows at a time.
KEY_DOMAINS = {
    "lattice-ball": lambda r, c, b: (ball_domain(Z3, srw(Z3), r, center=c, with_boundary=b),
                                     srw(Z3)),
    "lattice-box": lambda r, c, b: (box_domain(Z3, Z3_STRETCHED, r), Z3_STRETCHED),
    "stretched-ball": lambda r, c, b: (ball_domain(Z3, Z3_STRETCHED, r, center=c,
                                                   with_boundary=b), Z3_STRETCHED),
    "heis3-ball": lambda r, c, b: (ball_domain(HEIS, srw(HEIS), r, center=c,
                                               with_boundary=b), srw(HEIS)),
}
_SMALL = st.integers(-4, 4)


def brute_force_index(dom, mu, radius, center):
    """{point: i} over S and {point: n + j} over its boundary, each in
    lexicographic order, from the BFS ball (or the box) and its products
    with the support."""
    spec = dom.spec
    if dom.label.startswith("box"):
        members = set(itertools.product(range(-radius, radius + 1), repeat=3))
    else:
        members = set(reference_ball(spec, radius, mu.support_elements(), center))
    index = {g: i for i, g in enumerate(sorted(members))}
    if dom.boundary is not None:
        outer = {mul(spec, g, s) for g in members for s in mu.support_elements()}
        index.update((g, len(members) + j) for j, g in enumerate(sorted(outer - members)))
    return index


@given(kind=st.sampled_from(sorted(KEY_DOMAINS)), radius=st.integers(0, 3),
       center=st.one_of(st.just((0, 0, 0)), st.tuples(_SMALL, _SMALL, st.integers(-9, 9))),
       with_boundary=st.booleans(),
       far=st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9),
                              st.integers(-20, 20)), min_size=1, max_size=4))
def test_key_domain_matches_brute_force(kind, radius, center, with_boundary, far):
    with mock.patch.object(green, "_CHUNK_ROWS", 7):
        dom, mu = KEY_DOMAINS[kind](radius, center, with_boundary)
        index = brute_force_index(dom, mu, radius, center)
        n = len(dom)
        assert n == sum(i < n for i in index.values())
        assert dom.elements == sorted(g for g, i in index.items() if i < n)
        # every cell of the bounding box of S and its boundary, and a margin
        pts = np.array(list(index), dtype=np.int64)
        axes = [range(lo - 3, hi + 4) for lo, hi in zip(pts.min(axis=0), pts.max(axis=0))]
        cells = list(itertools.product(*axes))
        want = [i if i < n else -1 for i in (index.get(g, -1) for g in cells)]
        assert dom.positions(cells).tolist() == want
        steps = list(mu.support_elements()) + far
        table = dom.step_table(steps)
        want = [[index.get(mul(dom.spec, g, s), -1) for s in steps] for g in dom.elements]
        assert table.tolist() == want
        rows = np.arange(n)[::-2]
        assert np.array_equal(dom.step_table(steps, rows), table[rows])
