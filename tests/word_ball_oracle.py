"""Word balls and spheres by a pure-Python breadth-first search over
groups.mul and a dict: the reference for the vectorised layer BFS
(groups.layer_ball), the free-ball builder and the Heis3 word table.
Test helper only.
"""

from greenlab import groups


def reference_ball(spec, radius, steps=None, center=None) -> dict:
    """{g: d(center, g)} over B(center, radius) in the Cayley graph of
    `steps` (the standard generators by default; the identity is ignored),
    in breadth-first order."""
    e = groups.identity(spec)
    if steps is None:
        steps = groups.standard_generators(spec).elements
    steps = [s for s in steps if s != e]
    center = e if center is None else center
    dist = {center: 0}
    frontier = [center]
    for d in range(radius):
        nxt = []
        for g in frontier:
            for s in steps:
                h = groups.mul(spec, g, s)
                if h not in dist:
                    dist[h] = d + 1
                    nxt.append(h)
        frontier = nxt
    return dist


def reference_sphere(spec, radius) -> list:
    """The elements at word length exactly `radius`, sorted."""
    return sorted(g for g, d in reference_ball(spec, radius).items()
                  if d == radius)
