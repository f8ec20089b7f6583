"""Property tests over dimension, weights and exponents: the duality
round trip, Bregman nonnegativity and the three-point law of every set.

Entries, weights and exponents are bounded above so that no power
overflows.  Nonzero entries are either of order one (1e-3 to the bound)
or tiny (1e-300 to 1e-3, log-uniform).  Tiny points are where the
projection for p != r rescales x by ``(s / ||x||) ** ((r - p) / (r - 1))``
past the floating-point range: a rescaling that underflows is the origin
case.  The examples are derandomized, so every run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from projsd import (Ball, Box, CoordinateSubspace, SpaceGeometry,
                    WholeSpace, bregman_distance, bregman_project,
                    check_total_nonexpansiveness, duality_map,
                    inverse_duality_map, norm)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None,
                             derandomize=True, database=None)

exponents = st.floats(1.25, 4.0)


def vectors(dim, bound=3.0):
    size = st.floats(1e-3, bound) | st.floats(-300.0, -3.0).map(
        lambda exponent: 10.0 ** exponent)
    entry = st.just(0.0) | st.builds(
        lambda sign, size: sign * size, st.sampled_from([-1.0, 1.0]), size)
    return st.lists(entry, min_size=dim, max_size=dim).map(np.array)


@st.composite
def spaces(draw):
    dim = draw(st.integers(1, 6))
    weights = draw(st.lists(st.floats(0.25, 4.0), min_size=dim,
                            max_size=dim))
    return SpaceGeometry(dim=dim, r=draw(exponents), p=draw(exponents),
                         weights=np.array(weights))


@st.composite
def space_and_points(draw, n):
    space = draw(spaces())
    return (space,) + tuple(draw(vectors(space.dim)) for _ in range(n))


@st.composite
def set_problems(draw):
    """A space, a set of each kind, a point to project and a pole in the
    set."""
    space, x, u = draw(space_and_points(2))
    d = space.dim
    kind = draw(st.sampled_from(["wholespace", "box", "ball", "subspace"]))
    if kind == "wholespace":
        return space, WholeSpace(), x, u
    if kind == "box":
        lower = draw(vectors(d, 2.0))
        upper = lower + draw(st.lists(st.floats(0.1, 2.0), min_size=d,
                                      max_size=d).map(np.array))
        return space, Box(lower, upper), x, np.clip(u, lower, upper)
    if kind == "ball":
        center = draw(vectors(d, 1.0))
        radius = draw(st.floats(0.2, 2.0))
        gap = float(norm(space, u - center))
        z = u if gap <= radius else center + (0.9 * radius / gap) \
            * (u - center)
        return space, Ball(center, radius), x, z
    support = draw(st.sets(st.integers(0, d - 1), min_size=1))
    cset = CoordinateSubspace(sorted(support))
    return space, cset, x, np.where(np.isin(np.arange(d), cset.support), u,
                                     0.0)


@PROPERTY_SETTINGS
@given(space_and_points(1))
def test_duality_round_trip(case):
    space, x = case
    back = inverse_duality_map(space, duality_map(space, x))
    np.testing.assert_allclose(back, x, rtol=1e-9,
                               atol=1e-12 * (1.0 + np.max(np.abs(x))))


@PROPERTY_SETTINGS
@given(space_and_points(2))
def test_bregman_nonnegative_and_zero_at_equality(case):
    space, x, y = case
    assert float(bregman_distance(space, x, y)) >= 0.0
    scale = 1.0 + float(norm(space, x)) ** space.p
    assert abs(float(bregman_distance(space, x, x))) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(set_problems())
def test_three_point_law(case):
    space, cset, x, z = case
    assert cset.contains(space, bregman_project(space, cset, x), tol=1e-9)
    lhs, rhs, _ = check_total_nonexpansiveness(space, cset, x, z)
    assert lhs <= rhs + 1e-9 * (1.0 + rhs)
