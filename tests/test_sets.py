"""Tests of convex sets and the Bregman projection."""

import decimal
import math
import os
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
from oracles import (brackets_root, member, solve_coordinates,
                     subspace_projection)

import projsd.sets
from projsd import (DEFAULT_CONSTANTS, Ball, Box, CoordinateSubspace,
                    DimensionMismatch, NonConvergence, NonFiniteInput,
                    WholeSpace, bregman_distance, bregman_project,
                    check_total_nonexpansiveness, lp_space, norm)

GEOMETRIES = [(2.0, 2.0), (3.0, 3.0), (1.5, 2.0)]
D = decimal.Decimal
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)


def make_sets(dim):
    return [
        WholeSpace(),
        Box(-np.ones(dim) * 0.5, np.ones(dim) * 0.5),
        Ball(np.zeros(dim), 0.75),
        CoordinateSubspace(range(dim // 2)),
    ]


def sample_member(cset, space, rng):
    x = 0.4 * rng.standard_normal(space.dim)
    if isinstance(cset, Box):
        return np.clip(x, cset.lower, cset.upper)
    if isinstance(cset, Ball):
        d = float(norm(space, x - cset.center))
        if d > cset.radius:
            x = cset.center + (cset.radius / d) * (x - cset.center)
        return x
    if isinstance(cset, CoordinateSubspace):
        return np.where(np.isin(np.arange(space.dim), cset.support), x, 0.0)
    return x


class TestSetBasics:
    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])
        # NaN bounds and empty coordinates; -inf and +inf stay open sides.
        for lower, upper in [(np.nan, 1.0), (0.0, np.nan), (np.inf, np.inf),
                             (-np.inf, -np.inf)]:
            with pytest.raises(ValueError):
                Box([lower, 0.0], [upper, 1.0])
        Box([-np.inf, 0.0], [np.inf, 1.0])

    def test_box_clamp_is_clip(self):
        # Every pair of z and bound among signed zeros, +-1 and +-inf,
        # with both sides open or closed: the clamp gives np.clip's bytes.
        # With p = r it is the projection, also where r != 2.
        vals = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf])
        z, lo, hi = (a.ravel() for a in np.meshgrid(vals, vals, vals))
        keep = (lo <= hi) & (lo < np.inf) & (hi > -np.inf)
        z, lo, hi = z[keep], lo[keep], hi[keep]
        for r in (2.0, 3.0):
            got = Box(lo, hi)._projector(lp_space(z.size, r=r))(z)
            assert got.tobytes() == np.clip(z, lo, hi).tobytes()

    def test_ball_validation(self):
        for center, radius in [(0.0, 0.0), (0.0, np.nan), (np.inf, 1.0),
                               (np.nan, 1.0)]:
            with pytest.raises(ValueError):
                Ball([center, 0.0], radius)

    def test_subspace_validation(self):
        with pytest.raises(ValueError):
            CoordinateSubspace([])
        with pytest.raises(ValueError):
            CoordinateSubspace([-1])
        # [1.5, 2.9] silently became [1, 2].
        for support in ([1.5, 2.9], [0, np.nan], [0, np.inf]):
            with pytest.raises(ValueError, match="must be integers"):
                CoordinateSubspace(support)
        assert CoordinateSubspace([2.0, np.int64(0)]).support.tolist() \
            == [0, 2]
        # float(True) is 1.0: [True] became the support [1].
        for support in ([True], [0, np.True_], [False]):
            with pytest.raises(ValueError, match="must be integers"):
                CoordinateSubspace(support)

    @pytest.mark.parametrize("support", [
        3, "ab", [None], [[0]], [2 ** 70], [1e300], [0, 2 ** 63]],
        ids=["int", "str", "none", "nested", "int-2**70", "1e300",
             "int-2**63"])
    def test_support_rule_names_the_support(self, support):
        # 3, [None] and [[0]] ended in a TypeError, "ab" in "could not
        # convert string to float", and [2**70] and [1e300] in an
        # OverflowError.
        with pytest.raises(ValueError,
                           match=r"^support = .* must be integers in "
                                 r"\[0, 2\*\*63\)$"):
            CoordinateSubspace(support)

    @pytest.mark.parametrize("support", [
        {0: 1}, {}, types.MappingProxyType({1: 0, 2: 0})],
        ids=["dict", "empty-dict", "mapping-proxy"])
    def test_mapping_support_is_refused(self, support):
        # A mapping iterates its keys, so {0: 1} was the support [0].
        with pytest.raises(ValueError,
                           match=r"^support = .* must be integers in "
                                 r"\[0, 2\*\*63\)$"):
            CoordinateSubspace(support)

    def test_subspace_repr_prints_plain_ints(self):
        # The support printed as [np.int64(1)].
        assert repr(CoordinateSubspace([np.int64(1)])) \
            == "CoordinateSubspace([1])"
        assert repr(CoordinateSubspace(np.array([3.0, 0.0]))) \
            == "CoordinateSubspace([0, 3])"

    @pytest.mark.parametrize("length", [1, 2])
    @pytest.mark.parametrize("kind", ["box", "ball", "subspace"])
    def test_parameter_of_wrong_length_is_rejected(self, kind, length):
        # No broadcast: in l^2 of dimension 3, Box([0], [1]) acted as the
        # cube [0, 1]^3 and Ball([0.5], 0.3) as a ball around (0.5, 0.5,
        # 0.5); bounds of length 2 ended in numpy's own ValueError, and a
        # subspace support index >= 3 in a bare ValueError.
        space = lp_space(3)
        if kind == "box":
            cset = Box(np.zeros(length), np.ones(length))
            match = rf"Box lower and upper have shape \({length},\)"
        elif kind == "ball":
            cset = Ball(np.full(length, 0.5), 0.3)
            match = rf"Ball center has shape \({length},\)"
        else:
            cset = CoordinateSubspace([0, 2 + length])
            match = rf"CoordinateSubspace support \[0, {2 + length}\]"
        match += (r" has an index >= 3, the space dimension"
                  if kind == "subspace" else r", the space needs \(3,\)")
        for x in ([0.5, 0.5, 0.5], [2.0, 2.0, 2.0]):
            with pytest.raises(DimensionMismatch, match=match):
                member(space, cset, x)
            with pytest.raises(DimensionMismatch, match=match):
                bregman_project(space, cset, x)

    def test_membership(self):
        space = lp_space(2)
        box, ball = Box([0.0, 0.0], [1.0, 1.0]), Ball([0.0, 0.0], 1.0)
        subspace = CoordinateSubspace([0])
        assert member(space, box, [0.5, 0.5])
        assert not member(space, box, [2.0, 0.5])
        assert member(space, ball, [0.6, 0.8])
        assert not member(space, ball, [1.0, 1.0])
        assert member(space, subspace, [3.0, 0.0])
        assert not member(space, subspace, [3.0, 0.1])


def fixed_set(kind, *arrays):
    """A set of ``kind`` in R^4 with the point it moves in l^2, built from
    the caller's ``arrays`` when given."""
    if kind == "box":
        lower, upper = arrays or (-np.ones(4), np.ones(4))
        return Box(lower, upper), np.array([3.0, 0.0, 0.0, 0.0])
    if kind == "ball":
        center, = arrays or (np.zeros(4),)
        return Ball(center, 1.0), np.array([3.0, 0.0, 0.0, 0.0])
    support, = arrays or (np.array([0, 1]),)
    return CoordinateSubspace(support), np.array([1.0, 2.0, 3.0, 4.0])


class TestFixedAtConstruction:
    """A set is fixed at construction, as a space is: its parameters are
    checked once and stored, its arrays as read-only copies.  Assigning
    one skipped the checks: in l^2 on R^4, ``Ball.radius = -1.0``
    projected (3, 0, 0, 0) to (-1, 0, 0, 0), ``Box.lower = (2, 2, 2, 2)``
    on [-1, 1]^4 projected it to (1, 1, 1, 1), and ``support = [-1, 2]``
    on the span of e_0 and e_1 projected (1, 2, 3, 4) to (0, 0, 3, 0),
    all without an error."""

    @pytest.mark.parametrize("kind,name,value", [
        ("box", "lower", np.full(4, 2.0)), ("box", "upper", np.zeros(4)),
        ("ball", "center", np.ones(4)), ("ball", "radius", -1.0),
        ("subspace", "support", np.array([-1, 2]))])
    def test_assigning_a_parameter_raises(self, kind, name, value):
        space = lp_space(4)
        cset, x = fixed_set(kind)
        built = bregman_project(space, cset, x)
        cls = type(cset).__name__
        with pytest.raises(AttributeError,
                           match=rf"^{cls}\.{name} is fixed at construction"):
            setattr(cset, name, value)
        with pytest.raises(AttributeError, match=rf"^{cls}\.{name} is fixed"):
            delattr(cset, name)
        assert bregman_project(space, cset, x).tobytes() == built.tobytes()
        assert not np.array_equal(built, x)

    @pytest.mark.parametrize("kind,name", [
        ("box", "lower"), ("box", "upper"), ("ball", "center"),
        ("subspace", "support")])
    def test_stored_arrays_are_read_only(self, kind, name):
        array = getattr(fixed_set(kind)[0], name)
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1

    @pytest.mark.parametrize("kind", ["box", "ball", "subspace"])
    def test_a_write_into_the_callers_array_does_not_reach_it(self, kind):
        space = lp_space(4)
        arrays = {"box": (-np.ones(4), np.ones(4)), "ball": (np.zeros(4),),
                  "subspace": (np.array([0, 1]),)}[kind]
        cset, x = fixed_set(kind, *arrays)
        built = bregman_project(space, cset, x)
        for array in arrays:
            array[:2] = (3, 2)
        assert bregman_project(space, cset, x).tobytes() == built.tobytes()


class TestHilbertClosedForms:
    def test_box_clamp(self):
        space = lp_space(2)
        y = bregman_project(space, Box([0.0, 0.0], [1.0, 1.0]), [2.0, -1.0])
        np.testing.assert_allclose(y, [1.0, 0.0])

    def test_ball_radial_shrink(self):
        space = lp_space(2)
        y = bregman_project(space, Ball([0.0, 0.0], 1.0), [3.0, 4.0])
        np.testing.assert_allclose(y, [0.6, 0.8])

    def test_subspace_truncation(self):
        space = lp_space(3)
        y = bregman_project(space, CoordinateSubspace([0, 2]),
                            [1.0, 2.0, 3.0])
        np.testing.assert_allclose(y, [1.0, 0.0, 3.0])

    def test_matches_euclidean_metric_projection(self):
        # In the Hilbert configuration the Bregman distance is half the
        # squared Euclidean distance, so both projections coincide.
        space = lp_space(4)
        rng = np.random.default_rng(0)
        cset = Box(-np.ones(4) * 0.3, np.ones(4) * 0.3)
        for _ in range(50):
            x = rng.standard_normal(4)
            y = bregman_project(space, cset, x)
            np.testing.assert_allclose(
                y, np.clip(x, cset.lower, cset.upper), atol=1e-10)


class TestProjectionProperties:
    @pytest.mark.parametrize("r,p", GEOMETRIES)
    def test_membership_short_circuit(self, r, p):
        # Each set maps its members to themselves, as a new array.  The
        # off-centre ball takes the multiplier search when r != 2.
        space = lp_space(4, r=r, p=p)
        rng = np.random.default_rng(1)
        for cset in make_sets(4) + [Ball(np.full(4, 0.3), 0.75)]:
            z = sample_member(cset, space, rng)
            y = bregman_project(space, cset, z)
            assert y is not z
            np.testing.assert_array_equal(y, z)

    @pytest.mark.parametrize("r,p", GEOMETRIES)
    def test_total_nonexpansiveness(self, r, p):
        space = lp_space(4, r=r, p=p)
        rng = np.random.default_rng(2)
        for cset in make_sets(4):
            for _ in range(10):
                x = 2.0 * rng.standard_normal(4)
                z = sample_member(cset, space, rng)
                lhs, rhs, ok = check_total_nonexpansiveness(
                    space, cset, x, z)
                assert ok, (type(cset).__name__, lhs - rhs)

    @pytest.mark.parametrize("r,p", GEOMETRIES)
    def test_idempotent(self, r, p):
        space = lp_space(4, r=r, p=p)
        rng = np.random.default_rng(3)
        for cset in make_sets(4):
            x = 2.0 * rng.standard_normal(4)
            y = bregman_project(space, cset, x)
            y2 = bregman_project(space, cset, y)
            assert float(norm(space, y - y2)) < 1e-10

    @pytest.mark.parametrize("r,p", GEOMETRIES)
    def test_minimality(self, r, p):
        # No set member may beat the projection's Bregman distance.
        space = lp_space(4, r=r, p=p)
        rng = np.random.default_rng(4)
        for cset in make_sets(4):
            x = 2.0 * rng.standard_normal(4)
            y = bregman_project(space, cset, x)
            dy = float(bregman_distance(space, x, y))
            for _ in range(30):
                z = sample_member(cset, space, rng)
                dz = float(bregman_distance(space, x, z))
                assert dy <= dz + 1e-10

    def test_projection_lands_in_set(self):
        for r, p in GEOMETRIES:
            space = lp_space(4, r=r, p=p)
            rng = np.random.default_rng(5)
            for cset in make_sets(4):
                x = 3.0 * rng.standard_normal(4)
                y = bregman_project(space, cset, x)
                assert member(space, cset, y, tol=1e-8), \
                    (type(cset).__name__, r, p)


# Geometries of the exact-projection tests: (r, p, weights).  Weighted
# spaces and p != r outside the shipped table take explicit constants,
# which the projection does not read.
EXACT_GEOMETRIES = [
    (1.5, 2.0, None),
    (1.5, 1.5, None),
    (3.0, 3.0, None),
    (4.0, 4.0, None),
    (3.0, 2.0, None),
    (2.0, 2.0, [0.5, 2.0, 1.0, 3.0]),
    (1.5, 2.0, [0.5, 2.0, 1.0, 3.0]),
    (4.0, 4.0, [0.5, 2.0, 1.0, 3.0]),
    (1.1, 2.0, None),
    (1.25, 2.0, None),
    (4.0, 2.0, None),
    (6.0, 2.0, None),
    (2.5, 4.0, None),
    (3.5, 1.25, None),
]


# Projections, by geometry, that once broke the three-point law: here
# P(x)_4 is ~3e-21, and a bracket of width ~1e-15 around it left phi of it
# unresolved.
EXACT_HARD_CASES = [
    ((1.1, 2.0, None),
     Ball([6.7335752, 6.2123949, 4.03914337, -6.01092915], 9.95245001584504),
     [20.01582521, 41.67739505, 26.04249067, 7.31573147]),
]


def exact_space(r, p, weights):
    if weights is None and (r, p) in DEFAULT_CONSTANTS:
        return lp_space(4, r=r, p=p)
    return lp_space(4, r=r, p=p, weights=weights, Cp=0.1, Gq=10.0)


def exact_sets():
    """Sets whose projections the centred-ball suite above never takes:
    an off-centre ball, a box away from the origin, a subspace."""
    return [
        Ball(np.array([0.6, -0.4, 0.2, 0.9]), 0.7),
        Box([0.2, -1.0, -0.3, 0.5], [1.0, -0.4, 0.3, 1.5]),
        CoordinateSubspace([1, 3]),
    ]


def members_near(cset, space, rng, y, n):
    """Set members: n spread over the set and n within 1e-3 of y, where a
    suboptimal y shows first."""
    if isinstance(cset, Box):
        far = rng.uniform(cset.lower, cset.upper, (n, space.dim))
    else:
        far = np.array([sample_member(cset, space, rng) for _ in range(n)])
    near = y + 1e-3 * rng.standard_normal((n, space.dim))
    if isinstance(cset, Box):
        near = np.clip(near, cset.lower, cset.upper)
    elif isinstance(cset, Ball):
        dist = norm(space, near - cset.center)
        shrink = np.minimum(1.0, cset.radius / dist)[:, None]
        near = cset.center + shrink * (near - cset.center)
    else:
        near = np.where(np.isin(np.arange(space.dim), cset.support), near,
                        0.0)
    return np.vstack([far, near])


def assert_exact_projection(space, cset, x, rng, n=200):
    """Membership, brute-force minimality over 2n members, the three-point
    law at 1e-12 relative, and idempotence."""
    y = bregman_project(space, cset, x)
    assert member(space, cset, y, tol=1e-12)
    zs = members_near(cset, space, rng, y, n)
    n_z = len(zs)
    d_x_y = float(bregman_distance(space, x, y))
    d_x_z = bregman_distance(space, np.repeat(x[None], n_z, 0), zs)
    slack = 1e-12 * (1.0 + d_x_z)
    assert np.all(d_x_y <= d_x_z + slack)
    d_y_z = bregman_distance(space, np.repeat(y[None], n_z, 0), zs)
    assert np.all(d_y_z + d_x_y <= d_x_z + slack)
    assert float(norm(space, bregman_project(space, cset, y) - y)) <= 1e-12
    return y


class TestExactProjections:
    @pytest.mark.parametrize("r,p,weights", EXACT_GEOMETRIES)
    def test_exact_for_every_set(self, r, p, weights):
        space = exact_space(r, p, weights)
        rng = np.random.default_rng(6)
        for cset in exact_sets():
            for _ in range(5):
                x = 2.0 * rng.standard_normal(4)
                if not member(space, cset, x, tol=0.0):
                    assert_exact_projection(space, cset, x, rng)
        # Off-centre balls of scale 0.1 to 10 and points of scale 1e-4 to
        # 1e5.  With p != r the joint search projects most of them; the
        # nested searches take the points near the origin.
        rng = np.random.default_rng(16)
        for _ in range(8):
            scale = 10.0 ** rng.uniform(-1.0, 1.0)
            ball = Ball(scale * rng.standard_normal(4),
                        scale * rng.uniform(0.1, 1.5))
            x = 10.0 ** rng.uniform(-4.0, 5.0) * rng.standard_normal(4)
            if not member(space, ball, x, tol=0.0):
                assert_exact_projection(space, ball, x, rng)
        for geometry, cset, x in EXACT_HARD_CASES:
            if geometry == (r, p, weights):
                assert_exact_projection(space, cset, np.array(x), rng)

    @pytest.mark.parametrize("r,p,weights", [
        g for g in EXACT_GEOMETRIES if g[0] != 2.0])
    def test_origin_projects_to_the_least_norm_point(self, r, p, weights,
                                                     monkeypatch):
        # The objective at x = 0 is (1/p) ||y||**p, so P(0) is the point
        # c (1 - R / ||c||) of the ball nearest the origin in every norm,
        # found with no search; a search took it before.
        space = exact_space(r, p, weights)
        rng = np.random.default_rng(39)
        center = np.array([0.6, -0.4, 0.0, 0.9])
        radius = 0.25 * norm(space, center)
        ball = Ball(center, radius)
        least = center * (1.0 - radius / norm(space, center))

        def no_search(*args):
            raise AssertionError("the origin took a search")

        for origin in (np.zeros(4), -np.zeros(4)):
            with monkeypatch.context() as patch:
                for name in ("_ball_search", "_joint_ball_search",
                             "_gauge_p_projection"):
                    patch.setattr(projsd.sets, name, no_search)
                y = bregman_project(space, ball, origin)
            assert y.tobytes() == least.tobytes()
            assert_exact_projection(space, ball, origin, rng)

    def test_weighted_l2_closed_forms(self):
        # r = p = 2 with weights is the weighted Euclidean metric
        # projection: a clamp, a radial shrink toward the center, and a
        # truncation.
        w = np.array([0.5, 2.0, 1.0, 3.0])
        space = lp_space(4, r=2.0, p=2.0, weights=w, Cp=0.1, Gq=10.0)
        x = np.array([1.5, -2.0, 0.1, 2.5])
        ball, box, sub = exact_sets()
        np.testing.assert_array_equal(bregman_project(space, box, x),
                                      np.clip(x, box.lower, box.upper))
        gap = x - ball.center
        np.testing.assert_allclose(
            bregman_project(space, ball, x),
            ball.center + ball.radius * gap / np.sqrt(np.sum(w * gap ** 2)),
            rtol=1e-15, atol=1e-15)
        np.testing.assert_array_equal(bregman_project(space, sub, x),
                                      [0.0, -2.0, 0.0, 2.5])

    @pytest.mark.parametrize("r,p,weights", EXACT_GEOMETRIES)
    def test_origin_projects_to_minimum_norm_point(self, r, p, weights):
        # At x = 0 the distance is ||y||**p / p, and the rescaling formula,
        # which divides by ||x||, does not apply.
        space = exact_space(r, p, weights)
        rng = np.random.default_rng(7)
        x = np.zeros(4)
        for cset in exact_sets()[:2]:
            y = assert_exact_projection(space, cset, x, rng)
            zs = members_near(cset, space, rng, y, 500)
            assert np.all(float(norm(space, y))
                          <= norm(space, zs) * (1.0 + 1e-12))
        box = exact_sets()[1]
        np.testing.assert_array_equal(bregman_project(space, box, x),
                                      np.clip(x, box.lower, box.upper))

    def test_repeat_calls_are_bit_identical(self):
        space = lp_space(4, r=1.5, p=2.0)
        x = np.array([2.0, -1.5, 0.3, 2.2])
        for cset in exact_sets():
            first = bregman_project(space, cset, x)
            bregman_project(space, cset, -x)
            assert first.tobytes() == bregman_project(space, cset, x).tobytes()

    def test_point_on_the_sphere_terminates(self):
        space = lp_space(4, r=1.5, p=2.0)
        ball = exact_sets()[0]
        rng = np.random.default_rng(8)
        for _ in range(50):
            v = rng.standard_normal(4)
            x = ball.center + ball.radius * v / float(norm(space, v))
            y = bregman_project(space, ball, x)
            assert float(norm(space, y - x)) <= 1e-12

    @pytest.mark.parametrize("r,p", [(1.25, 2.0), (2.0, 1.5)])
    def test_tiny_point_with_p_not_r(self, r, p):
        # ||x|| is ~1e-154 of the box's scale.  For r < p the rescaling of
        # x underflows, which is the origin case; for r > p the search
        # variable passes |t| = 700 while exp(beta t) is in range.  The
        # projection is P(0) to rounding.
        space = lp_space(4, r=r, p=p, Cp=0.1, Gq=10.0)
        box = Box([0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 2.0])
        x = np.array([0.0, 0.0, 0.0, 2.77e-154])
        y = assert_exact_projection(space, box, x, np.random.default_rng(9))
        np.testing.assert_array_equal(
            y, bregman_project(space, box, np.zeros(4)))

    def test_root_search_stops_at_its_overflow_limit(self):
        # r = 1.25, p = 4: the root of the rescaling search is at
        # beta t = 633, in range, and its doubling walk would next try
        # beta t = 844, where exp overflows; the walk stops at its limit.
        space = lp_space(5, r=1.25, p=4.0, Cp=0.1, Gq=10.0)
        box = Box([0.0, 0.0, 0.0, 0.0, -1e-25], np.ones(5))
        x = np.array([0.0, 0.0, 0.0, 0.0, -1.0])
        rng = np.random.default_rng(10)
        y = assert_exact_projection(space, box, x, rng)
        np.testing.assert_array_equal(y, [0.0, 0.0, 0.0, 0.0, -1e-25])

    @pytest.mark.parametrize("r,p,weights,lower,upper,x", [
        (1.454, 3.277, [0.444, 1.373], [3.13e-218, 0.0], [1.92, 0.292],
         [-2.55, 0.0]),
        (1.44, 2.5, [1.73, 1.54, 1.51], [0.0, 1.29e-226, 1.45e-131],
         [1.05, 0.391, 1.18], [-8562.5, -19093.4, -1626.6]),
    ])
    def test_projection_constant_along_the_ray(self, r, p, weights, lower,
                                               upper, x):
        # Clamping x and every larger multiple of it gives the lower
        # corner, so P_p(x) = P_r(x).  The tiny lower bound puts g(0) near
        # -500 and the root of the rescaling search beyond exp's range.  In
        # the second case the walk's last trial would overflow in e**(beta
        # t) x, though not in e**(beta t).
        space = lp_space(len(x), r=r, p=p, weights=weights, Cp=0.1,
                         Gq=10.0)
        box = Box(lower, upper)
        y = assert_exact_projection(space, box, np.array(x),
                                    np.random.default_rng(15))
        np.testing.assert_array_equal(y, lower)

    def test_root_search_starts_below_the_root(self):
        # r = 3.5, p = 1.25 (beta = 0.9): the cone guess g(0) / (1 - beta)
        # is ten times the root here and rescales x to where |y_i|**r
        # overflows; the search starts from g(0) instead.
        space = lp_space(2, r=3.5, p=1.25, Cp=0.1, Gq=10.0)
        ball = Ball(np.array([0.5, 0.5]), 0.3)
        x = np.array([1e-20, 0.0])
        assert_exact_projection(space, ball, x, np.random.default_rng(13))

    def test_root_of_a_tiny_projection(self):
        # r = 4, p = 2: P(x) = (0, x_2**3, 0) = (0, 1e-96, 0), whose
        # sum_i |y_i|**4 is far below the normal range, so the search
        # takes ||y|| from y scaled to max |y_i| = 1.
        space = lp_space(3, r=4.0, p=2.0, Cp=0.1, Gq=10.0)
        box = Box([0.0, -0.5, 0.0], [0.1, 0.7, 1.0])
        x = np.array([0.0, 1e-32, -1.0])
        y = assert_exact_projection(space, box, x, np.random.default_rng(12))
        np.testing.assert_allclose(y, [0.0, 1e-96, 0.0], rtol=1e-12, atol=0)

    def test_subnormal_coordinate(self):
        # In subnormals the coordinate solve's relative tolerance
        # underflows to 0, so only a floor on it ends the bisection.
        space = lp_space(3, r=1.5, p=1.5, Cp=0.1, Gq=10.0)
        ball = Ball(np.array([0.0, 0.3, 0.2]), 1.0)
        x = np.array([1e-320, 2.0, -3.0])
        assert_exact_projection(space, ball, x, np.random.default_rng(11))

    def test_tiny_coordinate_raises_no_overflow_warning(self):
        # The slope ratio of a coordinate at 1e-211 next to a center entry
        # of order one is subnormal, and its unused reciprocal overflows;
        # the test settings turn a RuntimeWarning into an error.
        space = lp_space(2, r=3.5, p=3.5, Cp=0.1, Gq=10.0)
        ball = Ball(np.array([0.5, 0.0]), 1.0)
        x = np.array([1e-211, 3.0])
        assert_exact_projection(space, ball, x, np.random.default_rng(14))

    def test_joint_search_solves_few_coordinate_systems(self, monkeypatch):
        # Points just outside an off-centre ball in 32 dimensions, r = 1.5,
        # p = 2, as the iterates of a projected descent are.  The nested
        # searches alone make 30.4 coordinate solves per projection here,
        # the joint search 3.7.
        space = lp_space(32, r=1.5, p=2.0)
        rng = np.random.default_rng(17)
        resolve = projsd.sets._coordinate_solver
        calls = []

        def counting_solver(*args):
            solve = resolve(*args)

            def counting(*args):
                calls.append(1)
                return solve(*args)
            return counting

        monkeypatch.setattr(projsd.sets, "_coordinate_solver",
                            counting_solver)
        n = 20
        for _ in range(n):
            ball = Ball(0.3 * rng.standard_normal(32), 1.0)
            v = rng.standard_normal(32)
            gap = rng.uniform(1.02, 1.3) / float(norm(space, v))
            y = bregman_project(space, ball, ball.center + gap * v)
            assert abs(float(norm(space, y - ball.center)) - 1.0) <= 1e-14
        assert len(calls) / n <= 8.0

    def test_step_cap_raises_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(projsd.sets, "_MAX_STEPS", 1)
        space = lp_space(4, r=1.5, p=2.0)
        with pytest.raises(NonConvergence):
            bregman_project(space, exact_sets()[0], np.full(4, 3.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_rejected(self, bad):
        # At every position, with the clamp as the projection (r = p) and
        # not (r != p).
        for r in (1.5, 3.0):
            space = lp_space(4, r=r)
            for pos in range(4):
                x = np.array([0.5, 0.3, 0.1, 2.0])
                x[pos] = bad
                for cset in [WholeSpace()] + exact_sets():
                    with pytest.raises(NonFiniteInput):
                        bregman_project(space, cset, x)

    def test_finite_input_whose_square_overflows_projects(self):
        # <x, x> is inf for entries of 1e200, so the entries are tested
        # one by one: finite, and x projects.
        space = lp_space(4)
        x = np.array([1e200, -1e200, 0.5, -0.0])
        box, sub = exact_sets()[1:]
        np.testing.assert_array_equal(bregman_project(space, WholeSpace(), x),
                                      x)
        assert bregman_project(space, box, x).tobytes() == \
            np.clip(x, box.lower, box.upper).tobytes()
        np.testing.assert_array_equal(bregman_project(space, sub, x),
                                      [0.0, -1e200, 0.0, -0.0])

    @pytest.mark.parametrize("r, size, center", [
        (3.0, 1e150, [0.0, 0.0]), (2.0, 1e200, [0.0, 0.0]),
        (1.5, 1e300, [0.0, 0.0]), (2.0, 1e200, [0.5, -0.25])])
    def test_ball_point_whose_norm_overflows_projects_to_the_sphere(
            self, r, size, center):
        # ||x - c|| overflowed to inf, so x projected onto the centre.
        space = lp_space(2, r=r)
        ball = Ball(center, 0.7)
        x = np.array([size, -0.5 * size])
        y = bregman_project(space, ball, x)
        assert float(norm(space, y - ball.center)) == pytest.approx(
            0.7, rel=1e-12)
        d = x - ball.center
        direction = ball.center + d / np.max(np.abs(d))
        assert y.tobytes() == bregman_project(space, ball,
                                              direction).tobytes()

    def test_off_centre_ball_far_point_at_r3_raises_without_warning(self):
        # ||x - c|| overflowed in three RuntimeWarnings before the step cap
        # of the coordinate solve raised NonConvergence.
        space = lp_space(2, r=3.0)
        with pytest.raises(NonConvergence, match="overflows"):
            bregman_project(space, Ball([1.0, -2.0], 0.5),
                            np.array([1e200, 1e200]))

    def test_off_centre_ball_far_point_at_r2_p3_projects_without_warning(
            self):
        # ||x|| overflowed in a RuntimeWarning; the point was right.
        space = lp_space(2, r=2.0, p=3.0, Cp=0.5, Gq=1.4)
        ball = Ball([1.0, -2.0], 0.5)
        y = bregman_project(space, ball, np.array([1e200, 1e200]))
        np.testing.assert_allclose(
            y, ball.center + 0.5 * np.array([1.0, 1.0]) / np.sqrt(2.0),
            rtol=1e-15)

    def test_off_centre_ball_far_point_at_r15_raises_without_warning(self):
        space = lp_space(2, r=1.5)
        with pytest.raises(NonConvergence):
            bregman_project(space, Ball([1.0, -2.0], 0.5),
                            np.array([1e200, 1e200]))

    def test_nested_ball_searches_raise_no_overflow_warning(self):
        # The nested searches' doubling walk bounded e**(beta t) x but not
        # its r-th powers, which ||z - c|| sums: 27 of 200 such points
        # raised "overflow encountered in power" (here beta = -11).  Each
        # point now projects or raises NonConvergence, without a warning:
        # 169 project.  Each of the other 31 raises "root outside
        # floating-point range" from the outer search; none caps a
        # coordinate solve, whose Newton points that round onto c_i
        # (151 projected while they were rejected) move one float off it.
        space = lp_space(4, r=1.25, p=4.0, Cp=0.1, Gq=10.0)
        rng = np.random.default_rng(20)
        cases = [(Ball([-0.755, 1.689, -0.287, 1.574], 1.96),
                  np.array([0.0, -1.531e17, -1.793e17, 8.846e16]))]
        for _ in range(199):
            x = rng.standard_normal(4) * 10.0 ** rng.uniform(-30.0, 30.0)
            x[rng.integers(4)] = 0.0
            cases.append((Ball(rng.uniform(-2.0, 2.0, 4),
                               rng.uniform(0.5, 2.0)), x))
        projected = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ball, x in cases:
                try:
                    assert_exact_projection(space, ball, x, rng, n=10)
                    projected += 1
                except NonConvergence:
                    pass
        assert projected >= 169

    # (r, p, size) with |size|**r beyond the float range: ||x|| overflowed
    # in a RuntimeWarning ("overflow encountered in power").
    OVERFLOWING_NORM = pytest.mark.parametrize(
        "r, p, size", [(1.5, 2.0, 1e250), (3.0, 4.0, 1e110)],
        ids=["r1.5-p2", "r3-p4"])

    @OVERFLOWING_NORM
    def test_box_point_whose_norm_overflows_projects(self, r, p, size):
        # The box's corner, as for points a hundred orders smaller.
        space = lp_space(2, r=r, p=p, Cp=0.3, Gq=2.0)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        x = np.array([size, 0.5 * size])
        np.testing.assert_array_equal(bregman_project(space, box, x),
                                      [1.0, 1.0])
        np.testing.assert_array_equal(bregman_project(space, box, x / 1e30),
                                      [1.0, 1.0])

    @OVERFLOWING_NORM
    def test_subspace_point_whose_norm_overflows_projects(self, r, p, size):
        # The subspace projection is 1-homogeneous.
        space = lp_space(2, r=r, p=p, Cp=0.3, Gq=2.0)
        sub = CoordinateSubspace([0])
        x = np.array([size, 0.5 * size])
        y = bregman_project(space, sub, x)
        np.testing.assert_allclose(
            y, 1e100 * bregman_project(space, sub, x / 1e100), rtol=1e-14)
        assert y[1] == 0.0 and y[0] > size

    def test_coordinate_solve_whose_newton_point_rounds_onto_the_centre(
            self):
        # At lam = 1e40 the root of phi(y) + lam phi(y - c) = phi(z) lies
        # 1e-100 (r = 1.25) or 1e-20 (r = 1.5) from c, within rounding of
        # it.  The Newton point rounded onto c, which the bracket
        # (c, z) leaves out, so every step bisected and the solve raised
        # NonConvergence at its step cap.
        z, c = np.array([1e60, -1e60]), np.array([1.0, -2.0])
        for r in (1.25, 1.5):
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                y = projsd.sets._newton_solver(z, c, r)(1e40, z)
            np.testing.assert_array_equal(y, np.nextafter(c, z))

    # (x, v at (1.5, 2), v at (3, 4)): with CoordinateSubspace([0]) in
    # l^r(R^2) the projection is (v, 0).  P_r(x) = (x_0, 0) has a norm that
    # underflows (first two rows at r = 3 and the first at r = 1.5), a norm
    # ratio to x that underflows, or an x whose norm overflows.  Each
    # returned the unscaled (x_0, 0), and the second row at (1.5, 2) ended
    # in a ZeroDivisionError, the third in a RuntimeWarning.
    RANGE_ENDS = [((1e-300, 1e-10), 1e-155, 4.641588833612779e-204),
                  ((1e-200, 1e200), 1.0, 2.154434690031884e-67),
                  ((1e-170, 1e250), 1e40, 1e-30)]

    @pytest.mark.parametrize("weights", [None, [0.5, 2.0]],
                             ids=["unit", "weighted"])
    @pytest.mark.parametrize("r, p", [(1.5, 2.0), (3.0, 4.0)],
                             ids=["r1.5-p2", "r3-p4"])
    @pytest.mark.parametrize("row", range(3))
    def test_cone_at_the_ends_of_the_float_range(self, r, p, weights, row):
        space = lp_space(2, r=r, p=p, weights=weights, Cp=0.3, Gq=2.0)
        x, v15, v34 = self.RANGE_ENDS[row]
        # alpha = (||P_r(x)|| / ||x||) ** ((r - p) / (p - 1)) in 40 digits.
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            w = [D(1), D(1)] if weights is None else [D(u) for u in weights]
            rd, pd = D(r), D(p)
            terms = [wi * abs(D(xi)) ** rd for wi, xi in zip(w, x)]
            log_ratio = (terms[0].ln() - (terms[0] + terms[1]).ln()) / rd
            v = float(D(x[0]) * ((rd - pd) / (pd - 1) * log_ratio).exp())
        if weights is None:
            np.testing.assert_allclose(v, v15 if r == 1.5 else v34,
                                       rtol=1e-6)
        for cset in (CoordinateSubspace([0]), Box([0.0, 0.0], [np.inf, 0.0])):
            y = bregman_project(space, cset, np.array(x))
            assert y[1] == 0.0
            np.testing.assert_allclose(y[0], v, rtol=1e-12)

    def test_cone_whose_rescaling_alone_underflows(self):
        # r = 4, p = 1.25: alpha = (||x_S|| / ||x||) ** 11 = 1e-330
        # underflows to 0, while alpha x_S = (1e-290, 0) does not; the
        # subspace returned (0, 0).
        space = lp_space(2, r=4.0, p=1.25, Cp=0.1, Gq=10.0)
        for cset in (CoordinateSubspace([0]), Box([-np.inf, 0.0],
                                                  [np.inf, 0.0])):
            y = bregman_project(space, cset, np.array([1e40, 1e70]))
            np.testing.assert_allclose(y, [1e-290, 0.0], rtol=1e-13,
                                       atol=0.0)

    @pytest.mark.parametrize("weights", [None, [0.5, 2.0]],
                             ids=["unit", "weighted"])
    @pytest.mark.parametrize("r, p", [(1.5, 2.0), (3.0, 4.0)],
                             ids=["r1.5-p2", "r3-p4"])
    @pytest.mark.parametrize("x", [(1e-300, 1e-10), (1e-250, 1e-20)])
    def test_root_search_at_the_ends_of_the_float_range(self, r, p, weights,
                                                        x):
        # [0, 1e300] x [0, 0] is not a cone, so its rescaling is the root
        # search; on these points the clamp never reaches 1e300, so the
        # projection is the subspace's.  ||P_r(x)|| underflowed (r = 3) or
        # its ratio to ||x|| did (r = 1.5), which the search read as
        # P_r(x) = 0 and returned the unscaled (x_0, 0).
        space = lp_space(2, r=r, p=p, weights=weights, Cp=0.3, Gq=2.0)
        x = np.array(x)
        y = bregman_project(space, Box([0.0, 0.0], [1e300, 0.0]), x)
        np.testing.assert_allclose(
            y, bregman_project(space, CoordinateSubspace([0]), x),
            rtol=1e-12, atol=0.0)
        assert y[0] > 1e10 * x[0]

    @pytest.mark.parametrize("r, p", [(1.5, 2.0), (3.0, 4.0)],
                             ids=["r1.5-p2", "r3-p4"])
    @pytest.mark.parametrize("row", [1, 2])
    def test_root_search_walk_ignores_entries_pinned_at_a_bound(self, r, p,
                                                                row):
        # [0, 1e300] x [0, 0] is not a cone.  The root rescales x by 1e200
        # (1e210) and more, so e**(beta t) x_1 overflows, but the clamp pins
        # x_1 at its finite upper bound 0; only x_0, whose bound 1e300 the
        # rescaled x_0 never reaches, bounds the walk.  The walk's limit
        # read x_1 too, and the search raised NonConvergence ("root outside
        # floating-point range") where the cone [0, inf] x [0, 0] projects.
        space = lp_space(2, r=r, p=p, Cp=0.3, Gq=2.0)
        x, v15, v34 = self.RANGE_ENDS[row]
        x = np.array(x)
        y = bregman_project(space, Box([0.0, 0.0], [1e300, 0.0]), x)
        np.testing.assert_allclose(
            y, bregman_project(space, Box([0.0, 0.0], [np.inf, 0.0]), x),
            rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(y, [v15 if r == 1.5 else v34, 0.0],
                                   rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("r, p, weights", [
        (2.0, 2.0, None), (3.0, 3.0, None), (1.5, 2.0, None),
        (1.5, 2.0, [0.5, 2.0, 1.0]), (3.0, 4.0, None)])
    def test_full_support_subspace_projects_by_a_copy(self, r, p, weights):
        # A subspace that covers every coordinate is the whole space: it has
        # no finite bound, and its truncation is x, rescaled in closed form
        # by 1.0 where p != r.  Its projection is a fresh copy with the
        # bits of that truncation and rescaling, a -0.0 entry included,
        # also where ||x|| underflows or overflows.
        space = lp_space(3, r=r, p=p, weights=weights,
                         **({} if (r, p) in DEFAULT_CONSTANTS
                            else {"Cp": 0.3, "Gq": 2.0}))
        cset = CoordinateSubspace([2, 0, 1])
        rescaled = projsd.sets._coordinate_projector(
            space, *cset._bounds(space.dim))
        for x in ([-0.0, 1.5, -2.0], [0.0, -0.0, 0.0], [1e-200, -0.0, 3e-170],
                  [1e300, -1e300, -0.0], [5e-324, 1.0, -0.0]):
            x = np.array(x)
            y = bregman_project(space, cset, x)
            assert not np.shares_memory(y, x)
            assert y.tobytes() == rescaled(x).tobytes() == x.tobytes() \
                == subspace_projection(space, cset.support, x).tobytes()
        assert cset._projector(space) is np.ndarray.copy

    def test_coordinate_sets_nest_by_their_bounds(self):
        # Each box, subspace and whole space must lie inside the next one
        # of these kinds; other entries, a ball or no set, are skipped.
        box = Box([-1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        sets = [CoordinateSubspace([0]), None, box, Ball([0.0] * 3, 1.0),
                CoordinateSubspace([0, 1]), WholeSpace()]
        assert projsd.sets._unnested(sets, 3) == [(0, 2)]
        assert projsd.sets._unnested(sets[2:], 3) == []
        assert projsd.sets._unnested([WholeSpace(), box, Ball([0.0] * 3,
                                                              1.0)], 3) \
            == [(0, 1)]

    @pytest.mark.parametrize("r, p", [(2.0, 2.0), (1.5, 2.0), (3.0, 4.0)])
    def test_whole_space_projects_by_the_copy_of_its_bounds(self, r, p):
        # The whole space is a coordinate set whose scalar bounds -inf and
        # inf are not finite, so its projection is the same copy.
        space = lp_space(3, r=r, p=p,
                         **({} if (r, p) in DEFAULT_CONSTANTS
                            else {"Cp": 0.3, "Gq": 2.0}))
        assert WholeSpace()._bounds(space.dim) == (-math.inf, math.inf)
        assert WholeSpace()._projector(space) is np.ndarray.copy
        x = np.array([-0.0, 1e300, -5e-324])
        y = bregman_project(space, WholeSpace(), x)
        assert y.tobytes() == x.tobytes() and not np.shares_memory(y, x)

    @pytest.mark.parametrize("support", [[1, 3, 4], [0, 1, 2, 3, 4, 5]],
                             ids=["partial", "full"])
    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["unit", "weighted"])
    @pytest.mark.parametrize("r, p", sorted(DEFAULT_CONSTANTS) + [(1.25, 4.0)])
    def test_subspace_clamp_has_the_truncation_bits(self, r, p, weighted,
                                                    support):
        # A subspace projects by the clamp to its bounds, (-inf, inf) on the
        # support and +0.0 on both sides off it.  That is the truncation
        # x_S, rescaled where p != r, bit for bit: entries of 1e-300 to
        # 1e300 in one point or spread over the points, whose norms leave
        # the float range, a -0.0 on the support, and a support holding
        # only signed zeros.  Every entry off the support is nonzero, and
        # each projects to +0.0.
        d = 6
        rng = np.random.default_rng(38)
        weights = rng.uniform(0.25, 4.0, d) if weighted else None
        space = lp_space(d, r=r, p=p, weights=weights,
                         **({} if (r, p) in DEFAULT_CONSTANTS
                            else {"Cp": 0.3, "Gq": 2.0}))
        cset = CoordinateSubspace(support)
        off = np.setdiff1d(np.arange(d), support)
        for n in range(200):
            scale = 10.0 ** rng.uniform(-300.0, 300.0, 1 if n % 2 else d)
            x = rng.standard_normal(d) * scale
            x[rng.choice(support)] = -0.0
            if n % 10 == 0:
                x[support] = np.copysign(0.0,
                                         rng.standard_normal(len(support)))
            y = bregman_project(space, cset, x)
            assert y.tobytes() == subspace_projection(space, support,
                                                      x).tobytes(), x
            assert np.all(x[off] != 0.0) and not np.signbit(y[off]).any()
            assert not np.any(y[off])

    def test_root_search_past_a_rescaling_that_underflows(self):
        # r = 4, p = 2: P(x) = (0, x_1 (x_1 / x_0)**2) = (0, 1e-280).  The
        # walk's third trial rescales x by e**-700, where P_r(alpha x) = 0;
        # it read that as below the root and doubled to its step cap.
        space = lp_space(2, r=4.0, p=2.0, Cp=0.1, Gq=10.0)
        box = Box([-np.inf, -np.inf], [0.0, 1.0])
        y = bregman_project(space, box, np.array([1e62, 1e-52]))
        np.testing.assert_allclose(y, [0.0, 1e-280], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("r,p,weights", [
        g for g in EXACT_GEOMETRIES if g[0] != g[1]] + [(3.0, 4.0, None)])
    def test_cone_box_takes_the_closed_form(self, r, p, weights):
        # A box whose every bound is 0 or +-inf is a cone, as a subspace is,
        # and rescales in closed form: a member, idempotent, the three-point
        # law against members spread over the box and near P(x), and within
        # a rounding per unit of e = (r - p) / (p - 1) of the exact value.
        # Where |e| <= 1, as at (1.5, 2) and (3, 4), it is also within 1e-15
        # of the root search that it replaces; for a steeper e the search
        # rounds more, up to 7e-14 here at (3.5, 1.25).
        space = exact_space(r, p, weights)
        e = (r - p) / (p - 1.0)
        w = [D(1)] * 4 if weights is None else [D(u) for u in weights]
        rng = np.random.default_rng(17)
        inf = np.inf
        for box in (Box(np.zeros(4), np.full(4, inf)),
                    Box([0.0, -inf, 0.0, -inf], [inf, 0.0, 0.0, inf])):
            def clamp(z):
                return np.clip(z, box.lower, box.upper)

            for _ in range(20):
                x = rng.standard_normal(4) * 10.0 ** rng.uniform(-3.0, 3.0)
                y = bregman_project(space, box, x)
                assert np.array_equal(y, clamp(y))
                assert bregman_project(space, box, y).tobytes() == y.tobytes()
                with decimal.localcontext() as ctx:
                    ctx.prec = 40
                    ny, nx = (sum(wi * abs(D(vi)) ** D(r)
                                  for wi, vi in zip(w, v) if vi != 0.0)
                              for v in (clamp(x), x))
                    alpha = D(0) if ny == 0 else (
                        D(e) * (ny.ln() - nx.ln()) / D(r)).exp()
                    exact = [float(alpha * D(v)) for v in clamp(x)]
                np.testing.assert_allclose(y, exact, atol=0.0,
                                           rtol=1e-15 * max(1.0, abs(e)))
                if abs(e) <= 1.0:
                    np.testing.assert_allclose(
                        y, projsd.sets._gauge_p_projection(space, clamp, x),
                        rtol=1e-15, atol=0.0)
                scale = float(np.max(np.abs(x)))
                zs = np.vstack([
                    clamp(scale * rng.standard_normal((20, 4))),
                    clamp(y + 1e-3 * scale * rng.standard_normal((20, 4)))])
                for z in zs:
                    # Round-off relative to the terms of the distances.
                    slack = 1e-12 * max(float(norm(space, v)) ** p
                                        for v in (x, z))
                    lhs, rhs, _ = check_total_nonexpansiveness(space, box, x,
                                                               z)
                    assert lhs <= rhs + slack

    @pytest.mark.parametrize("r, p, x, y", [
        (1.5, 2.0, [1e120, 1e-100], [1.0, 1.0]),
        (3.0, 4.0, [1e100, 1e-100], [1.0, 1e-50])], ids=["r1.5-p2", "r3-p4"])
    def test_box_root_beyond_the_range_of_r_th_powers(self, r, p, x, y):
        # The root rescales x by about 1e120 (1e50): the r-th powers of the
        # rescaled point overflow, its entries do not, and the clamp takes
        # no norm of it, so the walk must reach the root.
        space = lp_space(2, r=r, p=p, Cp=0.3, Gq=2.0)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        np.testing.assert_allclose(bregman_project(space, box, np.array(x)),
                                   y, rtol=1e-12)

    @pytest.mark.parametrize("r, lower, upper, x, y", [
        (1.5, [-np.inf, 1e300], [np.inf, 1e301], [1.0, 1.0],
         [2.0 ** (2.0 / 3.0) * 1e-300, 1e300]),
        (1.25, [-np.inf, -0.01], [np.inf, 0.01], [10.0, -1e238],
         [10.0 ** 0.25 * 1e238 ** 0.75, -0.01])], ids=["start", "walk"])
    def test_box_trial_whose_r_th_powers_overflow_raises_no_warning(
            self, r, lower, upper, x, y):
        # p = 2.  ||x|| is finite, but the r-th powers of a point of the
        # search overflow: P_r(x), pinned at the bound 1e300, or a trial of
        # the walk, which rescales the free x_0 to 1e300 and more.  Its
        # norm raised numpy's overflow RuntimeWarning, an error under
        # warnings-as-errors; the search takes that norm scaled.  At the
        # root, alpha = ||x|| / ||y|| ("start") and alpha = (||x|| /
        # ||y||)**3 ("walk"), with ||y|| = y_1 (y_0) to rounding.
        space = lp_space(2, r=r, p=2.0, Cp=0.3, Gq=2.0)
        np.testing.assert_allclose(
            bregman_project(space, Box(lower, upper), np.array(x)), y,
            rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("shape", [(2, 4), (1, 4), (4, 1), ()],
                             ids=["2x4", "1x4", "4x1", "scalar"])
    @pytest.mark.parametrize("kind", ["wholespace", "box", "ball",
                                      "subspace"])
    def test_only_one_vector_projects(self, kind, shape):
        # A batch of shape (2, 4) at r = 1.5 ended in numpy's TypeError
        # for Box, Ball and CoordinateSubspace; WholeSpace, and Box with
        # p = r, returned a batch.
        sets = dict(zip(["wholespace", "ball", "box", "subspace"],
                        [WholeSpace()] + exact_sets()))
        for r in (1.5, 3.0):
            with pytest.raises(DimensionMismatch,
                               match=r"one vector of shape \(4,\)"):
                bregman_project(lp_space(4, r=r), sets[kind],
                                np.full(shape, 0.7))

    @pytest.mark.parametrize("r,p", GEOMETRIES)
    def test_subspace_output_is_float64_with_positive_zeros(self, r, p):
        # np.zeros(x.shape) gives the bits of np.zeros_like(x): +0.0 off
        # the support, whatever the sign of the entry there.
        space = lp_space(4, r=r, p=p)
        x = np.array([-0.0, -1.5, -2.0, 3.0])
        for given in (x, [0, -3, -2, 3]):
            y = bregman_project(space, CoordinateSubspace([1, 3]), given)
            assert y.dtype == np.float64
            assert y[[0, 2]].tobytes() == np.zeros(2).tobytes()
        y = bregman_project(space, CoordinateSubspace([1, 3]), x)
        expected = np.zeros_like(x)
        expected[[1, 3]] = x[[1, 3]]
        if p != r:
            ratio = float(norm(space, expected)) / float(norm(space, x))
            expected = ratio ** ((r - p) / (p - 1.0)) * expected
        assert y.tobytes() == expected.tobytes()


SOLVER_EXPONENTS = (1.1, 1.25, 1.5, 2.5, 3.0, 4.0, 6.0)


def coordinate_systems(rng, count):
    """``(r, z, c, lam, y, cap)``: seeded coordinate systems of 1 to 8
    entries with a step cap, for the coordinate solve of a ball.

    Centres have exact zero entries; one case in twenty has subnormal
    entries of z and one in twenty entries near 1e300, whose powers
    overflow.  lam is 0, e**700 - 1, near it, 1e40 or anything between
    1e-8 and 1e8, and the warm start is z, c, a point inside the bracket
    between them or one outside it.  One case in five has a cap of 1 to
    5 passes, so the solve raises at it where it needs more."""
    for i in range(count):
        r = SOLVER_EXPONENTS[i % len(SOLVER_EXPONENTS)]
        n = int(rng.integers(1, 9))
        c = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        c[rng.random(n) < 0.3] = 0.0
        z = rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
        some = rng.random(n) < 0.4
        if i % 20 == 1:
            z[some] = np.copysign(10.0 ** rng.uniform(-323.5, -308.0, n),
                                  z)[some]
        elif i % 20 == 2:
            z[some] = (rng.uniform(0.1, 1.7, n) * np.copysign(1e300, z))[some]
        z[rng.random(n) < 0.05] = 0.0
        lam = [0.0, math.expm1(700.0), math.expm1(rng.uniform(690.0, 700.0)),
               1e40, 10.0 ** rng.uniform(-8.0, 8.0)][int(rng.integers(5))]
        lo, hi = np.minimum(z, c), np.maximum(z, c)
        y = [z.copy(), c.copy(), lo + rng.random(n) * (hi - lo),
             np.where(rng.random(n) < 0.5, lo - 1.0 - rng.random(n) * (hi - lo),
                      hi + 1.0 + rng.random(n) * (hi - lo))][i % 4]
        cap = int(rng.integers(1, 6)) if i % 5 == 4 else 200
        yield r, z, c, lam, y, cap


class TestCoordinateSolver:
    @staticmethod
    def outcome(solve):
        """The bytes of the solved point, or the NonConvergence message."""
        try:
            return solve().tobytes()
        except NonConvergence as exc:
            return str(exc)

    def test_matches_the_reference_solve_bit_for_bit(self, monkeypatch):
        # Each system gives the reference's bytes or its raise.
        rng = np.random.default_rng(36)
        returned, capped, raised = 0, 0, 0
        with np.errstate(all="ignore"):
            for r, z, c, lam, y, cap in coordinate_systems(rng, 2100):
                monkeypatch.setattr(projsd.sets, "_MAX_STEPS", cap)
                got = self.outcome(
                    lambda: projsd.sets._newton_solver(z, c, r)(lam, y))
                assert got == self.outcome(
                    lambda: solve_coordinates(z, c, lam, r, y, cap)), \
                    (r, z, c, lam, y, cap)
                if isinstance(got, bytes):
                    returned += 1
                elif cap < 200:
                    capped += 1
                else:
                    raised += 1
        assert returned >= 1500 and capped >= 200 and raised >= 40

    def test_one_solver_serves_many_multipliers(self):
        # A solver resolved once for (z, c, r) solves at every lam and warm
        # start as one resolved for that call alone does, and returns a new
        # array each time.
        rng = np.random.default_rng(37)
        z = 10.0 * rng.standard_normal(24)
        c = rng.standard_normal(24)
        c[::5] = 0.0
        with np.errstate(all="ignore"):
            for r in SOLVER_EXPONENTS:
                solve = projsd.sets._newton_solver(z, c, r)
                y = z
                for lam in 10.0 ** np.arange(-4.0, 5.0):
                    got = solve(lam, y)
                    assert got is not y and not np.shares_memory(got, z)
                    assert got.tobytes() == solve_coordinates(
                        z, c, lam, r, y).tobytes()
                    y = got

    @staticmethod
    def assert_brackets_the_root(y, z, c, lam, r, k=4.0):
        """y is finite, inside the bracket between c and z, and within
        ``k eps (|y_i| + |y_i - c_i|)`` of each exact root, floored at the
        smallest normal number, as the Newton solve's tolerance is."""
        assert np.isfinite(y).all()
        assert np.all((np.minimum(z, c) <= y) & (y <= np.maximum(z, c)))
        tol = np.maximum(k * EPS * (np.abs(y) + np.abs(y - c)), TINY)
        for i in range(z.size):
            assert brackets_root(z[i], c[i], lam, r, y[i] - tol[i],
                                 y[i] + tol[i]), (r, z[i], c[i], lam, y[i])

    def test_closed_form_brackets_the_root(self):
        # At r = 1.5 and r = 3 the solve is in closed form, on the same
        # systems: each y_i lies within 4 eps (|y_i| + |y_i - c_i|) of the
        # exact root (measured: 3 eps at r = 1.5, 1 eps at r = 3), also at
        # subnormal, ~1e300 and zero centre entries, at lam = 0, 1e40 and
        # e**700 - 1, and where the Newton solve raises at its cap.
        # Where that solve returns at lam <= 1e40, y_i is within
        # 9 eps (|y_i| + |y_i - c_i|) of its point (8.5 at lam = 0, where
        # the closed form returns z exactly, and at most 4.5 elsewhere).
        # Near lam = e**700 its points can lie farther from the root (see
        # test_newton_solve_at_a_huge_multiplier_returns_roots).
        rng = np.random.default_rng(36)
        compared, raised = 0, 0
        entries = {"subnormal": 0, "huge": 0, "zero centre": 0}
        with np.errstate(all="ignore"):
            for r, z, c, lam, y, cap in coordinate_systems(rng, 2100):
                if r not in (1.5, 3.0):
                    continue
                got = projsd.sets._coordinate_solver(z, c, r)(lam, y)
                self.assert_brackets_the_root(got, z, c, lam, r)
                if lam == 0.0:
                    assert got.tobytes() == z.tobytes()
                entries["subnormal"] += np.count_nonzero(
                    (z != 0.0) & (np.abs(z) < TINY))
                entries["huge"] += np.count_nonzero(np.abs(z) > 1e299)
                entries["zero centre"] += np.count_nonzero(c == 0.0)
                try:
                    ref = solve_coordinates(z, c, lam, r, y, cap)
                except NonConvergence:
                    raised += 1
                    continue
                if lam <= 1e40:
                    tol = np.maximum(EPS * (np.abs(ref) + np.abs(ref - c)),
                                     TINY)
                    assert np.all(np.abs(got - ref) <= 9.0 * tol), \
                        (r, z, c, lam)
                    compared += 1
        assert compared >= 280 and raised >= 80
        assert min(entries.values()) >= 50, entries

    # At r > 2 the Newton point phi^-1(u) = |u| ** (1 / (r - 1)) takes an
    # exponent that 1 / (r - 1) rounds, which moves it by about |ln u| eps:
    # at a zero centre entry and lam near e**700, u ~ 1e-307 and the
    # returned point is ~60 ulps off the root (ROADMAP, item 5).
    INEXACT_INVERSE = pytest.mark.xfail(
        strict=True, reason="phi^-1 with a rounded exponent near 1e-307")

    @pytest.mark.parametrize("r", [
        1.1, 1.25, pytest.param(2.5, marks=INEXACT_INVERSE),
        pytest.param(4.0, marks=INEXACT_INVERSE),
        pytest.param(6.0, marks=INEXACT_INVERSE)])
    def test_newton_solve_at_a_huge_multiplier_returns_roots(self, r):
        # Near lam = e**700 the scale of the residual test overflowed to
        # inf, and inf <= inf passed the test, so the solve returned points
        # that are no root: of these systems 3 at r = 1.1 and 7 at
        # r = 1.25 (and 100, 110 and 126 at r = 2.5, 4 and 6).  Each
        # returned point now lies within 16 eps (|y_i| + |y_i - c_i|) of
        # the root, decided in decimal arithmetic, or the solve raises
        # NonConvergence: measured 3 raise at r = 1.1 and 7 at r = 1.25,
        # the systems whose points were wrong.
        rng = np.random.default_rng(36)
        returned = raised = 0
        with np.errstate(all="ignore"):
            for r_i, z, c, lam, y, cap in coordinate_systems(rng, 2100):
                if r_i != r or lam < math.expm1(690.0):
                    continue
                try:
                    got = projsd.sets._newton_solver(z, c, r)(lam, y)
                except NonConvergence:
                    raised += 1
                    continue
                self.assert_brackets_the_root(got, z, c, lam, r, k=16.0)
                returned += 1
        assert returned >= 100 and raised <= 10, (returned, raised)

    @pytest.mark.parametrize("r", [1.5, 3.0])
    def test_zero_centre_entry_at_a_huge_multiplier(self, r):
        # A joint-search trial at a multiplier near e**700 on a ball whose
        # centre has a zero entry: the Newton solve bisected that entry
        # toward a root below the subnormals until its step cap raised
        # NonConvergence, on 13 of these 300 systems at r = 3 and 2 at
        # r = 1.5.  The closed form solves each.
        rng = np.random.default_rng(43)
        for _ in range(300):
            c = rng.standard_normal(6) * 10.0 ** rng.uniform(-1.0, 3.0)
            c[rng.integers(6)] = 0.0
            z = rng.standard_normal(6) * 10.0 ** rng.uniform(-12.0, 5.0)
            lam = math.expm1(rng.uniform(600.0, 700.0))
            with np.errstate(all="ignore"):
                y = projsd.sets._coordinate_solver(z, c, r)(lam, z)
            self.assert_brackets_the_root(y, z, c, lam, r)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(projsd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, projsd; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
