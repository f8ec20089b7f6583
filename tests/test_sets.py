"""Tests of convex sets and the Bregman projection."""

import os
import subprocess
import sys

import numpy as np
import pytest

import projsd.sets
from projsd import (DEFAULT_CONSTANTS, Ball, Box, CoordinateSubspace,
                    DimensionMismatch, NonConvergence, NonFiniteInput,
                    WholeSpace, bregman_distance, bregman_project,
                    check_total_nonexpansiveness, lp_space, norm)

GEOMETRIES = [(2.0, 2.0), (3.0, 3.0), (1.5, 2.0)]


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
        vals = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf])
        z, lo, hi = (a.ravel() for a in np.meshgrid(vals, vals, vals))
        keep = (lo <= hi) & (lo < np.inf) & (hi > -np.inf)
        z, lo, hi = z[keep], lo[keep], hi[keep]
        got = Box(lo, hi)._project(lp_space(z.size), z)
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
                cset.contains(space, x)
            with pytest.raises(DimensionMismatch, match=match):
                bregman_project(space, cset, x)

    def test_membership(self):
        space = lp_space(2)
        assert Box([0.0, 0.0], [1.0, 1.0]).contains(space, [0.5, 0.5])
        assert not Box([0.0, 0.0], [1.0, 1.0]).contains(space, [2.0, 0.5])
        assert Ball([0.0, 0.0], 1.0).contains(space, [0.6, 0.8])
        assert not Ball([0.0, 0.0], 1.0).contains(space, [1.0, 1.0])
        assert CoordinateSubspace([0]).contains(space, [3.0, 0.0])
        assert not CoordinateSubspace([0]).contains(space, [3.0, 0.1])


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
                assert cset.contains(space, y, tol=1e-8), \
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


def assert_exact_projection(space, cset, x, rng):
    """Membership, brute-force minimality, the three-point law at 1e-12
    relative, and idempotence."""
    y = bregman_project(space, cset, x)
    assert cset.contains(space, y, tol=1e-12)
    zs = members_near(cset, space, rng, y, 200)
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
                if not cset.contains(space, x, tol=0.0):
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
            if not ball.contains(space, x, tol=0.0):
                assert_exact_projection(space, ball, x, rng)
        for geometry, cset, x in EXACT_HARD_CASES:
            if geometry == (r, p, weights):
                assert_exact_projection(space, cset, np.array(x), rng)

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
        solve = projsd.sets._solve_coordinates
        calls = []

        def counting(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(projsd.sets, "_solve_coordinates", counting)
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
        space = lp_space(4, r=1.5, p=2.0)
        for pos in (0, 1, 3):
            x = np.array([0.5, 0.3, 0.1, 2.0])
            x[pos] = bad
            for cset in [WholeSpace()] + exact_sets():
                with pytest.raises(NonFiniteInput):
                    bregman_project(space, cset, x)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(projsd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, projsd; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
