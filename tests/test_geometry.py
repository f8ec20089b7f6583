"""Tests of norms, duality mappings, and Bregman distances."""

import math
import tracemalloc

import numpy as np
import pytest
from oracles import general_bregman, general_norm, weights_of

import projsd.geometry as geometry_module
from projsd import (DEFAULT_CONSTANTS, DimensionMismatch, SpaceGeometry,
                    bregman_distance, certify_constants, duality_map,
                    inverse_duality_map, lp_space, norm)

GEOMETRIES = [(2.0, 2.0), (1.5, 2.0), (3.0, 3.0), (4.0, 4.0)]


def spaces(dim=5):
    return [lp_space(dim, r=r, p=p) for r, p in GEOMETRIES]


class TestConstruction:
    def test_euclidean_norm(self):
        space = lp_space(2)
        assert norm(space, [3.0, 4.0]) == pytest.approx(5.0)

    def test_weighted_norm(self):
        space = SpaceGeometry(dim=2, r=2.0, p=2.0, weights=[4.0, 9.0],
                              Cp=1.0, Gq=1.0)
        # sqrt(4*1 + 9*1) = sqrt(13)
        assert norm(space, [1.0, 1.0]) == pytest.approx(np.sqrt(13.0))

    def test_hilbert_config_forces_unit_constants(self):
        with pytest.raises(ValueError):
            SpaceGeometry(dim=3, r=2.0, p=2.0, Cp=0.5)
        with pytest.raises(ValueError):
            SpaceGeometry(dim=3, r=2.0, p=2.0, Gq=2.0)

    def test_default_gauge_is_max_r_2(self):
        assert lp_space(3, r=1.5).p == 2.0
        assert lp_space(3, r=3.0).p == 3.0

    def test_unknown_configuration_needs_explicit_constants(self):
        with pytest.raises(ValueError):
            lp_space(3, r=2.5)
        space = lp_space(3, r=2.5, Cp=0.1, Gq=5.0)
        assert space.Cp == 0.1

    @pytest.mark.parametrize("r,p", GEOMETRIES)
    def test_one_constructor_with_certified_defaults(self, r, p):
        # SpaceGeometry(4, r=1.5) used to state p = 2 and Cp = Gq = 1,
        # which certify_constants refutes.
        assert lp_space is SpaceGeometry
        space = SpaceGeometry(6, r)
        assert (space.p, space.Cp, space.Gq) == (p, *DEFAULT_CONSTANTS[(r, p)])
        assert all(type(v) is float
                   for v in (space.r, space.p, space.Cp, space.Gq))
        cp_bound, gq_bound = certify_constants(space, n_samples=20_000,
                                               seed=0)
        assert space.Cp <= cp_bound + 1e-6
        assert space.Gq >= gq_bound - 1e-6

    # The last three are weighted: weights do not make an (r, p) certified.
    @pytest.mark.parametrize("kwargs", [
        {"r": 2.5}, {"r": 3.0, "p": 2.0}, {"r": 2.0, "p": 3.0},
        {"r": 2.5, "weights": [1.0, 2.0, 3.0]},
        {"r": 2.5, "weights": [1.0, 2.0, 3.0], "Cp": 1.0},
        {"r": 3.0, "p": 2.0, "weights": [0.5, 1.0, 1.0], "Gq": 2.2}])
    def test_uncertified_space_needs_both_constants(self, kwargs):
        with pytest.raises(ValueError, match="pass Cp and Gq explicitly"):
            SpaceGeometry(3, **kwargs)
        space = SpaceGeometry(3, **dict(kwargs, Cp=0.1, Gq=5.0))
        assert (space.Cp, space.Gq) == (0.1, 5.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SpaceGeometry(dim=0)
        with pytest.raises(ValueError):
            SpaceGeometry(dim=2, r=1.0)
        with pytest.raises(ValueError):
            SpaceGeometry(dim=2, p=1.0)
        for bad in (-1.0, np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError):
                SpaceGeometry(dim=2, weights=[1.0, bad])
        with pytest.raises(DimensionMismatch):
            SpaceGeometry(dim=2, weights=[1.0, 1.0, 1.0])

    @pytest.mark.parametrize("kwargs, match", [
        ({"dim": 2.5}, "dim"),
        ({"dim": 3.0}, "dim"),
        ({"dim": True}, "dim"),
        ({"dim": np.int64(0)}, "dim"),
        ({"dim": 2, "r": np.inf}, "^r = "),
        ({"dim": 2, "r": np.nan}, "^r = "),
        ({"dim": 2, "p": np.inf}, "^p = "),
        ({"dim": 2, "p": np.nan}, "^p = "),
        ({"dim": 2, "r": 1.5, "Cp": np.inf}, "^Cp = "),
        ({"dim": 2, "r": 1.5, "Cp": np.nan}, "^Cp = "),
        ({"dim": 2, "r": 1.5, "Gq": np.inf}, "^Gq = "),
        ({"dim": 2, "r": 1.5, "Gq": np.nan}, "^Gq = "),
    ])
    def test_non_finite_or_non_integer_parameters(self, kwargs, match):
        # Each was accepted: Cp = inf at r = 1.5 made c-tilde 0, as if F
        # were linear, p = inf gave q = nan, and a dim of 2.5 ended in
        # numpy's TypeError.
        with pytest.raises(ValueError, match=match):
            SpaceGeometry(**kwargs)

    def test_numpy_integer_dim(self):
        assert SpaceGeometry(dim=np.int64(3)).dim == 3

    def test_weights_are_immutable(self):
        space = lp_space(3, weights=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            space.weights[0] = 2.0

    def test_unit_weights_are_none(self):
        # Unit weights, left out or given as ones, are stored as None, so an
        # unweighted space holds no array of size dim.
        assert lp_space(3).weights is None
        assert lp_space(3, r=1.5, weights=np.ones(3)).weights is None
        assert lp_space(3).dual().weights is None
        assert lp_space(3, weights=[1.0, 1.0, 2.0]).weights is not None

    @pytest.mark.parametrize("r,p", GEOMETRIES)
    def test_weighted_space_gets_the_certified_defaults(self, r, p):
        # Cp and Gq do not depend on the weights: x -> w**(1/r) x is a
        # linear isometry onto unweighted l^r that carries the Bregman
        # distance along.  Weights log-uniform in [0.01, 100].
        rng = np.random.default_rng(23)
        for dim in (2, 4, 7):
            weights = 10.0 ** rng.uniform(-2.0, 2.0, dim)
            space = SpaceGeometry(dim, r, weights=weights)
            assert (space.p, space.Cp, space.Gq) == \
                (p, *DEFAULT_CONSTANTS[(r, p)])
            cp_bound, gq_bound = certify_constants(space, n_samples=20_000,
                                                   seed=dim)
            assert space.Cp <= cp_bound + 1e-6
            assert space.Gq >= gq_bound - 1e-6
        # A stated constant wins, and the other one is still derived.
        cp, gq = DEFAULT_CONSTANTS[(r, p)]
        w = [0.5, 2.0, 30.0]
        space = SpaceGeometry(3, r, weights=w, Cp=0.5 * cp)
        assert (space.Cp, space.Gq) == (0.5 * cp, gq)
        space = SpaceGeometry(3, r, weights=w, Gq=2.0 * gq)
        assert (space.Cp, space.Gq) == (cp, 2.0 * gq)
        with pytest.raises(ValueError, match="pass Cp and Gq explicitly"):
            SpaceGeometry(3, r, p=p + 0.5, weights=w)

    @pytest.mark.parametrize("dim", [10 ** 12, 10 ** 400],
                             ids=["1e12", "1e400"])
    def test_huge_dim_allocates_nothing(self, dim):
        # An unweighted space of dim 10**12 allocated np.ones(dim), and
        # numpy refused 10**400.
        tracemalloc.start()
        try:
            space = SpaceGeometry(dim, r=1.5)
            dual = space.dual()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space.dim == dual.dim == dim
        assert space.weights is None and dual.weights is None
        assert peak < 2 ** 20

    def test_dim_check(self):
        space = lp_space(3)
        with pytest.raises(DimensionMismatch):
            norm(space, [1.0, 2.0])


class TestDualSpace:
    def test_dual_exponents(self):
        space = lp_space(4, r=3.0)
        dual = space.dual()
        assert dual.r == pytest.approx(1.5)
        assert dual.p == pytest.approx(1.5)
        assert dual.Cp == space.Gq and dual.Gq == space.Cp

    def test_dual_involution(self):
        space = SpaceGeometry(dim=3, r=3.0, p=3.0, weights=[1.0, 2.0, 3.0],
                              Cp=0.5, Gq=1.4)
        back = space.dual().dual()
        assert back.r == pytest.approx(space.r)
        assert back.p == pytest.approx(space.p)
        np.testing.assert_allclose(back.weights, space.weights)

    def test_conjugate_exponent(self):
        assert lp_space(2, r=3.0).q == pytest.approx(1.5)
        assert lp_space(2).q == pytest.approx(2.0)


class TestDualityMap:
    def test_hilbert_identity(self):
        space = lp_space(4)
        x = np.array([1.0, -2.0, 3.0, 0.0])
        np.testing.assert_allclose(duality_map(space, x), x)
        np.testing.assert_allclose(inverse_duality_map(space, x), x)

    def test_zero_maps_to_zero(self):
        for space in spaces():
            np.testing.assert_array_equal(
                duality_map(space, np.zeros(space.dim)),
                np.zeros(space.dim))

    def test_defining_properties(self):
        # <x, J(x)> = ||x|| ||J(x)|| and ||J(x)|| = ||x||**(p-1).
        rng = np.random.default_rng(1)
        for space in spaces():
            x = rng.standard_normal(space.dim)
            jx = duality_map(space, x)
            nx = float(norm(space, x))
            njx = float(norm(space.dual(), jx))
            assert njx == pytest.approx(nx ** (space.p - 1.0), rel=1e-12)
            assert float(np.dot(x, jx)) == pytest.approx(nx * njx, rel=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for space in spaces():
            x = rng.standard_normal((200, space.dim))
            back = inverse_duality_map(space, duality_map(space, x))
            np.testing.assert_allclose(back, x, atol=1e-10)

    def test_round_trip_weighted(self):
        space = SpaceGeometry(dim=4, r=3.0, p=3.0,
                              weights=[0.5, 1.0, 2.0, 4.0], Cp=0.5, Gq=1.4)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((100, 4))
        back = inverse_duality_map(space, duality_map(space, x))
        np.testing.assert_allclose(back, x, atol=1e-10)


def general_duality_map(space, x):
    """``||x||**(p-r) w |x|**(r-1) sign(x)`` as written, with every x of
    norm 0 mapped to 0."""
    nrm = general_norm(space, x)
    scale = np.where(nrm > 0.0, nrm, 1.0) ** (space.p - space.r)
    scale = np.where(nrm > 0.0, scale, 0.0)
    return scale[..., np.newaxis] * (
        weights_of(space) * np.abs(x) ** (space.r - 1.0) * np.sign(x))


# Each kernel shortcut, and the general path as a control.
KERNEL_SPACES = {
    "hilbert": lp_space(4),
    "weighted-l2": lp_space(4, weights=[0.5, 2.0, 1.0, 3.0], Cp=1.0,
                            Gq=1.0),
    "r3": lp_space(4, r=3.0),
    "weighted-r3": lp_space(4, r=3.0, weights=[0.5, 2.0, 1.0, 3.0],
                            Cp=0.1, Gq=10.0),
    "r1.5-p2": lp_space(4, r=1.5),
    "weighted-r1.5-p2": lp_space(4, r=1.5, weights=[0.5, 2.0, 1.0, 3.0]),
    "r4": lp_space(4, r=4.0),
    # The duals of the shipped spaces: p - r = -1 on l^3 with p = 2, and
    # r - 1 = 0.5 on l^1.5 with p = r.
    "r3-p2": lp_space(4, r=1.5).dual(),
    "r1.5": lp_space(4, r=3.0).dual(),
    "r1.33": lp_space(4, r=4.0).dual(),
    # The data space of every model: r = 2, unit weights and the gauge
    # of X, so p - r = 1 for X = l^3 and 2 for X = l^4.
    "l2-p1.5": lp_space(4, r=2.0, p=1.5, Cp=0.1, Gq=10.0),
    "l2-p3": lp_space(4, r=2.0, p=3.0, Cp=0.1, Gq=10.0),
    "l2-p4": lp_space(4, r=2.0, p=4.0, Cp=0.1, Gq=10.0),
}

# Signed zeros, subnormals next to normal entries, entries whose powers
# are near or past overflow, an all-zero row of each sign, and random
# draws of scale 1e-8 to 1e8.
_RNG = np.random.default_rng(17)
KERNEL_INPUTS = np.concatenate([[
    [-0.0, 0.0, 1.5, -2.0],
    [5e-324, -2.2e-310, 1.0, -3.0],
    [1e-160, -0.0, 7e-200, 0.25],
    [1.3e102, -9.9e101, 0.5, -0.0],
    [1.3e154, -1.1e154, 3.0, 1e-300],
    [1e300, -1e300, -0.0, 2.5e-320],
    [1.7e308, -1.0, 0.0, 2.0],
    [0.0, 0.0, 0.0, 0.0],
    [-0.0, -0.0, -0.0, -0.0],
], _RNG.standard_normal((20, 4)) * 10.0 ** _RNG.uniform(-8, 8, (20, 1))])


class TestSpecialisedKernels:
    """The shortcuts of the duality map (r = 2, r = 3, r = p and the exact
    powers) and the r = 2 norm give the bits of the general formulas.
    The reference iteration of the solver tests runs through the same
    code, so only these tests compare against the formulas themselves."""

    @pytest.mark.parametrize("name", sorted(KERNEL_SPACES))
    def test_norm_matches_general_formula(self, name):
        space = KERNEL_SPACES[name]
        # A row is compared with the formula on that row: numpy's power of
        # a 0-d result may round differently from its array power.
        with np.errstate(over="ignore", under="ignore"):
            expected = general_norm(space, KERNEL_INPUTS)
            assert norm(space, KERNEL_INPUTS).tobytes() == expected.tobytes()
            for x in KERNEL_INPUTS:
                one = norm(space, x)
                assert type(one) is float
                assert np.float64(one).tobytes() == \
                    general_norm(space, x).tobytes()

    @pytest.mark.parametrize("name", sorted(KERNEL_SPACES))
    def test_duality_map_matches_general_formula(self, name):
        space = KERNEL_SPACES[name]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            assert duality_map(space, KERNEL_INPUTS).tobytes() == \
                general_duality_map(space, KERNEL_INPUTS).tobytes()
            for x in KERNEL_INPUTS:
                assert duality_map(space, x).tobytes() == \
                    general_duality_map(space, x).tobytes()

    def test_hilbert_map_is_a_fresh_array_without_negative_zeros(self):
        space = KERNEL_SPACES["hilbert"]
        x = np.array([-0.0, 1.0, -2.0, 0.0])
        jx = duality_map(space, x)
        assert jx is not x and not np.shares_memory(jx, x)
        assert not np.signbit(jx[0])

    @pytest.mark.parametrize("name,scale", [
        ("hilbert", 1e-170), ("weighted-l2", 1e-170), ("r3", 1e-120)])
    def test_underflowing_norm_maps_to_the_image(self, name, scale):
        # With r = p the map needs no norm, so a nonzero x whose norm
        # underflows to 0 keeps its image w |x|**(r-1) sign(x), where the
        # general formula gives 0.
        space = KERNEL_SPACES[name]
        x = scale * np.array([1.0, -0.3, 0.0, 2.0])
        assert norm(space, x) == 0.0
        np.testing.assert_array_equal(
            duality_map(space, x),
            weights_of(space) * np.abs(x) ** (space.r - 1.0) * np.sign(x))

    @pytest.mark.parametrize("name,norms", [
        ("hilbert", 0), ("weighted-l2", 0), ("r3", 0), ("weighted-r3", 0),
        ("r1.5-p2", 1)])
    def test_inverse_map_computes_a_norm_only_when_p_differs_from_r(
            self, monkeypatch, name, norms):
        calls = []
        real_norm = geometry_module._norm

        def counting_norm(sp, x):
            calls.append(1)
            return real_norm(sp, x)

        monkeypatch.setattr(geometry_module, "_norm", counting_norm)
        inverse_duality_map(KERNEL_SPACES[name], KERNEL_INPUTS[0])
        assert len(calls) == norms

    def test_hilbert_flag(self):
        # The kernel takes its Hilbert shortcuts from r, p and unit weights,
        # which a space stores as None.
        for space in (KERNEL_SPACES["hilbert"],
                      KERNEL_SPACES["hilbert"].dual()):
            assert (space.r, space.p, space.weights) == (2.0, 2.0, None)
        weighted = KERNEL_SPACES["weighted-l2"]
        for space in (weighted, weighted.dual()):
            assert (space.r, space.p) == (2.0, 2.0)
            assert space.weights is not None
        for space in (KERNEL_SPACES["r3"], KERNEL_SPACES["r3"].dual()):
            assert space.r != 2.0 and space.p != 2.0
            assert space.weights is None


class TestDualUpdate:
    """``geometry._dual_update`` against the formula it resolves,
    ``inverse_duality_map(space, duality_map(space, x) - mu * T)``, byte
    for byte: the fused update at unit-weight r = p = 3 without a held
    J_p(x), the Hilbert update, which skips J*_q, and the general one,
    each with and without the J_p(x) of the caller."""

    PAIRS = sorted(DEFAULT_CONSTANTS) + [(1.25, 4.0)]

    @staticmethod
    def vectors(rng, d):
        """x and T with +-0.0 at the same entries, subnormal entries,
        entries near 1e154, where J_p overflows at r = 3 (and beyond 1e103
        at r = 4), and moderate ones."""
        x, T = (rng.standard_normal(d) * 10.0 ** rng.uniform(-3.0, 3.0, d)
                for _ in range(2))
        kind = rng.integers(4, size=d)
        signs = rng.choice([-1.0, 1.0], size=(2, d))
        x[kind == 0], T[kind == 0] = (signs[:, kind == 0] * 0.0)
        tiny = 10.0 ** rng.uniform(-323.5, -308.0, (2, d))
        x[kind == 1] = (signs[0] * tiny[0])[kind == 1]
        T[kind == 1] = (signs[1] * tiny[1])[kind == 1]
        x[kind == 2] = (signs[0] * rng.uniform(0.5, 2.0, d)
                        * 1e154)[kind == 2]
        return x, T

    @pytest.mark.parametrize("held", [False, True], ids=["x", "held"])
    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["unit", "weighted"])
    @pytest.mark.parametrize("r,p", PAIRS)
    @pytest.mark.parametrize("d", [1, 9, 129])
    def test_matches_the_formula_bit_for_bit(self, d, r, p, weighted, held):
        rng = np.random.default_rng(int(10 * r + p + d))
        constants = {} if (r, p) in DEFAULT_CONSTANTS \
            else {"Cp": 0.3, "Gq": 2.0}
        space = lp_space(d, r=r, p=p, **constants,
                         weights=rng.uniform(0.25, 4.0, d) if weighted
                         else None)
        update = geometry_module._dual_update(space, held)
        zeros = 0
        with np.errstate(all="ignore"):
            for _ in range(12):
                x, T = self.vectors(rng, d)
                zeros += np.count_nonzero(x == 0.0)
                x_bytes, T_bytes = x.tobytes(), T.tobytes()
                # mu T overflows at mu = 1e300 on the entries beyond 1e8.
                for mu in (0.0, 0.37, 1e300):
                    expected = inverse_duality_map(
                        space, duality_map(space, x) - mu * T)
                    v = duality_map(space, x) if held else x
                    got = update(v, mu, T)
                    assert got.tobytes() == expected.tobytes(), (x, T, mu)
                    assert (x.tobytes(), T.tobytes()) == (x_bytes, T_bytes)
                    assert not np.shares_memory(got, x)
        assert zeros > 0 or d == 1

    def test_fused_update_drops_only_the_sign_of_a_zero(self):
        # At unit-weight r = p = 3 the update takes J_p(x) = x |x|, which
        # at x = -0.0 is -0.0 where duality_map gives +0.0; J*_q maps both
        # to +0.0.
        space = lp_space(3, r=3.0)
        x, T = np.array([-0.0, -0.0, 2.0]), np.array([0.0, -0.0, 1.0])
        assert np.signbit(x * np.abs(x)).tolist() == [True, True, False]
        assert not np.signbit(duality_map(space, x)).any()
        got = geometry_module._dual_update(space, held=False)(x, 0.5, T)
        assert got.tobytes() == inverse_duality_map(
            space, duality_map(space, x) - 0.5 * T).tobytes()
        assert not np.signbit(got).any()


class TestBregmanDistance:
    def test_one_pair_keeps_the_formula_type_and_clipping(self):
        # The single-pair branch, in floats, against the formula on numpy
        # scalars with np.where: the value, as a float, and the clipping of
        # round-off below 0 (x == xt).  Also every ordered pair of
        # KERNEL_INPUTS rows: signed zeros, subnormals and entries whose
        # powers overflow, where both give inf or nan alike; numpy warns
        # where its array powers overflow, so both run as the solver runs
        # them, with those warnings off.
        rng = np.random.default_rng(7)
        for space in KERNEL_SPACES.values():
            x = rng.standard_normal((6, space.dim))
            xt = rng.standard_normal((6, space.dim))
            xt[:3] = x[:3] * np.array([[1.0], [1.0 + 1e-15], [-1.0]])
            pairs = list(zip(x, xt)) + [(a, b) for a in KERNEL_INPUTS
                                        for b in KERNEL_INPUTS]
            with np.errstate(over="ignore", under="ignore",
                             invalid="ignore"):
                for xi, xti in pairs:
                    expected = general_bregman(space, xi, xti)
                    one = bregman_distance(space, xi, xti)
                    assert type(one) is float
                    assert np.float64(one).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name,big", [
        ("r1.5-p2", 1e200), ("weighted-r1.5-p2", 1e200),
        ("l2-p3", 1e120), ("l2-p4", 1e100)])
    def test_overflowing_pth_power_is_inf(self, name, big):
        # r < p: ||x|| is finite where its p-th power is not.  A float
        # power raises OverflowError there; the distance is inf, as with
        # numpy's power, and nothing warns.
        space = KERNEL_SPACES[name]
        x, ones = np.array([big, 0.0, -0.0, 5e-324]), np.ones(4)
        assert math.isfinite(norm(space, x))
        with pytest.raises(OverflowError):
            norm(space, x) ** space.p
        assert bregman_distance(space, x, ones) == math.inf
        assert bregman_distance(space, ones, x) == math.inf

    @pytest.mark.parametrize("space", [
        *(lp_space(4, r=r, p=p) for r, p in DEFAULT_CONSTANTS),
        lp_space(4, r=1.5, weights=[0.5, 2.0, 1.0, 3.0]),
        lp_space(4, r=1.25, p=4.0, Cp=0.1, Gq=10.0)],
        ids=lambda sp: f"r{sp.r:g}-p{sp.p:g}"
                       + ("" if sp.weights is None else "-weighted"))
    def test_kernel_to_a_reference_gives_the_pair_bits(self, space):
        # The kernel a run resolves once per reference returns the bits of
        # the public Bregman distance and duality map, and of the formula
        # on numpy scalars: at random points, at 0 of each sign, at x =
        # ref and within a few ulps of it, where round-off below 0 is
        # clipped, and where ||x||**p or ||ref||**p overflows (a float
        # power that raises at r < p, an inf norm at r = p), with numpy's
        # overflow warnings off as in a run.
        rng = np.random.default_rng(35)
        refs = rng.standard_normal((4, space.dim))
        refs[3] = 1e160 * refs[3]
        clipped = 0
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for ref in refs:
                near = ref * np.array([[1.0], [1.0 + 1e-15], [1.0 - 1e-15],
                                       [1.0 + 3e-16]])
                xs = np.concatenate([
                    rng.standard_normal((6, space.dim)), near,
                    [np.zeros(space.dim), -np.zeros(space.dim),
                     1e160 * rng.standard_normal(space.dim)]])
                to_ref = geometry_module._bregman_to(space, ref,
                                                     norm(space, ref))
                for x in xs:
                    breg, jx = to_ref(x)
                    assert type(breg) is float
                    assert np.float64(breg).tobytes() \
                        == np.float64(bregman_distance(space, x, ref)
                                      ).tobytes() \
                        == general_bregman(space, x, ref).tobytes()
                    assert jx.tobytes() == duality_map(space, x).tobytes()
                for x in near:
                    unclipped = (general_norm(space, ref) ** space.p
                                 / space.p
                                 + general_norm(space, x) ** space.p
                                 / space.q
                                 - np.sum(duality_map(space, x) * ref))
                    if unclipped < 0.0:
                        assert to_ref(x)[0] == 0.0
                        clipped += 1
        assert clipped > 0

    def test_hilbert_is_half_squared_distance(self):
        space = lp_space(4)
        rng = np.random.default_rng(4)
        x, xt = rng.standard_normal((2, 4))
        expected = 0.5 * float(np.sum((x - xt) ** 2))
        assert float(bregman_distance(space, x, xt)) == pytest.approx(
            expected, rel=1e-12)

    def test_nonnegative_and_zero_at_equality(self):
        rng = np.random.default_rng(5)
        for space in spaces():
            x = rng.standard_normal((500, space.dim))
            xt = rng.standard_normal((500, space.dim))
            assert np.all(bregman_distance(space, x, xt) >= 0.0)
            np.testing.assert_allclose(bregman_distance(space, x, x), 0.0,
                                       atol=1e-12)

    def test_p_homogeneous(self):
        rng = np.random.default_rng(6)
        for space in spaces():
            x, xt = rng.standard_normal((2, space.dim))
            b1 = float(bregman_distance(space, x, xt))
            b2 = float(bregman_distance(space, 3.0 * x, 3.0 * xt))
            assert b2 == pytest.approx(3.0 ** space.p * b1, rel=1e-10)


class TestCertifyConstants:
    @pytest.mark.parametrize("r,p", GEOMETRIES)
    def test_shipped_constants_certify(self, r, p):
        space = lp_space(6, r=r, p=p)
        cp_bound, gq_bound = certify_constants(space, n_samples=20_000,
                                               seed=0)
        cp, gq = DEFAULT_CONSTANTS[(r, p)]
        # Round-off tolerance: the Hilbert ratios are exactly 1 and the
        # sampled extremum can undershoot by ~1e-9.
        assert cp <= cp_bound + 1e-6
        assert gq >= gq_bound - 1e-6

    def test_hilbert_constants_are_tight(self):
        space = lp_space(6)
        cp_bound, gq_bound = certify_constants(space, n_samples=20_000,
                                               seed=0)
        assert cp_bound == pytest.approx(1.0, rel=1e-6)
        assert gq_bound == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("r", [1.5, 3.0, 4.0])
    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["unit", "weighted"])
    def test_refutes_the_hilbert_pair_off_hilbert(self, r, weighted):
        # Skipping the pairs whose Bregman distance is rounding must leave
        # the falsifier able to refute Cp = Gq = 1, which lp_space(4, r=1.5)
        # once stated.
        weights = [0.01, 0.3, 5.0, 100.0, 1.0, 2.0] if weighted else None
        space = lp_space(6, r=r, weights=weights)
        cp_bound, gq_bound = certify_constants(space, n_samples=20_000,
                                               seed=0)
        assert cp_bound < 0.9 and gq_bound > 1.1


class TestDualCache:
    def test_dual_is_built_once(self):
        space = SpaceGeometry(dim=3, r=3.0, p=3.0, weights=[1.0, 2.0, 3.0],
                              Cp=0.5, Gq=1.4)
        assert space.dual() is space.dual()
