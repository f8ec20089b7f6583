"""Tests of the forward models and of their adjoints."""

import numpy as np
import pytest
from oracles import adjoint_gap

from projsd import (DiagonalLinearModel, LinearModel, NoisyData,
                    QuadraticModel, SolverConfig, WholeSpace,
                    bregman_distance, data_space, lp_space, norm,
                    run_algorithm1)
import projsd.models as models_module
from projsd.models import (_builtin_kind, _row_block_products, _row_blocks,
                           _step_products)


class TestLinearModel:
    def test_eval(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        model = LinearModel(A)
        x = np.array([1.0, -1.0])
        np.testing.assert_allclose(model.eval(x), A @ x)

    def test_constants(self):
        A = np.diag([3.0, 1.0])
        model = LinearModel(A)
        assert model.lip == 0.0
        assert model.lhat is None  # stated, never derived

    def test_batched_eval(self):
        A = np.eye(2)
        model = LinearModel(A)
        xs = np.arange(6.0).reshape(3, 2)
        np.testing.assert_allclose(model.eval(xs), xs)

    @pytest.mark.parametrize("make", [
        lambda **kw: LinearModel(np.eye(2), **kw),
        lambda **kw: DiagonalLinearModel([1.0, 2.0], **kw)],
        ids=["linear", "diagonal"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan, "x"])
    def test_linear_cstab_positive_and_finite(self, make, value):
        # Both linear models once stored any cstab, -1.0 and 'x' included.
        # A run never reads one, so each is now refused as a keyword.
        with pytest.raises(TypeError, match="cstab"):
            make(cstab=value)

    @pytest.mark.parametrize("make", [
        lambda **kw: LinearModel(np.eye(2), **kw),
        lambda **kw: DiagonalLinearModel([1.0, 2.0], **kw)],
        ids=["linear", "diagonal"])
    def test_linear_models_state_no_cstab(self, make):
        # A run never reads the C of a linear model (c-tilde is 0 at L = 0,
        # whatever C), so neither linear model takes or stores one, nor
        # repeats the class's lip = 0.
        with pytest.raises(TypeError, match="cstab"):
            make(cstab=2.0)
        model = make()
        assert not {"cstab", "lhat", "lip"} & set(vars(model))
        assert model.cstab is None and model.lip == 0.0


class TestDiagonalLinearModel:
    def test_best_subspace_solution(self):
        model = DiagonalLinearModel([2.0, 4.0, 8.0])
        ydelta = np.array([2.0, 4.0, 8.0])
        zdag, eta = model.best_subspace_solution(ydelta, [0, 1])
        np.testing.assert_allclose(zdag, [1.0, 1.0, 0.0])
        assert eta == pytest.approx(8.0)

    def test_full_support_is_exact(self):
        model = DiagonalLinearModel([2.0, 4.0])
        zdag, eta = model.best_subspace_solution([1.0, 1.0], [0, 1])
        np.testing.assert_allclose(zdag, [0.5, 0.25])
        assert eta == 0.0

    def test_stability_constant(self):
        model = DiagonalLinearModel([2.0, 0.5, 4.0])
        assert model.subspace_stability_constant([0, 1]) == pytest.approx(
            2.0 ** -0.5 / 0.5)

    def test_zero_sigma_on_the_support_is_refused(self):
        # Both quantities divided by the zero sigma: a RuntimeWarning and
        # an infinite or NaN result.  A zero sigma off the support is
        # allowed.
        model = DiagonalLinearModel([2.0, 0.0, 4.0])
        with pytest.raises(ValueError, match="sigma is 0"):
            model.best_subspace_solution([1.0, 1.0, 1.0], [0, 1])
        with pytest.raises(ValueError, match="sigma is 0"):
            model.subspace_stability_constant([1, 2])
        zdag, eta = model.best_subspace_solution([2.0, 1.0, 8.0], [0, 2])
        np.testing.assert_array_equal(zdag, [1.0, 0.0, 2.0])
        assert eta == 1.0
        assert model.subspace_stability_constant([0, 2]) == 2.0 ** -0.5 / 2

    def test_stability_constant_is_attained_on_the_subspace(self):
        # In the Hilbert space, for x - xt = h in S, the stability ratio
        # breg(x, xt)**(1/2) / ||F(x) - F(xt)|| is 2**(-1/2) ||h|| /
        # ||sigma * h||.  Its supremum over S, the stated constant, is
        # attained at h = e_i for the smallest |sigma_i| in S; the
        # smaller |sigma_3| lies outside S.
        sigma = np.array([2.0, -0.3, 4.0, 0.1, 0.7])
        model = DiagonalLinearModel(sigma)
        space = lp_space(5)
        sup = [0, 1, 2]
        exact = model.subspace_stability_constant(sup)

        def ratio(x, xt):
            gap = norm(data_space(model), model.eval(x) - model.eval(xt))
            return bregman_distance(space, x, xt) ** 0.5 / gap

        e1 = np.eye(5)[1]
        for x, xt in [(e1, np.zeros(5)), (3.0 * e1, -2.0 * e1)]:
            assert ratio(x, xt) == pytest.approx(exact, rel=1e-15, abs=0)
        rng = np.random.default_rng(0)
        mask = np.isin(np.arange(5), sup)
        xt = np.where(mask, rng.standard_normal((200, 5)), 0.0)
        h = np.where(mask, rng.standard_normal((200, 5)), 0.0)
        got = ratio(xt + h, xt)
        want = (2.0 ** -0.5 * np.linalg.norm(h, axis=1)
                / np.linalg.norm(sigma * h, axis=1))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert np.all(got < exact)

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_matches_dense_diagonal(self, batch):
        # The elementwise products equal the dense product with the
        # diagonal matrix, on inputs with zero and negative entries.
        rng = np.random.default_rng(3)
        sigma = rng.standard_normal(6)
        sigma[[1, 4]] = [0.0, -0.0]
        diag, dense = DiagonalLinearModel(sigma), LinearModel(np.diag(sigma))
        x, ystar = (rng.standard_normal(batch + (6,)) for _ in range(2))
        for v in (x, ystar):
            v[..., [0, 3]] = [0.0, -0.0]
        assert np.array_equal(diag.eval(x), dense.eval(x))
        assert np.array_equal(diag.apply_adjoint(x, ystar),
                              dense.apply_adjoint(x, ystar))
        assert diag.matrix.tobytes() == dense.matrix.tobytes()

    def test_matrix_built_on_first_read(self):
        # The constructor built the d x d diag(sigma), 134 MB at d = 4096,
        # which neither product reads.
        model = DiagonalLinearModel(np.arange(1.0, 4097.0))
        model.eval(np.ones(4096))
        model.apply_adjoint(np.ones(4096), np.ones(4096))
        assert "matrix" not in vars(model)
        assert model.matrix.shape == (4096, 4096)
        assert model.matrix is model.matrix
        assert model.in_dim == model.out_dim == 4096

    @pytest.mark.parametrize("sigma", [2.0, [[1.0, 2.0], [3.0, 4.0]]],
                             ids=["scalar", "matrix"])
    def test_sigma_is_one_vector(self, sigma):
        with pytest.raises(ValueError, match="sigma has shape"):
            DiagonalLinearModel(sigma)


@pytest.mark.parametrize("s", [1.0, 0.5, -2.0, np.inf, np.nan])
@pytest.mark.parametrize("make", [
    lambda s: LinearModel(np.eye(2), s=s),
    lambda s: DiagonalLinearModel([1.0, 2.0], s=s),
    lambda s: QuadraticModel(np.eye(2), eps=0.1, s=s)],
    ids=["linear", "diagonal", "quadratic"])
def test_data_exponent_in_open_interval(make, s):
    # LinearModel(eye(2), s=1.0) constructed, and its run then failed
    # with "norm exponent r must lie in (1, inf)".
    with pytest.raises(ValueError, match="data exponent s = "):
        make(s)


class TestQuadraticModel:
    def test_eval(self):
        A = np.eye(2)
        model = QuadraticModel(A, eps=0.5)
        np.testing.assert_allclose(model.eval([2.0, -2.0]), [4.0, 0.0])

    def test_requires_square_matrix(self):
        with pytest.raises(ValueError):
            QuadraticModel(np.ones((2, 3)), eps=0.1)

    @pytest.mark.parametrize("eps", [-0.1, np.inf, -np.inf, np.nan])
    def test_eps_nonnegative_and_finite(self, eps):
        # eps = nan gave lip = nan.
        with pytest.raises(ValueError, match="eps = "):
            QuadraticModel(np.eye(2), eps=eps)

    def test_lipschitz_constant_of_derivative(self):
        # ||DF(x) - DF(xt)|| / ||x - xt|| <= 2 eps, sampled.
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4))
        eps = 0.3
        model = QuadraticModel(A, eps=eps)
        for _ in range(100):
            x, xt = rng.standard_normal((2, 4))
            diff = np.linalg.norm(np.diag(2.0 * eps * (x - xt)), 2)
            assert diff <= 2.0 * eps * np.linalg.norm(x - xt) + 1e-10
        assert model.lip == pytest.approx(2.0 * eps)

    def test_lhat_override(self):
        model = QuadraticModel(np.eye(2), eps=0.1, lhat=7.0)
        assert model.lhat == 7.0
        assert QuadraticModel(np.eye(2), eps=0.1).lhat is None

    @pytest.mark.parametrize("key", ["lhat", "cstab"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
    def test_stated_constant_positive_and_finite(self, key, value):
        # lhat = 0 used to end a run with a reference in a division by 0.
        with pytest.raises(ValueError, match=f"{key} = "):
            QuadraticModel(np.eye(2), eps=0.1, **{key: value})



def fixed_model(kind, array=None):
    """A built-in model of ``kind`` on R^4, built from the caller's
    ``array`` (matrix or sigma) when given."""
    if kind == "linear":
        return LinearModel(np.diag([2.0, 2.5, 3.0, 3.5]) if array is None
                           else array, s=2.0)
    if kind == "diagonal":
        return DiagonalLinearModel([2.0, 2.5, 3.0, 3.5] if array is None
                                   else array, s=2.0)
    return QuadraticModel(np.diag([2.0, 2.5, 3.0, 3.5]) if array is None
                          else array, eps=0.05, s=2.0, cstab=1.5, lhat=4.0)


def products(model):
    """The bytes of ``F(x)`` and ``DF(x)* y`` at one x and y."""
    x, y = np.array([0.4, -0.2, 0.5, 0.1]), np.array([1.0, -2.0, 0.5, 3.0])
    return model.eval(x).tobytes(), model.apply_adjoint(x, y).tobytes()


class TestFixedAtConstruction:
    """A built-in model is fixed at construction, as a space is: its
    parameters and constants are checked once and stored, its arrays as
    read-only copies.  Assigning one skipped the checks: with
    ``QuadraticModel.eps = -0.5`` (so L = -1) the run of
    ``test_assigned_eps_does_not_reach_a_run`` stopped StepDegenerate at
    k = 6, r_6 = inf, where the model as built meets the discrepancy."""

    @pytest.mark.parametrize("kind,name,value", [
        ("linear", "matrix", np.eye(4)), ("linear", "s", 3.0),
        ("linear", "lip", 0.5), ("linear", "out_dim", 3),
        ("diagonal", "sigma", np.ones(4)), ("diagonal", "matrix", np.eye(4)),
        ("diagonal", "s", 3.0), ("diagonal", "in_dim", 3),
        ("quadratic", "matrix", np.eye(4)), ("quadratic", "eps", -0.5),
        ("quadratic", "s", 3.0), ("quadratic", "cstab", -1.0),
        ("quadratic", "lhat", 0.0), ("quadratic", "lip", 0.0)])
    def test_assigning_a_parameter_raises(self, kind, name, value):
        model = fixed_model(kind)
        built = products(model), model.s, model.lip, model.cstab, model.lhat
        cls = type(model).__name__
        with pytest.raises(AttributeError,
                           match=rf"^{cls}\.{name} is fixed at construction"):
            setattr(model, name, value)
        with pytest.raises(AttributeError, match=rf"^{cls}\.{name} is fixed"):
            delattr(model, name)
        assert (products(model), model.s, model.lip, model.cstab,
                model.lhat) == built

    def test_assigned_eps_does_not_reach_a_run(self):
        model = fixed_model("quadratic")
        data = NoisyData(model.eval(np.array([0.4, -0.2, 0.5, 0.1])), 1e-3)
        with pytest.raises(AttributeError, match="eps is fixed"):
            model.eps = -0.5
        report = run_algorithm1(lp_space(4), WholeSpace(), model, data,
                                np.zeros(4),
                                SolverConfig(eta=1e-3, eta_hat=4e-3))
        assert (report.stop_reason, report.stopped_at_k) \
            == ("DiscrepancyMet", 7)
        assert model.lip == 2.0 * model.eps == 0.1

    @pytest.mark.parametrize("kind,name", [
        ("linear", "matrix"), ("diagonal", "sigma"), ("diagonal", "matrix"),
        ("quadratic", "matrix")])
    def test_stored_arrays_are_read_only(self, kind, name):
        array = getattr(fixed_model(kind), name)
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    def test_matrix_starts_on_a_cache_line(self, kind):
        # Wherever the caller's matrix lies, the stored copy starts on a
        # 64-byte line, so with 8k columns every row does, and the run's
        # products keep their bits.
        rng = np.random.default_rng(3)
        A = rng.standard_normal((24, 24))
        x, ydelta = rng.standard_normal((2, 24))
        raw = np.empty(A.size + 8)
        y_space = lp_space(24)
        outputs = set()
        for shift in range(8):
            given = raw[shift:shift + A.size].reshape(A.shape)
            given[...] = A
            model = LinearModel(given) if kind == "linear" \
                else QuadraticModel(given, eps=0.3)
            assert model.matrix.ctypes.data % 64 == 0
            assert not model.matrix.flags.writeable
            residual, gradient = _step_products(model, ydelta, y_space, 24)
            R = residual(x)
            T = gradient(x, R, norm(y_space, R))
            outputs.add((R.tobytes(), T.tobytes()))
        assert len(outputs) == 1

    @pytest.mark.parametrize("kind", ["linear", "diagonal", "quadratic"])
    def test_a_write_into_the_callers_array_does_not_reach_it(self, kind):
        array = (np.array([2.0, 2.5, 3.0, 3.5]) if kind == "diagonal"
                 else np.diag([2.0, 2.5, 3.0, 3.5]))
        model = fixed_model(kind, array)
        built = products(model)
        array[0] = -7.0
        assert products(model) == built

    @pytest.mark.parametrize("make,match", [
        (LinearModel, r"^matrix has shape \(2, 2, 2\), expected 2-D$"),
        (lambda A: QuadraticModel(A, eps=0.1), "needs a square matrix")],
        ids=["linear", "quadratic"])
    def test_matrix_has_two_axes(self, make, match):
        # A (2, 2, 2) matrix was taken, and a run raised DimensionMismatch
        # for it on entry.
        with pytest.raises(ValueError, match=match):
            make(np.ones((2, 2, 2)))


def dense(kind, m, n, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    return LinearModel(A) if kind == "linear" \
        else QuadraticModel(A, eps=0.3)


class TestRowBlockProducts:
    """One pass over the matrix by row blocks gives the residual and the
    adjoint of its duality image.  A block holds 324 rows of 400 or 401
    columns, 360 of 364 and 436 of 300."""

    SHAPES = [
        ("linear", 324, 400),   # exactly one block
        ("linear", 328, 400),   # one block plus 4 rows
        ("linear", 325, 400),   # one block plus 1 row, which joins it
        ("linear", 700, 300),   # m != n, two blocks
        ("linear", 401, 400),   # m not a multiple of 4
        ("quadratic", 364, 364),
        ("quadratic", 401, 401),
        ("quadratic", 400, 400),
    ]

    @pytest.mark.parametrize("kind,m,n", SHAPES)
    @pytest.mark.parametrize("s", [2.0, 3.0])
    def test_residual_bits_and_adjoint(self, kind, m, n, s):
        # Every shape has fewer than 460 800 entries, below which OpenBLAS
        # runs a matrix-vector product on one thread, so R keeps its bits
        # on any core count.
        model = dense(kind, m, n)
        rng = np.random.default_rng(m + n)
        x, ydelta = rng.standard_normal(n), rng.standard_normal(m)
        phi = lp_space(m, r=s, p=s)._kernels[0]
        eps = None if kind == "linear" else model.eps
        residual, gradient = _row_block_products(model.matrix, eps, ydelta,
                                                 phi)
        R = residual(x)
        T = gradient(x, R, float(np.linalg.norm(R)))
        assert np.array_equal(R, model.eval(x) - ydelta)
        want = model.apply_adjoint(x, phi(R))
        assert np.linalg.norm(T - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("kind,m,n", [
        ("linear", 700, 300),       # two blocks
        ("linear", 1000, 300),      # three blocks
        ("quadratic", 401, 401),    # two blocks
        ("quadratic", 700, 700)])   # four blocks
    @pytest.mark.parametrize("s", [2.0, 3.0])
    def test_each_walk_has_the_forward_pass_bits(self, kind, m, n, s):
        # Each call walks the blocks in the reverse of the last call's
        # order.  Four calls run each order twice, and each gives the bits
        # of a forward pass with T summed in row order.  With two blocks
        # the order of the sum cannot move a bit (0 + a + b = 0 + b + a);
        # with three or more it can.
        model = dense(kind, m, n)
        A = model.matrix
        eps = None if kind == "linear" else model.eps
        rng = np.random.default_rng(m + n)
        ydelta = rng.standard_normal(m)
        phi = lp_space(m, r=s, p=s)._kernels[0]
        residual, gradient = _row_block_products(A, eps, ydelta, phi)
        for x in rng.standard_normal((4, n)):
            R, want = residual(x), np.zeros(n)
            T = gradient(x, R, float(np.linalg.norm(R)))
            forward = np.empty(m)
            for b in _row_blocks(A.shape):
                forward[b] = x @ A[b].T
                if eps is not None:
                    forward[b] += (eps * x ** 2)[b]
                forward[b] -= ydelta[b]
                want += phi(forward[b]) @ A[b]
            if eps is not None:
                want += 2.0 * eps * x * phi(forward)
            assert R.tobytes() == forward.tobytes()
            assert T.tobytes() == want.tobytes()

    def test_row_blocks(self):
        # 1 MiB holds 324 rows of 400 floats and 128 rows of 1024.
        assert _row_blocks((401, 400)) == [slice(0, 324), slice(324, None)]
        assert _row_blocks((1024, 1024)) == [
            slice(i, i + 128 if i < 896 else None)
            for i in range(0, 1024, 128)]
        # A last block of one row joins the one before.
        assert _row_blocks((325, 400)) == [slice(0, None)]
        assert _row_blocks((649, 400)) == [slice(0, 324), slice(324, None)]
        # Never fewer than 4 rows, also where one row exceeds the budget.
        assert _row_blocks((8, 10 ** 6)) == [slice(0, 4), slice(4, None)]

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    def test_taken_above_one_block_only(self, kind, monkeypatch):
        taken = []

        def recording(*args):
            taken.append(1)
            return _row_block_products(*args)

        monkeypatch.setattr(models_module, "_row_block_products", recording)
        # 324 rows of 324 columns fit in one block (404 rows), and 361 of
        # 361 make a block of 360 and a last row that joins it.
        for d, blocks in ((400, 1), (324, 0), (361, 0)):
            taken.clear()
            _step_products(dense(kind, d, d), np.ones(d), lp_space(d), d)
            assert len(taken) == blocks
        # Nor where J_y needs the norm of the residual (s = 2, p = 3).
        _step_products(dense(kind, 400, 400), np.ones(400),
                       lp_space(400, p=3.0, Cp=1.0, Gq=1.0), 400)
        assert len(taken) == 0

    def test_overrides_keep_their_calls(self):
        class Plain(LinearModel):
            pass

        class OwnEval(QuadraticModel):
            def eval(self, x):
                return super().eval(x)

        A = np.eye(4)
        assert _builtin_kind(Plain(A)) is LinearModel
        assert _builtin_kind(QuadraticModel(A, eps=0.1)) is QuadraticModel
        assert _builtin_kind(DiagonalLinearModel(np.ones(4))) \
            is DiagonalLinearModel
        assert _builtin_kind(OwnEval(A, eps=0.1)) is None
        # An instance cannot replace a method: a built-in model is fixed.
        with pytest.raises(AttributeError,
                           match=r"^LinearModel\.eval is fixed"):
            LinearModel(A).eval = lambda x: x


class TestNoisyData:
    def test_validation(self):
        # eta = nan and inf were accepted.
        for eta in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="eta = "):
                NoisyData([1.0], eta)

    def test_fields(self):
        data = NoisyData([1.0, 2.0], 0.5)
        assert data.eta == 0.5
        np.testing.assert_allclose(data.ydelta, [1.0, 2.0])

    @pytest.mark.parametrize("name,value", [("ydelta", np.zeros(2)),
                                            ("eta", 2.0)])
    def test_assigning_or_deleting_a_field_raises(self, name, value):
        # Data are fixed at construction, as the models are: an eta
        # assigned after its check was read by the run unchecked.
        data = NoisyData([1.0, 2.0], 0.5)
        for change in (lambda: setattr(data, name, value),
                       lambda: delattr(data, name)):
            with pytest.raises(AttributeError,
                               match=rf"^NoisyData\.{name} is fixed at "):
                change()
        assert (data.ydelta.tolist(), data.eta) == ([1.0, 2.0], 0.5)

    def test_ydelta_is_a_read_only_copy(self):
        ydelta = np.array([1.0, 2.0])
        data = NoisyData(ydelta, 0.5)
        ydelta[0] = -7.0
        assert data.ydelta.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError, match="read-only"):
            data.ydelta[0] = 3.0


class TestDataNorm:
    def test_lr_norms(self):
        model = LinearModel(np.eye(2), s=3.0)
        v = np.array([1.0, 1.0])
        assert float(norm(data_space(model), v)) \
            == pytest.approx(2.0 ** (1 / 3.0))
        model2 = LinearModel(np.eye(2), s=2.0)
        assert float(norm(data_space(model2), [3.0, 4.0])) \
            == pytest.approx(5.0)


class TestCertification:
    def all_models(self):
        rng = np.random.default_rng(1)
        return [
            LinearModel(rng.standard_normal((4, 3))),
            DiagonalLinearModel(np.exp(-np.arange(4))),
            QuadraticModel(rng.standard_normal((3, 3)), eps=0.2),
        ]

    def test_adjoint_check(self):
        rng = np.random.default_rng(3)
        for model in self.all_models():
            d_in = model.matrix.shape[1]
            for _ in range(20):
                x, h = rng.standard_normal((2, d_in))
                ystar = rng.standard_normal(model.out_dim)
                assert adjoint_gap(model, x, h, ystar) < 1e-10

    def test_wrong_adjoint_fails(self):
        # The adjoint without the 2 eps x term of the quadratic part.
        class WrongAdjoint(QuadraticModel):
            def apply_adjoint(self, x, ystar):
                return np.asarray(ystar, dtype=float) @ self.matrix

        rng = np.random.default_rng(80)
        model = WrongAdjoint(rng.standard_normal((4, 4)), eps=0.3)
        gaps = [adjoint_gap(model, *rng.standard_normal((3, 4)))
                for _ in range(100)]
        # The check catches the wrong adjoint on every probe.
        assert min(gaps) > 1e-10
