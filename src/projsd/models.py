"""Nonlinear forward operators with analytically known constants.

Ships a linear model, a diagonal linear model with closed-form best
approximations and stability constant, and a componentwise-quadratic
model.  The iteration calls a custom model only through the evaluation
``F(x)`` and the adjoint action ``DF(x)* y*``, and checks the shape of
each output on every call.  It calls no built-in model that runs its
class's own methods: ``_step_products`` resolves the run's residual and
adjoint once, with the model's own numpy operations and one check of its
matrix or sigma, and works out both of a dense model above one 1 MiB
block in one pass over the matrix.  The analysis constants are stated
by the caller; nothing here estimates them.  Every stated number follows
the input rules of README ("Input rules").

Evaluation is batch friendly: all maps act on the last axis of their
input arrays.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch, exponent, floats, real, vector
from .geometry import SpaceGeometry

__all__ = [
    "ForwardModel",
    "LinearModel",
    "DiagonalLinearModel",
    "QuadraticModel",
    "NoisyData",
    "data_space",
]


class ForwardModel:
    """Interface of the forward operator F.

    Subclasses provide the evaluation ``F(x)`` and the adjoint action
    ``DF(x)* y*``, the data-space norm exponent ``s`` (data live in l^s),
    and the constants that ``run_algorithm1`` reads in the convergence
    analysis:

    - ``lip``: Lipschitz constant of ``x -> DF(x)``,
    - ``lhat``: bound on the operator norm of DF over the domain ball,
    - ``cstab``: conditional stability constant on the working set.

    ``cstab`` and ``lhat`` are stated by the caller, never derived; None
    means not stated.  A linear model (``lip == 0``) needs neither, and
    the shipped linear models state neither.  A nonlinear run raises
    MissingStabilityConstant on entry without ``cstab``, and, with a
    diagnostic reference, without ``lhat``.  ``run_multi_level`` reads
    none of the three: a level's run takes the level's ``L``, ``Lhat``
    and ``C``.

    ``in_dim``, when the model states it (every shipped model does), is
    the length of an input: a run on a space of another dimension raises
    DimensionMismatch on entry.

    Output shapes: for one iterate ``x`` of shape ``(d,)``, ``eval(x)``
    returns shape ``(out_dim,)`` and ``apply_adjoint(x, ystar)`` shape
    ``(d,)``.  ``run_algorithm1`` checks both on every call of a custom
    model and raises DimensionMismatch, naming the method and the shape,
    for any other shape, a scalar or ``(1,)`` included.
    """

    out_dim: int
    in_dim: int | None = None
    s: float = 2.0
    lip: float = 0.0
    lhat: float | None = None
    cstab: float | None = None

    def eval(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_adjoint(self, x: np.ndarray, ystar: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class LinearModel(ForwardModel):
    """F(x) = A x.  The derivative is constant, so lip = 0."""

    def __init__(self, matrix, s=2.0):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.out_dim = self.matrix.shape[0]
        self.in_dim = self.matrix.shape[1]
        self.s = exponent("data exponent s", s)

    def eval(self, x):
        return floats(x) @ self.matrix.T

    def apply_adjoint(self, x, ystar):
        return floats(ystar) @ self.matrix


class DiagonalLinearModel(LinearModel):
    """F(x) = diag(sigma) x with closed-form inverse-problem quantities.

    In the Hilbert configuration with Z a coordinate subspace, the best
    approximating solution, the approximation error and the stability
    constant are all available exactly, which makes every convergence
    guarantee checkable without trusting a sampler.
    """

    def __init__(self, sigma, s=2.0):
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim != 1:
            raise ValueError(f"sigma has shape {sigma.shape}, expected one "
                             "vector")
        self.sigma = sigma
        self.out_dim = self.in_dim = sigma.size
        self.s = exponent("data exponent s", s)

    @cached_property
    def matrix(self):
        """The dense ``diag(sigma)``, built on first read: the products
        below never read it, so a run allocates O(d)."""
        return np.diag(self.sigma)

    # For finite input the products below equal the dense products with
    # ``matrix``, whose off-diagonal terms add zeros, bit for bit up to
    # the sign of a zero entry.
    def eval(self, x):
        return self.sigma * x

    def apply_adjoint(self, x, ystar):
        return ystar * self.sigma

    def _support(self, support):
        """The support as an index array.  Raises ValueError where a
        supported sigma is 0: F does not see that coordinate, so neither
        quantity below exists."""
        idx = np.asarray(list(support), dtype=int)
        if not np.all(self.sigma[idx]):
            raise ValueError(
                f"sigma is 0 at a supported coordinate of {idx.tolist()}")
        return idx

    def best_subspace_solution(self, ydelta, support):
        """Minimizer of ||F(z) - ydelta|| over the coordinate subspace and
        the attained distance (the exact approximation error eta)."""
        ydelta = np.asarray(ydelta, dtype=float)
        idx = self._support(support)
        zdag = np.zeros(self.in_dim)
        zdag[idx] = ydelta[idx] / self.sigma[idx]
        rest = ydelta.copy()
        rest[idx] = 0.0
        return zdag, float(np.linalg.norm(rest))

    def subspace_stability_constant(self, support):
        """Exact constant of the stability inequality on the subspace,
        ``2**(-1/2) / min |sigma_i|`` over the supported coordinates; in
        the Hilbert space it is attained on the axis of that sigma_i."""
        idx = self._support(support)
        return float(2.0 ** -0.5 / np.min(np.abs(self.sigma[idx])))


class QuadraticModel(ForwardModel):
    """F_i(x) = (A x)_i + eps * x_i**2.

    The minimal model with a nonzero derivative Lipschitz constant:
    lip = 2 eps in the Hilbert configuration.  The derivative bound
    ``lhat`` >= ||A + 2 eps diag(x)|| over the domain depends on that
    domain, so the caller states it (None: not stated).
    """

    def __init__(self, matrix, eps, s=2.0, cstab=None, lhat=None):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("quadratic model needs a square matrix")
        self.out_dim = self.matrix.shape[0]
        self.in_dim = self.matrix.shape[1]
        self.eps = real("eps", eps, positive=False)
        self.s = exponent("data exponent s", s)
        self.lip = 2.0 * self.eps
        self.cstab = None if cstab is None else real("cstab", cstab)
        self.lhat = None if lhat is None else real("lhat", lhat)

    def eval(self, x):
        x = floats(x)
        return x @ self.matrix.T + self.eps * x ** 2

    def apply_adjoint(self, x, ystar):
        x, ystar = floats(x), floats(ystar)
        return ystar @ self.matrix + 2.0 * self.eps * x * ystar


#: Bytes of one row block of ``_row_block_products``: a block this size
#: stays in a 2 MiB L2 cache from its first read to its second.
_BLOCK_BYTES = 1 << 20


def _row_blocks(shape):
    """Row slices of a float64 matrix of ``shape``: blocks of the most
    rows that fit in ``_BLOCK_BYTES``, in multiples of 4 and at least 4,
    where a last block of one row joins the one before (numpy runs a
    one-row product as a dot product)."""
    rows = max(4, _BLOCK_BYTES // (8 * shape[1]) // 4 * 4)
    starts = list(range(0, shape[0], rows))
    if len(starts) > 1 and shape[0] - starts[-1] == 1:
        starts.pop()
    return list(map(slice, starts, starts[1:] + [None]))


def _row_block_products(matrix, eps, ydelta, phi):
    """``(residual, adjoint)`` of ``_step_products`` for a dense model:
    ``residual(x) = A x + eps x**2 - ydelta`` (no square term when ``eps``
    is None) works out ``T = DF(x)* phi(R)`` with R, for an elementwise
    ``phi``, in one pass over ``A`` by ``_row_blocks``, and
    ``adjoint(x, jy)`` returns that T: the run calls it with the x and
    the ``phi(R)`` of the last residual, which it does not read.

    Each block A_b gives R_b and adds ``phi(R_b) @ A_b`` to T while A_b
    is still in cache; the term ``2 eps x phi(R)`` comes once at the end.
    OpenBLAS works out four rows of a product at a time, so blocks that
    start at multiples of 4 give R the bits of one product with the whole
    matrix, as long as that product runs on one thread.  T sums by block,
    so its last bits differ from those of one product.
    """
    blocks = [(matrix[b], b) for b in _row_blocks(matrix.shape)]
    m, n = matrix.shape
    T = None

    def residual(x):
        nonlocal T
        R, T = np.empty(m), np.zeros(n)
        square = None if eps is None else eps * x ** 2
        for Ab, b in blocks:
            Rb = R[b]
            np.matmul(x, Ab.T, out=Rb)
            if eps is not None:
                Rb += square[b]
            Rb -= ydelta[b]
            T += phi(Rb) @ Ab
        if eps is not None:
            T += 2.0 * eps * x * phi(R)
        return R

    def adjoint(x, jy):
        return T

    return residual, adjoint


def _builtin_kind(model):
    """``LinearModel``, ``DiagonalLinearModel`` or ``QuadraticModel``
    when the model runs that class's own ``eval`` and ``apply_adjoint``;
    None for any other model, a subclass or an instance that overrides
    either method included.  A method replaced on the class itself, as a
    tracer installs its wrappers, counts as the class's own."""
    for cls in (LinearModel, DiagonalLinearModel, QuadraticModel):
        if all(getattr(getattr(model, name), "__func__", None)
               is getattr(cls, name) for name in ("eval", "apply_adjoint")):
            return cls
    return None


def _step_products(model, ydelta, y_space, dim):
    """The run's ``residual(x) = F(x) - ydelta`` and ``adjoint(x, jy) =
    DF(x)* jy``, resolved once per run on a space of dimension ``dim``,
    with ``ydelta`` of shape ``(model.out_dim,)``.

    A built-in model (``_builtin_kind``) is not called: the two run its
    numpy operations, in its order, and its ``matrix`` or ``sigma`` is
    checked once, here, against the run's shapes.  A dense one whose
    matrix spans more than one block, with an elementwise duality map of
    the data space (``y_space._kernels`` scale None, s = p), takes the
    one pass of ``_row_block_products``.  Every other model is called
    through ``eval`` and ``apply_adjoint``, with the shape of each output
    checked on every call.

    Raises
    ------
    DimensionMismatch
        If a built-in model's ``matrix`` or ``sigma`` does not fit the
        run's shapes (it was assigned after construction).
    """
    kind = _builtin_kind(model)
    if kind is None:
        y_shape, x_shape = ydelta.shape, (dim,)
        evaluate, apply_adjoint = model.eval, model.apply_adjoint

        def residual(x):
            return vector(evaluate(x), y_shape, "model.eval(x)") - ydelta

        def adjoint(x, jy):
            return vector(apply_adjoint(x, jy), x_shape,
                          "model.apply_adjoint(x, ystar)")

        return residual, adjoint

    # A diagonal or quadratic F maps R^dim to R^dim.
    m = ydelta.shape[0]
    out = m if kind is LinearModel else dim
    name, want = ("sigma", (dim,)) if kind is DiagonalLinearModel \
        else ("matrix", (out, dim))
    shape = np.shape(getattr(model, name))
    if shape != want or m != out:
        raise DimensionMismatch(
            f"model.{name} has shape {shape}, with data of shape ({m},); "
            f"a run on dimension {dim} needs {want}, with data of shape "
            f"({out},)")

    if kind is DiagonalLinearModel:
        sigma = model.sigma

        def residual(x):
            return sigma * x - ydelta

        def adjoint(x, jy):
            return jy * sigma

        return residual, adjoint

    matrix = model.matrix
    eps = model.eps if kind is QuadraticModel else None
    phi, scale = y_space._kernels
    if scale is None and len(_row_blocks(matrix.shape)) > 1:
        return _row_block_products(matrix, eps, ydelta, phi)
    at = matrix.T
    if eps is None:
        def residual(x):
            return x @ at - ydelta

        def adjoint(x, jy):
            return jy @ matrix

        return residual, adjoint
    two_eps = 2.0 * eps

    def residual(x):
        return x @ at + eps * x ** 2 - ydelta

    def adjoint(x, jy):
        return jy @ matrix + two_eps * x * jy

    return residual, adjoint


class NoisyData:
    """Observed data together with its approximation-error level ``eta``."""

    def __init__(self, ydelta, eta):
        self.ydelta = np.asarray(ydelta, dtype=float)
        self.eta = real("eta", eta, positive=False)

    def __repr__(self):
        return f"NoisyData(eta={self.eta})"


def data_space(model: ForwardModel, p: float = 2.0) -> SpaceGeometry:
    """The data space l^s of the model, unweighted, with the gauge ``p``
    of X, so that the duality mapping on the data has the same form.  The
    run reads its norm and duality map, never its constants, stated as 1.
    Equal dimensions and exponents give the same space, whose kernels
    are then resolved once, not once per run."""
    return _data_space(model.out_dim, model.s, p)


@lru_cache(maxsize=64)
def _data_space(dim, s, p):
    return SpaceGeometry(dim=dim, r=s, p=p, Cp=1.0, Gq=1.0)

