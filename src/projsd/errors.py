"""Exception hierarchy shared by all solver components and the CLI, and
the input rules of README ("Input rules"): each raises ValueError (a
vector DimensionMismatch) that names the value it refuses.  ``Fixed``
and ``fixed_array`` keep what a constructor has checked from changing
after it."""

import numpy as np

__all__ = [
    "ProjSDError", "DimensionMismatch", "NonConvergence", "NonFiniteInput",
    "EtaTooLarge", "NonpositiveU", "ZeroGradient", "NonFiniteStep",
    "MissingStabilityConstant",
    "NoSuchLevel", "TransitionInvalid", "TauOutOfRange", "LambdaTooSmall",
    "SchemaError",
]


class ProjSDError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ProjSDError, ValueError):
    """Vector length does not match the space dimension."""


class NonConvergence(ProjSDError):
    """A bounded search inside a Bregman projection ran out of steps.

    Every bracket expansion and scalar root search in ``projsd.sets``
    stops after a fixed number of steps, twice what random inputs of
    moderate size need.  This is raised when a search reaches that cap,
    which finite inputs far from a ball can do (see ``sets._MAX_STEPS``),
    when its root lies where its rescaling would overflow, or when the
    norm of the projection would leave the floating-point range.
    """


class NonFiniteInput(ProjSDError, ValueError):
    """A vector holds NaN or +-inf where finite values are required."""


class EtaTooLarge(ProjSDError):
    """The noise level violates ``8 * ctilde * eta < 1``.

    Checked on entry to every nonlinear run, with or without a reference,
    and by the radius and level-transition formulas.
    """


class NonpositiveU(ProjSDError):
    """Step-size numerator became nonpositive.

    With ``8 * ctilde * eta < 1`` checked on entry, this means the
    residual lies at or beyond the larger root of u: the iterate is
    outside the convergence radius.
    """


class ZeroGradient(ProjSDError):
    """Gradient vanished while the residual is still above the threshold."""


class NonFiniteStep(ProjSDError):
    """The residual norm r_k or the gradient norm t_k of a step is NaN or
    +-inf, e.g. because the model returned a non-finite value, or a scalar
    of the step size (a power of r_k, t_k or u_k) leaves the float range."""


class MissingStabilityConstant(ProjSDError, ValueError):
    """A model does not state a constant the analysis reads: its
    derivative Lipschitz constant ``lip`` (on entry to every run), and
    for a nonlinear model its conditional stability constant ``cstab``
    (on entry to every run) or, for the convergence radius, its
    derivative bound ``lhat``."""


class NoSuchLevel(ProjSDError):
    """The approximation-error sequence never reaches the target accuracy."""


class TransitionInvalid(ProjSDError):
    """A multi-level schedule failed its neighbor-pair validation."""


class TauOutOfRange(ProjSDError, ValueError):
    """Derivative-Lipschitz scale outside its admissible interval."""


class LambdaTooSmall(ProjSDError, ValueError):
    """Approximation-error scale too small relative to the target residual."""


class SchemaError(ProjSDError):
    """Configuration document failed validation.

    Carries the full list of error messages, not just the first.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# The native float64 dtype; an identity test costs less than ``==``.
_FLOAT64 = np.dtype(float)
# The Python and numpy types of a stated real.
_REAL = (int, float, np.integer, np.floating)


def _number(value, kind, convert):
    """``convert(value)``, value taken out of a 0-d array, if it is of a
    type of ``kind``; None for anything else, bool included, and for an
    int beyond the float range that ``float`` cannot convert."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if isinstance(value, bool) or not isinstance(value, kind):
        return None
    try:
        return convert(value)
    except OverflowError:
        return None


def real(name, value, positive=True, error=ValueError):
    """A stated real as a float, finite and positive, or nonnegative."""
    v = _number(value, _REAL, float)
    if v is not None and (0.0 < v if positive else 0.0 <= v) and v < np.inf:
        return v
    raise error(f"{name} = {value!r} must be "
                f"{'positive' if positive else 'nonnegative'} and finite")


def integer(name, value, least=1):
    """A stated integer as an int >= ``least``."""
    v = _number(value, (int, np.integer), int)
    if v is not None and v >= least:
        return v
    raise ValueError(f"{name} = {value!r} must be an integer >= {least}")


def seed(name, value):
    """A stated seed as an int >= 0."""
    return integer(name, value, least=0)


def exponent(name, value):
    """A stated exponent as a float in (1, inf)."""
    v = _number(value, _REAL, float)
    if v is not None and 1.0 < v < np.inf:
        return v
    raise ValueError(f"{name} = {value!r} must lie in (1, inf)")


def floats(value):
    """``np.asarray(value, dtype=float)``.  A float64 ndarray is its own
    ``np.asarray``, so it skips the call."""
    if type(value) is np.ndarray and value.dtype is _FLOAT64:
        return value
    return np.asarray(value, dtype=float)


def vector(value, shape, what):
    """``floats(value)``, of exactly ``shape``, one vector's."""
    value = floats(value)
    if value.shape != shape:
        raise DimensionMismatch(
            f"{what} has shape {value.shape}, expected {shape}: one vector "
            f"of shape {shape}")
    return value


def fixed_array(value, dtype=float):
    """A read-only copy of ``value`` as an array of ``dtype``: a later
    write into the caller's array does not reach it, and a write into it
    raises ValueError.

    Its data start on a 64-byte cache line, wherever the allocator puts
    the buffer, so each row of a dense model's matrix with a multiple of 8
    columns starts on one too, and a product's wide loads split no line.
    A 1024 x 1024 matrix 32 bytes off a line made the products of a step
    about 10% slower (2-core x86_64 host with AVX-512)."""
    value = np.asarray(value, dtype=dtype)
    raw = np.empty(value.nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    fixed = raw[start:start + value.nbytes].view(value.dtype).reshape(
        value.shape)
    fixed[...] = value
    fixed.flags.writeable = False
    return fixed


class Fixed:
    """A value fixed at construction, as a ``SpaceGeometry`` is.

    The constructor checks each parameter once and stores it, an array as
    a ``fixed_array``, with ``vars(self).update``, which does not pass
    through ``__setattr__``.  Assigning or deleting any attribute
    afterwards raises AttributeError naming the class and the attribute:
    a new value means a new object.  A copy (``copy.deepcopy``, pickle)
    is fixed as well: its arrays, which come back writable, are made
    read-only before they are stored.
    """

    def __setstate__(self, state):
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        vars(self).update(state)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__}.{name} is fixed at "
                             "construction; a new value means a new object")

    def __delattr__(self, name):
        self.__setattr__(name, None)
