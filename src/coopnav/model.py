"""Domain types and the constant-velocity motion / range measurement models.

State convention: x = [p, v] with p the 3-D position [m] and v the 3-D
velocity [m/s], so the state dimension is 6. Anchors are represented as
beliefs with exactly-zero covariance rather than a separate type.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError

STATE_DIM = 6

# Max tolerated asymmetry on covariance matrices.
SYM_TOL = 1e-9


def frozen(a: np.ndarray) -> np.ndarray:
    """Mark a new array, one no one else holds, read-only and return it."""
    a.setflags(write=False)
    return a


def finite_array(x, shape: tuple | None, what: str) -> np.ndarray:
    """A new read-only float copy of x, of the given shape (any nonempty 1-D
    shape for None) and with finite entries; anything else, input numpy
    cannot convert included, raises InvalidArgumentError naming `what`.
    math.isfinite over the entries takes a third of the time of
    np.isfinite(a).all() on the small arrays the value types take."""
    try:
        a = np.array(x, dtype=float)
    except (TypeError, ValueError):
        a = None  # not convertible
    if (a is None or (a.ndim != 1 or not a.size if shape is None else a.shape != shape)
            or not all(map(math.isfinite, a.ravel().tolist()))):
        want = "(n,) with n >= 1" if shape is None else shape
        raise InvalidArgumentError(f"{what} must be finite floats of shape {want}")
    return frozen(a)


# Rules on numbers: (predicate, what the number must be).
NONNEGATIVE = (lambda x: x >= 0, ">= 0")
POSITIVE = (lambda x: x > 0, "> 0")


def finite_number(x, what: str, rule=None, integer: bool = False, error=InvalidArgumentError):
    """x as a float (an int if `integer`) if it is a finite real number, not a
    bool, integral if `integer` and satisfying `rule`; else raises `error` naming `what`."""
    t = type(x)  # an exact int or float skips the slower numbers.Real check
    if t is not int and (t is not float and (t is bool or not isinstance(x, numbers.Real))
                         or not math.isfinite(x)):
        raise error(f"{what} must be a finite number, got {x!r}")
    out = int(x) if integer else float(x)
    if integer and out != x:
        raise error(f"{what} must be an integer, got {x!r}")
    if rule is not None and not rule[0](out):
        raise error(f"{what} must be {rule[1]}, got {x!r}")
    return out


def symmetrize(c: np.ndarray) -> np.ndarray:
    """Enforce exact symmetry; applied after every covariance-producing op.

    A stack (..., n, n) is symmetrized matrix by matrix.
    """
    return (c + c.swapaxes(-1, -2)) / 2.0


@dataclass(frozen=True)
class GaussianBelief:
    """Mean/covariance representation of a node's marginal state posterior."""

    mean: np.ndarray  # (STATE_DIM,)
    covariance: np.ndarray  # (STATE_DIM, STATE_DIM)

    def __post_init__(self):
        mu = finite_array(self.mean, None, "belief mean")
        c = finite_array(self.covariance, mu.shape * 2, "belief covariance")
        if np.abs(c - c.T).max() > SYM_TOL:
            raise InvalidArgumentError("covariance asymmetry exceeds tolerance")
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "covariance", frozen(symmetrize(c)))

    @classmethod
    def _adopt(cls, mean: np.ndarray, covariance: np.ndarray) -> GaussianBelief:
        """A belief that takes the caller's arrays as they are: new float
        arrays that no one else holds, a 1-D mean and an exactly symmetric
        covariance of its size, as `predict_belief` and `spbp_update` build
        them. For those the public constructor's shape and symmetry checks
        pass and its copy and symmetrization return the same bits, so only
        finiteness is checked. Marks both arrays read-only."""
        if not (np.isfinite(mean).all() and np.isfinite(covariance).all()):
            raise InvalidArgumentError("belief components must be finite")
        belief = object.__new__(cls)
        object.__setattr__(belief, "mean", frozen(mean))
        object.__setattr__(belief, "covariance", frozen(covariance))
        return belief

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def anchor_belief(position) -> GaussianBelief:
    """Belief of a perfectly known static node: zero velocity, zero covariance."""
    p = finite_array(position, (3,), "anchor position")
    mean = np.concatenate([p, np.zeros(3)])
    return GaussianBelief(mean, np.zeros((STATE_DIM, STATE_DIM)))


@dataclass(frozen=True)
class MotionModel:
    """Constant-velocity model driven by white acceleration noise.

    sigma_*2 are the per-axis driving-noise variances in (m/s^2)^2.
    """

    sigma_x2: float
    sigma_y2: float
    sigma_z2: float

    def __post_init__(self):
        for name in ("sigma_x2", "sigma_y2", "sigma_z2"):
            object.__setattr__(self, name, finite_number(getattr(self, name), name, NONNEGATIVE))


# Distinct (model, dt) pairs whose motion matrices are kept. An agent's epoch
# period is fixed, so its dt values repeat; the bound keeps memory flat.
MOTION_CACHE_SIZE = 256


@lru_cache(maxsize=MOTION_CACHE_SIZE, typed=True)
def motion_matrices(model: MotionModel, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """State-transition matrix A(dt) and driving-noise covariance Cw(dt).

    A = [[I, dt I], [0, I]]; Cw = sym(B(dt) Cu B(dt)^T) with B = [[dt^2/2 I], [dt I]].
    The result is memoised per (model, dt) and shared, so both arrays are
    read-only; `motion_matrices.__wrapped__` computes them afresh. The cache
    is typed, so a bool dt is checked, not served the entry of dt 1.
    """
    dt = finite_number(dt, "dt", NONNEGATIVE)
    a = np.eye(STATE_DIM) + dt * np.eye(STATE_DIM, k=3)
    i3 = np.eye(3)
    b = np.vstack([0.5 * dt * dt * i3, dt * i3])
    cw = symmetrize(b @ np.diag([model.sigma_x2, model.sigma_y2, model.sigma_z2]) @ b.T)
    return frozen(a), frozen(cw)


def predict_belief(belief: GaussianBelief, model: MotionModel, dt: float) -> GaussianBelief:
    """Propagate a belief through the motion model over dt seconds."""
    a, cw = motion_matrices(model, dt)
    mean = a @ belief.mean
    cov = symmetrize(a @ belief.covariance @ a.T + cw)
    return GaussianBelief._adopt(mean, cov)


def measurement_variance(m: int, xi: float) -> float:
    """Variance of the averaged range measurement: (m * xi)^-1."""
    m = finite_number(m, "measurement count", POSITIVE, integer=True)
    return 1.0 / (m * finite_number(xi, "ranging coefficient", POSITIVE))


# Default channel-quality bounds for the equivalent ranging coefficient [1/m^2].
ERC_MIN = 16.0
ERC_MAX = 100.0

