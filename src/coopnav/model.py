"""Domain types and the constant-velocity motion / range measurement models.

State convention: x = [p, v] with p the 3-D position [m] and v the 3-D
velocity [m/s], so the state dimension is 6. Anchors are represented as
beliefs with exactly-zero covariance rather than a separate type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError

STATE_DIM = 6

# Max tolerated asymmetry on covariance matrices.
SYM_TOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


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
        mu = _readonly(self.mean)
        c = np.asarray(self.covariance, dtype=float)
        if mu.ndim != 1 or c.shape != (mu.shape[0], mu.shape[0]):
            raise InvalidArgumentError("covariance shape must match mean dimension")
        if not (np.isfinite(mu).all() and np.isfinite(c).all()):
            raise InvalidArgumentError("belief components must be finite")
        if np.abs(c - c.T).max() > SYM_TOL:
            raise InvalidArgumentError("covariance asymmetry exceeds tolerance")
        c = symmetrize(c)  # a new array, so the caller's matrix is not frozen
        c.setflags(write=False)
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "covariance", c)

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
        mean.setflags(write=False)
        covariance.setflags(write=False)
        belief = object.__new__(cls)
        object.__setattr__(belief, "mean", mean)
        object.__setattr__(belief, "covariance", covariance)
        return belief

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def anchor_belief(position) -> GaussianBelief:
    """Belief of a perfectly known static node: zero velocity, zero covariance."""
    p = np.asarray(position, dtype=float)
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
        for v in (self.sigma_x2, self.sigma_y2, self.sigma_z2):
            if v < 0:
                raise InvalidArgumentError("driving-noise variances must be >= 0")


# Distinct (model, dt) pairs whose motion matrices are kept. An agent's epoch
# period is fixed, so its dt values repeat; the bound keeps memory flat.
MOTION_CACHE_SIZE = 256


@lru_cache(maxsize=MOTION_CACHE_SIZE)
def motion_matrices(model: MotionModel, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """State-transition matrix A(dt) and driving-noise covariance Cw(dt).

    A = [[I, dt I], [0, I]]; Cw = sym(B(dt) Cu B(dt)^T) with B = [[dt^2/2 I], [dt I]].
    The result is memoised per (model, dt) and shared, so both arrays are
    read-only; `motion_matrices.__wrapped__` computes them afresh.
    """
    if dt < 0:
        raise InvalidArgumentError(f"dt must be >= 0, got {dt}")
    a = np.eye(STATE_DIM) + dt * np.eye(STATE_DIM, k=3)
    i3 = np.eye(3)
    b = np.vstack([0.5 * dt * dt * i3, dt * i3])
    cw = symmetrize(b @ np.diag([model.sigma_x2, model.sigma_y2, model.sigma_z2]) @ b.T)
    a.setflags(write=False)
    cw.setflags(write=False)
    return a, cw


def predict_belief(belief: GaussianBelief, model: MotionModel, dt: float) -> GaussianBelief:
    """Propagate a belief through the motion model over dt seconds."""
    a, cw = motion_matrices(model, dt)
    mean = a @ belief.mean
    cov = symmetrize(a @ belief.covariance @ a.T + cw)
    return GaussianBelief._adopt(mean, cov)


def measurement_variance(m: int, xi: float) -> float:
    """Variance of the averaged range measurement: (m * xi)^-1."""
    if m < 1:
        raise InvalidArgumentError(f"measurement count must be >= 1, got {m}")
    if xi <= 0:
        raise InvalidArgumentError(f"ranging coefficient must be > 0, got {xi}")
    return 1.0 / (m * xi)


# Default channel-quality bounds for the equivalent ranging coefficient [1/m^2].
ERC_MIN = 16.0
ERC_MAX = 100.0

