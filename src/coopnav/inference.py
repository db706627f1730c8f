"""Node inference: sigma-point BP measurement update and the LS baseline.

The measurement update stacks the agent state with the position beliefs of
the measured neighbors that are uncertain; a known (zero-covariance) position
enters the range map as a constant, as in sigma-point BP. One unscented Bayes
update, on the eigen square root, runs against the range map, and the agent
block is marginalized back out. The unscented transform is exact for linear
maps, which pins down the correctness tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EstimationFailureError, InvalidArgumentError, NumericFailureError
from .model import GaussianBelief, symmetrize


# Scaled unscented transform: alpha = 1, beta = 2 and kappa = 3 - L, so the
# spread scale L + lambda is 3 for every state dimension L.
UT_ALPHA = 1.0
UT_BETA = 2.0

# Fixed-step gradient descent of the LS baseline.
LS_STEP = 0.1
LS_MAX_ITERS = 500
LS_TOL = 1e-6  # on the gradient norm
LS_DIVERGENCE_NORM = 1e6


@dataclass(frozen=True)
class MeasurementEntry:
    """One averaged range measurement plus the neighbor's position belief."""

    neighbor: object  # node id or any hashable, kept opaque here
    z: float
    variance: float
    mu_p: np.ndarray  # (3,)
    c_p: np.ndarray  # (3, 3)

    def __post_init__(self):
        if not (math.isfinite(self.z) and 0 < self.variance < math.inf):
            raise InvalidArgumentError("range must be finite, its variance finite and > 0")
        object.__setattr__(self, "mu_p", np.asarray(self.mu_p, dtype=float))
        object.__setattr__(self, "c_p", np.asarray(self.c_p, dtype=float))
        if self.mu_p.shape != (3,) or self.c_p.shape != (3, 3):
            raise InvalidArgumentError("neighbor belief must be 3-D position mean/cov")
        if not all(map(math.isfinite, self.mu_p.tolist() + self.c_p.ravel().tolist())):
            raise InvalidArgumentError("neighbor belief must be finite")


@dataclass(frozen=True)
class MeasurementBatch:
    entries: tuple[MeasurementEntry, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        neighbors = [e.neighbor for e in entries]
        if len(set(neighbors)) != len(neighbors):
            raise InvalidArgumentError("batch neighbors must be distinct")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)


def _matrix_sqrt(c: np.ndarray, scale: float) -> np.ndarray:
    """Columns of the eigen square root V sqrt(D) of symmetrize(scale * c) =
    V D V^T; eigh reads only one triangle, so c is symmetrized here."""
    vals, vecs = np.linalg.eigh(symmetrize(scale * c))
    if not vals[0] > 0.0:  # else all are positive: the check passes, the clip is a no-op
        tol = 1e-9 * max(1.0, float(np.abs(vals).max()))
        if vals[0] < -tol:
            raise NumericFailureError(
                f"covariance not PSD (min eigenvalue {vals[0]:.3e})",
                min_eigenvalue=float(vals[0]),
            )
        vals = vals.clip(0.0, None)
    return vecs * np.sqrt(vals)


@lru_cache(maxsize=32)
def _ut_weights(dim: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Spread scale L + lambda and the read-only mean and covariance weights
    of the L = dim sigma-point set; they depend on L alone."""
    kappa = 3.0 - dim
    lam = UT_ALPHA * UT_ALPHA * (dim + kappa) - dim
    wm = np.full(2 * dim + 1, 0.5 / (dim + lam))
    wc = wm.copy()
    wm[0] = lam / (dim + lam)
    wc[0] = wm[0] + (1.0 - UT_ALPHA * UT_ALPHA + UT_BETA)
    wm.setflags(write=False)
    wc.setflags(write=False)
    return dim + lam, wm, wc


def generate_sigma_points(mean, cov) -> np.ndarray:
    """The (2L+1, L) standard scaled unscented sigma points of N(mean, cov),
    on the root of the symmetrized cov; _ut_weights(L) holds their weights."""
    mean = np.asarray(mean, dtype=float)
    dim = mean.shape[0]
    scale = _ut_weights(dim)[0]
    root = _matrix_sqrt(np.asarray(cov, dtype=float), scale)
    points = np.empty((2 * dim + 1, dim))
    points[0] = mean
    points[1 : dim + 1] = mean + root.T
    points[dim + 1 :] = mean - root.T
    return points


def _unscented_update(mean, cov, points, zp, z, noise_cov):
    """Unscented Bayes update of N(mean, cov) against z, given its sigma points
    and their (2L+1, m) measurements zp; all float arrays. Returns (mean',
    cov - K S K^T symmetrized with negative eigenvalues clamped, diagnostics)."""
    if zp.shape[1] != z.shape[0]:
        raise InvalidArgumentError("measurement dimension mismatch")
    _scale, wm, wc = _ut_weights(mean.shape[0])
    z_hat = wm @ zp
    dz = zp - z_hat
    dx = points - mean
    wdz = wc[:, None] * dz
    s = dz.T @ wdz + noise_cov
    c_xz = dx.T @ wdz
    diagnostics = {"regularized": False}
    try:
        gain = np.linalg.solve(s, c_xz.T).T
    except np.linalg.LinAlgError:
        s = s + 1e-9 * np.eye(s.shape[0])
        gain = np.linalg.solve(s, c_xz.T).T
        diagnostics["regularized"] = True
    post_mean = mean + gain @ (z - z_hat)
    post_cov = symmetrize(cov - gain @ s @ gain.T)
    vals = np.linalg.eigvalsh(post_cov)
    if vals[0] < 0.0:
        vals, vecs = np.linalg.eigh(post_cov)
        post_cov = symmetrize((vecs * vals.clip(0.0, None)) @ vecs.T)
        diagnostics["clamped"] = True
    return post_mean, post_cov, diagnostics


def build_stacked_prior(
    prior: GaussianBelief, batch: MeasurementBatch
) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal stacked prior (mean, covariance): own (predicted) state,
    then the positions of the neighbors whose covariance is nonzero. Without
    such neighbors it is the prior's own read-only arrays."""
    uncertain = [e for e in batch.entries if np.count_nonzero(e.c_p)]
    if not uncertain:
        return prior.mean, prior.covariance
    mean = np.concatenate([prior.mean] + [e.mu_p for e in uncertain])
    cov = np.zeros((mean.shape[0],) * 2)
    cov[: prior.dim, : prior.dim] = prior.covariance
    for i, e in enumerate(uncertain):
        off = prior.dim + 3 * i
        cov[off : off + 3, off : off + 3] = e.c_p
    return mean, cov


def _stacked_ranges(points: np.ndarray, state_dim: int, batch: MeasurementBatch) -> np.ndarray:
    """Ranges from the own position to each neighbor, one row per stacked state;
    a known neighbor sits at its mu_p, an uncertain one at its stacked block."""
    p = points[:, :3]
    out = np.empty((points.shape[0], len(batch)))
    off = state_dim
    for i, e in enumerate(batch.entries):
        if np.count_nonzero(e.c_p):  # as c_p.any(), without its wrapper
            d = p - points[:, off : off + 3]
            off += 3
        else:
            d = p - e.mu_p
        # Row-wise d @ d through matmul reduces with the same dot kernel
        # as np.linalg.norm, so each range equals norm(d_row) bit for bit.
        out[:, i] = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    return out


def spbp_update(prior: GaussianBelief, batch: MeasurementBatch) -> GaussianBelief:
    """Sigma-point measurement update of an already-predicted belief.

    Stacks the uncertain neighbor position beliefs, updates against the range
    measurements, and marginalizes the own-state block. Empty batches are the
    caller's responsibility (the prediction is already the belief).
    """
    if len(batch) == 0:
        raise InvalidArgumentError("batch must be nonempty; use the prediction directly")
    mean, cov = build_stacked_prior(prior, batch)
    z = np.array([e.z for e in batch.entries], dtype=float)
    noise = np.diag([e.variance for e in batch.entries])
    points = generate_sigma_points(mean, cov)
    zp = _stacked_ranges(points, prior.dim, batch)
    post_mean, post_cov, _ = _unscented_update(mean, cov, points, zp, z, noise)
    nx = prior.dim
    # _unscented_update returns post_cov symmetrized; so is its own block.
    # The copies keep the belief from holding a view of the stacked arrays.
    return GaussianBelief._adopt(post_mean[:nx].copy(), post_cov[:nx, :nx].copy())


def ls_estimate(prev, batch: MeasurementBatch) -> np.ndarray:
    """Gradient descent on the squared range-residual cost, warm-started at prev.

    A loop over floats: on 3-vectors, numpy's per-call overhead would cost
    far more than the arithmetic. Each iteration takes d = p - a, |d| =
    sqrt((dx*dx + dy*dy) + dz*dz), g = sum of 2 ((|d| - z) / |d|) d with 1
    in place of a |d| <= 1e-12, then p - LS_STEP * g, in the order of the
    numpy loop that the tests compare against (np.add.reduce sums a row in
    that order). For one range the two give the same bits. With several,
    numpy's matrix-vector product sums the terms of g in its own order, so
    they differ by round-off (about 1e-14 m). The stopping and divergence
    norms are summed as (x*x + y*y) + z*z, where numpy's v.dot(v) can differ
    in the last bit: the two part only when a norm lies within a few ulps of
    LS_TOL or LS_DIVERGENCE_NORM.
    """
    if len(batch) < 1:
        raise InvalidArgumentError("LS requires at least one measurement")
    px, py, pz = map(float, prev)
    ranges = [(*map(float, e.mu_p), float(e.z)) for e in batch.entries]
    step, tol, limit = LS_STEP, LS_TOL, LS_DIVERGENCE_NORM
    for _ in range(LS_MAX_ITERS):
        gx = gy = gz = 0.0
        for ax, ay, az, z in ranges:
            dx = px - ax
            dy = py - ay
            dz = pz - az
            dist = math.sqrt((dx * dx + dy * dy) + dz * dz)
            w = 2.0 * ((dist - z) / (dist if dist > 1e-12 else 1.0))
            gx += w * dx
            gy += w * dy
            gz += w * dz
        if math.sqrt((gx * gx + gy * gy) + gz * gz) <= tol:
            break
        px -= step * gx
        py -= step * gy
        pz -= step * gz
        if math.sqrt((px * px + py * py) + pz * pz) > limit:
            raise EstimationFailureError("LS gradient descent diverged")
    return np.array([px, py, pz])
