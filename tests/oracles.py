"""Reference implementations that the tests compare the package against.

None of these run in a simulation: each is either a slower, direct form of
what the package computes (an exhaustive search, an uncached lookup) or a
check on its outputs.
"""

import itertools
import math

import numpy as np

from coopnav.errors import InvalidArgumentError
from coopnav.harness import _errors, _selected
from coopnav.inference import _unscented_update, generate_sigma_points
from coopnav.model import symmetrize
from coopnav.operation import AllocationResult, predicted_covariance
from coopnav.simkernel import _piece_position, _trajectory_piece

# Max tolerated negative eigenvalue of a covariance matrix.
PSD_TOL = 1e-9


def min_eigenvalue(belief) -> float:
    """Smallest eigenvalue of a GaussianBelief's covariance."""
    return float(np.linalg.eigvalsh(belief.covariance)[0])


def is_psd(belief, tol: float = PSD_TOL) -> bool:
    """Whether a GaussianBelief's covariance is positive semidefinite, to tol."""
    return min_eigenvalue(belief) >= -tol


def sigma_point_update(mean, cov, h, z, noise_cov):
    """Unscented Bayes update of N(mean, cov) against z = h(x) + noise, for
    any measurement map h, through the sigma points and update that
    `spbp_update` runs.

    Returns (mean', cov', diagnostics dict). cov is symmetrized on entry.
    """
    mean = np.asarray(mean, dtype=float)
    cov = symmetrize(np.asarray(cov, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    noise_cov = np.atleast_2d(np.asarray(noise_cov, dtype=float))
    points = generate_sigma_points(mean, cov)
    zp = np.array([np.atleast_1d(h(x)) for x in points])
    return _unscented_update(mean, cov, points, zp, z, noise_cov)


def brute_force_allocate(problem) -> AllocationResult:
    """Exact argmin over nonnegative integer allocations with sum <= budget.

    Enumeration only; limited to <= 5 links and budget <= 10. Ties broken
    lexicographically (first enumerated optimum kept).
    """
    n = len(problem.links)
    if n > 5 or problem.budget > 10:
        raise InvalidArgumentError("brute force limited to <= 5 links and budget <= 10")
    if n < 1:
        raise InvalidArgumentError("allocation requires at least one link")
    best_m = None
    best_obj = math.inf
    for combo in itertools.product(range(problem.budget + 1), repeat=n):
        if sum(combo) > problem.budget:
            continue
        obj = float(np.trace(predicted_covariance(problem, np.array(combo, dtype=float))))
        if obj < best_obj - 1e-15:
            best_obj = obj
            best_m = np.array(combo, dtype=int)
    return AllocationResult(best_m, best_obj)


def mobility_position(wps: tuple, t: float) -> tuple:
    """Position (x, y, z) along waypoints ((x, y, z), arrival_s, dwell_s) at
    time t (clamped at the ends), linear between a waypoint's departure and
    the next one's arrival: the kernel's piece lookup, with no cache."""
    return _piece_position(_trajectory_piece(wps, t), t)


def position_errors(result, node_id=None, burn_in_s=None) -> np.ndarray:
    """Per-record localization errors [m] of a RunResult, optionally for one
    node only and from a burn-in time on."""
    return _errors(_selected(result, node_id, burn_in_s))


def outage_probability(errors, e_th: float) -> float:
    """Fraction of errors strictly exceeding the threshold e_th."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise InvalidArgumentError("outage requires at least one error sample")
    return float(np.mean(errors > e_th))
