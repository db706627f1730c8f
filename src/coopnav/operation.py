"""Network-operation mathematics: covariance-evolution prediction, the
threshold activation rule, and measurement-count allocation.

The allocation solver works on the continuous relaxation of the integer
program (minimize the predicted position-covariance trace subject to a
measurement budget) with spectral (Barzilai-Borwein) projected gradient,
stopped when the Frank-Wolfe duality gap certifies the relaxed objective to a
relative PG_GAP_TOL, then rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateGeometryError, InvalidArgumentError, NumericFailureError
from .model import MotionModel, _readonly, motion_matrices, symmetrize


def _lock(a: np.ndarray) -> np.ndarray:
    """Make a new array read-only in place and return it."""
    a.setflags(write=False)
    return a


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm of a 1-D float vector is sqrt(v.dot(v)); calling the
    # dot directly skips the generic dispatch and gives the same value.
    return math.sqrt(v.dot(v))


def _finite_3x3(c: np.ndarray) -> bool:
    """Whether c is a finite 3x3 matrix. math.isfinite over its entries takes
    a third of the time of np.isfinite(c).all()."""
    return c.shape == (3, 3) and all(map(math.isfinite, c.ravel().tolist()))


def unit_direction(mu_j, mu_k) -> np.ndarray:
    """Unit vector from mu_j toward mu_k."""
    d = np.asarray(mu_k, dtype=float) - np.asarray(mu_j, dtype=float)
    n = _norm(d)
    if n <= 1e-9:
        raise DegenerateGeometryError("coincident position means")
    return d / n


@dataclass(frozen=True)
class LinkInfo:
    """Per-link quantities needed by the operation algorithms."""

    neighbor: object  # node id
    u: np.ndarray  # unit direction (3,)
    xi: float  # ranging coefficient, 1/m^2
    c_pk: np.ndarray  # neighbor position covariance (3, 3)

    def __post_init__(self):
        # Read-only copies, so the constants an AllocationProblem derives
        # from them stay valid.
        u = _readonly(self.u)
        c = _readonly(self.c_pk)
        if u.shape != (3,) or not abs(_norm(u) - 1.0) <= 1e-9:  # NaN fails
            raise InvalidArgumentError("direction vector must be a unit 3-vector")
        if not 0 <= self.xi < math.inf:
            raise InvalidArgumentError("ranging coefficient must be finite and >= 0")
        if not _finite_3x3(c):
            raise InvalidArgumentError("neighbor position covariance must be finite 3x3")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "c_pk", c)


def info_intensity(m, xi, rho):
    """Information intensity of m measurements over a link, elementwise.

    c(m) = m xi / (1 + m rho) with rho = xi u^T C_pk u; equals m xi for
    anchors (C_pk = 0, rho = 0).
    """
    m = np.asarray(m, dtype=float)
    if np.count_nonzero(m < 0):
        raise InvalidArgumentError("measurement count must be >= 0")
    return (m * xi) / (1.0 + m * rho)


@dataclass(frozen=True)
class AllocationProblem:
    c_pj: np.ndarray  # own position covariance (3, 3)
    links: tuple[LinkInfo, ...]
    budget: int

    def __post_init__(self):
        c = np.asarray(self.c_pj, dtype=float)
        if not _finite_3x3(c):
            raise InvalidArgumentError("own position covariance must be finite 3x3")
        b = self.budget
        if isinstance(b, bool) or not isinstance(b, (int, np.integer)) or b < 0:
            raise InvalidArgumentError("budget must be an integer >= 0")
        links = tuple(self.links)
        ids = [l.neighbor for l in links]
        if len(set(ids)) != len(ids):
            raise InvalidArgumentError("links must address distinct neighbors")
        # Read-only (symmetrize makes a new array), so the cached prior
        # information below stays valid.
        object.__setattr__(self, "c_pj", _lock(symmetrize(c)))
        object.__setattr__(self, "links", links)
        # Read-only per-link constants in link order, for every allocation
        # objective. rho = xi u^T C_pk u is the directional neighbor uncertainty
        # scaled by channel quality; exactly 0 for an anchor (C_pk = 0), where
        # the product gives +-0 and every use (1 + m rho) the same value.
        us = _lock(np.array([l.u for l in links], dtype=float).reshape(-1, 3))
        object.__setattr__(self, "us", us)
        object.__setattr__(self, "uus", _lock(us[:, :, None] * us[:, None, :]))
        object.__setattr__(self, "xis", _readonly([l.xi for l in links]))
        object.__setattr__(self, "rhos", _readonly(
            [l.xi * l.u @ l.c_pk @ l.u if np.count_nonzero(l.c_pk) else 0.0 for l in links]))

    @cached_property
    def prior_information(self) -> np.ndarray:
        """C_pj^-1, regularized if C_pj is singular but nonzero."""
        return _lock(_inverse_prior(self.c_pj))


@dataclass(frozen=True)
class AllocationResult:
    m: np.ndarray  # integer counts per link
    objective: float | None  # predicted covariance trace at m; None if not computed
    relaxed_m: np.ndarray | None = None
    relaxed_objective: float | None = None
    # The relaxation's duality gap is within PG_GAP_TOL of relaxed_objective,
    # or relaxed_m is stationary to float precision.
    converged: bool = True
    fallback: bool = False

    def __post_init__(self):
        m = np.asarray(self.m)
        if np.count_nonzero(m < 0):
            raise InvalidArgumentError("allocation counts must be >= 0")
        object.__setattr__(self, "m", m)

    @property
    def total(self) -> int:
        return int(self.m.sum())


def _inverse_prior(c_pj: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(c_pj)
    except np.linalg.LinAlgError:
        if np.trace(c_pj) <= 0:
            raise NumericFailureError("own position covariance is singular") from None
        try:
            return np.linalg.inv(c_pj + 1e-12 * np.eye(3))
        except np.linalg.LinAlgError:
            raise NumericFailureError(
                "own position covariance singular after regularization"
            ) from None


def predicted_covariance(problem: AllocationProblem, m) -> np.ndarray:
    """Position covariance predicted after performing the allocation m.

    C(m) = [C_pj^-1 + sum_k c_k(m_k) u_k u_k^T]^-1, with the terms added to
    the prior in link order. m is one allocation (n,), giving (3, 3), or a
    stack of them (K, n), giving (K, 3, 3); each stacked result equals the
    result for its row alone, bit for bit.
    """
    m = np.asarray(m, dtype=float)
    n = len(problem.links)
    if m.ndim not in (1, 2) or m.shape[-1] != n:
        raise InvalidArgumentError("allocation must be (n,) or (K, n) for n links")
    c = info_intensity(m, problem.xis, problem.rhos)
    lead = m.shape[:-1]
    # The prior, then one term per link, with the link axis first: a
    # reduction over the leading axis of a C-ordered array adds whole slices
    # one after another, the sequential sum.
    j = np.empty((n + 1,) + lead + (3, 3))
    j[0] = problem.prior_information
    uus = problem.uus if not lead else problem.uus[:, None]
    np.multiply(c.T[..., None, None], uus, out=j[1:])
    j = np.add.reduce(j, axis=0)
    try:
        out = np.linalg.inv(j)
    except np.linalg.LinAlgError:
        raise NumericFailureError("predicted information matrix is singular") from None
    return symmetrize(out)


def trace_increase(covariances, model: MotionModel, dt: float) -> float:
    """Total position-trace growth of the given subnetwork beliefs over dt seconds.

    Sums tr of the upper-left 3x3 block of A C A^T + Cw - C over the supplied
    (non-anchor) member covariances. Negative per-member terms are kept as-is.
    """
    a, cw = motion_matrices(model, dt)
    total = 0.0
    for c in covariances:
        c = np.asarray(c, dtype=float)
        growth = a @ c @ a.T + cw - c
        total += float(growth[:3, :3].trace())
    return total


def htna_decide(reduction: float, covariances, motion: MotionModel, dt_s: float) -> bool:
    """Activate iff the own trace `reduction`, tr(C_pj) less the proposal's
    predicted covariance trace, exceeds the trace increase over `dt_s`, the
    proposal's assumed channel access time, of the own and non-anchor
    neighbor full-state `covariances`."""
    return reduction > trace_increase(covariances, motion, dt_s)


# --- allocation solvers ------------------------------------------------------


# Stopping rule of the allocation relaxation's spectral projected gradient.
PG_MAX_ITERS = 300
PG_GAP_TOL = 1e-6  # on the Frank-Wolfe duality gap, relative to the objective


def _project_capped_simplex(x: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection onto {y >= 0, sum(y) <= budget}."""
    y = np.maximum(x, 0.0)
    if y.sum() <= budget:
        return y
    # Project onto the simplex {y >= 0, sum(y) = budget}.
    u = np.sort(x)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, len(x) + 1)
    cond = u - (css - budget) / ks > 0
    k = ks[cond][-1]
    tau = (css[k - 1] - budget) / k
    return np.maximum(x - tau, 0.0)


def _objective_and_gradient(problem: AllocationProblem, m: np.ndarray):
    c = predicted_covariance(problem, m)
    # d tr(C)/dm_i = -c'(m_i) * u_i^T C^2 u_i
    denom = 1.0 + m * problem.rhos
    dci = problem.xis / (denom * denom)
    cu = np.matmul(c, problem.us[:, :, None])[:, :, 0]  # C u_i, one matvec per link
    return float(c.trace()), -dci * np.vecdot(cu, cu)


def _pg_solve(problem: AllocationProblem, m: np.ndarray):
    """The relaxation solved from the feasible start m: (m, objective, converged)."""
    budget = float(problem.budget)
    obj, grad = _objective_and_gradient(problem, m)
    # Every gradient entry is <= 0. The first step moves the steepest count
    # by the whole budget, whatever the scale of the covariances.
    steepest = -float(grad.min())
    step = budget / steepest if steepest > 0 else 1.0
    for _ in range(PG_MAX_ITERS):
        # Frank-Wolfe duality gap: the objective is convex, so f(m) - f* <= gap
        # (the linear minimum over the capped simplex is at 0 or at a vertex).
        gap = float(grad @ m) - min(0.0, budget * float(grad.min()))
        if gap <= PG_GAP_TOL * obj:
            return m, obj, True
        d = _project_capped_simplex(m - step * grad, budget) - m
        slope = float(grad @ d)
        if slope >= 0:
            return m, obj, True
        # Armijo backtracking along d; m + a d is a convex combination of
        # feasible points, so it stays feasible.
        a = 1.0
        for _ in range(60):
            cand = m + a * d
            cand_obj, cand_grad = _objective_and_gradient(problem, cand)
            if cand_obj <= obj + 1e-4 * a * slope:
                break
            a *= 0.5
        else:
            # The objective is convex, so a fully stalled line search means the
            # iterate is stationary to float precision.
            return m, obj, True
        # Barzilai-Borwein step for the next direction.
        s = cand - m
        sy = float(s @ (cand_grad - grad))
        if sy > 0:
            step = float(s @ s) / sy
        m, obj, grad = cand, cand_obj, cand_grad
    return m, obj, False


def _round_largest_remainder(m: np.ndarray, budget: int) -> np.ndarray:
    base = np.floor(m).astype(int)
    spare = min(budget, int(round(m.sum()))) - int(base.sum())
    if spare > 0:
        order = np.argsort(-(m - base), kind="stable")
        for idx in order[:spare]:
            base[idx] += 1
    return base


def _greedy_polish(problem: AllocationProblem, m: np.ndarray):
    """Improve m by single-unit moves; returns (m, its objective).

    Each step scores its candidate moves as one stack, then takes the move
    that a scan of the candidates one at a time would take.
    """
    m = m.copy()
    n = len(m)
    current = float(predicted_covariance(problem, m).trace())
    # Fill any remaining budget with the best single units.
    while m.sum() < problem.budget:
        best, best_obj = None, current
        objs = predicted_covariance(problem, m + np.eye(n, dtype=m.dtype)).trace(axis1=1, axis2=2)
        for i, o in enumerate(objs.tolist()):
            if o < best_obj - 1e-15:
                best, best_obj = i, o
        if best is None:
            break
        m[best] += 1
        current = best_obj
    # Single-unit exchanges (one unit from link a to link b) that strictly
    # improve, in (a, b) scan order, repeated to a fixed point. After a move
    # is taken, the scan goes on from the next pair at the new m.
    src, dst = np.nonzero(~np.eye(n, dtype=bool))  # the pairs a != b, in scan order
    for _ in range(25):
        changed = False
        start = 0
        while True:
            pairs = start + np.flatnonzero(m[src[start:]] > 0)
            if not pairs.size:
                break
            rows = np.arange(pairs.size)
            cand = np.repeat(m[None], pairs.size, axis=0)
            cand[rows, src[pairs]] -= 1
            cand[rows, dst[pairs]] += 1
            objs = predicted_covariance(problem, cand).trace(axis1=1, axis2=2)
            better = np.flatnonzero(objs < current - 1e-15)
            if not better.size:
                break
            first = better[0]
            m, current, changed = cand[first], float(objs[first]), True
            start = pairs[first] + 1
        if not changed:
            break
    return m, current


def cpnp_allocate(problem: AllocationProblem, *, warm_start=None) -> AllocationResult:
    """Measurement-count allocation minimizing the predicted covariance trace.

    Solves the continuous relaxation by spectral projected gradient until its
    duality gap is within PG_GAP_TOL of the relaxed objective, from budget / n
    per link or from `warm_start` (n finite values, else InvalidArgumentError)
    projected onto the capped simplex; rounds by largest remainder under the
    budget and polishes by greedy single-unit moves. Falls back to uniform
    allocation if the relaxation does not converge in PG_MAX_ITERS iterations.
    """
    n = len(problem.links)
    if n < 1:
        raise InvalidArgumentError("allocation requires at least one link")
    start = None if warm_start is None else np.asarray(warm_start, dtype=float)
    if start is not None and (start.shape != (n,) or not np.isfinite(start).all()):
        raise InvalidArgumentError("warm start must be n finite values, one per link")
    if problem.budget == 0:
        zero = np.zeros(n, dtype=int)
        obj = float(np.trace(predicted_covariance(problem, zero)))
        return AllocationResult(zero, obj, zero.astype(float), obj, True, False)
    start = (np.full(n, float(problem.budget) / n) if start is None
             else _project_capped_simplex(start, float(problem.budget)))
    relaxed, relaxed_obj, converged = _pg_solve(problem, start)
    fallback = False
    if not converged or not np.isfinite(relaxed).all():
        per = problem.budget // n
        relaxed = np.full(n, float(per))
        relaxed[: problem.budget - per * n] += 1.0
        relaxed_obj = float(predicted_covariance(problem, relaxed).trace())
        fallback = True
    m = _round_largest_remainder(relaxed, problem.budget)
    m, obj = _greedy_polish(problem, m)
    return AllocationResult(m, obj, relaxed, relaxed_obj, converged, fallback)
