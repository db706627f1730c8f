"""Tests for activation / allocation mathematics.

Oracles: mpmath high-precision matrix inversion for the predicted covariance,
exhaustive enumeration for integer allocations, and the one-allocation-at-a-
time forms of the batched solver steps, which it must match bit for bit.
"""

import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coopnav import operation
from coopnav.config import bundled_scenario_path, load_scenario
from coopnav.errors import DegenerateGeometryError, InvalidArgumentError
from coopnav.model import GaussianBelief, MotionModel, symmetrize
from coopnav.operation import (
    AllocationProblem,
    LinkInfo,
    cpnp_allocate,
    htna_decide,
    info_intensity,
    predicted_covariance,
    trace_increase,
    unit_direction,
)
from coopnav.simkernel import run
from oracles import brute_force_allocate

MOTION = MotionModel(0.06**2, 0.06**2, 0.02**2)


def random_links(rng, n, anchor_frac=0.5):
    links = []
    for i in range(n):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        xi = float(rng.uniform(16, 100))
        if rng.random() < anchor_frac:
            c = np.zeros((3, 3))
        else:
            a = rng.normal(size=(3, 3)) * 0.3
            c = a @ a.T
        links.append(LinkInfo(i, u, xi, c))
    return tuple(links)


def random_cov(rng, scale=1.0):
    a = rng.normal(size=(3, 3))
    return scale * (a @ a.T + 3 * np.eye(3))


def random_spd6(rng):
    a = rng.normal(size=(6, 6)) * 0.3
    return a @ a.T + 0.01 * np.eye(6)


def reduction(problem, m):
    """Oracle: trace reduction of the own position covariance under m."""
    return float(problem.c_pj.trace() - predicted_covariance(problem, m).trace())


def link_rho(link):
    """rho = xi u^T C_pk u of one link, exactly 0 for an anchor."""
    return float(link.xi * link.u @ link.c_pk @ link.u) if link.c_pk.any() else 0.0


def scalar_covariance(problem, m):
    """Oracle: the predicted covariance of one allocation, adding one link
    term at a time to the prior information."""
    j = problem.prior_information
    for mk, link in zip(np.asarray(m, dtype=float).tolist(), problem.links):
        c = mk * link.xi / (1.0 + mk * link_rho(link))
        j = j + c * (link.u[:, None] * link.u)
    return symmetrize(np.linalg.inv(j))


def scalar_objective_and_gradient(problem, m):
    """Oracle: the relaxation's objective and its gradient, link by link."""
    c = scalar_covariance(problem, m)
    grad = np.empty(len(problem.links))
    for i, link in enumerate(problem.links):
        # d tr(C)/dm_i = -c'(m_i) * u^T C^2 u
        denom = 1.0 + m[i] * link_rho(link)
        dci = link.xi / (denom * denom)
        cu = c @ link.u
        grad[i] = -dci * float(cu @ cu)
    return float(c.trace()), grad


def scalar_greedy_polish(problem, m):
    """Oracle: the greedy single-unit polish, one candidate at a time."""
    m = m.copy()
    n = len(m)

    def obj(v):
        return float(scalar_covariance(problem, v).trace())

    current = obj(m)
    while m.sum() < problem.budget:
        best, best_obj = None, current
        for i in range(n):
            m[i] += 1
            o = obj(m)
            m[i] -= 1
            if o < best_obj - 1e-15:
                best, best_obj = i, o
        if best is None:
            break
        m[best] += 1
        current = best_obj
    for _ in range(25):
        changed = False
        for a in range(n):
            for b in range(n):
                if a == b or m[a] == 0:
                    continue
                m[a] -= 1
                m[b] += 1
                o = obj(m)
                if o < current - 1e-15:
                    current = o
                    changed = True
                else:
                    m[a] += 1
                    m[b] -= 1
        if not changed:
            break
    return m, current


def scalar_allocate(problem, warm_start=None):
    """Oracle: cpnp_allocate with every batched step in its scalar form."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operation, "predicted_covariance", scalar_covariance)
        mp.setattr(operation, "_objective_and_gradient", scalar_objective_and_gradient)
        mp.setattr(operation, "_greedy_polish", scalar_greedy_polish)
        return cpnp_allocate(problem, warm_start=warm_start)


class TestDirections:
    def test_unit_direction(self):
        u = unit_direction([0, 0, 0], [3, 0, 4])
        assert np.allclose(u, [0.6, 0.0, 0.8])

    def test_coincident_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            unit_direction([1, 2, 3], [1, 2, 3])

    def test_non_unit_link_rejected(self):
        with pytest.raises(InvalidArgumentError):
            LinkInfo(0, np.array([1.0, 1.0, 0.0]), 50.0, np.zeros((3, 3)))


def _allocate(u=(1.0, 0.0, 0.0), xi=50.0, c_pk=np.zeros((3, 3)), c_pj=np.eye(3), budget=4,
              extra=()):
    """cpnp_allocate of a two-link problem, its first link built from these
    inputs and its second an anchor along y, followed by the `extra` links."""
    links = (LinkInfo(0, u, xi, c_pk),
             LinkInfo(1, np.array([0.0, 1.0, 0.0]), 50.0, np.zeros((3, 3))), *extra)
    return cpnp_allocate(AllocationProblem(c_pj, links, budget))


class TestMalformedInputs:
    """LinkInfo and AllocationProblem reject every input the solver cannot
    use with InvalidArgumentError, instead of a numpy error, an IndexError
    deep in the solver, or an allocation over the budget."""

    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize("bad", [
        {"xi": NAN},
        {"xi": INF},
        {"u": (NAN, 0.0, 0.0)},
        {"u": (1.0, 0.0)},
        {"c_pk": np.diag([0.1, NAN, 0.1])},
        {"c_pk": np.diag([0.1, INF, 0.1])},
        {"c_pk": np.zeros((2, 2))},
        {"c_pj": np.diag([1.0, NAN, 1.0])},
        {"c_pj": np.ones((2, 3))},
        {"c_pj": np.ones(3)},
        {"budget": 2.5},
        {"budget": True},
        {"xi": -INF},
        *({"xi": v} for v in ("abc", True)),
        *({"budget": v} for v in ("abc", NAN, INF, -INF)),
        # A link that is not a LinkInfo, such as the tuple of its fields.
        *(pytest.param({"extra": (link,)}, id=f"extra={name}") for name, link in (
            ("string", "abc"), ("none", None),
            ("fields", (2, np.array([0.0, 0.0, 1.0]), 50.0, np.zeros((3, 3)))))),
        *({k: "abc"} for k in ("u", "c_pk", "c_pj")),
        *(pytest.param({k: [[1.0, 0.0], [0.0]]}, id=f"{k}=ragged")
          for k in ("u", "c_pk", "c_pj")),
        *({k: {"x": 1.0}} for k in ("u", "c_pk", "c_pj")),
    ], ids=lambda bad: "-".join(f"{k}={np.asarray(v).tolist()}" for k, v in bad.items()))
    def test_rejected(self, bad):
        with pytest.raises(InvalidArgumentError):
            _allocate(**bad)

    def test_integer_budgets_accepted(self):
        for budget in (0, 3, np.int64(3), np.uint8(3)):
            assert _allocate(budget=budget).total == budget


class TestLinkInfoCopies:
    """LinkInfo keeps read-only copies of u and c_pk, so nothing the caller
    does to its arrays afterwards reaches the link."""

    def test_copies_writeable_array(self):
        u = unit_direction(np.zeros(3), np.array([3.0, 0.0, 4.0]))
        c = np.arange(9.0).reshape(3, 3)
        link = LinkInfo(0, u, 50.0, c)
        u[0], c[0, 0] = 1.0, 7.0
        assert np.array_equal(link.u, [0.6, 0.0, 0.8]) and link.c_pk[0, 0] == 0.0
        for x in (link.u, link.c_pk):
            with pytest.raises(ValueError):
                x[0] = 1.0

    def test_copies_read_only_view_of_writeable_array(self):
        a = np.arange(36.0).reshape(6, 6)
        v = a[:3, :3]
        v.setflags(write=False)
        link = LinkInfo(0, np.array([1.0, 0.0, 0.0]), 50.0, v)
        a[0, 0] = 7.0  # the view changes; the link's copy does not
        assert v[0, 0] == 7.0 and link.c_pk[0, 0] == 0.0

    def test_copies_belief_view(self):
        b = GaussianBelief(np.zeros(6), np.eye(6))
        link = LinkInfo(0, unit_direction(np.zeros(3), np.ones(3)), 50.0,
                        b.covariance[:3, :3])
        assert np.array_equal(link.c_pk, np.eye(3))
        assert not np.shares_memory(link.c_pk, b.covariance)
        assert not link.c_pk.flags.writeable

    def test_converts_other_inputs(self):
        i = np.array([0, 1, 0])
        i.setflags(write=False)
        for x in ([1, 0, 0], i, np.float32([0, 0, 1])):
            link = LinkInfo(0, x, 50.0, np.zeros((3, 3), dtype=int))
            for a in (link.u, link.c_pk):
                assert a.dtype == np.float64 and not a.flags.writeable
            assert np.array_equal(link.u, x)


def link_constants(link):
    """(xi, rho) of one link, as the allocation problem derives them."""
    problem = AllocationProblem(np.eye(3), (link,), 0)
    return problem.xis[0], problem.rhos[0]


class TestInfoIntensity:
    def test_anchor_is_linear_in_count(self):
        link = LinkInfo(0, np.array([1.0, 0, 0]), 80.0, np.zeros((3, 3)))
        assert info_intensity(4, *link_constants(link)) == pytest.approx(320.0)
        assert info_intensity(0, *link_constants(link)) == 0.0

    def test_uncertain_neighbor_saturates(self):
        c = 0.5 * np.eye(3)
        link = LinkInfo(0, np.array([1.0, 0, 0]), 80.0, c)
        # c(m) = m xi / (1 + m xi u^T C u) -> 1 / (u^T C u) as m -> inf
        assert info_intensity(1e9, *link_constants(link)) == pytest.approx(1 / 0.5, rel=1e-6)

    @given(st.floats(0.0, 50.0), st.floats(16.0, 100.0), st.floats(0.0, 2.0))
    @settings(max_examples=300)
    def test_monotone_nondecreasing_in_count(self, m, xi, cvar):
        link = LinkInfo(0, np.array([0.0, 1.0, 0.0]), xi, cvar * np.eye(3))
        xi, rho = link_constants(link)
        assert info_intensity(m + 0.5, xi, rho) >= info_intensity(m, xi, rho) - 1e-12

    def test_elementwise_on_arrays(self):
        rng = np.random.default_rng(20)
        links = random_links(rng, 5)
        problem = AllocationProblem(np.eye(3), links, 0)
        m = rng.uniform(0, 6, size=(4, 5))
        got = info_intensity(m, problem.xis, problem.rhos)
        for k in range(4):
            for i, link in enumerate(links):
                assert got[k, i] == info_intensity(m[k, i], *link_constants(link))


class TestPredictedCovariance:
    def test_matches_quad_precision_inverse(self):
        # Oracle: form the information sum and invert at 50-digit precision.
        rng = np.random.default_rng(10)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            links = random_links(rng, n)
            c_pj = random_cov(rng, 0.5)
            m = rng.integers(0, 8, size=n).astype(float)
            problem = AllocationProblem(c_pj, links, 20)
            got = predicted_covariance(problem, m)

            with mpmath.workdps(50):
                j = mpmath.matrix(c_pj.tolist()) ** -1
                cs = info_intensity(m, problem.xis, problem.rhos)
                for c, link in zip(cs.tolist(), links):
                    u = mpmath.matrix(link.u.tolist())
                    j += c * (u * u.T)
                want = np.array((j**-1).tolist(), dtype=float)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_matches_defining_formula_bit_for_bit(self):
        # Reference: the defining sum evaluated afresh, with rho and u u^T
        # recomputed from the link every time, and the prior information
        # cached on the problem reused across allocations. Every row of a
        # stacked call equals the call on that row alone.
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            links = random_links(rng, n)
            problem = AllocationProblem(random_cov(rng), links, 20)
            allocations = [rng.integers(0, 6, size=n).astype(float) for _ in range(3)]
            stacked = predicted_covariance(problem, np.array(allocations))
            for m, row in zip(allocations, stacked):
                j = np.linalg.inv(problem.c_pj)
                for mk, link in zip(m, links):
                    rho = float(link.xi * link.u @ link.c_pk @ link.u)
                    c = mk * link.xi / (1.0 + mk * rho)
                    j = j + c * np.outer(link.u, link.u)
                want = symmetrize(np.linalg.inv(j))
                assert np.array_equal(predicted_covariance(problem, m), want)
                assert np.array_equal(row, want)

    @pytest.mark.parametrize(
        "m",
        [
            [1.0, -1.0, 0.0],  # a negative count
            [[1.0, 0.0, 2.0], [0.0, 3.0, -0.5]],  # one in a stack
            [1.0, 2.0],  # too few links
            [[1.0, 2.0, 3.0, 4.0]],  # too many links in a stack
            [[[1.0, 2.0, 3.0]]],  # ndim > 2
            2.0,  # a scalar
        ],
    )
    def test_invalid_allocation_rejected(self, m):
        rng = np.random.default_rng(22)
        problem = AllocationProblem(random_cov(rng), random_links(rng, 3), 20)
        with pytest.raises(InvalidArgumentError):
            predicted_covariance(problem, m)

    def test_matches_scalar_oracle_bit_for_bit(self):
        # More links than the stacks in the solver ever hold, fractional
        # counts as in the relaxation, and the gradient built on them.
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            problem = AllocationProblem(random_cov(rng), random_links(rng, n), 20)
            stack = rng.uniform(0, 8, size=(int(rng.integers(1, 10)), n))
            stacked = predicted_covariance(problem, stack)
            for m, row in zip(stack, stacked):
                want = scalar_covariance(problem, m)
                assert np.array_equal(row, want)
                assert np.array_equal(predicted_covariance(problem, m), want)
                obj, grad = operation._objective_and_gradient(problem, m)
                want_obj, want_grad = scalar_objective_and_gradient(problem, m)
                assert obj == want_obj
                assert np.array_equal(grad, want_grad)

    def test_zero_allocation_returns_prior(self):
        rng = np.random.default_rng(11)
        c_pj = random_cov(rng)
        problem = AllocationProblem(c_pj, random_links(rng, 3), 10)
        out = predicted_covariance(problem, np.zeros(3))
        assert np.allclose(out, (c_pj + c_pj.T) / 2, atol=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_trace_reduction_monotone_in_budget_use(self, seed):
        rng = np.random.default_rng(seed)
        links = random_links(rng, 3)
        problem = AllocationProblem(random_cov(rng), links, 30)
        m = rng.integers(0, 5, size=3).astype(float)
        r0 = reduction(problem, m)
        bump = m.copy()
        bump[int(rng.integers(3))] += 1
        assert reduction(problem, bump) >= r0 - 1e-9
        assert r0 >= -1e-9  # measurements never hurt


class TestTraceIncrease:
    def test_negative_dt_rejected(self):
        with pytest.raises(InvalidArgumentError):
            trace_increase([np.eye(6)], MOTION, -0.1)

    def test_zero_dt_zero_growth(self):
        rng = np.random.default_rng(12)
        covs = [np.diag([1.0, 1, 1, 0.1, 0.1, 0.1])]
        assert trace_increase(covs, MOTION, 0.0) == pytest.approx(0.0)

    def test_growth_from_velocity_uncertainty(self):
        cov = np.diag([0.0, 0, 0, 1.0, 1.0, 1.0])
        dt = 0.5
        got = trace_increase([cov], MOTION, dt)
        # position block of A C A^T grows by dt^2 per unit velocity variance,
        # plus the driving-noise contribution
        want = 3 * dt * dt + (dt * dt / 2) ** 2 * (2 * 0.06**2 + 0.02**2)
        assert got == pytest.approx(want, rel=1e-9)

    def test_sums_over_members(self):
        cov = np.diag([0.0, 0, 0, 1.0, 1.0, 1.0])
        one = trace_increase([cov], MOTION, 0.3)
        three = trace_increase([cov, cov, cov], MOTION, 0.3)
        assert three == pytest.approx(3 * one)


class TestHtna:
    def _problem(self, xi=100.0):
        links = (
            LinkInfo(0, np.array([1.0, 0, 0]), xi, np.zeros((3, 3))),
            LinkInfo(1, np.array([0.0, 1, 0]), xi, np.zeros((3, 3))),
        )
        return AllocationProblem(np.eye(3), links, 8)

    def test_activates_when_uncertain(self):
        gain = reduction(self._problem(), np.array([4, 4]))
        covs = (np.diag([1.0, 1, 1, 0.01, 0.01, 0.01]),)
        assert htna_decide(gain, covs, MOTION, 0.008)

    def test_stays_silent_when_converged(self):
        links = (
            LinkInfo(0, np.array([1.0, 0, 0]), 100.0, np.zeros((3, 3))),
            LinkInfo(1, np.array([0.0, 1, 0]), 100.0, np.zeros((3, 3))),
        )
        tiny = 1e-6 * np.eye(3)
        gain = reduction(AllocationProblem(tiny, links, 8), np.array([4, 4]))
        # large subnetwork cost: three members with big velocity uncertainty
        big = np.diag([1.0, 1, 1, 4.0, 4.0, 4.0])
        assert not htna_decide(gain, (big, big, big), MOTION, 0.05)

    def test_threshold_flips_with_access_time(self):
        # sweep the assumed channel-access time until the decision flips
        gain = reduction(self._problem(), np.array([4, 4]))
        covs = (np.diag([0.01, 0.01, 0.01, 1.0, 1.0, 1.0]),) * 3
        decisions = [
            htna_decide(gain, covs, MOTION, dt)
            for dt in (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
        ]
        assert decisions[0] and not decisions[-1]
        # monotone: once silent, stays silent as cost grows
        first_false = decisions.index(False)
        assert all(not d for d in decisions[first_false:])

    def test_reduction_is_trace_reduction(self):
        # The gate reads the reduction off the proposal's objective,
        # tr(C_pj) - objective; it must decide exactly as a comparison
        # against the recomputed reduction does.
        rng = np.random.default_rng(18)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            problem = AllocationProblem(random_cov(rng, 0.2), random_links(rng, n), 8)
            proposal = cpnp_allocate(problem)
            covs = (random_spd6(rng),) * int(rng.integers(1, 4))
            dt = float(10.0 ** rng.uniform(-2, 1))  # both decisions occur
            want = reduction(problem, proposal.m) > trace_increase(covs, MOTION, dt)
            gain = float(problem.c_pj.trace() - proposal.objective)
            assert htna_decide(gain, covs, MOTION, dt) == want


# Own-covariance scales for random_cov: traces of about 9, 2e-2 and 2e-3 m^2,
# the last the simulator's. Each comes with the slack of its lower-bound check,
# relative to the relaxed objective. The relaxation is certified only to within
# PG_GAP_TOL of its optimum, so at a vertex optimum, where the rounded
# allocation attains it, the relaxed objective may sit that far above. At the
# small scales that exceeds 1e-9 on about 1 problem in 1,000.
OWN_SCALES = pytest.mark.parametrize(
    "scale, slack",
    [(0.5, 0.0), (1e-3, operation.PG_GAP_TOL), (1e-4, operation.PG_GAP_TOL)],
    ids=["0.5", "0.001", "0.0001"],
)


class TestAllocation:
    @OWN_SCALES
    def test_matches_brute_force_on_small_instances(self, scale, slack):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            problem = AllocationProblem(
                random_cov(rng, scale), random_links(rng, n), int(rng.integers(2, 9))
            )
            bf = brute_force_allocate(problem)
            cp = cpnp_allocate(problem)
            assert cp.objective <= bf.objective * 1.05 + 1e-12
            # the relaxation lower-bounds the integer optimum
            assert cp.relaxed_objective <= bf.objective + 1e-9 + slack * cp.relaxed_objective

    def test_objective_is_trace_of_allocation(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            problem = AllocationProblem(
                random_cov(rng), random_links(rng, n), int(rng.integers(0, 15))
            )
            res = cpnp_allocate(problem)
            assert res.objective == float(predicted_covariance(problem, res.m).trace())

    def test_budget_respected(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            budget = int(rng.integers(0, 15))
            problem = AllocationProblem(random_cov(rng), random_links(rng, n), budget)
            res = cpnp_allocate(problem)
            assert res.total <= budget
            assert np.all(res.m >= 0)

    def test_prefers_high_quality_redundant_link(self):
        # two links along the same axis: all budget goes to the better one
        links = (
            LinkInfo(0, np.array([1.0, 0, 0]), 100.0, np.zeros((3, 3))),
            LinkInfo(1, np.array([-1.0, 0, 0]), 16.0, np.zeros((3, 3))),
        )
        problem = AllocationProblem(np.eye(3), links, 6)
        res = cpnp_allocate(problem)
        assert res.m[0] > res.m[1]

    def test_zero_budget(self):
        rng = np.random.default_rng(15)
        problem = AllocationProblem(random_cov(rng), random_links(rng, 3), 0)
        res = cpnp_allocate(problem)
        assert res.total == 0 and res.converged

    def test_no_links_rejected(self):
        with pytest.raises(InvalidArgumentError):
            cpnp_allocate(AllocationProblem(np.eye(3), (), 5))

    def test_brute_force_limits(self):
        rng = np.random.default_rng(16)
        with pytest.raises(InvalidArgumentError):
            brute_force_allocate(
                AllocationProblem(np.eye(3), random_links(rng, 6), 5)
            )
        with pytest.raises(InvalidArgumentError):
            brute_force_allocate(
                AllocationProblem(np.eye(3), random_links(rng, 2), 11)
            )

    def test_warm_start_consistent(self):
        rng = np.random.default_rng(17)
        problem = AllocationProblem(random_cov(rng), random_links(rng, 4), 10)
        cold = cpnp_allocate(problem)
        warm = cpnp_allocate(problem, warm_start=np.asarray(cold.relaxed_m))
        assert warm.objective <= cold.objective + 1e-9

    def test_warm_start_list_matches_array(self):
        # Any array-like of n finite values is a warm start, with the bits
        # of the equal float array.
        rng = np.random.default_rng(18)
        problem = AllocationProblem(random_cov(rng), random_links(rng, 4), 10)
        for warm in ([3.0, 0.5, 4.0, 2.5], (3, 0, 4, 2), [0.0, 0.0, 0.0, 20.0]):
            got = cpnp_allocate(problem, warm_start=warm)
            want = cpnp_allocate(problem, warm_start=np.array(warm, dtype=float))
            for f in dataclasses.fields(got):
                x, y = getattr(got, f.name), getattr(want, f.name)
                if isinstance(x, np.ndarray):
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
                else:
                    assert type(x) is type(y) and x == y

    @pytest.mark.parametrize("budget", [0, 10])
    @pytest.mark.parametrize("warm", [
        [1.0, np.nan, 2.0, 3.0],
        [1.0, np.inf, 2.0, 3.0],
        [1.0, -np.inf, 2.0, 3.0],
        [1.0, 2.0, 3.0],
        [1.0, 2.0, 3.0, 4.0, 5.0],
        [[1.0, 2.0, 3.0, 4.0]],
        [[1.0], [2.0], [3.0], [4.0]],
        "abcd",
        np.array([[1.0, 2.0], [3.0, 4.0, 5.0]], dtype=object),  # ragged
        {"a": 1.0},
    ], ids=["nan", "inf", "-inf", "short", "long", "row", "column", "string", "ragged", "dict"])
    def test_malformed_warm_start_rejected(self, warm, budget):
        # Checked before the budget-0 return, so every budget rejects it.
        rng = np.random.default_rng(18)
        problem = AllocationProblem(random_cov(rng), random_links(rng, 4), budget)
        with pytest.raises(InvalidArgumentError):
            cpnp_allocate(problem, warm_start=np.array(warm))

    def test_matches_scalar_solver_bit_for_bit(self):
        # Seeded random problems: anchor and agent links, budgets from 0,
        # cold and warm starts; every field equals the scalar oracle's.
        rng = np.random.default_rng(24)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            budget = int(rng.integers(0, 15))
            problem = AllocationProblem(
                random_cov(rng, float(10.0 ** rng.uniform(-2, 1))),
                random_links(rng, n),
                budget,
            )
            warm = rng.uniform(0, budget + 1, size=n) if rng.random() < 0.5 else None
            got = cpnp_allocate(problem, warm_start=warm)
            want = scalar_allocate(problem, warm_start=warm)
            assert np.array_equal(got.m, want.m) and got.m.dtype == want.m.dtype
            assert got.objective == want.objective
            assert np.array_equal(got.relaxed_m, want.relaxed_m)
            assert got.relaxed_objective == want.relaxed_objective
            assert got.converged == want.converged
            assert got.fallback == want.fallback

    def test_relaxation_meets_its_gap_certificate(self):
        # Seeded random problems: own-covariance scales 1e-4 to 10, anchor and
        # agent links, cold and warm starts. The duality gap is recomputed
        # from relaxed_m with the scalar oracle.
        rng = np.random.default_rng(26)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            budget = int(rng.integers(1, 15))
            anchor_only = rng.random() < 0.3
            problem = AllocationProblem(
                random_cov(rng, float(10.0 ** rng.uniform(-4, 1))),
                random_links(rng, n, 1.0 if anchor_only else 0.5),
                budget,
            )
            warm = rng.uniform(0, budget + 1, size=n) if rng.random() < 0.5 else None
            res = cpnp_allocate(problem, warm_start=warm)
            # Every problem of the bundled scenarios has anchor links only.
            assert not (anchor_only and res.fallback)
            if res.fallback:
                continue
            m = res.relaxed_m
            _, grad = scalar_objective_and_gradient(problem, m)
            gap = float(grad @ m) - min(0.0, budget * float(grad.min()))
            assert gap <= operation.PG_GAP_TOL * res.relaxed_objective
            assert (m >= 0).all() and m.sum() <= budget * (1 + 1e-12)

    @pytest.mark.parametrize(
        "name, acronym", [("multi_floor", "BP-HT-CP"), ("prioritization_multipath", None)]
    )
    def test_relaxation_bounds_simulator_allocations(self, name, acronym, monkeypatch):
        # The simulator's own problems, where tr C is about 1e-3 m^2.
        results = []
        allocate = operation.cpnp_allocate

        def recording(problem, **kw):
            results.append(allocate(problem, **kw))
            return results[-1]

        monkeypatch.setattr(operation, "cpnp_allocate", recording)
        scen = load_scenario(bundled_scenario_path(name))
        if acronym is not None:
            scen = scen.with_algorithms(acronym)
        run(dataclasses.replace(scen, duration_s=min(scen.duration_s, 5.0)), seed=1)
        assert results
        for res in results:
            assert not res.fallback
            assert res.relaxed_objective <= res.objective + 1e-9

    def test_polish_matches_scalar_oracle_from_any_start(self):
        # Starts far from the rounded relaxation, so that the fill step and
        # long chains of exchanges both run.
        rng = np.random.default_rng(25)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            budget = int(rng.integers(0, 15))
            problem = AllocationProblem(random_cov(rng), random_links(rng, n), budget)
            m = np.zeros(n, dtype=int)
            m[int(rng.integers(n))] = int(rng.integers(0, budget + 1))
            got_m, got_obj = operation._greedy_polish(problem, m)
            want_m, want_obj = scalar_greedy_polish(problem, m)
            assert np.array_equal(got_m, want_m) and got_obj == want_obj

    @OWN_SCALES
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_integer_solution_never_beats_relaxation(self, scale, slack, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        problem = AllocationProblem(
            random_cov(rng, scale), random_links(rng, n), int(rng.integers(1, 10))
        )
        res = cpnp_allocate(problem)
        if not res.fallback:
            assert res.relaxed_objective <= res.objective + 1e-9 + slack * res.relaxed_objective
