"""Tests for the sigma-point measurement update and the LS baseline.

Oracles used here:
  * closed-form Kalman filter for linear measurement maps (the unscented
    transform is exact for linear h);
  * dense grid integration of the true nonlinear posterior;
  * direct trilateration geometry for the LS estimator, and a numpy loop
    of the same gradient descent (numpy_ls_estimate) for its float loop.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coopnav.errors import EstimationFailureError, InvalidArgumentError, NumericFailureError
from coopnav.inference import (
    LS_DIVERGENCE_NORM,
    LS_MAX_ITERS,
    LS_STEP,
    LS_TOL,
    _matrix_sqrt,
    _stacked_ranges,
    _ut_weights,
    MeasurementBatch,
    MeasurementEntry,
    build_stacked_prior,
    generate_sigma_points,
    ls_estimate,
    spbp_update,
)
from coopnav.model import GaussianBelief, symmetrize
from oracles import is_psd, sigma_point_update
from test_model import assert_adopted


def random_spd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return symmetrize(scale * (a @ a.T + n * np.eye(n)))


def ls_cost(p, batch):
    """Oracle: value of the LS cost (summed squared range residuals) at p."""
    p = np.asarray(p, dtype=float)
    total = 0.0
    for e in batch.entries:
        total += (np.linalg.norm(p - e.mu_p) - e.z) ** 2
    return float(total)


class TestSigmaPoints:
    def test_count_and_weights_sum(self):
        rng = np.random.default_rng(0)
        for dim in (1, 2, 3, 6, 9):
            cov = random_spd(rng, dim)
            points = generate_sigma_points(np.zeros(dim), cov)
            _scale, wm, _wc = _ut_weights(dim)
            assert points.shape == (2 * dim + 1, dim)
            assert np.isclose(wm.sum(), 1.0)

    def test_reconstructs_mean_and_covariance(self):
        rng = np.random.default_rng(1)
        for dim in (2, 3, 6, 9):
            mean = rng.normal(size=dim)
            cov = random_spd(rng, dim)
            points = generate_sigma_points(mean, cov)
            _scale, wm, wc = _ut_weights(dim)
            rmean = wm @ points
            d = points - mean
            rcov = d.T @ (wc[:, None] * d)
            assert np.allclose(rmean, mean, atol=1e-10)
            assert np.allclose(rcov, cov, atol=1e-8)

    def test_default_scaling_keeps_spread_constant(self):
        # With kappa = 3 - L, the sigma-point spread scale L + lambda is 3:
        # each outer point weighs 1 / (2 (L + lambda)) and the centre
        # lambda / (L + lambda), with beta = 2 added for the covariance.
        for dim in (1, 3, 6, 9):
            points = generate_sigma_points(np.zeros(dim), np.eye(dim))
            _scale, wm, wc = _ut_weights(dim)
            assert np.allclose(wm[1:], 1.0 / 6.0)
            assert wm[0] == pytest.approx((3.0 - dim) / 3.0)
            assert wc[0] == pytest.approx((3.0 - dim) / 3.0 + 2.0)
            assert np.allclose(points[1 : dim + 1], np.sqrt(3.0) * np.eye(dim))

    @pytest.mark.parametrize("dim", [3, 6, 9, 12])
    def test_cached_weights_match_formula(self, dim):
        kappa = 3.0 - dim
        lam = 1.0 * 1.0 * (dim + kappa) - dim
        wm = np.full(2 * dim + 1, 0.5 / (dim + lam))
        wc = wm.copy()
        wm[0] = lam / (dim + lam)
        wc[0] = wm[0] + (1.0 - 1.0 * 1.0 + 2.0)
        for _ in range(2):  # computed, then served from the cache
            generate_sigma_points(np.zeros(dim), np.eye(dim))
            _scale, got_wm, got_wc = _ut_weights(dim)
            assert np.array_equal(got_wm, wm)
            assert np.array_equal(got_wc, wc)
            with pytest.raises(ValueError):
                got_wm[0] = 0.0

    def test_non_psd_raises_with_min_eigenvalue(self):
        cov = np.diag([1.0, -0.5])
        with pytest.raises(NumericFailureError) as err:
            generate_sigma_points(np.zeros(2), cov)
        assert err.value.min_eigenvalue == pytest.approx(-1.5, rel=1e-6)


class TestLinearExactness:
    @staticmethod
    def kalman(mean, cov, hmat, z, r):
        s = hmat @ cov @ hmat.T + r
        k = cov @ hmat.T @ np.linalg.inv(s)
        post_mean = mean + k @ (z - hmat @ mean)
        post_cov = cov - k @ s @ k.T
        return post_mean, symmetrize(post_cov)

    def test_single_linear_system(self):
        rng = np.random.default_rng(3)
        dim, mdim = 6, 2
        mean = rng.normal(size=dim)
        cov = random_spd(rng, dim)
        hmat = rng.normal(size=(mdim, dim))
        r = random_spd(rng, mdim, 0.1)
        z = rng.normal(size=mdim)
        got_mean, got_cov, _ = sigma_point_update(
            mean, cov, lambda x: hmat @ x, z, r
        )
        want_mean, want_cov = self.kalman(mean, cov, hmat, z, r)
        assert np.allclose(got_mean, want_mean, rtol=1e-9, atol=1e-9)
        assert np.allclose(got_cov, want_cov, rtol=1e-9, atol=1e-9)


class TestGridOracle:
    def test_posterior_position_matches_grid_integration(self):
        # 3-D position prior, two range measurements; integrate the true
        # posterior on a dense grid and compare first two moments.
        prior_mean = np.array([1.0, 2.0, 0.5, 0.0, 0.0, 0.0])
        prior_cov = np.diag([0.25, 0.25, 0.09, 0.01, 0.01, 0.01])
        anchors = [np.array([0.0, 0.0, 0.0]), np.array([4.0, 0.0, 1.0])]
        truth = np.array([1.2, 2.2, 0.6])
        var = 0.02**2
        zs = [float(np.linalg.norm(truth - a)) for a in anchors]

        entries = tuple(
            MeasurementEntry(i, zs[i], var, anchors[i], np.zeros((3, 3)))
            for i in range(2)
        )
        prior = GaussianBelief(prior_mean, prior_cov)
        post = spbp_update(prior, MeasurementBatch(entries))
        mu_p, c_p = post.mean[:3], post.covariance[:3, :3]

        # Grid integration oracle over the position block.
        n = 61
        axes = [
            np.linspace(prior_mean[i] - 2.0, prior_mean[i] + 2.0, n) for i in range(3)
        ]
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([gx, gy, gz], axis=-1)
        logp = np.zeros(pts.shape[:3])
        for i in range(3):
            logp -= (pts[..., i] - prior_mean[i]) ** 2 / (2 * prior_cov[i, i])
        for a, z in zip(anchors, zs):
            d = np.linalg.norm(pts - a, axis=-1)
            logp -= (d - z) ** 2 / (2 * var)
        w = np.exp(logp - logp.max())
        w /= w.sum()
        grid_mean = np.array([(w * pts[..., i]).sum() for i in range(3)])

        assert np.linalg.norm(mu_p - grid_mean) < 0.15
        assert np.all(np.diag(c_p) > 0)


def random_batch(rng, n, p_uncertain):
    """n range entries; each neighbor is an agent with a random SPD position
    covariance with probability p_uncertain, else a known anchor."""
    entries = []
    for i in range(n):
        c_p = (random_spd(rng, 3, rng.uniform(0.01, 1.0))
               if rng.random() < p_uncertain else np.zeros((3, 3)))
        entries.append(MeasurementEntry(
            i, float(rng.uniform(0.5, 15)), float(rng.uniform(1e-4, 1.0)),
            rng.uniform(-10, 10, size=3), c_p,
        ))
    return MeasurementBatch(tuple(entries))


class TestMeasurementEntry:
    """An entry rejects every input that the update or LS would turn into NaN
    or a numpy error: a range that is not finite, a variance that is not
    finite and > 0, and a neighbor belief that is not finite."""

    GOOD = {"z": 5.0, "variance": 0.01, "mu_p": np.array([3.0, 0.0, 0.0]),
            "c_p": 0.1 * np.eye(3)}

    @pytest.mark.parametrize("bad", [
        {"z": math.nan},
        {"z": math.inf},
        {"z": -math.inf},
        {"variance": math.nan},
        {"variance": math.inf},
        {"variance": 0.0},
        {"variance": -0.01},
        {"variance": -math.inf},
        *({k: v} for k in ("z", "variance") for v in ("abc", True)),
        {"mu_p": np.array([3.0, math.nan, 0.0])},
        {"mu_p": np.array([3.0, 0.0, math.inf])},
        {"c_p": np.diag([0.1, math.nan, 0.1])},
        {"c_p": np.diag([0.1, 0.1, -math.inf])},
        {"mu_p": np.zeros(2)},
        {"c_p": np.eye(2)},
        *({k: "abc"} for k in ("mu_p", "c_p")),
        *(pytest.param({k: [[1.0, 0.0], [0.0]]}, id=f"{k}=ragged") for k in ("mu_p", "c_p")),
        *({k: {"x": 1.0}} for k in ("mu_p", "c_p")),
    ], ids=lambda bad: "-".join(f"{k}={np.asarray(v).tolist()}" for k, v in bad.items()))
    def test_rejected(self, bad):
        with pytest.raises(InvalidArgumentError):
            MeasurementEntry(1, **{**self.GOOD, **bad})

    def test_accepts_finite_input(self):
        e = MeasurementEntry(1, **self.GOOD)
        assert e.z == 5.0 and np.array_equal(e.c_p, 0.1 * np.eye(3))


class TestSpbpUpdate:
    def test_batched_range_map_matches_norm_bit_for_bit(self):
        # Known neighbors enter as their constant mu_p, uncertain ones as the
        # next stacked block; every range equals np.linalg.norm bit for bit.
        rng = np.random.default_rng(12)
        for n in (1, 2, 4, 6):
            for p_uncertain in (0.0, 0.5, 1.0):
                batch = random_batch(rng, n, p_uncertain)
                blocks, k = [], 0
                for e in batch.entries:
                    known = not e.c_p.any()
                    blocks.append(None if known else slice(6 + 3 * k, 9 + 3 * k))
                    k += not known
                dim = 6 + 3 * k
                points = rng.normal(size=(2 * dim + 1, dim)) * 5.0
                got = _stacked_ranges(points, 6, batch)
                want = np.array([
                    [np.linalg.norm(x[:3] - (e.mu_p if blk is None else x[blk]))
                     for e, blk in zip(batch.entries, blocks)]
                    for x in points
                ])
                assert np.array_equal(got, want)

    def test_root_is_eigen_root(self):
        # One root policy: SPD and singular covariances both take the eigen
        # root V sqrt(D) of the symmetrized matrix, an asymmetric one too
        # (eigh alone would read one triangle), and a covariance that is not
        # PSD still raises.
        rng = np.random.default_rng(13)
        for _ in range(20):
            singular = np.zeros((9, 9))
            singular[:6, :6] = random_spd(rng, 6)
            asymmetric = random_spd(rng, 9) + 1e-6 * rng.normal(size=(9, 9))
            for c in (random_spd(rng, 9), singular, asymmetric):
                vals, vecs = np.linalg.eigh(symmetrize(3.0 * c))
                want = vecs * np.sqrt(np.clip(vals, 0.0, None))
                assert np.array_equal(_matrix_sqrt(c, 3.0), want)
        with pytest.raises(NumericFailureError) as err:
            _matrix_sqrt(np.diag([1.0, 0.0, -0.5]), 3.0)
        assert err.value.min_eigenvalue == pytest.approx(-1.5, rel=1e-6)

    def test_symmetric_root_needs_no_symmetrize(self):
        # Oracle: the eigen root of 3 c itself, with no symmetrize. For an
        # exactly symmetric c, symmetrize(3 c) is 3 c bit for bit, so inputs
        # of every kind the update stacks (SPD over a wide range of scales,
        # singular with zero blocks, all zero, rank one with eigenvalues near
        # 0 of either sign) give that root and none of them raises.
        rng = np.random.default_rng(29)
        cases = [np.zeros((6, 6)), np.diag([4.0, 0.0, 1e-30, 2.0, 0.0, 1.0])]
        for _ in range(300):
            n = int(rng.integers(1, 13))
            c = random_spd(rng, n, 10.0 ** rng.uniform(-8, 4))
            cases.append(c)
            z = np.zeros((n + 3, n + 3))
            z[:n, :n] = c
            cases.append(z)
            v = rng.normal(size=(n, 1))
            cases.append(symmetrize(v @ v.T))
        for c in cases:
            assert np.array_equal(c, c.T)
            assert np.array_equal(symmetrize(3.0 * c), 3.0 * c)
            vals, vecs = np.linalg.eigh(3.0 * c)
            want = vecs * np.sqrt(np.clip(vals, 0.0, None))
            assert np.array_equal(_matrix_sqrt(c, 3.0), want)

    def test_update_symmetrizes_its_input(self):
        # sigma_point_update takes any covariance and symmetrizes it once on
        # entry: an asymmetric input updates as its symmetrized copy.
        rng = np.random.default_rng(31)
        for _ in range(20):
            cov = random_spd(rng, 4) + 1e-12 * rng.normal(size=(4, 4))
            mean = rng.normal(size=4)
            h = lambda x: np.array([x[0] * x[1], x[2]])
            got = sigma_point_update(mean, cov, h, [0.3, 0.1], np.eye(2))
            want = sigma_point_update(mean, symmetrize(cov), h, [0.3, 0.1], np.eye(2))
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("p_uncertain", [0.0, 0.5])
    def test_matches_full_stack_update(self, p_uncertain):
        # Oracle: the generic sigma_point_update on the full stack, with each
        # anchor as a zero-covariance block and h written out with norm. With
        # kappa = 3 - L, a zero block's sigma points sit on the centre, so
        # leaving anchors out of the stack is the same estimator.
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            prior = GaussianBelief(rng.normal(size=6) * 3.0,
                                   random_spd(rng, 6, rng.uniform(0.01, 2.0)))
            batch = random_batch(rng, n, p_uncertain)
            dim = 6 + 3 * n
            mean = np.concatenate([prior.mean] + [e.mu_p for e in batch.entries])
            cov = np.zeros((dim, dim))
            cov[:6, :6] = prior.covariance
            for i, e in enumerate(batch.entries):
                cov[6 + 3 * i : 9 + 3 * i, 6 + 3 * i : 9 + 3 * i] = e.c_p

            def h(x):
                return np.array([np.linalg.norm(x[:3] - x[6 + 3 * i : 9 + 3 * i])
                                 for i in range(n)])

            want_mean, want_cov, _ = sigma_point_update(
                mean, cov, h, [e.z for e in batch.entries],
                np.diag([e.variance for e in batch.entries]),
            )
            got = spbp_update(prior, batch)
            assert np.linalg.norm(got.mean - want_mean[:6]) <= (
                1e-12 * np.linalg.norm(want_mean[:6]))
            assert np.linalg.norm(got.covariance - want_cov[:6, :6]) <= (
                1e-12 * np.linalg.norm(want_cov[:6, :6]))

    def test_empty_batch_rejected(self):
        prior = GaussianBelief(np.zeros(6), np.eye(6))
        with pytest.raises(InvalidArgumentError):
            spbp_update(prior, MeasurementBatch(()))

    @pytest.mark.parametrize("p_uncertain", [0.0, 0.5, 1.0])
    def test_adopts_copies_of_its_blocks(self, p_uncertain):
        # Anchor-only batches update the prior's own dimension; batches with
        # agent neighbours stack more, and the belief copies its blocks out.
        rng = np.random.default_rng(41)
        for _ in range(50):
            prior = GaussianBelief(rng.normal(size=6) * 3.0,
                                   random_spd(rng, 6, rng.uniform(0.01, 2.0)))
            batch = random_batch(rng, int(rng.integers(1, 6)), p_uncertain)
            assert_adopted(spbp_update(prior, batch))

    def test_nan_range_rejected(self):
        with pytest.raises(InvalidArgumentError, match="finite"):
            MeasurementEntry(1, math.nan, 0.01, np.array([3.0, 0.0, 0.0]), np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", ["abc", None, (1, 5.0, 0.01, np.zeros(3), np.zeros((3, 3)))],
                             ids=["string", "none", "fields"])
    def test_non_entry_rejected(self, bad):
        # Alone or beside a valid entry; the empty batch stays valid.
        e = MeasurementEntry(2, 5.0, 0.01, np.zeros(3), np.zeros((3, 3)))
        for entries in ((bad,), (e, bad)):
            with pytest.raises(InvalidArgumentError, match="MeasurementEntry"):
                MeasurementBatch(entries)
        assert len(MeasurementBatch(())) == 0

    def test_duplicate_neighbors_rejected(self):
        e = MeasurementEntry(1, 5.0, 0.01, np.zeros(3), np.zeros((3, 3)))
        with pytest.raises(InvalidArgumentError):
            MeasurementBatch((e, e))

    def test_stacked_prior_block_diagonal(self):
        # The own state, then only the uncertain neighbors' positions, in
        # batch order; known positions stack no block.
        rng = np.random.default_rng(4)
        prior = GaussianBelief(rng.normal(size=6), random_spd(rng, 6))
        for p_uncertain in (0.0, 0.5, 1.0):
            batch = random_batch(rng, 5, p_uncertain)
            uncertain = [e for e in batch.entries if e.c_p.any()]
            dim = 6 + 3 * len(uncertain)
            mean, cov = build_stacked_prior(prior, batch)
            assert mean.shape == (dim,) and cov.shape == (dim, dim)
            assert np.array_equal(mean[:6], prior.mean)
            assert np.allclose(cov[:6, :6], prior.covariance)
            assert np.allclose(cov[:6, 6:], 0.0)
            for i, e in enumerate(uncertain):
                blk = slice(6 + 3 * i, 9 + 3 * i)
                assert np.array_equal(mean[blk], e.mu_p)
                assert np.allclose(cov[blk, blk], e.c_p)
                assert np.allclose(np.delete(cov[blk], blk, axis=1), 0.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        prior = GaussianBelief(rng.normal(size=6), random_spd(rng, 6))
        batch = random_batch(rng, 6, 0.5)
        fwd = spbp_update(prior, batch)
        rev = spbp_update(prior, MeasurementBatch(tuple(reversed(batch.entries))))
        assert np.allclose(fwd.mean, rev.mean, atol=1e-9)
        assert np.allclose(fwd.covariance, rev.covariance, atol=1e-9)

    def test_anchor_folding_reduces_uncertainty(self):
        # Measuring a perfectly known anchor shrinks position uncertainty.
        prior = GaussianBelief(
            np.array([1.0, 1.0, 1.0, 0, 0, 0]), np.diag([1, 1, 1, 0.1, 0.1, 0.1])
        )
        anchor = np.array([4.0, 1.0, 1.0])
        z = 4.0  # prior says 3.0: clearly inconsistent, the update must correct
        e = MeasurementEntry(0, z, 0.001, anchor, np.zeros((3, 3)))
        post = spbp_update(prior, MeasurementBatch((e,)))
        assert np.trace(post.covariance[:3, :3]) < np.trace(prior.covariance[:3, :3])
        # mean moves toward satisfying the range
        d_post = abs(np.linalg.norm(post.mean[:3] - anchor) - z)
        d_prior = abs(np.linalg.norm(prior.mean[:3] - anchor) - z)
        assert d_post < d_prior

    def test_uncertain_neighbor_weakens_update(self):
        prior = GaussianBelief(
            np.array([1.0, 1.0, 1.0, 0, 0, 0]), np.diag([1, 1, 1, 0.1, 0.1, 0.1])
        )
        anchor = np.array([4.0, 1.0, 1.0])
        precise = MeasurementEntry(0, 3.1, 0.001, anchor, np.zeros((3, 3)))
        vague = MeasurementEntry(0, 3.1, 0.001, anchor, 0.5 * np.eye(3))
        t_precise = np.trace(
            spbp_update(prior, MeasurementBatch((precise,))).covariance[:3, :3]
        )
        t_vague = np.trace(
            spbp_update(prior, MeasurementBatch((vague,))).covariance[:3, :3]
        )
        assert t_precise < t_vague


def numpy_ls_estimate(prev, batch):
    """Oracle: the LS gradient descent as a numpy loop over the stacked
    ranges, whose one-range results ls_estimate must match bit for bit.
    Returns the estimate and the number of iterations taken."""
    p = np.array(prev, dtype=float)
    anchors = np.array([e.mu_p for e in batch.entries])
    zs = np.array([e.z for e in batch.entries])
    iters = 0
    for iters in range(1, LS_MAX_ITERS + 1):
        diff = p - anchors
        dists = np.sqrt(np.add.reduce(diff * diff, axis=1))
        safe = np.where(dists > 1e-12, dists, 1.0)
        resid = dists - zs
        grad = 2.0 * (resid / safe) @ diff
        if math.sqrt(grad.dot(grad)) <= LS_TOL:
            break
        p = p - LS_STEP * grad
        if math.sqrt(p.dot(p)) > LS_DIVERGENCE_NORM:
            raise EstimationFailureError("diverged")
    return p, iters


def ls_entry(i, anchor, z):
    return MeasurementEntry(i, float(z), 0.01, np.asarray(anchor, dtype=float), np.zeros((3, 3)))


class TestLsMatchesNumpyLoop:
    """ls_estimate against numpy_ls_estimate: the same bits for one range,
    which is every LS batch of a uniform-prioritization run, and agreement
    to round-off for several."""

    @staticmethod
    def assert_same_bits(start, batch):
        want, iters = numpy_ls_estimate(start, batch)
        got = ls_estimate(start, batch)
        assert got.dtype == np.float64 and got.shape == (3,)
        assert got.tobytes() == want.tobytes(), (got, want)
        return iters

    def test_one_range_stops_early(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            truth = rng.uniform(0.0, 10.0, 3)
            anchor = rng.uniform(0.0, 10.0, 3)
            z = np.linalg.norm(truth - anchor) + rng.normal(0.0, 0.1)
            start = truth + rng.normal(0.0, 0.5, 3)
            batch = MeasurementBatch((ls_entry(0, anchor, z),))
            assert self.assert_same_bits(start, batch) < LS_MAX_ITERS

    def test_one_range_runs_to_the_cap(self):
        # A negative range can never be met: the estimate swings across the
        # anchor until the iterations run out.
        rng = np.random.default_rng(15)
        for _ in range(20):
            anchor = rng.uniform(0.0, 10.0, 3)
            z = -rng.uniform(0.1, 2.0)
            start = anchor + rng.normal(0.0, 1.0, 3)
            batch = MeasurementBatch((ls_entry(0, anchor, z),))
            assert self.assert_same_bits(start, batch) == LS_MAX_ITERS

    def test_one_range_starting_on_the_anchor(self):
        # |d| <= 1e-12 takes 1 in place of the range in the weight.
        rng = np.random.default_rng(16)
        for _ in range(20):
            anchor = rng.uniform(0.0, 10.0, 3)
            batch = MeasurementBatch((ls_entry(0, anchor, rng.uniform(0.5, 5.0)),))
            self.assert_same_bits(anchor, batch)
            self.assert_same_bits(anchor + rng.uniform(-1e-13, 1e-13, 3), batch)

    def test_one_range_keeps_signed_zeros(self):
        # numpy's product w @ d gives +0.0 for a -0.0 term: x stays -0.0.
        batch = MeasurementBatch((ls_entry(0, np.zeros(3), 0.5),))
        self.assert_same_bits(np.array([-0.0, 1.0, 1.0]), batch)

    def test_one_range_divergence_raises_on_both(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            start = (LS_DIVERGENCE_NORM - rng.uniform(0.0, 1.0)) * direction
            batch = MeasurementBatch((ls_entry(0, np.zeros(3), 2.0 * LS_DIVERGENCE_NORM),))
            with pytest.raises(EstimationFailureError):
                numpy_ls_estimate(start, batch)
            with pytest.raises(EstimationFailureError):
                ls_estimate(start, batch)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_several_ranges_agree_to_round_off(self, n):
        rng = np.random.default_rng(18 + n)
        for _ in range(100):
            truth = rng.uniform(0.0, 10.0, 3)
            anchors = rng.uniform(0.0, 10.0, (n, 3))
            zs = np.linalg.norm(truth - anchors, axis=1) + rng.normal(0.0, 0.1, n)
            batch = MeasurementBatch(
                tuple(ls_entry(i, a, z) for i, (a, z) in enumerate(zip(anchors, zs)))
            )
            start = truth + rng.normal(0.0, 0.5, 3)
            want, _ = numpy_ls_estimate(start, batch)
            assert np.max(np.abs(ls_estimate(start, batch) - want)) <= 1e-12


class TestLs:
    def test_recovers_position_from_exact_ranges(self):
        truth = np.array([2.0, 3.0, 1.0])
        anchors = [
            np.array([0.0, 0.0, 0.0]),
            np.array([5.0, 0.0, 2.0]),
            np.array([0.0, 6.0, 0.5]),
            np.array([5.0, 6.0, 0.0]),  # not coplanar with the others
        ]
        entries = tuple(
            MeasurementEntry(i, float(np.linalg.norm(truth - a)), 0.01, a, np.zeros((3, 3)))
            for i, a in enumerate(anchors)
        )
        est = ls_estimate(truth + 0.5, MeasurementBatch(entries))
        assert np.linalg.norm(est - truth) < 1e-2

    def test_residual_decreases(self):
        truth = np.array([2.0, 3.0, 1.0])
        anchors = [np.array([0.0, 0.0, 0.0]), np.array([5.0, 0.0, 2.0]),
                   np.array([0.0, 6.0, 0.5])]
        entries = tuple(
            MeasurementEntry(i, float(np.linalg.norm(truth - a)), 0.01, a, np.zeros((3, 3)))
            for i, a in enumerate(anchors)
        )
        batch = MeasurementBatch(entries)
        start = truth + np.array([0.8, -0.6, 0.3])
        est = ls_estimate(start, batch)
        assert ls_cost(est, batch) < ls_cost(start, batch)

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ls_estimate(np.zeros(3), MeasurementBatch(()))


@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_posterior_covariance_psd(n, seed):
    # Anchors and agents alike: each neighbor is uncertain with probability 1/2.
    rng = np.random.default_rng(seed)
    prior = GaussianBelief(rng.normal(size=6), random_spd(rng, 6))
    post = spbp_update(prior, random_batch(rng, n, 0.5))
    assert is_psd(post)
