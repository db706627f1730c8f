"""Tests for state, belief, motion, and measurement primitives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coopnav.errors import InvalidArgumentError
from coopnav.model import (
    ERC_MAX,
    ERC_MIN,
    GaussianBelief,
    MotionModel,
    STATE_DIM,
    anchor_belief,
    measurement_variance,
    motion_matrices,
    predict_belief,
    symmetrize,
)
from oracles import is_psd, min_eigenvalue

DEFAULT_MOTION = MotionModel(0.06**2, 0.06**2, 0.02**2)


def random_spd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return scale * (a @ a.T + n * np.eye(n))


def assert_adopted(b: GaussianBelief):
    """b, as the filter builds it through GaussianBelief._adopt: read-only
    arrays that view no other array, with the bits the public constructor
    gives the same inputs."""
    ref = GaussianBelief(b.mean, b.covariance)
    for got, want in ((b.mean, ref.mean), (b.covariance, ref.covariance)):
        assert not got.flags.writeable
        assert got.base is None
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestGaussianBelief:
    def test_validates_symmetry(self):
        cov = np.eye(STATE_DIM)
        cov[0, 1] = 1e-3  # asymmetric beyond tolerance
        with pytest.raises(InvalidArgumentError):
            GaussianBelief(np.zeros(STATE_DIM), cov)

    def test_symmetrizes_small_asymmetry(self):
        cov = np.eye(STATE_DIM)
        cov[0, 1] = 1e-12
        b = GaussianBelief(np.zeros(STATE_DIM), cov)
        assert np.array_equal(b.covariance, b.covariance.T)

    def test_symmetrize_stack_is_per_matrix(self):
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(5, 3, 3))
        got = symmetrize(stack)
        for row, c in zip(got, stack):
            assert np.array_equal(row, symmetrize(c))
            assert np.array_equal(row, row.T)

    def test_arrays_read_only(self):
        b = GaussianBelief(np.zeros(STATE_DIM), np.eye(STATE_DIM))
        with pytest.raises(ValueError):
            b.mean[0] = 1.0
        with pytest.raises(ValueError):
            b.covariance[0, 0] = 2.0

    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0), (2, 4)])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_covariance_named(self, where, bad):
        # Reported as non-finite, not as asymmetric, wherever it sits.
        cov = np.eye(STATE_DIM)
        cov[where] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            GaussianBelief(np.zeros(STATE_DIM), cov)
        cov[where[::-1]] = bad  # symmetric non-finite entries
        with pytest.raises(InvalidArgumentError, match="finite"):
            GaussianBelief(np.zeros(STATE_DIM), cov)

    def test_non_finite_mean_named(self):
        with pytest.raises(InvalidArgumentError, match="finite"):
            GaussianBelief(np.array([0.0, np.nan, 0, 0, 0, 0]), np.eye(STATE_DIM))

    @pytest.mark.parametrize("bad", ["abc", [[1.0, 0.0], [0.0]], {"x": 1.0}],
                             ids=["string", "ragged", "dict"])
    def test_unconvertible_input_rejected(self, bad):
        # Input numpy cannot convert to a float array is an InvalidArgumentError too.
        with pytest.raises(InvalidArgumentError, match="belief mean"):
            GaussianBelief(bad, np.eye(STATE_DIM))
        with pytest.raises(InvalidArgumentError, match="belief covariance"):
            GaussianBelief(np.zeros(STATE_DIM), bad)

    def test_empty_mean_rejected(self):
        with pytest.raises(InvalidArgumentError, match="belief mean"):
            GaussianBelief(np.zeros(0), np.zeros((0, 0)))

    def test_psd_check(self):
        cov = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -0.5])
        b = GaussianBelief(np.zeros(STATE_DIM), cov)
        assert not is_psd(b)
        assert min_eigenvalue(b) == pytest.approx(-0.5)

    def test_anchor_belief_is_point_mass(self):
        b = anchor_belief((1.0, 2.0, 3.0))
        assert np.allclose(b.mean[:3], [1.0, 2.0, 3.0])
        assert np.allclose(b.mean[3:], 0.0)
        assert np.allclose(b.covariance, 0.0)

    @pytest.mark.parametrize("bad", ["abc", {"x": 1.0}, [1.0, 2.0], [0.0, np.nan, 0.0]],
                             ids=["string", "dict", "two-vector", "nan"])
    def test_anchor_belief_rejects_bad_position(self, bad):
        with pytest.raises(InvalidArgumentError, match="anchor position"):
            anchor_belief(bad)


class TestMotion:
    def test_transition_structure(self):
        a, cw = motion_matrices(DEFAULT_MOTION, 0.5)
        assert np.allclose(a[:3, :3], np.eye(3))
        assert np.allclose(a[:3, 3:], 0.5 * np.eye(3))
        assert np.allclose(a[3:, :3], 0.0)
        assert np.allclose(a[3:, 3:], np.eye(3))

    def test_process_noise_structure(self):
        dt = 0.25
        _, cw = motion_matrices(DEFAULT_MOTION, dt)
        cu = np.diag([0.06**2, 0.06**2, 0.02**2])
        b = np.vstack([dt * dt / 2 * np.eye(3), dt * np.eye(3)])
        assert np.allclose(cw, b @ cu @ b.T)

    def test_zero_dt_is_identity(self):
        a, cw = motion_matrices(DEFAULT_MOTION, 0.0)
        assert np.allclose(a, np.eye(STATE_DIM))
        assert np.allclose(cw, 0.0)

    def test_negative_dt_rejected(self):
        # So are a dt and driving-noise variances that are not finite numbers,
        # a True dt also once the matrices of dt 1 are cached.
        motion_matrices(DEFAULT_MOTION, 1.0)
        for dt in (-0.1, np.nan, np.inf, -np.inf, "abc", True):
            with pytest.raises(InvalidArgumentError):
                motion_matrices(DEFAULT_MOTION, dt)
        for sig in (-1.0, np.nan, np.inf, -np.inf, "abc", True):
            with pytest.raises(InvalidArgumentError):
                MotionModel(sig, 0.0, 0.0)
            with pytest.raises(InvalidArgumentError):
                MotionModel(0.0, 0.0, sig)

    @given(st.floats(0.0, 5.0, allow_nan=False),
           st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_matches_matrix_products_bit_for_bit(self, dt, sig):
        # Reference: the defining products A = [[I, dt I], [0, I]] and
        # Cw = sym(B Cu B^T) with B = [[dt^2/2 I], [dt I]].
        model = MotionModel(*sig)
        i3 = np.eye(3)
        a_ref = np.block([[i3, dt * i3], [np.zeros((3, 3)), i3]])
        b = np.vstack([0.5 * dt * dt * i3, dt * i3])
        cw_ref = symmetrize(b @ np.diag(sig) @ b.T)
        a, cw = motion_matrices(model, dt)
        assert np.array_equal(a, a_ref)
        assert np.array_equal(cw, cw_ref)

    # 0, a frame-scale time, a jittered epoch period, a tiny and a large dt
    @pytest.mark.parametrize("dt", [0.0, 0.008, 0.025 * (1.0 + 0.1 * -0.3721), 1e-9, 10.0])
    def test_memo_matches_uncached_formula_bit_for_bit(self, dt):
        motion_matrices.cache_clear()
        want_a, want_cw = motion_matrices.__wrapped__(DEFAULT_MOTION, dt)
        for model in (DEFAULT_MOTION, MotionModel(0.06**2, 0.06**2, 0.02**2)):
            a, cw = motion_matrices(model, dt)  # a miss, then hits
            assert np.array_equal(a, want_a) and np.array_equal(cw, want_cw)
            for m in (a, cw):
                with pytest.raises(ValueError):
                    m[0, 0] = 1.0
        assert motion_matrices.cache_info().hits == 1
        # A model with other noise is another key.
        _, cw = motion_matrices(MotionModel(1.0, 2.0, 3.0), dt)
        assert np.array_equal(cw, motion_matrices.__wrapped__(MotionModel(1.0, 2.0, 3.0), dt)[1])

    def test_predict_moves_mean_with_velocity(self):
        mean = np.array([0.0, 0.0, 0.0, 1.0, -2.0, 0.5])
        b = GaussianBelief(mean, np.eye(STATE_DIM))
        out = predict_belief(b, DEFAULT_MOTION, 2.0)
        assert np.allclose(out.mean[:3], [2.0, -4.0, 1.0])
        assert np.allclose(out.mean[3:], mean[3:])

    def test_predict_adopts_its_new_arrays(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            prior = GaussianBelief(rng.normal(size=STATE_DIM) * 5.0,
                                   random_spd(rng, STATE_DIM, 10.0 ** rng.uniform(-6, 2)))
            dt = float(rng.choice([0.0, 0.025, rng.uniform(0.0, 3.0)]))
            assert_adopted(predict_belief(prior, DEFAULT_MOTION, dt))

    def test_predict_overflow_rejected(self):
        prior = GaussianBelief(np.zeros(STATE_DIM), 1e307 * np.eye(STATE_DIM))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidArgumentError, match="finite"):
                predict_belief(prior, DEFAULT_MOTION, 1e3)

    def test_predict_matches_monte_carlo(self):
        # Oracle: propagate samples through the linear model directly.
        rng = np.random.default_rng(7)
        mean = rng.normal(size=STATE_DIM)
        cov = random_spd(rng, STATE_DIM, 0.3)
        belief = GaussianBelief(mean, symmetrize(cov))
        dt = 0.7
        out = predict_belief(belief, DEFAULT_MOTION, dt)

        n = 400_000
        xs = rng.multivariate_normal(mean, symmetrize(cov), size=n)
        a, cw = motion_matrices(DEFAULT_MOTION, dt)
        accel = rng.multivariate_normal(
            np.zeros(3), np.diag([0.06**2, 0.06**2, 0.02**2]), size=n
        )
        bmat = np.vstack([dt * dt / 2 * np.eye(3), dt * np.eye(3)])
        ys = xs @ a.T + accel @ bmat.T
        assert np.allclose(out.mean, ys.mean(axis=0), atol=0.02)
        assert np.allclose(out.covariance, np.cov(ys.T), atol=0.05)


class TestMeasurement:
    def test_variance_is_reciprocal_in_count_and_quality(self):
        assert measurement_variance(4, 100.0) == pytest.approx(1 / 400)
        assert measurement_variance(1, 16.0) == pytest.approx(1 / 16)

    def test_variance_rejects_bad_inputs(self):
        for m in (0, 2.5, np.nan, np.inf, -np.inf, "abc", True):
            with pytest.raises(InvalidArgumentError):
                measurement_variance(m, 100.0)
        for xi in (0.0, np.nan, np.inf, -np.inf, "abc", True):
            with pytest.raises(InvalidArgumentError):
                measurement_variance(4, xi)

    def test_erc_bounds(self):
        assert ERC_MIN == 16.0
        assert ERC_MAX == 100.0


@given(
    dt=st.floats(min_value=0.0, max_value=10.0),
    vx=st.floats(-5, 5), vy=st.floats(-5, 5), vz=st.floats(-5, 5),
)
@settings(max_examples=200)
def test_prediction_preserves_velocity_and_grows_covariance(dt, vx, vy, vz):
    mean = np.array([0.0, 0.0, 0.0, vx, vy, vz])
    b = GaussianBelief(mean, np.eye(STATE_DIM))
    out = predict_belief(b, DEFAULT_MOTION, dt)
    assert np.allclose(out.mean[3:], [vx, vy, vz])
    # trace never decreases under prediction from an identity covariance
    assert np.trace(out.covariance) >= np.trace(b.covariance) - 1e-12


@given(st.integers(1, 50), st.floats(16.0, 100.0))
@settings(max_examples=200)
def test_variance_monotone_in_count(m, xi):
    assert measurement_variance(m + 1, xi) < measurement_variance(m, xi)
