import math

import numpy as np
import pytest
from scipy.integrate import quad

from proxflow import (
    DimensionError,
    Gaussian,
    NumericFailure,
    SingularityError,
    SpdMatrix,
    ValidationError,
    energy_quadratic,
    free_energy,
    grad_w2_cross,
    inv_spd,
    kl_gaussian,
    neg_entropy,
    phi_expectation,
    trace_projection,
    transport_map,
    w2_gaussian,
)
from proxflow.matrices import max_abs
from support import random_spd

LOG_2PI = math.log(2.0 * math.pi)


def scalar_gaussian(mu, p):
    return Gaussian([mu], SpdMatrix(p))


class TestW2:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(1)
        g = Gaussian(rng.normal(size=3), random_spd(rng, 3))
        assert w2_gaussian(g, g) == pytest.approx(0.0, abs=1e-7)

    def test_pure_translation(self):
        assert w2_gaussian(scalar_gaussian(0, 1), scalar_gaussian(3, 1)) == pytest.approx(3.0)

    def test_scalar_spread(self):
        # (sigma1 - sigma2)^2 = (1 - 2)^2 = 1
        assert w2_gaussian(scalar_gaussian(0, 1), scalar_gaussian(0, 4)) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            w2_gaussian(scalar_gaussian(0, 1), Gaussian([0, 0], SpdMatrix(np.eye(2))))

    def test_metric_on_random_triples(self):
        rng = np.random.default_rng(2)
        for trial in range(300):
            n = 1 + trial % 3
            gs = [Gaussian(rng.normal(size=n), random_spd(rng, n)) for _ in range(3)]
            d01 = w2_gaussian(gs[0], gs[1])
            d10 = w2_gaussian(gs[1], gs[0])
            d12 = w2_gaussian(gs[1], gs[2])
            d02 = w2_gaussian(gs[0], gs[2])
            assert d01 >= 0.0
            assert d01 == pytest.approx(d10, abs=1e-9)
            assert d02 <= d01 + d12 + 1e-9


class TestTransportMap:
    def test_identity_map(self):
        rng = np.random.default_rng(3)
        g = Gaussian(rng.normal(size=2), random_spd(rng, 2))
        t = transport_map(g, g)
        assert max_abs(t.linear - np.eye(2)) < 1e-10
        assert max_abs(t.offset) < 1e-10

    def test_scalar_algebra(self):
        t = transport_map(scalar_gaussian(0, 1), scalar_gaussian(1, 4))
        assert t.linear[0, 0] == pytest.approx(2.0)
        assert t.offset[0] == pytest.approx(1.0)

    def test_pushforward_and_cost_3d(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g0 = Gaussian(rng.normal(size=3), random_spd(rng, 3))
            g1 = Gaussian(rng.normal(size=3), random_spd(rng, 3))
            t = transport_map(g0, g1)
            assert max_abs(t(g0.mean) - g1.mean) < 1e-10
            assert max_abs(t.linear @ g0.cov.mat @ t.linear.T - g1.cov.mat) < 1e-10
            # E|x - T(x)|^2 under g0, closed moment form, equals w2^2
            eye = np.eye(3)
            shift = (eye - t.linear) @ g0.mean - t.offset
            spread = (eye - t.linear) @ g0.cov.mat @ (eye - t.linear).T
            cost = float(shift @ shift + np.trace(spread))
            assert cost == pytest.approx(w2_gaussian(g0, g1) ** 2, abs=1e-9)

    def test_linear_part_is_spd(self):
        rng = np.random.default_rng(5)
        g0 = Gaussian(np.zeros(3), random_spd(rng, 3))
        g1 = Gaussian(np.zeros(3), random_spd(rng, 3))
        t = transport_map(g0, g1)
        assert np.linalg.eigvalsh(t.linear)[0] > 0


class TestKl:
    def test_identical_is_zero(self):
        g = scalar_gaussian(1.5, 0.7)
        assert kl_gaussian(g, g) == pytest.approx(0.0, abs=1e-12)

    def test_mean_shift(self):
        assert kl_gaussian(scalar_gaussian(1, 1), scalar_gaussian(0, 1)) == pytest.approx(0.5)

    def test_scalar_closed_form(self):
        expected = 0.5 * (2.0 - 1.0 - math.log(2.0))
        assert kl_gaussian(scalar_gaussian(0, 2), scalar_gaussian(0, 1)) == pytest.approx(expected)

    def test_nonnegative_positive_when_distinct(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            g1 = Gaussian(rng.normal(size=n), random_spd(rng, n))
            g2 = Gaussian(rng.normal(size=n), random_spd(rng, n))
            val = kl_gaussian(g1, g2)
            assert val >= -1e-12
            assert val > 1e-6  # distinct random draws


class TestEntropyAndEnergy:
    def test_neg_entropy_unit_variance(self):
        assert neg_entropy(scalar_gaussian(0, 1)) == pytest.approx(-0.5 * (1 + LOG_2PI))

    def test_neg_entropy_zero_point(self):
        assert neg_entropy(scalar_gaussian(3, 1 / (2 * math.pi * math.e))) == pytest.approx(0.0, abs=1e-13)

    def test_neg_entropy_additive(self):
        g = Gaussian([0.0, 0.0], SpdMatrix(np.eye(2)))
        assert neg_entropy(g) == pytest.approx(-(1 + LOG_2PI))

    def test_energy_isotropic(self):
        g = Gaussian([0.0, 0.0], SpdMatrix(np.eye(2)))
        assert energy_quadratic(g, SpdMatrix(np.eye(2))) == pytest.approx(1.0)

    def test_energy_scalar(self):
        assert energy_quadratic(scalar_gaussian(2, 0.5), SpdMatrix(1.0)) == pytest.approx(2.25)

    def test_energy_rejects_non_spd_gamma(self):
        with pytest.raises(SingularityError):
            SpdMatrix(0.0)


class TestFreeEnergy:
    def test_stationary_value(self):
        g = scalar_gaussian(0, 1)
        f = free_energy(g, SpdMatrix(1.0), 1.0)
        assert f == pytest.approx(0.5 - 0.5 * (1 + LOG_2PI))

    def test_large_beta_limit(self):
        g = scalar_gaussian(1.0, 0.8)
        gamma = SpdMatrix(1.0)
        f = free_energy(g, gamma, 1e8)
        assert abs(f - energy_quadratic(g, gamma)) < 1e-7 * abs(neg_entropy(g))

    def test_scalar_closed_form(self):
        f = free_energy(scalar_gaussian(2, 0.5), SpdMatrix(1.0), 1.0)
        assert f == pytest.approx(2.25 - 0.5 * (1 + LOG_2PI + math.log(0.5)))

    def test_mixture_exceeds_gaussian(self):
        # Moment-matched two-component mixtures have less entropy than the
        # Gaussian, so their free energy is strictly larger; entropy by
        # adaptive quadrature over [mu - 10 sigma, mu + 10 sigma].
        rng = np.random.default_rng(7)
        for _ in range(10):
            mu = float(rng.uniform(-1, 1))
            p = float(rng.uniform(0.5, 2.0))
            gamma_val = float(rng.uniform(0.5, 2.0))
            beta = float(rng.uniform(0.5, 2.0))
            offset = math.sqrt(p / 2.0)
            comp_var = p / 2.0

            def density(x):
                z = 1.0 / math.sqrt(2 * math.pi * comp_var)
                a = math.exp(-0.5 * (x - (mu - offset)) ** 2 / comp_var)
                b = math.exp(-0.5 * (x - (mu + offset)) ** 2 / comp_var)
                return 0.5 * z * (a + b)

            def integrand(x):
                rho = density(x)
                return rho * math.log(rho) if rho > 0 else 0.0

            sigma = math.sqrt(p)
            neg_ent_mix, err = quad(
                integrand, mu - 10 * sigma, mu + 10 * sigma, epsabs=1e-10, limit=200
            )
            assert err < 1e-8
            # mixture second moment matches (mu, p) by construction
            energy_mix = 0.5 * gamma_val * (mu * mu + p)
            f_mix = energy_mix + neg_ent_mix / beta
            f_gauss = free_energy(scalar_gaussian(mu, p), SpdMatrix(gamma_val), beta)
            assert f_mix > f_gauss + 1e-4


class TestPhiExpectation:
    def test_vanishing_residual_term(self):
        # y = C mu with P = R and C = I leaves n/2
        rng = np.random.default_rng(8)
        r = random_spd(rng, 2)
        g = Gaussian([1.0, -2.0], r)
        val = phi_expectation(g, np.eye(2), inv_spd(r), g.mean)
        assert val == pytest.approx(1.0)

    def test_scalar_arithmetic(self):
        g = scalar_gaussian(0, 1)
        assert phi_expectation(g, [[1.0]], SpdMatrix(1.0), [1.0]) == pytest.approx(1.0)

    def test_linear_in_inverse_noise(self):
        g = scalar_gaussian(0.3, 1.2)
        y = [1.7]
        one = phi_expectation(g, [[1.0]], inv_spd(SpdMatrix(1.0)), y)
        two = phi_expectation(g, [[1.0]], inv_spd(SpdMatrix(2.0)), y)
        assert two == pytest.approx(0.5 * one)

    def test_shape_mismatch(self):
        g = scalar_gaussian(0, 1)
        with pytest.raises(DimensionError):
            phi_expectation(g, np.ones((2, 2)), SpdMatrix(np.eye(2)), [1.0, 1.0])

    def test_rejects_non_finite_observation_matrix(self):
        with pytest.raises(ValidationError, match="non-finite"):
            phi_expectation(scalar_gaussian(0, 1), [[math.inf]], SpdMatrix(1.0), [1.0])


class TestGradW2Cross:
    def test_scalar_calculus(self):
        # d/dP of 2 sqrt(P) at P=1 with P0=4
        g = grad_w2_cross(SpdMatrix(1.0), SpdMatrix(4.0))
        assert g[0, 0] == pytest.approx(1.0)

    def test_identity_point(self):
        g = grad_w2_cross(SpdMatrix(np.eye(3)), SpdMatrix(np.eye(3)))
        assert max_abs(g - 0.5 * np.eye(3)) < 1e-12

    def test_matches_finite_differences(self):
        from proxflow.geometry_checks import check_w2_gradient

        rng = np.random.default_rng(9)
        result = check_w2_gradient(25, (1, 2, 3), rng)
        assert result.failures == 0
        assert result.worst < 1e-6


class TestTraceProjection:
    def test_fixed_point(self):
        rng = np.random.default_rng(10)
        g0 = Gaussian(rng.normal(size=2), random_spd(rng, 2))
        w2, g = trace_projection(g0, g0.mean, g0.cov.trace())
        assert w2 == pytest.approx(0.0, abs=1e-12)
        assert max_abs(g.cov.mat - g0.cov.mat) < 1e-12

    def test_scalar_dilation(self):
        w2, g = trace_projection(scalar_gaussian(0, 2), [0.0], 8.0)
        assert w2 == pytest.approx(math.sqrt(2.0))
        assert g.cov.mat[0, 0] == pytest.approx(8.0)

    def test_pure_translation(self):
        rng = np.random.default_rng(11)
        g0 = Gaussian(np.zeros(2), random_spd(rng, 2))
        w2, g = trace_projection(g0, [3.0, 4.0], g0.cov.trace())
        assert w2 == pytest.approx(5.0)

    def test_consistent_with_w2(self):
        from proxflow.geometry_checks import check_trace_projection

        rng = np.random.default_rng(12)
        result = check_trace_projection(100, (1, 2, 3, 4, 5), rng)
        assert result.failures == 0
        assert result.worst < 1e-10

    def test_rejects_nonpositive_trace(self):
        with pytest.raises(ValidationError):
            trace_projection(scalar_gaussian(0, 1), [0.0], 0.0)

    def test_rejects_a_batch_of_target_means(self):
        # one mean, where as_vectors would take an (S, n) batch
        with pytest.raises(DimensionError,
                           match=r"^target mean must be a vector, got shape \(2, 1\)$"):
            trace_projection(scalar_gaussian(0, 1), [[0.0], [1.0]], 1.0)

    @pytest.mark.parametrize("cov,tau,error,cause", [
        # tau / tau0 * P underflows to 0: below the floor
        (1.0, 5e-324, SingularityError, " is not positive definite within the floor: "
                                        "eigenvalues in [0.000e+00, 0.000e+00]"),
        # tau / tau0 overflows, and inf * 0 off the diagonal is nan: computed, no warning
        (1e-10, 1e308, NumericFailure, ": (tau / tau0) P0 overflows"),
    ], ids=["underflow", "overflow"])
    def test_a_refused_dilation_names_the_target_trace(self, cov, tau, error, cause):
        g0 = Gaussian(np.zeros(2), SpdMatrix(cov * np.eye(2)))
        with pytest.raises(error) as info:
            trace_projection(g0, [0, 0], tau)
        assert str(info.value) == f"dilated covariance at target trace {tau}{cause}"


class TestBatchedMean:
    def test_batch_shares_covariance(self):
        g = Gaussian(np.arange(6.0).reshape(3, 2), SpdMatrix(np.eye(2)))
        assert g.mean.shape == (3, 2)
        assert g.dim == 2
        assert not g.mean.flags.writeable

    def test_three_dimensional_mean_rejected(self):
        with pytest.raises(DimensionError):
            Gaussian(np.zeros((2, 3, 1)), SpdMatrix(1.0))

    def test_trailing_size_must_match(self):
        with pytest.raises(DimensionError):
            Gaussian(np.zeros((4, 2)), SpdMatrix(np.eye(3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            Gaussian([[0.0], [math.nan]], SpdMatrix(1.0))

    @pytest.mark.parametrize(
        "call",
        [
            lambda b, g: w2_gaussian(b, g),
            lambda b, g: w2_gaussian(g, b),
            lambda b, g: kl_gaussian(b, g),
            lambda b, g: transport_map(g, b),
            lambda b, g: energy_quadratic(b, SpdMatrix(np.eye(2))),
            lambda b, g: phi_expectation(b, [[1.0, 0.0]], SpdMatrix(1.0), [0.5]),
            lambda b, g: trace_projection(b, [0.0, 0.0], 1.0),
        ],
        ids=["w2_first", "w2_second", "kl", "transport_map", "energy", "phi", "trace_projection"],
    )
    def test_single_density_functions_reject_batch(self, call):
        batch = Gaussian(np.zeros((3, 2)), SpdMatrix(np.eye(2)))
        single = Gaussian(np.zeros(2), SpdMatrix(np.eye(2)))
        with pytest.raises(DimensionError, match="single density"):
            call(batch, single)
