"""Simulation, priors, Gibbs sampling, likelihood ratios, and the error exponent."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from nonmarginal import (
    Ar1Params,
    InfeasibleDesign,
    InvalidSpec,
    NumericalFailure,
    PriorConfig,
    TestSpec,
    estimate_error_exponent,
    generate_design,
    gibbs_sample,
    kl_divergence_rate,
    log_likelihood_ratio,
    quadratic_limits,
    simulate,
)
from nonmarginal.model_ar1 import (
    PosteriorDraws,
    _eigenbasis,
    load_draws,
    save_dataset,
    save_design,
    save_draws,
)


def _direct_log_density(theta, data):
    resid = data.x - theta.rho * data.lagged() - data.design.z @ theta.beta
    return float(stats.norm.logpdf(resid, 0.0, math.sqrt(theta.sigma2)).sum())


class TestGenerateDesign:
    def test_intercept_only(self):
        design = generate_design(100, 0, seed=0)
        assert design.z.shape == (100, 1)
        np.testing.assert_array_equal(design.z[:, 0], 1.0)

    def test_orthogonalized_gram_eigenvalue_matches_eigendecomposition(self):
        design = generate_design(100, 5, generator="orthogonalized", scale=1.3, seed=4)
        reported = design.descriptor["max_gram_eigenvalue"]
        direct = float(np.linalg.eigvalsh(design.gram()).max())
        assert abs(reported - direct) < 1e-8

    def test_same_seed_bit_identical(self):
        a = generate_design(80, 4, seed=11)
        b = generate_design(80, 4, seed=11)
        assert np.array_equal(a.z, b.z)
        c = generate_design(80, 4, seed=12)
        assert not np.array_equal(a.z, c.z)

    def test_entries_bounded_and_centered(self):
        scale = 0.7
        design = generate_design(500, 6, scale=scale, seed=3)
        spread = design.z[:, 1:] - design.z[:, 1:].mean(axis=0)  # centering already applied
        assert np.all(np.abs(design.z[:, 1:]) <= 3 * scale + 3 * scale)  # loose sup bound
        assert np.all(np.abs(design.z[:, 1:].sum(axis=0)) < 1e-10 * 500)
        assert spread.shape == (500, 6)

    def test_orthogonalized_needs_enough_rows(self):
        with pytest.raises(InfeasibleDesign):
            generate_design(4, 5, generator="orthogonalized", seed=0)

    def test_unknown_generator(self):
        with pytest.raises(InvalidSpec):
            generate_design(10, 2, generator="bogus", seed=0)


class TestSimulate:
    def test_noiseless_intercept(self):
        design = generate_design(50, 0, seed=0)
        params = Ar1Params(rho=0.0, sigma2=1e-24, beta=np.array([2.5]))
        data = simulate(params, design, 50, seed=1)
        np.testing.assert_allclose(data.x, 2.5, atol=1e-9)

    def test_stationary_variance_long_run(self):
        n = 100_000
        design = generate_design(n, 0, seed=0)
        params = Ar1Params(rho=0.5, sigma2=1.0, beta=np.array([0.0]))
        data = simulate(params, design, n, seed=2)
        target = 1.0 / (1.0 - 0.25)
        # MC error of the sample variance of a stationary AR(1):
        # var(s^2) ~ 2 * var^2 * (1 + rho^2) / ((1 - rho^2) * n)
        se = math.sqrt(2.0 * target**2 * 1.25 / (0.75 * n))
        assert abs(float(np.var(data.x)) - target) < 3.0 * se

    def test_same_seed_identical(self):
        design = generate_design(60, 2, seed=0)
        params = Ar1Params(0.3, 1.0, np.array([0.1, 1.0, -1.0]))
        a = simulate(params, design, 60, seed=9)
        b = simulate(params, design, 60, seed=9)
        assert np.array_equal(a.x, b.x)

    def test_recursion_matches_manual_loop(self):
        design = generate_design(40, 1, seed=1)
        params = Ar1Params(0.7, 0.5, np.array([0.2, -1.0]))
        data = simulate(params, design, 40, seed=3)
        rng = np.random.default_rng(3)
        drive = design.z @ params.beta + rng.normal(0, math.sqrt(0.5), 40)
        x, prev = np.empty(40), 0.0
        for t in range(40):
            prev = params.rho * prev + drive[t]
            x[t] = prev
        np.testing.assert_allclose(data.x, x, rtol=1e-12)


class TestGibbs:
    def test_strong_signal_recovers_coefficient(self):
        design = generate_design(2000, 3, seed=1)
        params = Ar1Params(0.5, 1.0, np.array([0.0, 2.0, 0.0, 0.0]))
        data = simulate(params, design, 2000, seed=2)
        draws = gibbs_sample(data, PriorConfig(), num_draws=1500, burn_in=400, seed=3)
        assert abs(float(draws.beta[:, 1].mean()) - 2.0) < 0.1
        # the strong-signal coordinate sits within 3 posterior sds of truth
        strong = draws.beta[:, 1]
        assert abs(float(strong.mean()) - 2.0) < 3 * float(strong.std())
        for i, truth in enumerate(params.beta):
            mean = float(draws.beta[:, i].mean())
            sd = float(draws.beta[:, i].std())
            assert abs(mean - truth) < 5 * sd + 1e-6

    def test_degenerate_prior_pins_coefficients(self):
        design = generate_design(200, 2, seed=4)
        params = Ar1Params(0.2, 1.0, np.array([0.5, 1.0, 0.0]))
        data = simulate(params, design, 200, seed=5)
        prior = PriorConfig(beta_sd=1e-9)
        draws = gibbs_sample(data, prior, num_draws=200, burn_in=50, seed=6)
        assert np.all(np.abs(draws.beta) < 1e-6)

    def test_same_seed_identical_draws(self):
        design = generate_design(120, 2, seed=0)
        params = Ar1Params(0.4, 1.0, np.array([0.0, 1.0, -0.5]))
        data = simulate(params, design, 120, seed=1)
        a = gibbs_sample(data, PriorConfig(), num_draws=100, burn_in=20, seed=42)
        b = gibbs_sample(data, PriorConfig(), num_draws=100, burn_in=20, seed=42)
        assert np.array_equal(a.draws, b.draws)

    def test_sigma2_conditional_matches_exact_posterior(self):
        # with beta and rho pinned at zero the model is x_t = eps_t and
        # sigma2 | data is inverse-gamma(a + n/2, b + sum(x^2)/2) exactly
        design = generate_design(300, 2, seed=7)
        data = simulate(Ar1Params(0.0, 1.5, np.zeros(3)), design, 300, seed=8)
        prior = PriorConfig(beta_sd=1e-9, rho_prior_sd=1e-9, sigma2_shape=2.0, sigma2_rate=1.0)
        draws = gibbs_sample(data, prior, num_draws=8000, burn_in=200, seed=9)
        exact = stats.invgamma(2.0 + 150.0, scale=1.0 + 0.5 * float(data.x @ data.x))
        assert stats.kstest(draws.sigma2, exact.cdf).pvalue > 1e-3

    @pytest.mark.parametrize("family", ["independent_gaussian", "gp_decay"])
    def test_beta_conditional_matches_exact_posterior(self, family):
        # with rho pinned at 0 and sigma2 pinned at 2, beta | data is
        # N(P^-1 Z'x / 2, P^-1) with P = Z'Z / 2 + Sigma0^-1 exactly
        design = generate_design(300, 3, seed=10)
        data = simulate(Ar1Params(0.0, 2.0, np.array([0.5, 1.0, 0.0, -0.7])), design, 300, seed=11)
        prior = PriorConfig(
            family=family, beta_sd=1.0, rho_prior_sd=1e-9, sigma2_shape=1e8, sigma2_rate=2e8
        )
        draws = gibbs_sample(data, prior, num_draws=4000, burn_in=100, seed=12)
        z = design.z
        precision = z.T @ z / 2.0 + np.linalg.inv(prior.beta_covariance(3))
        mean = np.linalg.solve(precision, z.T @ data.x / 2.0)
        white = (draws.beta - mean) @ np.linalg.cholesky(precision)
        for i in range(white.shape[1]):
            assert stats.kstest(white[:, i], "norm").pvalue > 1e-3, i
        assert np.abs(np.cov(white, rowvar=False) - np.eye(4)).max() < 0.12

    def test_thinning_and_validation(self):
        design = generate_design(50, 1, seed=0)
        data = simulate(Ar1Params(0.0, 1.0, np.zeros(2)), design, 50, seed=0)
        draws = gibbs_sample(data, PriorConfig(), num_draws=10, burn_in=5, thinning=3, seed=0)
        assert draws.num_draws == 10
        with pytest.raises(InvalidSpec):
            gibbs_sample(data, PriorConfig(), num_draws=0, seed=0)
        with pytest.raises(InvalidSpec):
            gibbs_sample(data, PriorConfig(), num_draws=5, thinning=0, seed=0)

    def test_non_psd_prior_covariance_is_reported(self):
        with pytest.raises(NumericalFailure):
            _eigenbasis(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))


class TestGpDecayPrior:
    def test_scale_sum_closed_form(self):
        prior = PriorConfig(family="gp_decay", decay_base=0.7, decay_scale=2.0)
        m = 12
        scales = prior.coefficient_scales(m)
        closed = 2.0 * 0.7 * (1.0 - 0.7**m) / (1.0 - 0.7)
        assert abs(scales[1:].sum() - closed) < 1e-12

    def test_covariance_is_positive_definite(self):
        prior = PriorConfig(family="gp_decay", gp_lengthscale=0.2, decay_base=0.8)
        cov = prior.beta_covariance(10)
        assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_gibbs_runs_under_gp_prior(self):
        design = generate_design(300, 4, seed=1)
        params = Ar1Params(0.3, 1.0, np.array([0.0, 1.2, 0.0, 0.0, 0.0]))
        data = simulate(params, design, 300, seed=2)
        prior = PriorConfig(family="gp_decay", decay_scale=5.0)
        draws = gibbs_sample(data, prior, num_draws=400, burn_in=100, seed=3)
        assert np.all(np.isfinite(draws.draws))
        # the decaying prior scale shrinks high-index coefficients harder
        assert abs(float(draws.beta[:, 1].mean()) - 1.2) < 0.4

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            PriorConfig(family="gp_decay", decay_base=1.0)
        with pytest.raises(InvalidSpec):
            PriorConfig(family="mystery")


class TestLogLikelihoodRatio:
    design = generate_design(50, 4, seed=3)
    theta0 = Ar1Params(0.4, 1.2, np.array([0.3, -0.5, 0.8, 0.0, 1.1]))

    def test_zero_at_the_same_point(self):
        data = simulate(self.theta0, self.design, 50, seed=4)
        assert log_likelihood_ratio(self.theta0, self.theta0, data) == 0.0

    def test_matches_direct_density_difference(self):
        data = simulate(self.theta0, self.design, 50, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(20):
            theta = Ar1Params(
                float(rng.uniform(-1.2, 1.2)),
                float(rng.uniform(0.2, 4.0)),
                rng.normal(0, 1, 5),
            )
            got = log_likelihood_ratio(theta, self.theta0, data)
            want = _direct_log_density(theta, data) - _direct_log_density(self.theta0, data)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_noiseless_variance_doubling_closed_form(self):
        n = 64
        design = generate_design(n, 2, seed=6)
        theta0 = Ar1Params(0.5, 1.0, np.array([0.4, 1.0, -2.0]))
        data = simulate(Ar1Params(0.5, 1e-30, theta0.beta), design, n, seed=7)
        doubled = Ar1Params(theta0.rho, 2.0, theta0.beta)
        # zero residuals under the shared mean structure leave only the log-det term
        got = log_likelihood_ratio(doubled, theta0, data)
        assert abs(got - (-(n / 2) * math.log(2.0))) < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(-1.4, 1.4),
        st.floats(0.2, 5.0),
        st.floats(-1.4, 1.4),
        st.floats(0.2, 5.0),
    )
    def test_antisymmetry(self, rho_a, s2_a, rho_b, s2_b):
        data = simulate(self.theta0, self.design, 50, seed=8)
        a = Ar1Params(rho_a, s2_a, self.theta0.beta)
        b = Ar1Params(rho_b, s2_b, np.zeros(5))
        forward = log_likelihood_ratio(a, b, data)
        assert abs(forward + log_likelihood_ratio(b, a, data)) < 1e-10 * max(1.0, abs(forward))

    def test_rejects_bad_sigma(self):
        # a non-positive variance cannot even be constructed
        with pytest.raises(InvalidSpec):
            Ar1Params(0.0, 0.0, np.zeros(5))
        data = simulate(self.theta0, self.design, 50, seed=4)
        with pytest.raises(InvalidSpec):
            log_likelihood_ratio(Ar1Params(0.0, 1.0, np.zeros(3)), self.theta0, data)


class TestQuadraticLimits:
    design = generate_design(150, 3, seed=9)

    def test_zero_coefficients(self):
        moments = quadratic_limits(np.zeros(4), np.array([0.0, 1.0, 0.0, 0.0]), self.design)
        assert moments.model_power == 0.0
        assert moments.cross_power == 0.0

    def test_equal_coefficients_collapse(self):
        beta = np.array([0.2, -1.0, 0.4, 0.0])
        moments = quadratic_limits(beta, beta, self.design)
        assert moments.model_power == moments.true_power == moments.cross_power

    def test_orthonormal_design_gives_squared_norm(self):
        design = generate_design(100, 3, generator="orthogonalized", scale=1.0, seed=10)
        beta = np.array([0.5, -1.0, 2.0, 0.25])
        moments = quadratic_limits(beta, beta, design)
        assert abs(moments.model_power - float(beta @ beta)) < 1e-8


class TestKlDivergenceRate:
    def test_exact_zero_at_truth(self):
        design = generate_design(80, 2, seed=0)
        theta0 = Ar1Params(0.5, 1.3, np.array([0.1, 0.7, -0.2]))
        moments = quadratic_limits(theta0.beta, theta0.beta, design)
        assert kl_divergence_rate(theta0, theta0, moments) == 0.0

    def test_sigma_only_hand_value(self):
        design = generate_design(100, 2, seed=1)
        zero = np.zeros(3)
        moments = quadratic_limits(zero, zero, design)
        h = kl_divergence_rate(Ar1Params(0.0, 2.0, zero), Ar1Params(0.0, 1.0, zero), moments)
        assert abs(h - (0.5 * math.log(2.0) - 0.25)) < 1e-12

    def test_empirical_equipartition_anchor(self):
        n = 4000
        design = generate_design(n, 3, seed=2)
        theta0 = Ar1Params(0.5, 1.0, np.array([0.0, 1.0, 0.0, -0.8]))
        theta = Ar1Params(0.6, 1.4, theta0.beta + np.array([0.0, 0.2, 0.0, 0.0]))
        moments = quadratic_limits(theta.beta, theta0.beta, design)
        rate = kl_divergence_rate(theta, theta0, moments)
        devs = [
            log_likelihood_ratio(theta, theta0, simulate(theta0, design, n, seed=100 + r)) / n
            + rate
            for r in range(20)
        ]
        assert abs(float(np.mean(devs))) < 0.02

    def test_requires_stationary_truth(self):
        design = generate_design(50, 1, seed=0)
        zero = np.zeros(2)
        moments = quadratic_limits(zero, zero, design)
        with pytest.raises(InvalidSpec):
            kl_divergence_rate(Ar1Params(0.0, 1.0, zero), Ar1Params(1.0, 1.0, zero), moments)


class TestErrorExponent:
    design = generate_design(400, 2, generator="orthogonalized", scale=1.0, seed=2)
    spec = TestSpec(num_covariates=2, include_rho_test=True, null_radius=0.1)
    theta0 = Ar1Params(0.0, 1.0, np.array([0.0, 1.0, 0.0]))

    def test_active_subproblem_matches_dense_grid_oracle(self):
        exponent = estimate_error_exponent(self.theta0, self.spec, self.design)
        active_hyp = self.spec.coefficient_hypothesis(1)
        best = math.inf
        for b1 in np.arange(-0.1, 0.1 + 1e-12, 1e-3):
            beta = np.array([0.0, float(b1), 0.0])
            moments = quadratic_limits(beta, self.theta0.beta, self.design)
            for s2 in np.arange(0.5, 2.0 + 1e-12, 1e-3):
                h = kl_divergence_rate(Ar1Params(0.0, float(s2), beta), self.theta0, moments)
                best = min(best, h)
        assert abs(exponent.per_hypothesis[active_hyp] - best) < 1e-6
        # the overall minimum is the cheapest wrong decision across hypotheses
        assert exponent.value == pytest.approx(float(exponent.per_hypothesis.min()))
        assert exponent.value >= -1e-9

    def test_every_wrong_region_matches_dense_grid_oracle(self):
        # (truth, spec, hypothesis, wrong-region grid for its coordinate)
        edge = np.arange(0.0, 0.2 + 1e-12, 0.05)
        null_true_rho = Ar1Params(0.0, 1.0, self.theta0.beta)
        alt_true_rho = Ar1Params(0.5, 1.0, self.theta0.beta)
        narrow = TestSpec(num_covariates=2, include_rho_test=True, null_radius=0.1, rho_null_bound=0.3)
        cases = {
            "rho null true": (null_true_rho, narrow, 0, np.concatenate([0.3 + edge, -0.3 - edge])),
            "rho alternative true": (alt_true_rho, narrow, 0, np.linspace(-0.3, 0.3, 13)),
            "coefficient null true": (self.theta0, self.spec, 3, np.concatenate([0.1 + edge, -0.1 - edge])),
            "coefficient alternative true": (self.theta0, self.spec, 2, np.linspace(-0.1, 0.1, 9)),
        }
        sigma2s = np.arange(0.5, 2.0 + 1e-12, 2e-3)
        for name, (theta0, spec, hyp, wrong_values) in cases.items():
            exponent = estimate_error_exponent(theta0, spec, self.design)
            coef = spec.coefficient_of_hypothesis(hyp)
            rhos = wrong_values if coef is None else theta0.rho + np.linspace(-0.04, 0.04, 5)
            best = math.inf
            for pinned in [None] if coef is None else wrong_values:
                beta = theta0.beta.copy()
                if coef is not None:
                    beta[coef] = pinned
                moments = quadratic_limits(beta, theta0.beta, self.design)
                for rho in rhos:
                    for s2 in sigma2s:
                        h = kl_divergence_rate(Ar1Params(float(rho), float(s2), beta), theta0, moments)
                        best = min(best, h)
            assert abs(exponent.per_hypothesis[hyp] - best) < 1e-6, name

    def test_boundary_collapse_sends_exponent_to_zero(self):
        values = []
        for eps in (0.2, 0.05, 0.01):
            spec = TestSpec(num_covariates=2, null_radius=eps)
            all_null = Ar1Params(0.0, 1.0, np.zeros(3))
            values.append(estimate_error_exponent(all_null, spec, self.design).value)
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-3

    def test_single_coordinate_violation_is_cheapest(self):
        # flipping two decisions at once can only cost more divergence
        exponent = estimate_error_exponent(self.theta0, self.spec, self.design)
        grid = np.linspace(-0.1, 0.1, 21)
        worst = math.inf
        for b1 in grid:
            for b2 in np.concatenate([np.linspace(-1.5, -0.1, 15), np.linspace(0.1, 1.5, 15)]):
                beta = np.array([0.0, float(b1), float(b2)])  # both decisions wrong
                moments = quadratic_limits(beta, self.theta0.beta, self.design)
                for s2 in np.linspace(0.4, 3.0, 40):
                    worst = min(
                        worst,
                        kl_divergence_rate(Ar1Params(0.0, float(s2), beta), self.theta0, moments),
                    )
        assert worst >= exponent.value - 1e-9

    def test_requires_stationary_truth(self):
        with pytest.raises(InvalidSpec):
            estimate_error_exponent(
                Ar1Params(1.1, 1.0, np.zeros(3)), self.spec, self.design
            )


class TestPersistence:
    def test_design_and_dataset_round_trip(self, tmp_path):
        design = generate_design(40, 2, seed=1)
        data = simulate(Ar1Params(0.2, 1.0, np.array([0.0, 1.0, 0.5])), design, 40, seed=2)
        save_design(tmp_path / "design.csv", design)
        save_dataset(tmp_path / "data.csv", data)
        z = np.loadtxt(tmp_path / "design.csv", delimiter=",", skiprows=1, ndmin=2)
        x = np.loadtxt(tmp_path / "data.csv", delimiter=",", skiprows=1, ndmin=1)
        np.testing.assert_array_equal(z, design.z)
        np.testing.assert_array_equal(x, data.x)
        sidecar = json.loads((tmp_path / "design.csv.json").read_text())
        assert sidecar["descriptor"] == design.descriptor

    def test_draws_round_trip(self, tmp_path):
        design = generate_design(60, 1, seed=1)
        data = simulate(Ar1Params(0.2, 1.0, np.array([0.0, 1.0])), design, 60, seed=2)
        draws = gibbs_sample(data, PriorConfig(), num_draws=30, burn_in=10, seed=3)
        save_draws(tmp_path / "draws.csv", draws)
        back = load_draws(tmp_path / "draws.csv")
        np.testing.assert_array_equal(back.draws, draws.draws)
        assert back.burn_in == 10
        header = (tmp_path / "draws.csv").read_text().splitlines()[0]
        assert header == "rho,sigma2,beta0,beta1"

    def test_draws_validation(self):
        with pytest.raises(InvalidSpec):
            PosteriorDraws(np.array([[0.1, -1.0, 0.0]]), burn_in=0, thinning=1)
