"""Simulation, priors, Gibbs sampling, likelihood ratios, and the error exponent."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from nonmarginal import (
    Ar1Params,
    Dataset,
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
    simulate,
)
from nonmarginal import _blas, model_ar1
from nonmarginal.model_ar1 import (
    PosteriorDraws,
    _eigenbasis,
    load_draws,
    save_dataset,
    save_design,
)


def _traced(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, the bytes it left traced and the peak traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return (result, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


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
        np.testing.assert_allclose(design.gram(), np.diag([1.0] + [1.3**2] * 5), atol=1e-12)
        assert abs(float(np.linalg.eigvalsh(design.gram()).max()) - 1.3**2) < 1e-8

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

    @pytest.mark.parametrize("generator", ["iid_gaussian_bounded", "orthogonalized"])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    def test_entries_are_the_bits_of_truncnorm(self, generator, scale):
        for seed, (n, m) in enumerate([(2, 1), (60, 3), (250, 10), (2000, 40)]):
            raw = stats.truncnorm.rvs(-3.0, 3.0, scale=scale, size=(n, m),
                                      random_state=np.random.default_rng(seed))
            if generator == "iid_gaussian_bounded":
                expected = raw - raw.mean(axis=0)
            else:
                q, r = np.linalg.qr(np.column_stack([np.ones(n), raw]))
                expected = (q * np.sign(np.diag(r)))[:, 1:] * (math.sqrt(n) * scale)
            z = generate_design(n, m, generator=generator, scale=scale, seed=seed).z
            assert np.array_equal(z[:, 1:], expected)
            assert np.array_equal(z[:, 0], np.ones(n))

    def test_peak_memory_is_a_few_designs(self):
        design, _, peak = _traced(generate_design, 2000, 40, seed=7)
        assert peak <= 8 * design.z.nbytes

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

    @pytest.mark.parametrize("rho", [0.5, -0.3, 0.97, 0.0])
    def test_recursion_matches_lfilter_bit_for_bit(self, rho):
        from scipy.signal import lfilter

        design = generate_design(500, 2, seed=5)
        params = Ar1Params(rho, 1.3, np.array([0.2, 1.0, -1.0]))
        data = simulate(params, design, 500, seed=6)
        rng = np.random.default_rng(6)
        drive = design.z @ params.beta + rng.normal(0.0, math.sqrt(1.3), 500)
        assert np.array_equal(data.x, lfilter([1.0], [1.0, -rho], drive))

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
        draws = gibbs_sample([data], PriorConfig(), num_draws=1500, seeds=[3]).chains[0]
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
        draws = gibbs_sample([data], prior, num_draws=200, seeds=[6]).chains[0]
        assert np.all(np.abs(draws.beta) < 1e-6)

    def test_same_seed_identical_draws(self):
        design = generate_design(120, 2, seed=0)
        params = Ar1Params(0.4, 1.0, np.array([0.0, 1.0, -0.5]))
        data = simulate(params, design, 120, seed=1)
        a = gibbs_sample([data], PriorConfig(), num_draws=100, seeds=[42]).chains[0]
        b = gibbs_sample([data], PriorConfig(), num_draws=100, seeds=[42]).chains[0]
        assert np.array_equal(a.draws, b.draws)

    # widths 11 and 41 take numpy's unrolled row sums (8 or more elements),
    # as real runs do; width 3 takes its plain loop.  300 draws leave a short
    # last block of rows.  The batch's extra chain 5 goes non-finite, and the
    # pinned prior holds sd(log sigma2) near 1e-4, so each grid must sit on
    # its own chain's mode and curvature to put nodes under the mass.
    @pytest.mark.parametrize("num_covariates", [2, 10, 40])
    def test_rows_are_the_same_bits_in_any_batch(self, num_covariates):
        beta = np.resize([0.0, 1.0, -0.5], num_covariates + 1)
        params = Ar1Params(0.4, 1.0, beta)
        datasets = [simulate(params, generate_design(n, num_covariates, seed=n), n, seed=n)
                    for n in (30, 120, 75, 120, 31)]
        datasets[3] = simulate(params, datasets[1].design, 120, seed=7)  # shares a design
        datasets.append(Dataset(datasets[2].x * 1e200, datasets[2].design, seed=2))
        for prior in (PriorConfig(), PriorConfig(sigma2_shape=1e8, sigma2_rate=2e8)):
            alone = [gibbs_sample([d], prior, num_draws=300, seeds=[i]).chains[0]
                     for i, d in enumerate(datasets)]
            assert isinstance(alone[5], NumericalFailure)
            if prior.sigma2_shape == 1e8:
                for chain in alone[:5]:
                    assert 0.8e-4 < float(np.log(chain.sigma2).std()) < 1.2e-4
            for order in ([0, 1, 2, 3, 4, 5], [4, 2, 5, 0], [3, 1], [5, 2, 4, 1, 0, 3]):
                batch = gibbs_sample([datasets[i] for i in order], prior, num_draws=300,
                                     seeds=order)
                assert batch.diagnostics == {"sweeps": 300}
                for i, chain in zip(order, batch.chains):
                    if i == 5:
                        assert isinstance(chain, NumericalFailure)
                    else:
                        assert np.array_equal(chain.draws, alone[i].draws), (order, i)

    def test_non_finite_chain_fails_alone(self):
        params = Ar1Params(0.4, 1.0, np.array([0.0, 1.0, -0.5]))
        design = generate_design(80, 2, seed=3)
        datasets = [simulate(params, design, 80, seed=s) for s in (1, 2, 3)]
        datasets[1] = Dataset(datasets[1].x * 1e200, design, seed=2)
        batch = gibbs_sample(datasets, PriorConfig(), num_draws=40, seeds=[1, 2, 3])
        assert isinstance(batch.chains[1], NumericalFailure)
        for i in (0, 2):
            alone = gibbs_sample([datasets[i]], PriorConfig(), num_draws=40,
                                 seeds=[i + 1]).chains[0]
            assert np.array_equal(batch.chains[i].draws, alone.draws)

    def test_sigma2_conditional_matches_exact_posterior(self):
        # with beta and rho pinned at zero the model is x_t = eps_t and
        # sigma2 | data is inverse-gamma(a + n/2, b + sum(x^2)/2) exactly
        design = generate_design(300, 2, seed=7)
        data = simulate(Ar1Params(0.0, 1.5, np.zeros(3)), design, 300, seed=8)
        prior = PriorConfig(beta_sd=1e-9, rho_prior_sd=1e-9, sigma2_shape=2.0, sigma2_rate=1.0)
        draws = gibbs_sample([data], prior, num_draws=8000, seeds=[9]).chains[0]
        exact = stats.invgamma(2.0 + 150.0, scale=1.0 + 0.5 * float(data.x @ data.x))
        assert stats.kstest(draws.sigma2, exact.cdf).pvalue > 1e-3

    def test_sigma2_matches_its_marginal_posterior(self):
        # sigma2 | x has density IG(sigma2; a, b) N(x; 0, sigma2 I + W C W'),
        # with C = blockdiag(rho_sd^2, Sigma0) the prior covariance of theta,
        # here evaluated as written on a dense grid.  At n = 40 with 16
        # coefficients the determinant and the fitted part of x'x each move
        # sigma2 by far more than the test resolves.
        n, m = 40, 14
        beta = np.resize([1.5, 0.0, 1.5, 0.0, 0.0], m + 1)
        design = generate_design(n, m, seed=21)
        data = simulate(Ar1Params(0.5, 1.0, beta), design, n, seed=22)
        prior = PriorConfig()
        draws = gibbs_sample([data], prior, num_draws=8000, seeds=[23]).chains[0]
        w = np.column_stack((data.lagged(), design.z))
        cov = np.zeros((m + 2, m + 2))
        cov[0, 0] = prior.rho_prior_sd**2
        cov[1:, 1:] = prior.beta_covariance(m)
        wcw = w @ cov @ w.T
        grid = np.exp(np.linspace(math.log(0.01), math.log(100.0), 4001))
        log_density = np.array([
            stats.invgamma.logpdf(s2, prior.sigma2_shape, scale=prior.sigma2_rate)
            + stats.multivariate_normal.logpdf(data.x, cov=s2 * np.eye(n) + wcw) for s2 in grid])
        assert max(log_density[0], log_density[-1]) < log_density.max() - 30.0
        density = np.exp(log_density - log_density.max())
        cdf = np.concatenate(([0.0], np.cumsum((density[1:] + density[:-1]) * np.diff(grid))))
        cdf /= cdf[-1]
        assert stats.kstest(draws.sigma2, lambda v: np.interp(v, grid, cdf)).pvalue > 1e-3

    def test_sigma2_grid_converges_as_its_nodes_double(self, monkeypatch):
        # sup |CDF_512 - CDF_1024| measured at most 9.1e-5 over 20 datasets at
        # each n of 40, 60, 250, 500, 1000 and 2000 (default prior, m = 10)
        params = Ar1Params(0.5, 1.0, np.resize([0.0, 1.5, 0.0, 0.0], 11))
        datasets = [simulate(params, generate_design(n, 10, seed=n), n, seed=n + 1)
                    for n in (40, 60, 250, 2000)]
        for prior in (PriorConfig(), PriorConfig(family="gp_decay"),
                      PriorConfig(sigma2_shape=1e8, sigma2_rate=2e8)):
            _, lam, c, a_n, b_xx = model_ar1._chain_terms(datasets, prior)
            grids = []
            for nodes in (512, 1024):
                monkeypatch.setattr(model_ar1, "_SIGMA2_NODES", nodes)
                grids.append(model_ar1._sigma2_grid(lam, c**2, a_n, b_xx, prior.sigma2_rate))
            (coarse, coarse_cdf), (fine, fine_cdf) = grids
            for r in range(len(datasets)):
                gap = np.abs(np.interp(fine[r], coarse[r], coarse_cdf[r]) - fine_cdf[r]).max()
                assert gap < 1.2e-4, (prior, r, gap)

    @pytest.mark.parametrize("family,batch", [
        pytest.param("independent_gaussian", "alone", id="independent_gaussian"),
        pytest.param("gp_decay", "alone", id="gp_decay"),
        pytest.param("independent_gaussian", "mixed_n", id="mixed_n"),
    ])
    def test_beta_conditional_matches_exact_posterior(self, family, batch):
        # with rho pinned at 0 and sigma2 pinned at 2, beta | data is
        # N(P^-1 Z'x / 2, P^-1) with P = Z'Z / 2 + Sigma0^-1 exactly; "mixed_n"
        # checks the middle row of a batch whose other rows have other lengths
        beta = np.array([0.5, 1.0, 0.0, -0.7])
        design = generate_design(300, 3, seed=10)
        data = simulate(Ar1Params(0.0, 2.0, beta), design, 300, seed=11)
        prior = PriorConfig(
            family=family, beta_sd=1.0, rho_prior_sd=1e-9, sigma2_shape=1e8, sigma2_rate=2e8
        )
        rows, seeds = [data], [12]
        if batch == "mixed_n":
            short, long = (simulate(Ar1Params(0.3, 1.0, beta), generate_design(n, 3, seed=n), n,
                                    seed=n) for n in (120, 800))
            rows, seeds = [short, data, long], [13, 15, 14]
        batch = gibbs_sample(rows, prior, num_draws=4000, seeds=seeds)
        draws = batch.chains[len(rows) // 2]
        z = design.z
        precision = z.T @ z / 2.0 + np.linalg.inv(prior.beta_covariance(3))
        mean = np.linalg.solve(precision, z.T @ data.x / 2.0)
        white = (draws.beta - mean) @ np.linalg.cholesky(precision)
        for i in range(white.shape[1]):
            assert stats.kstest(white[:, i], "norm").pvalue > 1e-3, i
        assert np.abs(np.cov(white, rowvar=False) - np.eye(4)).max() < 0.12

    @pytest.mark.parametrize("family", ["independent_gaussian", "gp_decay"])
    def test_joint_conditional_matches_exact_posterior(self, family):
        # with sigma2 pinned at 2 and rho free, theta = (rho, beta) | data is
        # N(P^-1 W'x / 2, P^-1) with W = [x_lag, Z] and
        # P = W'W / 2 + blockdiag(1 / rho_sd^2, Sigma0^-1) exactly; the active
        # intercept and rho0 = 0.9 make x_lag and the intercept column correlate
        beta = np.array([1.5, 1.0, 0.0, -0.7])
        design = generate_design(300, 3, seed=10)
        data = simulate(Ar1Params(0.9, 2.0, beta), design, 300, seed=11)
        prior = PriorConfig(
            family=family, beta_sd=1.0, rho_prior_sd=1.0, sigma2_shape=1e8, sigma2_rate=2e8
        )
        draws = gibbs_sample([data], prior, num_draws=4000, seeds=[12]).chains[0]
        w = np.column_stack((data.lagged(), design.z))
        prior_precision = np.zeros((5, 5))
        prior_precision[0, 0] = 1.0
        prior_precision[1:, 1:] = np.linalg.inv(prior.beta_covariance(3))
        precision = w.T @ w / 2.0 + prior_precision
        mean = np.linalg.solve(precision, w.T @ data.x / 2.0)
        theta = np.column_stack((draws.rho, draws.beta))
        white = (theta - mean) @ np.linalg.cholesky(precision)
        for i in range(white.shape[1]):
            assert stats.kstest(white[:, i], "norm").pvalue > 1e-3, i
        assert np.abs(np.cov(white, rowvar=False) - np.eye(5)).max() < 0.12

    def test_rho_mixes_when_the_lag_correlates_with_the_intercept(self):
        # an active intercept and rho0 = 0.9 give x_lag a large mean, so a
        # sampler that alternates rho and beta crawls along their ridge
        beta = np.zeros(11)
        beta[[0, 5, 9]] = 1.5
        design = generate_design(250, 10, seed=250)
        datasets = [simulate(Ar1Params(0.9, 1.0, beta), design, 250, seed=s) for s in range(4)]
        batch = gibbs_sample(datasets, PriorConfig(), num_draws=4000,
                             seeds=[10, 11, 12, 13])
        for chain in batch.chains:
            rho = chain.rho - chain.rho.mean()
            assert float(rho[1:] @ rho[:-1] / (rho @ rho)) < 0.1

    def test_validation(self):
        design = generate_design(50, 1, seed=0)
        data = simulate(Ar1Params(0.0, 1.0, np.zeros(2)), design, 50, seed=0)
        draws = gibbs_sample([data], PriorConfig(), num_draws=10, seeds=[0]).chains[0]
        assert draws.num_draws == 10
        wider = simulate(Ar1Params(0.0, 1.0, np.zeros(3)), generate_design(50, 2, seed=0), 50, seed=0)
        with pytest.raises(InvalidSpec):
            gibbs_sample([data, wider], PriorConfig(), num_draws=5, seeds=[0, 1])
        with pytest.raises(InvalidSpec):
            gibbs_sample([data], PriorConfig(), num_draws=5, seeds=[0, 1])
        with pytest.raises(InvalidSpec):
            gibbs_sample([data], PriorConfig(), num_draws=0, seeds=[0])

    def test_non_psd_prior_covariance_is_reported(self):
        with pytest.raises(NumericalFailure):
            _eigenbasis(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))

    def test_draws_are_held_once(self):
        params = Ar1Params(0.4, 1.0, np.resize([0.0, 1.0, -0.5], 41))
        design = generate_design(2000, 40, seed=5)
        datasets = [simulate(params, design, 2000, seed=s) for s in (1, 2)]
        design.ztz
        batch, held, peak = _traced(gibbs_sample, datasets, PriorConfig(), num_draws=4000,
                                    seeds=[3, 4])
        # the draws in one buffer, plus each chain's grid while choosing sigma2,
        # or a block's normals, q and noise while making theta
        draws = sum(chain.draws.nbytes for chain in batch.chains)
        assert peak <= 1.35 * draws
        assert held <= 1.05 * draws
        assert batch.chains[0].draws.base is batch.chains[1].draws.base


def _wide_batch(num_draws):
    """Two chains at p = 41 and n = 2000 on one fresh design, whose Z'Z the sampler computes."""
    params = Ar1Params(0.4, 1.0, np.resize([0.0, 1.0, -0.5], 41))
    design = generate_design(2000, 40, seed=5)
    datasets = [simulate(params, design, 2000, seed=s) for s in (1, 2)]
    return design, gibbs_sample(datasets, PriorConfig(), num_draws=num_draws,
                                seeds=[3, 4])


@pytest.fixture
def caller_threads():
    """The caller's OpenBLAS thread count, set to 3 so that one thread is told apart from it."""
    if _blas._THREADS is None:
        pytest.skip("numpy does not run on its bundled OpenBLAS")
    get, set_ = _blas._THREADS
    before = get()
    set_(3)
    yield 3
    set_(before)


class TestOneBlasThread:
    def test_results_are_the_bits_of_the_callers_threads(self, caller_threads, monkeypatch):
        design, batch = _wide_batch(300)
        monkeypatch.setattr(_blas, "_THREADS", None)  # one_blas_thread does nothing
        plain_design, plain = _wide_batch(300)
        assert design.ztz.tobytes() == plain_design.ztz.tobytes()
        for chain, plain_chain in zip(batch.chains, plain.chains, strict=True):
            assert chain.draws.tobytes() == plain_chain.draws.tobytes()

    def test_one_thread_inside_the_sampler_and_the_callers_outside(self, caller_threads,
                                                                    monkeypatch):
        get = _blas._THREADS[0]
        counts, eigh = [], np.linalg.eigh

        def recording_eigh(a):
            counts.append(get())
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        design, _ = _wide_batch(5)
        assert counts == [1, 1]  # one basis per chain, each on one thread
        assert get() == caller_threads
        generate_design(300, 40, seed=6).ztz
        assert get() == caller_threads

        class NotPositiveDefinite(PriorConfig):
            def beta_covariance(self, num_covariates):
                return -np.eye(num_covariates + 1)

        data = simulate(Ar1Params(0.0, 1.0, np.zeros(41)), design, 2000, seed=0)
        with pytest.raises(NumericalFailure):
            gibbs_sample([data], NotPositiveDefinite(), num_draws=5, seeds=[0])
        assert get() == caller_threads


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
        draws = gibbs_sample([data], prior, num_draws=400, seeds=[3]).chains[0]
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


def _signal_averages(beta, beta0, design):
    """Averages of (z_t'b)^2, (z_t'b0)^2 and z_t'b z_t'b0 over the design rows."""
    fit, fit0 = design.z @ beta, design.z @ beta0
    n = design.n_obs
    return float(fit @ fit) / n, float(fit0 @ fit0) / n, float(fit @ fit0) / n


def _reference_rate(theta, theta0, averages):
    """The divergence rate expanded term by term in the long-run second moment
    V = (sigma0^2 + true_power) / (1 - rho0^2), from ``_signal_averages``: an
    oracle that reads neither the Gram matrix nor the package's V."""
    model_power, true_power, cross_power = averages
    s2, s20 = theta.sigma2, theta0.sigma2
    rho, rho0 = theta.rho, theta0.rho
    v = (s20 + true_power) / (1.0 - rho0**2)
    return (
        0.5 * math.log(s2 / s20)
        + (0.5 / s2 - 0.5 / s20) * v
        + (0.5 * rho**2 / s2 - 0.5 * rho0**2 / s20) * v
        + 0.5 * model_power / s2
        - 0.5 * true_power / s20
        - (rho / s2 - rho0 / s20) * rho0 * v
        - (cross_power / s2 - true_power / s20)
    )


class TestKlDivergenceRate:
    def test_exact_zero_at_truth(self):
        design = generate_design(80, 2, seed=0)
        theta0 = Ar1Params(0.5, 1.3, np.array([0.1, 0.7, -0.2]))
        assert kl_divergence_rate(theta0, theta0, design) == 0.0

    def test_sigma_only_hand_value(self):
        design = generate_design(100, 2, seed=1)
        zero = np.zeros(3)
        h = kl_divergence_rate(Ar1Params(0.0, 2.0, zero), Ar1Params(0.0, 1.0, zero), design)
        assert abs(h - (0.5 * math.log(2.0) - 0.25)) < 1e-12

    def test_orthonormal_design_gives_squared_norm(self):
        # G = I, so with rho and sigma2 at the truth h = |b - b0|^2 / (2 sigma0^2)
        design = generate_design(100, 3, generator="orthogonalized", scale=1.0, seed=10)
        theta0 = Ar1Params(0.3, 1.7, np.array([0.5, -1.0, 2.0, 0.25]))
        gap = np.array([0.2, 0.0, -1.5, 0.7])
        h = kl_divergence_rate(Ar1Params(0.3, 1.7, theta0.beta + gap), theta0, design)
        assert abs(h - float(gap @ gap) / (2.0 * 1.7)) < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 120),
        st.integers(0, 5),
        st.sampled_from(["iid_gaussian_bounded", "orthogonalized"]),
        st.integers(0, 2**16),
        st.floats(-1.5, 1.5),
        st.floats(-0.9, 0.9),
        st.floats(0.3, 4.0),
        st.floats(0.3, 4.0),
    )
    def test_matches_the_term_by_term_reference(self, n, m, generator, seed, rho, rho0, s2, s20):
        if generator == "orthogonalized" and m + 1 > n:
            n = m + 1
        design = generate_design(n, m, generator=generator, seed=seed)
        rng = np.random.default_rng(seed)
        theta = Ar1Params(rho, s2, rng.uniform(-2.0, 2.0, m + 1))
        theta0 = Ar1Params(rho0, s20, rng.uniform(-2.0, 2.0, m + 1))
        want = _reference_rate(theta, theta0, _signal_averages(theta.beta, theta0.beta, design))
        got = kl_divergence_rate(theta, theta0, design)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_empirical_equipartition_anchor(self):
        n = 4000
        design = generate_design(n, 3, seed=2)
        theta0 = Ar1Params(0.5, 1.0, np.array([0.0, 1.0, 0.0, -0.8]))
        theta = Ar1Params(0.6, 1.4, theta0.beta + np.array([0.0, 0.2, 0.0, 0.0]))
        rate = kl_divergence_rate(theta, theta0, design)
        devs = [
            log_likelihood_ratio(theta, theta0, simulate(theta0, design, n, seed=100 + r)) / n
            + rate
            for r in range(20)
        ]
        assert abs(float(np.mean(devs))) < 0.02

    def test_requires_stationary_truth(self):
        design = generate_design(50, 1, seed=0)
        zero = np.zeros(2)
        with pytest.raises(InvalidSpec):
            kl_divergence_rate(Ar1Params(0.0, 1.0, zero), Ar1Params(1.0, 1.0, zero), design)

    def test_coefficient_widths_must_match_the_design(self):
        design = generate_design(50, 1, seed=0)
        zero = np.zeros(2)
        with pytest.raises(InvalidSpec):
            kl_divergence_rate(Ar1Params(0.0, 1.0, np.zeros(1)), Ar1Params(0.0, 1.0, zero), design)


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
            averages = _signal_averages(beta, self.theta0.beta, self.design)
            for s2 in np.arange(0.5, 2.0 + 1e-12, 1e-3):
                h = _reference_rate(Ar1Params(0.0, float(s2), beta), self.theta0, averages)
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
                averages = _signal_averages(beta, theta0.beta, self.design)
                for rho in rhos:
                    for s2 in sigma2s:
                        h = _reference_rate(Ar1Params(float(rho), float(s2), beta), theta0, averages)
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
                averages = _signal_averages(beta, self.theta0.beta, self.design)
                for s2 in np.linspace(0.4, 3.0, 40):
                    worst = min(
                        worst,
                        _reference_rate(Ar1Params(0.0, float(s2), beta), self.theta0, averages),
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
        draws = gibbs_sample([data], PriorConfig(), num_draws=30, seeds=[3]).chains[0]
        path = tmp_path / "draws.csv"
        np.savetxt(path, draws.draws, delimiter=",", header="rho,sigma2,beta0,beta1",
                   comments="", fmt="%.17g")
        back = load_draws(path)
        np.testing.assert_array_equal(back.draws, draws.draws)

    def test_draws_validation(self):
        with pytest.raises(InvalidSpec):
            PosteriorDraws(np.array([[0.1, -1.0, 0.0]]))
