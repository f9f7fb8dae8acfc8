"""AR(1) regression with time-varying covariates.

Covers truth simulation, the two prior families for the coefficient vector,
two-block Gibbs sampling of the posterior, the log likelihood ratio between
two parameter points, the Kullback-Leibler divergence rate in closed form,
and the error exponent that governs how fast posterior error rates vanish
with the sample size.

The observation model is

    x_t = rho * x_{t-1} + z_t' beta + eps_t,   eps_t ~ N(0, sigma2),  x_0 = 0,

with ``z_t`` the ``t``-th design row (column 0 identically one).  Given the
past it is a linear regression of ``x`` on ``W = [x_lag, Z]`` with
coefficient ``theta = (rho, beta)``; the sampler and the likelihood ratio
both read its statistics ``W'W``, ``W'x`` and ``x'x``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import special

from ._blas import one_blas_thread
from .exceptions import InfeasibleDesign, InvalidSpec, NumericalFailure
from .hypotheses import TestSpec

_KERNEL_JITTER = 1e-8
# sweeps of standard normals a Gibbs chain holds at once, and draws rotated to theta at once
_NOISE_BLOCK = 512
# log Φ(-3) and the log mass of N(0, 1) on [-3, 3], as scipy.stats.truncnorm has them
_LOG_CDF_LOWER = special.log_ndtr(-3.0)
_LOG_MASS = special.log1p(-special.ndtr(-3.0) - special.ndtr(-3.0))


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _seed_payload(seed):
    """JSON-safe record of a seed argument for reproduction sidecars."""
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        if isinstance(entropy, (list, tuple)):
            return [int(e) for e in entropy]
        return int(entropy)
    return repr(seed)


@dataclass(frozen=True, eq=False)
class Ar1Params:
    """One parameter point: autoregression, innovation variance, coefficients."""

    rho: float
    sigma2: float
    beta: np.ndarray

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float)
        if beta.ndim != 1:
            raise InvalidSpec("beta must be a 1-d coefficient vector")
        if not np.all(np.isfinite(beta)):
            raise InvalidSpec("beta must be finite")
        if not self.sigma2 > 0:
            raise InvalidSpec("sigma2 must be positive")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)

    @property
    def num_coefficients(self) -> int:
        return self.beta.size


@dataclass(frozen=True, eq=False)
class CovariateDesign:
    """An n x (m+1) design whose first column is identically one.

    ``z`` is a read-only copy of the matrix given.  ``centered`` records that
    every non-intercept column sums to zero, which the generators below enforce
    so that long-run averages of ``z_t' beta`` vanish.  ``descriptor`` holds
    the generator, scale, seed, n and m that regenerate the matrix exactly.
    """

    z: np.ndarray
    centered: bool
    descriptor: dict = field(default_factory=dict)

    def __post_init__(self):
        z = np.array(self.z, dtype=float)
        if z.ndim != 2 or z.shape[1] < 1:
            raise InvalidSpec("design must be a 2-d matrix with at least one column")
        if not np.allclose(z[:, 0], 1.0, atol=1e-12):
            raise InvalidSpec("design column 0 must be identically one")
        if self.centered and z.shape[1] > 1:
            sums = np.abs(z[:, 1:].sum(axis=0))
            if np.any(sums > 1e-10 * z.shape[0]):
                raise InvalidSpec("centered design has a non-centered column")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    @property
    def n_obs(self) -> int:
        return self.z.shape[0]

    @property
    def num_covariates(self) -> int:
        return self.z.shape[1] - 1

    @cached_property
    def ztz(self) -> np.ndarray:
        """Z'Z, computed once per design."""
        with one_blas_thread():
            ztz = self.z.T @ self.z
        ztz.setflags(write=False)
        return ztz

    def gram(self) -> np.ndarray:
        """(Z'Z)/n, the per-observation Gram matrix."""
        return self.ztz / self.n_obs


@dataclass(frozen=True, eq=False)
class Dataset:
    """A simulated series: ``x`` holds x_1..x_n, ``design`` the covariates
    that drove it, and ``seed`` the seed of its noise.  The series starts from
    x_0 = 0.
    """

    x: np.ndarray
    design: CovariateDesign
    seed: int | list | str

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        if x.ndim != 1 or not np.all(np.isfinite(x)):
            raise InvalidSpec("x must be a finite 1-d series")
        if x.size != self.design.n_obs:
            raise InvalidSpec("series length and design row count disagree")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)

    @property
    def n_obs(self) -> int:
        return self.x.size

    def lagged(self) -> np.ndarray:
        """The series shifted by one step, starting at x_0 = 0."""
        return np.concatenate(([0.0], self.x[:-1]))


@dataclass(frozen=True)
class PriorConfig:
    """Prior for (rho, sigma2, beta).

    ``independent_gaussian`` puts iid N(0, beta_sd^2) mass on each coefficient.
    ``gp_decay`` draws a smooth function on the grid i/m under a squared
    exponential kernel and shrinks coefficient ``i`` by the deterministic factor
    ``decay_scale * decay_base**i``; the geometric decay keeps the summed
    coefficient scales finite no matter how many covariates enter.
    """

    family: str = "independent_gaussian"
    beta_sd: float = 10.0
    gp_lengthscale: float = 0.3
    gp_amplitude: float = 1.0
    decay_base: float = 0.7
    decay_scale: float = 1.0
    rho_prior_sd: float = 1.0
    sigma2_shape: float = 2.0
    sigma2_rate: float = 1.0

    def __post_init__(self):
        if self.family not in ("independent_gaussian", "gp_decay"):
            raise InvalidSpec(f"unknown prior family {self.family!r}")
        for name in ("beta_sd", "gp_lengthscale", "gp_amplitude", "decay_scale",
                     "rho_prior_sd", "sigma2_shape", "sigma2_rate"):
            if not getattr(self, name) > 0:
                raise InvalidSpec(f"{name} must be positive")
        if not 0.0 < self.decay_base < 1.0:
            raise InvalidSpec("decay_base must lie strictly inside (0, 1)")

    def coefficient_scales(self, num_covariates: int) -> np.ndarray:
        """Shrinkage factors decay_scale * decay_base**i for i = 0..m."""
        return self.decay_scale * self.decay_base ** np.arange(num_covariates + 1, dtype=float)

    def beta_covariance(self, num_covariates: int) -> np.ndarray:
        p = num_covariates + 1
        if self.family == "independent_gaussian":
            return self.beta_sd**2 * np.eye(p)
        grid = np.arange(p, dtype=float) / max(num_covariates, 1)
        sq = (grid[:, None] - grid[None, :]) ** 2
        kernel = self.gp_amplitude**2 * np.exp(-sq / (2.0 * self.gp_lengthscale**2))
        kernel[np.diag_indices(p)] += _KERNEL_JITTER
        scales = self.coefficient_scales(num_covariates)
        return scales[:, None] * kernel * scales[None, :]


@dataclass(frozen=True, eq=False)
class PosteriorDraws:
    """One chain's retained posterior sample.

    ``draws`` holds one row per retained draw, with columns (rho, sigma2,
    beta_0..beta_m).  A float array given as ``draws`` is kept, not copied,
    and made read-only.
    """

    draws: np.ndarray

    def __post_init__(self):
        draws = np.asarray(self.draws, dtype=float)
        if draws.ndim != 2 or draws.shape[0] < 1 or draws.shape[1] < 3:
            raise InvalidSpec("draws must be an S x (m+3) matrix with S >= 1")
        if not np.all(draws[:, 1] > 0):
            raise InvalidSpec("sigma2 draws must be strictly positive")
        draws.setflags(write=False)
        object.__setattr__(self, "draws", draws)

    @property
    def num_draws(self) -> int:
        return self.draws.shape[0]

    @property
    def num_coefficients(self) -> int:
        return self.draws.shape[1] - 2

    @property
    def rho(self) -> np.ndarray:
        return self.draws[:, 0]

    @property
    def sigma2(self) -> np.ndarray:
        return self.draws[:, 1]

    @property
    def beta(self) -> np.ndarray:
        return self.draws[:, 2:]


@dataclass(frozen=True, eq=False)
class PosteriorBatch:
    """The chains of one ``gibbs_sample`` call, in dataset order.

    ``chains[r]`` holds the draws of dataset r, or the ``NumericalFailure`` of
    a chain that went non-finite.  ``diagnostics["sweeps"]`` is the number of
    sweeps every chain ran.
    """

    chains: tuple
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# design generation and simulation
# ---------------------------------------------------------------------------

def generate_design(
    n: int,
    num_covariates: int,
    generator: str = "iid_gaussian_bounded",
    scale: float = 1.0,
    seed=0,
) -> CovariateDesign:
    """Generate a covariate design with bounded entries.

    ``iid_gaussian_bounded`` draws entries from N(0, scale^2) truncated to
    [-3*scale, 3*scale] by inverse CDF in log space, the same ufuncs on the same
    uniforms as ``scipy.stats.truncnorm.rvs(-3, 3, scale=scale)`` and so the
    same bits, and centers every non-intercept column.  The uniforms become
    the design's entries in one buffer, so the peak is a few copies of ``z``.
    ``orthogonalized`` additionally orthogonalizes the columns and rescales them
    so (Z'Z)/n equals diag(1, scale^2, ..., scale^2).
    """
    if n < 2:
        raise InvalidSpec("need at least two observations")
    if num_covariates < 0:
        raise InvalidSpec("num_covariates must be non-negative")
    if generator not in ("iid_gaussian_bounded", "orthogonalized"):
        raise InvalidSpec(f"unknown design generator {generator!r}")
    rng = _rng(seed)
    m = num_covariates
    z = np.ones((n, m + 1))
    descriptor = {"generator": generator, "scale": scale, "seed": _seed_payload(seed), "n": n, "m": m}
    if m > 0:
        # log CDF = logsumexp(log Φ(-3), log u + log mass): scipy's two-term
        # ufuncs, hi + log1p(exp(lo - hi)), computed in place
        lo = np.log(rng.uniform(size=(n, m)))
        lo += _LOG_MASS
        hi = np.maximum(lo, _LOG_CDF_LOWER)
        np.minimum(lo, _LOG_CDF_LOWER, out=lo)
        lo -= hi
        np.log1p(np.exp(lo, out=lo), out=lo)
        lo += hi
        raw = special.ndtri_exp(lo, out=lo)
        raw *= scale
        raw += 0.0  # truncnorm's `+ loc` turns -0.0 into 0.0
        if generator == "iid_gaussian_bounded":
            raw -= raw.mean(axis=0)
            z[:, 1:] = raw
        else:
            if m + 1 > n:
                raise InfeasibleDesign(
                    f"cannot orthogonalize {m + 1} columns with only {n} rows"
                )
            with one_blas_thread():
                q, r = np.linalg.qr(np.column_stack([np.ones(n), raw]))
            q = q * np.sign(np.diag(r))  # fix the sign convention for determinism
            z[:, 1:] = q[:, 1:] * (math.sqrt(n) * scale)
    return CovariateDesign(z=z, centered=True, descriptor=descriptor)


def simulate(params: Ar1Params, design: CovariateDesign, n: int, seed=0) -> Dataset:
    """Simulate the autoregression driven by the design and Gaussian noise."""
    if design.n_obs != n:
        raise InvalidSpec("design row count and requested length disagree")
    if params.num_coefficients != design.num_covariates + 1:
        raise InvalidSpec("coefficient vector and design width disagree")
    rng = _rng(seed)
    drive = design.z @ params.beta + rng.normal(0.0, math.sqrt(params.sigma2), size=n)
    x, prev = [], 0.0
    for value in drive.tolist():  # x_t = drive_t + rho x_{t-1}, x_0 = 0
        prev = value + params.rho * prev
        x.append(prev)
    return Dataset(x=np.array(x), design=design, seed=_seed_payload(seed))


# ---------------------------------------------------------------------------
# Gibbs sampling
# ---------------------------------------------------------------------------

def _regression_statistics(data: Dataset) -> tuple[np.ndarray, np.ndarray, float]:
    """W'W, W'x and x'x of the regression of x on W = [x_lag, Z]: all the data
    the likelihood sees.  The Z'Z block is the design's own."""
    z, x, xl = data.design.z, data.x, data.lagged()
    p = z.shape[1] + 1
    wtw = np.empty((p, p))
    wtw[0, 0] = xl @ xl
    wtw[0, 1:] = wtw[1:, 0] = z.T @ xl
    wtw[1:, 1:] = data.design.ztz
    wtx = np.concatenate(([xl @ x], z.T @ x))
    return wtw, wtx, float(x @ x)


def _eigenbasis(covariance: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V = L W and lambda, where covariance = L L' and L' gram L = W diag(lambda) W'.

    Then V' covariance^-1 V = I and V' gram V = diag(lambda).  A non-finite
    ``gram`` gives a NaN basis, never seen by ``eigh``.
    """
    try:
        chol = np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            "coefficient prior covariance is not positive definite even after jitter"
        ) from exc
    whitened = chol.T @ gram @ chol
    if not np.isfinite(whitened).all():
        return np.full_like(chol, np.nan), np.full(len(chol), np.nan)
    lam, w = np.linalg.eigh(whitened)
    return chol @ w, lam


def _floats_per_chain(width: int, num_draws: int, burn_in: int, thinning: int) -> int:
    """Floats ``gibbs_sample`` holds per chain: retained draws, gammas, one
    block of normals and the (p + 1)^2 basis."""
    total = burn_in + num_draws * thinning
    return (num_draws * (width + 2) + total + min(total, _NOISE_BLOCK) * (width + 1)
            + (width + 1) ** 2)


# a chain that overflows becomes a NumericalFailure of its own; the others never see it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
@one_blas_thread()
def gibbs_sample(
    datasets,
    prior: PriorConfig,
    *,
    num_draws: int = 4000,
    burn_in: int = 1000,
    thinning: int = 1,
    seeds,
) -> PosteriorBatch:
    """Sample the posterior of every dataset, one chain each, by two exact blocks.

    Given sigma2 the model is a Gaussian regression of x on W = [x_lag, Z]
    with coefficient theta = (rho, beta) and prior covariance
    blockdiag(rho_prior_sd^2, Sigma0), so theta | sigma2 is drawn in one block,
    and sigma2 | theta is inverse-gamma.  Both conditionals are exact, so
    there is no step-size tuning, and rho and beta never wait on each other
    however x_lag correlates with the columns of Z.  theta = V u with V from
    ``_eigenbasis`` on W'W, once per chain, so the precision of u | sigma2 is
    diag(lambda)/sigma2 + I for either prior family, and one sweep is O(p)
    elementwise work on c = V'W'x and x'x, regardless of the series length.

    The chains are the rows of (R, p + 1) arrays, so one sweep of the batch
    is the same dozen or so numpy calls whatever R is.  The datasets must
    share p but may differ in length and design.  Chain r draws its noise
    from its own generator ``seeds[r]``: T standard gammas at once, then
    T x (p + 1) standard normals in blocks of ``_NOISE_BLOCK`` rows, row t
    holding the p + 1 normals of u at sweep t.  The blocks continue the same
    stream, so they change no draw, and the batch holds its retained draws,
    its gammas and one block of normals.  Every step is elementwise or a
    reduction along the chain's own row, so a chain's draws are the same bits
    in any batch, and a chain whose W'W or draws go non-finite becomes a
    ``NumericalFailure`` in ``chains`` without touching the others.
    ``chains[r].draws`` is chain r's slice of the batch's one block of
    retained draws, rotated to theta in place, in blocks of ``_NOISE_BLOCK``
    rows.
    """
    datasets, seeds = list(datasets), list(seeds)
    if not datasets or len(seeds) != len(datasets):
        raise InvalidSpec("need at least one dataset and one seed per dataset")
    if num_draws < 1:
        raise InvalidSpec("need at least one retained draw")
    if burn_in < 0 or thinning < 1:
        raise InvalidSpec("burn_in must be >= 0 and thinning >= 1")
    widths = {data.design.z.shape[1] for data in datasets}
    if len(widths) != 1:
        raise InvalidSpec("the datasets of one batch must share the coefficient count")
    (width,) = widths
    p = width + 1  # theta = (rho, beta)
    chains = len(datasets)
    total = burn_in + num_draws * thinning

    covariance = np.zeros((p, p))
    covariance[0, 0] = prior.rho_prior_sd**2
    covariance[1:, 1:] = prior.beta_covariance(width - 1)
    bases = []
    lam, c = np.empty((2, chains, p))
    xx = np.empty((chains, 1))
    rngs = []
    two_gammas = np.empty((total, chains, 1))
    for r, (data, seed) in enumerate(zip(datasets, seeds)):
        wtw, wtx, xx[r] = _regression_statistics(data)
        basis, lam[r] = _eigenbasis(covariance, wtw)
        bases.append(basis)
        c[r] = basis.T @ wtx
        rng = _rng(seed)
        two_gammas[:, r, 0] = rng.standard_gamma(prior.sigma2_shape + 0.5 * data.n_obs, size=total)
        rngs.append(rng)
    two_gammas *= 2.0
    # constants enter the sweep as (R, 1) arrays: a Python-float operand costs
    # numpy more per call than the arithmetic on a few chains
    two_c = 2.0 * c
    two_rate = np.full((chains, 1), 2.0 * prior.sigma2_rate)
    two_rate_xx = two_rate + xx

    # retained rows hold (u, sigma2) until theta = V u is rotated in after the loop
    kept = np.empty((chains, num_draws, p + 1))
    sigma2 = np.ones((chains, 1))
    k = 0
    block = min(_NOISE_BLOCK, total)
    normals = np.empty((block, chains, p))
    for start in range(0, total, block):
        rows = min(block, total - start)
        for r, rng in enumerate(rngs):
            normals[:rows, r] = rng.standard_normal((rows, p))
        for sweep, z, two_gamma in zip(range(start, start + rows), normals, two_gammas[start:]):
            # theta = V u | sigma2: precision (lambda + sigma2) / sigma2 per coordinate
            q = lam + sigma2
            u = c / q + z * np.sqrt(sigma2 / q)

            # sigma2 | theta = (2 rate + max(ssr, 0)) / (2 gamma), where
            # ssr = |x - W V u|^2 = x'x + sum u (lambda u - 2c)
            ssr_less_xx = np.add.reduce(u * (lam * u - two_c), axis=1, keepdims=True)
            sigma2 = np.maximum(two_rate_xx + ssr_less_xx, two_rate) / two_gamma

            if sweep >= burn_in and (sweep - burn_in) % thinning == 0:
                kept[:, k, :p] = u
                kept[:, k, p:] = sigma2
                k += 1

    # the noise is spent: free it, and the loop's views of it, before theta = U V'
    del two_gammas, two_gamma, normals, z
    out = []
    for basis, draws in zip(bases, kept):
        for lo in range(0, num_draws, _NOISE_BLOCK):
            part = draws[lo:lo + _NOISE_BLOCK]
            theta = part[:, :p] @ basis.T  # (u, sigma2) becomes (rho, sigma2, beta)
            part[:, 1] = part[:, p]
            part[:, 0] = theta[:, 0]
            part[:, 2:] = theta[:, 1:]
        if np.isfinite(draws).all():
            out.append(PosteriorDraws(draws))
        else:
            out.append(NumericalFailure("the chain went non-finite"))
    return PosteriorBatch(tuple(out), diagnostics={"sweeps": total})


# ---------------------------------------------------------------------------
# likelihood ratio, divergence rate, error exponent
# ---------------------------------------------------------------------------

def log_likelihood_ratio(theta: Ar1Params, theta0: Ar1Params, data: Dataset) -> float:
    """log of the density ratio f_theta / f_theta0 at the observed series.

    Each density reads the residual sum of squares of the regression of x on
    W = [x_lag, Z], rss(t) = x'x - 2 t'W'x + t'W'W t at t = (rho, beta), which
    agrees with the difference of the two Gaussian log densities to rounding
    error.
    """
    p = data.design.num_covariates + 1
    if theta.num_coefficients != p or theta0.num_coefficients != p:
        raise InvalidSpec("coefficient vectors and design width disagree")
    wtw, wtx, xx = _regression_statistics(data)

    def rss(params: Ar1Params) -> float:
        t = np.concatenate(([params.rho], params.beta))
        return xx - 2.0 * float(t @ wtx) + float(t @ wtw @ t)

    neg = (
        0.5 * data.n_obs * math.log(theta.sigma2 / theta0.sigma2)
        + 0.5 * rss(theta) / theta.sigma2
        - 0.5 * rss(theta0) / theta0.sigma2
    )
    return -neg


def _long_run_variance(theta0: Ar1Params, gram: np.ndarray) -> float:
    """V = (sigma0^2 + b0'G b0) / (1 - rho0^2), the long-run second moment of
    the series theta0 generates on a design of Gram matrix G."""
    if abs(theta0.rho) >= 1.0:
        raise InvalidSpec("the long-run variance needs a stationary truth, |rho0| < 1")
    beta0 = theta0.beta
    return (theta0.sigma2 + float(beta0 @ gram @ beta0)) / (1.0 - theta0.rho**2)


def kl_divergence_rate(theta: Ar1Params, theta0: Ar1Params, design: CovariateDesign) -> float:
    """Per-observation Kullback-Leibler divergence rate of theta0's law from theta's:

        h = log(sigma2 / sigma0^2) / 2 + A / (2 sigma2) - 1/2,
        A = sigma0^2 + V (rho - rho0)^2 + (b - b0)' G (b - b0),

    with G = (Z'Z)/n and V from ``_long_run_variance``.  Requires a stationary
    generating process (|rho0| < 1).
    """
    p = design.num_covariates + 1
    if theta.num_coefficients != p or theta0.num_coefficients != p:
        raise InvalidSpec("coefficient vectors and design width disagree")
    gram = design.gram()
    gap = theta.beta - theta0.beta
    a = theta0.sigma2 + _long_run_variance(theta0, gram) * (theta.rho - theta0.rho) ** 2
    a += float(gap @ gram @ gap)
    return 0.5 * math.log(theta.sigma2 / theta0.sigma2) + a / (2.0 * theta.sigma2) - 0.5


def _nearer_boundary(value: float, bound: float) -> float:
    """The point of {-bound, +bound} closer to ``value`` (+bound on a tie)."""
    return bound if value >= 0.0 else -bound


@dataclass(frozen=True)
class ErrorExponent:
    """Smallest divergence rate compatible with getting some decision wrong.

    ``value`` bounds the exponential decay of posterior error rates: they
    vanish like exp(-n * (value - eps)).  ``per_hypothesis`` holds each
    hypothesis' own infimum; ``argmin`` is the parameter point attaining the
    overall one, on the boundary of the wrong region of ``argmin_hypothesis``.
    """

    value: float
    argmin: Ar1Params
    per_hypothesis: np.ndarray
    argmin_hypothesis: int


def estimate_error_exponent(
    theta0: Ar1Params,
    spec: TestSpec,
    design: CovariateDesign,
) -> ErrorExponent:
    """Minimize the divergence rate over parameters that flip one decision.

    For each hypothesis the offending coordinate is pushed into the wrong
    region (a coefficient clamped inside the null band, or forced outside it;
    the autoregression pulled inside, or pushed past, ``rho_null_bound``) while
    the remaining coefficients stay at their generating values and (rho,
    sigma2) are free.  The divergence rate of ``kl_divergence_rate`` then has

        A = sigma0^2 + V (rho - rho0)^2 + G_ii (b_i - b0_i)^2.

    The best sigma2 is A, so h = log(A / sigma0^2) / 2, and the offending
    coordinate sits on the wrong region's boundary nearest the truth, at
    distance delta:

        coefficient i:   J_i = log1p(G_ii delta^2 / sigma0^2) / 2,
                         delta = | |b0_i| - null_radius |, rho = rho0;
        autoregression:  J = log1p(V delta^2 / sigma0^2) / 2,
                         delta = | |rho0| - rho_null_bound |.

    Single-coordinate violations suffice: flipping several decisions shrinks
    the feasible set, so it cannot lower the minimum.
    """
    if theta0.num_coefficients != design.num_covariates + 1:
        raise InvalidSpec("coefficient vector and design width disagree")
    gram = design.gram()
    beta0 = theta0.beta
    s20 = theta0.sigma2
    long_run = _long_run_variance(theta0, gram)

    per_hypothesis = np.empty(spec.num_hypotheses)
    argmins: list[Ar1Params] = []
    for hyp in range(spec.num_hypotheses):
        coef = spec.coefficient_of_hypothesis(hyp)
        rho, beta = theta0.rho, beta0.copy()
        if coef is None:
            rho = _nearer_boundary(theta0.rho, spec.rho_null_bound)
            excess = long_run * (rho - theta0.rho) ** 2
        else:
            beta[coef] = _nearer_boundary(beta0[coef], spec.null_radius)
            excess = gram[coef, coef] * (beta[coef] - beta0[coef]) ** 2
        per_hypothesis[hyp] = 0.5 * math.log1p(excess / s20)
        argmins.append(Ar1Params(rho, s20 + excess, beta))

    best_hyp = int(np.argmin(per_hypothesis))
    return ErrorExponent(
        value=float(per_hypothesis[best_hyp]),
        argmin=argmins[best_hyp],
        per_hypothesis=per_hypothesis,
        argmin_hypothesis=best_hyp,
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _write_sidecar(path: Path, payload: dict) -> None:
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(payload, indent=2, sort_keys=True))


def save_design(path, design: CovariateDesign) -> None:
    path = Path(path)
    header = ",".join(["z0"] + [f"z{i}" for i in range(1, design.z.shape[1])])
    np.savetxt(path, design.z, delimiter=",", header=header, comments="", fmt="%.17g")
    _write_sidecar(path, {"centered": design.centered, "descriptor": design.descriptor})


def save_dataset(path, data: Dataset) -> None:
    path = Path(path)
    np.savetxt(path, data.x, delimiter=",", header="x", comments="", fmt="%.17g")
    _write_sidecar(path, {"seed": data.seed, "design": data.design.descriptor})


def load_draws(path) -> PosteriorDraws:
    """Draws from a CSV of one header line, then one row (rho, sigma2, beta...) per draw."""
    arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return PosteriorDraws(arr)
