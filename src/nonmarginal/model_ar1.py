"""AR(1) regression with time-varying covariates.

Covers truth simulation, the two prior families for the coefficient vector,
exact independent draws from the posterior, the log likelihood ratio between
two parameter points, the exact Kullback-Leibler divergence rate at each n,
and the error exponent that governs how fast posterior error rates vanish
with the sample size.

The observation model is

    x_t = rho * x_{t-1} + z_t' beta + eps_t,   eps_t ~ N(0, sigma2),  x_0 = 0,

with ``z_t`` the ``t``-th design row (column 0 identically one).  Given the
past it is a linear regression of ``x`` on ``W = [x_lag, Z]`` with
coefficient ``theta = (rho, beta)``; the sampler and the likelihood ratio
both read its statistics ``W'W``, ``W'x`` and ``x'x``, and the divergence
rate and the error exponent read ``H_n = E0[W'W] / n``, with rho as
coordinate 0 of theta.

The sampler draws sigma2 from its one-dimensional marginal posterior, by
inverse CDF on a grid in log sigma2, and then theta | sigma2, which is
Gaussian and diagonal in an eigenbasis computed once per chain.  No draw
depends on another, so there are no sweeps and no burn-in.
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
# nodes of each chain's inverse-CDF grid in log sigma2
_SIGMA2_NODES = 512
# each chain's grid spans the log sigma2 whose log density is within this many nats of its mode's
_WINDOW_NATS = 40.0
# rows of every chain's draws made at once: the draws' bits depend on it through the U V' product
_BLOCK_ROWS = 256
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
    draws of every chain.
    """

    chains: tuple
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# design generation and simulation
# ---------------------------------------------------------------------------

def check_design_rule(generator: str, scale: float) -> None:
    """Raise ``InvalidSpec`` unless ``generate_design`` knows ``generator`` and
    ``scale`` is positive."""
    if generator not in ("iid_gaussian_bounded", "orthogonalized"):
        raise InvalidSpec(f"unknown design generator {generator!r}")
    if not scale > 0:
        raise InvalidSpec(f"design scale must be positive, not {scale!r}")


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
    check_design_rule(generator, scale)
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
    return Dataset(x=_ar_filter(drive, params.rho), design=design, seed=_seed_payload(seed))


def _ar_filter(drive: np.ndarray, rho: float) -> np.ndarray:
    """x_t = drive_t + rho x_{t-1} from x_0 = 0, one float step at a time."""
    x, prev = [], 0.0
    for value in drive.tolist():
        prev = value + rho * prev
        x.append(prev)
    return np.array(x)


# ---------------------------------------------------------------------------
# posterior sampling
# ---------------------------------------------------------------------------

def _lagged_gram(design: CovariateDesign, lag: np.ndarray, lag_square: float) -> np.ndarray:
    """W'W for W = [lag, Z], with ``lag_square`` for lag'lag and the design's own Z'Z."""
    p = design.z.shape[1] + 1
    gram = np.empty((p, p))
    gram[0, 0] = lag_square
    gram[0, 1:] = gram[1:, 0] = design.z.T @ lag
    gram[1:, 1:] = design.ztz
    return gram


def _regression_statistics(data: Dataset) -> tuple[np.ndarray, np.ndarray, float]:
    """W'W, W'x and x'x of the regression of x on W = [x_lag, Z]: all the data
    the likelihood sees."""
    z, x, xl = data.design.z, data.x, data.lagged()
    wtx = np.concatenate(([xl @ x], z.T @ x))
    return _lagged_gram(data.design, xl, xl @ xl), wtx, float(x @ x)


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


def _floats_per_chain(width: int, num_draws: int) -> int:
    """Floats ``gibbs_sample`` holds per chain: its num_draws x (width + 2)
    draws, a sigma2 per draw and the (p + 1)^2 basis, for p = ``width``."""
    return num_draws * (width + 3) + (width + 1) ** 2


def _chain_terms(datasets, prior: PriorConfig):
    """Per chain: the basis V (chains, p, p) and lambda of ``_eigenbasis`` on
    W'W under the prior covariance of theta, c = V'W'x, a + n/2 and b + x'x/2."""
    p = datasets[0].design.z.shape[1] + 1
    covariance = np.zeros((p, p))
    covariance[0, 0] = prior.rho_prior_sd**2
    covariance[1:, 1:] = prior.beta_covariance(p - 2)
    bases = np.empty((len(datasets), p, p))
    lam, c = np.empty((2, len(datasets), p))
    a_n, b_xx = np.empty((2, len(datasets)))
    for r, data in enumerate(datasets):
        wtw, wtx, xx = _regression_statistics(data)
        bases[r], lam[r] = _eigenbasis(covariance, wtw)
        c[r] = bases[r].T @ wtx
        a_n[r] = prior.sigma2_shape + 0.5 * data.n_obs
        b_xx[r] = prior.sigma2_rate + 0.5 * xx
    return bases, lam, c, a_n, b_xx


def _log_density(s, lam, c2, a_n, b_xx):
    """log p(log sigma2 = s | x) up to a constant, at s of shape (chains, k):

        -(a + n/2) s - (b + x'x/2) e^-s - sum log1p(lambda e^-s) / 2
                     + e^-s sum c^2 / (lambda + e^s) / 2,

    for the inverse-gamma prior (a, b) and N(x; 0, sigma2 I + W C W'), C the
    prior covariance of theta: in the eigenbasis det(I + W C W' / sigma2) is
    prod(1 + lambda / sigma2) and the quadratic form is
    (x'x - sum c^2 / (lambda + sigma2)) / sigma2.  ``lam`` and ``c2`` are
    (chains, p); ``a_n`` = a + n/2 and ``b_xx`` = b + x'x/2 are (chains,).
    """
    lam = lam[:, None]
    e = np.exp(-s)
    det = np.log1p(lam * e[..., None]).sum(axis=-1)
    fit = (c2[:, None] / (lam + np.exp(s)[..., None])).sum(axis=-1)
    return -a_n[:, None] * s - (b_xx[:, None] - 0.5 * fit) * e - 0.5 * det


def _mode(lam, c2, a_n, b_xx, rate: float):
    """The s = log sigma2 where each chain's ``_log_density`` peaks, and its
    curvature there.

    The slope is positive below log(b / (a + n/2)) and negative above
    log((b + x'x/2 + sum lambda / 2) / (a + n/2)), so Newton's method runs
    inside that bracket from the inverse-gamma mode log((b + x'x/2) / (a + n/2)),
    bisecting where a step would leave it, until a step is under 1e-3 of the
    curvature's standard deviation.  A chain stops on its own test, so its
    mode is the same bits in any batch.
    """
    lo = np.log(rate / a_n)
    hi = np.log((b_xx + 0.5 * np.maximum(lam, 0.0).sum(axis=-1)) / a_n)
    s = np.log(b_xx / a_n)
    curvature = np.full_like(s, np.nan)
    active = np.arange(len(s))
    for _ in range(200):  # bisection alone shrinks the bracket 2^-200
        t = np.exp(s[active])[:, None]
        la, c2a, q = lam[active], c2[active], lam[active] + t
        fit = b_xx[active] - 0.5 * (c2a * (la + 2.0 * t) / q**2).sum(axis=-1)
        slope = -a_n[active] + 0.5 * (la / q).sum(axis=-1) + fit / t[:, 0]
        curv = (0.5 * (la * t / q**2).sum(axis=-1) + b_xx[active] / t[:, 0]
                - 0.5 * (c2a * (la**2 + 3.0 * la * t + 4.0 * t**2) / (t * q**3)).sum(axis=-1))
        curvature[active] = curv
        moving = np.abs(slope) > 1e-3 * np.sqrt(np.abs(curv))  # NaN stops
        active, slope, curv = active[moving], slope[moving], curv[moving]
        if not active.size:
            break
        rising = slope > 0
        lo[active[rising]] = s[active[rising]]
        hi[active[~rising]] = s[active[~rising]]
        step = s[active] + slope / curv
        inside = (curv > 0) & (step > lo[active]) & (step < hi[active])
        s[active] = np.where(inside, step, 0.5 * (lo[active] + hi[active]))
    return s, curvature


def _sigma2_grid(lam, c2, a_n, b_xx, rate: float):
    """Each chain's inverse-CDF grid for s = log sigma2: ``_SIGMA2_NODES``
    evenly spaced nodes and the CDF at them, both (chains, nodes).

    The grid spans the chain's own window around its mode, where the log
    density is within ``_WINDOW_NATS`` of the mode's: each edge starts
    sqrt(2 nats / curvature) away and moves out by a quarter until the
    density there is that far down, so a tail heavier than the Gaussian's
    still fits.  The CDF is the trapezoid rule, exact at the nodes for a
    density linear between them.
    """
    mode, curvature = _mode(lam, c2, a_n, b_xx, rate)
    top = _log_density(mode[:, None], lam, c2, a_n, b_xx)
    half = np.where(curvature > 0, np.sqrt(2.0 * _WINDOW_NATS / curvature), 1.0)
    edges = np.stack((-half, half), axis=1)
    for _ in range(200):  # 1.25^200 of the first width
        short = _log_density(mode[:, None] + edges, lam, c2, a_n, b_xx) > top - _WINDOW_NATS
        if not short.any():
            break
        edges[short] *= 1.25
    nodes = mode[:, None] + edges[:, :1] + (edges[:, 1:] - edges[:, :1]) * np.linspace(
        0.0, 1.0, _SIGMA2_NODES)
    density = _log_density(nodes, lam, c2, a_n, b_xx)
    density = np.exp(density - density.max(axis=1, keepdims=True))
    cdf = np.zeros_like(density)
    np.cumsum(density[:, 1:] + density[:, :-1], axis=1, out=cdf[:, 1:])
    cdf /= cdf[:, -1:]
    return nodes, cdf


# a chain that overflows becomes a NumericalFailure of its own; the others never see it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
@one_blas_thread()
def gibbs_sample(
    datasets,
    prior: PriorConfig,
    *,
    num_draws: int = 4000,
    seeds,
) -> PosteriorBatch:
    """Sample the posterior of every dataset, one chain each, by exact independent draws.

    Given sigma2 the model is a Gaussian regression of x on W = [x_lag, Z]
    with coefficient theta = (rho, beta) and prior covariance
    C = blockdiag(rho_prior_sd^2, Sigma0).  With V and lambda from
    ``_eigenbasis`` on W'W, once per chain, theta = V u and c = V'W'x, each
    u_k | sigma2, x ~ N(c_k / q_k, sigma2 / q_k) independently, with
    q_k = lambda_k + sigma2, for either prior family.  sigma2 | x has the
    one-dimensional density of ``_log_density``, so every draw is a sigma2
    from that law by inverse CDF on the chain's ``_sigma2_grid`` and then
    (rho, beta) | sigma2: a partially collapsed Gibbs sampler (van Dyk and
    Park, 2008) whose draws are independent, with no burn-in, and with an
    effective sample size equal to the draw count.

    Chain r draws its noise from its own generator ``seeds[r]``: num_draws
    uniforms for sigma2, then num_draws x (p + 1) standard normals, row i
    holding the p + 1 normals of u at draw i.  The normals come in blocks of
    ``_BLOCK_ROWS`` rows of every chain at once; each block becomes u and is
    rotated to theta by U V' straight into the draws, with column 1 of the
    rotation zero so that sigma2 can be written there.  The batch holds the
    draws in one buffer, (chains, num_draws, p + 2), and each chain's
    ``chains[r].draws`` is a view of it; nothing else outlives the call.
    Every step is elementwise or a reduction along the chain's own row, and a
    chain's Newton iterations stop on its own test, so a chain's draws are
    the same bits in any batch, and a chain whose W'W or draws go non-finite
    becomes a ``NumericalFailure`` in ``chains`` without touching the others.
    The datasets must share p but may differ in length and design.
    """
    datasets, seeds = list(datasets), list(seeds)
    if not datasets or len(seeds) != len(datasets):
        raise InvalidSpec("need at least one dataset and one seed per dataset")
    if num_draws < 1:
        raise InvalidSpec("need at least one retained draw")
    widths = {data.design.z.shape[1] for data in datasets}
    if len(widths) != 1:
        raise InvalidSpec("the datasets of one batch must share the coefficient count")
    (width,) = widths
    p = width + 1  # theta = (rho, beta)
    chains = len(datasets)

    bases, lam, c, a_n, b_xx = _chain_terms(datasets, prior)
    rotation = np.zeros((chains, p, p + 1))  # V' with a zero column 1 for sigma2
    rotation[:, :, [0, *range(2, p + 1)]] = bases.transpose(0, 2, 1)
    del bases
    nodes, cdf = _sigma2_grid(lam, c**2, a_n, b_xx, prior.sigma2_rate)
    rngs = [_rng(seed) for seed in seeds]
    sigma2 = np.empty((chains, num_draws))
    for r, rng in enumerate(rngs):
        np.exp(np.interp(rng.random(num_draws), cdf[r], nodes[r]), out=sigma2[r])
    del nodes, cdf

    draws = np.empty((chains, num_draws, p + 1))
    rows = min(_BLOCK_ROWS, num_draws)
    z, q, noise = np.empty((3, chains, rows, p))
    lam, c = lam[:, None], c[:, None]
    for lo in range(0, num_draws, rows):
        hi = min(lo + rows, num_draws)
        zb, qb, nb, s2 = z[:, :hi - lo], q[:, :hi - lo], noise[:, :hi - lo], sigma2[:, lo:hi, None]
        for r, rng in enumerate(rngs):
            rng.standard_normal(out=z[r, :hi - lo])
        # u = c / q + z sqrt(sigma2 / q), q = lambda + sigma2, with at most one
        # broadcast operand per ufunc: numpy buffers each one beside its result
        qb[...] = lam
        qb += s2
        np.divide(s2, qb, out=nb)
        np.sqrt(nb, out=nb)
        zb *= nb
        np.divide(c, qb, out=qb)
        zb += qb
        np.matmul(zb, rotation, out=draws[:, lo:hi])
        draws[:, lo:hi, 1] = sigma2[:, lo:hi]
    del z, q, noise, sigma2
    # min and max are finite exactly when every draw is, and need no bool copy
    finite = np.isfinite(draws.min(axis=(1, 2))) & np.isfinite(draws.max(axis=(1, 2)))
    out = [PosteriorDraws(chain) if ok else NumericalFailure("the chain went non-finite")
           for chain, ok in zip(draws, finite)]
    return PosteriorBatch(tuple(out), diagnostics={"sweeps": num_draws})


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


@np.errstate(over="ignore", invalid="ignore")
@one_blas_thread()
def _expected_gram(theta0: Ar1Params, design: CovariateDesign) -> np.ndarray:
    """H_n = E0[W'W] / n for W = [x_lag, Z] under theta0, exactly at n.

    With mu = E0 x, the AR filter of Z beta0, the cross block is Z'mu_lag and
    the rho-rho entry is mu_lag'mu_lag + sum_t Var x_(t-1).  Any rho0 will do,
    but a truth so explosive that H_n overflows is an ``InvalidSpec``.
    """
    n = design.n_obs
    mu_lag = np.concatenate(([0.0], _ar_filter(design.z[:-1] @ theta0.beta, theta0.rho)))
    # sum_t Var x_(t-1) = sigma0^2 sum_j (n - 1 - j) rho0^(2j) over j = 0..n-2
    powers = np.cumprod(np.full(n - 1, theta0.rho**2))
    variance_sum = theta0.sigma2 * (n - 1 + float(np.arange(n - 2, 0, -1) @ powers[:-1]))
    gram = _lagged_gram(design, mu_lag, mu_lag @ mu_lag + variance_sum) / n
    if not np.isfinite(gram).all():
        raise InvalidSpec(f"E0[W'W] / n is not finite for rho0 = {theta0.rho} at n = {n}")
    return gram


def kl_divergence_rate(theta: Ar1Params, theta0: Ar1Params, design: CovariateDesign) -> float:
    """Per-observation Kullback-Leibler divergence rate of theta0's law from theta's:

        h_n = log(sigma2 / sigma0^2) / 2 + (sigma0^2 + d'H_n d) / (2 sigma2) - 1/2,

    with d = (rho, beta) - (rho0, beta0) and H_n from ``_expected_gram``.
    Given the past, x_t is a regression on w_t = (x_(t-1), z_t) with true
    noise independent of w_t, so h_n is the exact divergence of the two laws
    of x_1..x_n over n, at every n and for any rho0.
    """
    p = design.num_covariates + 1
    if theta.num_coefficients != p or theta0.num_coefficients != p:
        raise InvalidSpec("coefficient vectors and design width disagree")
    gap = np.concatenate(([theta.rho - theta0.rho], theta.beta - theta0.beta))
    a = theta0.sigma2 + float(gap @ _expected_gram(theta0, design) @ gap)
    return 0.5 * math.log(theta.sigma2 / theta0.sigma2) + a / (2.0 * theta.sigma2) - 0.5


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


@one_blas_thread()
def estimate_error_exponent(
    theta0: Ar1Params,
    spec: TestSpec,
    design: CovariateDesign,
) -> ErrorExponent:
    """Minimize the divergence rate over parameters that flip one decision.

    Hypothesis h tests coordinate k of theta = (rho, beta), k = 0 for the
    autoregression and coefficient + 1 otherwise.  With sigma2 and every other
    coordinate free, the least divergence rate with d_k = delta, for the point
    b = theta0_k + delta of the wrong region nearest the truth (+bound on a
    tie), is J_k = log1p(delta^2 / (sigma0^2 (H^-1)_kk)) / 2, at
    theta* = theta0 + delta H^-1 e_k / (H^-1)_kk and
    sigma2* = sigma0^2 + delta^2 / (H^-1)_kk, for H = H_n of ``_expected_gram``.
    Single-coordinate violations suffice: flipping several decisions shrinks
    the feasible set, so it cannot lower the minimum.
    """
    if theta0.num_coefficients != design.num_covariates + 1:
        raise InvalidSpec("coefficient vector and design width disagree")
    inverse = np.linalg.inv(_expected_gram(theta0, design))
    theta = np.concatenate(([theta0.rho], theta0.beta))
    index = np.arange(spec.num_hypotheses) + 1 - int(spec.include_rho_test)
    bound = np.where(index == 0, spec.rho_null_bound, spec.null_radius)
    target = np.where(theta[index] >= 0.0, bound, -bound)
    delta = target - theta[index]
    spread = inverse[index, index]
    excess = delta**2 / spread
    per_hypothesis = 0.5 * np.log1p(excess / theta0.sigma2)

    best = int(np.argmin(per_hypothesis))
    k = index[best]
    argmin = theta + delta[best] / spread[best] * inverse[:, k]
    argmin[k] = target[best]  # theta0_k + delta need not round to the boundary
    return ErrorExponent(
        value=float(per_hypothesis[best]),
        argmin=Ar1Params(float(argmin[0]), theta0.sigma2 + float(excess[best]), argmin[1:]),
        per_hypothesis=per_hypothesis,
        argmin_hypothesis=best,
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
