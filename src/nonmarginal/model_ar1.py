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

The sampler runs each chain's sweeps as segments side by side, every one
started from the chain's own start, and then repairs each segment from the
end of the one before until its sigma2 meets what it recorded.  Only sigma2
carries state from one sweep to the next, so from that sweep on the record is
the sequential chain's, and the draws are the sequential chain's bit for bit.
While sampling, a chain holds each sweep's normals and sigma2 in one buffer,
which its draws then overwrite, and its gammas.
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
# most sweeps in one segment of a Gibbs chain
_NOISE_BLOCK = 512
# rows of every chain's draws rotated to theta at once: the draws' bits depend
# on it through the U V' product, and its temporaries come on top of the
# burn-in's rows, which are held while it runs
_ROTATION_ROWS = 64
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


def _floats_per_chain(width: int, num_draws: int, burn_in: int) -> int:
    """Floats ``gibbs_sample`` holds per chain: p + 2 floats per sweep (its
    normals and sigma2, which the kept sweeps' draws overwrite), a gamma per
    sweep and the (p + 1)^2 basis, for p = ``width``."""
    return (burn_in + num_draws) * (width + 3) + (width + 1) ** 2


def _u_given(sigma2, z, lam, c):
    """u | sigma2 = c / q + z sqrt(sigma2 / q), q = lambda + sigma2: its
    precision is q / sigma2 per coordinate.  ``lam + sigma2`` has u's shape."""
    q = lam + sigma2
    noise = sigma2 / q
    np.sqrt(noise, out=noise)
    noise *= z
    np.divide(c, q, out=q)
    return np.add(q, noise, out=q)


def _sigma2_given(u, lam, two_c, two_rate_xx, two_rate, two_gamma):
    """sigma2 | u = (2 rate + max(ssr, 0)) / (2 gamma), where
    ssr = |x - W V u|^2 = x'x + sum u (lambda u - 2c), summed along each row."""
    ssr_less_xx = np.add.reduce(u * (lam * u - two_c), axis=-1, keepdims=True)
    return np.maximum(two_rate_xx + ssr_less_xx, two_rate) / two_gamma


def _same(a, b):
    """a == b elementwise, with NaN equal to NaN, so a chain gone non-finite settles."""
    return (a == b) | (np.isnan(a) & np.isnan(b))


def _step_segments(z, s2, const, two_gammas, length: int, segments: int) -> None:
    """Step the segments of every chain side by side, each from sigma2 = 1,
    and record in ``s2`` the sigma2 each sweep ends with.

    Step s runs sweep j * length + s of every segment j still running: the
    sweeps ``s::length`` of each chain.  The constants are repeated across
    segments, so of the operands only sigma2 broadcasts along a row.
    """
    chains = len(z)
    repeated = [np.repeat(a[:, None], segments, axis=1) for a in const]
    sigma2 = np.ones((chains, segments, 1))
    for s in range(length):
        normals = z[:, s::length]
        n = normals.shape[1]
        lam, c, *rest = (a[:, :n] for a in repeated)
        u = _u_given(sigma2[:, :n], normals, lam, c)
        sigma2 = _sigma2_given(u, lam, *rest, two_gammas[:, s::length, None])
        s2[:, s::length] = sigma2[:, :, 0]


def _repair(z, s2, const, two_gammas, length: int, segments: int) -> None:
    """Make the sigma2 recorded in ``s2`` the sequential chain's.

    Segment j >= 1 reruns from the recorded sigma2 at the end of segment
    j - 1, on the rows still moving, until the sigma2 it computes equals the
    record: from that sweep on the record follows from its start.  A segment
    that reaches its end first changes the next one's start, so the passes
    repeat until no start changes.  Segment j is settled after j passes.
    """
    lam, c, two_c, two_rate_xx, two_rate = const
    chains, total = two_gammas.shape
    began = np.ones((chains, segments))  # the start each segment last ran from
    chain = np.repeat(np.arange(chains), segments - 1)
    segment = np.tile(np.arange(1, segments), chains)
    while True:
        start = s2[chain, segment * length - 1]
        moved = ~_same(start, began[chain, segment])
        if not moved.any():
            return
        r, j, sigma2 = chain[moved], segment[moved], start[moved]
        began[r, j] = sigma2
        t, stop = j * length, np.minimum(j * length + length, total)
        while r.size:
            u = _u_given(sigma2[:, None], z[r, t], lam[r], c[r])
            sigma2 = _sigma2_given(u, lam[r], two_c[r], two_rate_xx[r], two_rate[r],
                                   two_gammas[r, t][:, None])[:, 0]
            moving = ~_same(sigma2, s2[r, t])
            s2[r[moving], t[moving]] = sigma2[moving]
            t = t + 1
            moving &= t < stop
            r, t, stop, sigma2 = r[moving], t[moving], stop[moving], sigma2[moving]


# a chain that overflows becomes a NumericalFailure of its own; the others never see it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
@one_blas_thread()
def gibbs_sample(
    datasets,
    prior: PriorConfig,
    *,
    num_draws: int = 4000,
    burn_in: int = 1000,
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
    Each chain runs T = burn_in + num_draws sweeps and keeps every sweep
    after the burn-in.

    Chain r draws its noise from its own generator ``seeds[r]``: T standard
    gammas, then T x (p + 1) standard normals, row t holding the p + 1
    normals of u at sweep t.  Only sigma2 carries one sweep into the next,
    and a sweep is the same elementwise function of (sigma2, normals, gamma)
    wherever it runs.  So each chain's T sweeps are cut into segments of at
    most ``_NOISE_BLOCK`` sweeps, all started from sigma2 = 1, the chain's
    own start, and the segments of every chain step side by side as the rows
    of (R, segments, p + 1) arrays; segment 0 is then exact.  ``_repair``
    reruns each later segment from the recorded sigma2 at the end of the one
    before until it meets its own record bit for bit, which leaves the record
    the sequential chain's.  The update of sigma2 contracts by about p / n a
    sweep, so a pass of a dozen or so sweeps usually settles every segment;
    at worst the repair costs the sequential chain.  Each kept u is then
    rebuilt from its normals and the sigma2 before it, the same operations on
    the same operands as in the loop, so the segments change no draw.

    Per chain the batch holds one gamma and p + 2 floats per sweep in one
    buffer: the T x (p + 1) normals, drawn in place, then the T recorded
    sigma2.  The draws are the last num_draws x (p + 2) floats of the chain's
    part, rotated to theta in place, every chain's rows at once in blocks of
    ``_ROTATION_ROWS`` rows from the last; a block starts past the normals of
    every earlier sweep, so only the sigma2 are copied first.  Every step is elementwise or a reduction
    along the chain's own row, so a chain's draws are the same bits in any
    batch, and a chain whose W'W or draws go non-finite becomes a
    ``NumericalFailure`` in ``chains`` without touching the others.  The
    datasets must share p but may differ in length and design.
    ``chains[r].draws`` is a view of that buffer.
    """
    datasets, seeds = list(datasets), list(seeds)
    if not datasets or len(seeds) != len(datasets):
        raise InvalidSpec("need at least one dataset and one seed per dataset")
    if num_draws < 1:
        raise InvalidSpec("need at least one retained draw")
    if burn_in < 0:
        raise InvalidSpec("burn_in must be >= 0")
    widths = {data.design.z.shape[1] for data in datasets}
    if len(widths) != 1:
        raise InvalidSpec("the datasets of one batch must share the coefficient count")
    (width,) = widths
    p = width + 1  # theta = (rho, beta)
    chains = len(datasets)
    total = burn_in + num_draws

    covariance = np.zeros((p, p))
    covariance[0, 0] = prior.rho_prior_sd**2
    covariance[1:, 1:] = prior.beta_covariance(width - 1)
    bases = np.empty((chains, p, p))
    lam, c = np.empty((2, chains, p))
    xx = np.empty((chains, 1))
    rows = np.empty((chains, total * (p + 1)))
    z, s2 = rows[:, :total * p].reshape(chains, total, p), rows[:, total * p:]
    two_gammas = np.empty((chains, total))
    for r, (data, seed) in enumerate(zip(datasets, seeds)):
        wtw, wtx, xx[r] = _regression_statistics(data)
        bases[r], lam[r] = _eigenbasis(covariance, wtw)
        c[r] = bases[r].T @ wtx
        rng = _rng(seed)
        rng.standard_gamma(prior.sigma2_shape + 0.5 * data.n_obs, out=two_gammas[r])
        rng.standard_normal(out=z[r])
    del covariance, wtw, wtx
    two_gammas *= 2.0
    # constants enter the sweep as arrays: a Python-float operand costs numpy
    # more per call than the arithmetic on a few chains
    two_rate = np.full((chains, 1), 2.0 * prior.sigma2_rate)
    const = (lam, c, 2.0 * c, two_rate + xx, two_rate)
    length = -(-total // -(-total // _NOISE_BLOCK))
    segments = -(-total // length)
    _step_segments(z, s2, const, two_gammas, length, segments)
    _repair(z, s2, const, two_gammas, length, segments)
    del two_gammas

    # sigma2[:, i] is the sigma2 kept sweep i starts from, sigma2[:, i + 1]
    # the one it ends with; copied, since the draws overwrite s2
    if burn_in:
        sigma2 = s2[:, burn_in - 1:].copy()
    else:
        sigma2 = np.concatenate((np.ones((chains, 1)), s2), axis=1)
    kept = rows[:, burn_in * (p + 1):].reshape(chains, num_draws, p + 1)
    for lo in reversed(range(0, num_draws, _ROTATION_ROWS)):
        hi = min(lo + _ROTATION_ROWS, num_draws)
        u = _u_given(sigma2[:, lo:hi, None], z[:, burn_in + lo:burn_in + hi], lam[:, None],
                     c[:, None])
        theta = np.matmul(u, bases.transpose(0, 2, 1))  # one U V' per chain
        kept[:, lo:hi, 0] = theta[..., 0]
        kept[:, lo:hi, 1] = sigma2[:, lo + 1:hi + 1]
        kept[:, lo:hi, 2:] = theta[..., 1:]
        del u, theta  # so the next block's temporaries are not held beside these
    # min and max are finite exactly when every draw is, and need no bool copy
    finite = np.isfinite(kept.min(axis=(1, 2))) & np.isfinite(kept.max(axis=(1, 2)))
    out = [PosteriorDraws(draws) if ok else NumericalFailure("the chain went non-finite")
           for draws, ok in zip(kept, finite)]
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
