"""AR(1) regression with time-varying covariates.

Covers truth simulation, the two prior families for the coefficient vector,
exact-conditional Gibbs sampling of the posterior, the expanded log likelihood
ratio between two parameter points, the Kullback-Leibler divergence rate in
closed form, and the error exponent that governs how fast posterior error
rates vanish with the sample size.

The observation model is

    x_t = rho * x_{t-1} + z_t' beta + eps_t,   eps_t ~ N(0, sigma2),  x_0 = 0,

with ``z_t`` the ``t``-th design row (column 0 identically one).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.signal import lfilter
from scipy.stats import truncnorm

from .exceptions import InfeasibleDesign, InvalidSpec, NumericalFailure
from .hypotheses import TestSpec

_KERNEL_JITTER = 1e-8


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

    ``centered`` records that every non-intercept column sums to zero, which the
    generators below enforce so that long-run averages of ``z_t' beta`` vanish.
    ``descriptor`` carries everything needed to regenerate the matrix exactly.
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
        ztz = self.z.T @ self.z
        ztz.setflags(write=False)
        return ztz

    def gram(self) -> np.ndarray:
        """(Z'Z)/n, the per-observation Gram matrix."""
        return self.ztz / self.n_obs


@dataclass(frozen=True, eq=False)
class Dataset:
    """A simulated response series together with its design and seed."""

    x: np.ndarray
    design: CovariateDesign
    seed: int | list | str
    x0: float = 0.0

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        if x.ndim != 1 or not np.all(np.isfinite(x)):
            raise InvalidSpec("x must be a finite 1-d series")
        if self.x0 != 0.0:
            raise InvalidSpec("the series starts at x0 = 0 by convention")
        if x.size != self.design.n_obs:
            raise InvalidSpec("series length and design row count disagree")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)

    @property
    def n_obs(self) -> int:
        return self.x.size

    def lagged(self) -> np.ndarray:
        """The series shifted by one step, starting at x0 = 0."""
        return np.concatenate(([self.x0], self.x[:-1]))


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
    """Retained posterior sample: rows are draws, columns (rho, sigma2, beta...)."""

    draws: np.ndarray
    burn_in: int
    thinning: int
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        draws = np.array(self.draws, dtype=float)
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


@dataclass(frozen=True)
class SignalMoments:
    """Average quadratic forms of the regression signal over the design.

    ``model_power`` is the mean of (z_t' beta)^2; ``true_power`` the same under
    the generating coefficients; ``cross_power`` the mean cross product.  These
    finite-sample averages stand in for their long-run limits because they are
    exactly the quantities the normalized expected log likelihood ratio sees.
    """

    model_power: float
    true_power: float
    cross_power: float

    def __post_init__(self):
        if self.model_power < 0 or self.true_power < 0:
            raise InvalidSpec("squared-signal averages cannot be negative")


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
    [-3*scale, 3*scale] and centers every non-intercept column.
    ``orthogonalized`` additionally orthogonalizes the columns and rescales them
    so (Z'Z)/n equals diag(1, scale^2, ..., scale^2); its largest eigenvalue is
    recorded in the descriptor.
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
        raw = truncnorm.rvs(-3.0, 3.0, scale=scale, size=(n, m), random_state=rng)
        if generator == "iid_gaussian_bounded":
            z[:, 1:] = raw - raw.mean(axis=0)
        else:
            if m + 1 > n:
                raise InfeasibleDesign(
                    f"cannot orthogonalize {m + 1} columns with only {n} rows"
                )
            q, r = np.linalg.qr(np.column_stack([np.ones(n), raw]))
            q = q * np.sign(np.diag(r))  # fix the sign convention for determinism
            z[:, 1:] = q[:, 1:] * (math.sqrt(n) * scale)
    if generator == "orthogonalized":
        descriptor["max_gram_eigenvalue"] = float(max(1.0, scale**2))
    return CovariateDesign(z=z, centered=True, descriptor=descriptor)


def simulate(params: Ar1Params, design: CovariateDesign, n: int, seed=0) -> Dataset:
    """Simulate the autoregression driven by the design and Gaussian noise."""
    if design.n_obs != n:
        raise InvalidSpec("design row count and requested length disagree")
    if params.num_coefficients != design.num_covariates + 1:
        raise InvalidSpec("coefficient vector and design width disagree")
    rng = _rng(seed)
    drive = design.z @ params.beta + rng.normal(0.0, math.sqrt(params.sigma2), size=n)
    x = lfilter([1.0], [1.0, -params.rho], drive)
    return Dataset(x=x, design=design, seed=_seed_payload(seed))


# ---------------------------------------------------------------------------
# Gibbs sampling
# ---------------------------------------------------------------------------

def _sufficient_statistics(data: Dataset) -> tuple:
    """(Z'Z, Z'x, Z'x_lag, x'x, x'x_lag, x_lag'x_lag): all the data the likelihood sees."""
    z = data.design.z
    x = data.x
    xl = data.lagged()
    return data.design.ztz, z.T @ x, z.T @ xl, float(x @ x), float(x @ xl), float(xl @ xl)


def _eigenbasis(covariance: np.ndarray, ztz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V = L W and lambda, where covariance = L L' and L' Z'Z L = W diag(lambda) W'.

    Then V' covariance^-1 V = I and V' Z'Z V = diag(lambda).
    """
    try:
        chol = np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            "coefficient prior covariance is not positive definite even after jitter"
        ) from exc
    lam, w = np.linalg.eigh(chol.T @ ztz @ chol)
    return chol @ w, lam


def gibbs_sample(
    data: Dataset,
    prior: PriorConfig,
    num_draws: int = 4000,
    burn_in: int = 1000,
    thinning: int = 1,
    seed=0,
) -> PosteriorDraws:
    """Sample the posterior by cycling exact full conditionals.

    beta given (rho, sigma2) is a conjugate Gaussian regression on the
    quasi-differenced response; rho given (beta, sigma2) is a univariate
    Gaussian regression of the residual on the lagged series; sigma2 given the
    rest is inverse-gamma.  Every conditional is sampled exactly, so there is
    no step-size tuning.  beta = V u with V from ``_eigenbasis``, so the
    precision of u | (rho, sigma2) is diag(lambda)/sigma2 + I for either prior
    family, and one sweep is O(p) elementwise work on sufficient statistics
    rotated once per chain, regardless of the series length.
    """
    if num_draws < 1:
        raise InvalidSpec("need at least one retained draw")
    if burn_in < 0 or thinning < 1:
        raise InvalidSpec("burn_in must be >= 0 and thinning >= 1")
    rng = _rng(seed)
    n, p = data.design.z.shape
    ztz, ztx, ztxl, xx, xxl, xlxl = _sufficient_statistics(data)
    basis, lam = _eigenbasis(prior.beta_covariance(data.design.num_covariates), ztz)
    a = basis.T @ ztx
    c = basis.T @ ztxl

    rho_prec0 = 1.0 / prior.rho_prior_sd**2
    shape = prior.sigma2_shape + 0.5 * n

    rho = 0.0
    sigma2 = 1.0
    out = np.empty((num_draws, p + 2))
    kept = 0
    total = burn_in + num_draws * thinning
    for sweep in range(total):
        # beta = V u | rho, sigma2
        prec = lam / sigma2 + 1.0
        u = (a - rho * c) / sigma2 / prec + rng.standard_normal(p) / np.sqrt(prec)

        # rho | beta, sigma2
        uc = float(u @ c)
        rho_prec = xlxl / sigma2 + rho_prec0
        rho_mean = (xxl - uc) / sigma2 / rho_prec
        rho = rho_mean + rng.standard_normal() / math.sqrt(rho_prec)

        # sigma2 | beta, rho
        ssr = (
            xx
            + rho * rho * xlxl
            + float(lam @ (u * u))
            - 2.0 * rho * xxl
            - 2.0 * float(u @ a)
            + 2.0 * rho * uc
        )
        ssr = max(ssr, 0.0)
        sigma2 = (prior.sigma2_rate + 0.5 * ssr) / rng.standard_gamma(shape)

        if sweep >= burn_in and (sweep - burn_in) % thinning == 0:
            out[kept, 0] = rho
            out[kept, 1] = sigma2
            out[kept, 2:] = u
            kept += 1

    out[:, 2:] = out[:, 2:] @ basis.T
    return PosteriorDraws(out, burn_in=burn_in, thinning=thinning, diagnostics={"sweeps": total})


# ---------------------------------------------------------------------------
# likelihood ratio, divergence rate, error exponent
# ---------------------------------------------------------------------------

def log_likelihood_ratio(theta: Ar1Params, theta0: Ar1Params, data: Dataset) -> float:
    """log of the density ratio f_theta / f_theta0 at the observed series.

    Evaluated through the expanded quadratic form in the sufficient statistics
    (sums of x_t^2, x_t x_{t-1}, and design cross products), which agrees with
    the difference of the two Gaussian log densities to rounding error.
    """
    if theta.sigma2 <= 0 or theta0.sigma2 <= 0:
        raise InvalidSpec("sigma2 must be positive")
    p = data.design.num_covariates + 1
    if theta.num_coefficients != p or theta0.num_coefficients != p:
        raise InvalidSpec("coefficient vectors and design width disagree")
    n = data.n_obs
    ztz, ztx, ztxl, sxx, sxl, sll = _sufficient_statistics(data)

    s2, s20 = theta.sigma2, theta0.sigma2
    rho, rho0 = theta.rho, theta0.rho
    b, b0 = theta.beta, theta0.beta

    neg = (
        0.5 * n * math.log(s2 / s20)
        + (0.5 / s2 - 0.5 / s20) * sxx
        + (0.5 * rho**2 / s2 - 0.5 * rho0**2 / s20) * sll
        + 0.5 * float(b @ ztz @ b) / s2
        - 0.5 * float(b0 @ ztz @ b0) / s20
        - (rho / s2 - rho0 / s20) * sxl
        - float((b / s2 - b0 / s20) @ ztx)
        + float((rho * b / s2 - rho0 * b0 / s20) @ ztxl)
    )
    return -neg


def quadratic_limits(beta: np.ndarray, beta0: np.ndarray, design: CovariateDesign) -> SignalMoments:
    """Finite-sample averages of the squared and crossed regression signals."""
    beta = np.asarray(beta, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    if beta.size != design.num_covariates + 1 or beta0.size != design.num_covariates + 1:
        raise InvalidSpec("coefficient vectors and design width disagree")
    fit = design.z @ beta
    fit0 = design.z @ beta0
    n = design.n_obs
    return SignalMoments(
        model_power=float(fit @ fit) / n,
        true_power=float(fit0 @ fit0) / n,
        cross_power=float(fit @ fit0) / n,
    )


def kl_divergence_rate(theta: Ar1Params, theta0: Ar1Params, moments: SignalMoments) -> float:
    """Per-observation Kullback-Leibler divergence rate of theta0's law from theta's.

    Closed form in the long-run second moment of the series,
    V = (sigma0^2 + true_power) / (1 - rho0^2), evaluated term by term.  Requires
    a stationary generating process (|rho0| < 1).
    """
    if abs(theta0.rho) >= 1.0:
        raise InvalidSpec("the divergence rate needs |rho0| < 1")
    if theta.sigma2 <= 0 or theta0.sigma2 <= 0:
        raise InvalidSpec("sigma2 must be positive")
    s2, s20 = theta.sigma2, theta0.sigma2
    rho, rho0 = theta.rho, theta0.rho
    v = (s20 + moments.true_power) / (1.0 - rho0**2)
    return (
        0.5 * math.log(s2 / s20)
        + (0.5 / s2 - 0.5 / s20) * v
        + (0.5 * rho**2 / s2 - 0.5 * rho0**2 / s20) * v
        + 0.5 * moments.model_power / s2
        - 0.5 * moments.true_power / s20
        - (rho / s2 - rho0 / s20) * rho0 * v
        - (moments.cross_power / s2 - moments.true_power / s20)
    )


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
    sigma2) are free.  The divergence rate is then

        h = log(sigma2 / sigma0^2) / 2 + A / (2 sigma2) - 1/2,
        A = sigma0^2 + V (rho - rho0)^2 + G_ii (b_i - b0_i)^2,

    with G = (Z'Z)/n and V = (sigma0^2 + b0'G b0) / (1 - rho0^2).  The best
    sigma2 is A, so h = log(A / sigma0^2) / 2, and the offending coordinate
    sits on the wrong region's boundary nearest the truth, at distance delta:

        coefficient i:   J_i = log1p(G_ii delta^2 / sigma0^2) / 2,
                         delta = | |b0_i| - null_radius |, rho = rho0;
        autoregression:  J = log1p(V delta^2 / sigma0^2) / 2,
                         delta = | |rho0| - rho_null_bound |.

    Single-coordinate violations suffice: flipping several decisions shrinks
    the feasible set, so it cannot lower the minimum.
    """
    if abs(theta0.rho) >= 1.0:
        raise InvalidSpec("the error exponent needs |rho0| < 1")
    if theta0.num_coefficients != design.num_covariates + 1:
        raise InvalidSpec("coefficient vector and design width disagree")
    gram = design.gram()
    beta0 = theta0.beta
    s20 = theta0.sigma2
    long_run = (s20 + float(beta0 @ gram @ beta0)) / (1.0 - theta0.rho**2)

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


def _read_sidecar(path: Path) -> dict:
    sidecar = path.with_suffix(path.suffix + ".json")
    return json.loads(sidecar.read_text()) if sidecar.exists() else {}


def save_design(path, design: CovariateDesign) -> None:
    path = Path(path)
    header = ",".join(["z0"] + [f"z{i}" for i in range(1, design.z.shape[1])])
    np.savetxt(path, design.z, delimiter=",", header=header, comments="", fmt="%.17g")
    _write_sidecar(path, {"centered": design.centered, "descriptor": design.descriptor})


def save_dataset(path, data: Dataset) -> None:
    path = Path(path)
    np.savetxt(path, data.x, delimiter=",", header="x", comments="", fmt="%.17g")
    _write_sidecar(path, {"seed": data.seed, "x0": data.x0, "design": data.design.descriptor})


def save_draws(path, draws: PosteriorDraws) -> None:
    path = Path(path)
    m = draws.num_coefficients - 1
    header = ",".join(["rho", "sigma2"] + [f"beta{i}" for i in range(m + 1)])
    np.savetxt(path, draws.draws, delimiter=",", header=header, comments="", fmt="%.17g")
    _write_sidecar(
        path,
        {"burn_in": draws.burn_in, "thinning": draws.thinning, "diagnostics": draws.diagnostics},
    )


def load_draws(path) -> PosteriorDraws:
    path = Path(path)
    arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    meta = _read_sidecar(path)
    return PosteriorDraws(
        arr,
        burn_in=int(meta.get("burn_in", 0)),
        thinning=int(meta.get("thinning", 1)),
        diagnostics=meta.get("diagnostics", {}),
    )
