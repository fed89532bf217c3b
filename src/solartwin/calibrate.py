"""Bayesian search over (beta, tau) to match a ground-truth adopter count.

One loop builds the trace over a discrete (beta, tau) grid.  Each round
takes the next of a few random starting points or, once they are used, the
point of maximum expected improvement under a Gaussian process with a
fixed RBF kernel fit to the discrepancies |target - predicted| so far.  The
loop stops once a discrepancy falls within 15% of the target, the round
budget runs out or the grid is used up; the winner is the trace's first
minimum.  Training depends on beta only, so models and predicted
probabilities are memoized per beta.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .boosting import GbtParams, LossParams, apply_threshold, predict_proba, train_gbt
from .preprocess import LabeledDataset
from .records import AdopterTarget, HouseholdTable, write_csv
from .seeds import rng_for

BETA_STEP = 0.01
BETA_COUNT = 201  # 0.00 .. 2.00, upper bound 2.01 open
TAU_START = 0.05
TAU_STEP = 0.01
TAU_COUNT = 91  # 0.05 .. 0.95
STOP_BAND = 0.15
EI_CHUNK = 4096


def parameter_grid() -> np.ndarray:
    """The (18291, 2) search grid, beta-major then tau ascending."""
    betas = np.arange(BETA_COUNT) * BETA_STEP
    taus = TAU_START + np.arange(TAU_COUNT) * TAU_STEP
    bb, tt = np.meshgrid(betas, taus, indexing="ij")
    return np.column_stack([bb.ravel(), tt.ravel()])


@dataclass(frozen=True)
class RbfKernel:
    """Isotropic-per-axis squared-exponential kernel with additive noise."""

    signal_var: float
    length_beta: float
    length_tau: float
    noise_var: float

    def __post_init__(self):
        if self.signal_var <= 0 or self.length_beta <= 0 or self.length_tau <= 0:
            raise ValueError("kernel hyperparameters must be positive")
        if self.noise_var < 0:
            raise ValueError("noise variance must be >= 0")

    def cross(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        db = (a[:, 0:1] - b[None, :, 0]) / self.length_beta
        dt = (a[:, 1:2] - b[None, :, 1]) / self.length_tau
        return self.signal_var * np.exp(-0.5 * (db**2 + dt**2))


@dataclass
class GpModel:
    points: np.ndarray
    kernel: RbfKernel
    mean: float
    chol: np.ndarray
    alpha: np.ndarray


def default_kernel(values) -> RbfKernel:
    """Fixed-scale kernel: signal = observed variance, lengths = a quarter
    of each grid range, noise = 1e-6 of the signal."""
    var = float(np.var(np.asarray(values, dtype=float)))
    if var <= 0.0:
        var = 1.0
    beta_range = (BETA_COUNT - 1) * BETA_STEP
    tau_range = (TAU_COUNT - 1) * TAU_STEP
    return RbfKernel(
        signal_var=var,
        length_beta=0.25 * beta_range,
        length_tau=0.25 * tau_range,
        noise_var=1e-6 * var,
    )


def gp_fit(points, values, kernel: RbfKernel) -> GpModel:
    """Cholesky-factorized GP posterior over observed (beta, tau) points.

    The prior mean is the mean of the observations.  If the noisy kernel
    matrix is not positive definite, jitter grows by decades up to 1e-4 of
    the signal variance before giving up.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.asarray(values, dtype=float).ravel()
    if pts.shape[0] != vals.size or pts.shape[0] == 0:
        raise ValueError("points and values must be non-empty and equal length")
    base = kernel.cross(pts, pts) + kernel.noise_var * np.eye(pts.shape[0])
    jitter = 0.0
    while True:
        try:
            chol = np.linalg.cholesky(base + jitter * np.eye(pts.shape[0]))
            break
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-12 * kernel.signal_var)
            if jitter > 1e-4 * kernel.signal_var:
                raise np.linalg.LinAlgError(
                    "kernel matrix not positive definite after max jitter"
                )
    # imported here: the GP runs only once the init points miss the target,
    # and importing scipy.linalg adds about 60 ms and 5 MB to every CLI start
    from scipy.linalg import solve_triangular

    mean = float(vals.mean())
    centered = vals - mean
    alpha = solve_triangular(
        chol.T, solve_triangular(chol, centered, lower=True), lower=False
    )
    return GpModel(points=pts, kernel=kernel, mean=mean, chol=chol, alpha=alpha)


def gp_predict(gp: GpModel, X):
    """Posterior (mu, sigma) at each row of an (n, 2) matrix of (beta, tau)
    points."""
    from scipy.linalg import solve_triangular  # see gp_fit

    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) matrix of points, got shape {X.shape}")
    k_star = gp.kernel.cross(X, gp.points)
    mu = gp.mean + k_star @ gp.alpha
    v = solve_triangular(gp.chol, k_star.T, lower=True)
    var = np.maximum(gp.kernel.signal_var - np.sum(v * v, axis=0), 0.0)
    return mu, np.sqrt(var)


def expected_improvement(mu, sigma, f_min: float) -> np.ndarray:
    """EI = (f_min - mu) * Phi(z) + sigma * phi(z), elementwise (0-d for
    scalar inputs); sigma = 0 degenerates to max(f_min - mu, 0)."""
    mu_arr = np.asarray(mu, dtype=float)
    sigma_arr = np.asarray(sigma, dtype=float)
    improve = f_min - mu_arr
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sigma_arr > 0, improve / np.where(sigma_arr > 0, sigma_arr, 1.0), 0.0)
    phi = np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)
    ei = np.where(
        sigma_arr > 0,
        improve * ndtr(z) + sigma_arr * phi,
        np.maximum(improve, 0.0),
    )
    return np.maximum(ei, 0.0)


@dataclass(frozen=True)
class TraceEntry:
    round: int
    beta: float
    tau: float
    predicted: int
    discrepancy: int


@dataclass
class CalibrationResult:
    beta_star: float
    tau_star: float
    discrepancy: int
    trace: list
    rounds_used: int
    target_count: int
    model: object = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        return self.discrepancy <= STOP_BAND * self.target_count


def calibrate(
    train: LabeledDataset,
    apply: HouseholdTable,
    target: AdopterTarget,
    budget: int,
    init: int,
    seed: int,
    gbt_params: GbtParams | None = None,
) -> CalibrationResult:
    """Search (beta, tau) so the booster's adopter count matches the target.

    Each round evaluates one grid point: the next of ``init`` random
    points, then the unevaluated point of maximum expected improvement.
    It trains the booster with that beta (once per beta), thresholds the
    predicted probabilities at that tau over ``apply``, and appends
    |target - predicted| to the trace.  The search stops once a round is
    within 15% of the target count, after ``budget`` rounds, or when the
    grid is used up; the winner is the trace's first minimum.
    """
    if init < 1 or budget < init:
        raise ValueError("need budget >= init >= 1")
    if target.count > len(apply):
        raise ValueError(
            f"target count {target.count} exceeds population size {len(apply)}"
        )
    grid = parameter_grid()
    n_grid = grid.shape[0]
    gbt_params = gbt_params or GbtParams()
    starts = rng_for(seed, "calibrate").choice(n_grid, size=min(init, n_grid), replace=False)
    evaluated = np.zeros(n_grid, dtype=bool)
    fits = {}  # beta -> (model, probabilities over apply)
    trace = []
    while True:
        rounds = len(trace)
        pick = int(starts[rounds]) if rounds < starts.size else _max_ei(grid, evaluated, trace)
        evaluated[pick] = True
        beta, tau = grid[pick]
        if beta not in fits:
            model = train_gbt(train, gbt_params, LossParams(beta=beta))
            fits[beta] = (model, predict_proba(model, apply.features))
        predicted = int(np.count_nonzero(apply_threshold(fits[beta][1], tau)))
        discrepancy = abs(predicted - target.count)
        trace.append(TraceEntry(len(trace) + 1, float(beta), float(tau), predicted, discrepancy))
        if discrepancy <= STOP_BAND * target.count or len(trace) >= budget or evaluated.all():
            break
    best = min(trace, key=lambda entry: entry.discrepancy)
    return CalibrationResult(
        beta_star=best.beta,
        tau_star=best.tau,
        discrepancy=best.discrepancy,
        trace=trace,
        rounds_used=len(trace),
        target_count=target.count,
        model=fits[best.beta][0],
    )


def _max_ei(grid: np.ndarray, evaluated: np.ndarray, trace) -> int:
    """The unevaluated grid index of maximum expected improvement under a GP
    fit to the trace's discrepancies (ties to the lowest index)."""
    points = np.array([(e.beta, e.tau) for e in trace])
    values = np.array([float(e.discrepancy) for e in trace])
    gp = gp_fit(points, values, default_kernel(values))
    f_min = float(values.min())
    ei = np.empty(len(grid))
    for start in range(0, len(grid), EI_CHUNK):
        chunk = slice(start, start + EI_CHUNK)
        ei[chunk] = expected_improvement(*gp_predict(gp, grid[chunk]), f_min)
    ei[evaluated] = -np.inf
    return int(np.argmax(ei))


def save_trace(result: CalibrationResult, path):
    """Write the audit trace: round,beta,tau,predicted,target,diff."""
    trace = result.trace
    write_csv(
        path,
        ["round", "beta", "tau", "predicted", "target", "diff"],
        [
            [str(e.round) for e in trace], [f"{e.beta:.2f}" for e in trace],
            [f"{e.tau:.2f}" for e in trace], [str(e.predicted) for e in trace],
            [str(result.target_count)] * len(trace), [str(e.discrepancy) for e in trace],
        ],
    )
