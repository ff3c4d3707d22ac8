"""Step-size schedules, dataset sampling schemes, and exponent validation.

Learning rates are eta_t = gamma * t^(-b). Which exponents b admit
convergence depends on the algorithm class and on two exponents measured
on the problem: the ergodic exponent `a` (rate t^a/t at which averages of
gradients/updates at the optimum settle) and the loss-growth exponent
`gamma_loss` (growth rate t^gamma_loss of loss derivatives along the
target trajectory).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ConfigurationError

__all__ = [
    "StepSchedule",
    "ExponentProfile",
    "validate_exponents",
    "sample_indices",
    "ergodic_exponent_estimate",
    "ErgodicReport",
    "moment_rate_range",
    "MomentRange",
]


@dataclass(frozen=True)
class StepSchedule:
    """eta(t) = gamma * t^(-b), non-increasing, with zero slack.

    gamma is the overall learning rate (> 0 for actual descent; 0 freezes
    the parameter, which some experiments use on purpose).
    """

    gamma: float
    b: float

    def __post_init__(self):
        if self.gamma < 0:
            raise ConfigurationError("overall rate gamma must be >= 0")
        if not 0.0 < self.b <= 1.0:
            raise ConfigurationError("exponent b must lie in (0, 1]")

    def eta(self, t: int) -> float:
        return self.gamma * float(t) ** (-self.b)

    def etas(self, T: int) -> np.ndarray:
        return self.gamma * np.arange(1, T + 1, dtype=float) ** (-self.b)


ALGORITHM_CLASSES = ("exact_rtrl", "imperfect_rtrl", "tbptt")


@dataclass(frozen=True)
class ExponentProfile:
    """Exponents characterizing a problem/algorithm pair.

    a: ergodic exponent in (0, 1); gamma_loss: loss-growth exponent in
    [0, 1); algorithm_class selects the constraint set; A is the
    truncation exponent (tbptt only).
    """

    a: float
    gamma_loss: float
    algorithm_class: str
    A: float | None = None

    def __post_init__(self):
        if self.algorithm_class not in ALGORITHM_CLASSES:
            raise ConfigurationError(f"unknown algorithm class {self.algorithm_class!r}")


def validate_exponents(profile: ExponentProfile, b: float):
    """Check the step-size exponent constraints for an algorithm class.

    exact/extended forward-mode descent:  max(a, g) + 2g < b <= 1
    imperfect (randomized Jacobian):      max(a, 1/2 + g) + 2g < b <= 1
    growing-truncation backprop:          the exact constraint, plus
                                          max(a, g) < A < b - 2g
    (g = gamma_loss). Returns (ok, list of violated-constraint strings).
    """
    a, g = profile.a, profile.gamma_loss
    violations = []
    if not 0.0 < a < 1.0:
        violations.append(f"ergodic exponent a={a} outside (0, 1)")
    if not 0.0 <= g < 1.0:
        violations.append(f"loss-growth exponent gamma_loss={g} outside [0, 1)")
    if not 0.0 < b <= 1.0:
        violations.append(f"step exponent b={b} outside (0, 1]")

    if profile.algorithm_class == "imperfect_rtrl":
        lower = max(a, 0.5 + g) + 2.0 * g
        if not lower < b:
            violations.append(f"need max(a, 1/2+gamma_loss) + 2*gamma_loss = {lower:g} < b = {b:g}")
    else:
        lower = max(a, g) + 2.0 * g
        if not lower < b:
            violations.append(f"need max(a, gamma_loss) + 2*gamma_loss = {lower:g} < b = {b:g}")

    if profile.algorithm_class == "tbptt":
        if profile.A is None:
            violations.append("tbptt class requires a truncation exponent A")
        else:
            lo, hi = max(a, g), b - 2.0 * g
            if not lo < profile.A:
                violations.append(f"need max(a, gamma_loss) = {lo:g} < A = {profile.A:g}")
            if not profile.A < hi:
                violations.append(f"need A = {profile.A:g} < b - 2*gamma_loss = {hi:g}")
    return (not violations), violations


SAMPLE_BLOCK = 4096  # steps drawn per numpy call; bounds the temporaries


def sample_indices(scheme: str, N: int, T: int, rng=None) -> np.ndarray:
    """Index array idx[0..T] with idx[t] the 0-based sample at step t.

    cycling: (t-1) mod N; reshuffle: a fresh uniform permutation each
    epoch; iid: uniform with replacement. reshuffle and iid require an
    rng. idx[0] is a placeholder (steps are 1-based); systems index it
    by t. The draws equal one scalar `rng.integers(N)` per step, or one
    `rng.permutation(N)` per epoch begun, and leave rng in the same state.
    """
    if N < 1:
        raise ConfigurationError("dataset size N must be >= 1")
    if scheme not in ("cycling", "reshuffle", "iid"):
        raise ConfigurationError(f"unknown sampling scheme {scheme!r}")
    if scheme != "cycling" and rng is None:
        raise ConfigurationError(f"{scheme} sampling needs an rng")
    out = np.empty(T + 1, dtype=int)
    out[0] = 0
    epochs = np.empty(0, dtype=int)  # reshuffle: drawn but not yet used
    for start in range(1, T + 1, SAMPLE_BLOCK):
        stop = min(start + SAMPLE_BLOCK, T + 1)
        k = stop - start
        if scheme == "cycling":
            out[start:stop] = np.arange(start - 1, stop - 1) % N
        elif scheme == "iid":
            out[start:stop] = rng.integers(N, size=k)
        else:
            if len(epochs) < k:  # only the epochs this block begins
                count = -(-(k - len(epochs)) // N)
                fresh = rng.permuted(np.tile(np.arange(N), (count, 1)), axis=1)
                epochs = np.concatenate([epochs, fresh.ravel()])
            out[start:stop], epochs = epochs[:k], epochs[k:]
    return out


@dataclass
class ErgodicReport:
    a_hat: float
    r_squared: float
    flagged: bool
    probes: np.ndarray
    partial_norms: np.ndarray


def ergodic_exponent_estimate(values, T=None, n_probes=20) -> ErgodicReport:
    """Fit ||sum_{t<=T'} values_t|| ~ T'^a by log-log regression.

    `values` is a (T, d) array of centered vectors (dataset mean
    subtracted). Probes are >= 20 log-spaced points in [T/10, T]; the
    transient below T/10 is discarded. Degenerate all-zero input is
    flagged with a_hat = 0; a_hat near 1 indicates uncentered input and
    is flagged too.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1 and values.ndim == 2 and T is not None and T > 1:
        values = values.reshape(-1, 1)
    total = values.shape[0] if T is None else int(T)
    sums = np.cumsum(values[:total], axis=0)
    norms = np.linalg.norm(sums, axis=1)

    probes = np.unique(np.round(np.logspace(np.log10(max(2, total // 10)), np.log10(total), n_probes)).astype(int))
    probe_norms = norms[probes - 1]
    if np.all(probe_norms < 1e-300):
        return ErgodicReport(0.0, 1.0, True, probes, probe_norms)

    mask = probe_norms > 0
    x = np.log(probes[mask].astype(float))
    y = np.log(probe_norms[mask])
    if len(x) < 2:
        return ErgodicReport(0.0, 0.0, True, probes, probe_norms)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    flagged = slope >= 0.9  # linear growth: caller forgot to center
    return ErgodicReport(float(slope), r2, flagged, probes, probe_norms)


@dataclass(frozen=True)
class MomentRange:
    """Admissible step exponents (b_min, 1] under an h-th moment bound."""

    h: float
    b_min: float

    @property
    def empty(self) -> bool:
        return self.b_min >= 1.0

    def contains(self, b: float) -> bool:
        return self.b_min < b <= 1.0


def moment_rate_range(h: float) -> MomentRange:
    """Step exponent range for streaming SGD whose gradient noise has
    finite moments of order h: b in (max(1/2, 2/h) + 2/h, 1]."""
    if h < 2:
        raise ConfigurationError("moment order h must be >= 2")
    b_min = max(0.5, 2.0 / h) + 2.0 / h
    return MomentRange(h, b_min)
