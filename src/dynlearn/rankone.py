"""Rank-one stochastic Jacobian propagation (sign-based reductions).

The full forward Jacobian J_t (dim S_t x p) is too large to carry for big
systems, so it is approximated by a single outer product
v_state (x) v_param. Propagating through the Jacobian recursion breaks the
rank-one structure:

    jac_s . (v_state (x) v_param) + jac_theta

is rank-one plus a full matrix. The reduction operators below collapse it
back to rank one using i.i.d. random signs nu_i in {-1, +1}, built so the
collapse is exactly unbiased: averaged over the signs, the reduced outer
product equals the full right-hand side.

Two variants are implemented. The dense-sign variant equalizes each basis
term separately (dim+1 norm equalizations per step, the dim of them on
the basis terms done as one vectorized operation):

    reduce = rho(jac_s v_state, v_param)
             + sum_i nu_i * rho(e_i, row_i(jac_theta))

and the two-equalization variant first contracts with the signs:

    reduce = rho(jac_s v_state, v_param)
             + rho(sum_i nu_i e_i, sum_i nu_i row_i(jac_theta)).

rho is the norm-equalizing operator: it rescales a pair (v1, v2) so both
factors get norm sqrt(||v1|| ||v2||) while v1 (x) v2 is preserved. This
variance-reduction step is what keeps the per-step error E_t of order
sqrt(||J||) instead of ||J||: every draw satisfies

    ||E_t|| <= 2 * dim(S) * y * ||J_prev||^(1/2) + dim(S)^2 * y

with y the operator norm of the joint Jacobian [jac_s jac_theta].

A learner never forms the n x p matrix: `pair_step` advances the pair
by one learner step, exactly as these reducers would, with dT/dtheta
used only through the system's products u . dT/dtheta and its row norms.
On an RNN a step then costs O(n^2 + np), against O(n^2 p) for the dense
recursion. Its signs come from a `SignStream`, one generator call per
SIGN_BLOCK steps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .dynamics import ConfigurationError, ContractViolation, System, TanhSystem, guard

__all__ = [
    "RankOnePair",
    "norm_equalize",
    "sample_signs",
    "SIGN_BLOCK", "SignStream", "pair_step",
    "nbt_reduce",
    "uoro_reduce",
    "error_term",
    "error_gauge_bound",
    "joint_jacobian_norm",
    "verify_unbiased",
    "UnbiasednessReport",
    "ZeroInjector",
    "RankOneInjector",
]


@dataclass
class RankOnePair:
    """Outer-product representation v_state (x) v_param of a Jacobian.

    (lam * v_state, v_param / lam) represents the same matrix for any
    lam > 0; equality of pairs is only meaningful through `matrix()`.
    Pairs are stored unnormalized between steps; no re-balancing happens
    outside the reduction itself.
    """

    v_state: np.ndarray
    v_param: np.ndarray

    def __post_init__(self):
        self.v_state = np.asarray(self.v_state, dtype=float)
        self.v_param = np.asarray(self.v_param, dtype=float)

    @classmethod
    def zero(cls, state_dim, param_dim):
        return cls(np.zeros(state_dim), np.zeros(param_dim))

    def matrix(self) -> np.ndarray:
        return np.outer(self.v_state, self.v_param)


def norm_equalize(v1, v2):
    """Rescale (v1, v2) so both factors share the norm sqrt(||v1|| ||v2||).

    The outer product is preserved exactly; if either input is zero the
    result is (0, 0) (total function, no special cases raised).
    """
    v1 = np.asarray(v1, dtype=float)
    # sqrt(v . v) is how np.linalg.norm computes a vector norm, minus its
    # call overhead.
    return _equalize(v1, math.sqrt(v1.dot(v1)), np.asarray(v2, dtype=float))


def _equalize(v1, n1, v2):  # norm_equalize(v1, v2) given n1 = ||v1||
    n2 = math.sqrt(v2.dot(v2))
    if n1 == 0.0 or n2 == 0.0:
        return np.zeros_like(v1), np.zeros_like(v2)
    rho = math.sqrt(n2 / n1)
    return rho * v1, v2 / rho


def sample_signs(dim: int, rng) -> np.ndarray:
    """I.i.d. uniform +-1 vector of length dim (exact +-1.0 entries)."""
    if dim < 1:
        raise ContractViolation("sign vector dimension must be >= 1")
    return rng.integers(0, 2, size=dim) * 2.0 - 1.0


def _first_term(pair: RankOnePair, jac_s):
    """Propagated-and-equalized pair for jac_s . (v_state (x) v_param).

    When jac_s @ v_state vanishes the equalizing factor is taken to be 1,
    so the pair (0, v_param) is returned; its outer product is still the
    exact propagation (the zero matrix).
    """
    forwarded = jac_s @ pair.v_state
    if np.linalg.norm(forwarded) == 0.0:
        return forwarded, pair.v_param.copy()
    return norm_equalize(forwarded, pair.v_param)


def _reduction_args(jac_s, jac_theta, signs):
    """Validated (jac_s, jac_theta, signs). jac_theta is used only through
    `shape`, vjp(u) = u . jac_theta and `row_norms()`; a matrix is wrapped."""
    jac_s = np.atleast_2d(jac_s)
    if not hasattr(jac_theta, "vjp"):
        m = np.atleast_2d(jac_theta)
        jac_theta = SimpleNamespace(shape=m.shape, vjp=lambda u: u @ m,
                                    row_norms=lambda: np.linalg.norm(m, axis=1))
    dim_new = jac_s.shape[0]
    signs = np.asarray(signs, dtype=float)
    if signs.shape != (dim_new,):
        raise ContractViolation(f"sign vector has shape {signs.shape}, expected ({dim_new},)")
    if jac_theta.shape[0] != dim_new:
        raise ContractViolation("jac_s and jac_theta disagree on the new state dimension")
    return jac_s, jac_theta, signs


def nbt_reduce(pair: RankOnePair, s, theta, jac_s, jac_theta, signs) -> RankOnePair:
    """Dense-sign reduction: one equalization per parameter-Jacobian row.

    signs must have length dim(S_t) = jac_s.shape[0]. Each row i of
    jac_theta is paired with the canonical basis vector e_i, equalized,
    and added with sign nu_i (the sign multiplies both factors of the
    pair, which is what makes the cross terms cancel in expectation).

    Equalizing (e_i, row_i) scales e_i by rho_i = ||row_i||^(1/2) and the
    row by 1/rho_i, a factor fixed by the two norms alone; so all pairs
    are equalized at once from the row norms (rho_i is what
    norm_equalize(1, ||row_i||) gives, bit for bit), and the rows enter
    once, summed: v_param gains (nu / rho) . jac_theta.
    """
    jac_s, jac_theta, signs = _reduction_args(jac_s, jac_theta, signs)
    v_state, v_param = _first_term(pair, jac_s)
    rho = np.sqrt(jac_theta.row_norms())
    weights = np.divide(signs, rho, out=np.zeros_like(rho), where=rho > 0.0)
    return RankOnePair(v_state + signs * rho, v_param + jac_theta.vjp(weights))


def uoro_reduce(pair: RankOnePair, s, theta, jac_s, jac_theta, signs) -> RankOnePair:
    """Two-equalization reduction: contract with the signs first.

    Exactly two norm equalizations per step regardless of dim(S_t), which
    is the computational advantage over the dense-sign variant.
    """
    jac_s, jac_theta, signs = _reduction_args(jac_s, jac_theta, signs)
    v_state, v_param = _first_term(pair, jac_s)
    sign_state, sign_param = norm_equalize(signs, jac_theta.vjp(signs))
    return RankOnePair(v_state + sign_state, v_param + sign_param)


SIGN_BLOCK = 256  # steps whose signs one generator call draws: 128 KiB at dim 64


class SignStream:
    """take(dim) returns (a read-only view of) what sample_signs(dim, rng)
    would, from one flat draw per SIGN_BLOCK steps (bounded draws do not
    depend on how they are split into calls), drawing nothing past `steps`."""

    def __init__(self, rng, steps: int):
        self.rng, self.steps, self.block, self.pos = rng, steps, np.empty(0), 0

    def take(self, dim: int) -> np.ndarray:
        pos, end = self.pos, self.pos + dim
        if end > self.block.size:
            k = max(1, min(SIGN_BLOCK, self.steps))
            self.steps -= k
            self.block = np.concatenate([self.block[pos:], sample_signs(k * dim, self.rng)])
            pos, end = 0, dim
        self.pos = end
        return self.block[pos:end]


def pair_step(sys: System, t: int, s, theta, pair: RankOnePair, eta: float, rule, phi,
              nbt: bool, signs: SignStream):
    """(s_t, pair_t, theta_t, v_t): one learner step that carries a pair.

    Bit for bit the reduction of `nbt_reduce` (nbt true) or `uoro_reduce`
    with the signs signs.take(dim S_t), dT/dtheta used only through the
    system's products, and the dense learner's guard stages in its order:
    transition, jacobian, update-direction, parameter."""
    jac_s = sys.d_transition_ds(t, s, theta)
    s_new = guard(sys.transition(t, s, theta), "transition", t)
    v_state, v_param = jac_s @ pair.v_state, pair.v_param
    norm = math.sqrt(v_state.dot(v_state))
    if norm != 0.0:  # else (0, v_param), as in _first_term
        v_state, v_param = _equalize(v_state, norm, v_param)
    nu = signs.take(jac_s.shape[0])
    if nbt:
        rho = np.sqrt(sys.d_transition_dtheta_row_norms(t, s, theta))
        weights = np.divide(nu, rho, out=np.zeros(rho.shape), where=rho > 0.0)
        v_state, v_param = v_state + nu * rho, v_param + sys.d_transition_dtheta_vjp(t, s, theta, weights)
    else:  # ||nu|| = sqrt(dim S_t) exactly
        sign_state, sign_param = _equalize(nu, math.sqrt(nu.size), sys.d_transition_dtheta_vjp(t, s, theta, nu))
        v_state, v_param = v_state + sign_state, v_param + sign_param
    # The largest entry of v_state (x) v_param is max|v_state| max|v_param|.
    param_max = np.abs(v_param).max()
    guard(np.abs(v_state).max() * param_max, "jacobian", t)
    c = sys.d_loss_ds(t, s_new) @ v_state
    v = c * v_param
    if rule is None:  # max_i |c v_i| = |c| max_i |v_i|: rounding is monotone
        guard(c * param_max, "update-direction", t)
    else:
        v = guard(rule.apply(t, v, s_new, theta), "update-direction", t)
    w = eta * v
    theta_new = theta - w if phi is None else phi.apply(t, theta, w)
    pair = RankOnePair.__new__(RankOnePair)  # float arrays already
    pair.v_state, pair.v_param = v_state, v_param
    return s_new, pair, guard(theta_new, "parameter", t), v


def error_term(J_new, J_old, jac_s, jac_theta) -> np.ndarray:
    """Per-step deviation from the exact Jacobian recursion.

    E = J_new - jac_s . J_old - jac_theta, all as dense matrices.
    """
    J_new = np.atleast_2d(J_new)
    J_old = np.atleast_2d(J_old)
    jac_s = np.atleast_2d(jac_s)
    jac_theta = np.atleast_2d(jac_theta)
    if J_new.shape != jac_theta.shape or jac_s.shape[1] != J_old.shape[0]:
        raise ContractViolation("error_term arguments have inconsistent shapes")
    return J_new - jac_s @ J_old - jac_theta


def joint_jacobian_norm(jac_s, jac_theta) -> float:
    """Operator norm of the joint Jacobian [jac_s jac_theta]."""
    return float(np.linalg.norm(np.hstack([np.atleast_2d(jac_s), np.atleast_2d(jac_theta)]), 2))


def error_gauge_bound(dim_state: int, y: float, j_old_norm: float) -> float:
    """Closed-form gauge: 2*dim*y*||J||^(1/2) + dim^2*y."""
    return 2.0 * dim_state * y * np.sqrt(j_old_norm) + dim_state**2 * y


_REDUCERS = {"nbt": nbt_reduce, "nobacktrack": nbt_reduce, "uoro": uoro_reduce}


class ZeroInjector:
    """E_t = 0: recovers the exact algorithm bit for bit."""

    def next_error(self, t, s_prev, theta_prev, J_prev, jac_s, jac_theta, rng):
        return np.zeros_like(np.atleast_2d(jac_theta))

    def reset(self):
        pass


class RankOneInjector:
    """Rank-one Jacobian propagation with the UORO or NoBackTrack reducer.

    `run_learning` carries the pair itself through `pair_step`, starting
    from `initial_pair` (zero when None) at every run: no dense Jacobian
    is formed and dT/dtheta is used only through the system's products.

    A learner that carries a dense J calls `next_error` instead. The pair
    then lives here and the injected error is matrix(new) - jac_s .
    matrix(old) - jac_theta, so that J tracks matrix(pair) exactly (up to
    float rounding) when it starts at matrix(initial_pair). That dense
    path is imperfect RTRL as defined, and the oracle of the pair-only
    learner.
    """

    def __init__(self, reducer="uoro", initial_pair=None):
        if reducer not in _REDUCERS:
            raise ConfigurationError(f"unknown reducer {reducer!r}")
        self.nbt = reducer != "uoro"
        self.reduce = _REDUCERS[reducer]
        self.initial_pair = initial_pair
        self.pair = initial_pair

    def reset(self):
        self.pair = self.initial_pair

    def next_error(self, t, s_prev, theta_prev, J_prev, jac_s, jac_theta, rng):
        jac_theta = np.atleast_2d(jac_theta)
        jac_s = np.atleast_2d(jac_s)
        if self.pair is None:
            self.pair = RankOnePair.zero(jac_s.shape[1], jac_theta.shape[1])
        signs = sample_signs(jac_s.shape[0], rng)
        new_pair = self.reduce(self.pair, s_prev, theta_prev, jac_s, jac_theta, signs)
        err = error_term(new_pair.matrix(), self.pair.matrix(), jac_s, jac_theta)
        self.pair = new_pair
        return err


@dataclass
class UnbiasednessReport:
    """Result of exhaustive sign enumeration for a reduction operator."""

    reducer: str
    dim: int
    steps: int
    max_step_bias: float
    max_jacobian_bias: float
    tolerance: float = 1e-10

    @property
    def max_bias(self) -> float:
        return max(self.max_step_bias, self.max_jacobian_bias)

    @property
    def passed(self) -> bool:
        return self.max_bias <= self.tolerance

    def csv_row(self):
        return [self.reducer, self.dim, self.steps, self.max_bias]

    csv_header = ("reducer", "dim", "steps", "max_bias")


def verify_unbiased(reducer: str, dim: int, steps: int = 1, seed: int = 0,
                    param_dim: int | None = None, system: System | None = None,
                    budget: int = 1 << 20) -> UnbiasednessReport:
    """Exhaustively enumerate sign draws and measure the bias.

    Runs the system open loop (frozen theta), maintaining one rank-one
    pair per sign history. Reports the largest |mean E_t| over all step
    prefixes and, for multi-step runs, the deviation of the enumerated
    mean of the rank-one Jacobian from the exact one (the recursion is
    affine in J, so unbiased per-step errors keep the whole Jacobian
    unbiased).

    Raises ConfigurationError when 2^(dim*steps) exceeds the budget.
    """
    if reducer not in _REDUCERS:
        raise ConfigurationError(f"unknown reducer {reducer!r}")
    if 2 ** (dim * steps) > budget:
        raise ConfigurationError(
            f"exhaustive enumeration needs 2^{dim * steps} paths, over the budget of {budget}"
        )
    reduce = _REDUCERS[reducer]
    rng = np.random.default_rng(np.random.Philox(key=seed))
    if system is None:
        p = param_dim or dim + 1
        system = TanhSystem.random(rng, dim, p)
    p = system.param_dim
    theta = 0.3 * rng.normal(size=p)
    s = 0.2 * rng.normal(size=system.state_dim(0))

    # Paths through the sign tree: (pair, weight). Exact J runs alongside.
    paths = [RankOnePair.zero(system.state_dim(0), p)]
    J_exact = np.zeros((system.state_dim(0), p))
    max_step_bias = 0.0
    all_signs = None
    for t in range(1, steps + 1):
        jac_s = system.d_transition_ds(t, s, theta)
        jac_th = system.d_transition_dtheta(t, s, theta)
        dim_t = jac_s.shape[0]
        if all_signs is None or all_signs.shape[1] != dim_t:
            all_signs = np.array(list(itertools.product((-1.0, 1.0), repeat=dim_t)))
        new_paths = []
        for pair in paths:
            propagated = jac_s @ pair.matrix() + jac_th
            err_mean = np.zeros_like(propagated)
            for signs in all_signs:
                new_pair = reduce(pair, s, theta, jac_s, jac_th, signs)
                new_paths.append(new_pair)
                err_mean += new_pair.matrix() - propagated
            err_mean /= len(all_signs)
            max_step_bias = max(max_step_bias, float(np.max(np.abs(err_mean))))
        paths = new_paths
        J_exact = jac_s @ J_exact + jac_th
        s = system.transition(t, s, theta)

    J_mean = np.zeros_like(J_exact)
    for pair in paths:
        J_mean += pair.matrix()
    J_mean /= len(paths)
    max_jac_bias = float(np.linalg.norm(J_mean - J_exact))
    return UnbiasednessReport(reducer, dim, steps, max_step_bias, max_jac_bias)
