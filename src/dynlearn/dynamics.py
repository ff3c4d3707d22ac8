"""Parameterized dynamical systems, losses, and trajectory evaluation.

A system evolves a state s_t = T_t(s_{t-1}, theta) under a time-dependent
transition operator, and carries a per-step loss l_t(s_t). Data enters
through the time dependency of T_t and l_t (a system closes over its
dataset and sample-index sequence). Every concrete system supplies
analytic Jacobians of T_t and l_t; there is no autodiff fallback, only a
finite-difference checker used by the tests.
"""

from __future__ import annotations

import copy
import inspect
import math
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "System",
    "ContractViolation",
    "NumericOverflow",
    "ConfigurationError",
    "LinearSystem",
    "NonRecurrentRegression",
    "RNNSystem",
    "MomentumSystem",
    "InfluenceBalancing",
    "TanhSystem",
    "ResetWrapper",
    "SquaredErrorLoss",
    "LinearCoefficientLoss",
    "make_example",
    "step",
    "run_trajectory",
    "compound_loss",
    "check_jacobians",
    "guard",
    "row_dot",
]

OVERFLOW_LIMIT = 1e12


class ContractViolation(ValueError):
    """Input violates a dimension or finiteness precondition."""


class NumericOverflow(FloatingPointError):
    """A computed quantity exceeded the overflow limit or is non-finite.

    Carries the stage name and time index; divergence experiments rely on
    catching this and recording the abort time as data. For an array with a
    leading seed axis, `rows` holds the indices of the rows that failed
    (None otherwise).
    """

    def __init__(self, stage, t, detail="", rows=None):
        self.stage = stage
        self.t = t
        self.rows = rows
        super().__init__(f"numeric overflow in {stage} at t={t}" + (f": {detail}" if detail else ""))


class ConfigurationError(ValueError):
    """Invalid construction parameters or experiment configuration."""


# Arrays with at most GUARD_SCALAR_SIZE entries are guarded in Python
# floats, which beats one numpy call below about 28 entries; the exact
# test of an array with more entries than GUARD_NO_TEMP_SIZE allocates no
# temporary.
GUARD_NO_TEMP_SIZE = 4096
GUARD_SCALAR_SIZE = 24
_SQUARED_LIMIT = OVERFLOW_LIMIT * OVERFLOW_LIMIT
_FLOAT64 = np.dtype(float)


def guard(x, stage, t, batched=False):
    """x itself, unless an entry is non-finite or exceeds OVERFLOW_LIMIT in
    magnitude; then NumericOverflow(stage, t). Every overflow check of the
    library goes through here. With batched=True the leading axis of x runs
    over seeds, and the error names the failing rows."""
    # A comparison with NaN is false, and max, min and sums are NaN when
    # any entry is NaN, so each test covers both the overflow threshold
    # and non-finite entries. On the smallest arrays (a state of a few
    # entries) a loop over Python floats is cheapest. A larger float64
    # array passes in one BLAS call when its sum of squares is at most L^2:
    # then no |x_i| exceeds L, since rounding is monotone and
    # fl(nextafter(L)^2) lies above fl(L^2) (the sum of non-negative terms
    # is at least each term, and NaN or overflow fail the test). Only an
    # array that fails it goes to the exact test: max <= L and min >= -L,
    # which allocates nothing, on a dense J, and one |x| reduction on the
    # rest. (ravel copies only an array that is not contiguous.)
    size = getattr(x, "size", 0)
    if 0 < size <= GUARD_SCALAR_SIZE:
        for v in x.ravel().tolist():
            if not -OVERFLOW_LIMIT <= v <= OVERFLOW_LIMIT:
                break
        else:
            return x
        ok = False
    else:
        if size and x.dtype is _FLOAT64:  # an integer dot could wrap
            flat = x.ravel()
            if flat.dot(flat) <= _SQUARED_LIMIT:
                return x
        if size > GUARD_NO_TEMP_SIZE:
            ok = x.max() <= OVERFLOW_LIMIT and x.min() >= -OVERFLOW_LIMIT
        else:
            ok = np.abs(x).max() <= OVERFLOW_LIMIT
    if ok:
        return x
    rows = None
    if batched:
        row_max = np.abs(np.reshape(x, (len(x), -1))).max(axis=1)
        rows = np.flatnonzero(~(row_max <= OVERFLOW_LIMIT))
    raise NumericOverflow(stage, t, rows=rows)


def row_dot(a, b):
    """Row-wise dot products of two (S, k) arrays.

    Each entry is bit-identical to the 1-D product a[r] @ b[r]: a stacked
    matmul of (1, k) by (k, 1) runs the same dot kernel per row, while
    einsum and (a * b).sum(1) may round differently in the last bit.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _pow2(x):
    """x ** 2 of an array, rounded as the scalar x ** 2 of each entry.

    A scalar ** runs libm's pow, while numpy squares an array as x * x;
    the two differ in the last bit for about one entry in a thousand.
    """
    return np.float_power(x, 2.0)


class System(ABC):
    """Behavioral interface of a parameterized dynamical system.

    Attributes:
        param_dim: dimension p of the parameter vector theta.

    State dimension may vary with t; `state_dim(t)` gives dim(S_t).
    `transition(t, s, theta)` maps S_{t-1} x Theta -> S_t, and the two
    transition Jacobians have shapes dim(S_t) x dim(S_{t-1}) and
    dim(S_t) x p. Losses are defined for t >= 1. Methods treat s and theta
    as read-only, and callers never write into them after a call: a system
    may keep what it computed for the same s and theta objects.
    """

    param_dim: int

    @abstractmethod
    def state_dim(self, t: int) -> int: ...

    @abstractmethod
    def transition(self, t: int, s: np.ndarray, theta: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def d_transition_ds(self, t: int, s: np.ndarray, theta: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def d_transition_dtheta(self, t: int, s: np.ndarray, theta: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def loss(self, t: int, s: np.ndarray) -> float: ...

    @abstractmethod
    def d_loss_ds(self, t: int, s: np.ndarray) -> np.ndarray: ...

    # Products with dT_t/dtheta. The defaults go through the dense matrix;
    # systems whose parameter Jacobian is structured override them so that
    # exact RTRL, rank-one learners and the TBPTT backward pass never
    # build it.

    def d_transition_dtheta_add(self, t: int, s: np.ndarray, theta: np.ndarray,
                                M: np.ndarray) -> np.ndarray:
        """M + dT_t/dtheta for a dim(S_t) x p matrix M, which may be
        written in place."""
        M += np.atleast_2d(self.d_transition_dtheta(t, s, theta))
        return M

    def d_transition_dtheta_vjp(self, t: int, s: np.ndarray, theta: np.ndarray,
                                u: np.ndarray) -> np.ndarray:
        """u . dT_t/dtheta for a row vector u of length dim(S_t)."""
        return u @ np.atleast_2d(self.d_transition_dtheta(t, s, theta))

    def d_transition_dtheta_row_norms(self, t: int, s: np.ndarray,
                                      theta: np.ndarray) -> np.ndarray:
        """Euclidean norms of the dim(S_t) rows of dT_t/dtheta."""
        return np.linalg.norm(np.atleast_2d(self.d_transition_dtheta(t, s, theta)), axis=1)

    # Optional hook known_transition(t, s, theta, s_new), None here: told
    # that s_new (read-only) is T_t(s, theta), a memo may keep it.
    known_transition = None


def step(sys: System, t: int, s: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """One application of the transition operator, with contract checks."""
    s = np.asarray(s, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if s.shape != (sys.state_dim(t - 1),):
        raise ContractViolation(
            f"state has dim {s.shape} but system expects dim ({sys.state_dim(t - 1)},) at t-1={t - 1}"
        )
    if theta.shape != (sys.param_dim,):
        raise ContractViolation(f"parameter has shape {theta.shape}, expected ({sys.param_dim},)")
    if not np.all(np.isfinite(theta)):
        raise ContractViolation("parameter has non-finite entries")
    return guard(np.asarray(sys.transition(t, s, theta), dtype=float), "transition", t)


def run_trajectory(sys: System, s0: np.ndarray, theta: np.ndarray, T: int) -> list[np.ndarray]:
    """States [s_0, ..., s_T] of the trajectory with constant parameter."""
    if T < 0:
        raise ContractViolation("horizon T must be >= 0")
    states = [np.asarray(s0, dtype=float)]
    for t in range(1, T + 1):
        states.append(step(sys, t, states[-1], theta))
    return states


def compound_loss(sys: System, s0: np.ndarray, theta: np.ndarray, t: int) -> float:
    """Loss at time t of the trajectory run from s0 with constant theta."""
    if t < 1:
        raise ContractViolation("compound loss needs t >= 1")
    states = run_trajectory(sys, s0, theta, t)
    return float(sys.loss(t, states[t]))


class _ConstantDim:
    """Mixin for systems whose state dimension does not vary with t."""

    _dim: int

    def state_dim(self, t: int) -> int:
        return self._dim


class LinearSystem(_ConstantDim, System):
    """s_t = A s_{t-1} + B theta + C x_t with linear loss <w, s_t>.

    `inputs` maps t -> input vector (or None for no input). The spectral
    radius of A governs stability; it is not checked here, callers assert
    it through the diagnostics module.
    """

    def __init__(self, A, B, C=None, inputs=None, loss_weights=None):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.B = np.atleast_2d(np.asarray(B, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.B.shape[0] != n:
            raise ConfigurationError("A must be square and B must have matching rows")
        self._dim = n
        self.param_dim = self.B.shape[1]
        self.C = None if C is None else np.atleast_2d(np.asarray(C, dtype=float))
        self.inputs = inputs
        self.w = np.ones(n) if loss_weights is None else np.asarray(loss_weights, dtype=float)

    def transition(self, t, s, theta):
        out = self.A @ s + self.B @ theta
        if self.C is not None and self.inputs is not None:
            out = out + self.C @ np.atleast_1d(self.inputs(t))
        return out

    def d_transition_ds(self, t, s, theta):
        return self.A.copy()

    def d_transition_dtheta(self, t, s, theta):
        return self.B.copy()

    def loss(self, t, s):
        return float(self.w @ s)

    def d_loss_ds(self, t, s):
        return self.w.copy()


class SquaredErrorLoss:
    """Per-sample loss l(x, y, theta) = (<theta, x> - y)^2 of a linear model.

    Seed-batched: with S indices i and parameter rows theta (S, p), each
    method returns one value (or gradient row) per seed.
    """

    def __init__(self, xs, ys):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.dim = self.xs.shape[1]

    def predict(self, i, theta):
        if np.ndim(theta) == 2:
            return row_dot(self.xs.take(i, axis=0), theta)
        return float(self.xs[i] @ theta)

    def value(self, i, theta):
        if np.ndim(theta) == 2:
            return _pow2(self.predict(i, theta) - self.ys.take(i))
        return (self.predict(i, theta) - self.ys[i]) ** 2

    def grad(self, i, theta):
        if np.ndim(theta) == 2:
            residual = self.predict(i, theta) - self.ys.take(i)
            return (2.0 * residual)[:, None] * self.xs.take(i, axis=0)
        return 2.0 * (self.predict(i, theta) - self.ys[i]) * self.xs[i]

    def value_and_grad(self, i, theta):
        """(value(i, theta), grad(i, theta)), bit for bit, from one residual."""
        if theta.ndim == 2:
            x = self.xs.take(i, axis=0)
            residual = row_dot(x, theta) - self.ys.take(i)
            return _pow2(residual), (2.0 * residual)[:, None] * x
        x = self.xs[i]
        residual = float(x @ theta) - self.ys[i]
        return residual ** 2, 2.0 * residual * x


class LinearCoefficientLoss:
    """Per-sample loss l_i(theta) = c_i * theta for scalar theta.

    The period-3 divergence instance for fixed-beta^2 adaptive descent is
    this loss with coefficients (C, -1, -1) cycled. Seed-batched as
    `SquaredErrorLoss`.
    """

    def __init__(self, coefs):
        self.coefs = np.asarray(coefs, dtype=float)
        self.dim = 1

    def value(self, i, theta):
        if np.ndim(theta) == 2:
            return self.coefs.take(i) * theta[:, 0]
        return float(self.coefs[i] * theta[0])

    def grad(self, i, theta):
        if np.ndim(theta) == 2:
            return self.coefs.take(i)[:, None]
        return np.array([self.coefs[i]])

    def value_and_grad(self, i, theta):
        """(value(i, theta), grad(i, theta)), bit for bit, from one take."""
        if theta.ndim == 2:
            c = self.coefs.take(i)
            return c * theta[:, 0], c[:, None]
        c = self.coefs[i]
        return float(c * theta[0]), np.array([c])


def _index_lookup(indices):
    """Normalize an index sequence (array or callable) to a callable of t.

    A 2-D array holds one index sequence per seed (one row each); its
    lookup returns the S indices of step t (see `_SeedIndices`).
    """
    if callable(indices):
        return indices
    arr = np.asarray(indices, dtype=int)
    if arr.ndim == 2:
        return _SeedIndices(arr)

    def lookup(t):
        if t >= len(arr):
            raise ContractViolation(f"index sequence of length {len(arr)} has no entry for t={t}")
        return int(arr[t])

    return lookup


class _SeedIndices:
    """Index sequences of S seeds, one row each: t -> the S indices of step t.

    A system or statistic built on them is seed-batched: its state carries a
    leading seed axis. `take(rows)` keeps the given rows.
    """

    def __init__(self, arr):
        self.arr = arr

    def __call__(self, t):
        if t >= self.arr.shape[1]:
            raise ContractViolation(
                f"index sequence of length {self.arr.shape[1]} has no entry for t={t}")
        return self.arr[:, t]

    def take(self, rows):
        return _SeedIndices(self.arr[rows])


class _Constant(dict):
    """np.full(shape, value), read-only, made once per shape (`take_seeds`
    shrinks a seed batch): a constant Jacobian handed out without a copy."""

    def __init__(self, value):
        self.value = value

    def __missing__(self, shape):
        out = self[shape] = np.full(shape, self.value)
        out.flags.writeable = False
        return out


class _SeedBatchable(_ConstantDim, System):
    """Base of the systems of state dimension 1 whose seeds differ only in
    their index sequence. dT/ds is the constant `_ds` (a `_Constant`), and
    dT/dtheta is `_row(t, theta)` in the leading core_dim columns, 0 after.

    Built on a 2-D index array (one row per seed), such a system takes
    states (S, 1) and parameters (S, p) (s.ndim == 2; a sample loss then
    takes S indices and S parameter rows), returns Jacobians with a leading
    seed axis and one loss per row, and row r computes exactly what the
    system built on row r alone computes.

    A step looks up its sample indices once: every method reads what they
    select from a one-entry memo, `_last`, filled by the step's first call
    (keyed by t, and by the theta object where it depends on theta, which
    is read-only, see `System`).
    """

    _idx: object
    _dim = 1
    _last = None

    def take_seeds(self, rows):
        """The same system restricted to the seed rows `rows`, with an empty
        memo."""
        out = copy.copy(self)
        out._idx = self._idx.take(rows)
        out._last = None
        return out

    def d_transition_ds(self, t, s, theta):
        return self._ds[s.shape[:-1] + (1, 1)]

    def d_transition_dtheta(self, t, s, theta):
        out = np.zeros(s.shape[:-1] + (1, self.param_dim))
        out[..., 0, : self.core_dim] = self._row(t, theta)
        return out

    def d_transition_dtheta_add(self, t, s, theta, M):
        # The default's bits, minus its calls. Beside zero columns the dense
        # sum stays (+ 0.0 makes -0.0 0.0; sliced adds cost more here).
        M += (self.d_transition_dtheta(t, s, theta) if self.core_dim < M.shape[-1]
              else self._row(t, theta).reshape(M.shape))
        return M


class NonRecurrentRegression(_SeedBatchable):
    """Non-recurrent case: the state is the current prediction.

    T_t(s, theta) = <theta_core, x_{i_t}> discards s entirely, and
    l_t(s) = (s - y_{i_t})^2. Gradient descent through this system is
    plain SGD on the per-sample loss. `core_dim` restricts the model to
    the leading coordinates of theta so that augmented parameters
    (theta, psi) used by adaptive rules pass through untouched.
    """

    def __init__(self, xs, ys, indices, param_dim=None, core_dim=None):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self._idx = _index_lookup(indices)
        self.core_dim = self.xs.shape[1] if core_dim is None else core_dim
        self.param_dim = self.core_dim if param_dim is None else param_dim
        if self.core_dim > self.param_dim:
            raise ConfigurationError("core_dim cannot exceed param_dim")
        self._ds = _Constant(0.0)
        self._y = self.ys[:, None]  # a take of its rows is shaped as s

    def _sample(self, t):
        """(t, x rows, y rows shaped as s) of step t's samples, kept while t
        comes back."""
        last = self._last
        if last is None or last[0] != t:
            i = self._idx(t)
            last = self._last = (t, self.xs.take(i, axis=0), self._y.take(i, axis=0))
        return last

    def transition(self, t, s, theta):
        x = self._sample(t)[1]
        if s.ndim == 2:  # row_dot's matmul, shaped as s
            return np.matmul(x[:, None, :], theta[:, : self.core_dim, None])[:, 0]
        return np.array([x @ theta[: self.core_dim]])

    def _row(self, t, theta):
        return self._sample(t)[1]

    def loss(self, t, s):
        r = s - self._sample(t)[2]
        return _pow2(r[:, 0]) if s.ndim == 2 else float(r[0] ** 2)

    def d_loss_ds(self, t, s):
        return 2.0 * (s - self._sample(t)[2])


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class RNNSystem(_ConstantDim, System):
    """Simple recurrent cell s_t = sigmoid(W s_{t-1} + W' x_t + B).

    The parameter is the flat concatenation [W (row-major), W', B] with
    p = n^2 + n*m + n. Loss is 0.5 ||s_t - y_t||^2 against a target
    sequence (default zero targets).

    A learner step evaluates the cell once: every method reads it from a
    one-entry memo keyed by t and the s and theta objects (read-only, see
    `System`), or filled by `known_transition`: s_t is the sigmoid itself.
    """

    def __init__(self, n, m, inputs=None, targets=None):
        self.n = n
        self.m = m
        self._dim = n
        self.param_dim = n * n + n * m + n
        self.inputs = inputs
        self.targets = targets
        # Flat indices into an n x p matrix of row i's non-zero dT/dtheta
        # entries d_i [s, x_t, 1], in the W, W' and B blocks.
        i = np.arange(n)[:, None]
        cols = np.hstack([i * n + np.arange(n), n * n + i * m + np.arange(m), n * n + n * m + i])
        self._add_idx = i * self.param_dim + cols
        self._last = None

    def _unpack(self, theta):
        n, m = self.n, self.m
        W = theta[: n * n].reshape(n, n)
        Wx = theta[n * n : n * n + n * m].reshape(n, m)
        B = theta[n * n + n * m :]
        return W, Wx, B

    @staticmethod
    def pack(W, Wx, B):
        return np.concatenate([np.ravel(W), np.ravel(Wx), np.ravel(B)])

    def _input(self, t):
        if self.m == 0:
            return np.zeros(0)
        if self.inputs is None:
            return np.zeros(self.m)
        return np.atleast_1d(self.inputs(t))

    def _target(self, t):
        return np.atleast_1d(self.targets(t))

    def _cell(self, t, s, theta):
        """(sig, slope, W, x_t) at (t, s, theta): the cell's output, its
        derivative sig (1 - sig), the recurrent weights and the input."""
        last = self._last
        if last is not None and last[0] == t and last[1] is s and last[2] is theta:
            return last[3]
        W, Wx, B = self._unpack(theta)
        x = self._input(t)
        h = W @ s + B
        if self.m:
            h = h + Wx @ x
        sig = _sigmoid(h)
        cell = (sig, sig * (1.0 - sig), W, x)
        self._last = (t, s, theta, cell)
        return cell

    def known_transition(self, t, s, theta, s_new):
        # The slope and W as _cell computes them: the entry is bit-equal.
        self._last = (t, s, theta, (s_new, s_new * (1.0 - s_new), self._unpack(theta)[0], self._input(t)))

    def transition(self, t, s, theta):
        # A copy, so that no caller can write into the memo.
        return self._cell(t, s, theta)[0].copy()

    def d_transition_ds(self, t, s, theta):
        _, d, W, _ = self._cell(t, s, theta)
        return d[:, None] * W

    def d_transition_dtheta(self, t, s, theta):
        n, m = self.n, self.m
        _, d, _, x = self._cell(t, s, theta)
        # d(pre_i)/dW_{ab} = delta_{ia} s_b, and similarly for W' and B.
        jac = np.zeros((n, self.param_dim))
        jac[:, : n * n] = np.kron(np.eye(n), s[None, :])
        if m:
            jac[:, n * n : n * n + n * m] = np.kron(np.eye(n), x[None, :])
        jac[:, n * n + n * m :] = np.eye(n)
        return d[:, None] * jac

    def d_transition_dtheta_add(self, t, s, theta, M):
        # Row i of dT/dtheta is d_i [e_i (x) s, e_i (x) x_t, e_i]: only
        # n + m + 1 entries per row are non-zero, O(n^2 + nm).
        _, d, _, x = self._cell(t, s, theta)
        M = np.ascontiguousarray(M)
        M.reshape(-1)[self._add_idx] += np.outer(d, np.concatenate([s, x, [1.0]]))
        return M

    def d_transition_dtheta_vjp(self, t, s, theta, u):
        # Row i of dT/dtheta is d_i [e_i (x) s, e_i (x) x_t, e_i]: O(n^2 + nm).
        _, d, _, x = self._cell(t, s, theta)
        g = u * d
        col = g[:, None]  # col * s is np.outer(g, s), without its Python calls
        if self.m:
            return np.concatenate([(col * s).ravel(), (col * x).ravel(), g])
        return np.concatenate([(col * s).ravel(), g])

    def d_transition_dtheta_row_norms(self, t, s, theta):
        _, d, _, x = self._cell(t, s, theta)
        return np.abs(d) * np.sqrt(s @ s + x @ x + 1.0)

    def loss(self, t, s):
        r = s if self.targets is None else s - self._target(t)  # s - 0 is s, bit for bit
        return 0.5 * float(r @ r)

    def d_loss_ds(self, t, s):
        return s.copy() if self.targets is None else s - self._target(t)


class MomentumSystem(_SeedBatchable):
    """Scalar state s_t = beta s_{t-1} + (1-beta) l(x_{i_t}, y_{i_t}, theta).

    With loss l_t(s) = s, forward Jacobian propagation on this system
    maintains exactly the exponential moving average of per-sample
    gradients, so plain descent through it is SGD with momentum, and an
    adaptive update rule on top of it gives Adam-style methods.
    `core_dim` restricts the sample loss to the leading coordinates of an
    augmented parameter.
    """

    def __init__(self, sample_loss, indices, beta, param_dim=None, core_dim=None):
        if not 0.0 <= beta < 1.0:
            raise ConfigurationError("momentum beta must lie in [0, 1)")
        self.sample_loss = sample_loss
        self._idx = _index_lookup(indices)
        self.beta = beta
        self.core_dim = sample_loss.dim if core_dim is None else core_dim
        self.param_dim = self.core_dim if param_dim is None else param_dim
        self._ds, self._one = _Constant(beta), _Constant(1.0)

    def sample(self, t, theta):
        """(l, grad l) of step t's samples at theta's leading core_dim
        entries: one `value_and_grad`, kept while t and the theta object
        come back (the adaptive statistic of `rule_adam` reads it too)."""
        last = self._last
        if last is not None and last[0] == t and last[1] is theta:
            return last[2]
        out = self.sample_loss.value_and_grad(self._idx(t), theta[..., : self.core_dim])
        self._last = (t, theta, out)
        return out

    def transition(self, t, s, theta):
        val = self.sample(t, theta)[0]
        if s.ndim == 2:
            return self.beta * s + (1.0 - self.beta) * val[:, None]
        return np.array([self.beta * s[0] + (1.0 - self.beta) * val])

    def _row(self, t, theta):
        return (1.0 - self.beta) * self.sample(t, theta)[1]

    def loss(self, t, s):
        if s.ndim == 2:
            return s[:, 0]
        return float(s[0])

    def d_loss_ds(self, t, s):
        return self._one[s.shape]


class InfluenceBalancing(_ConstantDim, System):
    """Stable chain whose short-horizon gradient has the wrong sign.

    s_t = A s_{t-1} + u * theta, where A is upper-bidiagonal (diagonal
    (1+delta)/2 on the first n_plus rows, (1-delta)/2 after, superdiagonal
    1/2) and u has n_plus entries +1 followed by -1 entries. The loss is
    (s^1)^2 on the chain's sink coordinate. With n_plus < n/2 the
    stationary value of s^1 is a negative multiple of theta, so the
    long-run gradient pushes theta toward the optimum theta* = 0, while a
    one-step truncated gradient sees only the +1 influence of u on s^1
    and pushes theta the other way.
    """

    def __init__(self, n=6, n_plus=2, delta=0.05):
        if not (1 <= n_plus < n / 2):
            raise ConfigurationError("need 1 <= n_plus < n/2 for the sign imbalance")
        if not 0.0 < delta < 1.0:
            raise ConfigurationError("delta must lie in (0, 1)")
        A = np.zeros((n, n))
        for i in range(n):
            A[i, i] = (1.0 + delta) / 2.0 if i < n_plus else (1.0 - delta) / 2.0
            if i + 1 < n:
                A[i, i + 1] = 0.5
        u = np.where(np.arange(n) < n_plus, 1.0, -1.0)
        A.flags.writeable = False  # dT/ds, constant: handed out, never copied
        self.A = A
        self.u = u
        self._u_col = u[:, None]  # dT/dtheta, constant
        self._dim = n
        self.param_dim = 1
        self._drive = (None, None)  # (theta, u * theta[0]) of the last theta object

    def stationary_state(self, theta):
        """Fixed point of the frozen-theta dynamics (linear solve)."""
        return np.linalg.solve(np.eye(self._dim) - self.A, self.u * theta[0])

    def transition(self, t, s, theta):
        drive = self._drive  # one product per theta object (read-only, see `System`)
        if drive[0] is not theta:
            drive = self._drive = (theta, self.u * theta[0])
        return self.A.dot(s) + drive[1]

    def d_transition_ds(self, t, s, theta):
        return self.A

    def d_transition_dtheta(self, t, s, theta):
        return self._u_col.copy()

    def d_transition_dtheta_vjp(self, t, s, theta, u):
        return u.dot(self._u_col)

    def loss(self, t, s):
        return float(s[0] ** 2)

    def d_loss_ds(self, t, s):
        out = np.zeros(self._dim)
        out[0] = 2.0 * s[0]
        return out


class TanhSystem(_ConstantDim, System):
    """Bounded smooth system s_t = tanh(W s_{t-1} + U theta + b + c_t).

    W, U, b are fixed at construction (W scaled to be contracting), and
    c_t is an optional bounded drive. States stay in (-1, 1), which makes
    this the workhorse for randomized Jacobian and error-gauge tests at
    arbitrary (state_dim, param_dim).
    """

    def __init__(self, W, U, b, drive=None, loss_targets=None):
        self.W = np.atleast_2d(np.asarray(W, dtype=float))
        self.U = np.atleast_2d(np.asarray(U, dtype=float))
        self.b = np.asarray(b, dtype=float)
        self._dim = self.W.shape[0]
        self.param_dim = self.U.shape[1]
        self.drive = drive
        self.loss_targets = loss_targets

    @classmethod
    def random(cls, rng, state_dim, param_dim, contraction=0.7, drive_amp=0.3):
        W = rng.normal(size=(state_dim, state_dim))
        W *= contraction / max(np.linalg.norm(W, 2), 1e-12)
        U = rng.normal(size=(state_dim, param_dim)) / math.sqrt(param_dim)
        b = 0.1 * rng.normal(size=state_dim)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=state_dim)

        def drive(t):
            return drive_amp * np.cos(0.7 * t + phases)

        return cls(W, U, b, drive=drive)

    def _pre(self, t, s, theta):
        h = self.W @ s + self.U @ theta + self.b
        if self.drive is not None:
            h = h + self.drive(t)
        return h

    def transition(self, t, s, theta):
        return np.tanh(self._pre(t, s, theta))

    def d_transition_ds(self, t, s, theta):
        d = 1.0 - np.tanh(self._pre(t, s, theta)) ** 2
        return d[:, None] * self.W

    def d_transition_dtheta(self, t, s, theta):
        d = 1.0 - np.tanh(self._pre(t, s, theta)) ** 2
        return d[:, None] * self.U

    def _target(self, t):
        if self.loss_targets is None:
            return np.zeros(self._dim)
        return np.atleast_1d(self.loss_targets(t))

    def loss(self, t, s):
        r = s - self._target(t)
        return 0.5 * float(r @ r)

    def d_loss_ds(self, t, s):
        return s - self._target(t)


class ResetWrapper(System):
    """Wraps a system so the state resets to s0_star at given times.

    At a reset step the transition ignores its arguments and returns
    s0_star (both Jacobians are zero there). Losses at reset steps are
    counted normally; the underlying sequence model does not say how they
    should be weighted, so no special-casing is done.
    """

    def __init__(self, base: System, reset_times, s0_star):
        self.base = base
        self.reset_times = set(int(t) for t in reset_times)
        self.s0_star = np.asarray(s0_star, dtype=float)
        self.param_dim = base.param_dim

    def state_dim(self, t):
        return self.base.state_dim(t)

    def transition(self, t, s, theta):
        if t in self.reset_times:
            return self.s0_star.copy()
        return self.base.transition(t, s, theta)

    def d_transition_ds(self, t, s, theta):
        if t in self.reset_times:
            return np.zeros((self.state_dim(t), self.state_dim(t - 1)))
        return self.base.d_transition_ds(t, s, theta)

    def d_transition_dtheta(self, t, s, theta):
        if t in self.reset_times:
            return np.zeros((self.state_dim(t), self.param_dim))
        return self.base.d_transition_dtheta(t, s, theta)

    def d_transition_dtheta_add(self, t, s, theta, M):
        if t in self.reset_times:
            return M
        return self.base.d_transition_dtheta_add(t, s, theta, M)

    def d_transition_dtheta_vjp(self, t, s, theta, u):
        if t in self.reset_times:
            return np.zeros(self.param_dim)
        return self.base.d_transition_dtheta_vjp(t, s, theta, u)

    def d_transition_dtheta_row_norms(self, t, s, theta):
        if t in self.reset_times:
            return np.zeros(self.state_dim(t))
        return self.base.d_transition_dtheta_row_norms(t, s, theta)

    def loss(self, t, s):
        return self.base.loss(t, s)

    def d_loss_ds(self, t, s):
        return self.base.d_loss_ds(t, s)


EXAMPLES = {
    "linear": LinearSystem,
    "nonrecurrent": NonRecurrentRegression,
    "rnn": RNNSystem,
    "momentum": MomentumSystem,
    "influence_balancing": InfluenceBalancing,
}


def make_example(kind: str, **params) -> System:
    """EXAMPLES[kind](**params): one of the concrete example systems,
    built from its constructor's keyword arguments."""
    cls = EXAMPLES.get(kind)
    if cls is None:
        raise ConfigurationError(f"unknown system kind {kind!r}")
    try:
        inspect.signature(cls).bind(**params)
    except TypeError as exc:
        raise ConfigurationError(f"system kind {kind!r}: {exc}") from None
    return cls(**params)


def check_jacobians(sys: System, t, s, theta, h=1e-6, rtol=1e-5):
    """Compare analytic Jacobians against central finite differences.

    Returns the worst relative error over the three Jacobian contracts
    (transition w.r.t. state and parameter, loss w.r.t. state) and over
    the three products with dT/dtheta, which are compared with the dense
    analytic matrix (sum into a matrix, vector-Jacobian product, row
    norms). The error is ||analytic - fd|| / max(1, ||analytic||) so
    exactly-zero Jacobians are checked absolutely.
    """
    s = np.asarray(s, dtype=float)
    theta = np.asarray(theta, dtype=float)
    n_out = sys.state_dim(t)

    def fd_jac(f, x, out_dim):
        jac = np.zeros((out_dim, len(x)))
        for j in range(len(x)):
            e = np.zeros(len(x))
            e[j] = h
            jac[:, j] = (np.atleast_1d(f(x + e)) - np.atleast_1d(f(x - e))) / (2.0 * h)
        return jac

    worst = 0.0

    def rel(analytic, fd):
        return np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic))

    worst = max(worst, rel(
        sys.d_transition_ds(t, s, theta),
        fd_jac(lambda x: sys.transition(t, x, theta), s, n_out),
    ))
    jac_theta = np.atleast_2d(sys.d_transition_dtheta(t, s, theta))
    worst = max(worst, rel(jac_theta, fd_jac(lambda x: sys.transition(t, s, x), theta, n_out)))
    # The products must agree with the dense matrix they stand in for.
    u = np.cos(np.arange(1.0, n_out + 1.0))
    M = np.sin(np.arange(1.0, n_out * len(theta) + 1.0)).reshape(n_out, len(theta))
    worst = max(worst, rel(sys.d_transition_dtheta_add(t, s, theta, M.copy()), M + jac_theta))
    worst = max(worst, rel(sys.d_transition_dtheta_vjp(t, s, theta, u), u @ jac_theta))
    worst = max(worst, rel(sys.d_transition_dtheta_row_norms(t, s, theta),
                           np.linalg.norm(jac_theta, axis=1)))
    s_new = sys.transition(t, s, theta)
    worst = max(worst, rel(
        np.atleast_2d(sys.d_loss_ds(t, s_new)),
        fd_jac(lambda x: np.array([sys.loss(t, x)]), s_new, 1),
    ))
    return worst, worst <= rtol
