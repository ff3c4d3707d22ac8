"""The lean rank-one learner step (`rankone.pair_step`) and its block-drawn
signs, against an oracle loop built from the reducers and per-step draws."""

import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynlearn.dynamics as dynamics
from dynlearn.dynamics import LinearSystem, NumericOverflow, RNNSystem, guard
from dynlearn.harness import ExperimentConfig, run_trial
from dynlearn.rankone import (
    SIGN_BLOCK,
    RankOneInjector,
    RankOnePair,
    SignStream,
    nbt_reduce,
    pair_step,
    sample_signs,
    uoro_reduce,
)
from dynlearn.records import RecordBuilder
from dynlearn.rtrl import run_learning
from dynlearn.schedules import StepSchedule

from conftest import philox, random_tanh

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


# --- block-drawn signs --------------------------------------------------------

def same_state(a, b):
    """Equality of two bit_generator.state values (Philox's holds arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@settings(max_examples=80, deadline=None, database=None)
@given(dims=st.lists(st.integers(1, 70), min_size=1, max_size=5),
       steps=st.one_of(st.sampled_from([SIGN_BLOCK - 1, SIGN_BLOCK, SIGN_BLOCK + 1, 2 * SIGN_BLOCK + 1]),
                       st.integers(1, 40)),
       bit_generator=st.sampled_from([np.random.Philox, np.random.PCG64]),
       seed=st.integers(0, 2**32))
def test_sign_stream_equals_per_step_draws(dims, steps, bit_generator, seed):
    # Step k draws dims[k % len(dims)] signs, on one stream and per step.
    stream = SignStream(np.random.Generator(bit_generator(seed)), steps)
    oracle = np.random.Generator(bit_generator(seed))
    used = [dims[k % len(dims)] for k in range(steps)]
    for dim in used:
        assert np.array_equal(stream.take(dim), sample_signs(dim, oracle))
    # With one dim the stream drew exactly what was used; with several, the
    # last block may hold unused signs. After as many draws, the generators
    # agree.
    left = stream.block.size - stream.pos
    if len(set(used)) == 1:
        assert left == 0
    elif left:
        oracle.integers(0, 2, size=left)
    assert same_state(stream.rng.bit_generator.state, oracle.bit_generator.state)


class CountingRng:
    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


@pytest.mark.parametrize("T", [1, SIGN_BLOCK, SIGN_BLOCK + 1, 2 * SIGN_BLOCK + 1])
def test_one_generator_call_per_sign_block(T):
    sysm, s0, theta0 = random_tanh(40, state_dim=3, param_dim=4)
    rng = CountingRng(philox(5))
    run_learning(sysm, s0, theta0, None, StepSchedule(0.02, 0.5), T=T,
                 injector=RankOneInjector("uoro"), rng=rng)
    assert rng.calls == -(-T // SIGN_BLOCK)
    # and the generator ends where T per-step draws of 3 signs leave it
    oracle = philox(5)
    oracle.integers(0, 2, size=3 * T)
    assert same_state(rng.rng.bit_generator.state, oracle.bit_generator.state)


# --- run_learning against an oracle loop -------------------------------------

def oracle_record(sysm, s0, theta0, schedule, reducer, T, rng, theta_star):
    """(record, abort stage or None) of a pair learner written from the
    reducers (on the system's products), one sample_signs call per step and
    the four guards of the dense learner, each on the full array."""
    reduce = nbt_reduce if reducer == "nbt" else uoro_reduce
    s, theta = np.asarray(s0, dtype=float), np.asarray(theta0, dtype=float)
    pair = RankOnePair.zero(len(s), len(theta))
    builder = RecordBuilder(None)

    def dist(th):
        return float(np.linalg.norm(th - theta_star))

    builder.add(0, dist(theta), np.nan, np.nan)
    for t in range(1, T + 1):
        try:
            jac_s = sysm.d_transition_ds(t, s, theta)
            s_new = guard(sysm.transition(t, s, theta), "transition", t)
            products = SimpleNamespace(
                shape=(len(s_new), len(theta)),
                vjp=lambda u: sysm.d_transition_dtheta_vjp(t, s, theta, u),
                row_norms=lambda: sysm.d_transition_dtheta_row_norms(t, s, theta))
            pair = reduce(pair, s, theta, jac_s, products, sample_signs(len(s_new), rng))
            guard(pair.matrix(), "jacobian", t)
            v = guard((sysm.d_loss_ds(t, s_new) @ pair.v_state) * pair.v_param, "update-direction", t)
            theta = guard(theta - schedule.eta(t) * v, "parameter", t)
        except NumericOverflow as exc:
            builder.abort_t = exc.t
            builder.add(exc.t, dist(theta), np.nan, np.nan)
            return builder.build(final_theta=theta), exc.stage
        s = s_new
        builder.add(t, dist(theta), sysm.loss(t, s), float(np.linalg.norm(v)))
    return builder.build(final_theta=theta), None


def rnn_with_targets(n, m, seed=31):
    rng = philox(seed)
    xs = rng.normal(size=(400, m))
    ys = 0.5 + 0.2 * rng.normal(size=(400, n))
    sysm = RNNSystem(n, m, inputs=lambda t: xs[t], targets=lambda t: ys[t])
    theta0 = RNNSystem.pack(0.5 * rng.normal(size=(n, n)) / np.sqrt(n),
                            rng.normal(size=(n, m)), 0.1 * rng.normal(size=n))
    return sysm, 0.5 * np.ones(n), theta0


def expansive_linear():
    # From s0 = 0 and theta0 = 0 with a tiny step, the Jacobian crosses the
    # overflow limit while the state is still small.
    sysm = LinearSystem(A=np.diag([2.0, 1.5, 1.2]), B=philox(33).normal(size=(3, 2)))
    return sysm, np.zeros(3), np.zeros(2)


PLANTS = {
    **{f"rnn-n{n}-m{m}": (lambda n=n, m=m: rnn_with_targets(n, m)) for n in (1, 3, 32) for m in (0, 2)},
    "tanh": lambda: random_tanh(32, state_dim=4, param_dim=6),  # dense default products
    "linear-expansive": expansive_linear,
}


@pytest.mark.parametrize("reducer", ["uoro", "nbt"])
@pytest.mark.parametrize("plant", list(PLANTS))
def test_run_learning_csv_equals_the_oracle_loop(plant, reducer, tmp_path):
    sysm, s0, theta0 = PLANTS[plant]()
    gamma = 1e-20 if plant == "linear-expansive" else 0.02
    schedule, T, star = StepSchedule(gamma, 0.5), 300, theta0 + 0.1
    rec = run_learning(sysm, s0, theta0, None, schedule, T=T, injector=RankOneInjector(reducer),
                       rng=philox(5), theta_star=star)
    want, stage = oracle_record(sysm, s0, theta0, schedule, reducer, T, philox(5), star)
    rec.to_csv(str(tmp_path / "step.csv"))
    want.to_csv(str(tmp_path / "oracle.csv"))
    assert (tmp_path / "step.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert np.array_equal(rec.final_theta, want.final_theta)
    assert rec.abort_t == want.abort_t
    if plant != "linear-expansive":
        assert stage is None
        return
    # The step aborts at the oracle's step and stage, also on block signs.
    assert stage == "jacobian"
    s, theta, pair = s0, theta0, RankOnePair.zero(3, 2)
    signs = SignStream(philox(5), T)
    with pytest.raises(NumericOverflow) as exc:
        for t in range(1, T + 1):
            s, pair, theta, _ = pair_step(sysm, t, s, theta, pair, schedule.eta(t), None, None,
                                          reducer == "nbt", signs)
    assert (exc.value.t, exc.value.stage) == (want.abort_t, "jacobian")


# --- the update-direction shortcut -------------------------------------------

class Identity:
    """A rule that returns v itself: the step then guards v entry by entry."""

    def apply(self, t, v, s, theta):
        return v


def outcome(sysm, rule, nbt):
    # dT/dtheta = 0 and dT/ds = 1, so the step's pair is the equalized
    # (2, [8, 0]), which is exactly (4, [4, 0]): c = w * 4 and
    # max|v_param| = 4, with a zero entry.
    try:
        _, pair, theta, v = pair_step(sysm, 1, np.array([0.5]), np.array([0.1, 0.2]),
                                      RankOnePair([2.0], [8.0, 0.0]), 0.1, rule, None, nbt,
                                      SignStream(philox(0), 1))
    except NumericOverflow as exc:
        return exc.stage, exc.t
    assert np.array_equal(pair.v_state, [4.0]) and np.array_equal(pair.v_param, [4.0, 0.0])
    return "ok", theta.tolist(), v.tolist()


C_VALUES = {
    "zero": (0.0, "ok"),
    "+inf": (np.inf, "update-direction"),
    "-inf": (-np.inf, "update-direction"),
    "nan": (np.nan, "update-direction"),
    "at-limit": (2.5e11, "ok"),  # c * 4 = 1e12 exactly
    "over-limit": (np.nextafter(2.5e11, np.inf), "update-direction"),
    "negative-over-limit": (-1e300, "update-direction"),
    "overflowing-product": (2.0**1022, "update-direction"),  # c finite, c * 4 = inf
}


@pytest.mark.parametrize("nbt", [False, True])
@pytest.mark.parametrize("case", list(C_VALUES))
def test_update_direction_shortcut_agrees_with_the_elementwise_check(case, nbt):
    c, expected = C_VALUES[case]
    sysm = LinearSystem(A=[[1.0]], B=[[0.0, 0.0]], loss_weights=[c / 4.0])
    shortcut, elementwise = outcome(sysm, None, nbt), outcome(sysm, Identity(), nbt)
    assert shortcut == elementwise
    assert shortcut[0] == expected and (expected == "ok" or shortcut[1] == 1)


# --- one cell evaluation per step ---------------------------------------------

@pytest.mark.parametrize("algo", ["rtrl", "uoro", "nobacktrack", "tbptt"])
def test_one_sigmoid_per_step(algo, monkeypatch):
    calls = []
    sigmoid = dynamics._sigmoid

    def counting(x):
        calls.append(1)
        return sigmoid(x)

    monkeypatch.setattr(dynamics, "_sigmoid", counting)
    cfg = ExperimentConfig.load(os.path.join(CONFIG_DIR, "rnn_stability.ini")).with_overrides({
        "algorithm.name": algo, "system.n": 8, "system.m": 1, "experiment.horizon": 300,
        "truncation.spec": "grow:0.4"})
    assert not run_trial(cfg, 0).aborted
    assert len(calls) == 300
