"""Rank-one reductions: tensor preservation, unbiasedness, error gauge."""

import itertools

import numpy as np
import pytest

from conftest import philox, random_tanh

import dynlearn.rankone as rankone
from dynlearn.dynamics import (
    ConfigurationError,
    ContractViolation,
    RNNSystem,
)
from dynlearn.rankone import (
    RankOneInjector,
    RankOnePair,
    error_gauge_bound,
    error_term,
    joint_jacobian_norm,
    nbt_reduce,
    norm_equalize,
    sample_signs,
    uoro_reduce,
    verify_unbiased,
)
from dynlearn.rtrl import LearnerState, rtrl_step, run_learning
from dynlearn.schedules import StepSchedule


def all_sign_vectors(dim):
    return [np.array(s) for s in itertools.product((-1.0, 1.0), repeat=dim)]


def random_reduction_inputs(seed, dim=3, p=4):
    rng = philox(seed)
    jac_s = rng.normal(size=(dim, dim))
    jac_th = rng.normal(size=(dim, p))
    pair = RankOnePair(rng.normal(size=dim), rng.normal(size=p))
    return pair, jac_s, jac_th


# --- norm_equalize ----------------------------------------------------------

def test_norm_equalize_frozen_example():
    out1, out2 = norm_equalize(np.array([2.0, 0.0]), np.array([0.5]))
    assert np.array_equal(out1, np.array([1.0, 0.0]))
    assert np.array_equal(out2, np.array([1.0]))


def test_norm_equalize_zero_branch():
    out1, out2 = norm_equalize(np.zeros(2), np.array([7.0]))
    assert np.array_equal(out1, np.zeros(2)) and np.array_equal(out2, np.zeros(1))
    out1, out2 = norm_equalize(np.array([1.0]), np.zeros(3))
    assert np.array_equal(out1, np.zeros(1)) and np.array_equal(out2, np.zeros(3))


def test_norm_equalize_scale_invariance():
    rng = philox(5)
    v, w = rng.normal(size=4), rng.normal(size=3)
    a = norm_equalize(v, w)
    b = norm_equalize(3.0 * v, w / 3.0)
    assert np.allclose(a[0], b[0], atol=1e-12) and np.allclose(a[1], b[1], atol=1e-12)


def test_norm_equalize_tensor_preservation_and_equal_norms():
    rng = philox(6)
    for _ in range(50):
        v, w = rng.normal(size=5), rng.normal(size=3)
        o1, o2 = norm_equalize(v, w)
        assert np.allclose(np.outer(o1, o2), np.outer(v, w), atol=1e-12)
        assert abs(np.linalg.norm(o1) - np.linalg.norm(o2)) < 1e-12


# --- sample_signs -----------------------------------------------------------

def test_sample_signs_values_and_mean():
    rng = philox(7)
    draws = np.stack([sample_signs(4, rng) for _ in range(100_000)])
    assert set(np.unique(draws)) == {-1.0, 1.0}
    assert np.all(np.abs(draws.mean(axis=0)) <= 0.02)


def test_sample_signs_deterministic():
    assert np.array_equal(sample_signs(6, philox(8)), sample_signs(6, philox(8)))
    assert sample_signs(1, philox(9))[0] in (-1.0, 1.0)


# --- reducers ---------------------------------------------------------------

@pytest.mark.parametrize("reduce_fn", [nbt_reduce, uoro_reduce])
def test_reduce_no_param_jacobian_is_deterministic(reduce_fn):
    # jac_theta = 0, jac_s = I: every sign draw returns the same tensor
    pair, _, _ = random_reduction_inputs(1)
    dim, p = len(pair.v_state), len(pair.v_param)
    for signs in all_sign_vectors(dim):
        out = reduce_fn(pair, None, None, np.eye(dim), np.zeros((dim, p)), signs)
        assert np.allclose(out.matrix(), pair.matrix(), atol=1e-12)


@pytest.mark.parametrize("reduce_fn", [nbt_reduce, uoro_reduce])
@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_reduce_exhaustive_mean(reduce_fn, dim):
    rng = philox(10 + dim)
    p = 4
    jac_s = rng.normal(size=(dim, dim))
    jac_th = rng.normal(size=(dim, p))
    pair = RankOnePair(rng.normal(size=dim), rng.normal(size=p))
    target = jac_s @ pair.matrix() + jac_th
    mean = np.zeros_like(target)
    for signs in all_sign_vectors(dim):
        mean += reduce_fn(pair, None, None, jac_s, jac_th, signs).matrix()
    mean /= 2.0**dim
    assert np.max(np.abs(mean - target)) < 1e-12


@pytest.mark.parametrize("reduce_fn", [nbt_reduce, uoro_reduce])
def test_reduce_scale_equivalence_of_representation(reduce_fn):
    pair, jac_s, jac_th = random_reduction_inputs(11)
    lam = 2.5
    scaled = RankOnePair(lam * pair.v_state, pair.v_param / lam)
    for signs in all_sign_vectors(len(pair.v_state)):
        a = reduce_fn(pair, None, None, jac_s, jac_th, signs).matrix()
        b = reduce_fn(scaled, None, None, jac_s, jac_th, signs).matrix()
        assert np.allclose(a, b, atol=1e-10)


@pytest.mark.parametrize("reduce_fn", [nbt_reduce, uoro_reduce])
def test_reduce_sign_flip_law_invariance(reduce_fn):
    # (v, w) and (-v, -w) induce the same multiset of output tensors
    pair, jac_s, jac_th = random_reduction_inputs(12)
    flipped = RankOnePair(-pair.v_state, -pair.v_param)

    def tensor_multiset(p):
        outs = [reduce_fn(p, None, None, jac_s, jac_th, s).matrix()
                for s in all_sign_vectors(len(p.v_state))]
        return sorted(tuple(np.round(o, 9).ravel()) for o in outs)

    assert tensor_multiset(pair) == tensor_multiset(flipped)


def test_uoro_equalization_count(monkeypatch):
    calls = {"n": 0}
    original = rankone.norm_equalize

    def counting(v1, v2):
        calls["n"] += 1
        return original(v1, v2)

    monkeypatch.setattr(rankone, "norm_equalize", counting)
    pair, jac_s, jac_th = random_reduction_inputs(13, dim=5, p=4)
    signs = all_sign_vectors(5)[7]
    rankone.uoro_reduce(pair, None, None, jac_s, jac_th, signs)
    assert calls["n"] == 2
    # NoBackTrack equalizes every basis pair (e_i, row_i) through its norms
    # (1, ||row_i||), all rows at once; that must be exactly what one
    # norm_equalize per row gives.
    out = rankone.nbt_reduce(pair, None, None, jac_s, jac_th, signs)
    first_state, first_param = original(jac_s @ pair.v_state, pair.v_param)
    norms = np.linalg.norm(jac_th, axis=1)
    rho = np.array([original(np.ones(1), norms[i:i + 1])[0][0] for i in range(5)])
    assert np.array_equal(out.v_state, first_state + signs * rho)
    assert np.array_equal(out.v_param, first_param + (signs / rho) @ jac_th)


def test_uoro_dim1_mean_recovers_propagation():
    # One state dimension: averaging the two sign draws reproduces the
    # exact propagation (individual draws keep a +-cross term).
    rng = philox(14)
    pair = RankOnePair(rng.normal(size=1), rng.normal(size=3))
    jac_s = rng.normal(size=(1, 1))
    jac_th = rng.normal(size=(1, 3))
    outs = [uoro_reduce(pair, None, None, jac_s, jac_th, np.array([s])).matrix()
            for s in (-1.0, 1.0)]
    assert np.allclose(0.5 * (outs[0] + outs[1]), jac_s @ pair.matrix() + jac_th, atol=1e-12)


# --- error terms and the gauge ----------------------------------------------

def test_error_term_exact_propagation_is_zero():
    pair, jac_s, jac_th = random_reduction_inputs(15)
    J_new = jac_s @ pair.matrix() + jac_th
    # zero up to float re-association of (A + B) - A - B
    assert np.max(np.abs(error_term(J_new, pair.matrix(), jac_s, jac_th))) < 1e-12


@pytest.mark.parametrize("reduce_fn", [nbt_reduce, uoro_reduce])
def test_error_term_exhaustive_mean_zero(reduce_fn):
    pair, jac_s, jac_th = random_reduction_inputs(16, dim=4)
    acc = np.zeros_like(jac_th)
    for signs in all_sign_vectors(4):
        out = reduce_fn(pair, None, None, jac_s, jac_th, signs)
        acc += error_term(out.matrix(), pair.matrix(), jac_s, jac_th)
    assert np.max(np.abs(acc / 16.0)) < 1e-12


@pytest.mark.parametrize("reducer", ["nbt", "uoro"])
def test_error_gauge_bound_every_draw(reducer):
    reduce_fn = nbt_reduce if reducer == "nbt" else uoro_reduce
    rng = philox(17)
    for trial in range(30):
        dim = int(rng.integers(1, 5))
        p = int(rng.integers(1, 6))
        pair = RankOnePair(rng.normal(size=dim), rng.normal(size=p))
        jac_s = rng.normal(size=(dim, dim))
        jac_th = rng.normal(size=(dim, p))
        y = joint_jacobian_norm(jac_s, jac_th)
        bound = error_gauge_bound(dim, y, float(np.linalg.norm(pair.matrix(), 2)))
        for signs in all_sign_vectors(dim):
            out = reduce_fn(pair, None, None, jac_s, jac_th, signs)
            err = error_term(out.matrix(), pair.matrix(), jac_s, jac_th)
            assert np.linalg.norm(err, 2) <= bound + 1e-9


# --- verify_unbiased --------------------------------------------------------

@pytest.mark.parametrize("reducer", ["nbt", "uoro"])
def test_verify_unbiased_single_step(reducer):
    report = verify_unbiased(reducer, dim=2, steps=1, seed=0)
    assert report.passed and report.max_step_bias < 1e-12


@pytest.mark.parametrize("reducer", ["nbt", "uoro"])
def test_verify_unbiased_multistep(reducer):
    report = verify_unbiased(reducer, dim=3, steps=3, seed=1)
    assert report.max_jacobian_bias < 1e-10


def test_verify_unbiased_zero_system():
    from dynlearn.dynamics import LinearSystem

    zero = LinearSystem(A=np.zeros((2, 2)), B=np.zeros((2, 3)))
    report = verify_unbiased("uoro", dim=2, steps=2, system=zero)
    assert report.passed and report.max_bias == 0.0


def test_verify_unbiased_budget():
    with pytest.raises(ConfigurationError):
        verify_unbiased("uoro", dim=6, steps=5, budget=1 << 20)


# --- the pair-only learner ---------------------------------------------------

def rnn_plant(n=5, m=2, seed=31):
    """RNN with driven inputs and targets, plus (s0, theta0)."""
    rng = philox(seed)
    xs = rng.normal(size=(2000, m))
    ys = 0.5 + 0.2 * rng.normal(size=(2000, n))
    sysm = RNNSystem(n, m, inputs=lambda t: xs[t % 2000], targets=lambda t: ys[t % 2000])
    theta0 = RNNSystem.pack(0.5 * rng.normal(size=(n, n)) / np.sqrt(n),
                            rng.normal(size=(n, m)), 0.1 * rng.normal(size=n))
    return sysm, 0.5 * np.ones(n), theta0


def test_run_learning_carries_the_pair():
    sysm, s0, theta0 = rnn_plant(n=4, m=1)
    sched = StepSchedule(0.02, 0.5)
    ls = LearnerState(0, s0, RankOnePair.zero(4, sysm.param_dim), theta0)
    inj, rng = RankOneInjector("uoro"), philox(5)
    for t in range(1, 201):
        ls = rtrl_step(sysm, ls, sched.eta(t), injector=inj, rng=rng)
    rec = run_learning(sysm, s0, theta0, None, sched, T=200,
                       injector=RankOneInjector("uoro"), rng=philox(5))
    assert np.array_equal(rec.final_theta, ls.theta)


def test_rank_one_state_needs_rank_one_injector():
    sysm, s0, theta = random_tanh(34)
    ls = LearnerState(0, s0, RankOnePair.zero(3, 5), theta)
    with pytest.raises(ContractViolation):
        rtrl_step(sysm, ls, 0.1)
    with pytest.raises(ContractViolation):
        rtrl_step(sysm, ls, 0.1, injector=object(), rng=philox(0))
    # and a dense Jacobian takes none
    dense = LearnerState(0, s0, np.zeros((3, 5)), theta)
    with pytest.raises(ContractViolation):
        rtrl_step(sysm, dense, 0.1, injector=RankOneInjector("uoro"), rng=philox(0))
    with pytest.raises(ContractViolation):
        run_learning(sysm, s0, theta, None, StepSchedule(0.02, 0.5), injector=object(), T=5)


# --- initial pairs ------------------------------------------------------------

@pytest.mark.parametrize("reducer", ["uoro", "nbt"])
def test_initial_pair_is_where_the_learner_starts(reducer):
    sysm, s0, theta0 = random_tanh(35, state_dim=3, param_dim=4)
    rng = philox(36)
    pair0 = RankOnePair(rng.normal(size=3), rng.normal(size=4))
    # test_pair_step's oracle loop checks the run from pair0 byte for byte.
    inj = RankOneInjector(reducer, initial_pair=pair0)
    kw = dict(schedule=StepSchedule(0.02, 0.5), T=300, injector=inj, theta_star=theta0)
    from_pair = run_learning(sysm, s0, theta0, None, rng=philox(5), **kw)
    from_zero = run_learning(sysm, s0, theta0, None, injector=RankOneInjector(reducer),
                             rng=philox(5), schedule=kw["schedule"], T=300)
    assert not np.array_equal(from_pair.final_theta, from_zero.final_theta)
    # Each run starts again from initial_pair, so a rerun repeats it.
    again = run_learning(sysm, s0, theta0, None, rng=philox(5), **kw)
    assert np.array_equal(again.final_theta, from_pair.final_theta)
    assert np.array_equal(again.theta_dist, from_pair.theta_dist)


def test_nonzero_J0_with_rank_one_injector_is_refused():
    sysm, s0, theta0 = random_tanh(37)
    kw = dict(schedule=StepSchedule(0.02, 0.5), T=5, rng=philox(0))
    with pytest.raises(ContractViolation):
        run_learning(sysm, s0, theta0, np.ones((3, 5)), injector=RankOneInjector("uoro"), **kw)
    # A zero J0 is the default start and is accepted.
    rec = run_learning(sysm, s0, theta0, np.zeros((3, 5)), injector=RankOneInjector("uoro"), **kw)
    assert not rec.aborted
