"""The non-recurrent declaration (`System.recurrent` False: dT/ds = 0) and
the learner paths that skip the product with dT/ds: the contract of the
declaration on every system class and every config plant, and the
rank-one learner on `linear_regression` against its product path."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlearn import dynamics, harness
from dynlearn.dynamics import (
    InfluenceBalancing,
    LinearCoefficientLoss,
    LinearSystem,
    MomentumSystem,
    NonRecurrentRegression,
    NumericOverflow,
    ResetWrapper,
    RNNSystem,
    SquaredErrorLoss,
    System,
    TanhSystem,
)
from dynlearn.harness import SYSTEM_KINDS, ExperimentConfig, run_trial, run_trials
from dynlearn.rankone import RankOnePair, SignStream, pair_step

from conftest import philox

XS = np.array([[1.0, -2.0], [0.5, 0.25], [-1.5, 3.0]])
YS = np.array([0.5, -1.0, 2.0])
IDX = np.array([[0, 1, 2, 0, 1, 2], [2, 2, 1, 0, 0, 1], [1, 0, 0, 2, 2, 0]])


def regression(idx):
    return NonRecurrentRegression(XS, YS, idx)


def momentum(beta):
    return lambda idx: MomentumSystem(SquaredErrorLoss(XS, YS), idx, beta)


def momentum_augmented(idx):  # the system of an adaptive rule: theta and psi
    return MomentumSystem(LinearCoefficientLoss([3.0, -1.0, -1.0]), idx, 0.0, param_dim=2, core_dim=1)


# One builder per concrete System class of the library, and both settings
# of MomentumSystem; built on one index row, or on IDX (three seeds) for a
# declared class, which is seed-batchable.
CLASSES = {
    "NonRecurrentRegression": regression,
    "MomentumSystem-0": momentum(0.0),
    "MomentumSystem-augmented-0": momentum_augmented,
    "MomentumSystem-0.5": momentum(0.5),
    "LinearSystem": lambda idx: LinearSystem(A=[[0.5, 0.1], [0.0, 0.3]], B=[[1.0], [0.5]]),
    "RNNSystem": lambda idx: RNNSystem(2, 1, inputs=lambda t: np.array([np.sin(t)])),
    "InfluenceBalancing": lambda idx: InfluenceBalancing(),
    "TanhSystem": lambda idx: TanhSystem.random(philox(3), 2, 3),
    "ResetWrapper": lambda idx: ResetWrapper(regression(idx[0]), [2, 4], [0.0]),
}
DECLARED = {"NonRecurrentRegression", "MomentumSystem-0", "MomentumSystem-augmented-0"}


def test_the_table_covers_every_system_class():
    concrete = {cls.__name__ for cls in vars(dynamics).values()
                if isinstance(cls, type) and issubclass(cls, System) and not inspect.isabstract(cls)}
    assert concrete == {name.partition("-")[0] for name in CLASSES}


def states(sys, lead, T, seed):
    """(t, s, theta) of T steps at random states and parameters."""
    rng = philox(seed)
    for t in range(1, T + 1):
        yield t, rng.normal(size=lead + (sys.state_dim(t - 1),)), rng.normal(size=lead + (sys.param_dim,))


def assert_zero_ds(sys, lead, T=5, seed=0):
    for t, s, theta in states(sys, lead, T, seed):
        jac = sys.d_transition_ds(t, s, theta)
        assert not np.any(jac), (t, jac)


@pytest.mark.parametrize("name", list(CLASSES))
def test_declared_classes_have_zero_dT_ds(name):
    build = CLASSES[name]
    alone = build(IDX[0])
    assert alone.recurrent is (name not in DECLARED)
    if alone.recurrent:
        return
    assert_zero_ds(alone, ())
    batch = build(IDX)
    assert not batch.recurrent
    assert_zero_ds(batch, (3,))
    for rows in ([1], [2, 0]):
        part = batch.take_seeds(rows)
        assert not part.recurrent
        assert_zero_ds(part, (len(rows),), seed=len(rows))


def test_recurrent_systems_do_not_declare():
    assert all(build(IDX[0]).recurrent for name, build in CLASSES.items() if name not in DECLARED)
    assert MomentumSystem(SquaredErrorLoss(XS, YS), IDX, 0.5).take_seeds([0]).recurrent
    # The wrapper's reset makes no claim about its base, nor the base about it.
    assert ResetWrapper(regression(IDX[0]), [], [0.0]).recurrent


# --- every config plant ------------------------------------------------------

KIND_SETTINGS = {
    "linear_regression": {"system.n_samples": 8, "system.dim": 3},
    "momentum": {"system.n_samples": 8, "system.dim": 3},
    "rnn": {"system.n": 3, "system.m": 2, "system.data_seed": 77},
    "influence_balancing": {"system.s0": "stationary"},
    "period3": {"schedule.gamma": 0.5, "init.radius": 1.0},
}
# Settings that change the system an arm trains: its momentum.
VARIANTS = {
    "momentum": [{"system.beta": 0.5}, {"system.beta": 0.0}],
    "adam": [{}, {"algorithm.beta1": 0.0}],
    "ong": [{}, {"algorithm.beta1": 0.4}],
}


def plant_cases():
    for kind, entry in SYSTEM_KINDS.items():
        for algo in entry.algorithms:
            for variant in VARIANTS.get(algo, VARIANTS.get(kind, [{}])):
                yield kind, algo, variant


def captured_systems(kind, algo, variant, seeds, monkeypatch):
    """[(system, s0)] of what the learner of an arm is handed."""
    seen = []

    def capture(run):
        def learner(sys, s0, theta0, *args, **kwargs):
            seen.append((sys, np.asarray(s0)))
            return run(sys, s0, theta0, *args, **kwargs)

        return learner

    values = {"experiment.name": "plants", "experiment.horizon": 6, "algorithm.name": algo,
              "system.kind": kind, "schedule.gamma": 0.05, "schedule.b": 0.7,
              "truncation.spec": "grow:0.4", **KIND_SETTINGS[kind], **variant}
    with monkeypatch.context() as m:
        m.setattr(harness, "run_learning", capture(harness.run_learning))
        m.setattr(harness, "run_tbptt", capture(harness.run_tbptt))
        run_trials(ExperimentConfig({k: str(v) for k, v in values.items()}), seeds)
    return seen


def test_config_plants_that_declare_have_zero_dT_ds(monkeypatch):
    declared = set()
    for kind, algo, variant in plant_cases():
        batched = algo in SYSTEM_KINDS[kind].batched
        for seeds in ([0], [0, 1, 2]) if batched else ([0],):
            for sys, s0 in captured_systems(kind, algo, variant, seeds, monkeypatch):
                if sys.recurrent:
                    continue
                declared.add((kind, algo, tuple(variant.values())))
                lead = s0.shape[:-1]
                assert lead == ((3,) if len(seeds) == 3 else ())
                assert_zero_ds(sys, lead)
                if lead:
                    assert_zero_ds(sys.take_seeds([2, 0]), (2,))
    assert declared == {
        *(("linear_regression", algo, ()) for algo in ("sgd", "rtrl", "uoro", "nobacktrack", "tbptt",
                                                         "rmsprop")),
        ("linear_regression", "adam", (0.0,)), ("linear_regression", "ong", ()),
        *(("momentum", algo, (0.0,)) for algo in ("sgd", "rtrl", "uoro", "nobacktrack", "tbptt")),
        ("period3", "adam", (0.0,)), ("period3", "rmsprop", ()), ("period3", "ong", ()),
    }


# --- the rank-one learner ------------------------------------------------------

RANK_ONE = {
    "iid": {},
    "cycling": {"sampling.scheme": "cycling", "experiment.record_every": 1},
    "aborting": {"schedule.gamma": 2.0, "schedule.b": 0.05},
}


@pytest.mark.parametrize("settings", list(RANK_ONE))
@pytest.mark.parametrize("algo", ["uoro", "nobacktrack"])
def test_rank_one_on_linear_regression_equals_the_product_path(algo, settings, monkeypatch, tmp_path):
    cfg = ExperimentConfig({k: str(v) for k, v in {
        "experiment.name": "rank-one", "experiment.horizon": 300, "experiment.record_every": 7,
        "system.kind": "linear_regression", "system.n_samples": 16, "system.dim": 4,
        "schedule.gamma": 0.05, "schedule.b": 0.6, "sampling.scheme": "iid", "init.radius": 0.5,
        "algorithm.name": algo, **RANK_ONE[settings]}.items()})
    seeds = range(4)

    def never(*args):
        raise AssertionError("d_transition_ds called on a non-recurrent system")

    with monkeypatch.context() as m:
        m.setattr(NonRecurrentRegression, "d_transition_ds", never)
        new = [run_trial(cfg, seed) for seed in seeds]
    with monkeypatch.context() as m:
        m.setattr(NonRecurrentRegression, "recurrent", True)  # the product path
        old = [run_trial(cfg, seed) for seed in seeds]
    for a, b in zip(new, old):
        a.to_csv(str(tmp_path / "new.csv"))
        b.to_csv(str(tmp_path / "old.csv"))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert a.abort_t == b.abort_t
        assert a.final_theta.tobytes() == b.final_theta.tobytes()
    if settings == "aborting":
        assert all(r.abort_t is not None for r in new)
    else:
        assert not any(r.aborted for r in new)


ENTRIES = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0]),
                    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


def pair_outcome(sys, s, theta, pair, nbt, seed):
    try:
        s_new, out, theta_new, v = pair_step(sys, 2, s, theta, pair, 0.1, None, None, nbt,
                                             SignStream(philox(seed), 1))
    except NumericOverflow as exc:
        return exc.stage, exc.t
    return [x.tobytes() for x in (s_new, out.v_state, out.v_param, theta_new, v)]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), nbt=st.booleans(), beta_zero=st.booleans(), seed=st.integers(0, 2**32))
def test_pair_step_without_the_product_has_its_bits(data, nbt, beta_zero, seed):
    # Zero and -0.0 sample rows give zero rows of dT/dtheta, where the
    # forwarded zero vector's sign would show in v_state.
    xs = np.array(data.draw(st.lists(st.lists(ENTRIES, min_size=2, max_size=2), min_size=3, max_size=3)))
    ys = np.array(data.draw(st.lists(ENTRIES, min_size=3, max_size=3)))
    idx = np.array(data.draw(st.lists(st.integers(0, 2), min_size=3, max_size=3)))
    sys = (MomentumSystem(SquaredErrorLoss(xs, ys), idx, 0.0) if beta_zero
           else NonRecurrentRegression(xs, ys, idx))
    s = np.array(data.draw(st.lists(ENTRIES, min_size=1, max_size=1)))
    theta, v_state, v_param = (np.array(data.draw(st.lists(ENTRIES, min_size=k, max_size=k)))
                               for k in (2, 1, 2))
    pair = RankOnePair(v_state, v_param)
    got = pair_outcome(sys, s, theta, pair, nbt, seed)
    sys.recurrent = True  # the product path
    assert got == pair_outcome(sys, s, theta, pair, nbt, seed)
