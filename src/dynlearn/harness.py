"""Experiment configuration, seeded execution, and CSV emission.

Configs are INI files with dotted access (section.key). A config names a
system, an algorithm, a step schedule, a sampling scheme, seeds, and a
horizon; `run_experiment` executes every (arm, seed) trial with an
independent counter-based random stream and writes one trial CSV per
seed plus a summary, and `run_sweep` does the same at every [sweep] grid
point with one aggregated row per (point, arm). Both go through one
planner: `_rows` crosses the grid points with the arms and checks each
row before any trial runs, and `_outcomes` runs the rows' seeds over one
pool. Everything is deterministic from (config, seed): streams are keyed
by the config hash and seed, trials never share state, and files are
written atomically.

`SYSTEM_KINDS` maps each config system kind to its builder, the
algorithms that run on it and those of them whose seeds batch; every
check of a kind or an algorithm reads it. `run_trials` is the one
dispatcher of an arm's seeds. The seeds of an arm in `SEED_BATCHED`
(computed from the table) advance together through one seed-batched
learner (see `rtrl.run_learning`), which writes the same bytes as
running them one by one; any other arm runs `run_trial` per seed. With
jobs > 1 the rows are spread over the pool, and a row's seeds are split
only as far as the pool needs tasks, never below two seeds per chunk
for a batched arm.
"""

from __future__ import annotations

import concurrent.futures
import configparser
import io
import os
import re
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .dynamics import (
    ConfigurationError,
    InfluenceBalancing,
    LinearCoefficientLoss,
    MomentumSystem,
    NonRecurrentRegression,
    RNNSystem,
    SquaredErrorLoss,
)
from .rankone import RankOneInjector
from .records import config_hash, write_csv
from .rtrl import run_learning
from .schedules import ExponentProfile, StepSchedule, sample_indices, validate_exponents
from .tbptt import TruncationSchedule, run_tbptt
from .updates import (AdamSetup, AdaptiveRule, PreconditionedRule, ProjectedUpdate,
                      inverse_matrix_preconditioner, outer_grad_statistic, rule_adam)

__all__ = ["ExperimentConfig", "check_unread_keys", "parse_numbers", "run_experiment", "run_sweep",
           "run_trials"]


@dataclass
class ExperimentConfig:
    """Flat dotted-key view of an experiment INI file.

    Sections/keys are free-form; the accessors apply defaults and type
    coercion. Round-trips through `to_ini`/`from_ini` losslessly (string
    values are preserved as written).
    """

    values: dict = field(default_factory=dict)

    @classmethod
    def from_ini(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        parser.optionxform = str
        parser.read_string(text)
        values = {}
        for section in parser.sections():
            for key, val in parser.items(section):
                values[f"{section}.{key}"] = val
        return cls(values)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_ini(fh.read())

    def to_ini(self) -> str:
        parser = configparser.ConfigParser()
        parser.optionxform = str
        for dotted in sorted(self.values):
            section, key = dotted.split(".", 1)
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, key, self.values[dotted])
        out = io.StringIO()
        parser.write(out)
        return out.getvalue()

    def with_overrides(self, overrides: dict) -> "ExperimentConfig":
        """A copy with these dotted keys set; ConfigurationError for a key
        that is not section.key (words joined by dots)."""
        for key in overrides:
            if not re.fullmatch(r"[\w-]+(\.[\w-]+)+", key):
                raise ConfigurationError(f"override key {key!r} is not section.key")
        merged = dict(self.values)
        merged.update({k: str(v) for k, v in overrides.items()})
        return ExperimentConfig(merged)

    def get(self, dotted, default=None):
        return self.values.get(dotted, default)

    def getfloat(self, dotted, default=None):
        return self._number(dotted, default, float)

    def getint(self, dotted, default=None):
        return self._number(dotted, default, int)

    def _number(self, dotted, default, kind):
        val = self.values.get(dotted)
        return default if val is None else parse_numbers(dotted, val, 1, kind)[0]

    def getlist(self, dotted, default=()):
        val = self.values.get(dotted)
        if val is None:
            return list(default)
        return [item.strip() for item in val.split(",") if item.strip()]

    @property
    def name(self):
        return self.get("experiment.name", "experiment")

    @property
    def seeds(self):
        return [parse_numbers("experiment.seeds", s, 1, int)[0] for s in self.getlist("experiment.seeds", ["0"])]

    @property
    def horizon(self):
        return self.getint("experiment.horizon", 1000)

    @property
    def hash(self):
        return config_hash(self.values)

    def arms(self):
        """(arm_name, config) pairs; a single 'main' arm when no [arms]."""
        arm_keys = sorted(k for k in self.values if k.startswith("arms."))
        if not arm_keys:
            return [("main", self)]
        out = []
        for key in arm_keys:
            name = key.split(".", 1)[1]
            clauses = [clause.strip().partition("=") for clause in self.values[key].split(";") if clause.strip()]
            try:
                for dotted, eq, _ in clauses:
                    if not eq:
                        raise ConfigurationError(f"clause {dotted!r} is not key=value")
                out.append((name, self.with_overrides({k.strip(): v.strip() for k, _, v in clauses})))
            except ConfigurationError as exc:
                raise ConfigurationError(f"arm {name!r}: {exc}") from None
        return out


def parse_numbers(key, text, count, kind=float):
    """The count comma-separated numbers of config value text, each a
    kind; ConfigurationError naming the key and the value otherwise."""
    try:
        values = [kind(x) for x in str(text).split(",")]
        if len(values) == count:
            return values
    except ValueError:
        pass
    noun = "integer" if kind is int else "number"
    need = f"{'an' if kind is int else 'a'} {noun}" if count == 1 else f"{count} comma-separated {noun}s"
    raise ConfigurationError(f"{key} must be {need}, got {text!r}")


def build_dataset(cfg: ExperimentConfig):
    """Regression dataset (xs, ys, theta_star), generated from the data
    seed or ingested from a CSV with one row per sample (x columns, then
    one y column; a header row is skipped if present)."""
    path = cfg.get("system.data_csv")
    if path:
        try:
            raw = np.loadtxt(path, delimiter=",", skiprows=0, ndmin=2)
        except ValueError:
            try:
                raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            except ValueError as exc:
                raise ConfigurationError(f"system.data_csv {path!r} is not a numeric CSV: {exc}") from None
        if raw.shape[1] < 2:
            raise ConfigurationError(f"dataset {path!r} needs x columns and a y column")
        xs, ys = raw[:, :-1], raw[:, -1]
    else:
        n = cfg.getint("system.n_samples", 16)
        p = cfg.getint("system.dim", 4)
        noise = cfg.getfloat("system.noise", 0.1)
        rng = np.random.default_rng(np.random.Philox(key=cfg.getint("system.data_seed", 1234)))
        xs = rng.normal(size=(n, p))
        theta_true = rng.normal(size=p)
        ys = xs @ theta_true + noise * rng.normal(size=n)
    theta_star, *_ = np.linalg.lstsq(xs, ys, rcond=None)
    return xs, ys, theta_star


def rule_from_string(spec: str, dim: int):
    """Update rule from a config string: identity (None) |
    precond:scale:<c> | precond:diag:<c1,c2,...> (the adaptive names are
    algorithm-level)."""
    if spec in (None, "", "identity"):
        return None
    if spec.startswith("precond:"):
        kind, _, arg = spec[len("precond:"):].partition(":")
        if kind == "scale":
            P = parse_numbers("algorithm.rule", arg, 1)[0] * np.eye(dim)
        elif kind == "diag":
            P = np.diag(parse_numbers("algorithm.rule", arg, dim))
        else:
            raise ConfigurationError(f"unknown preconditioner {spec!r}")
        return PreconditionedRule(lambda theta: P)
    raise ConfigurationError(f"unknown rule {spec!r}")


def _parse_state(text, dim):
    if text is None or text == "zeros":
        return np.zeros(dim)
    return np.array(parse_numbers("system.s0", text, dim))


def run_trial(cfg: ExperimentConfig, seed: int):
    """Execute one (config, seed) trial; returns a TrialRecord.

    The random stream is a counter-based generator keyed by the config
    hash and the seed, split into independent children for sampling,
    initialization, and injector noise, so arms that consume different
    amounts of randomness stay comparable. A key the algorithm ignores
    raises ConfigurationError (`check_unread_keys`).
    """
    check_unread_keys(cfg)
    return _run(cfg, seed)


def run_trials(cfg: ExperimentConfig, seeds) -> dict:
    """{seed: TrialRecord} of every seed, each the record run_trial(cfg,
    seed) returns.

    Two or more seeds of an arm in SEED_BATCHED run through one
    seed-batched learner; any other arm, and a single seed, loop run_trial
    (one seed alone is cheaper per step without the seed axis).
    """
    seeds = [int(seed) for seed in seeds]
    if _seed_batched(cfg) and len(seeds) > 1:
        return dict(zip(seeds, _run(cfg, seeds)))
    return {seed: run_trial(cfg, seed) for seed in seeds}


def _seed_batched(cfg: ExperimentConfig) -> bool:
    """Whether run_trials advances the seeds of cfg's arm together."""
    algo = cfg.get("algorithm.name", "sgd")
    return (algo, cfg.get("system.kind", "linear_regression")) in SEED_BATCHED and (
        algo in ADAPTIVE or cfg.get("algorithm.rule", "identity") in ("", "identity"))


def _seed_streams(cfg: ExperimentConfig, seed: int):
    """Independent sampling, initialization and injector generators of one
    trial, keyed by the config hash and the seed."""
    root = np.random.SeedSequence([int(cfg.hash, 16) % (1 << 63), seed])
    return [np.random.default_rng(np.random.Philox(ss)) for ss in root.spawn(3)]


def _per_seed(draw, rngs):
    """draw(rng) for one seed's generator, or the draws for a list of
    seed generators stacked one row per seed (filled row by row, so a
    long index array is not held twice)."""
    if not isinstance(rngs, list):
        return draw(rngs)
    first = draw(rngs[0])
    out = np.empty((len(rngs),) + first.shape, dtype=first.dtype)
    out[0] = first
    for r, rng in enumerate(rngs[1:], start=1):
        out[r] = draw(rng)
    return out


def _run(cfg: ExperimentConfig, seed):
    """run_trial for one seed; for a list of seeds, the list of their
    records from one seed-batched learner (SEED_BATCHED arms only)."""
    algo = cfg.get("algorithm.name", "sgd")
    kind = system_kind(cfg)
    _check_counts(cfg)
    T = cfg.horizon
    schedule = _step_schedule(cfg)
    if isinstance(seed, list):
        streams = [_seed_streams(cfg, s) for s in seed]
        rng_sample, rng_init = [r[0] for r in streams], [r[1] for r in streams]
        rng_inject, meta = None, [{**cfg.values, "trial.seed": str(s)} for s in seed]
    else:
        rng_sample, rng_init, rng_inject = _seed_streams(cfg, seed)
        meta = {**cfg.values, "trial.seed": str(seed)}
    plant = kind.build(cfg, cfg.get("sampling.scheme", "cycling"), T, rng_sample, rng_init)
    if algo == "tbptt":
        return run_tbptt(plant.system, plant.s0, plant.theta0, schedule, _parse_truncation(cfg), T,
                         theta_star=plant.theta_star, config_meta=meta)
    if algo in ADAPTIVE:
        system, rule, phi, theta0, dist_dims = _adaptive(cfg, algo, plant, schedule)
    else:
        system, phi, theta0, dist_dims = plant.system, None, plant.theta0, None
        rule = rule_from_string(cfg.get("algorithm.rule", "identity"), theta0.shape[-1])
    injector = None
    if algo in ("uoro", "nobacktrack"):
        injector = RankOneInjector("uoro" if algo == "uoro" else "nbt")
    return run_learning(
        system, plant.s0, theta0, None, schedule, rule=rule, phi=phi,
        injector=injector, T=T, rng=rng_inject, theta_star=plant.theta_star,
        dist_dims=dist_dims, record_every=cfg.getint("experiment.record_every", 1),
        config_meta=meta,
    )


def _check_counts(cfg: ExperimentConfig):
    """ConfigurationError unless the horizon and record_every, integer
    keys whose defaults are >= 1, are >= 1."""
    for key in ("experiment.horizon", "experiment.record_every"):
        value = cfg.getint(key, 1)
        if value < 1:
            raise ConfigurationError(f"{key} must be >= 1, got {value}")


def _step_schedule(cfg: ExperimentConfig) -> StepSchedule:
    return StepSchedule(cfg.getfloat("schedule.gamma", 0.1), cfg.getfloat("schedule.b", 0.7))


def check_unread_keys(cfg: ExperimentConfig):
    """ConfigurationError when cfg sets a key its algorithm ignores: a rule
    other than identity on tbptt, adam, rmsprop or ong, or a record_every
    other than 1 on tbptt."""
    algo, rule = cfg.get("algorithm.name", "sgd"), cfg.get("algorithm.rule", "identity")
    if algo in ("tbptt",) + ADAPTIVE and rule not in ("", "identity"):
        raise ConfigurationError(f"algorithm.rule = {rule} is ignored by {algo}; only "
                                 "sgd, rtrl, uoro and nobacktrack take an update rule")
    if algo == "tbptt" and (every := cfg.getint("experiment.record_every", 1)) != 1:
        raise ConfigurationError(f"experiment.record_every = {every} is ignored by tbptt, "
                                 "which records one row per interval")


def _check_retired(cfg: ExperimentConfig):
    """ConfigurationError naming the truncation.spec that replaced a
    truncation.A or truncation.fixed_length key (plain or swept)."""
    for key, text in cfg.values.items():
        bare = key.removeprefix("sweep.")
        mode = {"truncation.A": "grow", "truncation.fixed_length": "fixed"}.get(bare)
        if mode:
            spec = ",".join(f"{mode}:{v.strip()}" for v in text.split(","))
            new_key = key.replace(bare, "truncation.spec")
            raise ConfigurationError(f"{key} is no longer read; set {new_key} = {spec}")


def _parse_truncation(cfg) -> TruncationSchedule:
    """Truncation from `truncation.spec`: grow:<A> | fixed:<L>, grow:0.4
    when unset or empty."""
    spec = cfg.get("truncation.spec") or "grow:0.4"
    mode, _, val = spec.partition(":")
    if mode == "grow":
        return TruncationSchedule.growing(parse_numbers("truncation.spec", val, 1)[0])
    if mode == "fixed":
        return TruncationSchedule.fixed(parse_numbers("truncation.spec", val, 1, int)[0])
    raise ConfigurationError(f"bad truncation spec {spec!r}")


def _theta_init(cfg, theta_star, rng_init, p):
    mode = cfg.get("init.theta0", "near_optimum")
    if mode == "near_optimum":
        if theta_star is None:
            raise ConfigurationError("near_optimum init needs a known reference parameter")
        radius = cfg.getfloat("init.radius", 0.5)
        direction = rng_init.normal(size=p)
        direction /= np.linalg.norm(direction)
        return theta_star + radius * rng_init.uniform(0.2, 1.0) * direction
    return np.array(parse_numbers("init.theta0", mode, p))


@dataclass
class Plant:
    """What a system kind builds from a config. theta0 and s0 have one row
    per seed when built from lists of seed generators."""

    theta_star: np.ndarray
    theta0: np.ndarray
    s0: np.ndarray
    system: object = None  # the system the plain algorithms train
    loss: object = None  # the sample loss the adaptive rules train, on `indices`
    indices: np.ndarray = None
    box: tuple = None  # (lo, hi) the parameter is projected onto


def _regression(cfg, scheme, T, rng_sample, rng_init):
    xs, ys, theta_star = build_dataset(cfg)
    indices = _per_seed(lambda rng: sample_indices(scheme, len(xs), T, rng), rng_sample)
    theta0 = _per_seed(lambda rng: _theta_init(cfg, theta_star, rng, xs.shape[1]), rng_init)
    return Plant(theta_star, theta0, np.zeros(theta0.shape[:-1] + (1,)),
                 system=NonRecurrentRegression(xs, ys, indices),
                 loss=SquaredErrorLoss(xs, ys), indices=indices)


def _momentum(cfg, scheme, T, rng_sample, rng_init):
    plant = _regression(cfg, scheme, T, rng_sample, rng_init)
    plant.system = MomentumSystem(plant.loss, plant.indices, cfg.getfloat("system.beta", 0.5))
    return plant


def _rnn(cfg, scheme, T, rng_sample, rng_init):
    n = cfg.getint("system.n", 2)
    m = cfg.getint("system.m", 1)
    data_rng = np.random.default_rng(np.random.Philox(key=cfg.getint("system.data_seed", 1234)))
    xs = data_rng.normal(size=(T + 2, m))
    system = RNNSystem(n, m, inputs=lambda t: xs[t])
    w_scale = cfg.getfloat("system.w_scale", 0.5)
    W = w_scale * data_rng.normal(size=(n, n)) / np.sqrt(n)
    Wx = data_rng.normal(size=(n, m))
    B = 0.1 * data_rng.normal(size=n)
    theta_star = RNNSystem.pack(W, Wx, B)
    theta0 = _theta_init(cfg, theta_star, rng_init, system.param_dim)
    return Plant(theta_star, theta0, 0.5 * np.ones(n), system=system)


def _influence_balancing(cfg, scheme, T, rng_sample, rng_init):
    system = InfluenceBalancing(
        cfg.getint("system.n", 6), cfg.getint("system.n_plus", 2),
        cfg.getfloat("system.delta", 0.05),
    )
    theta_star = np.zeros(1)
    theta0 = _theta_init(cfg, theta_star, rng_init, 1)
    if cfg.get("system.s0") == "stationary":
        s0 = system.stationary_state(theta0)
    else:
        s0 = _parse_state(cfg.get("system.s0"), system.state_dim(0))
    return Plant(theta_star, theta0, s0, system=system)


def _period3(cfg, scheme, T, rng_sample, rng_init):
    """Sample losses (coef, -1, -1) * theta, cycled; theta in [-1, 1]."""
    indices = _per_seed(lambda rng: sample_indices("cycling", 3, T, rng), rng_sample)
    theta_star = np.array([-1.0])
    theta0 = _per_seed(lambda rng: _theta_init(cfg, theta_star, rng, 1), rng_init)
    return Plant(theta_star, np.clip(theta0, -1.0, 1.0), np.zeros(theta0.shape[:-1] + (1,)),
                 loss=LinearCoefficientLoss([cfg.getfloat("system.coef", 3.0), -1.0, -1.0]),
                 indices=indices, box=(-1.0, 1.0))


@dataclass(frozen=True)
class SystemKind:
    """A config system kind: its builder, (cfg, scheme, T, rng_sample,
    rng_init) -> Plant, the algorithms that run on it, and those of them
    whose seeds run_trials advances together (they differ only in their
    sample index sequences and theta_0)."""

    build: object
    algorithms: tuple
    batched: tuple = ()


PLAIN = ("sgd", "rtrl", "uoro", "nobacktrack", "tbptt")
ADAPTIVE = ("adam", "rmsprop", "ong")

SYSTEM_KINDS = {
    "linear_regression": SystemKind(_regression, PLAIN + ADAPTIVE, ("sgd", "rtrl", "adam", "rmsprop")),
    "momentum": SystemKind(_momentum, PLAIN, ("sgd", "rtrl")),
    "rnn": SystemKind(_rnn, PLAIN),
    "influence_balancing": SystemKind(_influence_balancing, PLAIN),
    "period3": SystemKind(_period3, ADAPTIVE, ("adam", "rmsprop")),
}

# sgd and rtrl batch only with the identity rule (see _seed_batched).
SEED_BATCHED = {(algo, kind) for kind, entry in SYSTEM_KINDS.items() for algo in entry.batched}


def system_kind(cfg: ExperimentConfig, algo=None) -> SystemKind:
    """The SYSTEM_KINDS entry of cfg's system kind; ConfigurationError
    unless the kind is known and runs algo (default: cfg's algorithm)."""
    name = cfg.get("system.kind", "linear_regression")
    algo = cfg.get("algorithm.name", "sgd") if algo is None else algo
    entry = SYSTEM_KINDS.get(name)
    if entry is None:
        raise ConfigurationError(f"unknown system kind {name!r}; the kinds are {', '.join(SYSTEM_KINDS)}")
    if algo not in entry.algorithms:
        unknown = "" if algo in PLAIN + ADAPTIVE else f"unknown algorithm {algo!r}; "
        raise ConfigurationError(f"{unknown}system kind {name!r} runs {', '.join(entry.algorithms)}")
    return entry


def _adaptive(cfg, algo, plant, schedule):
    """(system, rule, phi, theta0, dist_dims) of an adaptive algorithm on a
    kind's sample loss, seed-batched as the plant is: the augmented
    parameter (theta, psi) of rule_adam, or for ong of the outer-product
    statistic, with theta projected onto the plant's box."""
    loss, indices = plant.loss, plant.indices
    beta1 = cfg.getfloat("algorithm.beta1", 0.9 if algo == "adam" else 0.0)
    c, eps = cfg.getfloat("algorithm.c", 1.0), cfg.getfloat("algorithm.eps", 1e-8)
    psi0 = None
    if algo == "ong":
        p = loss.dim
        system = MomentumSystem(loss, indices, beta1, param_dim=p + p * p, core_dim=p)
        rule = AdaptiveRule(outer_grad_statistic(loss, indices), inverse_matrix_preconditioner(eps),
                            c, theta_dim=p, psi_dim=p * p)
        setup = AdamSetup(system=system, rule=rule, theta_dim=p, psi_dim=p * p)
        # the first outer-product statistic is rank-one; ridge it so the
        # inverse preconditioner starts well conditioned
        g = loss.grad(indices[1], plant.theta0)
        psi0 = (np.outer(g, g) + cfg.getfloat("algorithm.psi0_ridge", 1.0) * np.eye(p)).ravel()
    else:
        fixed_beta2 = cfg.getfloat("algorithm.fixed_beta2")
        setup = rule_adam(loss, indices, beta1, c=c, eps=eps, fixed_beta2=fixed_beta2,
                          schedule=schedule if fixed_beta2 is not None else None)
    # Project the parameter block only; statistics are unconstrained.
    phi = None if plant.box is None else ProjectedUpdate(*plant.box, block=setup.theta_dim)
    return setup.system, setup.rule, phi, setup.initial_theta(plant.theta0, psi0=psi0), setup.theta_dim


def _trials_job(args):
    """run_trials on (config values, seeds), or the exception that stopped
    it; the one unit of work of a pool."""
    cfg_values, seeds = args
    try:
        return run_trials(ExperimentConfig(cfg_values), seeds)
    except Exception as exc:  # a run raises it, a sweep records it
        return exc


def _seed_chunks(cfg: ExperimentConfig, seeds, jobs: int, units: int):
    """The seeds of one of `units` arms or points in contiguous chunks:
    enough for the units to give `jobs` workers a task each, and of at
    least two seeds each when the arm is seed-batched."""
    min_size = 2 if _seed_batched(cfg) else 1
    n = max(1, min(-(-jobs // units), len(seeds) // min_size))
    return [chunk.tolist() for chunk in np.array_split(np.asarray(seeds, dtype=int), n)]


def _usable_jobs(jobs: int) -> int:
    """jobs, capped at the CPUs this process may run on: more workers than
    that only cut seed batches smaller."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(jobs, cpus)


def _map_jobs(job, tasks, jobs):
    """job(task) for each task, yielded in the order of the tasks, over
    one pool of `jobs` processes when jobs > 1."""
    if jobs > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            yield from pool.map(job, tasks)
    else:
        for task in tasks:
            yield job(task)


def _validate_config(cfg: ExperimentConfig, force: bool):
    if force or cfg.get("exponents.a") is None:
        return
    algo = cfg.get("algorithm.name", "sgd")
    klass = {"uoro": "imperfect_rtrl", "nobacktrack": "imperfect_rtrl", "tbptt": "tbptt"}.get(algo, "exact_rtrl")
    A = _parse_truncation(cfg).A if klass == "tbptt" else None
    if klass == "tbptt" and A is None:
        return  # fixed-length override: deliberately outside the guarantees
    profile = ExponentProfile(a=cfg.getfloat("exponents.a"), gamma_loss=cfg.getfloat("exponents.gamma_loss", 0.0),
                              algorithm_class=klass, A=A)
    ok, violations = validate_exponents(profile, cfg.getfloat("schedule.b", 0.7))
    if not ok:
        raise ConfigurationError("; ".join(violations))


def _check_distinct(key, values):
    """ConfigurationError unless the list of key holds values, each once."""
    twice = [v for v in values if values.count(v) > 1]
    if twice or not values:
        raise ConfigurationError(f"{key} lists {f'{twice[0]} twice' if twice else 'no values'}")


def _rows(cfg: ExperimentConfig, force: bool, grid=()):
    """The (point, arm, config, error) rows of cfg: each point of the grid
    ([sweep] (key, values) pairs; one empty point without) crossed with
    each arm, in order, the point's values set over the arm's clauses.
    error is the exception of the row's checks before any trial, or None;
    a run's exponent error names its arm. The checks build the row's step
    schedule and, for tbptt, its truncation, so their values fail here too.
    A retired key, a grid entry or seed list without values or with one
    twice raises here."""
    arms = cfg.arms()
    for _, arm_cfg in arms:
        _check_retired(arm_cfg)
    for key, values in grid:
        _check_distinct(f"sweep.{key}", values)
    _check_distinct("experiment.seeds", cfg.seeds)
    rows = []
    for point in product(*(values for _, values in grid)):
        for arm, arm_cfg in arms:
            row_cfg = arm_cfg.with_overrides({key: v for (key, _), v in zip(grid, point)})
            error = None
            try:
                system_kind(row_cfg)
                _check_counts(row_cfg)
                check_unread_keys(row_cfg)
                try:
                    _validate_config(row_cfg, force)
                except ConfigurationError as exc:
                    raise (exc if grid else ConfigurationError(f"arm {arm!r}: {exc}")) from None
                _step_schedule(row_cfg)
                if row_cfg.get("algorithm.name", "sgd") == "tbptt":
                    _parse_truncation(row_cfg)
            except ConfigurationError as exc:  # failures are data in a sweep
                error = exc
            rows.append((point, arm, row_cfg, error))
    return rows


def _outcomes(rows, seeds, jobs: int):
    """(row, outcome) for each row, in order: the row's {seed:
    TrialRecord}, or its check error, or the first exception among its
    chunks. The seed chunks of the rows without an error run over one
    pool, and a row is yielded as soon as its chunks arrive, so with one
    job its CSVs can be written before the next chunk runs."""
    jobs = _usable_jobs(jobs)
    units = sum(error is None for *_, error in rows)
    chunks = [[] if error else _seed_chunks(row_cfg, seeds, jobs, units) for _, _, row_cfg, error in rows]
    done = _map_jobs(_trials_job, [(row[2].values, chunk) for row, row_chunks in zip(rows, chunks)
                                   for chunk in row_chunks], jobs)
    for row, row_chunks in zip(rows, chunks):
        parts = [next(done) for _ in row_chunks]
        failed = [part for part in parts if isinstance(part, Exception)]
        yield row, row[3] or (failed[0] if failed else {seed: r for part in parts for seed, r in part.items()})


def run_experiment(cfg: ExperimentConfig, outdir, jobs: int = 1, force: bool = False):
    """Run all (arm, seed) trials, write per-trial CSVs and summary.csv.

    Returns the experiment directory. Raises before any trial runs when
    an arm fails a check of `_rows` (the exponent check only without force).
    """
    rows = _rows(cfg, force)
    for *_, error in rows:
        if error is not None:
            raise error
    exp_dir = os.path.join(outdir, cfg.name)
    tol = cfg.getfloat("experiment.tol", 1e-2)
    summary = []
    # An arm's CSVs are written as it arrives and only its summary rows
    # are kept, so memory does not grow with the number of arms.
    for (_, arm, _, _), records in _outcomes(rows, cfg.seeds, jobs):
        if isinstance(records, Exception):
            raise records
        for seed, record in records.items():
            record.to_csv(os.path.join(exp_dir, *[arm] * (len(rows) > 1), f"{seed}.csv"))
            summary.append([arm, seed, int(record.converged(tol)), record.final_dist(),
                            -1 if record.abort_t is None else record.abort_t])
    write_csv(os.path.join(exp_dir, "summary.csv"), ("arm", "seed", "converged", "final_dist", "abort_t"),
              list(zip(*sorted(summary, key=lambda row: (row[0], row[1])))))
    return exp_dir


def run_sweep(cfg: ExperimentConfig, outdir, jobs: int = 1, force: bool = False):
    """Cartesian sweep over [sweep] keys, crossed with the [arms]; one
    sweep.csv row per (point, arm).

    Each [sweep] entry is a dotted config key with comma-separated
    values, set over every arm's clauses. A row that fails a check of
    `_rows` or a trial gets its error in the error column and the sweep
    continues; a check that fails every row raises its first error before
    any trial runs. With two or more arms the trial CSVs go under
    <point>/<arm>/ and sweep.csv has an arm column after the grid keys.
    """
    grid = [(key.split(".", 1)[1], cfg.getlist(key)) for key in sorted(cfg.values) if key.startswith("sweep.")]
    if not grid:
        raise ConfigurationError("config has no [sweep] section")
    rows = _rows(cfg, force, grid)
    if all(error is not None for *_, error in rows):
        raise rows[0][3]
    named = len({arm for _, arm, _, _ in rows}) > 1
    exp_dir = os.path.join(outdir, cfg.name)
    tol = cfg.getfloat("experiment.tol", 1e-2)
    table = []
    for (point, arm, _, _), outcome in _outcomes(rows, cfg.seeds, jobs):
        row_dir = os.path.join(exp_dir, "_".join(str(v).replace(".", "p") for v in point), *[arm] * named)
        try:
            if isinstance(outcome, Exception):
                raise outcome
            cells = [float(np.nanmean([r.final_dist() for r in outcome.values()])),
                     float(np.mean([r.converged(tol) for r in outcome.values()])), ""]
            for seed, record in outcome.items():
                record.to_csv(os.path.join(row_dir, f"{seed}.csv"))
        except Exception as exc:  # failures are data; the sweep continues
            cells = [float("nan"), 0.0, f"{type(exc).__name__}: {exc}"]
        table.append(list(point) + [arm] * named + cells)
    write_csv(os.path.join(exp_dir, "sweep.csv"),
              [key for key, _ in grid] + ["arm"] * named + ["mean_final_dist", "converged_frac", "error"],
              list(zip(*table)))
    return exp_dir
