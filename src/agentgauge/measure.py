"""Ensemble construction and the aggregate intelligence score.

The ensemble is the set of valid machine programs up to a length cutoff,
weighted by 2^-length, or by Levin's time-penalized 2^-length / t (`kt`, with
t the steps of the program's first cycle), optionally deduplicated by
behavior signature so that programs indistinguishable up to a horizon are
valued once with their weights pooled.  Weights are normalized to sum to 1;
each entry also keeps its exact raw weight (under `length` weighting the raw
weights sum to the Kraft sum).  An agent's score is the weight-averaged
expected total reward across the ensemble, with a confidence interval
propagated from the per-environment estimates (whose random streams are
disjoint by construction).  The opcode-table sensitivity experiment is these
same two calls once per table; the `sensitivity` command runs it.

Programs that share a `reward_free_key` run the same cycle, so a
deduplicating `build_ensemble` walks one signature per key and gives it to
every program of the key, and the agents with private policies value the
entries of one key in one `roster_episode_values` call.  `estimate_roster`
values a run's agents: two or more with private policies together, and
every other one by `estimate_intelligence`, which values an external
agent's entries one at a time, in order and in the caller's process.
Signatures, the values of each key and the bootstrap of each pair of agents
are independent, so `build_ensemble`, the estimates and `compare_agents`
map them over a process pool the caller owns, if given one, in blocks that
workers take as they free up.  Seeds derive from labels
and results keep input order, so the pool changes no number.
Reward-freedom is proved in the caller's process, once per
`reward_free_key`, and travels with each entry, so no worker proves
anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import repeat

import numpy as np

from .environments import ProgramEnvironment
from .errors import EnsembleError
from .interaction import SpaceConfig
from .machine import (
    EnvProgram,
    MachineConfig,
    enumerate_programs,
    first_cycle_steps,
    kraft_sum,
    prior_weight,
    proves_reward_free,
    reward_free_key,
    signature_and_steps,
)
from .seeding import derive_seed
from .valuation import (
    ValuationParams,
    ValueEstimate,
    roster_episode_values,
    summable_episode_values,
)

WEIGHT_SCHEMES = ("length", "kt")
# Enumeration and valuation grow about 2^n with the length cutoff n; at 29
# bits 178,565 programs enumerate.  A larger cutoff is almost surely a typo.
MAX_PROGRAM_LENGTH_BITS = 32
# A bootstrap resample block holds 24 bytes per draw: 24 MB at this size.
_BOOTSTRAP_BLOCK_DRAWS = 1 << 20
# Blocks of work per pool worker: enough that no worker waits long on
# another's last block, few enough that sending them costs little.
_BLOCKS_PER_WORKER = 8


@dataclass(frozen=True)
class EnsembleSpec:
    """How to build the weighted environment ensemble: `dedup_horizon` is the
    depth of the signature walk that pools programs (None: no walk), and no
    weight reads the walk; `kt` divides 2^-|p| by `first_cycle_steps`."""

    max_program_length_bits: int = 24
    dedup_horizon: int | None = 8
    weight_scheme: str = "length"

    def __post_init__(self) -> None:
        if not 1 <= self.max_program_length_bits <= MAX_PROGRAM_LENGTH_BITS:
            raise EnsembleError(
                f"max_program_length_bits must lie in [1, {MAX_PROGRAM_LENGTH_BITS}], "
                f"got {self.max_program_length_bits}")
        if self.weight_scheme not in WEIGHT_SCHEMES:
            raise EnsembleError(f"weight_scheme must be one of {', '.join(WEIGHT_SCHEMES)}, "
                                f"got {self.weight_scheme!r}")
        if self.dedup_horizon is not None and self.dedup_horizon < 1:
            raise EnsembleError("dedup_horizon must be >= 1 or None")


@dataclass(frozen=True)
class EnsembleEntry:
    """One valued environment: a representative program and its pooled weight."""

    environment: ProgramEnvironment
    weight: float
    raw_weight: Fraction
    member_count: int

    @property
    def identifier(self) -> str:
        return self.environment.identifier

    @property
    def length_bits(self) -> int:
        return self.environment.program.length_bits


@dataclass(frozen=True)
class Ensemble:
    entries: tuple[EnsembleEntry, ...]
    kraft_sum: Fraction
    program_count: int
    spec: EnsembleSpec


def build_ensemble(spec: EnsembleSpec, machine: MachineConfig,
                   space: SpaceConfig = SpaceConfig(), programs=None, pool=None) -> Ensemble:
    """Enumerate, weight and deduplicate environments, and prove which are reward-free.

    `programs` overrides enumeration with an explicit program list (e.g. a
    fixture file), still weighted and deduplicated the same way.  Each
    program's `reward_free_key` is computed once.  With dedup, the signature
    walk runs once per key, on the key's first program, and every program
    gets its key's signature; without dedup no walk runs.  `kt` charges each
    program its own `first_cycle_steps`, so an entry's raw weight is the sum
    of its members' at every horizon.  Each entry's `reward_free` verdict
    comes from one `proves_reward_free` call per key among the
    representatives, made here.
    """
    if programs is None:
        programs = enumerate_programs(spec.max_program_length_bits, machine)
    if not programs:
        raise EnsembleError(
            f"no valid program fits in {spec.max_program_length_bits} bits")
    kraft = kraft_sum(programs)
    keys = [reward_free_key(program, machine) for program in programs]

    if spec.dedup_horizon is not None:
        # Programs that share a key run the same cycle, so they share the walk
        walked: dict[tuple, EnvProgram] = {}
        for program, key in zip(programs, keys):
            walked.setdefault(key, program)
        walks = dict(zip(walked, _map(pool, signature_and_steps, list(walked.values()),
                                      spec.dedup_horizon, machine, space)))
    groups: dict[object, list[int]] = {}
    for index, (program, key) in enumerate(zip(programs, keys)):
        group = walks[key][0] if spec.dedup_horizon is not None else program.program_id
        groups.setdefault(group, []).append(index)

    if spec.weight_scheme == "length":
        # 2^-|p| as an integer numerator over 2^longest.  An int quotient is
        # correctly rounded, so n / total is float(raw / total) exactly.
        longest = max(p.length_bits for p in programs)
        numerators = [sum(1 << (longest - programs[i].length_bits) for i in members)
                      for members in groups.values()]
        total = sum(numerators)
        raw_weights = [Fraction(n, 1 << longest) for n in numerators]
        weights = [n / total for n in numerators]
    else:
        # 2^-(|p| + log2 t) == 2^-|p| / t, kept exact as a Fraction
        raw_weights = [sum((prior_weight(programs[i]) / first_cycle_steps(programs[i], machine)
                            for i in members), Fraction(0))
                       for members in groups.values()]
        total = sum(raw_weights, Fraction(0))
        weights = [float(raw / total) for raw in raw_weights]
    verdicts: dict[tuple, bool] = {}
    entries = []
    for members, raw, weight in zip(groups.values(), raw_weights, weights):
        program, key = programs[members[0]], keys[members[0]]
        if key not in verdicts:
            verdicts[key] = proves_reward_free(program, machine, space)
        environment = ProgramEnvironment(program, machine, space, verdicts[key])
        entries.append(EnsembleEntry(environment=environment, weight=weight,
                                     raw_weight=raw, member_count=len(members)))
    return Ensemble(entries=tuple(entries), kraft_sum=kraft, program_count=len(programs),
                    spec=spec)


@dataclass
class AgentMeasurement:
    """Aggregate score for one agent plus everything needed for comparisons.

    `truncation_bound` is the weighted sum of the environments' truncation
    bounds: the most reward the score can have missed by stopping episodes.
    """

    agent_name: str
    score: float
    ci_half_width: float
    estimates: dict[str, ValueEstimate] = field(repr=False)
    episode_values: dict[str, np.ndarray] = field(repr=False)
    failed_rollouts: int = 0
    truncation_bound: float = 0.0


def _map(pool, fn, items, *constants):
    """fn(item, *constants) for each of `items`, in input order.

    Without a pool this is the builtin `map`, run here.  A pool's workers
    take blocks of items as they free up, so costly items even out unmodelled.
    """
    if pool is None:
        return map(fn, items, *map(repeat, constants))
    # ProcessPoolExecutor keeps its worker count in _max_workers
    size = max(1, math.ceil(len(items) / (pool._max_workers * _BLOCKS_PER_WORKER)))
    return pool.map(fn, items, *map(repeat, constants), chunksize=size)


def estimate_intelligence(agent_factory, ensemble: Ensemble,
                          params: ValuationParams, pool=None) -> AgentMeasurement:
    """Weight-averaged expected total reward of one agent over the ensemble.

    An agent with private policies is valued a `reward_free_key` at a time
    (`_key_values`), over the pool if given one.  Any other, an external one
    included, sees the entries one at a time and in order, in this process
    whatever `pool` is: a worker would play a copy of the agent, and its
    episodes and warnings would stay there."""
    if getattr(agent_factory, "private_policies", False):
        results = [row[0] for row in _key_values([agent_factory], ensemble, params, pool)]
    else:
        results = [summable_episode_values(agent_factory, entry.environment, params)
                   for entry in ensemble.entries]
    return _measured(agent_factory.name, ensemble, results)


def estimate_roster(factories: list, ensemble: Ensemble, params: ValuationParams,
                    pool=None) -> list[AgentMeasurement]:
    """The measurement of each agent, in the given order.  Two or more agents
    with private policies are valued together, a `reward_free_key` at a time
    (`_key_values`); every other one, external or alone, goes through
    `estimate_intelligence`."""
    private = [f for f in factories if getattr(f, "private_policies", False)]
    together = {}
    if len(private) > 1:
        results = _key_values(private, ensemble, params, pool)
        together = {id(f): _measured(f.name, ensemble, [row[k] for row in results])
                    for k, f in enumerate(private)}
    return [together.get(id(f)) or estimate_intelligence(f, ensemble, params, pool)
            for f in factories]


def _key_values(factories: list, ensemble: Ensemble, params: ValuationParams, pool) -> list:
    """Each entry's row of `roster_episode_values`, in entry order, for
    factories with private policies.  The entries of one `reward_free_key`
    run one cycle, so each key's are valued in one call, and the calls map
    over the pool."""
    environments = [entry.environment for entry in ensemble.entries]
    keys: dict[tuple, list[int]] = {}
    for index, env in enumerate(environments):
        keys.setdefault(reward_free_key(env.program, env.machine), []).append(index)
    rows = _map(pool, partial(roster_episode_values, factories),
                [[environments[i] for i in members] for members in keys.values()], params)
    results: list = [None] * len(environments)
    for members, group in zip(keys.values(), rows):
        for index, row in zip(members, group):
            results[index] = row
    return results


def _measured(name: str, ensemble: Ensemble, results) -> AgentMeasurement:
    """The measurement of an agent from its (values, estimate) of each entry."""
    estimates: dict[str, ValueEstimate] = {}
    episode_values: dict[str, np.ndarray] = {}
    score = 0.0
    variance = 0.0
    truncation = 0.0
    failures = 0
    for entry, (values, estimate) in zip(ensemble.entries, results):
        estimates[entry.identifier] = estimate
        episode_values[entry.identifier] = values
        score += entry.weight * estimate.mean
        variance += (entry.weight * estimate.ci_half_width) ** 2
        truncation += entry.weight * estimate.truncation_bound
        failures += estimate.failed_episodes
    return AgentMeasurement(
        agent_name=name,
        score=score,
        ci_half_width=math.sqrt(variance),
        estimates=estimates,
        episode_values=episode_values,
        failed_rollouts=failures,
        truncation_bound=truncation,
    )


@dataclass(frozen=True)
class AgentComparison:
    """Weighted mean per-environment value difference between two agents."""

    agent_a: str
    agent_b: str
    mean_difference: float
    ci_low: float
    ci_high: float
    significant: bool


def compare_agents(measurements: list[AgentMeasurement], ensemble: Ensemble,
                   seed: int = 0, bootstrap_samples: int = 2000,
                   confidence: float = 0.95, pool=None) -> list[AgentComparison]:
    """Pairwise paired-by-environment comparisons with bootstrap intervals.

    The per-environment difference of means is weighted by ensemble weight;
    episode values are resampled per environment and agent to produce a
    percentile bootstrap interval for the weighted mean difference.  An
    ordering is significant when that interval excludes zero.  Each pair
    draws from its own seeded stream, so the pairs map over the pool.
    """
    pairs = [(a.agent_name, b.agent_name,
              [(a.episode_values[entry.identifier], b.episode_values[entry.identifier])
               for entry in ensemble.entries])
             for i, a in enumerate(measurements) for b in measurements[i + 1:]]
    return list(_map(pool, _compared, pairs, [entry.weight for entry in ensemble.entries],
                     seed, bootstrap_samples, confidence))


def _compared(pair: tuple, weights: list[float], seed: int, bootstrap_samples: int,
              confidence: float) -> AgentComparison:
    """The comparison of agents a and b from their episode values on each entry."""
    name_a, name_b, columns = pair
    alpha = (1.0 - confidence) / 2.0
    rng = np.random.default_rng(derive_seed(seed, "bootstrap", name_a, name_b))
    point = 0.0
    boot = np.zeros(bootstrap_samples)
    for weight, (va, vb) in zip(weights, columns):
        point += weight * (va.mean() - vb.mean())
        if np.array_equal(va, vb):
            continue  # identical samples contribute exactly zero spread
        means_a = _resampled_means(rng, va, bootstrap_samples)  # all of va's draws first
        boot += weight * (means_a - _resampled_means(rng, vb, bootstrap_samples))
    low, high = np.quantile(boot, [alpha, 1.0 - alpha])
    return AgentComparison(
        agent_a=name_a, agent_b=name_b,
        mean_difference=point, ci_low=float(low), ci_high=float(high),
        significant=bool(low > 0.0 or high < 0.0))


def _resampled_means(rng, values: np.ndarray, samples: int) -> np.ndarray:
    """The means of `samples` resamples of `values`, drawn in blocks of rows of
    at most `_BOOTSTRAP_BLOCK_DRAWS` draws: the bits of one (samples x n) draw."""
    n = len(values)
    rows = max(1, _BOOTSTRAP_BLOCK_DRAWS // n)
    return np.concatenate([values[rng.integers(0, n, size=(min(rows, samples - first), n))]
                           .mean(axis=1) for first in range(0, samples, rows)])
