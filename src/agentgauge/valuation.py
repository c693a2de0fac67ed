"""Monte Carlo valuation of an agent in one environment.

Three value notions are supported, and the function called is the notion:

* `discounted_value`: mean reward weighted by powers of `gamma`, normalized
  so the value of an all-ones reward stream is 1;
* `harmonic_value`: inverse-square cycle weights with the analytic normalizer;
* `summable_episode_values`: plain expected total reward, which is bounded
  by 1 for budget-constrained environments, with the episode values it
  averages.  The intelligence measure uses this one.

The notions differ only in a per-cycle weight vector and a stop rule.  One
kernel, `_rollout`, plays every scalar episode of every notion.  Discounted
and harmonic values and reward profiles of cycle-indexed agents in
batch-capable environments run vectorized in lockstep instead
(`_batch_numerators`), where episodes that no draw has yet told apart are
one column, so a deterministic agent costs O(1) per cycle.  A reward
profile keeps only a per-cycle sum over episodes while they run.
Discounted and harmonic values keep only each episode's weighted sum, a
Kahan-compensated running sum over its cycles (`_weighted_values`): at most
O(episodes) memory, and bits that do not depend on the BLAS build or its
thread count.  An estimate of equal episode values is that value, with
half-width 0.

The summable episodes of a built-in agent in an environment with a cycle
`summary` (a loop-free program) run in lockstep too: `_lockstep` advances a
group of them a cycle at a time by machine `lockstep_step` and one step of
the agent's batch policy (`AgentFactory.batch`), which observes every live
episode and returns their actions as int64 arrays.  It is built from the
episodes' own policy streams and takes the actions their scalar policies
would, learners included, so every value is the one `_rollout` gives.

An environment that never reads an action (a program without `read_action`)
yields the same percepts for every agent.  When the agent is an in-process
factory, whose policy is built fresh for each episode and observed by
nothing else, no policy is built and every action is 0.  For such a factory,
`summable_episode_values` values an environment proven reward-free at 0 with
no episode at all, which is what each episode would give: one cycle with
reward 0 and bound 0.  It plays one episode and repeats it where the
environment reads no action and is deterministic (no `random_bit`).  Every
episode keeps the seeds and stop rule of `_rollout`, and the policy's stream
was never read by the environment, so every value is what the full loop
gives.  External agents always see every percept: their replies and
warnings are part of the report.

Infinite sums are truncated explicitly and the ignored mass is reported in
the estimate, never silently dropped.  The one fact an episode reports about
its future is `remaining_reward_bound`; it stops as soon as that is 0, so an
episode of a machine program that can never emit a positive reward stops
after cycle 1.  All randomness derives from the params seed, so estimates are
bit-reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import AgentGaugeError, RolloutFailed, SummabilityError
from .machine import lockstep_step
from .seeding import derive_seed

# More is almost surely a typo, which would fail deep inside a rollout.
MAX_EPISODES = 1_000_000


@dataclass(frozen=True)
class ValuationParams:
    """Estimation protocol: discount, truncation, sample size, confidence."""

    gamma: float = 0.95
    horizon: int = 250
    episodes: int = 100
    trunc_epsilon: float = 1e-9
    confidence: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise AgentGaugeError("gamma must lie in (0, 1)")
        if self.horizon < 1:
            raise AgentGaugeError("horizon must be >= 1")
        if not 1 <= self.episodes <= MAX_EPISODES:
            raise AgentGaugeError(f"episodes must lie in [1, {MAX_EPISODES}], got {self.episodes}")
        if not 0.0 < self.trunc_epsilon < 1.0:
            raise AgentGaugeError("trunc_epsilon must lie in (0, 1)")
        if not 0.0 < self.confidence < 1.0:
            raise AgentGaugeError("confidence must lie in (0, 1)")


@dataclass(frozen=True)
class ValueEstimate:
    """Monte Carlo estimate with confidence half-width and truncation bound."""

    mean: float
    ci_half_width: float
    episodes_used: int
    truncation_bound: float
    failed_episodes: int = 0


def _estimate(values: np.ndarray, confidence: float, truncation_bound: float,
              failed: int = 0) -> ValueEstimate:
    n = len(values)
    if values.min() == values.max():
        # equal values are their own mean; np.mean's rounded sum would not be
        mean, half = float(values[0]), 0.0
    else:
        z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
        mean, half = float(np.mean(values)), z * float(np.std(values, ddof=1)) / math.sqrt(n)
    return ValueEstimate(mean=mean, ci_half_width=half, episodes_used=n,
                         truncation_bound=truncation_bound, failed_episodes=failed)


class _UnreadPolicy:
    """Stands in for the agent where no action is ever read: always acts 0."""

    __slots__ = ()

    def observe(self, percept) -> None:
        pass

    def act(self) -> int:
        return 0


_UNREAD = _UnreadPolicy()


def _agent_free(agent_factory, env_model) -> bool:
    """True when the environment never reads an action and the factory's
    per-episode policy is seen by nothing else, so skipping it changes no
    output.  Undeclared models and factories keep the agent in the loop."""
    return (getattr(agent_factory, "private_policies", False)
            and not getattr(env_model, "reads_actions", True))


def _rollout(agent_factory, env_model, seed: int, index: int, horizon: int,
             epsilon: float) -> tuple[list[int], object]:
    """Episode `index` of one seeded interaction: reward numerators per cycle.

    Returns the numerators and the finished episode.  The episode stops once
    its remaining reward bound is 0 or below epsilon, or after `horizon`
    cycles.  Policy and episode streams are derived from (seed, agent name,
    environment, index), so any caller that passes the same arguments
    replays the same episode.  An agent-free episode builds no policy and
    steps with action 0, which the environment never reads.
    """
    if _agent_free(agent_factory, env_model):
        policy = _UNREAD
    else:
        policy = agent_factory.make(
            random.Random(derive_seed(seed, "agent", agent_factory.name,
                                      env_model.identifier, index)))
    episode = env_model.spawn(
        random.Random(derive_seed(seed, "env", agent_factory.name,
                                  env_model.identifier, index)))
    step, act, observe = episode.step, policy.act, policy.observe
    percept = step(None)
    observe(percept)
    numerators = [percept.reward_numerator]
    append = numerators.append
    for _ in range(1, horizon):
        bound = episode.remaining_reward_bound
        if bound == 0.0 or bound < epsilon:
            break
        percept = step(act())
        observe(percept)
        append(percept.reward_numerator)
    return numerators, episode


def _batched(agent_factory, env_model) -> bool:
    """True when a cycle-indexed agent meets a batch-capable environment."""
    return (getattr(agent_factory, "supports_batch", False)
            and getattr(env_model, "supports_batch", False))


def _batch_numerators(agent_factory, env_model, n_episodes: int, cycles: int, seed: int):
    """Reward numerators of `n_episodes` lockstep episodes, one array per cycle.

    The first cycle, and every cycle whose action probability is 0 or 1,
    yields a length-1 array that stands for every episode: no draw tells
    them apart there.  A cycle that draws yields one numerator per episode."""
    rng = np.random.default_rng(
        derive_seed(seed, "batch", agent_factory.name, env_model.identifier))
    yield env_model.batch_step(None)
    for k in range(1, cycles):
        p_one = agent_factory.prob_action_one(k)
        if 0.0 < p_one < 1.0:
            actions = (rng.random(n_episodes) < p_one).astype(np.int64)
        else:
            actions = np.full(1, p_one >= 1.0, dtype=np.int64)
        yield env_model.batch_step(actions)


def _weighted_values(agent_factory, env_model, episodes: int, weights: np.ndarray,
                     seed: int) -> np.ndarray:
    """Each episode's Kahan-compensated sum, in cycle order, of (n_k / D) * w_k.

    Batch episodes update arrays in place, at width 1 until the first
    numerator array of width `episodes` (before it, no draw has told them
    apart) and broadcast to it then: a float64 op on one element gives the
    bits it gives on each of n equal ones.  A scalar `_rollout`
    (epsilon 0), which stops early only at bound 0, is padded with zero terms.
    Both paths do the same IEEE operations in the same order, so a
    deterministic agent gets the same bits on either, whatever the BLAS."""
    denominator = env_model.space.reward_denominator
    if _batched(agent_factory, env_model):
        total, carry, y, t = (np.zeros(1) for _ in range(4))
        batch = _batch_numerators(agent_factory, env_model, episodes, len(weights), seed)
        for numerators, w in zip(batch, weights):
            if numerators.size > total.size:
                total, carry, y, t = (np.full(episodes, a[0]) for a in (total, carry, y, t))
            np.multiply(np.divide(numerators, denominator, out=y), w, out=y)
            y -= carry
            np.subtract(np.add(total, y, out=t), total, out=carry)
            carry -= y
            total, t = t, total
        return np.broadcast_to(total, episodes)
    values, weights = np.empty(episodes), weights.tolist()
    for index in range(episodes):
        numerators, _ = _rollout(agent_factory, env_model, seed, index, len(weights), 0.0)
        total = carry = 0.0
        for n, w in zip(numerators + [0] * (len(weights) - len(numerators)), weights):
            y = n / denominator * w - carry
            t = total + y
            carry = (t - total) - y
            total = t
        values[index] = total
    return values


def discounted_value(agent_factory, env_model, params: ValuationParams) -> ValueEstimate:
    """Normalized geometric-discounted value estimate.

    The episode is truncated at the first T with tail fraction gamma^T below
    trunc_epsilon (capped by the horizon); the actual tail fraction is
    reported as the truncation bound.
    """
    gamma = params.gamma
    cycles = min(params.horizon,
                 max(1, math.ceil(math.log(params.trunc_epsilon) / math.log(gamma))))
    # w_i = gamma^i / Gamma for i = 1..cycles
    weights = np.power(gamma, np.arange(1, cycles + 1)) * (1.0 - gamma) / gamma
    values = _weighted_values(agent_factory, env_model, params.episodes, weights, params.seed)
    return _estimate(values, params.confidence, truncation_bound=gamma ** cycles)


def harmonic_value(agent_factory, env_model, params: ValuationParams) -> ValueEstimate:
    """Inverse-square discounted value with the analytic normalizer pi^2/6.

    The tail beyond T is below 1/T, so T is chosen with (1/T)/(pi^2/6) below
    trunc_epsilon, capped by the horizon.
    """
    normalizer = math.pi ** 2 / 6.0
    cycles = min(params.horizon,
                 max(1, math.ceil(1.0 / (params.trunc_epsilon * normalizer))))
    t = np.arange(1, cycles + 1, dtype=np.float64)
    weights = 1.0 / (t * t) / normalizer
    values = _weighted_values(agent_factory, env_model, params.episodes, weights, params.seed)
    return _estimate(values, params.confidence,
                     truncation_bound=(1.0 / cycles) / normalizer)


def summable_episode_values(agent_factory, env_model,
                            params: ValuationParams) -> tuple[np.ndarray, ValueEstimate]:
    """Per-episode total rewards for a summable environment, and their estimate.

    Each episode plays as one `_rollout` with epsilon = trunc_epsilon; failed
    rollouts (external agents only) are excluded, not scored as zero.  The
    estimate's truncation bound is trunc_epsilon plus the mean reward the
    episodes could still have earned when they stopped.  For a factory with
    private policies, an environment proven reward-free is worth 0 in every
    episode with bound 0, so none is played; one that reads no action and is
    deterministic gives the same episode whatever its index, so it is played
    once; any other with a cycle `summary` is played in `_lockstep`.
    """
    if not getattr(env_model, "summable", False):
        raise SummabilityError(
            f"environment {env_model.identifier} is not reward-summable")
    private = getattr(agent_factory, "private_policies", False)
    if private and getattr(env_model, "reward_free", False):
        return (np.zeros(params.episodes),
                ValueEstimate(0.0, 0.0, params.episodes, params.trunc_epsilon))
    replay = _agent_free(agent_factory, env_model) and getattr(env_model, "deterministic", False)
    summary = getattr(env_model, "summary", None) if private and not replay else None
    failed = 0
    if summary is not None:
        values, remainders = _lockstep(agent_factory, env_model, summary, params)
    else:
        values, remainders = [], []
        for index in range(1 if replay else params.episodes):
            try:
                numerators, episode = _rollout(agent_factory, env_model, params.seed, index,
                                               params.horizon, params.trunc_epsilon)
            except RolloutFailed:
                failed += 1
                continue
            values.append(sum(numerators) / env_model.space.reward_denominator)
            remainders.append(min(1.0, episode.remaining_reward_bound))
        if replay:
            values *= params.episodes
            remainders *= params.episodes
        if not values:
            raise RolloutFailed(
                f"all {params.episodes} rollouts failed for agent {agent_factory.name} "
                f"on {env_model.identifier}")
    array = np.asarray(values)
    return array, _estimate(array, params.confidence,
                            params.trunc_epsilon + float(np.mean(remainders)), failed)


# At most this many of a lockstep group's tape cells, of its random bits
# drawn at a time, and of the values in the learner table rows it reads each
# cycle (|A| per episode); and at most this many episodes, each holding one
# or two random streams of 2.5 kB and its share of the batch policy
_LOCKSTEP_CELLS = 1 << 20
_LOCKSTEP_EPISODES = 1024


def _random_bits(rngs: list, count: int) -> np.ndarray:
    """The next `count` getrandbits(1) results of each stream, a column each: the
    top bits of the 32-bit outputs getrandbits(32 * count) joins, first lowest."""
    words = np.frombuffer(b"".join(rng.getrandbits(32 * count).to_bytes(4 * count, "little")
                                   for rng in rngs), dtype="<u4")
    return words.reshape(len(rngs), count).T >> 31


def _lockstep(agent_factory, env_model, summary, params: ValuationParams):
    """Values and remaining reward bounds of every episode, played in groups
    of at most `_LOCKSTEP_EPISODES` that take each cycle in one `lockstep_step`
    and, if the environment reads actions, one step of the group's batch
    policy.  Each episode and its policy keep the random streams and the stop
    rule of `_rollout`."""
    machine, space, width = env_model.machine, env_model.space, len(summary.rands)
    group = max(1, min(_LOCKSTEP_EPISODES, _LOCKSTEP_CELLS // max(
        machine.tape_length, width, space.action_count)))
    span = max(1, _LOCKSTEP_CELLS // (group * width)) if width else params.horizon
    labels = (agent_factory.name, env_model.identifier)
    values, remainders = np.empty(params.episodes), np.empty(params.episodes)
    for first in range(0, params.episodes, group):
        indices = range(first, min(params.episodes, first + group))
        n = len(indices)
        rngs = [random.Random(derive_seed(params.seed, "env", *labels, i))
                for i in indices] if width else []
        policy = None if _agent_free(agent_factory, env_model) else agent_factory.batch(
            [random.Random(derive_seed(params.seed, "agent", *labels, i)) for i in indices])
        tape, ptr, block = np.zeros((machine.tape_length, n), dtype=np.int64), 0, ()
        # a static cycle keeps the tape zero: (0, 0), then frozen with bound 0
        budget = np.full(n, 0 if summary.static else space.reward_denominator)
        totals, live, actions = np.zeros_like(budget), np.ones(n, bool), np.zeros_like(budget)
        alive = np.arange(n)
        for cycle in range(params.horizon):
            row = width * (cycle % span)
            if width and not row:
                block = _random_bits(rngs, width * min(span, params.horizon - cycle))
            ptr, observations, numerators = lockstep_step(
                summary, machine, space, tape, ptr, budget, actions, block[row:row + width])
            totals += numerators
            bound = budget / space.reward_denominator
            stop = live & ((bound < params.trunc_epsilon) | (cycle == params.horizon - 1))
            if stop.any():
                values[first:first + n][stop] = totals[stop] / space.reward_denominator
                remainders[first:first + n][stop] = bound[stop]
                live &= ~stop
                alive = np.flatnonzero(live)
            if not alive.size:
                break
            if policy is not None:
                actions[alive] = policy.step(alive, observations[alive], numerators[alive])
        del tape, block, policy  # before the next group's
    return values, remainders


def per_cycle_reward_profile(agent_factory, env_model, cycles: int, episodes: int,
                             seed: int) -> np.ndarray:
    """Monte Carlo estimate of the mean reward value at each cycle 1..cycles.

    Episodes are summed per cycle as they run; no (episodes, cycles) matrix
    is built.  A batch cycle sums its integer numerators exactly; scalar
    episodes are added row by row in episode order, as a column mean would.
    """
    if cycles < 1:
        raise AgentGaugeError("cycles must be >= 1")
    if episodes < 1:
        raise AgentGaugeError("episodes must be >= 1")
    denominator = env_model.space.reward_denominator
    sums = np.zeros(cycles, dtype=np.float64)
    if _batched(agent_factory, env_model):
        batch = _batch_numerators(agent_factory, env_model, episodes, cycles, seed)
        for k, numerators in enumerate(batch):
            # a length-1 array stands for every episode
            sums[k] = numerators.sum() * (episodes // numerators.size)
        return sums / denominator / episodes
    for index in range(episodes):
        numerators, _ = _rollout(agent_factory, env_model, seed, index, cycles, 0.0)
        sums[: len(numerators)] += np.asarray(numerators, dtype=np.float64) / denominator
    return sums / episodes
