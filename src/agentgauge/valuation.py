"""Monte Carlo valuation of an agent in one environment.

Three value notions are supported, and the function called is the notion:

* `discounted_value`: mean reward weighted by powers of `gamma`, normalized
  so the value of an all-ones reward stream is 1;
* `harmonic_value`: inverse-square cycle weights with the analytic normalizer;
* `summable_episode_values`: plain expected total reward, which is bounded
  by 1 for budget-constrained environments, with the episode values it
  averages.  The intelligence measure uses this one.

The notions differ only in a per-cycle weight vector and a stop rule.  One
kernel, `_rollout`, plays every scalar episode of every notion.  A reward
profile and any discounted and harmonic values of one agent share one pass
(`_one_pass`) that plays each episode once and reduces it as it runs: to a
sum per cycle for the profile, and to one Kahan-compensated sum per episode
for each weighting, so memory is O(episodes) and the bits do not depend on
the BLAS.  Cycle-indexed agents in batch-capable environments run it
vectorized in lockstep, where episodes that no draw has told apart are one
number, so a deterministic agent costs O(1) per cycle.  An estimate of
equal episode values is that value, with half-width 0.

`roster_episode_values` values a roster of agents in one environment in one
call, and `summable_episode_values` is its roster of one.  The summable
episodes of the built-in agents in an environment with a cycle `summary` (a
loop-free program) run in lockstep too: `_lockstep` advances groups of
(agent, episode) columns, in the order given, a cycle at a time by one
machine `lockstep_step` and one step of the group's batch policy
(`agents.batch_policy`, one (factory, stream) pair per column), which
returns the live columns' actions as int64 arrays, as their scalar
policies would act.  `_stream` names every episode stream.  The policies'
draws and the environment's bits are drawn ahead from each column's own
streams (`seeding.Ahead`), and a column that stops leaves its group, so
every value is the one the agent's `_rollout` gives.

An environment that never reads an action yields the same percepts for
every agent.  When the agent is an in-process factory, whose policy is built
fresh for each episode and observed by nothing else, no policy is built and
every action is 0.  For such factories, `roster_episode_values` values an
environment proven reward-free at 0 with no episode at all, which is what
each episode would give: one cycle with reward 0 and bound 0.  It plays one
episode for the whole roster and repeats it where the environment reads no
action and is deterministic.  Every episode keeps the seeds and stop rule of
`_rollout`, and the policy's stream was never read by the environment, so
every value is what the full loop gives.  External agents always see every
percept: their replies and warnings are part of the report.

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

from .agents import batch_policy
from .errors import AgentGaugeError, RolloutFailed, SummabilityError
from .machine import lockstep_step
from .seeding import Ahead, derive_seed, single_bits

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


def _stream(seed: int, role: str, agent_factory, env_model, index: int) -> random.Random:
    """Episode `index`'s `role` ("agent" or "env") stream: the one place that
    names a stream by (seed, role, agent name, environment, index)."""
    return random.Random(derive_seed(seed, role, agent_factory.name, env_model.identifier, index))


def _rollout(agent_factory, env_model, seed: int, index: int, horizon: int,
             epsilon: float) -> tuple[list[int], object]:
    """Episode `index` of one seeded interaction: reward numerators per cycle.

    Returns the numerators and the finished episode.  The episode stops once
    its remaining reward bound is 0 or below epsilon, or after `horizon`
    cycles.  Its streams come from `_stream`, so any caller that passes the
    same arguments replays the same episode.  An agent-free episode builds
    no policy and steps with action 0, which the environment never reads.
    """
    if _agent_free(agent_factory, env_model):
        policy = _UNREAD
    else:
        policy = agent_factory.make(_stream(seed, "agent", agent_factory, env_model, index))
    episode = env_model.spawn(_stream(seed, "env", agent_factory, env_model, index))
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


def _one_pass(agent_factory, env_model, episodes: int, seed: int, cycles: int,
              weightings: list) -> tuple[np.ndarray, list[ValueEstimate]]:
    """Mean reward value of each cycle 1..`cycles` and, for each (weights,
    confidence, truncation bound) in `weightings`, the estimate of each
    episode's Kahan-compensated sum, in cycle order, of (n_k / D) * w_k.

    A scalar `_rollout` (epsilon 0) that stops early, at bound 0, is padded
    with zero terms.  Batch episodes share one NumPy stream, and a weighting
    keeps one float for them all until a cycle draws, then an array until
    its last cycle: the same IEEE operations in the same order as a rollout,
    so a deterministic agent gets the same bits on either path."""
    denominator = env_model.space.reward_denominator
    length = max([cycles] + [len(w) for w, *_ in weightings])
    sums, estimates = np.zeros(cycles), [None] * len(weightings)
    if not _batched(agent_factory, env_model):
        lists = [w.tolist() for w, *_ in weightings]
        values = [np.empty(episodes) for _ in lists]
        for index in range(episodes):
            numerators, _ = _rollout(agent_factory, env_model, seed, index, length, 0.0)
            head = numerators[:cycles]
            sums[: len(head)] += np.asarray(head, dtype=np.float64) / denominator
            for weights, row in zip(lists, values):
                total = carry = 0.0
                for n, w in zip(numerators + [0] * (len(weights) - len(numerators)), weights):
                    y = n / denominator * w - carry
                    t = total + y
                    carry = (t - total) - y
                    total = t
                row[index] = total
        return sums / episodes, [_estimate(v, *rest) for v, (_, *rest) in zip(values, weightings)]
    rng = np.random.default_rng(
        derive_seed(seed, "batch", agent_factory.name, env_model.identifier))
    live = {i: [0.0, 0.0] for i in range(len(weightings))}  # each one's total and carry
    actions = y = None
    for k in range(length):
        if k:
            p_one = agent_factory.prob_action_one(k)
            if 0.0 < p_one < 1.0:
                actions = (rng.random(episodes) < p_one).astype(np.int64)
            else:
                actions = np.full(1, p_one >= 1.0, dtype=np.int64)
        numerators = env_model.batch_step(actions)
        if k < cycles:  # a length-1 array stands for every episode
            sums[k] = numerators.sum() * (episodes // numerators.size)
        if live and y is None and numerators.size > 1:
            y, t = np.empty(episodes), np.empty(episodes)
            live = {i: [np.full(episodes, a) for a in state] for i, state in live.items()}
        for i, state in live.items():
            weight, (total, carry) = weightings[i][0][k], state
            if y is None:
                term = numerators.item() / denominator * weight - carry
                state[0] = total + term
                state[1] = (state[0] - total) - term
            else:
                np.multiply(np.divide(numerators, denominator, out=y), weight, out=y)
                y -= carry
                np.subtract(np.add(total, y, out=t), total, out=carry)
                carry -= y
                state[0], t = t, total
        for i in [i for i in live if len(weightings[i][0]) == k + 1]:
            estimates[i] = _estimate(np.broadcast_to(live.pop(i)[0], episodes), *weightings[i][1:])
    return sums / denominator / episodes, estimates


def _discounting(params: ValuationParams) -> tuple[np.ndarray, float, float]:
    """The weighting of `discounted_value`: weights, confidence, truncation bound."""
    gamma = params.gamma
    cycles = min(params.horizon,
                 max(1, math.ceil(math.log(params.trunc_epsilon) / math.log(gamma))))
    # w_i = gamma^i / Gamma for i = 1..cycles
    weights = np.power(gamma, np.arange(1, cycles + 1)) * (1.0 - gamma) / gamma
    return weights, params.confidence, gamma ** cycles


def discounted_value(agent_factory, env_model, params: ValuationParams) -> ValueEstimate:
    """Normalized geometric-discounted value estimate.

    The episode is truncated at the first T with tail fraction gamma^T below
    trunc_epsilon (capped by the horizon); the actual tail fraction is
    reported as the truncation bound.
    """
    return _one_pass(agent_factory, env_model, params.episodes, params.seed, 0,
                     [_discounting(params)])[1][0]


def harmonic_value(agent_factory, env_model, params: ValuationParams) -> ValueEstimate:
    """Inverse-square discounted value with the analytic normalizer pi^2/6.

    The tail beyond T is below 1/T, so T is chosen with (1/T)/(pi^2/6) below
    trunc_epsilon, capped by the horizon.
    """
    normalizer = math.pi ** 2 / 6.0
    cycles = min(params.horizon,
                 max(1, math.ceil(1.0 / (params.trunc_epsilon * normalizer))))
    t = np.arange(1, cycles + 1, dtype=np.float64)
    return _one_pass(agent_factory, env_model, params.episodes, params.seed, 0, [(
        1.0 / (t * t) / normalizer, params.confidence, (1.0 / cycles) / normalizer)])[1][0]


def summable_episode_values(agent_factory, env_model,
                            params: ValuationParams) -> tuple[np.ndarray, ValueEstimate]:
    """Per-episode total rewards for a summable environment, and their estimate.

    Each episode plays as one `_rollout` with epsilon = trunc_epsilon; failed
    rollouts (external agents only) are excluded, not scored as zero.  The
    estimate's truncation bound is trunc_epsilon plus the mean reward the
    episodes could still have earned when they stopped.  This is the roster
    of one of `roster_episode_values`.
    """
    return roster_episode_values([agent_factory], env_model, params)[0]


def roster_episode_values(factories, env_model,
                          params: ValuationParams) -> list[tuple[np.ndarray, ValueEstimate]]:
    """`summable_episode_values` of each agent of a roster, in one pass.

    The factories with private policies are valued together.  An environment
    proven reward-free is worth 0 in every episode with bound 0, so none is
    played.  One that reads no action and is deterministic gives the same
    episode whatever the agent and index, so it is played once for them all.
    Any other with a cycle `summary` is played in `_lockstep`, one group of
    (agent, episode) columns at a time.  Every other agent plays its own
    rollouts.
    """
    if not getattr(env_model, "summable", False):
        raise SummabilityError(
            f"environment {env_model.identifier} is not reward-summable")
    private = [k for k, f in enumerate(factories) if getattr(f, "private_policies", False)]
    results: list = [None] * len(factories)
    if private and getattr(env_model, "reward_free", False):
        zero = (np.zeros(params.episodes),
                ValueEstimate(0.0, 0.0, params.episodes, params.trunc_epsilon))
        for k in private:
            results[k] = zero
    elif private and (_agent_free(factories[private[0]], env_model)
                      and getattr(env_model, "deterministic", False)):
        replayed = _played(factories[private[0]], env_model, params, 1)
        for k in private:
            results[k] = replayed
    elif private and getattr(env_model, "summary", None) is not None:
        # table learners of one epsilon take adjacent columns, and so share one table
        private.sort(key=lambda k: (factories[k].learner, factories[k].epsilon))
        values, remainders = _lockstep([factories[k] for k in private], env_model, params)
        for row, k in enumerate(private):
            results[k] = values[row], _estimate(
                values[row], params.confidence,
                params.trunc_epsilon + float(np.mean(remainders[row])))
    for k, factory in enumerate(factories):
        if results[k] is None:
            results[k] = _played(factory, env_model, params, params.episodes)
    return results


def _played(agent_factory, env_model, params: ValuationParams,
            count: int) -> tuple[np.ndarray, ValueEstimate]:
    """The values and estimate of `_rollout`s of the first `count` episodes,
    the first repeated for every episode if only one is played."""
    values, remainders, failed = [], [], 0
    for index in range(count):
        try:
            numerators, episode = _rollout(agent_factory, env_model, params.seed, index,
                                           params.horizon, params.trunc_epsilon)
        except RolloutFailed:
            failed += 1
            continue
        values.append(sum(numerators) / env_model.space.reward_denominator)
        remainders.append(min(1.0, episode.remaining_reward_bound))
    if not values:
        raise RolloutFailed(
            f"all {params.episodes} rollouts failed for agent {agent_factory.name} "
            f"on {env_model.identifier}")
    if count == 1:
        values *= params.episodes
        remainders *= params.episodes
    array = np.asarray(values)
    return array, _estimate(array, params.confidence,
                            params.trunc_epsilon + float(np.mean(remainders)), failed)


# At most this many of a lockstep group's tape cells, and of the values in
# each (live columns x |A|) array a learner makes each cycle: the table rows
# it reads, its action distributions and their running sums; and at most this
# many columns, each holding one or two random streams of 2.5 kB and its
# share of the batch policy.  `seeding.AHEAD_DRAWS` bounds their draws ahead.
_LOCKSTEP_CELLS = 1 << 20
_LOCKSTEP_EPISODES = 1024


def _lockstep(factories, env_model, params: ValuationParams):
    """Values and remaining reward bounds of every episode of every agent, as
    (agents x episodes) arrays.  The (agent, episode) columns, in the given
    order, play in groups of at most `_LOCKSTEP_EPISODES` that take each
    cycle in one `lockstep_step` and, if the environment reads actions, one
    step of the group's batch policy.  Each column keeps the streams and stop
    rule of its agent's `_rollout`; its bits are drawn ahead, one `take` per
    random bit of a cycle, and once it stops it leaves the group."""
    summary, machine, space = env_model.summary, env_model.machine, env_model.space
    group = max(1, min(_LOCKSTEP_EPISODES,
                       _LOCKSTEP_CELLS // max(machine.tape_length, space.action_count)))
    episodes, columns = params.episodes, len(factories) * params.episodes
    agent_free = _agent_free(factories[0], env_model)
    values, remainders = np.empty(columns), np.empty(columns)
    for first in range(0, columns, group):
        members = [(factories[c // episodes], c % episodes)
                   for c in range(first, min(columns, first + group))]
        bits = Ahead([_stream(params.seed, "env", factory, env_model, index)
                      for factory, index in members], 1, single_bits) if summary.rands else None
        policy = None if agent_free else batch_policy([
            (factory, _stream(params.seed, "agent", factory, env_model, index))
            for factory, index in members])
        tape, ptr = np.zeros((machine.tape_length, len(members)), dtype=np.int64), 0
        # a static cycle keeps the tape zero: (0, 0), then frozen with bound 0
        budget = np.full(len(members), 0 if summary.static else space.reward_denominator)
        totals, alive, actions = np.zeros_like(budget), np.arange(len(members)), None
        for cycle in range(params.horizon):  # cycle 1 reads action 0, as in EnvProcess.step
            ptr, observations, numerators = lockstep_step(
                summary, machine, space, tape, ptr, budget, actions,
                [bits.take(alive) for _ in summary.rands])
            totals += numerators
            bound = budget / space.reward_denominator
            stop = (bound < params.trunc_epsilon) | (cycle == params.horizon - 1)
            if stop.any():  # the columns that stop leave the group
                values[first + alive[stop]] = totals[stop] / space.reward_denominator
                remainders[first + alive[stop]] = bound[stop]
                keep = ~stop
                alive, budget, totals = alive[keep], budget[keep], totals[keep]
                tape, observations, numerators = tape[:, keep], observations[keep], numerators[keep]
            if not alive.size:
                break
            if policy is not None:
                actions = policy.step(alive, observations, numerators)
        del tape, bits, policy  # before the next group's
    return values.reshape(len(factories), episodes), remainders.reshape(len(factories), episodes)


def per_cycle_reward_profile(agent_factory, env_model, cycles: int, episodes: int, seed: int,
                             discounts=()) -> tuple[np.ndarray, list[ValueEstimate]]:
    """Monte Carlo estimate of the mean reward value at each cycle 1..cycles,
    and the `discounted_value` of each ValuationParams in `discounts`.

    No (episodes, cycles) matrix is built.  A batch cycle sums its integer
    numerators exactly; scalar episodes are added in episode order, as a
    column mean would.  A discount with this episode count and seed joins
    the profile's pass, any other is valued on its own: the bits are the same.
    """
    if cycles < 1:
        raise AgentGaugeError("cycles must be >= 1")
    if episodes < 1:
        raise AgentGaugeError("episodes must be >= 1")
    joins = [(p.episodes, p.seed) == (episodes, seed) for p in discounts]
    profile, estimates = _one_pass(agent_factory, env_model, episodes, seed, cycles, [
        _discounting(p) for p, joined in zip(discounts, joins) if joined])
    shared = iter(estimates)
    return profile, [next(shared) if joined else discounted_value(agent_factory, env_model, p)
                     for p, joined in zip(discounts, joins)]
