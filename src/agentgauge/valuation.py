"""Monte Carlo valuation of an agent in one environment.

Three value notions are supported:

* discounted: geometrically weighted mean reward, normalized so the value of
  an all-ones reward stream is 1;
* harmonic: inverse-square cycle weights with the analytic normalizer;
* summable: plain expected total reward, which is bounded by 1 for
  budget-constrained environments.

The notions differ only in a per-cycle weight vector and a stop rule.  One
kernel, `_rollout`, plays every scalar episode of every notion.  Discounted
and harmonic values and reward profiles of cycle-indexed agents in
batch-capable environments run vectorized in lockstep instead;
`_reward_values` makes that choice.

An environment that never reads an action (a program without `read_action`,
or a constant schedule) yields the same percepts for every agent.  When the
agent is an in-process factory, whose policy is built fresh for each episode
and observed by nothing else, `_rollout` then builds no policy and steps with
action 0; if the environment is also deterministic (no `random_bit`),
`summable_episode_values` plays one episode and repeats it.  Environment
streams keep their seeds and the policy's stream was never read by the
environment, so every value is what the full loop gives.  External agents
always see every percept: their replies and warnings are part of the report.

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
from .seeding import derive_seed

MODES = ("discounted", "harmonic", "summable")


@dataclass(frozen=True)
class ValuationParams:
    """Estimation protocol: value mode, truncation, sample size, confidence."""

    mode: str = "summable"
    gamma: float = 0.95
    horizon: int = 250
    episodes: int = 100
    trunc_epsilon: float = 1e-9
    confidence: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise AgentGaugeError(f"unknown valuation mode {self.mode!r}")
        if self.mode == "discounted" and not 0.0 < self.gamma < 1.0:
            raise AgentGaugeError("gamma must lie in (0, 1)")
        if self.horizon < 1:
            raise AgentGaugeError("horizon must be >= 1")
        if self.episodes < 1:
            raise AgentGaugeError("episodes must be >= 1")
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


def _z_score(confidence: float) -> float:
    return NormalDist().inv_cdf((1.0 + confidence) / 2.0)


def _estimate(values: np.ndarray, confidence: float, truncation_bound: float,
              failed: int = 0) -> ValueEstimate:
    n = len(values)
    mean = float(np.mean(values)) if n else 0.0
    if n > 1:
        half = _z_score(confidence) * float(np.std(values, ddof=1)) / math.sqrt(n)
    else:
        half = 0.0
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
    replays the same episode.  An agent-free
    episode builds no policy and steps with action 0, which the environment
    never reads.
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
    percept = episode.step(None)
    policy.observe(percept)
    numerators = [percept.reward_numerator]
    for _ in range(1, horizon):
        bound = episode.remaining_reward_bound
        if bound == 0.0 or bound < epsilon:
            break
        percept = episode.step(policy.act())
        policy.observe(percept)
        numerators.append(percept.reward_numerator)
    return numerators, episode


def _batch_reward_values(agent_factory, env_model, n_episodes: int, cycles: int,
                         seed: int) -> np.ndarray:
    """Reward values, shape (n_episodes, cycles), for lockstep batch episodes."""
    rng = np.random.default_rng(seed)
    denominator = env_model.space.reward_denominator
    state = env_model.begin_batch(n_episodes, rng)
    out = np.empty((n_episodes, cycles), dtype=np.float64)
    _, numerators = env_model.batch_step(state, None)
    out[:, 0] = numerators / denominator
    for k in range(1, cycles):
        p_one = agent_factory.prob_action_one(k)
        if p_one <= 0.0:
            actions = np.zeros(n_episodes, dtype=np.int64)
        elif p_one >= 1.0:
            actions = np.ones(n_episodes, dtype=np.int64)
        else:
            actions = (rng.random(n_episodes) < p_one).astype(np.int64)
        _, numerators = env_model.batch_step(state, actions)
        out[:, k] = numerators / denominator
    return out


def _reward_values(agent_factory, env_model, episodes: int, cycles: int,
                   seed: int) -> np.ndarray:
    """Reward values, shape (episodes, cycles), by batch or by scalar rollout.

    A cycle-indexed agent in a batch-capable environment runs in lockstep.
    Otherwise each episode is one `_rollout` with epsilon 0, which stops
    early only where the remaining reward bound is 0, so the rest of its row
    is exactly zero.
    """
    if (getattr(agent_factory, "supports_batch", False)
            and getattr(env_model, "supports_batch", False)):
        return _batch_reward_values(
            agent_factory, env_model, episodes, cycles,
            derive_seed(seed, "batch", agent_factory.name, env_model.identifier))
    out = np.zeros((episodes, cycles), dtype=np.float64)
    for index in range(episodes):
        numerators, _ = _rollout(agent_factory, env_model, seed, index, cycles, 0.0)
        out[index, : len(numerators)] = numerators
    return out / env_model.space.reward_denominator


def discounted_value(agent_factory, env_model, params: ValuationParams) -> ValueEstimate:
    """Normalized geometric-discounted value estimate.

    The episode is truncated at the first T with tail fraction gamma^T below
    trunc_epsilon (capped by the horizon); the actual tail fraction is
    reported as the truncation bound.
    """
    if params.mode != "discounted":
        raise AgentGaugeError("params.mode must be 'discounted'")
    gamma = params.gamma
    cycles = min(params.horizon,
                 max(1, math.ceil(math.log(params.trunc_epsilon) / math.log(gamma))))
    # w_i = gamma^i / Gamma for i = 1..cycles
    weights = np.power(gamma, np.arange(1, cycles + 1)) * (1.0 - gamma) / gamma
    rewards = _reward_values(agent_factory, env_model, params.episodes, cycles, params.seed)
    return _estimate(rewards @ weights, params.confidence, truncation_bound=gamma ** cycles)


def harmonic_value(agent_factory, env_model, params: ValuationParams) -> ValueEstimate:
    """Inverse-square discounted value with the analytic normalizer pi^2/6.

    The tail beyond T is below 1/T, so T is chosen with (1/T)/(pi^2/6) below
    trunc_epsilon, capped by the horizon.
    """
    if params.mode != "harmonic":
        raise AgentGaugeError("params.mode must be 'harmonic'")
    normalizer = math.pi ** 2 / 6.0
    cycles = min(params.horizon,
                 max(1, math.ceil(1.0 / (params.trunc_epsilon * normalizer))))
    t = np.arange(1, cycles + 1, dtype=np.float64)
    weights = 1.0 / (t * t) / normalizer
    rewards = _reward_values(agent_factory, env_model, params.episodes, cycles, params.seed)
    return _estimate(rewards @ weights, params.confidence,
                     truncation_bound=(1.0 / cycles) / normalizer)


def summable_episode_values(agent_factory, env_model,
                            params: ValuationParams) -> tuple[np.ndarray, float, int]:
    """Per-episode total rewards for a summable environment.

    Returns (episode values, mean remaining reward bound at stop, failures).
    Each episode is one `_rollout` with epsilon = trunc_epsilon.  Failed
    rollouts (external agents only) are excluded, not scored as zero.  An
    agent-free episode in a deterministic environment is the same whatever
    its index, so it is played once and its result repeated.
    """
    if not getattr(env_model, "summable", False):
        raise SummabilityError(
            f"environment {env_model.identifier} is not reward-summable")
    replay = (_agent_free(agent_factory, env_model)
              and getattr(env_model, "deterministic", False))
    values: list[float] = []
    remainders: list[float] = []
    failed = 0
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
    return np.asarray(values), float(np.mean(remainders)), failed


def _summable_estimate(params: ValuationParams, values: np.ndarray,
                       mean_remaining: float, failed: int) -> ValueEstimate:
    """Estimate from `summable_episode_values` output.

    The truncation bound is trunc_epsilon plus the mean reward the episodes
    could still have earned when they stopped.
    """
    return _estimate(values, params.confidence,
                     truncation_bound=params.trunc_epsilon + mean_remaining, failed=failed)


def summable_value(agent_factory, env_model, params: ValuationParams) -> ValueEstimate:
    """Expected total reward of a budget-constrained environment."""
    if params.mode != "summable":
        raise AgentGaugeError("params.mode must be 'summable'")
    values, mean_remaining, failed = summable_episode_values(agent_factory, env_model, params)
    return _summable_estimate(params, values, mean_remaining, failed)


def per_cycle_reward_profile(agent_factory, env_model, cycles: int, episodes: int,
                             seed: int) -> np.ndarray:
    """Monte Carlo estimate of the mean reward value at each cycle 1..cycles."""
    if cycles < 1:
        raise AgentGaugeError("cycles must be >= 1")
    return _reward_values(agent_factory, env_model, episodes, cycles, seed).mean(axis=0)
