"""Reference agents: distributions, learning tables, scripted policies."""

from __future__ import annotations

import random

import numpy as np
import pytest

from agentgauge import valuation
from agentgauge.agents import MAX_BACK, AgentFactory, scripted_prob_action_one
from agentgauge.environments import CopyEnvironment
from agentgauge.errors import AgentGaugeError
from agentgauge.interaction import Percept, SpaceConfig
from agentgauge.valuation import (ValuationParams, per_cycle_reward_profile,
                                  summable_episode_values)
from natives import PatternEnvironment

BINARY = SpaceConfig(action_count=2, observation_count=2, reward_denominator=255)


# ------------------------------------------------------------------- random

def test_random_agent_is_uniform_everywhere():
    # The actions do not depend on the history: two policies on one seed act
    # alike whatever percepts they see, so the uniform frequencies checked
    # below hold at every history.
    quiet = AgentFactory("random", BINARY).make(random.Random(0))
    busy = AgentFactory("random", BINARY).make(random.Random(0))
    rng = random.Random(1)
    for _ in range(500):
        quiet.observe(Percept(0, 0))
        busy.observe(Percept(rng.randrange(2), rng.randrange(256)))
        assert quiet.act() == busy.act()


def test_random_agent_empirical_frequencies():
    policy = AgentFactory("random", BINARY).make(random.Random(7))
    policy.observe(Percept(0, 0))
    draws = 100_000
    ones = sum(policy.act() for _ in range(draws))
    assert ones / draws == pytest.approx(0.5, abs=0.01)


# -------------------------------------------------------------------- basic

def test_basic_agent_uniform_before_statistics():
    policy = AgentFactory("basic", BINARY).make(random.Random(0))
    policy.observe(Percept(1, 40))
    assert policy.action_distribution() == (0.5, 0.5)


def test_basic_agent_greedy_mass_split_exact():
    # Copy-style feedback: the next reward equals the chosen action, so once
    # both actions are sampled the maximizer is unique and the returned
    # distribution must put exactly 1 - eps + eps/2 on it.
    policy = AgentFactory("basic", BINARY, epsilon=0.10).make(random.Random(3))
    policy.observe(Percept(0, 0))
    for _ in range(60):
        action = policy.act()
        policy.observe(Percept(0, 255 * action))
    assert policy.action_distribution() == (0.05, 0.95)


def test_basic_agent_tie_breaks_to_lowest_index():
    policy = AgentFactory("basic", BINARY, epsilon=0.10).make(random.Random(3))
    policy.observe(Percept(0, 0))
    for _ in range(60):
        policy.act()
        policy.observe(Percept(0, 0))  # both actions tie exactly (mean 0)
    assert policy.action_distribution() == (0.95, 0.05)


def _drive_and_log(policy, cycles, seed):
    """Run a random-percept interaction, returning the logged percepts and actions."""
    rng = random.Random(seed)
    percepts: list[Percept] = []
    actions: list[int] = []
    for _ in range(cycles):
        percept = Percept(rng.randrange(2), rng.choice((0, 128, 255)))
        percepts.append(percept)
        policy.observe(percept)
        actions.append(policy.act())
    return percepts, actions


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_learner_table_matches_replay_oracle(depth):
    # Independent recomputation: group logged rewards by the key of the
    # window before each action and the action taken; the agent's running
    # means must agree exactly.
    policy = AgentFactory(f"{depth}back" if depth else "basic", BINARY).make(random.Random(11))
    percepts, actions = _drive_and_log(policy, cycles=300, seed=42)

    expected: dict[tuple[tuple[int, ...], int], list[float]] = {}
    for k in range(len(percepts) - 1):
        key = (percepts[k].observation,)
        for j in range(k - 1, max(k - depth, 0) - 1, -1):
            key += (actions[j], percepts[j].observation, percepts[j].reward_numerator)
        reward = percepts[k + 1].reward_numerator / BINARY.reward_denominator
        expected.setdefault((key, actions[k]), []).append(reward)

    for (key, action), rewards in expected.items():
        count, total = policy.table[key][2 * action : 2 * action + 2]
        assert count == len(rewards)
        assert total / count == sum(rewards) / len(rewards)


def test_two_back_beats_basic_on_pattern_environment():
    # The ordering mechanism: the pattern environment's phase is invisible
    # to a current-observation key but tracked by a two-cycle window.
    env = PatternEnvironment(2, BINARY)
    params = ValuationParams(horizon=400, episodes=60, seed=29)
    v_basic = summable_episode_values(AgentFactory("basic", BINARY), env, params)[1]
    v_2back = summable_episode_values(AgentFactory("2back", BINARY), env, params)[1]
    v_rand = summable_episode_values(AgentFactory("random", BINARY), env, params)[1]
    assert v_2back.mean - v_basic.mean > 0.08
    assert v_2back.mean - v_basic.mean > 2 * (v_2back.ci_half_width + v_basic.ci_half_width)
    assert v_basic.mean > v_rand.mean


def test_two_back_matches_basic_on_memoryless_environment():
    # On the copy environment the one-step statistic is sufficient; after
    # convergence the two learners' late-window mean rewards agree.
    env = CopyEnvironment(BINARY)
    window = slice(200, 300)
    basic_profile, _ = per_cycle_reward_profile(AgentFactory("basic", BINARY), env, 300, 50, 13)
    deep_profile, _ = per_cycle_reward_profile(AgentFactory("2back", BINARY), env, 300, 50, 13)
    assert abs(float(basic_profile[window].mean()) - float(deep_profile[window].mean())) < 0.05


# ----------------------------------------------------------------- scripted

def test_scripted_phase_boundaries():
    space = SpaceConfig(2, 1, 1)
    pi_2 = AgentFactory("pi_2", space)
    policy = pi_2.make(random.Random(0))
    actions = []
    for cycle in range(1, 5002):
        policy.observe(Percept(0, 0))
        actions.append(policy.act())
    assert actions[99] == 0      # acting at cycle 100
    assert actions[100] == 1     # acting at cycle 101
    assert all(a == 0 for a in actions[:100])
    assert all(a == 1 for a in actions[100:5000])
    # at cycle 5001 the policy is uniform again
    assert policy.cycles == 5001
    assert scripted_prob_action_one("pi_2", policy.cycles) == 0.5


def test_pi_opt_earns_every_cycle_on_copy():
    space = SpaceConfig(2, 1, 1)
    env = CopyEnvironment(space)
    pi_opt = AgentFactory("pi_opt", space)
    profile, _ = per_cycle_reward_profile(pi_opt, env, 50, 1, seed=0)
    assert profile[0] == 0.0
    assert all(value == 1.0 for value in profile[1:])


def test_pi_1_half_reward_and_pi_2_zero_in_short_phase():
    space = SpaceConfig(2, 1, 1)
    env = CopyEnvironment(space)
    pi_1, pi_2 = AgentFactory("pi_1", space), AgentFactory("pi_2", space)
    profile_1, _ = per_cycle_reward_profile(pi_1, env, 101, 3000, seed=1)
    profile_2, _ = per_cycle_reward_profile(pi_2, env, 101, 3, seed=1)
    assert float(profile_1[1:].mean()) == pytest.approx(0.5, abs=0.02)
    assert all(value == 0.0 for value in profile_2[1:])


# --------------------------------------------------------------- properties

@pytest.mark.parametrize("name", ["basic", "2back"])
def test_distributions_normalize_at_every_history(name):
    policy = AgentFactory(name, BINARY).make(random.Random(2))
    rng = random.Random(8)
    for _ in range(200):
        policy.observe(Percept(rng.randrange(2), rng.randrange(256)))
        distribution = policy.action_distribution()
        assert abs(sum(distribution) - 1.0) < 2 ** -40
        assert all(p >= 0.0 for p in distribution)
        policy.act()


def test_agent_registry():
    policy = AgentFactory("3back", BINARY).make(random.Random(0))
    _drive_and_log(policy, cycles=5, seed=0)
    assert len(policy.current_key) == 1 + 3 * 3  # the observation and three cycles
    with pytest.raises(AgentGaugeError, match="unknown agent 'chess'"):
        AgentFactory("chess", BINARY)
    with pytest.raises(AgentGaugeError, match="pi_opt requires a binary action space"):
        AgentFactory("pi_opt", SpaceConfig(3, 2, 255))
    AgentFactory("12back", BINARY)  # canonical: two digits, no leading zero
    for alias in ("0back", "01back", "٣back"):
        with pytest.raises(AgentGaugeError):
            AgentFactory(alias, BINARY)


def test_the_longest_window_builds():
    # a full lockstep group of the longest window allowed builds, and acts as
    # its episodes' own policies do once the window has filled
    factory = AgentFactory(f"{MAX_BACK}back", BINARY)
    live = np.arange(valuation._LOCKSTEP_EPISODES)
    batch = factory.batch([random.Random(i) for i in live.tolist()])
    policies = [factory.make(random.Random(i)) for i in live.tolist()[:4]]
    percepts = random.Random(3)
    for _ in range(MAX_BACK + 8):
        observations = np.array([percepts.randrange(2) for _ in range(live.size)])
        numerators = np.array([percepts.randrange(256) for _ in range(live.size)])
        actions = batch.step(live, observations, numerators)
        for i, policy in enumerate(policies):
            policy.observe(Percept(int(observations[i]), int(numerators[i])))
            assert policy.act() == actions[i]
    assert len(policies[0].current_key) == 1 + 3 * MAX_BACK
