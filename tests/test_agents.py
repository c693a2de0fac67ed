"""Reference agents: distributions, learning tables, scripted policies."""

from __future__ import annotations

import itertools
import random

import pytest

from agentgauge.agents import (
    basic_agent,
    kback_agent,
    make_agent,
    random_agent,
    scripted_agents,
)
from agentgauge.environments import make_copy_env, make_pattern_env
from agentgauge.errors import AgentGaugeError
from agentgauge.interaction import Percept, SpaceConfig, window_key
from agentgauge.valuation import ValuationParams, per_cycle_reward_profile, summable_value

BINARY = SpaceConfig(action_count=2, observation_count=2, reward_denominator=255)


# ------------------------------------------------------------------- random

def test_random_agent_is_uniform_everywhere():
    policy = random_agent(BINARY).make(random.Random(0))
    rng = random.Random(1)
    for _ in range(50):
        policy.observe(Percept(rng.randrange(2), rng.randrange(256)))
        assert policy.action_distribution() == (0.5, 0.5)
        policy.act()


def test_random_agent_empirical_frequencies():
    policy = random_agent(BINARY).make(random.Random(7))
    policy.observe(Percept(0, 0))
    draws = 100_000
    ones = sum(policy.act() for _ in range(draws))
    assert ones / draws == pytest.approx(0.5, abs=0.01)


# -------------------------------------------------------------------- basic

def test_basic_agent_uniform_before_statistics():
    policy = basic_agent(BINARY).make(random.Random(0))
    policy.observe(Percept(1, 40))
    assert policy.action_distribution() == (0.5, 0.5)


def test_basic_agent_greedy_mass_split_exact():
    # Copy-style feedback: the next reward equals the chosen action, so once
    # both actions are sampled the maximizer is unique and the returned
    # distribution must put exactly 1 - eps + eps/2 on it.
    policy = basic_agent(BINARY, epsilon=0.10).make(random.Random(3))
    policy.observe(Percept(0, 0))
    for _ in range(60):
        action = policy.act()
        policy.observe(Percept(0, 255 * action))
    assert policy.action_distribution() == (0.05, 0.95)


def test_basic_agent_tie_breaks_to_lowest_index():
    policy = basic_agent(BINARY, epsilon=0.10).make(random.Random(3))
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
    policy = kback_agent(BINARY, depth).make(random.Random(11))
    percepts, actions = _drive_and_log(policy, cycles=300, seed=42)

    expected: dict[tuple[bytes, int], list[float]] = {}
    for k in range(len(percepts) - 1):
        pairs = tuple((actions[j], percepts[j].observation, percepts[j].reward_numerator)
                      for j in range(k - 1, max(k - depth, 0) - 1, -1))
        key = window_key(percepts[k].observation, pairs)
        reward = percepts[k + 1].reward_numerator / BINARY.reward_denominator
        expected.setdefault((key, actions[k]), []).append(reward)

    for (key, action), rewards in expected.items():
        recomputed = sum(rewards) / len(rewards)
        assert policy.estimated_mean(key, action) == recomputed


def test_kback_zero_equals_basic_exhaustively():
    # Identical seeds and identical percept streams: the two must produce
    # identical distributions (and therefore identical actions) everywhere.
    percept_values = [Percept(o, r) for o in (0, 1) for r in (0, 255)]
    for percepts in itertools.product(percept_values, repeat=4):
        a = basic_agent(BINARY).make(random.Random(5))
        b = kback_agent(BINARY, 0).make(random.Random(5))
        for percept in percepts:
            a.observe(percept)
            b.observe(percept)
            assert a.action_distribution() == b.action_distribution()
            assert a.act() == b.act()


def test_two_back_beats_basic_on_pattern_environment():
    # The ordering mechanism: the pattern environment's phase is invisible
    # to a current-observation key but tracked by a two-cycle window.
    env = make_pattern_env(2, BINARY)
    params = ValuationParams(mode="summable", horizon=400, episodes=60, seed=29)
    v_basic = summable_value(basic_agent(BINARY), env, params)
    v_2back = summable_value(kback_agent(BINARY, 2), env, params)
    v_rand = summable_value(random_agent(BINARY), env, params)
    assert v_2back.mean - v_basic.mean > 0.08
    assert v_2back.mean - v_basic.mean > 2 * (v_2back.ci_half_width + v_basic.ci_half_width)
    assert v_basic.mean > v_rand.mean


def test_two_back_matches_basic_on_memoryless_environment():
    # On the copy environment the one-step statistic is sufficient; after
    # convergence the two learners' late-window mean rewards agree.
    env = make_copy_env(BINARY)
    window = slice(200, 300)
    basic_profile = per_cycle_reward_profile(basic_agent(BINARY), env, 300, 50, seed=13)
    deep_profile = per_cycle_reward_profile(kback_agent(BINARY, 2), env, 300, 50, seed=13)
    assert abs(float(basic_profile[window].mean()) - float(deep_profile[window].mean())) < 0.05


# ----------------------------------------------------------------- scripted

def test_scripted_phase_boundaries():
    space = SpaceConfig(2, 1, 1)
    _, _, pi_2 = scripted_agents(space)
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
    policy2 = pi_2.make(random.Random(0))
    for _ in range(5001):
        policy2.observe(Percept(0, 0))
    assert policy2.action_distribution() == (0.5, 0.5)


def test_pi_opt_earns_every_cycle_on_copy():
    space = SpaceConfig(2, 1, 1)
    env = make_copy_env(space)
    pi_opt, _, _ = scripted_agents(space)
    profile = per_cycle_reward_profile(pi_opt, env, 50, 1, seed=0)
    assert profile[0] == 0.0
    assert all(value == 1.0 for value in profile[1:])


def test_pi_1_half_reward_and_pi_2_zero_in_short_phase():
    space = SpaceConfig(2, 1, 1)
    env = make_copy_env(space)
    _, pi_1, pi_2 = scripted_agents(space)
    profile_1 = per_cycle_reward_profile(pi_1, env, 101, 3000, seed=1)
    profile_2 = per_cycle_reward_profile(pi_2, env, 101, 3, seed=1)
    assert float(profile_1[1:].mean()) == pytest.approx(0.5, abs=0.02)
    assert all(value == 0.0 for value in profile_2[1:])


# --------------------------------------------------------------- properties

@pytest.mark.parametrize("name", ["random", "basic", "2back", "pi_opt", "pi_1", "pi_2"])
def test_distributions_normalize_at_every_history(name):
    policy = make_agent(name, BINARY).make(random.Random(2))
    rng = random.Random(8)
    for _ in range(200):
        policy.observe(Percept(rng.randrange(2), rng.randrange(256)))
        distribution = policy.action_distribution()
        assert abs(sum(distribution) - 1.0) < 2 ** -40
        assert all(p >= 0.0 for p in distribution)
        policy.act()


def test_agent_registry():
    assert make_agent("3back", BINARY).back == 3
    with pytest.raises(AgentGaugeError):
        make_agent("chess", BINARY)
    with pytest.raises(AgentGaugeError):
        kback_agent(BINARY, -1)
    assert make_agent("12back", BINARY).name == "12back"
    for alias in ("0back", "01back", "٣back"):
        with pytest.raises(AgentGaugeError):
            make_agent(alias, BINARY)
