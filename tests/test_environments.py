"""Native diagnostic environments and VM cross-validation fixtures."""

from __future__ import annotations

import itertools
import random

import pytest

from agentgauge.environments import (
    CopyEnvironment,
    compile_fixture,
    make_constant_env,
    make_copy_env,
    make_pattern_env,
    pattern_reward_cap,
    pattern_target_bit,
)
from agentgauge.errors import AgentGaugeError
from agentgauge.interaction import SpaceConfig
from agentgauge.machine import EnvProcess

BINARY = SpaceConfig(action_count=2, observation_count=2, reward_denominator=255)


def rollout(episode, actions):
    percepts = [episode.step(None)]
    for action in actions:
        percepts.append(episode.step(action))
    return percepts


# --------------------------------------------------------------------- copy

def test_copy_reward_equals_previous_action():
    env = make_copy_env(BINARY)
    percepts = rollout(env.spawn(random.Random(0)), [1, 1, 1])
    assert [p.reward_numerator for p in percepts] == [0, 255, 255, 255]
    percepts = rollout(env.spawn(random.Random(0)), [0, 0])
    assert [p.reward_numerator for p in percepts] == [0, 0, 0]


def test_copy_first_reward_is_zero_and_observation_constant():
    env = make_copy_env(SpaceConfig(2, 1, 1))
    percepts = rollout(env.spawn(random.Random(0)), [1, 0, 1])
    assert percepts[0].reward_numerator == 0
    assert all(p.observation == 0 for p in percepts)


def test_copy_requires_binary_actions():
    with pytest.raises(AgentGaugeError):
        make_copy_env(SpaceConfig(action_count=3))


def test_copy_is_not_summable():
    assert make_copy_env(BINARY).summable is False


# ----------------------------------------------------------------- constant

def test_constant_full_budget_schedule():
    env = make_constant_env([255], BINARY)
    percepts = rollout(env.spawn(random.Random(0)), [0, 1])
    assert [p.reward_numerator for p in percepts] == [255, 0, 0]


def test_constant_empty_schedule_is_all_zero():
    env = make_constant_env([], BINARY)
    percepts = rollout(env.spawn(random.Random(0)), [1, 1, 1])
    assert all(p.reward_numerator == 0 for p in percepts)


def test_constant_budget_edge():
    env = make_constant_env([127, 128], BINARY)
    episode = env.spawn(random.Random(0))
    percepts = rollout(episode, [0, 0])
    assert [p.reward_numerator for p in percepts] == [127, 128, 0]
    assert episode.remaining_reward_bound == 0


def test_constant_rejects_over_budget_schedule():
    with pytest.raises(AgentGaugeError):
        make_constant_env([200, 200], BINARY)
    # but a non-summable constant environment may exceed the budget
    env = make_constant_env([200, 200], BINARY, summable=False)
    assert env.summable is False


# ------------------------------------------------------------------ pattern

def follower_actions(cycles, period):
    return [pattern_target_bit(k, period) for k in range(1, cycles)]


def test_pattern_follower_collects_exact_cap():
    env = make_pattern_env(2, BINARY)
    episode = env.spawn(random.Random(0))
    total = sum(p.reward_numerator for p in rollout(episode, follower_actions(400, 2)))
    assert total == pattern_reward_cap(255) == 247
    assert episode.remaining_reward_bound == 0


def test_pattern_zero_agent_earns_nothing():
    env = make_pattern_env(3, BINARY)
    percepts = rollout(env.spawn(random.Random(0)), [0] * 300)
    assert sum(p.reward_numerator for p in percepts) == 0


def test_pattern_uniform_first_payout_probability():
    env = make_pattern_env(2, BINARY)
    rng = random.Random(17)
    hits = 0
    trials = 4000
    for _ in range(trials):
        episode = env.spawn(rng)
        episode.step(None)
        episode.step(rng.randrange(2))
        hit = episode.step(rng.randrange(2)).reward_numerator
        hits += 1 if hit else 0
    assert hits / trials == pytest.approx(0.25, abs=0.03)


def test_pattern_reward_sum_never_exceeds_budget():
    env = make_pattern_env(1, BINARY)
    rng = random.Random(5)
    for _ in range(20):
        episode = env.spawn(rng)
        total = sum(p.reward_numerator
                    for p in rollout(episode, [rng.randrange(2) for _ in range(2000)]))
        assert total <= BINARY.reward_denominator


def test_summable_natives_hold_integer_budget_for_all_agents():
    # Same budget discipline as machine environments: cumulative numerator
    # stays within D over 10^4-cycle rollouts for every built-in agent.
    from agentgauge.agents import make_agent

    for env in (make_pattern_env(1, BINARY), make_pattern_env(2, BINARY),
                make_constant_env([3] * 85, BINARY)):
        for name in ("random", "basic", "2back", "pi_opt", "pi_1", "pi_2"):
            policy = make_agent(name, BINARY).make(random.Random(21))
            episode = env.spawn(random.Random(22))
            percept = episode.step(None)
            policy.observe(percept)
            total = percept.reward_numerator
            for _ in range(9_999):
                if episode.remaining_reward_bound == 0:
                    break
                percept = episode.step(policy.act())
                policy.observe(percept)
                total += percept.reward_numerator
            assert total <= BINARY.reward_denominator, (env.identifier, name)


def test_pattern_deterministic_given_actions():
    env = make_pattern_env(2, BINARY)
    actions = [random.Random(9).randrange(2) for _ in range(100)]
    a = rollout(env.spawn(random.Random(1)), actions)
    b = rollout(env.spawn(random.Random(2)), actions)
    assert a == b


def test_pattern_validation():
    with pytest.raises(AgentGaugeError):
        make_pattern_env(0, BINARY)
    with pytest.raises(AgentGaugeError):
        make_pattern_env(2, SpaceConfig(action_count=3))


# ----------------------------------------------------------------- fixtures

def test_copy_fixture_matches_native_exhaustively():
    fixture = compile_fixture("copy")
    assert isinstance(fixture.native, CopyEnvironment)
    length = 8
    for actions in itertools.product((0, 1), repeat=length):
        native = fixture.native.spawn(random.Random(0))
        process = EnvProcess(fixture.program, fixture.machine, fixture.space,
                             rng=random.Random(0))
        assert native.step(None) == process.step(None)
        for action in actions:
            assert native.step(action) == process.step(action), actions


def test_zero_fixture_matches_constant_everywhere():
    fixture = compile_fixture("zero")
    native = fixture.native.spawn(random.Random(0))
    process = EnvProcess(fixture.program, fixture.machine, fixture.space,
                         rng=random.Random(0))
    assert native.step(None) == process.step(None)
    rng = random.Random(4)
    for _ in range(200):
        action = rng.randrange(2)
        assert native.step(action) == process.step(action)


def test_unknown_fixture_errors():
    with pytest.raises(AgentGaugeError):
        compile_fixture("chess")
