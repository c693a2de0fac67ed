"""Native diagnostic environments and VM cross-validation fixtures."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from agentgauge.environments import CopyEnvironment, ProgramEnvironment
from agentgauge.errors import AgentGaugeError
from agentgauge.interaction import SpaceConfig
from agentgauge.machine import EnvProcess, MachineConfig, enumerate_programs, proves_reward_free
from natives import (ConstantEnvironment, PatternEnvironment, copy_fixture, pattern_reward_cap,
                     pattern_target_bit, zero_fixture)

BINARY = SpaceConfig(action_count=2, observation_count=2, reward_denominator=255)


def rollout(episode, actions):
    percepts = [episode.step(None)]
    for action in actions:
        percepts.append(episode.step(action))
    return percepts


# --------------------------------------------------------------------- copy

def test_copy_reward_equals_previous_action():
    env = CopyEnvironment(BINARY)
    percepts = rollout(env.spawn(random.Random(0)), [1, 1, 1])
    assert [p.reward_numerator for p in percepts] == [0, 255, 255, 255]
    percepts = rollout(env.spawn(random.Random(0)), [0, 0])
    assert [p.reward_numerator for p in percepts] == [0, 0, 0]


def test_copy_first_reward_is_zero_and_observation_constant():
    env = CopyEnvironment(SpaceConfig(2, 1, 1))
    percepts = rollout(env.spawn(random.Random(0)), [1, 0, 1])
    assert percepts[0].reward_numerator == 0
    assert all(p.observation == 0 for p in percepts)


def test_copy_requires_binary_actions():
    with pytest.raises(AgentGaugeError):
        CopyEnvironment(SpaceConfig(action_count=3))


def test_copy_is_not_summable():
    assert CopyEnvironment(BINARY).summable is False


# ----------------------------------------------------------------- constant

def test_constant_full_budget_schedule():
    env = ConstantEnvironment([255], BINARY)
    percepts = rollout(env.spawn(random.Random(0)), [0, 1])
    assert [p.reward_numerator for p in percepts] == [255, 0, 0]


def test_constant_empty_schedule_is_all_zero():
    env = ConstantEnvironment([], BINARY)
    percepts = rollout(env.spawn(random.Random(0)), [1, 1, 1])
    assert all(p.reward_numerator == 0 for p in percepts)


def test_constant_budget_edge():
    env = ConstantEnvironment([127, 128], BINARY)
    episode = env.spawn(random.Random(0))
    percepts = rollout(episode, [0, 0])
    assert [p.reward_numerator for p in percepts] == [127, 128, 0]
    assert episode.remaining_reward_bound == 0


def test_constant_rejects_over_budget_schedule():
    with pytest.raises(AgentGaugeError):
        ConstantEnvironment([200, 200], BINARY)
    # but a non-summable constant environment may exceed the budget
    env = ConstantEnvironment([200, 200], BINARY, summable=False)
    assert env.summable is False


# ------------------------------------------------------------------ pattern

def follower_actions(cycles, period):
    return [pattern_target_bit(k, period) for k in range(1, cycles)]


def test_pattern_follower_collects_exact_cap():
    env = PatternEnvironment(2, BINARY)
    episode = env.spawn(random.Random(0))
    total = sum(p.reward_numerator for p in rollout(episode, follower_actions(400, 2)))
    assert total == pattern_reward_cap(255) == 247
    assert episode.remaining_reward_bound == 0


def test_pattern_zero_agent_earns_nothing():
    env = PatternEnvironment(3, BINARY)
    percepts = rollout(env.spawn(random.Random(0)), [0] * 300)
    assert sum(p.reward_numerator for p in percepts) == 0


def test_pattern_uniform_first_payout_probability():
    env = PatternEnvironment(2, BINARY)
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
    env = PatternEnvironment(1, BINARY)
    rng = random.Random(5)
    for _ in range(20):
        episode = env.spawn(rng)
        total = sum(p.reward_numerator
                    for p in rollout(episode, [rng.randrange(2) for _ in range(2000)]))
        assert total <= BINARY.reward_denominator


def test_summable_natives_hold_integer_budget_for_all_agents():
    # Same budget discipline as machine environments: cumulative numerator
    # stays within D over 10^4-cycle rollouts for every built-in agent.
    from agentgauge.agents import AgentFactory

    for env in (PatternEnvironment(1, BINARY), PatternEnvironment(2, BINARY),
                ConstantEnvironment([3] * 85, BINARY)):
        for name in ("random", "basic", "2back", "pi_opt", "pi_1", "pi_2"):
            policy = AgentFactory(name, BINARY).make(random.Random(21))
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
    env = PatternEnvironment(2, BINARY)
    actions = [random.Random(9).randrange(2) for _ in range(100)]
    a = rollout(env.spawn(random.Random(1)), actions)
    b = rollout(env.spawn(random.Random(2)), actions)
    assert a == b


def test_pattern_validation():
    with pytest.raises(AgentGaugeError):
        PatternEnvironment(0, BINARY)
    with pytest.raises(AgentGaugeError):
        PatternEnvironment(2, SpaceConfig(action_count=3))


# ----------------------------------------------------------------- fixtures

def test_copy_fixture_matches_native_exhaustively():
    program, machine, space, copy = copy_fixture()
    assert isinstance(copy, CopyEnvironment)
    length = 8
    for actions in itertools.product((0, 1), repeat=length):
        native = copy.spawn(random.Random(0))
        process = EnvProcess(program, machine, space, rng=random.Random(0))
        process.budget = math.inf  # the copy environment is not reward-summable
        assert native.step(None) == process.step(None)
        for action in actions:
            assert native.step(action) == process.step(action), actions


def test_zero_fixture_matches_constant_everywhere():
    program, machine, space, zero = zero_fixture()
    native = zero.spawn(random.Random(0))
    process = EnvProcess(program, machine, space, rng=random.Random(0))
    assert native.step(None) == process.step(None)
    rng = random.Random(4)
    for _ in range(200):
        action = rng.randrange(2)
        assert native.step(action) == process.step(action)


# ------------------------------------------------------------------ program

def test_spawned_reward_free_process_has_spent_its_budget():
    # a proven program has nothing left to pay: its bound is 0 from the start,
    # and spending the budget changes none of its percepts
    machine, space = MachineConfig(), SpaceConfig()
    proven = [program for program in enumerate_programs(17, machine)
              if proves_reward_free(program, machine, space)]
    assert proven
    for program in proven:
        process = ProgramEnvironment(program, machine, space, reward_free=True).spawn(
            random.Random(0))
        assert process.remaining_reward_bound == 0
        fresh = EnvProcess(program, machine, space, rng=random.Random(0))
        assert process.step(None) == fresh.step(None), program.instructions
        assert process.remaining_reward_bound == 0
        unproven = ProgramEnvironment(program, machine, space, reward_free=False).spawn(
            random.Random(0))
        if program.has_emit:   # a program without emit is frozen at (0, 0) from the start
            assert unproven.remaining_reward_bound == unproven.budget / space.reward_denominator
