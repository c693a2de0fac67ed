"""Reference agents: distributions, learning tables, scripted policies."""

from __future__ import annotations

import math
import random
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest

from agentgauge import agents, seeding, valuation
from agentgauge.agents import MAX_BACK, AgentFactory, batch_policy, scripted_prob_action_one
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
    batch = batch_policy([(factory, random.Random(i)) for i in live.tolist()])
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


class _FixedRandom:
    """An rng whose random() returns a chosen value."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


def _threshold_actions(monkeypatch, policies, batch, percepts):
    """The actions of `policies` and of `batch`, whose episodes are 2n - 1 in
    the state of each policy in turn, after its percept, on draws 0.0, each
    running sum of the policy's distribution over n actions and the float
    below each sum."""
    scalar, draws = [], []
    for policy, percept in zip(policies, percepts):
        policy.observe(percept)
        sums = list(accumulate(policy.action_distribution()[:-1]))
        block = [0.0] + sums + [math.nextafter(s, 0.0) for s in sums]
        acts = []
        for r in block:
            policy.rng = _FixedRandom(r)
            acts.append(policy.act())
        # act takes the first action whose running sum lies above the draw
        assert acts == [sum(s <= r for s in sums) for r in block]
        scalar += acts
        draws += block
    draws = np.array(draws)
    live = np.arange(draws.size)
    rows = draws.size // len(policies)
    with monkeypatch.context() as patch:
        patch.setattr(seeding.Ahead, "take", lambda self, live: draws[live])
        actions = batch.step(live, np.repeat([p.observation for p in percepts], rows),
                             np.repeat([p.reward_numerator for p in percepts], rows))
    return scalar, actions.tolist()


@pytest.mark.parametrize("n", [2, 5, 17])
@pytest.mark.parametrize("epsilon", [0.0, 0.1, 1.0])
def test_draws_on_a_threshold_take_the_next_action(monkeypatch, n, epsilon):
    # A draw equal to a running sum takes the next action, one just below it
    # does not, and at epsilon 0 a draw of 0.0 passes the actions of
    # probability 0 before the greedy one.  Random draws never land on a sum;
    # these do, at the first cycle, where the distribution is uniform, and
    # once every action has a count.  On 17 actions the running sums lie
    # above the products k/17 and k epsilon/17 at some k.  Learners of
    # different windows in one group share one table, and each row takes
    # its own learner's action.
    space = SpaceConfig(action_count=n, observation_count=1, reward_denominator=255)
    rows = 2 * n - 1
    for names in (("basic",), ("basic", "2back", f"{MAX_BACK}back")):
        factories = [AgentFactory(name, space, epsilon) for name in names]
        live = np.arange(rows * len(factories))

        def fresh():  # each learner's policy, and a batch of one episode per draw on its stream
            return ([factory.make(random.Random(4)) for factory in factories],
                    batch_policy([(factory, random.Random(4))
                                  for factory in factories for _ in range(rows)]))

        policies, batch = fresh()
        assert isinstance(batch, agents._TableBatch)
        scalar, batch_actions = _threshold_actions(monkeypatch, policies, batch,
                                                   [Percept(0, 0)] * len(factories))
        assert scalar == batch_actions
        policies, batch = fresh()
        acted = [None] * len(factories)
        for _ in range(200):  # the greedy action, the middle one, earns the most
            rewards = [0 if a is None else 255 - 10 * abs(a - n // 2) for a in acted]
            for policy, reward in zip(policies, rewards):
                policy.observe(Percept(0, reward))
            actions = batch.step(live, np.zeros(live.size, dtype=np.int64),
                                 np.repeat(rewards, rows))
            acted = [policy.act() for policy in policies]
            assert actions.tolist() == np.repeat(acted, rows).tolist()
        percepts = [Percept(0, 255 - 10 * abs(a - n // 2)) for a in acted]
        scalar, batch_actions = _threshold_actions(monkeypatch, policies, batch, percepts)
        assert policies[0]._greedy_action(policies[0].table[(0,)]) == n // 2
        assert scalar == batch_actions
        if epsilon == 0.0:
            assert set(scalar[:rows]) == {n // 2, n - 1}


def test_learner_memory_is_two_tables():
    # a batch learner keeps a count and a total per key and action: a
    # 16-episode 2back group on 4,096 actions, whose keys are all new, peaks
    # below four count tables of memory, the growth of both tables included
    space = SpaceConfig(action_count=4096, observation_count=2, reward_denominator=255)
    live = np.arange(16)
    batch = batch_policy([(AgentFactory("2back", space), random.Random(i)) for i in live.tolist()])
    percepts = random.Random(5)
    tracemalloc.start()
    try:
        for _ in range(40):
            batch.step(live, np.array([percepts.randrange(2) for _ in live]),
                       np.array([percepts.randrange(256) for _ in live]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(batch.slots) == 40 * 16
    assert peak < 4 * batch.counts.nbytes
