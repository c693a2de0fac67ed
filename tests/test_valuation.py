"""Value estimation: closed forms, truncation accounting, reproducibility."""

from __future__ import annotations

import hashlib
import math
import random
import re
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from agentgauge import agents, seeding, valuation
from agentgauge.agents import MAX_BACK, AgentFactory, batch_policy, scripted_prob_action_one
from agentgauge.environments import CopyEnvironment, ProgramEnvironment
from agentgauge.errors import AgentGaugeError, SummabilityError
from agentgauge.interaction import SpaceConfig
from agentgauge.machine import (
    MachineConfig,
    decode_program,
    enumerate_programs,
    proves_reward_free,
)
from agentgauge.measure import EnsembleSpec, build_ensemble
from agentgauge.valuation import (
    MAX_EPISODES,
    ValuationParams,
    ValueEstimate,
    discounted_value,
    harmonic_value,
    per_cycle_reward_profile,
    roster_episode_values,
    summable_episode_values,
)
from natives import (ConstantEnvironment, PatternEnvironment, encode_program, pattern_reward_cap,
                     pattern_target_bit, reference_episode_values)

UNIT = SpaceConfig(action_count=2, observation_count=1, reward_denominator=1)
BINARY = SpaceConfig(action_count=2, observation_count=2, reward_denominator=255)


def proven(program, machine=MachineConfig(), space=BINARY):
    """A program's environment with its reward-freedom proved, as build_ensemble makes it."""
    return ProgramEnvironment(program, machine, space,
                              proves_reward_free(program, machine, space))


GOLDEN_VALUES_DIGEST = "94e3c8c08ef3acf5691499f87510a4fcd18575513301d284b998efa416768b2a"
GOLDEN_BOUNDS_DIGEST = "869fb63851a2febb217276b93133eba3fb2aa5d13518d75b16969a7640a3ef99"
PI_2_SWITCH_DIGEST = "83612fe8e80ef813f5d5626226dc6e4734db446f2cc309fa249e9ef0b209649f"


class _NoBatch:
    """Adapter hiding an environment's batch capability (forces the scalar path)."""

    supports_batch = False

    def __init__(self, inner):
        self.inner = inner
        self.space = inner.space
        self.summable = inner.summable
        self.identifier = inner.identifier + ":scalar"

    def spawn(self, rng):
        return self.inner.spawn(rng)


class FollowerFactory:
    """Scripted pattern-sequence follower used as a valuation oracle."""

    name = "follower"
    supports_batch = False

    def __init__(self, period: int):
        self.period = period

    def make(self, rng):
        factory = self

        class _Policy:
            def __init__(self):
                self.cycle = 0

            def observe(self, percept):
                self.cycle += 1

            def act(self):
                return pattern_target_bit(self.cycle, factory.period)

        return _Policy()


def test_gamma_norm_values():
    # Normalized by sum_{i>=1} gamma^i, an all-ones reward stream is worth 1,
    # less the tail gamma^T beyond the truncation point T.
    ones = ConstantEnvironment([1] * 400, UNIT, summable=False)
    for gamma in (0.1, 0.35, 0.5, 0.77, 0.9):
        params = ValuationParams(gamma=gamma, horizon=400,
                                 episodes=1, trunc_epsilon=1e-12, seed=0)
        estimate = discounted_value(AgentFactory("random", UNIT), ones, params)
        assert estimate.mean + estimate.truncation_bound == pytest.approx(1.0, abs=1e-12)
    for gamma in (0.0, 1.0):
        with pytest.raises(AgentGaugeError):
            ValuationParams(gamma=gamma)


def test_episode_count_is_bounded():
    assert ValuationParams(episodes=MAX_EPISODES).episodes == MAX_EPISODES
    for episodes in (0, MAX_EPISODES + 1):
        with pytest.raises(AgentGaugeError, match="^episodes must lie in"):
            ValuationParams(episodes=episodes)


def test_discounted_pi_opt_on_copy_is_exact():
    pi_opt = AgentFactory("pi_opt", UNIT)
    params = ValuationParams(gamma=0.9, horizon=10 ** 6,
                             episodes=1, trunc_epsilon=1e-18, seed=5)
    estimate = discounted_value(pi_opt, CopyEnvironment(UNIT), params)
    assert estimate.mean == 0.9
    assert estimate.ci_half_width == 0.0
    assert estimate.truncation_bound < 1e-17


def test_discounted_pi_1_on_copy_near_half_gamma():
    pi_1 = AgentFactory("pi_1", UNIT)
    params = ValuationParams(gamma=0.9, horizon=10 ** 6,
                             episodes=10_000, trunc_epsilon=1e-12, seed=5)
    estimate = discounted_value(pi_1, CopyEnvironment(UNIT), params)
    assert estimate.mean == pytest.approx(0.45, abs=0.01)
    assert 0.0 <= estimate.mean <= 1.0


def test_discounted_zero_environment_is_zero():
    params = ValuationParams(gamma=0.9, episodes=10, seed=1)
    estimate = discounted_value(AgentFactory("random", BINARY), ConstantEnvironment([], BINARY),
                                params)
    assert estimate.mean == 0.0
    assert estimate.ci_half_width == 0.0


def test_discounted_scalar_and_batch_paths_agree_statistically():
    pi_1 = AgentFactory("pi_1", UNIT)
    env = CopyEnvironment(UNIT)
    params = ValuationParams(gamma=0.9, episodes=4000,
                             trunc_epsilon=1e-9, horizon=10 ** 5, seed=21)
    fast = discounted_value(pi_1, env, params)
    slow = discounted_value(pi_1, _NoBatch(env), params)
    assert abs(fast.mean - slow.mean) < fast.ci_half_width + slow.ci_half_width


def test_harmonic_pi_opt_matches_analytic_series():
    pi_opt = AgentFactory("pi_opt", UNIT)
    params = ValuationParams(horizon=10 ** 5, episodes=1,
                             trunc_epsilon=1e-4, seed=5)
    estimate = harmonic_value(pi_opt, CopyEnvironment(UNIT), params)
    assert estimate.mean == pytest.approx(1.0 - 6.0 / math.pi ** 2, abs=2e-4)
    assert estimate.ci_half_width == 0.0


def test_harmonic_zero_environment_is_zero():
    params = ValuationParams(episodes=5, horizon=1000,
                             trunc_epsilon=1e-3, seed=2)
    estimate = harmonic_value(AgentFactory("random", BINARY), ConstantEnvironment([], BINARY),
                              params)
    assert estimate.mean == 0.0


def test_harmonic_weights_quarter_at_doubled_cycle():
    # An environment paying the full denominator exactly at cycle t isolates
    # the weight w_t, so w_2t / w_t must be 1/4.
    params = ValuationParams(episodes=1, horizon=10 ** 5,
                             trunc_epsilon=1e-5, seed=3)
    agent = AgentFactory("random", BINARY)
    for t in (3, 7, 20):
        env_t = ConstantEnvironment([0] * (t - 1) + [255], BINARY)
        env_2t = ConstantEnvironment([0] * (2 * t - 1) + [255], BINARY)
        w_t = harmonic_value(agent, env_t, params).mean
        w_2t = harmonic_value(agent, env_2t, params).mean
        assert w_2t / w_t == pytest.approx(0.25, abs=1e-12)


def test_summable_full_budget_schedule_is_one_for_every_agent():
    env = ConstantEnvironment([255], BINARY)
    params = ValuationParams(horizon=50, episodes=20, seed=9)
    for factory in (AgentFactory("random", BINARY), AgentFactory("basic", BINARY)):
        estimate = summable_episode_values(factory, env, params)[1]
        assert estimate.mean == 1.0
        assert estimate.ci_half_width == 0.0


def test_summable_empty_program_is_zero():
    env = proven(decode_program("1"))
    params = ValuationParams(horizon=100, episodes=10, seed=4)
    estimate = summable_episode_values(AgentFactory("random", BINARY), env, params)[1]
    assert estimate.mean == 0.0


def test_summable_pattern_follower_collects_designed_maximum():
    env = PatternEnvironment(2, BINARY)
    params = ValuationParams(horizon=400, episodes=3, seed=6)
    estimate = summable_episode_values(FollowerFactory(2), env, params)[1]
    assert estimate.mean == pattern_reward_cap(255) / 255
    assert estimate.ci_half_width == 0.0


def test_summable_rejects_non_summable_environment():
    params = ValuationParams(episodes=5, seed=0)
    with pytest.raises(SummabilityError):
        summable_episode_values(AgentFactory("random", BINARY), CopyEnvironment(BINARY), params)


def test_summable_estimates_respect_unit_bound():
    params = ValuationParams(horizon=2000, episodes=30, seed=12)
    for schedule in ([255], [127, 128], [1] * 200):
        estimate = summable_episode_values(AgentFactory("random", BINARY),
                                           ConstantEnvironment(schedule, BINARY), params)[1]
        assert estimate.mean <= 1.0 + 2 ** -20
    estimate = summable_episode_values(AgentFactory("basic", BINARY),
                                       PatternEnvironment(1, BINARY), params)[1]
    assert estimate.mean <= 1.0 + 2 ** -20


def test_seed_determinism_bit_exact():
    env = PatternEnvironment(2, BINARY)
    params = ValuationParams(horizon=300, episodes=25, seed=33)
    a = summable_episode_values(AgentFactory("basic", BINARY), env, params)[1]
    b = summable_episode_values(AgentFactory("basic", BINARY), env, params)[1]
    assert a == b
    c = summable_episode_values(AgentFactory("basic", BINARY), env,
                                ValuationParams(horizon=300, episodes=25, seed=34))[1]
    assert a != c


def test_truncation_bounds_are_reported():
    params = ValuationParams(gamma=0.9, episodes=2,
                             trunc_epsilon=1e-6, horizon=10 ** 5, seed=1)
    estimate = discounted_value(AgentFactory("random", UNIT), CopyEnvironment(UNIT), params)
    cycles = math.ceil(math.log(1e-6) / math.log(0.9))
    assert estimate.truncation_bound == pytest.approx(0.9 ** cycles)

    sparams = ValuationParams(horizon=10, episodes=4,
                              trunc_epsilon=1e-9, seed=1)
    sestimate = summable_episode_values(AgentFactory("random", BINARY),
                                        ConstantEnvironment([1] * 50, BINARY), sparams)[1]
    # 10 cycles of a 50-cycle unit schedule leave 40 units on the table
    assert sestimate.truncation_bound == pytest.approx(1e-9 + 40 / 255)


def test_single_episode_deterministic_pair_equals_closed_form():
    # Independent oracle: the truncated weighted sum evaluated with fsum.
    pi_opt = AgentFactory("pi_opt", UNIT)
    env = CopyEnvironment(UNIT)
    gamma, epsilon = 0.8, 1e-10
    params = ValuationParams(gamma=gamma, horizon=10 ** 6,
                             episodes=1, trunc_epsilon=epsilon, seed=2)
    estimate = discounted_value(pi_opt, env, params)
    cycles = math.ceil(math.log(epsilon) / math.log(gamma))
    closed_form = math.fsum(
        gamma ** i * (1 - gamma) / gamma for i in range(2, cycles + 1))
    assert estimate.mean == pytest.approx(closed_form, abs=1e-15)
    assert estimate.ci_half_width == 0.0


def test_ci_calibration_on_copy_with_uniform_agent():
    # True value is gamma/2; the 95% interval should cover it in >= 90% of
    # independent-seed repetitions.
    pi_1 = AgentFactory("pi_1", UNIT)
    env = CopyEnvironment(UNIT)
    covered = 0
    repetitions = 200
    for rep in range(repetitions):
        params = ValuationParams(gamma=0.9, episodes=100,
                                 trunc_epsilon=1e-9, horizon=10 ** 5, seed=1000 + rep)
        estimate = discounted_value(pi_1, env, params)
        if abs(estimate.mean - 0.45) <= estimate.ci_half_width:
            covered += 1
    assert covered >= 0.90 * repetitions


def test_profile_validation():
    copy = CopyEnvironment(UNIT)
    for env in (copy, _NoBatch(copy)):
        with pytest.raises(AgentGaugeError, match="cycles"):
            per_cycle_reward_profile(AgentFactory("random", UNIT), env, 0, 5, seed=0)
        with pytest.raises(AgentGaugeError, match="episodes"):
            per_cycle_reward_profile(AgentFactory("random", UNIT), env, 5, 0, seed=0)


def test_batch_profile_is_reduced_as_it_runs():
    # An (episodes, cycles) float64 matrix here would take 64 MB.
    pi_opt, pi_1 = AgentFactory("pi_opt", UNIT), AgentFactory("pi_1", UNIT)
    copy = CopyEnvironment(UNIT)
    tracemalloc.start()
    try:
        profile, _ = per_cycle_reward_profile(pi_1, copy, cycles=4000, episodes=2000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert profile.shape == (4000,) and profile[0] == 0.0
    assert abs(profile[1:].mean() - 0.5) < 0.01
    batch, _ = per_cycle_reward_profile(pi_opt, copy, cycles=300, episodes=40, seed=2)
    scalar, _ = per_cycle_reward_profile(pi_opt, _NoBatch(copy), cycles=300, episodes=40, seed=2)
    assert batch.tobytes() == scalar.tobytes()
    assert batch.tolist() == [0.0] + [1.0] * 299


def test_batch_weighted_values_are_reduced_as_they_run():
    # An (episodes, cycles) float64 matrix here would take 44 MB.
    pi_1, copy = AgentFactory("pi_1", UNIT), CopyEnvironment(UNIT)
    params = ValuationParams(gamma=0.99, horizon=2750, episodes=2000,
                             trunc_epsilon=1e-12, seed=0)
    tracemalloc.start()
    try:
        discounted = discounted_value(pi_1, copy, params)
        harmonic = harmonic_value(pi_1, copy, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert discounted.truncation_bound == 0.99 ** 2750
    assert abs(discounted.mean - 0.495) < 3 * discounted.ci_half_width
    assert 0.0 < harmonic.mean < 1.0 - 6.0 / math.pi ** 2


def test_undrawn_episodes_stay_one_column():
    # pi_opt never draws and pi_2 draws nothing before cycle 5,001, so their
    # episodes are one column: (episodes,) float64 arrays here take 800 kB
    # each, and the four running sums of a column per episode 3.2 MB.
    copy = CopyEnvironment(UNIT)
    params = ValuationParams(gamma=0.99, horizon=10 ** 6, episodes=100_000,
                             trunc_epsilon=1e-12, seed=0)
    for name in ("pi_opt", "pi_2"):
        tracemalloc.start()
        try:
            estimate = discounted_value(AgentFactory(name, UNIT), copy, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20, name
        # every episode has the value two give, whose mean is exact
        two = discounted_value(AgentFactory(name, UNIT), copy, replace(params, episodes=2))
        assert (estimate.mean, estimate.ci_half_width) == (two.mean, 0.0)
        assert estimate.episodes_used == 100_000


def test_pi_2_switch_to_drawing_is_golden():
    # pi_2 draws from cycle 5,001 on, where its one column becomes one per
    # episode; recorded while every cycle still had one column per episode.
    pi_2, copy = AgentFactory("pi_2", UNIT), CopyEnvironment(UNIT)
    digest = hashlib.sha256(per_cycle_reward_profile(pi_2, copy, 5050, 40, seed=9)[0].tobytes())
    for value, params in (
            (discounted_value, ValuationParams(gamma=0.999, horizon=10 ** 6, episodes=40,
                                               trunc_epsilon=1e-3, seed=9)),
            (harmonic_value, ValuationParams(horizon=6000, episodes=40,
                                             trunc_epsilon=1e-4, seed=9))):
        estimate = value(pi_2, copy, params)
        digest.update(np.asarray([estimate.mean, estimate.ci_half_width, estimate.episodes_used,
                                  estimate.truncation_bound], dtype=np.float64).tobytes())
    assert digest.hexdigest() == PI_2_SWITCH_DIGEST


@pytest.mark.parametrize("cycles", [400, 5050], ids=["short-of-gamma-0.99", "past-pi_2-switch"])
@pytest.mark.parametrize("denominator", [1, 3])
def test_discounts_in_the_profile_pass_keep_the_bits_of_separate_calls(cycles, denominator):
    # 400 cycles end before gamma = 0.99's 2,750 and 5,050 cross pi_2's
    # switch to drawing; the last discount has its own episode count, so it
    # is valued on its own.
    space = SpaceConfig(action_count=2, observation_count=1, reward_denominator=denominator)
    copy = CopyEnvironment(space)
    discounts = [ValuationParams(gamma=gamma, horizon=10 ** 6, episodes=12,
                                 trunc_epsilon=1e-12, seed=6) for gamma in (0.5, 0.9, 0.99)]
    discounts.append(replace(discounts[1], episodes=7))
    for name in ("pi_opt", "pi_1", "pi_2"):
        factory = AgentFactory(name, space)
        for env in (copy, _NoBatch(copy)):
            profile, estimates = per_cycle_reward_profile(factory, env, cycles, 12, 6,
                                                          discounts=discounts)
            alone, none = per_cycle_reward_profile(factory, env, cycles, 12, 6)
            assert (profile.tobytes(), none) == (alone.tobytes(), [])
            assert [repr(e) for e in estimates] == [
                repr(discounted_value(factory, env, params)) for params in discounts]


def test_study_pass_memory_is_bounded():
    # One pass keeps a total and a carry per live weighting and two shared
    # scratch arrays, 80 kB each at 10,000 episodes: it peaks at 1.2 MB,
    # where the largest of the six separate calls peaks at 0.6 MB.
    pi_1, copy = AgentFactory("pi_1", UNIT), CopyEnvironment(UNIT)
    discounts = [ValuationParams(gamma=gamma, horizon=10 ** 6, episodes=10_000,
                                 trunc_epsilon=1e-12, seed=5)
                 for gamma in (0.5, 0.7, 0.9, 0.95, 0.99)]
    np.random.default_rng(0)  # numpy.random imports 0.7 MB of modules at its first generator
    tracemalloc.start()
    try:
        _, estimates = per_cycle_reward_profile(pi_1, copy, 5200, 10_000, 5, discounts=discounts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak
    assert [e.episodes_used for e in estimates] == [10_000] * 5


def test_deterministic_weighted_values_are_correctly_rounded_sums():
    # A deterministic agent plays the same episode every time, so each
    # episode's value must be the correctly rounded sum of its terms.
    copy = CopyEnvironment(UNIT)
    cases = [(gamma, 1e-12) for gamma in (0.5, 0.7, 0.9, 0.95, 0.99)]
    cases += [(0.9, 1e-18), (0.99, 1e-18)]
    for name in ("pi_opt", "pi_2"):
        factory = AgentFactory(name, UNIT)
        for gamma, epsilon in cases:
            params = ValuationParams(gamma=gamma, horizon=10 ** 6, episodes=2,
                                     trunc_epsilon=epsilon, seed=4)
            cycles = math.ceil(math.log(epsilon) / math.log(gamma))
            weights = np.power(gamma, np.arange(1, cycles + 1)) * (1.0 - gamma) / gamma
            # the copy environment pays at cycle k the action taken at k - 1
            rewards = [0.0] + [scripted_prob_action_one(name, k) for k in range(1, cycles)]
            exact = math.fsum(float(r * w) for r, w in zip(rewards, weights))
            for env in (copy, _NoBatch(copy)):
                assert discounted_value(factory, env, params).mean == exact, (name, gamma)
        params = ValuationParams(gamma=0.99, horizon=3000, episodes=3,
                                 trunc_epsilon=1e-12, seed=4)
        for value in (discounted_value, harmonic_value):
            assert repr(value(factory, copy, params)) == repr(
                value(factory, _NoBatch(copy), params))


def _valuation_digests(mixture_estimate):
    """Digests of the values and of the truncation bounds of the estimators.

    Values are the episode values, means, intervals, episode and failure
    counts of the summable, scalar-weighted, batch and mixture estimators;
    bounds are their truncation bounds.
    """
    values, bounds = hashlib.sha256(), hashlib.sha256()

    def add(h, *numbers):
        h.update(np.asarray(numbers, dtype=np.float64).tobytes())

    def add_estimate(estimate):
        add(values, estimate.mean, estimate.ci_half_width, estimate.episodes_used,
            estimate.failed_episodes)
        add(bounds, estimate.truncation_bound)

    spec = EnsembleSpec(max_program_length_bits=17, dedup_horizon=6)
    ensemble = build_ensemble(spec, MachineConfig(), BINARY)
    # Mixture draws land on the zero-behaviour class almost always in the
    # full ensemble, so they run on a few agent- and seed-sensitive programs.
    mixed = build_ensemble(spec, MachineConfig(), BINARY, programs=[
        encode_program(ops, MachineConfig()) for ops in (
            ["read_action", "move_left", "emit"], ["random_bit", "move_left", "emit"],
            ["inc", "emit"])])
    params = ValuationParams(horizon=120, episodes=20, seed=17)
    for factory in (AgentFactory("random", BINARY), AgentFactory("basic", BINARY)):
        for entry in ensemble.entries:
            episode_values, estimate = summable_episode_values(
                factory, entry.environment, params)
            add(values, len(episode_values), *episode_values, estimate.failed_episodes)
            add(bounds, estimate.truncation_bound)
        add_estimate(mixture_estimate(factory, mixed, params, draws=300))

    basic = AgentFactory("basic", BINARY)
    pattern = PatternEnvironment(2, BINARY)
    add(values, *per_cycle_reward_profile(basic, pattern, 300, 20, seed=5)[0])
    add_estimate(discounted_value(basic, pattern, ValuationParams(
        gamma=0.9, horizon=300, episodes=20, seed=5)))
    add_estimate(harmonic_value(basic, pattern, ValuationParams(
        horizon=300, episodes=20, trunc_epsilon=1e-3, seed=5)))

    pi_1 = AgentFactory("pi_1", UNIT)
    copy = CopyEnvironment(UNIT)
    for env in (copy, _NoBatch(copy)):
        add(values, *per_cycle_reward_profile(pi_1, env, 40, 50, seed=8)[0])
        add_estimate(discounted_value(pi_1, env, ValuationParams(
            gamma=0.9, horizon=200, episodes=50, seed=8)))
    return values.hexdigest(), bounds.hexdigest()


def test_valuation_golden_hash(mixture_estimate):
    # Exact output of the estimators; the statistical tests above cannot see
    # a reordered draw.  The values digest moved when discounted and
    # harmonic values became Kahan-compensated per-episode sums in place of
    # a matrix-vector product whose bits depended on the BLAS thread count;
    # the draws and every other value held.  The bounds
    # digest moved when the mixture bound began to count unearned reward,
    # when reward-free programs began to stop after cycle 1 with a
    # remaining bound of 0, and when it began to take each environment's
    # truncation bound in place of its mean remaining reward; the estimates
    # of the removed `summable_value` give the same digest.
    values, bounds = _valuation_digests(mixture_estimate)
    assert values == GOLDEN_VALUES_DIGEST
    assert bounds == GOLDEN_BOUNDS_DIGEST


# ------------------------------------------------- agent-free rollouts

class _Counting:
    """Agent-factory wrapper that counts the policies it builds."""

    def __init__(self, inner, private_policies=True):
        self.inner = inner
        self.name = inner.name
        self.private_policies = private_policies
        self.made = 0

    def make(self, rng):
        self.made += 1
        return self.inner.make(rng)


class _Spawns:
    """Environment wrapper that counts episodes and forwards declared facts."""

    supports_batch = False

    def __init__(self, inner):
        self.inner = inner
        self.space = inner.space
        self.summable = inner.summable
        self.identifier = inner.identifier
        self.reads_actions = inner.reads_actions
        self.deterministic = inner.deterministic
        self.reward_free = getattr(inner, "reward_free", False)
        self.spawned = 0

    def spawn(self, rng):
        self.spawned += 1
        return self.inner.spawn(rng)


HAND_PICKED = (
    ["read_action", "move_left", "emit"],
    ["random_bit", "move_left", "emit"],
    ["random_bit", "move_left", "read_action", "emit"],
    ["inc", "move_left", "emit"],
    ["loop_open", "random_bit", "move_right", "loop_close", "inc", "emit"],
    ["read_action", "loop_open", "dec", "emit", "loop_close", "inc", "emit"],
    ["random_bit", "inc", "read_action", "move_left", "emit"],
)


def test_agent_free_rollouts_match_the_full_reference():
    # Skipping the policy of an environment that never reads an action,
    # replaying a deterministic one, and valuing a proven reward-free one at
    # 0 unplayed must leave every number of the estimate unchanged.
    programs = enumerate_programs(17) + [encode_program(ops) for ops in HAND_PICKED]
    params = ValuationParams(horizon=40, episodes=4, seed=29)
    factories = [AgentFactory(name, BINARY) for name in ("random", "basic", "2back")]
    for program in programs:
        env = proven(program)
        for factory in factories:
            got_values, got = summable_episode_values(factory, env, params)
            want_values, want = reference_episode_values(factory, env, params)
            assert np.array_equal(got_values, want_values), program.instructions
            assert got == want, program.instructions


def test_lockstep_episodes_match_the_full_reference(monkeypatch):
    # Episodes played in lockstep must give every number the scalar loop
    # gives: on a small machine with three actions and observations, with
    # episodes that stop early at trunc_epsilon 0.3, with cells as wide as
    # int64 allows, and on unproven reward-free programs, whose static
    # summaries freeze after cycle 1 with a remaining bound of 0.  A budget
    # of 31, which many episodes do not spend within the horizon, makes the
    # values depend on the environment's bits.  The roster plays its
    # (agent, episode) columns in groups of two, so some group holds the last
    # episode of one agent and the first of the next, and blocks of one draw
    # refill the environment's bits every cycle as episodes leave their group.
    monkeypatch.setattr(valuation, "_LOCKSTEP_EPISODES", 2)
    space = SpaceConfig(action_count=3, observation_count=3, reward_denominator=31)
    factories = [AgentFactory(name, space) for name in ("random", "basic", "2back")]
    lockstepped = 0
    for ahead in (1, seeding.AHEAD_DRAWS):
        monkeypatch.setattr(seeding, "AHEAD_DRAWS", ahead)
        for machine, trunc_epsilon in ((MachineConfig(tape_length=5, cell_modulus=3), 0.3),
                                       (MachineConfig(tape_length=3, cell_modulus=2 ** 62),
                                        1e-9)):
            params = ValuationParams(horizon=30, episodes=5, trunc_epsilon=trunc_epsilon,
                                     seed=8)
            programs = enumerate_programs(17, machine)
            programs += [encode_program(ops, machine) for ops in HAND_PICKED]
            for program in programs:
                for reward_free in {proves_reward_free(program, machine, space), False}:
                    env = ProgramEnvironment(program, machine, space, reward_free)
                    lockstepped += (env.summary is not None and not reward_free
                                    and (env.reads_actions or not env.deterministic))
                    got = roster_episode_values(factories, [env], params)[0]
                    for factory, (got_values, got_estimate) in zip(factories, got):
                        want_values, want = reference_episode_values(factory, env, params)
                        assert np.array_equal(got_values, want_values), program.instructions
                        assert got_estimate == want, program.instructions
    assert lockstepped > 150
    assert ProgramEnvironment(program, MachineConfig(cell_modulus=2 ** 62 + 1), space,
                              False).summary is None


def test_a_binary_roster_plays_in_one_group_as_each_agent_alone(monkeypatch):
    # Every binary agent kind in one lockstep group of 35 columns, whose
    # batch policy sets the uniform, scripted and learner forms side by side
    # and gives basic, 2back and 3back one table: each agent's episodes are
    # the ones its own rollouts play.
    factories = [AgentFactory(name, BINARY)
                 for name in ("random", "basic", "2back", "3back", "pi_opt", "pi_1", "pi_2")]
    params = ValuationParams(horizon=30, episodes=5, seed=4)
    groups = []
    lockstep = valuation._lockstep

    def counting(factories, environments, params):
        groups.append(len(factories))
        return lockstep(factories, environments, params)

    monkeypatch.setattr(valuation, "_lockstep", counting)
    programs = enumerate_programs(21) + [encode_program(ops) for ops in HAND_PICKED]
    for program in programs:
        env = proven(program)
        got = roster_episode_values(factories, [env], params)[0]
        for factory, (got_values, got_estimate) in zip(factories, got):
            want_values, want = reference_episode_values(factory, env, params)
            assert np.array_equal(got_values, want_values), (factory.name, program.instructions)
            assert got_estimate == want, (factory.name, program.instructions)
    assert len(groups) > 150 and set(groups) == {len(factories)}


def test_the_learners_of_a_roster_share_one_table(monkeypatch):
    # A roster whose learners are not adjacent still gives them one
    # `_TableBatch`, holding both learners' rows, in its one lockstep group.
    # Only the speed would show a roster that stopped sharing it.
    factories = [AgentFactory(name, BINARY) for name in ("basic", "pi_opt", "2back")]
    params = ValuationParams(horizon=30, episodes=5, seed=6)
    built = []

    def building(columns):
        policy = batch_policy(columns)
        built.append(([factory.name for factory, _ in columns],
                      [p.window.shape[0] for p in getattr(policy, "policies", [policy])
                       if isinstance(p, agents._TableBatch)]))
        return policy

    monkeypatch.setattr(valuation, "batch_policy", building)
    env = proven(encode_program(["read_action", "move_left", "emit"]))
    assert env.summary is not None and env.reads_actions
    got = roster_episode_values(factories, [env], params)[0]
    assert built == [(["pi_opt"] * 5 + ["basic"] * 5 + ["2back"] * 5, [10])]
    for factory, (got_values, got_estimate) in zip(factories, got):
        want_values, want = reference_episode_values(factory, env, params)
        assert np.array_equal(got_values, want_values), factory.name
        assert got_estimate == want, factory.name


def test_environments_of_two_cycles_are_not_valued_together():
    # One call values environments that run one cycle, with the first one's
    # summary: programs of two reward_free_keys are refused, naming both,
    # and programs of one key give each the values it gets alone
    params = ValuationParams(horizon=20, episodes=3, seed=9)
    roster = [AgentFactory(name, BINARY) for name in ("random", "basic")]
    now, before, padded = (proven(encode_program(ops)) for ops in (
        ["read_action", "move_left", "emit"], ["move_left", "read_action", "emit"],
        ["inc", "read_action", "move_left", "emit"]))
    with pytest.raises(AgentGaugeError, match=re.escape(f"{now.identifier} and {before.identifier}")):
        roster_episode_values(roster, [now, before], params)
    assert now.summary[1:] == padded.summary[1:] and now.summary.steps != padded.summary.steps
    for env, row in zip((now, padded), roster_episode_values(roster, [now, padded], params)):
        for factory, (values, estimate) in zip(roster, row):
            want_values, want = reference_episode_values(factory, env, params)
            assert np.array_equal(values, want_values) and estimate == want


def test_lockstep_batch_policies_match_the_full_reference(monkeypatch):
    # Each built-in agent's batch policy must take every action its episode's
    # own policy takes: learners with windows of 0, 1 and 3 cycles at epsilon
    # 0, 0.1 and 1, random and the learners on 1, 2 and 5 actions, basic on
    # 17, random on 65,536, and the scripted agents, pi_2 past its random
    # phase's start at cycle 5,001.  Groups of three episodes, which spend a
    # budget of 63 at different cycles, and blocks of draws as short as one
    # cycle make each estimate drop episodes mid-group and refill its draws
    # many times.
    monkeypatch.setattr(valuation, "_LOCKSTEP_EPISODES", 3)
    machine = MachineConfig(tape_length=5, cell_modulus=7)
    params = ValuationParams(horizon=30, episodes=5, trunc_epsilon=1e-3, seed=12)
    spaces = [SpaceConfig(action_count=n, observation_count=3, reward_denominator=63)
              for n in (1, 2, 5)]
    factories = [AgentFactory(name, space, epsilon) for space in spaces
                 for name in ("basic", "1back", "3back") for epsilon in (0.0, 0.1, 1.0)]
    factories += [AgentFactory("random", space) for space in spaces]
    factories += [AgentFactory(name, spaces[1]) for name in ("pi_opt", "pi_1", "pi_2")]
    factories.append(AgentFactory("random", SpaceConfig(65536, 3, 63)))
    # the first reward is (action - 1) mod 7, so the greedy action is 0 and
    # act walks past it with probability epsilon (n - 1) / n; the second is
    # the action of three cycles before, so the actions' means often tie
    programs = HAND_PICKED + (["read_action", "dec", "move_left", "emit"],
                              ["read_action", "move_right", "emit"])
    cases = [(ProgramEnvironment(encode_program(ops, machine), machine, factory.space, False),
              factory, params) for ops in programs for factory in factories]
    # on 17 actions act's running sums of 1/17 and epsilon/17 part from the
    # products k/17 and k epsilon/17 at some k; with one observation, basic's
    # one key has a count for every action, and so turns greedy, within 200
    # cycles, and stays greedy in about three quarters of its cycles
    wide = SpaceConfig(action_count=17, observation_count=1, reward_denominator=65535)
    reader = ProgramEnvironment(encode_program(programs[0], machine), machine, wide, False)
    long_params = ValuationParams(horizon=200, episodes=5)
    cases += [(reader, AgentFactory("basic", wide, epsilon), long_params)
              for epsilon in (0.0, 0.1, 1.0)]
    # the action is the reward, out of a budget that outlasts pi_2's phases
    space = SpaceConfig(action_count=2, observation_count=2, reward_denominator=65535)
    echo = ProgramEnvironment(encode_program(["read_action", "move_left", "emit"]),
                              MachineConfig(), space, False)
    cases.append((echo, AgentFactory("pi_2", space), ValuationParams(horizon=5030, episodes=3)))
    lockstepped = 0
    for ahead in (1, seeding.AHEAD_DRAWS):
        monkeypatch.setattr(seeding, "AHEAD_DRAWS", ahead)
        for env, factory, case_params in cases:
            lockstepped += env.summary is not None and env.reads_actions
            got_values, got = summable_episode_values(factory, env, case_params)
            want_values, want = reference_episode_values(factory, env, case_params)
            assert np.array_equal(got_values, want_values), (factory, env.identifier)
            assert got == want, (factory, env.identifier)
        pi_2_values = got_values
        # basic, 2back and the longest window in one group share one table,
        # each row with its own window
        for space in spaces:
            for epsilon in (0.0, 0.1, 1.0):
                roster = [AgentFactory(name, space, epsilon)
                          for name in ("basic", "2back", f"{MAX_BACK}back")]
                for ops in programs:
                    env = ProgramEnvironment(encode_program(ops, machine), machine, space, False)
                    for factory, (got_values, got) in zip(
                            roster, roster_episode_values(roster, [env], params)[0]):
                        want_values, want = reference_episode_values(factory, env, params)
                        assert np.array_equal(got_values, want_values), (factory, ops)
                        assert got == want, (factory, ops)
    assert lockstepped > 200
    # pi_2's episodes, the last case, part only in the random phase they reached
    assert 0.0 < np.std(pi_2_values) and max(pi_2_values) < 1.0


def test_bulk_draws_are_successive_randrange_and_random_draws(monkeypatch):
    # A batch policy and the lockstep's environment draw ahead: randrange(n)
    # as the top n.bit_length() bits of 32-bit outputs, drawing again above
    # n, random() from two outputs, and getrandbits(1) as an output's top
    # bit.  Each must be the call its episode's own policy or EnvProcess.step
    # would have made, block after block of one stream, as episodes stop and
    # the blocks refill, so a change to any of them in CPython fails here.
    def check(convert, words, call):
        ahead = seeding.Ahead([random.Random(seed + k) for k in range(3)], words, convert)
        single = [random.Random(seed + k) for k in range(3)]
        for live in [[0, 1, 2]] * 40 + [[0, 2]] * 100 + [[2]] * 300:
            want = [call(single[i]) for i in live]
            assert ahead.take(np.array(live)).tolist() == want

    for cap in (1, 7, seeding.AHEAD_DRAWS):
        monkeypatch.setattr(seeding, "AHEAD_DRAWS", cap)
        for seed in (0, 7, 2 ** 64 - 1):
            for n in (1, 2, 3, 5, 65_536):
                check(partial(seeding.below, n), 1, lambda rng: rng.randrange(n))
            check(seeding.random_floats, 2, random.Random.random)
            check(seeding.single_bits, 1, lambda rng: rng.getrandbits(1))


def test_lockstep_memory_is_bounded_whatever_the_horizon_and_episodes():
    # The programs never spend their budget (they reward only odd cells, and
    # write only even ones), so every episode runs to the horizon.  Whole,
    # the first run's tapes would take 32 MB, the second's random bits 32 MB
    # as 32-bit words, and the policy draws of the last two, which read an
    # action in place of a bit, 64 MB as 64-bit actions or random() floats;
    # in groups, one tape array holds at most 2^20 values, and one block of
    # random bits or policy draws, each drawn ahead alike, at most 2^16.
    drawn = encode_program(["random_bit", "move_right", "move_right", "inc", "emit"])
    read = encode_program(["read_action", "move_right", "move_right", "inc", "emit"])
    for program, agent, tape_length, episodes, horizon in (
            (drawn, "random", 65_536, 64, 3000), (drawn, "random", 64, 2048, 4000),
            (read, "random", 64, 2048, 4000), (read, "2back", 64, 2048, 4000)):
        machine = MachineConfig(tape_length=tape_length)
        env = ProgramEnvironment(program, machine, BINARY, reward_free=False)
        params = ValuationParams(horizon=horizon, episodes=episodes, seed=1)
        tracemalloc.start()
        try:
            values, estimate = summable_episode_values(AgentFactory(agent, BINARY),
                                                       env, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20, (agent, tape_length, peak)
        assert not values.any() and estimate.truncation_bound == 1.0 + 1e-9


def test_agent_free_paths_follow_the_declared_facts():
    params = ValuationParams(horizon=30, episodes=5, seed=3)
    cases = (
        # (environment, policies built, episodes spawned)
        (proven(encode_program(["inc", "move_left", "emit"])), 0, 1),
        (proven(encode_program(["random_bit", "move_left", "emit"])), 0, 5),
        (proven(encode_program(["read_action", "move_left", "emit"])), 5, 5),
        # a read past the cycle's emit never runs, and a random bit hides one
        (proven(encode_program(["inc", "move_left", "emit", "read_action"])), 0, 1),
        (proven(encode_program(["read_action", "random_bit", "move_left", "emit"])), 0, 5),
        (ConstantEnvironment([1] * 40, BINARY), 0, 1),
        # proven reward-free: worth 0 in every episode, so none is played
        (proven(encode_program(["read_action", "emit"])), 0, 0),
        (proven(encode_program(["random_bit", "emit"])), 0, 0),
    )
    for env, made, spawned in cases:
        factory, counted = _Counting(AgentFactory("random", BINARY)), _Spawns(env)
        summable_episode_values(factory, counted, params)
        assert (factory.made, counted.spawned) == (made, spawned), env.identifier
        # a factory that does not declare private policies plays every episode
        public = _Counting(AgentFactory("random", BINARY), private_policies=False)
        counted = _Spawns(env)
        summable_episode_values(public, counted, params)
        assert (public.made, counted.spawned) == (params.episodes, params.episodes)
    # models that declare neither fact take the policy path
    for env in (PatternEnvironment(2, BINARY), _NoBatch(ConstantEnvironment([1] * 40, BINARY))):
        factory = _Counting(AgentFactory("random", BINARY))
        summable_episode_values(factory, env, params)
        assert factory.made == params.episodes, env.identifier
