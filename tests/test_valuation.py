"""Value estimation: closed forms, truncation accounting, reproducibility."""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np
import pytest

from agentgauge.agents import basic_agent, kback_agent, random_agent, scripted_agents
from agentgauge.environments import (
    ProgramEnvironment,
    make_constant_env,
    make_copy_env,
    make_pattern_env,
    pattern_reward_cap,
    pattern_target_bit,
)
from agentgauge.errors import AgentGaugeError, RolloutFailed, SummabilityError
from agentgauge.interaction import SpaceConfig
from agentgauge.machine import (
    MachineConfig,
    decode_program,
    encode_program,
    enumerate_programs,
)
from agentgauge.measure import EnsembleSpec, build_ensemble
from agentgauge.seeding import derive_seed
from agentgauge.valuation import (
    ValuationParams,
    discounted_value,
    harmonic_value,
    per_cycle_reward_profile,
    summable_episode_values,
    summable_value,
)

UNIT = SpaceConfig(action_count=2, observation_count=1, reward_denominator=1)
BINARY = SpaceConfig(action_count=2, observation_count=2, reward_denominator=255)
GOLDEN_VALUES_DIGEST = "18fad326aee0333606374ab04fac09e97fd6f3beadd3446b2341f844274ad533"
GOLDEN_BOUNDS_DIGEST = "9d9d5885d3d2887b15426ecb1d9dc94974911df531d729f8e750f72b65d245d7"


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
    ones = make_constant_env([1] * 400, UNIT, summable=False)
    for gamma in (0.1, 0.35, 0.5, 0.77, 0.9):
        params = ValuationParams(mode="discounted", gamma=gamma, horizon=400,
                                 episodes=1, trunc_epsilon=1e-12, seed=0)
        estimate = discounted_value(random_agent(UNIT), ones, params)
        assert estimate.mean + estimate.truncation_bound == pytest.approx(1.0, abs=1e-12)
    for gamma in (0.0, 1.0):
        with pytest.raises(AgentGaugeError):
            ValuationParams(mode="discounted", gamma=gamma)


def test_discounted_pi_opt_on_copy_is_exact():
    pi_opt, _, _ = scripted_agents(UNIT)
    params = ValuationParams(mode="discounted", gamma=0.9, horizon=10 ** 6,
                             episodes=1, trunc_epsilon=1e-18, seed=5)
    estimate = discounted_value(pi_opt, make_copy_env(UNIT), params)
    assert estimate.mean == 0.9
    assert estimate.ci_half_width == 0.0
    assert estimate.truncation_bound < 1e-17


def test_discounted_pi_1_on_copy_near_half_gamma():
    _, pi_1, _ = scripted_agents(UNIT)
    params = ValuationParams(mode="discounted", gamma=0.9, horizon=10 ** 6,
                             episodes=10_000, trunc_epsilon=1e-12, seed=5)
    estimate = discounted_value(pi_1, make_copy_env(UNIT), params)
    assert estimate.mean == pytest.approx(0.45, abs=0.01)
    assert 0.0 <= estimate.mean <= 1.0


def test_discounted_zero_environment_is_zero():
    params = ValuationParams(mode="discounted", gamma=0.9, episodes=10, seed=1)
    estimate = discounted_value(random_agent(BINARY), make_constant_env([], BINARY), params)
    assert estimate.mean == 0.0
    assert estimate.ci_half_width == 0.0


def test_discounted_scalar_and_batch_paths_agree_statistically():
    _, pi_1, _ = scripted_agents(UNIT)
    env = make_copy_env(UNIT)
    params = ValuationParams(mode="discounted", gamma=0.9, episodes=4000,
                             trunc_epsilon=1e-9, horizon=10 ** 5, seed=21)
    fast = discounted_value(pi_1, env, params)
    slow = discounted_value(pi_1, _NoBatch(env), params)
    assert abs(fast.mean - slow.mean) < fast.ci_half_width + slow.ci_half_width


def test_harmonic_pi_opt_matches_analytic_series():
    pi_opt, _, _ = scripted_agents(UNIT)
    params = ValuationParams(mode="harmonic", horizon=10 ** 5, episodes=1,
                             trunc_epsilon=1e-4, seed=5)
    estimate = harmonic_value(pi_opt, make_copy_env(UNIT), params)
    assert estimate.mean == pytest.approx(1.0 - 6.0 / math.pi ** 2, abs=2e-4)
    assert estimate.ci_half_width == 0.0


def test_harmonic_zero_environment_is_zero():
    params = ValuationParams(mode="harmonic", episodes=5, horizon=1000,
                             trunc_epsilon=1e-3, seed=2)
    estimate = harmonic_value(random_agent(BINARY), make_constant_env([], BINARY), params)
    assert estimate.mean == 0.0


def test_harmonic_weights_quarter_at_doubled_cycle():
    # An environment paying the full denominator exactly at cycle t isolates
    # the weight w_t, so w_2t / w_t must be 1/4.
    params = ValuationParams(mode="harmonic", episodes=1, horizon=10 ** 5,
                             trunc_epsilon=1e-5, seed=3)
    agent = random_agent(BINARY)
    for t in (3, 7, 20):
        env_t = make_constant_env([0] * (t - 1) + [255], BINARY)
        env_2t = make_constant_env([0] * (2 * t - 1) + [255], BINARY)
        w_t = harmonic_value(agent, env_t, params).mean
        w_2t = harmonic_value(agent, env_2t, params).mean
        assert w_2t / w_t == pytest.approx(0.25, abs=1e-12)


def test_summable_full_budget_schedule_is_one_for_every_agent():
    env = make_constant_env([255], BINARY)
    params = ValuationParams(mode="summable", horizon=50, episodes=20, seed=9)
    for factory in (random_agent(BINARY), basic_agent(BINARY)):
        estimate = summable_value(factory, env, params)
        assert estimate.mean == 1.0
        assert estimate.ci_half_width == 0.0


def test_summable_empty_program_is_zero():
    env = ProgramEnvironment(decode_program("1"), MachineConfig(), BINARY)
    params = ValuationParams(mode="summable", horizon=100, episodes=10, seed=4)
    estimate = summable_value(random_agent(BINARY), env, params)
    assert estimate.mean == 0.0


def test_summable_pattern_follower_collects_designed_maximum():
    env = make_pattern_env(2, BINARY)
    params = ValuationParams(mode="summable", horizon=400, episodes=3, seed=6)
    estimate = summable_value(FollowerFactory(2), env, params)
    assert estimate.mean == pattern_reward_cap(255) / 255
    assert estimate.ci_half_width == 0.0


def test_summable_rejects_non_summable_environment():
    params = ValuationParams(mode="summable", episodes=5, seed=0)
    with pytest.raises(SummabilityError):
        summable_value(random_agent(BINARY), make_copy_env(BINARY), params)


def test_mode_mismatch_errors():
    params = ValuationParams(mode="summable", episodes=5, seed=0)
    with pytest.raises(AgentGaugeError):
        discounted_value(random_agent(BINARY), make_constant_env([], BINARY), params)
    with pytest.raises(AgentGaugeError):
        harmonic_value(random_agent(BINARY), make_constant_env([], BINARY), params)
    with pytest.raises(AgentGaugeError):
        ValuationParams(mode="expected")


def test_summable_estimates_respect_unit_bound():
    params = ValuationParams(mode="summable", horizon=2000, episodes=30, seed=12)
    for schedule in ([255], [127, 128], [1] * 200):
        estimate = summable_value(random_agent(BINARY),
                                  make_constant_env(schedule, BINARY), params)
        assert estimate.mean <= 1.0 + 2 ** -20
    estimate = summable_value(basic_agent(BINARY), make_pattern_env(1, BINARY), params)
    assert estimate.mean <= 1.0 + 2 ** -20


def test_seed_determinism_bit_exact():
    env = make_pattern_env(2, BINARY)
    params = ValuationParams(mode="summable", horizon=300, episodes=25, seed=33)
    a = summable_value(basic_agent(BINARY), env, params)
    b = summable_value(basic_agent(BINARY), env, params)
    assert a == b
    c = summable_value(basic_agent(BINARY), env,
                       ValuationParams(mode="summable", horizon=300, episodes=25, seed=34))
    assert a != c


def test_truncation_bounds_are_reported():
    params = ValuationParams(mode="discounted", gamma=0.9, episodes=2,
                             trunc_epsilon=1e-6, horizon=10 ** 5, seed=1)
    estimate = discounted_value(random_agent(UNIT), make_copy_env(UNIT), params)
    cycles = math.ceil(math.log(1e-6) / math.log(0.9))
    assert estimate.truncation_bound == pytest.approx(0.9 ** cycles)

    sparams = ValuationParams(mode="summable", horizon=10, episodes=4,
                              trunc_epsilon=1e-9, seed=1)
    sestimate = summable_value(random_agent(BINARY),
                               make_constant_env([1] * 50, BINARY), sparams)
    # 10 cycles of a 50-cycle unit schedule leave 40 units on the table
    assert sestimate.truncation_bound == pytest.approx(1e-9 + 40 / 255)


def test_single_episode_deterministic_pair_equals_closed_form():
    # Independent oracle: the truncated weighted sum evaluated with fsum.
    pi_opt, _, _ = scripted_agents(UNIT)
    env = make_copy_env(UNIT)
    gamma, epsilon = 0.8, 1e-10
    params = ValuationParams(mode="discounted", gamma=gamma, horizon=10 ** 6,
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
    _, pi_1, _ = scripted_agents(UNIT)
    env = make_copy_env(UNIT)
    covered = 0
    repetitions = 200
    for rep in range(repetitions):
        params = ValuationParams(mode="discounted", gamma=0.9, episodes=100,
                                 trunc_epsilon=1e-9, horizon=10 ** 5, seed=1000 + rep)
        estimate = discounted_value(pi_1, env, params)
        if abs(estimate.mean - 0.45) <= estimate.ci_half_width:
            covered += 1
    assert covered >= 0.90 * repetitions


def test_profile_validation():
    with pytest.raises(AgentGaugeError):
        per_cycle_reward_profile(random_agent(UNIT), make_copy_env(UNIT), 0, 5, seed=0)


def _valuation_digests(mixture_estimate):
    """Digests of the values and of the truncation bounds of the estimators.

    Values are the episode values, means, intervals, episode and failure
    counts of the summable, scalar-weighted, batch and mixture estimators;
    bounds are their mean remaining rewards and truncation bounds.
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
    params = ValuationParams(mode="summable", horizon=120, episodes=20, seed=17)
    for factory in (random_agent(BINARY), basic_agent(BINARY)):
        for entry in ensemble.entries:
            episode_values, mean_remaining, failed = summable_episode_values(
                factory, entry.environment, params)
            add(values, len(episode_values), *episode_values, failed)
            add(bounds, mean_remaining)
        add_estimate(mixture_estimate(factory, mixed, params, draws=300))

    basic = basic_agent(BINARY)
    pattern = make_pattern_env(2, BINARY)
    add(values, *per_cycle_reward_profile(basic, pattern, 300, 20, seed=5))
    add_estimate(discounted_value(basic, pattern, ValuationParams(
        mode="discounted", gamma=0.9, horizon=300, episodes=20, seed=5)))
    add_estimate(harmonic_value(basic, pattern, ValuationParams(
        mode="harmonic", horizon=300, episodes=20, trunc_epsilon=1e-3, seed=5)))

    _, pi_1, _ = scripted_agents(UNIT)
    copy = make_copy_env(UNIT)
    for env in (copy, _NoBatch(copy)):
        add(values, *per_cycle_reward_profile(pi_1, env, 40, 50, seed=8))
        add_estimate(discounted_value(pi_1, env, ValuationParams(
            mode="discounted", gamma=0.9, horizon=200, episodes=50, seed=8)))
    return values.hexdigest(), bounds.hexdigest()


def test_valuation_golden_hash(mixture_estimate):
    # Exact output of the estimators; the statistical tests above cannot see
    # a reordered draw.  The values digest was recorded before the episode
    # loops were merged into one kernel and has held since.  The bounds
    # digest moved when the mixture bound began to count unearned reward,
    # and when reward-free programs began to stop after cycle 1 with a
    # remaining bound of 0.
    values, bounds = _valuation_digests(mixture_estimate)
    assert values == GOLDEN_VALUES_DIGEST
    assert bounds == GOLDEN_BOUNDS_DIGEST


# ------------------------------------------------- agent-free rollouts

def _reference_episode_values(agent_factory, env_model, params):
    """Every episode played in full with its policy, whatever the environment."""
    values, remainders, failed = [], [], 0
    for index in range(params.episodes):
        policy = agent_factory.make(random.Random(derive_seed(
            params.seed, "agent", agent_factory.name, env_model.identifier, index)))
        episode = env_model.spawn(random.Random(derive_seed(
            params.seed, "env", agent_factory.name, env_model.identifier, index)))
        try:
            percept = episode.step(None)
            policy.observe(percept)
            total = percept.reward_numerator
            for _ in range(1, params.horizon):
                bound = episode.remaining_reward_bound
                if bound == 0.0 or bound < params.trunc_epsilon:
                    break
                percept = episode.step(policy.act())
                policy.observe(percept)
                total += percept.reward_numerator
        except RolloutFailed:
            failed += 1
            continue
        values.append(total / env_model.space.reward_denominator)
        remainders.append(min(1.0, episode.remaining_reward_bound))
    return np.asarray(values), float(np.mean(remainders)), failed


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
    # Skipping the policy of an environment that never reads an action, and
    # replaying a deterministic one, must leave every number unchanged.
    programs = enumerate_programs(17) + [encode_program(ops) for ops in HAND_PICKED]
    params = ValuationParams(mode="summable", horizon=40, episodes=4, seed=29)
    factories = (random_agent(BINARY), basic_agent(BINARY), kback_agent(BINARY, 2))
    for program in programs:
        env = ProgramEnvironment(program, MachineConfig(), BINARY)
        for factory in factories:
            got_values, got_remaining, got_failed = summable_episode_values(
                factory, env, params)
            want_values, want_remaining, want_failed = _reference_episode_values(
                factory, env, params)
            assert np.array_equal(got_values, want_values), program.instructions
            assert got_remaining == want_remaining, program.instructions
            assert got_failed == want_failed


def test_agent_free_paths_follow_the_declared_facts():
    params = ValuationParams(mode="summable", horizon=30, episodes=5, seed=3)
    cases = (
        # (environment, policies built, episodes spawned)
        (ProgramEnvironment(encode_program(["inc", "move_left", "emit"]),
                            MachineConfig(), BINARY), 0, 1),
        (ProgramEnvironment(encode_program(["random_bit", "move_left", "emit"]),
                            MachineConfig(), BINARY), 0, 5),
        (ProgramEnvironment(encode_program(["read_action", "move_left", "emit"]),
                            MachineConfig(), BINARY), 5, 5),
        (make_constant_env([1] * 40, BINARY), 0, 1),
    )
    for env, made, spawned in cases:
        factory, counted = _Counting(random_agent(BINARY)), _Spawns(env)
        summable_episode_values(factory, counted, params)
        assert (factory.made, counted.spawned) == (made, spawned), env.identifier
        # a factory that does not declare private policies keeps its policy
        public = _Counting(random_agent(BINARY), private_policies=False)
        summable_episode_values(public, counted, params)
        assert public.made == params.episodes
    # models that declare neither fact take the policy path
    for env in (make_pattern_env(2, BINARY), _NoBatch(make_constant_env([1] * 40, BINARY))):
        factory = _Counting(random_agent(BINARY))
        summable_episode_values(factory, env, params)
        assert factory.made == params.episodes, env.identifier
