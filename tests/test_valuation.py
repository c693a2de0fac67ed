"""Value estimation: closed forms, truncation accounting, reproducibility."""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np
import pytest

from agentgauge.agents import basic_agent, random_agent, scripted_agents
from agentgauge.environments import (
    ProgramEnvironment,
    make_constant_env,
    make_copy_env,
    make_pattern_env,
    pattern_reward_cap,
    pattern_target_bit,
)
from agentgauge.errors import AgentGaugeError, SummabilityError
from agentgauge.interaction import SpaceConfig
from agentgauge.machine import MachineConfig, decode_program, encode_program
from agentgauge.measure import EnsembleSpec, build_ensemble, estimate_intelligence_mixture
from agentgauge.valuation import (
    ValuationParams,
    discounted_value,
    gamma_norm,
    harmonic_value,
    per_cycle_reward_profile,
    summable_episode_values,
    summable_value,
)

UNIT = SpaceConfig(action_count=2, observation_count=1, reward_denominator=1)
BINARY = SpaceConfig(action_count=2, observation_count=2, reward_denominator=255)
GOLDEN_VALUATION_DIGEST = "5860a9264e59f23138a385ea479de4b322b4966feb3cbd6816c464d07a206fa6"


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

            def action_distribution(self):
                one = pattern_target_bit(self.cycle, factory.period)
                return (1.0 - one, float(one))

            def act(self):
                return pattern_target_bit(self.cycle, factory.period)

        return _Policy()


def test_gamma_norm_values():
    assert gamma_norm(0.5) == 1.0
    assert gamma_norm(0.9) == pytest.approx(9.0)
    for gamma in (0.1, 0.35, 0.77, 0.99):
        assert gamma_norm(gamma) * (1 - gamma) / gamma == pytest.approx(1.0)
    with pytest.raises(AgentGaugeError):
        gamma_norm(1.0)
    with pytest.raises(AgentGaugeError):
        gamma_norm(0.0)


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


def test_valuation_golden_hash():
    # Exact output of the summable, scalar-weighted, batch and mixture
    # estimators, recorded before the episode loops were merged into one
    # kernel; the statistical tests above cannot see a reordered draw.
    h = hashlib.sha256()

    def add(*numbers):
        h.update(np.asarray(numbers, dtype=np.float64).tobytes())

    def add_estimate(estimate):
        add(estimate.mean, estimate.ci_half_width, estimate.truncation_bound,
            estimate.episodes_used, estimate.failed_episodes)

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
            values, mean_remaining, failed = summable_episode_values(
                factory, entry.environment, params)
            add(len(values), *values, mean_remaining, failed)
        add_estimate(estimate_intelligence_mixture(factory, mixed, params, draws=300))

    basic = basic_agent(BINARY)
    pattern = make_pattern_env(2, BINARY)
    add(*per_cycle_reward_profile(basic, pattern, 300, 20, seed=5))
    add_estimate(discounted_value(basic, pattern, ValuationParams(
        mode="discounted", gamma=0.9, horizon=300, episodes=20, seed=5)))
    add_estimate(harmonic_value(basic, pattern, ValuationParams(
        mode="harmonic", horizon=300, episodes=20, trunc_epsilon=1e-3, seed=5)))

    _, pi_1, _ = scripted_agents(UNIT)
    copy = make_copy_env(UNIT)
    for env in (copy, _NoBatch(copy)):
        add(*per_cycle_reward_profile(pi_1, env, 40, 50, seed=8))
        add_estimate(discounted_value(pi_1, env, ValuationParams(
            mode="discounted", gamma=0.9, horizon=200, episodes=50, seed=8)))
    assert h.hexdigest() == GOLDEN_VALUATION_DIGEST
