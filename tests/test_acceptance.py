"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Each test prints an `ACCEPTANCE <n> ...: PASS/FAIL` line.  Criterion 5 is
split into its two pairwise ordering legs: the basic-above-random leg holds;
the two-back-above-basic leg is asserted faithfully as specified and is
expected to fail, because no environment expressible within the default
24-bit program cutoff requires two cycles of memory (see the decisions
ledger for the blocking analysis).
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import random
import textwrap
import time
from fractions import Fraction

import numpy as np
import pytest

from agentgauge.agents import AgentFactory
from agentgauge.cli import main
from agentgauge.environments import CopyEnvironment
from agentgauge.errors import InvalidProgramError
from agentgauge.interaction import SpaceConfig
from agentgauge.machine import (
    EnvProcess,
    MachineConfig,
    decode_program,
    enumerate_programs,
)
from agentgauge.measure import EnsembleSpec, build_ensemble, compare_agents, estimate_intelligence
from agentgauge.seeding import derive_seed
from agentgauge.valuation import (
    ValuationParams,
    discounted_value,
    harmonic_value,
    per_cycle_reward_profile,
)
from natives import copy_fixture, encode_program

MACHINE = MachineConfig()
SPACE = SpaceConfig()
UNIT = SpaceConfig(action_count=2, observation_count=1, reward_denominator=1)
DEFAULT_LENGTH_CUTOFF = 24
ORDERING_SEED = 20_240_601


@contextlib.contextmanager
def criterion(number: str, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {description}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {description}: PASS")


@pytest.fixture(scope="module")
def default_ensemble():
    spec = EnsembleSpec(max_program_length_bits=DEFAULT_LENGTH_CUTOFF, dedup_horizon=8)
    return build_ensemble(spec, MACHINE, SPACE)


@pytest.fixture(scope="module")
def ordering_measurements(default_ensemble):
    params = ValuationParams(horizon=250, episodes=150,
                             seed=ORDERING_SEED)
    factories = [AgentFactory(name, SPACE) for name in ("random", "basic", "2back")]
    return {f.name: estimate_intelligence(f, default_ensemble, params)
            for f in factories}


def test_acceptance_1_worked_example_phases():
    with criterion("1", "worked-example per-cycle phases"):
        started = time.monotonic()
        env = CopyEnvironment(UNIT)
        pi_1, pi_2 = AgentFactory("pi_1", UNIT), AgentFactory("pi_2", UNIT)
        cycles, episodes, seed = 5200, 10_000, 424243
        profile_1, _ = per_cycle_reward_profile(pi_1, env, cycles, episodes, seed)
        profile_2, _ = per_cycle_reward_profile(pi_2, env, cycles, episodes, seed)
        elapsed = time.monotonic() - started

        assert np.all(profile_1[1:101] >= 0.48) and np.all(profile_1[1:101] <= 0.52)
        assert np.all(profile_2[1:101] == 0.0)
        assert np.all(profile_2[101:5001] == 1.0)
        for profile in (profile_1, profile_2):
            tail = profile[5001:cycles]
            assert np.all(tail >= 0.48) and np.all(tail <= 0.52)
        assert elapsed <= 60.0, f"worked-example study took {elapsed:.1f}s"


def test_acceptance_2_closed_form_valuation():
    with criterion("2", "closed-form discounted and harmonic values"):
        env = CopyEnvironment(UNIT)
        pi_opt, pi_1 = AgentFactory("pi_opt", UNIT), AgentFactory("pi_1", UNIT)

        exact = discounted_value(pi_opt, env, ValuationParams(
            gamma=0.9, horizon=10 ** 6, episodes=1,
            trunc_epsilon=1e-18, seed=7))
        assert exact.mean == 0.9
        assert exact.ci_half_width == 0.0

        sampled = discounted_value(pi_1, env, ValuationParams(
            gamma=0.9, horizon=10 ** 6, episodes=10_000,
            trunc_epsilon=1e-12, seed=7))
        assert abs(sampled.mean - 0.45) <= 0.01

        harmonic = harmonic_value(pi_opt, env, ValuationParams(
            horizon=2_000_000, episodes=1,
            trunc_epsilon=5e-7, seed=7))
        assert abs(harmonic.mean - (1.0 - 6.0 / np.pi ** 2)) <= 1e-6


def _budget_rollout(program, env_seed, policy, horizon):
    proc = EnvProcess(program, MACHINE, SPACE, rng=random.Random(env_seed))
    percept = proc.step(None)
    if policy is not None:
        policy.observe(percept)
    total = percept.reward_numerator
    for _ in range(1, horizon):
        if proc.remaining_reward_bound == 0:
            break  # every later emission is zero, the sum is final
        action = policy.act() if policy is not None else 0
        percept = proc.step(action)
        if policy is not None:
            policy.observe(percept)
        total += percept.reward_numerator
    assert total == SPACE.reward_denominator - proc.budget
    return total


def test_acceptance_3_reward_summability(ordering_measurements):
    with criterion("3", "integer reward budget over the whole enumeration"):
        horizon = 10_000
        programs = enumerate_programs(DEFAULT_LENGTH_CUTOFF, MACHINE)
        factories = [AgentFactory(name, SPACE)
                     for name in ("random", "basic", "2back", "pi_opt", "pi_1", "pi_2")]
        violations = 0
        for program in programs:
            reads_actions = "read_action" in program.instructions
            randomized = "random_bit" in program.instructions
            if reads_actions:
                runs = [(factory.name, factory) for factory in factories]
            elif randomized:
                # Percepts cannot depend on actions, so one rollout per
                # agent slot with its own environment stream covers what
                # each agent rollout would observe.
                runs = [(factory.name, None) for factory in factories]
            else:
                # Fully deterministic and action-free: every agent sees the
                # identical percept sequence; one rollout covers all.
                runs = [("deterministic", None)]
            for label, factory in runs:
                env_seed = derive_seed(8888, program.program_id, label)
                policy = None
                if factory is not None:
                    policy = factory.make(
                        random.Random(derive_seed(9999, program.program_id, label)))
                total = _budget_rollout(program, env_seed, policy, horizon)
                if total > SPACE.reward_denominator:
                    violations += 1
        assert violations == 0

        bound = 1.0 + 2 ** -20
        for measurement in ordering_measurements.values():
            for estimate in measurement.estimates.values():
                assert estimate.mean <= bound


def test_acceptance_4_prefix_free_and_kraft():
    with criterion("4", "prefix-freeness and Kraft sum, exhaustive to 20 bits"):
        valid: list[str] = []
        for length in range(1, 21):
            for value in range(2 ** length):
                bits = format(value, f"0{length}b")
                try:
                    decode_program(bits, MACHINE)
                except InvalidProgramError:
                    continue
                valid.append(bits)
        pool = set(valid)
        assert len(pool) == len(valid)
        for bits in valid:
            for cut in range(1, len(bits)):
                assert bits[:cut] not in pool, f"{bits[:cut]} is a prefix of {bits}"
        kraft = sum((Fraction(1, 2 ** len(bits)) for bits in valid), Fraction(0))
        assert kraft <= 1
        # dual route: constructive enumeration must produce the same set,
        # and decode/encode must round-trip on all of it
        enumerated = enumerate_programs(20, MACHINE)
        assert {p.bits for p in enumerated} == pool
        for program in enumerated:
            assert encode_program(program.instructions, MACHINE).bits == program.bits


def test_acceptance_5a_ordering_basic_above_random(default_ensemble, ordering_measurements):
    with criterion("5a", "score ordering: basic above random on the default ensemble"):
        basic = ordering_measurements["basic"]
        rand = ordering_measurements["random"]
        comparison = compare_agents([basic, rand], default_ensemble,
                                    seed=ORDERING_SEED)[0]
        assert basic.score > rand.score, (basic.score, rand.score)
        assert comparison.ci_low > 0.0, (
            f"difference {comparison.mean_difference:.3g} with CI "
            f"[{comparison.ci_low:.3g}, {comparison.ci_high:.3g}] does not exclude 0")


def test_acceptance_5b_ordering_2back_above_basic(default_ensemble, ordering_measurements):
    # Expected to fail at the default 24-bit cutoff: a reward cell can carry
    # only one past action (read_action overwrites, and four instructions
    # leave no room to accumulate two writes), so no enumerable environment
    # rewards two cycles of memory, and the slower-learning two-back table
    # loses to basic on the copy-style environments that do exist.
    with criterion("5b", "score ordering: 2back above basic on the default ensemble"):
        deep = ordering_measurements["2back"]
        basic = ordering_measurements["basic"]
        comparison = compare_agents([deep, basic], default_ensemble,
                                    seed=ORDERING_SEED)[0]
        assert deep.score > basic.score, (deep.score, basic.score)
        assert comparison.ci_low > 0.0, (
            f"difference {comparison.mean_difference:.3g} with CI "
            f"[{comparison.ci_low:.3g}, {comparison.ci_high:.3g}] does not exclude 0")


def test_acceptance_6_fixture_cross_validation():
    with criterion("6", "VM copy fixture percept-identical to the native copy"):
        program, machine, space, copy = copy_fixture()
        for actions in itertools.product((0, 1), repeat=10):
            native = copy.spawn(random.Random(0))
            process = EnvProcess(program, machine, space, rng=random.Random(0))
            process.budget = math.inf  # the copy environment is not reward-summable
            assert native.step(None) == process.step(None)
            for action in actions:
                assert native.step(action) == process.step(action), actions


def _reproducibility_config(tmp_path, out_name):
    path = tmp_path / f"{out_name}.cfg"
    path.write_text(textwrap.dedent(f"""
        seed = 1712
        output_dir = {tmp_path / out_name}
        agents = random,basic
        ensemble.max_length_bits = 17
        ensemble.dedup_horizon = 6
        valuation.episodes = 25
        valuation.horizon = 60
        bootstrap_samples = 200
    """), encoding="utf-8")
    return path


def test_acceptance_7_reproducibility(tmp_path):
    with criterion("7", "byte-identical reports across reruns and worker pools"):
        config = _reproducibility_config(tmp_path, "runA")
        assert main(["run", str(config)]) == 0
        first = (tmp_path / "runA" / "report.json").read_bytes()

        assert main(["run", str(config)]) == 0
        assert (tmp_path / "runA" / "report.json").read_bytes() == first

        assert main(["run", str(config), "--workers", "3"]) == 0
        assert (tmp_path / "runA" / "report.json").read_bytes() == first


def test_acceptance_8_machine_sensitivity(tmp_path):
    with criterion("8", "opcode-permutation sensitivity report"):
        config = _reproducibility_config(tmp_path, "sens")
        for workers in ("1", "2"):
            assert main(["sensitivity", "--config", str(config), "--permutations", "3",
                         "--workers", workers]) == 0
            # Exact bytes, recorded while sensitivity still had its own scoring loop.
            data = (tmp_path / "sens" / "sensitivity.json").read_bytes()
            assert hashlib.sha256(data).hexdigest() == (
                "96f08c00cc0d30925b3dc5ee4e90760c26b88b61d997b31a55f85acce5535a9a")
        document = json.loads(data)
        assert len(document["machines"]) == 3
        for row in document["machines"]:
            assert set(row["scores"]) == {"random", "basic"}
            assert isinstance(row["ordering_preserved"], bool)
            assert row["opcode_table"]


def test_acceptance_9_excluded_claims():
    # Out of scope by design: no universal-optimality agent, no chess or
    # human baselines, and no absolute intelligence values beyond the
    # weight-normalized [0, 1] score.
    with criterion("9", "excluded comparisons stay excluded"):
        import agentgauge

        surface = dir(agentgauge)
        assert not any("aixi" in name.lower() for name in surface)
        assert not any("chess" in name.lower() for name in surface)
        assert not any("human" in name.lower() for name in surface)
