"""Test-only helpers: program assembly, the full-loop episode reference, native
models with known values, VM fixtures.

Each fixture pairs a hand-assembled machine program with the native
environment it mirrors percept for percept.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from agentgauge.coding import elias_gamma_encode
from agentgauge.environments import CopyEnvironment
from agentgauge.errors import AgentGaugeError, RolloutFailed
from agentgauge.interaction import Percept, SpaceConfig
from agentgauge.machine import (
    OPCODE_BITS, EnvProcess, EnvProgram, MachineConfig, decode_program)
from agentgauge.seeding import derive_seed
from agentgauge.valuation import ValueEstimate


def encode_program(instructions, machine: MachineConfig = MachineConfig()) -> EnvProgram:
    """The program of an instruction list, in its canonical bit string."""
    body = "".join(f"{machine.opcode_table.index(name):0{OPCODE_BITS}b}" for name in instructions)
    return decode_program(elias_gamma_encode(len(instructions) + 1) + body, machine)


class ZeroBits:
    """A random-bit source that draws only zeros."""

    def getrandbits(self, k):
        return 0


def reference_first_cycle_steps(program: EnvProgram, machine: MachineConfig,
                                space: SpaceConfig = SpaceConfig()) -> int:
    """The time `kt` weighting charges, from its definition: the steps the
    reference interpreter runs in cycle 1 with zero random bits, at least 1."""
    proc = EnvProcess(program, machine, space, rng=ZeroBits(), enable_shortcuts=False)
    proc.step(None)
    return max(1, proc.steps_last_cycle)


def reference_episode_values(agent_factory, env_model, params):
    """Every episode played in full with its policy, whatever the environment.

    Returns the episode values and their estimate, built here from the
    definition: the mean and its normal-approximation half-width (of equal
    values, that value and 0), and a truncation bound of trunc_epsilon plus
    the mean reward still to earn.
    """
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
    values = np.asarray(values)
    equal = len(set(values.tolist())) == 1
    z = NormalDist().inv_cdf((1.0 + params.confidence) / 2.0)
    return values, ValueEstimate(
        mean=float(values[0] if equal else np.mean(values)),
        ci_half_width=0.0 if equal else z * float(np.std(values, ddof=1)) / math.sqrt(len(values)),
        episodes_used=len(values),
        truncation_bound=params.trunc_epsilon + float(np.mean(remainders)),
        failed_episodes=failed)


class _ConstantEpisode:
    __slots__ = ("schedule", "cycles", "denominator")

    def __init__(self, schedule: tuple[int, ...], denominator: int) -> None:
        self.schedule = schedule
        self.cycles = 0
        self.denominator = denominator

    @property
    def remaining_reward_bound(self) -> float:
        return sum(self.schedule[self.cycles :]) / self.denominator

    def step(self, action: int | None) -> Percept:
        self.cycles += 1
        if self.cycles <= len(self.schedule):
            return Percept(0, self.schedule[self.cycles - 1])
        return Percept(0, 0)


@dataclass(frozen=True)
class ConstantEnvironment:
    """Agent-independent environment emitting a fixed reward schedule, then zeros."""

    schedule: tuple[int, ...]
    space: SpaceConfig
    summable: bool = True

    reads_actions = False
    deterministic = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule", tuple(int(x) for x in self.schedule))
        for numerator in self.schedule:
            if not 0 <= numerator <= self.space.reward_denominator:
                raise AgentGaugeError(f"schedule numerator {numerator} out of range")
        if self.summable and sum(self.schedule) > self.space.reward_denominator:
            raise AgentGaugeError("schedule exceeds the reward budget of a summable environment")

    @property
    def identifier(self) -> str:
        return f"native:constant:{','.join(map(str, self.schedule))}"

    def spawn(self, rng: random.Random) -> _ConstantEpisode:
        return _ConstantEpisode(self.schedule, self.space.reward_denominator)


def pattern_reward_cap(denominator: int) -> int:
    """Lifetime payout budget: the geometric series floor(D/2) + floor(D/4) + ...

    The sum is strictly below D, so the integer lifetime bound holds exactly.
    """
    total = 0
    m = 1
    while denominator >> m:
        total += denominator >> m
        m += 1
    return total


def pattern_target_bit(index: int, period: int) -> int:
    """Periodic target action sequence: `period` ones followed by one zero."""
    return 1 if index % (period + 1) < period else 0


def pattern_target_pair(cycle: int, period: int) -> tuple[int, int]:
    """Target pair checked at a percept cycle: the two preceding target actions."""
    return (pattern_target_bit(cycle - 2, period), pattern_target_bit(cycle - 1, period))


class _PatternEpisode:
    __slots__ = ("env", "cycles", "prev_action", "prev_prev_action", "matches")

    def __init__(self, env: "PatternEnvironment") -> None:
        self.env = env
        self.cycles = 0
        self.prev_action = 0
        self.prev_prev_action = 0
        self.matches = 0

    @property
    def remaining_reward_bound(self) -> float:
        return (self.env.reward_cap - self.matches) / self.env.space.reward_denominator

    def step(self, action: int | None) -> Percept:
        if self.cycles > 0:
            self.prev_prev_action = self.prev_action
            self.prev_action = action
        self.cycles += 1
        k = self.cycles
        if k >= 3 and self.matches < self.env.reward_cap:
            if (self.prev_prev_action, self.prev_action) == pattern_target_pair(k, self.env.period):
                self.matches += 1
                return Percept(0, 1)
        return Percept(0, 0)


@dataclass(frozen=True)
class PatternEnvironment:
    """Unit reward whenever the last two actions match the periodic target.

    The target sequence is `period` ones followed by a zero, repeating, and a
    percept at cycle k pays when (a_(k-2), a_(k-1)) equals the corresponding
    target pair.  Consecutive target pairs never conflict, so following the
    sequence exactly collects every payout.  Because the observation is
    constant, a learner keyed on the current observation alone cannot track
    the phase of the sequence, while a learner that also conditions on its
    last two cycles can; that gap is the ordering mechanism the environment
    exists to exercise.  Lifetime payout count is capped by the geometric
    series total floor(D/2) + floor(D/4) + ... < D, keeping the reward sum
    integer-bounded.
    """

    period: int
    space: SpaceConfig

    summable = True

    def __post_init__(self) -> None:
        if self.period < 1:
            raise AgentGaugeError("period must be >= 1")
        if self.space.action_count != 2:
            raise AgentGaugeError("pattern environment requires a binary action space")

    @property
    def reward_cap(self) -> int:
        return pattern_reward_cap(self.space.reward_denominator)

    @property
    def identifier(self) -> str:
        return f"native:pattern:{self.period}"

    def spawn(self, rng: random.Random) -> _PatternEpisode:
        return _PatternEpisode(self)


def copy_fixture():
    """(program, machine, space, native) for the copy environment.

    Each cycle writes the last action on the tape, steps left and emits; the
    reward cell is exactly the cell just written.  The copy environment is
    not reward-summable, so a caller lifts the budget of each process it
    builds: `process.budget = math.inf`.
    """
    space = SpaceConfig(action_count=2, observation_count=1, reward_denominator=1)
    machine = MachineConfig()
    program = encode_program(["read_action", "move_left", "emit"], machine)
    return program, machine, space, CopyEnvironment(space)


def zero_fixture():
    """(program, machine, space, native) for the empty program and the empty schedule."""
    space = SpaceConfig()
    machine = MachineConfig()
    return encode_program([], machine), machine, space, ConstantEnvironment((), space)
