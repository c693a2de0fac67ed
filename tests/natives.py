"""Test-only helpers: program assembly, native models with known values, VM fixtures.

Each fixture pairs a hand-assembled machine program with the native
environment it mirrors percept for percept.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from agentgauge.coding import elias_gamma_encode
from agentgauge.environments import CopyEnvironment
from agentgauge.errors import AgentGaugeError
from agentgauge.interaction import Percept, SpaceConfig
from agentgauge.machine import OPCODE_BITS, EnvProgram, MachineConfig, decode_program


def encode_program(instructions, machine: MachineConfig = MachineConfig()) -> EnvProgram:
    """The program of an instruction list, in its canonical bit string."""
    body = "".join(f"{machine.opcode_table.index(name):0{OPCODE_BITS}b}" for name in instructions)
    return decode_program(elias_gamma_encode(len(instructions) + 1) + body, machine)


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
