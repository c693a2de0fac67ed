"""Environments: machine-program wrappers, native diagnostics, and fixtures.

Every environment model exposes the same episode interface:

    episode = model.spawn(rng)          # fresh single-owner episode state
    percept = episode.step(None)        # first cycle: environment moves first
    percept = episode.step(action)      # later cycles

Episodes additionally expose `remaining_reward_bound`: an upper bound on the
reward fraction still to come.  A rollout stops once it is 0, or below the
truncation epsilon, and reports it as the truncated mass.  A program
environment whose program provably never emits a positive reward makes it 0
from the first cycle on.  Models whose `supports_batch` is true (only the
copy environment, whose long reward profiles need it) can also run many
episodes in lockstep: `state = model.begin_batch(n)` starts n episodes and
`model.batch_step(state, actions)` advances them all one cycle, taking an
int64 action array (None on the first cycle) and returning the int64 array
of their reward numerators.
A model may also declare `reads_actions = False` (its percepts never depend
on the actions) and `deterministic = True` (they never depend on the rng);
the valuation layer then plays such episodes without the agent and, when
they are deterministic too, only once per estimate.  A model that declares
neither is assumed to read actions and draw randomness.  A program
environment carries its `reward_free` verdict, proved when the ensemble is
built; an estimate for an in-process agent values a proven reward-free
environment at 0 and plays no episode of it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import AgentGaugeError
from .interaction import Percept, SpaceConfig
from .machine import EnvProcess, EnvProgram, MachineConfig, encode_program


@dataclass(frozen=True)
class ProgramEnvironment:
    """An enumerated machine program exposed as an environment model.

    `reward_free` is the verdict of `proves_reward_free` for the program, on
    this machine and space.  It has no default, so no environment is left
    unproven by accident: `build_ensemble` proves once per
    `reward_free_key` before any rollout, and pool workers receive the
    verdict with the entry.  The episodes of a reward-free environment have
    a remaining reward bound of 0, so a rollout stops after cycle 1.
    """

    program: EnvProgram
    machine: MachineConfig
    space: SpaceConfig
    reward_free: bool

    @property
    def identifier(self) -> str:
        return self.program.program_id

    @property
    def summable(self) -> bool:
        return self.machine.enforce_reward_budget

    @property
    def reads_actions(self) -> bool:
        return "read_action" in self.program.instructions

    @property
    def deterministic(self) -> bool:
        return "random_bit" not in self.program.instructions

    def spawn(self, rng: random.Random) -> EnvProcess:
        process = EnvProcess(self.program, self.machine, self.space, rng=rng)
        process.reward_free = self.reward_free
        return process


class _CopyEpisode:
    __slots__ = ("denominator", "cycles", "last_action")

    def __init__(self, denominator: int) -> None:
        self.denominator = denominator
        self.cycles = 0
        self.last_action = 0

    remaining_reward_bound = math.inf

    def step(self, action: int | None) -> Percept:
        if self.cycles > 0:
            self.last_action = action
        self.cycles += 1
        if self.cycles == 1:
            return Percept(0, 0)
        return Percept(0, self.last_action * self.denominator)


@dataclass(frozen=True)
class CopyEnvironment:
    """The worked-example environment: each reward equals the previous action.

    The observation space is the singleton symbol 0 and the first reward is 0
    by convention (no action precedes it).  Rewards accumulate without bound,
    so the model is not reward-summable and is valued with discounted or
    harmonic weighting only.
    """

    space: SpaceConfig

    summable = False
    supports_batch = True
    identifier = "native:copy"

    def __post_init__(self) -> None:
        if self.space.action_count != 2:
            raise AgentGaugeError("copy environment requires a binary action space")

    def spawn(self, rng: random.Random) -> _CopyEpisode:
        return _CopyEpisode(self.space.reward_denominator)

    def begin_batch(self, n_episodes: int) -> int:
        return n_episodes

    def batch_step(self, n_episodes: int, actions: np.ndarray | None) -> np.ndarray:
        if actions is None:
            return np.zeros(n_episodes, dtype=np.int64)
        return actions * self.space.reward_denominator


def make_copy_env(space: SpaceConfig) -> CopyEnvironment:
    return CopyEnvironment(space)


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


def make_constant_env(schedule: list[int] | tuple[int, ...],
                      space: SpaceConfig = SpaceConfig(),
                      summable: bool = True) -> ConstantEnvironment:
    return ConstantEnvironment(tuple(schedule), space, summable)


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


def make_pattern_env(period: int, space: SpaceConfig = SpaceConfig()) -> PatternEnvironment:
    return PatternEnvironment(period, space)


@dataclass(frozen=True)
class Fixture:
    """A hand-assembled machine program paired with the native environment it mirrors."""

    program: EnvProgram
    machine: MachineConfig
    space: SpaceConfig
    native: object


def compile_fixture(name: str) -> Fixture:
    """Return a named cross-validation fixture; unknown names raise."""
    if name == "copy":
        # Each cycle writes the last action on the tape, steps left and emits;
        # the reward cell is exactly the cell just written.  With a singleton
        # observation space and unit denominator this reproduces the native
        # copy environment percept for percept.  The reward budget is lifted
        # because the native copy environment is not reward-summable.
        space = SpaceConfig(action_count=2, observation_count=1, reward_denominator=1)
        machine = MachineConfig(enforce_reward_budget=False)
        program = encode_program(["read_action", "move_left", "emit"], machine)
        return Fixture(program, machine, space, CopyEnvironment(space))
    if name == "zero":
        space = SpaceConfig()
        machine = MachineConfig()
        program = encode_program([], machine)
        return Fixture(program, machine, space, ConstantEnvironment((), space))
    raise AgentGaugeError(f"unknown fixture {name!r}")
