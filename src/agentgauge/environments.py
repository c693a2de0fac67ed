"""Environments: the machine-program wrapper and the worked example's copy environment.

Every environment model exposes the same episode interface:

    episode = model.spawn(rng)          # fresh single-owner episode state
    percept = episode.step(None)        # first cycle: environment moves first
    percept = episode.step(action)      # later cycles

Episodes additionally expose `remaining_reward_bound`: an upper bound on the
reward fraction still to come.  A rollout stops once it is 0, or below the
truncation epsilon, and reports it as the truncated mass.  A program
environment whose program provably never emits a positive reward spawns its
episodes with their reward budget spent, so it is 0 from the first cycle on.
Models whose `supports_batch` is true (only the copy environment, whose long
reward profiles need it) can also run many episodes in lockstep:
`model.batch_step(actions)` advances them all one cycle, taking an int64
action array (None on the first cycle) and returning their int64 reward
numerators.  A length-1 array, in or out, stands for every episode.
A program environment declares `reads_actions` (some action its cycle reads
outlasts the cycle) and `deterministic` (no random bit does), from its cycle
summary, or from its opcodes where it has none; the valuation layer
plays an episode that reads no action without the agent and, when it is
deterministic too, only once per estimate.  A model that declares
neither, like the copy environment, is assumed to read actions and draw
randomness.  A program environment also declares its loop-free `summary`,
which `lockstep_step` applies to an in-process agent's episodes together,
and its `reward_free` verdict, proved when the ensemble is built; such an
agent's estimate values a proven reward-free environment at 0, unplayed.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import AgentGaugeError
from .interaction import Percept, SpaceConfig
from .machine import CycleSummary, EnvProcess, EnvProgram, MachineConfig, summarize_cycle


@dataclass(frozen=True)
class ProgramEnvironment:
    """An enumerated machine program exposed as an environment model.

    `reward_free` is the verdict of `proves_reward_free` for the program, on
    this machine and space.  It has no default, so no environment is left
    unproven by accident: `build_ensemble` proves once per
    `reward_free_key` before any rollout, and pool workers receive the
    verdict with the entry.  The episodes of a reward-free environment
    start with their reward budget spent: they emit the same percepts, and
    their remaining reward bound is 0, so a rollout stops after cycle 1.
    """

    program: EnvProgram
    machine: MachineConfig
    space: SpaceConfig
    reward_free: bool

    summable = True

    @property
    def identifier(self) -> str:
        return self.program.program_id

    @property
    def reads_actions(self) -> bool:
        # a read past the cycle's emit never runs, and a later random bit
        # to its cell hides one before it
        summary = self.summary
        if summary is None:
            return "read_action" in self.program.instructions
        return bool(summary.reads)

    @property
    def deterministic(self) -> bool:
        # likewise a random bit, which a later read to its cell hides
        summary = self.summary
        if summary is None:
            return "random_bit" not in self.program.instructions
        return set(summary.rands) <= set(summary.reads)

    @functools.cached_property
    def summary(self) -> CycleSummary | None:
        """The summary `lockstep_step` applies each cycle, or None: for a program
        with a loop, a cycle that does not reach emit, or cells past int64."""
        summary = summarize_cycle(self.program, self.machine)
        fits = summary and summary.emits and self.machine.cell_modulus <= 2 ** 62
        return summary if fits else None

    def spawn(self, rng: random.Random) -> EnvProcess:
        process = EnvProcess(self.program, self.machine, self.space, rng=rng)
        if self.reward_free:
            process.budget = 0
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

    def batch_step(self, actions: np.ndarray | None) -> np.ndarray:
        if actions is None:
            return np.zeros(1, dtype=np.int64)
        return actions * self.space.reward_denominator
