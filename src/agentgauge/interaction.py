"""Core types of the agent/environment protocol.

One interaction cycle is: the environment emits a percept (observation plus
reward), then the agent replies with an action.  The environment always moves
first.  Rewards are exact rationals k/D for a fixed denominator D, so budget
accounting elsewhere in the package can be integer-exact.  A percept is a
plain named pair.  No history object is kept: the rollout kernel in
`valuation` drives the alternation, and learning agents keep the recent
cycles they condition on themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class SpaceConfig:
    """Finite action/observation/reward spaces of one benchmark run.

    Rewards take values k/reward_denominator for k in 0..reward_denominator.
    Observations and reward numerators must each fit in the two bytes that
    behavior signatures give them; actions share the same bound.
    """

    action_count: int = 2
    observation_count: int = 2
    reward_denominator: int = 255

    def __post_init__(self) -> None:
        if not 1 <= self.action_count <= 65536:
            raise ValueError("action_count must lie in [1, 65536]")
        if not 1 <= self.observation_count <= 65536:
            raise ValueError("observation_count must lie in [1, 65536]")
        if not 1 <= self.reward_denominator <= 65535:
            raise ValueError("reward_denominator must lie in [1, 65535]")


class Percept(NamedTuple):
    """One environment-to-agent message: observation symbol plus reward."""

    observation: int
    reward_numerator: int
