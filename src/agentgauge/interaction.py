"""Core types of the agent/environment protocol.

One interaction cycle is: the environment emits a percept (observation plus
reward), then the agent replies with an action.  The environment always moves
first.  Rewards are exact rationals k/D for a fixed denominator D, so budget
accounting elsewhere in the package can be integer-exact.  No history object
is kept: the rollout kernel in `valuation` drives the alternation, and
learning agents key their statistics by `window_key` over the recent cycles.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SpaceConfig:
    """Finite action/observation/reward spaces of one benchmark run.

    Rewards take values k/reward_denominator for k in 0..reward_denominator.
    """

    action_count: int = 2
    observation_count: int = 2
    reward_denominator: int = 255

    def __post_init__(self) -> None:
        if self.action_count < 1:
            raise ValueError("action_count must be >= 1")
        if self.observation_count < 1:
            raise ValueError("observation_count must be >= 1")
        if self.reward_denominator < 1:
            raise ValueError("reward_denominator must be >= 1")


@dataclass(frozen=True)
class Percept:
    """One environment-to-agent message: observation symbol plus reward."""

    observation: int
    reward_numerator: int


def window_key(observation: int, pairs: tuple[tuple[int, int, int], ...]) -> bytes:
    """Canonical key for (current observation, recent (action, percept) pairs).

    `pairs` lists the most recent completed cycles, newest first, each as
    (action, observation, reward_numerator).  The encoding is injective for
    values below 2**16, which covers any practical space configuration.
    """
    out = bytearray()
    out.append(len(pairs))
    out += observation.to_bytes(2, "little")
    for action, obs, reward in pairs:
        out += action.to_bytes(2, "little")
        out += obs.to_bytes(2, "little")
        out += reward.to_bytes(2, "little")
    return bytes(out)
