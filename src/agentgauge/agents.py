"""Reference agents: uniform random, tabular epsilon-greedy learners, and the
three scripted policies from the worked copy-environment example.

An agent is its roster name: `AgentFactory("2back", space)` is the handle a
run holds, and `factory.make(rng)` builds a fresh single-rollout policy
instance, so learner tables are never shared across rollouts.  Policy
instances follow a small protocol:

    policy.observe(percept)     # update hook, called after every percept
    policy.act()                # the action for the current cycle

Scripted agents and the uniform random agent only depend on the cycle index
(`AgentFactory.prob_action_one`), which lets the valuation layer run them in
vectorized episode batches.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .errors import AgentGaugeError
from .interaction import Percept, SpaceConfig

_SCRIPTED_NAMES = ("pi_opt", "pi_1", "pi_2")


class _UniformPolicy:
    __slots__ = ("n", "rng")

    def __init__(self, n_actions: int, rng: random.Random) -> None:
        self.n = n_actions
        self.rng = rng

    def observe(self, percept: Percept) -> None:
        pass

    def act(self) -> int:
        return self.rng.randrange(self.n)


class _ScriptedPolicy:
    """Cycle-indexed policy over binary actions."""

    __slots__ = ("name", "rng", "cycles")

    def __init__(self, name: str, rng: random.Random) -> None:
        self.name = name
        self.rng = rng
        self.cycles = 0

    def observe(self, percept: Percept) -> None:
        self.cycles += 1

    def act(self) -> int:
        p_one = scripted_prob_action_one(self.name, self.cycles)
        if p_one == 0.0:
            return 0
        if p_one == 1.0:
            return 1
        return 1 if self.rng.random() < p_one else 0


def scripted_prob_action_one(name: str, cycle: int) -> float:
    """P(action = 1) for a scripted policy acting at the given cycle index."""
    if name == "pi_opt":
        return 1.0
    if name == "pi_1":
        return 0.5
    if name == "pi_2":
        if cycle <= 100:
            return 0.0
        if cycle <= 5000:
            return 1.0
        return 0.5
    raise AgentGaugeError(f"unknown scripted agent {name!r}")


class _TablePolicy:
    """Epsilon-greedy learner over running means of the next cycle's reward.

    Statistics are keyed by a flat tuple: the current observation, then the
    last `back` completed cycles newest first, each as (action, observation,
    reward numerator).  A key's length tells its window's length, so a short
    window never shares a key with a longer one.  Greedy action selection
    requires every action to have been sampled at least once under the key;
    before that the policy is uniform.  Ties between greedy actions go to the
    lowest action index.
    """

    __slots__ = ("space", "tail", "epsilon", "rng", "table",
                 "pending", "current_key", "prev_reward", "last_action")

    def __init__(self, space: SpaceConfig, back: int, epsilon: float,
                 rng: random.Random) -> None:
        self.space = space
        # a new key keeps this much of the last key after its observation
        self.tail = 3 * back - 2 if back else 0
        self.epsilon = epsilon
        self.rng = rng
        # key -> flat [count_0, total_0, count_1, total_1, ...] per action
        self.table: dict[tuple[int, ...], list[float]] = {}
        self.pending: int | None = None  # the action awaiting its reward
        self.current_key: tuple[int, ...] | None = None
        self.prev_reward = 0
        self.last_action = 0

    def observe(self, percept: Percept) -> None:
        observation, reward = percept
        key = self.current_key
        action = self.pending
        if action is not None:
            entry = self.table.get(key)
            if entry is None:
                entry = self.table[key] = [0.0] * (2 * self.space.action_count)
            entry[2 * action] += 1.0
            entry[2 * action + 1] += reward / self.space.reward_denominator
            self.pending = None
        if key is None or not self.tail:
            self.current_key = (observation,)
        else:
            self.current_key = ((observation, self.last_action, key[0], self.prev_reward)
                                + key[1 : self.tail])
        self.prev_reward = reward

    def _greedy_action(self, entry: list[float]) -> int | None:
        """Lowest index of a maximal running mean, or None if some action is unsampled."""
        best = 0
        best_mean = -1.0
        for action in range(self.space.action_count):
            count = entry[2 * action]
            if count == 0.0:
                return None
            mean = entry[2 * action + 1] / count
            if mean > best_mean:
                best_mean = mean
                best = action
        return best

    def action_distribution(self) -> tuple[float, ...]:
        n = self.space.action_count
        entry = self.table.get(self.current_key) if self.current_key is not None else None
        greedy = None if entry is None else self._greedy_action(entry)
        if greedy is None:
            return (1.0 / n,) * n
        base = self.epsilon / n
        dist = [base] * n
        dist[greedy] = 1.0 - base * (n - 1)
        return tuple(dist)

    def act(self) -> int:
        dist = self.action_distribution()
        r = self.rng.random()
        acc = 0.0
        action = self.space.action_count - 1
        for i, p in enumerate(dist):
            acc += p
            if r < acc:
                action = i
                break
        self.pending = self.last_action = action
        return action


# `<k>back` for k >= 1 in canonical form: "0back" would be an alias of basic
# and "01back" of 1back, and two roster entries would then share one name.
_KBACK_NAME = re.compile(r"[1-9][0-9]*back")


@dataclass(frozen=True)
class AgentFactory:
    """Picklable handle of a built-in agent, which is its roster name:
    ``random`` (uniform actions), ``basic`` (greedy on per-observation
    next-reward means, with epsilon exploration), ``<k>back`` such as ``2back``
    (basic, conditioned on the last k cycles as well), and the worked
    example's ``pi_opt``, ``pi_1`` and ``pi_2`` (always 1, uniform, and
    phase-switching; binary actions only).  The name seeds every random
    stream of the agent's episodes."""

    name: str
    space: SpaceConfig
    epsilon: float = 0.10

    # Each episode's policy is fresh, seeded per episode and seen by nothing
    # else, so an episode that never reads an action may skip it.
    private_policies = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise AgentGaugeError("epsilon must lie in [0, 1]")
        if self.name in _SCRIPTED_NAMES:
            if self.space.action_count != 2:
                raise AgentGaugeError(f"{self.name} requires a binary action space")
        elif self.name not in ("random", "basic") and not _KBACK_NAME.fullmatch(self.name):
            raise AgentGaugeError(f"unknown agent {self.name!r}")

    @property
    def supports_batch(self) -> bool:
        """Batch episodes need a policy that is a function of the cycle index."""
        return self.space.action_count == 2 and self.name in ("random",) + _SCRIPTED_NAMES

    def prob_action_one(self, cycle: int) -> float:
        if self.name == "random":
            return 0.5
        return scripted_prob_action_one(self.name, cycle)

    def make(self, rng: random.Random):
        if self.name == "random":
            return _UniformPolicy(self.space.action_count, rng)
        if self.name in _SCRIPTED_NAMES:
            return _ScriptedPolicy(self.name, rng)
        back = 0 if self.name == "basic" else int(self.name[:-4])
        return _TablePolicy(self.space, back, self.epsilon, rng)
