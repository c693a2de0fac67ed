"""Reference agents: uniform random, tabular epsilon-greedy learners, and the
three scripted policies from the worked copy-environment example.

An agent factory is the benchmark-level handle (identifier plus behavior);
`factory.make(rng)` builds a fresh single-rollout policy instance, so learner
tables are never shared across rollouts.  Policy instances follow a small
protocol:

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
from .interaction import Percept, SpaceConfig, window_key

_SCRIPTED_KINDS = ("pi_opt", "pi_1", "pi_2")


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

    __slots__ = ("kind", "rng", "cycles")

    def __init__(self, kind: str, rng: random.Random) -> None:
        self.kind = kind
        self.rng = rng
        self.cycles = 0

    def observe(self, percept: Percept) -> None:
        self.cycles += 1

    def act(self) -> int:
        p_one = scripted_prob_action_one(self.kind, self.cycles)
        if p_one == 0.0:
            return 0
        if p_one == 1.0:
            return 1
        return 1 if self.rng.random() < p_one else 0


def scripted_prob_action_one(kind: str, cycle: int) -> float:
    """P(action = 1) for a scripted policy acting at the given cycle index."""
    if kind == "pi_opt":
        return 1.0
    if kind == "pi_1":
        return 0.5
    if kind == "pi_2":
        if cycle <= 100:
            return 0.0
        if cycle <= 5000:
            return 1.0
        return 0.5
    raise AgentGaugeError(f"unknown scripted kind {kind!r}")


class _TablePolicy:
    """Epsilon-greedy learner over running means of the next cycle's reward.

    Statistics are keyed by the canonical window key: the current observation
    plus the last `back` (action, percept) pairs.  Greedy action selection
    requires every action to have been sampled at least once under the key;
    before that the policy is uniform.  Ties between greedy actions go to the
    lowest action index.
    """

    __slots__ = ("space", "back", "epsilon", "rng", "table",
                 "window", "pending", "current_key", "prev_percept", "last_action")

    def __init__(self, space: SpaceConfig, back: int, epsilon: float,
                 rng: random.Random) -> None:
        self.space = space
        self.back = back
        self.epsilon = epsilon
        self.rng = rng
        # key -> flat [count_0, total_0, count_1, total_1, ...] per action
        self.table: dict[bytes, list[float]] = {}
        self.window: list[tuple[int, int, int]] = []
        self.pending: tuple[bytes, int] | None = None
        self.current_key: bytes | None = None
        self.prev_percept: Percept | None = None
        self.last_action = 0

    def observe(self, percept: Percept) -> None:
        if self.pending is not None:
            key, action = self.pending
            entry = self.table.get(key)
            if entry is None:
                entry = [0.0] * (2 * self.space.action_count)
                self.table[key] = entry
            entry[2 * action] += 1.0
            entry[2 * action + 1] += percept.reward_numerator / self.space.reward_denominator
            self.pending = None
        if self.prev_percept is not None and self.back > 0:
            self.window.append((self.last_action, self.prev_percept.observation,
                                self.prev_percept.reward_numerator))
            if len(self.window) > self.back:
                self.window.pop(0)
        self.prev_percept = percept
        pairs = tuple(reversed(self.window)) if self.back else ()
        self.current_key = window_key(percept.observation, pairs)

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
        if entry is None:
            return tuple(1.0 / n for _ in range(n))
        greedy = self._greedy_action(entry)
        if greedy is None:
            return tuple(1.0 / n for _ in range(n))
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
        self.pending = (self.current_key, action)
        self.last_action = action
        return action


@dataclass(frozen=True)
class AgentFactory:
    """Picklable agent handle: identifier plus per-rollout instance builder."""

    name: str
    kind: str  # "random" | "table" | "pi_opt" | "pi_1" | "pi_2"
    space: SpaceConfig
    epsilon: float = 0.0
    back: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise AgentGaugeError("epsilon must lie in [0, 1]")

    @property
    def supports_batch(self) -> bool:
        """Batch episodes need a policy that is a function of the cycle index."""
        return self.space.action_count == 2 and self.kind in ("random",) + _SCRIPTED_KINDS

    @property
    def private_policies(self) -> bool:
        """Each episode's policy is fresh, seeded per episode and seen by
        nothing else, so an episode that never reads an action may skip it."""
        return True

    def prob_action_one(self, cycle: int) -> float:
        if self.kind == "random":
            return 0.5
        return scripted_prob_action_one(self.kind, cycle)

    def make(self, rng: random.Random):
        if self.kind == "random":
            return _UniformPolicy(self.space.action_count, rng)
        if self.kind in _SCRIPTED_KINDS:
            return _ScriptedPolicy(self.kind, rng)
        if self.kind == "table":
            return _TablePolicy(self.space, self.back, self.epsilon, rng)
        raise AgentGaugeError(f"unknown agent kind {self.kind!r}")


def random_agent(space: SpaceConfig) -> AgentFactory:
    """Uniformly random actions at every history."""
    return AgentFactory(name="random", kind="random", space=space)


def basic_agent(space: SpaceConfig, epsilon: float = 0.10) -> AgentFactory:
    """Greedy on per-observation next-reward means with epsilon exploration."""
    return AgentFactory(name="basic", kind="table", space=space, epsilon=epsilon, back=0)


def kback_agent(space: SpaceConfig, back: int, epsilon: float = 0.10) -> AgentFactory:
    """Like basic_agent but conditioned on the last `back` cycles as well."""
    if back < 0:
        raise AgentGaugeError("back must be >= 0")
    name = "basic" if back == 0 else f"{back}back"
    return AgentFactory(name=name, kind="table", space=space, epsilon=epsilon, back=back)


def scripted_agents(space: SpaceConfig) -> tuple[AgentFactory, AgentFactory, AgentFactory]:
    """The worked-example trio: always-1, uniform, and the phase-switching policy."""
    if space.action_count != 2:
        raise AgentGaugeError("scripted agents require a binary action space")
    return (
        AgentFactory(name="pi_opt", kind="pi_opt", space=space),
        AgentFactory(name="pi_1", kind="pi_1", space=space),
        AgentFactory(name="pi_2", kind="pi_2", space=space),
    )


def make_agent(name: str, space: SpaceConfig, epsilon: float = 0.10) -> AgentFactory:
    """Resolve a built-in agent by roster name (e.g. "random", "basic", "2back")."""
    if name == "random":
        return random_agent(space)
    if name == "basic":
        return basic_agent(space, epsilon)
    if _KBACK_NAME.fullmatch(name):
        return kback_agent(space, int(name[:-4]), epsilon)
    if name in _SCRIPTED_KINDS:
        if space.action_count != 2:
            raise AgentGaugeError(f"{name} requires a binary action space")
        return AgentFactory(name=name, kind=name, space=space)
    raise AgentGaugeError(f"unknown agent {name!r}")


BUILTIN_AGENT_NAMES = ("random", "basic", "2back", "pi_opt", "pi_1", "pi_2")

# `<k>back` for k >= 1 in canonical form: "0back" would be an alias of basic
# and "01back" of 1back, and two roster entries would then share one name.
_KBACK_NAME = re.compile(r"[1-9][0-9]*back")


def is_builtin_agent(name: str) -> bool:
    """True when `make_agent` resolves `name` to an agent of that same name."""
    return name in BUILTIN_AGENT_NAMES or _KBACK_NAME.fullmatch(name) is not None
