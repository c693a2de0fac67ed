"""Reference agents: uniform random, tabular epsilon-greedy learners, and the
three scripted policies from the worked copy-environment example.

An agent is its roster name: `AgentFactory("2back", space)` is the handle a
run holds.  Its policies come in two forms, which take the same actions
from the same random streams:

    policy = factory.make(rng)          # one episode's policy
    policy.observe(percept)             # update hook, called after every percept
    policy.act()                        # the action for the current cycle

    batch = batch_policy([(factory, rng) for rng in rngs])  # one pair per column
    actions = batch.step(live, observations, numerators)

A fresh policy serves each rollout, so learner tables are never shared
across episodes.  A batch policy serves one lockstep group: each call takes
the percepts of the live episodes (`live` holds their indices in the group,
ascending, and only loses episodes) as int64 arrays and returns their int64
actions.  It builds no per-episode object; the one Python operation per
episode is a learner's dict lookup of each key that changed.  A batch
learner keeps what `_TablePolicy` keeps, a count and a total per key and
action, as two (keys x actions) arrays, and acts by the running sum of
each live episode's action distribution, one sum for all uniform ones.
Batch policies draw each episode's random numbers ahead (`seeding.Ahead`),
which changes no action: an episode's stream is its policy's alone.  A
group may hold the episodes of several agents: `batch_policy` alone decides
which adjacent columns share a batch form, and table learners of one
epsilon share one batch learner, each row with its own window.

Scripted agents and the uniform random agent on binary actions only depend
on the cycle index (`AgentFactory.prob_action_one`), which also lets the
valuation layer run them in vectorized episode batches of the copy
environment, with NumPy's streams in place of the per-episode ones.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import partial
from itertools import groupby, repeat

import numpy as np

from .errors import AgentGaugeError
from .interaction import Percept, SpaceConfig
from .seeding import Ahead, below, random_floats

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


class _UniformBatch(Ahead):
    """Uniform actions: each is the next randrange draw of its episode."""

    __slots__ = ()

    def step(self, live, observations, numerators) -> np.ndarray:
        return self.take(live)


class _ScriptedBatch:
    __slots__ = ("name", "draws", "cycles")

    def __init__(self, name: str, rngs: list) -> None:
        self.name = name
        self.draws = Ahead(rngs, 2, random_floats)
        self.cycles = 0

    def step(self, live, observations, numerators) -> np.ndarray:
        self.cycles += 1
        p_one = scripted_prob_action_one(self.name, self.cycles)
        if p_one in (0.0, 1.0):
            return np.full(live.size, int(p_one), dtype=np.int64)
        return (self.draws.take(live) < p_one).astype(np.int64)


class _TableBatch:
    """`_TablePolicy` for every live episode of a lockstep group at once.

    Row i of `window` is a live episode's index and then the fields of its
    current key, with -1 in those a short window has yet to fill, so its
    bytes tell keys apart as the tuples do.  Rows may hold learners of
    different windows: `pad` marks the fields past a row's own window, which
    stay -1 after every shift.  A dict maps the rows' bytes to a slot: a
    row of the (slots x actions) `counts` and `totals`, the `[count, total]`
    pairs of `_TablePolicy.table`.  Each cycle adds the reward to the count
    and total of the last action, then `_act` builds the action distributions
    as `action_distribution` does, the uniform one once and a row for each
    episode whose key has a count for every action (the first maximum of
    `totals / counts` is greedy), takes their running sums in act's order and
    gives each episode the first action whose sum lies above its draw, the
    action its own `_TablePolicy` would take.
    """

    __slots__ = ("space", "base", "episodes", "window", "pad", "slots", "counts", "totals",
                 "current", "actions", "rewards", "draws")

    def __init__(self, space: SpaceConfig, backs: list[int], epsilon: float, rngs: list) -> None:
        self.space = space
        self.base = epsilon / space.action_count
        self.episodes = np.arange(len(rngs))  # the live episodes, a row each
        widths = 2 + 3 * np.array(backs)
        self.window = np.full((len(rngs), widths.max()), -1, dtype=np.int32)
        self.window[:, 0] = self.episodes
        pad = np.arange(widths.max()) >= widths[:, None]
        self.pad = pad if pad.any() else None
        self.slots: dict[bytes, int] = {}
        self.counts, self.totals = (np.zeros((0, space.action_count)) for _ in range(2))
        # per episode: the slot of its key, its last action and last reward
        self.current, self.actions, self.rewards = (
            np.zeros(len(rngs), dtype=np.int64) for _ in range(3))
        self.draws = Ahead(rngs, 2, random_floats)

    def step(self, live, observations, numerators) -> np.ndarray:
        if live.size < self.episodes.size:  # drop the rows of episodes that stopped
            keep = self.episodes.searchsorted(live)
            self.episodes = live
            self.window, self.current, self.actions, self.rewards = (
                self.window[keep], self.current[keep], self.actions[keep], self.rewards[keep])
            if self.pad is not None:
                self.pad = self.pad[keep]
        window, n = self.window, self.space.action_count
        before = window.copy()
        if self.slots:  # each episode's last action earned this reward under its key
            at = self.current * n + self.actions
            np.put(self.counts, at, self.counts.take(at) + 1.0)
            np.put(self.totals, at,
                   self.totals.take(at) + numerators / self.space.reward_denominator)
            if window.shape[1] > 2:
                window[:, 5:] = window[:, 2:-3]
                window[:, 2], window[:, 3], window[:, 4] = self.actions, window[:, 1], self.rewards
                if self.pad is not None:
                    window[self.pad] = -1
        window[:, 1] = observations
        self.rewards = numerators
        moved = (window != before).any(axis=1).nonzero()[0]  # a kept key keeps its slot
        keys = window[moved].view(f"V{4 * window.shape[1]}").ravel().tolist()
        found = np.fromiter(map(self.slots.get, keys, repeat(-1)), np.int64, len(keys))
        new = (found < 0).nonzero()[0]  # one key per episode: none is new twice
        if new.size:
            found[new] = np.arange(len(self.slots), len(self.slots) + new.size)
            self.slots.update(zip([keys[i] for i in new.tolist()], found[new].tolist()))
            if len(self.slots) > len(self.counts):
                grow = np.zeros((len(self.slots), n))  # one table at a time: a lower peak
                self.counts = np.concatenate((self.counts, grow))
                self.totals = np.concatenate((self.totals, grow))
        self.current[moved] = found
        self.actions = self._act(self.current, self.draws.take(live))
        return self.actions

    def _act(self, current: np.ndarray, r: np.ndarray) -> np.ndarray:
        n = self.space.action_count
        counts = self.counts.take(current, axis=0)
        greedy = counts.all(axis=1).nonzero()[0]
        # row 0 is the uniform distribution, shared; then one row per greedy episode
        dist = np.full((1 + greedy.size, n), self.base)
        dist[0] = 1.0 / n
        if greedy.size:
            means = self.totals.take(current[greedy], axis=0) / counts[greedy]
            dist[np.arange(1, 1 + greedy.size), means.argmax(axis=1)] = 1.0 - self.base * (n - 1)
        sums = dist.cumsum(axis=1)  # act's running sum, in its order
        sums[:, -1] = np.inf
        actions = sums[0].searchsorted(r, side="right")
        actions[greedy] = (r[greedy, None] < sums[1:]).argmax(axis=1)
        return actions


class _Columns:
    """Batch policies side by side, each over a run of adjacent columns of one
    lockstep group: `starts` holds each run's first column, then the end."""

    __slots__ = ("policies", "starts")

    def __init__(self, policies: list, starts: list[int]) -> None:
        self.policies, self.starts = policies, starts

    def step(self, live, observations, numerators) -> np.ndarray:
        bounds = live.searchsorted(self.starts).tolist()
        return np.concatenate([
            policy.step(live[low:high] - start, observations[low:high], numerators[low:high])
            for policy, start, low, high in zip(self.policies, self.starts, bounds, bounds[1:])
            if low < high])


def batch_policy(columns: list) -> object:
    """One batch policy for a lockstep group whose columns are (factory,
    stream) pairs in order: the policies each factory's `make` builds from
    its streams, one batch form for each run of adjacent columns of one
    agent, but adjacent table learners with one epsilon share one
    `_TableBatch`, whose rows keep their own windows."""
    def form(column: tuple) -> object:
        factory = column[0]
        return (factory.space, factory.epsilon) if factory.learner else factory

    policies, starts = [], [0]
    for _, run in groupby(columns, key=form):
        factories, rngs = zip(*run)
        factory = factories[0]
        if factory.name == "random":
            policies.append(_UniformBatch(rngs, 1, partial(below, factory.space.action_count)))
        elif factory.name in _SCRIPTED_NAMES:
            policies.append(_ScriptedBatch(factory.name, rngs))
        else:
            policies.append(_TableBatch(factory.space, [f._back for f in factories],
                                        factory.epsilon, rngs))
        starts.append(starts[-1] + len(rngs))
    return policies[0] if len(policies) == 1 else _Columns(policies, starts)


# `<k>back` for k >= 1 in canonical form: "0back" would be an alias of basic
# and "01back" of 1back, and two roster entries would then share one name.
_KBACK_NAME = re.compile(r"[1-9][0-9]*back")
# A `<k>back` batch policy holds 2 + 3k int32 key fields per episode of a
# lockstep group and keeps each distinct key as their bytes, so its memory
# grows with k: 776 bytes a key at the cap.  Learners that share a batch
# policy take the longest window's width, so in a roster with 64back a basic
# row holds 194 key fields too.  More is almost surely a typo, which would
# fail in a NumPy allocation after enumeration and the proofs.
MAX_BACK = 64


@dataclass(frozen=True)
class AgentFactory:
    """Picklable handle of a built-in agent, which is its roster name:
    ``random`` (uniform actions), ``basic`` (greedy on per-observation
    next-reward means, with epsilon exploration), ``<k>back`` such as ``2back``
    (basic, conditioned on the last k <= MAX_BACK cycles as well), and the
    worked example's ``pi_opt``, ``pi_1`` and ``pi_2`` (always 1, uniform,
    and phase-switching; binary actions only).  The name seeds every random
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
        elif self.name not in ("random", "basic"):
            if not _KBACK_NAME.fullmatch(self.name):
                raise AgentGaugeError(f"unknown agent {self.name!r}")
            # digits first: int() refuses a string of more than 4,300
            if len(self.name) > len(f"{MAX_BACK}back") or self._back > MAX_BACK:
                raise AgentGaugeError(f"{self.name}: <k>back takes k at most {MAX_BACK}")

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
        return _TablePolicy(self.space, self._back, self.epsilon, rng)

    @property
    def learner(self) -> bool:
        """A table learner: `basic` or `<k>back`."""
        return self.name not in ("random",) + _SCRIPTED_NAMES

    @property
    def _back(self) -> int:
        """A learner's window: the cycles its key holds beyond the observation."""
        return 0 if self.name == "basic" else int(self.name[:-4])
