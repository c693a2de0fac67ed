"""Protocol types: space validation and the window keys learners build."""

from __future__ import annotations

import itertools

import pytest

from agentgauge.agents import AgentFactory
from agentgauge.interaction import Percept, SpaceConfig

BINARY = SpaceConfig(action_count=2, observation_count=2, reward_denominator=255)


class _Forced:
    """Random source that makes a binary learner take the scripted actions.

    The learner takes action 0 when its draw falls below the probability of
    action 0, which is positive at every history, and action 1 otherwise.
    """

    def __init__(self, actions):
        self.actions = iter(actions)

    def random(self):
        return 0.0 if next(self.actions) == 0 else 1.0 - 2.0 ** -53


def _pairs(percepts, actions, depth):
    """The last `depth` completed cycles before the current percept, newest first."""
    k = len(percepts) - 1  # index of the current percept
    return tuple((actions[j], *percepts[j]) for j in range(k - 1, max(k - depth, 0) - 1, -1))


def key(*moves, depth):
    """The key a `depth`-back learner holds after alternating percepts and actions."""
    percepts = [move for move in moves if isinstance(move, tuple)]
    actions = [move for move in moves if not isinstance(move, tuple)]
    policy = AgentFactory(f"{depth}back" if depth else "basic", BINARY).make(_Forced(actions))
    for k, percept in enumerate(percepts):
        policy.observe(Percept(*percept))
        if k < len(actions):
            assert policy.act() == actions[k]
    return policy.current_key


def test_space_config_validation():
    with pytest.raises(ValueError):
        SpaceConfig(action_count=0)
    with pytest.raises(ValueError):
        SpaceConfig(observation_count=0)
    with pytest.raises(ValueError):
        SpaceConfig(reward_denominator=0)


def test_history_key_depth_zero_is_current_observation_only():
    a = ((1, 0), 0, (1, 1))
    b = ((0, 1), 1, (1, 0), 1, (1, 0))
    assert key(*a, depth=0) == key(*b, depth=0)
    c = ((0, 0),)
    assert key(*a, depth=0) != key(*c, depth=0)


def test_history_key_equal_suffix_window():
    a = ((0, 0), 0, (1, 1), 1, (0, 0))
    b = ((1, 1), 0, (1, 1), 1, (0, 0))  # differs only in the first percept
    assert key(*a, depth=1) == key(*b, depth=1)
    assert key(*a, depth=2) != key(*b, depth=2)
    c = ((0, 0), 1, (0, 1), 0, (1, 1), 1, (0, 0))
    d = ((1, 0), 1, (0, 1), 0, (1, 1), 1, (0, 0))
    assert key(*c, depth=2) == key(*d, depth=2)
    assert key(*c, depth=3) != key(*d, depth=3)


def test_history_key_sensitive_to_previous_reward():
    a = ((0, 0), 1, (1, 0))
    b = ((0, 1), 1, (1, 0))  # r_{k-1} differs
    assert key(*a, depth=1) != key(*b, depth=1)
    assert key(*a, depth=0) == key(*b, depth=0)


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_history_key_injective_on_window_exhaustive(depth):
    # Brute force over all interactions of <= 3 cycles over binary spaces:
    # keys collide exactly when the suffix windows agree.
    percept_values = [(o, r) for o in (0, 1) for r in (0, 1)]
    seen: dict[tuple[int, ...], object] = {}
    for cycles in range(1, 4):
        for percepts in itertools.product(percept_values, repeat=cycles):
            for actions in itertools.product((0, 1), repeat=cycles - 1):
                window = (percepts[-1][0], _pairs(percepts, actions, depth))
                moves = [m for pair in itertools.zip_longest(percepts, actions)
                         for m in pair if m is not None]
                assert seen.setdefault(key(*moves, depth=depth), window) == window
    # and distinct windows never share a key
    windows = set(seen.values())
    assert len(windows) == len(seen)


def test_history_key_separates_window_lengths():
    # The same newest cycles with one more cycle behind them: a learner with
    # room for both windows must key them apart.
    short = ((1, 0), 1, (0, 1))
    longer = ((0, 1), 0) + short
    assert key(*short, depth=3) != key(*longer, depth=3)
    assert key(*longer, depth=3)[: len(key(*short, depth=3))] == key(*short, depth=3)
    assert key(*short, depth=1) == key(*longer, depth=1)
