"""Shared test helpers."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from agentgauge.seeding import derive_seed
from agentgauge.valuation import _summable_estimate, summable_episode_values


def _mixture_estimate(agent_factory, ensemble, params, draws):
    """Mixture-form cross-check of the score: draw an environment per episode.

    By linearity in the environment mixture this estimates the same number as
    the per-environment weighted sum that `estimate_intelligence` computes.
    Each draw is one `summable_episode_values` episode with its own seed, and
    the truncation bound counts the reward the drawn episodes could still
    have earned, as the per-environment estimates do.
    """
    rng = np.random.default_rng(derive_seed(params.seed, "mixture", agent_factory.name))
    weights = np.array([entry.weight for entry in ensemble.entries])
    picks = rng.choice(len(ensemble.entries), size=draws, p=weights / weights.sum())
    values, remainders = [], []
    for index, entry_index in enumerate(picks):
        one = dataclasses.replace(
            params, episodes=1, seed=derive_seed(params.seed, "mixture-episode", index))
        episode_values, remaining, _ = summable_episode_values(
            agent_factory, ensemble.entries[entry_index].environment, one)
        values.append(episode_values[0])
        remainders.append(remaining)
    return _summable_estimate(params, np.asarray(values), float(np.mean(remainders)), 0)


@pytest.fixture
def mixture_estimate():
    return _mixture_estimate
