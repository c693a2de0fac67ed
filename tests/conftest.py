"""Shared test helpers."""

from __future__ import annotations

import dataclasses
import math
from statistics import NormalDist

import numpy as np
import pytest

from agentgauge.seeding import derive_seed
from agentgauge.valuation import ValueEstimate, summable_episode_values


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
    values, bounds = [], []
    for index, entry_index in enumerate(picks):
        one = dataclasses.replace(
            params, episodes=1, seed=derive_seed(params.seed, "mixture-episode", index))
        episode_values, estimate = summable_episode_values(
            agent_factory, ensemble.entries[entry_index].environment, one)
        values.append(episode_values[0])
        bounds.append(estimate.truncation_bound)
    # each draw's bound is trunc_epsilon plus the reward it could still have
    # earned, so their mean bounds the reward the mixture missed
    z = NormalDist().inv_cdf((1.0 + params.confidence) / 2.0)
    return ValueEstimate(
        mean=float(np.mean(values)),
        ci_half_width=z * float(np.std(values, ddof=1)) / math.sqrt(draws),
        episodes_used=draws, truncation_bound=float(np.mean(bounds)))


@pytest.fixture
def mixture_estimate():
    return _mixture_estimate
