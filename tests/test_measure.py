"""Ensemble building, aggregate scores, comparisons, machine sensitivity."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from agentgauge.agents import basic_agent, random_agent
from agentgauge.environments import ProgramEnvironment
from agentgauge.errors import EnsembleError
from agentgauge.interaction import SpaceConfig
from agentgauge.machine import INSTRUCTION_NAMES, MachineConfig, encode_program
from agentgauge.measure import (
    EnsembleSpec,
    build_ensemble,
    compare_agents,
    estimate_intelligence,
    estimate_intelligence_mixture,
    machine_sensitivity,
)
from agentgauge.valuation import ValuationParams, summable_value

MACHINE = MachineConfig()
SPACE = SpaceConfig()
PARAMS = ValuationParams(mode="summable", horizon=120, episodes=40, seed=17)


def small_spec(**overrides):
    defaults = dict(max_program_length_bits=17, dedup_horizon=6)
    defaults.update(overrides)
    return EnsembleSpec(**defaults)


def test_spec_validation():
    with pytest.raises(EnsembleError):
        EnsembleSpec(max_program_length_bits=0)
    with pytest.raises(EnsembleError):
        EnsembleSpec(weight_scheme="speed")
    with pytest.raises(EnsembleError):
        EnsembleSpec(dedup_horizon=0)
    with pytest.raises(EnsembleError):
        EnsembleSpec(sample_size=0)


def test_raw_weights_sum_to_kraft_sum():
    ensemble = build_ensemble(small_spec(dedup_horizon=None, renormalize=False),
                              MACHINE, SPACE)
    total = sum((entry.raw_weight for entry in ensemble.entries), Fraction(0))
    assert total == ensemble.kraft_sum
    assert total <= 1
    assert sum(entry.weight for entry in ensemble.entries) == pytest.approx(float(total))


def test_renormalized_weights_sum_to_one():
    ensemble = build_ensemble(small_spec(), MACHINE, SPACE)
    assert sum(entry.weight for entry in ensemble.entries) == pytest.approx(1.0, abs=2 ** -40)


def test_dedup_pools_zero_behavior_class():
    ensemble = build_ensemble(small_spec(renormalize=False), MACHINE, SPACE)
    zero_entry = next(e for e in ensemble.entries
                      if e.environment.program.bits == "1")
    assert zero_entry.member_count > 1
    assert zero_entry.raw_weight > Fraction(1, 2)  # more than the empty program alone


def test_degenerate_single_environment_ensemble():
    program = encode_program(["dec", "move_left", "emit"], MACHINE)
    ensemble = build_ensemble(small_spec(), MACHINE, SPACE, programs=[program])
    assert len(ensemble.entries) == 1
    assert ensemble.entries[0].weight == 1.0
    measurement = estimate_intelligence(random_agent(SPACE), ensemble, PARAMS)
    direct = summable_value(random_agent(SPACE),
                            ProgramEnvironment(program, MACHINE, SPACE), PARAMS)
    assert measurement.score == direct.mean == 1.0


def test_all_zero_ensemble_scores_zero():
    ensemble = build_ensemble(EnsembleSpec(max_program_length_bits=1), MACHINE, SPACE)
    for factory in (random_agent(SPACE), basic_agent(SPACE)):
        assert estimate_intelligence(factory, ensemble, PARAMS).score == 0.0


def test_score_is_weighted_sum_of_environment_values():
    ensemble = build_ensemble(small_spec(), MACHINE, SPACE)
    measurement = estimate_intelligence(random_agent(SPACE), ensemble, PARAMS)
    manual = sum(entry.weight * measurement.estimates[entry.identifier].mean
                 for entry in ensemble.entries)
    assert measurement.score == pytest.approx(manual, rel=1e-12)
    assert 0.0 <= measurement.score <= 1.0


def test_mixture_estimator_agrees_with_weighted_sum():
    # Linearity of the value in the environment mixture: sampling an
    # environment per episode estimates the same number.  A concentrated
    # ensemble keeps the mixture estimator's variance sane.
    programs = [
        encode_program(["dec", "move_left", "emit"], MACHINE),
        encode_program(["read_action", "move_left", "emit"], MACHINE),
        encode_program(["random_bit", "move_left", "emit"], MACHINE),
        encode_program(["inc", "emit"], MACHINE),
    ]
    ensemble = build_ensemble(small_spec(), MACHINE, SPACE, programs=programs)
    weighted = estimate_intelligence(random_agent(SPACE), ensemble, PARAMS)
    mixture = estimate_intelligence_mixture(random_agent(SPACE), ensemble, PARAMS,
                                            draws=800)
    gap = abs(weighted.score - mixture.mean)
    assert gap <= weighted.ci_half_width + 1.5 * mixture.ci_half_width


def test_mixture_truncation_bound_counts_unearned_reward():
    # At horizon 5 most budget is still unspent when the episodes stop; the
    # per-environment estimates bound it at about 6e-3 of weighted reward,
    # and the mixture estimate must count it too, not just trunc_epsilon.
    spec = EnsembleSpec(max_program_length_bits=17, dedup_horizon=6)
    ensemble = build_ensemble(spec, MACHINE, SPACE)
    params = ValuationParams(mode="summable", horizon=5, episodes=20, seed=0)
    mixture = estimate_intelligence_mixture(random_agent(SPACE), ensemble, params,
                                            draws=2000)
    assert mixture.truncation_bound >= 1e-3
    with pytest.raises(EnsembleError):
        estimate_intelligence_mixture(random_agent(SPACE), ensemble, params, draws=0)


def test_compare_agent_with_itself_is_exact_zero():
    ensemble = build_ensemble(small_spec(), MACHINE, SPACE)
    a = estimate_intelligence(random_agent(SPACE), ensemble, PARAMS)
    b = estimate_intelligence(random_agent(SPACE), ensemble, PARAMS)
    comparison = compare_agents([a, b], ensemble, seed=5)[0]
    assert comparison.mean_difference == 0.0
    assert (comparison.ci_low, comparison.ci_high) == (0.0, 0.0)
    assert not comparison.significant


def test_monotone_ensemble_growth():
    small = build_ensemble(EnsembleSpec(max_program_length_bits=11, dedup_horizon=None),
                           MACHINE, SPACE)
    large = build_ensemble(EnsembleSpec(max_program_length_bits=17, dedup_horizon=None),
                           MACHINE, SPACE)
    small_ids = [e.identifier for e in small.entries]
    large_ids = [e.identifier for e in large.entries]
    assert large_ids[: len(small_ids)] == small_ids


def test_kt_weight_scheme_builds_and_normalizes():
    ensemble = build_ensemble(small_spec(weight_scheme="kt"), MACHINE, SPACE)
    weights = [entry.weight for entry in ensemble.entries]
    assert all(w > 0 for w in weights)
    assert sum(weights) == pytest.approx(1.0, abs=2 ** -40)


def test_sampled_ensemble_weights_are_frequencies():
    ensemble = build_ensemble(small_spec(sample_size=64), MACHINE, SPACE, seed=9)
    assert sum(entry.weight for entry in ensemble.entries) == pytest.approx(1.0)
    assert all(entry.weight * 64 == round(entry.weight * 64) for entry in ensemble.entries)


def test_estimation_is_deterministic_and_worker_independent():
    ensemble = build_ensemble(small_spec(), MACHINE, SPACE)
    one = estimate_intelligence(basic_agent(SPACE), ensemble, PARAMS, workers=1)
    two = estimate_intelligence(basic_agent(SPACE), ensemble, PARAMS, workers=2)
    again = estimate_intelligence(basic_agent(SPACE), ensemble, PARAMS, workers=1)
    assert one.score == two.score == again.score
    assert one.ci_half_width == two.ci_half_width
    for key, values in one.episode_values.items():
        assert np.array_equal(values, two.episode_values[key])


def test_sensitivity_identity_rows_match_bit_exactly():
    spec = EnsembleSpec(max_program_length_bits=11, dedup_horizon=4)
    params = ValuationParams(mode="summable", horizon=60, episodes=20, seed=3)
    factories = [random_agent(SPACE), basic_agent(SPACE)]
    machines = [MACHINE, MachineConfig()]  # the identity permutation twice
    rows = machine_sensitivity(factories, spec, params, machines, SPACE, seed=3)
    assert rows[0].scores == rows[1].scores
    assert rows[1].ordering_preserved


def test_sensitivity_permuted_table_reports_per_machine_scores():
    # Fixed-width opcodes make a table permutation an isomorphism of the
    # weighted ensemble, so scores move only through the reshuffled random
    # streams; the report must still carry each machine's scores and an
    # ordering-preservation flag.
    table = list(INSTRUCTION_NAMES)
    table[0], table[8] = table[8], table[0]  # swap move_right and emit
    permuted = MachineConfig(opcode_table=tuple(table))
    spec = EnsembleSpec(max_program_length_bits=17, dedup_horizon=6)
    params = ValuationParams(mode="summable", horizon=120, episodes=40, seed=3)
    rows = machine_sensitivity([random_agent(SPACE), basic_agent(SPACE)],
                               spec, params, [MACHINE, permuted], SPACE, seed=3)
    assert rows[0].ordering_preserved  # the baseline row trivially preserves itself
    assert set(rows[1].scores) == {"random", "basic"}
    assert rows[0].scores != rows[1].scores  # stream relabeling moves the noise
    assert rows[1].opcode_table == tuple(table)
