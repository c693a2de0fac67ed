"""Ensemble building, aggregate scores and comparisons."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from agentgauge import measure, valuation
from agentgauge.agents import AgentFactory
from agentgauge.environments import ProgramEnvironment
from agentgauge.errors import EnsembleError
from agentgauge.interaction import SpaceConfig
from agentgauge.machine import (
    MachineConfig,
    enumerate_programs,
    load_program_file,
    prior_weight,
    proves_reward_free,
    reward_free_key,
    save_program_file,
    signature_and_steps,
)
from agentgauge.measure import (
    EnsembleSpec,
    build_ensemble,
    compare_agents,
    estimate_intelligence,
    estimate_roster,
)
from agentgauge.seeding import derive_seed
from agentgauge.valuation import ValuationParams, summable_episode_values
from natives import encode_program, reference_episode_values, reference_first_cycle_steps

MACHINE = MachineConfig()
SPACE = SpaceConfig()
PARAMS = ValuationParams(horizon=120, episodes=40, seed=17)


def small_spec(**overrides):
    defaults = dict(max_program_length_bits=17, dedup_horizon=6)
    defaults.update(overrides)
    return EnsembleSpec(**defaults)


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(max_workers=2) as executor:
        yield executor


def test_spec_validation():
    with pytest.raises(EnsembleError):
        EnsembleSpec(max_program_length_bits=0)
    with pytest.raises(EnsembleError):
        EnsembleSpec(weight_scheme="speed")
    with pytest.raises(EnsembleError):
        EnsembleSpec(dedup_horizon=0)


def test_raw_weights_sum_to_kraft_sum():
    ensemble = build_ensemble(small_spec(dedup_horizon=None), MACHINE, SPACE)
    total = sum((entry.raw_weight for entry in ensemble.entries), Fraction(0))
    assert total == ensemble.kraft_sum
    assert total <= 1


@pytest.fixture(scope="module")
def ensembles_24():
    """The 24-bit ensembles with dedup at 8 and off, with the programs each proved and walked."""
    built = {}
    with pytest.MonkeyPatch.context() as patch:
        for horizon in (8, None):
            proved, walked = [], []

            def counting(program, machine, space, proved=proved):
                proved.append(program)
                return proves_reward_free(program, machine, space)

            def walking(program, *args, walked=walked):
                walked.append(program)
                return signature_and_steps(program, *args)

            patch.setattr(measure, "proves_reward_free", counting)
            patch.setattr(measure, "signature_and_steps", walking)
            spec = EnsembleSpec(max_program_length_bits=24, dedup_horizon=horizon)
            built[horizon] = build_ensemble(spec, MACHINE, SPACE), proved, walked
    return built


def fraction_weights(programs, horizon, scheme="length"):
    """Kraft sum, raw weights and weights, in Fraction arithmetic, pooled by
    a walk of each program to `horizon` (None: one entry per program).

    `kt` divides each program's 2^-|p| by the steps of its first cycle in the
    reference interpreter, at every horizon.
    """
    groups = {}
    for program in programs:
        weight = prior_weight(program)
        key = program.bits
        if horizon is not None:
            key = signature_and_steps(program, horizon, MACHINE, SPACE)[0]
        if scheme == "kt":
            weight /= reference_first_cycle_steps(program, MACHINE)
        groups.setdefault(key, []).append(weight)
    raws = [sum(weights, Fraction(0)) for weights in groups.values()]
    total = sum(raws, Fraction(0))
    kraft = sum((prior_weight(p) for p in programs), Fraction(0))
    return kraft, raws, [float(raw / total) for raw in raws]


@pytest.mark.parametrize("horizon", [8, None], ids=["dedup-8", "dedup-off"])
def test_length_weights_equal_the_fraction_computation(ensembles_24, horizon):
    ensemble, _, _ = ensembles_24[horizon]
    kraft, raws, weights = fraction_weights(enumerate_programs(24, MACHINE), horizon)
    assert ensemble.kraft_sum == kraft
    assert [entry.raw_weight for entry in ensemble.entries] == raws
    assert [entry.weight for entry in ensemble.entries] == weights


@pytest.mark.parametrize("horizon", [8, None], ids=["dedup-8", "dedup-off"])
def test_kt_weights_equal_the_fraction_computation(horizon):
    # the build walks one program per key and counts each program's first
    # cycle from its summary; the weights are those of a walk and a cycle of each
    spec = EnsembleSpec(max_program_length_bits=24, dedup_horizon=horizon, weight_scheme="kt")
    ensemble = build_ensemble(spec, MACHINE, SPACE)
    kraft, raws, weights = fraction_weights(enumerate_programs(24, MACHINE), horizon, "kt")
    assert ensemble.kraft_sum == kraft
    assert [entry.raw_weight for entry in ensemble.entries] == raws
    assert [entry.weight for entry in ensemble.entries] == weights


@pytest.mark.parametrize("horizon, walks", [(8, 225), (None, 0)],
                         ids=["dedup-8", "dedup-off"])
def test_build_ensemble_walks_once_per_key(ensembles_24, horizon, walks):
    # `length` weights without dedup need no walk at all
    _, _, walked = ensembles_24[horizon]
    assert len(walked) == len({reward_free_key(p, MACHINE) for p in walked}) == walks


def test_kt_without_dedup_walks_nothing(monkeypatch):
    # kt takes each program's time from its own first cycle, not from a walk
    walked = []

    def walking(program, *args):
        walked.append(program)
        return signature_and_steps(program, *args)

    monkeypatch.setattr(measure, "signature_and_steps", walking)
    spec = EnsembleSpec(max_program_length_bits=24, dedup_horizon=None, weight_scheme="kt")
    assert len(build_ensemble(spec, MACHINE, SPACE).entries) == 3119
    assert walked == []


@pytest.mark.parametrize("horizon", [4, 8])
def test_kt_weights_do_not_depend_on_the_dedup_horizon(horizon):
    # a program's kt weight is 2^-|p| / t at every horizon, so each entry's
    # raw weight is the sum of its members' raw weights without dedup
    programs = enumerate_programs(21, MACHINE)
    alone = {entry.identifier: entry.raw_weight for entry in build_ensemble(
        EnsembleSpec(max_program_length_bits=21, dedup_horizon=None, weight_scheme="kt"),
        MACHINE, SPACE).entries}
    members = {}
    for program in programs:
        signature = signature_and_steps(program, horizon, MACHINE, SPACE)[0]
        members.setdefault(signature, []).append(program.program_id)
    pooled = build_ensemble(
        EnsembleSpec(max_program_length_bits=21, dedup_horizon=horizon, weight_scheme="kt"),
        MACHINE, SPACE).entries
    assert len(pooled) < len(alone)
    assert [(entry.identifier, entry.member_count, entry.raw_weight) for entry in pooled] == [
        (ids[0], len(ids), sum((alone[i] for i in ids), Fraction(0)))
        for ids in members.values()]


@pytest.mark.parametrize("horizon, lockstepped, calls, replayed, rollouts, unplayed",
                         [(8, 23, 23, 13, 13, 14), (None, 150, 70, 94, 38, 2875)],
                         ids=["dedup-8", "dedup-off"])
def test_valuation_dispatch_at_24_bits(ensembles_24, monkeypatch, horizon, lockstepped, calls,
                                       replayed, rollouts, unplayed):
    # the scalar rollout gives the lockstep's values, only slower, so a silent
    # fallback from _lockstep would fail no value test: pin which entries
    # run in lockstep, which replay one agent-free episode, and which are
    # proven reward-free and play nothing, and how many calls each takes.
    # Without dedup, 16 entries whose reads or random bits all lie past the
    # cycle's emit, or are overwritten within it, replay one episode, and the
    # entries of one reward_free_key share one lockstep call or one replay;
    # with dedup each key lies in one entry
    ensemble, _, _ = ensembles_24[horizon]
    lockstep, rollout = valuation._lockstep, valuation._rollout
    locked, rolled = [], []

    def locking(factories, environments, *args):
        locked.append([env_model.identifier for env_model in environments])
        return lockstep(factories, environments, *args)

    def rolling(agent_factory, env_model, seed, index, *args):
        rolled.append((env_model.identifier, index))
        return rollout(agent_factory, env_model, seed, index, *args)

    monkeypatch.setattr(valuation, "_lockstep", locking)
    monkeypatch.setattr(valuation, "_rollout", rolling)
    params = ValuationParams(horizon=20, episodes=3, seed=5)
    factory = AgentFactory("basic", SPACE)
    measurement = estimate_intelligence(factory, ensemble, params)
    environments = {entry.identifier: entry.environment for entry in ensemble.entries}
    keys = {identifier: reward_free_key(env_model.program, MACHINE)
            for identifier, env_model in environments.items()}
    in_lockstep = [identifier for call in locked for identifier in call]
    assert len(set(in_lockstep)) == len(in_lockstep) == lockstepped
    assert len(locked) == len({keys[call[0]] for call in locked}) == calls
    assert all({keys[identifier] for identifier in call} == {keys[call[0]]} for call in locked)
    assert len(set(rolled)) == len(rolled) == rollouts
    assert {index for _, index in rolled} <= {0}
    replays = {identifier for identifier in environments
               if keys[identifier] in {keys[rolled_id] for rolled_id, _ in rolled}}
    assert len(replays) == replayed and not replays & set(in_lockstep)
    assert len(set(environments) - set(in_lockstep) - replays) == unplayed
    assert len(environments) == lockstepped + replayed + unplayed
    # a replayed entry valued alone gives the values and bound its key shared
    for identifier in replays:
        values, estimate = summable_episode_values(factory, environments[identifier], params)
        assert np.array_equal(values, measurement.episode_values[identifier])
        assert estimate == measurement.estimates[identifier]


def test_key_groups_change_no_bit(ensembles_24, pool, monkeypatch):
    # Without dedup the entries of one reward_free_key share one lockstep
    # call, whose columns run agent by agent, entry by entry, yet every
    # episode keeps the value its own agent, entry and index give alone: on
    # the pool, serially, and in groups of 7 columns, which end inside and
    # between entries
    ensemble, _, _ = ensembles_24[None]
    params = ValuationParams(horizon=20, episodes=3, seed=13)
    names = ("random", "basic", "2back")
    want = {(name, entry.identifier): reference_episode_values(
                AgentFactory(name, SPACE), entry.environment, params)
            for name in names for entry in ensemble.entries}

    def check(measurements):
        for measurement in measurements:
            for entry in ensemble.entries:
                want_values, want_estimate = want[measurement.agent_name, entry.identifier]
                assert np.array_equal(measurement.episode_values[entry.identifier], want_values)
                assert measurement.estimates[entry.identifier] == want_estimate

    rosters = ([AgentFactory(name, SPACE) for name in names], [AgentFactory("random", SPACE)])
    for roster in rosters:
        check(estimate_roster(roster, ensemble, params, pool=pool))
    for group in (valuation._LOCKSTEP_EPISODES, 7):
        monkeypatch.setattr(valuation, "_LOCKSTEP_EPISODES", group)
        for roster in rosters:
            check(estimate_roster(roster, ensemble, params))


def test_length_weights_of_a_programs_file_equal_the_fraction_computation(tmp_path):
    path = tmp_path / "envs.progs"
    save_program_file(path, enumerate_programs(17, MACHINE)[::3])
    programs = load_program_file(path, MACHINE)
    ensemble = build_ensemble(small_spec(dedup_horizon=4), MACHINE, SPACE, programs=programs)
    kraft, raws, weights = fraction_weights(programs, 4)
    assert ensemble.kraft_sum == kraft
    assert [entry.raw_weight for entry in ensemble.entries] == raws
    assert [entry.weight for entry in ensemble.entries] == weights


@pytest.mark.parametrize("horizon, proofs", [(8, 50), (None, 225)],
                         ids=["dedup-8", "dedup-off"])
def test_build_ensemble_proves_once_per_key(ensembles_24, horizon, proofs):
    ensemble, proved, _ = ensembles_24[horizon]
    programs = [entry.environment.program for entry in ensemble.entries]
    assert len(proved) == len({reward_free_key(p, MACHINE) for p in proved}) == proofs
    assert len({reward_free_key(p, MACHINE) for p in programs}) == proofs
    assert ([entry.environment.reward_free for entry in ensemble.entries]
            == [proves_reward_free(p, MACHINE, SPACE) for p in programs])


def test_renormalized_weights_sum_to_one():
    ensemble = build_ensemble(small_spec(), MACHINE, SPACE)
    assert sum(entry.weight for entry in ensemble.entries) == pytest.approx(1.0, abs=2 ** -40)


def test_dedup_pools_zero_behavior_class():
    ensemble = build_ensemble(small_spec(), MACHINE, SPACE)
    zero_entry = next(e for e in ensemble.entries
                      if e.environment.program.bits == "1")
    assert zero_entry.member_count > 1
    assert zero_entry.raw_weight > Fraction(1, 2)  # more than the empty program alone


def test_degenerate_single_environment_ensemble():
    program = encode_program(["dec", "move_left", "emit"], MACHINE)
    ensemble = build_ensemble(small_spec(), MACHINE, SPACE, programs=[program])
    assert len(ensemble.entries) == 1
    assert ensemble.entries[0].weight == 1.0
    measurement = estimate_intelligence(AgentFactory("random", SPACE), ensemble, PARAMS)
    _, direct = summable_episode_values(
        AgentFactory("random", SPACE),
        ProgramEnvironment(program, MACHINE, SPACE, reward_free=False), PARAMS)
    assert measurement.score == direct.mean == 1.0


def test_all_zero_ensemble_scores_zero():
    ensemble = build_ensemble(EnsembleSpec(max_program_length_bits=1), MACHINE, SPACE)
    for factory in (AgentFactory("random", SPACE), AgentFactory("basic", SPACE)):
        assert estimate_intelligence(factory, ensemble, PARAMS).score == 0.0


def test_score_is_weighted_sum_of_environment_values():
    ensemble = build_ensemble(small_spec(), MACHINE, SPACE)
    measurement = estimate_intelligence(AgentFactory("random", SPACE), ensemble, PARAMS)
    manual = sum(entry.weight * measurement.estimates[entry.identifier].mean
                 for entry in ensemble.entries)
    assert measurement.score == pytest.approx(manual, rel=1e-12)
    assert 0.0 <= measurement.score <= 1.0


def test_mixture_estimator_agrees_with_weighted_sum(mixture_estimate):
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
    weighted = estimate_intelligence(AgentFactory("random", SPACE), ensemble, PARAMS)
    mixture = mixture_estimate(AgentFactory("random", SPACE), ensemble, PARAMS, draws=800)
    gap = abs(weighted.score - mixture.mean)
    assert gap <= weighted.ci_half_width + 1.5 * mixture.ci_half_width


def test_mixture_truncation_bound_counts_unearned_reward(mixture_estimate):
    # At horizon 5 a reward-capable program has most of its budget unspent
    # when the episodes stop, and the mixture estimate must count it, not
    # just trunc_epsilon.
    program = encode_program(["read_action", "move_left", "emit"], MACHINE)
    ensemble = build_ensemble(small_spec(), MACHINE, SPACE, programs=[program])
    params = ValuationParams(horizon=5, episodes=20, seed=0)
    mixture = mixture_estimate(AgentFactory("random", SPACE), ensemble, params, draws=2000)
    assert mixture.truncation_bound >= 1e-3


def test_compare_agent_with_itself_is_exact_zero():
    ensemble = build_ensemble(small_spec(), MACHINE, SPACE)
    a = estimate_intelligence(AgentFactory("random", SPACE), ensemble, PARAMS)
    b = estimate_intelligence(AgentFactory("random", SPACE), ensemble, PARAMS)
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


@pytest.mark.parametrize("scheme", ["length", "kt"])
@pytest.mark.parametrize("dedup", [8, None])
def test_pooled_ensemble_matches_the_serial_one(pool, dedup, scheme):
    spec = small_spec(dedup_horizon=dedup, weight_scheme=scheme)

    def facts(ensemble):
        return [(e.identifier, e.raw_weight, e.weight, e.member_count)
                for e in ensemble.entries]

    serial = build_ensemble(spec, MACHINE, SPACE)
    assert facts(build_ensemble(spec, MACHINE, SPACE, pool=pool)) == facts(serial)


def test_estimation_is_deterministic_and_worker_independent(pool):
    # one agent, a roster valued together, and their comparisons, with and
    # without the pool: the same bits
    ensemble = build_ensemble(small_spec(), MACHINE, SPACE)
    one = estimate_intelligence(AgentFactory("basic", SPACE), ensemble, PARAMS)
    two = estimate_intelligence(AgentFactory("basic", SPACE), ensemble, PARAMS, pool=pool)
    again = estimate_intelligence(AgentFactory("basic", SPACE), ensemble, PARAMS)
    assert one.score == two.score == again.score
    assert one.ci_half_width == two.ci_half_width
    for key, values in one.episode_values.items():
        assert np.array_equal(values, two.episode_values[key])
    roster = [AgentFactory(name, SPACE) for name in ("random", "basic", "2back")]
    serial = estimate_roster(roster, ensemble, PARAMS)
    pooled = estimate_roster(roster, ensemble, PARAMS, pool=pool)
    for alone, together, in_pool in zip(
            [estimate_intelligence(f, ensemble, PARAMS) for f in roster], serial, pooled):
        assert alone.estimates == together.estimates == in_pool.estimates
        for key, values in alone.episode_values.items():
            assert np.array_equal(values, together.episode_values[key])
            assert np.array_equal(values, in_pool.episode_values[key])
    comparisons = compare_agents(serial, ensemble, seed=3, bootstrap_samples=500)
    assert compare_agents(serial, ensemble, seed=3, bootstrap_samples=500,
                          pool=pool) == comparisons
    assert len(comparisons) == 3 and any(c.ci_low != c.ci_high for c in comparisons)


class _PublicFactory(AgentFactory):
    """A built-in agent whose policies are not declared private."""

    private_policies = False


@pytest.mark.parametrize("names, alone", [
    (("random", "basic", "2back"), []),
    (("random",), ["random"]),
    (("random", "public"), ["random", "basic"]),
    (("public", "random", "2back"), ["basic"]),
])
def test_a_roster_values_alone_only_what_cannot_play_together(monkeypatch, names, alone):
    # The agents with private policies are valued together when there are
    # two or more; every other agent goes through estimate_intelligence, the
    # name the bench's tracer wraps, in the given order, and the
    # measurements keep the roster's order.
    ensemble = build_ensemble(small_spec(), MACHINE, SPACE)
    params = ValuationParams(horizon=20, episodes=3, seed=2)
    roster = [_PublicFactory("basic", SPACE) if name == "public" else AgentFactory(name, SPACE)
              for name in names]
    called = []
    estimate = measure.estimate_intelligence

    def counting(agent_factory, *args):
        called.append(agent_factory.name)
        return estimate(agent_factory, *args)

    monkeypatch.setattr(measure, "estimate_intelligence", counting)
    measurements = estimate_roster(roster, ensemble, params)
    assert called == alone
    assert [m.agent_name for m in measurements] == [f.name for f in roster]
    for factory, measurement in zip(roster, measurements):
        assert measurement.estimates == estimate(factory, ensemble, params).estimates


def test_bootstrap_resamples_in_blocks_with_the_bits_of_one_draw(monkeypatch):
    # A comparison resamples each entry's episode values a block of rows at
    # a time, all of a's before b's: the bits of one (samples x episodes)
    # draw of each, with a peak memory of a few blocks, not of the draws
    block = 1 << 12
    monkeypatch.setattr(measure, "_BOOTSTRAP_BLOCK_DRAWS", block)
    values = np.random.default_rng(0)
    columns = [(values.random(n), values.random(m)) for n, m in ((7, 7), (100, 3), (1000, 999))]
    columns.insert(1, (columns[0][0],) * 2)  # equal samples draw nothing
    weights = [0.4, 0.1, 0.3, 0.2]
    samples = 500  # 500,000 draws of the last entry's a, 122 blocks
    got = measure._compared(("a", "b", columns), weights, 9, samples, 0.9)
    tracemalloc.start()  # after the first call's lazy imports
    try:
        assert measure._compared(("a", "b", columns), weights, 9, samples, 0.9) == got
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rng = np.random.default_rng(derive_seed(9, "bootstrap", "a", "b"))
    point, boot = 0.0, np.zeros(samples)
    for weight, (va, vb) in zip(weights, columns):
        point += weight * (va.mean() - vb.mean())
        if np.array_equal(va, vb):
            continue
        idx_a = rng.integers(0, len(va), size=(samples, len(va)))
        idx_b = rng.integers(0, len(vb), size=(samples, len(vb)))
        boot += weight * (va[idx_a].mean(axis=1) - vb[idx_b].mean(axis=1))
    alpha = (1.0 - 0.9) / 2.0
    low, high = np.quantile(boot, [alpha, 1.0 - alpha])
    assert (got.mean_difference, got.ci_low, got.ci_high) == (point, low, high)
    assert peak < 3 * 24 * block + 4 * 8 * samples
