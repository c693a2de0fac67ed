"""Ensemble construction and the aggregate intelligence score.

The ensemble is the set of valid machine programs up to a length cutoff,
weighted by 2^-length (or a time-penalized variant), optionally deduplicated
by behavior signature so that programs indistinguishable up to a horizon are
valued once with their weights pooled.  An agent's score is the
weight-averaged expected total reward across the ensemble, with a confidence
interval propagated from the per-environment estimates (whose random streams
are disjoint by construction).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .environments import ProgramEnvironment
from .errors import EnsembleError
from .interaction import SpaceConfig
from .machine import (
    MachineConfig,
    enumerate_programs,
    prior_weight,
    signature_and_steps,
)
from .seeding import derive_seed
from .valuation import (
    ValuationParams,
    ValueEstimate,
    _summable_estimate,
    summable_episode_values,
)

WEIGHT_SCHEMES = ("length", "kt")


@dataclass(frozen=True)
class EnsembleSpec:
    """How to build the weighted environment ensemble."""

    max_program_length_bits: int = 24
    dedup_horizon: int | None = 8
    weight_scheme: str = "length"
    renormalize: bool = True
    sample_size: int | None = None

    def __post_init__(self) -> None:
        if self.max_program_length_bits < 1:
            raise EnsembleError("max_program_length_bits must be >= 1")
        if self.weight_scheme not in WEIGHT_SCHEMES:
            raise EnsembleError(f"unknown weight scheme {self.weight_scheme!r}")
        if self.dedup_horizon is not None and self.dedup_horizon < 1:
            raise EnsembleError("dedup_horizon must be >= 1 or None")
        if self.sample_size is not None and self.sample_size < 1:
            raise EnsembleError("sample_size must be >= 1 or None")

    @property
    def signature_horizon(self) -> int | None:
        """Horizon of the signature walk `build_ensemble` makes, None for none.

        Dedup walks to its own horizon; without dedup, `kt` weighting still
        walks to horizon 8 for the step counts it charges.
        """
        if self.dedup_horizon is not None:
            return self.dedup_horizon
        return 8 if self.weight_scheme == "kt" else None


@dataclass(frozen=True)
class EnsembleEntry:
    """One valued environment: a representative program and its pooled weight."""

    environment: ProgramEnvironment
    weight: float
    raw_weight: Fraction
    member_count: int

    @property
    def identifier(self) -> str:
        return self.environment.identifier

    @property
    def length_bits(self) -> int:
        return self.environment.program.length_bits


@dataclass(frozen=True)
class Ensemble:
    entries: tuple[EnsembleEntry, ...]
    kraft_sum: Fraction
    program_count: int
    spec: EnsembleSpec


def build_ensemble(spec: EnsembleSpec, machine: MachineConfig,
                   space: SpaceConfig = SpaceConfig(), seed: int = 0,
                   programs=None) -> Ensemble:
    """Enumerate, weight, deduplicate and optionally subsample environments.

    `programs` overrides enumeration with an explicit program list (e.g. a
    fixture file), still weighted and deduplicated the same way.
    """
    if programs is None:
        programs = enumerate_programs(spec.max_program_length_bits, machine)
    if not programs:
        raise EnsembleError(
            f"no valid program fits in {spec.max_program_length_bits} bits")
    kraft = sum((prior_weight(p) for p in programs), Fraction(0))

    horizon = spec.signature_horizon
    groups: dict[object, list] = {}
    for program in programs:
        if horizon is not None:
            signature, steps = signature_and_steps(program, horizon, machine, space)
        else:
            signature, steps = program.program_id, 1
        key = signature if spec.dedup_horizon is not None else program.program_id
        groups.setdefault(key, []).append((program, steps))

    raw_weights: list[Fraction] = []
    for members in groups.values():
        if spec.weight_scheme == "length":
            raw = sum((prior_weight(p) for p, _ in members), Fraction(0))
        else:
            # 2^-(|p| + log2 steps) == 2^-|p| / steps, kept exact as a Fraction
            raw = sum((prior_weight(p) / max(1, steps) for p, steps in members),
                      Fraction(0))
        raw_weights.append(raw)
    total = sum(raw_weights, Fraction(0))
    final = [
        EnsembleEntry(environment=ProgramEnvironment(members[0][0], machine, space),
                      weight=float(raw / total) if spec.renormalize else float(raw),
                      raw_weight=raw, member_count=len(members))
        for members, raw in zip(groups.values(), raw_weights)
    ]

    if spec.sample_size is not None:
        rng = np.random.default_rng(derive_seed(seed, "ensemble-sample"))
        probabilities = np.array([float(e.raw_weight / total) for e in final])
        picks = rng.choice(len(final), size=spec.sample_size, p=probabilities)
        counts = np.bincount(picks, minlength=len(final))
        sampled = []
        for index, count in enumerate(counts):
            if count:
                base = final[index]
                sampled.append(EnsembleEntry(
                    base.environment, count / spec.sample_size,
                    base.raw_weight, base.member_count))
        final = sampled

    return Ensemble(entries=tuple(final), kraft_sum=kraft, program_count=len(programs),
                    spec=spec)


@dataclass
class AgentMeasurement:
    """Aggregate score for one agent plus everything needed for comparisons.

    `truncation_bound` is the weighted sum of the environments' truncation
    bounds: the most reward the score can have missed by stopping episodes.
    """

    agent_name: str
    score: float
    ci_half_width: float
    estimates: dict[str, ValueEstimate] = field(repr=False)
    episode_values: dict[str, np.ndarray] = field(repr=False)
    failed_rollouts: int = 0
    truncation_bound: float = 0.0


def _value_entry_block(agent_factory, entries, params):
    """Worker unit: per-episode values for a block of ensemble entries."""
    out = []
    for entry in entries:
        values, mean_remaining, failed = summable_episode_values(
            agent_factory, entry.environment, params)
        out.append((values, mean_remaining, failed))
    return out


def estimate_intelligence(agent_factory, ensemble: Ensemble,
                          params: ValuationParams, workers: int = 1) -> AgentMeasurement:
    """Weight-averaged expected total reward of one agent over the ensemble."""
    if params.mode != "summable":
        raise EnsembleError("intelligence estimation uses summable valuation")
    entries = ensemble.entries
    if workers > 1:
        chunk = max(1, math.ceil(len(entries) / workers))
        blocks = [entries[i : i + chunk] for i in range(0, len(entries), chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_value_entry_block, agent_factory, block, params)
                       for block in blocks]
            results = []
            for future in futures:
                results.extend(future.result())
    else:
        results = _value_entry_block(agent_factory, entries, params)

    estimates: dict[str, ValueEstimate] = {}
    episode_values: dict[str, np.ndarray] = {}
    score = 0.0
    variance = 0.0
    truncation = 0.0
    failures = 0
    for entry, (values, mean_remaining, failed) in zip(entries, results):
        estimate = _summable_estimate(params, values, mean_remaining, failed)
        estimates[entry.identifier] = estimate
        episode_values[entry.identifier] = values
        score += entry.weight * estimate.mean
        variance += (entry.weight * estimate.ci_half_width) ** 2
        truncation += entry.weight * estimate.truncation_bound
        failures += failed
    return AgentMeasurement(
        agent_name=agent_factory.name,
        score=score,
        ci_half_width=math.sqrt(variance),
        estimates=estimates,
        episode_values=episode_values,
        failed_rollouts=failures,
        truncation_bound=truncation,
    )


@dataclass(frozen=True)
class AgentComparison:
    """Weighted mean per-environment value difference between two agents."""

    agent_a: str
    agent_b: str
    mean_difference: float
    ci_low: float
    ci_high: float
    significant: bool


def compare_agents(measurements: list[AgentMeasurement], ensemble: Ensemble,
                   seed: int = 0, bootstrap_samples: int = 2000,
                   confidence: float = 0.95) -> list[AgentComparison]:
    """Pairwise paired-by-environment comparisons with bootstrap intervals.

    The per-environment difference of means is weighted by ensemble weight;
    episode values are resampled per environment and agent to produce a
    percentile bootstrap interval for the weighted mean difference.  An
    ordering is significant when that interval excludes zero.
    """
    comparisons: list[AgentComparison] = []
    alpha = (1.0 - confidence) / 2.0
    for i in range(len(measurements)):
        for j in range(i + 1, len(measurements)):
            a, b = measurements[i], measurements[j]
            rng = np.random.default_rng(
                derive_seed(seed, "bootstrap", a.agent_name, b.agent_name))
            point = 0.0
            boot = np.zeros(bootstrap_samples)
            for entry in ensemble.entries:
                va = a.episode_values[entry.identifier]
                vb = b.episode_values[entry.identifier]
                point += entry.weight * (va.mean() - vb.mean())
                if np.array_equal(va, vb):
                    continue  # identical samples contribute exactly zero spread
                idx_a = rng.integers(0, len(va), size=(bootstrap_samples, len(va)))
                idx_b = rng.integers(0, len(vb), size=(bootstrap_samples, len(vb)))
                boot += entry.weight * (va[idx_a].mean(axis=1) - vb[idx_b].mean(axis=1))
            low, high = np.quantile(boot, [alpha, 1.0 - alpha])
            significant = bool(low > 0.0 or high < 0.0)
            comparisons.append(AgentComparison(
                agent_a=a.agent_name, agent_b=b.agent_name,
                mean_difference=point, ci_low=float(low), ci_high=float(high),
                significant=significant))
    return comparisons


@dataclass(frozen=True)
class SensitivityRow:
    machine_label: str
    opcode_table: tuple[str, ...]
    scores: dict[str, float]
    ordering: tuple[str, ...]
    ordering_preserved: bool


def machine_sensitivity(agent_factories, spec: EnsembleSpec, params: ValuationParams,
                        machines: list[MachineConfig], space: SpaceConfig = SpaceConfig(),
                        seed: int = 0, workers: int = 1) -> list[SensitivityRow]:
    """Scores per agent under each reference machine; report-only.

    The first machine is the baseline; each row records whether the agent
    ordering under that machine matches the baseline ordering.
    """
    rows: list[SensitivityRow] = []
    baseline_ordering: tuple[str, ...] | None = None
    for index, machine in enumerate(machines):
        ensemble = build_ensemble(spec, machine, space, seed=seed)
        scores = {}
        for factory in agent_factories:
            measurement = estimate_intelligence(factory, ensemble, params, workers=workers)
            scores[factory.name] = measurement.score
        ordering = tuple(sorted(scores, key=lambda name: (-scores[name], name)))
        if baseline_ordering is None:
            baseline_ordering = ordering
        rows.append(SensitivityRow(
            machine_label=f"machine-{index}",
            opcode_table=machine.opcode_table,
            scores=scores,
            ordering=ordering,
            ordering_preserved=ordering == baseline_ordering,
        ))
    return rows
