"""Batch command-line front end.

Subcommands:

* ``run <config>``: full benchmark run from a flat key=value config file;
  writes report.json, rows.csv and manifest.json to the configured output
  directory.  Exit code 2 flags configuration problems, 1 runtime failures.
* ``example-study``: reproduces the worked copy-environment analysis
  (per-cycle reward profiles of the three scripted agents and discounted
  values over a gamma grid).
* ``enumerate``: enumerates valid programs up to a length cutoff.
* ``sensitivity``: re-scores agents under permuted opcode tables.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import math
import pathlib
import random
import sys

import numpy as np

from .agents import AgentFactory
from .config import load_config
from .environments import CopyEnvironment
from .errors import AgentGaugeError, ConfigError
from .external import ExternalAgentHost
from .interaction import SpaceConfig
from .machine import (
    INSTRUCTION_NAMES,
    MachineConfig,
    enumerate_programs,
    kraft_sum,
    load_program_file,
    save_program_file,
)
from .measure import (
    MAX_PROGRAM_LENGTH_BITS,
    build_ensemble,
    compare_agents,
    estimate_roster,
)
from .reports import build_manifest, build_report, dump_json, write_run_outputs
from .seeding import derive_seed
from .valuation import MAX_EPISODES, ValuationParams, per_cycle_reward_profile

# A fork-started pool forks all --workers processes at its first submit.
MAX_WORKERS = 64
# A reward profile holds a float per cycle; ten million of them take 80 MB.
MAX_STUDY_CYCLES = 10_000_000
# The study's 15 discounted values take about 5 s at this many episodes.
MAX_DISCOUNT_EPISODES = 100_000
# The number of distinct opcode tables.
MAX_PERMUTATIONS = math.factorial(len(INSTRUCTION_NAMES))


# Imported by _worker_pool when a command first makes a pool: the pool's
# modules cost a run at one worker about 15 ms of start-up.
ProcessPoolExecutor = None


def _worker_pool(workers: int):
    """The command's one process pool, or a context giving None at 1 worker."""
    global ProcessPoolExecutor
    if workers == 1:
        return contextlib.nullcontext()
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(workers)


def _cmd_run(args) -> int:
    config = load_config(args.config)
    externals = [f for f in config.agents if isinstance(f, ExternalAgentHost)]
    workers = args.workers
    if externals and workers > 1:
        print("external agents require workers=1; reducing", file=sys.stderr)
        workers = 1
    try:
        programs = None
        if config.programs_file:
            programs = load_program_file(config.programs_file, config.machine)
        with _worker_pool(workers) as pool:
            ensemble = build_ensemble(config.ensemble_spec, config.machine,
                                      config.space, programs=programs, pool=pool)
            measurements = estimate_roster(config.agents, ensemble, config.valuation, pool=pool)
            comparisons = compare_agents(
                measurements, ensemble, seed=config.seed,
                bootstrap_samples=config.bootstrap_samples,
                confidence=config.valuation.confidence, pool=pool)
        warnings = {f.name: f.timeout_warnings for f in externals}
        report = build_report(config.seed, ensemble, measurements, comparisons,
                              config.valuation, external_warnings=warnings)
        manifest = build_manifest("run", config.seed, config.raw)
        write_run_outputs(config.output_dir, report, manifest)
    finally:
        for host in externals:
            host.close()
    for measurement in measurements:
        print(f"{measurement.agent_name}: intelligence="
              f"{measurement.score:.6g} +- {measurement.ci_half_width:.2g} "
              f"truncated<={measurement.truncation_bound:.2g}")
    print(f"report written to {config.output_dir}")
    return 0


def _cmd_example_study(args) -> int:
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    space = SpaceConfig(action_count=2, observation_count=1, reward_denominator=1)
    env = CopyEnvironment(space)
    trio = [AgentFactory(name, space) for name in ("pi_opt", "pi_1", "pi_2")]
    cycles = args.cycles
    episodes = args.episodes

    gammas = [0.5, 0.7, 0.9, 0.95, 0.99]
    discounts = [ValuationParams(gamma=gamma, horizon=10 ** 6, episodes=args.discount_episodes,
                                 trunc_epsilon=1e-12, seed=args.seed) for gamma in gammas]
    profiles, discounted = {}, {}
    for factory in trio:
        # one pass per agent; bench/launch.py ends set-up at this name's first call
        profiles[factory.name], estimates = per_cycle_reward_profile(
            factory, env, cycles=cycles, episodes=episodes, seed=args.seed, discounts=discounts)
        discounted[factory.name] = {
            repr(gamma): {"mean": estimate.mean, "ci_half_width": estimate.ci_half_width}
            for gamma, estimate in zip(gammas, estimates)}

    with open(out / "profiles.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["cycle"] + [f.name for f in trio])
        for k in range(cycles):
            writer.writerow([k + 1] + [repr(float(profiles[f.name][k])) for f in trio])

    def phase_mean(profile: np.ndarray, first: int, last: int) -> float | None:
        """Mean reward of cycles first..last, or None when the run ends before first."""
        return float(profile[first - 1 : last].mean()) if last >= first else None

    phases = {}
    for factory in trio:
        profile = profiles[factory.name]
        phases[factory.name] = {
            "short_2_101": phase_mean(profile, 2, min(101, cycles)),
            "medium_102_5001": phase_mean(profile, 102, min(5001, cycles)),
            "long_after_5001": phase_mean(profile, 5002, cycles),
        }

    def ordering(key: str) -> list[str] | None:
        means = {name: phases[name][key] for name in phases}
        if None in means.values():
            return None
        return sorted(means, key=lambda n: -means[n])

    study = {
        "seed": args.seed,
        "episodes": episodes,
        "cycles": cycles,
        "phase_means": phases,
        "phase_ordering": {key: ordering(key) for key in
                           ("short_2_101", "medium_102_5001", "long_after_5001")},
        "summary": [
            "short term (reward cycles 2-101): the uniform agent out-earns the "
            "phase-switching agent",
            "medium term (cycles 102-5001): the phase-switching agent has moved to "
            "always guessing 1 and dominates",
            "long term (after cycle 5001): both randomize and tie",
        ],
        "discounted_values": discounted,
    }
    (out / "study.json").write_text(dump_json(study), encoding="utf-8")
    manifest = build_manifest("example-study", args.seed, {
        key: str(getattr(args, key)) for key in ("episodes", "cycles", "discount_episodes")})
    (out / "manifest.json").write_text(dump_json(manifest), encoding="utf-8")
    print(f"example study written to {out}")
    return 0


def _cmd_enumerate(args) -> int:
    machine = MachineConfig()
    programs = enumerate_programs(args.max_len, machine)
    kraft = kraft_sum(programs)
    print(f"valid programs with length <= {args.max_len} bits: {len(programs)}")
    print(f"kraft sum: {kraft} (= {float(kraft):.6f})")
    if args.out:
        save_program_file(args.out, programs)
        print(f"programs written to {args.out}")
    return 0


def _cmd_sensitivity(args) -> int:
    config = load_config(args.config)
    if config.programs_file:
        raise ConfigError("ensemble.programs_file: sensitivity enumerates the ensemble "
                          "under each opcode table, where the same bits decode to "
                          "other programs")
    external = [f.name for f in config.agents if isinstance(f, ExternalAgentHost)]
    if external:
        print(f"sensitivity scores built-in agents only; skipping external agents: "
              f"{', '.join(external)}", file=sys.stderr)
    factories = [f for f in config.agents if not isinstance(f, ExternalAgentHost)]
    if not factories:
        raise ConfigError("sensitivity needs at least one built-in agent in agents")
    rng = random.Random(derive_seed(config.seed, "sensitivity-permutations"))
    machine = config.machine  # the baseline; each later row draws a table not yet drawn
    drawn = {machine.opcode_table}
    rows = []
    with _worker_pool(args.workers) as pool:
        for index in range(args.permutations):
            if index:
                table = list(INSTRUCTION_NAMES)
                rng.shuffle(table)
                while tuple(table) in drawn:
                    rng.shuffle(table)
                machine = dataclasses.replace(config.machine, opcode_table=tuple(table))
                drawn.add(machine.opcode_table)
            ensemble = build_ensemble(config.ensemble_spec, machine, config.space, pool=pool)
            scores = {m.agent_name: m.score for m in estimate_roster(
                factories, ensemble, config.valuation, pool=pool)}
            ordering = sorted(scores, key=lambda name: (-scores[name], name))
            preserved = not rows or ordering == rows[0]["ordering"]
            label = f"machine-{index}"
            rows.append({"label": label, "opcode_table": list(machine.opcode_table),
                         "scores": scores, "ordering": ordering,
                         "ordering_preserved": preserved})
            shown = " ".join(f"{k}={v:.3g}" for k, v in scores.items())
            print(f"{label}: {shown} ordering_preserved={preserved}")
    out = pathlib.Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    document = {"seed": config.seed, "machines": rows}
    (out / "sensitivity.json").write_text(dump_json(document), encoding="utf-8")
    print(f"sensitivity report written to {out / 'sensitivity.json'}")
    return 0


def _size_up_to(maximum: int, minimum: int = 1):
    """argparse type of a size option: an integer in [minimum, maximum]."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agentgauge",
        description="simplicity-weighted benchmark for interactive agents")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmark from a config file")
    p_run.add_argument("config", help="path to the flat key=value config")
    p_run.add_argument("--workers", type=_size_up_to(MAX_WORKERS), default=1,
                       help=f"worker processes (default 1, at most {MAX_WORKERS})")
    p_run.set_defaults(func=_cmd_run)

    p_study = sub.add_parser("example-study",
                             help="worked-example analysis on the copy environment")
    p_study.add_argument("--out", required=True)
    p_study.add_argument("--seed", type=int, required=True)
    p_study.add_argument("--episodes", type=_size_up_to(MAX_EPISODES), default=10000)
    p_study.add_argument("--cycles", type=_size_up_to(MAX_STUDY_CYCLES), default=5200)
    # one episode would claim a confidence interval of width 0
    p_study.add_argument("--discount-episodes", type=_size_up_to(MAX_DISCOUNT_EPISODES, 2),
                         default=10000)
    p_study.set_defaults(func=_cmd_example_study)

    p_enum = sub.add_parser("enumerate", help="enumerate valid environment programs")
    p_enum.add_argument("--max-len", type=_size_up_to(MAX_PROGRAM_LENGTH_BITS),
                        required=True)
    p_enum.add_argument("--out", default=None,
                        help="optional fixture file to write programs to")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_sens = sub.add_parser("sensitivity",
                            help="re-score agents under permuted opcode tables")
    p_sens.add_argument("--config", required=True)
    p_sens.add_argument("--permutations", type=_size_up_to(MAX_PERMUTATIONS), required=True)
    p_sens.add_argument("--workers", type=_size_up_to(MAX_WORKERS), default=1)
    p_sens.set_defaults(func=_cmd_sensitivity)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except AgentGaugeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
