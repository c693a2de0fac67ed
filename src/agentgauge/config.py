"""Flat key=value run configuration.

The format is one `key = value` pair per line, `#` comment lines, nothing
else.  Unknown keys are errors: a misconfigured benchmark must fail loudly,
not run with silently ignored settings.  The seed is mandatory; wall-clock
time never influences results.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, field

from .agents import is_builtin_agent
from .errors import AgentGaugeError, ConfigError, EnsembleError
from .interaction import SpaceConfig
from .machine import INSTRUCTION_NAMES, MachineConfig, check_signature_horizon
from .measure import EnsembleSpec
from .valuation import ValuationParams

_KNOWN_KEYS = {
    "seed", "output_dir", "agents", "agent_epsilon",
    "spaces.actions", "spaces.observations", "spaces.reward_denominator",
    "machine.step_budget", "machine.tape_length", "machine.cell_modulus",
    "machine.opcode_table",
    "ensemble.max_length_bits", "ensemble.dedup_horizon",
    "ensemble.weight_scheme", "ensemble.renormalize", "ensemble.sample_size",
    "ensemble.programs_file",
    "valuation.mode", "valuation.horizon", "valuation.episodes",
    "valuation.trunc_epsilon", "valuation.confidence",
    "external_timeout_ms", "compare", "bootstrap_samples",
}


@dataclass
class RunConfig:
    seed: int
    output_dir: str
    agent_names: tuple[str, ...]
    agent_epsilon: float
    space: SpaceConfig
    machine: MachineConfig
    ensemble_spec: EnsembleSpec
    valuation: ValuationParams
    external_commands: dict[str, list[str]] = field(default_factory=dict)
    external_timeout_ms: int = 1000
    compare: bool = True
    bootstrap_samples: int = 2000
    programs_file: str | None = None
    raw: dict[str, str] = field(default_factory=dict)


def _parse_bool(key: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_positive_int(key: str, value: str) -> int:
    number = _parse_int(key, value)
    if number < 1:
        raise ConfigError(f"{key}: must be >= 1, got {number}")
    return number


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _parse_optional_int(key: str, value: str) -> int | None:
    if value.lower() in ("none", "off"):
        return None
    return _parse_int(key, value)


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; raise ConfigError on any problem."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value

    external: dict[str, list[str]] = {}
    for key in list(pairs):
        if key.startswith("external."):
            name = key[len("external."):]
            if not name:
                raise ConfigError("external agent key needs a name: external.<name>")
            external[name] = shlex.split(pairs.pop(key))

    unknown = sorted(set(pairs) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    if "seed" not in pairs:
        raise ConfigError("seed is mandatory (results must not depend on wall-clock time)")

    seed = _parse_int("seed", pairs["seed"])
    output_dir = pairs.get("output_dir", "out")

    try:
        space = SpaceConfig(
            action_count=_parse_int("spaces.actions", pairs.get("spaces.actions", "2")),
            observation_count=_parse_int(
                "spaces.observations", pairs.get("spaces.observations", "2")),
            reward_denominator=_parse_int(
                "spaces.reward_denominator", pairs.get("spaces.reward_denominator", "255")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    opcode_table = INSTRUCTION_NAMES
    if "machine.opcode_table" in pairs:
        opcode_table = tuple(x.strip() for x in pairs["machine.opcode_table"].split(","))
    try:
        machine = MachineConfig(
            step_budget_per_cycle=_parse_int(
                "machine.step_budget", pairs.get("machine.step_budget", "4096")),
            tape_length=_parse_int(
                "machine.tape_length", pairs.get("machine.tape_length", "64")),
            cell_modulus=_parse_int(
                "machine.cell_modulus", pairs.get("machine.cell_modulus", "256")),
            opcode_table=opcode_table,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    try:
        ensemble_spec = EnsembleSpec(
            max_program_length_bits=_parse_int(
                "ensemble.max_length_bits", pairs.get("ensemble.max_length_bits", "24")),
            dedup_horizon=_parse_optional_int(
                "ensemble.dedup_horizon", pairs.get("ensemble.dedup_horizon", "8")),
            weight_scheme=pairs.get("ensemble.weight_scheme", "length"),
            renormalize=_parse_bool(
                "ensemble.renormalize", pairs.get("ensemble.renormalize", "true")),
            sample_size=_parse_optional_int(
                "ensemble.sample_size", pairs.get("ensemble.sample_size", "none")),
        )
        valuation = ValuationParams(
            mode=pairs.get("valuation.mode", "summable"),
            horizon=_parse_int("valuation.horizon", pairs.get("valuation.horizon", "250")),
            episodes=_parse_int("valuation.episodes", pairs.get("valuation.episodes", "100")),
            trunc_epsilon=_parse_float(
                "valuation.trunc_epsilon", pairs.get("valuation.trunc_epsilon", "1e-9")),
            confidence=_parse_float(
                "valuation.confidence", pairs.get("valuation.confidence", "0.95")),
            seed=seed,
        )
    except (EnsembleError, AgentGaugeError) as exc:
        raise ConfigError(str(exc)) from None
    if ensemble_spec.signature_horizon is not None:
        try:
            check_signature_horizon(ensemble_spec.signature_horizon, space.action_count)
        except ValueError as exc:
            raise ConfigError(f"ensemble.dedup_horizon and spaces.actions: {exc}") from None
    if valuation.mode != "summable":
        raise ConfigError(f"valuation.mode: intelligence is estimated with summable "
                          f"valuation, got {valuation.mode!r}")

    agent_names = tuple(
        name.strip() for name in pairs.get("agents", "random,basic,2back").split(",")
        if name.strip())
    if not agent_names:
        raise ConfigError("agents: at least one agent is required")
    if len(set(agent_names)) != len(agent_names):
        raise ConfigError("agents: duplicate agent names")
    epsilon = _parse_float("agent_epsilon", pairs.get("agent_epsilon", "0.10"))
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError("agent_epsilon must lie in [0, 1]")
    for name in agent_names:
        if not is_builtin_agent(name) and name not in external:
            raise ConfigError(f"unknown agent {name!r}: not a built-in and no "
                              f"external.{name} command is configured")

    return RunConfig(
        seed=seed,
        output_dir=output_dir,
        agent_names=agent_names,
        agent_epsilon=epsilon,
        space=space,
        machine=machine,
        ensemble_spec=ensemble_spec,
        valuation=valuation,
        external_commands=external,
        external_timeout_ms=_parse_positive_int(
            "external_timeout_ms", pairs.get("external_timeout_ms", "1000")),
        compare=_parse_bool("compare", pairs.get("compare", "true")),
        bootstrap_samples=_parse_positive_int(
            "bootstrap_samples", pairs.get("bootstrap_samples", "2000")),
        programs_file=pairs.get("ensemble.programs_file"),
        raw=dict(pairs),
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
