"""Flat key=value run configuration.

The format is one `key = value` pair per line, `#` comment lines, nothing
else.  Unknown keys are errors: a misconfigured benchmark must fail loudly,
not run with silently ignored settings.  The seed is mandatory; wall-clock
time never influences results.
Each key fills one dataclass field (`_TABLE`), which checks the value; a
rejected value is reported under its key, and a key left out keeps the
field's default.  `RunConfig` builds its agent roster once, which checks the
agent names; an external agent's factory is its `ExternalAgentHost`.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, field

from .agents import AgentFactory
from .errors import AgentGaugeError, ConfigError
from .external import ExternalAgentHost
from .interaction import SpaceConfig
from .machine import MachineConfig, check_signature_horizon
from .measure import EnsembleSpec
from .valuation import ValuationParams

# More is almost surely a typo, which would fail only after every rollout.
MAX_BOOTSTRAP_SAMPLES = 100_000
# compare_agents draws this many resamples of each agent of a pair on each
# entry, about 0.7 s at the cap (2-vCPU VM), a bounded block at a time.
MAX_BOOTSTRAP_DRAWS = 100_000_000
# A one-hour reply is almost surely a typo; poll() rejects more than 2^31 - 1 ms.
MAX_EXTERNAL_TIMEOUT_MS = 3_600_000


@dataclass
class RunConfig:
    """One run: the section dataclasses plus the settings of the run itself."""

    seed: int
    space: SpaceConfig
    machine: MachineConfig
    ensemble_spec: EnsembleSpec
    valuation: ValuationParams
    output_dir: str = "out"
    agent_names: tuple[str, ...] = ("random", "basic", "2back")
    agent_epsilon: float = 0.10
    external_commands: dict[str, list[str]] = field(default_factory=dict)
    external_timeout_ms: int = 1000
    bootstrap_samples: int = 2000
    programs_file: str | None = None
    raw: dict[str, str] = field(default_factory=dict)
    # one factory per name of agent_names, in that order
    agents: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        spec = self.ensemble_spec
        if spec.signature_horizon is not None:
            try:
                check_signature_horizon(spec.signature_horizon, self.space.action_count)
            except ValueError as exc:
                # without dedup, only kt weighting walks a signature
                key = "dedup_horizon" if spec.dedup_horizon is not None else "weight_scheme"
                raise ConfigError(f"ensemble.{key} and spaces.actions: {exc}") from None
        if self.bootstrap_samples > MAX_BOOTSTRAP_SAMPLES:
            raise ConfigError(f"bootstrap_samples must be at most {MAX_BOOTSTRAP_SAMPLES}, "
                              f"got {self.bootstrap_samples}")
        draws = self.bootstrap_samples * self.valuation.episodes
        if draws > MAX_BOOTSTRAP_DRAWS:
            raise ConfigError(f"bootstrap_samples times valuation.episodes must be at most "
                              f"{MAX_BOOTSTRAP_DRAWS}, got {draws}")
        if self.external_timeout_ms > MAX_EXTERNAL_TIMEOUT_MS:
            raise ConfigError(f"external_timeout_ms must be at most {MAX_EXTERNAL_TIMEOUT_MS}, "
                              f"got {self.external_timeout_ms}")
        if not self.agent_names:
            raise ConfigError("agents: at least one agent is required")
        if len(set(self.agent_names)) != len(self.agent_names):
            raise ConfigError("agents: duplicate agent names")
        if not 0.0 <= self.agent_epsilon <= 1.0:
            raise ConfigError("agent_epsilon must lie in [0, 1]")
        agents = []
        for name in self.agent_names:
            if name in self.external_commands:
                agents.append(ExternalAgentHost(
                    name, self.external_commands[name], self.space,
                    timeout_ms=self.external_timeout_ms))
                continue
            try:
                agents.append(AgentFactory(name, self.space, self.agent_epsilon))
            except AgentGaugeError as exc:
                raise ConfigError(f"agents: {exc}, and no external.{name} command "
                                  f"is configured") from None
        self.agents = tuple(agents)
        for name in self.external_commands:
            if name not in self.agent_names:
                raise ConfigError(f"external.{name}: {name!r} is not in agents")


def _parse_int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"expected an integer, got {value!r}") from None


def _parse_positive_int(value: str) -> int:
    number = _parse_int(value)
    if number < 1:
        raise ValueError(f"must be >= 1, got {number}")
    return number


def _parse_float(value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"expected a number, got {value!r}") from None


def _parse_optional_int(value: str) -> int | None:
    if value.lower() in ("none", "off"):
        return None
    return _parse_int(value)


def _parse_list(value: str) -> tuple[str, ...]:
    """Comma-separated items; empty items are kept, so `a,,b` is rejected later."""
    return tuple(item.strip() for item in value.split(","))


def _parse_names(value: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in value.split(",") if name.strip())


# config key -> (section, dataclass field, parser); "run" is RunConfig itself.
# A parser raises ValueError with a message that the key is prefixed to.
_TABLE = {
    "seed": ("run", "seed", _parse_int),
    "output_dir": ("run", "output_dir", str),
    "agents": ("run", "agent_names", _parse_names),
    "agent_epsilon": ("run", "agent_epsilon", _parse_float),
    "spaces.actions": ("space", "action_count", _parse_int),
    "spaces.observations": ("space", "observation_count", _parse_int),
    "spaces.reward_denominator": ("space", "reward_denominator", _parse_int),
    "machine.step_budget": ("machine", "step_budget_per_cycle", _parse_int),
    "machine.tape_length": ("machine", "tape_length", _parse_int),
    "machine.cell_modulus": ("machine", "cell_modulus", _parse_int),
    "machine.opcode_table": ("machine", "opcode_table", _parse_list),
    "ensemble.max_length_bits": ("ensemble", "max_program_length_bits", _parse_int),
    "ensemble.dedup_horizon": ("ensemble", "dedup_horizon", _parse_optional_int),
    "ensemble.weight_scheme": ("ensemble", "weight_scheme", str),
    "ensemble.programs_file": ("run", "programs_file", str),
    "valuation.horizon": ("valuation", "horizon", _parse_int),
    "valuation.episodes": ("valuation", "episodes", _parse_int),
    "valuation.trunc_epsilon": ("valuation", "trunc_epsilon", _parse_float),
    "valuation.confidence": ("valuation", "confidence", _parse_float),
    "external_timeout_ms": ("run", "external_timeout_ms", _parse_positive_int),
    "bootstrap_samples": ("run", "bootstrap_samples", _parse_positive_int),
}
_KNOWN_KEYS = set(_TABLE)


def _build(cls, section: str, fields: dict):
    """cls(**fields); a rejected value is a ConfigError led by its key, not its field."""
    try:
        return cls(**fields)
    except (ValueError, AgentGaugeError) as exc:
        name, _, rest = str(exc).partition(" ")
        key = next((k for k, (s, n, _) in _TABLE.items() if (s, n) == (section, name)), name)
        raise ConfigError(f"{key} {rest}") from None


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
            try:
                external[name] = shlex.split(pairs.pop(key))
            except ValueError as exc:
                raise ConfigError(f"{key}: cannot split the command: {exc}") from None
            if not external[name]:
                raise ConfigError(f"{key}: the command is empty")

    unknown = sorted(set(pairs) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    if "seed" not in pairs:
        raise ConfigError("seed is mandatory (results must not depend on wall-clock time)")

    sections: dict[str, dict] = {section: {} for section, _, _ in _TABLE.values()}
    for key, value in pairs.items():
        section, name, parse = _TABLE[key]
        try:
            sections[section][name] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    run = sections["run"]
    # one episode has no spread to give an interval (ValuationParams allows 1)
    episodes = sections["valuation"].get("episodes", 2)
    if episodes < 2:
        raise ConfigError(f"valuation.episodes must be at least 2, got {episodes}")
    return RunConfig(
        space=_build(SpaceConfig, "space", sections["space"]),
        machine=_build(MachineConfig, "machine", sections["machine"]),
        ensemble_spec=_build(EnsembleSpec, "ensemble", sections["ensemble"]),
        valuation=_build(ValuationParams, "valuation",
                         {**sections["valuation"], "seed": run["seed"]}),
        external_commands=external,
        raw=dict(pairs),
        **run,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
