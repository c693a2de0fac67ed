"""agentgauge: simplicity-weighted benchmarking of interactive agents.

The engine enumerates environments as self-delimiting programs on a small
reference machine, estimates each agent's expected total reward per
environment by seeded Monte Carlo rollout, and aggregates the values under a
2^-length prior into a single score with uncertainty.
"""

__version__ = "0.1.0"

from .interaction import Percept, SpaceConfig  # noqa: F401
from .machine import (  # noqa: F401
    EnvProcess,
    EnvProgram,
    MachineConfig,
    decode_program,
    enumerate_programs,
    prior_weight,
)
from .environments import CopyEnvironment, ProgramEnvironment  # noqa: F401
from .agents import AgentFactory  # noqa: F401
from .valuation import (  # noqa: F401
    ValuationParams,
    ValueEstimate,
    discounted_value,
    harmonic_value,
    per_cycle_reward_profile,
    summable_episode_values,
)
from .measure import (  # noqa: F401
    Ensemble,
    EnsembleSpec,
    build_ensemble,
    compare_agents,
    estimate_intelligence,
)
