"""The benchmark's workloads: what each one runs (BENCHMARK.json says why).

Every input a workload feeds the CLI is generated from the workload seed, so
the same seed gives the same config, the same responder stream and therefore
the same report bytes.  ``tiny`` sizes exist so the benchmark's own tests can
drive every workload through the real code path in a few seconds.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                    # "run" or "example-study"
    workers: int
    settings: dict = field(default_factory=dict)
    tiny: dict = field(default_factory=dict)

    def sized(self, tiny: bool) -> dict:
        return {**self.settings, **self.tiny} if tiny else dict(self.settings)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="default-24",
            command="run",
            workers=2,
            settings={"ensemble.max_length_bits": 24, "ensemble.dedup_horizon": 8,
                      "valuation.horizon": 250, "valuation.episodes": 40,
                      "agents": "random,basic,2back"},
            tiny={"ensemble.max_length_bits": 12, "valuation.episodes": 4},
        ),
        Workload(
            name="nodedup-24",
            command="run",
            workers=1,
            settings={"ensemble.max_length_bits": 24, "ensemble.dedup_horizon": "none",
                      "valuation.horizon": 250, "valuation.episodes": 10,
                      "agents": "random"},
            tiny={"ensemble.max_length_bits": 12},
        ),
        Workload(
            name="example-study",
            command="example-study",
            workers=1,
            settings={"episodes": 10000, "cycles": 5200, "discount-episodes": 10000},
            tiny={"episodes": 300, "cycles": 400, "discount-episodes": 300},
        ),
        Workload(
            name="external-17",
            command="run",
            workers=1,
            settings={"ensemble.max_length_bits": 17, "ensemble.dedup_horizon": 8,
                      "valuation.horizon": 250, "valuation.episodes": 10,
                      "agents": "random,ext"},
            tiny={"ensemble.max_length_bits": 12, "valuation.episodes": 3},
        ),
    )
}

EXTERNAL_AGENT = "ext"


def config_text(workload: Workload, seed: int, output_dir: str, responder: str,
                stats_path: str, tiny: bool = False) -> str:
    """The flat key=value config of a ``run`` workload for one seed."""
    lines = [f"seed = {seed}", f"output_dir = {output_dir}"]
    lines += [f"{key} = {value}" for key, value in workload.sized(tiny).items()]
    if EXTERNAL_AGENT in workload.sized(tiny).get("agents", "").split(","):
        lines.append(f"external.{EXTERNAL_AGENT} = {sys.executable} {responder} "
                     f"--seed {seed} --stats {stats_path}")
    return "\n".join(lines) + "\n"


def cli_args(workload: Workload, seed: int, work: str, config_path: str,
             workers: int, tiny: bool = False) -> list[str]:
    """Arguments to ``agentgauge`` for one command of the workload."""
    if workload.command == "run":
        return ["run", config_path, "--workers", str(workers)]
    args = ["example-study", "--out", work, "--seed", str(seed)]
    for key, value in workload.sized(tiny).items():
        args += [f"--{key}", str(value)]
    return args
