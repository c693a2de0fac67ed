"""Report assembly and serialization: report.json, rows.csv, manifest.json.

Serialization is byte-deterministic: keys are sorted, floats use their
shortest round-trip repr, and nothing derived from wall-clock time is ever
written.  `build_report` fixes the shape of schema v1 by construction, and
`validate_report` checks the value bounds it states and that every float is
finite; the schema file (`schemas/report-v1.json`) is the tests' oracle.
"""

from __future__ import annotations

import csv
import io
import json
import math

from . import __version__
from .errors import AgentGaugeError
from .measure import AgentComparison, AgentMeasurement, Ensemble

SCHEMA_VERSION = 1
CSV_HEADER = ("program_id", "length_bits", "weight", "agent",
              "value_mean", "value_ci", "episodes")


def validate_report(report: dict) -> None:
    """Check the bounds of schema v1 that `build_report` does not fix.

    Every float must also be finite: `json.dumps` would write NaN or Infinity,
    which are not JSON.  A violation raises AgentGaugeError naming the field.
    """
    def check(where: str, node: dict, fields, low=-math.inf, high=math.inf) -> None:
        for field in fields:
            if not (math.isfinite(node[field]) and low <= node[field] <= high):
                raise AgentGaugeError(f"report field {where}.{field} = {node[field]!r} "
                                      f"is not a finite number in [{low}, {high}]")

    check("ensemble", report["ensemble"], ("max_length_bits",), 1)
    check("ensemble", report["ensemble"], ("program_count", "entry_count"), 0)
    check("ensemble", report["ensemble"], ("kraft_sum_float",), high=1.0)
    check("valuation", report["valuation"], ("horizon",), 1)
    check("valuation", report["valuation"], ("episodes",), 2)
    check("valuation", report["valuation"], ("trunc_epsilon", "confidence"))
    for name, agent in report["agents"].items():
        check(f"agents.{name}", agent, ("intelligence",), 0.0, 1.000001)
        check(f"agents.{name}", agent, ("ci_half_width", "failed_rollouts"), 0)
    for row in report["environments"]:
        where = f"environments[{row['program_id']}]"
        check(where, row, ("length_bits", "members"), 1)
        check(where, row, ("weight",), 0.0)
        for name, value in row["values"].items():
            check(f"{where}.values.{name}", value, ("mean", "ci_half_width", "truncation_bound"))
    for pair in report["comparisons"]:
        check(f"comparisons[{pair['agent_a']} vs {pair['agent_b']}]", pair,
              ("mean_difference", "ci_low", "ci_high"))


def build_report(seed: int, ensemble: Ensemble,
                 measurements: list[AgentMeasurement],
                 comparisons: list[AgentComparison],
                 valuation_params,
                 external_warnings: dict[str, int] | None = None) -> dict:
    spec = ensemble.spec
    report = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "ensemble": {
            "max_length_bits": spec.max_program_length_bits,
            "dedup_horizon": spec.dedup_horizon,
            "weight_scheme": spec.weight_scheme,
            # schema v1 keeps the settings of a normalized, unsampled ensemble
            "renormalize": True,
            "sample_size": None,
            "program_count": ensemble.program_count,
            "entry_count": len(ensemble.entries),
            "kraft_sum": f"{ensemble.kraft_sum.numerator}/{ensemble.kraft_sum.denominator}",
            "kraft_sum_float": float(ensemble.kraft_sum),
        },
        "valuation": {
            "mode": "summable",  # the only notion the measure uses; schema v1 keeps it
            "horizon": valuation_params.horizon,
            "episodes": valuation_params.episodes,
            "trunc_epsilon": valuation_params.trunc_epsilon,
            "confidence": valuation_params.confidence,
        },
        "agents": {
            m.agent_name: {
                "intelligence": m.score,
                "ci_half_width": m.ci_half_width,
                "failed_rollouts": m.failed_rollouts,
            }
            for m in measurements
        },
        "environments": [
            {
                "program_id": entry.identifier,
                "length_bits": entry.length_bits,
                "weight": entry.weight,
                "members": entry.member_count,
                "values": {
                    m.agent_name: {
                        "mean": m.estimates[entry.identifier].mean,
                        "ci_half_width": m.estimates[entry.identifier].ci_half_width,
                        "episodes": m.estimates[entry.identifier].episodes_used,
                        "truncation_bound": m.estimates[entry.identifier].truncation_bound,
                        "failed": m.estimates[entry.identifier].failed_episodes,
                    }
                    for m in measurements
                },
            }
            for entry in ensemble.entries
        ],
        "comparisons": [
            {
                "agent_a": c.agent_a,
                "agent_b": c.agent_b,
                "mean_difference": c.mean_difference,
                "ci_low": c.ci_low,
                "ci_high": c.ci_high,
                "significant": c.significant,
            }
            for c in comparisons
        ],
        "external_timeout_warnings": dict(sorted((external_warnings or {}).items())),
    }
    return report


def report_rows_csv(report: dict) -> str:
    """Per-environment rows as CSV text, numbers identical to the JSON."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in report["environments"]:
        for agent, value in sorted(row["values"].items()):
            writer.writerow([
                row["program_id"], row["length_bits"], repr(row["weight"]),
                agent, repr(value["mean"]), repr(value["ci_half_width"]),
                value["episodes"],
            ])
    return buffer.getvalue()


def build_manifest(command: str, seed: int, raw_config: dict[str, str]) -> dict:
    return {
        "tool": "agentgauge",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": dict(sorted(raw_config.items())),
    }


def dump_json(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_run_outputs(output_dir, report: dict, manifest: dict) -> None:
    import pathlib

    validate_report(report)
    out = pathlib.Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(dump_json(report), encoding="utf-8")
    (out / "rows.csv").write_text(report_rows_csv(report), encoding="utf-8")
    (out / "manifest.json").write_text(dump_json(manifest), encoding="utf-8")
