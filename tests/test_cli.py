"""Command-line front end: runs, reports, reproducibility, exit codes."""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import pathlib
import re
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ProcessPoolExecutor

import jsonschema
import pytest

import agentgauge
from agentgauge import agents, cli, machine, measure, valuation
from agentgauge.agents import MAX_BACK
from agentgauge.cli import (MAX_DISCOUNT_EPISODES, MAX_PERMUTATIONS, MAX_STUDY_CYCLES,
                            MAX_WORKERS, build_parser, main)
from agentgauge.config import (_KNOWN_KEYS, MAX_BOOTSTRAP_DRAWS, MAX_BOOTSTRAP_SAMPLES,
                               MAX_EXTERNAL_TIMEOUT_MS, RunConfig, parse_config)
from agentgauge.errors import AgentGaugeError
from agentgauge.interaction import SpaceConfig
from agentgauge.machine import (
    INSTRUCTION_NAMES,
    MAX_TAPE_LENGTH,
    MachineConfig,
    save_program_file,
)
from agentgauge.measure import MAX_PROGRAM_LENGTH_BITS, EnsembleSpec, build_ensemble
from agentgauge.reports import validate_report
from agentgauge.valuation import MAX_EPISODES, ValuationParams
from natives import encode_program

MACHINE = MachineConfig()
SRC = pathlib.Path(agentgauge.__file__).parents[1]
# the schema of report.json, the oracle the checks of validate_report must agree with
SCHEMA = json.loads((SRC / "agentgauge" / "schemas" / "report-v1.json").read_text())


def write_programs(tmp_path):
    path = tmp_path / "envs.progs"
    save_program_file(path, [
        encode_program(["dec", "move_left", "emit"], MACHINE),
        encode_program(["read_action", "move_left", "emit"], MACHINE),
    ])
    return path


def write_config(tmp_path, out_name="out", extra="", agents="random,basic",
                 bootstrap_samples=300):
    programs = write_programs(tmp_path)
    text = textwrap.dedent(f"""
        seed = 99
        output_dir = {tmp_path / out_name}
        agents = {agents}
        ensemble.programs_file = {programs}
        ensemble.dedup_horizon = 4
        valuation.episodes = 15
        valuation.horizon = 40
        bootstrap_samples = {bootstrap_samples}
        {extra}
    """)
    path = tmp_path / "config.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_run_writes_valid_report_with_full_budget_row(tmp_path):
    config = write_config(tmp_path)
    assert main(["run", str(config)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    jsonschema.validate(report, SCHEMA)
    # the dec/move_left/emit environment pays the whole budget to any agent
    full = next(r for r in report["environments"] if "218C0" in r["program_id"])
    assert full["values"]["random"]["mean"] == 1.0
    assert (tmp_path / "out" / "manifest.json").exists()


def test_every_roster_kind_runs_end_to_end(tmp_path):
    # at 17 bits some entries read actions, so every policy kind plays episodes
    names = ["random", "basic", "1back", "pi_opt", "pi_1", "pi_2"]
    config = tmp_path / "config.txt"
    config.write_text(f"seed = 5\noutput_dir = {tmp_path / 'out'}\nagents = {','.join(names)}\n"
                      "ensemble.max_length_bits = 17\nensemble.dedup_horizon = 4\n"
                      "valuation.horizon = 20\nvaluation.episodes = 3\n", encoding="utf-8")
    assert main(["run", str(config)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert sorted(report["agents"]) == sorted(names)
    assert all(agent["failed_rollouts"] == 0 for agent in report["agents"].values())
    assert all(value["failed"] == 0 for row in report["environments"]
               for value in row["values"].values())
    # the agents acted on what they read: their scores are not all one number
    assert len({agent["intelligence"] for agent in report["agents"].values()}) > 1


@pytest.fixture(scope="module")
def run_report(tmp_path_factory):
    """The report of a real two-agent run, which the schema accepts."""
    tmp_path = tmp_path_factory.mktemp("run")
    assert main(["run", str(write_config(tmp_path))]) == 0
    return json.loads((tmp_path / "out" / "report.json").read_text())


def with_value(report: dict, path: tuple, value) -> dict:
    changed = copy.deepcopy(report)
    *parents, last = path
    node = changed
    for key in parents:
        node = node[key]
    node[last] = value
    return changed


def schema_accepts(report: dict) -> bool:
    try:
        jsonschema.validate(report, SCHEMA)
    except jsonschema.ValidationError:
        return False
    return True


def check_accepts(report: dict) -> bool:
    try:
        validate_report(report)
    except AgentGaugeError:
        return False
    return True


TINY = math.ulp(0.0)
# (field, its bound, a value just past the bound) for every bound schema v1 states
BOUNDS = [
    (("ensemble", "max_length_bits"), 1, 0),
    (("ensemble", "program_count"), 0, -1),
    (("ensemble", "entry_count"), 0, -1),
    (("ensemble", "kraft_sum_float"), 1.0, math.nextafter(1.0, 2.0)),
    (("valuation", "horizon"), 1, 0),
    (("valuation", "episodes"), 2, 1),
    (("agents", "basic", "intelligence"), 0.0, -TINY),
    (("agents", "basic", "intelligence"), 1.000001, math.nextafter(1.000001, 2.0)),
    (("agents", "basic", "ci_half_width"), 0.0, -TINY),
    (("agents", "basic", "failed_rollouts"), 0, -1),
    (("environments", 1, "length_bits"), 1, 0),
    (("environments", 1, "weight"), 0.0, -TINY),
    (("environments", 1, "members"), 1, 0),
]


@pytest.mark.parametrize("path,bound,past", BOUNDS,
                         ids=[f"{'.'.join(map(str, p))}={v!r}" for p, _, v in BOUNDS])
def test_report_check_agrees_with_the_schema_at_every_bound(run_report, path, bound, past):
    assert schema_accepts(run_report) and check_accepts(run_report)
    at_bound = with_value(run_report, path, bound)
    assert schema_accepts(at_bound) and check_accepts(at_bound)
    beyond = with_value(run_report, path, past)
    assert not schema_accepts(beyond)
    with pytest.raises(AgentGaugeError, match=str(path[-1])):
        validate_report(beyond)


def float_paths(node, path=()):
    """The path of every float in a JSON document."""
    if isinstance(node, float):
        return [path]
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    return [found for key, child in items for found in float_paths(child, path + (key,))]


def test_report_check_rejects_every_non_finite_float(run_report):
    paths = float_paths(run_report)
    # every float field of schema v1, in each of its places
    assert {path[-1] for path in paths} == {
        "kraft_sum_float", "trunc_epsilon", "confidence", "intelligence", "ci_half_width",
        "weight", "mean", "truncation_bound", "mean_difference", "ci_low", "ci_high"}
    for path in paths:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(AgentGaugeError, match=str(path[-1])):
                validate_report(with_value(run_report, path, bad))


@pytest.mark.parametrize("bad", [2.0, math.nan])
def test_report_out_of_bounds_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch, bad):
    build_report = cli.build_report

    def corrupted(*args, **kwargs):
        report = build_report(*args, **kwargs)
        report["agents"]["random"]["intelligence"] = bad
        return report

    monkeypatch.setattr(cli, "build_report", corrupted)
    assert main(["run", str(write_config(tmp_path))]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "intelligence" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_out_of_memory_exits_1_without_a_traceback(tmp_path, capfd, monkeypatch, workers):
    # a learner's tables grow with the keys it meets; a run that cannot
    # allocate them is a runtime failure, in a worker or here, like any other
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 635. MiB")

    monkeypatch.setattr(agents._TableBatch, "step", exhausted)
    assert main(["run", str(write_config(tmp_path)), "--workers", workers]) == 1
    assert capfd.readouterr().err == "error: out of memory: Unable to allocate 635. MiB\n"
    assert not (tmp_path / "out").exists()


def test_run_is_byte_identical_across_reruns_and_worker_counts(tmp_path):
    config = write_config(tmp_path, out_name="out1")
    assert main(["run", str(config)]) == 0
    first = (tmp_path / "out1" / "report.json").read_bytes()

    config2 = write_config(tmp_path, out_name="out1")
    assert main(["run", str(config2)]) == 0
    assert (tmp_path / "out1" / "report.json").read_bytes() == first

    assert main(["run", str(config), "--workers", "2"]) == 0
    assert (tmp_path / "out1" / "report.json").read_bytes() == first


def test_csv_and_json_carry_identical_numbers(tmp_path):
    config = write_config(tmp_path)
    assert main(["run", str(config)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    by_key = {}
    with open(tmp_path / "out" / "rows.csv", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            by_key[(row["program_id"], row["agent"])] = row
    for env_row in report["environments"]:
        for agent, value in env_row["values"].items():
            csv_row = by_key[(env_row["program_id"], agent)]
            assert float(csv_row["value_mean"]) == value["mean"]
            assert float(csv_row["value_ci"]) == value["ci_half_width"]
            assert int(csv_row["episodes"]) == value["episodes"]
            assert float(csv_row["weight"]) == env_row["weight"]


def test_unknown_agent_exits_2_and_names_it(tmp_path, capsys):
    config = write_config(tmp_path, agents="random,sharpshooter")
    assert main(["run", str(config)]) == 2
    assert "sharpshooter" in capsys.readouterr().err


@pytest.mark.parametrize("alias", ["0back", "01back", "002back"])
def test_agent_name_aliasing_a_builtin_exits_2(tmp_path, capsys, alias):
    # read as numbers these name basic, 1back and 2back: the roster and the
    # report would then hold two agents of one name
    config = tmp_path / "alias.txt"
    config.write_text(f"seed = 1\nagents = basic,{alias}\n", encoding="utf-8")
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and alias in err


@pytest.mark.parametrize("k", [str(MAX_BACK + 1), "1000000000", "9" * 5000],
                         ids=["cap-plus-one", "a-billion", "5000-digits"])
def test_window_above_the_cap_exits_2_before_any_work(tmp_path, capsys, monkeypatch, k):
    # a billion-cycle window once passed the config checks and died in a
    # NumPy allocation after enumeration and the proofs
    def work(*args, **kwargs):
        raise AssertionError("the run started work")

    monkeypatch.setattr(cli, "build_ensemble", work)
    config = tmp_path / "config.txt"
    config.write_text(f"seed = 1\noutput_dir = {tmp_path / 'out'}\nagents = basic,{k}back\n",
                      encoding="utf-8")
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: agents:") and f"at most {MAX_BACK}" in err
    assert not (tmp_path / "out").exists()


def test_unknown_key_exits_2(tmp_path, capsys):
    # a typo, three keys that once parsed but could not change a run that
    # succeeds (the measure is always summable, so gamma is unused and
    # summable was the only legal mode; without the reward budget no program
    # is reward-summable), and three that no run set: every pair of agents is
    # compared, and the ensemble is always normalized and never subsampled
    for line in ("ensembel.max_length_bits = 11", "valuation.gamma = 0.5",
                 "machine.enforce_reward_budget = false", "valuation.mode = summable",
                 "compare = false", "ensemble.renormalize = true",
                 "ensemble.sample_size = 64"):
        config = tmp_path / "bad.txt"
        config.write_text(f"seed = 1\noutput_dir = {tmp_path / 'out'}\n{line}\n",
                          encoding="utf-8")
        assert main(["run", str(config)]) == 2
        assert line.partition(" =")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sensitivity"])
@pytest.mark.parametrize("agent", ["pi_opt", "pi_1", "pi_2"])
def test_scripted_agent_without_binary_actions_exits_2(tmp_path, capsys, command, agent):
    config = tmp_path / "config.txt"
    config.write_text(f"seed = 1\noutput_dir = {tmp_path / 'out'}\nagents = {agent}\n"
                      f"spaces.actions = 3\nensemble.dedup_horizon = 4\n", encoding="utf-8")
    argv = ["run", str(config)] if command == "run" else [
        "sensitivity", "--config", str(config), "--permutations", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error: agents:" in err and "binary action space" in err
    assert not (tmp_path / "out").exists()


def test_external_command_of_no_listed_agent_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, agents="random",
                          extra="external.ext = python3 /nonexistent/agent.py")
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: external.ext:" in err and "agents" in err
    assert not (tmp_path / "out").exists()


def _readme_config_block() -> str:
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_sample_config_parses():
    config = parse_config(_readme_config_block())
    assert config.seed == 7
    assert config.ensemble_spec.dedup_horizon == 8
    assert config.ensemble_spec.weight_scheme == "length"


def test_readme_documents_every_config_key():
    documented = {line.lstrip("#").partition("=")[0].strip()
                  for line in _readme_config_block().splitlines() if "=" in line}
    assert sorted(_KNOWN_KEYS - documented) == []


def test_omitted_keys_keep_the_dataclass_defaults():
    assert parse_config("seed = 1\n") == RunConfig(
        seed=1, space=SpaceConfig(), machine=MachineConfig(),
        ensemble_spec=EnsembleSpec(), valuation=ValuationParams(seed=1),
        raw={"seed": "1"})


def test_unreadable_config_exits_2(tmp_path, capsys):
    config = tmp_path / "latin1.txt"
    config.write_bytes(b"seed = 1\n# caf\xe9\n")
    assert main(["run", str(config)]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_missing_seed_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.txt"
    config.write_text("agents = random\n", encoding="utf-8")
    assert main(["run", str(config)]) == 2
    assert "seed" in capsys.readouterr().err


def test_duplicate_agents_and_bad_epsilon_exit_2(tmp_path, capsys):
    config = tmp_path / "dup.txt"
    config.write_text("seed = 1\nagents = random,random\n", encoding="utf-8")
    assert main(["run", str(config)]) == 2
    assert "duplicate" in capsys.readouterr().err
    config.write_text("seed = 1\nagents = basic\nagent_epsilon = 1.5\n", encoding="utf-8")
    assert main(["run", str(config)]) == 2
    assert "agent_epsilon" in capsys.readouterr().err


def test_zero_bootstrap_samples_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, bootstrap_samples=0)
    assert main(["run", str(config)]) == 2
    assert "bootstrap_samples" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sensitivity"])
@pytest.mark.parametrize("key", ["bootstrap_samples", "valuation.episodes",
                                 "external_timeout_ms"])
def test_huge_sample_counts_exit_2_at_config_time(tmp_path, capsys, command, key):
    config = tmp_path / "config.txt"
    config.write_text(f"seed = 1\noutput_dir = {tmp_path / 'out'}\n{key} = 10000000000\n",
                      encoding="utf-8")
    argv = ["run", str(config)] if command == "run" else [
        "sensitivity", "--config", str(config), "--permutations", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sensitivity"])
def test_one_episode_exits_2_at_config_time(tmp_path, capsys, command):
    # one episode per environment has no spread, so every interval would be
    # 0 wide and every comparison significant
    config = tmp_path / "config.txt"
    config.write_text(f"seed = 1\noutput_dir = {tmp_path / 'out'}\n"
                      "ensemble.max_length_bits = 17\nensemble.dedup_horizon = 4\n"
                      "valuation.horizon = 20\nvaluation.episodes = 1\n", encoding="utf-8")
    argv = ["run", str(config)] if command == "run" else [
        "sensitivity", "--config", str(config), "--permutations", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error: valuation.episodes must be at least 2, got 1" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sensitivity"])
def test_zero_episodes_exit_2_naming_the_bound_the_command_enforces(tmp_path, capsys, command):
    # the valuation layer alone would accept 1 episode, which these commands reject
    config = tmp_path / "config.txt"
    config.write_text(f"seed = 1\noutput_dir = {tmp_path / 'out'}\n"
                      "valuation.episodes = 0\n", encoding="utf-8")
    argv = ["run", str(config)] if command == "run" else [
        "sensitivity", "--config", str(config), "--permutations", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error: valuation.episodes must be at least 2, got 0" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sensitivity"])
def test_bootstrap_draws_above_the_cap_exit_2_at_config_time(tmp_path, capsys, command):
    # each value is within its own cap, but compare_agents would hold 24 bytes
    # for each of their product's draws
    episodes = MAX_BOOTSTRAP_DRAWS // MAX_BOOTSTRAP_SAMPLES + 1
    config = tmp_path / "config.txt"
    config.write_text(f"seed = 1\noutput_dir = {tmp_path / 'out'}\n"
                      f"bootstrap_samples = {MAX_BOOTSTRAP_SAMPLES}\n"
                      f"valuation.episodes = {episodes}\n", encoding="utf-8")
    argv = ["run", str(config)] if command == "run" else [
        "sensitivity", "--config", str(config), "--permutations", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error: bootstrap_samples times valuation.episodes" in err
    assert f"at most {MAX_BOOTSTRAP_DRAWS}" in err
    assert not (tmp_path / "out").exists()


def test_sample_count_caps_are_accepted():
    episodes = MAX_BOOTSTRAP_DRAWS // MAX_BOOTSTRAP_SAMPLES
    config = parse_config(f"seed = 1\nbootstrap_samples = {MAX_BOOTSTRAP_SAMPLES}\n"
                          f"valuation.episodes = {episodes}\n"
                          f"external_timeout_ms = {MAX_EXTERNAL_TIMEOUT_MS}\n")
    assert config.bootstrap_samples == MAX_BOOTSTRAP_SAMPLES
    assert config.bootstrap_samples * config.valuation.episodes == MAX_BOOTSTRAP_DRAWS
    assert config.external_timeout_ms == MAX_EXTERNAL_TIMEOUT_MS


def test_discounted_mode_exits_2_at_config_time(tmp_path, capsys):
    config = write_config(tmp_path, extra="valuation.mode = discounted")
    assert main(["run", str(config)]) == 2
    assert "valuation.mode" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_external_timeout_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, extra="external_timeout_ms = -5")
    assert main(["run", str(config)]) == 2
    assert "external_timeout_ms" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["", 'python3 "foo'], ids=["empty", "open-quote"])
def test_external_command_that_cannot_run_exits_2(tmp_path, capsys, command):
    config = write_config(tmp_path, agents="random,ext", extra=f"external.ext = {command}")
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "external.ext" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", [
    "spaces.actions = 65537",
    "spaces.observations = 70000\nmachine.cell_modulus = 70000",
    "spaces.reward_denominator = 65536",
], ids=["actions", "observations", "reward-denominator"])
def test_space_beyond_two_bytes_exits_2(tmp_path, capsys, line):
    # behavior signatures store each observation and reward numerator in
    # two bytes; actions share the same bound
    config = write_config(tmp_path, extra=line.replace("\n", "\n        "))
    assert main(["run", str(config)]) == 2
    key = line.partition(" =")[0]
    assert f"configuration error: {key} must" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", [
    "machine.step_budget = 0",
    "machine.step_budget = 1000000000",
    "machine.tape_length = 70000",
    "valuation.trunc_epsilon = 2",
    "ensemble.weight_scheme = foo",
])
def test_rejected_value_names_its_key(tmp_path, capsys, line):
    # the dataclass that rejects the value knows its field, not the key
    config = write_config(tmp_path, extra=line)
    assert main(["run", str(config)]) == 2
    key = line.partition(" =")[0]
    assert f"configuration error: {key} must" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_opcode_table_key_parses_a_permutation_and_rejects_a_repeat(tmp_path, capsys):
    table = INSTRUCTION_NAMES[1:] + INSTRUCTION_NAMES[:1]
    config = parse_config(f"seed = 1\nmachine.opcode_table = {', '.join(table)}\n")
    assert config.machine.opcode_table == table
    repeated = ("emit",) + INSTRUCTION_NAMES[1:]
    assert repeated.count("emit") == 2
    config = write_config(tmp_path, extra=f"machine.opcode_table = {','.join(repeated)}")
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "opcode_table" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sensitivity"])
@pytest.mark.parametrize("lines, key", [
    ("spaces.actions = 3\nensemble.dedup_horizon = 8", "ensemble.dedup_horizon"),
    ("ensemble.dedup_horizon = 20", "ensemble.dedup_horizon"),
    # with dedup off the walk is kt weighting's, so the message names that key
    ("spaces.actions = 4\nensemble.dedup_horizon = none\nensemble.weight_scheme = kt",
     "ensemble.weight_scheme"),
], ids=["three-actions", "horizon-20", "kt-four-actions"])
def test_signature_beyond_the_node_cap_exits_2(tmp_path, capsys, command, lines, key):
    config = tmp_path / "config.txt"
    config.write_text(f"seed = 1\noutput_dir = {tmp_path / 'out'}\n{lines}\n",
                      encoding="utf-8")
    argv = ["run", str(config)] if command == "run" else [
        "sensitivity", "--config", str(config), "--permutations", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert key in err and "spaces.actions" in err
    assert ("ensemble.dedup_horizon" in err) == (key == "ensemble.dedup_horizon")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sensitivity"])
@pytest.mark.parametrize("bits", ["33", "60", "0"])
def test_length_cutoff_outside_its_range_exits_2(tmp_path, capsys, command, bits):
    config = tmp_path / "config.txt"
    config.write_text(f"seed = 1\noutput_dir = {tmp_path / 'out'}\n"
                      f"ensemble.max_length_bits = {bits}\n", encoding="utf-8")
    argv = ["run", str(config)] if command == "run" else [
        "sensitivity", "--config", str(config), "--permutations", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "ensemble.max_length_bits" in err
    assert f"[1, {MAX_PROGRAM_LENGTH_BITS}]" in err
    assert not (tmp_path / "out").exists()


def test_tape_beyond_the_cap_exits_2(tmp_path, capsys):
    # every environment process holds the whole tape
    config = write_config(tmp_path, extra=f"machine.tape_length = {MAX_TAPE_LENGTH + 1}")
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "tape_length" in err
    assert not (tmp_path / "out").exists()
    # the cap itself parses; no run starts with it
    config = parse_config(f"seed = 1\nmachine.tape_length = {MAX_TAPE_LENGTH}\n")
    assert config.machine.tape_length == MAX_TAPE_LENGTH


def test_a_run_never_loads_jsonschema(tmp_path):
    # jsonschema is slow to import, and only the tests need it
    code = ("import sys, agentgauge.cli\n"
            f"assert agentgauge.cli.main(['run', {str(write_config(tmp_path))!r}]) == 0\n"
            "print('jsonschema' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={"PYTHONPATH": str(SRC)}, check=True)
    assert result.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("workers, loaded", [("1", "False"), ("2", "True")])
def test_only_a_pooled_run_loads_the_process_pool(tmp_path, workers, loaded):
    # the pool's modules cost a run about 15 ms of start-up
    code = ("import sys, agentgauge.cli\n"
            f"assert agentgauge.cli.main(['run', {str(write_config(tmp_path))!r}, "
            f"'--workers', {workers!r}]) == 0\n"
            "print('concurrent.futures.process' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={"PYTHONPATH": str(SRC)}, check=True)
    assert result.stdout.splitlines()[-1] == loaded


def test_length_cutoff_cap_is_accepted():
    config = parse_config(
        f"seed = 1\nensemble.max_length_bits = {MAX_PROGRAM_LENGTH_BITS}\n")
    assert config.ensemble_spec.max_program_length_bits == MAX_PROGRAM_LENGTH_BITS
    args = build_parser().parse_args(
        ["enumerate", "--max-len", str(MAX_PROGRAM_LENGTH_BITS)])
    assert args.max_len == MAX_PROGRAM_LENGTH_BITS


@pytest.mark.parametrize("bits, message", [
    ("-3", "at least 1"), ("0", "at least 1"), ("33", "at most 32"), ("x", "integer"),
])
def test_enumerate_length_outside_its_range_exits_2(tmp_path, capsys, bits, message):
    out = tmp_path / "programs.txt"
    with pytest.raises(SystemExit) as exit_info:
        main(["enumerate", "--max-len", bits, "--out", str(out)])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


MALFORMED_PROGRAM_LINES = {
    # line: what the message must name
    "len=7 hex=ZZ": "'ZZ'",
    "hello": "'hello'",
    "len=-1 hex=8": "len must be a non-negative integer, got '-1'",
    "len=1 hex=8 extra=5": "unknown field 'extra'",
    "len=3 len=1 hex=8": "duplicate field 'len'",
    "len=0 hex=FF": "declared length 0",
}


@pytest.mark.parametrize("bad", list(MALFORMED_PROGRAM_LINES))
def test_malformed_program_line_exits_1_naming_file_and_line(tmp_path, capsys, bad):
    config = write_config(tmp_path)
    programs = tmp_path / "envs.progs"
    programs.write_text(programs.read_text() + bad + "\n", encoding="utf-8")
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"error: {programs}, line 3:" in err
    assert MALFORMED_PROGRAM_LINES[bad] in err
    assert not (tmp_path / "out").exists()


def test_programs_file_not_utf8_exits_1_naming_file_and_line(tmp_path, capsys):
    config = write_config(tmp_path)
    programs = tmp_path / "envs.progs"
    programs.write_bytes(programs.read_bytes() + b"# caf\xe9\n")
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"error: {programs}, line 3:" in err and "utf-8" in err
    assert not (tmp_path / "out").exists()


def test_programs_file_without_programs_exits_1_naming_it(tmp_path, capsys):
    config = write_config(tmp_path)
    programs = tmp_path / "envs.progs"
    programs.write_text("# no program here\n#\n", encoding="utf-8")
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"error: {programs}:" in err and "no program" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("copies", [2, 3])
def test_repeated_program_exits_1_naming_both_lines(tmp_path, capsys, copies):
    # each copy would add the program's weight again: two copies of the
    # empty program made a Kraft sum of 1, three of them 3/2
    config = write_config(tmp_path)
    programs = tmp_path / "envs.progs"
    programs.write_text("# the empty program\n" + "len=1 hex=8\n" * copies, encoding="utf-8")
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {programs}, line 3: repeats the program of line 2\n"
    assert not (tmp_path / "out").exists()


def test_estimates_make_no_proof(tmp_path, monkeypatch):
    # build_ensemble proves every entry; with the proof replaced by a stub
    # that raises once it returns, a pooled run writes the serial report
    config = tmp_path / "config.txt"
    config.write_text(textwrap.dedent(f"""
        seed = 5
        output_dir = {tmp_path / "out"}
        agents = random,basic
        ensemble.max_length_bits = 17
        ensemble.dedup_horizon = none
        valuation.episodes = 4
        valuation.horizon = 30
        bootstrap_samples = 100
    """), encoding="utf-8")
    assert main(["run", str(config), "--workers", "1"]) == 0
    serial = (tmp_path / "out" / "report.json").read_bytes()

    def no_proof(*args):
        raise AssertionError("proves_reward_free called after build_ensemble")

    def build_then_stub(*args, **kwargs):
        ensemble = build_ensemble(*args, **kwargs)
        # without dedup nothing reaches the pool before this, so its workers
        # fork with the stub in place
        for module in (machine, measure):
            monkeypatch.setattr(module, "proves_reward_free", no_proof)
        return ensemble

    monkeypatch.setattr(cli, "build_ensemble", build_then_stub)
    assert main(["run", str(config), "--workers", "2"]) == 0
    assert (tmp_path / "out" / "report.json").read_bytes() == serial
    assert json.loads(serial)["ensemble"]["program_count"] == 422


def test_run_with_external_agent(tmp_path, capsys, pools_made):
    child = tmp_path / "uniform.py"
    child.write_text(textwrap.dedent("""
        import json, random, sys
        rng = random.Random(4)
        for line in sys.stdin:
            msg = json.loads(line)
            if msg["type"] == "hello":
                print(json.dumps({"type": "ready"}), flush=True)
            elif msg["type"] == "percept":
                print(json.dumps({"type": "action", "a": rng.randrange(2)}), flush=True)
            elif msg["type"] == "bye":
                break
    """), encoding="utf-8")
    config = write_config(
        tmp_path, agents="random,probe",
        extra=f"external.probe = {sys.executable} {child}\nexternal_timeout_ms = 4000")
    assert main(["run", str(config)]) == 0
    report_bytes = (tmp_path / "out" / "report.json").read_bytes()
    report = json.loads(report_bytes)
    assert "probe" in report["agents"]
    assert report["external_timeout_warnings"] == {"probe": 0}
    # the agent process talks to this one, so a second worker is dropped
    capsys.readouterr()
    assert main(["run", str(config), "--workers", "2"]) == 0
    assert "external agents require workers=1; reducing" in capsys.readouterr().err
    assert pools_made == []
    assert (tmp_path / "out" / "report.json").read_bytes() == report_bytes


def test_an_external_agent_amid_the_roster_keeps_the_config_order(tmp_path, capsys):
    # random and basic are valued together and the external agent alone, yet
    # the printed scores and the comparisons follow the config's agents, and
    # the in-process agents' numbers are those of a run without the external one
    child = tmp_path / "uniform.py"
    child.write_text(textwrap.dedent("""
        import json, random, sys
        rng = random.Random(4)
        for line in sys.stdin:
            msg = json.loads(line)
            if msg["type"] == "hello":
                print(json.dumps({"type": "ready"}), flush=True)
            elif msg["type"] == "percept":
                print(json.dumps({"type": "action", "a": rng.randrange(2)}), flush=True)
            elif msg["type"] == "bye":
                break
    """), encoding="utf-8")
    config = write_config(
        tmp_path, agents="random,probe,basic",
        extra=f"external.probe = {sys.executable} {child}\nexternal_timeout_ms = 4000")
    assert main(["run", str(config)]) == 0
    printed = [line.partition(":")[0] for line in capsys.readouterr().out.splitlines()[:3]]
    assert printed == ["random", "probe", "basic"]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [(c["agent_a"], c["agent_b"]) for c in report["comparisons"]] == [
        ("random", "probe"), ("random", "basic"), ("probe", "basic")]
    assert main(["run", str(write_config(tmp_path, out_name="alone"))]) == 0
    alone = json.loads((tmp_path / "alone" / "report.json").read_text())
    assert {name: report["agents"][name] for name in ("random", "basic")} == alone["agents"]


def test_agent_that_exits_mid_run_fails_the_run(tmp_path, capsys):
    child = tmp_path / "quitter.py"
    child.write_text(textwrap.dedent("""
        import json, sys
        percepts = 0
        for line in sys.stdin:
            msg = json.loads(line)
            if msg["type"] == "hello":
                print(json.dumps({"type": "ready"}), flush=True)
            elif msg["type"] == "percept":
                percepts += 1
                if percepts == 5:
                    sys.exit(0)
                print(json.dumps({"type": "action", "a": 0}), flush=True)
    """), encoding="utf-8")
    timeout_s = 10
    config = write_config(
        tmp_path, agents="random,quitter",
        extra=f"external.quitter = {sys.executable} {child}\n"
              f"external_timeout_ms = {timeout_s * 1000}")
    started = time.monotonic()
    assert main(["run", str(config)]) == 1
    # end of stream is no timeout: the run fails at once, not one timeout later
    assert time.monotonic() - started < timeout_s / 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "external agent quitter" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()

def test_agent_that_stops_reading_fails_the_run(tmp_path):
    # once the agent's input pipe is full, a write waits only up to the timeout
    child = tmp_path / "sleeper.py"
    child.write_text(textwrap.dedent("""
        import json, os, sys, time
        parent = os.getppid()
        json.loads(sys.stdin.readline())
        print(json.dumps({"type": "ready"}), flush=True)
        while os.getppid() == parent:   # never reads again, but ends with the run
            time.sleep(0.1)
    """), encoding="utf-8")
    # 2 programs x 50 episodes x 100 cycles of percepts overfill a 64 KiB pipe
    config = tmp_path / "config.txt"
    config.write_text(textwrap.dedent(f"""
        seed = 99
        output_dir = {tmp_path / "out"}
        agents = random,sleeper
        ensemble.programs_file = {write_programs(tmp_path)}
        valuation.episodes = 50
        valuation.horizon = 100
        external.sleeper = {sys.executable} {child}
        external_timeout_ms = 1
    """), encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "agentgauge.cli", "run", str(config)],
                            capture_output=True, text=True, timeout=60,
                            env={"PYTHONPATH": str(SRC)})
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        "error: external agent sleeper stopped reading its input"]
    assert not (tmp_path / "out").exists()


def test_example_study_outputs(tmp_path):
    out = tmp_path / "study"
    assert main(["example-study", "--out", str(out), "--seed", "3",
                 "--episodes", "300", "--cycles", "130",
                 "--discount-episodes", "200"]) == 0
    study = json.loads((out / "study.json").read_text())
    phases = study["phase_means"]
    assert phases["pi_2"]["short_2_101"] == 0.0
    assert phases["pi_1"]["short_2_101"] == pytest.approx(0.5, abs=0.05)
    assert phases["pi_opt"]["short_2_101"] == 1.0
    with open(out / "profiles.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 130
    assert float(rows[0]["pi_opt"]) == 0.0  # no action precedes the first reward
    assert float(rows[1]["pi_opt"]) == 1.0


def test_example_study_manifest_records_the_discount_episodes(tmp_path):
    # the discounted values in study.json depend on --discount-episodes, so
    # two studies that differ only there must say so in their manifests
    manifests = []
    for discount_episodes in ("20", "30"):
        out = tmp_path / discount_episodes
        assert main(["example-study", "--out", str(out), "--seed", "3", "--episodes", "20",
                     "--cycles", "20", "--discount-episodes", discount_episodes]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text())["config"])
    assert manifests == [{"cycles": "20", "discount_episodes": d, "episodes": "20"}
                         for d in ("20", "30")]


@pytest.mark.parametrize("discount_episodes, generators", [("300", 3), ("200", 18)],
                         ids=["shared", "separate"])
def test_example_study_draws_each_agents_stream_once(tmp_path, monkeypatch, discount_episodes,
                                                    generators):
    # Discounts with the profile's episode count join its pass, so each of
    # the three agents makes one NumPy generator; with another count, each
    # of the 15 discounted values makes its own.  Every one is made inside
    # the agent's call of cli.per_cycle_reward_profile, where bench/launch.py
    # ends set-up.
    calls, made = [], []
    profile, default_rng = cli.per_cycle_reward_profile, valuation.np.random.default_rng

    def through_cli(factory, *args, **kwargs):
        calls.append(factory.name)
        return profile(factory, *args, **kwargs)

    def counted(*args):
        made.append(len(calls))
        return default_rng(*args)

    monkeypatch.setattr(cli, "per_cycle_reward_profile", through_cli)
    monkeypatch.setattr(valuation.np.random, "default_rng", counted)
    assert main(["example-study", "--out", str(tmp_path / "study"), "--seed", "3",
                 "--episodes", "300", "--cycles", "130",
                 "--discount-episodes", discount_episodes]) == 0
    assert calls == ["pi_opt", "pi_1", "pi_2"]
    assert made == [call for call in (1, 2, 3) for _ in range(generators // 3)]


def test_example_study_bytes_are_golden(tmp_path):
    # Exact bytes of the worked study; a faster kernel must not move a digit.
    # profiles.csv was recorded before batch profiles were reduced as they
    # run.  study.json was re-recorded when discounted values became
    # Kahan-compensated per-episode sums: the matrix-vector product they
    # replaced gave bits that depended on the BLAS thread count.  It was
    # re-recorded again when an estimate of equal episode values began to
    # report that value with half-width 0, in place of np.mean's rounded sum
    # and a nonzero np.std: pi_opt's and pi_2's discounted values moved.
    out = tmp_path / "study"
    assert main(["example-study", "--out", str(out), "--seed", "3",
                 "--episodes", "300", "--cycles", "400",
                 "--discount-episodes", "300"]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("study.json", "profiles.csv")}
    assert digests == {
        "study.json": "4686d2952d8fae869b228babe9783b213f7a7720e08445985e68ddf78403cfc3",
        "profiles.csv": "2c51144b4957f139a1602ace4c67fa61189177cf92e8756b368dfa159adf5baf",
    }


def test_example_study_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # No BLAS kernel sums the discounted values, so its row split cannot
    # move their last bits.
    digests = set()
    for threads in ("1", "2"):
        out = tmp_path / f"study-{threads}"
        subprocess.run([sys.executable, "-m", "agentgauge.cli", "example-study",
                        "--out", str(out), "--seed", "3", "--episodes", "300",
                        "--cycles", "400", "--discount-episodes", "300"],
                       env={"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads},
                       capture_output=True, check=True, timeout=120)
        digests.add(hashlib.sha256((out / "study.json").read_bytes()).hexdigest())
    assert digests == {"4686d2952d8fae869b228babe9783b213f7a7720e08445985e68ddf78403cfc3"}


def test_example_study_shorter_than_a_phase_writes_valid_json(tmp_path):
    out = tmp_path / "study"
    assert main(["example-study", "--out", str(out), "--seed", "3",
                 "--episodes", "50", "--cycles", "50",
                 "--discount-episodes", "20"]) == 0

    def reject(constant):
        raise ValueError(f"{constant} in study.json")

    study = json.loads((out / "study.json").read_text(), parse_constant=reject)
    for phase in ("medium_102_5001", "long_after_5001"):
        assert study["phase_ordering"][phase] is None
        assert all(means[phase] is None for means in study["phase_means"].values())
    assert study["phase_ordering"]["short_2_101"][0] == "pi_opt"


def test_run_prints_the_truncated_reward_mass(tmp_path, capsys):
    assert main(["run", str(write_config(tmp_path))]) == 0
    printed = capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    for agent in ("random", "basic"):
        match = re.search(rf"^{agent}: intelligence=\S+ \+- \S+ truncated<=(\S+)$",
                          printed, re.MULTILINE)
        assert match, printed
        mass = sum(row["weight"] * row["values"][agent]["truncation_bound"]
                   for row in report["environments"])
        assert mass > 0.1  # the copy program still has most of its budget at cycle 40
        assert float(match.group(1)) == pytest.approx(mass, rel=0.05)


def test_enumerate_command(tmp_path, capsys):
    out = tmp_path / "programs.txt"
    assert main(["enumerate", "--max-len", "11", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "58" in printed
    assert len(out.read_text().splitlines()) == 58


def test_sensitivity_command(tmp_path):
    programs = write_programs(tmp_path)
    config = tmp_path / "config.txt"
    config.write_text(textwrap.dedent(f"""
        seed = 7
        output_dir = {tmp_path / 'sens'}
        agents = random,basic
        ensemble.max_length_bits = 11
        ensemble.dedup_horizon = 4
        valuation.episodes = 10
        valuation.horizon = 30
    """), encoding="utf-8")
    del programs
    assert main(["sensitivity", "--config", str(config), "--permutations", "3"]) == 0
    document = json.loads((tmp_path / "sens" / "sensitivity.json").read_text())
    assert len(document["machines"]) == 3
    for row in document["machines"]:
        assert set(row["scores"]) == {"random", "basic"}
        assert isinstance(row["ordering_preserved"], bool)
    assert document["machines"][0]["ordering_preserved"] is True


def write_sensitivity_config(tmp_path, agents):
    config = tmp_path / "sens.txt"
    config.write_text(textwrap.dedent(f"""
        seed = 3
        output_dir = {tmp_path / 'out'}
        agents = {agents}
        ensemble.max_length_bits = 17
        ensemble.dedup_horizon = 6
        valuation.episodes = 20
        valuation.horizon = 60
        bootstrap_samples = 100
    """), encoding="utf-8")
    return config


def test_sensitivity_identity_row_matches_run_bit_exactly(tmp_path):
    # machine-0 is the config's own machine, scored as run scores it
    config = write_sensitivity_config(tmp_path, "random,basic")
    assert main(["run", str(config)]) == 0
    assert main(["sensitivity", "--config", str(config), "--permutations", "1"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    document = json.loads((tmp_path / "out" / "sensitivity.json").read_text())
    scores = document["machines"][0]["scores"]
    assert scores == {name: agent["intelligence"] for name, agent in report["agents"].items()}
    assert all(score > 0 for score in scores.values())


def test_sensitivity_permuted_table_reports_per_machine_scores(tmp_path):
    # Fixed-width opcodes make a table permutation an isomorphism of the
    # weighted ensemble, so scores move only through the reshuffled random
    # streams; each row must still carry its own table and scores.
    config = write_sensitivity_config(tmp_path, "random,basic,2back")
    assert main(["sensitivity", "--config", str(config), "--permutations", "2"]) == 0
    baseline, permuted = json.loads((tmp_path / "out" / "sensitivity.json").read_text())[
        "machines"]
    assert baseline["opcode_table"] == list(INSTRUCTION_NAMES)
    assert sorted(permuted["opcode_table"]) == sorted(INSTRUCTION_NAMES)
    assert permuted["opcode_table"] != baseline["opcode_table"]
    assert set(permuted["scores"]) == {"random", "basic", "2back"}
    assert permuted["scores"] != baseline["scores"]  # stream relabeling moves the noise


def test_sensitivity_draws_each_table_once(tmp_path):
    # at seed 7, drawing each row by its own shuffle repeats a table within 1,000 rows
    config = tmp_path / "config.txt"
    config.write_text(f"seed = 7\noutput_dir = {tmp_path / 'sens'}\nagents = random\n"
                      f"ensemble.max_length_bits = 1\n", encoding="utf-8")
    assert main(["sensitivity", "--config", str(config), "--permutations", "1000"]) == 0
    rows = json.loads((tmp_path / "sens" / "sensitivity.json").read_text())["machines"]
    assert len({tuple(row["opcode_table"]) for row in rows}) == len(rows) == 1000


@pytest.fixture
def pools_made(monkeypatch):
    """max_workers of every process pool the CLI constructs."""
    made = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
    return made


@pytest.mark.parametrize("workers, pools", [("1", []), ("2", [2])],
                         ids=["workers-1", "workers-2"])
def test_run_starts_at_most_one_pool_for_all_agents(tmp_path, pools_made, workers, pools):
    config = write_config(tmp_path, agents="random,basic,2back")
    assert main(["run", str(config), "--workers", workers]) == 0
    assert pools_made == pools


@pytest.mark.parametrize("workers, pools", [("1", []), ("2", [2])],
                         ids=["workers-1", "workers-2"])
def test_sensitivity_starts_at_most_one_pool_for_all_machines(tmp_path, pools_made,
                                                               workers, pools):
    config = tmp_path / "config.txt"
    config.write_text(f"seed = 7\noutput_dir = {tmp_path / 'sens'}\n"
                      "ensemble.max_length_bits = 11\nensemble.dedup_horizon = 4\n"
                      "valuation.episodes = 5\nvaluation.horizon = 30\n", encoding="utf-8")
    assert main(["sensitivity", "--config", str(config), "--permutations", "3",
                 "--workers", workers]) == 0
    assert pools_made == pools


@pytest.mark.parametrize("flag, cap", [("--episodes", MAX_EPISODES),
                                       ("--discount-episodes", MAX_DISCOUNT_EPISODES)],
                         ids=["--episodes", "--discount-episodes"])
def test_study_episodes_above_the_cap_exit_2(tmp_path, capsys, flag, cap):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["example-study", "--out", str(out), "--seed", "1", flag, str(cap + 1)])
    assert exit_info.value.code == 2
    assert f"at most {cap}" in capsys.readouterr().err
    assert not out.exists()
    # the cap itself parses; no study runs with it
    args = build_parser().parse_args(["example-study", "--out", str(out), "--seed", "1",
                                      flag, str(cap)])
    assert getattr(args, flag[2:].replace("-", "_")) == cap


def test_study_cycles_above_the_cap_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["example-study", "--out", str(out), "--seed", "1",
              "--cycles", str(MAX_STUDY_CYCLES + 1)])
    assert exit_info.value.code == 2
    assert f"at most {MAX_STUDY_CYCLES}" in capsys.readouterr().err
    assert not out.exists()
    # the cap itself parses; no study runs with it
    assert build_parser().parse_args(
        ["example-study", "--out", str(out), "--seed", "1",
         "--cycles", str(MAX_STUDY_CYCLES)]).cycles == MAX_STUDY_CYCLES


@pytest.mark.parametrize("argv", [
    ["run", "{config}"], ["sensitivity", "--config", "{config}", "--permutations", "2"],
], ids=["run", "sensitivity"])
def test_workers_above_the_cap_exit_2(tmp_path, capsys, pools_made, argv):
    config = write_config(tmp_path)
    argv = [arg.format(config=config) for arg in argv] + ["--workers", str(MAX_WORKERS + 1)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"at most {MAX_WORKERS}" in capsys.readouterr().err
    assert pools_made == []
    assert not (tmp_path / "out").exists()
    # the cap itself parses; no command runs with it
    assert build_parser().parse_args(
        ["run", str(config), "--workers", str(MAX_WORKERS)]).workers == MAX_WORKERS


def test_sensitivity_rejects_a_programs_file(tmp_path, capsys):
    # a permuted opcode table decodes the file's bits to other programs
    config = tmp_path / "config.txt"
    config.write_text(f"seed = 7\noutput_dir = {tmp_path / 'sens'}\n"
                      f"ensemble.programs_file = {tmp_path / 'missing.progs'}\n",
                      encoding="utf-8")
    assert main(["sensitivity", "--config", str(config), "--permutations", "2"]) == 2
    err = capsys.readouterr().err
    assert "configuration error: ensemble.programs_file" in err
    assert not (tmp_path / "sens").exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "{config}", "--workers", "0"], "at least 1"),
    (["run", "{config}", "--workers", "-4"], "at least 1"),
    (["example-study", "--out", "{out}", "--seed", "1", "--episodes", "0"], "at least 1"),
    (["example-study", "--out", "{out}", "--seed", "1", "--cycles", "0"], "at least 1"),
    (["example-study", "--out", "{out}", "--seed", "1", "--discount-episodes", "0"],
     "at least 2"),
    # one discounted episode would report an interval of width 0
    (["example-study", "--out", "{out}", "--seed", "1", "--discount-episodes", "1"],
     "at least 2"),
    (["sensitivity", "--config", "{config}", "--permutations", "0"], "at least 1"),
    (["sensitivity", "--config", "{config}", "--permutations", "2", "--workers", "0"],
     "at least 1"),
    # one row more than there are distinct opcode tables
    (["sensitivity", "--config", "{config}", "--permutations", str(MAX_PERMUTATIONS + 1)],
     f"at most {MAX_PERMUTATIONS}"),
], ids=["run-workers-0", "run-workers-neg", "study-episodes", "study-cycles",
        "study-discount-episodes", "study-discount-episodes-1",
        "sensitivity-permutations", "sensitivity-workers",
        "sensitivity-permutations-above-cap"])
def test_sizes_below_one_exit_2(tmp_path, capsys, argv, message):
    config = write_config(tmp_path)
    argv = [arg.format(config=config, out=tmp_path / "out") for arg in argv]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sensitivity_skips_external_agents(tmp_path, capsys):
    config = tmp_path / "config.txt"
    text = textwrap.dedent(f"""
        seed = 7
        output_dir = {tmp_path / 'sens'}
        ensemble.max_length_bits = 11
        ensemble.dedup_horizon = 4
        valuation.episodes = 10
        valuation.horizon = 30
        external.ext = {sys.executable} -c pass
    """)
    config.write_text(text + "agents = ext\n", encoding="utf-8")
    assert main(["sensitivity", "--config", str(config), "--permutations", "1"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "ext" in err
    assert not (tmp_path / "sens").exists()

    config.write_text(text + "agents = random,ext\n", encoding="utf-8")
    assert main(["sensitivity", "--config", str(config), "--permutations", "1"]) == 0
    assert "skipping external agents: ext" in capsys.readouterr().err
    document = json.loads((tmp_path / "sens" / "sensitivity.json").read_text())
    assert [set(row["scores"]) for row in document["machines"]] == [{"random"}]
