"""Command-line front end: runs, reports, reproducibility, exit codes."""

from __future__ import annotations

import csv
import hashlib
import json
import pathlib
import re
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

import agentgauge
from agentgauge import cli
from agentgauge.cli import MAX_PERMUTATIONS, MAX_STUDY_CYCLES, MAX_WORKERS, build_parser, main
from agentgauge.config import _KNOWN_KEYS, MAX_BOOTSTRAP_SAMPLES, RunConfig, parse_config
from agentgauge.interaction import SpaceConfig
from agentgauge.machine import (
    INSTRUCTION_NAMES,
    MAX_TAPE_LENGTH,
    MachineConfig,
    encode_program,
    save_program_file,
)
from agentgauge.measure import MAX_PROGRAM_LENGTH_BITS, EnsembleSpec
from agentgauge.reports import validate_report
from agentgauge.valuation import MAX_EPISODES, ValuationParams

MACHINE = MachineConfig()


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
    validate_report(report)
    # the dec/move_left/emit environment pays the whole budget to any agent
    full = next(r for r in report["environments"] if "218C0" in r["program_id"])
    assert full["values"]["random"]["mean"] == 1.0
    assert (tmp_path / "out" / "manifest.json").exists()


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
    # make_agent would name these basic, 1back and 2back: the roster and the
    # report would then hold two agents of one name
    config = tmp_path / "alias.txt"
    config.write_text(f"seed = 1\nagents = basic,{alias}\n", encoding="utf-8")
    assert main(["run", str(config)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and alias in err


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
@pytest.mark.parametrize("key", ["bootstrap_samples", "valuation.episodes"])
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


def test_sample_count_caps_are_accepted():
    config = parse_config(f"seed = 1\nbootstrap_samples = {MAX_BOOTSTRAP_SAMPLES}\n")
    assert config.bootstrap_samples == MAX_BOOTSTRAP_SAMPLES


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
@pytest.mark.parametrize("lines", [
    "spaces.actions = 3\nensemble.dedup_horizon = 8",
    "ensemble.dedup_horizon = 20",
    "spaces.actions = 4\nensemble.dedup_horizon = none\nensemble.weight_scheme = kt",
], ids=["three-actions", "horizon-20", "kt-four-actions"])
def test_signature_beyond_the_node_cap_exits_2(tmp_path, capsys, command, lines):
    config = tmp_path / "config.txt"
    config.write_text(f"seed = 1\noutput_dir = {tmp_path / 'out'}\n{lines}\n",
                      encoding="utf-8")
    argv = ["run", str(config)] if command == "run" else [
        "sensitivity", "--config", str(config), "--permutations", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "ensemble.dedup_horizon" in err and "spaces.actions" in err
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


def test_importing_the_cli_leaves_jsonschema_unloaded():
    # only validate_report needs jsonschema, which is slow to import
    code = "import sys, agentgauge.cli; print('jsonschema' in sys.modules)"
    src = pathlib.Path(agentgauge.__file__).parents[1]
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={"PYTHONPATH": str(src)}, check=True)
    assert result.stdout == "False\n"


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


def test_example_study_bytes_are_golden(tmp_path):
    # Exact bytes of the worked study; a faster kernel must not move a digit.
    # Recorded before batch profiles were reduced as they run and before the
    # discounted matrix was filled by cycle blocks.
    out = tmp_path / "study"
    assert main(["example-study", "--out", str(out), "--seed", "3",
                 "--episodes", "300", "--cycles", "400",
                 "--discount-episodes", "300"]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("study.json", "profiles.csv")}
    assert digests == {
        "study.json": "d3a6d9cce273483c26ab3134979aaaae5c3d294a74637dcd70d517e8bbc14e3e",
        "profiles.csv": "2c51144b4957f139a1602ace4c67fa61189177cf92e8756b368dfa159adf5baf",
    }


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


@pytest.mark.parametrize("flag", ["--episodes", "--discount-episodes"])
def test_study_episodes_above_the_cap_exit_2(tmp_path, capsys, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["example-study", "--out", str(out), "--seed", "1", flag, str(MAX_EPISODES + 1)])
    assert exit_info.value.code == 2
    assert f"at most {MAX_EPISODES}" in capsys.readouterr().err
    assert not out.exists()


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
     "at least 1"),
    (["sensitivity", "--config", "{config}", "--permutations", "0"], "at least 1"),
    (["sensitivity", "--config", "{config}", "--permutations", "2", "--workers", "0"],
     "at least 1"),
    # one row more than there are distinct opcode tables
    (["sensitivity", "--config", "{config}", "--permutations", str(MAX_PERMUTATIONS + 1)],
     f"at most {MAX_PERMUTATIONS}"),
], ids=["run-workers-0", "run-workers-neg", "study-episodes", "study-cycles",
        "study-discount-episodes", "sensitivity-permutations", "sensitivity-workers",
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
