"""Command-line front end: runs, reports, reproducibility, exit codes."""

from __future__ import annotations

import csv
import json
import pathlib
import re
import sys
import textwrap

import pytest

from agentgauge.cli import main
from agentgauge.config import _KNOWN_KEYS, parse_config
from agentgauge.machine import MachineConfig, encode_program, save_program_file
from agentgauge.reports import validate_report

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
    # a typo, and two keys that once parsed but could not change a run that
    # succeeds (gamma is unused in summable mode; without the reward budget
    # no program is reward-summable)
    for line in ("ensembel.max_length_bits = 11", "valuation.gamma = 0.5",
                 "machine.enforce_reward_budget = false"):
        config = tmp_path / "bad.txt"
        config.write_text(f"seed = 1\noutput_dir = {tmp_path / 'out'}\n{line}\n",
                          encoding="utf-8")
        assert main(["run", str(config)]) == 2
        assert line.partition(" =")[0] in capsys.readouterr().err
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


def test_discounted_mode_exits_2_at_config_time(tmp_path, capsys):
    config = write_config(tmp_path, extra="valuation.mode = discounted")
    assert main(["run", str(config)]) == 2
    assert "valuation.mode" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_external_timeout_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, extra="external_timeout_ms = -5")
    assert main(["run", str(config)]) == 2
    assert "external_timeout_ms" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "spaces.actions = 65537",
    "spaces.observations = 70000\nmachine.cell_modulus = 70000",
    "spaces.reward_denominator = 65536",
], ids=["actions", "observations", "reward-denominator"])
def test_space_beyond_two_bytes_exits_2(tmp_path, capsys, line):
    # signatures and window keys store each action, observation and reward
    # numerator in two bytes
    config = write_config(tmp_path, extra=line.replace("\n", "\n        "))
    assert main(["run", str(config)]) == 2
    assert "configuration error" in capsys.readouterr().err
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


@pytest.mark.parametrize("bad", ["len=7 hex=ZZ", "hello"])
def test_malformed_program_line_exits_1_naming_file_and_line(tmp_path, capsys, bad):
    config = write_config(tmp_path)
    programs = tmp_path / "envs.progs"
    programs.write_text(programs.read_text() + bad + "\n", encoding="utf-8")
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"error: {programs}, line 3:" in err
    assert not (tmp_path / "out").exists()


def test_run_with_external_agent(tmp_path):
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
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "probe" in report["agents"]
    assert report["external_timeout_warnings"] == {"probe": 0}


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


@pytest.mark.parametrize("argv", [
    ["run", "{config}", "--workers", "0"],
    ["run", "{config}", "--workers", "-4"],
    ["example-study", "--out", "{out}", "--seed", "1", "--episodes", "0"],
    ["example-study", "--out", "{out}", "--seed", "1", "--cycles", "0"],
    ["example-study", "--out", "{out}", "--seed", "1", "--discount-episodes", "0"],
    ["sensitivity", "--config", "{config}", "--permutations", "0"],
    ["sensitivity", "--config", "{config}", "--permutations", "2", "--workers", "0"],
], ids=["run-workers-0", "run-workers-neg", "study-episodes", "study-cycles",
        "study-discount-episodes", "sensitivity-permutations", "sensitivity-workers"])
def test_sizes_below_one_exit_2(tmp_path, capsys, argv):
    config = write_config(tmp_path)
    argv = [arg.format(config=config, out=tmp_path / "out") for arg in argv]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "at least 1" in capsys.readouterr().err
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
