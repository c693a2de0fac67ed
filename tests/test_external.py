"""Wire protocol to externally implemented agents (real subprocesses)."""

from __future__ import annotations

import sys
import textwrap

import pytest

from agentgauge.agents import random_agent
from agentgauge.environments import ProgramEnvironment
from agentgauge.errors import ExternalAgentError, RolloutFailed
from agentgauge.external import ExternalAgentFactory
from agentgauge.interaction import SpaceConfig
from agentgauge.machine import MachineConfig, encode_program
from agentgauge.measure import EnsembleSpec, build_ensemble, estimate_intelligence
from agentgauge.valuation import ValuationParams, summable_episode_values, summable_value

MACHINE = MachineConfig()
SPACE = SpaceConfig()

UNIFORM_CHILD = """
import json, random, sys
rng = random.Random(97531)
actions = 2
for line in sys.stdin:
    msg = json.loads(line)
    kind = msg["type"]
    if kind == "hello":
        actions = msg["spaces"]["actions"]
        print(json.dumps({"type": "ready", "concurrency": 1}), flush=True)
    elif kind == "percept":
        print(json.dumps({"type": "action", "a": rng.randrange(actions)}), flush=True)
    elif kind == "bye":
        break
"""

SILENT_CHILD = """
import json, sys
for line in sys.stdin:
    msg = json.loads(line)
    if msg["type"] == "hello":
        print(json.dumps({"type": "ready", "concurrency": 1}), flush=True)
    elif msg["type"] == "bye":
        break
    # never replies to percepts
"""

FLAKY_CHILD = """
import json, sys
count = 0
for line in sys.stdin:
    msg = json.loads(line)
    kind = msg["type"]
    if kind == "hello":
        print(json.dumps({"type": "ready", "concurrency": 1}), flush=True)
    elif kind == "percept":
        count += 1
        if count == 3:
            print("this is not json", flush=True)
        else:
            print(json.dumps({"type": "action", "a": 0}), flush=True)
    elif kind == "bye":
        break
"""

WILD_CHILD = """
import json, sys
for line in sys.stdin:
    msg = json.loads(line)
    if msg["type"] == "hello":
        print(json.dumps({"type": "ready", "concurrency": 1}), flush=True)
    elif msg["type"] == "percept":
        print(json.dumps({"type": "action", "a": 7}), flush=True)
    elif msg["type"] == "bye":
        break
"""

COUNTING_CHILD = """
import json, sys
percepts = resets = 0
for line in sys.stdin:
    msg = json.loads(line)
    kind = msg["type"]
    if kind == "hello":
        print(json.dumps({"type": "ready"}), flush=True)
    elif kind == "percept":
        percepts += 1
        print(json.dumps({"type": "action", "a": 1}), flush=True)
    elif kind == "reset":
        resets += 1
    elif kind == "bye":
        break
with open(sys.argv[1], "w") as out:
    out.write(f"{percepts} {resets}")
"""


def child(tmp_path, source, name):
    path = tmp_path / f"{name}.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return [sys.executable, str(path)]


def reward_bearing_ensemble():
    programs = [
        encode_program(["dec", "move_left", "emit"], MACHINE),
        encode_program(["read_action", "move_left", "emit"], MACHINE),
        encode_program(["random_bit", "move_left", "emit"], MACHINE),
    ]
    spec = EnsembleSpec(max_program_length_bits=17, dedup_horizon=4)
    return build_ensemble(spec, MACHINE, SPACE, programs=programs)


def test_external_uniform_agent_scores_like_builtin_random(tmp_path):
    ensemble = reward_bearing_ensemble()
    params = ValuationParams(mode="summable", horizon=80, episodes=40, seed=23)
    builtin = estimate_intelligence(random_agent(SPACE), ensemble, params)
    factory = ExternalAgentFactory("ext-uniform", child(tmp_path, UNIFORM_CHILD, "uni"),
                                  SPACE, timeout_ms=4000)
    try:
        external = estimate_intelligence(factory, ensemble, params)
    finally:
        factory.close()
    assert external.failed_rollouts == 0
    gap = abs(external.score - builtin.score)
    assert gap <= 2.0 * (external.ci_half_width + builtin.ci_half_width)


def test_timeouts_fall_back_to_uniform_with_warnings(tmp_path):
    env = ProgramEnvironment(encode_program(["inc", "emit"], MACHINE), MACHINE, SPACE)
    factory = ExternalAgentFactory("ext-silent", child(tmp_path, SILENT_CHILD, "mute"),
                                   SPACE, timeout_ms=100)
    params = ValuationParams(mode="summable", horizon=5, episodes=2, seed=1)
    try:
        estimate = summable_value(factory, env, params)
    finally:
        factory.close()
    assert estimate.episodes_used == 2
    assert estimate.failed_episodes == 0
    # one warning per percept sent: 5 cycles per episode, 2 episodes
    assert factory.host.timeout_warnings == 10


def test_malformed_reply_marks_rollout_failed_not_scored(tmp_path):
    env = ProgramEnvironment(encode_program(["inc", "emit"], MACHINE), MACHINE, SPACE)
    factory = ExternalAgentFactory("ext-flaky", child(tmp_path, FLAKY_CHILD, "flaky"),
                                   SPACE, timeout_ms=4000)
    params = ValuationParams(mode="summable", horizon=4, episodes=3, seed=1)
    try:
        estimate = summable_value(factory, env, params)
    finally:
        factory.close()
    assert estimate.failed_episodes == 1
    assert estimate.episodes_used == 2


def test_out_of_range_action_fails_every_rollout(tmp_path):
    env = ProgramEnvironment(encode_program(["inc", "emit"], MACHINE), MACHINE, SPACE)
    factory = ExternalAgentFactory("ext-wild", child(tmp_path, WILD_CHILD, "wild"),
                                   SPACE, timeout_ms=4000)
    params = ValuationParams(mode="summable", horizon=4, episodes=2, seed=1)
    try:
        with pytest.raises(RolloutFailed):
            summable_value(factory, env, params)
    finally:
        factory.close()


def test_handshake_failure_is_loud(tmp_path):
    factory = ExternalAgentFactory(
        "ext-dead", [sys.executable, "-c", "pass"], SPACE, timeout_ms=500)
    with pytest.raises(ExternalAgentError):
        factory.make(None)
    factory.close()


def test_external_agent_sees_every_percept_of_an_action_free_program(tmp_path):
    # The environment never reads an action and draws no randomness, so a
    # built-in agent's episodes are all one; an external agent is a process
    # whose replies and warnings are observable, so it is still consulted.
    env = ProgramEnvironment(encode_program(["inc", "move_left", "emit"], MACHINE),
                             MACHINE, SPACE)
    counts = tmp_path / "counts.txt"
    factory = ExternalAgentFactory(
        "ext-count", child(tmp_path, COUNTING_CHILD, "count") + [str(counts)],
        SPACE, timeout_ms=4000)
    params = ValuationParams(mode="summable", horizon=6, episodes=3, seed=2)
    try:
        external = summable_episode_values(factory, env, params)
    finally:
        factory.close()
    assert counts.read_text(encoding="utf-8") == "18 3"
    builtin = summable_episode_values(random_agent(SPACE), env, params)
    assert external[0].tolist() == builtin[0].tolist()
    assert external[1:] == builtin[1:]
