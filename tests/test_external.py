"""Wire protocol to externally implemented agents (real subprocesses)."""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import sys
import textwrap
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from agentgauge.agents import AgentFactory
from agentgauge.environments import ProgramEnvironment
from agentgauge.errors import ExternalAgentError, RolloutFailed
from agentgauge.external import ExternalAgentHost
from agentgauge.interaction import Percept, SpaceConfig
from agentgauge.machine import MachineConfig
from agentgauge.measure import EnsembleSpec, build_ensemble, estimate_intelligence
from agentgauge.valuation import ValuationParams, ValueEstimate, summable_episode_values
from natives import encode_program

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

LATE_CHILD = """
import json, sys, time
delay = float(sys.argv[1])
for line in sys.stdin:
    msg = json.loads(line)
    kind = msg["type"]
    if kind == "hello":
        print(json.dumps({"type": "ready"}), flush=True)
    elif kind == "percept":
        if msg["cycle"] == 1:
            time.sleep(delay)
        print(json.dumps({"type": "action", "a": msg["cycle"] % 2}), flush=True)
    elif kind == "bye":
        break
"""


NON_UTF8_CHILD = """
import json, sys
count = 0
for line in sys.stdin:
    msg = json.loads(line)
    kind = msg["type"]
    if kind == "hello":
        print(json.dumps({"type": "ready"}), flush=True)
    elif kind == "percept":
        count += 1
        if count == 3:
            # valid JSON under any lenient decoding, but not UTF-8
            sys.stdout.buffer.write(b'{"type": "action", "a": 0, "note": "\\xff"}\\n')
            sys.stdout.buffer.flush()
        else:
            print(json.dumps({"type": "action", "a": 0}), flush=True)
    elif kind == "bye":
        break
"""

FRAMING_CHILD = """
import json, os, sys, time
for line in sys.stdin:
    msg = json.loads(line)
    kind = msg["type"]
    if kind == "hello":
        os.write(1, b'{"type": "ready"}\\n')
    elif kind == "percept" and msg["cycle"] == 1:
        # the replies to cycles 1 and 2 in one write
        os.write(1, b'{"type": "action", "a": 1}\\n{"type": "action", "a": 2}\\n')
    elif kind == "percept" and msg["cycle"] == 3:
        # the reply to cycle 3 in two writes 50 ms apart
        os.write(1, b'{"type": "act')
        time.sleep(0.05)
        os.write(1, b'ion", "a": 3}\\n')
    elif kind == "percept" and msg["cycle"] > 3:
        os.write(1, b'{"type": "action", "a": 0}\\n')
    elif kind == "bye":
        break
"""

DEAF_CHILD = """
import json, sys, time
sys.stdin.readline()
print(json.dumps({"type": "ready"}), flush=True)
time.sleep(60)    # never reads again
"""

RECORDING_CHILD = """
import json, sys
with open(sys.argv[1], "ab") as record:
    for line in sys.stdin.buffer:
        record.write(line)
        record.flush()
        kind = json.loads(line)["type"]
        if kind == "hello":
            print(json.dumps({"type": "ready"}), flush=True)
        elif kind == "percept":
            print(json.dumps({"type": "action", "a": 1}), flush=True)
        elif kind == "bye":
            break
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
    params = ValuationParams(horizon=80, episodes=40, seed=23)
    builtin = estimate_intelligence(AgentFactory("random", SPACE), ensemble, params)
    factory = ExternalAgentHost("ext-uniform", child(tmp_path, UNIFORM_CHILD, "uni"),
                                SPACE, timeout_ms=4000)
    try:
        external = estimate_intelligence(factory, ensemble, params)
    finally:
        factory.close()
    assert external.failed_rollouts == 0
    gap = abs(external.score - builtin.score)
    assert gap <= 2.0 * (external.ci_half_width + builtin.ci_half_width)


def test_timeouts_fall_back_to_uniform_with_warnings(tmp_path):
    # A reward-capable program: the rollouts run all five cycles.
    env = ProgramEnvironment(encode_program(["read_action", "move_left", "emit"], MACHINE),
                             MACHINE, SPACE, reward_free=False)
    factory = ExternalAgentHost("ext-silent", child(tmp_path, SILENT_CHILD, "mute"),
                                SPACE, timeout_ms=100)
    params = ValuationParams(horizon=5, episodes=2, seed=1)
    try:
        estimate = summable_episode_values(factory, env, params)[1]
    finally:
        factory.close()
    assert estimate.episodes_used == 2
    assert estimate.failed_episodes == 0
    # one warning per percept sent: 5 cycles per episode, 2 episodes
    assert factory.timeout_warnings == 10


def test_malformed_reply_marks_rollout_failed_not_scored(tmp_path):
    env = ProgramEnvironment(encode_program(["inc", "emit"], MACHINE), MACHINE, SPACE,
                             reward_free=True)
    factory = ExternalAgentHost("ext-flaky", child(tmp_path, FLAKY_CHILD, "flaky"),
                                SPACE, timeout_ms=4000)
    params = ValuationParams(horizon=4, episodes=3, seed=1)
    try:
        estimate = summable_episode_values(factory, env, params)[1]
    finally:
        factory.close()
    assert estimate.failed_episodes == 1
    assert estimate.episodes_used == 2


def test_reply_that_is_not_utf8_fails_only_its_rollout(tmp_path, monkeypatch):
    # The bad line is consumed with its rollout: the later percepts get their
    # own replies, and nothing is raised outside the calling thread.
    unraisable, thread_errors = [], []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    monkeypatch.setattr(threading, "excepthook", thread_errors.append)
    env = ProgramEnvironment(encode_program(["inc", "emit"], MACHINE), MACHINE, SPACE,
                             reward_free=True)
    factory = ExternalAgentHost("ext-latin", child(tmp_path, NON_UTF8_CHILD, "latin"),
                                SPACE, timeout_ms=1000)
    params = ValuationParams(horizon=4, episodes=3, seed=1)
    try:
        estimate = summable_episode_values(factory, env, params)[1]
    finally:
        factory.close()
    assert estimate.failed_episodes == 1
    assert estimate.episodes_used == 2
    assert factory.timeout_warnings == 0
    assert unraisable == [] and thread_errors == []


def test_out_of_range_action_fails_every_rollout(tmp_path):
    env = ProgramEnvironment(encode_program(["inc", "emit"], MACHINE), MACHINE, SPACE,
                             reward_free=True)
    params = ValuationParams(horizon=4, episodes=2, seed=1)
    # a JSON true is no action, though Python's bool is a subclass of int
    children = {"wild": WILD_CHILD, "bool": WILD_CHILD.replace('"a": 7', '"a": True')}
    for name, source in children.items():
        factory = ExternalAgentHost(f"ext-{name}", child(tmp_path, source, name),
                                    SPACE, timeout_ms=4000)
        try:
            with pytest.raises(RolloutFailed):
                summable_episode_values(factory, env, params)
        finally:
            factory.close()


def test_handshake_failure_is_loud(tmp_path):
    factory = ExternalAgentHost(
        "ext-dead", [sys.executable, "-c", "pass"], SPACE, timeout_ms=500)
    with pytest.raises(ExternalAgentError):
        factory.make(None)
    factory.close()


def test_external_agent_sees_every_percept_of_an_action_free_program(tmp_path):
    # The environment never reads an action and draws no randomness, so a
    # built-in agent's episodes are all one; an external agent is a process
    # whose replies and warnings are observable, so it is still consulted.
    env = ProgramEnvironment(encode_program(["inc", "move_left", "emit"], MACHINE),
                             MACHINE, SPACE, reward_free=False)
    counts = tmp_path / "counts.txt"
    factory = ExternalAgentHost(
        "ext-count", child(tmp_path, COUNTING_CHILD, "count") + [str(counts)],
        SPACE, timeout_ms=4000)
    params = ValuationParams(horizon=6, episodes=3, seed=2)
    try:
        external = summable_episode_values(factory, env, params)
    finally:
        factory.close()
    assert counts.read_text(encoding="utf-8") == "18 3"
    builtin = summable_episode_values(AgentFactory("random", SPACE), env, params)
    assert external[0].tolist() == builtin[0].tolist()
    assert external[1] == builtin[1]


def test_external_agent_plays_every_episode_of_a_reward_free_program(tmp_path):
    # A built-in agent values a proven reward-free program at 0 and plays no
    # episode; an external agent still gets each episode's one percept.
    env = ProgramEnvironment(encode_program(["inc", "emit"], MACHINE), MACHINE, SPACE,
                             reward_free=True)
    counts = tmp_path / "counts.txt"
    factory = ExternalAgentHost(
        "ext-count", child(tmp_path, COUNTING_CHILD, "count") + [str(counts)],
        SPACE, timeout_ms=4000)
    params = ValuationParams(horizon=6, episodes=3, seed=2)
    try:
        external = summable_episode_values(factory, env, params)
    finally:
        factory.close()
    assert counts.read_text(encoding="utf-8") == "3 3"
    builtin = summable_episode_values(AgentFactory("random", SPACE), env, params)
    assert external[0].tolist() == builtin[0].tolist() == [0.0] * 3
    # every episode stops after cycle 1 with nothing left to earn
    assert external[1] == builtin[1] == ValueEstimate(
        mean=0.0, ci_half_width=0.0, episodes_used=3,
        truncation_bound=params.trunc_epsilon, failed_episodes=0)


def test_late_reply_is_discarded_not_taken_for_the_next_percept(tmp_path):
    # The reply to cycle 1 arrives after its timeout, while cycle 2 waits; it
    # must be dropped, so cycle 2 gets its own reply and the streams realign.
    timeout_ms = 1000
    factory = ExternalAgentHost(
        "ext-late", child(tmp_path, LATE_CHILD, "late") + [str(1.5 * timeout_ms / 1000)],
        SPACE, timeout_ms=timeout_ms)
    try:
        episode = factory.make(random.Random(0)).episode
        actions = [factory.request_action(Percept(0, 0), cycle, episode, random.Random(0))
                   for cycle in range(1, 7)]
    finally:
        factory.close()
    assert factory.timeout_warnings == 1
    assert actions[1:] == [cycle % 2 for cycle in range(2, 7)]


@pytest.mark.parametrize("handshake", ["completed", "failed"])
def test_close_leaves_no_pipe_open(tmp_path, monkeypatch, handshake):
    # An unclosed pipe or an unreaped child warns when it is collected,
    # inside a finalizer, where the warning can only reach the unraisable hook.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    threads = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        if handshake == "completed":
            host = ExternalAgentHost("ext-uni", child(tmp_path, UNIFORM_CHILD, "uni"), SPACE)
            host.start()
            host.close()
        else:
            host = ExternalAgentHost("ext-dead", [sys.executable, "-c", "pass"], SPACE)
            with pytest.raises(ExternalAgentError):
                host.start()
        # the host reads its replies itself and starts no thread
        assert threading.active_count() == threads
        del host
        gc.collect()
    assert [hook.exc_value for hook in unraisable] == []


@pytest.mark.parametrize("fill", ["percepts", "to-the-brim"])
def test_close_stops_an_agent_that_stopped_reading_at_once(tmp_path, fill):
    # Percepts fill the pipe until one does not fit, which can leave room
    # for bye; filled to the brim, bye itself does not fit.  Either way the
    # agent never reads bye, so waiting for it to exit would only wait.
    host = ExternalAgentHost("ext-deaf", child(tmp_path, DEAF_CHILD, "deaf"), SPACE,
                             timeout_ms=1)
    host.start()
    process = host.process
    if fill == "percepts":
        with pytest.raises(ExternalAgentError, match="stopped reading"):
            for cycle in itertools.count(1):
                host.request_action(Percept(0, 0), cycle, 1, random.Random(0))
    else:
        with pytest.raises(BlockingIOError):
            while True:
                os.write(process.stdin.fileno(), b"\n" * 65536)
    started = time.monotonic()
    host.close()
    assert time.monotonic() - started < 0.5
    assert process.returncode is not None and host.process is None


def test_replies_are_framed_by_newlines_not_by_writes(tmp_path):
    # Two replies in one write, then one reply split over two writes.
    space = SpaceConfig(action_count=4)
    host = ExternalAgentHost("ext-framing", child(tmp_path, FRAMING_CHILD, "framing"),
                             space, timeout_ms=1000)
    try:
        episode = host.make(random.Random(0)).episode
        actions = [host.request_action(Percept(0, 0), cycle, episode, random.Random(0))
                   for cycle in range(1, 5)]
    finally:
        host.close()
    assert actions == [1, 2, 3, 0]
    assert host.timeout_warnings == 0


def test_wire_bytes_are_sorted_key_json_lines(tmp_path):
    space = SpaceConfig(action_count=3, observation_count=65536, reward_denominator=65535)
    record = tmp_path / "stdin.bin"
    host = ExternalAgentHost(
        "ext-record", child(tmp_path, RECORDING_CHILD, "record") + [str(record)],
        space, timeout_ms=4000)
    try:
        policy = host.make(random.Random(0))
        policy.observe(Percept(65535, 65535))
        policy.observe(Percept(0, 12))
    finally:
        host.close()
    messages = [
        {"type": "hello", "protocol": 1,
         "spaces": {"actions": 3, "observations": 65536, "reward_denominator": 65535}},
        {"type": "reset", "episode": 1},
        {"type": "percept", "o": 65535, "r_num": 65535, "cycle": 1, "episode": 1},
        {"type": "percept", "o": 0, "r_num": 12, "cycle": 2, "episode": 1},
        {"type": "bye"},
    ]
    expected = "".join(json.dumps(m, sort_keys=True) + "\n" for m in messages)
    assert record.read_bytes() == expected.encode()


def test_an_external_agent_plays_in_the_callers_process_whatever_the_pool(tmp_path):
    # a pool worker would start its own copy of the agent, whose episodes and
    # warnings the caller's host never sees; the caller's agent must see
    # every percept, in entry order, with or without a pool
    ensemble = reward_bearing_ensemble()
    params = ValuationParams(horizon=20, episodes=3, seed=5)
    seen = []
    with ProcessPoolExecutor(max_workers=2) as pool:
        for name, given in (("serial", None), ("pooled", pool)):
            record = tmp_path / f"{name}.bin"
            host = ExternalAgentHost(
                "ext", child(tmp_path, RECORDING_CHILD, "record") + [str(record)],
                SPACE, timeout_ms=4000)
            try:
                measurement = estimate_intelligence(host, ensemble, params, pool=given)
            finally:
                host.close()
            seen.append((host.episodes_started, measurement.estimates, record.read_bytes()))
    assert seen[0][0] == len(ensemble.entries) * params.episodes
    assert seen[1] == seen[0]
