"""Wire protocol for externally implemented agents.

An external agent is any process that speaks newline-delimited JSON on its
standard streams:

    tool -> {"type": "hello", "spaces": {"actions": A, "observations": O,
             "reward_denominator": D}, "protocol": 1}
    agent -> {"type": "ready"}

    tool -> {"type": "percept", "o": int, "r_num": int, "cycle": k, "episode": e}
    agent -> {"type": "action", "a": int}        (within the timeout)

    tool -> {"type": "reset", "episode": e}      (episode boundary)
    tool -> {"type": "bye"}                      (shutdown)

The host reads its own replies, with no thread: it polls the agent's stdout
until the percept's deadline and splits one line of UTF-8 JSON off the bytes
that arrived.  A timed-out action is replaced by a uniformly random one and
counted as a warning.  The host counts the replies owed by timed-out
percepts and discards that many lines before it accepts the next reply, so
a late reply is never taken as the answer to a later percept.  A malformed
line (not UTF-8, or not a JSON object), discarded or not, or an out-of-range
reply aborts the rollout, which is then reported as failed rather than
scored.  An agent that exits mid-run fails the run.  `ExternalAgentHost` is
the agent factory: `make` starts the process on first use, and each call
opens one episode.
"""

from __future__ import annotations

import json
import os
import random
import select
import subprocess
import time

from .errors import ExternalAgentError, RolloutFailed
from .interaction import Percept, SpaceConfig

HANDSHAKE_TIMEOUT_S = 10.0
PROTOCOL_VERSION = 1
# the bytes of json.dumps(percept message, sort_keys=True) + "\n"
PERCEPT_LINE = b'{"cycle": %d, "episode": %d, "o": %d, "r_num": %d, "type": "percept"}\n'


class ExternalAgentHost:
    """Agent factory of one external agent process; it owns the message streams."""

    def __init__(self, name: str, argv: list[str], space: SpaceConfig,
                 timeout_ms: int = 1000) -> None:
        self.name = name
        self.argv = list(argv)
        self.space = space
        self.timeout_s = timeout_ms / 1000.0
        self.process: subprocess.Popen | None = None
        self.poller: select.poll | None = None
        self.pending = b""      # read from the agent, not yet split into lines
        self.timeout_warnings = 0
        self.late_replies_owed = 0
        self.episodes_started = 0

    def start(self) -> None:
        self.process = subprocess.Popen(
            self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        self.poller = select.poll()
        self.poller.register(self.process.stdout, select.POLLIN)
        try:
            self._send({"type": "hello",
                        "spaces": {"actions": self.space.action_count,
                                   "observations": self.space.observation_count,
                                   "reward_denominator": self.space.reward_denominator},
                        "protocol": PROTOCOL_VERSION})
            try:
                reply = self._read(time.monotonic() + HANDSHAKE_TIMEOUT_S)
            except RolloutFailed as exc:
                raise ExternalAgentError(
                    f"external agent {self.name}: handshake failed: {exc}") from exc
            if reply is None or reply.get("type") != "ready":
                raise ExternalAgentError(f"external agent {self.name}: handshake failed: "
                                         f"expected ready, got {reply!r}")
        except ExternalAgentError:
            self.close()
            raise

    def _send(self, message: dict) -> None:
        self._write((json.dumps(message, sort_keys=True) + "\n").encode())

    def _write(self, line: bytes) -> None:
        try:
            self.process.stdin.write(line)
        except (BrokenPipeError, ValueError) as exc:
            raise ExternalAgentError(f"external agent {self.name}: pipe closed: {exc}") from exc

    def _read(self, deadline: float) -> dict | None:
        """Next parsed message, or None if no whole line arrives by the deadline."""
        end = self.pending.find(b"\n")
        while end < 0:
            wait_ms = (deadline - time.monotonic()) * 1000.0
            if wait_ms <= 0 or not self.poller.poll(wait_ms):
                return None
            chunk = os.read(self.process.stdout.fileno(), 65536)
            if not chunk:
                raise ExternalAgentError(f"external agent {self.name} exited or closed its output")
            self.pending += chunk
            end = self.pending.find(b"\n")
        line = self.pending[:end]
        self.pending = self.pending[end + 1:]
        try:
            parsed = json.loads(line.decode("utf-8"))
        except ValueError:      # UnicodeDecodeError or JSONDecodeError
            parsed = None
        if not isinstance(parsed, dict):
            raise RolloutFailed(f"malformed reply from external agent {self.name}: {line!r}")
        return parsed

    def request_action(self, percept: Percept, cycle: int, episode: int,
                       fallback_rng: random.Random) -> int:
        self._write(PERCEPT_LINE % (cycle, episode, *percept))
        deadline = time.monotonic() + self.timeout_s
        reply = self._read(deadline)
        while reply is not None and self.late_replies_owed:
            # the late reply to an earlier percept that timed out
            self.late_replies_owed -= 1
            reply = self._read(deadline)
        if reply is None:
            self.timeout_warnings += 1
            self.late_replies_owed += 1
            return fallback_rng.randrange(self.space.action_count)
        if reply.get("type") != "action":
            raise RolloutFailed(f"protocol violation: expected action, got {reply!r}")
        action = reply.get("a")
        # json gives true/false as bool, a subclass of int
        if type(action) is not int or not 0 <= action < self.space.action_count:
            raise RolloutFailed(f"action out of range from external agent: {action!r}")
        return action

    def make(self, rng: random.Random) -> _ExternalPolicy:
        if self.process is None:
            self.start()
        self.episodes_started += 1
        self._send({"type": "reset", "episode": self.episodes_started})
        return _ExternalPolicy(self, self.episodes_started, rng)

    def close(self) -> None:
        if self.process is None:
            return
        try:
            self._send({"type": "bye"})
        except ExternalAgentError:
            pass
        try:
            self.process.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            self.process.terminate()
            try:
                self.process.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()
        self.process = None
        self.pending = b""


class _ExternalPolicy:
    """Per-rollout proxy: forwards percepts, returns the replied actions.

    The reply to a percept is read eagerly in observe(), so the message
    streams stay in lockstep even for the final percept of an episode.
    """

    def __init__(self, host: ExternalAgentHost, episode: int,
                 rng: random.Random) -> None:
        self.host = host
        self.episode = episode
        self.rng = rng
        self.cycle = 0
        self.next_action: int | None = None

    def observe(self, percept: Percept) -> None:
        self.cycle += 1
        self.next_action = self.host.request_action(
            percept, self.cycle, self.episode, self.rng)

    def act(self) -> int:
        if self.next_action is None:
            raise RolloutFailed("external agent asked to act before any percept")
        return self.next_action
