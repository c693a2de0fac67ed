"""Concrete prefix reference machine for environment programs.

A program is a self-delimiting bit string: an Elias-gamma header carrying the
instruction count, then one 4-bit opcode per instruction.  Nine opcodes are
meaningful; the remaining seven nibble values make a string invalid, as do
unbalanced loop brackets, so the set of valid programs is prefix-free and its
2^-length weights satisfy the Kraft inequality.

A decoded program runs as an interactive environment process.  Each
interaction cycle executes the program from its first instruction until an
EMIT instruction produces a percept, the program runs off its end, or the
per-cycle step budget is exhausted (the latter two emit the default percept
(0, 0)).  Tape contents, tape pointer, reward budget, the last-action
register and the random stream persist across cycles, so short programs can
express environments whose rewards depend on the agent's actions.

Reward emission is budget-limited: a process can emit at most D/D = 1 of
total reward over its lifetime (numerators are clamped to the remaining
budget), which makes every program a reward-summable environment by
construction.

`proves_reward_free` decides, once per program, that no positive reward can
ever be emitted.  It explores the closure of machine states reachable under
every action and every outcome of every random bit, stepping the interpreter
itself, and answers no when a step emits reward or a cap is hit.  A process
marked reward-free has a remaining reward bound of 0 from its first cycle on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .coding import bits_to_hex, elias_gamma_decode, elias_gamma_encode
from .errors import InvalidProgramError, ProtocolError
from .interaction import Percept, SpaceConfig

INSTRUCTION_NAMES = (
    "move_right",
    "move_left",
    "inc",
    "dec",
    "loop_open",
    "loop_close",
    "read_action",
    "random_bit",
    "emit",
)

# Canonical internal opcodes, in INSTRUCTION_NAMES order.
_OP_RIGHT, _OP_LEFT, _OP_INC, _OP_DEC, _OP_OPEN, _OP_CLOSE, _OP_READ, _OP_RAND, _OP_EMIT = range(9)

OPCODE_BITS = 4
SIGNATURE_NODE_CAP = 8192
REACH_STATE_CAP = 256     # distinct post-cycle states a proof may visit
REACH_SCRIPT_CAP = 256    # random-bit scripts one cycle may branch into


@dataclass(frozen=True)
class MachineConfig:
    """Reference machine parameters.

    The opcode table maps 4-bit code values 0..8 to instruction meanings; it
    is permutable to support the reference-machine sensitivity experiment.
    `enforce_reward_budget` turns the lifetime reward cap off for fixtures
    that mirror non-summable native environments.
    """

    step_budget_per_cycle: int = 4096
    tape_length: int = 64
    cell_modulus: int = 256
    opcode_table: tuple[str, ...] = INSTRUCTION_NAMES
    enforce_reward_budget: bool = True

    def __post_init__(self) -> None:
        if self.step_budget_per_cycle < 1:
            raise ValueError("step_budget_per_cycle must be >= 1")
        if self.tape_length < 2:
            raise ValueError("tape_length must be >= 2 (emit reads two cells)")
        if self.cell_modulus < 2:
            raise ValueError("cell_modulus must be >= 2")
        table = tuple(self.opcode_table)
        if sorted(table) != sorted(INSTRUCTION_NAMES):
            raise ValueError("opcode_table must be a permutation of the 9 instructions")
        object.__setattr__(self, "opcode_table", table)


@dataclass(frozen=True)
class EnvProgram:
    """A decoded environment program."""

    bits: str
    instructions: tuple[str, ...]
    ops: tuple[int, ...] = field(repr=False)
    jumps: tuple[int, ...] = field(repr=False)

    @property
    def length_bits(self) -> int:
        return len(self.bits)

    @property
    def has_emit(self) -> bool:
        return _OP_EMIT in self.ops

    @property
    def program_id(self) -> str:
        return f"len={len(self.bits)} hex={bits_to_hex(self.bits)}"


def _match_brackets(ops: tuple[int, ...]) -> tuple[int, ...]:
    jumps = [-1] * len(ops)
    stack: list[int] = []
    for i, op in enumerate(ops):
        if op == _OP_OPEN:
            stack.append(i)
        elif op == _OP_CLOSE:
            if not stack:
                raise InvalidProgramError("unbalanced brackets: close without open")
            j = stack.pop()
            jumps[j] = i
            jumps[i] = j
    if stack:
        raise InvalidProgramError("unbalanced brackets: open without close")
    return tuple(jumps)


def _compile(codes: list[int], bits: str, machine: MachineConfig) -> EnvProgram:
    names = tuple(machine.opcode_table[c] for c in codes)
    ops = tuple(INSTRUCTION_NAMES.index(name) for name in names)
    jumps = _match_brackets(ops)
    return EnvProgram(bits=bits, instructions=names, ops=ops, jumps=jumps)


def decode_program(bits: str, machine: MachineConfig = MachineConfig()) -> EnvProgram:
    """Decode a self-delimiting bit string; reject anything malformed.

    Decoding must consume exactly the whole string: truncated headers,
    missing or trailing bits, reserved opcodes and unbalanced brackets all
    raise InvalidProgramError.
    """
    if bits and set(bits) - {"0", "1"}:
        raise InvalidProgramError("bit string must contain only 0 and 1")
    header_value, consumed = elias_gamma_decode(bits)
    count = header_value - 1
    expected = consumed + OPCODE_BITS * count
    if len(bits) < expected:
        raise InvalidProgramError("insufficient bits for declared instruction count")
    if len(bits) > expected:
        raise InvalidProgramError("trailing bits after program body")
    codes = []
    for i in range(count):
        nibble = bits[consumed + OPCODE_BITS * i : consumed + OPCODE_BITS * (i + 1)]
        code = int(nibble, 2)
        if code >= len(INSTRUCTION_NAMES):
            raise InvalidProgramError(f"reserved opcode {code:04b}")
        codes.append(code)
    return _compile(codes, bits, machine)


def encode_program(instructions: tuple[str, ...] | list[str],
                   machine: MachineConfig = MachineConfig()) -> EnvProgram:
    """Encode an instruction list into its canonical bit string."""
    codes = []
    for name in instructions:
        try:
            codes.append(machine.opcode_table.index(name))
        except ValueError:
            raise InvalidProgramError(f"unknown instruction {name!r}") from None
    bits = elias_gamma_encode(len(codes) + 1) + "".join(
        f"{c:0{OPCODE_BITS}b}" for c in codes
    )
    return _compile(codes, bits, machine)


def program_length_bits(instruction_count: int) -> int:
    """Encoded length in bits of a program with the given instruction count."""
    return len(elias_gamma_encode(instruction_count + 1)) + OPCODE_BITS * instruction_count


def enumerate_programs(max_length_bits: int,
                       machine: MachineConfig = MachineConfig()) -> list[EnvProgram]:
    """All valid programs of encoded length <= max_length_bits, in shortlex order.

    Enumeration is exhaustive and deterministic: instruction counts ascend and
    opcode digits are generated in lexicographic order, which equals bit-string
    lexicographic order for the fixed-width opcode encoding.
    """
    open_code = machine.opcode_table.index("loop_open")
    close_code = machine.opcode_table.index("loop_close")
    programs: list[EnvProgram] = []
    count = 0
    while program_length_bits(count) <= max_length_bits:
        prefix: list[int] = []

        def descend(depth_open: int) -> None:
            if len(prefix) == count:
                if depth_open == 0:
                    header = elias_gamma_encode(count + 1)
                    bits = header + "".join(f"{c:0{OPCODE_BITS}b}" for c in prefix)
                    programs.append(_compile(list(prefix), bits, machine))
                return
            remaining = count - len(prefix)
            for code in range(len(INSTRUCTION_NAMES)):
                if code == open_code:
                    depth = depth_open + 1
                elif code == close_code:
                    depth = depth_open - 1
                else:
                    depth = depth_open
                if depth < 0 or depth > remaining - 1:
                    continue
                prefix.append(code)
                descend(depth)
                prefix.pop()

        descend(0)
        count += 1
    return programs


def prior_weight(program: EnvProgram) -> Fraction:
    """Exact dyadic prior weight 2^-|p| of one program."""
    return Fraction(1, 2 ** program.length_bits)


class EnvProcess:
    """One running environment: a program plus its persistent machine state.

    Single-owner mutable; distinct processes may run in parallel freely.
    `enable_shortcuts=False` turns off all execution shortcuts (used by tests
    that check the shortcuts are behavior-preserving).  `reward_free` is set
    by the owner of a `proves_reward_free` proof; it changes no percept, only
    the remaining reward bound.
    """

    __slots__ = (
        "program", "machine", "space", "tape", "ptr", "budget", "last_action",
        "cycles", "rng", "shortcuts", "frozen", "frozen_obs", "frozen_raw",
        "steps_last_cycle", "total_steps", "emitted_total", "draws", "reward_free",
    )

    def __init__(self, program: EnvProgram, machine: MachineConfig,
                 space: SpaceConfig, rng: random.Random | int | None = None,
                 enable_shortcuts: bool = True) -> None:
        self.program = program
        self.machine = machine
        self.space = space
        self.tape = [0] * machine.tape_length
        self.ptr = 0
        self.budget = space.reward_denominator
        self.last_action = 0
        self.cycles = 0
        if isinstance(rng, random.Random):
            self.rng = rng
        else:
            self.rng = random.Random(0 if rng is None else rng)
        self.shortcuts = enable_shortcuts
        self.frozen = False
        self.frozen_obs = 0
        self.frozen_raw = 0
        self.steps_last_cycle = 0
        self.total_steps = 0
        self.emitted_total = 0
        self.draws = 0  # random bits drawn so far
        self.reward_free = False
        if enable_shortcuts and not program.has_emit:
            # A program with no EMIT can only ever produce default percepts.
            self.frozen = True

    @property
    def halted(self) -> bool:
        """True once every future percept is provably (observation 0, reward 0)."""
        return self.frozen and self.frozen_obs == 0 and self.remaining_reward_bound == 0

    @property
    def remaining_reward_bound(self) -> float:
        """Upper bound on the reward fraction this process can still emit."""
        if self.reward_free or (self.frozen and self.frozen_raw == 0):
            return 0.0
        if not self.machine.enforce_reward_budget:
            return math.inf
        return self.budget / self.space.reward_denominator

    def clone(self) -> "EnvProcess":
        other = EnvProcess.__new__(EnvProcess)
        other.program = self.program
        other.machine = self.machine
        other.space = self.space
        other.tape = list(self.tape)
        other.ptr = self.ptr
        other.budget = self.budget
        other.last_action = self.last_action
        other.cycles = self.cycles
        if _OP_RAND in self.program.ops:
            # setstate overwrites the whole generator, so skip the OS seeding
            # that random.Random() would do first.
            other.rng = random.Random.__new__(random.Random)
            other.rng.setstate(self.rng.getstate())
        else:
            other.rng = self.rng  # never drawn from, so sharing is exact
        other.shortcuts = self.shortcuts
        other.frozen = self.frozen
        other.frozen_obs = self.frozen_obs
        other.frozen_raw = self.frozen_raw
        other.steps_last_cycle = self.steps_last_cycle
        other.total_steps = self.total_steps
        other.emitted_total = self.emitted_total
        other.draws = self.draws
        other.reward_free = self.reward_free
        return other

    def _emit(self, raw_obs: int, raw_numerator: int) -> Percept:
        if self.machine.enforce_reward_budget:
            numerator = min(raw_numerator, self.budget)
            self.budget -= numerator
        else:
            numerator = raw_numerator
        self.emitted_total += numerator
        return Percept(observation=raw_obs, reward_numerator=numerator)

    def step(self, action: int | None) -> Percept:
        """Advance one interaction cycle and return the emitted percept."""
        if self.cycles == 0:
            if action is not None:
                raise ProtocolError("the environment moves first: no action on cycle 1")
        else:
            if action is None:
                raise ProtocolError("an action is required after the first cycle")
            if not 0 <= action < self.space.action_count:
                raise ValueError(f"action {action} outside [0, {self.space.action_count})")
            self.last_action = action
        self.cycles += 1

        if self.frozen:
            self.steps_last_cycle = 0
            return self._emit(self.frozen_obs, self.frozen_raw)

        tape = self.tape
        ops = self.program.ops
        jumps = self.program.jumps
        length = len(ops)
        modulus = self.machine.cell_modulus
        tape_len = self.machine.tape_length
        obs_count = self.space.observation_count
        reward_mod = self.space.reward_denominator + 1
        budget_limit = self.machine.step_budget_per_cycle

        ptr = self.ptr
        start_ptr = ptr
        ip = 0
        steps = 0
        limit = budget_limit
        spin_detected = False
        write_ops = 0
        io_ops = 0
        first_old: dict[int, int] = {}
        back_log: dict[int, tuple[int, int, int, int]] | None = None

        raw_obs = 0
        raw_numerator = 0
        while True:
            if ip >= length or steps >= limit:
                break
            op = ops[ip]
            steps += 1
            if op == _OP_RIGHT:
                ptr = ptr + 1 if ptr + 1 < tape_len else 0
                ip += 1
            elif op == _OP_LEFT:
                ptr = ptr - 1 if ptr else tape_len - 1
                ip += 1
            elif op == _OP_INC:
                old = tape[ptr]
                if ptr not in first_old:
                    first_old[ptr] = old
                tape[ptr] = (old + 1) % modulus
                write_ops += 1
                ip += 1
            elif op == _OP_DEC:
                old = tape[ptr]
                if ptr not in first_old:
                    first_old[ptr] = old
                tape[ptr] = (old - 1) % modulus
                write_ops += 1
                ip += 1
            elif op == _OP_OPEN:
                ip = jumps[ip] + 1 if tape[ptr] == 0 else ip + 1
            elif op == _OP_CLOSE:
                if tape[ptr] != 0:
                    if self.shortcuts and not spin_detected:
                        if back_log is None:
                            back_log = {}
                        previous = back_log.get(ip)
                        state = (steps, ptr, write_ops, io_ops)
                        if previous is not None and previous[1:] == state[1:]:
                            # One full pass of this loop had no effect on tape,
                            # pointer or I/O: the cycle can never emit.  Burn
                            # the exact residue of the step budget so machine
                            # state matches an unshortened run.
                            iteration = steps - previous[0]
                            limit = steps + (budget_limit - steps) % iteration
                            spin_detected = True
                        else:
                            back_log[ip] = state
                    ip = jumps[ip] + 1
                else:
                    ip += 1
            elif op == _OP_READ:
                if ptr not in first_old:
                    first_old[ptr] = tape[ptr]
                tape[ptr] = self.last_action % modulus
                write_ops += 1
                io_ops += 1
                ip += 1
            elif op == _OP_RAND:
                if ptr not in first_old:
                    first_old[ptr] = tape[ptr]
                tape[ptr] = self.rng.getrandbits(1)
                self.draws += 1
                write_ops += 1
                io_ops += 1
                ip += 1
            else:  # _OP_EMIT
                raw_obs = tape[ptr] % obs_count
                raw_numerator = tape[ptr + 1 if ptr + 1 < tape_len else 0] % reward_mod
                break

        self.ptr = ptr
        if spin_detected:
            steps = budget_limit
        self.steps_last_cycle = steps
        self.total_steps += steps

        if self.shortcuts and io_ops == 0 and ptr == start_ptr:
            if all(tape[i] == value for i, value in first_old.items()):
                # The cycle left the machine state untouched and consumed no
                # input: every future cycle will replay it identically.
                self.frozen = True
                self.frozen_obs = raw_obs
                self.frozen_raw = raw_numerator
        return self._emit(raw_obs, raw_numerator)


class _ScriptedBits:
    """Random-bit source of a proof: the bits of a script, then zeros."""

    __slots__ = ("script", "drawn")

    def __init__(self) -> None:
        self.script: tuple[int, ...] = ()
        self.drawn = 0

    def getrandbits(self, k: int) -> int:  # the machine draws one bit at a time
        index = self.drawn
        self.drawn += 1
        return self.script[index] if index < len(self.script) else 0


def proves_reward_free(program: EnvProgram, machine: MachineConfig = MachineConfig(),
                       space: SpaceConfig = SpaceConfig()) -> bool:
    """Whether no positive reward is reachable, by closure over machine states.

    After every cycle the machine's future depends only on its tape, pointer,
    reward budget and frozen percept: the last-action register is rewritten
    before the program runs and the random stream only supplies bits.  The
    proof steps `EnvProcess.step` from each reachable state once per action
    (only action 0 when the program never reads one) and once per script of
    random bits: a draw past the end of a script yields 0, and every such
    draw also queues the script whose bit there is 1.  So the closure holds
    every state any run can reach, with the interpreter's own shortcuts.

    True once the closure is complete without a positive reward.  False as
    soon as a step emits one, and when the closure would need more than
    REACH_STATE_CAP states or some cycle more than REACH_SCRIPT_CAP scripts.
    """
    actions = range(space.action_count) if _OP_READ in program.ops else (0,)
    bits = _ScriptedBits()
    proc = EnvProcess(program, machine, space)
    proc.rng = bits
    initial = (tuple(proc.tape), proc.ptr, proc.budget, proc.frozen,
               proc.frozen_obs, proc.frozen_raw)
    seen: set[tuple] = set()  # post-cycle states
    stack: list[tuple] = []

    def expand(state: tuple | None, action: int | None) -> bool:
        # One cycle from `state` (None: cycle 1) under every bit script;
        # False on a positive reward or a cap.
        scripts = [()]
        tried = 0
        while scripts:
            tried += 1
            if tried > REACH_SCRIPT_CAP:
                return False
            bits.script = scripts.pop()
            bits.drawn = 0
            tape, proc.ptr, proc.budget, proc.frozen, proc.frozen_obs, proc.frozen_raw = \
                initial if state is None else state
            proc.tape = list(tape)
            proc.cycles = 0 if state is None else 1
            if proc.step(action).reward_numerator > 0:
                return False
            drawn = bits.script + (0,) * (bits.drawn - len(bits.script))
            for index in range(len(bits.script), bits.drawn):
                scripts.append(drawn[:index] + (1,))
            after = (tuple(proc.tape), proc.ptr, proc.budget, proc.frozen,
                     proc.frozen_obs, proc.frozen_raw)
            if after not in seen:
                if len(seen) == REACH_STATE_CAP:
                    return False
                seen.add(after)
                stack.append(after)
        return True

    if not expand(None, None):
        return False
    while stack:
        state = stack.pop()
        if not all(expand(state, action) for action in actions):
            return False
    return True


def check_signature_horizon(horizon: int, action_count: int) -> None:
    """Raise ValueError unless a signature walk to `horizon` fits the node cap.

    The walk's action tree has action_count^d nodes at each depth d <= horizon,
    and at most SIGNATURE_NODE_CAP of them in all.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    nodes, level = 0, 1
    for _ in range(horizon + 1):  # stops within SIGNATURE_NODE_CAP + 1 levels
        nodes += level
        if nodes > SIGNATURE_NODE_CAP:
            raise ValueError(f"a signature to horizon {horizon} over {action_count} "
                             f"actions needs more than {SIGNATURE_NODE_CAP} nodes")
        level *= action_count


def signature_and_steps(program: EnvProgram, horizon: int,
                        machine: MachineConfig = MachineConfig(),
                        space: SpaceConfig = SpaceConfig(),
                        seed: int = 0) -> tuple[bytes, int]:
    """Behavior signature plus the VM steps a full action-tree walk consumes.

    The signature concatenates the emitted percepts along every action
    sequence of length <= horizon (a complete action tree), with the random
    bit source seeded identically for every program.  Equal signatures mean
    the programs are behaviorally indistinguishable up to the horizon.

    Signature and step count are those of the complete tree, but each
    distinct machine state is expanded only once.  A node's subtree depends
    only on its depth and on the state its step left behind: tape, pointer,
    reward budget, frozen percept and random stream position.  The
    last-action register is not part of it, because every step overwrites it
    before the program runs.  Every node descends from the same seeded
    stream, so the number of random bits drawn identifies the stream
    position exactly.  Repeated subtrees reuse their bytes and add their
    steps again, so the step count stays the full-tree figure.
    """
    check_signature_horizon(horizon, space.action_count)
    last = space.action_count - 1
    memo: dict[tuple, tuple[bytes, int]] = {}

    def below(proc: EnvProcess, depth: int) -> tuple[bytes, int]:
        # Signature bytes and VM steps of everything under this node.
        if depth == horizon:
            return b"", 0
        if proc.halted:
            # The whole subtree is (0, 0); record that fact canonically
            # instead of expanding it.
            return b"\xff", 0
        key = (depth, tuple(proc.tape), proc.ptr, proc.budget, proc.frozen,
               proc.frozen_obs, proc.frozen_raw, proc.draws)
        cached = memo.get(key)
        if cached is not None:
            return cached
        parts = []
        steps = 0
        for action in range(space.action_count):
            child = proc.clone() if action < last else proc
            percept = child.step(action)
            steps += child.steps_last_cycle
            tail, tail_steps = below(child, depth + 1)  # steps `child` on
            parts.append(_percept_bytes(percept))
            parts.append(tail)
            steps += tail_steps
        memo[key] = result = (b"".join(parts), steps)
        return result

    proc = EnvProcess(program, machine, space, rng=seed)
    first = proc.step(None)
    first_steps = proc.steps_last_cycle
    tail, tail_steps = below(proc, 0)
    return _percept_bytes(first) + tail, max(1, first_steps + tail_steps)


def _percept_bytes(percept: Percept) -> bytes:
    return (percept.observation.to_bytes(2, "little")
            + percept.reward_numerator.to_bytes(2, "little"))


def save_program_file(path, programs: list[EnvProgram]) -> None:
    """Write programs one per line in the `len=<n> hex=<digits>` fixture format."""
    from .coding import format_program_line

    with open(path, "w", encoding="utf-8") as handle:
        for program in programs:
            handle.write(format_program_line(program.bits) + "\n")


def load_program_file(path, machine: MachineConfig = MachineConfig()) -> list[EnvProgram]:
    """Read a program fixture file written by save_program_file.

    A line that is not a valid program raises InvalidProgramError naming the
    file and the line number.
    """
    from .coding import parse_program_line

    programs = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                programs.append(decode_program(parse_program_line(line), machine))
            except (ValueError, InvalidProgramError) as exc:
                raise InvalidProgramError(f"{path}, line {lineno}: {exc}") from None
    return programs
