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

`EnvProcess.step` runs every cycle of one process through the interpreter.
With shortcuts on it freezes a process once a cycle leaves its state
untouched and cuts short a loop pass that changes nothing; with them off it
is the reference.  A cycle of a loop-free program is straight-line code, and
`summarize_cycle` evaluates it once, relative to the start pointer
(symbolic execution, King 1976): the random-bit and action writes, the net
change of each cell, the net pointer move, the step count and whether it
emits.  The interpreter's cycle is a function of that summary, and
`lockstep_step` applies it to many processes of one program at once.

Reward emission is budget-limited: a process can emit at most D/D = 1 of
total reward over its lifetime (numerators are clamped to the remaining
budget), which makes every program a reward-summable environment by
construction.

`proves_reward_free` decides that a program can never emit a positive
reward.  It explores the closure of machine states reachable under every
action and every outcome of every random bit, stepping `EnvProcess.step`
itself, and answers no when a step emits reward or a cap is hit.  Its
verdict depends only on `reward_free_key`: the cycle summary of a loop-free
program (less its step count), the opcodes of a program with a loop, or one
shared key for every program without `emit`.  Programs of one key run the
same cycle in the interpreter, so they share a behaviour signature.  So an
ensemble proves once per key, and walks a signature once per key when it
deduplicates; at 24 bits, 3,119 programs have 225 keys.  The owner of a
proof starts a proven process with its budget spent: no percept changes,
and its remaining reward bound is 0 from its first cycle on.

`first_cycle_steps` is the time t that `kt` weighting charges a program,
2^-(|p| + log2 t): the steps the reference interpreter runs in cycle 1 with
zero random bits, its summary's `steps` for a loop-free program.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .coding import (
    elias_gamma_decode,
    elias_gamma_encode,
    format_program_line,
    parse_program_line,
)
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

# Builds a Percept without a Python-level call of Percept.__new__.
_new_tuple = tuple.__new__

OPCODE_BITS = 4
SIGNATURE_NODE_CAP = 8192
# Each process holds the tape as a list of ints; more cells is almost surely a typo.
MAX_TAPE_LENGTH = 65_536
# A looping cycle may spin through its whole budget; more steps is almost surely a typo.
MAX_STEP_BUDGET = 65_536
REACH_STATE_CAP = 256     # distinct post-cycle states a proof may visit
REACH_SCRIPT_CAP = 256    # random-bit scripts one cycle may branch into


@dataclass(frozen=True)
class MachineConfig:
    """Reference machine parameters.

    The opcode table maps 4-bit code values 0..8 to instruction meanings; it
    is permutable to support the reference-machine sensitivity experiment.
    """

    step_budget_per_cycle: int = 4096
    tape_length: int = 64
    cell_modulus: int = 256
    opcode_table: tuple[str, ...] = INSTRUCTION_NAMES

    def __post_init__(self) -> None:
        if self.step_budget_per_cycle < 1:
            raise ValueError("step_budget_per_cycle must be >= 1")
        if self.step_budget_per_cycle > MAX_STEP_BUDGET:
            raise ValueError(f"step_budget_per_cycle must be at most {MAX_STEP_BUDGET}, "
                             f"got {self.step_budget_per_cycle}")
        if self.tape_length < 2:
            raise ValueError("tape_length must be >= 2 (emit reads two cells)")
        if self.tape_length > MAX_TAPE_LENGTH:
            raise ValueError(f"tape_length must be at most {MAX_TAPE_LENGTH}, "
                             f"got {self.tape_length}")
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

    @functools.cached_property
    def program_id(self) -> str:
        return format_program_line(self.bits)


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


def kraft_sum(programs: list[EnvProgram]) -> Fraction:
    """Exact sum of 2^-|p| over the programs, as integer numerators over 2^longest."""
    longest = max((p.length_bits for p in programs), default=0)
    return Fraction(sum(1 << (longest - p.length_bits) for p in programs), 1 << longest)


class CycleSummary(NamedTuple):
    """The effect of one cycle of a loop-free program, relative to its start pointer.

    A cell is an offset from the start pointer reduced mod the tape length,
    then stored minus the tape length, so `tape[ptr + cell]` indexes it
    directly for any pointer on the tape.
    """

    steps: int                  # instructions run: through emit, or to the end, within budget
    rands: tuple[int, ...]      # the cell of each random_bit, in order
    reads: tuple[int, ...]      # the cells whose last write is a read_action
    increments: tuple[tuple[int, int], ...]  # (cell, net change after its last write)
    move: int                   # net pointer move, stored like a cell
    emits: bool
    static: bool                # no input, no move, no change: the state stays as it was


def summarize_cycle(program: EnvProgram, machine: MachineConfig) -> CycleSummary | None:
    """The straight-line summary of one cycle, or None for a program with a loop.

    Without a loop a cycle runs the program's instructions in order, up to
    the first emit or the end of the program, capped by the step budget.  A
    read_action or random_bit write drops the increments made before it to
    the same cell.  Applying the random bits in order, then the reads, then
    the increments gives the tape the interpreter leaves.
    """
    if _OP_OPEN in program.ops:
        return None
    tape_len = machine.tape_length
    ops = program.ops[:machine.step_budget_per_cycle]
    steps, emits = len(ops), False
    cell = -tape_len    # where the pointer is, stored like a cell
    rands: list[int] = []
    reads: set[int] = set()
    increments: dict[int, int] = {}
    for index, op in enumerate(ops):
        if op == _OP_RIGHT:
            cell = cell + 1 if cell < -1 else -tape_len
        elif op == _OP_LEFT:
            cell = cell - 1 if cell > -tape_len else -1
        elif op == _OP_INC or op == _OP_DEC:
            increments[cell] = increments.get(cell, 0) + (1 if op == _OP_INC else -1)
        elif op == _OP_EMIT:
            steps, emits = index + 1, True
            break
        else:
            increments.pop(cell, None)
            reads.discard(cell)
            if op == _OP_READ:
                reads.add(cell)
            else:
                rands.append(cell)
    modulus = machine.cell_modulus
    changes = tuple((c, amount % modulus) for c, amount in increments.items()
                    if amount % modulus)
    static = not (rands or reads or changes) and cell == -tape_len
    return CycleSummary(steps, tuple(rands), tuple(reads), changes, cell, emits, static)


class EnvProcess:
    """One running environment: a program plus its persistent machine state.

    Single-owner mutable; distinct processes may run in parallel freely.
    After a cycle, the process's future depends only on `state()` (its tape,
    pointer, reward budget and frozen percept) and on the bits its `rng`
    still supplies.  `frozen` is the raw percept every later cycle repeats
    once a cycle left the state untouched, or None while the process is
    live.  `enable_shortcuts=False` turns off all execution shortcuts (used
    by tests that check the shortcuts are behavior-preserving), freezing
    included.  The remaining reward bound reads only `budget` and `frozen`;
    the owner of a `proves_reward_free` proof sets `budget` to 0, which
    changes no percept of that program, only the bound.  A program without
    `random_bit` keeps no bit source: its `rng` is None.  Every cycle runs
    through the interpreter; `lockstep_step` is its batch form for a
    loop-free program.
    """

    __slots__ = (
        "program", "machine", "space", "tape", "ptr", "budget", "last_action",
        "cycles", "rng", "shortcuts", "frozen", "steps_last_cycle", "total_steps",
        "draws",
    )

    def __init__(self, program: EnvProgram, machine: MachineConfig,
                 space: SpaceConfig, rng: random.Random | None = None,
                 enable_shortcuts: bool = True) -> None:
        self.program = program
        self.machine = machine
        self.space = space
        self.tape = [0] * machine.tape_length
        self.ptr = 0
        self.budget = space.reward_denominator
        self.last_action = 0
        self.cycles = 0
        self.rng = rng if _OP_RAND in program.ops else None
        self.shortcuts = enable_shortcuts
        # A program with no EMIT can only ever produce default percepts.
        self.frozen = Percept(0, 0) if enable_shortcuts and not program.has_emit else None
        self.steps_last_cycle = 0
        self.total_steps = 0
        self.draws = 0  # random bits drawn so far

    @property
    def halted(self) -> bool:
        """True once every future percept is provably (observation 0, reward 0)."""
        return (self.frozen is not None and self.frozen.observation == 0
                and self.remaining_reward_bound == 0)

    @property
    def remaining_reward_bound(self) -> float:
        """Upper bound on the reward fraction this process can still emit."""
        if self.frozen is not None and self.frozen.reward_numerator == 0:
            return 0.0
        return self.budget / self.space.reward_denominator

    def state(self) -> tuple:
        """The post-cycle machine state: (tape, pointer, budget, frozen percept).

        The last-action register is not part of it, because every cycle
        rewrites it before the program runs, and the random stream only
        supplies bits.
        """
        return (tuple(self.tape), self.ptr, self.budget, self.frozen)

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
        if self.rng is not None:
            # setstate overwrites the whole generator, so skip the OS seeding
            # that random.Random() would do first.
            other.rng = random.Random.__new__(random.Random)
            other.rng.setstate(self.rng.getstate())
        else:
            other.rng = None
        other.shortcuts = self.shortcuts
        other.frozen = self.frozen
        other.steps_last_cycle = self.steps_last_cycle
        other.total_steps = self.total_steps
        other.draws = self.draws
        return other

    def step(self, action: int | None) -> Percept:
        """Advance one interaction cycle and return the emitted percept."""
        if self.cycles:
            if action is None:
                raise ProtocolError("an action is required after the first cycle")
            if not 0 <= action < self.space.action_count:
                raise ValueError(f"action {action} outside [0, {self.space.action_count})")
            self.last_action = action
        elif action is not None:
            raise ProtocolError("the environment moves first: no action on cycle 1")
        self.cycles += 1
        machine = self.machine

        if self.frozen is not None:
            self.steps_last_cycle = 0
            raw_obs, raw_numerator = self.frozen
        else:
            tape = self.tape
            program = self.program
            ops = program.ops
            jumps = program.jumps
            length = len(ops)
            modulus = machine.cell_modulus
            tape_len = machine.tape_length
            budget_limit = machine.step_budget_per_cycle
            shortcuts = self.shortcuts

            ptr = start_ptr = self.ptr
            ip = steps = write_ops = io_ops = 0
            limit = budget_limit
            spin_detected = False
            first_old: dict[int, int] = {}
            back_log: dict[int, tuple[int, int, int, int]] | None = None
            raw_obs = raw_numerator = 0
            while ip < length and steps < limit:
                op = ops[ip]
                ip += 1
                steps += 1
                if op < _OP_OPEN:
                    if op == _OP_RIGHT:
                        ptr += 1
                        if ptr == tape_len:
                            ptr = 0
                    elif op == _OP_LEFT:
                        ptr = ptr - 1 if ptr else tape_len - 1
                    else:
                        old = tape[ptr]
                        if ptr not in first_old:
                            first_old[ptr] = old
                        tape[ptr] = (old + 1 if op == _OP_INC else old - 1) % modulus
                        write_ops += 1
                elif op == _OP_OPEN:
                    if not tape[ptr]:
                        ip = jumps[ip - 1] + 1
                elif op == _OP_CLOSE:
                    if tape[ptr]:
                        if shortcuts and not spin_detected:
                            if back_log is None:
                                back_log = {}
                            previous = back_log.get(ip)
                            if previous is not None and previous[1:] == (ptr, write_ops, io_ops):
                                # One full pass of this loop had no effect on
                                # tape, pointer or I/O: the cycle can never
                                # emit.  Burn the exact residue of the step
                                # budget so machine state matches an
                                # unshortened run.
                                limit = steps + (budget_limit - steps) % (steps - previous[0])
                                spin_detected = True
                            else:
                                back_log[ip] = (steps, ptr, write_ops, io_ops)
                        ip = jumps[ip - 1] + 1
                elif op == _OP_EMIT:
                    raw_obs = tape[ptr] % self.space.observation_count
                    raw_numerator = (tape[ptr + 1 if ptr + 1 < tape_len else 0]
                                     % (self.space.reward_denominator + 1))
                    break
                else:
                    if ptr not in first_old:
                        first_old[ptr] = tape[ptr]
                    if op == _OP_READ:
                        tape[ptr] = self.last_action % modulus
                    else:
                        tape[ptr] = self.rng.getrandbits(1)
                        self.draws += 1
                    write_ops += 1
                    io_ops += 1

            self.ptr = ptr
            if spin_detected:
                steps = budget_limit
            self.steps_last_cycle = steps
            self.total_steps += steps
            if shortcuts and not io_ops and ptr == start_ptr:
                for cell, value in first_old.items():
                    if tape[cell] != value:
                        break
                else:
                    # The cycle left the machine state untouched and consumed
                    # no input: every future cycle will replay it identically.
                    self.frozen = _new_tuple(Percept, (raw_obs, raw_numerator))

        if raw_numerator:
            if raw_numerator > self.budget:
                raw_numerator = self.budget
            self.budget -= raw_numerator
        return _new_tuple(Percept, (raw_obs, raw_numerator))


def lockstep_step(summary: CycleSummary, machine: MachineConfig, space: SpaceConfig,
                  tape: np.ndarray, ptr: int, budget: np.ndarray, actions: np.ndarray | None,
                  bits: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """The cycle `EnvProcess.step` interprets, applied from its `summary` to
    processes of one loop-free program whose cycle emits, one per column of
    the int64 `tape` (cells x processes).  They share `ptr`: each cycle moves
    it by `move`.  Each random bit of the summary takes a row of `bits`,
    reads take `actions` (None: all 0), and rewards are clamped to `budget`,
    which is spent.  Returns the new pointer, the observations and the reward
    numerators.  Cells must fit int64 with room for one increment:
    `cell_modulus` at most 2^62."""
    _, rands, reads, increments, move, _, _ = summary
    modulus = machine.cell_modulus
    for cell, row in zip(rands, bits):
        tape[ptr + cell] = row
    for cell in reads:
        tape[ptr + cell] = 0 if actions is None else actions % modulus
    for cell, amount in increments:
        tape[ptr + cell] = (tape[ptr + cell] + amount) % modulus
    ptr = (ptr + move) % machine.tape_length
    numerators = np.minimum(tape[ptr + 1 - len(tape)] % (space.reward_denominator + 1), budget)
    budget -= numerators
    return ptr, tape[ptr] % space.observation_count, numerators


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

    After every cycle the machine's future depends only on
    `EnvProcess.state()`: its tape, pointer, reward budget and frozen
    percept.  The proof steps `EnvProcess.step` from each reachable state
    once per action the machine can tell apart (it reads an action modulo
    `cell_modulus`; only action 0 when the cycle summary shows that no
    action the program reads outlasts its cycle) and once per script of
    random bits: a draw past the end of a script yields 0, and every such
    draw also queues the script whose bit there is 1.  So the closure holds
    every state any run can reach, with the interpreter's own shortcuts.

    True once the closure is complete without a positive reward.  False as
    soon as a step emits one, and when the closure would need more than
    REACH_STATE_CAP states or some cycle more than REACH_SCRIPT_CAP scripts.
    """
    bits = _ScriptedBits()
    proc = EnvProcess(program, machine, space, rng=bits)
    # a loop-free cycle whose reads are all overwritten ends in the same state
    # whatever the action, and actions equal modulo cell_modulus write equal cells
    summary = summarize_cycle(program, machine)
    reads = _OP_READ in program.ops if summary is None else summary.reads
    actions = range(min(space.action_count, machine.cell_modulus)) if reads else (0,)
    initial = proc.state()
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
            tape, proc.ptr, proc.budget, proc.frozen = initial if state is None else state
            proc.tape = list(tape)
            proc.cycles = 0 if state is None else 1
            if proc.step(action).reward_numerator > 0:
                return False
            drawn = bits.script + (0,) * (bits.drawn - len(bits.script))
            for index in range(len(bits.script), bits.drawn):
                scripts.append(drawn[:index] + (1,))
            after = proc.state()
            known = len(seen)   # add and compare sizes: one hash of the state, not two
            seen.add(after)
            if len(seen) > known:
                if known == REACH_STATE_CAP:
                    return False
                stack.append(after)
        return True

    if not expand(None, None):
        return False
    while stack:
        state = stack.pop()
        if not all(expand(state, action) for action in actions):
            return False
    return True


def first_cycle_steps(program: EnvProgram, machine: MachineConfig) -> int:
    """The steps the reference interpreter runs in cycle 1, at least 1.

    Cycle 1 reads action 0 from the last-action register, and here every
    random bit is 0.  A loop-free program's count is its summary's `steps`;
    any other program runs the cycle.  No space setting changes the count.
    """
    summary = summarize_cycle(program, machine)
    if summary is not None:
        return max(1, summary.steps)
    proc = EnvProcess(program, machine, SpaceConfig(), rng=_ScriptedBits(),
                      enable_shortcuts=False)
    proc.step(None)
    return max(1, proc.steps_last_cycle)


def reward_free_key(program: EnvProgram, machine: MachineConfig) -> tuple:
    """What `proves_reward_free` reads of a program: equal keys, equal verdicts.

    The proof only builds an `EnvProcess` with shortcuts on and steps it.
    A program without `emit` is frozen at (0, 0) from its first cycle, so
    every such program shares the key `()` and the proof holds.  The
    interpreter's cycle of a loop-free program that can emit is a function
    of its `CycleSummary` (`lockstep_step` applies it, and the tests check
    the two agree), and the proof's choice of actions reads the summary
    too; of the summary, `steps` only feeds the step counters, which no
    percept and no state reads, so the key is the rest of the summary.  Any
    other program's key is its opcodes.  The key holds for one machine and
    space, like the proof.
    """
    if not program.has_emit:
        return ()
    summary = summarize_cycle(program, machine)
    return program.ops if summary is None else summary[1:]


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
                        space: SpaceConfig = SpaceConfig()) -> tuple[bytes, int]:
    """Behavior signature plus the VM steps a full action-tree walk consumes.

    The signature concatenates the emitted percepts along every action
    sequence of length <= horizon (a complete action tree), with the random
    bit source seeded with 0 for every program.  Signatures are compared
    across programs, so every walk must see the same bits: under two seeds a
    program that draws one would not match itself.  Equal signatures mean
    the programs are behaviorally indistinguishable up to the horizon.

    Signature and step count are those of the complete tree, but each
    distinct machine state is expanded only once.  A node's subtree depends
    only on its depth, on the `EnvProcess.state()` its step left behind
    (tape, pointer, reward budget and frozen percept) and on the random
    stream position.  Every node descends from the same seeded stream, so
    the number of random bits drawn identifies that position exactly.
    Repeated subtrees reuse their bytes and add their steps again, so the
    step count stays the full-tree figure.
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
        key = (depth, proc.draws, proc.state())
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

    proc = EnvProcess(program, machine, space, rng=random.Random(0))
    first = proc.step(None)
    first_steps = proc.steps_last_cycle
    tail, tail_steps = below(proc, 0)
    return _percept_bytes(first) + tail, max(1, first_steps + tail_steps)


def _percept_bytes(percept: Percept) -> bytes:
    return (percept.observation.to_bytes(2, "little")
            + percept.reward_numerator.to_bytes(2, "little"))


def save_program_file(path, programs: list[EnvProgram]) -> None:
    """Write programs one per line in the `len=<n> hex=<digits>` fixture format."""
    with open(path, "w", encoding="utf-8") as handle:
        for program in programs:
            handle.write(format_program_line(program.bits) + "\n")


def load_program_file(path, machine: MachineConfig = MachineConfig()) -> list[EnvProgram]:
    """Read a program fixture file written by save_program_file.

    A line that is not valid UTF-8 or not a valid program raises
    InvalidProgramError naming the file and the line number, and so does a
    repeated program, naming both lines: its weight would count twice.  A
    file without a program line raises it naming the file.
    """
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()
    programs = []
    first_line: dict[str, int] = {}   # bits -> line number
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
            if line and not line.startswith("#"):
                program = decode_program(parse_program_line(line), machine)
                if program.bits in first_line:
                    raise InvalidProgramError(
                        f"repeats the program of line {first_line[program.bits]}")
                first_line[program.bits] = lineno
                programs.append(program)
        except (ValueError, InvalidProgramError) as exc:
            raise InvalidProgramError(f"{path}, line {lineno}: {exc}") from None
    if not programs:
        raise InvalidProgramError(f"{path}: the file holds no program")
    return programs
