"""Reference machine: decoding, enumeration, execution, priors, signatures."""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from agentgauge.errors import InvalidProgramError, ProtocolError
from agentgauge.interaction import SpaceConfig
from agentgauge.machine import (
    INSTRUCTION_NAMES,
    EnvProcess,
    MachineConfig,
    decode_program,
    enumerate_programs,
    load_program_file,
    lockstep_step,
    prior_weight,
    program_length_bits,
    proves_reward_free,
    reward_free_key,
    save_program_file,
    signature_and_steps,
    summarize_cycle,
)
from agentgauge.measure import EnsembleSpec, build_ensemble
from natives import encode_program

MACHINE = MachineConfig()
SPACE = SpaceConfig()


def make(*instructions):
    return encode_program(list(instructions), MACHINE)


def run(program, actions, machine=MACHINE, space=SPACE, seed=0, shortcuts=True):
    proc = EnvProcess(program, machine, space, rng=random.Random(seed),
                      enable_shortcuts=shortcuts)
    percepts = [proc.step(None)]
    for action in actions:
        percepts.append(proc.step(action))
    return proc, percepts


# ---------------------------------------------------------------- decoding

def test_decode_empty_program():
    program = decode_program("1", MACHINE)
    assert program.instructions == ()
    assert program.length_bits == 1
    proc, percepts = run(program, [0, 1, 0])
    assert all(p.observation == 0 and p.reward_numerator == 0 for p in percepts)
    assert proc.halted


def test_decode_single_emit():
    bits = "010" + format(INSTRUCTION_NAMES.index("emit"), "04b")
    program = decode_program(bits, MACHINE)
    assert program.instructions == ("emit",)
    _, percepts = run(program, [1])
    assert percepts[0].observation == 0
    assert percepts[0].reward_numerator == 0


def test_decode_rejects_unbalanced_brackets():
    bits = "010" + format(INSTRUCTION_NAMES.index("loop_open"), "04b")
    with pytest.raises(InvalidProgramError):
        decode_program(bits, MACHINE)
    bits = "010" + format(INSTRUCTION_NAMES.index("loop_close"), "04b")
    with pytest.raises(InvalidProgramError):
        decode_program(bits, MACHINE)


def test_decode_rejects_reserved_opcode():
    with pytest.raises(InvalidProgramError):
        decode_program("010" + "1111", MACHINE)


def test_decode_rejects_truncation_and_trailing():
    with pytest.raises(InvalidProgramError):
        decode_program("01000", MACHINE)  # declares one opcode, delivers 2 bits
    with pytest.raises(InvalidProgramError):
        decode_program("1" + "0000", MACHINE)  # empty program with trailing bits
    with pytest.raises(InvalidProgramError):
        decode_program("", MACHINE)
    with pytest.raises(InvalidProgramError):
        decode_program("012", MACHINE)


def test_encode_decode_round_trip_on_enumeration():
    for program in enumerate_programs(14, MACHINE):
        again = decode_program(program.bits, MACHINE)
        assert again.instructions == program.instructions
        assert encode_program(program.instructions, MACHINE).bits == program.bits


@st.composite
def balanced_instruction_lists(draw):
    body = draw(st.lists(st.sampled_from(
        [n for n in INSTRUCTION_NAMES if n not in ("loop_open", "loop_close")]),
        max_size=10))
    loops = draw(st.integers(0, 3))
    out = list(body)
    for _ in range(loops):
        at = draw(st.integers(0, len(out)))
        out[at:at] = ["loop_open", "loop_close"]
    return tuple(out)


@given(balanced_instruction_lists())
def test_encode_decode_round_trip_random_programs(instructions):
    program = encode_program(instructions, MACHINE)
    assert decode_program(program.bits, MACHINE).instructions == instructions


# ------------------------------------------------------------- enumeration

def test_enumerate_zero_cutoff_is_empty():
    assert enumerate_programs(0, MACHINE) == []


def test_enumeration_matches_brute_force_decoding():
    # Independent oracle: decode every bit string of length <= 14 and keep
    # the valid ones; enumeration must produce exactly that set.
    valid = set()
    for length in range(1, 15):
        for value in range(2 ** length):
            bits = format(value, f"0{length}b")
            try:
                decode_program(bits, MACHINE)
            except InvalidProgramError:
                continue
            valid.add(bits)
    enumerated = [p.bits for p in enumerate_programs(14, MACHINE)]
    assert set(enumerated) == valid
    assert len(enumerated) == len(set(enumerated))


def test_enumerated_set_is_prefix_free():
    bits = [p.bits for p in enumerate_programs(17, MACHINE)]
    pool = set(bits)
    for b in bits:
        for cut in range(1, len(b)):
            assert b[:cut] not in pool


def test_kraft_sum_is_exact_and_below_one():
    total = sum((prior_weight(p) for p in enumerate_programs(14, MACHINE)), Fraction(0))
    assert total <= 1
    # 1 empty + 7 singletons + 50 valid pairs
    assert total == Fraction(1, 2) + Fraction(7, 128) + Fraction(50, 2048)


def test_enumeration_is_shortlex_and_monotone():
    small = [p.bits for p in enumerate_programs(11, MACHINE)]
    large = [p.bits for p in enumerate_programs(17, MACHINE)]
    assert large[: len(small)] == small
    lengths = [len(b) for b in large]
    assert lengths == sorted(lengths)
    for length, group in itertools.groupby(large, key=len):
        group = list(group)
        assert group == sorted(group)


def test_program_length_bits_table():
    assert [program_length_bits(n) for n in range(6)] == [1, 7, 11, 17, 21, 25]


# --------------------------------------------------------------- execution

def test_inc_emit_trace():
    _, percepts = run(make("inc", "emit"), [1, 1])
    assert (percepts[0].observation, percepts[0].reward_numerator) == (1, 0)
    # the counter cell keeps incrementing across cycles: 2 mod 2 = 0, 3 mod 2 = 1
    assert [p.observation for p in percepts] == [1, 0, 1]


def test_copy_program_rewards_echo_last_action():
    program = make("read_action", "move_left", "emit")
    actions = [1, 1, 0, 1, 0, 0, 1]
    _, percepts = run(program, actions)
    assert [p.reward_numerator for p in percepts] == [0] + actions
    assert all(p.observation == 0 for p in percepts)


def test_full_budget_one_shot():
    proc, percepts = run(make("dec", "move_left", "emit"), [1, 0, 1])
    assert percepts[0].reward_numerator == 255
    assert [p.reward_numerator for p in percepts[1:]] == [0, 0, 0]
    assert proc.budget == 0
    assert proc.remaining_reward_bound == 0


def test_budget_never_exceeded_on_long_rollouts():
    rng = random.Random(3)
    for program in enumerate_programs(17, MACHINE):
        proc = EnvProcess(program, MACHINE, SPACE, rng=random.Random(11))
        total = proc.step(None).reward_numerator
        for _ in range(1000):
            if proc.remaining_reward_bound == 0:
                break
            total += proc.step(rng.randrange(2)).reward_numerator
        assert total <= SPACE.reward_denominator
        assert total == SPACE.reward_denominator - proc.budget


def test_step_bound_instrumented():
    for instructions in [("inc", "loop_open", "loop_close", "emit"),
                         ("inc", "loop_open", "inc", "loop_close"),
                         ("read_action", "loop_open", "loop_close", "emit")]:
        proc = EnvProcess(make(*instructions), MACHINE, SPACE, rng=random.Random(5))
        proc.step(None)
        assert proc.steps_last_cycle <= MACHINE.step_budget_per_cycle
        for action in (1, 0, 1, 1):
            proc.step(action)
            assert proc.steps_last_cycle <= MACHINE.step_budget_per_cycle


def test_identical_seed_gives_identical_percepts():
    program = make("random_bit", "move_left", "emit")
    _, a = run(program, [1, 0, 1, 1, 0, 1], seed=9)
    _, b = run(program, [1, 0, 1, 1, 0, 1], seed=9)
    _, c = run(program, [1, 0, 1, 1, 0, 1], seed=10)
    assert a == b
    assert a != c


LOOP_FIXTURES = (
    ("inc", "loop_open", "loop_close", "emit"),
    ("dec", "loop_open", "loop_close", "inc"),
    ("random_bit", "loop_open", "loop_close", "emit"),
    ("read_action", "loop_open", "loop_close", "emit"),
    ("inc", "loop_open", "inc", "loop_close"),
    ("inc", "loop_open", "move_left", "loop_close"),
    ("loop_open", "loop_open", "loop_close", "loop_close"),
    ("inc", "loop_open", "loop_open", "loop_close", "loop_close"),
    ("inc", "loop_open", "move_left", "move_right", "loop_close", "emit"),
    ("inc", "loop_open", "emit", "loop_close"),
)
STEP_TRACE_DIGEST = "2aac77b7066ec15a86bf12bec3e25498b551ef913e2d93cbe14252ce05b495b4"


def test_shortcuts_preserve_behavior_exactly():
    # Oracle: the plain interpreter with every shortcut disabled.  Percepts
    # must agree bit for bit, including for programs that spin out a whole
    # step budget each cycle.
    rng = random.Random(123)
    programs = list(enumerate_programs(17, MACHINE))
    programs += [make(*instructions) for instructions in LOOP_FIXTURES]
    for program in programs:
        actions = [rng.randrange(2) for _ in range(30)]
        _, fast = run(program, actions, seed=77, shortcuts=True)
        _, slow = run(program, actions, seed=77, shortcuts=False)
        assert fast == slow, program.program_id


def test_step_trace_is_golden():
    # Percepts alone cannot see a drift in step counts, and `kt` weights
    # depend on them: pin the whole per-cycle machine state of both modes.
    script = random.Random(31)
    actions = [script.randrange(2) for _ in range(39)]
    programs = list(enumerate_programs(17, MACHINE))
    programs += [make(*instructions) for instructions in LOOP_FIXTURES]
    digest = hashlib.sha256()
    for program in programs:
        for shortcuts in (True, False):
            proc = EnvProcess(program, MACHINE, SPACE, rng=random.Random(41),
                              enable_shortcuts=shortcuts)
            for action in [None] + actions:
                percept = proc.step(action)
                digest.update(repr((
                    percept.observation, percept.reward_numerator,
                    proc.steps_last_cycle, proc.total_steps, proc.draws, proc.ptr,
                    proc.budget, proc.frozen is not None)).encode())
    assert digest.hexdigest() == STEP_TRACE_DIGEST


@pytest.mark.parametrize("machine, space", [
    (MACHINE, SPACE),
    (MachineConfig(tape_length=2), SPACE),
    (MachineConfig(tape_length=3), SPACE),
    (MachineConfig(cell_modulus=2), SPACE),
    (MachineConfig(step_budget_per_cycle=1), SPACE),
    (MachineConfig(step_budget_per_cycle=2), SPACE),
    (MachineConfig(step_budget_per_cycle=3), SPACE),
    (MACHINE, SpaceConfig(action_count=3)),
], ids=["default", "tape2", "tape3", "mod2", "budget1", "budget2", "budget3",
        "three-actions"])
def test_cycle_summary_matches_the_reference_interpreter(machine, space):
    # Every program of up to 21 bits: the 24-bit ensemble holds no longer
    # instruction sequence.  Small tapes alias offsets, and small budgets cut
    # a cycle before its emit.  Shortcut mode must match the reference; a
    # program without emit is frozen from the start in shortcut mode, so
    # only its percepts are compared.  Where the summary emits, it must give
    # the reference's cycles through lockstep_step, which applies it.
    for program in enumerate_programs(21, machine):
        summary = summarize_cycle(program, machine)
        assert (summary is None) == ("loop_open" in program.instructions)
        script = random.Random(program.bits)
        fast = EnvProcess(program, machine, space, rng=random.Random(5))
        slow = EnvProcess(program, machine, space, rng=random.Random(5),
                          enable_shortcuts=False)
        action = None
        for _ in range(8):
            was_frozen = fast.frozen
            assert fast.step(action) == slow.step(action), program.instructions
            if program.has_emit:
                assert (fast.draws, fast.ptr, fast.budget, fast.tape) == \
                    (slow.draws, slow.ptr, slow.budget, slow.tape), program.instructions
            if not was_frozen:
                assert fast.steps_last_cycle == slow.steps_last_cycle, program.instructions
            action = script.randrange(space.action_count)
        if summary is not None and summary.emits:
            _check_lockstep_against_the_reference(program, summary, machine, space)


def _check_lockstep_against_the_reference(program, summary, machine, space):
    """Three lockstep_step columns, each with its own actions and random bits,
    against three reference processes, cycle by cycle."""
    columns = range(3)
    slow = [EnvProcess(program, machine, space, rng=random.Random(c),
                       enable_shortcuts=False) for c in columns]
    streams = [random.Random(c) for c in columns]  # the bits each reference draws
    scripts = [random.Random(f"{program.bits}/{c}") for c in columns]
    tape = np.zeros((machine.tape_length, len(columns)), dtype=np.int64)
    budget = np.full(len(columns), space.reward_denominator)
    ptr, actions = 0, None
    for _ in range(8):
        bits = np.array([[stream.getrandbits(1) for stream in streams] for _ in summary.rands],
                        dtype=np.int64).reshape(len(summary.rands), len(columns))
        ptr, observations, numerators = lockstep_step(summary, machine, space, tape, ptr,
                                                      budget, actions, bits)
        for c, proc in zip(columns, slow):
            percept = proc.step(None if actions is None else int(actions[c]))
            assert percept == (observations[c], numerators[c]), program.instructions
            assert (proc.ptr, proc.budget, proc.tape) == \
                (ptr, budget[c], tape[:, c].tolist()), program.instructions
            assert proc.steps_last_cycle == summary.steps, program.instructions
        actions = np.array([s.randrange(space.action_count) for s in scripts], dtype=np.int64)


_CLONE_FIXTURES = (
    ("inc", "loop_open", "move_left", "loop_close", "emit"),     # loop
    ("read_action", "move_right", "inc", "emit"),                # loop-free
    ("random_bit", "move_left", "read_action", "emit"),          # random
    ("random_bit", "loop_open", "random_bit", "loop_close", "emit"),  # random loop
    ("inc", "dec", "emit"),                                      # frozen: its write undone
    ("loop_open", "loop_close", "emit"),                         # frozen: its loop skipped
    ("loop_open", "dec", "loop_close", "inc", "emit"),           # frozen on observation 1
    ("inc", "move_left"),                                        # no emit
)


@pytest.mark.parametrize("shortcuts", [True, False], ids=["shortcuts", "reference"])
def test_clone_copies_every_slot(shortcuts):
    # A slot that clone forgets to copy fails here rather than deep inside a
    # signature walk.
    for instructions in _CLONE_FIXTURES:
        proc, _ = run(make(*instructions), [1, 0, 1], seed=3, shortcuts=shortcuts)
        twin = proc.clone()
        for slot in EnvProcess.__slots__:
            mine, theirs = getattr(proc, slot), getattr(twin, slot)
            if slot == "tape":
                assert mine == theirs and mine is not theirs, instructions
            elif slot == "rng" and mine is not None:
                assert mine.getstate() == theirs.getstate() and mine is not theirs
            else:
                assert mine == theirs, (instructions, slot)
        actions = [0, 1, 1, 0, 1, 1]
        assert [proc.step(a) for a in actions] == [twin.step(a) for a in actions], \
            instructions


def test_protocol_discipline():
    proc = EnvProcess(make("emit"), MACHINE, SPACE)
    with pytest.raises(ProtocolError):
        proc.step(0)  # environment moves first
    proc.step(None)
    with pytest.raises(ProtocolError):
        proc.step(None)  # an action is required afterwards
    with pytest.raises(ValueError):
        proc.step(5)


def test_machine_config_validation():
    with pytest.raises(ValueError):
        MachineConfig(tape_length=1)
    with pytest.raises(ValueError):
        MachineConfig(step_budget_per_cycle=0)
    with pytest.raises(ValueError):
        MachineConfig(opcode_table=("emit",) * 9)


# ------------------------------------------------------- priors and kt cost

def test_prior_weight_is_exact_dyadic():
    assert prior_weight(decode_program("1", MACHINE)) == Fraction(1, 2)
    assert prior_weight(make("emit")) == Fraction(1, 128)
    for program in enumerate_programs(11, MACHINE):
        assert prior_weight(program) == Fraction(1, 2 ** program.length_bits)


def test_kt_cost_values_and_doubling_law():
    # build_ensemble's kt weighting charges |p| + log2(steps) bits, i.e. the
    # weight 2^-|p| / steps, so doubling the steps halves the weight.
    spec = EnsembleSpec(max_program_length_bits=17, weight_scheme="kt",
                        dedup_horizon=None)
    emit = make("emit")  # 7 bits, 1 step
    (entry,) = build_ensemble(spec, MACHINE, SPACE, programs=[emit]).entries
    assert entry.raw_weight == Fraction(1, 128)
    # Without dedup every entry is one program weighted exactly.
    undeduped = build_ensemble(spec, MACHINE, SPACE)
    assert len(undeduped.entries) == undeduped.program_count
    for entry in undeduped.entries:
        program = entry.environment.program
        steps = signature_and_steps(program, 8, MACHINE, SPACE)[1]
        assert entry.raw_weight * steps == prior_weight(program)


# -------------------------------------------------------------- signatures

def test_signature_of_empty_program_is_all_zero():
    signature = signature_and_steps(decode_program("1", MACHINE), 3)[0]
    assert signature == b"\x00\x00\x00\x00\xff"  # one (0, 0) percept, then dead


def test_equal_behavior_programs_share_signatures():
    # The tail after the first emit never runs, so these are all the same
    # constant environment.
    base = signature_and_steps(make("emit"), 5)[0]
    assert signature_and_steps(make("emit", "emit"), 5)[0] == base
    assert signature_and_steps(make("emit", "inc"), 5)[0] == base
    assert signature_and_steps(decode_program("1", MACHINE), 5)[0] == base


def test_signatures_separate_distinct_behaviors():
    copy_program = make("read_action", "move_left", "emit")
    assert signature_and_steps(copy_program, 5)[0] != signature_and_steps(make("emit"), 5)[0]


def test_signature_counts_show_duplicates():
    programs = enumerate_programs(16, MACHINE)
    signatures = {signature_and_steps(p, 4)[0] for p in programs}
    assert len(signatures) < len(programs)


def test_signature_horizon_cap():
    with pytest.raises(ValueError):
        signature_and_steps(make("emit"), 13)
    with pytest.raises(ValueError):
        signature_and_steps(make("emit"), 0)


def test_signature_steps_are_deterministic():
    program = make("random_bit", "move_left", "emit")
    assert signature_and_steps(program, 6) == signature_and_steps(program, 6)


def _full_tree_walk(program, horizon, machine, space):
    """Reference signature: replay every action sequence from a fresh process."""
    out = bytearray()
    steps = 0

    def visit(path):
        nonlocal steps
        proc = EnvProcess(program, machine, space, rng=random.Random(0))
        percept = proc.step(None)
        for action in path:
            percept = proc.step(action)
        steps += proc.steps_last_cycle
        out.extend(percept.observation.to_bytes(2, "little"))
        out.extend(percept.reward_numerator.to_bytes(2, "little"))
        if len(path) == horizon:
            return
        if proc.halted:
            out.append(0xFF)
            return
        for action in range(space.action_count):
            visit(path + (action,))

    visit(())
    return bytes(out), max(1, steps)


_SIGNATURE_EXTRAS = (
    ("read_action", "random_bit", "move_left", "emit"),
    ("random_bit", "move_right", "read_action", "emit"),
    ("read_action", "loop_open", "loop_close", "emit"),
    ("inc", "loop_open", "loop_close", "emit"),
    ("read_action", "loop_open", "random_bit", "loop_close", "emit"),
    ("read_action", "move_right", "inc", "emit"),
    ("move_right", "read_action", "move_right", "random_bit", "emit"),
    ("move_right", "read_action", "move_left", "emit"),
)


@pytest.mark.parametrize("machine, space, horizon", [
    (MACHINE, SPACE, 5),
    (MachineConfig(step_budget_per_cycle=2), SPACE, 5),
    (MachineConfig(tape_length=4, cell_modulus=3), SPACE, 5),
    (MACHINE, SpaceConfig(action_count=3, observation_count=3, reward_denominator=2), 4),
], ids=["default", "budget2", "tape4-mod3", "three-actions-budget2"])
def test_signature_equals_full_tree_walk(machine, space, horizon):
    programs = enumerate_programs(16, machine) + [
        encode_program(list(extra), machine) for extra in _SIGNATURE_EXTRAS]
    for program in programs:
        expected = _full_tree_walk(program, horizon, machine, space)
        assert signature_and_steps(program, horizon, machine, space) == expected, \
            program.instructions


@pytest.mark.parametrize("bits, digest", [
    (17, "86e9a17a83ceab49cd5204fb0ca5b4b0159bd9e5c5576b9298a71ab6512b7d05"),
    (24, "70582620f96b6c89d1344c1e9b95e42f492ff45b65cb2e84e3a6a43e54e24121"),
])
def test_signature_golden_hash(bits, digest):
    # Recorded from a walk that expanded every node of the action tree.
    h = hashlib.sha256()
    for program in enumerate_programs(bits, MACHINE):
        sig, steps = signature_and_steps(program, 8, MACHINE, SPACE)
        h.update(len(sig).to_bytes(4, "little") + sig + steps.to_bytes(8, "little"))
    assert h.hexdigest() == digest


# ----------------------------------------------------- reward reachability

class _Script:
    """Random-bit source that plays fixed bits, then zeros, counting draws."""

    def __init__(self, bits):
        self.bits = bits
        self.drawn = 0

    def getrandbits(self, k):
        bit = self.bits[self.drawn] if self.drawn < len(self.bits) else 0
        self.drawn += 1
        return bit


def _replay(program, path, machine, space):
    """A fresh process stepped along `path`: one (action, bits) pair per cycle,
    the first action None.

    Returns the process, the last percept, and whether every cycle drew
    exactly its bits.
    """
    proc = EnvProcess(program, machine, space)
    percept, exact = None, True
    for action, bits in path:
        proc.rng = _Script(bits)
        percept = proc.step(action)
        exact = exact and proc.rng.drawn == len(bits)
    return proc, percept, exact


def _reward_on_some_path(program, depth, machine, space):
    """Reference walk: a path of at most `depth` cycles that ends in positive
    reward, or None.  Every action and every bit string is tried, and every
    node is replayed from a fresh process.  Only read_action reads the
    last-action register, so a program without it is walked with action 0."""
    reads = "read_action" in program.instructions

    def visit(path):
        if len(path) == depth:
            return None
        for action in ((None,) if not path else range(space.action_count if reads else 1)):
            pending = [()]
            while pending:
                bits = pending.pop()
                proc, percept, exact = _replay(program, path + [(action, bits)],
                                               machine, space)
                if not exact:
                    # the cycle draws more bits than `bits` holds: try both
                    pending += [bits + (0,), bits + (1,)]
                    continue
                if percept.reward_numerator > 0:
                    return path + [(action, bits)]
                if not proc.halted:
                    found = visit(path + [(action, bits)])
                    if found is not None:
                        return found
        return None

    return visit([])


_REACHABILITY_EXTRAS = (
    ("read_action", "move_left", "emit"),
    ("random_bit", "move_left", "emit"),
    ("read_action", "inc", "emit"),
    ("random_bit", "inc", "emit"),
    ("move_right", "read_action", "move_left", "emit"),
    ("random_bit", "move_left", "read_action", "emit"),
    ("inc", "loop_open", "loop_close", "emit"),
    ("read_action", "loop_open", "loop_close", "emit"),
    ("random_bit", "loop_open", "loop_close", "emit"),
    ("inc", "loop_open", "random_bit", "loop_close", "emit"),
    ("loop_open", "random_bit", "move_right", "loop_close", "inc", "emit"),
    ("read_action", "loop_open", "dec", "emit", "loop_close", "inc", "emit"),
)


# Ids of the programs proven reward-free, as recorded when the proof also
# reported reward-capable and undecided verdicts.  Both machines prove the
# same 64 of the 70 programs.
_REWARD_FREE_DIGEST = "aa161b476e383b624792fd447b45a7696ad00a0c494e97655af6f9526c9f4e16"


@pytest.mark.parametrize("machine, space", [
    (MACHINE, SPACE),
    (MachineConfig(tape_length=4, cell_modulus=3),
     SpaceConfig(action_count=3, observation_count=3, reward_denominator=2)),
], ids=["default", "tape4-mod3-three-actions"])
def test_reward_reachability_is_sound(machine, space):
    programs = enumerate_programs(16, machine) + [
        encode_program(list(extra), machine) for extra in _REACHABILITY_EXTRAS]
    proven = hashlib.sha256()
    for program in programs:
        if not proves_reward_free(program, machine, space):
            continue
        proven.update(program.program_id.encode() + b"\n")
        assert _reward_on_some_path(program, 8, machine, space) is None, \
            program.instructions
        for seed in range(3):
            rng = random.Random(seed)
            proc = EnvProcess(program, machine, space, rng=random.Random(seed))
            emitted = [proc.step(None)]
            emitted += [proc.step(rng.randrange(space.action_count))
                        for _ in range(999)]
            assert all(p.reward_numerator == 0 for p in emitted), program.instructions
    assert proven.hexdigest() == _REWARD_FREE_DIGEST


@pytest.mark.parametrize("machine, space", [
    (MACHINE, SPACE),
    (MachineConfig(tape_length=4, cell_modulus=3),
     SpaceConfig(action_count=3, observation_count=3, reward_denominator=2)),
], ids=["default", "tape4-mod3-three-actions"])
def test_cycle_summaries_change_no_proof_verdict(monkeypatch, machine, space):
    # With summaries the proof tries only action 0 where every read is
    # overwritten within the cycle; without, it tries every action the machine
    # can tell apart.  Either way it steps the interpreter.
    programs = enumerate_programs(21, machine)
    verdicts = [proves_reward_free(program, machine, space) for program in programs]
    monkeypatch.setattr("agentgauge.machine.summarize_cycle", lambda program, machine: None)
    assert verdicts == [proves_reward_free(program, machine, space) for program in programs]


KEYED_ENSEMBLES = pytest.mark.parametrize("bits, machine, space, keys, horizon", [
    (24, MACHINE, SPACE, 225, 8),
    # a step budget of 2 cuts the 3-instruction programs short; horizon 7 is
    # the deepest whose three-action tree fits the signature node cap
    (20, MachineConfig(tape_length=4, cell_modulus=3, step_budget_per_cycle=2),
     SpaceConfig(action_count=3, observation_count=3, reward_denominator=2), 39, 7),
], ids=["default-24-bits", "tape4-mod3-three-actions-budget2"])


@KEYED_ENSEMBLES
def test_programs_sharing_a_reward_free_key_share_the_verdict(bits, machine, space, keys,
                                                              horizon):
    # build_ensemble proves one program per key and gives every other
    # program of that key the same verdict
    verdicts: dict[tuple, bool] = {}
    for program in enumerate_programs(bits, machine):
        verdict = proves_reward_free(program, machine, space)
        key = reward_free_key(program, machine)
        assert verdicts.setdefault(key, verdict) == verdict, program.instructions
    assert True in verdicts.values() and False in verdicts.values()
    assert len(verdicts) == keys


@KEYED_ENSEMBLES
def test_programs_sharing_a_reward_free_key_share_the_signature(bits, machine, space, keys,
                                                                horizon):
    # build_ensemble walks one program per key and gives every other program
    # of that key its signature, and its steps scaled by the cycle's steps
    walks: dict[tuple, tuple] = {}
    members: dict[tuple, int] = {}
    for program in enumerate_programs(bits, machine):
        signature, steps = signature_and_steps(program, horizon, machine, space)
        summary = summarize_cycle(program, machine) if program.has_emit else None
        key = reward_free_key(program, machine)
        rep_signature, rep_steps, rep_summary = walks.setdefault(
            key, (signature, steps, summary))
        members[key] = members.get(key, 0) + 1
        assert signature == rep_signature, program.instructions
        if not program.has_emit:
            assert steps == 1
        elif summary is None:
            assert members[key] == 1, program.instructions  # a loop key holds one program
        else:
            assert rep_steps % rep_summary.steps == 0, program.instructions
            assert steps == rep_steps // rep_summary.steps * summary.steps, program.instructions
    assert len(walks) == keys


def test_reward_proof_answers_no_past_the_state_cap(monkeypatch):
    # emit takes its reward from an odd cell and nothing writes one, so no run
    # rewards; the closure still counts the random bits in the even cells
    program = make("random_bit", "move_right", "move_right", "emit")
    assert program.length_bits == 21
    assert proves_reward_free(program, MachineConfig(tape_length=8), SPACE)
    assert not proves_reward_free(program, MACHINE, SPACE)  # 2^32 tapes at 64 cells
    sixteen = MachineConfig(tape_length=16)
    assert not proves_reward_free(program, sixteen, SPACE)
    monkeypatch.setattr("agentgauge.machine.REACH_STATE_CAP", 4096)
    assert proves_reward_free(program, sixteen, SPACE)


def test_proof_tries_each_machine_visible_action_once(monkeypatch):
    # the machine reads an action modulo cell_modulus, so actions past it
    # reach no new state; the proof's cost must not grow with them
    calls = []
    step = EnvProcess.step

    def counting_step(proc, action):
        calls.append(action)
        return step(proc, action)

    monkeypatch.setattr(EnvProcess, "step", counting_step)
    counts = []
    for actions in (256, 4096):
        calls.clear()
        assert proves_reward_free(make("read_action", "emit"), MACHINE,
                                  SpaceConfig(action_count=actions))
        counts.append(len(calls))
    assert counts[0] == counts[1]
    monkeypatch.undo()
    binary = MachineConfig(cell_modulus=2)
    for program in enumerate_programs(17, binary):
        assert (proves_reward_free(program, binary, SpaceConfig(action_count=2))
                == proves_reward_free(program, binary, SpaceConfig(action_count=5))), \
            program.instructions


# ------------------------------------------------------------ fixture files

def test_program_file_round_trip(tmp_path):
    programs = enumerate_programs(11, MACHINE)
    path = tmp_path / "programs.txt"
    save_program_file(path, programs)
    loaded = load_program_file(path, MACHINE)
    assert [p.bits for p in loaded] == [p.bits for p in programs]
